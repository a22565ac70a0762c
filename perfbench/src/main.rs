//! Benchmark worker: runs one workload of the cluster simulator once and
//! prints one JSON object of raw measurements on its last stdout line.
//!
//! ```text
//! s2ta-perfbench --workload <name> --seed <n> [--requests <n>] [--trace]
//! ```
//!
//! One process is one run: it generates the seeded request stream, builds
//! the cluster, calls `Cluster::serve` once, reads the report, checks the
//! simulated outputs, and reports host time, CPU time and peak memory.
//! `run.py` starts it several times per measurement and takes medians.
//! With `--trace` the cluster runs with a flight recorder attached and the
//! line also carries the per-layer host spans.

use s2ta_bench::{chaos_scenario, cluster_scenario};
use s2ta_core::pool::Executor;
use s2ta_energy::TechParams;
use s2ta_serve::{
    Cluster, ClusterReport, DiurnalSpec, Request, RequestOutcome, RoutingPolicy, TraceConfig,
};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// The benchmark's workloads (see `BENCHMARK.json` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// The canonical day: random routing, pooled activation seeds.
    DayPooled,
    /// The same day under power-of-two-choices routing.
    DayP2c,
    /// The day shape with a fresh activation seed per request.
    FreshInputs,
    /// The protected chaos run: bounded admission plus faults.
    Chaos,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "day_pooled" => Some(Self::DayPooled),
            "day_p2c" => Some(Self::DayP2c),
            "fresh_inputs" => Some(Self::FreshInputs),
            "chaos" => Some(Self::Chaos),
            _ => None,
        }
    }

    /// Requests per run, sized so one run costs about five host seconds on
    /// one core (the canonical day is 1M requests; see `README.md`).
    fn default_requests(self) -> usize {
        match self {
            Self::DayPooled => 40_000,
            Self::DayP2c => 40_000,
            Self::FreshInputs => 4_000,
            Self::Chaos => 10_000,
        }
    }

    /// The canonical diurnal day at `seed`, cut to `requests`.
    fn stream_spec(self, seed: u64, requests: usize) -> DiurnalSpec {
        let mut spec = cluster_scenario::workload();
        spec.seed = seed;
        spec.requests = requests;
        if self == Self::FreshInputs {
            spec.act_seed_pool = 0;
        }
        spec
    }

    /// The cluster under test. Seeds that are fixed in the canonical
    /// scenarios follow the workload seed, so seed 42 reproduces them.
    fn cluster(self, seed: u64, requests: &[Request]) -> Cluster {
        match self {
            Self::DayPooled | Self::FreshInputs => cluster_scenario::cluster(RoutingPolicy::Random),
            Self::DayP2c => cluster_scenario::cluster(RoutingPolicy::PowerOfTwo),
            Self::Chaos => {
                // The fault schedule spans the stream's arrivals (the
                // canonical bench uses the fault-free makespan, which
                // needs a second serve). Crashes and slowdowns keep the
                // canonical day's rate per request and crash length; the
                // 16 outages keep their count and their dark time (10% of
                // the span, summed over shards), so every run fails over.
                let horizon = requests.last().map_or(1, |r| r.arrival);
                let scale = |n: usize| (n * requests.len()).div_ceil(cluster_scenario::REQUESTS);
                let mut faults = chaos_scenario::protected(horizon);
                let spec = &mut faults.spec;
                spec.seed ^= s2ta_bench::SEED ^ seed;
                spec.mean_down_cycles = spec.mean_down_cycles * spec.lane_crashes as u64
                    / scale(spec.lane_crashes) as u64;
                spec.lane_crashes = scale(spec.lane_crashes);
                spec.lane_slowdowns = scale(spec.lane_slowdowns);
                chaos_scenario::cluster().with_faults(faults)
            }
        }
        .with_router_seed(seed)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    requests: usize,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut requests = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--requests" => {
                requests = Some(value()?.parse().map_err(|e| format!("--requests: {e}"))?)
            }
            "--trace" => trace = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let requests = requests.unwrap_or_else(|| workload.default_requests());
    if requests == 0 {
        return Err("--requests must be positive".into());
    }
    Ok(Args { workload, seed, requests, trace })
}

/// Process CPU seconds (user + system) from `/proc/self/stat`.
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15, in clock ticks (100 Hz).
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / 100.0
}

/// Fixed host-speed probes, timed several times at each of three points
/// of a run. On a shared host, other tenants slow the simulator for
/// minutes at a time; `run.py` scales host times by how much these slow
/// down. They are the benchmark's own code, so a change to the simulator
/// cannot move them.
struct Probes {
    /// `i -> next[i]` is one random cycle through 256 KiB.
    next: Vec<u32>,
    /// Timings of a dependent pointer chase through `next`: it slows with
    /// cache contention as `serve` does.
    chase_s: Vec<f64>,
    /// Timings of a loop of exponential draws like stream generation: it
    /// slows with contention for the core (a busy sibling thread) as
    /// set-up does.
    draws_s: Vec<f64>,
    /// Where the draws go: 256 KiB, reused, so that the probes leave the
    /// workload's peak memory alone.
    arrivals: Vec<u64>,
}

impl Probes {
    const SLOTS: u32 = 1 << 16;
    const STEPS: usize = 4_000_000;
    const DRAWS: usize = 1 << 15;
    const DRAW_ROUNDS: usize = 8;
    const SAMPLES: usize = 5;

    fn new() -> Self {
        // Sattolo's shuffle, which leaves a single cycle.
        let mut next: Vec<u32> = (0..Self::SLOTS).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for i in (1..next.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        let arrivals = Vec::with_capacity(Self::DRAWS);
        Self { next, chase_s: Vec::new(), draws_s: Vec::new(), arrivals }
    }

    fn sample(&mut self) {
        for _ in 0..Self::SAMPLES {
            let t = Instant::now();
            let mut at = 0u32;
            for _ in 0..Self::STEPS {
                at = self.next[at as usize];
            }
            std::hint::black_box(at);
            self.chase_s.push(t.elapsed().as_secs_f64());

            let t = Instant::now();
            let (mut x, mut cycle) = (0x2545_f491_4f6c_dd1d_u64, 0.0f64);
            for _ in 0..Self::DRAW_ROUNDS {
                self.arrivals.clear();
                for _ in 0..Self::DRAWS {
                    x = x
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let u = ((x >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
                    cycle -= u.ln() * 700.0;
                    self.arrivals.push(cycle as u64);
                }
                std::hint::black_box(&self.arrivals);
            }
            self.draws_s.push(t.elapsed().as_secs_f64());
        }
    }
}

/// Peak resident set size (VmHWM) of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

/// 64-bit FNV-1a over the simulated outputs of a run.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Digest of everything the simulation decided: routing, every outcome,
/// batch counts, per-lane occupancy and events, per-model and fault
/// accounting. Host-side cache counters and wall-clock time are left
/// out: they race under shared caches.
fn simulated_digest(report: &ClusterReport) -> u64 {
    let mut d = Digest::new();
    for &r in &report.routed {
        d.u64(r as u64);
    }
    for shard in &report.shards {
        d.u64(shard.batches as u64);
        d.u64(shard.makespan_cycles);
        d.bytes(format!("{:?}", shard.total_events).as_bytes());
        d.bytes(format!("{:?}", shard.workers).as_bytes());
        d.bytes(format!("{:?}{:?}", shard.per_model, shard.fault).as_bytes());
        for o in &shard.outcomes {
            d.bytes(o.model().as_bytes());
            match o {
                RequestOutcome::Served(s) => {
                    for v in [0, s.id, s.arrival, s.start, s.completion, s.batch as u64] {
                        d.u64(v);
                    }
                    d.u64(s.worker as u64);
                }
                RequestOutcome::Dropped(x) => {
                    for v in [1, x.id, x.arrival] {
                        d.u64(v);
                    }
                }
                RequestOutcome::Failed(f) => {
                    for v in [2, f.id, f.arrival, u64::from(f.attempts)] {
                        d.u64(v);
                    }
                }
            }
        }
    }
    d.0
}

/// Output checks; returns one message per violated check.
fn check(workload: Workload, report: &ClusterReport, offered: usize) -> Vec<String> {
    let mut errors = Vec::new();
    let (served, dropped, failed) =
        (report.served_count(), report.dropped_count(), report.failed_count());
    if served + dropped + failed != offered || report.total_requests() != offered {
        errors.push(format!("served {served} + dropped {dropped} + failed {failed} != {offered}"));
    }
    if report.routed.iter().sum::<usize>() != offered {
        errors.push("routed counts do not cover the stream".into());
    }
    let mut seen = vec![false; offered];
    for o in report.shards.iter().flat_map(|s| &s.outcomes) {
        match seen.get_mut(o.id() as usize) {
            Some(slot) if !*slot => *slot = true,
            _ => {
                errors.push(format!("request {} has no unique outcome slot", o.id()));
                break;
            }
        }
        if let Some(s) = o.served() {
            if !(s.arrival <= s.start && s.start < s.completion) {
                errors.push(format!("request {} has an impossible timeline", s.id));
                break;
            }
        }
    }
    if workload == Workload::Chaos {
        let f = report.fault_stats();
        if f.lane_crashes == 0 || f.retries == 0 || f.failovers == 0 {
            errors.push(format!(
                "chaos must crash, retry and fail over (crashes {}, retries {}, failovers {})",
                f.lane_crashes, f.retries, f.failovers
            ));
        }
    } else if dropped != 0 || failed != 0 {
        errors.push(format!("fault-free run dropped {dropped} and failed {failed}"));
    }
    errors
}

/// Accumulates `"key": value` pairs into one JSON object line.
struct Line(String);

impl Line {
    fn num(&mut self, key: &str, v: f64) {
        let v = if v.is_finite() { v } else { 0.0 };
        let _ = write!(self.0, "{}\"{key}\": {v}", if self.0.is_empty() { "" } else { ", " });
    }

    fn raw(&mut self, key: &str, json: &str) {
        let _ = write!(self.0, "{}\"{key}\": {json}", if self.0.is_empty() { "" } else { ", " });
    }

    fn finish(self) -> String {
        format!("{{{}}}", self.0)
    }
}

/// Set-up is repeated for at least this many host seconds (and at least
/// `MIN_SETUPS` times) and the median is reported, since one set-up
/// takes only milliseconds.
const SETUP_BUDGET_S: f64 = 0.3;
const MIN_SETUPS: usize = 5;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn run(args: &Args) -> String {
    let wall = Instant::now();
    let tech = TechParams::tsmc16();
    let models = cluster_scenario::models();
    let mut probes = Probes::new();
    probes.sample();

    // Set-up: generate the stream, then build the cluster.
    let (mut generate, mut build) = (Vec::new(), Vec::new());
    let mut built = None;
    let setups = Instant::now();
    while generate.len() < MIN_SETUPS || setups.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        drop(built.take());
        let t = Instant::now();
        let requests = args.workload.stream_spec(args.seed, args.requests).generate();
        generate.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let mut cluster = args.workload.cluster(args.seed, &requests);
        if args.trace {
            cluster = cluster.with_trace(TraceConfig::default());
        }
        build.push(t.elapsed().as_secs_f64());
        built = Some((requests, cluster));
    }
    let setup: Vec<f64> = generate.iter().zip(&build).map(|(g, b)| g + b).collect();
    let (setups, setup_total_s) = (setup.len(), setup.iter().sum::<f64>());
    let (generate_s, build_s, setup_s) = (median(generate), median(build), median(setup));
    let (requests, cluster) = built.expect("at least one set-up ran");
    probes.sample();

    let workers = Executor::global().workers();
    let caches = cluster.shards()[0].lanes()[0].accelerator();
    let (weights0, acts0) = (caches.plans().stats(), caches.act_profiles().stats());
    let cpu0 = process_cpu_s();
    let t = Instant::now();
    let report = cluster.serve(&models, &requests);
    let serve_s = t.elapsed().as_secs_f64();

    // Report assembly: the public queries a user reads a run through.
    let t = Instant::now();
    let served = report.served_count();
    let (dropped, failed) = (report.dropped_count(), report.failed_count());
    let (p50, p99) = (report.p50_cycles(), report.p99_cycles());
    let makespan = report.makespan_cycles();
    let events = report.total_events();
    let energy_pj = report.energy(&tech).total_pj();
    let faults = report.fault_stats();
    let availability = report.availability();
    let batches: usize = report.shards.iter().map(|s| s.batches).sum();
    let assemble_s = t.elapsed().as_secs_f64();
    let serve_cpu_s = process_cpu_s() - cpu0;
    probes.sample();
    let weights = caches.plans().stats().since(weights0);
    let acts = caches.act_profiles().stats().since(acts0);

    let t = Instant::now();
    let mut errors = check(args.workload, &report, requests.len());
    let digest = simulated_digest(&report);
    let check_s = t.elapsed().as_secs_f64();
    let executed: usize = report.shards.iter().flat_map(|s| &s.workers).map(|w| w.requests).sum();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if workers > nproc {
        errors.push(format!("{workers} executor workers on {nproc} cores"));
    }

    let mut line = Line(String::new());
    line.num("seed", args.seed as f64);
    line.raw("digest", &format!("\"{digest:016x}\""));
    line.num("offered", requests.len() as f64);
    line.num("served", served as f64);
    line.num("dropped", dropped as f64);
    line.num("failed", failed as f64);
    line.num("generate_s", generate_s);
    line.num("build_s", build_s);
    line.num("setup_s", setup_s);
    line.num("setup_total_s", setup_total_s);
    line.num("serve_s", serve_s);
    line.num("assemble_s", assemble_s);
    line.num("sim_ips", served as f64 / (serve_s + assemble_s));
    line.num("setups", setups as f64);
    line.num("chase_s", median(probes.chase_s));
    line.num("draws_s", median(probes.draws_s));
    line.num("check_s", check_s);
    line.num("serve_cpu_s", serve_cpu_s);
    line.num("stream_mb", (requests.len() * std::mem::size_of::<Request>()) as f64 / 1048576.0);
    line.num("workers", workers as f64);
    line.num("nproc", nproc as f64);
    line.num("batches", batches as f64);
    line.num("mean_batch_size", executed as f64 / batches.max(1) as f64);
    line.num("weight_hits", weights.hits as f64);
    line.num("weight_misses", weights.misses as f64);
    line.num("weight_evictions", weights.evictions as f64);
    line.num("act_hits", acts.hits as f64);
    line.num("act_misses", acts.misses as f64);
    line.num("act_evictions", acts.evictions as f64);
    line.num("act_hit_ratio", acts.hit_rate());
    line.num("cycles", events.cycles as f64);
    line.num("macs_active", events.macs_active as f64);
    line.num("macs_gated", events.macs_gated as f64);
    line.num("macs_idle", events.macs_idle as f64);
    line.num("macs_issued", events.macs_issued() as f64);
    line.num("dap_comparisons", events.dap_comparisons as f64);
    line.num("sram_bytes", events.sram_bytes() as f64);
    line.num("p50_cycles", p50 as f64);
    line.num("p99_cycles", p99 as f64);
    line.num("makespan_cycles", makespan as f64);
    line.num("uj_per_inf", energy_pj * 1e-6 / served.max(1) as f64);
    line.num("crashes", faults.lane_crashes as f64);
    line.num("retries", faults.retries as f64);
    line.num("failovers", faults.failovers as f64);
    line.num("shed", faults.shed as f64);
    line.num("fault_failed", faults.failed as f64);
    line.num("availability", availability);
    if let Some(trace) = report.merged_trace() {
        let span_s = |spans: &[s2ta_serve::HostSpan], label: &str| {
            spans.iter().filter(|s| s.label == label).map(|s| s.nanos as f64 * 1e-9).sum::<f64>()
        };
        let advance_s = span_s(trace.host_spans(), "shard-advance");
        let per_shard: Vec<f64> = report
            .shards
            .iter()
            .filter_map(|s| s.trace())
            .map(|t| span_s(t.host_spans(), "shard-advance"))
            .collect();
        let max_shard = per_shard.iter().copied().fold(0.0, f64::max);
        line.num("advance_s", advance_s);
        line.num("batch_execute_s", span_s(trace.host_spans(), "batch-execute"));
        line.num("max_shard_share", max_shard / advance_s.max(f64::MIN_POSITIVE));
        line.num("trace_dropped_events", trace.dropped_events() as f64);
        if trace.dropped_events() == 0 && trace.completed_requests() != served as u64 {
            errors.push("trace completions do not match the served count".into());
        }
    }
    let errors_json: Vec<String> = errors.iter().map(|e| format!("\"{e}\"")).collect();
    line.raw("errors", &format!("[{}]", errors_json.join(", ")));
    drop(report);
    line.num("peak_rss_mb", peak_rss_mb());
    line.num("cpu_s", process_cpu_s());
    line.num("wall_s", wall.elapsed().as_secs_f64());
    line.finish()
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(args) => {
            println!("{}", run(&args));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("s2ta-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
