//! Per-request outcomes and the compact log a serving run keeps them
//! in.

use crate::workload::Request;
use std::fmt;

/// The fate of one request: it was admitted, batched and executed
/// ([`RequestOutcome::Served`]); admission control refused it because
/// its model lane was at capacity or degraded-mode shedding turned it
/// away ([`RequestOutcome::Dropped`]); or fault handling abandoned it
/// after its batch was lost to a lane crash and the retry policy ran
/// out of road ([`RequestOutcome::Failed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The request was admitted and executed.
    Served(ServedRequest),
    /// The request was tail-dropped at admission; it never queued and
    /// consumed no accelerator time.
    Dropped(DroppedRequest),
    /// The request was admitted but lost to a lane crash, and the
    /// [`crate::RetryPolicy`] gave up on it — either the attempt
    /// budget ran out or the next retry could no longer meet its
    /// deadline.
    Failed(FailedRequest),
}

/// A request that was admitted, batched, and executed.
///
/// This is the read-side view of one [`OutcomeLog`] row: the log
/// stores 40 bytes per request and rebuilds the record (the model name
/// borrowed from the `'static` [`s2ta_models::ModelSpec::name`]) when
/// it is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServedRequest {
    /// Request id (dense, in arrival order).
    pub id: u64,
    /// Name of the model served.
    pub model: &'static str,
    /// Arrival cycle.
    pub arrival: u64,
    /// Cycle the request's batch started executing.
    pub start: u64,
    /// Cycle the request's batch completed.
    pub completion: u64,
    /// Batch the request rode in.
    pub batch: usize,
    /// Worker lane that served the batch.
    pub worker: usize,
}

/// A request refused at admission (its model lane was full).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DroppedRequest {
    /// Request id (dense, in arrival order).
    pub id: u64,
    /// Name of the model requested.
    pub model: &'static str,
    /// Arrival cycle (which is also the drop cycle: tail drop refuses
    /// the request immediately).
    pub arrival: u64,
}

/// A request abandoned by fault handling: its batch was cancelled by a
/// lane crash and the retry policy could not place it again in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailedRequest {
    /// Request id (dense, in arrival order).
    pub id: u64,
    /// Name of the model requested.
    pub model: &'static str,
    /// Arrival cycle.
    pub arrival: u64,
    /// Dispatch attempts the request consumed before giving up (its
    /// initial dispatch plus every retry that reached a lane).
    pub attempts: u32,
}

impl ServedRequest {
    /// End-to-end latency in cycles (queueing + batching + service).
    pub fn latency_cycles(&self) -> u64 {
        self.completion - self.arrival
    }
}

impl RequestOutcome {
    /// The request id.
    pub fn id(&self) -> u64 {
        match self {
            Self::Served(s) => s.id,
            Self::Dropped(d) => d.id,
            Self::Failed(f) => f.id,
        }
    }

    /// The requested model's name.
    pub fn model(&self) -> &'static str {
        match self {
            Self::Served(s) => s.model,
            Self::Dropped(d) => d.model,
            Self::Failed(f) => f.model,
        }
    }

    /// `true` if the request was served.
    pub fn is_served(&self) -> bool {
        matches!(self, Self::Served(_))
    }

    /// The served record, if the request was neither dropped nor
    /// failed.
    pub fn served(&self) -> Option<&ServedRequest> {
        match self {
            Self::Served(s) => Some(s),
            Self::Dropped(_) | Self::Failed(_) => None,
        }
    }
}

/// What became of the request a row records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum RowKind {
    Served,
    Dropped,
    Failed,
}

/// One request's outcome as an [`OutcomeLog`] stores it: the fields of
/// every [`RequestOutcome`] variant narrowed into 40 bytes. The model
/// is an index into the log's name table, and one slot holds a served
/// request's batch index or a failed one's attempt count. Dropped and
/// failed rows leave the fields they do not have at zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OutcomeRow {
    id: u64,
    arrival: u64,
    start: u64,
    completion: u64,
    slot: u32,
    lane: u16,
    model: u8,
    kind: RowKind,
}

impl OutcomeRow {
    fn new(request: &Request, kind: RowKind) -> Self {
        Self {
            id: request.id,
            arrival: request.arrival,
            start: 0,
            completion: 0,
            slot: 0,
            lane: 0,
            model: u8::try_from(request.model).expect("a serve takes at most 256 models"),
            kind,
        }
    }

    /// `request` served on `lane` in batch `batch`, which ran from
    /// `start` to `completion`.
    pub(crate) fn served(
        request: &Request,
        start: u64,
        completion: u64,
        batch: usize,
        lane: usize,
    ) -> Self {
        let slot = u32::try_from(batch).expect("a serve forms at most u32::MAX batches");
        let lane = u16::try_from(lane).expect("a fleet has at most 65,536 lanes");
        Self { start, completion, slot, lane, ..Self::new(request, RowKind::Served) }
    }

    /// `request` dropped at its arrival.
    pub(crate) fn dropped(request: &Request) -> Self {
        Self::new(request, RowKind::Dropped)
    }

    /// `request` abandoned after `attempts` dispatch attempts.
    pub(crate) fn failed(request: &Request, attempts: u32) -> Self {
        Self { slot: attempts, ..Self::new(request, RowKind::Failed) }
    }

    /// End-to-end latency, `None` unless the request was served.
    fn latency_cycles(&self) -> Option<u64> {
        (self.kind == RowKind::Served).then(|| self.completion - self.arrival)
    }
}

/// Models one serve can name: a row keeps its model index in a byte.
pub(crate) const MAX_MODELS: usize = 1 << 8;

/// Lanes one fleet can have: a row keeps its lane index in 16 bits.
pub(crate) const MAX_LANES: usize = 1 << 16;

/// Refuses a serve over more models than an outcome row can index.
///
/// # Panics
///
/// Panics if `models` exceeds [`MAX_MODELS`].
pub(crate) fn assert_model_count(models: usize) {
    assert!(
        models <= MAX_MODELS,
        "a serve takes at most {MAX_MODELS} models (outcome rows index them in a byte), got {models}"
    );
}

/// Refuses a fleet of more lanes than an outcome row can index.
///
/// # Panics
///
/// Panics if `lanes` exceeds [`MAX_LANES`].
pub(crate) fn assert_lane_count(lanes: usize) {
    assert!(
        lanes <= MAX_LANES,
        "a fleet has at most {MAX_LANES} lanes (outcome rows index them in 16 bits), got {lanes}"
    );
}

/// The outcome log of a serving run: one [`OutcomeLog::ROW_BYTES`]-byte
/// row per resolved request plus the table of model names its rows
/// index. It is most of what a run's host memory grows by per request,
/// so it stores a compact row and rebuilds the public
/// [`RequestOutcome`] when one is read, much as a DBB block keeps its
/// non-zeros and a position mask rather than the dense row.
///
/// Reading it looks like reading a `Vec<RequestOutcome>`: `&log`
/// iterates the outcomes (by value) in id order, and [`OutcomeLog::len`],
/// [`OutcomeLog::get`] and [`OutcomeLog::iter`] do what a slice's would.
/// Equality and `Debug` are those of the outcomes, so two logs that
/// hold the same outcomes compare equal whatever order their name
/// tables list the models in.
#[derive(Clone, Default)]
pub struct OutcomeLog {
    /// Model names, indexed by a row's `model`.
    names: Vec<&'static str>,
    rows: Vec<OutcomeRow>,
}

impl OutcomeLog {
    /// Bytes one resolved request occupies in the log.
    pub const ROW_BYTES: usize = std::mem::size_of::<OutcomeRow>();

    /// An empty log whose rows name the models of `names` by position.
    pub(crate) fn new(names: Vec<&'static str>) -> Self {
        assert_model_count(names.len());
        Self { names, rows: Vec::new() }
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the log holds no outcome.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The `index`-th outcome (in id order once the run is reported),
    /// or `None` past the end.
    pub fn get(&self, index: usize) -> Option<RequestOutcome> {
        self.rows.get(index).map(|row| view(&self.names, row))
    }

    /// Every outcome, in log order (id order once the run is reported).
    pub fn iter(&self) -> Outcomes<'_> {
        Outcomes { names: &self.names, rows: self.rows.iter() }
    }

    /// Rows the log holds room for without growing.
    pub(crate) fn capacity(&self) -> usize {
        self.rows.capacity()
    }

    /// Reserves room for exactly `additional` more rows.
    pub(crate) fn reserve_exact(&mut self, additional: usize) {
        self.rows.reserve_exact(additional);
    }

    /// Appends `row`, whose model indexes this log's name table.
    pub(crate) fn push_row(&mut self, row: OutcomeRow) {
        debug_assert!(usize::from(row.model) < self.names.len(), "model outside the name table");
        self.rows.push(row);
    }

    /// Appends `outcome`, adding its model name to the table the first
    /// time the log sees it.
    fn push(&mut self, outcome: RequestOutcome) {
        let name = outcome.model();
        let model = self.names.iter().position(|&n| n == name).unwrap_or_else(|| {
            assert_model_count(self.names.len() + 1);
            self.names.push(name);
            self.names.len() - 1
        });
        let request = |arrival| Request { id: outcome.id(), model, arrival, act_seed: 0 };
        self.rows.push(match outcome {
            RequestOutcome::Served(s) => {
                OutcomeRow::served(&request(s.arrival), s.start, s.completion, s.batch, s.worker)
            }
            RequestOutcome::Dropped(d) => OutcomeRow::dropped(&request(d.arrival)),
            RequestOutcome::Failed(f) => OutcomeRow::failed(&request(f.arrival), f.attempts),
        });
    }

    /// Sorts the rows by request id (ids are unique, so the unstable
    /// sort gives the stable order without the stable sort's merge
    /// buffer).
    pub(crate) fn sort_by_id(&mut self) {
        self.rows.sort_unstable_by_key(|row| row.id);
    }

    /// The model names the rows index, by position.
    pub(crate) fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// The model index and latency of every served request, in log
    /// order.
    pub(crate) fn latencies(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.rows.iter().filter_map(|row| Some((usize::from(row.model), row.latency_cycles()?)))
    }
}

/// The public record `row` stands for, its model named from `names`.
fn view(names: &[&'static str], row: &OutcomeRow) -> RequestOutcome {
    let (id, model, arrival) = (row.id, names[usize::from(row.model)], row.arrival);
    match row.kind {
        RowKind::Served => RequestOutcome::Served(ServedRequest {
            id,
            model,
            arrival,
            start: row.start,
            completion: row.completion,
            batch: row.slot as usize,
            worker: usize::from(row.lane),
        }),
        RowKind::Dropped => RequestOutcome::Dropped(DroppedRequest { id, model, arrival }),
        RowKind::Failed => {
            RequestOutcome::Failed(FailedRequest { id, model, arrival, attempts: row.slot })
        }
    }
}

impl PartialEq for OutcomeLog {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for OutcomeLog {}

impl fmt::Debug for OutcomeLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<RequestOutcome> for OutcomeLog {
    /// A log of `outcomes`, in the order given.
    ///
    /// # Panics
    ///
    /// Panics if they name more than 256 distinct models.
    fn from_iter<I: IntoIterator<Item = RequestOutcome>>(outcomes: I) -> Self {
        let mut log = Self::default();
        for outcome in outcomes {
            log.push(outcome);
        }
        log
    }
}

impl<'a> IntoIterator for &'a OutcomeLog {
    type Item = RequestOutcome;
    type IntoIter = Outcomes<'a>;

    fn into_iter(self) -> Outcomes<'a> {
        self.iter()
    }
}

/// The outcomes of an [`OutcomeLog`], rebuilt row by row (see
/// [`OutcomeLog::iter`]).
#[derive(Debug, Clone)]
pub struct Outcomes<'a> {
    names: &'a [&'static str],
    rows: std::slice::Iter<'a, OutcomeRow>,
}

impl Iterator for Outcomes<'_> {
    type Item = RequestOutcome;

    fn next(&mut self) -> Option<RequestOutcome> {
        self.rows.next().map(|row| view(self.names, row))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}

impl ExactSizeIterator for Outcomes<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Model names the round-trip property draws from.
    const NAMES: [&str; 4] = ["LeNet-5", "CIFAR-10", "AlexNet", "VGG-16"];

    /// The outcome one draw stands for: request `id` of one of the
    /// first `models` names, served, dropped or failed, with every
    /// field taken from the draw's bits (lanes and batches reach the
    /// top of their narrowed ranges).
    fn drawn_outcome(id: u64, draw: u64, models: usize) -> RequestOutcome {
        let model = NAMES[(draw >> 2) as usize % models];
        let arrival = draw >> 40;
        match draw % 3 {
            0 => RequestOutcome::Served(ServedRequest {
                id,
                model,
                arrival,
                start: arrival + (draw >> 52),
                completion: arrival + (draw >> 52) + (draw >> 56) + 1,
                batch: (draw >> 8) as u32 as usize,
                worker: (draw >> 24) as u16 as usize,
            }),
            1 => RequestOutcome::Dropped(DroppedRequest { id, model, arrival }),
            _ => RequestOutcome::Failed(FailedRequest {
                id,
                model,
                arrival,
                attempts: (draw >> 8) as u32,
            }),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]
        /// Any mix of served, dropped and failed outcomes over 1-4
        /// models comes back unchanged: pushed in a shuffled order and
        /// sorted, the log's `iter`, `get` and `len` give exactly the
        /// outcomes in id order. A log an engine fills, whose rows index
        /// a name table in another order, compares equal to it, and
        /// changing any one outcome makes them differ.
        #[test]
        fn prop_outcome_log_round_trips(
            draws in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 0..80),
            models in 1usize..=4,
            shuffle in proptest::arbitrary::any::<u64>(),
        ) {
            let expect: Vec<RequestOutcome> = draws
                .iter()
                .enumerate()
                .map(|(id, &draw)| drawn_outcome(id as u64, draw, models))
                .collect();
            // Resolution order: a deterministic shuffle of the ids.
            let mut order: Vec<usize> = (0..expect.len()).collect();
            let mut state = shuffle;
            for i in (1..order.len()).rev() {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                order.swap(i, (state >> 33) as usize % (i + 1));
            }
            let mut log: OutcomeLog = order.iter().map(|&i| expect[i]).collect();
            log.sort_by_id();
            proptest::prop_assert_eq!(log.len(), expect.len());
            proptest::prop_assert_eq!(log.is_empty(), expect.is_empty());
            proptest::prop_assert_eq!(log.iter().collect::<Vec<_>>(), expect.clone());
            proptest::prop_assert_eq!((&log).into_iter().len(), expect.len());
            for (i, outcome) in expect.iter().enumerate() {
                proptest::prop_assert_eq!(log.get(i), Some(*outcome));
            }
            proptest::prop_assert_eq!(log.get(expect.len()), None);
            // The engine's path: rows naming models by their index in a
            // reversed table, pushed in id order.
            let table: Vec<&'static str> = NAMES[..models].iter().rev().copied().collect();
            let mut engine = OutcomeLog::new(table.clone());
            for outcome in &expect {
                let model = table.iter().position(|&n| n == outcome.model()).unwrap();
                let request = |arrival| Request { id: outcome.id(), model, arrival, act_seed: 0 };
                engine.push_row(match *outcome {
                    RequestOutcome::Served(s) => OutcomeRow::served(
                        &request(s.arrival),
                        s.start,
                        s.completion,
                        s.batch,
                        s.worker,
                    ),
                    RequestOutcome::Dropped(d) => OutcomeRow::dropped(&request(d.arrival)),
                    RequestOutcome::Failed(f) => OutcomeRow::failed(&request(f.arrival), f.attempts),
                });
            }
            proptest::prop_assert_eq!(&engine, &log);
            proptest::prop_assert_eq!(format!("{engine:?}"), format!("{expect:?}"));
            if let Some(&last) = expect.last() {
                let mut changed = expect.clone();
                changed[expect.len() - 1] = match last {
                    RequestOutcome::Served(s) => {
                        RequestOutcome::Served(ServedRequest { worker: s.worker ^ 1, ..s })
                    }
                    RequestOutcome::Dropped(d) => {
                        RequestOutcome::Dropped(DroppedRequest { arrival: d.arrival + 1, ..d })
                    }
                    RequestOutcome::Failed(f) => {
                        RequestOutcome::Failed(FailedRequest { attempts: f.attempts ^ 1, ..f })
                    }
                };
                proptest::prop_assert_ne!(changed.into_iter().collect::<OutcomeLog>(), log);
            }
        }
    }
}
