//! Performance/energy reports for layers and whole models.

use s2ta_energy::{EnergyBreakdown, TechParams};
use s2ta_sim::EventCounts;
use std::fmt;

/// The outcome of running one layer on an accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Layer name.
    pub name: String,
    /// Dense MAC count of the layer.
    pub macs: u64,
    /// Simulated event counts.
    pub events: EventCounts,
}

impl LayerReport {
    /// Energy of this layer under `tech`.
    pub fn energy(&self, tech: &TechParams) -> EnergyBreakdown {
        EnergyBreakdown::of(&self.events, tech)
    }

    /// Effective throughput in (dense-equivalent) MACs per cycle.
    pub(crate) fn macs_per_cycle(&self) -> f64 {
        if self.events.cycles == 0 {
            0.0
        } else {
            self.macs as f64 / self.events.cycles as f64
        }
    }
}

impl fmt::Display for LayerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.2} MMAC in {} cycles ({:.0} MAC/cyc)",
            self.name,
            self.macs as f64 / 1e6,
            self.events.cycles,
            self.macs_per_cycle()
        )
    }
}

/// The outcome of running a whole model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelReport {
    /// Model name.
    pub model: String,
    /// Architecture name the model ran on.
    pub arch: String,
    /// Per-layer reports, in execution order.
    pub layers: Vec<LayerReport>,
    /// Total cycles over all layers.
    pub total_cycles: u64,
    /// Aggregate events over all layers.
    pub total_events: EventCounts,
}

impl ModelReport {
    /// Builds the aggregate report from per-layer results.
    pub fn from_layers(
        model: impl Into<String>,
        arch: impl Into<String>,
        layers: Vec<LayerReport>,
    ) -> Self {
        let total_events: EventCounts = layers.iter().map(|l| l.events).sum();
        Self {
            model: model.into(),
            arch: arch.into(),
            total_cycles: total_events.cycles,
            total_events,
            layers,
        }
    }

    /// Total dense MACs of the model run.
    pub(crate) fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.macs).sum()
    }

    /// Total energy under `tech`.
    pub fn energy(&self, tech: &TechParams) -> EnergyBreakdown {
        EnergyBreakdown::of(&self.total_events, tech)
    }

    /// Inference latency in seconds at `tech`'s clock.
    pub fn seconds(&self, tech: &TechParams) -> f64 {
        self.total_cycles as f64 / tech.clock_hz
    }

    /// Inferences per second at `tech`'s clock.
    pub fn inferences_per_second(&self, tech: &TechParams) -> f64 {
        1.0 / self.seconds(tech)
    }

    /// Inferences per joule under `tech`.
    pub fn inferences_per_joule(&self, tech: &TechParams) -> f64 {
        1.0 / (self.energy(tech).total_pj() * 1e-12)
    }

    /// Effective TOPS per watt under `tech`.
    pub fn tops_per_watt(&self, tech: &TechParams) -> f64 {
        let joules = self.energy(tech).total_pj() * 1e-12;
        self.total_macs() as f64 * 2.0 / joules / 1e12
    }

    /// Speedup of this run relative to `baseline` (cycle ratio).
    pub fn speedup_vs(&self, baseline: &ModelReport) -> f64 {
        baseline.total_cycles as f64 / self.total_cycles as f64
    }

    /// Energy reduction factor relative to `baseline` under `tech`.
    pub fn energy_reduction_vs(&self, baseline: &ModelReport, tech: &TechParams) -> f64 {
        baseline.energy(tech).total_pj() / self.energy(tech).total_pj()
    }
}

impl fmt::Display for ModelReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: {:.2} GMAC, {:.2} Mcycles",
            self.model,
            self.arch,
            self.total_macs() as f64 / 1e9,
            self.total_cycles as f64 / 1e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(name: &str, macs: u64, cycles: u64) -> LayerReport {
        LayerReport {
            name: name.into(),
            macs,
            events: EventCounts { cycles, macs_active: macs / 2, ..Default::default() },
        }
    }

    #[test]
    fn aggregation() {
        let r =
            ModelReport::from_layers("m", "a", vec![layer("l1", 1000, 10), layer("l2", 2000, 20)]);
        assert_eq!(r.total_cycles, 30);
        assert_eq!(r.total_macs(), 3000);
        assert_eq!(r.total_events.macs_active, 1500);
    }

    #[test]
    fn derived_metrics() {
        let r = ModelReport::from_layers("m", "a", vec![layer("l", 2_000_000, 1000)]);
        let tech = TechParams::tsmc16();
        assert!((r.seconds(&tech) - 1e-6).abs() < 1e-15);
        assert!((r.inferences_per_second(&tech) - 1e6).abs() < 1.0);
    }

    #[test]
    fn comparisons() {
        let fast = ModelReport::from_layers("m", "fast", vec![layer("l", 1000, 10)]);
        let slow = ModelReport::from_layers("m", "slow", vec![layer("l", 1000, 40)]);
        assert!((fast.speedup_vs(&slow) - 4.0).abs() < 1e-12);
        let tech = TechParams::tsmc16();
        assert!(fast.energy_reduction_vs(&slow, &tech) > 0.0);
    }

    #[test]
    fn layer_display() {
        let l = layer("conv1", 1_000_000, 500);
        assert!(l.to_string().contains("conv1"));
        assert!((l.macs_per_cycle() - 2000.0).abs() < 1e-9);
    }
}
