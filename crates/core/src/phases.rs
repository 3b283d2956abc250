//! The phases of a deal execution (Section 4.1) and per-phase measurements.

use std::collections::BTreeMap;
use std::fmt;

use xchain_sim::gas::GasUsage;
use xchain_sim::time::{Duration, Time};
use xchain_sim::world::World;

/// The five phases of a cross-chain deal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// The market-clearing service broadcasts the deal.
    Clearing,
    /// Parties escrow their outgoing assets.
    Escrow,
    /// Parties perform the tentative ownership transfers.
    Transfer,
    /// Each party checks its incoming assets and the deal information.
    Validation,
    /// Parties vote; escrows are released or refunded.
    Commit,
}

impl Phase {
    /// All phases in execution order.
    pub const ALL: [Phase; 5] = [
        Phase::Clearing,
        Phase::Escrow,
        Phase::Transfer,
        Phase::Validation,
        Phase::Commit,
    ];
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Phase::Clearing => "clearing",
            Phase::Escrow => "escrow",
            Phase::Transfer => "transfer",
            Phase::Validation => "validation",
            Phase::Commit => "commit",
        };
        f.write_str(s)
    }
}

/// Per-phase gas and wall-clock (simulated) measurements collected by the
/// protocol engines; the raw material for Figures 4 and 7.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseMetrics {
    gas: BTreeMap<Phase, GasUsage>,
    duration: BTreeMap<Phase, Duration>,
}

impl PhaseMetrics {
    /// Creates an empty set of measurements.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the gas attributed to a phase (accumulating).
    pub fn add_gas(&mut self, phase: Phase, gas: GasUsage) {
        let entry = self.gas.entry(phase).or_default();
        *entry += gas;
    }

    /// Records the simulated duration of a phase (accumulating).
    pub fn add_duration(&mut self, phase: Phase, d: Duration) {
        let entry = self.duration.entry(phase).or_default();
        *entry += d;
    }

    /// The gas attributed to a phase.
    pub fn gas(&self, phase: Phase) -> GasUsage {
        self.gas.get(&phase).copied().unwrap_or_default()
    }

    /// The simulated duration of a phase.
    pub fn duration(&self, phase: Phase) -> Duration {
        self.duration.get(&phase).copied().unwrap_or_default()
    }

    /// Total gas across phases.
    pub fn total_gas(&self) -> GasUsage {
        self.gas.values().fold(GasUsage::ZERO, |acc, g| acc + *g)
    }

    /// Total duration across phases.
    pub fn total_duration(&self) -> Duration {
        self.duration
            .values()
            .fold(Duration::ZERO, |acc, d| acc + *d)
    }
}

/// One phase under measurement: [`PhaseClock::start`] notes the world's
/// clock and gas total, [`PhaseClock::stop`] adds what the phase used since
/// to a [`PhaseMetrics`].
#[derive(Debug)]
pub struct PhaseClock {
    phase: Phase,
    started: Time,
    gas_before: GasUsage,
}

impl PhaseClock {
    /// Starts measuring `phase` at the world's current time and gas total.
    pub fn start(phase: Phase, world: &World) -> Self {
        PhaseClock {
            phase,
            started: world.now(),
            gas_before: world.total_gas(),
        }
    }

    /// Adds the gas and simulated time the phase used to `metrics`.
    pub fn stop(self, world: &World, metrics: &mut PhaseMetrics) {
        metrics.add_gas(self.phase, self.gas_before.delta_to(&world.total_gas()));
        metrics.add_duration(self.phase, world.now() - self.started);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_are_ordered_and_displayable() {
        assert_eq!(Phase::ALL.len(), 5);
        assert!(Phase::Clearing < Phase::Commit);
        assert_eq!(Phase::Escrow.to_string(), "escrow");
    }

    #[test]
    fn metrics_accumulate() {
        let mut m = PhaseMetrics::new();
        let mut g = GasUsage::ZERO;
        g.storage_writes = 4;
        m.add_gas(Phase::Escrow, g);
        m.add_gas(Phase::Escrow, g);
        m.add_duration(Phase::Escrow, Duration(10));
        m.add_duration(Phase::Commit, Duration(30));
        assert_eq!(m.gas(Phase::Escrow).storage_writes, 8);
        assert_eq!(m.gas(Phase::Commit).storage_writes, 0);
        assert_eq!(m.duration(Phase::Escrow), Duration(10));
        assert_eq!(m.total_gas().storage_writes, 8);
        assert_eq!(m.total_duration(), Duration(40));
    }
}
