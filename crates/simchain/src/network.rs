//! Network timing models and adversarial availability windows.
//!
//! The paper uses three communication assumptions:
//!
//! * **Synchronous** (Section 5, timelock protocol): there is a known bound
//!   `∆` on the time needed to change a blockchain's state in a way
//!   observable by all parties.
//! * **Eventually synchronous / semi-synchronous** (Section 6, CBC protocol,
//!   after Dwork–Lynch–Stockmeyer): delays are unbounded before a global
//!   stabilization time (GST) and bounded by `∆` afterwards.
//! * **Asynchronous**: no bound at all (used to demonstrate why the timelock
//!   protocol needs synchrony).
//!
//! Additionally, Section 5.3 and Section 9 discuss denial-of-service windows
//! during which a party is driven offline and cannot observe or act; the
//! [`OfflineSchedule`] models those.

use rand::Rng;

use crate::ids::PartyId;
use crate::time::{Duration, Time};

/// The network/observation timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkModel {
    /// Known bound `delta` on state-change observation latency.
    Synchronous {
        /// The bound ∆.
        delta: Duration,
    },
    /// Unbounded (up to `pre_gst_max`) delays before `gst`, bounded by `delta`
    /// afterwards.
    EventuallySynchronous {
        /// Global stabilization time.
        gst: Time,
        /// The bound ∆ after GST.
        delta: Duration,
        /// Worst-case delay the simulator will generate before GST (stands in
        /// for "unbounded"; must exceed `delta`).
        pre_gst_max: Duration,
    },
    /// No bound; the simulator generates delays up to `max_delay`.
    Asynchronous {
        /// Worst-case delay the simulator will generate.
        max_delay: Duration,
    },
}

impl NetworkModel {
    /// A synchronous network with bound `delta` ticks.
    pub fn synchronous(delta: u64) -> Self {
        NetworkModel::Synchronous {
            delta: Duration(delta),
        }
    }

    /// An eventually-synchronous network.
    pub fn eventually_synchronous(gst: u64, delta: u64, pre_gst_max: u64) -> Self {
        NetworkModel::EventuallySynchronous {
            gst: Time(gst),
            delta: Duration(delta),
            pre_gst_max: Duration(pre_gst_max.max(delta)),
        }
    }

    /// A (bounded-simulation) asynchronous network.
    pub fn asynchronous(max_delay: u64) -> Self {
        NetworkModel::Asynchronous {
            max_delay: Duration(max_delay),
        }
    }

    /// The synchrony bound ∆ the protocols may rely on, if one exists at all
    /// times (`Synchronous`) or eventually (`EventuallySynchronous`).
    pub fn delta(&self) -> Option<Duration> {
        match self {
            NetworkModel::Synchronous { delta } => Some(*delta),
            NetworkModel::EventuallySynchronous { delta, .. } => Some(*delta),
            NetworkModel::Asynchronous { .. } => None,
        }
    }

    /// The worst-case delay the model can produce at time `now`.
    pub fn max_delay_at(&self, now: Time) -> Duration {
        match self {
            NetworkModel::Synchronous { delta } => *delta,
            NetworkModel::EventuallySynchronous {
                gst,
                delta,
                pre_gst_max,
            } => {
                if now < *gst {
                    *pre_gst_max
                } else {
                    *delta
                }
            }
            NetworkModel::Asynchronous { max_delay } => *max_delay,
        }
    }

    /// Samples an observation delay for an event occurring at `now`.
    /// Delays are at least one tick (nothing is observed instantaneously).
    pub fn sample_delay<R: Rng + ?Sized>(&self, now: Time, rng: &mut R) -> Duration {
        let max = self.max_delay_at(now).ticks().max(1);
        Duration(rng.gen_range(1..=max))
    }

    /// True if, at time `now`, the model guarantees the ∆ bound.
    pub fn is_synchronous_at(&self, now: Time) -> bool {
        match self {
            NetworkModel::Synchronous { .. } => true,
            NetworkModel::EventuallySynchronous { gst, .. } => now >= *gst,
            NetworkModel::Asynchronous { .. } => false,
        }
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel::synchronous(100)
    }
}

/// A window during which a party cannot observe chains or submit transactions
/// (crash, network partition, or targeted denial-of-service, Section 5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfflineWindow {
    /// The affected party.
    pub party: PartyId,
    /// Start of the outage (inclusive).
    pub from: Time,
    /// End of the outage (exclusive).
    pub until: Time,
}

/// The set of offline windows configured for a simulation run.
#[derive(Debug, Clone, Default)]
pub struct OfflineSchedule {
    windows: Vec<OfflineWindow>,
}

impl OfflineSchedule {
    /// An empty schedule (everyone always online).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an outage window.
    pub fn add(&mut self, party: PartyId, from: Time, until: Time) {
        self.windows.push(OfflineWindow { party, from, until });
    }

    /// True if `party` is offline at `t`.
    pub fn is_offline(&self, party: PartyId, t: Time) -> bool {
        self.windows
            .iter()
            .any(|w| w.party == party && t >= w.from && t < w.until)
    }

    /// All configured windows.
    pub fn windows(&self) -> &[OfflineWindow] {
        &self.windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn synchronous_delays_bounded_by_delta() {
        let m = NetworkModel::synchronous(50);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let d = m.sample_delay(Time(0), &mut rng);
            assert!(d.ticks() >= 1 && d.ticks() <= 50);
        }
        assert_eq!(m.delta(), Some(Duration(50)));
        assert!(m.is_synchronous_at(Time(0)));
    }

    #[test]
    fn eventually_synchronous_respects_gst() {
        let m = NetworkModel::eventually_synchronous(1_000, 50, 5_000);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(!m.is_synchronous_at(Time(999)));
        assert!(m.is_synchronous_at(Time(1_000)));
        assert_eq!(m.max_delay_at(Time(0)), Duration(5_000));
        assert_eq!(m.max_delay_at(Time(1_000)), Duration(50));
        let mut saw_large = false;
        for _ in 0..500 {
            let d = m.sample_delay(Time(10), &mut rng);
            assert!(d.ticks() <= 5_000);
            if d.ticks() > 50 {
                saw_large = true;
            }
        }
        assert!(saw_large, "pre-GST delays should exceed delta sometimes");
        for _ in 0..200 {
            assert!(m.sample_delay(Time(2_000), &mut rng).ticks() <= 50);
        }
    }

    #[test]
    fn asynchronous_has_no_delta() {
        let m = NetworkModel::asynchronous(10_000);
        assert_eq!(m.delta(), None);
        assert!(!m.is_synchronous_at(Time(0)));
    }

    #[test]
    fn pre_gst_max_never_below_delta() {
        let m = NetworkModel::eventually_synchronous(100, 500, 10);
        assert_eq!(m.max_delay_at(Time(0)), Duration(500));
    }

    #[test]
    fn offline_schedule_windows() {
        let mut s = OfflineSchedule::new();
        s.add(PartyId(1), Time(10), Time(20));
        s.add(PartyId(1), Time(20), Time(30));
        s.add(PartyId(2), Time(0), Time(5));
        assert!(!s.is_offline(PartyId(1), Time(9)));
        assert!(s.is_offline(PartyId(1), Time(10)));
        assert!(s.is_offline(PartyId(1), Time(19)));
        assert!(s.is_offline(PartyId(1), Time(29)));
        assert!(!s.is_offline(PartyId(1), Time(30)));
        assert!(!s.is_offline(PartyId(3), Time(15)));
        assert!(s.is_offline(PartyId(2), Time(4)));
        assert!(!s.is_offline(PartyId(2), Time(5)));
        assert_eq!(s.windows().len(), 3);
    }
}
