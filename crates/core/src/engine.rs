//! The protocol-agnostic execution API: [`DealEngine`] and friends.
//!
//! The paper presents the timelock protocol (Section 5) and the CBC protocol
//! (Section 6) as two interchangeable realizations of the *same* cross-chain
//! deal abstraction; *Atomic Cross-Chain Swaps* (Herlihy, PODC 2018) adds a
//! third, less expressive mechanism for the two-party case. This module makes
//! that interchangeability a first-class trait: every commit protocol is a
//! [`DealEngine`] that takes a world, a pre-resolved [`crate::plan::DealPlan`]
//! and the parties' behaviour configurations, and produces a
//! protocol-agnostic [`EngineRun`] (outcome + contracts + a protocol-specific
//! [`ProtocolExt`]).
//!
//! Most callers should not use the trait directly but go through the fluent
//! [`crate::deal::Deal`] session builder, which also constructs the world:
//!
//! ```
//! use xchain_deals::builders::broker_spec;
//! use xchain_deals::{Deal, Protocol};
//! use xchain_sim::network::NetworkModel;
//!
//! let deal = Deal::new(broker_spec())
//!     .network(NetworkModel::synchronous(100))
//!     .seed(42);
//! let run = deal.run(Protocol::timelock()).unwrap();
//! assert!(run.outcome.committed_everywhere());
//! ```

use std::collections::BTreeMap;

use xchain_bft::log::CbcLog;
use xchain_bft::proof::DealStatus;
use xchain_sim::ids::{ChainId, ContractId, PartyId};
use xchain_sim::world::World;

use crate::cbc::{self, CbcOptions};
use crate::error::DealError;
use crate::outcome::{DealOutcome, ProtocolKind};
use crate::party::PartyConfig;
use crate::plan::DealPlan;
use crate::spec::DealSpec;
use crate::timelock::{self, TimelockOptions};

/// Protocol-specific data carried alongside the unified [`DealOutcome`]:
/// whatever evidence the protocol produced that is not expressible in the
/// common outcome vocabulary.
#[derive(Debug)]
pub enum ProtocolExt {
    /// Timelock protocol: which parties passed validation (compliant parties
    /// vote to commit only when they did).
    Timelock {
        /// Validation verdict per party.
        validated: BTreeMap<PartyId, bool>,
    },
    /// CBC protocol: the certified log after the run, the final deal status
    /// recorded on it, and the per-party validation verdicts.
    Cbc {
        /// The certified log (for post-mortem inspection).
        log: CbcLog,
        /// The final deal status on the CBC.
        status: DealStatus,
        /// Validation verdict per party.
        validated: BTreeMap<PartyId, bool>,
    },
    /// Two-party HTLC atomic swap: whether both assets changed hands.
    Swap {
        /// True if both HTLCs were claimed.
        swapped: bool,
    },
}

impl ProtocolExt {
    /// The per-party validation verdicts, if the protocol has a validation
    /// phase (timelock and CBC do; the HTLC swap validates via the hashlock).
    pub fn validated(&self) -> Option<&BTreeMap<PartyId, bool>> {
        match self {
            ProtocolExt::Timelock { validated } | ProtocolExt::Cbc { validated, .. } => {
                Some(validated)
            }
            ProtocolExt::Swap { .. } => None,
        }
    }

    /// The certified log, when the CBC protocol ran.
    pub fn cbc_log(&self) -> Option<&CbcLog> {
        match self {
            ProtocolExt::Cbc { log, .. } => Some(log),
            _ => None,
        }
    }

    /// The final CBC deal status, when the CBC protocol ran.
    pub fn cbc_status(&self) -> Option<DealStatus> {
        match self {
            ProtocolExt::Cbc { status, .. } => Some(*status),
            _ => None,
        }
    }

    /// Whether the swap completed, when the HTLC engine ran.
    pub fn swapped(&self) -> Option<bool> {
        match self {
            ProtocolExt::Swap { swapped } => Some(*swapped),
            _ => None,
        }
    }
}

/// What a [`DealEngine`] produces: the measured outcome, the escrow contract
/// installed on each involved chain, and the protocol-specific extension.
/// The [`crate::deal::Deal`] builder wraps this into a [`crate::deal::DealRun`]
/// together with the world it built.
#[derive(Debug)]
pub struct EngineRun {
    /// The measured, protocol-agnostic outcome.
    pub outcome: DealOutcome,
    /// The escrow contract installed on each involved chain.
    pub contracts: BTreeMap<ChainId, ContractId>,
    /// Protocol-specific evidence (validated map, certified log, …).
    pub ext: ProtocolExt,
}

/// A commit protocol that can execute a cross-chain deal.
///
/// Implementations exist for [`Protocol`] (timelock and CBC, in this crate)
/// and for the two-party HTLC swap engine in `xchain-swap`. The trait is
/// object-safe so sweeps can iterate over `Box<dyn DealEngine>`.
pub trait DealEngine {
    /// Which protocol family this engine belongs to.
    fn kind(&self) -> ProtocolKind;

    /// A human-readable label for reports and sweep tables.
    fn label(&self) -> String {
        self.kind().to_string()
    }

    /// True if this engine can execute the given specification. Engines for
    /// fully general deals return `true` unconditionally; the HTLC swap
    /// engine only supports two-party deals expressible as swaps.
    fn supports(&self, _spec: &DealSpec) -> bool {
        true
    }

    /// Executes one deal in the given world, driving it from a pre-resolved
    /// [`DealPlan`]. The world must already contain the chains, parties and
    /// escrowed assets the plan references, and its kind table must be a fork
    /// of the plan's ([`crate::setup::world_for_plan`] builds such a world);
    /// the [`crate::deal::Deal`] builder takes care of both.
    fn execute(
        &self,
        world: &mut World,
        plan: &DealPlan,
        configs: &[PartyConfig],
    ) -> Result<EngineRun, DealError>;
}

impl<E: DealEngine + ?Sized> DealEngine for &E {
    fn kind(&self) -> ProtocolKind {
        (**self).kind()
    }
    fn label(&self) -> String {
        (**self).label()
    }
    fn supports(&self, spec: &DealSpec) -> bool {
        (**self).supports(spec)
    }
    fn execute(
        &self,
        world: &mut World,
        plan: &DealPlan,
        configs: &[PartyConfig],
    ) -> Result<EngineRun, DealError> {
        (**self).execute(world, plan, configs)
    }
}

impl<E: DealEngine + ?Sized> DealEngine for Box<E> {
    fn kind(&self) -> ProtocolKind {
        (**self).kind()
    }
    fn label(&self) -> String {
        (**self).label()
    }
    fn supports(&self, spec: &DealSpec) -> bool {
        (**self).supports(spec)
    }
    fn execute(
        &self,
        world: &mut World,
        plan: &DealPlan,
        configs: &[PartyConfig],
    ) -> Result<EngineRun, DealError> {
        (**self).execute(world, plan, configs)
    }
}

/// The two commit protocols of the paper, as one pluggable engine value.
///
/// `Protocol::Timelock(opts)` selects the fully decentralized timelock commit
/// protocol (synchronous networks, Section 5); `Protocol::Cbc(opts)` the
/// certified-blockchain protocol (eventually-synchronous networks,
/// Section 6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Protocol {
    /// The timelock commit protocol with its options.
    Timelock(TimelockOptions),
    /// The CBC commit protocol with its options.
    Cbc(CbcOptions),
}

impl Protocol {
    /// The timelock protocol with default options.
    pub fn timelock() -> Self {
        Protocol::Timelock(TimelockOptions::default())
    }

    /// The CBC protocol with default options.
    pub fn cbc() -> Self {
        Protocol::Cbc(CbcOptions::default())
    }
}

impl DealEngine for Protocol {
    fn kind(&self) -> ProtocolKind {
        match self {
            Protocol::Timelock(_) => ProtocolKind::Timelock,
            Protocol::Cbc(_) => ProtocolKind::Cbc,
        }
    }

    fn execute(
        &self,
        world: &mut World,
        plan: &DealPlan,
        configs: &[PartyConfig],
    ) -> Result<EngineRun, DealError> {
        match self {
            Protocol::Timelock(opts) => timelock::drive(world, plan, configs, opts),
            Protocol::Cbc(opts) => cbc::drive(world, plan, configs, opts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::broker_spec;
    use crate::deal::Deal;

    #[test]
    fn protocol_engine_dispatches_to_both_protocols() {
        let deal = Deal::new(broker_spec()).seed(1);
        let tl = deal.run(Protocol::timelock()).unwrap();
        assert_eq!(tl.outcome.protocol, ProtocolKind::Timelock);
        assert!(matches!(tl.ext, ProtocolExt::Timelock { .. }));
        assert!(tl.ext.validated().is_some());
        assert!(tl.ext.cbc_log().is_none());

        let cbc = deal.run(Protocol::cbc()).unwrap();
        assert_eq!(cbc.outcome.protocol, ProtocolKind::Cbc);
        assert!(cbc.ext.cbc_status().unwrap().is_committed());
        assert!(cbc.ext.swapped().is_none());
    }

    #[test]
    fn engines_work_through_references_and_boxes() {
        let deal = Deal::new(broker_spec()).seed(2);
        let by_ref = deal.run(Protocol::timelock()).unwrap();
        assert!(by_ref.outcome.committed_everywhere());
        let boxed: Box<dyn DealEngine> = Box::new(Protocol::cbc());
        let by_box = deal.run(&boxed).unwrap();
        assert!(by_box.outcome.committed_everywhere());
        assert_eq!(boxed.label(), "CBC");
    }
}
