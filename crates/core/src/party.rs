//! Party identity and behaviour configuration.
//!
//! The paper classifies parties only as *compliant* (they follow the protocol)
//! or *deviating* (they do not, whether rationally or not), and deliberately
//! makes no assumption about how many parties deviate or how. Behaviour is
//! therefore an open [`Strategy`] trait (see [`crate::strategy`]): a
//! [`PartyConfig`] pairs a party with the strategy that answers its protocol
//! decisions, and new adversaries are user code, not core edits.
//!
//! The [`Deviation`] enum survives as the *description* of the classic
//! failure and attack modes the paper discusses — crashing or walking away at
//! any phase, refusing to escrow or transfer, withholding or never forwarding
//! votes, voting abort, claiming dissatisfaction at validation, and being
//! driven offline during the commit window. [`PartyConfig::deviating`] turns
//! a description into its built-in strategy, so legacy callers migrate
//! mechanically (see the MIGRATION table in CHANGES.md).

use std::fmt;
use std::sync::Arc;

use xchain_sim::ids::PartyId;
use xchain_sim::time::Time;

use crate::phases::Phase;
use crate::strategy::{strategies, Strategy};

/// How a party deviates from the protocol, if at all: the catalog of classic
/// behaviours, each realized by a built-in [`Strategy`]
/// (`strategies::from_deviation`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deviation {
    /// Follows the protocol exactly.
    None,
    /// Stops participating entirely after completing the given phase
    /// (crash / walk-away).
    CrashAfter(Phase),
    /// Never escrows its outgoing assets (joins the deal, then reneges).
    RefuseEscrow,
    /// Escrows but never performs its tentative transfers.
    SkipTransfers,
    /// Performs every phase but never sends a commit vote.
    WithholdVote,
    /// Timelock only: sends its own commit votes but never forwards other
    /// parties' votes (free-rides on the forwarding work of others).
    NeverForward,
    /// CBC only: votes to abort during the commit phase even though
    /// validation succeeded.
    VoteAbort,
    /// Declares its incoming assets unsatisfactory during validation and
    /// therefore never votes to commit.
    RejectValidation,
    /// Is offline (crashed or under denial of service) during `[from, until)`;
    /// otherwise behaves like a compliant party. Going offline at the wrong
    /// moment is a deviation: the paper notes such parties can miss the
    /// window in which they must claim assets or forward votes.
    OfflineDuring {
        /// Start of the outage.
        from: Time,
        /// End of the outage (exclusive).
        until: Time,
    },
}

/// The behaviour configuration of one party in a deal execution: the party
/// plus the [`Strategy`] that makes its decisions. Cloning shares the
/// strategy (an `Arc`), which is what a colluding coalition wants; per-run
/// state isolation is provided by [`fresh_configs`].
#[derive(Clone)]
pub struct PartyConfig {
    /// The party.
    pub id: PartyId,
    /// The behaviour driving it.
    pub strategy: Arc<dyn Strategy>,
}

impl fmt::Debug for PartyConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PartyConfig")
            .field("id", &self.id)
            .field("strategy", &self.strategy.name())
            .finish()
    }
}

impl PartyConfig {
    /// A compliant party.
    pub fn compliant(id: PartyId) -> Self {
        PartyConfig {
            id,
            strategy: strategies::compliant(),
        }
    }

    /// A party following one of the classic deviation behaviours (the legacy
    /// entry point; equivalent to `with_strategy(id,
    /// strategies::from_deviation(deviation))`).
    pub fn deviating(id: PartyId, deviation: Deviation) -> Self {
        PartyConfig {
            id,
            strategy: strategies::from_deviation(deviation),
        }
    }

    /// A party driven by an arbitrary strategy — the open adversary API.
    pub fn with_strategy(id: PartyId, strategy: Arc<dyn Strategy>) -> Self {
        PartyConfig { id, strategy }
    }

    /// True if the party follows the protocol exactly. Parties that go
    /// offline during the run are classified as deviating, matching the
    /// paper's treatment of parties that fail to act in time.
    pub fn is_compliant(&self) -> bool {
        self.strategy.is_compliant()
    }

    /// The offline window to register with the world, if the strategy models
    /// one.
    pub fn offline_window(&self) -> Option<(Time, Time)> {
        self.strategy.offline_window()
    }
}

/// Looks up a party's configuration, defaulting to compliant when absent.
pub fn config_of(configs: &[PartyConfig], id: PartyId) -> PartyConfig {
    configs
        .iter()
        .find(|c| c.id == id)
        .cloned()
        .unwrap_or_else(|| PartyConfig::compliant(id))
}

/// Looks up the configuration of every party in `parties` once, in order.
/// Engines index the result by plan position (`plan.parties()`,
/// `PlannedEscrow::owner_ix`, …) instead of calling [`config_of`] at every
/// decision.
pub fn configs_by_position(parties: &[PartyId], configs: &[PartyConfig]) -> Vec<PartyConfig> {
    parties.iter().map(|&p| config_of(configs, p)).collect()
}

/// Clones a configuration set for one deal execution, giving stateful
/// strategies a clean interior state (via [`Strategy::fresh`]) while
/// preserving sharing: configs that held the *same* `Arc` — a coalition —
/// receive the same fresh instance. Stateless strategies are shared as-is.
/// [`crate::deal::Deal::run`] calls this before every execution, so repeated
/// runs of one session and concurrent sweep cells never see each other's
/// strategy state.
pub fn fresh_configs(configs: &[PartyConfig]) -> Vec<PartyConfig> {
    let mut replaced: Vec<(*const (), Arc<dyn Strategy>)> = Vec::new();
    configs
        .iter()
        .map(|c| {
            let key = Arc::as_ptr(&c.strategy) as *const ();
            let strategy = match replaced.iter().find(|(k, _)| *k == key) {
                Some((_, fresh)) => fresh.clone(),
                None => {
                    let fresh = c.strategy.fresh().unwrap_or_else(|| c.strategy.clone());
                    replaced.push((key, fresh.clone()));
                    fresh
                }
            };
            PartyConfig { id: c.id, strategy }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{DealView, ObservationCtx, Vote};

    #[test]
    fn compliant_and_deviating_classification() {
        let c = PartyConfig::compliant(PartyId(0));
        assert!(c.is_compliant());
        assert_eq!(c.offline_window(), None);
        let d = PartyConfig::deviating(PartyId(1), Deviation::WithholdVote);
        assert!(!d.is_compliant());
        let off = PartyConfig::deviating(
            PartyId(2),
            Deviation::OfflineDuring {
                from: Time(5),
                until: Time(10),
            },
        );
        assert!(!off.is_compliant());
        assert_eq!(off.offline_window(), Some((Time(5), Time(10))));
    }

    #[test]
    fn config_lookup_defaults_to_compliant() {
        let configs = vec![PartyConfig::deviating(PartyId(1), Deviation::WithholdVote)];
        assert!(config_of(&configs, PartyId(0)).is_compliant());
        assert!(!config_of(&configs, PartyId(1)).is_compliant());
    }

    #[test]
    fn position_table_matches_per_party_lookup_and_shares_the_compliant_strategy() {
        let configs = vec![PartyConfig::deviating(PartyId(1), Deviation::WithholdVote)];
        let parties = [PartyId(2), PartyId(1), PartyId(0)];
        let table = configs_by_position(&parties, &configs);
        assert_eq!(table.len(), 3);
        for (cfg, &p) in table.iter().zip(&parties) {
            assert_eq!(cfg.id, p);
            assert_eq!(cfg.is_compliant(), config_of(&configs, p).is_compliant());
        }
        // Defaulted parties share one compliant strategy instead of each
        // allocating their own.
        assert!(Arc::ptr_eq(&table[0].strategy, &table[2].strategy));
        assert!(Arc::ptr_eq(
            &table[0].strategy,
            &PartyConfig::compliant(PartyId(7)).strategy
        ));
    }

    #[test]
    fn fresh_configs_preserves_sharing_and_resets_state() {
        use crate::strategy::strategies;
        let shared = strategies::coalition([PartyId(0), PartyId(1)]);
        let solo = strategies::sore_loser();
        let configs = vec![
            PartyConfig::with_strategy(PartyId(0), shared.clone()),
            PartyConfig::with_strategy(PartyId(1), shared),
            PartyConfig::with_strategy(PartyId(2), solo),
        ];
        let fresh = fresh_configs(&configs);
        // The two coalition members still share one (new) instance …
        assert!(Arc::ptr_eq(&fresh[0].strategy, &fresh[1].strategy));
        // … which is not the prototype.
        assert!(!Arc::ptr_eq(&fresh[0].strategy, &configs[0].strategy));
        // Stateless strategies are shared as-is.
        assert!(Arc::ptr_eq(&fresh[2].strategy, &configs[2].strategy));
    }

    #[test]
    fn deviating_config_answers_through_its_strategy() {
        let spec = crate::builders::broker_spec();
        let view = DealView::default();
        let ctx = ObservationCtx {
            party: PartyId(0),
            phase: Phase::Commit,
            now: Time(0),
            spec: &spec,
            view: &view,
            validated: Some(true),
        };
        let c = PartyConfig::deviating(PartyId(0), Deviation::RefuseEscrow);
        assert!(!c.strategy.on_escrow(&ctx));
        let c = PartyConfig::deviating(PartyId(0), Deviation::VoteAbort);
        assert_eq!(c.strategy.on_vote(&ctx), Vote::Abort);
        let c = PartyConfig::deviating(PartyId(0), Deviation::CrashAfter(Phase::Escrow));
        assert!(c.strategy.on_escrow(&ctx));
        assert!(!c.strategy.on_transfer(&ctx));
    }
}
