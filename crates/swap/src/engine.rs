//! The HTLC atomic swap as a third [`DealEngine`]: two-party deals that are
//! expressible as swaps (Section 8) can be executed by hashed-timelock
//! contracts instead of a commit protocol, making the swap directly
//! comparable to the timelock and CBC engines in gas and delay.
//!
//! The engine maps a two-party [`DealSpec`] onto a [`SwapSpec`] (leader =
//! first party, follower = second), drives the classic asymmetric-timeout
//! HTLC exchange with per-phase metrics (funding through the pre-interned
//! assets of the [`DealPlan`]), and honours each [`PartyConfig`]'s
//! [`xchain_deals::strategy::Strategy`]: funding asks `on_escrow`, claiming
//! asks `on_claim`, and every answer sees the party's view from the deal's
//! shared [`xchain_deals::strategy::ObservationHub`] (a strategy that
//! refuses to escrow never funds; one that withholds never claims). Results
//! are reported in the same [`DealOutcome`] vocabulary as the commit
//! protocols.

use std::collections::BTreeMap;

use xchain_deals::engine::{DealEngine, EngineRun, ProtocolExt};
use xchain_deals::error::DealError;
use xchain_deals::outcome::{ChainResolution, DealOutcome, ProtocolKind};
use xchain_deals::party::{config_of, PartyConfig};
use xchain_deals::phases::{Phase, PhaseMetrics};
use xchain_deals::plan::DealPlan;
use xchain_deals::setup::{self, advance_one_observation};
use xchain_deals::spec::DealSpec;
use xchain_deals::strategy::ObservationHub;
use xchain_sim::ids::{ChainId, ContractId, Owner, PartyId};
use xchain_sim::time::Duration;
use xchain_sim::world::World;

use crate::htlc::{HtlcContract, HtlcState};
use crate::limits::expressible_as_swap;
use crate::protocol::SwapSpec;

/// The two-party HTLC swap engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapEngine {
    /// The synchrony bound ∆ used for the asymmetric HTLC timeouts (leader
    /// 4∆, follower 2∆) and for normalising durations in reports.
    pub delta: Duration,
}

impl SwapEngine {
    /// A swap engine with the given synchrony bound.
    pub fn new(delta: Duration) -> Self {
        SwapEngine { delta }
    }

    /// Maps a deal specification onto a [`SwapSpec`], if it is a two-party,
    /// two-chain exchange in which each party escrows exactly the single
    /// asset it sends (the Section 8 expressibility condition, specialised to
    /// what an HTLC pair can execute).
    pub fn as_swap_spec(spec: &DealSpec) -> Option<SwapSpec> {
        if spec.n_parties() != 2
            || spec.n_transfers() != 2
            || spec.n_assets() != 2
            || !expressible_as_swap(spec)
        {
            return None;
        }
        let leader = spec.parties[0];
        let follower = spec.parties[1];
        let leader_t = spec.transfers.iter().find(|t| t.from == leader)?;
        let follower_t = spec.transfers.iter().find(|t| t.from == follower)?;
        if leader_t.to != follower || follower_t.to != leader {
            return None;
        }
        // One HTLC per chain: the two legs must live on different chains.
        if leader_t.chain == follower_t.chain {
            return None;
        }
        // Each leg must be backed by a matching escrow obligation.
        let escrow_matches = |p: PartyId, chain: ChainId, asset: &xchain_sim::asset::Asset| {
            spec.escrows
                .iter()
                .any(|e| e.owner == p && e.chain == chain && e.asset == *asset)
        };
        if !escrow_matches(leader, leader_t.chain, &leader_t.asset)
            || !escrow_matches(follower, follower_t.chain, &follower_t.asset)
        {
            return None;
        }
        Some(SwapSpec {
            leader,
            follower,
            leader_chain: leader_t.chain,
            leader_asset: leader_t.asset.clone(),
            follower_chain: follower_t.chain,
            follower_asset: follower_t.asset.clone(),
        })
    }
}

impl Default for SwapEngine {
    fn default() -> Self {
        SwapEngine::new(Duration(100))
    }
}

impl DealEngine for SwapEngine {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Swap
    }

    fn supports(&self, spec: &DealSpec) -> bool {
        Self::as_swap_spec(spec).is_some()
    }

    fn execute(
        &self,
        world: &mut World,
        plan: &DealPlan,
        configs: &[PartyConfig],
    ) -> Result<EngineRun, DealError> {
        let spec = plan.spec();
        let swap = Self::as_swap_spec(spec).ok_or_else(|| {
            DealError::Config("deal is not expressible as a two-party HTLC swap".into())
        })?;
        setup::check_parties_exist(world, plan)?;
        setup::check_chains_exist(world, plan)?;
        setup::apply_offline_windows(world, configs);

        // The two legs' interned assets, resolved once at planning time.
        let leader_asset = plan
            .transfers()
            .iter()
            .find(|t| t.from == swap.leader)
            .expect("as_swap_spec checked the legs")
            .asset
            .clone();
        let follower_asset = plan
            .transfers()
            .iter()
            .find(|t| t.from == swap.follower)
            .expect("as_swap_spec checked the legs")
            .asset
            .clone();

        let mut metrics = PhaseMetrics::new();
        let initial_holdings = world.holdings_by_party(&spec.parties);
        let leader_cfg = config_of(configs, swap.leader);
        let follower_cfg = config_of(configs, swap.follower);
        // Both parties monitor both chains through the deal's shared hub; the
        // swap has no validation phase (the hashlock validates), so every
        // observation context carries `validated: None`.
        let mut hub = ObservationHub::new(plan);

        // --------------------------------------------------------------
        // Clearing: install the two HTLCs under one hashlock, with the
        // standard asymmetric timeouts (the leader's escrow outlives the
        // follower's so the follower always has time to claim after the
        // secret is revealed).
        // --------------------------------------------------------------
        let clearing_started = world.now();
        let gas_before = world.total_gas();
        let secret = 0xA11CE ^ world.seed();
        let hashlock = HtlcContract::hash_secret(secret);
        // Funding consumes up to two observation delays (each bounded by ∆)
        // before the leader can claim, so the follower's HTLC must live
        // strictly longer than 2∆; the leader's must outlive the follower's
        // by more than another observation delay so the follower can always
        // claim after the reveal.
        let leader_timeout = world.now() + self.delta.times(6);
        let follower_timeout = world.now() + self.delta.times(3);
        let leader_htlc = world
            .chain_mut(swap.leader_chain)
            .map_err(DealError::Chain)?
            .install(HtlcContract::new(
                swap.leader,
                swap.follower,
                hashlock,
                leader_timeout,
            ));
        let follower_htlc = world
            .chain_mut(swap.follower_chain)
            .map_err(DealError::Chain)?
            .install(HtlcContract::new(
                swap.follower,
                swap.leader,
                hashlock,
                follower_timeout,
            ));
        let mut contracts: BTreeMap<ChainId, ContractId> = BTreeMap::new();
        contracts.insert(swap.leader_chain, leader_htlc);
        contracts.insert(swap.follower_chain, follower_htlc);
        metrics.add_gas(Phase::Clearing, gas_before.delta_to(&world.total_gas()));
        metrics.add_duration(Phase::Clearing, world.now() - clearing_started);

        // --------------------------------------------------------------
        // Escrow: the leader funds first; the follower funds only after
        // observing the leader's escrow (one observation delay).
        // --------------------------------------------------------------
        let escrow_started = world.now();
        let gas_before = world.total_gas();
        let mut leader_funded = false;
        let leader_escrows = {
            let ctx = hub.ctx(world, spec, swap.leader, Phase::Escrow, None);
            leader_cfg.strategy.is_online(ctx.now) && leader_cfg.strategy.on_escrow(&ctx)
        };
        if leader_escrows {
            leader_funded = world
                .call(
                    swap.leader_chain,
                    Owner::Party(swap.leader),
                    leader_htlc,
                    |h: &mut HtlcContract, ctx| h.fund_interned(ctx, leader_asset.clone()),
                )
                .is_ok();
        }
        advance_one_observation(world);
        let mut follower_funded = false;
        let follower_escrows = leader_funded && {
            let ctx = hub.ctx(world, spec, swap.follower, Phase::Escrow, None);
            follower_cfg.strategy.is_online(ctx.now) && follower_cfg.strategy.on_escrow(&ctx)
        };
        if follower_escrows {
            follower_funded = world
                .call(
                    swap.follower_chain,
                    Owner::Party(swap.follower),
                    follower_htlc,
                    |h: &mut HtlcContract, ctx| h.fund_interned(ctx, follower_asset.clone()),
                )
                .is_ok();
        }
        advance_one_observation(world);
        metrics.add_gas(Phase::Escrow, gas_before.delta_to(&world.total_gas()));
        metrics.add_duration(Phase::Escrow, world.now() - escrow_started);

        // The swap has no separate transfer or validation phases: the
        // tentative transfer *is* the claim, and validation is the hashlock.

        // --------------------------------------------------------------
        // Commit: the leader claims the follower's HTLC (revealing the
        // secret on-chain), then the follower claims the leader's. A party
        // that withholds its claim plays the same role as one withholding a
        // commit vote in the deal protocols.
        // --------------------------------------------------------------
        let commit_started = world.now();
        let gas_before = world.total_gas();
        let mut leader_claimed = false;
        let leader_claims = leader_funded && follower_funded && {
            let ctx = hub.ctx(world, spec, swap.leader, Phase::Commit, None);
            leader_cfg.strategy.is_online(ctx.now) && leader_cfg.strategy.on_claim(&ctx)
        };
        if leader_claims {
            leader_claimed = world
                .call(
                    swap.follower_chain,
                    Owner::Party(swap.leader),
                    follower_htlc,
                    |h: &mut HtlcContract, ctx| h.claim(ctx, secret),
                )
                .is_ok();
        }
        advance_one_observation(world);
        let mut follower_claimed = false;
        let follower_claims = leader_claimed && {
            let ctx = hub.ctx(world, spec, swap.follower, Phase::Commit, None);
            follower_cfg.strategy.is_online(ctx.now) && follower_cfg.strategy.on_claim(&ctx)
        };
        if follower_claims {
            follower_claimed = world
                .call(
                    swap.leader_chain,
                    Owner::Party(swap.follower),
                    leader_htlc,
                    |h: &mut HtlcContract, ctx| h.claim(ctx, secret),
                )
                .is_ok();
        }

        // Timeouts: whatever is still locked refunds to its depositor once
        // the longer (leader) timeout has passed.
        if (leader_funded && !follower_claimed) || (follower_funded && !leader_claimed) {
            world.advance_to(leader_timeout + Duration(1));
            if leader_funded && !follower_claimed {
                let _ = world.call(
                    swap.leader_chain,
                    Owner::Party(swap.leader),
                    leader_htlc,
                    |h: &mut HtlcContract, ctx| h.refund(ctx),
                );
            }
            if follower_funded && !leader_claimed {
                let _ = world.call(
                    swap.follower_chain,
                    Owner::Party(swap.follower),
                    follower_htlc,
                    |h: &mut HtlcContract, ctx| h.refund(ctx),
                );
            }
        }
        metrics.add_gas(Phase::Commit, gas_before.delta_to(&world.total_gas()));
        metrics.add_duration(Phase::Commit, world.now() - commit_started);

        // --------------------------------------------------------------
        // Collect the outcome in the protocol-agnostic vocabulary.
        // --------------------------------------------------------------
        let final_holdings = world.holdings_by_party(&spec.parties);
        let mut resolutions = BTreeMap::new();
        for (&chain, &contract) in &contracts {
            let state = world
                .chain(chain)
                .ok()
                .and_then(|c| c.view(contract, |h: &HtlcContract| h.state()).ok());
            resolutions.insert(
                chain,
                match state {
                    Some(HtlcState::Claimed) => ChainResolution::Committed,
                    // Never funded means nothing was ever at stake there; the
                    // exchange is off, which is an abort in deal terms.
                    Some(HtlcState::Refunded) | Some(HtlcState::Created) => {
                        ChainResolution::Aborted
                    }
                    Some(HtlcState::Funded) | None => ChainResolution::Unresolved,
                },
            );
        }

        Ok(EngineRun {
            outcome: DealOutcome {
                protocol: ProtocolKind::Swap,
                initial_holdings,
                final_holdings,
                resolutions,
                metrics,
                delta: self.delta,
            },
            contracts,
            ext: ProtocolExt::Swap {
                swapped: leader_claimed && follower_claimed,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xchain_deals::builders::{broker_spec, ring_spec};
    use xchain_deals::party::Deviation;
    use xchain_deals::properties::{check_conservation, check_safety};
    use xchain_deals::Deal;
    use xchain_sim::asset::Asset;
    use xchain_sim::ids::DealId;
    use xchain_sim::network::NetworkModel;

    fn two_party() -> DealSpec {
        ring_spec(DealId(77), 2)
    }

    #[test]
    fn supports_only_swap_expressible_two_party_deals() {
        let engine = SwapEngine::default();
        assert!(engine.supports(&two_party()));
        assert!(!engine.supports(&broker_spec()));
        assert!(!engine.supports(&ring_spec(DealId(1), 4)));
    }

    #[test]
    fn compliant_swap_commits_both_chains() {
        let deal = Deal::new(two_party())
            .network(NetworkModel::synchronous(100))
            .seed(5);
        let run = deal.run(SwapEngine::default()).unwrap();
        assert!(run.outcome.committed_everywhere());
        assert_eq!(run.ext.swapped(), Some(true));
        assert_eq!(run.outcome.protocol, ProtocolKind::Swap);
        // Party 1 now holds party 0's asset and vice versa.
        assert!(run
            .world
            .holdings(Owner::Party(PartyId(1)))
            .contains(&Asset::fungible("asset-0", 10)));
        assert!(run
            .world
            .holdings(Owner::Party(PartyId(0)))
            .contains(&Asset::fungible("asset-1", 10)));
        assert!(check_safety(deal.spec(), &[], &run.outcome).holds());
        assert!(check_conservation(deal.spec(), &run.outcome));
    }

    #[test]
    fn defecting_follower_costs_nobody_anything() {
        let deal = Deal::new(two_party())
            .party(PartyConfig::deviating(PartyId(1), Deviation::RefuseEscrow))
            .seed(6);
        let run = deal.run(SwapEngine::default()).unwrap();
        assert!(run.outcome.aborted_everywhere());
        assert_eq!(run.ext.swapped(), Some(false));
        assert!(run
            .world
            .holdings(Owner::Party(PartyId(0)))
            .contains(&Asset::fungible("asset-0", 10)));
        assert!(check_safety(deal.spec(), deal.configs(), &run.outcome).holds());
    }

    #[test]
    fn withheld_claim_refunds_both_sides() {
        let deal = Deal::new(two_party())
            .party(PartyConfig::deviating(PartyId(0), Deviation::WithholdVote))
            .seed(7);
        let run = deal.run(SwapEngine::default()).unwrap();
        assert!(run.outcome.aborted_everywhere());
        assert!(check_safety(deal.spec(), deal.configs(), &run.outcome).holds());
        assert!(check_conservation(deal.spec(), &run.outcome));
    }

    #[test]
    fn builder_rejects_unsupported_specs() {
        let err = Deal::new(broker_spec())
            .run(SwapEngine::default())
            .unwrap_err();
        assert!(err.to_string().contains("does not support"));
    }

    #[test]
    fn compliant_swaps_commit_for_adversarial_delay_seeds() {
        // Regression: with follower_timeout at install + 2∆ the claim could
        // land at exactly `now == timeout` (two worst-case observation delays
        // during funding) and a fully-compliant swap spuriously aborted.
        // Seeds 1897, 12735, 23841, 26817 and 27893 all produced that timing
        // under the default synchronous ∆ = 100 network.
        for seed in [1897u64, 12735, 23841, 26817, 27893] {
            let run = Deal::new(two_party())
                .network(NetworkModel::synchronous(100))
                .seed(seed)
                .run(SwapEngine::default())
                .unwrap();
            assert!(run.outcome.committed_everywhere(), "seed {seed}");
        }
    }
}
