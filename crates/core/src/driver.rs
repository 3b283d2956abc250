//! The phases every deal shares (Section 4.1), driven once for both commit
//! protocols: escrow, tentative transfers and validation run over any
//! [`DealEscrow`] contract, and so do installing the contracts and reading
//! how each one resolved. The timelock and CBC engines add only their
//! clearing and commit phases.

use std::collections::BTreeMap;

use xchain_contracts::escrow::{DealEscrow, EscrowResolution};
use xchain_sim::asset::AssetBag;
use xchain_sim::ids::{ChainId, ContractId, Owner, PartyId};
use xchain_sim::time::Duration;
use xchain_sim::world::World;

use crate::engine::{EngineRun, ProtocolExt};
use crate::error::DealError;
use crate::outcome::{ChainResolution, DealOutcome, ProtocolKind};
use crate::party::{configs_by_position, PartyConfig};
use crate::phases::{Phase, PhaseClock, PhaseMetrics};
use crate::plan::DealPlan;
use crate::setup::{self, advance_one_observation};
use crate::strategy::ObservationHub;

/// One deal execution's shared state, from the engine's prologue to its
/// outcome.
pub(crate) struct Session<'p> {
    plan: &'p DealPlan,
    /// Every party's configuration, resolved once and indexed by plan
    /// position.
    pub cfgs: Vec<PartyConfig>,
    /// The deal's one observation hub: a single filtered log ingest pass per
    /// chain, fanned out to every party's private view.
    pub hub: ObservationHub,
    pub metrics: PhaseMetrics,
    initial_holdings: BTreeMap<PartyId, AssetBag>,
}

impl<'p> Session<'p> {
    /// Runs the engines' shared prologue ([`setup::begin`]) and resolves
    /// every party's configuration.
    pub fn begin(
        world: &mut World,
        plan: &'p DealPlan,
        configs: &[PartyConfig],
        hub: ObservationHub,
    ) -> Result<Self, DealError> {
        let initial_holdings = setup::begin(world, plan, configs)?;
        Ok(Session {
            plan,
            cfgs: configs_by_position(&plan.spec().parties, configs),
            hub,
            metrics: PhaseMetrics::new(),
            initial_holdings,
        })
    }

    /// The escrow, transfer and validation phases: every willing party
    /// escrows its outgoing assets, then performs its tentative transfers in
    /// the plan's dependency-respecting order, then checks its incoming
    /// assets. Returns each party's validation verdict (compliant parties
    /// vote to commit only if it is true).
    ///
    /// A compliant, online party whose escrow fails is a broken setup, not a
    /// deviation, so that failure is the one error this returns.
    pub fn escrow_transfer_validate<M: DealEscrow>(
        &mut self,
        world: &mut World,
        contracts: &BTreeMap<ChainId, ContractId>,
        info: &M::Info,
        concurrent_transfers: bool,
    ) -> Result<BTreeMap<PartyId, bool>, DealError> {
        let (plan, spec) = (self.plan, self.plan.spec());

        // Escrow: in parallel, so the phase costs one observation delay.
        let clock = PhaseClock::start(Phase::Escrow, world);
        for e in plan.escrows() {
            let cfg = &self.cfgs[e.owner_ix];
            let willing = {
                let ctx = self.hub.ctx(world, spec, e.owner, Phase::Escrow, None);
                cfg.strategy.is_online(ctx.now) && cfg.strategy.on_escrow(&ctx)
            };
            if !willing {
                continue;
            }
            let result = world.call(
                e.chain,
                Owner::Party(e.owner),
                contracts[&e.chain],
                |m: &mut M, ctx| m.escrow(ctx, e.asset.clone()),
            );
            match result {
                Ok(()) => {}
                Err(err) if cfg.is_compliant() && !world.is_offline(e.owner, world.now()) => {
                    return Err(DealError::Chain(err))
                }
                Err(_) => {} // deviating or offline parties simply fail to escrow
            }
        }
        advance_one_observation(world);
        clock.stop(world, &mut self.metrics);

        // Transfer.
        let clock = PhaseClock::start(Phase::Transfer, world);
        let order = plan.transfer_order();
        for (step, idx) in order.iter().enumerate() {
            let t = &plan.transfers()[*idx];
            let cfg = &self.cfgs[t.from_ix];
            let willing = {
                let ctx = self.hub.ctx(world, spec, t.from, Phase::Transfer, None);
                cfg.strategy.is_online(ctx.now) && cfg.strategy.on_transfer(&ctx)
            };
            if willing {
                let _ = world.call(
                    t.chain,
                    Owner::Party(t.from),
                    contracts[&t.chain],
                    |m: &mut M, ctx| m.transfer(ctx, &t.asset, t.to),
                );
            }
            // Sequential transfers: the next sender must observe this one first.
            if !concurrent_transfers && step + 1 < order.len() {
                advance_one_observation(world);
            }
        }
        advance_one_observation(world);
        clock.stop(world, &mut self.metrics);

        // Validation.
        let clock = PhaseClock::start(Phase::Validation, world);
        let mut validated = BTreeMap::new();
        for (ix, (pp, cfg)) in plan.parties().iter().zip(&self.cfgs).enumerate() {
            // The mechanical verdict (escrows present, deal info consistent)
            // rides in the context; the strategy decides whether to accept it.
            let mechanical = validates::<M>(world, plan, ix, info, contracts);
            let ok = {
                let ctx = self
                    .hub
                    .ctx(world, spec, pp.id, Phase::Validation, Some(mechanical));
                cfg.strategy.on_validate(&ctx)
            };
            validated.insert(pp.id, ok);
        }
        advance_one_observation(world);
        clock.stop(world, &mut self.metrics);
        Ok(validated)
    }

    /// The measured outcome: final holdings and every contract's resolution.
    pub fn finish<M: DealEscrow>(
        self,
        world: &World,
        protocol: ProtocolKind,
        delta: Duration,
        contracts: BTreeMap<ChainId, ContractId>,
        ext: ProtocolExt,
    ) -> EngineRun {
        let final_holdings = world.holdings_by_party(&self.plan.spec().parties);
        let mut resolutions = BTreeMap::new();
        for (&chain, &contract) in &contracts {
            let resolution = match resolution::<M>(world, chain, contract) {
                Some(EscrowResolution::Committed) => ChainResolution::Committed,
                Some(EscrowResolution::Aborted) => ChainResolution::Aborted,
                None => ChainResolution::Unresolved,
            };
            resolutions.insert(chain, resolution);
        }
        EngineRun {
            outcome: DealOutcome {
                protocol,
                initial_holdings: self.initial_holdings,
                final_holdings,
                resolutions,
                metrics: self.metrics,
                delta,
            },
            contracts,
            ext,
        }
    }
}

/// Installs one contract built by `make` on every chain of the plan.
pub(crate) fn install<M: DealEscrow>(
    world: &mut World,
    plan: &DealPlan,
    make: impl Fn() -> M,
) -> Result<BTreeMap<ChainId, ContractId>, DealError> {
    let mut contracts = BTreeMap::new();
    for &chain in plan.chains() {
        let id = world
            .chain_mut(chain)
            .map_err(DealError::Chain)?
            .install(make());
        contracts.insert(chain, id);
    }
    Ok(contracts)
}

/// How the contract on `chain` resolved, if it has (`None` too if the chain
/// or the contract is missing).
pub(crate) fn resolution<M: DealEscrow>(
    world: &World,
    chain: ChainId,
    contract: ContractId,
) -> Option<EscrowResolution> {
    world
        .chain(chain)
        .ok()?
        .view(contract, |m: &M| m.resolution())
        .ok()?
}

/// The mechanical validation check: on every chain the party has incoming
/// assets on, the contract carries the agreed deal information and the
/// party's C-map entry covers its expected net incoming assets. The expected
/// bags were interned at planning time, so no kind name is resolved and no
/// bag is allocated.
fn validates<M: DealEscrow>(
    world: &World,
    plan: &DealPlan,
    ix: usize,
    info: &M::Info,
    contracts: &BTreeMap<ChainId, ContractId>,
) -> bool {
    let party = plan.parties()[ix].id;
    plan.incoming_chains(ix)
        .iter()
        .zip(plan.expected(ix))
        .all(|(&chain, expected)| {
            let (Some(&contract), Ok(c)) = (contracts.get(&chain), world.chain(chain)) else {
                return false;
            };
            c.view(contract, |m: &M| {
                m.info() == info && m.core().on_commit_covers(party, expected)
            })
            .unwrap_or(false)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::broker_spec;
    use crate::deal::Deal;
    use crate::engine::{DealEngine, Protocol};
    use crate::strategy::strategies;
    use xchain_sim::network::NetworkModel;
    use xchain_sim::time::Time;

    const BOB: PartyId = PartyId(1);

    /// The broker plan's world, except that Bob was never minted the tickets
    /// he must escrow.
    fn world_without_bobs_tickets(plan: &DealPlan) -> World {
        let mut world =
            World::with_network_and_kinds(1, NetworkModel::synchronous(100), plan.kinds().fork());
        setup::add_chains_and_parties(&mut world, plan.chains(), &plan.spec().parties);
        for e in plan.escrows().iter().filter(|e| e.owner != BOB) {
            world
                .mint_interned(e.chain, Owner::Party(e.owner), &e.asset)
                .unwrap();
        }
        world
    }

    #[test]
    fn a_compliant_partys_failed_escrow_is_a_chain_error() {
        let deal = Deal::new(broker_spec());
        let plan = deal.plan().unwrap();
        for engine in [Protocol::timelock(), Protocol::cbc()] {
            let mut world = world_without_bobs_tickets(&plan);
            let err = engine
                .execute(&mut world, &plan, deal.configs())
                .unwrap_err();
            assert!(
                matches!(err, DealError::Chain(_)),
                "{}: {err:?}",
                engine.label()
            );
        }
    }

    #[test]
    fn a_deviating_or_offline_partys_failed_escrow_is_no_error() {
        for engine in [Protocol::timelock(), Protocol::cbc()] {
            // Deviating: Bob escrows (and fails), then skips his transfers.
            let deal = Deal::new(broker_spec()).party(PartyConfig::with_strategy(
                BOB,
                strategies::skip_transfers(),
            ));
            let plan = deal.plan().unwrap();
            let mut world = world_without_bobs_tickets(&plan);
            let run = engine.execute(&mut world, &plan, deal.configs()).unwrap();
            assert!(run.outcome.aborted_everywhere(), "{}", engine.label());

            // Offline: Bob is compliant, but the world has him offline.
            let mut world = world_without_bobs_tickets(&plan);
            world.set_offline(BOB, Time(0), Time(1_000_000));
            let run = engine.execute(&mut world, &plan, &[]).unwrap();
            assert!(!run.outcome.committed_everywhere(), "{}", engine.label());
            assert!(run.outcome.fully_resolved(), "{}", engine.label());
        }
    }
}
