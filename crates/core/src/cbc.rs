//! The certified-blockchain (CBC) commit protocol engine (Section 6).
//!
//! Parties vote to commit or abort the *entire deal* on a shared certified
//! log; escrow contracts on the asset chains are resolved by presenting
//! validator-signed proofs. Unlike the timelock protocol this works under
//! eventual synchrony: before the global stabilization time votes simply take
//! longer to be observed, and impatient parties may rescind by voting abort —
//! but the deal still either commits everywhere or aborts everywhere.

use std::collections::BTreeMap;

use xchain_bft::log::CbcLog;
use xchain_bft::proof::DealStatus;
use xchain_contracts::cbc_manager::{CbcDealInfo, CbcManager};
use xchain_sim::ids::{ChainId, ContractId, Owner, PartyId};
use xchain_sim::time::Duration;
use xchain_sim::world::World;

use crate::error::DealError;
use crate::outcome::{ChainResolution, DealOutcome, ProtocolKind};
use crate::party::{configs_by_position, PartyConfig};
use crate::phases::{Phase, PhaseMetrics};
use crate::plan::DealPlan;
use crate::setup::advance_one_observation;
use crate::strategy::{ObservationHub, Vote};
use crate::{setup, validation};

/// Tunable options for the CBC protocol engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CbcOptions {
    /// The CBC's fault-tolerance parameter `f` (3f+1 validators, 2f+1 quorum).
    pub f: usize,
    /// How long a party that has voted commit waits before rescinding with an
    /// abort vote if the deal has not resolved (must be at least ∆ for strong
    /// liveness, Section 6).
    pub patience: Duration,
    /// If true, escrow contracts are resolved with full block-range proofs
    /// instead of validator status certificates (the expensive, unoptimized
    /// path of Section 6.2).
    pub use_block_proofs: bool,
    /// If true, independent tentative transfers are submitted concurrently.
    pub concurrent_transfers: bool,
    /// Parties whose CBC submissions the validators censor (Section 9's
    /// censorship threat). Empty for honest validators.
    pub censored_parties: Vec<PartyId>,
    /// The nominal ∆ used to normalise durations in reports.
    pub delta: Duration,
}

impl Default for CbcOptions {
    fn default() -> Self {
        CbcOptions {
            f: 1,
            patience: Duration(300),
            use_block_proofs: false,
            concurrent_transfers: false,
            censored_parties: Vec::new(),
            delta: Duration(100),
        }
    }
}

/// The result of a CBC deal execution.
#[derive(Debug)]
pub struct CbcRun {
    /// The measured outcome.
    pub outcome: DealOutcome,
    /// The CBC escrow contract installed on each involved chain.
    pub contracts: BTreeMap<ChainId, ContractId>,
    /// The certified log after the run (for post-mortem inspection).
    pub log: CbcLog,
    /// Which parties passed validation.
    pub validated: BTreeMap<PartyId, bool>,
    /// The final deal status recorded on the CBC.
    pub status: DealStatus,
}

/// The CBC protocol driver behind [`crate::Protocol::Cbc`].
pub(crate) fn drive(
    world: &mut World,
    plan: &DealPlan,
    configs: &[PartyConfig],
    opts: &CbcOptions,
) -> Result<CbcRun, DealError> {
    let spec = plan.spec();
    setup::check_parties_exist(world, plan)?;
    setup::check_chains_exist(world, plan)?;
    setup::apply_offline_windows(world, configs);

    let mut metrics = PhaseMetrics::new();
    let initial_holdings = world.holdings_by_party(&spec.parties);
    // Every party's configuration, resolved once and indexed by plan
    // position.
    let cfgs = configs_by_position(&spec.parties, configs);
    // One shared observation hub for the whole deal (see the timelock
    // engine): a single filtered ingest pass per chain, one view per party.
    let mut hub = ObservationHub::new(plan);

    // ------------------------------------------------------------------
    // Clearing phase: create the CBC, publish startDeal, install contracts.
    // ------------------------------------------------------------------
    let clearing_started = world.now();
    let gas_before = world.total_gas();
    let mut cbc = CbcLog::new(opts.f, world.seed() ^ 0xCBC);
    for p in &opts.censored_parties {
        cbc.censor(*p);
    }
    // Register validator keys on the world's chains so escrow contracts can
    // verify certificates.
    cbc.validators().register_in_world(world);
    // One party (the first that is not censored) records the start of the deal.
    let starter = spec
        .parties
        .iter()
        .copied()
        .find(|p| !opts.censored_parties.contains(p))
        .ok_or_else(|| DealError::Config("every party is censored".into()))?;
    let (_, start_hash) = cbc
        .start_deal(world.now(), starter, spec.deal, spec.parties.clone())
        .map_err(DealError::Cbc)?;
    let info = CbcDealInfo {
        deal: spec.deal,
        plist: plan.plist().clone(),
        start_hash,
        validators: cbc.initial_validators(),
    };
    let mut contracts: BTreeMap<ChainId, ContractId> = BTreeMap::new();
    for &chain in plan.chains() {
        let id = world
            .chain_mut(chain)
            .map_err(DealError::Chain)?
            .install(CbcManager::new(info.clone()));
        contracts.insert(chain, id);
    }
    metrics.add_gas(Phase::Clearing, gas_before.delta_to(&world.total_gas()));
    metrics.add_duration(Phase::Clearing, world.now() - clearing_started);

    // ------------------------------------------------------------------
    // Escrow phase.
    // ------------------------------------------------------------------
    let escrow_started = world.now();
    let gas_before = world.total_gas();
    for e in plan.escrows() {
        let cfg = &cfgs[e.owner_ix];
        let willing = {
            let ctx = hub.ctx(world, spec, e.owner, Phase::Escrow, None);
            cfg.strategy.is_online(ctx.now) && cfg.strategy.on_escrow(&ctx)
        };
        if !willing {
            continue;
        }
        let contract = contracts[&e.chain];
        let result = world.call(
            e.chain,
            Owner::Party(e.owner),
            contract,
            |m: &mut CbcManager, ctx| m.escrow_interned(ctx, e.asset.clone()),
        );
        match result {
            Ok(()) => {}
            Err(err) if cfg.is_compliant() && !world.is_offline(e.owner, world.now()) => {
                return Err(DealError::Chain(err))
            }
            Err(_) => {}
        }
    }
    advance_one_observation(world);
    metrics.add_gas(Phase::Escrow, gas_before.delta_to(&world.total_gas()));
    metrics.add_duration(Phase::Escrow, world.now() - escrow_started);

    // ------------------------------------------------------------------
    // Transfer phase.
    // ------------------------------------------------------------------
    let transfer_started = world.now();
    let gas_before = world.total_gas();
    let order = plan.transfer_order();
    for (step, idx) in order.iter().enumerate() {
        let t = &plan.transfers()[*idx];
        let cfg = &cfgs[t.from_ix];
        let willing = {
            let ctx = hub.ctx(world, spec, t.from, Phase::Transfer, None);
            cfg.strategy.is_online(ctx.now) && cfg.strategy.on_transfer(&ctx)
        };
        if willing {
            let contract = contracts[&t.chain];
            let _ = world.call(
                t.chain,
                Owner::Party(t.from),
                contract,
                |m: &mut CbcManager, ctx| m.transfer_interned(ctx, &t.asset, t.to),
            );
        }
        if !opts.concurrent_transfers && step + 1 < order.len() {
            advance_one_observation(world);
        }
    }
    advance_one_observation(world);
    metrics.add_gas(Phase::Transfer, gas_before.delta_to(&world.total_gas()));
    metrics.add_duration(Phase::Transfer, world.now() - transfer_started);

    // ------------------------------------------------------------------
    // Validation phase.
    // ------------------------------------------------------------------
    let validation_started = world.now();
    let gas_before = world.total_gas();
    let mut validated: BTreeMap<PartyId, bool> = BTreeMap::new();
    for (pp, cfg) in plan.parties().iter().zip(&cfgs) {
        let p = pp.id;
        let mechanical = validation::validate_cbc_plan(world, pp, &info, &contracts);
        let ok = {
            let ctx = hub.ctx(world, spec, p, Phase::Validation, Some(mechanical));
            cfg.strategy.on_validate(&ctx)
        };
        validated.insert(p, ok);
    }
    advance_one_observation(world);
    metrics.add_gas(Phase::Validation, gas_before.delta_to(&world.total_gas()));
    metrics.add_duration(Phase::Validation, world.now() - validation_started);

    // ------------------------------------------------------------------
    // Commit phase: votes on the CBC, then proof presentation to contracts.
    // ------------------------------------------------------------------
    let commit_started = world.now();
    let gas_before = world.total_gas();

    // All parties vote in parallel (the CBC orders them).
    for (&p, cfg) in spec.parties.iter().zip(&cfgs) {
        if world.is_offline(p, world.now()) || !cfg.strategy.is_online(world.now()) {
            continue;
        }
        let verdict = validated.get(&p).copied().unwrap_or(false);
        let vote = {
            let ctx = hub.ctx(world, spec, p, Phase::Commit, Some(verdict));
            cfg.strategy.on_vote(&ctx)
        };
        match vote {
            Vote::Commit => {
                let _ = cbc.vote_commit(world.now(), spec.deal, start_hash, p);
            }
            Vote::Abort => {
                let _ = cbc.vote_abort(world.now(), spec.deal, start_hash, p);
            }
            Vote::Withhold => {}
        }
    }
    // The votes become observable after at most one network delay (longer
    // before GST under eventual synchrony).
    advance_one_observation(world);

    // If the deal is still undecided (some party withheld its vote), compliant
    // parties wait out their patience and then rescind by voting abort.
    let mut status = cbc
        .deal_status(spec.deal, start_hash)
        .map_err(DealError::Cbc)?;
    if matches!(status, DealStatus::Active) {
        world.advance_by(opts.patience);
        for (&p, cfg) in spec.parties.iter().zip(&cfgs) {
            if cfg.is_compliant()
                && !world.is_offline(p, world.now())
                && cfg.strategy.is_online(world.now())
            {
                // Keep trying compliant parties until one abort vote lands
                // (the first candidate may itself be censored by the CBC).
                if cbc
                    .vote_abort(world.now(), spec.deal, start_hash, p)
                    .is_ok()
                {
                    break;
                }
            }
        }
        status = cbc
            .deal_status(spec.deal, start_hash)
            .map_err(DealError::Cbc)?;
    }

    // Proof presentation: for each chain, an online party presents the proof
    // of the decisive outcome; presentations happen in parallel (≤ ∆).
    if !matches!(status, DealStatus::Active) {
        let epoch_infos = cbc.epoch_infos().to_vec();
        for (&chain, &contract) in &contracts {
            let Some(presenter) = setup::pick_online_party(world, spec, configs) else {
                continue;
            };
            if opts.use_block_proofs {
                let proof = cbc
                    .block_proof(spec.deal, start_hash)
                    .map_err(DealError::Cbc)?;
                let _ = world.call(
                    chain,
                    Owner::Party(presenter),
                    contract,
                    |m: &mut CbcManager, ctx| m.resolve_with_block_proof(ctx, &proof, &epoch_infos),
                );
            } else {
                let cert = cbc
                    .status_certificate(world.now(), spec.deal, start_hash)
                    .map_err(DealError::Cbc)?;
                let _ = world.call(
                    chain,
                    Owner::Party(presenter),
                    contract,
                    |m: &mut CbcManager, ctx| m.resolve_with_certificate(ctx, &cert),
                );
            }
        }
        advance_one_observation(world);
    }
    metrics.add_gas(Phase::Commit, gas_before.delta_to(&world.total_gas()));
    metrics.add_duration(Phase::Commit, world.now() - commit_started);

    // ------------------------------------------------------------------
    // Collect the outcome.
    // ------------------------------------------------------------------
    let final_holdings = world.holdings_by_party(&spec.parties);
    let mut resolutions = BTreeMap::new();
    for (&chain, &contract) in &contracts {
        let res = world
            .chain(chain)
            .ok()
            .and_then(|c| c.view(contract, |m: &CbcManager| m.resolution()).ok())
            .flatten();
        resolutions.insert(
            chain,
            match res {
                Some(xchain_contracts::escrow::EscrowResolution::Committed) => {
                    ChainResolution::Committed
                }
                Some(xchain_contracts::escrow::EscrowResolution::Aborted) => {
                    ChainResolution::Aborted
                }
                None => ChainResolution::Unresolved,
            },
        );
    }

    Ok(CbcRun {
        outcome: DealOutcome {
            protocol: ProtocolKind::Cbc,
            initial_holdings,
            final_holdings,
            resolutions,
            metrics,
            delta: opts.delta,
        },
        contracts,
        log: cbc,
        validated,
        status,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::broker_spec;
    use crate::deal::{Deal, DealRun};
    use crate::engine::Protocol;
    use crate::party::Deviation;
    use xchain_sim::asset::Asset;
    use xchain_sim::network::NetworkModel;

    fn run_broker(
        configs: &[PartyConfig],
        opts: &CbcOptions,
        network: NetworkModel,
        seed: u64,
    ) -> DealRun {
        Deal::new(broker_spec())
            .network(network)
            .parties(configs)
            .seed(seed)
            .run(Protocol::Cbc(opts.clone()))
            .unwrap()
    }

    #[test]
    fn all_compliant_deal_commits_everywhere() {
        let run = run_broker(
            &[],
            &CbcOptions::default(),
            NetworkModel::synchronous(100),
            1,
        );
        assert!(run.outcome.committed_everywhere());
        assert!(run.ext.cbc_status().unwrap().is_committed());
        assert!(run
            .world
            .holdings(Owner::Party(PartyId(2)))
            .contains(&Asset::non_fungible("ticket", [1, 2])));
        assert_eq!(
            run.world
                .holdings(Owner::Party(PartyId(1)))
                .balance(&"coin".into()),
            100
        );
    }

    #[test]
    fn withheld_vote_leads_to_abort_everywhere() {
        let configs = vec![PartyConfig::deviating(PartyId(1), Deviation::WithholdVote)];
        let run = run_broker(
            &configs,
            &CbcOptions::default(),
            NetworkModel::synchronous(100),
            2,
        );
        assert!(run.outcome.aborted_everywhere());
        assert!(run.ext.cbc_status().unwrap().is_aborted());
        // Carol's coins are refunded.
        assert_eq!(
            run.world
                .holdings(Owner::Party(PartyId(2)))
                .balance(&"coin".into()),
            101
        );
    }

    #[test]
    fn explicit_abort_vote_aborts_everywhere() {
        let configs = vec![PartyConfig::deviating(PartyId(2), Deviation::VoteAbort)];
        let run = run_broker(
            &configs,
            &CbcOptions::default(),
            NetworkModel::synchronous(100),
            3,
        );
        assert!(run.outcome.aborted_everywhere());
    }

    #[test]
    fn commits_even_before_gst_under_eventual_synchrony() {
        // Pre-GST delays are long but the CBC protocol does not rely on
        // timeouts for safety: with all parties compliant the deal commits.
        let network = NetworkModel::eventually_synchronous(1_000_000, 100, 5_000);
        let run = run_broker(&[], &CbcOptions::default(), network, 4);
        assert!(run.outcome.committed_everywhere());
    }

    #[test]
    fn block_proof_path_costs_more_gas_than_certificates() {
        let run_cert = run_broker(
            &[],
            &CbcOptions::default(),
            NetworkModel::synchronous(100),
            5,
        );
        let opts = CbcOptions {
            use_block_proofs: true,
            ..CbcOptions::default()
        };
        let run_proof = run_broker(&[], &opts, NetworkModel::synchronous(100), 5);
        let cert_sigs = run_cert
            .outcome
            .metrics
            .gas(Phase::Commit)
            .sig_verifications;
        let proof_sigs = run_proof
            .outcome
            .metrics
            .gas(Phase::Commit)
            .sig_verifications;
        assert!(
            proof_sigs > cert_sigs,
            "{proof_sigs} should exceed {cert_sigs}"
        );
        assert!(run_proof.outcome.committed_everywhere());
    }

    #[test]
    fn censorship_delays_but_does_not_steal() {
        // The CBC censors Bob: his commit vote never lands, so the deal aborts
        // (liveness lost) but both escrows refund (safety preserved).
        let opts = CbcOptions {
            censored_parties: vec![PartyId(1)],
            ..CbcOptions::default()
        };
        let run = run_broker(&[], &opts, NetworkModel::synchronous(100), 6);
        assert!(run.outcome.aborted_everywhere());
        assert!(run
            .world
            .holdings(Owner::Party(PartyId(1)))
            .contains(&Asset::non_fungible("ticket", [1, 2])));
        assert_eq!(
            run.world
                .holdings(Owner::Party(PartyId(2)))
                .balance(&"coin".into()),
            101
        );
    }

    #[test]
    fn commit_duration_is_constant_in_party_count() {
        // Figure 7: the CBC commit phase is O(1)·∆ — votes in parallel plus a
        // constant number of observation delays — regardless of n.
        use crate::builders::ring_spec;
        use xchain_sim::ids::DealId;
        let mut durations = Vec::new();
        for n in [3u32, 6, 9] {
            let run = Deal::new(ring_spec(DealId(n as u64), n))
                .network(NetworkModel::synchronous(100))
                .seed(7)
                .run(Protocol::cbc())
                .unwrap();
            assert!(run.outcome.committed_everywhere());
            durations.push(
                run.outcome
                    .metrics
                    .duration(Phase::Commit)
                    .in_units_of(Duration(100)),
            );
        }
        for d in &durations {
            assert!(
                *d <= 3.0 + 1e-9,
                "CBC commit should be O(1) deltas, got {d}"
            );
        }
    }
}
