//! The timelock commit protocol engine (Section 5).
//!
//! This module drives a complete deal execution over the simulated world:
//! clearing, the escrow, tentative-transfer and validation phases every deal
//! shares (run by the crate's phase driver), and the vote / vote-forwarding
//! commit phase with path-signature timeouts. The engine executes from a
//! pre-resolved [`DealPlan`] (interned assets, fixed transfer order,
//! per-party chain tables), so no kind-name `String` is looked up after
//! planning. Party behaviour is controlled by each [`PartyConfig`]'s
//! [`crate::strategy::Strategy`]: at every decision point the engine consults
//! the deal's shared [`ObservationHub`] (one label-filtered log ingest pass
//! per chain, fanned out to every party's view) and asks the strategy, so
//! both the all-compliant executions of Theorem 5.3 and arbitrary adversarial
//! executions (Theorem 5.1) are produced by the same engine.

use std::collections::BTreeMap;

use xchain_contracts::timelock::{TimelockDealInfo, TimelockManager};
use xchain_sim::crypto::{KeyPair, PathSig, Signature};
use xchain_sim::ids::{ChainId, ContractId, Owner, PartyId};
use xchain_sim::time::{Duration, Time};
use xchain_sim::world::World;

use crate::driver::{self, Session};
use crate::engine::{EngineRun, ProtocolExt};
use crate::error::DealError;
use crate::outcome::ProtocolKind;
use crate::party::PartyConfig;
use crate::phases::{Phase, PhaseClock};
use crate::plan::DealPlan;
use crate::setup::{self, advance_one_observation};
use crate::strategy::{ObservationHub, Vote};

/// Tunable options for the timelock protocol engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelockOptions {
    /// The synchrony bound ∆ used for all timeouts.
    pub delta: Duration,
    /// If true, parties altruistically send their commit votes to every
    /// escrow contract instead of only their incoming-asset chains; the
    /// commit phase then completes in O(1)·∆ instead of O(n)·∆ (Section 7.2).
    pub altruistic_broadcast: bool,
    /// If true, independent tentative transfers are submitted concurrently
    /// (transfer phase ≈ ∆); otherwise they are performed sequentially
    /// (transfer phase ≈ t·∆), matching the two columns of Figure 7.
    pub concurrent_transfers: bool,
}

impl Default for TimelockOptions {
    fn default() -> Self {
        TimelockOptions {
            delta: Duration(100),
            altruistic_broadcast: false,
            concurrent_transfers: false,
        }
    }
}

/// A commit vote accepted by some chain's contract, tracked engine-side so
/// other parties can observe and forward it. Its path signature is a span of
/// the board's path arena, shared by every chain the same forward reached.
#[derive(Debug, Clone, Copy)]
struct PublishedVote {
    /// Position of the chain in `plan.chains()`.
    chain_ix: u32,
    /// Position of the voter in `plan.parties()`.
    voter_ix: u32,
    path: PathSpan,
    published_at: Time,
}

/// Where one path signature lives in the board's path arena.
#[derive(Debug, Clone, Copy)]
struct PathSpan {
    start: u32,
    len: u32,
}

/// The end of a watch list.
const NIL: u32 = u32::MAX;

/// The commit phase's bookkeeping, sized by the votes the protocol actually
/// produces. Nothing here allocates before the first vote is signed, and
/// each table allocates once, at a size the plan bounds.
///
/// - `accepted` mirrors which chain's contract accepted which voter, so
///   duplicate checks never re-read a contract.
/// - `sigs` is the path arena: every path signature of the deal, back to
///   back. A direct vote is one signature; a forward copies its source path
///   and appends the forwarder's.
/// - `published` lists accepted votes in publication order.
/// - Each party's watch list links, in publication order, the published
///   votes on the chains it watches (its outgoing-asset chains), so a
///   forwarding round visits exactly those.
///
/// Indices are `u32`: a table past `u32::MAX` entries would hold over
/// 4 G signatures or votes, far more than memory allows.
#[derive(Default)]
struct VoteBoard {
    accepted: Vec<u64>,
    sigs: Vec<(PartyId, Signature)>,
    published: Vec<PublishedVote>,
    /// Chain → watchers, in one table: word `c` is where chain `c`'s
    /// watchers start (word `c + 1`, where they end), and those words hold
    /// the plan positions of the parties that watch chain `c`.
    watchers: Vec<u32>,
    /// Per party: the first and last entry of its watch list in `links`.
    lists: Vec<(u32, u32)>,
    /// Watch-list entries: a published vote's index and the list's next
    /// entry.
    links: Vec<(u32, u32)>,
}

impl VoteBoard {
    fn accepted_bit(plan: &DealPlan, chain_ix: usize, voter_ix: usize) -> (usize, u64) {
        let i = chain_ix * plan.parties().len() + voter_ix;
        (i / 64, 1 << (i % 64))
    }

    /// True if chain `chain_ix`'s contract has accepted a vote from the
    /// party at `voter_ix`.
    fn is_accepted(&self, plan: &DealPlan, chain_ix: usize, voter_ix: usize) -> bool {
        let (word, mask) = Self::accepted_bit(plan, chain_ix, voter_ix);
        self.accepted.get(word).is_some_and(|w| w & mask != 0)
    }

    /// The party's direct vote: its own signature, the start of a path.
    fn sign_direct(
        &mut self,
        plan: &DealPlan,
        voter: PartyId,
        key: &KeyPair,
        message: &[u64],
    ) -> PathSpan {
        self.reserve_sigs(plan);
        let start = self.sigs.len() as u32;
        self.sigs.push((voter, key.sign_words(message)));
        PathSpan { start, len: 1 }
    }

    /// `forwarder`'s forward of the path `from`: a copy of it with the
    /// forwarder's signature appended.
    fn sign_forward(
        &mut self,
        from: PathSpan,
        forwarder: PartyId,
        key: &KeyPair,
        message: &[u64],
    ) -> PathSpan {
        let start = self.sigs.len() as u32;
        let source = from.start as usize..(from.start + from.len) as usize;
        self.sigs.extend_from_within(source);
        self.sigs.push((forwarder, key.sign_words(message)));
        PathSpan {
            start,
            len: from.len + 1,
        }
    }

    /// The arena's first allocation, on the first signature: room for every
    /// voter's vote to travel around a ring of all the deal's chains, one
    /// signature longer per hop — exactly what a ring deal stores.
    fn reserve_sigs(&mut self, plan: &DealPlan) {
        if self.sigs.capacity() == 0 {
            let n = plan.parties().len();
            self.sigs
                .reserve_exact(plan.chains().len() * n * (n + 1) / 2);
        }
    }

    fn view(&self, voter: PartyId, path: PathSpan) -> PathSig<'_> {
        PathSig {
            voter,
            path: &self.sigs[path.start as usize..(path.start + path.len) as usize],
        }
    }

    /// Records that chain `chain_ix` accepted the vote of the party at
    /// `voter_ix` with `path`, and appends it to the watch list of every
    /// party that watches the chain.
    fn publish(
        &mut self,
        plan: &DealPlan,
        chain_ix: usize,
        voter_ix: usize,
        path: PathSpan,
        at: Time,
    ) {
        if self.published.capacity() == 0 {
            self.allocate_tables(plan);
        }
        let (word, mask) = Self::accepted_bit(plan, chain_ix, voter_ix);
        self.accepted[word] |= mask;
        let vote_ix = self.published.len() as u32;
        self.published.push(PublishedVote {
            chain_ix: chain_ix as u32,
            voter_ix: voter_ix as u32,
            path,
            published_at: at,
        });
        for k in self.watchers[chain_ix]..self.watchers[chain_ix + 1] {
            let watcher = self.watchers[k as usize] as usize;
            let entry = self.links.len() as u32;
            self.links.push((vote_ix, NIL));
            let list = &mut self.lists[watcher];
            if list.1 == NIL {
                list.0 = entry;
            } else {
                self.links[list.1 as usize].1 = entry;
            }
            list.1 = entry;
        }
    }

    /// Allocates the vote tables on the first publication, each at the size
    /// the plan bounds: a chain accepts each voter at most once, so at most
    /// `chains × parties` votes are published, and a vote on chain `c` is
    /// linked into the list of each of `c`'s watchers.
    fn allocate_tables(&mut self, plan: &DealPlan) {
        let (chains, parties) = (plan.chains(), plan.parties());
        let n_watched: usize = parties.iter().map(|pp| pp.outgoing_chains.len()).sum();
        self.accepted = vec![0; (chains.len() * parties.len()).div_ceil(64)];
        self.published.reserve_exact(chains.len() * parties.len());
        self.links.reserve_exact(parties.len() * n_watched);
        self.lists = vec![(NIL, NIL); parties.len()];
        self.watchers.reserve_exact(chains.len() + 1 + n_watched);
        self.watchers.resize(chains.len() + 1, 0);
        for (c, chain) in chains.iter().enumerate() {
            self.watchers[c] = self.watchers.len() as u32;
            for (ix, pp) in parties.iter().enumerate() {
                if pp.outgoing_chains.binary_search(chain).is_ok() {
                    self.watchers.push(ix as u32);
                }
            }
        }
        self.watchers[chains.len()] = self.watchers.len() as u32;
    }

    /// The first entry of the watch list of the party at `ix`.
    fn first_watched(&self, ix: usize) -> u32 {
        self.lists.get(ix).map_or(NIL, |list| list.0)
    }
}

/// The timelock protocol driver behind [`crate::Protocol::Timelock`]: installs
/// the escrow contracts, schedules every party action according to its
/// [`PartyConfig`], and returns the measured outcome plus the per-chain
/// contracts and validation verdicts.
pub(crate) fn drive(
    world: &mut World,
    plan: &DealPlan,
    configs: &[PartyConfig],
    opts: &TimelockOptions,
) -> Result<EngineRun, DealError> {
    let spec = plan.spec();
    let hub = ObservationHub::new(plan).expect_votes_per_chain(plan.parties().len());
    let mut s = Session::begin(world, plan, configs, hub)?;
    // Plan chains are sorted and cover every party's chains, so the lookup
    // cannot miss.
    let index_of_chain = |chain: ChainId| plan.chain_index(chain).expect("a plan chain");

    // ------------------------------------------------------------------
    // Clearing phase: broadcast (D, plist, t0, ∆) and install the escrow
    // contract on every involved chain.
    // ------------------------------------------------------------------
    let clock = PhaseClock::start(Phase::Clearing, world);
    // t0 must be far enough in the future for escrow, transfers and
    // validation to complete (Section 5: "The choice of t0 should be far
    // enough in the future to take into account the time needed to perform
    // the deal's tentative transfers").
    let t0 = world.now() + opts.delta.times(spec.n_transfers() as u64 + 6);
    let info = TimelockDealInfo {
        deal: spec.deal,
        plist: plan.plist().clone(),
        t0,
        delta: opts.delta,
    };
    let contracts = driver::install(world, plan, || TimelockManager::new(info.clone()))?;
    // The same ids by chain position, for the commit phase's hot loops.
    let contract_ids: Vec<ContractId> = contracts.values().copied().collect();
    clock.stop(world, &mut s.metrics);

    // Escrow, tentative transfers and validation: the phases every deal
    // shares.
    let validated = s.escrow_transfer_validate::<TimelockManager>(
        world,
        &contracts,
        &info,
        opts.concurrent_transfers,
    )?;

    // ------------------------------------------------------------------
    // Commit phase: direct votes at t0, then forwarding rounds, then timeout.
    // ------------------------------------------------------------------
    world.advance_to(t0);
    let clock = PhaseClock::start(Phase::Commit, world);
    let mut board = VoteBoard::default();

    // Direct votes: each willing party votes on its incoming-asset chains
    // (or on every chain when broadcasting altruistically).
    for (voter_ix, (pp, cfg)) in plan.parties().iter().zip(&s.cfgs).enumerate() {
        let p = pp.id;
        let verdict = validated.get(&p).copied().unwrap_or(false);
        let votes_commit = {
            let ctx = s.hub.ctx(world, spec, p, Phase::Commit, Some(verdict));
            cfg.strategy.is_online(ctx.now) && cfg.strategy.on_vote(&ctx) == Vote::Commit
        };
        if !votes_commit {
            continue;
        }
        let target_chains: &[ChainId] = if opts.altruistic_broadcast {
            plan.chains()
        } else {
            &pp.incoming_chains
        };
        let message = info.vote_message(p);
        let key = world.key_pair(p).map_err(DealError::Chain)?.clone();
        let path = board.sign_direct(plan, p, &key, &message);
        for &chain in target_chains {
            let chain_ix = index_of_chain(chain);
            let vote = board.view(p, path);
            let result = world.call(
                chain,
                Owner::Party(p),
                contract_ids[chain_ix],
                |m: &mut TimelockManager, ctx| m.commit(ctx, vote),
            );
            if result.is_ok() {
                board.publish(plan, chain_ix, voter_ix, path, world.now());
            }
        }
    }

    // Forwarding rounds: each round, every willing party forwards the votes it
    // observes on its outgoing-asset chains to its incoming-asset chains.
    // Strong connectivity guarantees every vote reaches every contract within
    // n rounds; each round costs at most ∆.
    let n_rounds = spec.n_parties();
    for _round in 0..n_rounds {
        if all_resolved(world, &contracts) {
            break;
        }
        advance_one_observation(world);
        // Votes observable this round are exactly those published in earlier
        // rounds: everything published below carries `published_at == now`
        // and fails the `< round_now` filter, so a prefix of the publication
        // order replaces a snapshot of it.
        let visible = board.published.len() as u32;
        for (forwarder_ix, (pp, cfg)) in plan.parties().iter().zip(&s.cfgs).enumerate() {
            let p = pp.id;
            let verdict = validated.get(&p).copied().unwrap_or(false);
            let forwards = {
                let ctx = s.hub.ctx(world, spec, p, Phase::Commit, Some(verdict));
                cfg.strategy.is_online(ctx.now) && cfg.strategy.on_forward(&ctx)
            };
            if !forwards {
                continue;
            }
            let key = world.key_pair(p).map_err(DealError::Chain)?.clone();
            let round_now = world.now();
            // The party's watch list holds the votes published on its
            // outgoing-asset chains, in publication order; entries appended
            // while it forwards lie past `visible`.
            let mut entry = board.first_watched(forwarder_ix);
            while entry != NIL {
                let (vote_ix, next) = board.links[entry as usize];
                if vote_ix >= visible {
                    break;
                }
                entry = next;
                let seen = board.published[vote_ix as usize];
                if seen.published_at >= round_now {
                    continue;
                }
                let (seen_chain, seen_voter) = (seen.chain_ix as usize, seen.voter_ix as usize);
                let voter = plan.parties()[seen_voter].id;
                // The forwarded signature does not depend on the target
                // chain, so it is built at most once per observed vote — and
                // not at all when every target already accepted the voter
                // (the common case once a vote has circulated).
                let mut forwarded: Option<PathSpan> = None;
                for &target in &pp.incoming_chains {
                    let target_ix = index_of_chain(target);
                    if target_ix == seen_chain || board.is_accepted(plan, target_ix, seen_voter) {
                        continue;
                    }
                    let path = *forwarded.get_or_insert_with(|| {
                        let message = info.vote_message(voter);
                        board.sign_forward(seen.path, p, &key, &message)
                    });
                    let vote = board.view(voter, path);
                    let result = world.call(
                        target,
                        Owner::Party(p),
                        contract_ids[target_ix],
                        |m: &mut TimelockManager, ctx| m.commit(ctx, vote),
                    );
                    if result.is_ok() {
                        board.publish(plan, target_ix, seen_voter, path, world.now());
                    }
                }
            }
        }
    }

    // Timeout: refund any unresolved escrow once t0 + N·∆ has passed.
    if !all_resolved(world, &contracts) {
        world.advance_to(info.refund_time() + Duration(1));
        for (&chain, &contract) in &contracts {
            if driver::resolution::<TimelockManager>(world, chain, contract).is_some() {
                continue;
            }
            if let Some(caller) = setup::pick_online_party(world, spec, configs) {
                let _ = world.call(
                    chain,
                    Owner::Party(caller),
                    contract,
                    |m: &mut TimelockManager, ctx| m.claim_timeout(ctx),
                );
            }
        }
    }
    clock.stop(world, &mut s.metrics);

    let ext = ProtocolExt::Timelock { validated };
    Ok(s.finish::<TimelockManager>(world, ProtocolKind::Timelock, opts.delta, contracts, ext))
}

/// True if every escrow contract has resolved (committed or refunded).
fn all_resolved(world: &World, contracts: &BTreeMap<ChainId, ContractId>) -> bool {
    contracts.iter().all(|(&chain, &contract)| {
        driver::resolution::<TimelockManager>(world, chain, contract).is_some()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::broker_spec;
    use crate::deal::{Deal, DealRun};
    use crate::engine::Protocol;
    use crate::spec::DealSpec;
    use crate::strategy::strategies;
    use xchain_sim::asset::Asset;
    use xchain_sim::network::NetworkModel;

    fn run_broker(
        configs: &[PartyConfig],
        opts: &TimelockOptions,
        seed: u64,
    ) -> (DealRun, DealSpec) {
        let spec = broker_spec();
        let run = Deal::new(spec.clone())
            .network(NetworkModel::synchronous(opts.delta.ticks()))
            .parties(configs)
            .seed(seed)
            .run(Protocol::Timelock(*opts))
            .unwrap();
        (run, spec)
    }

    #[test]
    fn all_compliant_broker_deal_commits_everywhere() {
        let (run, spec) = run_broker(&[], &TimelockOptions::default(), 1);
        assert!(run.outcome.committed_everywhere());
        // Carol ends with the tickets, Bob with 100 coins, Alice with 1 coin.
        let alice = spec.parties[0];
        let bob = spec.parties[1];
        let carol = spec.parties[2];
        assert!(run
            .world
            .holdings(Owner::Party(carol))
            .contains(&Asset::non_fungible("ticket", [1, 2])));
        assert_eq!(
            run.world
                .holdings(Owner::Party(bob))
                .balance(&"coin".into()),
            100
        );
        assert_eq!(
            run.world
                .holdings(Owner::Party(alice))
                .balance(&"coin".into()),
            1
        );
    }

    #[test]
    fn withheld_vote_times_out_and_refunds() {
        let configs = vec![PartyConfig::with_strategy(
            PartyId(2),
            strategies::withhold_vote(),
        )];
        let (run, spec) = run_broker(&configs, &TimelockOptions::default(), 2);
        assert!(run.outcome.aborted_everywhere());
        let bob = spec.parties[1];
        let carol = spec.parties[2];
        // Original owners got their escrows back.
        assert!(run
            .world
            .holdings(Owner::Party(bob))
            .contains(&Asset::non_fungible("ticket", [1, 2])));
        assert_eq!(
            run.world
                .holdings(Owner::Party(carol))
                .balance(&"coin".into()),
            101
        );
    }

    #[test]
    fn crash_before_escrow_leaves_no_compliant_party_worse_off() {
        let configs = vec![PartyConfig::with_strategy(
            PartyId(1),
            strategies::refuse_escrow(),
        )];
        let (run, spec) = run_broker(&configs, &TimelockOptions::default(), 3);
        // Bob never escrowed his tickets, so validation fails for Carol/Alice
        // and the deal aborts everywhere.
        assert!(!run.outcome.committed_everywhere());
        assert!(run.outcome.fully_resolved());
        let carol = spec.parties[2];
        assert_eq!(
            run.world
                .holdings(Owner::Party(carol))
                .balance(&"coin".into()),
            101
        );
    }

    #[test]
    fn altruistic_broadcast_still_commits() {
        let opts = TimelockOptions {
            altruistic_broadcast: true,
            ..TimelockOptions::default()
        };
        let (run, _) = run_broker(&[], &opts, 4);
        assert!(run.outcome.committed_everywhere());
        // Broadcast should not need forwarding rounds: commit duration is a
        // small constant number of ∆.
        let commit = run.outcome.metrics.duration(Phase::Commit);
        assert!(commit.in_units_of(run.outcome.delta) <= 2.0 + 1e-9);
    }

    #[test]
    fn metrics_capture_gas_and_time_per_phase() {
        let (run, spec) = run_broker(&[], &TimelockOptions::default(), 5);
        let m = &run.outcome.metrics;
        // Escrow: 4 writes per escrowed asset (Figure 3).
        assert_eq!(
            m.gas(Phase::Escrow).storage_writes,
            4 * spec.n_assets() as u64
        );
        // Transfer: 2 writes per tentative transfer.
        assert_eq!(
            m.gas(Phase::Transfer).storage_writes,
            2 * spec.n_transfers() as u64
        );
        // Validation costs no gas.
        assert_eq!(m.gas(Phase::Validation).total(), 0);
        // Commit performs signature verifications.
        assert!(m.gas(Phase::Commit).sig_verifications > 0);
        assert!(m.duration(Phase::Commit) > Duration(0));
    }

    #[test]
    fn validated_map_is_carried_in_the_extension() {
        let (run, spec) = run_broker(&[], &TimelockOptions::default(), 6);
        let validated = run.ext.validated().unwrap();
        assert!(spec.parties.iter().all(|p| validated[p]));
    }

    #[test]
    fn deterministic_given_seed() {
        let (run_a, _) = run_broker(&[], &TimelockOptions::default(), 9);
        let (run_b, _) = run_broker(&[], &TimelockOptions::default(), 9);
        assert_eq!(
            run_a.outcome.metrics.total_gas(),
            run_b.outcome.metrics.total_gas()
        );
        assert_eq!(
            run_a.outcome.metrics.total_duration(),
            run_b.outcome.metrics.total_duration()
        );
    }
}
