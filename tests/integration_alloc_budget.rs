//! Allocation budgets: a counting global allocator pins how many heap
//! allocations one nine-party ring `Deal::run_planned` call makes under the
//! timelock and CBC protocols, how many planning a deal and building a
//! ring9 world make, how many the property checks may make on an outcome
//! and how many an observation with nothing new to read may make, and the
//! timelock commit phase's gas counters pin the work the paper's cost model
//! charges for it. A live-bytes counter bounds what a finished sweep keeps
//! per cell.
//!
//! Allocation counts are exact for a given code path (the simulation is
//! deterministic), so a change that adds per-vote or per-log-entry heap work
//! fails here. Counters are per thread because the test harness runs tests
//! on several threads of one process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xchain_deals::builders::{broker_spec, ring_spec};
use xchain_deals::engine::Protocol;
use xchain_deals::phases::Phase;
use xchain_deals::properties::{
    check_conservation, check_safety, check_strong_liveness, check_weak_liveness,
};
use xchain_deals::spec::DealSpec;
use xchain_deals::strategy::ObservationHub;
use xchain_deals::{setup, Deal};
use xchain_harness::adversary::strategy_scenarios;
use xchain_harness::experiments::two_party_deal;
use xchain_harness::sweep::{standard_engines, Sweep};
use xchain_harness::workload::{random_well_formed_deal, RandomDealParams};
use xchain_sim::ids::DealId;
use xchain_sim::network::NetworkModel;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation and `grown` more live bytes (negative on frees).
fn count(allocs: u64, grown: i64) {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + allocs));
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + grown));
}

// SAFETY: every call forwards to the system allocator unchanged; counting
// touches only const-initialised thread-local `Cell`s, which never
// allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Heap allocations made by `f` on the calling thread.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocs_on_this_thread();
    let result = f();
    (allocs_on_this_thread() - before, result)
}

/// Heap bytes that `f` allocated on the calling thread and had not freed
/// when it returned (what its result keeps alive, with its own
/// bookkeeping).
fn retained_bytes<R>(f: impl FnOnce() -> R) -> (i64, R) {
    let live = || LIVE_BYTES.with(Cell::get);
    let before = live();
    let result = f();
    (live() - before, result)
}

const SEEDS: [u64; 3] = [1, 7, 4242];

/// Allocations of one planned ring9 deal (world set-up plus execution),
/// checked on several world seeds; the counts must not depend on the seed.
fn ring9_allocs(protocol: impl Fn() -> Protocol) -> u64 {
    let deal = Deal::new(ring_spec(DealId(9), 9));
    let plan = deal.plan().unwrap();
    // Warm up once so lazily initialised statics are not counted.
    deal.clone().seed(0).run_planned(&plan, protocol()).unwrap();
    let counts: Vec<u64> = SEEDS
        .iter()
        .map(|&seed| {
            let session = deal.clone().seed(seed);
            let (n, run) = count_allocs(|| session.run_planned(&plan, protocol()).unwrap());
            assert!(run.outcome.committed_everywhere());
            n
        })
        .collect();
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    counts[0]
}

#[test]
fn ring9_timelock_deal_stays_within_its_allocation_budget() {
    let allocs = ring9_allocs(Protocol::timelock);
    assert_eq!(allocs, 197, "ring9 timelock deal made {allocs} allocations");
}

#[test]
fn ring9_cbc_deal_stays_within_its_allocation_budget() {
    let allocs = ring9_allocs(Protocol::cbc);
    assert_eq!(allocs, 212, "ring9 CBC deal made {allocs} allocations");
}

/// Allocations of resolving `spec`'s plan in a new session, checked on
/// several sessions: the count must not depend on which one.
fn plan_allocs(spec: &DealSpec) -> u64 {
    // Warm up once so lazily initialised statics are not counted.
    Deal::new(spec.clone()).plan().unwrap();
    let counts: Vec<u64> = (0..3)
        .map(|_| {
            let session = Deal::new(spec.clone());
            count_allocs(|| session.plan().unwrap()).0
        })
        .collect();
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    counts[0]
}

/// Planning the broker deal of Figure 1 (non-fungible tickets, a forwarded
/// asset on each chain).
#[test]
fn planning_the_broker_deal_makes_exactly_its_budgeted_allocations() {
    let allocs = plan_allocs(&broker_spec());
    assert_eq!(
        allocs, 40,
        "planning the broker deal made {allocs} allocations"
    );
}

/// Planning a deal of the deal benchmark's `market_mix` shape: five
/// parties, a ring of fungible assets and two extra forwarding hops.
#[test]
fn planning_a_random_deal_makes_exactly_its_budgeted_allocations() {
    let params = RandomDealParams {
        parties: 5,
        extra_transfers: 2,
        amount: 100,
    };
    let allocs = plan_allocs(&random_well_formed_deal(DealId(3), &params, 11));
    assert_eq!(
        allocs, 43,
        "planning a random deal made {allocs} allocations"
    );
}

/// Building the world a ring9 plan runs in: nine chains sharing the plan's
/// kind names, nine parties with their keys, nine minted escrow assets.
#[test]
fn a_ring9_world_makes_exactly_its_budgeted_allocations() {
    let plan = Deal::new(ring_spec(DealId(9), 9)).plan().unwrap();
    let network = NetworkModel::synchronous(100);
    // Warm up once so lazily initialised statics are not counted.
    drop(setup::world_for_plan(&plan, network, 0).unwrap());
    let counts: Vec<u64> = SEEDS
        .iter()
        .map(|&seed| count_allocs(|| setup::world_for_plan(&plan, network, seed).unwrap()).0)
        .collect();
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    assert_eq!(
        counts[0], 16,
        "a ring9 world made {} allocations",
        counts[0]
    );
}

/// The four property checks read the outcome by reference: on a committed
/// (violation-free) ring9 outcome they allocate nothing at all.
#[test]
fn property_checks_on_a_committed_ring9_outcome_allocate_nothing() {
    let deal = Deal::new(ring_spec(DealId(9), 9)).seed(1);
    for protocol in [Protocol::timelock(), Protocol::cbc()] {
        let run = deal.run(protocol).unwrap();
        assert!(run.outcome.committed_everywhere());
        let (spec, outcome) = (deal.spec(), &run.outcome);
        let (allocs, holds) = count_allocs(|| {
            check_safety(spec, &[], outcome).holds()
                && check_conservation(spec, outcome)
                && check_weak_liveness(spec, &[], outcome)
                && check_strong_liveness(spec, &[], outcome)
        });
        assert!(holds);
        assert_eq!(allocs, 0, "the property checks made {allocs} allocations");
    }
}

/// Once every party's view has caught up with a finished ring9 deal's logs,
/// an observation finds no new entries on any chain and allocates nothing.
#[test]
fn an_observation_with_no_new_log_entries_allocates_nothing() {
    let deal = Deal::new(ring_spec(DealId(9), 9)).seed(1);
    let plan = deal.plan().unwrap();
    let run = deal.run(Protocol::timelock()).unwrap();
    assert!(run.outcome.committed_everywhere());
    let world = run.world;
    let spec = deal.spec();
    let mut hub = ObservationHub::new(&plan).expect_votes_per_chain(spec.n_parties());
    for &p in &spec.parties {
        let ctx = hub.ctx(&world, spec, p, Phase::Commit, Some(true));
        assert_eq!(ctx.view.commit_votes.len(), spec.n_parties());
    }
    let (allocs, votes) = count_allocs(|| {
        spec.parties
            .iter()
            .map(|&p| {
                hub.ctx(&world, spec, p, Phase::Commit, Some(true))
                    .view
                    .commit_votes
                    .len()
            })
            .sum::<usize>()
    });
    assert_eq!(votes, spec.n_parties() * spec.n_parties());
    assert_eq!(allocs, 0, "idle observations made {allocs} allocations");
}

/// A finished sweep keeps each cell's outcome, contracts and protocol
/// evidence, not the world the cell ran in. The adversarial sweep of the
/// deal benchmark (three specs, three engines, two networks, every strategy
/// scenario) retains about 6 KB per cell; a point that held its world again
/// would retain about three times that.
#[test]
fn a_finished_sweep_retains_no_worlds() {
    let sweep = Sweep::new()
        .spec("broker", broker_spec())
        .spec("ring n=4", ring_spec(DealId(4), 4))
        .spec("two-party swap", two_party_deal())
        .over_protocols(standard_engines(100))
        .over_networks(vec![
            ("synchronous".into(), NetworkModel::synchronous(100)),
            (
                "eventually synchronous".into(),
                NetworkModel::eventually_synchronous(500, 100, 1_000),
            ),
        ])
        .over_adversaries(|spec| strategy_scenarios(spec, 100))
        .seed(1)
        .threads(1);
    // Warm up once so lazily initialised statics are not counted.
    drop(sweep.run().unwrap());
    let (bytes, outcome) = retained_bytes(|| sweep.run().unwrap());
    let per_cell = bytes / outcome.points.len() as i64;
    assert!(outcome.points.len() > 500);
    assert!(
        per_cell <= 8_000,
        "a finished sweep retains {per_cell} bytes per cell"
    );
}

#[test]
fn ring9_timelock_commit_does_the_papers_work_and_no_more() {
    let run = Deal::new(ring_spec(DealId(9), 9))
        .seed(1)
        .run(Protocol::timelock())
        .unwrap();
    let commit = run.outcome.metrics.gas(Phase::Commit);
    // 9 direct votes plus 72 forwards; a vote forwarded k times carries
    // k + 1 signatures, for 405 verifications in all.
    assert_eq!(commit.calls, 81);
    assert_eq!(commit.sig_verifications, 405);
    // One entry per accepted vote, plus one release per chain.
    assert_eq!(commit.log_entries, 90);
    assert_eq!(commit.storage_writes, 108);
}
