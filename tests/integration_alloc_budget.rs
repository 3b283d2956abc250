//! Allocation budget for the nine-party ring: a counting global allocator
//! pins how many heap allocations one `Deal::run_planned` call may make under
//! the timelock and CBC protocols, and the timelock commit phase's gas
//! counters pin the work the paper's cost model charges for it.
//!
//! Allocation counts are exact for a given code path (the simulation is
//! deterministic), so a change that adds per-vote or per-log-entry heap work
//! fails here. Counters are per thread because the test harness runs tests
//! on several threads of one process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xchain_deals::builders::ring_spec;
use xchain_deals::engine::Protocol;
use xchain_deals::phases::Phase;
use xchain_deals::Deal;
use xchain_sim::ids::DealId;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; counting
// touches only a const-initialised thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
    assert!(
        allocs <= 485,
        "ring9 timelock deal made {allocs} allocations"
    );
}

#[test]
fn ring9_cbc_deal_stays_within_its_allocation_budget() {
    let allocs = ring9_allocs(Protocol::cbc);
    assert!(allocs <= 452, "ring9 CBC deal made {allocs} allocations");
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
