//! A counting global allocator that keeps its counters per thread.
//!
//! Every allocation, reallocation and free is forwarded to the system
//! allocator and counted. With shared atomic counters every allocation of
//! concurrent threads would contend for one cache line, so each thread owns
//! a cache-line-sized slot in a static table and updates it with plain loads
//! and stores: only the owner writes a slot, so no read-modify-write is
//! needed. Totals are summed over the slots at workload
//! boundaries ([`totals`]), after the workers of a sweep have joined.
//!
//! Slots are never recycled (a thread's last frees can land after its join),
//! so a dead thread's counts stay readable. Threads beyond [`SLOTS`] share one
//! overflow slot updated with atomic adds: still exact, only slower.
//!
//! The slot index lives in a `const`-initialised thread-local without a
//! destructor, the only kind of thread-local a global allocator may use.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::AddAssign;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Threads that get a slot of their own.
const SLOTS: usize = 1 << 15;
/// Index of the shared slot used by threads beyond [`SLOTS`].
const OVERFLOW: usize = SLOTS;
const UNCLAIMED: usize = usize::MAX;

/// Heap traffic counted so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes requested by those calls (`realloc` counts its new size).
    pub bytes: u64,
    /// Bytes released (`dealloc`, and the old size of every `realloc`).
    pub freed: u64,
}

impl Counts {
    /// Counts accumulated between `self` and the later snapshot `later`.
    pub fn delta_to(&self, later: &Counts) -> Counts {
        Counts {
            allocs: later.allocs - self.allocs,
            bytes: later.bytes - self.bytes,
            freed: later.freed - self.freed,
        }
    }

    /// Bytes still live, as far as these counts can tell.
    pub fn live(&self) -> i64 {
        self.bytes as i64 - self.freed as i64
    }
}

impl AddAssign for Counts {
    fn add_assign(&mut self, other: Counts) {
        self.allocs += other.allocs;
        self.bytes += other.bytes;
        self.freed += other.freed;
    }
}

#[repr(align(64))]
struct Slot {
    allocs: AtomicU64,
    bytes: AtomicU64,
    freed: AtomicU64,
}

impl Slot {
    const fn new() -> Self {
        Slot {
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            freed: AtomicU64::new(0),
        }
    }

    fn read(&self) -> Counts {
        Counts {
            allocs: self.allocs.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
            freed: self.freed.load(Relaxed),
        }
    }
}

static TABLE: [Slot; SLOTS + 1] = [const { Slot::new() }; SLOTS + 1];
static CLAIMED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SLOT: Cell<usize> = const { Cell::new(UNCLAIMED) };
}

/// The calling thread's slot index, claiming one on first use.
fn my_slot() -> usize {
    MY_SLOT
        .try_with(|s| {
            if s.get() == UNCLAIMED {
                s.set(CLAIMED.fetch_add(1, Relaxed).min(OVERFLOW));
            }
            s.get()
        })
        .unwrap_or(OVERFLOW)
}

/// Adds to a counter of the calling thread's slot: a plain load and store on
/// an owned slot, an atomic add on the shared overflow slot.
#[inline]
fn bump(ix: usize, field: impl Fn(&Slot) -> &AtomicU64, by: u64) {
    let counter = field(&TABLE[ix]);
    if ix == OVERFLOW {
        counter.fetch_add(by, Relaxed);
    } else {
        counter.store(counter.load(Relaxed) + by, Relaxed);
    }
}

/// The counting allocator; install it with `#[global_allocator]`.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adds counter updates, which neither allocate nor touch
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ix = my_slot();
        bump(ix, |s| &s.allocs, 1);
        bump(ix, |s| &s.bytes, layout.size() as u64);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ix = my_slot();
        bump(ix, |s| &s.allocs, 1);
        bump(ix, |s| &s.bytes, layout.size() as u64);
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(my_slot(), |s| &s.freed, layout.size() as u64);
        // SAFETY: forwarded unchanged; `ptr` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let ix = my_slot();
        bump(ix, |s| &s.allocs, 1);
        bump(ix, |s| &s.bytes, new_size as u64);
        bump(ix, |s| &s.freed, layout.size() as u64);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// The calling thread's slot index: distinct for threads that run at the
/// same time (until [`SLOTS`] threads have claimed one).
pub fn thread_slot() -> usize {
    my_slot()
}

/// The calling thread's counts so far (exact: no other thread writes them).
pub fn thread_counts() -> Counts {
    TABLE[my_slot()].read()
}

/// The counts of every thread so far. Exact once the other threads that
/// allocated have finished; a thread still running, or one whose last frees
/// land just after its join, may count more later.
pub fn totals() -> Counts {
    let used = CLAIMED.load(Relaxed).min(SLOTS);
    TABLE[..used]
        .iter()
        .chain(std::iter::once(&TABLE[OVERFLOW]))
        .map(Slot::read)
        .fold(Counts::default(), |mut acc, c| {
            acc += c;
            acc
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations_exactly() {
        let before = thread_counts();
        let v: Vec<u64> = Vec::with_capacity(16);
        let mid = thread_counts();
        drop(v);
        let after = thread_counts();
        let grew = before.delta_to(&mid);
        assert_eq!((grew.allocs, grew.bytes), (1, 128));
        assert_eq!(mid.delta_to(&after).freed, 128);
    }

    #[test]
    fn totals_include_joined_threads() {
        let before = totals();
        std::thread::spawn(|| {
            let v: Vec<u8> = Vec::with_capacity(1000);
            drop(v);
        })
        .join()
        .expect("worker joins");
        let grew = before.delta_to(&totals());
        assert!(grew.allocs >= 1);
        assert!(grew.bytes >= 1000);
    }
}
