//! Host-speed calibration.
//!
//! The host's speed drifts by up to 2× within seconds (co-tenants share its
//! caches and memory, and there are no hardware counters to count
//! instructions instead). The benchmark therefore times a fixed calibration
//! kernel between passes and converts every time it measures into
//! *nominal-host* time: the time the work would have taken on a host that
//! runs the kernel in [`NOMINAL_S`] seconds.
//!
//! The kernel is the benchmark's own code and uses only the standard
//! library, so no change to the program under test can change it. It mixes
//! what a deal does — short-string keys in a `BTreeMap`, small `Vec`s that
//! grow and clear, FNV hashing — because a kernel of a different kind slows
//! by a different amount: a pure arithmetic loop barely slows while deals
//! slow 2×, and normalising by it left 20–40% of the run-to-run spread.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one kernel run takes on the reference host when nothing else
/// runs on it (a 2-vCPU Xeon guest; the fastest kernel runs seen there).
pub const NOMINAL_S: f64 = 0.0015;

/// Iterations of the kernel's loop.
const ROUNDS: u64 = 6_000;

/// The calibration kernel: a fixed amount of deal-like work.
fn kernel() -> u64 {
    let mut book: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut x = 11u64;
    let mut acc = 0u64;
    for i in 0..ROUNDS {
        x = mix(x);
        let entry = book.entry(format!("asset-{}", x % 700)).or_default();
        entry.push(i);
        if entry.len() > 6 {
            entry.clear();
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &word in entry.iter() {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        acc ^= h;
    }
    acc ^ book.len() as u64
}

/// SplitMix64 step.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Mean seconds of one kernel run on each of `threads` threads at once
/// (a workload on two workers is slowed by what shares either core).
fn measure(threads: usize) -> f64 {
    let timed = || {
        let start = Instant::now();
        black_box(kernel());
        start.elapsed().as_secs_f64()
    };
    if threads <= 1 {
        return timed();
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(timed)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread panicked"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// Follows the host's speed from one measurement to the next.
pub struct HostSpeed {
    threads: usize,
    last: f64,
}

impl HostSpeed {
    /// Starts following with a first kernel measurement.
    pub fn new(threads: usize) -> Self {
        HostSpeed {
            threads,
            last: measure(threads),
        }
    }

    /// Measures the kernel again and returns the factor that converts
    /// seconds measured since the previous measurement into nominal-host
    /// seconds (the kernel time is taken as the mean of the two ends).
    pub fn scale(&mut self) -> f64 {
        let now = measure(self.threads);
        let scale = NOMINAL_S / ((self.last + now) / 2.0);
        self.last = now;
        scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn scales_are_positive_and_finite() {
        let mut speed = HostSpeed::new(2);
        let s = speed.scale();
        assert!(s.is_finite() && s > 0.0);
    }
}
