//! The outcome digest: an FNV hash over everything a deal's outcome pins —
//! per-chain resolutions, final holdings, per-phase gas and simulated
//! durations. Two runs that do the same work produce the same digest.

use xchain_deals::outcome::{ChainResolution, DealOutcome};
use xchain_deals::phases::Phase;
use xchain_sim::crypto::FnvHasher;

/// Folds one outcome into `h`.
pub fn fold_outcome(h: &mut FnvHasher, outcome: &DealOutcome) {
    for (chain, resolution) in &outcome.resolutions {
        h.write_u64(u64::from(chain.0));
        h.write_u8(match resolution {
            ChainResolution::Committed => 1,
            ChainResolution::Aborted => 2,
            ChainResolution::Unresolved => 3,
        });
    }
    for (party, bag) in &outcome.final_holdings {
        h.write_u64(u64::from(party.0));
        for (kind, amount) in bag.fungible_holdings() {
            write_str(h, &kind.0);
            h.write_u64(amount);
        }
        for (kind, tokens) in bag.non_fungible_holdings() {
            write_str(h, &kind.0);
            h.write_u64(tokens.len() as u64);
            for token in tokens {
                h.write_u64(token.0);
            }
        }
    }
    for phase in Phase::ALL {
        let gas = outcome.metrics.gas(phase);
        for count in [
            gas.storage_writes,
            gas.storage_reads,
            gas.sig_verifications,
            gas.log_entries,
            gas.compute_steps,
            gas.calls,
        ] {
            h.write_u64(count);
        }
        h.write_u64(outcome.metrics.duration(phase).0);
    }
}

/// A length-prefixed string, so adjacent fields cannot run together.
fn write_str(h: &mut FnvHasher, s: &str) {
    h.write_u64(s.len() as u64);
    h.write(s.as_bytes());
}
