//! # xchain-swap
//!
//! Baseline: hashed-timelock atomic cross-chain swaps (Section 8 of the paper,
//! after Herlihy, PODC 2018). In a swap "each party transfers an asset
//! directly to another party and halts"; the paper's point is that deals are
//! strictly more expressive — the ticket-brokering example and the auction
//! cannot be expressed as swaps because Alice starts with nothing to swap.
//!
//! The crate provides a hashed-timelock contract ([`htlc::HtlcContract`]),
//! the two-party swap description ([`protocol::SwapSpec`]), the
//! expressiveness check used by the comparison experiment
//! ([`limits::expressible_as_swap`]), and the [`engine::SwapEngine`], which
//! implements `xchain_deals`'s `DealEngine` trait so the HTLC swap plugs into
//! the same `Deal` builder and sweeps as the timelock and CBC commit
//! protocols.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod htlc;
pub mod limits;
pub mod protocol;

pub use engine::SwapEngine;
pub use htlc::{HtlcContract, HtlcState};
pub use limits::expressible_as_swap;
pub use protocol::SwapSpec;
