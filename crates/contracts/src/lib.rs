//! # xchain-contracts
//!
//! The on-chain programs used by cross-chain deals, implemented against the
//! `xchain-sim` contract runtime:
//!
//! * [`escrow`] — the generic escrow manager implementing the Section 4
//!   escrow / tentative-transfer semantics (the C and A ownership maps).
//! * [`timelock`] — the timelock escrow manager of Section 5 / Figure 5:
//!   path-signature commit votes with `|p| · ∆` timeouts.
//! * [`cbc_manager`] — the CBC escrow manager of Section 6 / Figure 6:
//!   resolution by validator status certificates or block-range proofs.
//! * [`token`] / [`ticket`] — issuance contracts for the fungible coins and
//!   non-fungible tickets used by the paper's running example.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cbc_manager;
pub mod escrow;
pub mod ticket;
pub mod timelock;
pub mod token;

pub use cbc_manager::{CbcDealInfo, CbcManager};
pub use escrow::{DealEscrow, EscrowCore, EscrowDeposit, EscrowManager, EscrowResolution};
pub use ticket::{Seat, TicketRegistry};
pub use timelock::{TimelockDealInfo, TimelockManager};
pub use token::TokenContract;
