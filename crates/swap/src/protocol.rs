//! The two-party atomic swap protocol over HTLCs: who swaps what, where.
//!
//! The leader picks a secret and publishes an HTLC on its chain with the
//! longer timeout; the follower publishes a matching HTLC locked under the
//! same hash with a shorter timeout; the leader claims the follower's asset
//! (revealing the secret), which lets the follower claim the leader's asset.
//! [`crate::engine::SwapEngine`] drives these steps.

use xchain_sim::asset::Asset;
use xchain_sim::ids::{ChainId, PartyId};

/// A two-party swap: `leader` gives `leader_asset` (on `leader_chain`) for
/// `follower_asset` (on `follower_chain`) owned by `follower`.
#[derive(Debug, Clone)]
pub struct SwapSpec {
    /// The party that generates the secret.
    pub leader: PartyId,
    /// Its counterparty.
    pub follower: PartyId,
    /// The chain of the leader's outgoing asset.
    pub leader_chain: ChainId,
    /// The leader's outgoing asset.
    pub leader_asset: Asset,
    /// The chain of the follower's outgoing asset.
    pub follower_chain: ChainId,
    /// The follower's outgoing asset.
    pub follower_asset: Asset,
}
