//! A hashed-timelock contract (HTLC): the building block of atomic swaps and
//! off-chain payment networks (Section 8).
//!
//! The depositor escrows an asset locked under the hash of a secret. Whoever
//! presents the preimage before the timeout receives the asset; after the
//! timeout the depositor can reclaim it.

use std::any::Any;

use xchain_sim::asset::Asset;
use xchain_sim::contract::{CallCtx, Contract};
use xchain_sim::crypto::{FnvHasher, Hash};
use xchain_sim::error::ChainResult;
use xchain_sim::ids::PartyId;
use xchain_sim::intern::InternedAsset;
use xchain_sim::time::Time;

/// The lifecycle state of an HTLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HtlcState {
    /// Waiting for a deposit.
    Created,
    /// Funded and locked under the hashlock.
    Funded,
    /// The counterparty claimed the asset with the preimage.
    Claimed,
    /// The depositor reclaimed the asset after the timeout.
    Refunded,
}

/// A hashed-timelock escrow for a single asset. The locked asset is stored
/// interned, so claim and refund payouts never touch a kind-name `String`.
#[derive(Debug, Clone)]
pub struct HtlcContract {
    depositor: PartyId,
    beneficiary: PartyId,
    hashlock: Hash,
    timeout: Time,
    asset: Option<InternedAsset>,
    state: HtlcState,
}

impl HtlcContract {
    /// Creates an HTLC paying `beneficiary` if it reveals the preimage of
    /// `hashlock` before `timeout`, refunding `depositor` afterwards.
    pub fn new(depositor: PartyId, beneficiary: PartyId, hashlock: Hash, timeout: Time) -> Self {
        HtlcContract {
            depositor,
            beneficiary,
            hashlock,
            timeout,
            asset: None,
            state: HtlcState::Created,
        }
    }

    /// Hashes a secret the way the contract expects (a streamed, allocation-
    /// free domain-separated hash).
    pub fn hash_secret(secret: u64) -> Hash {
        FnvHasher::new()
            .chain_u64(0x5ec2e7)
            .chain_u64(secret)
            .finish()
    }

    /// Current lifecycle state.
    pub fn state(&self) -> HtlcState {
        self.state
    }

    /// The configured timeout.
    pub fn timeout(&self) -> Time {
        self.timeout
    }

    /// The depositor funds the contract.
    pub fn fund(&mut self, ctx: &mut CallCtx<'_>, asset: Asset) -> ChainResult<()> {
        let asset = ctx.intern_asset(&asset);
        self.fund_interned(ctx, asset)
    }

    /// [`HtlcContract::fund`] for a pre-interned asset (plan-based engines;
    /// same checks, gas, and log entry as the named path).
    pub fn fund_interned(
        &mut self,
        ctx: &mut CallCtx<'_>,
        asset: InternedAsset,
    ) -> ChainResult<()> {
        ctx.require(
            self.state == HtlcState::Created,
            "already funded or resolved",
        )?;
        ctx.require(
            ctx.caller_party()? == self.depositor,
            "only the depositor can fund",
        )?;
        ctx.require(!asset.is_empty(), "cannot fund with an empty asset")?;
        ctx.deposit_interned_from_caller(&asset)?;
        ctx.charge_storage_write()?;
        self.asset = Some(asset);
        self.state = HtlcState::Funded;
        ctx.emit("htlc-funded", &[self.hashlock.0])?;
        Ok(())
    }

    /// The beneficiary claims with the secret preimage before the timeout.
    pub fn claim(&mut self, ctx: &mut CallCtx<'_>, secret: u64) -> ChainResult<()> {
        ctx.require(self.state == HtlcState::Funded, "not funded")?;
        ctx.require(ctx.now() < self.timeout, "timed out")?;
        ctx.require(
            ctx.caller_party()? == self.beneficiary,
            "only the beneficiary can claim",
        )?;
        ctx.require(Self::hash_secret(secret) == self.hashlock, "wrong preimage")?;
        ctx.charge_storage_write()?;
        self.state = HtlcState::Claimed;
        let asset = self.asset.as_ref().expect("funded");
        ctx.pay_out_interned(self.beneficiary.into(), asset)?;
        ctx.emit("htlc-claimed", &[secret])?;
        Ok(())
    }

    /// The depositor reclaims after the timeout.
    pub fn refund(&mut self, ctx: &mut CallCtx<'_>) -> ChainResult<()> {
        ctx.require(self.state == HtlcState::Funded, "not funded")?;
        ctx.require(ctx.now() >= self.timeout, "not timed out yet")?;
        ctx.charge_storage_write()?;
        self.state = HtlcState::Refunded;
        let asset = self.asset.as_ref().expect("funded");
        ctx.pay_out_interned(self.depositor.into(), asset)?;
        ctx.emit("htlc-refunded", &[self.hashlock.0])?;
        Ok(())
    }
}

impl Contract for HtlcContract {
    fn type_name(&self) -> &'static str {
        "htlc"
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xchain_sim::error::ChainError;
    use xchain_sim::ids::{ChainId, Owner};
    use xchain_sim::ledger::Blockchain;
    use xchain_sim::time::Duration;

    fn chain_with_coins(owner: PartyId) -> Blockchain {
        let mut chain = Blockchain::new(ChainId(0), "coins", Duration(1));
        chain
            .mint(Owner::Party(owner), &Asset::fungible("coin", 50))
            .unwrap();
        chain
    }

    #[test]
    fn fund_claim_flow() {
        let alice = PartyId(0);
        let bob = PartyId(1);
        let mut chain = chain_with_coins(alice);
        let secret = 777;
        let id = chain.install(HtlcContract::new(
            alice,
            bob,
            HtlcContract::hash_secret(secret),
            Time(100),
        ));
        chain
            .call(
                Time(0),
                Owner::Party(alice),
                id,
                |h: &mut HtlcContract, ctx| h.fund(ctx, Asset::fungible("coin", 50)),
            )
            .unwrap();
        // Wrong secret and wrong caller are rejected.
        assert!(chain
            .call(
                Time(10),
                Owner::Party(bob),
                id,
                |h: &mut HtlcContract, ctx| h.claim(ctx, 1)
            )
            .is_err());
        assert!(chain
            .call(
                Time(10),
                Owner::Party(alice),
                id,
                |h: &mut HtlcContract, ctx| h.claim(ctx, secret)
            )
            .is_err());
        chain
            .call(
                Time(10),
                Owner::Party(bob),
                id,
                |h: &mut HtlcContract, ctx| h.claim(ctx, secret),
            )
            .unwrap();
        assert_eq!(
            chain.assets().balance(Owner::Party(bob), &"coin".into()),
            50
        );
        assert_eq!(
            chain.view(id, |h: &HtlcContract| h.state()).unwrap(),
            HtlcState::Claimed
        );
    }

    #[test]
    fn refund_after_timeout() {
        let alice = PartyId(0);
        let bob = PartyId(1);
        let mut chain = chain_with_coins(alice);
        let id = chain.install(HtlcContract::new(
            alice,
            bob,
            HtlcContract::hash_secret(9),
            Time(100),
        ));
        chain
            .call(
                Time(0),
                Owner::Party(alice),
                id,
                |h: &mut HtlcContract, ctx| h.fund(ctx, Asset::fungible("coin", 50)),
            )
            .unwrap();
        // Too early to refund; too late to claim after the timeout.
        assert!(matches!(
            chain.call(
                Time(50),
                Owner::Party(alice),
                id,
                |h: &mut HtlcContract, ctx| h.refund(ctx)
            ),
            Err(ChainError::Require(_))
        ));
        assert!(chain
            .call(
                Time(100),
                Owner::Party(bob),
                id,
                |h: &mut HtlcContract, ctx| h.claim(ctx, 9)
            )
            .is_err());
        chain
            .call(
                Time(100),
                Owner::Party(alice),
                id,
                |h: &mut HtlcContract, ctx| h.refund(ctx),
            )
            .unwrap();
        assert_eq!(
            chain.assets().balance(Owner::Party(alice), &"coin".into()),
            50
        );
    }
}
