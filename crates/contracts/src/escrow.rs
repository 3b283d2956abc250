//! The escrow state every deal contract shares: the paper's Section 4
//! escrow/transfer semantics.
//!
//! Escrow "plays the role of classical concurrency control, ensuring that a
//! single asset cannot be transferred to different parties at the same time":
//! the contract itself becomes the asset's owner for the duration of the deal.
//! The deal's tentative state is captured by two maps:
//!
//! * the **A map** (abort): who gets each escrowed asset back if the deal
//!   aborts — always the original owner;
//! * the **C map** (commit): who receives each asset if the deal commits —
//!   initially the original owner, updated by tentative transfers.
//!
//! Both commit protocols (timelock and CBC) embed an [`EscrowCore`] and add
//! their own resolution rules on top.

use std::collections::BTreeMap;
use std::sync::Arc;

use xchain_sim::contract::{CallCtx, Contract};
use xchain_sim::error::ChainResult;
use xchain_sim::ids::{DealId, PartyId};
use xchain_sim::intern::{InternedAsset, InternedBag};

/// How an escrow ultimately resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EscrowResolution {
    /// The deal committed here: the C map was paid out.
    Committed,
    /// The deal aborted here: the A map (original owners) was refunded.
    Aborted,
}

/// The escrow state shared by both commit protocols.
///
/// Both the A map (deposits) and the C map (tentative commit ownership) are
/// kept in interned form ([`InternedAsset`] / [`InternedBag`]): callers
/// resolve kind names to `Copy` [`xchain_sim::intern::KindId`]s before the
/// escrow call, so the escrow/transfer/release paths never touch a `String`.
#[derive(Debug, Clone)]
pub struct EscrowCore {
    deal: DealId,
    /// Shared with the owning manager's deal info (and, in the engines, with
    /// every chain's escrow), so installing a contract copies no party list.
    plist: Arc<[PartyId]>,
    /// A map: deposits, refunded to their original owners on abort.
    deposits: Vec<(PartyId, InternedAsset)>,
    /// C map: what each party receives if the deal commits at this chain.
    on_commit: BTreeMap<PartyId, InternedBag>,
    resolution: Option<EscrowResolution>,
}

impl EscrowCore {
    /// Creates the escrow state for a deal with the given participant list.
    pub fn new(deal: DealId, plist: impl Into<Arc<[PartyId]>>) -> Self {
        EscrowCore {
            deal,
            plist: plist.into(),
            deposits: Vec::new(),
            on_commit: BTreeMap::new(),
            resolution: None,
        }
    }

    /// The deal this escrow belongs to.
    pub fn deal(&self) -> DealId {
        self.deal
    }

    /// The participant list.
    pub fn plist(&self) -> &[PartyId] {
        &self.plist
    }

    /// True if `p` participates in the deal.
    pub fn is_participant(&self, p: PartyId) -> bool {
        self.plist.contains(&p)
    }

    /// How the escrow resolved, if it has.
    pub fn resolution(&self) -> Option<EscrowResolution> {
        self.resolution
    }

    /// True if the escrow has neither committed nor aborted yet.
    pub fn is_active(&self) -> bool {
        self.resolution.is_none()
    }

    /// Borrowing iterator over the A map: `(original owner, interned
    /// deposit)` pairs in deposit order, with no resolution and no
    /// allocation.
    pub fn deposits_iter(&self) -> impl Iterator<Item = (PartyId, &InternedAsset)> {
        self.deposits.iter().map(|(owner, asset)| (*owner, asset))
    }

    /// True if `party`'s C-map entry covers at least `expected` — the
    /// validation fast path: compares interned bags directly, so per-party
    /// validation never resolves a kind name or allocates a bag.
    pub fn on_commit_covers(&self, party: PartyId, expected: &InternedBag) -> bool {
        match self.on_commit.get(&party) {
            Some(bag) => bag.covers(expected),
            None => expected.is_empty(),
        }
    }

    /// Escrow precondition + postcondition of Section 4:
    /// `Pre: Owns(P, a)` — enforced by the deposit transfer;
    /// `Post: Owns(D, a) ∧ OwnsC(P, a) ∧ OwnsA(P, a)`.
    ///
    /// Gas: 2 storage writes for the deposit transfer plus 1 each for the A
    /// and C map updates — the 4 writes of Figure 3's `escrow`.
    pub fn escrow(&mut self, ctx: &mut CallCtx<'_>, asset: InternedAsset) -> ChainResult<()> {
        let caller = ctx.caller_party()?;
        ctx.require(self.is_active(), "deal already resolved")?;
        ctx.require(self.is_participant(caller), "caller not in plist")?;
        ctx.require(!asset.is_empty(), "cannot escrow an empty asset")?;
        // Pre: Owns(P, a): the deposit fails if the caller does not own it.
        ctx.deposit_from_caller(&asset)?;
        let magnitude = asset.magnitude();
        // A map entry (1 write) + C map entry (1 write). Both maps are
        // recorded before the emit below can fail (out of gas), so an abort
        // can always refund exactly what was deposited.
        ctx.charge_storage_write()?;
        ctx.charge_storage_write()?;
        self.on_commit.entry(caller).or_default().add(&asset);
        self.deposits.push((caller, asset));
        ctx.emit("escrow", &[self.deal.0, caller.0 as u64, magnitude])?;
        Ok(())
    }

    /// Tentative transfer of Section 4:
    /// `Pre: Owns(D, a) ∧ OwnsC(P, a)`; `Post: OwnsC(Q, a)`.
    ///
    /// Gas: 2 storage writes (decrement sender's C entry, increment the
    /// recipient's — Figure 3 lines 15–16).
    pub fn transfer(
        &mut self,
        ctx: &mut CallCtx<'_>,
        asset: &InternedAsset,
        to: PartyId,
    ) -> ChainResult<()> {
        let caller = ctx.caller_party()?;
        ctx.require(self.is_active(), "deal already resolved")?;
        ctx.require(self.is_participant(caller), "caller not in plist")?;
        ctx.require(self.is_participant(to), "recipient not in plist")?;
        let sender_bag = self.on_commit.entry(caller).or_default();
        ctx.require(
            sender_bag.contains(asset),
            "caller does not tentatively own the asset",
        )?;
        ctx.charge_storage_write()?;
        let removed = self
            .on_commit
            .get_mut(&caller)
            .map(|b| b.remove(asset))
            .unwrap_or(false);
        debug_assert!(removed, "contains() checked above");
        ctx.charge_storage_write()?;
        self.on_commit.entry(to).or_default().add(asset);
        ctx.emit(
            "tentative-transfer",
            &[self.deal.0, caller.0 as u64, to.0 as u64, asset.magnitude()],
        )?;
        Ok(())
    }

    /// Pays the C map out to its owners and marks the escrow committed.
    /// Called by the protocol-specific managers once their commit condition
    /// holds. One storage write records the outcome, plus the payout writes.
    /// The whole release path works on interned kinds — no `String` is
    /// cloned, looked up, or constructed here.
    pub fn distribute_commit(&mut self, ctx: &mut CallCtx<'_>) -> ChainResult<()> {
        ctx.require(self.is_active(), "deal already resolved")?;
        ctx.charge_storage_write()?;
        self.resolution = Some(EscrowResolution::Committed);
        for (party, bag) in &self.on_commit {
            for (kind, amount) in bag.fungible_holdings() {
                if amount == 0 {
                    continue;
                }
                ctx.pay_out_fungible((*party).into(), kind, amount)?;
            }
            for (kind, tokens) in bag.non_fungible_holdings() {
                if tokens.is_empty() {
                    continue;
                }
                ctx.pay_out_tokens((*party).into(), kind, tokens)?;
            }
        }
        ctx.emit("escrow-committed", &[self.deal.0])?;
        Ok(())
    }

    /// Refunds every deposit to its original owner and marks the escrow
    /// aborted. Like the commit path, refunds are paid out of the interned A
    /// map without touching kind names.
    pub fn distribute_abort(&mut self, ctx: &mut CallCtx<'_>) -> ChainResult<()> {
        ctx.require(self.is_active(), "deal already resolved")?;
        ctx.charge_storage_write()?;
        self.resolution = Some(EscrowResolution::Aborted);
        for (owner, asset) in self.deposits_iter() {
            ctx.pay_out(owner.into(), asset)?;
        }
        ctx.emit("escrow-aborted", &[self.deal.0])?;
        Ok(())
    }
}

/// An escrow contract of a commit protocol: the [`EscrowCore`] semantics of
/// Section 4 behind the protocol's own deal information. The escrow,
/// tentative-transfer and validation phases are the same for every deal, so
/// the deal engines drive them through this trait whatever the protocol;
/// only resolution differs, and stays on the concrete contract.
pub trait DealEscrow: Contract {
    /// The deal information the contract is configured with, which parties
    /// compare with the deal they agreed to during validation.
    type Info: PartialEq;

    /// The configured deal information.
    fn info(&self) -> &Self::Info;

    /// Read access to the escrow state.
    fn core(&self) -> &EscrowCore;

    /// Escrow phase (see [`EscrowCore::escrow`]).
    fn escrow(&mut self, ctx: &mut CallCtx<'_>, asset: InternedAsset) -> ChainResult<()>;

    /// Transfer phase (see [`EscrowCore::transfer`]).
    fn transfer(
        &mut self,
        ctx: &mut CallCtx<'_>,
        asset: &InternedAsset,
        to: PartyId,
    ) -> ChainResult<()>;

    /// How the escrow resolved, if it has.
    fn resolution(&self) -> Option<EscrowResolution> {
        self.core().resolution()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;
    use xchain_sim::asset::Asset;
    use xchain_sim::error::ChainError;
    use xchain_sim::ids::{ChainId, ContractId, Owner};
    use xchain_sim::ledger::Blockchain;
    use xchain_sim::time::{Duration, Time};

    /// The Section 4 semantics alone: escrow and transfer through the core,
    /// plus explicit commit and abort in place of a commit protocol.
    struct BareEscrow {
        core: EscrowCore,
    }

    impl Contract for BareEscrow {
        fn type_name(&self) -> &'static str {
            "bare-escrow"
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    type Call = Box<dyn FnOnce(&mut BareEscrow, &mut CallCtx<'_>) -> ChainResult<()>>;

    fn escrow(asset: Asset) -> Call {
        Box::new(move |m, ctx| {
            let asset = ctx.kinds().intern_asset(&asset);
            m.core.escrow(ctx, asset)
        })
    }

    fn transfer(asset: Asset, to: PartyId) -> Call {
        Box::new(move |m, ctx| {
            let asset = ctx.kinds().intern_asset(&asset);
            m.core.transfer(ctx, &asset, to)
        })
    }

    fn force_commit() -> Call {
        Box::new(|m, ctx| m.core.distribute_commit(ctx))
    }

    fn force_abort() -> Call {
        Box::new(|m, ctx| m.core.distribute_abort(ctx))
    }

    fn setup() -> (Blockchain, ContractId, PartyId, PartyId, PartyId) {
        let mut chain = Blockchain::new(ChainId(0), "tickets", Duration(1));
        let bob = PartyId(1);
        let alice = PartyId(0);
        let carol = PartyId(2);
        chain
            .mint(Owner::Party(bob), &Asset::non_fungible("ticket", [1, 2]))
            .unwrap();
        chain
            .mint(Owner::Party(carol), &Asset::fungible("coin", 101))
            .unwrap();
        let id = chain.install(BareEscrow {
            core: EscrowCore::new(DealId(7), vec![alice, bob, carol]),
        });
        (chain, id, alice, bob, carol)
    }

    #[test]
    fn escrow_requires_ownership_and_membership() {
        let (mut chain, id, _alice, bob, _carol) = setup();
        // Bob escrows his tickets: ok.
        chain
            .call(
                Time(0),
                Owner::Party(bob),
                id,
                escrow(Asset::non_fungible("ticket", [1, 2])),
            )
            .unwrap();
        // Escrow contract now owns the tickets.
        assert!(chain
            .holdings(Owner::Contract(id))
            .contains(&Asset::non_fungible("ticket", [1, 2])));
        // A stranger cannot escrow.
        let err = chain
            .call(
                Time(0),
                Owner::Party(PartyId(9)),
                id,
                escrow(Asset::fungible("coin", 1)),
            )
            .unwrap_err();
        assert!(matches!(err, ChainError::Require(_)));
        // Bob cannot escrow tickets he no longer owns.
        let err = chain
            .call(
                Time(0),
                Owner::Party(bob),
                id,
                escrow(Asset::non_fungible("ticket", [1])),
            )
            .unwrap_err();
        assert!(matches!(err, ChainError::NotTokenOwner { .. }));
    }

    #[test]
    fn escrow_costs_four_writes_and_transfer_two() {
        // Figure 3: escrow = 4 storage writes, tentative transfer = 2.
        let (mut chain, id, alice, bob, _carol) = setup();
        let before = chain.gas_usage();
        chain
            .call(
                Time(0),
                Owner::Party(bob),
                id,
                escrow(Asset::non_fungible("ticket", [1, 2])),
            )
            .unwrap();
        let after_escrow = chain.gas_usage();
        assert_eq!(before.delta_to(&after_escrow).storage_writes, 4);

        chain
            .call(
                Time(0),
                Owner::Party(bob),
                id,
                transfer(Asset::non_fungible("ticket", [1, 2]), alice),
            )
            .unwrap();
        let after_transfer = chain.gas_usage();
        assert_eq!(after_escrow.delta_to(&after_transfer).storage_writes, 2);
    }

    #[test]
    fn tentative_transfers_update_c_map_only() {
        let (mut chain, id, alice, bob, carol) = setup();
        chain
            .call(
                Time(0),
                Owner::Party(bob),
                id,
                escrow(Asset::non_fungible("ticket", [1, 2])),
            )
            .unwrap();
        chain
            .call(
                Time(0),
                Owner::Party(bob),
                id,
                transfer(Asset::non_fungible("ticket", [1, 2]), alice),
            )
            .unwrap();
        chain
            .call(
                Time(0),
                Owner::Party(alice),
                id,
                transfer(Asset::non_fungible("ticket", [1, 2]), carol),
            )
            .unwrap();
        let bag = |asset: Asset| {
            let mut bag = InternedBag::new();
            bag.add(&chain.kinds().intern_asset(&asset));
            bag
        };
        let (both, one, two) = (
            bag(Asset::non_fungible("ticket", [1, 2])),
            bag(Asset::non_fungible("ticket", [1])),
            bag(Asset::non_fungible("ticket", [2])),
        );
        chain
            .view(id, |m: &BareEscrow| {
                // Bob's C-map entry holds neither ticket any more.
                assert!(!m.core.on_commit_covers(bob, &one));
                assert!(!m.core.on_commit_covers(bob, &two));
                assert!(m.core.on_commit_covers(carol, &both));
            })
            .unwrap();
        // The chain-level owner is still the contract until resolution.
        assert!(chain
            .holdings(Owner::Contract(id))
            .contains(&Asset::non_fungible("ticket", [1, 2])));
    }

    #[test]
    fn cannot_transfer_what_you_do_not_tentatively_own() {
        let (mut chain, id, alice, bob, carol) = setup();
        chain
            .call(
                Time(0),
                Owner::Party(carol),
                id,
                escrow(Asset::fungible("coin", 101)),
            )
            .unwrap();
        // Bob has escrowed nothing here; he cannot move Carol's coins.
        let err = chain
            .call(
                Time(0),
                Owner::Party(bob),
                id,
                transfer(Asset::fungible("coin", 50), alice),
            )
            .unwrap_err();
        assert!(matches!(err, ChainError::Require(_)));
        // Carol cannot over-transfer either.
        let err = chain
            .call(
                Time(0),
                Owner::Party(carol),
                id,
                transfer(Asset::fungible("coin", 102), alice),
            )
            .unwrap_err();
        assert!(matches!(err, ChainError::Require(_)));
    }

    #[test]
    fn commit_pays_c_map_and_abort_refunds_a_map() {
        // Commit path.
        let (mut chain, id, alice, bob, carol) = setup();
        for (caller, call) in [
            (carol, escrow(Asset::fungible("coin", 101))),
            (carol, transfer(Asset::fungible("coin", 101), alice)),
            (alice, transfer(Asset::fungible("coin", 100), bob)),
        ] {
            chain.call(Time(0), Owner::Party(caller), id, call).unwrap();
        }
        chain
            .call(Time(1), Owner::Party(alice), id, force_commit())
            .unwrap();
        assert_eq!(
            chain.assets().balance(Owner::Party(bob), &"coin".into()),
            100
        );
        assert_eq!(
            chain.assets().balance(Owner::Party(alice), &"coin".into()),
            1
        );
        assert_eq!(
            chain.assets().balance(Owner::Party(carol), &"coin".into()),
            0
        );

        // Abort path on a fresh chain.
        let (mut chain, id, alice, _bob, carol) = setup();
        for call in [
            escrow(Asset::fungible("coin", 101)),
            transfer(Asset::fungible("coin", 101), alice),
        ] {
            chain.call(Time(0), Owner::Party(carol), id, call).unwrap();
        }
        chain
            .call(Time(1), Owner::Party(carol), id, force_abort())
            .unwrap();
        // Despite the tentative transfer, the abort refunds the original owner.
        assert_eq!(
            chain.assets().balance(Owner::Party(carol), &"coin".into()),
            101
        );
        assert_eq!(
            chain.assets().balance(Owner::Party(alice), &"coin".into()),
            0
        );
    }

    #[test]
    fn resolution_is_terminal() {
        let (mut chain, id, _alice, bob, _carol) = setup();
        chain
            .call(
                Time(0),
                Owner::Party(bob),
                id,
                escrow(Asset::non_fungible("ticket", [1])),
            )
            .unwrap();
        chain
            .call(Time(1), Owner::Party(bob), id, force_abort())
            .unwrap();
        // No further escrow, transfer, or second resolution.
        for call in [
            escrow(Asset::non_fungible("ticket", [2])),
            force_commit(),
            force_abort(),
        ] {
            let result = chain.call(Time(2), Owner::Party(bob), id, call);
            assert!(matches!(result, Err(ChainError::Require(_))));
        }
        assert_eq!(
            chain
                .view(id, |m: &BareEscrow| m.core.resolution())
                .unwrap(),
            Some(EscrowResolution::Aborted)
        );
    }

    #[test]
    fn deposits_iter_borrows_and_on_commit_covers_compares_interned() {
        let (mut chain, id, alice, _bob, carol) = setup();
        chain
            .call(
                Time(0),
                Owner::Party(carol),
                id,
                escrow(Asset::fungible("coin", 101)),
            )
            .unwrap();
        chain
            .call(
                Time(0),
                Owner::Party(carol),
                id,
                transfer(Asset::fungible("coin", 60), alice),
            )
            .unwrap();
        let kinds = chain.kinds().clone();
        chain
            .view(id, |m: &BareEscrow| {
                // The borrowing iterator yields the interned A map directly.
                let deposits: Vec<_> = m.core.deposits_iter().collect();
                assert_eq!(deposits.len(), 1);
                assert_eq!(deposits[0].0, carol);
                assert_eq!(deposits[0].1.resolve(&kinds), Asset::fungible("coin", 101));

                // Interned coverage check mirrors the C map.
                let mut expected = InternedBag::new();
                expected.add(&kinds.intern_asset(&Asset::fungible("coin", 60)));
                assert!(m.core.on_commit_covers(alice, &expected));
                expected.add(&kinds.intern_asset(&Asset::fungible("coin", 1)));
                assert!(!m.core.on_commit_covers(alice, &expected));
                // A party with no C-map entry covers only the empty bag.
                assert!(m.core.on_commit_covers(PartyId(9), &InternedBag::new()));
                assert!(!m.core.on_commit_covers(PartyId(9), &expected));
            })
            .unwrap();
    }

    #[test]
    fn empty_escrow_rejected() {
        let (mut chain, id, _alice, bob, _carol) = setup();
        let err = chain
            .call(
                Time(0),
                Owner::Party(bob),
                id,
                escrow(Asset::fungible("coin", 0)),
            )
            .unwrap_err();
        assert!(matches!(err, ChainError::Require(_)));
    }
}
