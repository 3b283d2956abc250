//! Pre-resolved deal plans: the compile-once layer between a [`DealSpec`]
//! and the protocol engines.
//!
//! A [`DealSpec`] is the *human-facing* description of a deal: asset kinds
//! are names, per-party chain sets are derived on demand, and the tentative
//! transfer order is recomputed by whoever asks. That is the right shape for
//! authoring deals, but the wrong shape for executing them — PR 2 interned
//! the simulator's ledger so per-transaction paths work on `Copy`
//! [`KindId`]s, yet every engine still crossed the spec boundary with
//! `String`-kinded [`Asset`]s (escrow entry, tentative transfers, validation)
//! and re-derived `incoming_chains_of`/`outgoing_chains_of` (allocating,
//! sorting Vecs) at every commit round.
//!
//! A [`DealPlan`] resolves all of that **exactly once per deal**:
//!
//! * the spec is validated and the tentative [`transfer order`] is computed
//!   a single time (previously `validate()` + the engine each computed it);
//! * every escrow and transfer asset is interned into the plan's canonical
//!   [`KindTable`], producing [`InternedAsset`]s the engines hand straight to
//!   the contracts' `*_interned` entry points — after planning, **no kind
//!   name is looked up or cloned anywhere on the deal hot path**;
//! * per-party tables ([`PartyPlan`]) precompute the incoming/outgoing chain
//!   sets (the timelock vote and forwarding targets) and the per-chain
//!   *expected net incoming* [`InternedBag`]s that validation compares
//!   against the escrow C map via [`EscrowCore::on_commit_covers`].
//!
//! Kind-id validity is by construction: [`crate::setup::world_for_plan`]
//! builds each world from a [`KindTable::fork`] of the plan's table, so every
//! id the plan assigned resolves identically on all of that world's chains.
//! One plan can therefore be shared (it is `Send + Sync`) across many worlds
//! — the sweep executor in `xchain-harness` resolves one plan per
//! specification and reuses it for every cell (seed × network × adversary ×
//! engine) that runs that spec, and `Deal::run_in` resolves the plan against
//! the *caller's* world table instead, so caller-owned worlds keep working.
//!
//! [`transfer order`]: DealSpec::transfer_order
//! [`EscrowCore::on_commit_covers`]: xchain_contracts::escrow::EscrowCore::on_commit_covers
//! [`KindId`]: xchain_sim::intern::KindId
//! [`Asset`]: xchain_sim::asset::Asset

use std::sync::Arc;

use xchain_sim::ids::{ChainId, PartyId};
use xchain_sim::intern::{InternedAsset, InternedBag, KindTable};

use crate::error::DealError;
use crate::spec::{DealSpec, EscrowSpec, TransferSpec};

/// One escrow obligation with its asset pre-interned (parallel to
/// [`DealSpec::escrows`]).
#[derive(Debug, Clone)]
pub struct PlannedEscrow {
    /// The original owner of the asset.
    pub owner: PartyId,
    /// The owner's position in [`DealPlan::parties`].
    pub owner_ix: usize,
    /// The chain the asset lives on.
    pub chain: ChainId,
    /// The asset to escrow, interned against the plan's kind table.
    pub asset: InternedAsset,
}

/// One matrix entry with its asset pre-interned (parallel to
/// [`DealSpec::transfers`]).
#[derive(Debug, Clone)]
pub struct PlannedTransfer {
    /// The sending party.
    pub from: PartyId,
    /// The sender's position in [`DealPlan::parties`].
    pub from_ix: usize,
    /// The receiving party.
    pub to: PartyId,
    /// The chain the asset lives on.
    pub chain: ChainId,
    /// The asset to transfer, interned against the plan's kind table.
    pub asset: InternedAsset,
}

/// Everything one party's protocol actions need, precomputed (parallel to
/// [`DealSpec::parties`]).
#[derive(Debug, Clone)]
pub struct PartyPlan {
    /// The party.
    pub id: PartyId,
    /// Chains on which the party has incoming assets (vote targets under the
    /// timelock protocol) — sorted, deduplicated.
    pub incoming_chains: Vec<ChainId>,
    /// Chains on which the party has outgoing assets (what it monitors for
    /// forwarding) — sorted, deduplicated.
    pub outgoing_chains: Vec<ChainId>,
    /// Per incoming chain, the party's expected *net* incoming assets
    /// (incoming minus onward transfers on the same chain) — what validation
    /// requires the escrow C map to cover. Parallel to `incoming_chains`.
    pub expected: Vec<InternedBag>,
}

/// A deal specification resolved for execution: validated once, transfer
/// order fixed, every asset interned, per-party chain/validation tables
/// precomputed. See the module docs for how engines and worlds consume it.
#[derive(Debug, Clone)]
pub struct DealPlan {
    spec: DealSpec,
    plist: Arc<[PartyId]>,
    kinds: KindTable,
    chains: Vec<ChainId>,
    transfer_order: Vec<usize>,
    escrows: Vec<PlannedEscrow>,
    transfers: Vec<PlannedTransfer>,
    parties: Vec<PartyPlan>,
}

impl DealPlan {
    /// Resolves a specification into a plan with its own canonical kind
    /// table. Worlds meant to execute this plan must be built from it
    /// ([`crate::setup::world_for_plan`]) so the interned ids line up.
    pub fn new(spec: &DealSpec) -> Result<Self, DealError> {
        Self::resolve(spec.clone(), KindTable::new())
    }

    /// Resolves a specification against an *existing* kind table (shared,
    /// not forked): the plan's ids are assigned in — and stay valid for —
    /// whatever worlds share that table. This is how [`crate::Deal::run_in`]
    /// plans against a caller-supplied world.
    pub fn for_table(spec: &DealSpec, kinds: &KindTable) -> Result<Self, DealError> {
        Self::resolve(spec.clone(), kinds.clone())
    }

    fn resolve(spec: DealSpec, kinds: KindTable) -> Result<Self, DealError> {
        spec.validate()?;
        // `validate()` proved an order exists; computing it here fixes it for
        // the lifetime of the plan (engines no longer recompute it per run).
        let transfer_order = spec.transfer_order()?;
        // `validate()` proved every escrow owner and transfer sender is a
        // party, so the positions below always exist.
        let position = |p: PartyId| spec.parties.iter().position(|&q| q == p).unwrap_or(0);
        // Deterministic id assignment: escrows in spec order, then transfers
        // in spec order. Identical specs therefore produce identical tables.
        let escrows: Vec<PlannedEscrow> = spec
            .escrows
            .iter()
            .map(|e: &EscrowSpec| PlannedEscrow {
                owner: e.owner,
                owner_ix: position(e.owner),
                chain: e.chain,
                asset: kinds.intern_asset(&e.asset),
            })
            .collect();
        let transfers: Vec<PlannedTransfer> = spec
            .transfers
            .iter()
            .map(|t: &TransferSpec| PlannedTransfer {
                from: t.from,
                from_ix: position(t.from),
                to: t.to,
                chain: t.chain,
                asset: kinds.intern_asset(&t.asset),
            })
            .collect();
        let chains = spec.chains();
        let parties = spec
            .parties
            .iter()
            .map(|&p| {
                let incoming_chains = spec.incoming_chains_of(p);
                let expected = incoming_chains
                    .iter()
                    .map(|&chain| {
                        // Net expected incoming on `chain`: add incoming,
                        // remove onward transfers (mirrors
                        // `validation::expected_on_chain`).
                        let mut bag = InternedBag::new();
                        for t in transfers.iter().filter(|t| t.to == p && t.chain == chain) {
                            bag.add(&t.asset);
                        }
                        for t in transfers.iter().filter(|t| t.from == p && t.chain == chain) {
                            bag.remove(&t.asset);
                        }
                        bag
                    })
                    .collect();
                PartyPlan {
                    id: p,
                    incoming_chains,
                    outgoing_chains: spec.outgoing_chains_of(p),
                    expected,
                }
            })
            .collect();
        Ok(DealPlan {
            plist: spec.parties.as_slice().into(),
            spec,
            kinds,
            chains,
            transfer_order,
            escrows,
            transfers,
            parties,
        })
    }

    /// The specification this plan was resolved from.
    pub fn spec(&self) -> &DealSpec {
        &self.spec
    }

    /// The participant list, shared: every deal executed from this plan hands
    /// the same allocation to each chain's escrow contract.
    pub fn plist(&self) -> &Arc<[PartyId]> {
        &self.plist
    }

    /// The position of `chain` in [`DealPlan::chains`]: the dense per-deal
    /// chain index engines key their tables by.
    pub fn chain_index(&self, chain: ChainId) -> Option<usize> {
        self.chains.binary_search(&chain).ok()
    }

    /// The plan's canonical kind table (fork it to build a world, see
    /// [`crate::setup::world_for_plan`]).
    pub fn kinds(&self) -> &KindTable {
        &self.kinds
    }

    /// The chains involved in the deal (sorted, deduplicated).
    pub fn chains(&self) -> &[ChainId] {
        &self.chains
    }

    /// The fixed tentative-transfer order: indices into [`DealPlan::transfers`].
    pub fn transfer_order(&self) -> &[usize] {
        &self.transfer_order
    }

    /// The escrow obligations with pre-interned assets (parallel to
    /// [`DealSpec::escrows`]).
    pub fn escrows(&self) -> &[PlannedEscrow] {
        &self.escrows
    }

    /// The transfers with pre-interned assets (parallel to
    /// [`DealSpec::transfers`]).
    pub fn transfers(&self) -> &[PlannedTransfer] {
        &self.transfers
    }

    /// The per-party tables (parallel to [`DealSpec::parties`]).
    pub fn parties(&self) -> &[PartyPlan] {
        &self.parties
    }

    /// The precomputed table for one party. Deal parties are few, so a scan
    /// beats a map; the engines mostly iterate [`DealPlan::parties`] instead.
    pub fn party(&self, id: PartyId) -> Option<&PartyPlan> {
        self.parties.iter().find(|pp| pp.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{broker_spec, ring_spec};
    use xchain_sim::asset::Asset;
    use xchain_sim::ids::DealId;

    #[test]
    fn plan_precomputes_what_the_spec_derives() {
        let spec = broker_spec();
        let plan = DealPlan::new(&spec).unwrap();
        assert_eq!(plan.spec(), &spec);
        assert_eq!(plan.chains(), &spec.chains()[..]);
        assert_eq!(plan.transfer_order(), &spec.transfer_order().unwrap()[..]);
        assert_eq!(plan.escrows().len(), spec.escrows.len());
        assert_eq!(plan.transfers().len(), spec.transfers.len());
        assert_eq!(&plan.plist()[..], &spec.parties[..]);
        for e in plan.escrows() {
            assert_eq!(plan.parties()[e.owner_ix].id, e.owner);
        }
        for t in plan.transfers() {
            assert_eq!(plan.parties()[t.from_ix].id, t.from);
        }
        for (ix, &c) in plan.chains().iter().enumerate() {
            assert_eq!(plan.chain_index(c), Some(ix));
        }
        assert_eq!(plan.chain_index(ChainId(99)), None);
        for (pp, &p) in plan.parties().iter().zip(&spec.parties) {
            assert_eq!(pp.id, p);
            assert_eq!(pp.incoming_chains, spec.incoming_chains_of(p));
            assert_eq!(pp.outgoing_chains, spec.outgoing_chains_of(p));
            assert_eq!(pp.expected.len(), pp.incoming_chains.len());
        }
        assert!(plan.party(PartyId(0)).is_some());
        assert!(plan.party(PartyId(9)).is_none());
    }

    #[test]
    fn planned_assets_resolve_back_to_the_spec_assets() {
        let spec = broker_spec();
        let plan = DealPlan::new(&spec).unwrap();
        for (pe, e) in plan.escrows().iter().zip(&spec.escrows) {
            assert_eq!(pe.asset.resolve(plan.kinds()), e.asset);
        }
        for (pt, t) in plan.transfers().iter().zip(&spec.transfers) {
            assert_eq!(pt.asset.resolve(plan.kinds()), t.asset);
        }
    }

    #[test]
    fn expected_bags_mirror_validation_expected_on_chain() {
        let spec = broker_spec();
        let plan = DealPlan::new(&spec).unwrap();
        for pp in plan.parties() {
            for (chain, expected) in pp.incoming_chains.iter().zip(&pp.expected) {
                let named = crate::validation::expected_on_chain(&spec, pp.id, *chain);
                let mut roundtrip = xchain_sim::asset::AssetBag::new();
                for (kind, amount) in named.fungible_holdings() {
                    if amount > 0 {
                        roundtrip.add(&Asset::Fungible {
                            kind: kind.clone(),
                            amount,
                        });
                    }
                }
                for (kind, tokens) in named.non_fungible_holdings() {
                    if !tokens.is_empty() {
                        roundtrip.add(&Asset::NonFungible {
                            kind: kind.clone(),
                            tokens: tokens.clone(),
                        });
                    }
                }
                assert_eq!(expected.resolve(plan.kinds()), roundtrip, "{}", pp.id);
            }
        }
    }

    #[test]
    fn invalid_specs_fail_at_planning_time() {
        let mut spec = ring_spec(DealId(1), 3);
        spec.parties.push(spec.parties[0]); // duplicate party
        assert!(DealPlan::new(&spec).is_err());
    }

    #[test]
    fn identical_specs_produce_identical_id_assignments() {
        let a = DealPlan::new(&broker_spec()).unwrap();
        let b = DealPlan::new(&broker_spec()).unwrap();
        for (ea, eb) in a.escrows().iter().zip(b.escrows()) {
            assert_eq!(ea.asset, eb.asset);
        }
        for (ta, tb) in a.transfers().iter().zip(b.transfers()) {
            assert_eq!(ta.asset, tb.asset);
        }
    }
}
