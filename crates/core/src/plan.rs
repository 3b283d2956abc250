//! Pre-resolved deal plans: the compile-once layer between a [`DealSpec`]
//! and the protocol engines.
//!
//! A [`DealSpec`] is the *human-facing* description of a deal: asset kinds
//! are names and per-party chain sets are derived on demand. That is the
//! right shape for authoring deals, but the wrong shape for executing them.
//! A [`DealPlan`] resolves the spec once per deal:
//!
//! * the spec's shape is checked ([`DealSpec::validate`] runs the same
//!   checks, in the same order, with the same errors);
//! * every escrow and transfer asset is interned, escrows first and then
//!   transfers in spec order, into an [`Interner`] that is then frozen into
//!   the plan's [`KindTable`]. The engines hand the resulting
//!   [`InternedAsset`]s straight to the contracts' escrow and transfer entry
//!   points, so escrow, transfers and validation never look up or clone a
//!   kind name (only the holdings snapshots before and after a deal name
//!   kinds);
//! * the tentative [transfer order](DealPlan::transfer_order) is searched
//!   once, over the interned assets: tentative holdings live in one flat
//!   table of (chain, party, kind) accounts, not in name-keyed bags. This is
//!   the only ordering search; `validate` calls it too;
//! * per-party tables ([`PartyPlan`]) locate each party's incoming and
//!   outgoing chain sets (the timelock vote and forwarding targets) and the
//!   per-chain *expected net incoming* [`InternedBag`]s that validation
//!   compares against the escrow C map via [`EscrowCore::on_commit_covers`].
//!   All parties' lists share three plan-sized tables.
//!
//! Kind-id validity is by construction: [`crate::setup::world_for_plan`]
//! builds each world from a [`KindTable::fork`] of the plan's table, which
//! shares the plan's frozen kind names instead of copying them, so every id
//! the plan assigned resolves identically on all of that world's chains.
//! One plan can therefore be shared (it is `Send + Sync`) across many worlds
//! — the sweep executor in `xchain-harness` resolves one plan per
//! specification and reuses it for every cell (seed × network × adversary ×
//! engine) that runs that spec. What a world interns itself stays in that
//! world: the plan's table is only ever forked, never shared with a world.
//!
//! [`EscrowCore::on_commit_covers`]: xchain_contracts::escrow::EscrowCore::on_commit_covers

use std::ops::Range;
use std::sync::Arc;

use xchain_sim::ids::{ChainId, PartyId, TokenId};
use xchain_sim::intern::{InternedAsset, InternedBag, Interner, KindId, KindTable};

use crate::error::DealError;
use crate::spec::DealSpec;

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

/// One party of a plan (parallel to [`DealSpec::parties`]). Its chain sets
/// and expected bags live in the plan's shared tables: read them with
/// [`DealPlan::incoming_chains`], [`DealPlan::outgoing_chains`] and
/// [`DealPlan::expected`], passing the party's position.
#[derive(Debug, Clone)]
pub struct PartyPlan {
    /// The party.
    pub id: PartyId,
    /// Where its incoming chains (and their expected bags) are.
    incoming: Range<usize>,
    /// Where its outgoing chains are.
    outgoing: Range<usize>,
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
    /// Every party's incoming chains, party after party.
    incoming_chains: Vec<ChainId>,
    /// Parallel to `incoming_chains`: the expected net incoming bags.
    expected: Vec<InternedBag>,
    /// Every party's outgoing chains, party after party.
    outgoing_chains: Vec<ChainId>,
}

impl DealPlan {
    /// Resolves a specification into a plan with its own canonical kind
    /// table. Worlds meant to execute this plan must be built from it
    /// ([`crate::setup::world_for_plan`]) so the interned ids line up.
    pub fn new(spec: &DealSpec) -> Result<Self, DealError> {
        let Resolved {
            kinds,
            escrows,
            transfers,
            transfer_order,
        } = Resolved::new(spec)?;
        let spec = spec.clone();
        let n_transfers = transfers.len();
        // A transfer adds at most one chain to its receiver's incoming set
        // and one to its sender's outgoing set.
        let mut incoming_chains = Vec::with_capacity(n_transfers);
        let mut outgoing_chains = Vec::with_capacity(n_transfers);
        let parties: Vec<PartyPlan> = spec
            .parties
            .iter()
            .map(|&p| PartyPlan {
                id: p,
                incoming: push_chain_set(
                    &mut incoming_chains,
                    transfers.iter().filter(|t| t.to == p),
                ),
                outgoing: push_chain_set(
                    &mut outgoing_chains,
                    transfers.iter().filter(|t| t.from == p),
                ),
            })
            .collect();
        let mut expected = Vec::with_capacity(incoming_chains.len());
        for pp in &parties {
            for &chain in &incoming_chains[pp.incoming.clone()] {
                // Net expected incoming on `chain`: add incoming, remove
                // onward transfers (mirrors `validation::expected_on_chain`).
                let mut bag = InternedBag::new();
                for t in transfers
                    .iter()
                    .filter(|t| t.to == pp.id && t.chain == chain)
                {
                    bag.add(&t.asset);
                }
                for t in transfers
                    .iter()
                    .filter(|t| t.from == pp.id && t.chain == chain)
                {
                    bag.remove(&t.asset);
                }
                expected.push(bag);
            }
        }
        Ok(DealPlan {
            plist: spec.parties.as_slice().into(),
            chains: spec.chains(),
            spec,
            kinds,
            transfer_order,
            escrows,
            transfers,
            parties,
            incoming_chains,
            expected,
            outgoing_chains,
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

    /// The plan's canonical kind table, frozen after planning (fork it to
    /// build a world, see [`crate::setup::world_for_plan`]).
    pub fn kinds(&self) -> &KindTable {
        &self.kinds
    }

    /// The chains involved in the deal (sorted, deduplicated).
    pub fn chains(&self) -> &[ChainId] {
        &self.chains
    }

    /// The fixed tentative-transfer order: indices into
    /// [`DealPlan::transfers`] such that each sender tentatively owns what
    /// it sends when its turn comes, starting from the escrowed state. Each
    /// pass over the transfers not yet ordered takes, in spec order, every
    /// one whose sender owns the asset at that point.
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

    /// Chains on which the party at position `ix` has incoming assets (vote
    /// targets under the timelock protocol), sorted and deduplicated; empty
    /// for a position past the last party.
    pub fn incoming_chains(&self, ix: usize) -> &[ChainId] {
        self.parties
            .get(ix)
            .map_or(&[], |pp| &self.incoming_chains[pp.incoming.clone()])
    }

    /// Chains on which the party at position `ix` has outgoing assets (what
    /// it monitors for forwarding), sorted and deduplicated.
    pub fn outgoing_chains(&self, ix: usize) -> &[ChainId] {
        self.parties
            .get(ix)
            .map_or(&[], |pp| &self.outgoing_chains[pp.outgoing.clone()])
    }

    /// Per incoming chain of the party at position `ix`, its expected *net*
    /// incoming assets (incoming minus onward transfers on the same chain):
    /// what validation requires the escrow C map to cover. Parallel to
    /// [`DealPlan::incoming_chains`].
    pub fn expected(&self, ix: usize) -> &[InternedBag] {
        self.parties
            .get(ix)
            .map_or(&[], |pp| &self.expected[pp.incoming.clone()])
    }
}

/// Appends the sorted, deduplicated chains of `transfers` to `list` and
/// returns where they are.
fn push_chain_set<'t>(
    list: &mut Vec<ChainId>,
    transfers: impl Iterator<Item = &'t PlannedTransfer>,
) -> Range<usize> {
    let start = list.len();
    for t in transfers {
        if !list[start..].contains(&t.chain) {
            list.push(t.chain);
        }
    }
    list[start..].sort_unstable();
    start..list.len()
}

/// What checking a spec yields: its assets interned and its transfers
/// ordered.
pub(crate) struct Resolved {
    kinds: KindTable,
    escrows: Vec<PlannedEscrow>,
    transfers: Vec<PlannedTransfer>,
    transfer_order: Vec<usize>,
}

impl Resolved {
    /// Checks the spec's shape, interns its assets (escrows, then transfers,
    /// in spec order, so identical specs get identical ids) and searches the
    /// transfer order. [`DealSpec::validate`] is this, with the result
    /// dropped.
    pub(crate) fn new(spec: &DealSpec) -> Result<Self, DealError> {
        spec.check_shape()?;
        // The shape check proved every escrow owner and transfer endpoint is
        // a party, so the positions below always exist.
        let position = |p: PartyId| spec.parties.iter().position(|&q| q == p).unwrap_or(0);
        let mut names = Interner::with_capacity(spec.escrows.len() + spec.transfers.len());
        let escrows: Vec<PlannedEscrow> = spec
            .escrows
            .iter()
            .map(|e| PlannedEscrow {
                owner: e.owner,
                owner_ix: position(e.owner),
                chain: e.chain,
                asset: names.intern_asset(&e.asset),
            })
            .collect();
        let transfers: Vec<PlannedTransfer> = spec
            .transfers
            .iter()
            .map(|t| PlannedTransfer {
                from: t.from,
                from_ix: position(t.from),
                to: t.to,
                chain: t.chain,
                asset: names.intern_asset(&t.asset),
            })
            .collect();
        let transfer_order = order_transfers(&escrows, &transfers, |t| position(t.to))?;
        Ok(Resolved {
            kinds: KindTable::freeze(names),
            escrows,
            transfers,
            transfer_order,
        })
    }
}

/// The tentative holdings of every (chain, party position, kind) account
/// the deal touches, during the transfer-order search: each account's
/// fungible balance, and non-fungible tokens as (account, token) pairs with
/// set semantics, as in a bag.
struct Holdings {
    accounts: Vec<((ChainId, usize, KindId), u64)>,
    tokens: Vec<(usize, TokenId)>,
}

impl Holdings {
    /// The index of the account, opened empty on first use.
    fn account(&mut self, key: (ChainId, usize, KindId)) -> usize {
        match self.accounts.iter().position(|(k, _)| *k == key) {
            Some(ix) => ix,
            None => {
                self.accounts.push((key, 0));
                self.accounts.len() - 1
            }
        }
    }

    fn add(&mut self, account: usize, asset: &InternedAsset) {
        match asset {
            InternedAsset::Fungible { amount, .. } => {
                let held = &mut self.accounts[account].1;
                *held = held.saturating_add(*amount);
            }
            InternedAsset::NonFungible { tokens, .. } => {
                for &t in tokens {
                    if !self.tokens.contains(&(account, t)) {
                        self.tokens.push((account, t));
                    }
                }
            }
        }
    }

    fn contains(&self, account: usize, asset: &InternedAsset) -> bool {
        match asset {
            InternedAsset::Fungible { amount, .. } => self.accounts[account].1 >= *amount,
            InternedAsset::NonFungible { tokens, .. } => {
                tokens.iter().all(|&t| self.tokens.contains(&(account, t)))
            }
        }
    }

    /// Removes an asset the account holds (check with `contains` first).
    fn remove(&mut self, account: usize, asset: &InternedAsset) {
        match asset {
            InternedAsset::Fungible { amount, .. } => self.accounts[account].1 -= amount,
            InternedAsset::NonFungible { tokens, .. } => self
                .tokens
                .retain(|&(a, t)| a != account || !tokens.contains(&t)),
        }
    }
}

/// The one transfer-order search: starting from the escrowed holdings,
/// repeatedly passes over the transfers not yet ordered, in spec order, and
/// takes every one whose sender tentatively owns the asset at that point.
/// Fails if a pass takes nothing (some sender never owns what it sends).
fn order_transfers(
    escrows: &[PlannedEscrow],
    transfers: &[PlannedTransfer],
    to_ix: impl Fn(&PlannedTransfer) -> usize,
) -> Result<Vec<usize>, DealError> {
    let mut held = Holdings {
        accounts: Vec::with_capacity(escrows.len() + 2 * transfers.len()),
        tokens: Vec::new(),
    };
    for e in escrows {
        let account = held.account((e.chain, e.owner_ix, e.asset.kind()));
        held.add(account, &e.asset);
    }
    // Per transfer, its (sender, receiver) accounts; `None` once ordered.
    let mut pending: Vec<Option<(usize, usize)>> = transfers
        .iter()
        .map(|t| {
            let kind = t.asset.kind();
            Some((
                held.account((t.chain, t.from_ix, kind)),
                held.account((t.chain, to_ix(t), kind)),
            ))
        })
        .collect();
    let mut order = Vec::with_capacity(transfers.len());
    while order.len() < transfers.len() {
        let before = order.len();
        for (idx, (slot, t)) in pending.iter_mut().zip(transfers).enumerate() {
            let Some((from, to)) = *slot else { continue };
            if held.contains(from, &t.asset) {
                held.remove(from, &t.asset);
                held.add(to, &t.asset);
                order.push(idx);
                *slot = None;
            }
        }
        if order.len() == before {
            return Err(DealError::InvalidSpec(
                "transfers cannot be ordered: some sender never owns what it sends".into(),
            ));
        }
    }
    Ok(order)
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
        assert_eq!(plan.transfer_order(), &[0, 1, 2, 3]);
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
        for (ix, (pp, &p)) in plan.parties().iter().zip(&spec.parties).enumerate() {
            assert_eq!(pp.id, p);
            assert_eq!(plan.incoming_chains(ix), spec.incoming_chains_of(p));
            assert_eq!(plan.outgoing_chains(ix), spec.outgoing_chains_of(p));
            assert_eq!(plan.expected(ix).len(), plan.incoming_chains(ix).len());
        }
        assert!(plan.party(PartyId(0)).is_some());
        assert!(plan.party(PartyId(9)).is_none());
        let past_the_end = spec.parties.len();
        assert!(plan.incoming_chains(past_the_end).is_empty());
        assert!(plan.outgoing_chains(past_the_end).is_empty());
        assert!(plan.expected(past_the_end).is_empty());
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
        for (ix, pp) in plan.parties().iter().enumerate() {
            for (chain, expected) in plan.incoming_chains(ix).iter().zip(plan.expected(ix)) {
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
