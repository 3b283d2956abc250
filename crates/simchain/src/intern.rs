//! Asset-kind interning: the hot-path representation of asset classes.
//!
//! Asset kinds are *named* at the specification level ([`crate::asset::AssetKind`]
//! wraps a `String` so deal specs stay human-readable), but ledger and escrow
//! operations run once per simulated transaction, and keying maps on `String`
//! forced a clone-per-lookup on every one of them. This module fixes the
//! representation: each world owns an [`Interner`] that maps every kind name
//! to a dense, `Copy` [`KindId`], and the [`crate::ledger::AssetLedger`],
//! escrow contracts, and HTLCs all key their state on ids instead of names.
//!
//! * [`KindId`] — a `u32` handle, `Copy`/`Ord`/`Hash`; the ledger's map keys.
//! * [`Interner`] — the bidirectional name ↔ id table. It stores each name
//!   once. An interner may start from a *frozen* set of names shared by
//!   `Arc` with other interners (ids `0..k`); the names it interns itself
//!   get ids from `k` on.
//! * [`KindTable`] — a cheaply-cloneable shared handle (`Arc<RwLock<Interner>>`)
//!   owned by the [`crate::world::World`] and handed to every chain it
//!   creates, so a kind name resolves to the same id on all of a world's
//!   chains. Standalone [`crate::ledger::Blockchain`]s create their own.
//! * [`InternedAsset`] / [`InternedBag`] — the id-keyed counterparts of
//!   [`crate::asset::Asset`] and [`crate::asset::AssetBag`], used by contract
//!   state so the escrow/release path never touches a `String`.
//!
//! Interning happens at the cold boundaries (minting, planning a deal);
//! everything after is `Copy` ids. Ids are assigned in first-intern order,
//! which is deterministic for a deterministic setup, so identically-seeded
//! worlds produce identical ids.
//!
//! A deal plan interns its kinds into a plain [`Interner`] and then freezes
//! it ([`KindTable::freeze`]). Every world built from the plan starts from a
//! [`KindTable::fork`] of that table, which shares the frozen names by `Arc`
//! instead of copying them: setting up a world copies no kind name, and the
//! world's own interner holds only the kinds first interned in that world.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, RwLock};

use crate::asset::{Asset, AssetBag, AssetKind};
use crate::ids::TokenId;

/// A dense, `Copy` handle for an asset kind, valid within one [`Interner`]
/// (i.e. within one world, or one standalone chain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KindId(pub u32);

impl fmt::Display for KindId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kind#{}", self.0)
    }
}

/// The bidirectional asset-kind name ↔ [`KindId`] table.
///
/// The kinds of the frozen interner it was forked from, if any, keep their
/// ids `0..k` and are shared, not copied; kinds interned here get ids from
/// `k` on.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    /// The frozen kinds this interner starts from.
    frozen: Option<Arc<Interner>>,
    /// Names of the kinds interned here, in id order.
    names: Vec<Box<str>>,
    /// Positions in `names`, sorted by name: the by-name lookup.
    by_name: Vec<u32>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty interner with room for `kinds` names, so interning
    /// up to that many grows no table.
    pub fn with_capacity(kinds: usize) -> Self {
        Interner {
            frozen: None,
            names: Vec::with_capacity(kinds),
            by_name: Vec::with_capacity(kinds),
        }
    }

    /// The number of frozen kinds: the first id this interner assigns.
    fn first_own_id(&self) -> u32 {
        self.frozen.as_ref().map_or(0, |f| f.len() as u32)
    }

    /// Where `name` sits (or would sit) among the names interned here.
    fn search(&self, name: &str) -> Result<usize, usize> {
        self.by_name
            .binary_search_by(|&ix| (*self.names[ix as usize]).cmp(name))
    }

    /// Returns the id for `name`, assigning the next free id on first use.
    pub fn intern(&mut self, name: &str) -> KindId {
        if let Some(id) = self.frozen.as_ref().and_then(|f| f.get(name)) {
            return id;
        }
        match self.search(name) {
            Ok(at) => KindId(self.first_own_id() + self.by_name[at]),
            Err(at) => {
                let ix = self.names.len() as u32;
                self.names.push(name.into());
                self.by_name.insert(at, ix);
                KindId(self.first_own_id() + ix)
            }
        }
    }

    /// The id previously assigned to `name`, if any. Never allocates.
    pub fn get(&self, name: &str) -> Option<KindId> {
        if let Some(id) = self.frozen.as_ref().and_then(|f| f.get(name)) {
            return Some(id);
        }
        let at = self.search(name).ok()?;
        Some(KindId(self.first_own_id() + self.by_name[at]))
    }

    /// The name behind an id, if the id was produced by this interner.
    pub fn resolve(&self, id: KindId) -> Option<&str> {
        match id.0.checked_sub(self.first_own_id()) {
            Some(own) => self.names.get(own as usize).map(|n| &**n),
            None => self.frozen.as_ref()?.resolve(id),
        }
    }

    /// Interns the kind of an asset and returns its id-keyed counterpart.
    pub fn intern_asset(&mut self, asset: &Asset) -> InternedAsset {
        InternedAsset::of_kind(asset, self.intern(asset.kind().name()))
    }

    /// Number of interned kinds, frozen ones included.
    pub fn len(&self) -> usize {
        self.first_own_id() as usize + self.names.len()
    }

    /// True if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A shared handle to a world's [`Interner`].
///
/// The world owns the canonical table and every chain it creates holds a
/// clone of this handle, so `"coin"` means the same [`KindId`] on all of the
/// world's chains. Cloning the handle is an `Arc` bump. Reads take a shared
/// lock (an atomic op), writes happen only when a *new* kind name is first
/// interned — never on the per-transfer hot path.
#[derive(Clone, Default)]
pub struct KindTable {
    inner: Arc<RwLock<Interner>>,
}

impl KindTable {
    /// Creates a handle to a fresh, empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Freezes `names` into a table whose forks share them: every id
    /// `names` assigned keeps its meaning in the table and in each of its
    /// [forks](KindTable::fork). A deal plan freezes the interner it
    /// planned with.
    pub fn freeze(names: Interner) -> KindTable {
        KindTable::starting_from(Some(Arc::new(names)))
    }

    /// A table with nothing interned yet beyond the `frozen` kinds.
    fn starting_from(frozen: Option<Arc<Interner>>) -> KindTable {
        KindTable {
            inner: Arc::new(RwLock::new(Interner {
                frozen,
                ..Interner::default()
            })),
        }
    }

    /// A table that starts with every assignment made so far, after which
    /// the two tables evolve independently. This is how a pre-resolved
    /// `DealPlan` (in `xchain-deals`) hands every world built from it the
    /// same name → id assignments without sharing a lock: each world starts
    /// from a fork of the plan's frozen table, so the plan's ids are valid on
    /// all of them by construction.
    ///
    /// The fork shares this table's frozen names by `Arc` and copies no name
    /// when nothing was interned here since it was frozen (the case of a
    /// plan's table); otherwise it starts from a frozen copy of everything.
    pub fn fork(&self) -> KindTable {
        let frozen = self.with_interner(|own| match &own.frozen {
            Some(frozen) if own.names.is_empty() => Arc::clone(frozen),
            _ => Arc::new(own.clone()),
        });
        KindTable::starting_from(Some(frozen))
    }

    /// Interns a kind name (see [`Interner::intern`]).
    pub fn intern(&self, name: &str) -> KindId {
        // Fast path: the name is almost always known already.
        if let Some(id) = self.get(name) {
            return id;
        }
        self.inner.write().expect("interner lock").intern(name)
    }

    /// The id previously assigned to `name`, if any. Never allocates.
    pub fn get(&self, name: &str) -> Option<KindId> {
        self.with_interner(|names| names.get(name))
    }

    /// The [`AssetKind`] behind an id (allocates the returned name; intended
    /// for reporting and error paths, not per-transfer code).
    pub fn resolve(&self, id: KindId) -> Option<AssetKind> {
        self.with_interner(|names| names.resolve(id).map(AssetKind::new))
    }

    /// Runs `f` with read access to the interner, so a caller that names many
    /// ids can borrow each name instead of allocating it. `f` must not use
    /// this table (or a handle sharing it) itself.
    pub fn with_interner<R>(&self, f: impl FnOnce(&Interner) -> R) -> R {
        f(&self.inner.read().expect("interner lock"))
    }

    /// The name behind an id, or `"?"` for unknown ids (error messages).
    pub fn name_of(&self, id: KindId) -> String {
        self.with_interner(|names| names.resolve(id).unwrap_or("?").to_string())
    }

    /// Interns the kind of an asset and returns its id-keyed counterpart.
    pub fn intern_asset(&self, asset: &Asset) -> InternedAsset {
        InternedAsset::of_kind(asset, self.intern(asset.kind().name()))
    }

    /// Number of interned kinds.
    pub fn len(&self) -> usize {
        self.with_interner(Interner::len)
    }

    /// True if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.with_interner(Interner::is_empty)
    }
}

impl fmt::Debug for KindTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KindTable")
            .field("kinds", &self.len())
            .finish()
    }
}

/// The id-keyed counterpart of [`Asset`]: what contracts store and what the
/// ledger's interned fast paths consume. No `String` anywhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InternedAsset {
    /// A fungible amount of the given kind.
    Fungible {
        /// The interned asset class.
        kind: KindId,
        /// The amount, in indivisible units.
        amount: u64,
    },
    /// Specific non-fungible tokens of the given kind.
    NonFungible {
        /// The interned asset class.
        kind: KindId,
        /// The specific token instances.
        tokens: BTreeSet<TokenId>,
    },
}

impl InternedAsset {
    /// `asset` with its kind replaced by the interned `kind`.
    fn of_kind(asset: &Asset, kind: KindId) -> InternedAsset {
        match asset {
            Asset::Fungible { amount, .. } => InternedAsset::Fungible {
                kind,
                amount: *amount,
            },
            Asset::NonFungible { tokens, .. } => InternedAsset::NonFungible {
                kind,
                tokens: tokens.clone(),
            },
        }
    }

    /// The asset's interned kind.
    pub fn kind(&self) -> KindId {
        match self {
            InternedAsset::Fungible { kind, .. } | InternedAsset::NonFungible { kind, .. } => *kind,
        }
    }

    /// True if the asset is empty (zero amount or no tokens).
    pub fn is_empty(&self) -> bool {
        match self {
            InternedAsset::Fungible { amount, .. } => *amount == 0,
            InternedAsset::NonFungible { tokens, .. } => tokens.is_empty(),
        }
    }

    /// Fungible amount, or number of tokens (mirrors [`Asset::magnitude`]).
    pub fn magnitude(&self) -> u64 {
        match self {
            InternedAsset::Fungible { amount, .. } => *amount,
            InternedAsset::NonFungible { tokens, .. } => tokens.len() as u64,
        }
    }

    /// The name-keyed [`Asset`] this was interned from (reporting only).
    pub fn resolve(&self, kinds: &KindTable) -> Asset {
        match self {
            InternedAsset::Fungible { kind, amount } => Asset::Fungible {
                kind: kinds.resolve(*kind).unwrap_or_else(|| AssetKind::new("?")),
                amount: *amount,
            },
            InternedAsset::NonFungible { kind, tokens } => Asset::NonFungible {
                kind: kinds.resolve(*kind).unwrap_or_else(|| AssetKind::new("?")),
                tokens: tokens.clone(),
            },
        }
    }
}

/// The id-keyed counterpart of [`AssetBag`]: a multi-kind bag with `Copy` map
/// keys, used for contract state (the escrow C map) so per-transfer bag
/// updates never clone a `String`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InternedBag {
    fungible: BTreeMap<KindId, u64>,
    non_fungible: BTreeMap<KindId, BTreeSet<TokenId>>,
}

impl InternedBag {
    /// Creates an empty bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an asset to the bag.
    pub fn add(&mut self, asset: &InternedAsset) {
        match asset {
            InternedAsset::Fungible { kind, amount } => {
                *self.fungible.entry(*kind).or_insert(0) += amount;
            }
            InternedAsset::NonFungible { kind, tokens } => {
                self.non_fungible
                    .entry(*kind)
                    .or_default()
                    .extend(tokens.iter().copied());
            }
        }
    }

    /// Removes an asset from the bag; returns false (and leaves the bag
    /// unchanged) if the bag does not contain it.
    pub fn remove(&mut self, asset: &InternedAsset) -> bool {
        if !self.contains(asset) {
            return false;
        }
        match asset {
            InternedAsset::Fungible { kind, amount } => {
                let entry = self.fungible.entry(*kind).or_insert(0);
                *entry -= amount;
                if *entry == 0 {
                    self.fungible.remove(kind);
                }
            }
            InternedAsset::NonFungible { kind, tokens } => {
                if let Some(held) = self.non_fungible.get_mut(kind) {
                    for t in tokens {
                        held.remove(t);
                    }
                    if held.is_empty() {
                        self.non_fungible.remove(kind);
                    }
                }
            }
        }
        true
    }

    /// True if the bag contains at least this asset.
    pub fn contains(&self, asset: &InternedAsset) -> bool {
        match asset {
            InternedAsset::Fungible { kind, amount } => {
                self.fungible.get(kind).copied().unwrap_or(0) >= *amount
            }
            InternedAsset::NonFungible { kind, tokens } => {
                let held = self.non_fungible.get(kind);
                tokens
                    .iter()
                    .all(|t| held.map(|h| h.contains(t)).unwrap_or(false))
            }
        }
    }

    /// True if the bag holds nothing.
    pub fn is_empty(&self) -> bool {
        self.fungible.values().all(|v| *v == 0) && self.non_fungible.values().all(|s| s.is_empty())
    }

    /// Component-wise comparison: true if `self` holds at least everything in
    /// `other` (every fungible balance ≥ and every token set a superset) —
    /// the id-keyed counterpart of [`AssetBag::covers`], used by the escrow
    /// validation fast path so the per-party check never resolves a name.
    pub fn covers(&self, other: &InternedBag) -> bool {
        for (kind, amount) in &other.fungible {
            if *amount > 0 && self.fungible.get(kind).copied().unwrap_or(0) < *amount {
                return false;
            }
        }
        for (kind, tokens) in &other.non_fungible {
            let held = self.non_fungible.get(kind);
            if !tokens
                .iter()
                .all(|t| held.map(|h| h.contains(t)).unwrap_or(false))
            {
                return false;
            }
        }
        true
    }

    /// Iterates over all (kind, amount) fungible holdings.
    pub fn fungible_holdings(&self) -> impl Iterator<Item = (KindId, u64)> + '_ {
        self.fungible.iter().map(|(k, v)| (*k, *v))
    }

    /// Iterates over all (kind, token set) non-fungible holdings.
    pub fn non_fungible_holdings(&self) -> impl Iterator<Item = (KindId, &BTreeSet<TokenId>)> {
        self.non_fungible.iter().map(|(k, ts)| (*k, ts))
    }

    /// The name-keyed [`AssetBag`] view of this bag (reporting/validation).
    pub fn resolve(&self, kinds: &KindTable) -> AssetBag {
        let mut bag = AssetBag::new();
        for (kind, amount) in &self.fungible {
            if *amount == 0 {
                continue;
            }
            bag.add(&Asset::Fungible {
                kind: kinds.resolve(*kind).unwrap_or_else(|| AssetKind::new("?")),
                amount: *amount,
            });
        }
        for (kind, tokens) in &self.non_fungible {
            if tokens.is_empty() {
                continue;
            }
            bag.add(&Asset::NonFungible {
                kind: kinds.resolve(*kind).unwrap_or_else(|| AssetKind::new("?")),
                tokens: tokens.clone(),
            });
        }
        bag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let t = KindTable::new();
        let coin = t.intern("coin");
        let ticket = t.intern("ticket");
        assert_eq!(coin, KindId(0));
        assert_eq!(ticket, KindId(1));
        assert_eq!(t.intern("coin"), coin);
        assert_eq!(t.get("coin"), Some(coin));
        assert_eq!(t.get("gold"), None);
        assert_eq!(t.resolve(coin), Some(AssetKind::new("coin")));
        assert_eq!(t.resolve(KindId(9)), None);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn table_is_shared_between_clones() {
        let a = KindTable::new();
        let b = a.clone();
        let id = a.intern("coin");
        assert_eq!(b.get("coin"), Some(id));
    }

    #[test]
    fn fork_copies_assignments_then_diverges() {
        let a = KindTable::new();
        let coin = a.intern("coin");
        let b = a.fork();
        // Existing assignments carry over …
        assert_eq!(b.get("coin"), Some(coin));
        // … but new interning is independent in both directions.
        let gold_in_b = b.intern("gold");
        assert_eq!(a.get("gold"), None);
        let silver_in_a = a.intern("silver");
        assert_eq!(b.get("silver"), None);
        // Both assigned the same next id, each in its own table.
        assert_eq!(gold_in_b, silver_in_a);
    }

    #[test]
    fn forks_of_a_frozen_table_share_its_names_and_keep_its_ids() {
        let mut names = Interner::with_capacity(2);
        let coin = names.intern("coin");
        let ticket = names
            .intern_asset(&Asset::non_fungible("ticket", [1]))
            .kind();
        assert_eq!(names.intern("coin"), coin);
        let frozen = KindTable::freeze(names);
        let (a, b) = (frozen.fork(), frozen.fork());
        for t in [&frozen, &a, &b] {
            assert_eq!(t.get("coin"), Some(coin));
            assert_eq!(t.get("ticket"), Some(ticket));
            assert_eq!(t.resolve(ticket), Some(AssetKind::new("ticket")));
            assert_eq!(t.len(), 2);
        }
        // A fork's own kinds continue the ids and stay in that fork.
        let gold = a.intern("gold");
        assert_eq!(gold, KindId(2));
        assert_eq!(a.name_of(gold), "gold");
        assert_eq!(b.get("gold"), None);
        assert_eq!(frozen.get("gold"), None);
        assert_eq!(b.intern("silver"), KindId(2));
        // Forking a table with kinds of its own keeps all of them.
        let c = a.fork();
        assert_eq!(c.get("gold"), Some(gold));
        assert_eq!(c.get("coin"), Some(coin));
        assert_eq!(c.intern("lead"), KindId(3));
        assert_eq!(a.get("lead"), None);
        assert_eq!(c.name_of(KindId(9)), "?");
    }

    #[test]
    fn own_names_are_found_whatever_order_they_were_interned_in() {
        let mut names = Interner::new();
        let words = ["pear", "apple", "fig", "banana", "cherry"];
        let ids: Vec<KindId> = words.iter().map(|w| names.intern(w)).collect();
        assert_eq!(ids, (0..5).map(KindId).collect::<Vec<_>>());
        for (w, id) in words.iter().zip(&ids) {
            assert_eq!(names.get(w), Some(*id));
            assert_eq!(names.resolve(*id), Some(*w));
        }
        assert_eq!(names.get("grape"), None);
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn interned_bag_covers_mirrors_asset_bag_covers() {
        let t = KindTable::new();
        let mut a = InternedBag::new();
        a.add(&t.intern_asset(&Asset::fungible("coin", 100)));
        a.add(&t.intern_asset(&Asset::non_fungible("ticket", [1, 2])));
        let mut b = InternedBag::new();
        b.add(&t.intern_asset(&Asset::fungible("coin", 50)));
        b.add(&t.intern_asset(&Asset::non_fungible("ticket", [1])));
        assert!(a.covers(&b));
        assert!(!b.covers(&a));
        assert!(a.covers(&a));
        assert!(a.covers(&InternedBag::new()));
        // A zero-amount leftover entry never blocks coverage.
        let mut c = InternedBag::new();
        c.add(&t.intern_asset(&Asset::fungible("dust", 5)));
        assert!(c.remove(&t.intern_asset(&Asset::fungible("dust", 5))));
        assert!(a.covers(&c));
    }

    #[test]
    fn interned_asset_roundtrips() {
        let t = KindTable::new();
        let coins = t.intern_asset(&Asset::fungible("coin", 101));
        let tickets = t.intern_asset(&Asset::non_fungible("ticket", [1, 2]));
        assert_eq!(coins.magnitude(), 101);
        assert_eq!(tickets.magnitude(), 2);
        assert!(!coins.is_empty());
        assert_ne!(coins.kind(), tickets.kind());
        assert_eq!(coins.resolve(&t), Asset::fungible("coin", 101));
        assert_eq!(tickets.resolve(&t), Asset::non_fungible("ticket", [1, 2]));
    }

    #[test]
    fn interned_bag_mirrors_asset_bag() {
        let t = KindTable::new();
        let mut bag = InternedBag::new();
        assert!(bag.is_empty());
        bag.add(&t.intern_asset(&Asset::fungible("coin", 100)));
        bag.add(&t.intern_asset(&Asset::fungible("coin", 1)));
        bag.add(&t.intern_asset(&Asset::non_fungible("ticket", [7])));
        assert!(bag.contains(&t.intern_asset(&Asset::fungible("coin", 101))));
        assert!(!bag.contains(&t.intern_asset(&Asset::fungible("coin", 102))));
        assert!(bag.remove(&t.intern_asset(&Asset::fungible("coin", 100))));
        assert!(!bag.remove(&t.intern_asset(&Asset::fungible("coin", 100))));
        assert!(bag.remove(&t.intern_asset(&Asset::non_fungible("ticket", [7]))));

        let resolved = bag.resolve(&t);
        assert_eq!(resolved.balance(&"coin".into()), 1);
        assert!(!resolved.contains(&Asset::non_fungible("ticket", [7])));
    }
}
