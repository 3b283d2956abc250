//! The blockchain ledger: asset ownership, contract hosting, and the public log.
//!
//! Each [`Blockchain`] is "a publicly-readable, tamper-proof distributed
//! ledger that tracks ownership of assets among various parties" (Section 3).
//! The simulator collapses the replication machinery: what the protocols need
//! from a chain is (a) authoritative asset ownership, (b) deterministic
//! contract execution with gas costs, (c) an append-only log that parties can
//! monitor, and (d) a notion of chain time with bounded observation latency.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::asset::{Asset, AssetBag, AssetKind};
use crate::contract::{CallCtx, Contract};
use crate::crypto::{KeyDirectory, KeyPair};
use crate::error::{ChainError, ChainResult};
use crate::gas::{GasMeter, GasUsage};
use crate::ids::{ChainId, ContractId, Owner, PartyId, TokenId};
use crate::intern::{InternedAsset, Interner, KindId, KindTable};
use crate::time::{Duration, Time};

/// Authoritative record of who owns what on one chain.
///
/// Ownership maps are keyed on interned [`KindId`]s, not kind names: every
/// per-transaction ledger operation works on `Copy` keys, and name → id
/// resolution happens by `&str` lookup in the shared [`KindTable`] — the
/// transfer path never clones a `String`. Interned entry points
/// ([`AssetLedger::transfer_interned`] and friends) skip even the name lookup
/// for callers (escrow contracts) that pre-resolved their assets.
#[derive(Debug, Clone, Default)]
pub struct AssetLedger {
    kinds: KindTable,
    fungible: BTreeMap<(Owner, KindId), u64>,
    non_fungible: BTreeMap<(KindId, TokenId), Owner>,
}

impl AssetLedger {
    /// Creates an empty ledger with its own private kind table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty ledger sharing the given kind table (used by
    /// [`crate::world::World`] so every chain resolves the same names to the
    /// same ids).
    pub fn with_kinds(kinds: KindTable) -> Self {
        AssetLedger {
            kinds,
            ..Self::default()
        }
    }

    /// The kind table this ledger resolves names through.
    pub fn kinds(&self) -> &KindTable {
        &self.kinds
    }

    /// Interns an asset's kind, returning its id-keyed counterpart.
    pub fn intern_asset(&self, asset: &Asset) -> InternedAsset {
        self.kinds.intern_asset(asset)
    }

    /// Creates new units of an asset owned by `owner` (test/workload setup;
    /// real chains would do this in their native issuance rules).
    pub fn mint(&mut self, owner: Owner, asset: &Asset) -> ChainResult<()> {
        let interned = self.kinds.intern_asset(asset);
        self.mint_interned(owner, &interned)
    }

    /// [`AssetLedger::mint`] for a pre-interned asset.
    pub fn mint_interned(&mut self, owner: Owner, asset: &InternedAsset) -> ChainResult<()> {
        match asset {
            InternedAsset::Fungible { kind, amount } => {
                *self.fungible.entry((owner, *kind)).or_insert(0) += amount;
                Ok(())
            }
            InternedAsset::NonFungible { kind, tokens } => {
                // Single pass through the entry API; on a duplicate, roll back
                // the tokens inserted earlier in this call so the mint stays
                // all-or-nothing.
                for (i, t) in tokens.iter().enumerate() {
                    match self.non_fungible.entry((*kind, *t)) {
                        Entry::Vacant(slot) => {
                            slot.insert(owner);
                        }
                        Entry::Occupied(_) => {
                            for minted in tokens.iter().take(i) {
                                self.non_fungible.remove(&(*kind, *minted));
                            }
                            return Err(ChainError::require(format!(
                                "token {t} of kind '{}' already minted",
                                self.kinds.name_of(*kind)
                            )));
                        }
                    }
                }
                Ok(())
            }
        }
    }

    /// The fungible balance of `owner` in `kind`.
    pub fn balance(&self, owner: Owner, kind: &AssetKind) -> u64 {
        match self.kinds.get(kind.name()) {
            Some(id) => self.balance_id(owner, id),
            None => 0,
        }
    }

    /// The fungible balance of `owner` in an interned kind.
    pub fn balance_id(&self, owner: Owner, kind: KindId) -> u64 {
        self.fungible.get(&(owner, kind)).copied().unwrap_or(0)
    }

    /// The current owner of a non-fungible token, if it exists.
    pub fn token_owner(&self, kind: &AssetKind, token: TokenId) -> Option<Owner> {
        self.token_owner_id(self.kinds.get(kind.name())?, token)
    }

    /// The current owner of a non-fungible token of an interned kind.
    pub fn token_owner_id(&self, kind: KindId, token: TokenId) -> Option<Owner> {
        self.non_fungible.get(&(kind, token)).copied()
    }

    /// True if `owner` holds at least `asset`.
    pub fn holds(&self, owner: Owner, asset: &Asset) -> bool {
        match asset {
            Asset::Fungible { kind, amount } => self.balance(owner, kind) >= *amount,
            Asset::NonFungible { kind, tokens } => match self.kinds.get(kind.name()) {
                Some(id) => tokens
                    .iter()
                    .all(|t| self.token_owner_id(id, *t) == Some(owner)),
                None => tokens.is_empty(),
            },
        }
    }

    /// True if `owner` holds at least the pre-interned `asset`.
    pub fn holds_interned(&self, owner: Owner, asset: &InternedAsset) -> bool {
        match asset {
            InternedAsset::Fungible { kind, amount } => self.balance_id(owner, *kind) >= *amount,
            InternedAsset::NonFungible { kind, tokens } => tokens
                .iter()
                .all(|t| self.token_owner_id(*kind, *t) == Some(owner)),
        }
    }

    /// Transfers `asset` from `from` to `to`, failing if `from` does not hold
    /// it. Resolves the kind by `&str` lookup — no clone on this path.
    pub fn transfer(&mut self, from: Owner, to: Owner, asset: &Asset) -> ChainResult<()> {
        match asset {
            Asset::Fungible { kind, amount } => match self.kinds.get(kind.name()) {
                Some(id) => self.transfer_fungible(from, to, id, *amount),
                None if *amount == 0 => Ok(()),
                None => Err(ChainError::InsufficientBalance {
                    owner: from,
                    kind: kind.name().to_string(),
                    requested: *amount,
                    available: 0,
                }),
            },
            Asset::NonFungible { kind, tokens } => match self.kinds.get(kind.name()) {
                Some(id) => self.transfer_tokens(from, to, id, tokens),
                None => match tokens.iter().next() {
                    None => Ok(()),
                    Some(t) => Err(ChainError::NotTokenOwner {
                        owner: from,
                        kind: kind.name().to_string(),
                        token: *t,
                    }),
                },
            },
        }
    }

    /// [`AssetLedger::transfer`] for a pre-interned asset: the zero-string
    /// fast path used by escrow release and HTLC payouts.
    pub fn transfer_interned(
        &mut self,
        from: Owner,
        to: Owner,
        asset: &InternedAsset,
    ) -> ChainResult<()> {
        match asset {
            InternedAsset::Fungible { kind, amount } => {
                self.transfer_fungible(from, to, *kind, *amount)
            }
            InternedAsset::NonFungible { kind, tokens } => {
                self.transfer_tokens(from, to, *kind, tokens)
            }
        }
    }

    /// Transfers `amount` units of an interned fungible kind.
    pub fn transfer_fungible(
        &mut self,
        from: Owner,
        to: Owner,
        kind: KindId,
        amount: u64,
    ) -> ChainResult<()> {
        let have = self.balance_id(from, kind);
        if have < amount {
            return Err(ChainError::InsufficientBalance {
                owner: from,
                kind: self.kinds.name_of(kind),
                requested: amount,
                available: have,
            });
        }
        if amount == 0 {
            return Ok(());
        }
        *self.fungible.entry((from, kind)).or_insert(0) -= amount;
        *self.fungible.entry((to, kind)).or_insert(0) += amount;
        Ok(())
    }

    /// Transfers specific tokens of an interned non-fungible kind.
    pub fn transfer_tokens(
        &mut self,
        from: Owner,
        to: Owner,
        kind: KindId,
        tokens: &BTreeSet<TokenId>,
    ) -> ChainResult<()> {
        for t in tokens {
            if self.token_owner_id(kind, *t) != Some(from) {
                return Err(ChainError::NotTokenOwner {
                    owner: from,
                    kind: self.kinds.name_of(kind),
                    token: *t,
                });
            }
        }
        for t in tokens {
            self.non_fungible.insert((kind, *t), to);
        }
        Ok(())
    }

    /// Everything `owner` holds on this chain (reporting path: resolves ids
    /// back to names).
    pub fn holdings(&self, owner: Owner) -> AssetBag {
        let mut bags = BTreeMap::from([(owner, AssetBag::new())]);
        self.kinds
            .with_interner(|names| self.collect_holdings(&mut bags, names));
        bags.into_values().next().unwrap_or_default()
    }

    /// Adds what every owner keyed in `bags` holds on this chain to its bag,
    /// in one walk: a range query on the `(Owner, KindId)` balances per
    /// owner, and one scan of the token map for all owners together. Kind
    /// names are borrowed from `names`, which must be (a read of) this
    /// ledger's kind table.
    pub(crate) fn collect_holdings<K: HoldingsKey>(
        &self,
        bags: &mut BTreeMap<K, AssetBag>,
        names: &Interner,
    ) {
        for (key, bag) in bags.iter_mut() {
            let owner = key.owner();
            let balances = self
                .fungible
                .range((owner, KindId(0))..=(owner, KindId(u32::MAX)));
            for (&(_, kind), &amount) in balances {
                if amount > 0 {
                    if let Some(name) = names.resolve(kind) {
                        bag.add_fungible(name, amount);
                    }
                }
            }
        }
        for (&(kind, token), &owner) in &self.non_fungible {
            let Some(bag) = K::of(owner).and_then(|key| bags.get_mut(&key)) else {
                continue;
            };
            if let Some(name) = names.resolve(kind) {
                bag.add_token(name, token);
            }
        }
    }

    /// Total supply of a fungible kind across all owners (conservation checks).
    pub fn total_supply(&self, kind: &AssetKind) -> u64 {
        let Some(id) = self.kinds.get(kind.name()) else {
            return 0;
        };
        self.fungible
            .iter()
            .filter(|((_, k), _)| *k == id)
            .map(|(_, v)| *v)
            .sum()
    }

    /// All owners currently holding anything (parties and contracts).
    pub fn owners(&self) -> Vec<Owner> {
        let mut owners: Vec<Owner> = self
            .fungible
            .iter()
            .filter(|(_, v)| **v > 0)
            .map(|((o, _), _)| *o)
            .chain(self.non_fungible.values().copied())
            .collect();
        owners.sort();
        owners.dedup();
        owners
    }
}

/// The owners a holdings walk can key its bags by: any [`Owner`], or a
/// [`PartyId`] for the per-party snapshots the deal engines take.
pub(crate) trait HoldingsKey: Ord + Copy {
    /// The ledger owner behind the key.
    fn owner(self) -> Owner;
    /// The key of a ledger owner, if it is one this key type names.
    fn of(owner: Owner) -> Option<Self>;
}

impl HoldingsKey for Owner {
    fn owner(self) -> Owner {
        self
    }
    fn of(owner: Owner) -> Option<Self> {
        Some(owner)
    }
}

impl HoldingsKey for PartyId {
    fn owner(self) -> Owner {
        Owner::Party(self)
    }
    fn of(owner: Owner) -> Option<Self> {
        owner.as_party()
    }
}

/// The pre-parsed classification of a log entry: the protocol-relevant label
/// vocabulary as a `Copy` enum, computed **once** when the entry is appended
/// ([`CallCtx::emit`]) instead of string-matched by every observer that later
/// reads it. Labels outside the deal vocabulary map to [`EventTag::Other`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventTag {
    /// `"escrow"` — an escrow deposit locked in.
    Escrow = 0,
    /// `"tentative-transfer"` — a C-map transfer was performed.
    TentativeTransfer = 1,
    /// `"commit-vote"` — a timelock commit vote was accepted.
    CommitVote = 2,
    /// `"escrow-committed"` — the escrow paid out its C map.
    EscrowCommitted = 3,
    /// `"escrow-aborted"` — the escrow refunded its A map.
    EscrowAborted = 4,
    /// `"htlc-funded"` — an HTLC was funded (plays the escrow role).
    HtlcFunded = 5,
    /// `"htlc-claimed"` — an HTLC was claimed (plays the commit-vote role).
    HtlcClaimed = 6,
    /// `"htlc-refunded"` — an HTLC timed out and refunded.
    HtlcRefunded = 7,
    /// Any other label (`"startDeal"`, token registry events, …).
    Other = 8,
}

impl EventTag {
    /// Classifies a label string (the single place the label vocabulary is
    /// string-matched).
    pub fn parse(label: &str) -> EventTag {
        match label {
            "escrow" => EventTag::Escrow,
            "tentative-transfer" => EventTag::TentativeTransfer,
            "commit-vote" => EventTag::CommitVote,
            "escrow-committed" => EventTag::EscrowCommitted,
            "escrow-aborted" => EventTag::EscrowAborted,
            "htlc-funded" => EventTag::HtlcFunded,
            "htlc-claimed" => EventTag::HtlcClaimed,
            "htlc-refunded" => EventTag::HtlcRefunded,
            _ => EventTag::Other,
        }
    }
}

/// A subscription over [`EventTag`]s: a tiny bitset observers use to skip log
/// entries they will never ingest (see [`Blockchain::log_from_filtered`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogFilter(u16);

impl LogFilter {
    /// The empty filter (accepts nothing).
    pub fn none() -> Self {
        LogFilter(0)
    }

    /// A filter accepting every tag, including [`EventTag::Other`].
    pub fn all() -> Self {
        LogFilter(u16::MAX)
    }

    /// A filter accepting exactly the given tags.
    pub fn of(tags: impl IntoIterator<Item = EventTag>) -> Self {
        let mut f = LogFilter(0);
        for t in tags {
            f = f.with(t);
        }
        f
    }

    /// This filter extended with one more tag.
    pub fn with(self, tag: EventTag) -> Self {
        LogFilter(self.0 | (1 << tag as u16))
    }

    /// True if the filter accepts entries with this tag.
    pub fn accepts(&self, tag: EventTag) -> bool {
        self.0 & (1 << tag as u16) != 0
    }
}

/// The numeric payload of a [`LogEntry`]: at most [`LogData::CAPACITY`]
/// words, stored inline so appending an entry allocates nothing. Derefs to
/// the words actually emitted.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct LogData {
    len: u8,
    // Words past `len` stay zero, so the derived equality is slice equality.
    words: [u64; LogData::CAPACITY],
}

impl LogData {
    /// The most words one entry can carry (every contract event needs ≤ 3).
    pub const CAPACITY: usize = 4;

    /// Copies `words` inline, or returns `None` if there are more than
    /// [`LogData::CAPACITY`] of them.
    pub fn new(words: &[u64]) -> Option<Self> {
        if words.len() > Self::CAPACITY {
            return None;
        }
        let mut data = LogData {
            len: words.len() as u8,
            words: [0; Self::CAPACITY],
        };
        data.words[..words.len()].copy_from_slice(words);
        Some(data)
    }
}

impl std::ops::Deref for LogData {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        &self.words[..self.len as usize]
    }
}

impl fmt::Debug for LogData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One entry in a chain's public log. Contracts append entries via
/// [`CallCtx::emit`]; parties monitor chains by reading the log (subject to
/// the network model's observation delay).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Monotonically increasing sequence number on this chain.
    pub seq: u64,
    /// Chain time at which the entry was appended.
    pub time: Time,
    /// The contract that emitted the entry, if any.
    pub contract: Option<ContractId>,
    /// The caller whose transaction produced the entry.
    pub caller: Owner,
    /// A short label, e.g. `"escrow"`, `"commit-vote"`, `"startDeal"`.
    pub label: &'static str,
    /// The label pre-parsed into the deal vocabulary (set at append time, so
    /// observers never re-match the string).
    pub tag: EventTag,
    /// Numeric payload (ids, amounts, hashes).
    pub data: LogData,
}

/// A per-observer position in a chain's log: the index of the first entry the
/// observer has *not* seen yet. Parties that monitor a chain keep one cursor
/// per chain and call [`Blockchain::log_from`], which returns only the new
/// entries and advances the cursor — O(new entries) instead of re-scanning
/// the whole log with [`Blockchain::log_since`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogCursor {
    next: usize,
}

impl LogCursor {
    /// A cursor positioned at the start of the log (sees everything).
    pub fn new() -> Self {
        Self::default()
    }

    /// The index of the next unseen entry.
    pub fn position(&self) -> usize {
        self.next
    }
}

/// A single simulated blockchain.
pub struct Blockchain {
    id: ChainId,
    name: String,
    /// Chain time is quantized to this block interval ("most blockchains
    /// measure time imprecisely, usually by multiplying the current block
    /// height by the average block rate", Section 5).
    block_interval: Duration,
    assets: AssetLedger,
    /// Contracts live in `Option` slots so a call can *take* the box with one
    /// map lookup (and put it back the same way) instead of removing and
    /// re-inserting a tree node on every transaction. A slot is only ever
    /// `None` for the duration of the call executing its contract.
    contracts: BTreeMap<ContractId, Option<Box<dyn Contract>>>,
    next_contract: u64,
    gas: GasMeter,
    /// The public-key directory. The chains of one world share the world's
    /// directory; [`Blockchain::register_key`] gives a chain a private copy.
    keys: Arc<KeyDirectory>,
    /// True once the chain holds a private copy of its directory, so that
    /// world-level registrations are applied to that copy instead of
    /// replacing it (see [`Blockchain::follow_world_keys`]).
    private_keys: bool,
    log: Vec<LogEntry>,
    log_seq: u64,
}

impl Blockchain {
    /// Creates a chain with the given display name and block interval, with
    /// its own private kind table.
    pub fn new(id: ChainId, name: impl Into<String>, block_interval: Duration) -> Self {
        Self::with_kinds(id, name, block_interval, KindTable::new())
    }

    /// Creates a chain sharing the given kind table (the world-owned interner;
    /// see [`crate::world::World::add_chain`]).
    pub fn with_kinds(
        id: ChainId,
        name: impl Into<String>,
        block_interval: Duration,
        kinds: KindTable,
    ) -> Self {
        Self::with_kinds_and_keys(
            id,
            name,
            block_interval,
            kinds,
            Arc::new(KeyDirectory::new()),
        )
    }

    /// Creates a chain that shares the given kind table and key directory
    /// (the world's; see [`crate::world::World::add_chain`]).
    pub(crate) fn with_kinds_and_keys(
        id: ChainId,
        name: impl Into<String>,
        block_interval: Duration,
        kinds: KindTable,
        keys: Arc<KeyDirectory>,
    ) -> Self {
        Blockchain {
            id,
            name: name.into(),
            block_interval: if block_interval.ticks() == 0 {
                Duration(1)
            } else {
                block_interval
            },
            assets: AssetLedger::with_kinds(kinds),
            contracts: BTreeMap::new(),
            next_contract: 1,
            gas: GasMeter::unlimited(),
            keys,
            private_keys: false,
            log: Vec::new(),
            log_seq: 0,
        }
    }

    /// The kind table this chain's ledger resolves names through.
    pub fn kinds(&self) -> &KindTable {
        self.assets.kinds()
    }

    /// The chain id.
    pub fn id(&self) -> ChainId {
        self.id
    }

    /// The chain's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Chain time derived from wall (world) time by block quantization.
    pub fn chain_time(&self, now: Time) -> Time {
        let q = self.block_interval.ticks();
        Time((now.ticks() / q) * q)
    }

    /// Registers a party's key so contracts on this chain can verify its
    /// signatures. The registration is this chain's alone: a directory
    /// shared with other chains is copied before the write, so they never
    /// see it. World-wide registrations go through
    /// [`crate::world::World::register_keys`] instead.
    pub fn register_key(&mut self, party: PartyId, kp: &KeyPair) {
        Arc::make_mut(&mut self.keys).register(party, kp);
        self.private_keys = true;
    }

    /// The chain's public-key directory. Chains that share one directory
    /// return the same reference.
    pub fn keys(&self) -> &KeyDirectory {
        &self.keys
    }

    /// Brings the chain up to date with a world-level key registration: a
    /// chain that shares the world's directory shares its new version
    /// `world_keys`; a chain with a private copy applies `register` to it.
    pub(crate) fn follow_world_keys(
        &mut self,
        world_keys: &Arc<KeyDirectory>,
        register: &impl Fn(&mut KeyDirectory),
    ) {
        if self.private_keys {
            register(Arc::make_mut(&mut self.keys));
        } else {
            self.keys = Arc::clone(world_keys);
        }
    }

    /// Installs a contract and returns its id. The contract receives the
    /// chain's kind table through [`Contract::on_install`] so it can intern
    /// and resolve asset kinds for its own state.
    pub fn install<C: Contract>(&mut self, mut contract: C) -> ContractId {
        let id = ContractId(((self.id.0 as u64) << 32) | self.next_contract);
        self.next_contract += 1;
        contract.on_install(self.assets.kinds());
        self.contracts.insert(id, Some(Box::new(contract)));
        id
    }

    /// Mints assets directly to an owner (workload setup).
    pub fn mint(&mut self, owner: Owner, asset: &Asset) -> ChainResult<()> {
        self.assets.mint(owner, asset)
    }

    /// [`Blockchain::mint`] for a pre-interned asset (plan-based world
    /// setup: no name resolution).
    pub fn mint_interned(&mut self, owner: Owner, asset: &InternedAsset) -> ChainResult<()> {
        self.assets.mint_interned(owner, asset)
    }

    /// Read-only access to the asset ledger.
    pub fn assets(&self) -> &AssetLedger {
        &self.assets
    }

    /// Everything `owner` holds on this chain.
    pub fn holdings(&self, owner: Owner) -> AssetBag {
        self.assets.holdings(owner)
    }

    /// Cumulative gas usage on this chain.
    pub fn gas_usage(&self) -> GasUsage {
        self.gas.usage()
    }

    /// The full public log.
    pub fn log(&self) -> &[LogEntry] {
        &self.log
    }

    /// Log entries appended at or after `since` (chain time).
    pub fn log_since(&self, since: Time) -> impl Iterator<Item = &LogEntry> {
        self.log.iter().filter(move |e| e.time >= since)
    }

    /// Log entries the cursor has not seen yet, advancing the cursor past
    /// them. Repeated monitoring of a chain is O(new entries) instead of the
    /// O(whole log) re-scan of [`Blockchain::log_since`].
    pub fn log_from(&self, cursor: &mut LogCursor) -> &[LogEntry] {
        let start = cursor.next.min(self.log.len());
        cursor.next = self.log.len();
        &self.log[start..]
    }

    /// Like [`Blockchain::log_from`], but yields only the entries whose
    /// [`EventTag`] the filter accepts. The cursor still advances past *all*
    /// new entries — filtered-out ones are skipped, not deferred — so a
    /// subscribed observer pays nothing for log traffic outside its
    /// vocabulary.
    pub fn log_from_filtered<'a>(
        &'a self,
        cursor: &mut LogCursor,
        filter: LogFilter,
    ) -> impl Iterator<Item = &'a LogEntry> {
        self.log_from(cursor)
            .iter()
            .filter(move |e| filter.accepts(e.tag))
    }

    /// Submits a transaction that calls contract `id`, dispatching on the
    /// concrete contract type `C`. The closure receives the downcast contract
    /// and a [`CallCtx`]; its result is the call's result. Charges the
    /// intrinsic call cost plus whatever the contract charges.
    ///
    /// A failed call (`Err`) still consumes the gas charged up to the failure
    /// point, like a reverted Ethereum transaction consumes gas.
    pub fn call<C, R>(
        &mut self,
        now: Time,
        caller: Owner,
        id: ContractId,
        f: impl FnOnce(&mut C, &mut CallCtx<'_>) -> ChainResult<R>,
    ) -> ChainResult<R>
    where
        C: Contract,
    {
        let slot = self
            .contracts
            .get_mut(&id)
            .ok_or(ChainError::UnknownContract(id))?;
        let mut boxed = slot.take().ok_or(ChainError::UnknownContract(id))?;
        if let Err((used, limit)) = self.gas.charge_call() {
            *self.contracts.get_mut(&id).expect("slot exists") = Some(boxed);
            return Err(ChainError::OutOfGas { used, limit });
        }
        let chain_now = self.chain_time(now);
        let result = {
            let concrete = match boxed.as_any_mut().downcast_mut::<C>() {
                Some(c) => c,
                None => {
                    *self.contracts.get_mut(&id).expect("slot exists") = Some(boxed);
                    return Err(ChainError::ContractTypeMismatch(id));
                }
            };
            let mut ctx = CallCtx {
                chain: self.id,
                contract: id,
                caller,
                now: chain_now,
                gas: &mut self.gas,
                assets: &mut self.assets,
                keys: &self.keys,
                log: &mut self.log,
                log_seq: &mut self.log_seq,
            };
            f(concrete, &mut ctx)
        };
        *self.contracts.get_mut(&id).expect("slot exists") = Some(boxed);
        result
    }

    /// Reads contract state without submitting a transaction (an off-chain
    /// `eth_call`): free of gas, immutable access only.
    pub fn view<C, R>(&self, id: ContractId, f: impl FnOnce(&C) -> R) -> ChainResult<R>
    where
        C: Contract,
    {
        let boxed = self
            .contracts
            .get(&id)
            .and_then(|slot| slot.as_ref())
            .ok_or(ChainError::UnknownContract(id))?;
        let concrete = boxed
            .as_any()
            .downcast_ref::<C>()
            .ok_or(ChainError::ContractTypeMismatch(id))?;
        Ok(f(concrete))
    }

    /// Number of contracts installed on this chain.
    pub fn contract_count(&self) -> usize {
        self.contracts.len()
    }
}

impl std::fmt::Debug for Blockchain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Blockchain")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("contracts", &self.contracts.len())
            .field("log_entries", &self.log.len())
            .field("gas", &self.gas.usage())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;

    #[derive(Default)]
    struct Counter {
        value: u64,
    }

    impl Contract for Counter {
        fn type_name(&self) -> &'static str {
            "counter"
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    impl Counter {
        fn bump(&mut self, ctx: &mut CallCtx<'_>, by: u64) -> ChainResult<u64> {
            ctx.charge_storage_write()?;
            self.value += by;
            ctx.emit("bump", &[self.value])?;
            Ok(self.value)
        }
    }

    fn chain() -> Blockchain {
        Blockchain::new(ChainId(0), "test-chain", Duration(10))
    }

    #[test]
    fn mint_transfer_and_holdings() {
        let mut l = AssetLedger::new();
        let alice = Owner::Party(PartyId(0));
        let bob = Owner::Party(PartyId(1));
        l.mint(alice, &Asset::fungible("coin", 100)).unwrap();
        l.mint(bob, &Asset::non_fungible("ticket", [1, 2])).unwrap();
        assert_eq!(l.balance(alice, &"coin".into()), 100);
        assert_eq!(l.token_owner(&"ticket".into(), TokenId(1)), Some(bob));

        l.transfer(alice, bob, &Asset::fungible("coin", 40))
            .unwrap();
        assert_eq!(l.balance(alice, &"coin".into()), 60);
        assert_eq!(l.balance(bob, &"coin".into()), 40);

        l.transfer(bob, alice, &Asset::non_fungible("ticket", [1]))
            .unwrap();
        assert_eq!(l.token_owner(&"ticket".into(), TokenId(1)), Some(alice));

        let holdings = l.holdings(alice);
        assert_eq!(holdings.balance(&"coin".into()), 60);
        assert!(holdings.contains(&Asset::non_fungible("ticket", [1])));
        assert_eq!(l.total_supply(&"coin".into()), 100);
        assert_eq!(l.owners().len(), 2);
    }

    #[test]
    fn transfer_rejects_overdraft_and_wrong_token_owner() {
        let mut l = AssetLedger::new();
        let alice = Owner::Party(PartyId(0));
        let bob = Owner::Party(PartyId(1));
        l.mint(alice, &Asset::fungible("coin", 10)).unwrap();
        l.mint(alice, &Asset::non_fungible("ticket", [7])).unwrap();
        assert!(matches!(
            l.transfer(alice, bob, &Asset::fungible("coin", 11)),
            Err(ChainError::InsufficientBalance { .. })
        ));
        assert!(matches!(
            l.transfer(bob, alice, &Asset::non_fungible("ticket", [7])),
            Err(ChainError::NotTokenOwner { .. })
        ));
        // failed transfers change nothing
        assert_eq!(l.balance(alice, &"coin".into()), 10);
    }

    #[test]
    fn double_mint_of_token_rejected() {
        let mut l = AssetLedger::new();
        let alice = Owner::Party(PartyId(0));
        l.mint(alice, &Asset::non_fungible("ticket", [1])).unwrap();
        assert!(l.mint(alice, &Asset::non_fungible("ticket", [1])).is_err());
    }

    #[test]
    fn contract_calls_charge_gas_and_mutate_state() {
        let mut c = chain();
        let id = c.install(Counter::default());
        let caller = Owner::Party(PartyId(3));
        let v = c
            .call(Time(25), caller, id, |ctr: &mut Counter, ctx| {
                ctr.bump(ctx, 5)
            })
            .unwrap();
        assert_eq!(v, 5);
        let v = c
            .call(Time(31), caller, id, |ctr: &mut Counter, ctx| {
                ctr.bump(ctx, 2)
            })
            .unwrap();
        assert_eq!(v, 7);
        assert_eq!(c.view(id, |ctr: &Counter| ctr.value).unwrap(), 7);
        let usage = c.gas_usage();
        assert_eq!(usage.calls, 2);
        assert_eq!(usage.storage_writes, 2);
        assert_eq!(usage.log_entries, 2);
        // chain time is quantized to the 10-tick block interval
        assert_eq!(c.log()[0].time, Time(20));
        assert_eq!(c.log()[1].time, Time(30));
    }

    #[test]
    fn call_unknown_or_mismatched_contract_fails() {
        let mut c = chain();
        let id = c.install(Counter::default());
        assert!(matches!(
            c.call(
                Time(0),
                Owner::Party(PartyId(0)),
                ContractId(999),
                |_: &mut Counter, _| Ok(())
            ),
            Err(ChainError::UnknownContract(_))
        ));

        struct Other;
        impl Contract for Other {
            fn type_name(&self) -> &'static str {
                "other"
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        assert!(matches!(
            c.call(
                Time(0),
                Owner::Party(PartyId(0)),
                id,
                |_: &mut Other, _| Ok(())
            ),
            Err(ChainError::ContractTypeMismatch(_))
        ));
        // contract survives the failed dispatch
        assert_eq!(c.contract_count(), 1);
        assert_eq!(c.view(id, |ctr: &Counter| ctr.value).unwrap(), 0);
    }

    #[test]
    fn log_from_returns_only_new_entries_and_advances_the_cursor() {
        let mut c = chain();
        let id = c.install(Counter::default());
        let caller = Owner::Party(PartyId(0));
        let mut cursor = LogCursor::new();
        assert!(c.log_from(&mut cursor).is_empty());
        for t in [5u64, 15] {
            c.call(Time(t), caller, id, |ctr: &mut Counter, ctx| {
                ctr.bump(ctx, 1)
            })
            .unwrap();
        }
        let fresh = c.log_from(&mut cursor);
        assert_eq!(fresh.len(), 2);
        assert_eq!(cursor.position(), 2);
        // Nothing new: the cursor does not re-deliver.
        assert!(c.log_from(&mut cursor).is_empty());
        c.call(Time(25), caller, id, |ctr: &mut Counter, ctx| {
            ctr.bump(ctx, 1)
        })
        .unwrap();
        let fresh = c.log_from(&mut cursor);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].seq, 3); // seq numbers are 1-based
                                     // A second, independent cursor still sees everything.
        let mut other = LogCursor::new();
        assert_eq!(c.log_from(&mut other).len(), 3);
    }

    #[test]
    fn filtered_log_reads_skip_foreign_tags_but_advance_the_cursor() {
        let mut c = chain();
        let id = c.install(Counter::default());
        let caller = Owner::Party(PartyId(0));
        // The Counter emits "bump" (EventTag::Other); emit one entry.
        c.call(Time(5), caller, id, |ctr: &mut Counter, ctx| {
            ctr.bump(ctx, 1)
        })
        .unwrap();
        assert_eq!(c.log()[0].tag, EventTag::Other);
        let mut cursor = LogCursor::new();
        let escrow_only = LogFilter::of([EventTag::Escrow]);
        assert_eq!(c.log_from_filtered(&mut cursor, escrow_only).count(), 0);
        // The cursor advanced past the skipped entry: nothing is re-delivered.
        assert_eq!(cursor.position(), 1);
        assert_eq!(
            c.log_from_filtered(&mut cursor, LogFilter::all()).count(),
            0
        );
        // Tag parsing covers the deal vocabulary.
        assert_eq!(EventTag::parse("escrow"), EventTag::Escrow);
        assert_eq!(EventTag::parse("commit-vote"), EventTag::CommitVote);
        assert_eq!(EventTag::parse("htlc-refunded"), EventTag::HtlcRefunded);
        assert_eq!(EventTag::parse("startDeal"), EventTag::Other);
        // Filter membership behaves like a set.
        let f = LogFilter::of([EventTag::Escrow, EventTag::CommitVote]);
        assert!(f.accepts(EventTag::Escrow));
        assert!(!f.accepts(EventTag::EscrowAborted));
        assert!(!LogFilter::none().accepts(EventTag::Escrow));
    }

    #[test]
    fn log_since_filters_by_time() {
        let mut c = chain();
        let id = c.install(Counter::default());
        let caller = Owner::Party(PartyId(0));
        for t in [5u64, 15, 25, 35] {
            c.call(Time(t), caller, id, |ctr: &mut Counter, ctx| {
                ctr.bump(ctx, 1)
            })
            .unwrap();
        }
        assert_eq!(c.log().len(), 4);
        assert_eq!(c.log_since(Time(20)).count(), 2);
        assert_eq!(c.log_since(Time(0)).count(), 4);
    }
}
