//! The simulation world: a collection of independent blockchains, the parties
//! that act on them, a global logical clock, and the network timing model.
//!
//! The world is deliberately *not* an actor framework: the deal protocol
//! engines (in `xchain-deals`) decide who acts when, because the timing of
//! party actions *is* the protocol. The world provides the shared pieces:
//! chains, keys, time, observation delays, offline windows and gas totals.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::asset::{Asset, AssetBag};
use crate::contract::{CallCtx, Contract};
use crate::crypto::{KeyDirectory, KeyPair};
use crate::error::{ChainError, ChainResult};
use crate::gas::GasUsage;
use crate::ids::{ChainId, ContractId, Owner, PartyId};
use crate::intern::KindTable;
use crate::ledger::{Blockchain, HoldingsKey};
use crate::network::{NetworkModel, OfflineSchedule};
use crate::time::{Duration, Time};

/// The multi-chain simulation world.
pub struct World {
    clock: Time,
    /// Chains indexed by [`ChainId`]: ids are dense from 0.
    chains: Vec<Blockchain>,
    /// The public-key directory every chain shares (until a chain registers
    /// a key of its own; see [`Blockchain::register_key`]).
    keys: Arc<KeyDirectory>,
    parties: BTreeMap<PartyId, KeyPair>,
    next_party: u32,
    network: NetworkModel,
    offline: OfflineSchedule,
    rng: StdRng,
    seed: u64,
    kinds: KindTable,
}

impl World {
    /// Creates a world with a deterministic seed and the default synchronous
    /// network model.
    pub fn new(seed: u64) -> Self {
        World::with_network(seed, NetworkModel::default())
    }

    /// Creates a world with an explicit network model.
    pub fn with_network(seed: u64, network: NetworkModel) -> Self {
        World::with_network_and_kinds(seed, network, KindTable::new())
    }

    /// Creates a world whose asset-kind table starts from `kinds` (typically
    /// a [`KindTable::fork`] of a pre-resolved deal plan's canonical table,
    /// so every id the plan assigned is valid on this world's chains). The
    /// table is adopted as-is: pass a fork, not a shared handle, unless you
    /// want later interning to flow back to the source.
    pub fn with_network_and_kinds(seed: u64, network: NetworkModel, kinds: KindTable) -> Self {
        World {
            clock: Time::ZERO,
            chains: Vec::new(),
            keys: Arc::new(KeyDirectory::new()),
            parties: BTreeMap::new(),
            next_party: 0,
            network,
            offline: OfflineSchedule::new(),
            rng: StdRng::seed_from_u64(seed),
            seed,
            kinds,
        }
    }

    /// The seed this world was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The network model in force.
    pub fn network(&self) -> NetworkModel {
        self.network
    }

    /// The current global clock.
    pub fn now(&self) -> Time {
        self.clock
    }

    /// Advances the clock to `t` (no-op if `t` is in the past).
    pub fn advance_to(&mut self, t: Time) {
        if t > self.clock {
            self.clock = t;
        }
    }

    /// Advances the clock by `d`.
    pub fn advance_by(&mut self, d: Duration) {
        self.clock += d;
    }

    // ------------------------------------------------------------------
    // Chains
    // ------------------------------------------------------------------

    /// The world-owned asset-kind interner. Every chain created by
    /// [`World::add_chain`] shares it, so a kind name resolves to the same
    /// [`crate::intern::KindId`] on all of this world's chains.
    pub fn kinds(&self) -> &KindTable {
        &self.kinds
    }

    /// Creates a new blockchain with the given name and block interval and
    /// returns its id (the next dense id from 0). It shares the world's kind
    /// table and key directory, so every existing party's key verifies on it.
    pub fn add_chain(&mut self, name: &str, block_interval: Duration) -> ChainId {
        let id = ChainId(self.chains.len() as u32);
        self.chains.push(Blockchain::with_kinds_and_keys(
            id,
            name,
            block_interval,
            self.kinds.clone(),
            Arc::clone(&self.keys),
        ));
        id
    }

    /// Adds `n` chains without names (their ids continue densely from the
    /// chains already present), growing the chain table at most once. This is
    /// how a deal plan's world gets its chains: a chain's name only shows in
    /// its `Debug` output, so naming each one would copy a string per chain
    /// for nothing.
    pub fn add_chains(&mut self, n: usize, block_interval: Duration) {
        self.chains.reserve_exact(n);
        for _ in 0..n {
            self.add_chain("", block_interval);
        }
    }

    /// Immutable access to a chain.
    pub fn chain(&self, id: ChainId) -> ChainResult<&Blockchain> {
        self.chains
            .get(id.0 as usize)
            .ok_or(ChainError::UnknownChain(id))
    }

    /// Mutable access to a chain.
    pub fn chain_mut(&mut self, id: ChainId) -> ChainResult<&mut Blockchain> {
        self.chains
            .get_mut(id.0 as usize)
            .ok_or(ChainError::UnknownChain(id))
    }

    /// Ids of all chains in creation order.
    pub fn chain_ids(&self) -> Vec<ChainId> {
        (0..self.chains.len() as u32).map(ChainId).collect()
    }

    /// Registers keys on every chain of the world at once: `register`
    /// writes them into the shared directory (copied first only if a chain
    /// still reads the old version), every chain that shares the directory
    /// then reads the new version, and a chain with a private directory
    /// gets the same registration applied to its copy. `additional` is how
    /// many keys `register` adds, so the directory grows at most once.
    pub fn register_keys(&mut self, additional: usize, register: impl Fn(&mut KeyDirectory)) {
        match Arc::get_mut(&mut self.keys) {
            Some(dir) => {
                dir.reserve(additional);
                register(dir);
            }
            None => {
                let mut dir = self.keys.copy_with_room(additional);
                register(&mut dir);
                self.keys = Arc::new(dir);
            }
        }
        for chain in &mut self.chains {
            chain.follow_world_keys(&self.keys, &register);
        }
    }

    // ------------------------------------------------------------------
    // Parties
    // ------------------------------------------------------------------

    /// Creates a new party, derives its key pair, and registers the public key
    /// on every chain.
    pub fn add_party(&mut self) -> PartyId {
        PartyId(self.create_parties(1).start)
    }

    /// Creates `n` parties, registers their keys on every chain with one
    /// [`World::register_keys`] update, and returns their ids.
    pub fn add_parties(&mut self, n: usize) -> Vec<PartyId> {
        self.create_parties(n).map(PartyId).collect()
    }

    /// Creates `n` parties and returns the range of their ids.
    fn create_parties(&mut self, n: usize) -> std::ops::Range<u32> {
        let ids = self.next_party..self.next_party + n as u32;
        self.next_party = ids.end;
        let seed = self.seed;
        self.register_keys(n, |dir| {
            for id in ids.clone().map(PartyId) {
                dir.register(id, &KeyPair::derive(id, seed));
            }
        });
        for id in ids.clone().map(PartyId) {
            self.parties.insert(id, KeyPair::derive(id, seed));
        }
        ids
    }

    /// True if `party` exists in this world.
    pub fn has_party(&self, party: PartyId) -> bool {
        self.parties.contains_key(&party)
    }

    /// The key pair of a party. Protocol engines call this only on behalf of
    /// the party whose action they are simulating; that discipline is the
    /// simulation counterpart of "only the key holder can sign".
    pub fn key_pair(&self, party: PartyId) -> ChainResult<&KeyPair> {
        self.parties
            .get(&party)
            .ok_or_else(|| ChainError::Other(format!("unknown party {party}")))
    }

    // ------------------------------------------------------------------
    // Availability / network
    // ------------------------------------------------------------------

    /// Marks a party offline during `[from, until)`.
    pub fn set_offline(&mut self, party: PartyId, from: Time, until: Time) {
        self.offline.add(party, from, until);
    }

    /// True if the party is offline at time `t`.
    pub fn is_offline(&self, party: PartyId, t: Time) -> bool {
        self.offline.is_offline(party, t)
    }

    /// Mutable access to the world RNG (adversary strategies and workload
    /// generators use this so runs stay reproducible from the world seed).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    // ------------------------------------------------------------------
    // Convenience wrappers
    // ------------------------------------------------------------------

    /// Mints assets to a party on a chain (workload setup).
    pub fn mint(&mut self, chain: ChainId, owner: Owner, asset: &Asset) -> ChainResult<()> {
        self.chain_mut(chain)?.mint(owner, asset)
    }

    /// [`World::mint`] for a pre-interned asset (plan-based world setup).
    pub fn mint_interned(
        &mut self,
        chain: ChainId,
        owner: Owner,
        asset: &crate::intern::InternedAsset,
    ) -> ChainResult<()> {
        self.chain_mut(chain)?.mint_interned(owner, asset)
    }

    /// Submits a contract call from `caller` at the current clock, rejecting
    /// it if the caller is a party that is currently offline.
    pub fn call<C, R>(
        &mut self,
        chain: ChainId,
        caller: Owner,
        contract: ContractId,
        f: impl FnOnce(&mut C, &mut CallCtx<'_>) -> ChainResult<R>,
    ) -> ChainResult<R>
    where
        C: Contract,
    {
        if let Owner::Party(p) = caller {
            if self.offline.is_offline(p, self.clock) {
                return Err(ChainError::PartyOffline(p));
            }
        }
        let now = self.clock;
        self.chain_mut(chain)?.call(now, caller, contract, f)
    }

    /// Everything `owner` holds across all chains.
    pub fn holdings(&self, owner: Owner) -> AssetBag {
        self.collect_holdings(BTreeMap::from([(owner, AssetBag::new())]))
            .into_values()
            .next()
            .unwrap_or_default()
    }

    /// Everything each of `parties` holds across all chains, keyed by party
    /// (a party that holds nothing maps to an empty bag). This is the deal
    /// engines' before/after snapshot: it walks each chain once for all the
    /// parties and borrows kind names from the kind table, copying a name
    /// only into a bag that does not hold that kind yet.
    pub fn holdings_by_party(&self, parties: &[PartyId]) -> BTreeMap<PartyId, AssetBag> {
        self.collect_holdings(parties.iter().map(|&p| (p, AssetBag::new())).collect())
    }

    /// Fills `bags` with what each keyed owner holds on every chain. Every
    /// chain shares the world's kind table, so one read of it names the
    /// kinds of the whole walk.
    fn collect_holdings<K: HoldingsKey>(
        &self,
        mut bags: BTreeMap<K, AssetBag>,
    ) -> BTreeMap<K, AssetBag> {
        self.kinds.with_interner(|names| {
            for chain in &self.chains {
                chain.assets().collect_holdings(&mut bags, names);
            }
        });
        bags
    }

    /// Total gas used across all chains.
    pub fn total_gas(&self) -> GasUsage {
        self.chains
            .iter()
            .fold(GasUsage::ZERO, |acc, c| acc + c.gas_usage())
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("clock", &self.clock)
            .field("chains", &self.chains.len())
            .field("parties", &self.parties.len())
            .field("network", &self.network)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_setup_and_clock() {
        let mut w = World::new(7);
        let c1 = w.add_chain("coins", Duration(10));
        let p1 = w.add_party();
        let c2 = w.add_chain("tickets", Duration(10));
        assert_eq!(w.chain_ids(), vec![c1, c2]);
        assert!(w.has_party(p1) && !w.has_party(PartyId(p1.0 + 1)));
        // party key is registered on both chains, including the one created later
        assert!(w.chain(c1).unwrap().keys().public_key_of(p1).is_some());
        assert!(w.chain(c2).unwrap().keys().public_key_of(p1).is_some());

        assert_eq!(w.now(), Time(0));
        w.advance_by(Duration(50));
        w.advance_to(Time(30)); // no going back
        assert_eq!(w.now(), Time(50));
    }

    #[test]
    fn every_chain_knows_every_key_whichever_is_added_first() {
        let chains_first = {
            let mut w = World::new(4);
            let chains = [w.add_chain("a", Duration(1)), w.add_chain("b", Duration(1))];
            let parties = w.add_parties(3);
            (w, chains, parties)
        };
        let parties_first = {
            let mut w = World::new(4);
            let parties = w.add_parties(3);
            let chains = [w.add_chain("a", Duration(1)), w.add_chain("b", Duration(1))];
            (w, chains, parties)
        };
        for (w, chains, parties) in [chains_first, parties_first] {
            let [a, b] = chains.map(|c| w.chain(c).unwrap());
            // One directory for the whole world.
            assert!(std::ptr::eq(a.keys(), b.keys()));
            for &p in &parties {
                let pk = w.key_pair(p).unwrap().public();
                for chain in [a, b] {
                    assert_eq!(chain.keys().public_key_of(p), Some(pk));
                    let sig = w.key_pair(p).unwrap().sign_words(&[7, 8]);
                    assert!(chain.keys().verify_words(&sig, &[7, 8]));
                }
            }
            assert_eq!(a.keys().len(), parties.len());
        }
    }

    #[test]
    fn a_chain_registration_stays_on_that_chain() {
        let mut w = World::new(5);
        let [c0, c1, c2] = [0, 1, 2].map(|_| w.add_chain("x", Duration(1)));
        let p = w.add_party();
        let outsider = PartyId(900);
        let kp = KeyPair::derive(outsider, 99);
        w.chain_mut(c1).unwrap().register_key(outsider, &kp);
        let sig = kp.sign_words(&[1]);
        let verifies = |w: &World, c: ChainId| w.chain(c).unwrap().keys().verify_words(&sig, &[1]);
        assert!(verifies(&w, c1));
        assert!(!verifies(&w, c0) && !verifies(&w, c2));
        assert!(w
            .chain(c0)
            .unwrap()
            .keys()
            .public_key_of(outsider)
            .is_none());
        // The untouched chains still share one directory; c1 has its own.
        let keys = |c: ChainId| w.chain(c).unwrap().keys();
        assert!(std::ptr::eq(keys(c0), keys(c2)));
        assert!(!std::ptr::eq(keys(c0), keys(c1)));
        // A later world-wide registration reaches the private copy as well,
        // and the private key still stays on its chain.
        let q = w.add_party();
        for c in [c0, c1, c2] {
            let keys = w.chain(c).unwrap().keys();
            assert!(keys.public_key_of(p).is_some() && keys.public_key_of(q).is_some());
        }
        assert!(verifies(&w, c1));
        assert!(!verifies(&w, c0) && !verifies(&w, c2));
    }

    #[test]
    fn chain_ids_are_dense_and_unknown_ids_fail() {
        let mut w = World::new(1);
        w.add_chains(2, Duration(1));
        let named = w.add_chain("x", Duration(1));
        let ids = [ChainId(0), ChainId(1), ChainId(2)];
        assert_eq!(named, ids[2]);
        assert_eq!(w.chain_ids(), ids);
        assert_eq!(w.chain(ChainId(2)).unwrap().id(), ChainId(2));
        assert_eq!(w.chain(ChainId(1)).unwrap().name(), "");
        assert_eq!(w.chain(ChainId(2)).unwrap().name(), "x");
        assert!(matches!(
            w.chain(ChainId(3)),
            Err(ChainError::UnknownChain(ChainId(3)))
        ));
        assert!(w.chain_mut(ChainId(7)).is_err());
        let p = w.add_party();
        assert!(w.has_party(p) && !w.has_party(PartyId(1)));
    }

    #[test]
    fn holdings_span_chains() {
        let mut w = World::new(1);
        let c1 = w.add_chain("coins", Duration(1));
        let c2 = w.add_chain("tickets", Duration(1));
        let p = w.add_party();
        w.mint(c1, Owner::Party(p), &Asset::fungible("coin", 10))
            .unwrap();
        w.mint(c2, Owner::Party(p), &Asset::non_fungible("ticket", [1]))
            .unwrap();
        let bag = w.holdings(Owner::Party(p));
        assert_eq!(bag.balance(&"coin".into()), 10);
        assert!(bag.contains(&Asset::non_fungible("ticket", [1])));
    }

    #[test]
    fn holdings_by_party_matches_per_owner_holdings() {
        use crate::ids::ContractId;

        let mut w = World::new(2);
        let coins = w.add_chain("coins", Duration(1));
        let more_coins = w.add_chain("more coins", Duration(1));
        let tickets = w.add_chain("tickets", Duration(1));
        let [a, b, idle] = [w.add_party(), w.add_party(), w.add_party()];
        let escrow = Owner::Contract(ContractId(0));
        w.mint(coins, Owner::Party(a), &Asset::fungible("coin", 10))
            .unwrap();
        // The same kind on a second chain adds up.
        w.mint(more_coins, Owner::Party(a), &Asset::fungible("coin", 5))
            .unwrap();
        w.mint(coins, Owner::Party(b), &Asset::fungible("gold", 3))
            .unwrap();
        w.mint(coins, escrow, &Asset::fungible("coin", 7)).unwrap();
        w.mint(
            tickets,
            Owner::Party(a),
            &Asset::non_fungible("ticket", [1, 4]),
        )
        .unwrap();
        w.mint(
            tickets,
            Owner::Party(b),
            &Asset::non_fungible("ticket", [2]),
        )
        .unwrap();
        w.mint(tickets, escrow, &Asset::non_fungible("ticket", [3]))
            .unwrap();

        let snapshot = w.holdings_by_party(&[b, idle, a]);
        assert_eq!(
            snapshot.keys().copied().collect::<Vec<_>>(),
            vec![a, b, idle]
        );
        for (&p, bag) in &snapshot {
            assert_eq!(bag, &w.holdings(Owner::Party(p)), "{p}");
        }
        assert_eq!(snapshot[&a].balance(&"coin".into()), 15);
        assert_eq!(snapshot[&a].tokens(&"ticket".into()).len(), 2);
        assert!(snapshot[&b].contains(&Asset::fungible("gold", 3)));
        assert!(snapshot[&b].contains(&Asset::non_fungible("ticket", [2])));
        assert!(snapshot[&idle].is_empty());
        // Contract-held assets belong to no party.
        let held = w.holdings(escrow);
        assert_eq!(held.balance(&"coin".into()), 7);
        assert!(held.contains(&Asset::non_fungible("ticket", [3])));
    }

    #[test]
    fn offline_party_cannot_call() {
        use crate::contract::Contract;
        use std::any::Any;

        struct Noop;
        impl Contract for Noop {
            fn type_name(&self) -> &'static str {
                "noop"
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut w = World::new(9);
        let c = w.add_chain("x", Duration(1));
        let p = w.add_party();
        let cid = w.chain_mut(c).unwrap().install(Noop);
        w.set_offline(p, Time(0), Time(10));
        let err = w
            .call(c, Owner::Party(p), cid, |_: &mut Noop, _| Ok(()))
            .unwrap_err();
        assert_eq!(err, ChainError::PartyOffline(p));
        w.advance_to(Time(10));
        assert!(w
            .call(c, Owner::Party(p), cid, |_: &mut Noop, _| Ok(()))
            .is_ok());
        assert_eq!(w.total_gas().calls, 1);
    }

    #[test]
    fn same_seed_same_observation_sequence() {
        let sample = |seed: u64| {
            let mut w = World::with_network(seed, NetworkModel::synchronous(100));
            (0..10)
                .map(|i| w.network().sample_delay(Time(i * 10), w.rng()).ticks())
                .collect::<Vec<_>>()
        };
        assert_eq!(sample(5), sample(5));
        assert_ne!(sample(5), sample(6));
    }
}
