//! Differential test for the planner's one transfer-order search.
//! `DealPlan::new` checks a spec's shape and orders its tentative transfers
//! in one pass over interned assets, with tentative holdings in a flat table
//! of (chain, party, kind) accounts. The reference below is the search as it
//! was first written: `validate` followed by an ordering over name-keyed
//! [`AssetBag`]s per (chain, party). On seeded specs the two must agree
//! exactly: the same order on success, the same `DealError` (variant and
//! message) on failure, and `DealSpec::validate` must fail exactly when the
//! planner does.
//!
//! The specs cover the benchmark's random well-formed deals, broker,
//! auction and brokered-chain deals (non-fungible tickets), random custody
//! chains that mix fungible and non-fungible kinds (one name used for both)
//! with their transfers shuffled so the search needs several passes, and
//! one injected fault per broken spec: no parties, a duplicate party, a
//! non-party escrow owner or transfer endpoint, a self-transfer, an empty
//! asset, a sender that never owns the asset, or a forward of more than was
//! received.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xchain_deals::builders::{auction_spec, broker_spec_with, brokered_chain_spec, ring_spec};
use xchain_deals::error::DealError;
use xchain_deals::plan::DealPlan;
use xchain_deals::spec::{DealSpec, EscrowSpec, TransferSpec};
use xchain_harness::workload::{random_well_formed_deal, RandomDealParams};
use xchain_sim::asset::{Asset, AssetBag};
use xchain_sim::ids::{ChainId, DealId, PartyId};

const CASES: u64 = 3_000;

// ----------------------------------------------------------------------
// Reference: shape checks, then the ordering over name-keyed bags.
// ----------------------------------------------------------------------

fn invalid(msg: impl Into<String>) -> DealError {
    DealError::InvalidSpec(msg.into())
}

fn ref_order(spec: &DealSpec) -> Result<Vec<usize>, DealError> {
    if spec.parties.is_empty() {
        return Err(invalid("deal has no parties"));
    }
    let mut seen = Vec::new();
    for p in &spec.parties {
        if seen.contains(p) {
            return Err(invalid(format!("duplicate party {p}")));
        }
        seen.push(*p);
    }
    for e in &spec.escrows {
        if !spec.parties.contains(&e.owner) {
            return Err(invalid(format!("escrow owner {} not in plist", e.owner)));
        }
        if e.asset.is_empty() {
            return Err(invalid("empty escrow asset"));
        }
    }
    for t in &spec.transfers {
        if !spec.parties.contains(&t.from) || !spec.parties.contains(&t.to) {
            return Err(invalid(format!(
                "transfer {} -> {} involves a non-party",
                t.from, t.to
            )));
        }
        if t.from == t.to {
            return Err(invalid(format!("self-transfer by {}", t.from)));
        }
        if t.asset.is_empty() {
            return Err(invalid("empty transfer asset"));
        }
    }
    let mut owned: BTreeMap<(ChainId, PartyId), AssetBag> = BTreeMap::new();
    for e in &spec.escrows {
        owned.entry((e.chain, e.owner)).or_default().add(&e.asset);
    }
    let mut remaining: Vec<usize> = (0..spec.transfers.len()).collect();
    let mut order = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let mut progressed = false;
        let mut i = 0;
        while i < remaining.len() {
            let idx = remaining[i];
            let t = &spec.transfers[idx];
            let sender_has = owned
                .get(&(t.chain, t.from))
                .map(|b| b.contains(&t.asset))
                .unwrap_or(false);
            if sender_has {
                owned.entry((t.chain, t.from)).or_default().remove(&t.asset);
                owned.entry((t.chain, t.to)).or_default().add(&t.asset);
                order.push(idx);
                remaining.remove(i);
                progressed = true;
            } else {
                i += 1;
            }
        }
        if !progressed {
            return Err(invalid(
                "transfers cannot be ordered: some sender never owns what it sends",
            ));
        }
    }
    Ok(order)
}

// ----------------------------------------------------------------------
// Spec generators.
// ----------------------------------------------------------------------

/// Fungible kinds; `ticket` is also a non-fungible kind, so the search must
/// keep the two namespaces apart.
const FUNGIBLE: [&str; 3] = ["coin", "gold", "ticket"];
const NON_FUNGIBLE: [&str; 2] = ["ticket", "badge"];

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// Random custody chains: each asset is escrowed by one party and passed
/// along a path of distinct hops, a fungible one possibly in shrinking
/// slices. Several assets may share a chain, a kind, or both.
fn custody_spec(rng: &mut StdRng) -> DealSpec {
    let n = rng.gen_range(2..7u32);
    let parties: Vec<PartyId> = (0..n).map(PartyId).collect();
    let mut escrows = Vec::new();
    let mut transfers = Vec::new();
    for _ in 0..rng.gen_range(1..5u32) {
        let chain = ChainId(rng.gen_range(0..3u32));
        let fungible = rng.gen_bool(0.6);
        let kind = if fungible {
            FUNGIBLE[rng.gen_range(0..FUNGIBLE.len())]
        } else {
            NON_FUNGIBLE[rng.gen_range(0..NON_FUNGIBLE.len())]
        };
        let mut amount = rng.gen_range(2..40u64);
        let asset = |amount: u64, rng: &mut StdRng| {
            if fungible {
                Asset::fungible(kind, amount)
            } else {
                let first = rng.gen_range(1..9u64);
                Asset::non_fungible(kind, [first, first + 1])
            }
        };
        let mut holder = PartyId(rng.gen_range(0..n));
        let escrowed = asset(amount, rng);
        escrows.push(EscrowSpec {
            owner: holder,
            chain,
            asset: escrowed.clone(),
        });
        let mut moving = escrowed;
        for _ in 0..rng.gen_range(1..4u32) {
            let next = PartyId((holder.0 + rng.gen_range(1..n)) % n);
            if fungible && rng.gen_bool(0.4) {
                amount = rng.gen_range(1..=amount);
                moving = asset(amount, rng);
            }
            transfers.push(TransferSpec {
                from: holder,
                to: next,
                chain,
                asset: moving.clone(),
            });
            holder = next;
        }
    }
    DealSpec::new(
        DealId(rng.gen_range(0..1_000u64)),
        parties,
        escrows,
        transfers,
    )
}

/// A well-formed spec from one of the library's builders or generators.
fn built_spec(rng: &mut StdRng) -> DealSpec {
    let deal = DealId(rng.gen_range(0..1_000u64));
    match rng.gen_range(0..5u32) {
        0 | 1 => {
            let params = RandomDealParams {
                parties: rng.gen_range(2..6u32),
                extra_transfers: rng.gen_range(0..4u32),
                amount: rng.gen_range(2..200u64),
            };
            random_well_formed_deal(deal, &params, rng.gen_range(0..u64::MAX))
        }
        2 => {
            let wholesale = rng.gen_range(1..100u64);
            broker_spec_with(deal, wholesale, wholesale + rng.gen_range(0..10u64))
        }
        3 => {
            let bids: Vec<u64> = (0..rng.gen_range(1..5u32))
                .map(|_| rng.gen_range(1..100u64))
                .collect();
            auction_spec(deal, &bids)
        }
        _ => {
            if rng.gen_bool(0.5) {
                brokered_chain_spec(deal, rng.gen_range(3..7u32), rng.gen_range(1..50u64))
            } else {
                ring_spec(deal, rng.gen_range(2..7u32))
            }
        }
    }
}

/// The empty counterpart of an asset: zero amount, or no tokens.
fn emptied(asset: &Asset) -> Asset {
    match asset {
        Asset::Fungible { kind, .. } => Asset::fungible(kind.clone(), 0),
        Asset::NonFungible { kind, .. } => Asset::non_fungible(kind.clone(), []),
    }
}

/// A larger counterpart of an asset: one more unit, or one more token.
fn enlarged(asset: &Asset) -> Asset {
    match asset {
        Asset::Fungible { kind, amount } => Asset::fungible(kind.clone(), amount + 1),
        Asset::NonFungible { kind, tokens } => {
            let next = tokens.iter().max().map_or(1, |t| t.0 + 1);
            Asset::non_fungible(kind.clone(), tokens.iter().map(|t| t.0).chain([next]))
        }
    }
}

/// Injects one fault into `spec`. Returns false if the spec has nothing
/// the chosen fault could apply to.
fn break_spec(rng: &mut StdRng, spec: &mut DealSpec) -> bool {
    let outsider = PartyId(99);
    let pick = |rng: &mut StdRng, len: usize| rng.gen_range(0..len);
    match rng.gen_range(0..9u32) {
        0 => spec.parties.clear(),
        1 => {
            let dup = spec.parties[pick(rng, spec.parties.len())];
            let at = rng.gen_range(0..=spec.parties.len());
            spec.parties.insert(at, dup);
        }
        2 if !spec.escrows.is_empty() => {
            let i = pick(rng, spec.escrows.len());
            spec.escrows[i].owner = outsider;
        }
        3 if !spec.escrows.is_empty() => {
            let i = pick(rng, spec.escrows.len());
            spec.escrows[i].asset = emptied(&spec.escrows[i].asset);
        }
        4 => {
            let i = pick(rng, spec.transfers.len());
            if rng.gen_bool(0.5) {
                spec.transfers[i].from = outsider;
            } else {
                spec.transfers[i].to = outsider;
            }
        }
        5 => {
            let i = pick(rng, spec.transfers.len());
            spec.transfers[i].to = spec.transfers[i].from;
        }
        6 => {
            let i = pick(rng, spec.transfers.len());
            spec.transfers[i].asset = emptied(&spec.transfers[i].asset);
        }
        // A sender that never owns what it sends.
        7 if !spec.escrows.is_empty() => {
            spec.escrows.remove(pick(rng, spec.escrows.len()));
        }
        // A forward of more than was received.
        8 => {
            let i = pick(rng, spec.transfers.len());
            spec.transfers[i].asset = enlarged(&spec.transfers[i].asset);
        }
        _ => return false,
    }
    true
}

fn random_spec(rng: &mut StdRng) -> DealSpec {
    let mut spec = if rng.gen_bool(0.5) {
        custody_spec(rng)
    } else {
        built_spec(rng)
    };
    if rng.gen_bool(0.5) {
        shuffle(rng, &mut spec.transfers);
    }
    if rng.gen_bool(0.5) {
        break_spec(rng, &mut spec);
    }
    spec
}

// ----------------------------------------------------------------------
// The comparison.
// ----------------------------------------------------------------------

/// What a case came to, for the rarity guard.
fn verdict(result: &Result<Vec<usize>, DealError>) -> &'static str {
    let Err(DealError::InvalidSpec(msg)) = result else {
        return match result {
            Ok(order) if order.windows(2).any(|w| w[0] > w[1]) => "ordered in several passes",
            Ok(_) => "ordered in one pass",
            Err(_) => "another error",
        };
    };
    [
        "deal has no parties",
        "duplicate party",
        "escrow owner",
        "empty escrow asset",
        "involves a non-party",
        "self-transfer",
        "empty transfer asset",
        "cannot be ordered",
    ]
    .into_iter()
    .find(|prefix| msg.contains(prefix))
    .unwrap_or("another message")
}

#[test]
fn the_planner_orders_and_rejects_exactly_as_the_named_bag_search() {
    let mut seen: BTreeMap<&'static str, u32> = BTreeMap::new();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x0DE2 ^ case);
        let spec = random_spec(&mut rng);
        let expected = ref_order(&spec);
        let planned = DealPlan::new(&spec).map(|plan| plan.transfer_order().to_vec());
        assert_eq!(planned, expected, "case {case}: {spec:?}");
        assert_eq!(
            spec.validate(),
            expected.as_ref().map(drop).map_err(Clone::clone),
            "case {case}: validate"
        );
        *seen.entry(verdict(&expected)).or_default() += 1;
    }
    // Every branch of both searches must stay exercised: a generator change
    // that stops reaching one fails here instead of passing vacuously.
    for branch in [
        "ordered in one pass",
        "ordered in several passes",
        "deal has no parties",
        "duplicate party",
        "escrow owner",
        "empty escrow asset",
        "involves a non-party",
        "self-transfer",
        "empty transfer asset",
        "cannot be ordered",
    ] {
        let n = seen.get(branch).copied().unwrap_or(0);
        assert!(n >= 100, "only {n} cases reached {branch:?}: {seen:?}");
    }
    assert!(!seen.contains_key("another error") && !seen.contains_key("another message"));
}
