//! Differential test for the property checks: `check_safety`,
//! `check_conservation`, `check_weak_liveness` and `check_strong_liveness`
//! read holdings by reference, one asset kind at a time. The reference
//! implementations below compute the same properties over whole
//! [`AssetBag`]s (set differences, unions and `covers`), as the checks were
//! first written. On seeded random outcomes the two must agree exactly,
//! down to the parties and detail strings of every safety violation.
//!
//! The outcomes are deliberately messy: fungible and non-fungible kinds
//! (one name used for both), parties missing from the holdings maps,
//! partial payment and over-payment, unresolved and missing chains, and
//! deviating or explicitly compliant configurations.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xchain_deals::outcome::{ChainResolution, DealOutcome, ProtocolKind};
use xchain_deals::party::{config_of, PartyConfig};
use xchain_deals::phases::PhaseMetrics;
use xchain_deals::properties::{
    check_conservation, check_safety, check_strong_liveness, check_weak_liveness, SafetyReport,
    SafetyViolation,
};
use xchain_deals::spec::{DealSpec, EscrowSpec, TransferSpec};
use xchain_deals::strategy::strategies;
use xchain_sim::asset::{Asset, AssetBag};
use xchain_sim::ids::{ChainId, DealId, PartyId};
use xchain_sim::time::Duration;

const CASES: u64 = 4_000;

// ----------------------------------------------------------------------
// Reference implementations, over whole bags.
// ----------------------------------------------------------------------

fn ref_bag_minus(a: &AssetBag, b: &AssetBag) -> AssetBag {
    let mut out = AssetBag::new();
    for (kind, amount) in a.fungible_holdings() {
        let other = b.balance(kind);
        if amount > other {
            out.add(&Asset::Fungible {
                kind: kind.clone(),
                amount: amount - other,
            });
        }
    }
    for (kind, tokens) in a.non_fungible_holdings() {
        let other = b.tokens(kind);
        let missing: BTreeSet<_> = tokens.difference(&other).copied().collect();
        if !missing.is_empty() {
            out.add(&Asset::NonFungible {
                kind: kind.clone(),
                tokens: missing,
            });
        }
    }
    out
}

fn ref_with_incoming(initial: &AssetBag, incoming: &AssetBag) -> AssetBag {
    let mut with_incoming = initial.clone();
    for (kind, amount) in incoming.fungible_holdings() {
        with_incoming.add(&Asset::Fungible {
            kind: kind.clone(),
            amount,
        });
    }
    for (kind, tokens) in incoming.non_fungible_holdings() {
        with_incoming.add(&Asset::NonFungible {
            kind: kind.clone(),
            tokens: tokens.clone(),
        });
    }
    with_incoming
}

fn ref_check_safety(
    spec: &DealSpec,
    configs: &[PartyConfig],
    outcome: &DealOutcome,
) -> SafetyReport {
    let mut report = SafetyReport::default();
    for &p in &spec.parties {
        if !config_of(configs, p).is_compliant() {
            continue;
        }
        let initial = outcome.initial_of(p).clone();
        let fin = outcome.final_of(p).clone();
        let lost = ref_bag_minus(&initial, &fin);
        let expected_in = spec.incoming_of(p);
        let expected_out = spec.outgoing_of(p);
        if !lost.is_empty() {
            let floor = ref_bag_minus(&ref_with_incoming(&initial, &expected_in), &expected_out);
            if !fin.covers(&floor) {
                report.violations.push(SafetyViolation {
                    party: p,
                    detail: format!(
                        "paid {lost} but ended with {fin}, below the full-deal floor {floor}"
                    ),
                });
            }
        }
        if !expected_out.covers(&lost) {
            report.violations.push(SafetyViolation {
                party: p,
                detail: format!(
                    "relinquished {lost}, more than the agreed outgoing assets {expected_out}"
                ),
            });
        }
    }
    report
}

fn ref_check_weak_liveness(
    spec: &DealSpec,
    configs: &[PartyConfig],
    outcome: &DealOutcome,
) -> bool {
    for e in &spec.escrows {
        if !config_of(configs, e.owner).is_compliant() {
            continue;
        }
        match outcome.resolutions.get(&e.chain) {
            Some(ChainResolution::Unresolved) | None => return false,
            _ => {}
        }
    }
    true
}

fn ref_check_strong_liveness(
    spec: &DealSpec,
    configs: &[PartyConfig],
    outcome: &DealOutcome,
) -> bool {
    if !spec
        .parties
        .iter()
        .all(|p| config_of(configs, *p).is_compliant())
    {
        return true;
    }
    for &p in &spec.parties {
        let initial = outcome.initial_of(p).clone();
        let fin = outcome.final_of(p).clone();
        let expected = ref_bag_minus(
            &ref_with_incoming(&initial, &spec.incoming_of(p)),
            &spec.outgoing_of(p),
        );
        if !(fin.covers(&expected) && expected.covers(&fin)) {
            return false;
        }
    }
    true
}

fn ref_check_conservation(spec: &DealSpec, outcome: &DealOutcome) -> bool {
    if !outcome.fully_resolved() {
        return true;
    }
    let mut kinds = Vec::new();
    for e in &spec.escrows {
        let k = e.asset.kind().clone();
        if !kinds.contains(&k) {
            kinds.push(k);
        }
    }
    for kind in kinds {
        let initial: u64 = spec
            .parties
            .iter()
            .map(|p| outcome.initial_of(*p).clone().balance(&kind))
            .sum();
        let fin: u64 = spec
            .parties
            .iter()
            .map(|p| outcome.final_of(*p).clone().balance(&kind))
            .sum();
        if initial != fin {
            return false;
        }
    }
    true
}

// ----------------------------------------------------------------------
// Random outcomes.
// ----------------------------------------------------------------------

/// Fungible kinds; `ticket` is also a non-fungible kind, so the checks must
/// keep the two namespaces apart.
const FUNGIBLE: [&str; 3] = ["coin", "gold", "ticket"];
const NON_FUNGIBLE: [&str; 2] = ["ticket", "badge"];

fn random_asset(rng: &mut StdRng) -> Asset {
    if rng.gen_bool(0.6) {
        let kind = FUNGIBLE[rng.gen_range(0..FUNGIBLE.len())];
        Asset::fungible(kind, rng.gen_range(1..20u64))
    } else {
        let kind = NON_FUNGIBLE[rng.gen_range(0..NON_FUNGIBLE.len())];
        let first = rng.gen_range(1..7u64);
        let tokens: Vec<u64> = if rng.gen_bool(0.3) {
            vec![first, first % 6 + 1]
        } else {
            vec![first]
        };
        Asset::non_fungible(kind, tokens)
    }
}

fn chain_of(asset: &Asset) -> ChainId {
    let ix = match asset {
        Asset::Fungible { kind, .. } => FUNGIBLE.iter().position(|k| *k == kind.name()),
        Asset::NonFungible { kind, .. } => NON_FUNGIBLE
            .iter()
            .position(|k| *k == kind.name())
            .map(|i| i + FUNGIBLE.len()),
    };
    ChainId(ix.expect("a generated kind") as u32)
}

fn random_spec(rng: &mut StdRng) -> DealSpec {
    let n = rng.gen_range(2..6u32);
    let parties: Vec<PartyId> = (0..n).map(PartyId).collect();
    let mut transfers = Vec::new();
    for _ in 0..rng.gen_range(1..7u32) {
        let from = PartyId(rng.gen_range(0..n));
        let to = PartyId((from.0 + rng.gen_range(1..n)) % n);
        let asset = random_asset(rng);
        transfers.push(TransferSpec {
            from,
            to,
            chain: chain_of(&asset),
            asset,
        });
    }
    let mut escrows: Vec<EscrowSpec> = transfers
        .iter()
        .map(|t| EscrowSpec {
            owner: t.from,
            chain: t.chain,
            asset: t.asset.clone(),
        })
        .collect();
    if rng.gen_bool(0.2) {
        let asset = random_asset(rng);
        escrows.push(EscrowSpec {
            owner: PartyId(rng.gen_range(0..n)),
            chain: chain_of(&asset),
            asset,
        });
    }
    DealSpec::new(
        DealId(rng.gen_range(0..1_000u64)),
        parties,
        escrows,
        transfers,
    )
}

fn random_bag(rng: &mut StdRng) -> AssetBag {
    let mut bag = AssetBag::new();
    for _ in 0..rng.gen_range(0..3u32) {
        bag.add(&random_asset(rng));
    }
    bag
}

/// Moves `asset` from `from` to `to` if `from` holds it.
fn apply(bags: &mut [AssetBag], from: PartyId, to: PartyId, asset: &Asset) {
    if bags[from.0 as usize].remove(asset) {
        bags[to.0 as usize].add(asset);
    }
}

fn random_outcome(rng: &mut StdRng, spec: &DealSpec) -> DealOutcome {
    // Every party starts with what it is to send, plus some extras.
    let mut initial: Vec<AssetBag> = spec.parties.iter().map(|_| random_bag(rng)).collect();
    for t in &spec.transfers {
        initial[t.from.0 as usize].add(&t.asset);
    }
    let mut fin = initial.clone();
    match rng.gen_range(0..6u32) {
        // The whole deal.
        0 | 1 => spec
            .transfers
            .iter()
            .for_each(|t| apply(&mut fin, t.from, t.to, &t.asset)),
        // Nothing moves.
        2 => {}
        // Partial payment: a random subset of the transfers.
        3 => {
            for t in &spec.transfers {
                if rng.gen_bool(0.5) {
                    apply(&mut fin, t.from, t.to, &t.asset);
                }
            }
        }
        // Over-payment: the whole deal, then a party loses more.
        4 => {
            for t in &spec.transfers {
                apply(&mut fin, t.from, t.to, &t.asset);
            }
            let loser = rng.gen_range(0..fin.len());
            let extra = random_asset(rng);
            if !fin[loser].remove(&extra) {
                fin[loser] = AssetBag::new();
            }
        }
        // Anything at all.
        _ => fin = spec.parties.iter().map(|_| random_bag(rng)).collect(),
    }
    let mut snapshot = |bags: Vec<AssetBag>| {
        spec.parties
            .iter()
            .zip(bags)
            .filter(|_| !rng.gen_bool(0.1))
            .map(|(&p, bag)| (p, bag))
            .collect()
    };
    let initial_holdings = snapshot(initial);
    let final_holdings = snapshot(fin);
    let mut resolutions = std::collections::BTreeMap::new();
    for chain in spec.chains() {
        let resolution = match rng.gen_range(0..10u32) {
            0 => ChainResolution::Unresolved,
            1 => continue,
            2..=5 => ChainResolution::Aborted,
            _ => ChainResolution::Committed,
        };
        resolutions.insert(chain, resolution);
    }
    DealOutcome {
        protocol: ProtocolKind::Timelock,
        initial_holdings,
        final_holdings,
        resolutions,
        metrics: PhaseMetrics::new(),
        delta: Duration(100),
    }
}

fn random_configs(rng: &mut StdRng, spec: &DealSpec) -> Vec<PartyConfig> {
    let mut configs = Vec::new();
    for &p in &spec.parties {
        match rng.gen_range(0..10u32) {
            0 | 1 => configs.push(PartyConfig::with_strategy(p, strategies::withhold_vote())),
            2 => configs.push(PartyConfig::with_strategy(p, strategies::refuse_escrow())),
            3 => configs.push(PartyConfig::compliant(p)),
            _ => {}
        }
    }
    configs
}

#[test]
fn rewritten_checks_match_the_bag_based_reference() {
    // How often each verdict came up, so the test fails if the generator
    // stops reaching a branch.
    let (mut unsafe_cases, mut over_paid, mut below_floor) = (0, 0, 0);
    let (mut strong, mut not_strong, mut not_weak, mut not_conserved) = (0, 0, 0, 0);
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xD1FF ^ case);
        let spec = random_spec(&mut rng);
        let outcome = random_outcome(&mut rng, &spec);
        let configs = if rng.gen_bool(0.5) {
            Vec::new()
        } else {
            random_configs(&mut rng, &spec)
        };

        let safety = check_safety(&spec, &configs, &outcome);
        assert_eq!(
            safety,
            ref_check_safety(&spec, &configs, &outcome),
            "case {case}: safety"
        );
        let conserved = check_conservation(&spec, &outcome);
        assert_eq!(
            conserved,
            ref_check_conservation(&spec, &outcome),
            "case {case}: conservation"
        );
        let weak = check_weak_liveness(&spec, &configs, &outcome);
        assert_eq!(
            weak,
            ref_check_weak_liveness(&spec, &configs, &outcome),
            "case {case}: weak liveness"
        );
        let strong_holds = check_strong_liveness(&spec, &configs, &outcome);
        assert_eq!(
            strong_holds,
            ref_check_strong_liveness(&spec, &configs, &outcome),
            "case {case}: strong liveness"
        );

        unsafe_cases += u32::from(!safety.holds());
        for v in &safety.violations {
            over_paid += u32::from(v.detail.starts_with("relinquished"));
            below_floor += u32::from(v.detail.starts_with("paid"));
        }
        let all_compliant = configs.iter().all(PartyConfig::is_compliant);
        strong += u32::from(all_compliant && strong_holds);
        not_strong += u32::from(!strong_holds);
        not_weak += u32::from(!weak);
        not_conserved += u32::from(!conserved);
    }
    for (what, seen) in [
        ("unsafe outcomes", unsafe_cases),
        ("over-payment violations", over_paid),
        ("below-floor violations", below_floor),
        ("strongly live outcomes", strong),
        ("outcomes that are not strongly live", not_strong),
        ("weak-liveness failures", not_weak),
        ("conservation failures", not_conserved),
    ] {
        assert!(seen >= 20, "only {seen} {what} in {CASES} cases");
    }
}
