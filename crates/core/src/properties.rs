//! The paper's correctness properties, as executable checks over measured
//! deal outcomes.
//!
//! * **Property 1 (safety)**: for every compliant party X, if any of X's
//!   outgoing assets is transferred then all of X's incoming assets are
//!   transferred; and if any of X's incoming assets is not transferred then
//!   none of X's outgoing assets is transferred. We additionally check that a
//!   compliant party never relinquishes more than its agreed outgoing assets.
//! * **Property 2 (weak liveness)**: no asset belonging to a compliant party
//!   is locked up forever (every escrow holding a compliant party's deposit
//!   eventually resolves).
//! * **Property 3 (strong liveness)**: if all parties are compliant, all
//!   transfers happen.

use xchain_sim::asset::{Asset, AssetBag, AssetKind};
use xchain_sim::ids::{PartyId, TokenId};

use crate::outcome::{ChainResolution, DealOutcome};
use crate::party::PartyConfig;
use crate::spec::DealSpec;

/// A violation of the safety property for one party.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SafetyViolation {
    /// The compliant party that ended up worse off.
    pub party: PartyId,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

/// The result of checking Property 1 over an outcome.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SafetyReport {
    /// All violations found (empty means the property holds).
    pub violations: Vec<SafetyViolation>,
}

impl SafetyReport {
    /// True if no compliant party was harmed.
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Everything in `a` that is not covered by `b` (component-wise saturating
/// difference over fungible balances and token sets).
pub fn bag_minus(a: &AssetBag, b: &AssetBag) -> AssetBag {
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
        let missing: std::collections::BTreeSet<_> = tokens.difference(&other).copied().collect();
        if !missing.is_empty() {
            out.add(&Asset::NonFungible {
                kind: kind.clone(),
                tokens: missing,
            });
        }
    }
    out
}

/// True if `p` follows the protocol under `configs` (parties without a
/// configuration are compliant, as in [`crate::party::config_of`]).
fn is_compliant(configs: &[PartyConfig], p: PartyId) -> bool {
    configs
        .iter()
        .find(|c| c.id == p)
        .is_none_or(PartyConfig::is_compliant)
}

/// What the specification moves into and out of one party, read straight
/// from its transfers, one asset kind at a time (the per-kind counterpart
/// of [`DealSpec::incoming_of`] and [`DealSpec::outgoing_of`], without
/// building bags).
struct Agreed<'a> {
    spec: &'a DealSpec,
    party: PartyId,
}

impl<'a> Agreed<'a> {
    /// The assets the party is to receive.
    fn incoming(&self) -> impl Iterator<Item = &'a Asset> + '_ {
        self.spec
            .transfers
            .iter()
            .filter(|t| t.to == self.party)
            .map(|t| &t.asset)
    }

    /// The assets the party is to give up.
    fn outgoing(&self) -> impl Iterator<Item = &'a Asset> + '_ {
        self.spec
            .transfers
            .iter()
            .filter(|t| t.from == self.party)
            .map(|t| &t.asset)
    }

    /// The fungible amount of `kind` among `assets`.
    fn amount<'b>(assets: impl Iterator<Item = &'b Asset>, kind: &AssetKind) -> u64 {
        assets
            .filter_map(|a| match a {
                Asset::Fungible { kind: k, amount } if k == kind => Some(*amount),
                _ => None,
            })
            .sum()
    }

    /// True if `token` of `kind` is among `assets`.
    fn has_token<'b>(
        mut assets: impl Iterator<Item = &'b Asset>,
        kind: &AssetKind,
        token: TokenId,
    ) -> bool {
        assets.any(|a| {
            matches!(a, Asset::NonFungible { kind: k, tokens } if k == kind && tokens.contains(&token))
        })
    }

    fn amount_in(&self, kind: &AssetKind) -> u64 {
        Self::amount(self.incoming(), kind)
    }

    fn amount_out(&self, kind: &AssetKind) -> u64 {
        Self::amount(self.outgoing(), kind)
    }

    fn token_in(&self, kind: &AssetKind, token: TokenId) -> bool {
        Self::has_token(self.incoming(), kind, token)
    }

    fn token_out(&self, kind: &AssetKind, token: TokenId) -> bool {
        Self::has_token(self.outgoing(), kind, token)
    }

    /// The full-deal balance of a fungible kind for a party that started
    /// with `initial`: `(initial + incoming) - outgoing`, saturating.
    fn floor(&self, initial: &AssetBag, kind: &AssetKind) -> u64 {
        (initial.balance(kind) + self.amount_in(kind)).saturating_sub(self.amount_out(kind))
    }

    /// True unless the party agreed to give up `token` of `kind`.
    fn keeps(&self, kind: &AssetKind, token: TokenId) -> bool {
        !self.token_out(kind, token)
    }
}

/// Checks Property 1 (safety) for every compliant party.
///
/// A party that lost anything must end at or above the full-deal floor
/// `(initial + incoming) - outgoing` (incoming may fund outgoing, so the two
/// are netted — Alice pays Bob out of Carol's coins), and no party may lose
/// more than its agreed outgoing assets. The check reads the outcome's
/// holdings by reference, one asset kind at a time, and allocates only to
/// describe a violation.
pub fn check_safety(
    spec: &DealSpec,
    configs: &[PartyConfig],
    outcome: &DealOutcome,
) -> SafetyReport {
    let mut report = SafetyReport::default();
    for &p in &spec.parties {
        if !is_compliant(configs, p) {
            continue;
        }
        let initial = outcome.initial_of(p);
        let fin = outcome.final_of(p);
        let agreed = Agreed { spec, party: p };
        // Whether the party lost anything, and whether it lost something it
        // did not agree to give up. A lost token it kept the right to is
        // also below the floor, so only fungible kinds and incoming assets
        // need the floor test below.
        let (mut paid, mut over_paid) = (false, false);
        for (kind, held) in initial.fungible_holdings() {
            let lost = held.saturating_sub(fin.balance(kind));
            if lost > 0 {
                paid = true;
                over_paid |= lost > agreed.amount_out(kind);
            }
        }
        for (kind, tokens) in initial.non_fungible_holdings() {
            for &t in tokens {
                if !fin.holds_token(kind, t) {
                    paid = true;
                    over_paid |= agreed.keeps(kind, t);
                }
            }
        }
        let below_floor = |kind: &AssetKind| fin.balance(kind) < agreed.floor(initial, kind);
        let violated = over_paid
            || (paid
                && (initial
                    .fungible_holdings()
                    .any(|(kind, _)| below_floor(kind))
                    || agreed.incoming().any(|asset| match asset {
                        Asset::Fungible { kind, .. } => below_floor(kind),
                        Asset::NonFungible { kind, tokens } => tokens
                            .iter()
                            .any(|&t| agreed.keeps(kind, t) && !fin.holds_token(kind, t)),
                    })));
        if violated {
            describe_violations(spec, p, initial, fin, &mut report);
        }
    }
    report
}

/// Appends the safety violations of party `p` to `report`, with the detail
/// text computed over whole bags.
fn describe_violations(
    spec: &DealSpec,
    p: PartyId,
    initial: &AssetBag,
    fin: &AssetBag,
    report: &mut SafetyReport,
) {
    let lost = bag_minus(initial, fin);
    let expected_out = spec.outgoing_of(p);
    if !lost.is_empty() {
        let mut with_incoming = initial.clone();
        for t in spec.transfers.iter().filter(|t| t.to == p) {
            with_incoming.add(&t.asset);
        }
        let floor = bag_minus(&with_incoming, &expected_out);
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

/// Checks Property 2 (weak liveness): every chain where a compliant party
/// escrowed assets must have resolved (committed or aborted) by the end of
/// the run.
pub fn check_weak_liveness(
    spec: &DealSpec,
    configs: &[PartyConfig],
    outcome: &DealOutcome,
) -> bool {
    spec.escrows.iter().all(|e| {
        !is_compliant(configs, e.owner)
            || !matches!(
                outcome.resolutions.get(&e.chain),
                Some(ChainResolution::Unresolved) | None
            )
    })
}

/// Checks Property 3 (strong liveness): meaningful only when every party is
/// compliant; in that case every party must end up with exactly
/// `(initial + incoming) - outgoing` (incoming assets may fund outgoing
/// ones — Alice pays Bob out of Carol's coins — so they are added before
/// the outgoing assets are subtracted). Compared one asset kind at a time,
/// without building bags.
pub fn check_strong_liveness(
    spec: &DealSpec,
    configs: &[PartyConfig],
    outcome: &DealOutcome,
) -> bool {
    if !spec.parties.iter().all(|&p| is_compliant(configs, p)) {
        return true; // vacuously true; the property only constrains all-compliant runs
    }
    spec.parties.iter().all(|&p| {
        let initial = outcome.initial_of(p);
        let fin = outcome.final_of(p);
        let agreed = Agreed { spec, party: p };
        let exact = |kind: &AssetKind| fin.balance(kind) == agreed.floor(initial, kind);
        // A token belongs in the final holdings iff the party started with
        // it or was to receive it, and did not agree to give it up.
        let expected = |kind: &AssetKind, t: TokenId| {
            (initial.holds_token(kind, t) || agreed.token_in(kind, t)) && agreed.keeps(kind, t)
        };
        let present = |kind: &AssetKind, t: TokenId| fin.holds_token(kind, t) == expected(kind, t);
        fin.fungible_holdings().all(|(kind, _)| exact(kind))
            && initial.fungible_holdings().all(|(kind, _)| exact(kind))
            && fin
                .non_fungible_holdings()
                .all(|(kind, tokens)| tokens.iter().all(|&t| present(kind, t)))
            && initial
                .non_fungible_holdings()
                .all(|(kind, tokens)| tokens.iter().all(|&t| present(kind, t)))
            && agreed.incoming().all(|asset| match asset {
                Asset::Fungible { kind, .. } => exact(kind),
                Asset::NonFungible { kind, tokens } => tokens.iter().all(|&t| present(kind, t)),
            })
    })
}

/// Conservation check used by the property-based tests: the union of all
/// parties' holdings (plus anything still stuck in escrow) never changes in
/// total fungible supply per kind. Returns true if supply is conserved
/// between the initial and final snapshots for every kind mentioned in the
/// deal. Note that assets still held by an unresolved escrow contract are not
/// in any party's hands, so conservation is only required when the outcome is
/// fully resolved. Each escrow's kind is summed over the parties once (a
/// kind escrowed twice is checked twice, with the same answer).
pub fn check_conservation(spec: &DealSpec, outcome: &DealOutcome) -> bool {
    if !outcome.fully_resolved() {
        return true;
    }
    spec.escrows.iter().all(|e| {
        let kind = e.asset.kind();
        let supply = |snapshot: fn(&DealOutcome, PartyId) -> &AssetBag| -> u64 {
            spec.parties
                .iter()
                .map(|&p| snapshot(outcome, p).balance(kind))
                .sum()
        };
        supply(DealOutcome::initial_of) == supply(DealOutcome::final_of)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::broker_spec;
    use crate::outcome::ProtocolKind;
    use crate::phases::PhaseMetrics;
    use crate::strategy::strategies;
    use xchain_sim::ids::ChainId;
    use xchain_sim::time::Duration;

    fn outcome_with(
        initial: Vec<(PartyId, AssetBag)>,
        fin: Vec<(PartyId, AssetBag)>,
        resolutions: Vec<(ChainId, ChainResolution)>,
    ) -> DealOutcome {
        DealOutcome {
            protocol: ProtocolKind::Timelock,
            initial_holdings: initial.into_iter().collect(),
            final_holdings: fin.into_iter().collect(),
            resolutions: resolutions.into_iter().collect(),
            metrics: PhaseMetrics::new(),
            delta: Duration(100),
        }
    }

    fn bag(coins: u64, tickets: &[u64]) -> AssetBag {
        let mut b = AssetBag::new();
        if coins > 0 {
            b.add(&Asset::fungible("coin", coins));
        }
        if !tickets.is_empty() {
            b.add(&Asset::non_fungible("ticket", tickets.iter().copied()));
        }
        b
    }

    #[test]
    fn bag_minus_computes_losses_and_gains() {
        let a = bag(100, &[1, 2]);
        let b = bag(40, &[2]);
        let diff = bag_minus(&a, &b);
        assert_eq!(diff.balance(&"coin".into()), 60);
        assert!(diff.contains(&Asset::non_fungible("ticket", [1])));
        assert!(!diff.contains(&Asset::non_fungible("ticket", [2])));
        assert!(bag_minus(&b, &b).is_empty());
    }

    #[test]
    fn all_or_nothing_outcomes_are_safe() {
        let spec = broker_spec();
        let alice = PartyId(0);
        let bob = PartyId(1);
        let carol = PartyId(2);
        // "All" outcome.
        let all = outcome_with(
            vec![
                (alice, bag(0, &[])),
                (bob, bag(0, &[1, 2])),
                (carol, bag(101, &[])),
            ],
            vec![
                (alice, bag(1, &[])),
                (bob, bag(100, &[])),
                (carol, bag(0, &[1, 2])),
            ],
            vec![
                (ChainId(0), ChainResolution::Committed),
                (ChainId(1), ChainResolution::Committed),
            ],
        );
        assert!(check_safety(&spec, &[], &all).holds());
        assert!(check_strong_liveness(&spec, &[], &all));
        assert!(check_conservation(&spec, &all));
        // "Nothing" outcome.
        let nothing = outcome_with(
            vec![
                (alice, bag(0, &[])),
                (bob, bag(0, &[1, 2])),
                (carol, bag(101, &[])),
            ],
            vec![
                (alice, bag(0, &[])),
                (bob, bag(0, &[1, 2])),
                (carol, bag(101, &[])),
            ],
            vec![
                (ChainId(0), ChainResolution::Aborted),
                (ChainId(1), ChainResolution::Aborted),
            ],
        );
        assert!(check_safety(&spec, &[], &nothing).holds());
        assert!(!check_strong_liveness(&spec, &[], &nothing));
        assert!(check_weak_liveness(&spec, &[], &nothing));
    }

    #[test]
    fn losing_assets_without_receiving_violates_safety() {
        let spec = broker_spec();
        let bob = PartyId(1);
        // Bob loses his tickets and receives nothing.
        let bad = outcome_with(
            vec![(bob, bag(0, &[1, 2]))],
            vec![(bob, bag(0, &[]))],
            vec![
                (ChainId(0), ChainResolution::Committed),
                (ChainId(1), ChainResolution::Aborted),
            ],
        );
        let report = check_safety(&spec, &[], &bad);
        assert!(!report.holds());
        assert_eq!(report.violations[0].party, bob);
    }

    #[test]
    fn deviating_parties_are_not_protected() {
        let spec = broker_spec();
        let bob = PartyId(1);
        let configs = vec![PartyConfig::with_strategy(bob, strategies::withhold_vote())];
        let bad = outcome_with(
            vec![(bob, bag(0, &[1, 2]))],
            vec![(bob, bag(0, &[]))],
            vec![
                (ChainId(0), ChainResolution::Committed),
                (ChainId(1), ChainResolution::Aborted),
            ],
        );
        assert!(check_safety(&spec, &configs, &bad).holds());
    }

    #[test]
    fn receiving_extra_from_deviating_parties_is_allowed() {
        let spec = broker_spec();
        let carol = PartyId(2);
        // Carol pays nothing (coins refunded) yet receives the tickets: the
        // paper explicitly allows this windfall outcome.
        let windfall = outcome_with(
            vec![(carol, bag(101, &[]))],
            vec![(carol, bag(101, &[1, 2]))],
            vec![
                (ChainId(0), ChainResolution::Committed),
                (ChainId(1), ChainResolution::Aborted),
            ],
        );
        assert!(check_safety(&spec, &[], &windfall).holds());
    }

    #[test]
    fn paying_more_than_agreed_violates_safety() {
        let spec = broker_spec();
        let carol = PartyId(2);
        let bad = outcome_with(
            vec![(carol, bag(150, &[]))],
            vec![(carol, bag(0, &[1, 2]))], // lost 150 coins, agreed only 101
            vec![
                (ChainId(0), ChainResolution::Committed),
                (ChainId(1), ChainResolution::Committed),
            ],
        );
        assert!(!check_safety(&spec, &[], &bad).holds());
    }

    #[test]
    fn weak_liveness_ignores_deviating_escrowers() {
        let spec = broker_spec();
        let bob = PartyId(1);
        let configs = vec![PartyConfig::with_strategy(bob, strategies::withhold_vote())];
        // The ticket chain never resolves, but only Bob (deviating) escrowed there.
        let outcome = outcome_with(
            vec![],
            vec![],
            vec![
                (ChainId(0), ChainResolution::Unresolved),
                (ChainId(1), ChainResolution::Aborted),
            ],
        );
        assert!(check_weak_liveness(&spec, &configs, &outcome));
        // If Bob were compliant it would be a violation.
        assert!(!check_weak_liveness(&spec, &[], &outcome));
    }

    #[test]
    fn conservation_detects_created_coins() {
        let spec = broker_spec();
        let carol = PartyId(2);
        let bad = outcome_with(
            vec![(carol, bag(101, &[]))],
            vec![(carol, bag(300, &[]))],
            vec![
                (ChainId(0), ChainResolution::Committed),
                (ChainId(1), ChainResolution::Committed),
            ],
        );
        assert!(!check_conservation(&spec, &bad));
    }
}
