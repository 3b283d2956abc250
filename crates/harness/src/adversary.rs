//! Adversary sweeps: strategy generators for the [`crate::sweep::Sweep`]
//! adversary axis.
//!
//! Every generator speaks the open adversary API
//! ([`xchain_deals::strategy::Strategy`]). The built-in strategies cover
//! every misbehaviour the paper discusses, at every party and for every
//! deviating-party subset the safety experiments need; scenarios are
//! labelled with strategy names (so sweep tables and `experiments -- matrix`
//! read "sore-loser@party-1"). The catalog also includes the adversaries that
//! act on what they observe or share — the sore-loser, the colluding
//! coalition, and the rational defector.

use std::sync::Arc;

use xchain_deals::party::PartyConfig;
use xchain_deals::phases::Phase;
use xchain_deals::spec::DealSpec;
use xchain_deals::strategy::{strategies, Strategy};
use xchain_sim::ids::PartyId;
use xchain_sim::time::Time;

use crate::sweep::AdversaryScenario;

/// Every single-party deviation exercised by the safety sweep, as built-in
/// strategies: the classic misbehaviours, a crash after each phase before
/// commit, and an outage of the first 50 ∆.
pub fn builtin_strategies(delta: u64) -> Vec<Arc<dyn Strategy>> {
    vec![
        strategies::refuse_escrow(),
        strategies::skip_transfers(),
        strategies::withhold_vote(),
        strategies::never_forward(),
        strategies::vote_abort(),
        strategies::reject_validation(),
        strategies::crash_after(Phase::Clearing),
        strategies::crash_after(Phase::Escrow),
        strategies::crash_after(Phase::Transfer),
        strategies::crash_after(Phase::Validation),
        strategies::offline_during(Time(0), Time(delta * 50)),
    ]
}

/// All configurations in which exactly one party deviates, for each strategy.
pub fn single_deviator_configs(spec: &DealSpec, delta: u64) -> Vec<Vec<PartyConfig>> {
    let mut configs = Vec::new();
    for &p in &spec.parties {
        for s in builtin_strategies(delta) {
            configs.push(vec![PartyConfig::with_strategy(p, s)]);
        }
    }
    configs
}

/// Configurations in which every party except `honest` deviates with the same
/// strategy — the paper makes no assumption about how many parties deviate, so
/// the sweep includes "everyone else is malicious" cases.
pub fn all_but_one_deviate(spec: &DealSpec, honest: PartyId, delta: u64) -> Vec<Vec<PartyConfig>> {
    builtin_strategies(delta)
        .into_iter()
        .map(|s| {
            spec.parties
                .iter()
                .filter(|p| **p != honest)
                .map(|p| PartyConfig::with_strategy(*p, s.clone()))
                .collect()
        })
        .collect()
}

/// Single-deviator scenarios over the built-in strategies, labelled
/// `"<strategy name>@<party>"` — [`single_deviator_configs`] with labels.
pub fn single_strategist_scenarios(spec: &DealSpec, delta: u64) -> Vec<AdversaryScenario> {
    let mut scenarios = Vec::new();
    for &p in &spec.parties {
        for s in builtin_strategies(delta) {
            scenarios.push((
                format!("{}@{p}", s.name()),
                vec![PartyConfig::with_strategy(p, s)],
            ));
        }
    }
    scenarios
}

/// The sore-loser attack assigned to one party: it escrows, then abandons
/// exactly when the counterparty escrows lock in.
pub fn sore_loser_scenario(party: PartyId) -> AdversaryScenario {
    let s = strategies::sore_loser();
    (
        format!("{}@{party}", s.name()),
        vec![PartyConfig::with_strategy(party, s)],
    )
}

/// A coalition of the deal's first two parties sharing a single strategy
/// value (and its interior state). `None` for one-party specs.
pub fn coalition_scenario(spec: &DealSpec) -> Option<AdversaryScenario> {
    if spec.parties.len() < 2 {
        return None;
    }
    let members = [spec.parties[0], spec.parties[1]];
    let shared = strategies::coalition(members);
    Some((
        shared.name(),
        members
            .iter()
            .map(|&m| PartyConfig::with_strategy(m, shared.clone()))
            .collect(),
    ))
}

/// A rational defector at the deal's last party, once with tokens valued too
/// low to be worth committing for and once valued generously.
pub fn rational_defector_scenarios(spec: &DealSpec) -> Vec<AdversaryScenario> {
    let Some(&last) = spec.parties.last() else {
        return Vec::new();
    };
    [1u64, 1_000]
        .into_iter()
        .map(|token_value| {
            let s = strategies::rational_defector(token_value);
            (
                format!("{}@{last}", s.name()),
                vec![PartyConfig::with_strategy(last, s)],
            )
        })
        .collect()
}

/// The adversaries that act on what they observe or share, at
/// representative assignments: a sore-loser at every party in turn, one
/// coalition of the first two parties, and the two rational defectors.
pub fn novel_strategy_scenarios(spec: &DealSpec) -> Vec<AdversaryScenario> {
    let mut scenarios: Vec<AdversaryScenario> = spec
        .parties
        .iter()
        .map(|&p| sore_loser_scenario(p))
        .collect();
    scenarios.extend(coalition_scenario(spec));
    scenarios.extend(rational_defector_scenarios(spec));
    scenarios
}

/// The full strategy axis for a sweep: the all-compliant baseline, every
/// built-in strategy at every party, and the novel adversaries.
pub fn strategy_scenarios(spec: &DealSpec, delta: u64) -> Vec<AdversaryScenario> {
    let mut scenarios = vec![("all compliant".to_string(), Vec::new())];
    scenarios.extend(single_strategist_scenarios(spec, delta));
    scenarios.extend(novel_strategy_scenarios(spec));
    scenarios
}

#[cfg(test)]
mod tests {
    use super::*;
    use xchain_deals::builders::broker_spec;

    #[test]
    fn sweeps_cover_every_party_and_strategy() {
        let spec = broker_spec();
        let singles = single_deviator_configs(&spec, 100);
        assert_eq!(singles.len(), 3 * builtin_strategies(100).len());
        let majority = all_but_one_deviate(&spec, PartyId(0), 100);
        assert_eq!(majority.len(), builtin_strategies(100).len());
        assert!(majority.iter().all(|c| c.len() == 2));
        let builtins = builtin_strategies(100);
        assert_eq!(builtins[0].name(), "refuse-escrow");
        assert_eq!(builtins.last().unwrap().name(), "offline-0..5000");
    }

    #[test]
    fn strategy_scenarios_are_labelled_with_strategy_names() {
        let spec = broker_spec();
        let scenarios = strategy_scenarios(&spec, 100);
        // baseline + 3 parties × 11 built-ins + (3 sore-losers + coalition +
        // 2 rational defectors)
        assert_eq!(scenarios.len(), 1 + 3 * 11 + 6);
        assert!(scenarios.iter().any(|(l, _)| l == "sore-loser@party-1"));
        assert!(scenarios
            .iter()
            .any(|(l, _)| l == "coalition(party-0+party-1)"));
        assert!(scenarios
            .iter()
            .any(|(l, _)| l == "rational-defector(token=1000)@party-2"));
        assert!(scenarios.iter().any(|(l, _)| l == "withhold-vote@party-0"));
    }

    #[test]
    fn coalition_scenario_shares_one_strategy_value() {
        let spec = broker_spec();
        let scenarios = novel_strategy_scenarios(&spec);
        let (_, coalition) = scenarios
            .iter()
            .find(|(l, _)| l.starts_with("coalition"))
            .expect("coalition scenario");
        assert_eq!(coalition.len(), 2);
        assert!(Arc::ptr_eq(&coalition[0].strategy, &coalition[1].strategy));
    }
}
