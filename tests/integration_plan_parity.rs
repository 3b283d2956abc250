//! Plan-vs-string parity: executing through pre-resolved [`DealPlan`]s (the
//! sweep path — one plan per spec, worlds forked from the plan's kind table)
//! must produce *exactly* the outcomes of resolving everything per run (the
//! `Deal::run` path, whose plan is rebuilt from the string-kinded spec every
//! call). The plan layer is a representation change, not a semantic one.

use xchain_deals::builders::{auction_spec, broker_spec, ring_spec};
use xchain_deals::outcome::DealOutcome;
use xchain_deals::plan::DealPlan;
use xchain_deals::spec::DealSpec;
use xchain_deals::{Deal, Protocol};
use xchain_harness::adversary::single_deviator_configs;
use xchain_harness::sweep::{standard_engines, Sweep, SweepOutcome};
use xchain_sim::ids::DealId;
use xchain_sim::network::NetworkModel;
use xchain_swap::SwapEngine;

fn specs() -> Vec<(String, DealSpec)> {
    vec![
        ("broker".into(), broker_spec()),
        ("ring n=2".into(), ring_spec(DealId(2), 2)),
        ("ring n=4".into(), ring_spec(DealId(4), 4)),
        ("auction".into(), auction_spec(DealId(9), &[30, 55])),
    ]
}

fn fingerprint(outcome: &DealOutcome) -> String {
    format!(
        "gas={:?}|outcome={:?}",
        outcome.metrics.total_gas(),
        outcome
    )
}

/// The sweep (shared plans, forked kind tables) against a hand-rolled loop
/// over `Deal::run` (fresh plan per cell): identical outcomes, point for
/// point, at `threads(1)` and `threads(4)`.
#[test]
fn sweep_with_shared_plans_matches_per_run_resolution() {
    let sweep = |threads: usize| -> SweepOutcome {
        Sweep::new()
            .over_specs(specs())
            .over_protocols(standard_engines(100))
            .over_networks(vec![
                ("sync".into(), NetworkModel::synchronous(100)),
                (
                    "eventually sync".into(),
                    NetworkModel::eventually_synchronous(300, 100, 600),
                ),
            ])
            .over_adversaries(|spec| {
                let mut scenarios = vec![("all compliant".to_string(), Vec::new())];
                scenarios.extend(
                    single_deviator_configs(spec, 100)
                        .into_iter()
                        .enumerate()
                        .map(|(i, c)| (format!("deviator #{i}"), c)),
                );
                scenarios
            })
            .seed(777)
            .threads(threads)
            .run()
            .unwrap()
    };

    for threads in [1usize, 4] {
        let outcome = sweep(threads);
        assert!(outcome.points.len() > 100, "threads={threads}");
        for p in &outcome.points {
            // Re-execute the cell the pre-plan way: a fresh `Deal::run`,
            // which resolves its own plan from the string-kinded spec.
            let deal = Deal::new(DealSpec::clone(&p.deal))
                .parties(&p.configs)
                .seed(p.seed)
                .network(match p.network.as_str() {
                    "sync" => NetworkModel::synchronous(100),
                    _ => NetworkModel::eventually_synchronous(300, 100, 600),
                });
            let rerun = match p.engine.as_str() {
                "timelock" => deal.run(Protocol::timelock()),
                "CBC" => deal.run(Protocol::cbc()),
                _ => deal.run(SwapEngine::new(xchain_sim::time::Duration(100))),
            }
            .unwrap();
            assert_eq!(
                fingerprint(&p.run.outcome),
                fingerprint(&rerun.outcome),
                "threads={threads}: {} / {} / {} / {} diverged",
                p.spec,
                p.engine,
                p.network,
                p.adversary
            );
        }
    }
}

/// One shared plan across many sessions (different seeds and engines) equals
/// per-session planning.
#[test]
fn shared_plan_and_caller_world_agree_with_fresh_plans() {
    let spec = broker_spec();
    let session = Deal::new(spec.clone()).network(NetworkModel::synchronous(100));
    let plan = session.plan().unwrap();
    for seed in [0u64, 7, 42, 1897] {
        for engine in [Protocol::timelock(), Protocol::cbc()] {
            let deal = session.clone().seed(seed);
            let fresh = deal.run(engine.clone()).unwrap();
            let shared = deal.run_planned(&plan, engine.clone()).unwrap();
            assert_eq!(
                fingerprint(&fresh.outcome),
                fingerprint(&shared.outcome),
                "seed {seed}"
            );
        }
    }
}

/// A plan is reusable concurrently: the same `DealPlan` value driving cells
/// on several worker threads yields the serial outcome (the plan is shared
/// state, so this doubles as a thread-safety check under `cargo test`).
#[test]
fn one_plan_many_threads_is_deterministic() {
    let run_with = |threads: usize| {
        Sweep::new()
            .spec("ring n=5", ring_spec(DealId(5), 5))
            .over_protocols(standard_engines(100))
            .over_adversaries(|spec| {
                single_deviator_configs(spec, 100)
                    .into_iter()
                    .enumerate()
                    .map(|(i, c)| (format!("deviator #{i}"), c))
                    .collect()
            })
            .seed(31)
            .threads(threads)
            .run()
            .unwrap()
    };
    let serial = run_with(1);
    let parallel = run_with(4);
    assert_eq!(serial.points.len(), parallel.points.len());
    for (a, b) in serial.points.iter().zip(&parallel.points) {
        assert_eq!(a.seed, b.seed);
        assert_eq!(fingerprint(&a.run.outcome), fingerprint(&b.run.outcome));
    }
}

/// Planning catches invalid specifications up front with the same error
/// class the engines used to produce mid-run.
#[test]
fn invalid_specs_fail_at_plan_time() {
    let mut spec = broker_spec();
    spec.parties.push(spec.parties[0]);
    assert!(DealPlan::new(&spec).is_err());
    assert!(Deal::new(spec).run(Protocol::timelock()).is_err());
}
