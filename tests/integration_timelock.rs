//! Integration tests: the timelock commit protocol end-to-end across the
//! simulator, contracts and deal engine crates, driven through the unified
//! `Deal` builder API.

use xchain_deals::builders::{broker_spec, brokered_chain_spec, ring_spec};
use xchain_deals::party::PartyConfig;
use xchain_deals::phases::Phase;
use xchain_deals::properties::{check_safety, check_strong_liveness, check_weak_liveness};
use xchain_deals::strategy::strategies;
use xchain_deals::timelock::TimelockOptions;
use xchain_deals::{Deal, Protocol};
use xchain_sim::asset::Asset;
use xchain_sim::ids::{DealId, Owner, PartyId};
use xchain_sim::network::NetworkModel;
use xchain_sim::time::Duration;

const DELTA: u64 = 100;

fn net() -> NetworkModel {
    NetworkModel::synchronous(DELTA)
}

#[test]
fn broker_deal_commits_and_routes_assets_correctly() {
    let deal = Deal::new(broker_spec()).network(net()).seed(1);
    let run = deal.run(Protocol::timelock()).unwrap();
    assert!(run.outcome.committed_everywhere());
    assert!(check_strong_liveness(deal.spec(), &[], &run.outcome));
    // Alice nets exactly her 1-coin commission.
    assert_eq!(
        run.world
            .holdings(Owner::Party(PartyId(0)))
            .balance(&"coin".into()),
        1
    );
    assert!(run
        .world
        .holdings(Owner::Party(PartyId(2)))
        .contains(&Asset::non_fungible("ticket", [1, 2])));
}

#[test]
fn rings_of_many_parties_commit() {
    for n in [2u32, 4, 8, 12] {
        let deal = Deal::new(ring_spec(DealId(n as u64), n))
            .network(net())
            .seed(n as u64);
        let run = deal.run(Protocol::timelock()).unwrap();
        assert!(run.outcome.committed_everywhere(), "ring n={n}");
        assert!(
            check_strong_liveness(deal.spec(), &[], &run.outcome),
            "ring n={n}"
        );
    }
}

#[test]
fn every_single_deviator_scenario_is_safe() {
    let spec = broker_spec();
    let deviations = [
        strategies::refuse_escrow(),
        strategies::skip_transfers(),
        strategies::withhold_vote(),
        strategies::never_forward(),
        strategies::reject_validation(),
        strategies::crash_after(Phase::Escrow),
        strategies::crash_after(Phase::Transfer),
        strategies::crash_after(Phase::Validation),
    ];
    for &p in &spec.parties {
        for (i, d) in deviations.iter().enumerate() {
            let configs = vec![PartyConfig::with_strategy(p, d.clone())];
            let run = Deal::new(spec.clone())
                .network(net())
                .parties(&configs)
                .seed(50 + i as u64)
                .run(Protocol::timelock())
                .unwrap();
            let report = check_safety(&spec, &configs, &run.outcome);
            assert!(
                report.holds(),
                "party {p} deviation {d:?}: {:?}",
                report.violations
            );
            assert!(
                check_weak_liveness(&spec, &configs, &run.outcome),
                "party {p} deviation {d:?}"
            );
        }
    }
}

#[test]
fn never_forward_deviator_harms_only_itself() {
    // In a ring, party i+1 is the only party positioned to forward votes to
    // chain i. If it refuses, that chain times out while the others commit —
    // the timelock protocol does not guarantee commit-everywhere — but every
    // compliant party is still safe and nothing stays locked up; only the
    // deviator can end up worse off.
    let spec = ring_spec(DealId(5), 5);
    let configs = vec![PartyConfig::with_strategy(
        PartyId(2),
        strategies::never_forward(),
    )];
    let deal = Deal::new(spec.clone())
        .network(net())
        .parties(&configs)
        .seed(3);
    let run = deal.run(Protocol::timelock()).unwrap();
    assert!(run.outcome.fully_resolved());
    let report = check_safety(&spec, &configs, &run.outcome);
    assert!(report.holds(), "{:?}", report.violations);
    assert!(check_weak_liveness(&spec, &configs, &run.outcome));

    // With altruistic broadcast the same deviation cannot even prevent commit,
    // because votes no longer rely on forwarding at all.
    let opts = TimelockOptions {
        altruistic_broadcast: true,
        ..TimelockOptions::default()
    };
    let run = deal.run(Protocol::Timelock(opts)).unwrap();
    assert!(run.outcome.committed_everywhere());
}

#[test]
fn offline_compliant_party_is_protected_by_timeouts() {
    // Carol goes offline for the entire run: the deal cannot gather her vote,
    // times out, and refunds everyone.
    let spec = broker_spec();
    let configs = vec![PartyConfig::with_strategy(
        PartyId(2),
        strategies::offline_during(xchain_sim::time::Time(0), xchain_sim::time::Time(1_000_000)),
    )];
    let run = Deal::new(spec.clone())
        .network(net())
        .parties(&configs)
        .seed(4)
        .run(Protocol::timelock())
        .unwrap();
    assert!(run.outcome.aborted_everywhere());
    assert!(check_safety(&spec, &configs, &run.outcome).holds());
    assert_eq!(
        run.world
            .holdings(Owner::Party(PartyId(2)))
            .balance(&"coin".into()),
        101
    );
}

#[test]
fn commit_gas_grows_quadratically_in_parties_for_fixed_assets() {
    // Figure 4: O(m n^2) signature verifications in the worst case. With the
    // brokered-chain workload (m = n-1), per-asset verification counts grow
    // with n.
    let mut per_asset = Vec::new();
    for n in [4u32, 8] {
        let deal = Deal::new(brokered_chain_spec(DealId(n as u64), n, 50))
            .network(net())
            .seed(9);
        let run = deal.run(Protocol::timelock()).unwrap();
        assert!(run.outcome.committed_everywhere());
        let sigs = run.outcome.metrics.gas(Phase::Commit).sig_verifications;
        per_asset.push(sigs as f64 / deal.spec().n_assets() as f64);
    }
    assert!(per_asset[1] > per_asset[0] * 1.5, "{per_asset:?}");
}

#[test]
fn larger_delta_only_changes_timeouts_not_gas() {
    let spec = broker_spec();
    let small = TimelockOptions {
        delta: Duration(50),
        ..TimelockOptions::default()
    };
    let large = TimelockOptions {
        delta: Duration(500),
        ..TimelockOptions::default()
    };
    let r1 = Deal::new(spec.clone())
        .network(NetworkModel::synchronous(50))
        .seed(6)
        .run(Protocol::Timelock(small))
        .unwrap();
    let r2 = Deal::new(spec)
        .network(NetworkModel::synchronous(500))
        .seed(6)
        .run(Protocol::Timelock(large))
        .unwrap();
    assert!(r1.outcome.committed_everywhere() && r2.outcome.committed_everywhere());
    assert_eq!(
        r1.outcome.metrics.total_gas(),
        r2.outcome.metrics.total_gas()
    );
}
