//! Integration tests: the CBC commit protocol end-to-end, driven through the
//! unified `Deal` builder API.

use xchain_bft::validator::validator_party_id;
use xchain_deals::builders::{auction_spec, broker_spec, ring_spec};
use xchain_deals::cbc::CbcOptions;
use xchain_deals::party::PartyConfig;
use xchain_deals::phases::Phase;
use xchain_deals::properties::{check_safety, check_strong_liveness, check_weak_liveness};
use xchain_deals::strategy::strategies;
use xchain_deals::{Deal, Protocol};
use xchain_sim::ids::{DealId, Owner, PartyId};
use xchain_sim::network::NetworkModel;

#[test]
fn broker_deal_commits_under_cbc() {
    let deal = Deal::new(broker_spec())
        .network(NetworkModel::synchronous(100))
        .seed(1);
    let run = deal.run(Protocol::cbc()).unwrap();
    assert!(run.ext.cbc_status().unwrap().is_committed());
    assert!(run.outcome.committed_everywhere());
    assert!(check_strong_liveness(deal.spec(), &[], &run.outcome));
}

/// The CBC engine registers its validators once per world; every deal
/// chain then verifies a validator quorum's signatures, and attributes each
/// to the validator's reserved party id.
#[test]
fn validator_signatures_verify_on_every_deal_chain() {
    let deal = Deal::new(ring_spec(DealId(5), 5)).seed(3);
    let run = deal.run(Protocol::cbc()).unwrap();
    assert!(run.outcome.committed_everywhere());
    let validators = run.ext.cbc_log().unwrap().validators();
    let message = [5, 0xC0FFEE];
    let quorum = validators.quorum_sign(&message).unwrap();
    assert_eq!(quorum.len(), validators.quorum());
    for chain in deal.spec().chains() {
        let keys = run.world.chain(chain).unwrap().keys();
        for (vid, sig) in &quorum {
            assert_eq!(keys.party_of(sig.signer), Some(validator_party_id(*vid)));
            assert!(keys.verify_words(sig, &message), "{chain}");
            assert!(!keys.verify_words(sig, &[5, 0xC0FFEF]));
        }
        // The parties' own keys are still there, next to the validators'.
        for &p in &deal.spec().parties {
            assert!(keys.public_key_of(p).is_some());
        }
    }
}

#[test]
fn cbc_commits_or_aborts_everywhere_never_mixed() {
    // The key CBC guarantee the timelock protocol lacks: the deal either
    // commits everywhere or aborts everywhere, for any single deviator.
    let spec = ring_spec(DealId(2), 4);
    let deviations = [
        strategies::refuse_escrow(),
        strategies::skip_transfers(),
        strategies::withhold_vote(),
        strategies::vote_abort(),
        strategies::reject_validation(),
        strategies::crash_after(Phase::Transfer),
    ];
    for &p in &spec.parties {
        for d in &deviations {
            let configs = vec![PartyConfig::with_strategy(p, d.clone())];
            let run = Deal::new(spec.clone())
                .network(NetworkModel::synchronous(100))
                .parties(&configs)
                .seed(7)
                .run(Protocol::cbc())
                .unwrap();
            assert!(
                run.outcome.committed_everywhere() || run.outcome.aborted_everywhere(),
                "mixed outcome for {p} with {d:?}"
            );
            assert!(check_safety(&spec, &configs, &run.outcome).holds());
            assert!(check_weak_liveness(&spec, &configs, &run.outcome));
        }
    }
}

#[test]
fn cbc_works_during_asynchrony_before_gst() {
    let spec = auction_spec(DealId(3), &[40, 70, 55]);
    let network = NetworkModel::eventually_synchronous(10_000_000, 100, 5_000);
    let run = Deal::new(spec.clone())
        .network(network)
        .seed(4)
        .run(Protocol::Cbc(CbcOptions {
            f: 2,
            ..CbcOptions::default()
        }))
        .unwrap();
    assert!(run.outcome.committed_everywhere());
    assert!(check_safety(&spec, &[], &run.outcome).holds());
}

#[test]
fn auction_winner_gets_ticket_and_losers_are_refunded() {
    let run = Deal::new(auction_spec(DealId(4), &[80, 95]))
        .network(NetworkModel::synchronous(100))
        .seed(5)
        .run(Protocol::cbc())
        .unwrap();
    assert!(run.outcome.committed_everywhere());
    assert_eq!(
        run.world
            .holdings(Owner::Party(PartyId(0)))
            .balance(&"coin".into()),
        95
    );
    assert_eq!(
        run.world
            .holdings(Owner::Party(PartyId(1)))
            .balance(&"coin".into()),
        80
    );
    assert!(run
        .world
        .holdings(Owner::Party(PartyId(2)))
        .contains(&xchain_sim::asset::Asset::non_fungible("ticket", [1])));
}

#[test]
fn block_proof_resolution_matches_certificate_resolution() {
    let deal = Deal::new(broker_spec())
        .network(NetworkModel::synchronous(100))
        .seed(6);
    let with_cert = deal.run(Protocol::cbc()).unwrap();
    let with_proof = deal
        .run(Protocol::Cbc(CbcOptions {
            use_block_proofs: true,
            ..CbcOptions::default()
        }))
        .unwrap();
    assert_eq!(
        with_cert.outcome.committed_everywhere(),
        with_proof.outcome.committed_everywhere()
    );
    // Same resolution, higher verification cost.
    assert!(
        with_proof
            .outcome
            .metrics
            .gas(Phase::Commit)
            .sig_verifications
            > with_cert
                .outcome
                .metrics
                .gas(Phase::Commit)
                .sig_verifications
    );
}

#[test]
fn censorship_can_only_abort_never_steal() {
    let spec = broker_spec();
    for censored in [PartyId(0), PartyId(1), PartyId(2)] {
        let opts = CbcOptions {
            censored_parties: vec![censored],
            ..CbcOptions::default()
        };
        let run = Deal::new(spec.clone())
            .network(NetworkModel::synchronous(100))
            .seed(8)
            .run(Protocol::Cbc(opts))
            .unwrap();
        assert!(run.outcome.aborted_everywhere(), "censoring {censored}");
        assert!(check_safety(&spec, &[], &run.outcome).holds());
    }
}

#[test]
fn higher_f_costs_more_commit_gas() {
    let deal = Deal::new(broker_spec())
        .network(NetworkModel::synchronous(100))
        .seed(9);
    let mut sigs = Vec::new();
    for f in [1usize, 3, 5] {
        let run = deal
            .run(Protocol::Cbc(CbcOptions {
                f,
                ..CbcOptions::default()
            }))
            .unwrap();
        assert!(run.outcome.committed_everywhere());
        sigs.push(run.outcome.metrics.gas(Phase::Commit).sig_verifications);
    }
    assert!(sigs[0] < sigs[1] && sigs[1] < sigs[2], "{sigs:?}");
    // Exactly m * (2f+1): 2 assets.
    assert_eq!(sigs[0], 2 * 3);
    assert_eq!(sigs[2], 2 * 11);
}
