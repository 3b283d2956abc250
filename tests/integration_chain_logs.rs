//! Golden chain logs: every chain's full public log (sequence number, chain
//! time, emitting contract, caller, label and payload) and the per-phase gas
//! and durations, hashed per deal and engine over a fixed set of strategy
//! scenarios and compared with hashes recorded before the engines were last
//! optimised.
//!
//! Outcome digests see only resolutions, holdings and gas totals; two runs
//! that forward the same votes in a different order agree on all of those.
//! These hashes see the order of every accepted call on every chain, so a
//! change to forwarding order, retries or observation timing fails here.

use xchain_deals::builders::{broker_spec, ring_spec};
use xchain_deals::party::PartyConfig;
use xchain_deals::phases::Phase;
use xchain_deals::spec::{DealSpec, EscrowSpec, TransferSpec};
use xchain_deals::strategy::strategies;
use xchain_deals::{Deal, DealRun, Protocol};
use xchain_harness::workload::{random_well_formed_deal, RandomDealParams};
use xchain_sim::asset::Asset;
use xchain_sim::crypto::FnvHasher;
use xchain_sim::ids::{ChainId, DealId, Owner, PartyId};
use xchain_sim::network::NetworkModel;
use xchain_sim::time::Time;

const DELTA: u64 = 100;

/// A deal in which party 0 sends assets on three chains and receives on
/// three others: its forwarding loop watches three outgoing chains and feeds
/// three incoming ones.
fn fan_spec() -> DealSpec {
    let hub = PartyId(0);
    let mut escrows = Vec::new();
    let mut transfers = Vec::new();
    for i in 0..3u32 {
        let spoke = PartyId(i + 1);
        let sent = Asset::fungible(format!("out-{i}").as_str(), 10);
        let paid = Asset::fungible(format!("in-{i}").as_str(), 5);
        escrows.push(EscrowSpec {
            owner: hub,
            chain: ChainId(i),
            asset: sent.clone(),
        });
        escrows.push(EscrowSpec {
            owner: spoke,
            chain: ChainId(i + 3),
            asset: paid.clone(),
        });
        transfers.push(TransferSpec {
            from: hub,
            to: spoke,
            chain: ChainId(i),
            asset: sent,
        });
        transfers.push(TransferSpec {
            from: spoke,
            to: hub,
            chain: ChainId(i + 3),
            asset: paid,
        });
    }
    DealSpec::new(
        DealId(33),
        (0..4).map(PartyId).collect(),
        escrows,
        transfers,
    )
}

/// ring9, the broker deal, the fan deal, and 20 seeded random deals of 2 to
/// 6 parties.
fn deals() -> Vec<(String, DealSpec)> {
    let mut deals = vec![
        ("ring9".to_string(), ring_spec(DealId(9), 9)),
        ("broker".to_string(), broker_spec()),
        ("fan".to_string(), fan_spec()),
    ];
    for seed in 0..20u64 {
        let params = RandomDealParams {
            parties: 2 + (seed % 5) as u32,
            extra_transfers: (seed % 4) as u32,
            amount: 60,
        };
        deals.push((
            format!("random {seed}"),
            random_well_formed_deal(DealId(100 + seed), &params, seed),
        ));
    }
    deals
}

/// All parties compliant, then each party in turn deviating with each of
/// `never_forward`, `withhold_vote`, `crash_after(Commit)`, and an offline
/// window that covers the timelock protocol's first forwarding rounds.
fn scenarios(spec: &DealSpec) -> Vec<Vec<PartyConfig>> {
    // The timelock engine starts its commit phase at t0 = (t + 6)·∆, t the
    // number of transfers; the window opens half a ∆ later and spans three.
    let t0 = DELTA * (spec.n_transfers() as u64 + 6);
    let offline = (Time(t0 + DELTA / 2), Time(t0 + DELTA / 2 + 3 * DELTA));
    let mut out = vec![Vec::new()];
    for &p in &spec.parties {
        for strategy in [
            strategies::never_forward(),
            strategies::withhold_vote(),
            strategies::crash_after(Phase::Commit),
            strategies::offline_during(offline.0, offline.1),
        ] {
            out.push(vec![PartyConfig::with_strategy(p, strategy)]);
        }
    }
    out
}

fn hash_owner(h: &mut FnvHasher, owner: Owner) {
    match owner {
        Owner::Party(p) => {
            h.write_u8(0);
            h.write_u64(p.0 as u64);
        }
        Owner::Contract(c) => {
            h.write_u8(1);
            h.write_u64(c.0);
        }
    }
}

/// Folds every chain's full log and the per-phase gas and durations of one
/// run into `h`.
fn hash_run(h: &mut FnvHasher, run: &DealRun) {
    for id in run.world.chain_ids() {
        let log = run.world.chain(id).unwrap().log();
        h.write_u64(id.0 as u64);
        h.write_u64(log.len() as u64);
        for e in log {
            h.write_u64(e.seq);
            h.write_u64(e.time.ticks());
            match e.contract {
                Some(c) => h.write_u64(c.0),
                None => h.write_u8(0xff),
            }
            hash_owner(h, e.caller);
            h.write(e.label.as_bytes());
            h.write_u64(e.data.len() as u64);
            for &w in e.data.iter() {
                h.write_u64(w);
            }
        }
    }
    let m = &run.outcome.metrics;
    for phase in Phase::ALL {
        let g = m.gas(phase);
        for w in [
            g.calls,
            g.sig_verifications,
            g.log_entries,
            g.storage_writes,
            g.storage_reads,
            g.compute_steps,
            m.duration(phase).ticks(),
        ] {
            h.write_u64(w);
        }
    }
}

/// The hash of every scenario of `spec` under one engine.
fn deal_hash(spec: &DealSpec, protocol: impl Fn() -> Protocol) -> u64 {
    let mut h = FnvHasher::new();
    for (i, configs) in scenarios(spec).iter().enumerate() {
        let run = Deal::new(spec.clone())
            .network(NetworkModel::synchronous(DELTA))
            .parties(configs)
            .seed(1 + i as u64)
            .run(protocol())
            .unwrap();
        hash_run(&mut h, &run);
    }
    h.finish().0
}

/// (deal, timelock hash, CBC hash), recorded with the engines as of the
/// commit that introduced this test.
const GOLDEN: [(&str, u64, u64); 23] = [
    ("ring9", 0xae9c8d1ca526144a, 0x35b9b0cbf22c483e),
    ("broker", 0x9d4ab4edcbde38e5, 0xaefc25838f6e3a14),
    ("fan", 0x52f4e304cc417351, 0xf8de3fd2f2a27b4e),
    ("random 0", 0x37fe0e85b7710875, 0x13d62e81b8b21891),
    ("random 1", 0x45196ed3a667e7a4, 0x6608b69936e5ab60),
    ("random 2", 0x0a4e5efd86971474, 0x2bd7da0264003cb8),
    ("random 3", 0xa5367079086f22dd, 0xbfded91dff0d1dda),
    ("random 4", 0x85ae62cd269a8c02, 0xd117d9782c2c9853),
    ("random 5", 0xc64709eb26dab0e1, 0x9a2bfcd4fbac060c),
    ("random 6", 0x4f35aea6c2d82d76, 0xc146716d00785997),
    ("random 7", 0x4171512044fcd2e6, 0x0a574d22a0d413b0),
    ("random 8", 0x23518eeca9e05be7, 0xea5e748f245a0724),
    ("random 9", 0x810f91a23639f6c6, 0xef0aca8ef110ec59),
    ("random 10", 0x9af044dd0f1e4f1e, 0x4fced4f1dbae5d24),
    ("random 11", 0x9160906b41f3f045, 0x24107002cb6bb7ae),
    ("random 12", 0x66adf7d5ccab42e7, 0xd5ba7a9d4070583c),
    ("random 13", 0x0f97c84afc2f00a4, 0x11ce7a1eeab21d41),
    ("random 14", 0x889674b999e6ebdb, 0x2ba4ca604064ba20),
    ("random 15", 0x94e27209974c7f65, 0x30cdcb0380bead2f),
    ("random 16", 0x7808255c4377e411, 0xb66b4f0d94036718),
    ("random 17", 0x740caaacef6ebcc0, 0x8d1117d7a9fb5ecb),
    ("random 18", 0x26c008616bc2296f, 0xc3182719920a2068),
    ("random 19", 0x61073ba5eb13b5fc, 0x3b8c3e42572abc84),
];

#[test]
fn the_fan_deal_has_a_party_with_three_outgoing_chains() {
    let spec = fan_spec();
    spec.validate().unwrap();
    assert_eq!(spec.outgoing_chains_of(PartyId(0)).len(), 3);
    assert_eq!(spec.incoming_chains_of(PartyId(0)).len(), 3);
}

#[test]
fn chain_logs_and_phase_gas_match_the_recorded_hashes() {
    let deals = deals();
    assert_eq!(deals.len(), GOLDEN.len());
    let mut mismatches = Vec::new();
    for ((label, spec), &(golden_label, timelock, cbc)) in deals.iter().zip(&GOLDEN) {
        assert_eq!(label, golden_label);
        let got = (
            deal_hash(spec, Protocol::timelock),
            deal_hash(spec, Protocol::cbc),
        );
        if got != (timelock, cbc) {
            mismatches.push(format!(
                "    ({label:?}, {:#018x}, {:#018x}),",
                got.0, got.1
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "chain logs changed for {} deal(s); actual rows:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}
