//! ObservationHub parity: on an adversarial trace — cross-chain interleaving,
//! parties refreshing at different cadences, foreign log entries, a commit on
//! one chain and an abort on the other — every party's [`DealView`] out of
//! the shared, label-filtered hub must be **equal** (same entries, same
//! order) to the view its own PR 3 per-party-cursor [`DealObserver`] builds
//! from the same log. Batching the ingest changes the cost, never the view.

use std::any::Any;
use std::collections::BTreeMap;

use xchain_contracts::escrow::{DealEscrow, EscrowCore};
use xchain_contracts::timelock::{TimelockDealInfo, TimelockManager};
use xchain_deals::builders::broker_spec;
use xchain_deals::plan::DealPlan;
use xchain_deals::setup::world_for_plan;
use xchain_deals::strategy::{DealObserver, ObservationHub};
use xchain_sim::asset::Asset;
use xchain_sim::contract::{CallCtx, Contract};
use xchain_sim::crypto::PathSignature;
use xchain_sim::error::ChainResult;
use xchain_sim::ids::{ChainId, Owner, PartyId};
use xchain_sim::network::NetworkModel;
use xchain_sim::time::{Duration, Time};

/// A bare escrow contract: the Section 4 escrow/transfer semantics of
/// [`EscrowCore`], with an explicit abort in place of a commit protocol.
struct BareEscrow(EscrowCore);

impl BareEscrow {
    fn escrow(&mut self, c: &mut CallCtx<'_>, asset: Asset) -> ChainResult<()> {
        let asset = c.kinds().intern_asset(&asset);
        self.0.escrow(c, asset)
    }

    fn transfer(&mut self, c: &mut CallCtx<'_>, asset: Asset, to: PartyId) -> ChainResult<()> {
        let asset = c.kinds().intern_asset(&asset);
        self.0.transfer(c, &asset, to)
    }

    fn force_abort(&mut self, c: &mut CallCtx<'_>) -> ChainResult<()> {
        self.0.distribute_abort(c)
    }
}

impl Contract for BareEscrow {
    fn type_name(&self) -> &'static str {
        "bare-escrow"
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Asserts that the hub's view of `party` equals a fresh observer-maintained
/// view, after both refresh from the world.
fn check(
    world: &xchain_sim::world::World,
    hub: &mut ObservationHub,
    observers: &mut BTreeMap<PartyId, DealObserver>,
    party: PartyId,
    at: &str,
) {
    hub.refresh(world);
    let obs = observers.get_mut(&party).expect("observer");
    obs.observe(world);
    assert_eq!(
        hub.view_of(party),
        obs.view(),
        "hub and per-party cursor views diverged for {party} at {at}"
    );
}

#[test]
fn hub_views_match_per_party_cursor_views_on_an_adversarial_trace() {
    let spec = broker_spec();
    let plan = DealPlan::new(&spec).unwrap();
    let mut world = world_for_plan(&plan, NetworkModel::synchronous(100), 42).unwrap();
    let (alice, bob, carol) = (PartyId(0), PartyId(1), PartyId(2));
    let (tickets, coins) = (ChainId(0), ChainId(1));

    let info = TimelockDealInfo {
        deal: spec.deal,
        plist: spec.parties.clone().into(),
        t0: Time(1_000),
        delta: Duration(100),
    };
    let tl = world
        .chain_mut(tickets)
        .unwrap()
        .install(TimelockManager::new(info.clone()));
    let esc = world
        .chain_mut(coins)
        .unwrap()
        .install(BareEscrow(EscrowCore::new(spec.deal, spec.parties.clone())));

    let mut hub = ObservationHub::new(&plan);
    let mut observers: BTreeMap<PartyId, DealObserver> = spec
        .parties
        .iter()
        .map(|&p| (p, DealObserver::new(&spec)))
        .collect();

    // --- Escrow, out of order across chains; alice polls eagerly, carol
    // --- only at the very end (one big batch vs many small ones).
    world
        .call(
            tickets,
            Owner::Party(bob),
            tl,
            |m: &mut TimelockManager, c| {
                m.escrow(
                    c,
                    c.kinds()
                        .intern_asset(&Asset::non_fungible("ticket", [1, 2])),
                )
            },
        )
        .unwrap();
    check(
        &world,
        &mut hub,
        &mut observers,
        alice,
        "after bob's escrow",
    );
    world
        .call(coins, Owner::Party(carol), esc, |m: &mut BareEscrow, c| {
            m.escrow(c, Asset::fungible("coin", 101))
        })
        .unwrap();
    check(
        &world,
        &mut hub,
        &mut observers,
        alice,
        "after carol's escrow",
    );
    check(
        &world,
        &mut hub,
        &mut observers,
        bob,
        "bob's first catch-up",
    );

    // --- A failed call leaves no log entry and must not desynchronize
    // --- anything: a stranger tries to escrow.
    assert!(world
        .call(
            coins,
            Owner::Party(PartyId(9)),
            esc,
            |m: &mut BareEscrow, c| m.escrow(c, Asset::fungible("coin", 1)),
        )
        .is_err());
    check(
        &world,
        &mut hub,
        &mut observers,
        alice,
        "after failed escrow",
    );

    // --- Tentative transfers interleaved across chains: coins first so the
    // --- later chain-ordered fold differs from arrival order.
    world
        .call(coins, Owner::Party(carol), esc, |m: &mut BareEscrow, c| {
            m.transfer(c, Asset::fungible("coin", 101), alice)
        })
        .unwrap();
    world
        .call(
            tickets,
            Owner::Party(bob),
            tl,
            |m: &mut TimelockManager, c| {
                m.transfer(
                    c,
                    &c.kinds()
                        .intern_asset(&Asset::non_fungible("ticket", [1, 2])),
                    alice,
                )
            },
        )
        .unwrap();
    check(&world, &mut hub, &mut observers, bob, "after transfers");
    world
        .call(
            tickets,
            Owner::Party(alice),
            tl,
            |m: &mut TimelockManager, c| {
                m.transfer(
                    c,
                    &c.kinds()
                        .intern_asset(&Asset::non_fungible("ticket", [1, 2])),
                    carol,
                )
            },
        )
        .unwrap();
    check(&world, &mut hub, &mut observers, alice, "after forwarding");

    // --- Commit votes on the ticket chain; the third vote commits the
    // --- escrow, so one call yields both a vote and a resolution event.
    world.advance_to(Time(1_005));
    for &p in &spec.parties {
        let key = world.key_pair(p).unwrap().clone();
        let vote = PathSignature::direct(p, &key, &info.vote_message(p));
        world
            .call(
                tickets,
                Owner::Party(p),
                tl,
                |m: &mut TimelockManager, c| m.commit(c, vote.view()),
            )
            .unwrap();
        check(&world, &mut hub, &mut observers, alice, "after a vote");
    }

    // --- The coin escrow aborts: a refund on the other chain.
    world
        .call(coins, Owner::Party(carol), esc, |m: &mut BareEscrow, c| {
            m.force_abort(c)
        })
        .unwrap();

    // --- Final catch-up for everyone, including carol's single big batch.
    for &p in &spec.parties {
        check(&world, &mut hub, &mut observers, p, "final");
    }

    // Sanity: the (identical) views saw the whole deal.
    let view = hub.view_of(carol).clone();
    assert_eq!(view.escrows, vec![(tickets, bob), (coins, carol)]);
    assert!(view.has_voted(alice) && view.has_voted(bob) && view.has_voted(carol));
    assert_eq!(view.resolutions, vec![(tickets, true), (coins, false)]);
    assert!(view.counterparty_escrows_locked(&spec, alice));
}

/// Foreign log entries (outside the deal vocabulary) are filtered out by the
/// hub's subscription and ignored by the observer's string match — the views
/// stay equal, and equally blind to them.
#[test]
fn foreign_entries_are_skipped_identically() {
    use xchain_contracts::token::TokenContract;

    let spec = broker_spec();
    let plan = DealPlan::new(&spec).unwrap();
    let mut world = world_for_plan(&plan, NetworkModel::synchronous(100), 7).unwrap();
    let (tickets, alice, bob) = (ChainId(0), PartyId(0), PartyId(1));

    // A token registry on a deal chain: its "mint" entries are log traffic
    // the deal views never ingest.
    let registry = world
        .chain_mut(tickets)
        .unwrap()
        .install(TokenContract::new("gold", "GLD", alice));
    world
        .call(
            tickets,
            Owner::Party(alice),
            registry,
            |r: &mut TokenContract, c| r.mint(c, bob, 50),
        )
        .unwrap();
    let esc = world
        .chain_mut(tickets)
        .unwrap()
        .install(BareEscrow(EscrowCore::new(spec.deal, spec.parties.clone())));
    world
        .call(tickets, Owner::Party(bob), esc, |m: &mut BareEscrow, c| {
            m.escrow(c, Asset::non_fungible("ticket", [1, 2]))
        })
        .unwrap();

    let mut hub = ObservationHub::new(&plan);
    let mut obs = DealObserver::new(&spec);
    hub.refresh(&world);
    obs.observe(&world);
    assert_eq!(hub.view_of(alice), obs.view());
    assert_eq!(hub.view_of(alice).escrows, vec![(tickets, bob)]);
    assert!(hub.view_of(alice).transfers.is_empty());
}
