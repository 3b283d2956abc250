//! World setup helpers shared by the protocol engines, the sweeps, tests and
//! the benchmark: build the world a [`DealPlan`] runs in (the chains and
//! parties it references, each escrow owner holding its asset), plus the
//! prologue and time-stepping primitive every engine uses.

use std::collections::BTreeMap;

use xchain_sim::asset::AssetBag;
use xchain_sim::ids::{ChainId, Owner, PartyId};
use xchain_sim::network::NetworkModel;
use xchain_sim::time::Duration;
use xchain_sim::world::World;

use crate::error::DealError;
use crate::party::PartyConfig;
use crate::plan::DealPlan;
use crate::spec::DealSpec;

/// A plan's world topology: one chain per referenced chain id and one party
/// per referenced party id. Chains get a 1-tick block interval, so chain time
/// tracks world time closely, and no names.
pub(crate) fn add_chains_and_parties(world: &mut World, chains: &[ChainId], parties: &[PartyId]) {
    // Parties first: their keys then go into a directory no chain shares
    // yet, which is written in place instead of copied.
    let max_party = parties.iter().map(|p| p.0).max().unwrap_or(0);
    world.add_parties(max_party as usize + 1);
    let max_chain = chains.iter().map(|c| c.0).max().unwrap_or(0);
    world.add_chains(max_chain as usize + 1, Duration(1));
}

/// Creates a world containing every chain and party the plan references,
/// with each escrow owner already holding the asset it is supposed to escrow;
/// the network model is supplied by the caller. The world's kind table
/// starts as a [fork] of the plan's canonical table, so every id the plan
/// assigned is valid on all of this world's chains, and the escrow assets are
/// minted from the plan's interned assets (no name resolution during setup).
/// This is what [`crate::Deal::run`] and the sweep executor build cells from.
///
/// [fork]: xchain_sim::intern::KindTable::fork
pub fn world_for_plan(
    plan: &DealPlan,
    network: NetworkModel,
    seed: u64,
) -> Result<World, DealError> {
    let mut world = World::with_network_and_kinds(seed, network, plan.kinds().fork());
    add_chains_and_parties(&mut world, plan.chains(), &plan.spec().parties);
    for e in plan.escrows() {
        world
            .mint_interned(e.chain, Owner::Party(e.owner), &e.asset)
            .map_err(DealError::Chain)?;
    }
    Ok(world)
}

/// Advances the world clock by one sampled observation delay (bounded by the
/// worst-case delay of the network model at the current time). The protocol
/// engines use this as their single time-stepping primitive between actions.
pub fn advance_one_observation(world: &mut World) {
    let now = world.now();
    let delay = world.network().sample_delay(now, world.rng());
    world.advance_by(delay);
}

/// Fails unless every party of the plan exists in the world — a sanity
/// check used by the engines.
pub fn check_parties_exist(world: &World, plan: &DealPlan) -> Result<(), DealError> {
    match plan.plist().iter().find(|&&p| !world.has_party(p)) {
        Some(p) => Err(DealError::Config(format!(
            "{p} does not exist in the world"
        ))),
        None => Ok(()),
    }
}

/// Fails unless every chain of the plan exists in the world.
pub fn check_chains_exist(world: &World, plan: &DealPlan) -> Result<(), DealError> {
    match plan.chains().iter().find(|&&c| world.chain(c).is_err()) {
        Some(c) => Err(DealError::Config(format!(
            "{c} does not exist in the world"
        ))),
        None => Ok(()),
    }
}

/// The prologue every engine runs before its first phase: the plan's
/// parties and chains must exist, and the offline windows the
/// configurations declare are applied. Returns every party's holdings at
/// the start.
pub fn begin(
    world: &mut World,
    plan: &DealPlan,
    configs: &[PartyConfig],
) -> Result<BTreeMap<PartyId, AssetBag>, DealError> {
    check_parties_exist(world, plan)?;
    check_chains_exist(world, plan)?;
    apply_offline_windows(world, configs);
    Ok(world.holdings_by_party(&plan.spec().parties))
}

/// Applies the offline windows declared in party configurations to the world.
pub fn apply_offline_windows(world: &mut World, configs: &[PartyConfig]) {
    for c in configs {
        if let Some((from, until)) = c.offline_window() {
            world.set_offline(c.id, from, until);
        }
    }
}

/// Picks a party that is online at the world's current time, preferring
/// compliant parties, to submit housekeeping transactions (timeout claims,
/// proof presentations). Returns `None` if everyone is offline.
pub fn pick_online_party(
    world: &World,
    spec: &DealSpec,
    configs: &[PartyConfig],
) -> Option<PartyId> {
    let now = world.now();
    let available = |p: PartyId| {
        !world.is_offline(p, now) && crate::party::config_of(configs, p).strategy.is_online(now)
    };
    let compliant_first = spec
        .parties
        .iter()
        .copied()
        .filter(|&p| crate::party::config_of(configs, p).is_compliant() && available(p));
    if let Some(p) = compliant_first.into_iter().next() {
        return Some(p);
    }
    spec.parties.iter().copied().find(|&p| available(p))
}

/// Returns the chains a party must interact with under the timelock protocol
/// when it behaves compliantly: the chains of its incoming assets (votes) and
/// outgoing assets (monitoring) only. Used to verify the decentralization
/// claim of Section 5.1.
pub fn chains_touched_by(spec: &DealSpec, party: PartyId) -> Vec<ChainId> {
    let mut chains = spec.incoming_chains_of(party);
    chains.extend(spec.outgoing_chains_of(party));
    chains.sort();
    chains.dedup();
    chains
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{EscrowSpec, TransferSpec};
    use crate::strategy::strategies;
    use xchain_sim::asset::Asset;
    use xchain_sim::ids::DealId;
    use xchain_sim::time::Time;

    fn tiny_spec() -> DealSpec {
        DealSpec::new(
            DealId(1),
            vec![PartyId(0), PartyId(1)],
            vec![
                EscrowSpec {
                    owner: PartyId(0),
                    chain: ChainId(0),
                    asset: Asset::fungible("a", 5),
                },
                EscrowSpec {
                    owner: PartyId(1),
                    chain: ChainId(1),
                    asset: Asset::fungible("b", 7),
                },
            ],
            vec![
                TransferSpec {
                    from: PartyId(0),
                    to: PartyId(1),
                    chain: ChainId(0),
                    asset: Asset::fungible("a", 5),
                },
                TransferSpec {
                    from: PartyId(1),
                    to: PartyId(0),
                    chain: ChainId(1),
                    asset: Asset::fungible("b", 7),
                },
            ],
        )
    }

    #[test]
    fn world_setup_creates_chains_parties_and_assets() {
        let spec = tiny_spec();
        let plan = DealPlan::new(&spec).unwrap();
        let world = world_for_plan(&plan, NetworkModel::synchronous(10), 3).unwrap();
        check_parties_exist(&world, &plan).unwrap();
        check_chains_exist(&world, &plan).unwrap();
        assert!(world
            .chain(ChainId(0))
            .unwrap()
            .holdings(Owner::Party(PartyId(0)))
            .contains(&Asset::fungible("a", 5)));
        assert!(world
            .chain(ChainId(1))
            .unwrap()
            .holdings(Owner::Party(PartyId(1)))
            .contains(&Asset::fungible("b", 7)));
    }

    #[test]
    fn offline_windows_and_party_picking() {
        let spec = tiny_spec();
        let plan = DealPlan::new(&spec).unwrap();
        let mut world = world_for_plan(&plan, NetworkModel::synchronous(10), 3).unwrap();
        let configs = vec![PartyConfig::with_strategy(
            PartyId(0),
            strategies::offline_during(Time(0), Time(100)),
        )];
        apply_offline_windows(&mut world, &configs);
        assert!(world.is_offline(PartyId(0), Time(50)));
        // Party 1 is compliant and online, so it is preferred.
        assert_eq!(pick_online_party(&world, &spec, &configs), Some(PartyId(1)));
        // If everyone is offline, no one can be picked.
        world.set_offline(PartyId(1), Time(0), Time(100));
        assert_eq!(pick_online_party(&world, &spec, &configs), None);
    }

    #[test]
    fn decentralization_chain_sets() {
        let spec = tiny_spec();
        assert_eq!(
            chains_touched_by(&spec, PartyId(0)),
            vec![ChainId(0), ChainId(1)]
        );
        let plan = DealPlan::new(&spec).unwrap();
        let missing = check_parties_exist(&World::new(0), &plan);
        assert!(missing.is_err());
        assert!(check_chains_exist(&World::new(0), &plan).is_err());
    }
}
