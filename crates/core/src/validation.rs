//! What validation checks (Section 4.1): each party expects its net incoming
//! assets to be escrowed for it. The engines check the plan's interned form
//! of these expectations ([`crate::plan::PartyPlan::expected`]) in their
//! shared validation phase.

use xchain_sim::asset::AssetBag;
use xchain_sim::ids::{ChainId, PartyId};

use crate::spec::DealSpec;

/// The assets `party` expects to receive on `chain` according to the deal
/// matrix, minus what it sends onward on the same chain (its net incoming
/// position there is what must be tentatively owned by it at validation time).
pub fn expected_on_chain(spec: &DealSpec, party: PartyId, chain: ChainId) -> AssetBag {
    let mut bag = AssetBag::new();
    for t in spec
        .transfers
        .iter()
        .filter(|t| t.to == party && t.chain == chain)
    {
        bag.add(&t.asset);
    }
    for t in spec
        .transfers
        .iter()
        .filter(|t| t.from == party && t.chain == chain)
    {
        bag.remove(&t.asset);
    }
    bag
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::broker_spec;
    use xchain_sim::asset::Asset;

    #[test]
    fn expected_on_chain_accounts_for_onward_transfers() {
        let spec = broker_spec();
        let alice = PartyId(0);
        // On the coin chain Alice receives 101 and sends 100 onward: net 1.
        let bag = expected_on_chain(&spec, alice, ChainId(1));
        assert_eq!(bag.balance(&"coin".into()), 1);
        // On the ticket chain Alice receives the tickets but forwards them all.
        let bag = expected_on_chain(&spec, alice, ChainId(0));
        assert!(bag.is_empty());
        // Carol expects the two tickets on the ticket chain.
        let bag = expected_on_chain(&spec, PartyId(2), ChainId(0));
        assert!(bag.contains(&Asset::non_fungible("ticket", [1, 2])));
    }
}
