//! The deal digraph and well-formedness (Section 5.1, Figure 2).
//!
//! "We can think of a deal as a directed graph, where each vertex represents a
//! party, and each arc represents a transfer. If the deal digraph is not
//! strongly connected … it must include one or more free riders that
//! collectively take assets but do not return any." The protocols assume
//! well-formed (strongly connected) deals; the check here is the one a party
//! would run before agreeing to participate.

use std::collections::BTreeMap;

use xchain_sim::ids::PartyId;

use crate::spec::DealSpec;

/// The deal digraph: vertices are parties, arcs are transfers.
#[derive(Debug, Clone)]
pub struct DealDigraph {
    vertices: Vec<PartyId>,
    /// Adjacency: for each vertex index, the indices it has arcs to.
    adjacency: Vec<Vec<usize>>,
}

impl DealDigraph {
    /// Builds the digraph of a deal specification.
    pub fn from_spec(spec: &DealSpec) -> Self {
        let vertices = spec.parties.clone();
        let index: BTreeMap<PartyId, usize> =
            vertices.iter().enumerate().map(|(i, p)| (*p, i)).collect();
        let mut adjacency = vec![Vec::new(); vertices.len()];
        for t in &spec.transfers {
            let (Some(&from), Some(&to)) = (index.get(&t.from), index.get(&t.to)) else {
                continue;
            };
            if !adjacency[from].contains(&to) {
                adjacency[from].push(to);
            }
        }
        DealDigraph {
            vertices,
            adjacency,
        }
    }

    /// Number of vertices (parties).
    pub fn n_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of distinct arcs.
    pub fn n_arcs(&self) -> usize {
        self.adjacency.iter().map(|a| a.len()).sum()
    }

    /// The strongly connected components (Tarjan's algorithm, iterative),
    /// each a list of parties. Components are returned in reverse topological
    /// order of the condensation.
    pub fn strongly_connected_components(&self) -> Vec<Vec<PartyId>> {
        let n = self.vertices.len();
        let mut index_counter = 0usize;
        let mut indices = vec![usize::MAX; n];
        let mut lowlink = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut components: Vec<Vec<PartyId>> = Vec::new();

        // Iterative Tarjan: each frame is (vertex, next neighbour position).
        for start in 0..n {
            if indices[start] != usize::MAX {
                continue;
            }
            let mut call_stack: Vec<(usize, usize)> = vec![(start, 0)];
            while let Some(&mut (v, ref mut ni)) = call_stack.last_mut() {
                if *ni == 0 {
                    indices[v] = index_counter;
                    lowlink[v] = index_counter;
                    index_counter += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                if *ni < self.adjacency[v].len() {
                    let w = self.adjacency[v][*ni];
                    *ni += 1;
                    if indices[w] == usize::MAX {
                        call_stack.push((w, 0));
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(indices[w]);
                    }
                } else {
                    call_stack.pop();
                    if let Some(&mut (parent, _)) = call_stack.last_mut() {
                        lowlink[parent] = lowlink[parent].min(lowlink[v]);
                    }
                    if lowlink[v] == indices[v] {
                        let mut component = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            component.push(self.vertices[w]);
                            if w == v {
                                break;
                            }
                        }
                        components.push(component);
                    }
                }
            }
        }
        components
    }

    /// True if the digraph is strongly connected (one SCC containing every
    /// party) — the paper's well-formedness condition.
    pub fn is_strongly_connected(&self) -> bool {
        if self.vertices.is_empty() {
            return false;
        }
        let sccs = self.strongly_connected_components();
        sccs.len() == 1 && sccs[0].len() == self.vertices.len()
    }

    /// Parties that receive assets but relinquish nothing — "free riders".
    /// A well-formed deal has none.
    pub fn free_riders(&self) -> Vec<PartyId> {
        let n = self.vertices.len();
        let mut has_outgoing = vec![false; n];
        let mut has_incoming = vec![false; n];
        for (from, tos) in self.adjacency.iter().enumerate() {
            for &to in tos {
                has_outgoing[from] = true;
                has_incoming[to] = true;
            }
        }
        (0..n)
            .filter(|&i| has_incoming[i] && !has_outgoing[i])
            .map(|i| self.vertices[i])
            .collect()
    }
}

/// Convenience: well-formedness of a deal specification.
pub fn is_well_formed(spec: &DealSpec) -> bool {
    DealDigraph::from_spec(spec).is_strongly_connected()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{EscrowSpec, TransferSpec};
    use xchain_sim::asset::Asset;
    use xchain_sim::ids::{ChainId, DealId};

    fn spec_with_arcs(n: u32, arcs: &[(u32, u32)]) -> DealSpec {
        DealSpec::new(
            DealId(1),
            (0..n).map(PartyId).collect(),
            arcs.iter()
                .map(|(from, _)| EscrowSpec {
                    owner: PartyId(*from),
                    chain: ChainId(*from),
                    asset: Asset::fungible("coin", 1),
                })
                .collect(),
            arcs.iter()
                .map(|(from, to)| TransferSpec {
                    from: PartyId(*from),
                    to: PartyId(*to),
                    chain: ChainId(*from),
                    asset: Asset::fungible("coin", 1),
                })
                .collect(),
        )
    }

    #[test]
    fn broker_digraph_is_strongly_connected() {
        // Figure 2: Bob -> Alice -> Carol -> Alice -> Bob (tickets one way,
        // coins the other).
        let spec = spec_with_arcs(3, &[(1, 0), (0, 2), (2, 0), (0, 1)]);
        let g = DealDigraph::from_spec(&spec);
        assert_eq!(g.n_vertices(), 3);
        assert_eq!(g.n_arcs(), 4);
        assert!(g.is_strongly_connected());
        assert!(g.free_riders().is_empty());
        assert!(is_well_formed(&spec));
    }

    #[test]
    fn ring_deals_are_well_formed() {
        for n in (2..8).chain([10, 100, 500]) {
            let arcs: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
            let spec = spec_with_arcs(n, &arcs);
            assert!(is_well_formed(&spec), "ring of {n} should be well-formed");
        }
    }

    #[test]
    fn free_rider_breaks_well_formedness() {
        // Party 2 receives from 0 and 1 but gives nothing back.
        let spec = spec_with_arcs(3, &[(0, 1), (1, 0), (0, 2), (1, 2)]);
        let g = DealDigraph::from_spec(&spec);
        assert!(!g.is_strongly_connected());
        assert_eq!(g.free_riders(), vec![PartyId(2)]);
        assert!(!is_well_formed(&spec));
    }

    #[test]
    fn disconnected_pairs_are_not_well_formed() {
        let spec = spec_with_arcs(4, &[(0, 1), (1, 0), (2, 3), (3, 2)]);
        let g = DealDigraph::from_spec(&spec);
        assert!(!g.is_strongly_connected());
        assert_eq!(g.strongly_connected_components().len(), 2);
        assert!(g.free_riders().is_empty(), "no free riders, yet ill-formed");
    }

    #[test]
    fn isolated_party_detected() {
        let spec = spec_with_arcs(3, &[(0, 1), (1, 0)]);
        let g = DealDigraph::from_spec(&spec);
        assert!(!g.is_strongly_connected());
        assert_eq!(g.strongly_connected_components().len(), 2);
    }

    #[test]
    fn scc_partition_covers_all_vertices() {
        let spec = spec_with_arcs(5, &[(0, 1), (1, 2), (2, 0), (3, 4)]);
        let g = DealDigraph::from_spec(&spec);
        let sccs = g.strongly_connected_components();
        let total: usize = sccs.iter().map(|c| c.len()).sum();
        assert_eq!(total, 5);
        assert!(sccs.iter().any(|c| c.len() == 3));
    }

    #[test]
    fn empty_digraph_not_well_formed() {
        let spec = DealSpec::new(DealId(1), vec![], vec![], vec![]);
        assert!(!is_well_formed(&spec));
    }

    #[test]
    fn single_party_no_arcs() {
        let spec = DealSpec::new(DealId(1), vec![PartyId(0)], vec![], vec![]);
        let g = DealDigraph::from_spec(&spec);
        // One SCC containing the single party: trivially strongly connected.
        assert!(g.is_strongly_connected());
    }
}
