//! Property test: `SymGraph::find_cycle` agrees with a brute-force oracle
//! on random directed graphs, any cycle it reports is a real cycle of the
//! graph, and duplicate edges are stored once.

use anton_core::config::MachineConfig;
use anton_core::net::TorusTopology;
use anton_core::topology::TorusShape;
use anton_verify::graph::SymGraph;
use proptest::prelude::*;
use std::collections::HashSet;

const N: usize = 12;

/// A planted 3-cycle with a tail off it: the only cycle is `0 → 1 → 2`.
const PLANTED: [(usize, usize); 4] = [(0, 1), (1, 2), (2, 0), (2, 3)];

/// Brute-force oracle: does any directed cycle exist? Recursive DFS over
/// the raw edge list, no sharing with the production implementation.
fn has_cycle_oracle(edges: &[(usize, usize)]) -> bool {
    let mut adj = vec![Vec::new(); N];
    for &(f, t) in edges {
        adj[f].push(t);
    }
    // state: 0 = unvisited, 1 = on stack, 2 = done
    fn dfs(u: usize, adj: &[Vec<usize>], state: &mut [u8]) -> bool {
        state[u] = 1;
        for &v in &adj[u] {
            if state[v] == 1 {
                return true;
            }
            if state[v] == 0 && dfs(v, adj, state) {
                return true;
            }
        }
        state[u] = 2;
        false
    }
    let mut state = vec![0u8; N];
    (0..N).any(|s| state[s] == 0 && dfs(s, &adj, &mut state))
}

/// Checks one edge list. The graph algorithm only cares about node
/// identity, so the abstract node ids are dense indices of a one-node
/// machine's graph directly.
fn check(topo: &TorusTopology, edges: &[(usize, usize)]) -> Result<(), TestCaseError> {
    let mut g = SymGraph::new(topo, 1);
    for &(f, t) in edges {
        g.add_edge_idx(f as u32, t as u32);
    }
    let edge_set: HashSet<(u32, u32)> = edges.iter().map(|&(f, t)| (f as u32, t as u32)).collect();
    let live: HashSet<u32> = edge_set.iter().flat_map(|&(f, t)| [f, t]).collect();
    prop_assert_eq!(g.num_edges(), edge_set.len(), "edges: {:?}", edges);
    prop_assert_eq!(g.num_live_nodes(), live.len(), "edges: {:?}", edges);
    let found = g.find_cycle();
    prop_assert_eq!(
        found.is_some(),
        has_cycle_oracle(edges),
        "edges: {:?}",
        edges
    );
    if let Some(cycle) = found {
        // The reported cycle, and the minimized one, must be nonempty and
        // every consecutive pair (wrapping) must be a real edge.
        for cycle in [cycle.clone(), g.minimize_cycle(cycle)] {
            prop_assert!(!cycle.is_empty());
            for i in 0..cycle.len() {
                let step = (cycle[i], cycle[(i + 1) % cycle.len()]);
                prop_assert!(
                    edge_set.contains(&step),
                    "reported cycle step {step:?} is not an edge of {edges:?}"
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn find_cycle_agrees_with_oracle(
        edges in proptest::collection::vec((0usize..N, 0usize..N), 0..40)
    ) {
        let topo = TorusTopology::new(&MachineConfig::new(TorusShape::cube(1)));
        // Every draw rides with the planted cycle, once plain and once with
        // each edge added twice (stored once).
        for case in [PLANTED.to_vec(), PLANTED.repeat(2), edges] {
            check(&topo, &case)?;
        }
    }
}
