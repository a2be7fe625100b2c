//! Property test: `SymGraph::find_cycle` agrees with a brute-force oracle
//! on random directed graphs, any cycle it reports is a real cycle of the
//! graph, and duplicate edges are stored once.
//!
//! The flat storage is also checked against the one it replaced, a plain
//! list per pair: the same counts, the same successors in the same
//! first-insertion order, and so the same cycle found and minimized —
//! every counterexample's text depends on that order.

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
    let model = ListModel::new(edges);
    prop_assert_eq!(g.num_edges(), model.num_edges(), "edges: {:?}", edges);
    prop_assert_eq!(g.num_live_nodes(), model.num_live_nodes());
    for (f, out) in model.adj.iter().enumerate() {
        prop_assert_eq!(g.successors(f as u32), out.as_slice(), "edges: {:?}", edges);
    }
    prop_assert_eq!(&found, &model.find_cycle(), "edges: {:?}", edges);
    if let Some(cycle) = &found {
        let min = g.minimize_cycle(cycle.clone());
        prop_assert_eq!(
            min,
            model.minimize_cycle(cycle.clone()),
            "edges: {:?}",
            edges
        );
    }
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

/// The graph storage `SymGraph` replaced: one list per pair, an edge
/// appended when first added, with the same three-colour DFS and BFS
/// shortening over those lists.
struct ListModel {
    adj: Vec<Vec<u32>>,
}

impl ListModel {
    fn new(edges: &[(usize, usize)]) -> ListModel {
        let mut adj = vec![Vec::new(); N];
        for &(f, t) in edges {
            if !adj[f].contains(&(t as u32)) {
                adj[f].push(t as u32);
            }
        }
        ListModel { adj }
    }

    fn num_edges(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }

    fn num_live_nodes(&self) -> usize {
        let mut live: Vec<bool> = self.adj.iter().map(|out| !out.is_empty()).collect();
        for &t in self.adj.iter().flatten() {
            live[t as usize] = true;
        }
        live.into_iter().filter(|&l| l).count()
    }

    fn find_cycle(&self) -> Option<Vec<u32>> {
        // 0 = white, 1 = gray, 2 = black.
        let mut color = [0u8; N];
        let mut parent = [u32::MAX; N];
        for start in 0..N {
            if color[start] != 0 || self.adj[start].is_empty() {
                continue;
            }
            let mut stack = vec![(start as u32, 0usize)];
            color[start] = 1;
            while let Some(&mut (u, ref mut ei)) = stack.last_mut() {
                let edges = &self.adj[u as usize];
                if *ei == edges.len() {
                    color[u as usize] = 2;
                    stack.pop();
                    continue;
                }
                let v = edges[*ei];
                *ei += 1;
                match color[v as usize] {
                    0 => {
                        color[v as usize] = 1;
                        parent[v as usize] = u;
                        stack.push((v, 0));
                    }
                    1 => {
                        let mut cycle = vec![v];
                        let mut cur = u;
                        while cur != v {
                            cycle.push(cur);
                            cur = parent[cur as usize];
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    _ => {}
                }
            }
        }
        None
    }

    fn minimize_cycle(&self, cycle: Vec<u32>) -> Vec<u32> {
        let mut best = cycle.clone();
        for &s in cycle.iter().take(24) {
            let mut parent = [u32::MAX; N];
            let mut queue = std::collections::VecDeque::new();
            for &t in &self.adj[s as usize] {
                if t == s {
                    return vec![s];
                }
                if parent[t as usize] == u32::MAX {
                    parent[t as usize] = s;
                    queue.push_back(t);
                }
            }
            'bfs: while let Some(u) = queue.pop_front() {
                for &v in &self.adj[u as usize] {
                    if v == s {
                        let mut path = vec![u];
                        let mut cur = u;
                        while cur != s {
                            cur = parent[cur as usize];
                            path.push(cur);
                        }
                        path.reverse();
                        if path.len() < best.len() {
                            best = path;
                        }
                        break 'bfs;
                    }
                    if parent[v as usize] == u32::MAX {
                        parent[v as usize] = u;
                        queue.push_back(v);
                    }
                }
            }
        }
        best
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn find_cycle_agrees_with_oracle(
        edges in proptest::collection::vec((0usize..N, 0usize..N), 0..40),
        stream in proptest::collection::vec((0usize..N, 0usize..N), 40..160)
    ) {
        let topo = TorusTopology::new(&MachineConfig::new(TorusShape::cube(1)));
        // Every draw rides with the planted cycle, once plain and once with
        // each edge added twice (stored once). The long stream repeats
        // edges and fills runs past four and eight successors, so runs
        // move; it is checked again played back after itself in reverse.
        let replayed: Vec<_> = stream.iter().chain(stream.iter().rev()).copied().collect();
        for case in [PLANTED.to_vec(), PLANTED.repeat(2), edges, stream, replayed] {
            check(&topo, &case)?;
        }
    }
}
