//! Random-graph generators used by the synthetic dataset crate.
//!
//! The paper evaluates on real crawls (Douban, Gowalla, Yelp, Amazon+Pokec)
//! whose defining structural features are (i) heavy-tailed degree
//! distributions, (ii) high clustering in the friendship graph and (iii) a
//! wide range of densities.  The three classic models below cover those
//! regimes:
//!
//! * [`erdos_renyi`] — homogeneous baseline topology,
//! * [`preferential_attachment`] — Barabási–Albert style power-law degrees,
//! * [`watts_strogatz`] — high-clustering small worlds (used for the
//!   course-promotion classes of the empirical study).

use crate::csr::CsrGraph;
use crate::ids::UserId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Generates a directed Erdős–Rényi graph `G(n, p)`.
///
/// Each ordered pair `(u, v)`, `u != v`, is an edge independently with
/// probability `p`.  Weights are left at 1.0; callers re-weight as needed.
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> CsrGraph {
    assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for u in 0..n {
        for v in 0..n {
            if u != v && rng.gen::<f64>() < p {
                edges.push(crate::csr::WeightedEdge {
                    src: UserId(u as u32),
                    dst: UserId(v as u32),
                    weight: 1.0,
                });
            }
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// Generates an undirected preferential-attachment (Barabási–Albert) graph
/// with `n` nodes, each new node attaching to `m` existing nodes, returned as
/// a directed graph with both orientations of every friendship.
///
/// The resulting out-degree distribution is heavy-tailed, matching the social
/// networks of Table II.
pub fn preferential_attachment(n: usize, m: usize, seed: u64) -> CsrGraph {
    assert!(m >= 1, "each new node must attach to at least one node");
    let mut rng = StdRng::seed_from_u64(seed);
    let m0 = (m + 1).min(n.max(1));
    let mut edges: Vec<(u32, u32)> = Vec::new();
    // Repeated-endpoint list implements preferential attachment in O(1) per draw.
    let mut endpoints: Vec<u32> = Vec::new();

    // Seed clique over the first m0 nodes.
    for a in 0..m0 {
        for b in (a + 1)..m0 {
            edges.push((a as u32, b as u32));
            endpoints.push(a as u32);
            endpoints.push(b as u32);
        }
    }
    if m0 == 1 {
        endpoints.push(0);
    }

    for new in m0..n {
        let mut chosen: HashSet<u32> = HashSet::with_capacity(m);
        let mut guard = 0usize;
        while chosen.len() < m.min(new) && guard < 50 * m {
            let pick = endpoints[rng.gen_range(0..endpoints.len())];
            if pick as usize != new {
                chosen.insert(pick);
            }
            guard += 1;
        }
        // Fallback to uniform picks if the multiset was too concentrated.
        while chosen.len() < m.min(new) {
            let pick = rng.gen_range(0..new) as u32;
            chosen.insert(pick);
        }
        // Iterate the chosen targets in sorted order: `HashSet` iteration
        // order varies per process, and it feeds back into `endpoints`, so
        // without sorting the *structure* would differ run to run for the
        // same seed.
        // lint: allow(hash-order) — collected and sorted right below.
        let mut chosen: Vec<u32> = chosen.into_iter().collect();
        chosen.sort_unstable();
        for t in chosen {
            edges.push((new as u32, t));
            endpoints.push(new as u32);
            endpoints.push(t);
        }
    }

    let mut weighted = Vec::with_capacity(edges.len() * 2);
    for (a, b) in edges {
        weighted.push(crate::csr::WeightedEdge {
            src: UserId(a),
            dst: UserId(b),
            weight: 1.0,
        });
        weighted.push(crate::csr::WeightedEdge {
            src: UserId(b),
            dst: UserId(a),
            weight: 1.0,
        });
    }
    CsrGraph::from_edges(n, &weighted)
}

/// Generates a Watts–Strogatz small-world graph: a ring lattice where every
/// node is connected to its `k` nearest neighbours (k must be even), with each
/// edge rewired with probability `beta`.  Returned with both orientations.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> CsrGraph {
    assert!(k.is_multiple_of(2), "k must be even");
    assert!(k < n.max(1), "k must be smaller than n");
    assert!((0.0..=1.0).contains(&beta), "beta must be in [0, 1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut neighbours: Vec<HashSet<usize>> = vec![HashSet::new(); n];
    // Ring lattice.
    for u in 0..n {
        for offset in 1..=(k / 2) {
            let v = (u + offset) % n;
            neighbours[u].insert(v);
            neighbours[v].insert(u);
        }
    }
    // Rewire clockwise edges.
    for u in 0..n {
        for offset in 1..=(k / 2) {
            let v = (u + offset) % n;
            if rng.gen::<f64>() < beta && neighbours[u].contains(&v) {
                // Pick a new endpoint not already a neighbour and not u.
                let mut guard = 0;
                loop {
                    let w = rng.gen_range(0..n);
                    if w != u && !neighbours[u].contains(&w) {
                        neighbours[u].remove(&v);
                        neighbours[v].remove(&u);
                        neighbours[u].insert(w);
                        neighbours[w].insert(u);
                        break;
                    }
                    guard += 1;
                    if guard > 10 * n {
                        break;
                    }
                }
            }
        }
    }
    let mut edges = Vec::new();
    // lint: allow(hash-order) — the outer loop walks the Vec in index
    // order; each per-node HashSet is collected and sorted below before
    // any edge is emitted.
    for (u, nu) in neighbours.iter().enumerate() {
        // Emit the adjacency in sorted order: `HashSet` iteration order
        // varies per process, and CSR bucketing preserves input order, so
        // without sorting the adjacency layout (and everything seeded from
        // it) would differ run to run for the same seed.
        let mut vs: Vec<usize> = nu.iter().copied().collect();
        vs.sort_unstable();
        for v in vs {
            edges.push(crate::csr::WeightedEdge {
                src: UserId(u as u32),
                dst: UserId(v as u32),
                weight: 1.0,
            });
        }
    }
    CsrGraph::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DegreeStats;

    #[test]
    fn erdos_renyi_edge_count_is_near_expectation() {
        let g = erdos_renyi(100, 0.05, 7);
        let expected = 100.0 * 99.0 * 0.05;
        let m = g.edge_count() as f64;
        assert!((m - expected).abs() < expected * 0.5, "m = {m}");
    }

    #[test]
    fn erdos_renyi_zero_probability_is_empty() {
        let g = erdos_renyi(50, 0.0, 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn preferential_attachment_has_heavy_tail() {
        let g = preferential_attachment(500, 3, 11);
        let s = DegreeStats::of(&g);
        // Mean degree ≈ 2 * m (undirected), max much larger than mean.
        assert!(s.mean_out_degree > 4.0 && s.mean_out_degree < 8.0);
        assert!(s.max_out_degree as f64 > 4.0 * s.mean_out_degree);
    }

    #[test]
    fn preferential_attachment_is_symmetric() {
        let g = preferential_attachment(50, 2, 3);
        for u in g.nodes() {
            for (v, _) in g.out_edges(u) {
                assert!(g.has_edge(v, u), "missing reverse edge {v:?} -> {u:?}");
            }
        }
    }

    #[test]
    fn preferential_attachment_is_deterministic_per_seed() {
        let a = preferential_attachment(100, 2, 42);
        let b = preferential_attachment(100, 2, 42);
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.to_edge_list().len(), b.to_edge_list().len());
    }

    #[test]
    fn watts_strogatz_preserves_mean_degree() {
        let g = watts_strogatz(100, 6, 0.1, 5);
        let s = DegreeStats::of(&g);
        assert!(
            (s.mean_out_degree - 6.0).abs() < 0.5,
            "{}",
            s.mean_out_degree
        );
    }

    #[test]
    fn watts_strogatz_zero_beta_is_ring_lattice() {
        let g = watts_strogatz(10, 4, 0.0, 5);
        for u in g.nodes() {
            assert_eq!(g.out_degree(u), 4);
        }
    }

    #[test]
    #[should_panic(expected = "k must be even")]
    fn watts_strogatz_rejects_odd_k() {
        let _ = watts_strogatz(10, 3, 0.1, 1);
    }
}
