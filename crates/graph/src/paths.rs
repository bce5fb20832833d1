//! Maximum-influence paths, MIOA-style influence regions and hop diameters.
//!
//! The paper's TMI phase uses MIOA \[23\] to identify the users that can be
//! "effectively influenced" by a set of nominees: a user `v` belongs to the
//! influence region of a source set `S` if the *maximum influence path* from
//! some node of `S` to `v` has probability at least a threshold `θ_path`.
//!
//! With edge influence probabilities `p(u, v)`, the probability of a path is
//! the product of its edge probabilities, so the maximum-influence path is a
//! shortest path under the length `-ln p(u, v)`.  This module implements that
//! Dijkstra variant plus helpers for hop diameters of node subsets (used as
//! `d_τ` in dynamic reachability).

use crate::csr::CsrGraph;
use crate::ids::UserId;
use crate::traversal::{bfs, bfs_undirected};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A node paired with the probability of the best path found so far.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    prob: f64,
    node: UserId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on probability; ties broken on node id for determinism.
        self.prob
            .partial_cmp(&other.prob)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.0.cmp(&self.node.0))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Result of a maximum-influence-path computation.
#[derive(Clone, Debug)]
pub struct InfluencePaths {
    /// Best path probability from the source set to each node (0.0 when
    /// unreachable, 1.0 for the sources themselves).
    probabilities: Vec<f64>,
}

impl InfluencePaths {
    /// Probability of the maximum influence path reaching `u`.
    pub fn probability(&self, u: UserId) -> f64 {
        self.probabilities[u.index()]
    }

    /// Nodes whose maximum-influence-path probability is at least `threshold`.
    pub fn region(&self, threshold: f64) -> Vec<UserId> {
        self.probabilities
            .iter()
            .enumerate()
            .filter(|(_, &p)| p >= threshold)
            .map(|(i, _)| UserId::from_index(i))
            .collect()
    }
}

/// Computes maximum-influence paths from a set of sources (Dijkstra on the
/// product-probability semiring).  Edge weights are clamped into `[0, 1]`.
pub fn max_influence_paths(graph: &CsrGraph, sources: &[UserId]) -> InfluencePaths {
    let n = graph.node_count();
    let mut probabilities = vec![0.0f64; n];
    let mut heap = BinaryHeap::new();
    for &s in sources {
        if probabilities[s.index()] < 1.0 {
            probabilities[s.index()] = 1.0;
            heap.push(HeapEntry { prob: 1.0, node: s });
        }
    }
    let mut settled = vec![false; n];
    while let Some(HeapEntry { prob, node }) = heap.pop() {
        if settled[node.index()] {
            continue;
        }
        settled[node.index()] = true;
        for (v, w) in graph.out_edges(node) {
            let w = w.clamp(0.0, 1.0);
            let candidate = prob * w;
            if candidate > probabilities[v.index()] {
                probabilities[v.index()] = candidate;
                heap.push(HeapEntry {
                    prob: candidate,
                    node: v,
                });
            }
        }
    }
    InfluencePaths { probabilities }
}

/// MIOA-style influence region: users reachable from `sources` with a
/// maximum-influence-path probability of at least `threshold`.
///
/// This is the "target market" expansion step of TMI (Sec. IV-B of the paper).
pub fn mioa_region(graph: &CsrGraph, sources: &[UserId], threshold: f64) -> Vec<UserId> {
    max_influence_paths(graph, sources).region(threshold)
}

/// Hop diameter of the subgraph induced by `nodes`, measured on the
/// *undirected* social graph restricted to the node subset.
///
/// The exact diameter would require all-pairs BFS; for the sizes the target
/// markets reach this uses the standard double-sweep lower bound, which is
/// exact on trees and a tight estimate in practice.  The result is at least 1
/// for non-singleton sets so that dynamic-reachability recursions always have
/// positive depth.
pub fn subset_hop_diameter(graph: &CsrGraph, nodes: &[UserId]) -> u32 {
    if nodes.len() <= 1 {
        return if nodes.is_empty() { 0 } else { 1 };
    }
    let in_set: std::collections::HashSet<u32> = nodes.iter().map(|u| u.0).collect();
    // First sweep from an arbitrary member.
    let first = restricted_bfs_farthest(graph, nodes[0], &in_set);
    // Second sweep from the farthest node found.
    let second = restricted_bfs_farthest(graph, first.0, &in_set);
    second.1.max(1)
}

/// BFS restricted to a node subset; returns the farthest reachable in-set node
/// and its hop distance.
fn restricted_bfs_farthest(
    graph: &CsrGraph,
    source: UserId,
    in_set: &std::collections::HashSet<u32>,
) -> (UserId, u32) {
    use std::collections::VecDeque;
    let mut dist: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    dist.insert(source.0, 0);
    let mut queue = VecDeque::new();
    queue.push_back(source);
    let mut far = (source, 0u32);
    while let Some(u) = queue.pop_front() {
        let du = dist[&u.0];
        let neighbours = graph
            .out_edges(u)
            .map(|(v, _)| v)
            .chain(graph.in_edges(u).map(|(v, _)| v));
        for v in neighbours {
            if !in_set.contains(&v.0) || dist.contains_key(&v.0) {
                continue;
            }
            dist.insert(v.0, du + 1);
            if du + 1 > far.1 {
                far = (v, du + 1);
            }
            queue.push_back(v);
        }
    }
    far
}

/// Hop eccentricity of a source set over the whole (directed) graph.
pub fn eccentricity(graph: &CsrGraph, sources: &[UserId]) -> u32 {
    bfs(graph, sources, None).eccentricity()
}

/// Double-sweep estimate of the undirected hop diameter of the whole graph.
pub fn graph_hop_diameter(graph: &CsrGraph) -> u32 {
    if graph.node_count() == 0 {
        return 0;
    }
    let d0 = bfs_undirected(graph, &[UserId(0)], None);
    let far = d0
        .reachable()
        .max_by_key(|u| d0.distance(*u).unwrap_or(0))
        .unwrap_or(UserId(0));
    bfs_undirected(graph, &[far], None).eccentricity()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// 0 -> 1 (0.9) -> 3 (0.9); 0 -> 2 (0.5) -> 3 (0.5); 0 -> 3 (0.4)
    fn probabilistic_diamond() -> CsrGraph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(UserId(0), UserId(1), 0.9);
        b.add_edge(UserId(1), UserId(3), 0.9);
        b.add_edge(UserId(0), UserId(2), 0.5);
        b.add_edge(UserId(2), UserId(3), 0.5);
        b.add_edge(UserId(0), UserId(3), 0.4);
        b.build()
    }

    #[test]
    fn max_influence_path_prefers_high_probability_route() {
        let g = probabilistic_diamond();
        let paths = max_influence_paths(&g, &[UserId(0)]);
        assert!((paths.probability(UserId(3)) - 0.81).abs() < 1e-12);
    }

    #[test]
    fn sources_have_probability_one() {
        let g = probabilistic_diamond();
        let paths = max_influence_paths(&g, &[UserId(0)]);
        assert_eq!(paths.probability(UserId(0)), 1.0);
    }

    #[test]
    fn unreachable_nodes_have_zero_probability() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(UserId(0), UserId(1), 0.5);
        let g = b.build();
        let paths = max_influence_paths(&g, &[UserId(0)]);
        assert_eq!(paths.probability(UserId(2)), 0.0);
    }

    #[test]
    fn mioa_region_thresholds_correctly() {
        let g = probabilistic_diamond();
        let region = mioa_region(&g, &[UserId(0)], 0.6);
        // probabilities: u0=1.0, u1=0.9, u2=0.5, u3=0.81
        assert_eq!(region, vec![UserId(0), UserId(1), UserId(3)]);
        let all = mioa_region(&g, &[UserId(0)], 0.0);
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn multi_source_paths_take_best_source() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(UserId(0), UserId(2), 0.2);
        b.add_edge(UserId(1), UserId(2), 0.8);
        b.add_edge(UserId(2), UserId(3), 0.5);
        let g = b.build();
        let paths = max_influence_paths(&g, &[UserId(0), UserId(1)]);
        assert!((paths.probability(UserId(2)) - 0.8).abs() < 1e-12);
        assert!((paths.probability(UserId(3)) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn subset_diameter_of_path() {
        let mut b = GraphBuilder::new(6);
        for i in 0..5u32 {
            b.add_undirected_edge(UserId(i), UserId(i + 1), 1.0);
        }
        let g = b.build();
        let all: Vec<UserId> = (0..6).map(UserId).collect();
        assert_eq!(subset_hop_diameter(&g, &all), 5);
        // Restricting to a sub-path shortens the diameter.
        let sub: Vec<UserId> = (0..3).map(UserId).collect();
        assert_eq!(subset_hop_diameter(&g, &sub), 2);
    }

    #[test]
    fn subset_diameter_handles_small_sets() {
        let g = probabilistic_diamond();
        assert_eq!(subset_hop_diameter(&g, &[]), 0);
        assert_eq!(subset_hop_diameter(&g, &[UserId(1)]), 1);
    }

    #[test]
    fn graph_diameter_of_path_graph() {
        let mut b = GraphBuilder::new(4);
        for i in 0..3u32 {
            b.add_edge(UserId(i), UserId(i + 1), 1.0);
        }
        let g = b.build();
        assert_eq!(graph_hop_diameter(&g), 3);
        assert_eq!(eccentricity(&g, &[UserId(0)]), 3);
    }
}
