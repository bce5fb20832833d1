//! Compressed-sparse-row storage of a weighted directed graph.
//!
//! `CsrGraph` stores both the forward (out-neighbour) and reverse
//! (in-neighbour) adjacency of a directed graph in four flat vectors, which
//! is the access pattern the diffusion simulator and the seed-selection
//! algorithms need: "who does `u` influence?" and "who can influence `u`?"
//! are both answered by one contiguous slice.

use crate::ids::UserId;

/// A directed edge with a floating-point weight (influence strength).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeightedEdge {
    /// Source node.
    pub src: UserId,
    /// Destination node.
    pub dst: UserId,
    /// Edge weight (an influence probability in `[0, 1]` for social graphs).
    pub weight: f64,
}

/// Compressed-sparse-row representation of a weighted directed graph.
///
/// Nodes are the dense indices `0..node_count()`.  Both the out-adjacency and
/// the in-adjacency are materialised so that forward diffusion and reverse
/// influence queries are O(degree).
#[derive(Clone, Debug)]
pub struct CsrGraph {
    node_count: usize,
    // Forward adjacency.
    out_offsets: Vec<u32>,
    out_targets: Vec<u32>,
    out_weights: Vec<f64>,
    // Reverse adjacency.
    in_offsets: Vec<u32>,
    in_sources: Vec<u32>,
    in_weights: Vec<f64>,
}

impl CsrGraph {
    /// Builds a CSR graph from an edge list over `node_count` nodes.
    ///
    /// Edges whose endpoints are out of range are rejected with a panic; the
    /// caller ([`crate::builder::GraphBuilder`]) is expected to validate and
    /// deduplicate.
    pub fn from_edges(node_count: usize, edges: &[WeightedEdge]) -> Self {
        for e in edges {
            assert!(
                e.src.index() < node_count && e.dst.index() < node_count,
                "edge {:?} -> {:?} out of range for {} nodes",
                e.src,
                e.dst,
                node_count
            );
        }

        let (out_offsets, out_targets, out_weights) =
            Self::bucket(node_count, edges.iter().map(|e| (e.src, e.dst, e.weight)));
        let (in_offsets, in_sources, in_weights) =
            Self::bucket(node_count, edges.iter().map(|e| (e.dst, e.src, e.weight)));

        CsrGraph {
            node_count,
            out_offsets,
            out_targets,
            out_weights,
            in_offsets,
            in_sources,
            in_weights,
        }
    }

    /// Counting-sort style bucketing of `(key, value, weight)` triples.
    fn bucket(
        node_count: usize,
        triples: impl Iterator<Item = (UserId, UserId, f64)> + Clone,
    ) -> (Vec<u32>, Vec<u32>, Vec<f64>) {
        let mut counts = vec![0u32; node_count + 1];
        let mut total = 0usize;
        for (k, _, _) in triples.clone() {
            counts[k.index() + 1] += 1;
            total += 1;
        }
        for i in 0..node_count {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut values = vec![0u32; total];
        let mut weights = vec![0.0f64; total];
        for (k, v, w) in triples {
            let pos = cursor[k.index()] as usize;
            values[pos] = v.0;
            weights[pos] = w;
            cursor[k.index()] += 1;
        }
        (offsets, values, weights)
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    /// Iterator over all node identifiers.
    pub fn nodes(&self) -> impl Iterator<Item = UserId> + '_ {
        (0..self.node_count as u32).map(UserId)
    }

    /// Out-neighbours of `u` together with the edge weights.
    #[inline]
    pub fn out_edges(&self, u: UserId) -> impl Iterator<Item = (UserId, f64)> + '_ {
        let lo = self.out_offsets[u.index()] as usize;
        let hi = self.out_offsets[u.index() + 1] as usize;
        self.out_targets[lo..hi]
            .iter()
            .zip(&self.out_weights[lo..hi])
            .map(|(&t, &w)| (UserId(t), w))
    }

    /// In-neighbours of `u` together with the edge weights.
    #[inline]
    pub fn in_edges(&self, u: UserId) -> impl Iterator<Item = (UserId, f64)> + '_ {
        let lo = self.in_offsets[u.index()] as usize;
        let hi = self.in_offsets[u.index() + 1] as usize;
        self.in_sources[lo..hi]
            .iter()
            .zip(&self.in_weights[lo..hi])
            .map(|(&s, &w)| (UserId(s), w))
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: UserId) -> usize {
        (self.out_offsets[u.index() + 1] - self.out_offsets[u.index()]) as usize
    }

    /// In-degree of `u`.
    #[inline]
    pub fn in_degree(&self, u: UserId) -> usize {
        (self.in_offsets[u.index() + 1] - self.in_offsets[u.index()]) as usize
    }

    /// Returns the weight of the edge `u -> v`, if present.
    ///
    /// If parallel edges exist the first one is returned; the
    /// [`crate::builder::GraphBuilder`] deduplicates by default.
    pub fn edge_weight(&self, u: UserId, v: UserId) -> Option<f64> {
        self.out_edges(u).find(|&(t, _)| t == v).map(|(_, w)| w)
    }

    /// True if the edge `u -> v` exists.
    pub fn has_edge(&self, u: UserId, v: UserId) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// Returns the edges in an order whose [`CsrGraph::from_edges`]
    /// bucketing reproduces **both** the out- and the in-adjacency order of
    /// every node of this graph.
    ///
    /// [`CsrGraph::to_edge_list`] only preserves out-adjacency order (it
    /// enumerates by source, losing the construction order that shaped the
    /// in-lists).  Both adjacencies are projections of the original
    /// construction sequence, so a common linear extension always exists;
    /// this recovers one by a Kahn merge of the per-source and
    /// per-destination chains.  Used by [`CsrGraph::apply_edge_updates`],
    /// where in-adjacency order is load-bearing (RNG-stream replay).
    pub fn interleaved_edge_list(&self) -> Vec<WeightedEdge> {
        // Edge ids in out-major order: per-source chains are consecutive runs.
        let edges = self.to_edge_list();
        let count = edges.len();
        // Pair every in-list entry with its edge id: per-(src, dst) FIFOs in
        // out-major order give a stable pairing even under parallel edges.
        let mut by_pair: std::collections::HashMap<(u32, u32), std::collections::VecDeque<u32>> =
            std::collections::HashMap::new();
        for (id, e) in edges.iter().enumerate() {
            by_pair
                .entry((e.src.0, e.dst.0))
                .or_default()
                .push_back(id as u32);
        }
        // Predecessor constraints: previous edge in the same source chain,
        // previous edge in the same destination (in-list) chain.
        let mut indegree = vec![0u8; count];
        let mut succs: Vec<[u32; 2]> = vec![[u32::MAX; 2]; count];
        for (id, e) in edges.iter().enumerate().skip(1) {
            if edges[id - 1].src == e.src {
                succs[id - 1][0] = id as u32;
                indegree[id] += 1;
            }
        }
        for d in self.nodes() {
            let mut prev: Option<u32> = None;
            for (s, _) in self.in_edges(d) {
                let id = by_pair
                    .get_mut(&(s.0, d.0))
                    .and_then(|q| q.pop_front())
                    .expect("in-list entry must have a matching out-list edge");
                if let Some(p) = prev {
                    succs[p as usize][1] = id;
                    indegree[id as usize] += 1;
                }
                prev = Some(id);
            }
        }
        // Kahn merge, smallest ready id first for determinism.
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<u32>> = (0..count as u32)
            .filter(|&id| indegree[id as usize] == 0)
            .map(std::cmp::Reverse)
            .collect();
        let mut order = Vec::with_capacity(count);
        while let Some(std::cmp::Reverse(id)) = ready.pop() {
            order.push(edges[id as usize]);
            for &succ in &succs[id as usize] {
                if succ != u32::MAX {
                    indegree[succ as usize] -= 1;
                    if indegree[succ as usize] == 0 {
                        ready.push(std::cmp::Reverse(succ));
                    }
                }
            }
        }
        debug_assert_eq!(order.len(), count, "adjacency chains must be acyclic");
        order
    }

    /// Returns all edges as a vector (mainly for tests and serialisation).
    pub fn to_edge_list(&self) -> Vec<WeightedEdge> {
        let mut edges = Vec::with_capacity(self.edge_count());
        for u in self.nodes() {
            for (v, w) in self.out_edges(u) {
                edges.push(WeightedEdge {
                    src: u,
                    dst: v,
                    weight: w,
                });
            }
        }
        edges
    }

    /// Produces a new graph with every edge weight transformed by `f`.
    pub fn map_weights(&self, mut f: impl FnMut(UserId, UserId, f64) -> f64) -> CsrGraph {
        let mut g = self.clone();
        for u in 0..self.node_count {
            let lo = self.out_offsets[u] as usize;
            let hi = self.out_offsets[u + 1] as usize;
            for i in lo..hi {
                g.out_weights[i] = f(
                    UserId(u as u32),
                    UserId(self.out_targets[i]),
                    self.out_weights[i],
                );
            }
        }
        // Rebuild the reverse weights from the forward ones to keep them in sync.
        let edges = g.to_edge_list();
        CsrGraph::from_edges(self.node_count, &edges)
    }

    /// Sum of all edge weights (used by dataset statistics).
    pub fn total_weight(&self) -> f64 {
        self.out_weights.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let edges = [
            WeightedEdge {
                src: UserId(0),
                dst: UserId(1),
                weight: 0.5,
            },
            WeightedEdge {
                src: UserId(0),
                dst: UserId(2),
                weight: 0.25,
            },
            WeightedEdge {
                src: UserId(1),
                dst: UserId(3),
                weight: 1.0,
            },
            WeightedEdge {
                src: UserId(2),
                dst: UserId(3),
                weight: 0.75,
            },
        ];
        CsrGraph::from_edges(4, &edges)
    }

    #[test]
    fn counts_nodes_and_edges() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn out_edges_match_input() {
        let g = diamond();
        let mut out0: Vec<_> = g.out_edges(UserId(0)).collect();
        out0.sort_by_key(|(v, _)| v.0);
        assert_eq!(out0, vec![(UserId(1), 0.5), (UserId(2), 0.25)]);
        assert_eq!(g.out_degree(UserId(0)), 2);
        assert_eq!(g.out_degree(UserId(3)), 0);
    }

    #[test]
    fn in_edges_are_reverse_of_out_edges() {
        let g = diamond();
        let mut in3: Vec<_> = g.in_edges(UserId(3)).collect();
        in3.sort_by_key(|(v, _)| v.0);
        assert_eq!(in3, vec![(UserId(1), 1.0), (UserId(2), 0.75)]);
        assert_eq!(g.in_degree(UserId(3)), 2);
        assert_eq!(g.in_degree(UserId(0)), 0);
    }

    #[test]
    fn edge_weight_lookup() {
        let g = diamond();
        assert_eq!(g.edge_weight(UserId(0), UserId(1)), Some(0.5));
        assert_eq!(g.edge_weight(UserId(1), UserId(0)), None);
        assert!(g.has_edge(UserId(2), UserId(3)));
        assert!(!g.has_edge(UserId(3), UserId(2)));
    }

    #[test]
    fn edge_list_round_trip() {
        let g = diamond();
        let edges = g.to_edge_list();
        let g2 = CsrGraph::from_edges(4, &edges);
        assert_eq!(g2.edge_count(), g.edge_count());
        for u in g.nodes() {
            let a: Vec<_> = g.out_edges(u).collect();
            let b: Vec<_> = g2.out_edges(u).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn interleaved_edge_list_round_trip_preserves_both_adjacencies() {
        // Construction order deliberately not sorted by source, so the
        // in-lists interleave sources: plain `to_edge_list` round-trips
        // would reorder them.
        let edges = [
            WeightedEdge {
                src: UserId(2),
                dst: UserId(0),
                weight: 0.1,
            },
            WeightedEdge {
                src: UserId(1),
                dst: UserId(0),
                weight: 0.2,
            },
            WeightedEdge {
                src: UserId(2),
                dst: UserId(1),
                weight: 0.3,
            },
            WeightedEdge {
                src: UserId(0),
                dst: UserId(1),
                weight: 0.4,
            },
            WeightedEdge {
                src: UserId(0),
                dst: UserId(0),
                weight: 0.5,
            },
        ];
        let g = CsrGraph::from_edges(3, &edges);
        let g2 = CsrGraph::from_edges(3, &g.interleaved_edge_list());
        for u in g.nodes() {
            let out_a: Vec<_> = g.out_edges(u).collect();
            let out_b: Vec<_> = g2.out_edges(u).collect();
            assert_eq!(out_a, out_b, "out-adjacency of {u:?}");
            let in_a: Vec<_> = g.in_edges(u).collect();
            let in_b: Vec<_> = g2.in_edges(u).collect();
            assert_eq!(in_a, in_b, "in-adjacency of {u:?}");
        }
        // In particular node 0's in-list interleaves sources 2, 1, 0 — an
        // order a by-source enumeration cannot produce.
        let in0: Vec<_> = g2.in_edges(UserId(0)).map(|(s, _)| s.0).collect();
        assert_eq!(in0, vec![2, 1, 0]);
    }

    #[test]
    fn map_weights_scales_both_directions() {
        let g = diamond().map_weights(|_, _, w| w * 2.0);
        assert_eq!(g.edge_weight(UserId(0), UserId(1)), Some(1.0));
        let in3: Vec<_> = g.in_edges(UserId(3)).map(|(_, w)| w).collect();
        assert!(in3.contains(&2.0) && in3.contains(&1.5));
    }

    #[test]
    fn total_weight_sums_forward_edges() {
        let g = diamond();
        assert!((g.total_weight() - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edges() {
        let edges = [WeightedEdge {
            src: UserId(0),
            dst: UserId(9),
            weight: 0.1,
        }];
        let _ = CsrGraph::from_edges(2, &edges);
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }
}
