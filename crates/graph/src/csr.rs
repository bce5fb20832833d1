//! Compressed-sparse-row storage of a weighted directed graph.
//!
//! `CsrGraph` stores both the forward (out-neighbour) and reverse
//! (in-neighbour) adjacency of a directed graph in four flat vectors, which
//! is the access pattern the diffusion simulator and the seed-selection
//! algorithms need: "who does `u` influence?" and "who can influence `u`?"
//! are both answered by one contiguous slice.
//!
//! The arrays are never mutated in place: [`CsrGraph::from_edges`] buckets
//! an edge list, and [`CsrGraph::apply_edge_updates`] writes a new graph
//! that copies every untouched row as it is and splices in the rows its
//! updates edited.

use crate::ids::UserId;
use std::collections::BTreeMap;

/// One node's adjacency row under edit: neighbour ids and edge weights.
pub(crate) type Row = (Vec<u32>, Vec<f64>);

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

    /// The graph with the out-rows of `out_rows` and the in-rows of
    /// `in_rows` replaced and every other row copied as it is.  The caller
    /// keeps both directions describing the same edges.
    pub(crate) fn with_rows(
        &self,
        out_rows: &BTreeMap<u32, Row>,
        in_rows: &BTreeMap<u32, Row>,
    ) -> CsrGraph {
        let (out_offsets, out_targets, out_weights) = splice(
            &self.out_offsets,
            &self.out_targets,
            &self.out_weights,
            out_rows,
        );
        let (in_offsets, in_sources, in_weights) = splice(
            &self.in_offsets,
            &self.in_sources,
            &self.in_weights,
            in_rows,
        );
        CsrGraph {
            node_count: self.node_count,
            out_offsets,
            out_targets,
            out_weights,
            in_offsets,
            in_sources,
            in_weights,
        }
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

/// One adjacency direction with the rows of `edited` in place of the old
/// ones and every other row copied as it is, written in one pass into
/// arrays of exactly their final length.
fn splice(
    offsets: &[u32],
    values: &[u32],
    weights: &[f64],
    edited: &BTreeMap<u32, Row>,
) -> (Vec<u32>, Vec<u32>, Vec<f64>) {
    let row = |u: usize| offsets[u] as usize..offsets[u + 1] as usize;
    let len = edited.iter().fold(values.len(), |len, (&u, (ids, _))| {
        len + ids.len() - row(u as usize).len()
    });
    let mut out = (
        Vec::with_capacity(offsets.len()),
        Vec::with_capacity(len),
        Vec::with_capacity(len),
    );
    out.0.push(0);
    let mut edited = edited.iter().peekable();
    for u in 0..offsets.len() - 1 {
        let (ids, ws) = match edited.next_if(|&(&v, _)| v as usize == u) {
            Some((_, (ids, ws))) => (ids.as_slice(), ws.as_slice()),
            None => (&values[row(u)], &weights[row(u)]),
        };
        out.1.extend_from_slice(ids);
        out.2.extend_from_slice(ws);
        out.0.push(out.1.len() as u32);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edits::EdgeUpdate;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// A random case: a graph over at most 12 nodes from at most 40 edges,
    /// parallel edges and self-loops included, and two batches of up to 8
    /// mixed updates, most of which name a pair named before, so one batch
    /// often edits one pair more than once.
    fn random_case(rng: &mut StdRng) -> (usize, Vec<WeightedEdge>, [Vec<EdgeUpdate>; 2]) {
        let n = rng.gen_range(1..13usize);
        let node = |rng: &mut StdRng| UserId(rng.gen_range(0..n as u32));
        let edges: Vec<WeightedEdge> = (0..rng.gen_range(0..41))
            .map(|_| WeightedEdge {
                src: node(rng),
                dst: node(rng),
                weight: rng.gen(),
            })
            .collect();
        let mut pairs: Vec<(UserId, UserId)> = edges.iter().map(|e| (e.src, e.dst)).collect();
        let mut batch = |rng: &mut StdRng| -> Vec<EdgeUpdate> {
            (0..rng.gen_range(0..9))
                .map(|_| {
                    let (src, dst) = if !pairs.is_empty() && rng.gen_bool(0.7) {
                        pairs[rng.gen_range(0..pairs.len())]
                    } else {
                        (node(rng), node(rng))
                    };
                    pairs.push((src, dst));
                    let weight = rng.gen();
                    match rng.gen_range(0..3) {
                        0 => EdgeUpdate::Insert { src, dst, weight },
                        1 => EdgeUpdate::Remove { src, dst },
                        _ => EdgeUpdate::Reweight { src, dst, weight },
                    }
                })
                .collect()
        };
        let batches = [batch(rng), batch(rng)];
        (n, edges, batches)
    }

    #[test]
    fn edge_updates_splice_rows_like_a_per_row_model() {
        let mut rng = StdRng::seed_from_u64(0x5911CE);
        for case in 0..400 {
            let (n, edges, batches) = random_case(&mut rng);
            let mut g = CsrGraph::from_edges(n, &edges);
            // The model: the construction list, each update applied at the
            // first live edge of its pair or appended; a node's out-row
            // (in-row) lists the edges from (to) it in list order.
            let mut model = edges;
            for updates in &batches {
                g = g.apply_edge_updates(updates);
                for up in updates {
                    let pair = (up.src(), up.dst());
                    match (*up, model.iter().position(|e| (e.src, e.dst) == pair)) {
                        (
                            EdgeUpdate::Insert { weight, .. } | EdgeUpdate::Reweight { weight, .. },
                            Some(i),
                        ) => model[i].weight = weight,
                        (EdgeUpdate::Insert { src, dst, weight }, None) => {
                            model.push(WeightedEdge { src, dst, weight })
                        }
                        (EdgeUpdate::Remove { .. }, Some(i)) => drop(model.remove(i)),
                        _ => {}
                    }
                }
                let rows = |key: fn(&WeightedEdge) -> (UserId, UserId)| {
                    let (mut offsets, mut ids, mut bits) = (vec![0u32], vec![], vec![]);
                    for u in 0..n as u32 {
                        for e in &model {
                            if key(e).0 .0 == u {
                                ids.push(key(e).1 .0);
                                bits.push(e.weight.to_bits());
                            }
                        }
                        offsets.push(ids.len() as u32);
                    }
                    (offsets, ids, bits)
                };
                let bits = |w: &[f64]| w.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    (
                        g.out_offsets.clone(),
                        g.out_targets.clone(),
                        bits(&g.out_weights)
                    ),
                    rows(|e| (e.src, e.dst)),
                    "case {case}: out-adjacency after {updates:?}"
                );
                assert_eq!(
                    (
                        g.in_offsets.clone(),
                        g.in_sources.clone(),
                        bits(&g.in_weights)
                    ),
                    rows(|e| (e.dst, e.src)),
                    "case {case}: in-adjacency after {updates:?}"
                );
                let inserts = updates
                    .iter()
                    .filter(|up| matches!(up, EdgeUpdate::Insert { .. }))
                    .count();
                for (capacity, len) in [
                    (g.out_targets.capacity(), g.out_targets.len()),
                    (g.out_weights.capacity(), g.out_weights.len()),
                    (g.in_sources.capacity(), g.in_sources.len()),
                    (g.in_weights.capacity(), g.in_weights.len()),
                ] {
                    assert!(capacity <= len + inserts, "case {case}: spare capacity");
                }
            }
        }
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
