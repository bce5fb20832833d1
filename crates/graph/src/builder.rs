//! Incremental construction of [`CsrGraph`]s from edge lists.

use crate::csr::{CsrGraph, WeightedEdge};
use crate::ids::UserId;
use std::collections::HashMap;

/// Builder accumulating weighted directed edges before freezing them into a
/// [`CsrGraph`].
///
/// The builder validates weights, grows the node count on demand and keeps
/// the last weight given to a duplicate `(src, dst)` edge.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    node_count: usize,
    edges: HashMap<(u32, u32), f64>,
    insertion_order: Vec<(u32, u32)>,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        Self::new(0)
    }
}

impl GraphBuilder {
    /// Creates a builder over `node_count` nodes (more nodes can be added by
    /// inserting edges with larger endpoints or calling [`Self::ensure_node`]).
    pub fn new(node_count: usize) -> Self {
        GraphBuilder {
            node_count,
            edges: HashMap::new(),
            insertion_order: Vec::new(),
        }
    }

    /// Ensures the node `u` exists (extending the node count if needed).
    pub fn ensure_node(&mut self, u: UserId) {
        if u.index() >= self.node_count {
            self.node_count = u.index() + 1;
        }
    }

    /// Number of nodes seen so far.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of distinct edges accumulated so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a directed edge `src -> dst` with the given weight, replacing the
    /// weight of an earlier `src -> dst` edge.
    pub fn add_edge(&mut self, src: UserId, dst: UserId, weight: f64) -> &mut Self {
        assert!(weight.is_finite(), "edge weight must be finite");
        self.ensure_node(src);
        self.ensure_node(dst);
        let key = (src.0, dst.0);
        if self.edges.insert(key, weight).is_none() {
            self.insertion_order.push(key);
        }
        self
    }

    /// Adds an undirected edge as a pair of directed edges with the same weight.
    pub fn add_undirected_edge(&mut self, a: UserId, b: UserId, weight: f64) -> &mut Self {
        self.add_edge(a, b, weight);
        self.add_edge(b, a, weight);
        self
    }

    /// Freezes the builder into a [`CsrGraph`].
    ///
    /// Edges are emitted in insertion order, which makes the result
    /// deterministic for a deterministic insertion sequence.
    pub fn build(&self) -> CsrGraph {
        let mut edges = Vec::with_capacity(self.edges.len());
        for &(s, d) in &self.insertion_order {
            let w = self.edges[&(s, d)];
            edges.push(WeightedEdge {
                src: UserId(s),
                dst: UserId(d),
                weight: w,
            });
        }
        CsrGraph::from_edges(self.node_count, &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_graph() {
        let mut b = GraphBuilder::new(0);
        b.add_edge(UserId(0), UserId(1), 0.3);
        b.add_edge(UserId(1), UserId(2), 0.6);
        let g = b.build();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.edge_weight(UserId(0), UserId(1)), Some(0.3));
    }

    #[test]
    fn grows_node_count_from_edges() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(UserId(5), UserId(1), 0.1);
        assert_eq!(b.node_count(), 6);
    }

    #[test]
    fn duplicate_edges_keep_the_last_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(UserId(0), UserId(1), 0.2);
        b.add_edge(UserId(0), UserId(1), 0.9);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_weight(UserId(0), UserId(1)), Some(0.9));
    }

    #[test]
    fn undirected_edge_creates_both_directions() {
        let mut b = GraphBuilder::new(2);
        b.add_undirected_edge(UserId(0), UserId(1), 0.4);
        let g = b.build();
        assert_eq!(g.edge_weight(UserId(0), UserId(1)), Some(0.4));
        assert_eq!(g.edge_weight(UserId(1), UserId(0)), Some(0.4));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(UserId(0), UserId(1), f64::NAN);
    }
}
