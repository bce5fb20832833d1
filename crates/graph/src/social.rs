//! The influence-weighted social network `G_SN`.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::edits::EdgeUpdate;
use crate::ids::UserId;

/// The social network of the IMDPP problem: a directed graph whose edge
/// weights are the *initial* influence strengths `P_act(u, v, 0)`.
///
/// The diffusion crate layers dynamic influence updates on top of these
/// initial strengths; this type only owns the static topology.
#[derive(Clone, Debug)]
pub struct SocialGraph {
    graph: CsrGraph,
    directed: bool,
}

impl SocialGraph {
    /// Wraps a CSR graph as a social network.
    ///
    /// `directed` records whether friendships were interpreted as directed
    /// (Amazon+Pokec in the paper) or undirected (Douban, Gowalla, Yelp).
    pub fn new(graph: CsrGraph, directed: bool) -> Self {
        SocialGraph { graph, directed }
    }

    /// Builds a social graph from `(u, v, strength)` triples.
    ///
    /// When `directed` is false each triple is materialised in both
    /// directions with the same strength.
    pub fn from_influence_edges(
        node_count: usize,
        edges: impl IntoIterator<Item = (UserId, UserId, f64)>,
        directed: bool,
    ) -> Self {
        let mut b = GraphBuilder::new(node_count);
        for (u, v, w) in edges {
            let w = w.clamp(0.0, 1.0);
            if directed {
                b.add_edge(u, v, w);
            } else {
                b.add_undirected_edge(u, v, w);
            }
        }
        SocialGraph::new(b.build(), directed)
    }

    /// The underlying CSR topology.
    #[inline]
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Whether the friendship edges are directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Number of users.
    #[inline]
    pub fn user_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of directed influence edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Number of friendships (undirected edge pairs count once).
    pub fn friendship_count(&self) -> usize {
        if self.directed {
            self.graph.edge_count()
        } else {
            self.graph.edge_count() / 2
        }
    }

    /// Iterator over all users.
    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        self.graph.nodes()
    }

    /// Initial influence strength `P_act(u, v, 0)`, zero when `u` and `v` are
    /// not connected.
    #[inline]
    pub fn influence(&self, u: UserId, v: UserId) -> f64 {
        self.graph.edge_weight(u, v).unwrap_or(0.0)
    }

    /// Out-neighbours of `u` with their influence strengths.
    #[inline]
    pub fn influenced_by(&self, u: UserId) -> impl Iterator<Item = (UserId, f64)> + '_ {
        self.graph.out_edges(u)
    }

    /// In-neighbours of `u` (users who can influence `u`) with strengths.
    #[inline]
    pub fn influencers_of(&self, u: UserId) -> impl Iterator<Item = (UserId, f64)> + '_ {
        self.graph.in_edges(u)
    }

    /// Out-degree of `u` (used by the cost model `c_{u,x} ∝ out-degree`).
    #[inline]
    pub fn out_degree(&self, u: UserId) -> usize {
        self.graph.out_degree(u)
    }

    /// Returns a new social graph with the edge updates applied in order;
    /// strengths are clamped to `[0, 1]` like
    /// [`SocialGraph::from_influence_edges`].
    ///
    /// Updates address *directed* influence edges.  For an undirected social
    /// network (every friendship materialised in both directions) pass each
    /// update together with its [`EdgeUpdate::mirrored`] counterpart so the
    /// two directions stay in sync.
    ///
    /// The adjacency order of untouched users is preserved exactly — the
    /// property the incremental sketch maintenance of `imdpp-sketch` relies
    /// on (see [`CsrGraph::apply_edge_updates`]).
    pub fn apply_edge_updates(&self, updates: &[EdgeUpdate]) -> SocialGraph {
        let clamped: Vec<EdgeUpdate> = updates
            .iter()
            .map(|up| match *up {
                EdgeUpdate::Insert { src, dst, weight } => EdgeUpdate::Insert {
                    src,
                    dst,
                    weight: weight.clamp(0.0, 1.0),
                },
                EdgeUpdate::Reweight { src, dst, weight } => EdgeUpdate::Reweight {
                    src,
                    dst,
                    weight: weight.clamp(0.0, 1.0),
                },
                remove => remove,
            })
            .collect();
        SocialGraph {
            graph: self.graph.apply_edge_updates(&clamped),
            directed: self.directed,
        }
    }

    /// Average influence strength over all edges (reported in Table II).
    pub fn average_influence_strength(&self) -> f64 {
        if self.graph.edge_count() == 0 {
            return 0.0;
        }
        self.graph.total_weight() / self.graph.edge_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle(directed: bool) -> SocialGraph {
        SocialGraph::from_influence_edges(
            3,
            vec![
                (UserId(0), UserId(1), 0.5),
                (UserId(1), UserId(2), 0.25),
                (UserId(2), UserId(0), 0.75),
            ],
            directed,
        )
    }

    #[test]
    fn directed_graph_keeps_edge_orientation() {
        let g = triangle(true);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.friendship_count(), 3);
        assert_eq!(g.influence(UserId(0), UserId(1)), 0.5);
        assert_eq!(g.influence(UserId(1), UserId(0)), 0.0);
    }

    #[test]
    fn undirected_graph_duplicates_edges() {
        let g = triangle(false);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.friendship_count(), 3);
        assert_eq!(g.influence(UserId(1), UserId(0)), 0.5);
    }

    #[test]
    fn influence_strengths_are_clamped() {
        let g = SocialGraph::from_influence_edges(2, vec![(UserId(0), UserId(1), 1.7)], true);
        assert_eq!(g.influence(UserId(0), UserId(1)), 1.0);
    }

    #[test]
    fn average_influence_strength_matches_mean() {
        let g = triangle(true);
        assert!((g.average_influence_strength() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn neighbour_iterators_agree_with_influence() {
        let g = triangle(true);
        let out: Vec<_> = g.influenced_by(UserId(0)).collect();
        assert_eq!(out, vec![(UserId(1), 0.5)]);
        let inn: Vec<_> = g.influencers_of(UserId(0)).collect();
        assert_eq!(inn, vec![(UserId(2), 0.75)]);
        assert_eq!(g.out_degree(UserId(0)), 1);
    }

    #[test]
    fn edge_updates_clamp_strengths_and_keep_directedness() {
        let g = triangle(true);
        let g2 = g.apply_edge_updates(&[
            EdgeUpdate::Reweight {
                src: UserId(0),
                dst: UserId(1),
                weight: 1.7,
            },
            EdgeUpdate::Insert {
                src: UserId(1),
                dst: UserId(0),
                weight: 0.3,
            },
        ]);
        assert_eq!(g2.influence(UserId(0), UserId(1)), 1.0);
        assert_eq!(g2.influence(UserId(1), UserId(0)), 0.3);
        assert!(g2.is_directed());
        assert_eq!(g2.edge_count(), 4);
        // The original is untouched.
        assert_eq!(g.influence(UserId(0), UserId(1)), 0.5);
    }

    #[test]
    fn empty_graph_has_zero_average_strength() {
        let g = SocialGraph::from_influence_edges(3, Vec::new(), true);
        assert_eq!(g.average_influence_strength(), 0.0);
        assert_eq!(g.user_count(), 3);
    }
}
