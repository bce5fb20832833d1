//! Meta-graph schemas describing complementary / substitutable relationships.
//!
//! A meta-graph is a small schema over node and edge *types* whose instances
//! in the knowledge graph connect two ITEM endpoints (Fig. 1(b) of the
//! paper).  The shapes implemented below cover the meta-graphs the paper
//! draws and the ones its datasets need:
//!
//! * [`MetaGraphShape::DirectLink`]    — ITEM —e— ITEM (the paper's `m3`),
//! * [`MetaGraphShape::SharedNeighbour`] — ITEM —e— T —e— ITEM (the paper's
//!   `m1` with T = FEATURE and `m2` with T = BRAND),
//! * [`MetaGraphShape::CoupledNeighbours`] — ITEM —e1— T1 —?— T2 —e2— ITEM
//!   where the two mid nodes must be adjacent: a genuinely graph-shaped (not
//!   path-shaped) schema used for richer KGs.
//!
//! Each meta-graph carries the [`RelationKind`] it describes, so that the
//! personal item network can combine complementary meta-graphs into `r_C`
//! and substitutable ones into `r_S`.

use crate::hin::KnowledgeGraph;
use crate::types::{EdgeType, NodeType};
use std::collections::HashSet;
use std::fmt;

/// Whether a meta-graph captures a complementary or a substitutable
/// relationship between its two ITEM endpoints.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RelationKind {
    /// Adopting one endpoint increases the preference for the other
    /// (cross elasticity of complements).
    Complementary,
    /// Adopting one endpoint decreases the preference for the other.
    Substitutable,
}

impl fmt::Display for RelationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationKind::Complementary => write!(f, "complementary"),
            RelationKind::Substitutable => write!(f, "substitutable"),
        }
    }
}

/// Index of a meta-graph within an ordered meta-graph collection (e.g.
/// [`MetaGraph::default_set`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetaGraphId(pub u32);

impl MetaGraphId {
    /// Returns the identifier as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The structural schema of a meta-graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetaGraphShape {
    /// ITEM —edge— ITEM.
    DirectLink {
        /// The edge type connecting the two items.
        edge: EdgeType,
    },
    /// ITEM —edge— (via) —edge— ITEM, e.g. two items supporting the same
    /// FEATURE or produced by the same BRAND.
    SharedNeighbour {
        /// Node type of the shared middle node.
        via: NodeType,
        /// Edge type on both sides.
        edge: EdgeType,
    },
    /// ITEM —e1— T1 —any— T2 —e2— ITEM where the two middle nodes are
    /// themselves connected by any fact edge.
    CoupledNeighbours {
        /// Node type adjacent to the first item.
        via_a: NodeType,
        /// Edge type between the first item and `via_a`.
        edge_a: EdgeType,
        /// Node type adjacent to the second item.
        via_b: NodeType,
        /// Edge type between the second item and `via_b`.
        edge_b: EdgeType,
    },
}

/// A meta-graph: a schema plus the relationship kind it describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetaGraph {
    /// The structural schema.
    pub shape: MetaGraphShape,
    /// Whether instances indicate complementarity or substitutability.
    pub kind: RelationKind,
}

impl MetaGraph {
    /// Complementary "shared feature" meta-graph (`m1` in Fig. 1(b)).
    pub fn shared_feature() -> Self {
        MetaGraph {
            shape: MetaGraphShape::SharedNeighbour {
                via: NodeType::Feature,
                edge: EdgeType::Supports,
            },
            kind: RelationKind::Complementary,
        }
    }

    /// Complementary "same brand" meta-graph (`m2` in Fig. 1(b)).
    pub fn same_brand() -> Self {
        MetaGraph {
            shape: MetaGraphShape::SharedNeighbour {
                via: NodeType::Brand,
                edge: EdgeType::ProducedBy,
            },
            kind: RelationKind::Complementary,
        }
    }

    /// Complementary "directly related" meta-graph (`m3` in Fig. 1(b)).
    pub fn directly_related() -> Self {
        MetaGraph {
            shape: MetaGraphShape::DirectLink {
                edge: EdgeType::RelatedTo,
            },
            kind: RelationKind::Complementary,
        }
    }

    /// Substitutable "same category" meta-graph: items in the same category
    /// usually satisfy the same need.
    pub fn same_category() -> Self {
        MetaGraph {
            shape: MetaGraphShape::SharedNeighbour {
                via: NodeType::Category,
                edge: EdgeType::BelongsTo,
            },
            kind: RelationKind::Substitutable,
        }
    }

    /// Substitutable "same keyword" meta-graph (used by the course KG, where
    /// two courses sharing core keywords cover the same material).
    pub fn same_keyword() -> Self {
        MetaGraph {
            shape: MetaGraphShape::SharedNeighbour {
                via: NodeType::Keyword,
                edge: EdgeType::TaggedWith,
            },
            kind: RelationKind::Substitutable,
        }
    }

    /// The default meta-graph collection used throughout the experiments:
    /// three complementary meta-graphs (`m1`–`m3` of the paper) and two
    /// substitutable ones.
    pub fn default_set() -> Vec<MetaGraph> {
        vec![
            MetaGraph::shared_feature(),
            MetaGraph::same_brand(),
            MetaGraph::directly_related(),
            MetaGraph::same_category(),
            MetaGraph::same_keyword(),
        ]
    }

    /// Counts the instances of this meta-graph in `kg` connecting the item
    /// nodes `a` and `b` (both must be ITEM nodes).
    ///
    /// For [`MetaGraphShape::DirectLink`] the count is 0 or 1; for the shared
    /// shapes it is the number of distinct middle nodes (or middle pairs).
    pub fn instance_count(
        &self,
        kg: &KnowledgeGraph,
        a: crate::hin::KgNodeId,
        b: crate::hin::KgNodeId,
    ) -> usize {
        match self.shape {
            MetaGraphShape::DirectLink { edge } => kg
                .neighbours(a)
                .filter(|(n, e)| *n == b && *e == edge)
                .count()
                .min(1),
            MetaGraphShape::SharedNeighbour { via, edge } => {
                let na: HashSet<_> = kg.typed_neighbours(a, edge, via).collect();
                if na.is_empty() {
                    return 0;
                }
                kg.typed_neighbours(b, edge, via)
                    .filter(|n| na.contains(n))
                    .count()
            }
            MetaGraphShape::CoupledNeighbours {
                via_a,
                edge_a,
                via_b,
                edge_b,
            } => {
                let na: Vec<_> = kg.typed_neighbours(a, edge_a, via_a).collect();
                let nb: HashSet<_> = kg.typed_neighbours(b, edge_b, via_b).collect();
                if na.is_empty() || nb.is_empty() {
                    return 0;
                }
                let mut count = 0;
                for m1 in &na {
                    for (m2, _) in kg.neighbours(*m1) {
                        if nb.contains(&m2) {
                            count += 1;
                        }
                    }
                }
                count
            }
        }
    }

    /// Counts instances of this meta-graph anchored at `a` on both ends
    /// (the PathSim-style self count used for normalisation).
    pub fn self_count(&self, kg: &KnowledgeGraph, a: crate::hin::KgNodeId) -> usize {
        match self.shape {
            MetaGraphShape::DirectLink { .. } => 1,
            MetaGraphShape::SharedNeighbour { via, edge } => {
                kg.typed_neighbours(a, edge, via).count().max(1)
            }
            MetaGraphShape::CoupledNeighbours { via_a, edge_a, .. } => {
                kg.typed_neighbours(a, edge_a, via_a).count().max(1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hin::figure1_knowledge_graph;
    use imdpp_graph::ItemId;

    #[test]
    fn default_set_has_three_complementary_and_two_substitutable() {
        let set = MetaGraph::default_set();
        assert_eq!(set.len(), 5);
        let comp = set
            .iter()
            .filter(|m| m.kind == RelationKind::Complementary)
            .count();
        assert_eq!(comp, 3);
    }

    #[test]
    fn shared_feature_counts_common_features() {
        let kg = figure1_knowledge_graph();
        let iphone = kg.item_node(ItemId(0));
        let airpods = kg.item_node(ItemId(1));
        let charger = kg.item_node(ItemId(2));
        let m1 = MetaGraph::shared_feature();
        // iPhone and AirPods share Bluetooth.
        assert_eq!(m1.instance_count(&kg, iphone, airpods), 1);
        // iPhone and wireless charger share Qi standard.
        assert_eq!(m1.instance_count(&kg, iphone, charger), 1);
        // AirPods and wireless charger share nothing.
        assert_eq!(m1.instance_count(&kg, airpods, charger), 0);
    }

    #[test]
    fn same_brand_counts_common_brand() {
        let kg = figure1_knowledge_graph();
        let iphone = kg.item_node(ItemId(0));
        let airpods = kg.item_node(ItemId(1));
        let cable = kg.item_node(ItemId(3));
        let m2 = MetaGraph::same_brand();
        assert_eq!(m2.instance_count(&kg, iphone, airpods), 1);
        assert_eq!(m2.instance_count(&kg, iphone, cable), 0);
    }

    #[test]
    fn direct_link_counts_related_to_edges() {
        let kg = figure1_knowledge_graph();
        let iphone = kg.item_node(ItemId(0));
        let cable = kg.item_node(ItemId(3));
        let charger = kg.item_node(ItemId(2));
        let m3 = MetaGraph::directly_related();
        assert_eq!(m3.instance_count(&kg, iphone, cable), 1);
        assert_eq!(m3.instance_count(&kg, cable, charger), 1);
        assert_eq!(m3.instance_count(&kg, iphone, charger), 0);
    }

    #[test]
    fn self_count_reflects_attachment_degree() {
        let kg = figure1_knowledge_graph();
        let iphone = kg.item_node(ItemId(0));
        let cable = kg.item_node(ItemId(3));
        let m1 = MetaGraph::shared_feature();
        assert_eq!(m1.self_count(&kg, iphone), 2); // Bluetooth + Qi
        assert_eq!(m1.self_count(&kg, cable), 1); // clamped minimum
    }

    #[test]
    fn coupled_neighbours_matches_adjacent_middles() {
        // ITEM a — FEATURE f — BRAND brand — ITEM b, with f adjacent to brand.
        let mut b = crate::hin::KnowledgeGraphBuilder::new();
        let a_item = b.add_node(NodeType::Item, "a");
        let b_item = b.add_node(NodeType::Item, "b");
        let f = b.add_node(NodeType::Feature, "f");
        let brand = b.add_node(NodeType::Brand, "brand");
        b.add_fact(a_item, f, EdgeType::Supports);
        b.add_fact(b_item, brand, EdgeType::ProducedBy);
        b.add_fact(f, brand, EdgeType::RelatedTo);
        let kg = b.build();
        let mg = MetaGraph {
            shape: MetaGraphShape::CoupledNeighbours {
                via_a: NodeType::Feature,
                edge_a: EdgeType::Supports,
                via_b: NodeType::Brand,
                edge_b: EdgeType::ProducedBy,
            },
            kind: RelationKind::Complementary,
        };
        assert_eq!(mg.instance_count(&kg, a_item, b_item), 1);
        assert_eq!(mg.instance_count(&kg, b_item, a_item), 0); // asymmetric roles
    }

    #[test]
    fn relation_kind_display() {
        assert_eq!(RelationKind::Complementary.to_string(), "complementary");
        assert_eq!(RelationKind::Substitutable.to_string(), "substitutable");
    }
}
