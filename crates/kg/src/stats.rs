//! Knowledge-graph statistics in the shape of Table II of the paper.

use crate::hin::KnowledgeGraph;

/// Summary statistics of a knowledge graph.
#[derive(Clone, Debug, PartialEq)]
pub struct KgStats {
    /// Number of distinct node types present.
    pub node_type_count: usize,
    /// Total number of nodes.
    pub node_count: usize,
    /// Number of item nodes.
    pub item_count: usize,
    /// Number of distinct edge types present.
    pub edge_type_count: usize,
    /// Total number of fact edges.
    pub fact_count: usize,
    /// Average degree of item nodes.
    pub avg_item_degree: f64,
}

impl KgStats {
    /// Computes the statistics of a knowledge graph.
    pub fn of(kg: &KnowledgeGraph) -> Self {
        let node_types = kg.node_type_counts();
        let edge_types = kg.edge_type_counts();
        let item_degree_sum: usize = kg.items().map(|x| kg.degree(kg.item_node(x))).sum();
        KgStats {
            node_type_count: node_types.len(),
            node_count: kg.node_count(),
            item_count: kg.item_count(),
            edge_type_count: edge_types.len(),
            fact_count: kg.fact_count(),
            avg_item_degree: if kg.item_count() > 0 {
                item_degree_sum as f64 / kg.item_count() as f64
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hin::figure1_knowledge_graph;

    #[test]
    fn figure1_stats() {
        let s = KgStats::of(&figure1_knowledge_graph());
        assert_eq!(s.node_type_count, 3);
        assert_eq!(s.node_count, 7);
        assert_eq!(s.item_count, 4);
        assert_eq!(s.edge_type_count, 3);
        assert_eq!(s.fact_count, 8);
        assert!(s.avg_item_degree > 0.0);
    }

    #[test]
    fn empty_graph_stats_are_zero() {
        let s = KgStats::of(&crate::hin::KnowledgeGraphBuilder::new().build());
        assert_eq!(s.node_count, 0);
        assert_eq!(s.avg_item_degree, 0.0);
    }
}
