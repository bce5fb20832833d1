//! Table II style statistics of a generated dataset.

use crate::generator::GeneratedDataset;
use imdpp_kg::stats::KgStats;

/// The row of Table II corresponding to one dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetStats {
    /// Dataset name.
    pub name: String,
    /// Number of KG node types.
    pub node_types: usize,
    /// Total KG nodes.
    pub nodes: usize,
    /// Number of users in the social network.
    pub users: usize,
    /// Number of items.
    pub items: usize,
    /// Number of KG edge types.
    pub edge_types: usize,
    /// Total KG fact edges.
    pub edges: usize,
    /// Number of friendships.
    pub friendships: usize,
    /// Whether friendships are directed.
    pub directed: bool,
    /// Average initial influence strength.
    pub avg_influence_strength: f64,
    /// Average item importance.
    pub avg_item_importance: f64,
}

impl DatasetStats {
    /// Computes the Table II row of a generated dataset.
    pub fn of(dataset: &GeneratedDataset) -> Self {
        let kg_stats = KgStats::of(&dataset.knowledge_graph);
        let scenario = dataset.instance.scenario();
        DatasetStats {
            name: dataset.config.name.clone(),
            node_types: kg_stats.node_type_count,
            nodes: kg_stats.node_count,
            users: scenario.user_count(),
            items: scenario.item_count(),
            edge_types: kg_stats.edge_type_count,
            edges: kg_stats.fact_count,
            friendships: scenario.social().friendship_count(),
            directed: scenario.social().is_directed(),
            avg_influence_strength: scenario.social().average_influence_strength(),
            avg_item_importance: scenario.catalog().average_importance(),
        }
    }

    /// The header of the statistics table printed by the harness.
    pub fn header() -> String {
        format!(
            "{:<12} {:>10} {:>8} {:>7} {:>6} {:>10} {:>8} {:>11} {:>9} {:>13} {:>12}",
            "dataset",
            "node-types",
            "nodes",
            "users",
            "items",
            "edge-types",
            "edges",
            "friendships",
            "directed",
            "avg-strength",
            "avg-import."
        )
    }

    /// One formatted row.
    pub fn row(&self) -> String {
        format!(
            "{:<12} {:>10} {:>8} {:>7} {:>6} {:>10} {:>8} {:>11} {:>9} {:>13.3} {:>12.2}",
            self.name,
            self.node_types,
            self.nodes,
            self.users,
            self.items,
            self.edge_types,
            self.edges,
            self.friendships,
            self.directed,
            self.avg_influence_strength,
            self.avg_item_importance
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::DatasetKind;
    use crate::generator::generate;

    #[test]
    fn stats_reflect_the_generated_dataset() {
        let ds = generate(&DatasetKind::AmazonTiny.config());
        let stats = DatasetStats::of(&ds);
        assert_eq!(stats.users, 100);
        assert_eq!(stats.items, 8);
        assert!(stats.nodes > stats.items);
        assert!(stats.avg_influence_strength > 0.0);
        assert!(stats.avg_item_importance > 0.0);
        assert!(stats.directed);
    }

    #[test]
    fn header_and_row_have_content() {
        let ds = generate(&DatasetKind::AmazonTiny.config());
        let stats = DatasetStats::of(&ds);
        assert!(DatasetStats::header().contains("friendships"));
        assert!(stats.row().contains("amazon-tiny"));
    }
}
