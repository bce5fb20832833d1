//! Node and edge types of the heterogeneous information network.
//!
//! These correspond to the type-mapping functions `Φ` (node types) and `Ψ`
//! (edge types) of the paper's knowledge graph definition.  The variants
//! cover the entities appearing in the paper's figures and datasets (items,
//! features, brands, categories, …) plus numbered custom types so that the
//! synthetic Yelp/Amazon-style KGs can reach the type counts of Table II.

use std::fmt;

/// Type of a knowledge-graph node (`Φ(v)`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeType {
    /// A promotable item (product, course, point of interest).
    Item,
    /// A feature supported by items (e.g. *Bluetooth*, *Qi standard*).
    Feature,
    /// A brand / producer (e.g. *Apple Inc.*).
    Brand,
    /// A category or genre.
    Category,
    /// A geographic location (used by the Gowalla / Yelp style KGs).
    Location,
    /// A keyword / tag (used by the course-promotion KG).
    Keyword,
    /// Additional dataset-specific node type (numbered).
    Custom(u8),
}

impl NodeType {
    /// A short lowercase name for display and CSV output.
    pub fn name(&self) -> String {
        match self {
            NodeType::Item => "item".to_string(),
            NodeType::Feature => "feature".to_string(),
            NodeType::Brand => "brand".to_string(),
            NodeType::Category => "category".to_string(),
            NodeType::Location => "location".to_string(),
            NodeType::Keyword => "keyword".to_string(),
            NodeType::Custom(k) => format!("custom{k}"),
        }
    }
}

impl fmt::Display for NodeType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Type of a knowledge-graph edge (`Ψ(e)`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EdgeType {
    /// ITEM *supports* FEATURE (Fig. 1(a) of the paper).
    Supports,
    /// ITEM *produced by* BRAND.
    ProducedBy,
    /// ITEM *belongs to* CATEGORY.
    BelongsTo,
    /// ITEM *located at* LOCATION.
    LocatedAt,
    /// ITEM *tagged with* KEYWORD.
    TaggedWith,
    /// Generic item–item relation asserted directly in the KG
    /// (e.g. "also bought", "prerequisite of").
    RelatedTo,
    /// Additional dataset-specific edge type (numbered).
    Custom(u8),
}

impl EdgeType {
    /// A short lowercase name for display and CSV output.
    pub fn name(&self) -> String {
        match self {
            EdgeType::Supports => "supports".to_string(),
            EdgeType::ProducedBy => "produced_by".to_string(),
            EdgeType::BelongsTo => "belongs_to".to_string(),
            EdgeType::LocatedAt => "located_at".to_string(),
            EdgeType::TaggedWith => "tagged_with".to_string(),
            EdgeType::RelatedTo => "related_to".to_string(),
            EdgeType::Custom(k) => format!("custom{k}"),
        }
    }
}

impl fmt::Display for EdgeType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_type_names_are_stable() {
        assert_eq!(NodeType::Item.name(), "item");
        assert_eq!(NodeType::Feature.to_string(), "feature");
        assert_eq!(NodeType::Custom(3).name(), "custom3");
    }

    #[test]
    fn edge_type_names_are_stable() {
        assert_eq!(EdgeType::Supports.name(), "supports");
        assert_eq!(EdgeType::ProducedBy.to_string(), "produced_by");
        assert_eq!(EdgeType::Custom(1).name(), "custom1");
    }

    #[test]
    fn types_are_hashable_and_comparable() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(NodeType::Item);
        s.insert(NodeType::Item);
        s.insert(NodeType::Brand);
        assert_eq!(s.len(), 2);
        assert!(NodeType::Item < NodeType::Custom(0));
    }
}
