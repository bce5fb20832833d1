//! The heterogeneous information network `G_KG = (V, E, Φ, Ψ)`.
//!
//! Facts are stored as undirected typed edges between typed nodes ("ITEM
//! iPhone SUPPORTS FEATURE Bluetooth").  Item nodes are additionally indexed
//! by their dense [`ItemId`] so that relevance computation can iterate item
//! pairs cheaply.

use crate::types::{EdgeType, NodeType};
use imdpp_graph::ItemId;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a knowledge-graph node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KgNodeId(pub u32);

impl KgNodeId {
    /// Returns the identifier as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for KgNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// A typed undirected fact edge of the knowledge graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fact {
    /// One endpoint.
    pub a: KgNodeId,
    /// The other endpoint.
    pub b: KgNodeId,
    /// The relation type `Ψ((a, b))`.
    pub edge_type: EdgeType,
}

/// Immutable knowledge graph.
#[derive(Clone, Debug)]
pub struct KnowledgeGraph {
    node_types: Vec<NodeType>,
    node_names: Vec<String>,
    /// Adjacency: for each node, `(neighbour, edge type)` pairs.
    adjacency: Vec<Vec<(KgNodeId, EdgeType)>>,
    /// Dense item index -> KG node.
    item_nodes: Vec<KgNodeId>,
    /// KG node -> dense item index (for ITEM nodes only).
    node_to_item: HashMap<KgNodeId, ItemId>,
    fact_count: usize,
}

impl KnowledgeGraph {
    /// Number of nodes (all types).
    pub fn node_count(&self) -> usize {
        self.node_types.len()
    }

    /// Number of undirected fact edges.
    pub fn fact_count(&self) -> usize {
        self.fact_count
    }

    /// Number of items (nodes of type [`NodeType::Item`]).
    pub fn item_count(&self) -> usize {
        self.item_nodes.len()
    }

    /// The type of a node.
    pub fn node_type(&self, n: KgNodeId) -> NodeType {
        self.node_types[n.index()]
    }

    /// The human-readable name of a node (may be empty).
    pub fn node_name(&self, n: KgNodeId) -> &str {
        &self.node_names[n.index()]
    }

    /// The KG node corresponding to a dense item id.
    pub fn item_node(&self, item: ItemId) -> KgNodeId {
        self.item_nodes[item.index()]
    }

    /// The dense item id of a KG node, if it is an item node.
    pub fn item_of_node(&self, n: KgNodeId) -> Option<ItemId> {
        self.node_to_item.get(&n).copied()
    }

    /// Iterator over all item ids.
    pub fn items(&self) -> impl Iterator<Item = ItemId> + '_ {
        (0..self.item_nodes.len()).map(ItemId::from_index)
    }

    /// Neighbours of `n` along edges of any type.
    pub fn neighbours(&self, n: KgNodeId) -> impl Iterator<Item = (KgNodeId, EdgeType)> + '_ {
        self.adjacency[n.index()].iter().copied()
    }

    /// Neighbours of `n` along edges of type `et` whose endpoint has type `nt`.
    pub fn typed_neighbours(
        &self,
        n: KgNodeId,
        et: EdgeType,
        nt: NodeType,
    ) -> impl Iterator<Item = KgNodeId> + '_ {
        self.adjacency[n.index()]
            .iter()
            .filter(move |(m, e)| *e == et && self.node_type(*m) == nt)
            .map(|(m, _)| *m)
    }

    /// Degree of a node counting all fact edges.
    pub fn degree(&self, n: KgNodeId) -> usize {
        self.adjacency[n.index()].len()
    }

    /// Counts nodes per node type.
    pub fn node_type_counts(&self) -> HashMap<NodeType, usize> {
        let mut counts = HashMap::new();
        for t in &self.node_types {
            *counts.entry(*t).or_insert(0) += 1;
        }
        counts
    }

    /// Counts fact edges per edge type.
    pub fn edge_type_counts(&self) -> HashMap<EdgeType, usize> {
        let mut counts = HashMap::new();
        for adj in &self.adjacency {
            for (_, et) in adj {
                *counts.entry(*et).or_insert(0) += 1;
            }
        }
        // Each undirected fact was stored twice.
        // lint: allow(hash-order) — in-place halving of every value; the
        // visit order cannot affect the result.
        for c in counts.values_mut() {
            *c /= 2;
        }
        counts
    }
}

/// Incremental builder for [`KnowledgeGraph`].
#[derive(Clone, Debug, Default)]
pub struct KnowledgeGraphBuilder {
    node_types: Vec<NodeType>,
    node_names: Vec<String>,
    facts: Vec<Fact>,
    item_nodes: Vec<KgNodeId>,
}

impl KnowledgeGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node of the given type with a display name; items are indexed
    /// densely in insertion order (the first item added becomes `ItemId(0)`).
    pub fn add_node(&mut self, node_type: NodeType, name: impl Into<String>) -> KgNodeId {
        let id = KgNodeId(u32::try_from(self.node_types.len()).expect("too many KG nodes"));
        self.node_types.push(node_type);
        self.node_names.push(name.into());
        if node_type == NodeType::Item {
            self.item_nodes.push(id);
        }
        id
    }

    /// Convenience wrapper adding an ITEM node and returning its dense id.
    pub fn add_item(&mut self, name: impl Into<String>) -> ItemId {
        self.add_node(NodeType::Item, name);
        ItemId::from_index(self.item_nodes.len() - 1)
    }

    /// Adds an undirected fact edge.
    pub fn add_fact(&mut self, a: KgNodeId, b: KgNodeId, edge_type: EdgeType) -> &mut Self {
        assert!(
            a.index() < self.node_types.len() && b.index() < self.node_types.len(),
            "fact endpoints must be existing nodes"
        );
        assert_ne!(a, b, "self-loop facts are not allowed");
        self.facts.push(Fact { a, b, edge_type });
        self
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.node_types.len()
    }

    /// Freezes the builder into an immutable [`KnowledgeGraph`].
    pub fn build(self) -> KnowledgeGraph {
        let mut adjacency = vec![Vec::new(); self.node_types.len()];
        for f in &self.facts {
            adjacency[f.a.index()].push((f.b, f.edge_type));
            adjacency[f.b.index()].push((f.a, f.edge_type));
        }
        let mut node_to_item = HashMap::with_capacity(self.item_nodes.len());
        for (idx, &node) in self.item_nodes.iter().enumerate() {
            node_to_item.insert(node, ItemId::from_index(idx));
        }
        KnowledgeGraph {
            node_types: self.node_types,
            node_names: self.node_names,
            adjacency,
            item_nodes: self.item_nodes,
            node_to_item,
            fact_count: self.facts.len(),
        }
    }
}

/// Builds the tiny Apple-products knowledge graph of Fig. 1(a) of the paper:
/// iPhone, AirPods, wireless charger and charging cable with their features
/// (Bluetooth, Qi standard) and brand (Apple Inc.).
///
/// Item ids: 0 = iPhone, 1 = AirPods, 2 = wireless charger, 3 = charging cable.
pub fn figure1_knowledge_graph() -> KnowledgeGraph {
    let mut b = KnowledgeGraphBuilder::new();
    let iphone = b.add_node(NodeType::Item, "iPhone");
    let airpods = b.add_node(NodeType::Item, "AirPods");
    let charger = b.add_node(NodeType::Item, "wireless charger");
    let cable = b.add_node(NodeType::Item, "charging cable");
    let bluetooth = b.add_node(NodeType::Feature, "Bluetooth");
    let qi = b.add_node(NodeType::Feature, "Qi standard");
    let apple = b.add_node(NodeType::Brand, "Apple Inc.");
    b.add_fact(iphone, bluetooth, EdgeType::Supports);
    b.add_fact(airpods, bluetooth, EdgeType::Supports);
    b.add_fact(iphone, qi, EdgeType::Supports);
    b.add_fact(charger, qi, EdgeType::Supports);
    b.add_fact(iphone, apple, EdgeType::ProducedBy);
    b.add_fact(airpods, apple, EdgeType::ProducedBy);
    b.add_fact(cable, iphone, EdgeType::RelatedTo);
    b.add_fact(cable, charger, EdgeType::RelatedTo);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_indexes_items_densely() {
        let mut b = KnowledgeGraphBuilder::new();
        let x0 = b.add_item("a");
        let _f = b.add_node(NodeType::Feature, "f");
        let x1 = b.add_item("b");
        let kg = b.build();
        assert_eq!(x0, ItemId(0));
        assert_eq!(x1, ItemId(1));
        assert_eq!(kg.item_count(), 2);
        assert_eq!(kg.item_of_node(kg.item_node(ItemId(1))), Some(ItemId(1)));
        assert_eq!(kg.node_name(kg.item_node(ItemId(1))), "b");
    }

    #[test]
    fn figure1_graph_matches_paper() {
        let kg = figure1_knowledge_graph();
        assert_eq!(kg.item_count(), 4);
        assert_eq!(kg.node_count(), 7);
        assert_eq!(kg.fact_count(), 8);
        let counts = kg.node_type_counts();
        assert_eq!(counts[&NodeType::Item], 4);
        assert_eq!(counts[&NodeType::Feature], 2);
        assert_eq!(counts[&NodeType::Brand], 1);
        let ec = kg.edge_type_counts();
        assert_eq!(ec[&EdgeType::Supports], 4);
        assert_eq!(ec[&EdgeType::ProducedBy], 2);
        assert_eq!(ec[&EdgeType::RelatedTo], 2);
    }

    #[test]
    fn typed_neighbours_filter_by_type() {
        let kg = figure1_knowledge_graph();
        let iphone = kg.item_node(ItemId(0));
        let features: Vec<_> = kg
            .typed_neighbours(iphone, EdgeType::Supports, NodeType::Feature)
            .map(|n| kg.node_name(n).to_string())
            .collect();
        assert_eq!(features.len(), 2);
        assert!(features.contains(&"Bluetooth".to_string()));
        assert!(features.contains(&"Qi standard".to_string()));
        let brands: Vec<_> = kg
            .typed_neighbours(iphone, EdgeType::ProducedBy, NodeType::Brand)
            .collect();
        assert_eq!(brands.len(), 1);
    }

    #[test]
    fn degree_counts_all_edges() {
        let kg = figure1_knowledge_graph();
        let iphone = kg.item_node(ItemId(0));
        assert_eq!(kg.degree(iphone), 4); // bluetooth, qi, apple, cable
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop_facts() {
        let mut b = KnowledgeGraphBuilder::new();
        let n = b.add_node(NodeType::Item, "x");
        b.add_fact(n, n, EdgeType::RelatedTo);
    }

    #[test]
    #[should_panic(expected = "existing nodes")]
    fn rejects_dangling_facts() {
        let mut b = KnowledgeGraphBuilder::new();
        let n = b.add_node(NodeType::Item, "x");
        b.add_fact(n, KgNodeId(99), EdgeType::RelatedTo);
    }

    #[test]
    fn empty_graph_is_valid() {
        let kg = KnowledgeGraphBuilder::new().build();
        assert_eq!(kg.node_count(), 0);
        assert_eq!(kg.item_count(), 0);
        assert_eq!(kg.fact_count(), 0);
    }
}
