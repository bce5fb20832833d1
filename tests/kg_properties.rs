//! Property-based tests on the knowledge-graph substrate: relevance scores
//! are symmetric, bounded and zero on the diagonal for arbitrary KGs, and
//! perception updates never push weights or relevances out of range.

use imdpp_suite::graph::{ItemId, UserId};
use imdpp_suite::kg::hin::KnowledgeGraphBuilder;
use imdpp_suite::kg::{
    EdgeType, MetaGraph, NodeType, PersonalPerception, RelationKind, RelevanceModel,
};
use proptest::prelude::*;
use std::sync::Arc;

/// A random small KG: `items` item nodes, `mids` middle nodes of random
/// types, and random facts attaching items to middle nodes.
fn build_kg(items: usize, mids: usize, facts: &[(usize, usize, u8)]) -> RelevanceModel {
    let mut b = KnowledgeGraphBuilder::new();
    let item_nodes: Vec<_> = (0..items)
        .map(|i| b.add_node(NodeType::Item, format!("i{i}")))
        .collect();
    let mid_types = [
        (NodeType::Feature, EdgeType::Supports),
        (NodeType::Brand, EdgeType::ProducedBy),
        (NodeType::Category, EdgeType::BelongsTo),
        (NodeType::Keyword, EdgeType::TaggedWith),
    ];
    let mid_nodes: Vec<_> = (0..mids)
        .map(|i| b.add_node(mid_types[i % mid_types.len()].0, format!("m{i}")))
        .collect();
    for &(item, mid, kind) in facts {
        let item_node = item_nodes[item % items];
        let mid_node = mid_nodes[mid % mids];
        // Use the edge type matching the middle node's type so instances of
        // the default meta-graphs can exist; `kind` adds occasional direct
        // item-item links.
        if kind % 5 == 0 && items > 1 {
            let other = item_nodes[(item + 1) % items];
            if other != item_node {
                b.add_fact(item_node, other, EdgeType::RelatedTo);
            }
        } else {
            let et = mid_types[(mid % mids) % mid_types.len()].1;
            b.add_fact(item_node, mid_node, et);
        }
    }
    RelevanceModel::compute(&b.build(), MetaGraph::default_set())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn relevance_is_symmetric_bounded_and_hollow(
        facts in proptest::collection::vec((0usize..6, 0usize..5, 0u8..10), 0..40),
    ) {
        let model = build_kg(6, 5, &facts);
        for kind in [RelationKind::Complementary, RelationKind::Substitutable] {
            for a in 0..6u32 {
                for b in 0..6u32 {
                    let r_ab = model.base_relevance(ItemId(a), ItemId(b), kind);
                    let r_ba = model.base_relevance(ItemId(b), ItemId(a), kind);
                    prop_assert!((0.0..=1.0).contains(&r_ab));
                    prop_assert!((r_ab - r_ba).abs() < 1e-12);
                    if a == b {
                        prop_assert_eq!(r_ab, 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn related_items_never_contains_self_and_matches_scores(
        facts in proptest::collection::vec((0usize..5, 0usize..4, 0u8..10), 0..30),
    ) {
        let model = build_kg(5, 4, &facts);
        for a in 0..5u32 {
            let related = model.related_items(ItemId(a));
            prop_assert!(!related.contains(&ItemId(a)));
            for &y in related {
                let any_positive = (0..model.len()).any(|m| {
                    model
                        .matrix(imdpp_suite::kg::MetaGraphId(m as u32))
                        .score(ItemId(a), y)
                        > 0.0
                });
                prop_assert!(any_positive);
            }
        }
    }

    #[test]
    fn perception_updates_keep_everything_in_range(
        facts in proptest::collection::vec((0usize..5, 0usize..4, 0u8..10), 5..30),
        adoptions in proptest::collection::vec((0u32..3, 0u32..5), 1..10),
        rate in 0.05f64..1.0,
    ) {
        let model = Arc::new(build_kg(5, 4, &facts));
        let mut perception = PersonalPerception::uniform(model, 3, 0.2);
        for &(u, x) in &adoptions {
            let adopted: Vec<ItemId> = adoptions
                .iter()
                .filter(|&&(v, _)| v == u)
                .map(|&(_, y)| ItemId(y))
                .collect();
            perception.update_on_adoption(UserId(u), &[ItemId(x)], &adopted, rate);
        }
        for u in 0..3u32 {
            for (i, &w) in perception.weight_vector(UserId(u)).iter().enumerate() {
                prop_assert!((0.01..=1.0).contains(&w), "weight {w} of meta-graph {i}");
            }
            for a in 0..5u32 {
                for b in 0..5u32 {
                    let c = perception.complementary(UserId(u), ItemId(a), ItemId(b));
                    let s = perception.substitutable(UserId(u), ItemId(a), ItemId(b));
                    prop_assert!((0.0..=1.0).contains(&c));
                    prop_assert!((0.0..=1.0).contains(&s));
                }
            }
        }
    }
}
