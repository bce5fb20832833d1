//! Turns a [`DatasetConfig`] into a fully wired [`ImdppInstance`].

use crate::config::{DatasetConfig, ImportanceDistribution, SocialModel};
use imdpp_core::{CostModel, ImdppInstance};
use imdpp_diffusion::Scenario;
use imdpp_graph::generators::{erdos_renyi, preferential_attachment, watts_strogatz};
use imdpp_graph::{CsrGraph, SocialGraph};
use imdpp_kg::hin::KnowledgeGraphBuilder;
use imdpp_kg::{EdgeType, ItemCatalog, KnowledgeGraph, MetaGraph, NodeType, RelevanceModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A generated dataset: the problem instance plus the knowledge graph it was
/// built from (kept for statistics output).
#[derive(Clone, Debug)]
pub struct GeneratedDataset {
    /// The dataset configuration used.
    pub config: DatasetConfig,
    /// The knowledge graph (facts) backing the relevance model.
    pub knowledge_graph: KnowledgeGraph,
    /// The ready-to-solve problem instance (budget and `T` are placeholders;
    /// use [`imdpp_core::ImdppInstance::with_budget`] /
    /// [`imdpp_core::ImdppInstance::with_promotions`] per experiment).
    pub instance: ImdppInstance,
}

/// Generates a dataset from its configuration.
///
/// # Panics
/// Panics if the configuration fails validation; the presets in
/// [`crate::catalog`] always validate.
pub fn generate(config: &DatasetConfig) -> GeneratedDataset {
    config.validate().expect("invalid dataset configuration");
    let mut rng = StdRng::seed_from_u64(config.seed);

    let social = build_social_graph(config, &mut rng);
    let (kg, catalog) = build_knowledge_graph(config, &mut rng);
    let relevance = Arc::new(RelevanceModel::compute(&kg, MetaGraph::default_set()));

    // Base preferences uniform in the configured range.
    let (lo, hi) = config.base_preference_range;
    let mut base_preferences = Vec::with_capacity(config.users * config.items);
    for _ in 0..config.users * config.items {
        base_preferences.push(rng.gen_range(lo..=hi));
    }

    let scenario = Scenario::builder()
        .social(social)
        .catalog(catalog)
        .relevance(relevance)
        .base_preferences(base_preferences)
        .initial_weight(config.initial_metagraph_weight)
        .build()
        .expect("generated scenario must be valid");

    let costs = CostModel::degree_over_preference(&scenario, config.cost_scale);
    // Placeholder budget / promotions; experiments override them.
    let instance =
        ImdppInstance::new(scenario, costs, 100.0, 10).expect("generated instance must be valid");

    GeneratedDataset {
        config: config.clone(),
        knowledge_graph: kg,
        instance,
    }
}

fn build_social_graph(config: &DatasetConfig, rng: &mut StdRng) -> SocialGraph {
    let topology: CsrGraph = match config.social_model {
        SocialModel::PreferentialAttachment { links_per_node } => {
            preferential_attachment(config.users, links_per_node, rng.gen())
        }
        SocialModel::SmallWorld { neighbours, rewire } => {
            watts_strogatz(config.users, neighbours, rewire, rng.gen())
        }
        SocialModel::Random { edge_probability } => {
            erdos_renyi(config.users, edge_probability, rng.gen())
        }
    };
    // Influence strengths: jittered around the configured average so that the
    // dataset-level mean matches Table II.
    let avg = config.avg_influence_strength;
    let strength_seed: u64 = rng.gen();
    let mut srng = StdRng::seed_from_u64(strength_seed);
    let weighted = topology.map_weights(|_, _, _| {
        let jitter = 0.5 + srng.gen::<f64>(); // in [0.5, 1.5)
        (avg * jitter).clamp(0.001, 1.0)
    });
    // For undirected datasets the topology already contains both directions.
    SocialGraph::new(weighted, config.directed_friendships)
}

fn build_knowledge_graph(
    config: &DatasetConfig,
    rng: &mut StdRng,
) -> (KnowledgeGraph, ItemCatalog) {
    let mut builder = KnowledgeGraphBuilder::new();
    // Items first so their dense ids are 0..items.
    let item_nodes: Vec<_> = (0..config.items)
        .map(|i| builder.add_node(NodeType::Item, format!("{}-item-{i}", config.name)))
        .collect();
    let feature_nodes: Vec<_> = (0..config.kg_features)
        .map(|i| builder.add_node(NodeType::Feature, format!("feature-{i}")))
        .collect();
    let brand_nodes: Vec<_> = (0..config.kg_brands)
        .map(|i| builder.add_node(NodeType::Brand, format!("brand-{i}")))
        .collect();
    let category_nodes: Vec<_> = (0..config.kg_categories)
        .map(|i| builder.add_node(NodeType::Category, format!("category-{i}")))
        .collect();
    let keyword_nodes: Vec<_> = (0..config.kg_keywords)
        .map(|i| builder.add_node(NodeType::Keyword, format!("keyword-{i}")))
        .collect();

    for (idx, &item) in item_nodes.iter().enumerate() {
        // Features (complementary evidence through shared features).
        if !feature_nodes.is_empty() {
            for _ in 0..config.features_per_item {
                let f = feature_nodes[rng.gen_range(0..feature_nodes.len())];
                builder.add_fact(item, f, EdgeType::Supports);
            }
        }
        // Exactly one brand per item (when brands exist).
        if !brand_nodes.is_empty() {
            let b = brand_nodes[rng.gen_range(0..brand_nodes.len())];
            builder.add_fact(item, b, EdgeType::ProducedBy);
        }
        // Exactly one category per item (substitutable evidence).
        if !category_nodes.is_empty() {
            let c = category_nodes[idx % category_nodes.len()];
            builder.add_fact(item, c, EdgeType::BelongsTo);
        }
        // Keywords.
        if !keyword_nodes.is_empty() {
            for _ in 0..config.keywords_per_item {
                let k = keyword_nodes[rng.gen_range(0..keyword_nodes.len())];
                builder.add_fact(item, k, EdgeType::TaggedWith);
            }
        }
    }
    // Explicit "also bought" RelatedTo edges between random item pairs.
    let total_pairs = config.items * (config.items.saturating_sub(1)) / 2;
    let related_edges = (total_pairs as f64 * config.related_pair_fraction).round() as usize;
    let mut added = 0usize;
    let mut guard = 0usize;
    while added < related_edges && guard < related_edges * 20 + 100 {
        guard += 1;
        let a = rng.gen_range(0..config.items);
        let b = rng.gen_range(0..config.items);
        if a == b {
            continue;
        }
        builder.add_fact(item_nodes[a], item_nodes[b], EdgeType::RelatedTo);
        added += 1;
    }

    let kg = builder.build();

    // Item importances.
    let importances: Vec<f64> = (0..config.items)
        .map(|_| sample_importance(&config.importance, rng))
        .collect();
    let names = (0..config.items)
        .map(|i| format!("{}-item-{i}", config.name))
        .collect();
    let catalog = ItemCatalog::with_names(importances, names);
    (kg, catalog)
}

fn sample_importance(dist: &ImportanceDistribution, rng: &mut StdRng) -> f64 {
    match *dist {
        ImportanceDistribution::Uniform { value } => value,
        ImportanceDistribution::Range { lo, hi } => rng.gen_range(lo..=hi),
        ImportanceDistribution::LogNormal { mu, sigma } => {
            // Box–Muller transform (the whitelisted rand crate has no normal
            // distribution without rand_distr).
            let u1: f64 = rng.gen::<f64>().max(1e-12);
            let u2: f64 = rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (mu + sigma * z).exp().clamp(0.05, 20.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::DatasetKind;
    use imdpp_kg::stats::KgStats;

    #[test]
    fn tiny_amazon_generates_consistently() {
        let ds = generate(&DatasetKind::AmazonTiny.config());
        assert_eq!(ds.instance.scenario().user_count(), 100);
        assert_eq!(ds.instance.scenario().item_count(), 8);
        assert!(ds.instance.scenario().social().edge_count() > 0);
        assert!(ds.knowledge_graph.fact_count() > 0);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate(&DatasetKind::AmazonTiny.config());
        let b = generate(&DatasetKind::AmazonTiny.config());
        assert_eq!(
            a.instance.scenario().social().edge_count(),
            b.instance.scenario().social().edge_count()
        );
        assert_eq!(
            a.instance.scenario().catalog().average_importance(),
            b.instance.scenario().catalog().average_importance()
        );
    }

    #[test]
    fn average_influence_strength_is_near_target() {
        let cfg = DatasetKind::YelpSmall.config().scaled(0.25);
        let ds = generate(&cfg);
        let measured = ds.instance.scenario().social().average_influence_strength();
        assert!(
            (measured - cfg.avg_influence_strength).abs() < cfg.avg_influence_strength * 0.25,
            "measured {measured} vs target {}",
            cfg.avg_influence_strength
        );
    }

    #[test]
    fn directedness_follows_configuration() {
        let amazon = generate(&DatasetKind::AmazonTiny.config());
        assert!(amazon.instance.scenario().social().is_directed());
        let yelp = generate(&DatasetKind::YelpSmall.config().scaled(0.1));
        assert!(!yelp.instance.scenario().social().is_directed());
    }

    #[test]
    fn yelp_kg_is_richer_than_douban_kg() {
        // Table II: Yelp / Amazon have twice the node- and edge-type variety
        // of Douban / Gowalla.  Our synthetic KGs use 5 entity types for the
        // former (item, feature, brand, category, keyword; the paper's sixth
        // type is the user node, which lives in the social graph here) and 3
        // for the latter.
        let yelp = generate(&DatasetKind::YelpSmall.config().scaled(0.1));
        let stats = KgStats::of(&yelp.knowledge_graph);
        assert_eq!(stats.node_type_count, 5);
        let douban = generate(&DatasetKind::DoubanSmall.config().scaled(0.05));
        let stats = KgStats::of(&douban.knowledge_graph);
        assert_eq!(stats.node_type_count, 3);
    }

    #[test]
    fn base_preferences_respect_range() {
        let cfg = DatasetKind::GowallaSmall.config().scaled(0.05);
        let ds = generate(&cfg);
        let scenario = ds.instance.scenario();
        let (lo, hi) = cfg.base_preference_range;
        for u in scenario.users().take(10) {
            for x in scenario.items() {
                let p = scenario.base_preference(u, x);
                assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
            }
        }
    }

    #[test]
    fn costs_are_positive_and_degree_driven() {
        let ds = generate(&DatasetKind::AmazonTiny.config());
        let inst = &ds.instance;
        let social = inst.scenario().social();
        let hub = social
            .users()
            .max_by_key(|u| social.out_degree(*u))
            .unwrap();
        let leaf = social
            .users()
            .min_by_key(|u| social.out_degree(*u))
            .unwrap();
        let item = imdpp_graph::ItemId(0);
        assert!(inst.cost(hub, item) > 0.0);
        assert!(inst.cost(hub, item) >= inst.cost(leaf, item) * 0.5);
    }

    #[test]
    fn relevance_model_has_both_relationship_kinds() {
        let ds = generate(&DatasetKind::AmazonTiny.config());
        let model = ds.instance.scenario().relevance();
        let items: Vec<_> = ds.instance.scenario().items().collect();
        let mut any_comp = false;
        let mut any_sub = false;
        for &x in &items {
            for &y in &items {
                if x == y {
                    continue;
                }
                if model.base_relevance(x, y, imdpp_kg::RelationKind::Complementary) > 0.0 {
                    any_comp = true;
                }
                if model.base_relevance(x, y, imdpp_kg::RelationKind::Substitutable) > 0.0 {
                    any_sub = true;
                }
            }
        }
        assert!(any_comp, "expected at least one complementary pair");
        assert!(any_sub, "expected at least one substitutable pair");
    }

    #[test]
    fn heavy_tail_degree_distribution_for_preferential_attachment() {
        let ds = generate(&DatasetKind::YelpSmall.config().scaled(0.5));
        let stats = ds.instance.scenario().social().degree_stats();
        assert!(stats.max_out_degree as f64 > 3.0 * stats.mean_out_degree);
    }
}
