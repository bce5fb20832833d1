//! Integration tests of edge-update incremental maintenance: refreshing the
//! RR sketch after influence-edge insertions / deletions / strength changes
//! must be bit-identical to a from-scratch rebuild, no-op updates must
//! re-sample nothing, and the sketch-backed adaptive Dysim pipeline must
//! stay feasible while reusing a majority of its samples per round.

use imdpp_suite::core::{
    DysimConfig, EdgeUpdate, OracleKind, RefreshableOracle, ScenarioUpdate, SpreadOracle,
};
use imdpp_suite::datasets::{generate, DatasetKind};
use imdpp_suite::diffusion::{DynamicsConfig, Scenario};
use imdpp_suite::engine::Engine;
use imdpp_suite::graph::{ItemId, SocialGraph, UserId};
use imdpp_suite::kg::hin::figure1_knowledge_graph;
use imdpp_suite::kg::{ItemCatalog, MetaGraph, RelevanceModel};
use imdpp_suite::sketch::{SketchConfig, SketchOracle};
use proptest::prelude::*;
use std::sync::Arc;

/// A random frozen-dynamics scenario over the Fig. 1 catalogue.
fn build_scenario(n: usize, edges: Vec<(u32, u32, f64)>) -> Scenario {
    let relevance = Arc::new(RelevanceModel::compute(
        &figure1_knowledge_graph(),
        MetaGraph::default_set(),
    ));
    let social = SocialGraph::from_influence_edges(
        n,
        edges
            .into_iter()
            .map(|(a, b, w)| (UserId(a % n as u32), UserId(b % n as u32), w))
            .filter(|(a, b, _)| a != b),
        true,
    );
    Scenario::builder()
        .social(social)
        .catalog(ItemCatalog::uniform(4))
        .relevance(relevance)
        .uniform_base_preference(0.5)
        .dynamics(DynamicsConfig::frozen())
        .build()
        .expect("generated scenario must be valid")
}

fn arb_edges(n: usize) -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    proptest::collection::vec((0..n as u32, 0..n as u32, 0.05f64..0.9f64), 0..(n * 3))
}

/// `(kind, src, dst, weight)` tuples decoded into [`EdgeUpdate`]s:
/// kind 0 = insert/upsert, 1 = remove, 2 = reweight.
fn decode_updates(n: u32, raw: &[(u32, u32, u32, f64)]) -> Vec<EdgeUpdate> {
    raw.iter()
        .map(|&(kind, src, dst, weight)| {
            let (src, dst) = (UserId(src % n), UserId(dst % n));
            match kind % 3 {
                0 => EdgeUpdate::Insert { src, dst, weight },
                1 => EdgeUpdate::Remove { src, dst },
                _ => EdgeUpdate::Reweight { src, dst, weight },
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Refreshing after a random sequence of edge insertions, deletions and
    /// strength changes must be *identical* to rebuilding the sketch from
    /// scratch against the updated scenario with the same RNG streams.
    #[test]
    fn edge_update_refresh_matches_from_scratch_rebuild(
        edges in arb_edges(10),
        raw_updates in proptest::collection::vec(
            (0u32..3, 0u32..10, 0u32..10, 0.05f64..0.95),
            1..8,
        ),
    ) {
        let before = build_scenario(10, edges);
        let update = ScenarioUpdate::Edges(decode_updates(10, &raw_updates));
        let after = update.apply(&before);

        let config = SketchConfig::fixed(256).with_base_seed(43);
        let mut incremental = SketchOracle::build(&before, config);
        let (stats, _) = incremental.refresh(&after, &update);
        let rebuilt = SketchOracle::build(&after, config);

        prop_assert!(stats.resampled_sets <= stats.total_sets);
        prop_assert!(incremental.stores_equal(&rebuilt));
        // Estimates agree exactly as well.
        let nominees: Vec<_> = after.users().map(|u| (u, ItemId(2))).collect();
        prop_assert!(
            (incremental.static_spread(&nominees) - rebuilt.static_spread(&nominees)).abs()
                < 1e-12
        );
    }

    /// Interleaving edge updates with preference drift through the
    /// `RefreshableOracle` interface must also land exactly on the rebuild.
    #[test]
    fn mixed_update_stream_stays_exact(
        edges in arb_edges(8),
        raw_updates in proptest::collection::vec(
            (0u32..3, 0u32..8, 0u32..8, 0.05f64..0.95),
            1..4,
        ),
        pref_user in 0u32..8,
        pref in 0.55f64..0.95,
    ) {
        let start = build_scenario(8, edges);
        let config = SketchConfig::fixed(128).with_base_seed(47);
        let mut oracle = SketchOracle::build(&start, config);

        let step1 = ScenarioUpdate::Edges(decode_updates(8, &raw_updates));
        let mid = step1.apply(&start);
        let (stats1, _) = oracle.refresh(&mid, &step1);
        prop_assert!(stats1.resampled_sets <= stats1.total_sets);

        let step2 = ScenarioUpdate::Preferences(vec![(UserId(pref_user), ItemId(0), pref)]);
        let end = step2.apply(&mid);
        let (stats2, _) = oracle.refresh(&end, &step2);
        prop_assert!(stats2.resampled_sets <= stats2.total_sets);

        prop_assert!(oracle.stores_equal(&SketchOracle::build(&end, config)));
    }
}

/// Regression: a batch of no-op edge updates (re-setting current strengths,
/// removing absent edges) must re-sample exactly zero RR sets.
#[test]
fn noop_edge_update_resamples_zero_sets() {
    let instance = generate(&DatasetKind::AmazonTiny.config()).instance;
    let scenario = instance.scenario();
    // Re-set an existing edge to its current strength and remove an edge
    // that does not exist: the graph is unchanged either way.
    let (src, dst, w) = scenario
        .users()
        .find_map(|u| {
            scenario
                .social()
                .influenced_by(u)
                .next()
                .map(|(v, w)| (u, v, w))
        })
        .expect("generated graph has edges");
    let (absent_src, absent_dst) = scenario
        .users()
        .find_map(|a| {
            scenario
                .users()
                .find(|&b| a != b && !scenario.social().graph().has_edge(a, b))
                .map(|b| (a, b))
        })
        .expect("a 100-user graph has at least one non-edge");
    let noop = [
        EdgeUpdate::Reweight {
            src,
            dst,
            weight: w,
        },
        EdgeUpdate::Insert {
            src,
            dst,
            weight: w,
        },
        EdgeUpdate::Remove {
            src: absent_src,
            dst: absent_dst,
        },
    ];

    let mut oracle = SketchOracle::build(scenario, SketchConfig::fixed(512).with_base_seed(53));
    let update = ScenarioUpdate::Edges(noop.to_vec());
    let (stats, _) = oracle.refresh(&update.apply(scenario), &update);
    assert_eq!(
        stats.resampled_sets, 0,
        "a no-op batch must reuse every RR set"
    );
    assert_eq!(stats.total_sets, 512 * scenario.item_count());
}

/// The sketch-backed adaptive pipeline must produce feasible campaigns and
/// reuse a majority of its RR sets on localized per-round edge updates.
#[test]
fn sketch_backed_adaptive_pipeline_reuses_samples() {
    let instance = generate(&DatasetKind::AmazonTiny.config())
        .instance
        .with_budget(60.0)
        .with_promotions(3);
    let scenario = instance.scenario();
    // A localized update per inter-round gap: reweight one low-degree
    // user's incoming edge.
    let quiet = scenario
        .users()
        .min_by_key(|&u| (scenario.social().out_degree(u), std::cmp::Reverse(u.0)))
        .expect("instance has users");
    let incoming = scenario.social().influencers_of(quiet).next();
    let drift: Vec<ScenarioUpdate> = (0..2)
        .map(|i| match incoming {
            Some((v, w)) => ScenarioUpdate::Edges(vec![EdgeUpdate::Reweight {
                src: v,
                dst: quiet,
                weight: (w + 0.1 * (i + 1) as f64).min(1.0),
            }]),
            None => ScenarioUpdate::Edges(vec![EdgeUpdate::Insert {
                src: quiet,
                dst: UserId((quiet.0 + 1) % scenario.user_count() as u32),
                weight: 0.2 + 0.1 * i as f64,
            }]),
        })
        .collect();

    let cfg = DysimConfig {
        mc_samples: 8,
        candidate_users: Some(16),
        max_nominees: Some(4),
        ..DysimConfig::default()
    }
    .with_oracle(OracleKind::RrSketch {
        sets_per_item: 512,
        shards: 1,
        threads: 0,
    });

    let engine = Engine::for_instance(&instance)
        .config(cfg)
        .build()
        .expect("valid engine");
    let report = engine.adaptive(instance.promotions(), &drift);
    assert!(instance.is_feasible(&report.seeds));
    assert!(!report.seeds.is_empty());
    assert_eq!(report.refresh_fractions.len(), 2);
    for &fraction in &report.refresh_fractions {
        assert!(
            fraction < 0.5,
            "localized edge update must re-sample < 50% of RR sets, got {:.1}%",
            100.0 * fraction
        );
    }
}

/// One config knob flips the full Dysim pipeline between estimators; both
/// must return feasible, non-empty campaigns on a generated instance.
#[test]
fn config_knob_selects_the_estimator_end_to_end() {
    let instance = generate(&DatasetKind::AmazonTiny.config())
        .instance
        .with_budget(60.0)
        .with_promotions(2);
    let base = DysimConfig {
        mc_samples: 8,
        candidate_users: Some(16),
        max_nominees: Some(4),
        ..DysimConfig::default()
    };
    let solve = |config: DysimConfig| {
        Engine::for_instance(&instance)
            .config(config)
            .build()
            .expect("valid engine")
            .solve_report()
    };
    let mc = solve(base.clone());
    let sk = solve(base.with_oracle(OracleKind::RrSketch {
        sets_per_item: 2048,
        shards: 1,
        threads: 0,
    }));
    assert!(instance.is_feasible(&mc.seeds) && !mc.seeds.is_empty());
    assert!(instance.is_feasible(&sk.seeds) && !sk.seeds.is_empty());
}
