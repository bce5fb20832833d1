//! Integration tests of the `imdpp-sketch` RR-sketch oracle: statistical
//! agreement with forward Monte-Carlo on frozen-dynamics scenarios, exact
//! equivalence of incremental refresh and from-scratch rebuilds, and the
//! sample-reuse guarantee under localized perception updates.

use imdpp_suite::core::nominees::{select_nominees_with_oracle, NomineeSelectionConfig};
use imdpp_suite::core::{
    CostModel, Evaluator, ImdppInstance, RefreshableOracle, ScenarioUpdate, SpreadOracle,
};
use imdpp_suite::datasets::{generate, DatasetKind};
use imdpp_suite::diffusion::{DynamicsConfig, Scenario, Seed, SeedGroup, SpreadEstimator};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The sketch estimate of the static spread and a forward Monte-Carlo
    /// estimate of the same quantity must agree within three combined
    /// standard errors on frozen-dynamics scenarios.
    #[test]
    fn sketch_agrees_with_forward_monte_carlo_within_3_sigma(
        edges in arb_edges(12),
        seed_user in 0u32..12,
    ) {
        let scenario = build_scenario(12, edges);
        let oracle = SketchOracle::build(&scenario, SketchConfig::fixed(1500).with_base_seed(17));
        let seeds = [UserId(seed_user)];
        let item = ItemId(0);
        let sketch = oracle.estimate_item_adopters(item, &seeds);
        let sketch_se = oracle.estimate_item_std_error(item, &seeds);

        let group = SeedGroup::from_seeds(vec![Seed::new(UserId(seed_user), item, 1)]);
        let mc = SpreadEstimator::new(&scenario, 600, 23)
            .estimate_metric(&group, 1, |out| out.adoptions_of(item) as f64);

        let tolerance = 3.0 * (sketch_se + mc.std_error()) + 1e-6;
        prop_assert!(
            (sketch - mc.mean).abs() <= tolerance,
            "sketch {sketch:.3} vs monte-carlo {:.3} (tolerance {tolerance:.3})",
            mc.mean
        );
    }

    /// Incrementally refreshing the sketch after a preference update must be
    /// *identical* to rebuilding it from scratch with the same RNG streams.
    #[test]
    fn incremental_refresh_matches_from_scratch_rebuild(
        edges in arb_edges(10),
        changed in proptest::collection::vec(0u32..10, 1..3),
        bump in 0.55f64..0.95,
    ) {
        let before = build_scenario(10, edges);
        let changed_users: Vec<UserId> = {
            let mut c: Vec<UserId> = changed.iter().map(|&u| UserId(u)).collect();
            c.sort_unstable();
            c.dedup();
            c
        };
        // The drifted world: the changed users' preference for every item
        // moves to `bump`.
        let update = ScenarioUpdate::Preferences(
            changed_users
                .iter()
                .flat_map(|&u| before.items().map(move |x| (u, x, bump)))
                .collect(),
        );
        let after = update.apply(&before);

        let config = SketchConfig::fixed(256).with_base_seed(29);
        let mut incremental = SketchOracle::build(&before, config);
        let (stats, _) = incremental.refresh(&after, &update);
        let rebuilt = SketchOracle::build(&after, config);

        prop_assert!(stats.resampled_sets <= stats.total_sets);
        prop_assert!(incremental.stores_equal(&rebuilt));
        // Estimates therefore agree exactly as well.
        let nominees: Vec<_> = after.users().map(|u| (u, ItemId(1))).collect();
        prop_assert!(
            (incremental.static_spread(&nominees) - rebuilt.static_spread(&nominees)).abs()
                < 1e-12
        );
    }
}

/// A localized preference update on a 100-user instance must re-sample a
/// minority of the RR sets — the sample-reuse guarantee of the sketch.
#[test]
fn localized_update_resamples_a_minority_of_sets() {
    let instance = generate(&DatasetKind::AmazonTiny.config()).instance;
    let scenario = instance.scenario();
    // The least influential user: fewest out-edges (ties toward larger id).
    let quiet = scenario
        .users()
        .min_by_key(|&u| (scenario.social().out_degree(u), std::cmp::Reverse(u.0)))
        .expect("instance has users");

    let mut oracle = SketchOracle::build(scenario, SketchConfig::fixed(1024).with_base_seed(41));
    let update = ScenarioUpdate::Preferences(vec![(quiet, ItemId(0), 0.9)]);
    let (stats, _) = oracle.refresh(&update.apply(scenario), &update);

    assert_eq!(stats.total_sets, 1024 * scenario.item_count());
    assert!(
        stats.resampled_sets > 0,
        "the changed user must invalidate something"
    );
    assert!(
        stats.resampled_fraction() < 0.5,
        "localized update re-sampled {:.1}% of RR sets",
        100.0 * stats.resampled_fraction()
    );
}

/// Greedy selection through the sketch oracle must match the Monte-Carlo
/// greedy's seed-set quality within 5% on toy and generated scenarios.
#[test]
fn sketch_greedy_matches_monte_carlo_greedy_within_5_percent() {
    let toy = {
        let s = imdpp_suite::diffusion::scenario::toy_scenario();
        let costs = CostModel::uniform(s.user_count(), s.item_count(), 1.0);
        ImdppInstance::new(s, costs, 2.0, 1).unwrap()
    };
    let amazon = generate(&DatasetKind::AmazonTiny.config())
        .instance
        .with_budget(100.0)
        .with_promotions(1);

    for (name, instance, sketch_sets, mc_samples, max_nominees) in [
        ("toy", toy, 2048, 400, None),
        ("amazon-tiny", amazon, 16_384, 200, Some(5)),
    ] {
        let frozen = instance
            .with_scenario(instance.scenario().with_dynamics(DynamicsConfig::frozen()))
            .unwrap();
        // The same CELF selection with the two oracles swapped.  The cap
        // equalizes the seed count on the generated instance (MC gains are
        // never exactly zero, so uncapped MC-CELF spends the whole budget
        // while coverage gains can reach zero and stop).
        let selection_config = NomineeSelectionConfig { max_nominees };
        let universe: Vec<(UserId, ItemId)> =
            frozen.scenario().users().map(|u| (u, ItemId(0))).collect();
        let oracle = SketchOracle::build(
            frozen.scenario(),
            SketchConfig::fixed(sketch_sets).with_base_seed(5),
        );
        let sketch_seeds: SeedGroup =
            select_nominees_with_oracle(&frozen, &oracle, &universe, &selection_config)
                .nominees
                .into_iter()
                .map(|(u, x)| Seed::new(u, x, 1))
                .collect();
        let mc_oracle = Evaluator::new(&frozen, mc_samples, 7);
        let mc_seeds: SeedGroup =
            select_nominees_with_oracle(&frozen, &mc_oracle, &universe, &selection_config)
                .nominees
                .into_iter()
                .map(|(u, x)| Seed::new(u, x, 1))
                .collect();
        assert!(
            !sketch_seeds.is_empty() && !mc_seeds.is_empty(),
            "{name}: empty selection"
        );

        let reference = Evaluator::new(&frozen, 1_500, 99);
        let sketch_spread = reference.spread(&sketch_seeds);
        let mc_spread = reference.spread(&mc_seeds);
        assert!(
            (sketch_spread - mc_spread).abs() <= 0.05 * mc_spread.max(1.0),
            "{name}: sketch greedy {sketch_spread:.3} vs MC greedy {mc_spread:.3}"
        );
    }
}
