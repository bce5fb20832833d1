//! Acceptance checks of the `imdpp-sketch` RR-sketch oracle:
//!
//! * incremental refresh after a *localized* preference update — asserts
//!   that fewer than 50% of the RR sets are re-sampled (the sample-reuse
//!   guarantee) and reports the measured fraction,
//! * greedy seed quality vs the Monte-Carlo greedy — asserts agreement of
//!   the selected seed sets' spreads within 5%.
//!
//! Key measurements are written to `results/bench_sketch_oracle.json`.

use imdpp_bench::{fringe_user, tiny_amazon_instance, BenchSummary};
use imdpp_core::nominees::{select_nominees_with_oracle, NomineeSelectionConfig};
use imdpp_core::{Evaluator, ImdppInstance, RefreshableOracle, ScenarioUpdate, Seed, SeedGroup};
use imdpp_diffusion::DynamicsConfig;
use imdpp_graph::{ItemId, UserId};
use imdpp_sketch::{SketchConfig, SketchOracle};

fn frozen_instance() -> ImdppInstance {
    let instance = tiny_amazon_instance(100.0, 1);
    instance
        .with_scenario(instance.scenario().with_dynamics(DynamicsConfig::frozen()))
        .expect("frozen scenario is valid")
}

fn main() {
    let mut summary = BenchSummary::new("sketch_oracle");
    let instance = frozen_instance();
    let scenario = instance.scenario();
    let sketch_config = SketchConfig::fixed(2048).with_base_seed(5);

    let oracle = SketchOracle::build(scenario, sketch_config);

    // --- Incremental refresh after a localized preference update. ---
    let quiet = fringe_user(scenario);
    let update = ScenarioUpdate::Preferences(vec![(quiet, ItemId(0), 0.9)]);
    let drifted = update.apply(scenario);

    let mut probe = oracle.clone();
    let (stats, _) = probe.refresh(&drifted, &update);
    println!(
        "incremental refresh after localized update of {quiet}: \
         re-sampled {}/{} RR sets ({:.2}%), reused {:.2}%",
        stats.resampled_sets,
        stats.total_sets,
        100.0 * stats.resampled_fraction(),
        100.0 * stats.reused_fraction(),
    );
    assert!(
        stats.resampled_fraction() < 0.5,
        "localized update must re-sample < 50% of RR sets, got {:.2}%",
        100.0 * stats.resampled_fraction()
    );
    summary.record(
        "localized_update_resampled_fraction",
        stats.resampled_fraction(),
    );
    summary.record("localized_update_total_sets", stats.total_sets as f64);

    // --- Greedy quality: the same CELF selection with the two oracles
    // swapped must land within 5% of each other. ---
    let universe: Vec<(UserId, ItemId)> = scenario.users().map(|u| (u, ItemId(0))).collect();
    // Cap both selections at the same seed count: the comparison targets
    // seed *quality* under each estimator, not the stopping rule (MC gains
    // are never exactly zero, so an uncapped MC-CELF always spends the whole
    // budget while coverage gains can hit zero and stop).
    let selection_config = NomineeSelectionConfig {
        max_nominees: Some(5),
    };
    // A denser sketch for selection: per-singleton coverage noise must be
    // well under the 5% agreement target (relative error ~ 1/sqrt(coverage)).
    let selection_oracle =
        SketchOracle::build(scenario, SketchConfig::fixed(16_384).with_base_seed(5));
    let sketch_seeds: SeedGroup =
        select_nominees_with_oracle(&instance, &selection_oracle, &universe, &selection_config)
            .nominees
            .into_iter()
            .map(|(u, x)| Seed::new(u, x, 1))
            .collect();
    let mc_oracle = Evaluator::new(&instance, 200, 7);
    let mc_seeds: SeedGroup =
        select_nominees_with_oracle(&instance, &mc_oracle, &universe, &selection_config)
            .nominees
            .into_iter()
            .map(|(u, x)| Seed::new(u, x, 1))
            .collect();
    assert!(!sketch_seeds.is_empty() && !mc_seeds.is_empty());
    let reference = Evaluator::new(&instance, 1_500, 99);
    let sketch_spread = reference.spread(&sketch_seeds);
    let mc_spread = reference.spread(&mc_seeds);
    println!(
        "greedy seed-set spread: rr-sketch {sketch_spread:.3} vs monte-carlo {mc_spread:.3} \
         (relative difference {:.2}%)",
        100.0 * (sketch_spread - mc_spread).abs() / mc_spread.max(1.0)
    );
    assert!(
        (sketch_spread - mc_spread).abs() <= 0.05 * mc_spread.max(1.0),
        "sketch greedy must match MC greedy within 5%: {sketch_spread:.3} vs {mc_spread:.3}"
    );
    summary.record("greedy_spread_rr_sketch", sketch_spread);
    summary.record("greedy_spread_monte_carlo", mc_spread);

    summary.record_peak_rss();
    summary.finish();
}
