//! The RR-sketch influence oracle end to end: build a sketch over a
//! generated instance, compare its static-spread estimates against forward
//! Monte-Carlo, select seeds greedily, then drift one user's preference and
//! refresh the sketch incrementally instead of rebuilding.
//!
//! Run with `cargo run --release --example sketch_oracle`.

use imdpp_suite::core::nominees::{select_nominees_with_oracle, NomineeSelectionConfig};
use imdpp_suite::core::{Evaluator, RefreshableOracle, ScenarioUpdate, SpreadOracle};
use imdpp_suite::datasets::{generate, DatasetKind};
use imdpp_suite::diffusion::DynamicsConfig;
use imdpp_suite::graph::{ItemId, UserId};
use imdpp_suite::sketch::{SketchConfig, SketchOracle};
use std::time::Instant;

fn main() {
    let instance = generate(&DatasetKind::AmazonTiny.config())
        .instance
        .with_budget(100.0)
        .with_promotions(1);
    let frozen = instance
        .with_scenario(instance.scenario().with_dynamics(DynamicsConfig::frozen()))
        .expect("frozen scenario is valid");
    let scenario = frozen.scenario();
    println!(
        "instance: {} users, {} items",
        scenario.user_count(),
        scenario.item_count()
    );

    // Build the sketch: 4096 RR sets per item on deterministic streams.
    // lint: allow(clock) — demo prints build time; nothing branches on it.
    let start = Instant::now();
    let mut oracle = SketchOracle::build(scenario, SketchConfig::fixed(4096).with_base_seed(7));
    println!(
        "built {} RR sets across {} stores in {:.1?}",
        oracle.total_sets(),
        scenario.item_count(),
        start.elapsed()
    );

    // One f(N) query under each estimator.
    let nominees: Vec<(UserId, ItemId)> = (0..4).map(|u| (UserId(u), ItemId(0))).collect();
    let evaluator = Evaluator::new(&frozen, 400, 11);
    // lint: allow(clock) — demo prints query latency; nothing branches on it.
    let t = Instant::now();
    let sketch_f = oracle.static_spread(&nominees);
    let sketch_time = t.elapsed();
    // lint: allow(clock) — demo prints query latency; nothing branches on it.
    let t = Instant::now();
    let mc_f = evaluator.static_spread(&nominees);
    let mc_time = t.elapsed();
    println!(
        "f(N) for 4 nominees: sketch {sketch_f:.3} in {sketch_time:.1?}, \
         monte-carlo {mc_f:.3} in {mc_time:.1?}"
    );

    // CELF nominee selection answered entirely from the sketch.
    let universe: Vec<(UserId, ItemId)> = scenario.users().map(|u| (u, ItemId(0))).collect();
    let selection = select_nominees_with_oracle(
        &frozen,
        &oracle,
        &universe,
        &NomineeSelectionConfig {
            max_nominees: Some(5),
        },
    );
    println!(
        "sketch CELF picked {:?} (objective {:.2}, {} oracle queries)",
        selection
            .nominees
            .iter()
            .map(|(u, _)| u.0)
            .collect::<Vec<_>>(),
        selection.objective,
        selection.evaluations,
    );

    // Preference drift at the least influential user: refresh incrementally.
    let quiet = scenario
        .users()
        .min_by_key(|&u| (scenario.social().out_degree(u), std::cmp::Reverse(u.0)))
        .expect("instance has users");
    let update = ScenarioUpdate::Preferences(vec![(quiet, ItemId(0), 0.9)]);
    let drifted = update.apply(scenario);
    // lint: allow(clock) — demo prints refresh latency; nothing branches on it.
    let t = Instant::now();
    let (stats, _) = oracle.refresh(&drifted, &update);
    println!(
        "preference drift at {quiet}: re-sampled {}/{} RR sets ({:.2}%) in {:.1?} — \
         {:.2}% of the sketch reused",
        stats.resampled_sets,
        stats.total_sets,
        100.0 * stats.resampled_fraction(),
        t.elapsed(),
        100.0 * stats.reused_fraction(),
    );
}
