//! End-to-end benchmark and acceptance checks of the sketch-backed Dysim
//! pipeline on the Yelp-scale preset:
//!
//! * nominee-selection (TMI) time of the config-driven run with the
//!   Monte-Carlo estimator vs the RR-sketch oracle (including sketch
//!   construction) — reports the measured selection speedup,
//! * per-round sketch refresh in the `imdpp-engine` adaptive loop under a
//!   localized edge update — asserts fewer than 50% of the RR sets are
//!   re-sampled each round (the sample-reuse guarantee extended to edge
//!   updates) and reports the measured fractions,
//! * incremental edge-update refresh vs a full rebuild of the sketch.
//!
//! Key measurements are written to `results/bench_adaptive_pipeline.json`.

use imdpp_bench::{fringe_user, yelp_instance, BenchSummary};
use imdpp_core::nominees::{select_nominees_with_oracle, NomineeSelectionConfig};
use imdpp_core::{
    DysimConfig, EdgeUpdate, Evaluator, ImdppInstance, OracleKind, RefreshableOracle,
    ScenarioUpdate,
};
use imdpp_engine::Engine;
use imdpp_sketch::{SketchConfig, SketchOracle};
use std::time::Instant;

const SETS_PER_ITEM: usize = 2048;

fn instance() -> ImdppInstance {
    // ~200 users, Yelp-shaped KG and strengths, a 3-promotion campaign.
    yelp_instance(0.25, 120.0, 3)
}

/// A localized edge update near the least-connected user: reweight one
/// incoming influence edge (both directions — the Yelp preset's friendships
/// are undirected, so the two directed edges move together).
fn localized_edge_update(instance: &ImdppInstance, bump: f64) -> Vec<EdgeUpdate> {
    let scenario = instance.scenario();
    let quiet = fringe_user(scenario);
    let (v, w) = scenario
        .social()
        .influencers_of(quiet)
        .next()
        .expect("yelp preset users have friends");
    let up = EdgeUpdate::Reweight {
        src: v,
        dst: quiet,
        weight: (w + bump).min(1.0),
    };
    vec![up, up.mirrored()]
}

fn main() {
    let mut summary = BenchSummary::new("adaptive_pipeline");
    let instance = instance();
    let scenario = instance.scenario();
    println!(
        "yelp-scale preset: {} users, {} items, {} influence edges",
        scenario.user_count(),
        scenario.item_count(),
        scenario.social().edge_count()
    );

    // `mc_samples: 30` is the suite's default estimator budget (the paper
    // uses M = 100); the sketch must win against a realistic configuration,
    // not a deliberately starved one.
    let config = DysimConfig {
        candidate_users: Some(32),
        max_nominees: Some(6),
        ..DysimConfig::default()
    };
    let selection_config = NomineeSelectionConfig {
        max_nominees: config.max_nominees,
        stop_on_nonpositive_gain: true,
    };
    let universe = instance.nominee_universe(config.candidate_users);

    // --- Selection speedup: the same TMI stage, estimators swapped. -------
    let mc_start = Instant::now();
    let evaluator = Evaluator::new(&instance, config.mc_samples, config.base_seed);
    let mc_selection =
        select_nominees_with_oracle(&instance, &evaluator, &universe, &selection_config);
    let mc_time = mc_start.elapsed();

    let sketch_start = Instant::now();
    let sketch = SketchOracle::build(
        scenario,
        SketchConfig::fixed(SETS_PER_ITEM).with_base_seed(config.base_seed),
    );
    let sketch_selection =
        select_nominees_with_oracle(&instance, &sketch, &universe, &selection_config);
    let sketch_time = sketch_start.elapsed();

    assert!(!mc_selection.nominees.is_empty() && !sketch_selection.nominees.is_empty());
    let speedup = mc_time.as_secs_f64() / sketch_time.as_secs_f64().max(1e-9);
    summary.record("tmi_monte_carlo_seconds", mc_time.as_secs_f64());
    summary.record(
        "tmi_rr_sketch_incl_build_seconds",
        sketch_time.as_secs_f64(),
    );
    summary.record("tmi_selection_speedup", speedup);
    println!(
        "TMI nominee selection ({} candidates): monte-carlo {:.3}s ({} evals) vs \
         rr-sketch {:.3}s incl. build ({} evals) — {speedup:.1}x speedup",
        universe.len(),
        mc_time.as_secs_f64(),
        mc_selection.evaluations,
        sketch_time.as_secs_f64(),
        sketch_selection.evaluations,
    );
    // Timing is reported but deliberately not hard-asserted: wall-clock on a
    // loaded CI runner is nondeterministic, and the CI gates of this bench
    // are the deterministic quantities below (resample fraction per round,
    // refresh == rebuild).  A measured slowdown is still surfaced loudly.
    if speedup <= 1.0 {
        eprintln!(
            "WARNING: sketch-backed selection (incl. build) did not beat Monte-Carlo \
             selection on this run: {:.3}s vs {:.3}s",
            sketch_time.as_secs_f64(),
            mc_time.as_secs_f64()
        );
    }

    // --- Adaptive loop: per-round refresh on localized edge updates. ------
    let drift: Vec<ScenarioUpdate> = vec![
        ScenarioUpdate::Edges(localized_edge_update(&instance, 0.10)),
        ScenarioUpdate::Edges(localized_edge_update(&instance, 0.17)),
    ];
    let sketched_config = config.clone().with_oracle(OracleKind::RrSketch {
        sets_per_item: SETS_PER_ITEM,
        shards: 1,
        threads: 0,
    });
    let engine = Engine::for_instance(&instance)
        .config(sketched_config.clone())
        .build()
        .expect("yelp instance is valid");
    let report = engine.adaptive(instance.promotions(), &drift);
    assert!(instance.is_feasible(&report.seeds));
    assert_eq!(report.refresh_fractions.len(), drift.len());
    // `IMDPP_METRICS=<path>`: dump the engine's telemetry snapshot (counters,
    // gauges, latency histograms) accumulated by the adaptive run above.
    if let Some(path) = imdpp_obs::metrics_env_path() {
        match engine.telemetry().write_to(&path) {
            Ok(()) => println!("telemetry snapshot written to {}", path.display()),
            Err(e) => eprintln!("IMDPP_METRICS: failed to write {}: {e}", path.display()),
        }
    }
    for (round, &fraction) in report.refresh_fractions.iter().enumerate() {
        println!(
            "adaptive round {}: refreshed {:.2}% of RR sets (reused {:.2}%)",
            round + 2,
            100.0 * fraction,
            100.0 * (1.0 - fraction),
        );
        summary.record(
            format!("adaptive_round_{}_refresh_fraction", round + 2),
            fraction,
        );
        assert!(
            fraction < 0.5,
            "localized edge update must re-sample < 50% of RR sets per round, got {:.2}%",
            100.0 * fraction
        );
    }

    // --- Maintained solutions: cache lookup vs the full pipeline. ---------
    // Two identical engines drift through the same localized churn; one
    // maintains its solution across applies (the default), the other
    // re-solves from scratch every batch.  A maintained solve is a lookup
    // of the repaired cached answer — it skips TMI, DRE, TDSI and the
    // guards — so `maintained_solve_speedup` compares a cache lookup with
    // the full pipeline, not two solvers.  The gates are deterministic
    // *and* temporal: no batch may invalidate the maintained solution
    // (`full_resolves == 0` — localized churn is the regime maintenance
    // exists for), and the lookup must be at least 3x faster than the full
    // pipeline in aggregate (the real margin is orders of magnitude; 3x
    // absorbs CI noise).
    let maintained_engine = Engine::for_instance(&instance)
        .config(sketched_config.clone())
        .build()
        .expect("yelp instance is valid");
    let fresh_engine = Engine::for_instance(&instance)
        .config(sketched_config.clone())
        .maintain_bound(None)
        .build()
        .expect("yelp instance is valid");
    let _ = maintained_engine.solve();
    let _ = fresh_engine.solve();
    let maintained_churn: Vec<ScenarioUpdate> = [0.02, 0.05, 0.08, 0.11, 0.14, 0.18]
        .iter()
        .map(|&bump| ScenarioUpdate::Edges(localized_edge_update(&instance, bump)))
        .collect();
    let mut maintained_solve_total = 0.0f64;
    let mut fresh_solve_total = 0.0f64;
    let mut full_resolves = 0u64;
    let mut retained_total = 0usize;
    let mut repaired_total = 0usize;
    for update in &maintained_churn {
        let applied = maintained_engine
            .apply(update)
            .expect("in-range localized update");
        let fresh_applied = fresh_engine
            .apply(update)
            .expect("in-range localized update");
        assert_eq!(
            fresh_applied.epoch, applied.epoch,
            "both engines must march through the same epochs"
        );
        full_resolves += applied.solve_repair.full_resolves;
        retained_total += applied.solve_repair.seeds_retained;
        repaired_total += applied.solve_repair.positions_repaired;
        let t = Instant::now();
        let served = maintained_engine.solve_report();
        maintained_solve_total += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let reference = fresh_engine.solve_report();
        fresh_solve_total += t.elapsed().as_secs_f64();
        assert!(!served.nominees.is_empty() && !reference.nominees.is_empty());
    }
    let maintained_speedup = fresh_solve_total / maintained_solve_total.max(1e-9);
    summary.record("maintained_solve_total_seconds", maintained_solve_total);
    summary.record("fresh_solve_total_seconds", fresh_solve_total);
    summary.record("maintained_solve_speedup", maintained_speedup);
    summary.record("maintained_full_resolves", full_resolves as f64);
    summary.record("maintained_seeds_retained_total", retained_total as f64);
    summary.record("maintained_positions_repaired_total", repaired_total as f64);
    println!(
        "maintained solve over {} localized batches: cache lookup {:.3}ms vs \
         full pipeline {:.3}ms ({maintained_speedup:.0}x), {retained_total} \
         seeds retained, {repaired_total} positions repaired, {full_resolves} \
         full resolves",
        maintained_churn.len(),
        1e3 * maintained_solve_total,
        1e3 * fresh_solve_total,
    );
    assert_eq!(
        full_resolves, 0,
        "localized churn invalidated the maintained solution"
    );
    assert!(
        maintained_speedup >= 3.0,
        "a maintained-solution lookup must be >= 3x faster than the full \
         pipeline under localized churn, got {maintained_speedup:.1}x \
         ({:.3}ms vs {:.3}ms)",
        1e3 * maintained_solve_total,
        1e3 * fresh_solve_total,
    );

    let update = ScenarioUpdate::Edges(localized_edge_update(&instance, 0.1));
    let drifted = update.apply(scenario);

    // Exactness spot-check at bench scale: refresh equals rebuild (timed
    // once each for the machine-readable summary).
    let t = Instant::now();
    let mut refreshed = sketch.clone();
    let (refresh_stats, _) = refreshed.refresh(&drifted, &update);
    summary.record(
        "edge_refresh_incremental_seconds",
        t.elapsed().as_secs_f64(),
    );
    summary.record(
        "edge_refresh_resampled_fraction",
        refresh_stats.resampled_fraction(),
    );
    let t = Instant::now();
    let rebuilt = SketchOracle::build(
        &drifted,
        SketchConfig::fixed(SETS_PER_ITEM).with_base_seed(config.base_seed),
    );
    summary.record(
        "edge_refresh_full_rebuild_seconds",
        t.elapsed().as_secs_f64(),
    );
    assert!(
        refreshed.stores_equal(&rebuilt),
        "refresh must equal rebuild at bench scale"
    );

    // --- Sharded refresh: identical result, no slower than the flat store,
    // --- measured across a threads axis (1 vs 4) on the sharded variant. --
    const REFRESH_SHARDS: usize = 4;
    summary.record("refresh_shard_count", REFRESH_SHARDS as f64);
    let sharded_with_threads = |threads: usize| {
        SketchOracle::build(
            scenario,
            SketchConfig::fixed(SETS_PER_ITEM)
                .with_base_seed(config.base_seed)
                .with_shards(REFRESH_SHARDS)
                .with_threads(threads),
        )
    };
    let best_of = |oracle: &SketchOracle| -> (f64, SketchOracle) {
        let mut best = f64::INFINITY;
        let mut result = None;
        for _ in 0..7 {
            let mut o = oracle.clone();
            let t = Instant::now();
            let (stats, _) = o.refresh(&drifted, &update);
            best = best.min(t.elapsed().as_secs_f64());
            assert_eq!(stats.full_rebuilds, 0, "refresh must patch, not rebuild");
            result = Some(o);
        }
        (best, result.expect("at least one iteration ran"))
    };
    let (flat_refresh, flat_refreshed) = best_of(&sketch);
    let (sharded_refresh, sharded_refreshed) = best_of(&sharded_with_threads(1));
    let (parallel_refresh, parallel_refreshed) = best_of(&sharded_with_threads(4));
    assert!(
        sharded_refreshed.stores_equal(&flat_refreshed),
        "sharded refresh must land on the flat result"
    );
    assert!(
        parallel_refreshed.stores_equal(&flat_refreshed),
        "shard-parallel refresh must land on the flat result"
    );
    summary.record("flat_refresh_best_seconds", flat_refresh);
    // `sharded_refresh_best_seconds` (threads = 1) keeps its PR-4 name so
    // the metric series stays continuous across runs.
    summary.record("sharded_refresh_best_seconds", sharded_refresh);
    summary.record("sharded_threads_4_refresh_best_seconds", parallel_refresh);
    let ratio = sharded_refresh / flat_refresh.max(1e-9);
    summary.record("sharded_over_flat_refresh_ratio", ratio);
    let thread_ratio = parallel_refresh / sharded_refresh.max(1e-9);
    summary.record("sharded_threads_4_over_1_refresh_ratio", thread_ratio);
    println!(
        "localized edge refresh on the yelp preset: flat {:.3}ms vs {}-shard \
         {:.3}ms (threads=1, {ratio:.2}x) vs {:.3}ms (threads=4, {thread_ratio:.2}x \
         of sequential)",
        1e3 * flat_refresh,
        REFRESH_SHARDS,
        1e3 * sharded_refresh,
        1e3 * parallel_refresh,
    );
    // The gates: sharding is a layout change, so the same frontier must not
    // get meaningfully slower (1.5x headroom absorbs CI timer noise on
    // sub-millisecond work) — and shard-parallel refresh must be no slower
    // than driving the same shards sequentially (same headroom: on a
    // single-core or loaded runner "no slower" is the honest bound, the
    // speedup itself is recorded in the JSON summary above).
    assert!(
        ratio < 1.5,
        "sharded refresh regressed vs flat: {:.3}ms vs {:.3}ms",
        1e3 * sharded_refresh,
        1e3 * flat_refresh
    );
    assert!(
        thread_ratio < 1.5,
        "shard-parallel refresh regressed vs sequential: {:.3}ms vs {:.3}ms",
        1e3 * parallel_refresh,
        1e3 * sharded_refresh
    );

    summary.record_peak_rss();
    match summary.write() {
        Ok(path) => println!("bench summary written to {}", path.display()),
        Err(e) => eprintln!("could not write bench summary: {e}"),
    }
}
