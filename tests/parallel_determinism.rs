//! The determinism / concurrency harness of shard-parallel RR generation
//! and refresh (the PR-5 tentpole): over the full grid
//! `shards ∈ {1, 2, 4, 7} × threads ∈ {1, 2, 4, 8}`, building a sketch and
//! refreshing it through randomized edge / preference churn must produce
//! **bit-identical** spread estimates, standard errors, [`RefreshStats`]
//! and per-item touched-user lists — the
//! invariant the sample-reuse papers
//! (Yalavarthi & Khan; Zhang et al.) rest on: locally-updated samples are
//! statistically indistinguishable from fresh ones, which here is the
//! stronger property that they are *the same bits* no matter how the work
//! was scheduled.
//!
//! A second part stress-tests the engine: `Engine::apply` keeps landing
//! updates (each refresh fanning out across shard workers) while reader
//! threads hammer the snapshot path — every read must observe a consistent
//! epoch and the run must finish with **zero** post-build index rebuilds.
//!
//! A third part pins the observability layer to the same standard: the
//! semantic telemetry counters and gauges an engine accumulates are
//! bit-identical across the `(shards, threads)` grid — recording is
//! passive, never part of the computation.
//!
//! Run twice in CI — once with the default test scheduler and once under
//! `RUST_TEST_THREADS=1` — so thread interleavings differ between runs.

use imdpp_suite::core::{
    DysimConfig, ItemId, OracleKind, RefreshStats, RefreshableOracle, ScenarioUpdate, UserId,
};
use imdpp_suite::datasets::{generate, DatasetKind};
use imdpp_suite::diffusion::Scenario;
use imdpp_suite::engine::Engine;
use imdpp_suite::sketch::{SketchConfig, SketchOracle};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

mod common;
use common::churn::{decode_edge_updates, figure1_scenario, stress_batches};

const SHARD_GRID: [usize; 4] = [1, 2, 4, 7];
const THREAD_GRID: [usize; 4] = [1, 2, 4, 8];
const USERS: usize = 10;
const SETS_PER_ITEM: usize = 128;

/// Everything a `(shards, threads)` run observes, in bit-comparable form.
/// `f64`s are compared through their raw bits: the claim is *identical
/// computation*, not approximate agreement.
#[derive(Debug, PartialEq, Eq)]
struct Observations {
    estimates: Vec<u64>,
    std_errors: Vec<u64>,
    refresh_stats: Vec<RefreshStats>,
    touched: Vec<Option<Vec<Vec<UserId>>>>,
}

/// Builds a sketch with the given `(shards, threads)`, drives it through
/// `churn`, and records estimates / errors / refresh statistics / touched
/// users along the way.
fn observe(
    start: &Scenario,
    churn: &[ScenarioUpdate],
    shards: usize,
    threads: usize,
) -> (SketchOracle, Observations) {
    let config = SketchConfig::fixed(SETS_PER_ITEM)
        .with_base_seed(61)
        .with_shards(shards)
        .with_threads(threads);
    let mut oracle = SketchOracle::build(start, config);
    let mut obs = Observations {
        estimates: Vec::new(),
        std_errors: Vec::new(),
        refresh_stats: Vec::new(),
        touched: Vec::new(),
    };
    let probes: [&[UserId]; 3] = [
        &[UserId(0)],
        &[UserId(1), UserId(4)],
        &[UserId(2), UserId(5), UserId(9)],
    ];
    let items: Vec<ItemId> = start.items().collect();
    let mut scenario = start.clone();
    let record = |oracle: &SketchOracle, obs: &mut Observations| {
        for &item in &items {
            for probe in probes {
                obs.estimates
                    .push(oracle.estimate_item_adopters(item, probe).to_bits());
                obs.std_errors
                    .push(oracle.estimate_item_std_error(item, probe).to_bits());
            }
        }
    };
    record(&oracle, &mut obs);
    for update in churn {
        scenario = update.apply(&scenario);
        let (stats, touched) = oracle.refresh(&scenario, update);
        obs.refresh_stats.push(stats);
        obs.touched.push(touched);
        record(&oracle, &mut obs);
    }
    (oracle, obs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole invariant: for randomized worlds and randomized
    /// edge / preference churn, every `(shards, threads)` combination
    /// computes the *same bits* as the sequential flat reference —
    /// estimates, standard errors, refresh statistics and the touched users
    /// each refresh reports.
    #[test]
    fn grid_of_shards_and_threads_is_bit_identical_under_churn(
        edges in proptest::collection::vec(
            (0u32..USERS as u32, 0u32..USERS as u32, 0.05f64..0.9), 0..30,
        ),
        raw_edge_churn in proptest::collection::vec(
            (0u32..3, 0u32..USERS as u32, 0u32..USERS as u32, 0.05f64..0.95),
            1..5,
        ),
        raw_pref_churn in proptest::collection::vec(
            (0u32..USERS as u32, 0u32..4u32, 0.05f64..0.95),
            1..4,
        ),
    ) {
        let start = figure1_scenario(USERS, edges);
        let churn = vec![
            ScenarioUpdate::Edges(decode_edge_updates(USERS as u32, &raw_edge_churn)),
            ScenarioUpdate::Preferences(
                raw_pref_churn
                    .iter()
                    .map(|&(u, x, p)| (UserId(u), ItemId(x), p))
                    .collect(),
            ),
        ];
        let (reference_oracle, reference) = observe(&start, &churn, 1, 1);
        // Every refresh reports one touched list per item.
        let items = start.item_count();
        prop_assert!(reference
            .touched
            .iter()
            .all(|t| t.as_ref().is_some_and(|lists| lists.len() == items)));
        for &shards in &SHARD_GRID {
            for &threads in &THREAD_GRID {
                if (shards, threads) == (1, 1) {
                    continue;
                }
                let (oracle, observed) = observe(&start, &churn, shards, threads);
                prop_assert!(
                    observed == reference,
                    "divergence at {} shards x {} threads: {:?} vs {:?}",
                    shards,
                    threads,
                    observed,
                    reference
                );
                prop_assert!(
                    oracle.stores_equal(&reference_oracle),
                    "{} shards x {} threads: stores differ from the flat sequential build",
                    shards,
                    threads
                );
                // No combination ever falls back to a full index rebuild
                // after its per-shard construction builds.
                prop_assert_eq!(
                    oracle.index_stats().full_rebuilds,
                    (shards * items) as u64
                );
            }
        }
    }
}

/// `Engine::apply` racing readers while shard workers are active: a 4-shard,
/// 4-thread engine refreshes through a stream of updates (each refresh
/// fanning out one worker per shard) while reader threads pin snapshots and
/// query them.  Readers must only ever observe internally consistent
/// epochs, every apply must patch (never rebuild) the inverted indexes, and
/// the final incrementally-maintained sketch must equal a from-scratch
/// rebuild of the drifted world.
#[test]
fn engine_apply_races_readers_while_shard_workers_are_active() {
    const READERS: usize = 4;
    const BATCHES: usize = 18;
    const SHARDS: usize = 4;
    const SETS: usize = 256;

    let instance = generate(&DatasetKind::AmazonTiny.config())
        .instance
        .with_budget(60.0)
        .with_promotions(2);
    let users = instance.scenario().user_count() as u32;
    let items = instance.scenario().item_count();
    let cfg = DysimConfig {
        mc_samples: 6,
        candidate_users: Some(8),
        max_nominees: Some(3),
        ..DysimConfig::default()
    }
    .with_oracle(OracleKind::RrSketch {
        sets_per_item: SETS,
        shards: SHARDS,
        threads: 4,
    });
    let engine = Arc::new(
        Engine::for_instance(&instance)
            .config(cfg.clone())
            .build()
            .expect("valid engine"),
    );
    let probe = [(UserId(0), ItemId(0)), (UserId(3), ItemId(1))];

    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let done = Arc::clone(&done);
            let probe = probe.to_vec();
            // lint: allow(spawn) — test harness readers racing the writer;
            // no engine work is scheduled here.
            std::thread::spawn(move || {
                let mut observations = 0u64;
                // lint: allow(atomic-ordering) — advisory stop flag; a stale
                // read only yields one more observation.
                while !done.load(Ordering::Relaxed) {
                    // Pin one snapshot; its oracle and scenario must agree
                    // (querying twice through the pin is the torn-read
                    // detector: a half-swapped snapshot would differ).
                    let snapshot = engine.snapshot();
                    let a = snapshot.static_spread(&probe);
                    let b = snapshot.static_spread(&probe);
                    assert!(a.is_finite() && a >= 0.0);
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "snapshot answered differently twice at epoch {}",
                        snapshot.epoch()
                    );
                    observations += 1;
                }
                observations
            })
        })
        .collect();

    // The writer: every apply refreshes the 4 shards on their own workers
    // while the readers above keep querying published snapshots.
    for (i, update) in stress_batches(users, items as u32, BATCHES)
        .iter()
        .enumerate()
    {
        let applied = engine.apply(update).expect("in-range update");
        assert_eq!(applied.epoch, i as u64 + 1);
        assert_eq!(
            applied.refresh.full_rebuilds, 0,
            "batch {i} fell back to a full index rebuild"
        );
        assert_eq!(applied.refresh.total_sets, SETS * items);
        assert!(applied.refresh_fraction < 1.0, "refresh must reuse samples");
        std::thread::yield_now();
    }
    // lint: allow(atomic-ordering) — advisory stop flag; join() below is
    // the real synchronisation point.
    done.store(true, Ordering::Relaxed);
    let total: u64 = readers
        .into_iter()
        .map(|h| h.join().expect("reader panicked"))
        .sum();
    assert!(total > 0, "readers never ran");

    // Zero full rebuilds after build: the only counting passes are the
    // `items x shards` construction builds (the acceptance criterion).
    let snapshot = engine.snapshot();
    let sketch = snapshot
        .oracle()
        .as_sketch()
        .expect("engine is sketch-backed");
    assert_eq!(
        sketch.index_stats().full_rebuilds,
        (items * SHARDS) as u64,
        "an apply performed a post-build index rebuild"
    );

    // And the maintained sketch is the rebuilt sketch, bit for bit —
    // regardless of scheduling, shard workers, or reader pressure.
    let rebuilt = SketchOracle::build(
        snapshot.scenario(),
        SketchConfig::fixed(SETS).with_base_seed(cfg.base_seed),
    );
    assert!(
        sketch.stores_equal(&rebuilt),
        "incremental maintenance drifted from a from-scratch rebuild"
    );
}

/// The observability surface of the grid invariant: every *semantic*
/// telemetry counter and gauge (sets sampled / resampled / reused, index
/// entries patched, refreshes, solves, applies, epoch, ...) is a pure
/// function of the scenario and the driver's call sequence — bit-identical
/// across `shards ∈ {1, 2, 4} × threads ∈ {1, 4}`.  Only the latency
/// histograms and per-shard observation counts may differ between grid
/// points, which is exactly why this test compares counters and gauges and
/// not histograms.  (Telemetry never feeds an RNG and never branches the
/// algorithms, so this is also a regression tripwire against anyone wiring
/// a metric into control flow.)
#[test]
fn telemetry_counters_are_identical_across_the_grid() {
    /// Named metric values, as (name, value) pairs in registration order.
    type Metrics = Vec<(String, u64)>;
    const BATCHES: usize = 6;
    let instance = generate(&DatasetKind::AmazonTiny.config())
        .instance
        .with_budget(60.0)
        .with_promotions(2);
    let users = instance.scenario().user_count() as u32;
    let items = instance.scenario().item_count() as u32;
    let churn = stress_batches(users, items, BATCHES);
    let run = |shards: usize, threads: usize| -> (Metrics, Metrics) {
        let engine = Engine::for_instance(&instance)
            .config(DysimConfig {
                mc_samples: 6,
                candidate_users: Some(8),
                max_nominees: Some(3),
                ..DysimConfig::default()
            })
            .oracle(OracleKind::RrSketch {
                sets_per_item: 256,
                shards,
                threads,
            })
            .build()
            .expect("valid engine");
        let seeds = engine.solve();
        let _sigma = engine.spread(&seeds);
        let _f = engine.static_spread(&[(UserId(0), ItemId(0))]);
        for (i, update) in churn.iter().enumerate() {
            let applied = engine.apply(update).expect("in-range update");
            assert_eq!(applied.epoch, i as u64 + 1);
        }
        let snap = engine.telemetry();
        assert!(
            !snap.is_empty(),
            "{shards} shards x {threads} threads recorded nothing"
        );
        (snap.counters, snap.gauges)
    };
    let reference = run(1, 1);
    assert!(
        reference
            .0
            .iter()
            .any(|(name, v)| name == "engine.applies" && *v == BATCHES as u64),
        "reference run did not count its applies: {:?}",
        reference.0
    );
    for shards in [1usize, 2, 4] {
        for threads in [1usize, 4] {
            if (shards, threads) == (1, 1) {
                continue;
            }
            let observed = run(shards, threads);
            assert_eq!(
                observed, reference,
                "telemetry counters diverged at {shards} shards x {threads} threads"
            );
        }
    }
}

/// The engine surface of the grid invariant: solutions and reports do not
/// depend on the `threads` knob (spot-checked on the corners of the grid;
/// the store-level property test above covers the interior).
#[test]
fn engine_solutions_are_thread_count_independent() {
    let instance = generate(&DatasetKind::AmazonTiny.config())
        .instance
        .with_budget(60.0)
        .with_promotions(2);
    let build = |shards: usize, threads: usize| {
        Engine::for_instance(&instance)
            .config(DysimConfig {
                mc_samples: 6,
                candidate_users: Some(8),
                max_nominees: Some(3),
                ..DysimConfig::default()
            })
            .oracle(OracleKind::RrSketch {
                sets_per_item: 256,
                shards,
                threads,
            })
            .build()
            .expect("valid engine")
    };
    let reference = build(1, 1).solve_report();
    for (shards, threads) in [(1, 8), (4, 1), (4, 4), (7, 8)] {
        let report = build(shards, threads).solve_report();
        assert_eq!(
            report.seeds, reference.seeds,
            "{shards} shards x {threads} threads changed the solution"
        );
        assert_eq!(report.nominees, reference.nominees);
    }
}
