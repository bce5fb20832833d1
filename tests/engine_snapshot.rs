//! Snapshot-isolation property test of the `imdpp-engine` façade: N reader
//! threads query `spread` while a single writer applies randomized
//! preference / edge update batches.  Every reader observation must be the
//! value of *some published epoch* — never a torn intermediate mixing the
//! pre-update scenario with the post-update estimator (or vice versa) — and
//! after the run the incrementally refreshed sketch must be bit-identical
//! to one rebuilt from scratch against the final world *through the
//! façade*.

use imdpp_suite::core::{
    DysimConfig, Evaluator, ImdppInstance, ItemId, OracleKind, ScenarioUpdate, Seed, SeedGroup,
    UserId,
};
use imdpp_suite::datasets::{generate, DatasetKind};
use imdpp_suite::engine::Engine;
use imdpp_suite::sketch::{SketchConfig, SketchOracle};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

mod common;
use common::churn::randomized_batches;

const READERS: usize = 4;
const UPDATE_BATCHES: usize = 12;
const SETS_PER_ITEM: usize = 256;

fn config() -> DysimConfig {
    DysimConfig {
        mc_samples: 6,
        candidate_users: Some(8),
        max_nominees: Some(3),
        ..DysimConfig::default()
    }
    .with_oracle(OracleKind::RrSketch {
        sets_per_item: SETS_PER_ITEM,
        // Sharded on purpose: snapshot isolation and the refresh
        // instrumentation must hold for the partitioned store too.
        shards: 2,
        threads: 0,
    })
}

fn instance() -> ImdppInstance {
    generate(&DatasetKind::AmazonTiny.config())
        .instance
        .with_budget(60.0)
        .with_promotions(2)
}

/// The value `Engine::spread` must return at each epoch, computed
/// independently of the engine by replaying the update stream on the bare
/// instance (`Engine::spread` is a deterministic function of the snapshot's
/// scenario for a fixed configuration).
fn expected_per_epoch(
    instance: &ImdppInstance,
    batches: &[ScenarioUpdate],
    cfg: &DysimConfig,
    seeds: &SeedGroup,
) -> Vec<f64> {
    let mut current = instance.clone();
    let mut expected = vec![Evaluator::new(&current, cfg.mc_samples, cfg.base_seed).spread(seeds)];
    for update in batches {
        if !update.is_empty() {
            current = current
                .with_scenario(update.apply(current.scenario()))
                .expect("updates preserve dimensions");
        }
        expected.push(Evaluator::new(&current, cfg.mc_samples, cfg.base_seed).spread(seeds));
    }
    expected
}

#[test]
fn readers_observe_only_published_epochs_under_concurrent_updates() {
    let instance = instance();
    let cfg = config();
    let batches = randomized_batches(&instance, 0x5EED5, UPDATE_BATCHES);
    // A fixed probe group (no need for it to be optimal — only deterministic).
    let probe: SeedGroup = (0..4)
        .map(|u| {
            Seed::new(
                UserId(u),
                ItemId(u % instance.scenario().item_count() as u32),
                1,
            )
        })
        .collect();
    let expected = expected_per_epoch(&instance, &batches, &cfg, &probe);

    let engine = Arc::new(
        Engine::for_instance(&instance)
            .config(cfg.clone())
            .build()
            .expect("valid engine"),
    );
    let done = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let done = Arc::clone(&done);
            let probe = probe.clone();
            let expected = expected.clone();
            // lint: allow(spawn) — test harness readers racing the writer;
            // no engine work is scheduled here.
            std::thread::spawn(move || {
                let mut observations = 0u64;
                let mut epochs_seen = std::collections::HashSet::new();
                // lint: allow(atomic-ordering) — advisory stop flag; a stale
                // read only yields one more observation.
                while !done.load(Ordering::Relaxed) {
                    // Pin one snapshot: its epoch and its spread value must
                    // belong together.
                    let snapshot = engine.snapshot();
                    let epoch = snapshot.epoch() as usize;
                    let value = snapshot.spread(&probe);
                    assert!(
                        epoch < expected.len(),
                        "reader observed unpublished epoch {epoch}"
                    );
                    assert!(
                        (value - expected[epoch]).abs() < 1e-9,
                        "torn read at epoch {epoch}: observed σ = {value}, \
                         the epoch's consistent value is {}",
                        expected[epoch]
                    );
                    // The engine-level convenience must agree with *some*
                    // published epoch too (it may race one epoch ahead of
                    // the pinned snapshot, never to an unpublished state).
                    let direct = engine.spread(&probe);
                    assert!(
                        expected.iter().any(|e| (direct - e).abs() < 1e-9),
                        "engine.spread returned {direct}, matching no published epoch"
                    );
                    epochs_seen.insert(epoch);
                    observations += 1;
                }
                (observations, epochs_seen)
            })
        })
        .collect();

    // The writer: land every batch, yielding so readers interleave.
    let item_count = instance.scenario().item_count();
    let mut applied_epochs = Vec::new();
    let mut entries_patched_total = 0u64;
    for update in &batches {
        let report = engine.apply(update).expect("in-range updates");
        applied_epochs.push(report.epoch);
        if update.is_empty() {
            assert_eq!(report.refresh_fraction, 0.0);
            assert_eq!(report.refresh.resampled_sets, 0);
        } else {
            assert!(
                report.refresh_fraction < 1.0,
                "sketch refresh must reuse samples"
            );
            // The refresh instrumentation: the fraction derives from the
            // counters, the whole corpus is accounted for, and — the
            // regression gate — index maintenance patched entries instead
            // of falling back to a full counting rebuild.
            assert_eq!(report.refresh_fraction, report.refresh.resampled_fraction());
            assert_eq!(report.refresh.total_sets, SETS_PER_ITEM * item_count);
            assert_eq!(
                report.refresh.full_rebuilds, 0,
                "a refresh fell back to a full index rebuild"
            );
            if report.refresh.resampled_sets > 0 {
                assert!(report.refresh.index_entries_patched > 0);
            }
            entries_patched_total += report.refresh.index_entries_patched;
        }
        std::thread::yield_now();
    }
    assert!(
        entries_patched_total > 0,
        "twelve randomized batches must patch some index entries"
    );
    // lint: allow(atomic-ordering) — advisory stop flag; join() below is
    // the real synchronisation point.
    done.store(true, Ordering::Relaxed);

    let mut total_observations = 0;
    let mut all_epochs = std::collections::HashSet::new();
    for handle in readers {
        let (observations, epochs_seen) = handle.join().expect("reader panicked");
        total_observations += observations;
        all_epochs.extend(epochs_seen);
    }
    assert!(total_observations > 0, "readers never ran");
    assert_eq!(
        applied_epochs,
        (1..=UPDATE_BATCHES as u64).collect::<Vec<_>>(),
        "writer must advance the epoch by exactly one per batch"
    );
    assert_eq!(engine.epoch(), UPDATE_BATCHES as u64);

    // Through the façade, the incrementally refreshed sketch equals one
    // rebuilt from scratch against the final drifted world.
    let snapshot = engine.snapshot();
    let refreshed = snapshot
        .oracle()
        .as_sketch()
        .expect("engine was built sketch-backed");
    let rebuilt = SketchOracle::build(
        snapshot.scenario(),
        SketchConfig::fixed(SETS_PER_ITEM).with_base_seed(cfg.base_seed),
    );
    assert!(
        refreshed.stores_equal(&rebuilt),
        "refresh drifted from rebuild after {UPDATE_BATCHES} concurrent update batches"
    );
    // Cumulatively, the only full index builds are the per-shard
    // construction passes — every update batch maintained incrementally.
    assert_eq!(
        refreshed.index_stats().full_rebuilds,
        (2 * item_count) as u64
    );
}

#[test]
fn pinned_snapshots_survive_later_updates() {
    let instance = instance();
    let cfg = config();
    let probe: SeedGroup = SeedGroup::from_seeds(vec![Seed::new(UserId(0), ItemId(0), 1)]);
    let engine = Engine::for_instance(&instance)
        .config(cfg.clone())
        .build()
        .expect("valid engine");

    let pinned = engine.snapshot();
    let before = pinned.spread(&probe);

    for (i, update) in randomized_batches(&instance, 0xA11CE, UPDATE_BATCHES)
        .iter()
        .take(4)
        .enumerate()
    {
        let applied = engine.apply(update).expect("in-range updates");
        assert_eq!(applied.epoch, i as u64 + 1);
    }

    // The pinned epoch still answers exactly as before the drift.
    assert_eq!(pinned.epoch(), 0);
    assert_eq!(pinned.spread(&probe), before);
    assert_eq!(engine.epoch(), 4);
}

/// Warm restart equivalence: persist an engine mid-churn, restore it into a
/// fresh process-worth of state, keep applying the same update stream to
/// both, and the restored engine must stay bit-identical to the engine that
/// never restarted — estimates, greedy seeds, and the telemetry epoch gauge
/// — across a shards × threads grid, with zero RR sets resampled on
/// restore.
#[test]
fn persist_restore_apply_matches_a_never_restarted_engine() {
    let instance = instance();
    let probe: SeedGroup = (0..4)
        .map(|u| {
            Seed::new(
                UserId(u),
                ItemId(u % instance.scenario().item_count() as u32),
                1,
            )
        })
        .collect();

    for (grid, (shards, threads)) in [(1, 1), (2, 2), (3, 1)].into_iter().enumerate() {
        let cfg = DysimConfig {
            mc_samples: 6,
            candidate_users: Some(8),
            max_nominees: Some(3),
            ..DysimConfig::default()
        }
        .with_oracle(OracleKind::RrSketch {
            sets_per_item: SETS_PER_ITEM,
            shards,
            threads,
        });
        let batches = randomized_batches(&instance, 0xC0FFEE, 6);

        let live = Engine::for_instance(&instance)
            .config(cfg.clone())
            .build()
            .expect("valid engine");
        for update in &batches[..3] {
            let _ = live.apply(update).expect("in-range updates");
        }
        // Solve *before* persisting so the maintained solution travels too.
        let seeds_mid = live.solve();
        let path = std::env::temp_dir().join(format!(
            "imdpp-warm-restart-{}-grid{grid}.bin",
            std::process::id()
        ));
        live.persist(&path).expect("persist succeeds");

        // The restore contract: the caller supplies the drifted scenario
        // (state is the caller's; the image carries sketch + epoch +
        // solution), so replay the applied updates on the bare instance.
        let mut drifted = instance.clone();
        for update in &batches[..3] {
            if !update.is_empty() {
                drifted = drifted
                    .with_scenario(update.apply(drifted.scenario()))
                    .expect("updates preserve dimensions");
            }
        }
        let restored = Engine::for_instance(&drifted)
            .config(cfg.clone())
            .restore(&path)
            .expect("restore succeeds");
        std::fs::remove_file(&path).expect("cleanup");

        // Bit-identical at the restore point: epoch (and its telemetry
        // gauge), spread estimates, greedy seeds — and the oracle came back
        // from disk, not from resampling.
        assert_eq!(restored.epoch(), 3, "grid {grid}");
        assert_eq!(
            restored.telemetry().gauge("engine.epoch"),
            Some(3),
            "grid {grid}"
        );
        assert_eq!(
            restored.telemetry().counter("sketch.sets_sampled"),
            Some(0),
            "restore must not resample (grid {grid})"
        );
        assert_eq!(
            live.spread(&probe).to_bits(),
            restored.spread(&probe).to_bits(),
            "grid {grid}"
        );
        assert_eq!(live.solve(), restored.solve(), "grid {grid}");
        assert_eq!(restored.solve(), seeds_mid, "grid {grid}");

        // Keep churning both engines in lockstep: the restarted world must
        // remain indistinguishable from the uninterrupted one.
        for (i, update) in batches[3..].iter().enumerate() {
            let a = live.apply(update).expect("in-range updates");
            let b = restored.apply(update).expect("in-range updates");
            assert_eq!(a.epoch, b.epoch, "grid {grid} batch {i}");
            assert_eq!(a.was_empty, b.was_empty, "grid {grid} batch {i}");
            assert_eq!(
                a.refresh_fraction.to_bits(),
                b.refresh_fraction.to_bits(),
                "grid {grid} batch {i}"
            );
            assert_eq!(
                live.spread(&probe).to_bits(),
                restored.spread(&probe).to_bits(),
                "grid {grid} batch {i}"
            );
        }
        assert_eq!(live.solve(), restored.solve(), "grid {grid}");
        assert_eq!(
            live.telemetry().gauge("engine.epoch"),
            restored.telemetry().gauge("engine.epoch"),
            "grid {grid}"
        );

        // And the two final sketches are the same store, bit for bit.
        let a = live.snapshot();
        let b = restored.snapshot();
        assert!(
            a.oracle()
                .as_sketch()
                .expect("sketch-backed")
                .stores_equal(b.oracle().as_sketch().expect("sketch-backed")),
            "grid {grid}"
        );
    }
}
