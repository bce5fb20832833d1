//! Serving-tier benchmark: the three production axes the tier is built
//! around, measured together on the yelp-scale preset —
//!
//! * **tenants** — copy-on-write overlay construction cost and footprint
//!   for 1 / 4 / 16 tenants on one shared base engine (the O(deltas)
//!   memory story, reported in bytes against the base arena),
//! * **readers** — batched spread throughput with 1 and 4 reader threads,
//! * **writer churn** — each reader axis measured both against a quiet
//!   engine and against one whose writer keeps landing localized edge
//!   updates (the serving regime: coalesced reads racing an incremental
//!   writer).
//!
//! Plus the warm-restart path, measured before the churn axes so the image
//! holds the set-up state: persist / restore wall-clock, the image size
//! and a check that the restored engine resampled nothing.  Key
//! measurements are written to `results/bench_serving.json`.

use imdpp_bench::{batch_queries, writer_edge, writer_update, yelp_instance, BenchSummary};
use imdpp_core::nominees::Nominee;
use imdpp_core::{DysimConfig, OracleKind};
use imdpp_engine::Engine;
use imdpp_graph::{ItemId, UserId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SETS_PER_ITEM: usize = 1024;
const MEASURE_WINDOW: Duration = Duration::from_millis(300);

fn build_engine() -> Engine {
    let instance = yelp_instance(0.25, 120.0, 3);
    Engine::for_instance(&instance)
        .config(DysimConfig {
            mc_samples: 8,
            candidate_users: Some(32),
            max_nominees: Some(6),
            ..DysimConfig::default()
        })
        .oracle(OracleKind::RrSketch {
            sets_per_item: SETS_PER_ITEM,
            shards: 2,
            threads: 0,
        })
        .build()
        .expect("yelp instance is valid")
}

/// Batched-read throughput with `readers` threads, optionally against a
/// live writer.  Returns (queries answered per second, writer updates).
fn batch_qps_under_churn(
    engine: &Arc<Engine>,
    queries: &[Vec<Nominee>],
    readers: usize,
    churn: bool,
) -> (f64, u64) {
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for _ in 0..readers {
        let engine = Arc::clone(engine);
        let queries = queries.to_vec();
        let stop = Arc::clone(&stop);
        // lint: allow(spawn) — bench harness readers measuring the serving
        // tier under contention; no engine work is scheduled here.
        handles.push(std::thread::spawn(move || {
            let refs: Vec<&[Nominee]> = queries.iter().map(Vec::as_slice).collect();
            let mut answered = 0u64;
            // lint: allow(atomic-ordering) — advisory stop flag; a stale
            // read only extends the window by one batch.
            while !stop.load(Ordering::Relaxed) {
                let values = engine.static_spread_batch(&refs);
                assert_eq!(values.len(), refs.len());
                answered += refs.len() as u64;
            }
            answered
        }));
    }

    let edge = writer_edge(engine.snapshot().scenario());
    let start = Instant::now();
    let mut updates = 0u64;
    while start.elapsed() < MEASURE_WINDOW {
        if churn {
            let report = engine
                .apply(&writer_update(edge, updates as usize))
                .expect("in-range update");
            assert!(!report.was_empty);
            updates += 1;
        } else {
            std::thread::yield_now();
        }
    }
    // lint: allow(atomic-ordering) — advisory stop flag; join() below is
    // the real synchronisation point.
    stop.store(true, Ordering::Relaxed);
    let answered: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    (answered as f64 / MEASURE_WINDOW.as_secs_f64(), updates)
}

fn main() {
    let mut summary = BenchSummary::new("serving");
    let engine = Arc::new(build_engine());
    let seeds = engine.solve();
    let nominees: Vec<Nominee> = seeds.seeds().iter().map(|s| (s.user, s.item)).collect();
    let queries = batch_queries(&nominees, engine.snapshot().scenario().item_count() as u32);
    println!(
        "serving tier on the yelp-scale preset: {} users, {} RR sets",
        engine.snapshot().scenario().user_count(),
        SETS_PER_ITEM * engine.snapshot().scenario().item_count(),
    );

    // --- Tenant axis: overlay construction cost and footprint. -----------
    let base_arena = engine
        .snapshot()
        .oracle()
        .as_sketch()
        .expect("sketch-backed engine")
        .live_arena_bytes();
    summary.record("base_arena_bytes", base_arena as f64);
    let users = engine.snapshot().scenario().user_count() as u32;
    let items = engine.snapshot().scenario().item_count() as u32;
    for tenants in [1usize, 4, 16] {
        let start = Instant::now();
        let mut overlay_bytes = 0u64;
        let mut probe = 0.0f64;
        for t in 0..tenants {
            let deltas = [
                (
                    UserId((t as u32 * 5) % users),
                    ItemId(t as u32 % items),
                    0.8,
                ),
                (
                    UserId((t as u32 * 7 + 1) % users),
                    ItemId((t as u32 + 1) % items),
                    0.1,
                ),
            ];
            let tenant = engine.tenant(&deltas).expect("in-range deltas");
            overlay_bytes += tenant.overlay_bytes();
            probe += tenant.static_spread(&nominees);
        }
        let seconds = start.elapsed().as_secs_f64();
        assert!(probe.is_finite() && probe >= 0.0);
        println!(
            "{tenants} tenant overlay(s): {overlay_bytes} B total \
             (base arena {base_arena} B) built+queried in {seconds:.3}s"
        );
        summary.record(
            format!("tenants_{tenants}_overlay_bytes"),
            overlay_bytes as f64,
        );
        summary.record(format!("tenants_{tenants}_build_seconds"), seconds);
    }

    // --- Warm restart: persist / restore wall-clock, zero resampling. ----
    // Measured before any writer update lands, so the image holds epoch 0
    // and the set-up solve's maintained solution, and `image_bytes` is the
    // same in every run.
    let path = BenchSummary::out_dir().join("bench_serving_engine.bin");
    let start = Instant::now();
    engine.persist(&path).expect("persist succeeds");
    let persist_seconds = start.elapsed().as_secs_f64();
    let image_bytes = std::fs::metadata(&path).expect("image written").len();
    // The caller supplies the world on restore — the image holds sketch +
    // epoch + solution, not the scenario.
    let current = engine.snapshot();
    let start = Instant::now();
    let restored = Engine::for_instance(current.instance())
        .config(DysimConfig {
            mc_samples: 8,
            candidate_users: Some(32),
            max_nominees: Some(6),
            ..DysimConfig::default()
        })
        .oracle(OracleKind::RrSketch {
            sets_per_item: SETS_PER_ITEM,
            shards: 2,
            threads: 0,
        })
        .restore(&path)
        .expect("restore succeeds");
    let restore_seconds = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        restored.telemetry().counter("sketch.sets_sampled"),
        Some(0),
        "warm restart must not resample"
    );
    assert_eq!(restored.epoch(), engine.epoch());
    // Neither the restored engine nor the pinned epoch-0 snapshot may stay
    // alive through the churn axes below.
    drop((restored, current));
    println!(
        "warm restart: persisted {image_bytes} B in {persist_seconds:.3}s, \
         restored in {restore_seconds:.3}s with zero RR sets resampled"
    );
    summary.record("persist_seconds", persist_seconds);
    summary.record("restore_seconds", restore_seconds);
    summary.record("image_bytes", image_bytes as f64);

    // --- Readers × writer-churn axes: batched reads against the store. ---
    for readers in [1usize, 4] {
        for churn in [false, true] {
            let (qps, updates) = batch_qps_under_churn(&engine, &queries, readers, churn);
            let label = if churn { "churn" } else { "quiet" };
            println!(
                "{readers} reader(s), {label} writer: {qps:.0} batched queries/s \
                 alongside {updates} updates"
            );
            summary.record(format!("readers_{readers}_{label}_queries_per_second"), qps);
            summary.record(
                format!("readers_{readers}_{label}_writer_updates"),
                updates as f64,
            );
        }
    }

    summary.record_peak_rss();
    summary.finish();
}
