//! Scale smoke test: a 10⁵-user synthetic preset built, refreshed and
//! solved through `Engine` must never rebuild an inverted index after
//! construction — update cost tracks the *touched* region, not the corpus.
//!
//! Heavy by design, so it is `#[ignore]`d by default.  Run it with
//!
//! ```text
//! cargo test --release --test scale_store -- --ignored
//! ```
//!
//! (the dedicated CI step does exactly this, with its own timeout), or set
//! `IMDPP_SCALE_TEST=1` to run it through the env-gated wrapper without the
//! `--ignored` flag.  Either way, use `--release`: debug builds run the
//! `debug_assert`-guarded index-equivalence check (O(corpus) per refresh by
//! design) on a 100k-user world and take minutes instead of seconds.

use imdpp_suite::core::{DysimConfig, EdgeUpdate, OracleKind, ScenarioUpdate, UserId};
use imdpp_suite::datasets::config::{ImportanceDistribution, SocialModel};
use imdpp_suite::datasets::{generate, DatasetConfig};
use imdpp_suite::engine::Engine;

const SCALE_USERS: usize = 100_000;
const SETS_PER_ITEM: usize = 8192;
const SHARDS: usize = 4;

/// A 10⁵-user preferential-attachment world with a small catalogue: the
/// regime where a full counting pass per refresh dwarfs the touched region.
/// Influence strengths, preferences and the cost scale are chosen so the
/// high-degree candidates are affordable and cover a measurable slice of
/// the RR pool — the solve must commit real seeds, not degenerate to an
/// empty selection.
fn scale_config() -> DatasetConfig {
    DatasetConfig {
        name: "scale-100k".to_string(),
        users: SCALE_USERS,
        items: 5,
        directed_friendships: false,
        social_model: SocialModel::PreferentialAttachment { links_per_node: 3 },
        avg_influence_strength: 0.1,
        importance: ImportanceDistribution::Uniform { value: 1.0 },
        kg_features: 10,
        kg_brands: 4,
        kg_categories: 4,
        kg_keywords: 8,
        features_per_item: 2,
        keywords_per_item: 1,
        related_pair_fraction: 0.2,
        base_preference_range: (0.1, 0.5),
        cost_scale: 0.001,
        initial_metagraph_weight: 0.2,
        seed: 0x5CA1E,
    }
}

fn run_scale_smoke() {
    let instance = generate(&scale_config())
        .instance
        .with_budget(40.0)
        .with_promotions(2);
    let scenario_items = instance.scenario().item_count();
    assert_eq!(instance.scenario().user_count(), SCALE_USERS);

    // Shard-parallel construction at scale: the 4-shard build with 4
    // workers vs the same build driven sequentially.  Wall-clock is
    // *recorded*, not flaky-gated — on a loaded single-core CI runner the
    // parallel build can legitimately tie or lose by scheduling noise — but
    // both builds must land on identical stores with the rebuild counter
    // pinned at `items x shards`.  The sequential engine is reduced to a
    // content digest and dropped before the parallel build so the test's
    // peak memory stays at one 100k-user world.
    let engine_config = |threads: usize| {
        DysimConfig {
            mc_samples: 2,
            candidate_users: Some(12),
            max_nominees: Some(4),
            use_guard_solutions: false,
            ..DysimConfig::default()
        }
        .with_oracle(OracleKind::RrSketch {
            sets_per_item: SETS_PER_ITEM,
            shards: SHARDS,
            threads,
        })
    };
    // FNV-1a over every (item, set id, members) triple in global id order —
    // two sketches digest equal iff their stores are bit-identical.
    let sketch_digest = |engine: &Engine| -> u64 {
        let snapshot = engine.snapshot();
        let sketch = snapshot.oracle().as_sketch().expect("sketch-backed");
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        let mut mix = |v: u64| {
            hash ^= v;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        };
        for item in snapshot.scenario().items() {
            mix(u64::from(item.0));
            for (id, set) in sketch.store(item).iter() {
                mix(u64::from(id));
                mix(set.len() as u64);
                for &u in &set {
                    mix(u64::from(u));
                }
            }
        }
        hash
    };
    let (sequential_build, sequential_digest) = {
        // lint: allow(clock) — wall-clock printed in the speedup report
        // below; only the digests are asserted on.
        let start = std::time::Instant::now();
        let sequential_engine = Engine::for_instance(&instance)
            .config(engine_config(1))
            .build()
            .expect("scale instance is valid");
        let elapsed = start.elapsed();
        // The sequential build performed exactly the per-shard passes too.
        assert_eq!(
            sequential_engine
                .snapshot()
                .oracle()
                .as_sketch()
                .expect("sketch-backed")
                .index_stats()
                .full_rebuilds,
            (scenario_items * SHARDS) as u64
        );
        (elapsed, sketch_digest(&sequential_engine))
    };

    // lint: allow(clock) — wall-clock printed in the speedup report below;
    // only the digests are asserted on.
    let parallel_start = std::time::Instant::now();
    let engine = Engine::for_instance(&instance)
        .config(engine_config(4))
        .build()
        .expect("scale instance is valid");
    let parallel_build = parallel_start.elapsed();
    println!(
        "100k-user {SHARDS}-shard build: sequential {:.2}s vs threads=4 {:.2}s ({:.2}x)",
        sequential_build.as_secs_f64(),
        parallel_build.as_secs_f64(),
        sequential_build.as_secs_f64() / parallel_build.as_secs_f64().max(1e-9),
    );
    if parallel_build > sequential_build {
        eprintln!(
            "WARNING: parallel build was slower than sequential on this run \
             ({:.2}s vs {:.2}s)",
            parallel_build.as_secs_f64(),
            sequential_build.as_secs_f64()
        );
    }
    assert_eq!(
        sketch_digest(&engine),
        sequential_digest,
        "threads=4 build diverged from the sequential build"
    );

    // Construction performs exactly one full index build per shard per item
    // — and that is the last full build the engine ever does.
    let built = engine
        .snapshot()
        .oracle()
        .as_sketch()
        .expect("engine is sketch-backed")
        .index_stats();
    assert_eq!(built.full_rebuilds, (scenario_items * SHARDS) as u64);
    assert_eq!(built.compactions, 0);

    // Localized drift: reweight one incoming edge of a low-degree user and
    // nudge one preference.  Every refresh must patch, never rebuild, and
    // touch only a sliver of the corpus.
    let (src, dst) = {
        let snapshot = engine.snapshot();
        let scenario = snapshot.scenario();
        let quiet = scenario
            .users()
            .min_by_key(|&u| (scenario.social().out_degree(u), std::cmp::Reverse(u.0)))
            .expect("preset has users");
        let (src, _) = scenario
            .social()
            .influencers_of(quiet)
            .next()
            .expect("preferential-attachment users have neighbours");
        (src, quiet)
    };
    let drift = [
        ScenarioUpdate::Edges(vec![EdgeUpdate::Reweight {
            src,
            dst,
            weight: 0.42,
        }]),
        ScenarioUpdate::Preferences(vec![(UserId(17), imdpp_suite::core::ItemId(1), 0.8)]),
        ScenarioUpdate::Edges(vec![EdgeUpdate::Remove { src, dst }]),
    ];
    for (i, update) in drift.iter().enumerate() {
        let applied = engine.apply(update).expect("in-range update");
        assert_eq!(applied.epoch, i as u64 + 1);
        assert_eq!(
            applied.refresh.full_rebuilds, 0,
            "update {i} fell back to a full index rebuild"
        );
        assert!(
            applied.refresh_fraction < 0.05,
            "update {i} re-sampled {:.2}% of the corpus — not localized",
            100.0 * applied.refresh_fraction
        );
        assert_eq!(applied.refresh.total_sets, scenario_items * SETS_PER_ITEM);
    }

    // A full solve over the drifted 10⁵-user world...
    let seeds = engine.solve();
    assert!(!seeds.is_empty());
    assert!(engine.snapshot().instance().is_feasible(&seeds));

    // ...and still zero post-build rebuilds anywhere (the acceptance
    // criterion: the rebuild counter stays at the initial build only).
    let final_stats = engine
        .snapshot()
        .oracle()
        .as_sketch()
        .expect("engine is sketch-backed")
        .index_stats();
    assert_eq!(final_stats.full_rebuilds, built.full_rebuilds);

    // Maintained solutions at scale: the solve above primed the cache
    // (maintenance is on by default for sketch engines), so three more
    // localized batches must *repair* it — never a full invalidation — and
    // the post-churn solve must be a cache lookup, not a 10⁵-user pipeline
    // run.  Wall-clocks are recorded for the CI log; the gates are the
    // repair stats.
    assert!(engine.config().maintain_bound.is_some());
    let maintained_drift = [
        ScenarioUpdate::Edges(vec![EdgeUpdate::Insert {
            src,
            dst,
            weight: 0.3,
        }]),
        ScenarioUpdate::Preferences(vec![(dst, imdpp_suite::core::ItemId(2), 0.7)]),
        ScenarioUpdate::Edges(vec![EdgeUpdate::Reweight {
            src,
            dst,
            weight: 0.21,
        }]),
    ];
    for (i, update) in maintained_drift.iter().enumerate() {
        // lint: allow(clock) — wall-clock printed per batch; the assertions
        // are on repair counters, not time.
        let apply_start = std::time::Instant::now();
        let applied = engine.apply(update).expect("in-range update");
        let apply_wall = apply_start.elapsed();
        assert_eq!(
            applied.solve_repair.full_resolves, 0,
            "localized batch {i} invalidated the maintained solution"
        );
        assert!(
            applied.solve_repair.seeds_retained > 0,
            "localized batch {i} retained no greedy prefix"
        );
        // lint: allow(clock) — wall-clock printed per batch; the assertions
        // are on repair counters, not time.
        let solve_start = std::time::Instant::now();
        let maintained = engine.solve();
        let solve_wall = solve_start.elapsed();
        assert!(engine.snapshot().instance().is_feasible(&maintained));
        println!(
            "maintained batch {i}: apply (refresh + repair) {:.1}ms, \
             served solve {:.2}ms, retained {} / repaired {}",
            apply_wall.as_secs_f64() * 1e3,
            solve_wall.as_secs_f64() * 1e3,
            applied.solve_repair.seeds_retained,
            applied.solve_repair.positions_repaired,
        );
    }
    // The maintained pass performed no index rebuilds either.
    assert_eq!(
        engine
            .snapshot()
            .oracle()
            .as_sketch()
            .expect("engine is sketch-backed")
            .index_stats()
            .full_rebuilds,
        built.full_rebuilds
    );
}

const MILLION_USERS: usize = 1_000_000;
const MILLION_SETS_PER_ITEM: usize = 2048;
const MILLION_SHARDS: usize = 8;

/// The 10⁶-user world: denser influence and stronger preferences than the
/// 10⁵ preset, putting the per-edge traversal probability just past the
/// percolation threshold — a slice of RR traversals reaches a dense ~12%
/// cluster whose sorted member gaps encode in ~1 varint byte against 4 raw
/// bytes.  That is the regime the compressed arena is built for, and the
/// smoke asserts the ≥2× win rather than assuming it.  (Push the strength
/// much higher and the cluster swallows the graph: every set goes O(n) and
/// the build stops fitting a CI budget.)
fn million_config() -> DatasetConfig {
    DatasetConfig {
        name: "scale-1m".to_string(),
        users: MILLION_USERS,
        items: 3,
        directed_friendships: false,
        social_model: SocialModel::PreferentialAttachment { links_per_node: 4 },
        avg_influence_strength: 0.15,
        importance: ImportanceDistribution::Uniform { value: 1.0 },
        kg_features: 10,
        kg_brands: 4,
        kg_categories: 4,
        kg_keywords: 8,
        features_per_item: 2,
        keywords_per_item: 1,
        related_pair_fraction: 0.2,
        base_preference_range: (0.4, 0.7),
        cost_scale: 0.001,
        initial_metagraph_weight: 0.2,
        seed: 0x1_000_000,
    }
}

/// The 10⁶-user smoke behind the tentpole claim: build through the
/// (item × shard) work-queue over compressed arenas, drift locally, and
/// leave with zero post-build index rebuilds, a ≥2× arena compression
/// ratio, and the build wall-clock, peak RSS and each drift update's cost
/// (apply and refresh wall-clock, sets resampled, index entries patched;
/// recorded, never gated) in `results/bench_scale_1m.json`.
fn run_million_user_smoke() {
    let instance = generate(&million_config())
        .instance
        .with_budget(40.0)
        .with_promotions(2);
    let scenario_items = instance.scenario().item_count();
    assert_eq!(instance.scenario().user_count(), MILLION_USERS);

    let config = DysimConfig {
        mc_samples: 2,
        candidate_users: Some(8),
        max_nominees: Some(4),
        use_guard_solutions: false,
        ..DysimConfig::default()
    }
    .with_oracle(OracleKind::RrSketch {
        sets_per_item: MILLION_SETS_PER_ITEM,
        shards: MILLION_SHARDS,
        threads: 0, // auto: every core the runner offers
    });

    // lint: allow(clock) — build wall-clock is recorded into the bench
    // summary; assertions are on rebuild counters and compression.
    let build_start = std::time::Instant::now();
    let engine = Engine::for_instance(&instance)
        .config(config)
        .build()
        .expect("million-user instance is valid");
    let build_wall = build_start.elapsed();

    let (built, live_bytes, uncompressed_bytes) = {
        let snapshot = engine.snapshot();
        let sketch = snapshot.oracle().as_sketch().expect("sketch-backed");
        (
            sketch.index_stats(),
            sketch.live_arena_bytes(),
            sketch.uncompressed_bytes(),
        )
    };
    // Construction does one counting build per (item, shard) — and that
    // must remain the last full build the engine ever performs.
    assert_eq!(
        built.full_rebuilds,
        (scenario_items * MILLION_SHARDS) as u64
    );

    // The headline arena claim: delta/varint member lists beat the flat
    // `4 bytes × member` pool by at least 2× at this scale.
    let ratio = uncompressed_bytes as f64 / (live_bytes as f64).max(1.0);
    println!(
        "1M-user build: {:.2}s, arena {:.1} MiB vs {:.1} MiB uncompressed ({ratio:.2}x), \
         {:.1} arena bytes/user",
        build_wall.as_secs_f64(),
        live_bytes as f64 / (1024.0 * 1024.0),
        uncompressed_bytes as f64 / (1024.0 * 1024.0),
        live_bytes as f64 / MILLION_USERS as f64,
    );
    assert!(
        ratio >= 2.0,
        "compressed arena only beat the flat pool by {ratio:.2}x (< 2x): \
         {live_bytes} live bytes vs {uncompressed_bytes} uncompressed"
    );

    // Localized drift at 10⁶ users: patch, never rebuild.
    let dst = UserId((MILLION_USERS - 1) as u32);
    let src = {
        let snapshot = engine.snapshot();
        let scenario = snapshot.scenario();
        let (src, _) = scenario
            .social()
            .influencers_of(dst)
            .next()
            .expect("preferential-attachment users have neighbours");
        src
    };
    let drift = [
        (
            "edge_reweight",
            ScenarioUpdate::Edges(vec![EdgeUpdate::Reweight {
                src,
                dst,
                weight: 0.42,
            }]),
        ),
        (
            "preference",
            ScenarioUpdate::Preferences(vec![(UserId(17), imdpp_suite::core::ItemId(1), 0.8)]),
        ),
    ];
    let mut update_costs = Vec::new();
    for (name, update) in &drift {
        // lint: allow(clock) — apply wall-clock is recorded into the bench
        // summary; assertions are on rebuild counters.
        let apply_start = std::time::Instant::now();
        let applied = engine.apply(update).expect("in-range update");
        let apply_wall = apply_start.elapsed();
        assert_eq!(
            applied.refresh.full_rebuilds, 0,
            "{name} update fell back to a full index rebuild"
        );
        assert_eq!(
            applied.refresh.total_sets,
            scenario_items * MILLION_SETS_PER_ITEM
        );
        println!(
            "1M-user {name} update: apply {:.2}s, refresh {:.2}s, {} sets resampled, \
             {} index entries patched",
            apply_wall.as_secs_f64(),
            applied.refresh_wall.as_secs_f64(),
            applied.refresh.resampled_sets,
            applied.refresh.index_entries_patched,
        );
        update_costs.push((*name, apply_wall, applied));
    }
    let final_stats = engine
        .snapshot()
        .oracle()
        .as_sketch()
        .expect("sketch-backed")
        .index_stats();
    assert_eq!(final_stats.full_rebuilds, built.full_rebuilds);

    // Record the run: wall-clock, peak RSS and the arena economics.
    let mut summary = imdpp_bench::BenchSummary::new("scale_1m");
    summary
        .record("users", MILLION_USERS as f64)
        .record("sets_per_item", MILLION_SETS_PER_ITEM as f64)
        .record("shards", MILLION_SHARDS as f64)
        .record("build_seconds", build_wall.as_secs_f64())
        .record("arena_live_bytes", live_bytes as f64)
        .record("arena_uncompressed_bytes", uncompressed_bytes as f64)
        .record("arena_compression_ratio", ratio)
        .record(
            "arena_bytes_per_user",
            live_bytes as f64 / MILLION_USERS as f64,
        );
    for (name, apply_wall, applied) in &update_costs {
        summary
            .record(format!("{name}_apply_seconds"), apply_wall.as_secs_f64())
            .record(
                format!("{name}_refresh_seconds"),
                applied.refresh_wall.as_secs_f64(),
            )
            .record(
                format!("{name}_resampled_sets"),
                applied.refresh.resampled_sets as f64,
            )
            .record(
                format!("{name}_index_entries_patched"),
                applied.refresh.index_entries_patched as f64,
            );
    }
    summary.record_peak_rss();
    let path = summary.write().expect("results/ is writable");
    println!("bench summary written to {}", path.display());
}

#[test]
#[ignore = "10^5-user scale smoke test (seconds of work + ~100 MB); run with --ignored or IMDPP_SCALE_TEST=1"]
fn hundred_thousand_users_refresh_and_solve_without_index_rebuilds() {
    run_scale_smoke();
}

/// Env-gated wrapper so opting in does not require `--ignored`:
/// `IMDPP_SCALE_TEST=1 cargo test --release --test scale_store`
/// (`--release` matters — see the module docs).
#[test]
fn scale_smoke_when_opted_in_via_env() {
    if std::env::var("IMDPP_SCALE_TEST").as_deref() == Ok("1") {
        run_scale_smoke();
    } else {
        println!("skipped: set IMDPP_SCALE_TEST=1 to run the 10^5-user scale smoke");
    }
}

#[test]
#[ignore = "10^6-user scale smoke (a minute of work + ~GB RSS); run with --ignored or IMDPP_SCALE_TEST_1M=1"]
fn million_users_build_and_refresh_on_the_compressed_arena() {
    run_million_user_smoke();
}

/// Env-gated wrapper for the 10⁶-user smoke:
/// `IMDPP_SCALE_TEST_1M=1 cargo test --release --test scale_store`.
/// Release mode is non-negotiable here — the debug index-equivalence
/// `debug_assert` is O(corpus) per refresh.
#[test]
fn million_user_smoke_when_opted_in_via_env() {
    if std::env::var("IMDPP_SCALE_TEST_1M").as_deref() == Ok("1") {
        run_million_user_smoke();
    } else {
        println!("skipped: set IMDPP_SCALE_TEST_1M=1 to run the 10^6-user scale smoke");
    }
}
