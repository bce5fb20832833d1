//! Property suite of the sharded RR store: for random scenarios, set pools
//! and update sequences, `ShardedRrStore` with `S ∈ {1, 2, 4, 7}` shards
//! must produce *identical* spread estimates and invalidation frontiers to
//! the flat `RrStore` and greedy seed sets identical to the recount-per-round
//! reference greedy, and the incrementally maintained inverted index must
//! equal a from-scratch `rebuild_index` after every batch — with zero
//! post-build full rebuilds.

use imdpp_suite::core::{RefreshableOracle, ScenarioUpdate, SpreadOracle};
use imdpp_suite::graph::{ItemId, UserId};
use imdpp_suite::sketch::{
    greedy_max_coverage, RrStore, SetId, ShardedRrStore, SketchConfig, SketchOracle,
};
use proptest::prelude::*;

mod common;
use common::churn::{decode_edge_updates, figure1_scenario};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];
const USERS: usize = 12;

/// Builds a flat store and one sharded store per shard count from the same
/// set pool, indexes built.
fn build_stores(sets: &[Vec<u32>]) -> (RrStore, Vec<ShardedRrStore>) {
    let mut flat = RrStore::new(ItemId(0), USERS);
    let mut sharded: Vec<ShardedRrStore> = SHARD_COUNTS
        .iter()
        .map(|&s| ShardedRrStore::new(ItemId(0), USERS, s))
        .collect();
    for set in sets {
        let users: Vec<UserId> = set.iter().map(|&u| UserId(u % USERS as u32)).collect();
        flat.push_set(&users);
        for store in &mut sharded {
            store.push_set(&users);
        }
    }
    flat.rebuild_index();
    for store in &mut sharded {
        store.rebuild_index();
    }
    (flat, sharded)
}

/// The reference greedy: recount every user's uncovered sets each round and
/// take the first maximum (ties toward the smallest id).  Returns the seeds
/// and the number of covered sets.
fn recount_greedy(store: &RrStore, k: usize) -> (Vec<UserId>, usize) {
    let sets: Vec<Vec<u32>> = store.iter().map(|(_, set)| set).collect();
    let mut covered = vec![false; sets.len()];
    let mut seeds = Vec::new();
    for _ in 0..k {
        let mut best = (0u32, 0usize);
        for u in 0..store.user_count() as u32 {
            let c = sets
                .iter()
                .enumerate()
                .filter(|(i, s)| !covered[*i] && s.contains(&u))
                .count();
            if c > best.1 {
                best = (u, c);
            }
        }
        if best.1 == 0 {
            break;
        }
        seeds.push(UserId(best.0));
        for (i, s) in sets.iter().enumerate() {
            covered[i] |= s.contains(&best.0);
        }
    }
    (seeds, covered.iter().filter(|&&c| c).count())
}

/// Distinct members for one RR-set entry (the sampler never emits
/// duplicates, so the stores are specified over duplicate-free sets).
fn dedup_members(set: &[u32]) -> Vec<u32> {
    let mut members: Vec<u32> = set.iter().map(|&u| u % USERS as u32).collect();
    members.sort_unstable();
    members.dedup();
    members
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Store-level equivalence under random build + replacement churn.
    #[test]
    fn sharded_store_matches_flat_store_under_churn(
        raw_sets in proptest::collection::vec(
            proptest::collection::vec(0u32..USERS as u32, 1..6),
            1..24,
        ),
        replacements in proptest::collection::vec(
            (0usize..64, proptest::collection::vec(0u32..USERS as u32, 1..6)),
            0..12,
        ),
        probe in proptest::collection::vec(0u32..USERS as u32, 1..4),
    ) {
        let sets: Vec<Vec<u32>> = raw_sets.iter().map(|s| dedup_members(s)).collect();
        let (mut flat, mut sharded) = build_stores(&sets);
        let probe_users: Vec<UserId> = probe.iter().map(|&u| UserId(u)).collect();

        // Apply every replacement batch to all stores, checking equivalence
        // after each one.
        for (slot, raw_members) in &replacements {
            let id = (slot % sets.len()) as SetId;
            let members: Vec<UserId> = dedup_members(raw_members)
                .into_iter()
                .map(UserId)
                .collect();
            flat.replace_set(id, &members);
            for store in &mut sharded {
                store.replace_set(id, &members);
            }

            for store in &mut sharded {
                let shards = store.shard_count();
                prop_assert_eq!(store.len(), flat.len());
                prop_assert_eq!(store.set(id), flat.set(id));
                // Incremental index == rebuild_index, after every batch.
                prop_assert!(store.index_matches_rebuild(), "{} shards", shards);
                prop_assert_eq!(
                    store.sets_touching(&probe_users),
                    flat.sets_touching(&probe_users)
                );
            }
            prop_assert!(flat.index_matches_rebuild());
        }

        for store in &sharded {
            let shards = store.shard_count();
            // Identical estimates...
            prop_assert_eq!(
                store.estimate_adopters(&probe_users),
                flat.estimate_adopters(&probe_users)
            );
            prop_assert_eq!(
                store.estimate_std_error(&probe_users),
                flat.estimate_std_error(&probe_users)
            );
            // ...greedy selections identical to the reference (seeds,
            // order, coverage)...
            for k in [1usize, 3, USERS] {
                let (seeds, covered) = recount_greedy(&flat, k);
                let s = greedy_max_coverage(store, k);
                prop_assert!(s.seeds == seeds, "{} shards, k = {}", shards, k);
                prop_assert_eq!(s.covered, covered);
                prop_assert_eq!(
                    s.estimated_adopters,
                    USERS as f64 * covered as f64 / flat.len() as f64
                );
            }
            // ...and zero full rebuilds beyond the construction pass of
            // each shard.
            prop_assert_eq!(store.index_stats().full_rebuilds, shards as u64);
        }
    }

    /// Oracle-level equivalence: a sharded `SketchOracle` driven through a
    /// random `ScenarioUpdate` stream stays bit-identical to the flat
    /// oracle (and hence to a from-scratch rebuild) at every step.
    #[test]
    fn sharded_oracle_tracks_flat_oracle_through_update_stream(
        edges in proptest::collection::vec(
            (0u32..10, 0u32..10, 0.05f64..0.9), 0..30,
        ),
        raw_updates in proptest::collection::vec(
            (0u32..3, 0u32..10, 0u32..10, 0.05f64..0.95),
            1..5,
        ),
        pref_user in 0u32..10,
        pref in 0.55f64..0.95,
    ) {
        let start = figure1_scenario(10, edges);
        let mut flat = SketchOracle::build(
            &start,
            SketchConfig::fixed(128).with_base_seed(53),
        );
        let mut sharded: Vec<SketchOracle> = SHARD_COUNTS[1..]
            .iter()
            .map(|&s| {
                SketchOracle::build(
                    &start,
                    SketchConfig::fixed(128).with_base_seed(53).with_shards(s),
                )
            })
            .collect();

        let edge_step = ScenarioUpdate::Edges(decode_edge_updates(10, &raw_updates));
        let mid = edge_step.apply(&start);
        let pref_step =
            ScenarioUpdate::Preferences(vec![(UserId(pref_user), ItemId(0), pref)]);
        let end = pref_step.apply(&mid);

        let (flat_mid, _) = flat.refresh(&mid, &edge_step);
        let (flat_end, _) = flat.refresh(&end, &pref_step);
        for oracle in &mut sharded {
            let (s_mid, _) = oracle.refresh(&mid, &edge_step);
            let (s_end, _) = oracle.refresh(&end, &pref_step);
            // The invalidation frontier is shard-independent, so the
            // refresh does identical work...
            prop_assert_eq!(s_mid.resampled_sets, flat_mid.resampled_sets);
            prop_assert_eq!(s_end.resampled_sets, flat_end.resampled_sets);
            // ...with zero full index rebuilds on either side.
            prop_assert_eq!(s_mid.full_rebuilds + s_end.full_rebuilds, 0);
            prop_assert!(flat.stores_equal(oracle), "{} shards", oracle.shard_count());
        }
        prop_assert_eq!(flat_mid.full_rebuilds + flat_end.full_rebuilds, 0);

        // Spread estimates and greedy selections agree exactly.
        let nominees: Vec<_> = end.users().map(|u| (u, ItemId(1))).collect();
        let reference = flat.static_spread(&nominees);
        for oracle in &sharded {
            prop_assert_eq!(oracle.static_spread(&nominees), reference);
            for item in end.items() {
                let f = flat.greedy_seeds(item, 3);
                let s = oracle.greedy_seeds(item, 3);
                prop_assert_eq!(&s.seeds, &f.seeds);
                prop_assert_eq!(s.covered, f.covered);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `ensure_precision` growth under **parallel** generation lands every
    /// grown set in the same shard as sequential growth: the stream → shard
    /// partition (`id mod S`) is a pure function of the set id, so worker
    /// scheduling cannot move a set — pools, placements and growth reports
    /// are identical for any thread count.
    #[test]
    fn parallel_growth_lands_sets_in_the_same_shards_as_sequential(
        edges in proptest::collection::vec(
            (0u32..10, 0u32..10, 0.05f64..0.9), 0..30,
        ),
        seed_user in 0u32..10,
    ) {
        let scenario = figure1_scenario(10, edges);
        let base = SketchConfig {
            initial_sets: 16,
            max_sets: 512,
            epsilon: 0.25,
            delta: 0.1,
            ..SketchConfig::default()
        };
        for shards in [2usize, 4, 7] {
            let mut sequential = SketchOracle::build(
                &scenario,
                SketchConfig { shards, threads: 1, ..base },
            );
            let seq_report = sequential.ensure_precision(ItemId(0), &[UserId(seed_user)]);
            for threads in [2usize, 4, 8] {
                let mut parallel = SketchOracle::build(
                    &scenario,
                    SketchConfig { shards, threads, ..base },
                );
                let report = parallel.ensure_precision(ItemId(0), &[UserId(seed_user)]);
                prop_assert_eq!(report.final_sets, seq_report.final_sets);
                prop_assert_eq!(report.rounds, seq_report.rounds);
                prop_assert!(
                    sequential.stores_equal(&parallel),
                    "{} shards x {} threads: grown pools differ",
                    shards,
                    threads
                );
                let s_store = sequential.store(ItemId(0));
                let p_store = parallel.store(ItemId(0));
                // Same per-shard lengths, same placement (`id mod S`), same
                // members shard by shard — thread-independent partition.
                for shard in 0..shards {
                    prop_assert_eq!(
                        p_store.shard(shard).len(),
                        s_store.shard(shard).len()
                    );
                }
                for (id, set) in s_store.iter() {
                    prop_assert_eq!(p_store.shard_of(id), id as usize % shards);
                    prop_assert_eq!(p_store.set(id), set);
                }
                prop_assert!(p_store.index_matches_rebuild());
            }
        }
    }
}

/// Growth through `ensure_precision` patches the index incrementally for
/// any shard count: same final pools as the flat oracle, no rebuilds.
#[test]
fn adaptive_growth_is_shard_independent_and_rebuild_free() {
    let scenario = figure1_scenario(10, vec![(0, 1, 0.4), (1, 2, 0.5), (2, 3, 0.6), (4, 0, 0.3)]);
    let config = SketchConfig {
        initial_sets: 16,
        max_sets: 1024,
        epsilon: 0.25,
        delta: 0.1,
        ..SketchConfig::default()
    };
    let mut flat = SketchOracle::build(&scenario, config);
    let flat_report = flat.ensure_precision(ItemId(0), &[UserId(0)]);
    for shards in [2usize, 4, 7] {
        let mut oracle = SketchOracle::build(&scenario, SketchConfig { shards, ..config });
        let built_rebuilds = oracle.index_stats().full_rebuilds;
        let report = oracle.ensure_precision(ItemId(0), &[UserId(0)]);
        assert_eq!(report.final_sets, flat_report.final_sets, "{shards} shards");
        assert_eq!(report.rounds, flat_report.rounds);
        assert!(flat.stores_equal(&oracle));
        assert!(oracle.store(ItemId(0)).index_matches_rebuild());
        assert_eq!(
            oracle.index_stats().full_rebuilds,
            built_rebuilds,
            "growth must patch the index, not rebuild it"
        );
    }
}
