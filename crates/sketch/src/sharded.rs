//! The sharded RR-set store: one logical pool of RR sets partitioned across
//! `S` independent shards.
//!
//! ## Why shard
//!
//! One arena and one inverted index per item would, past ~10⁵ users, grow
//! large enough that (a) a refresh touching them stalls on one memory
//! region and (b) parallel generation cannot write shard-locally.
//! `ShardedRrStore` partitions the sets across `S` shards, each a
//! [`crate::store`] store owning *its own arena and its own inverted
//! index*, so build and refresh run as one task per (item × shard) on the
//! work-queue (`build_stores`, `refresh_stores`) and touch only
//! shard-local memory.  A store is built whole — by `build_stores` from
//! RNG streams, or by [`ShardedRrStore::from_sets`] from an explicit pool —
//! and afterwards only [`ShardedRrStore::replace_set`] changes it.
//!
//! ## Determinism invariants
//!
//! * **Set → shard assignment is a pure function of the set id**:
//!   `shard(id) = id mod S`, with the shard-local slot `id div S`.  A set's
//!   id equals its RNG stream id (see [`crate::sampler`]), so a sampling
//!   stream lands in the same shard no matter when it is (re)played, and a
//!   sharded store refreshed incrementally holds exactly the sets a rebuilt
//!   one would.
//! * **Global iteration order is id order** regardless of `S`, so
//!   estimates and store-equality checks are shard-count-independent.
//! * Coverage counting adds every shard's hits into one counter per query
//!   (one shared per-user query mask) and the estimate divides the summed
//!   coverage by the summed set count — the same integers for every `S`,
//!   hence bit-identical estimates.
//!
//! Each shard maintains its index with the tombstone + append + periodic
//! compaction scheme of [`crate::store`]; [`IndexStats`] counts the work and
//! proves no post-build rebuilds happen.

use crate::incremental::RefreshStats;
use crate::persist;
use crate::sampler;
use crate::store::{IndexStats, RrStore, SetId};
use crate::telemetry::SketchMetrics;
use imdpp_diffusion::par::{effective_threads, run_queue};
use imdpp_diffusion::{ImdppError, Scenario};
use imdpp_graph::{ItemId, UserId};

/// Builds one store per item of `scenario`, each holding streams
/// `0..sets` of its item partitioned across `shards` shards (`0` is treated
/// as `1`), as one **(item × shard)** task per shard on the work-queue.  A
/// task samples the streams of its shard's residue class (`id mod S`),
/// encoding each set as it is drawn, and ends in the shard's one index
/// build.
///
/// `threads` is resolved by [`effective_threads`] against the task count.
/// Every stream is its own RNG and lands in the shard its id names, so the
/// built stores are bit-identical to [`ShardedRrStore::from_sets`] over the
/// same streams — for any `(threads, shards)` combination and any task
/// interleaving.  Each task records one observation into
/// `metrics.shard_build_ns`; the `items × sets` sampled sets fold into
/// `metrics.sets_sampled`.
pub(crate) fn build_stores(
    scenario: &Scenario,
    base_seed: u64,
    sets: usize,
    shards: usize,
    threads: usize,
    metrics: &SketchMetrics,
) -> Vec<ShardedRrStore> {
    let shards = shards.max(1);
    let user_count = scenario.user_count();
    metrics
        .sets_sampled
        .add((sets * scenario.item_count()) as u64);
    let tasks: Vec<(ItemId, usize)> = scenario
        .items()
        .flat_map(|item| (0..shards).map(move |si| (item, si)))
        .collect();
    let workers = effective_threads(threads, tasks.len());
    let built = run_queue(tasks, workers, |_, (item, si)| {
        let _span = metrics.shard_build_ns.start();
        let mut scratch = sampler::Scratch::new(user_count);
        let streams = (si as u64..sets as u64).step_by(shards);
        RrStore::from_sets(
            item,
            user_count,
            streams.map(|stream| {
                sampler::sample_set_with(scenario, item, base_seed, stream, &mut scratch)
            }),
        )
    });
    // Tasks come back in task order: item-major, shard-minor.
    let mut built = built.into_iter();
    scenario
        .items()
        .map(|_| ShardedRrStore {
            shards: built.by_ref().take(shards).collect(),
            total: sets,
        })
        .collect()
}

/// Refreshes many stores at once against `updated` (an already-frozen
/// scenario) as one **(item × shard)** task per shard on the work-queue.
/// Store `i` is refreshed iff `heads[i]` is non-empty: each of its shard
/// tasks queries the shard's inverted index with the prepared frontier,
/// replays every invalidated stream against `updated`, and patches the
/// shard's own index — no cross-shard writes, no rebuilds.  A skipped store
/// reports the synthetic "nothing to do" stats and records no telemetry.
///
/// Returns one `(stats, touched users)` pair per store, in store order.
/// The touched users are the sorted, deduplicated union of every
/// re-sampled set's members *before and after* replacement: a user absent
/// from the list kept its covering set ids bit-identical, so any coverage
/// marginal involving only untouched users is unchanged — the invariant
/// maintained-solution repair is built on.  Per-shard results are merged
/// in shard order, so stats, touched lists and every recorded counter are
/// identical for any `(threads, shards)` combination and any interleaving.
pub(crate) fn refresh_stores(
    stores: &mut [ShardedRrStore],
    updated: &Scenario,
    base_seed: u64,
    heads: &[Vec<UserId>],
    threads: usize,
    metrics: &SketchMetrics,
) -> Vec<(RefreshStats, Vec<UserId>)> {
    debug_assert_eq!(stores.len(), heads.len());
    // Prepared frontiers and per-store refresh telemetry, in store order.
    let prepared: Vec<Option<Vec<u32>>> = stores
        .iter()
        .zip(heads)
        .map(|(store, heads)| {
            (!heads.is_empty()).then(|| {
                let prepared = crate::store::prepare_heads(heads, store.user_count());
                metrics.refreshes.incr();
                metrics.refresh_frontier_heads.record(prepared.len() as u64);
                prepared
            })
        })
        .collect();
    let mut tasks: Vec<(usize, usize, usize, &mut RrStore)> = Vec::new();
    for (ii, store) in stores.iter_mut().enumerate() {
        if prepared[ii].is_none() {
            continue;
        }
        let stride = store.shard_count();
        for (si, shard) in store.shards.iter_mut().enumerate() {
            tasks.push((ii, si, stride, shard));
        }
    }
    let workers = effective_threads(threads, tasks.len());
    let results = run_queue(tasks, workers, |_, (ii, si, stride, shard)| {
        let _span = metrics.shard_refresh_ns.start();
        let item = shard.item();
        let before = shard.index_stats();
        let invalid = shard.sets_touching(prepared[ii].as_deref().unwrap_or(&[]));
        let mut scratch = sampler::Scratch::new(updated.user_count());
        let mut touched: Vec<UserId> = Vec::new();
        for &local in &invalid {
            touched.extend(shard.set_members(local).map(UserId));
            let stream = local as u64 * stride as u64 + si as u64;
            let set = sampler::sample_set_with(updated, item, base_seed, stream, &mut scratch);
            touched.extend_from_slice(&set);
            shard.replace_set(local, &set);
        }
        (
            ii,
            invalid.len(),
            shard.index_stats().since(before),
            touched,
        )
    });
    // Fold the per-shard results (store-major, shard-minor task order)
    // into one report per store.  The set counters are shard-independent
    // (the frontier partitions across shards) and the touched list is
    // sorted + deduplicated.
    let mut merged: Vec<(RefreshStats, Vec<UserId>)> = stores
        .iter()
        .map(|store| {
            let stats = RefreshStats {
                total_sets: store.len(),
                stores: 1,
                ..RefreshStats::default()
            };
            (stats, Vec::new())
        })
        .collect();
    for (ii, resampled, delta, touched) in results {
        let (stats, store_touched) = &mut merged[ii];
        stats.resampled_sets += resampled;
        stats.index_entries_patched += delta.entries_patched;
        stats.full_rebuilds += delta.full_rebuilds;
        store_touched.extend(touched);
    }
    for (ii, (stats, touched)) in merged.iter_mut().enumerate() {
        if prepared[ii].is_none() {
            continue;
        }
        debug_assert!(
            stores[ii].index_matches_rebuild(),
            "patched inverted index diverged from a fresh build"
        );
        touched.sort_unstable();
        touched.dedup();
        metrics.sets_resampled.add(stats.resampled_sets as u64);
        metrics
            .sets_reused
            .add((stats.total_sets - stats.resampled_sets) as u64);
        metrics
            .index_entries_patched
            .add(stats.index_entries_patched);
        metrics.index_full_rebuilds.add(stats.full_rebuilds);
        metrics
            .refresh_resampled_permille
            .record((1000.0 * stats.resampled_fraction()) as u64);
    }
    merged
}

/// RR sets for one item, partitioned across shards by `id mod S`; every
/// public id is a *global* set id.
#[derive(Clone, Debug)]
pub struct ShardedRrStore {
    shards: Vec<RrStore>,
    /// Global set count (`Σ` shard lengths).
    total: usize,
}

impl ShardedRrStore {
    /// Builds the store of `sets` for `item` over `user_count` users across
    /// `shard_count` shards (`0` is treated as `1`): `sets[i]` gets global
    /// id `i` and lands in shard `i mod S`, and each shard ends in one
    /// index build.
    pub fn from_sets(
        item: ItemId,
        user_count: usize,
        shard_count: usize,
        sets: &[Vec<UserId>],
    ) -> Self {
        let shard_count = shard_count.max(1);
        ShardedRrStore {
            shards: (0..shard_count)
                .map(|si| {
                    RrStore::from_sets(item, user_count, sets.iter().skip(si).step_by(shard_count))
                })
                .collect(),
            total: sets.len(),
        }
    }

    /// The item the sets were sampled for.
    pub fn item(&self) -> ItemId {
        self.shards[0].item()
    }

    /// Number of users in the underlying scenario.
    pub fn user_count(&self) -> usize {
        self.shards[0].user_count()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total number of RR sets across all shards.
    pub fn len(&self) -> usize {
        self.total
    }

    /// True when no sets are stored.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Total live arena entries across all shards.
    pub fn live_entries(&self) -> usize {
        self.shards.iter().map(|s| s.live_entries()).sum()
    }

    /// Encoded bytes of the live spans across all shards — a pure function
    /// of the set contents, hence shard- and history-independent (garbage
    /// awaiting compaction is excluded).
    pub fn live_arena_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.live_arena_bytes()).sum()
    }

    /// Bytes the live entries would occupy in the uncompressed `u32`-pool
    /// layout — the baseline the compression ratio is measured against.
    pub fn uncompressed_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.uncompressed_bytes()).sum()
    }

    /// The shard holding global set `id`.
    pub fn shard_of(&self, id: SetId) -> usize {
        id as usize % self.shards.len()
    }

    /// The shard-local id of global set `id` (the inverse mapping
    /// `global = local · S + shard` appears inline where iteration already
    /// borrows the shards).
    fn local(&self, id: SetId) -> SetId {
        id / self.shards.len() as SetId
    }

    /// Aggregated inverted-index maintenance counters across shards.
    pub fn index_stats(&self) -> IndexStats {
        let mut stats = IndexStats::default();
        for shard in &self.shards {
            stats.absorb(shard.index_stats());
        }
        stats
    }

    /// Replaces the contents of global set `id`, patching the owning
    /// shard's index incrementally.
    pub fn replace_set(&mut self, id: SetId, users: &[UserId]) {
        let shard = self.shard_of(id);
        let local = self.local(id);
        self.shards[shard].replace_set(local, users);
    }

    /// The users of global set `id`, decoded in ascending id order
    /// (allocates; hot paths should prefer [`ShardedRrStore::set_members`]).
    pub fn set(&self, id: SetId) -> Vec<u32> {
        self.shards[self.shard_of(id)].set(self.local(id))
    }

    /// Zero-allocation decoding iterator over the users of global set `id`
    /// (ascending id order).
    pub fn set_members(&self, id: SetId) -> crate::arena::SetMembers<'_> {
        self.shards[self.shard_of(id)].set_members(self.local(id))
    }

    /// Iterator over `(global id, users)` pairs in global id order —
    /// independent of the shard count.
    pub fn iter(&self) -> impl Iterator<Item = (SetId, Vec<u32>)> + '_ {
        (0..self.total as SetId).map(move |id| (id, self.set(id)))
    }

    /// The sorted, deduplicated *global* ids of all sets containing any of
    /// `users` — the invalidation frontier, aggregated across shards.  The
    /// head list is prepared (bounds-filtered, sorted, deduplicated) once,
    /// not per shard.  Shards partition the id space, so mapping each
    /// shard-local hit back to `local · S + shard` and sorting yields the
    /// global id order with no duplicates.
    pub fn sets_touching(&self, users: &[UserId]) -> Vec<SetId> {
        let heads = crate::store::prepare_heads(users, self.user_count());
        let shard_count = self.shards.len();
        let mut ids = Vec::new();
        for (si, shard) in self.shards.iter().enumerate() {
            ids.extend(
                shard
                    .sets_touching(&heads)
                    .into_iter()
                    .map(|local| local * shard_count as SetId + si as SetId),
            );
        }
        ids.sort_unstable();
        ids
    }

    /// Answers up to 64 coverage queries in one pass over every shard's
    /// arena: `masks[u]` carries one bit per query seeding user `u`, `full`
    /// is the union of all live query bits, and `counts[q]` is incremented
    /// by the number of sets query `q` covers, accumulated across shards.
    /// This is the sketch's only coverage count: a single query is the
    /// one-bit case ([`ShardedRrStore::coverage_count`]).
    pub fn coverage_counts_masked(&self, masks: &[u64], full: u64, counts: &mut [usize]) {
        for shard in &self.shards {
            shard.coverage_counts_masked(masks, full, counts);
        }
    }

    /// Writes the store's persistent form: shard count, global set count,
    /// then each shard's spans in shard order.
    pub(crate) fn serialize_into(&self, out: &mut Vec<u8>) {
        persist::write_varint(self.shards.len() as u64, out);
        persist::write_varint(self.total as u64, out);
        for shard in &self.shards {
            shard.serialize_into(out);
        }
    }

    /// Reads a store back from its persistent form, validating every span
    /// and building each shard's inverted index from the decoded contents
    /// — **zero** RR sets are re-sampled.  The shard count is part of the
    /// payload, so a snapshot restores only into an engine configured with
    /// the same sharding (the engine's fingerprint check enforces this
    /// before any store payload is read).
    ///
    /// # Errors
    /// [`ImdppError::InvalidConfig`] on truncation, span corruption, or a
    /// shard layout inconsistent with the recorded set count.
    pub(crate) fn deserialize_from(
        item: ItemId,
        user_count: usize,
        input: &mut &[u8],
    ) -> Result<Self, ImdppError> {
        let shard_count = persist::read_varint(input)? as usize;
        if shard_count == 0 {
            return Err(persist::corrupt("store has zero shards"));
        }
        let total = persist::read_varint64(input)? as usize;
        let mut shards = Vec::with_capacity(shard_count);
        for s in 0..shard_count {
            let shard = RrStore::deserialize_from(item, user_count, input)?;
            let expected = total / shard_count + usize::from(s < total % shard_count);
            if shard.len() != expected {
                return Err(persist::corrupt(
                    "shard length inconsistent with the recorded set count",
                ));
            }
            shards.push(shard);
        }
        Ok(ShardedRrStore { shards, total })
    }

    /// Equivalence of every shard's incrementally maintained index with a
    /// fresh rebuild (`debug_assert`ed by the refresh paths).
    pub fn index_matches_rebuild(&self) -> bool {
        self.shards.iter().all(|s| s.index_matches_rebuild())
    }

    /// Number of sets hit by the given seed users: the one-bit case of
    /// [`ShardedRrStore::coverage_counts_masked`], which makes no pass when
    /// no seed is in range.
    pub fn coverage_count(&self, seeds: &[UserId]) -> usize {
        let user_count = self.user_count();
        let mut masks = vec![0u64; user_count];
        let mut full = 0;
        for u in seeds.iter().filter(|u| u.index() < user_count) {
            masks[u.index()] = 1;
            full = 1;
        }
        let mut count = [0];
        self.coverage_counts_masked(&masks, full, &mut count);
        count[0]
    }

    /// Unbiased estimate of the expected adopters of the store's item when
    /// `seeds` are seeded in the first promotion: `n · (fraction of RR sets
    /// hit)` over the aggregated counters, hence shard-count-independent.
    pub fn estimate_adopters(&self, seeds: &[UserId]) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.user_count() as f64 * self.coverage_count(seeds) as f64 / self.total as f64
    }

    /// Standard error of [`Self::estimate_adopters`] under the binomial
    /// coverage model — used by 3σ agreement tests.
    pub fn estimate_std_error(&self, seeds: &[UserId]) -> f64 {
        if self.total < 2 {
            return 0.0;
        }
        let p = self.coverage_count(seeds) as f64 / self.total as f64;
        self.user_count() as f64 * (p * (1.0 - p) / self.total as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn users(ids: &[u32]) -> Vec<UserId> {
        ids.iter().map(|&u| UserId(u)).collect()
    }

    /// `sets` over 8 users, partitioned across `shards` shards.
    fn store_with(shards: usize, sets: &[&[u32]]) -> ShardedRrStore {
        let sets: Vec<Vec<UserId>> = sets.iter().map(|set| users(set)).collect();
        ShardedRrStore::from_sets(ItemId(0), 8, shards, &sets)
    }

    const SETS: &[&[u32]] = &[&[0, 1], &[1, 2], &[3], &[4, 5, 6], &[0, 6], &[2], &[7]];

    #[test]
    fn global_iteration_is_id_ordered_for_any_shard_count() {
        let expected: Vec<(SetId, Vec<u32>)> = SETS
            .iter()
            .enumerate()
            .map(|(id, set)| (id as SetId, set.to_vec()))
            .collect();
        for shards in [1, 2, 3, 4, 7] {
            let sharded = store_with(shards, SETS);
            assert_eq!(
                sharded.iter().collect::<Vec<_>>(),
                expected,
                "{shards} shards"
            );
        }
    }

    #[test]
    fn shard_assignment_is_id_mod_s() {
        let sharded = store_with(3, SETS);
        for id in 0..SETS.len() as SetId {
            assert_eq!(sharded.shard_of(id), id as usize % 3);
        }
        // Shard lengths partition the total.
        let total: usize = sharded.shards.iter().map(|s| s.len()).sum();
        assert_eq!(total, SETS.len());
    }

    #[test]
    fn estimates_and_frontiers_match_the_flat_store() {
        let flat = store_with(1, SETS);
        for shards in [2, 4, 7] {
            let sharded = store_with(shards, SETS);
            for probe in [&[1u32][..], &[0, 6], &[7], &[2, 3, 4]] {
                assert_eq!(
                    flat.estimate_adopters(&users(probe)),
                    sharded.estimate_adopters(&users(probe)),
                );
                assert_eq!(
                    flat.estimate_std_error(&users(probe)),
                    sharded.estimate_std_error(&users(probe)),
                );
                assert_eq!(
                    flat.sets_touching(&users(probe)),
                    sharded.sets_touching(&users(probe)),
                );
            }
        }
    }

    #[test]
    fn coverage_and_estimates() {
        for shards in [1, 3] {
            let sets = [users(&[0, 1]), users(&[1, 2]), users(&[3]), users(&[4])];
            let s = ShardedRrStore::from_sets(ItemId(0), 6, shards, &sets);
            assert_eq!(s.coverage_count(&users(&[1])), 2);
            assert_eq!(s.coverage_count(&users(&[1, 3])), 3);
            assert_eq!(s.coverage_count(&[]), 0);
            // 6 users * 2/4 coverage.
            assert!((s.estimate_adopters(&users(&[1])) - 3.0).abs() < 1e-12);
            assert!(s.estimate_std_error(&users(&[1])) > 0.0);
        }
        let empty = ShardedRrStore::from_sets(ItemId(1), 4, 1, &[]);
        assert_eq!(empty.estimate_adopters(&users(&[0])), 0.0);
    }

    #[test]
    fn out_of_range_seed_users_are_ignored() {
        let s = ShardedRrStore::from_sets(ItemId(0), 6, 1, &[users(&[0])]);
        assert_eq!(s.coverage_count(&users(&[99])), 0);
    }

    #[test]
    fn replacement_patches_the_owning_shard_only() {
        let mut flat = store_with(1, SETS);
        let mut sharded = store_with(4, SETS);
        let before = sharded.index_stats();
        flat.replace_set(3, &users(&[2, 7]));
        sharded.replace_set(3, &users(&[2, 7]));
        assert_eq!(sharded.set(3), &[2, 7]);
        assert_eq!(
            flat.sets_touching(&users(&[7])),
            sharded.sets_touching(&users(&[7]))
        );
        assert!(sharded.index_matches_rebuild());
        let delta = sharded.index_stats().since(before);
        assert_eq!(delta.full_rebuilds, 0);
        assert!(delta.entries_patched > 0);
        // Untouched shards did no work.
        for s in [0usize, 1, 2] {
            assert_eq!(sharded.shards[s].index_stats().entries_patched, 0);
        }
    }

    const SEED: u64 = 77;

    /// Item 0's store of a `build_stores` run over `sets` streams per item.
    fn built(
        scenario: &Scenario,
        shards: usize,
        sets: usize,
        threads: usize,
        metrics: &SketchMetrics,
    ) -> ShardedRrStore {
        build_stores(scenario, SEED, sets, shards, threads, metrics).swap_remove(0)
    }

    /// Refreshes one store with one head list.
    fn refreshed(
        store: &mut ShardedRrStore,
        updated: &Scenario,
        heads: &[UserId],
        threads: usize,
        metrics: &SketchMetrics,
    ) -> (RefreshStats, Vec<UserId>) {
        let heads = [heads.to_vec()];
        let mut per_store = refresh_stores(
            std::slice::from_mut(store),
            updated,
            SEED,
            &heads,
            threads,
            metrics,
        );
        per_store.swap_remove(0)
    }

    /// Streams `0..count` of item 0, sampled one by one into one shard.
    fn sequential_reference(scenario: &Scenario, count: usize) -> ShardedRrStore {
        let sets: Vec<Vec<UserId>> = (0..count as u64)
            .map(|stream| sampler::sample_set(scenario, ItemId(0), SEED, stream))
            .collect();
        ShardedRrStore::from_sets(ItemId(0), scenario.user_count(), 1, &sets)
    }

    fn assert_stores_identical(a: &ShardedRrStore, b: &ShardedRrStore, label: &str) {
        assert_eq!(a.len(), b.len(), "{label}");
        for (id, set) in a.iter() {
            assert_eq!(set, b.set(id), "{label}: set {id}");
        }
    }

    #[test]
    fn parallel_build_matches_sequential_pushes() {
        let scenario = imdpp_diffusion::scenario::toy_scenario();
        let metrics = SketchMetrics::noop();
        let reference = sequential_reference(&scenario, 96);
        for shards in [1usize, 2, 4, 7] {
            for threads in [1usize, 2, 4, 8] {
                let built = built(&scenario, shards, 96, threads, &metrics);
                assert_eq!(built.shard_count(), shards);
                assert_stores_identical(&built, &reference, &format!("{shards}x{threads}"));
                assert!(built.index_matches_rebuild());
                // Exactly one full index build per shard, none beyond.
                assert_eq!(built.index_stats().full_rebuilds, shards as u64);
            }
        }
    }

    #[test]
    fn parallel_refresh_matches_flat_refresh_and_merges_stats() {
        let scenario = imdpp_diffusion::scenario::toy_scenario();
        let drifted = scenario.with_base_preference(UserId(1), ItemId(0), 0.9);
        let heads = [UserId(0), UserId(1), UserId(2)];
        let metrics = SketchMetrics::noop();
        let mut flat = built(&scenario, 1, 128, 1, &metrics);
        let (flat_stats, _) = refreshed(&mut flat, &drifted, &heads, 1, &metrics);
        assert!(flat_stats.resampled_sets > 0);
        for shards in [2usize, 4, 7] {
            for threads in [1usize, 2, 8] {
                let mut store = built(&scenario, shards, 128, threads, &metrics);
                let (stats, _) = refreshed(&mut store, &drifted, &heads, threads, &metrics);
                assert_stores_identical(&store, &flat, &format!("{shards}x{threads}"));
                // RefreshStats are bit-identical across the grid: the
                // frontier partitions across shards and patched-entry
                // counts depend only on set contents.
                assert_eq!(stats, flat_stats, "{shards} shards, {threads} threads");
                assert_eq!(stats.full_rebuilds, 0);
            }
        }
    }

    #[test]
    fn observed_paths_record_without_changing_results() {
        let scenario = imdpp_diffusion::scenario::toy_scenario();
        let items = scenario.item_count() as u64;
        let drifted = scenario.with_base_preference(UserId(1), ItemId(0), 0.9);
        let heads = [UserId(0), UserId(1), UserId(2)];
        let telemetry = imdpp_obs::Telemetry::new();
        let metrics = SketchMetrics::new(&telemetry);
        let shard_hist = |name: &str| {
            telemetry
                .snapshot()
                .histogram(name)
                .unwrap_or_else(|| panic!("histogram {name} was never registered"))
                .clone()
        };

        let mut observed = build_stores(&scenario, SEED, 96, 3, 2, &metrics);
        // One build samples items × sets and times every (item × shard)
        // task once.
        assert_eq!(
            telemetry.snapshot().counter("sketch.sets_sampled"),
            Some(items * 96)
        );
        assert_eq!(shard_hist("sketch.shard_build_ns").count, items * 3);
        let (observed_stats, _) = refreshed(&mut observed[0], &drifted, &heads, 2, &metrics);

        // Bit-identical to the unmetered path, including the stats.
        let noop = SketchMetrics::noop();
        let mut plain = build_stores(&scenario, SEED, 96, 3, 2, &noop);
        let (plain_stats, _) = refreshed(&mut plain[0], &drifted, &heads, 2, &noop);
        assert_eq!(observed.len(), plain.len());
        for (a, b) in observed.iter().zip(&plain) {
            assert_stores_identical(a, b, "observed vs plain");
        }
        assert_eq!(observed_stats, plain_stats);

        // ...and the registry saw the work.
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("sketch.sets_sampled"), Some(items * 96));
        assert_eq!(
            snap.counter("sketch.sets_resampled"),
            Some(observed_stats.resampled_sets as u64)
        );
        assert_eq!(
            snap.counter("sketch.sets_reused"),
            Some((observed_stats.total_sets - observed_stats.resampled_sets) as u64)
        );
        assert_eq!(
            snap.counter("sketch.index_entries_patched"),
            Some(observed_stats.index_entries_patched)
        );
        assert_eq!(snap.counter("sketch.index_full_rebuilds"), Some(0));
        assert_eq!(snap.counter("sketch.refreshes"), Some(1));
        // One wall-clock observation per shard of the refreshed store.
        assert_eq!(shard_hist("sketch.shard_build_ns").count, items * 3);
        assert_eq!(shard_hist("sketch.shard_refresh_ns").count, 3);
        let frontier = shard_hist("sketch.refresh_frontier_heads");
        assert_eq!(frontier.count, 1);
        assert_eq!(frontier.sum, heads.len() as u64);
    }

    #[test]
    fn tracked_refresh_is_bit_identical_and_grid_deterministic() {
        let scenario = imdpp_diffusion::scenario::toy_scenario();
        let drifted = scenario.with_base_preference(UserId(1), ItemId(0), 0.9);
        let heads = [UserId(0), UserId(1), UserId(2)];
        let metrics = SketchMetrics::noop();

        let mut plain = built(&scenario, 1, 128, 1, &metrics);
        // The invalidated ids, and their members before the refresh...
        let invalid = plain.sets_touching(&heads);
        let mut expected: Vec<UserId> = invalid
            .iter()
            .flat_map(|&id| plain.set(id).iter().map(|&u| UserId(u)).collect::<Vec<_>>())
            .collect();
        let (plain_stats, _) = refreshed(&mut plain, &drifted, &heads, 1, &metrics);
        // ...plus the same ids' members after it.
        for &id in &invalid {
            expected.extend(plain.set(id).iter().map(|&u| UserId(u)));
        }
        expected.sort_unstable();
        expected.dedup();

        for shards in [1usize, 2, 4, 7] {
            for threads in [1usize, 2, 8] {
                let mut store = built(&scenario, shards, 128, threads, &metrics);
                let (stats, touched) = refreshed(&mut store, &drifted, &heads, threads, &metrics);
                assert_stores_identical(&store, &plain, &format!("{shards}x{threads}"));
                assert_eq!(stats, plain_stats, "{shards}x{threads}");
                assert!(!touched.is_empty());
                // The touched-user list is sorted, deduplicated, and the
                // same for every grid point.
                assert!(touched.windows(2).all(|w| w[0] < w[1]));
                assert_eq!(touched, expected, "{shards}x{threads}");
            }
        }
    }

    #[test]
    fn skipped_stores_report_nothing_to_do_and_record_nothing() {
        let scenario = imdpp_diffusion::scenario::toy_scenario();
        let telemetry = imdpp_obs::Telemetry::new();
        let metrics = SketchMetrics::new(&telemetry);
        let mut stores = [
            built(&scenario, 2, 64, 1, &metrics),
            built(&scenario, 2, 64, 1, &metrics),
        ];
        let before: Vec<Vec<Vec<u32>>> = stores
            .iter()
            .map(|s| s.iter().map(|(_, set)| set).collect())
            .collect();
        let heads = [Vec::new(), vec![UserId(1)]];
        let per_store = refresh_stores(&mut stores, &scenario, SEED, &heads, 2, &metrics);
        // The skipped store reports its size and nothing else...
        let skipped = RefreshStats {
            total_sets: 64,
            stores: 1,
            ..RefreshStats::default()
        };
        assert_eq!(per_store[0], (skipped, Vec::new()));
        // ...the refreshed one replays identical sets against the same
        // world, and only the refreshed store is counted.
        assert!(per_store[1].0.resampled_sets > 0);
        for (store, sets) in stores.iter().zip(&before) {
            assert_eq!(&store.iter().map(|(_, set)| set).collect::<Vec<_>>(), sets);
        }
        assert_eq!(telemetry.snapshot().counter("sketch.refreshes"), Some(1));
    }

    #[test]
    fn shared_frontier_and_coverage_counts_match_a_scan_of_the_sets() {
        for shards in [1usize, 2, 3, 4, 7] {
            let sharded = store_with(shards, SETS);
            let queries: &[&[u32]] = &[&[1], &[0, 6], &[7], &[2, 3, 4], &[]];
            let mut masks = vec![0u64; sharded.user_count()];
            let mut full = 0u64;
            for (q, seeds) in queries.iter().enumerate() {
                for &u in *seeds {
                    masks[u as usize] |= 1 << q;
                    full |= 1 << q;
                }
            }
            let mut counts = vec![0usize; queries.len()];
            sharded.coverage_counts_masked(&masks, full, &mut counts);
            for (q, seeds) in queries.iter().enumerate() {
                // The indexed frontier, the batched count and the one-query
                // count all equal a scan of every set's members.
                let scanned: Vec<SetId> = sharded
                    .iter()
                    .filter(|(_, set)| set.iter().any(|u| seeds.contains(u)))
                    .map(|(id, _)| id)
                    .collect();
                let label = format!("{shards} shards, seeds {seeds:?}");
                assert_eq!(sharded.sets_touching(&users(seeds)), scanned, "{label}");
                assert_eq!(counts[q], scanned.len(), "{label}");
                assert_eq!(
                    sharded.coverage_count(&users(seeds)),
                    scanned.len(),
                    "{label}"
                );
            }
        }
    }

    #[test]
    fn serialization_round_trips_across_the_shard_grid() {
        let scenario = imdpp_diffusion::scenario::toy_scenario();
        for shards in [1usize, 2, 4, 7] {
            let metrics = SketchMetrics::noop();
            let mut store = built(&scenario, shards, 96, 2, &metrics);
            // Churn so the payload proves garbage is skipped.
            let drifted = scenario.with_base_preference(UserId(1), ItemId(0), 0.9);
            let _ = refreshed(&mut store, &drifted, &[UserId(1)], 2, &metrics);
            let mut out = Vec::new();
            store.serialize_into(&mut out);
            let mut cursor = out.as_slice();
            let restored =
                ShardedRrStore::deserialize_from(ItemId(0), scenario.user_count(), &mut cursor)
                    .unwrap();
            assert!(cursor.is_empty());
            assert_eq!(restored.shard_count(), shards);
            assert_stores_identical(&restored, &store, &format!("{shards} shards"));
            assert!(restored.index_matches_rebuild());
            assert_eq!(restored.live_arena_bytes(), store.live_arena_bytes());
        }
    }

    #[test]
    fn deserialization_rejects_inconsistent_shard_layouts() {
        let sharded = store_with(3, SETS);
        let mut out = Vec::new();
        sharded.serialize_into(&mut out);
        // A truncated payload fails at every cut point.
        for cut in [0, 1, out.len() / 2, out.len() - 1] {
            let mut cursor = &out[..cut];
            assert!(ShardedRrStore::deserialize_from(ItemId(0), 8, &mut cursor).is_err());
        }
        // Zero shards is rejected before any span is read.
        let mut zero = Vec::new();
        persist::write_varint(0u32, &mut zero);
        persist::write_varint(0u64, &mut zero);
        let mut cursor = zero.as_slice();
        assert!(ShardedRrStore::deserialize_from(ItemId(0), 8, &mut cursor).is_err());
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let s = ShardedRrStore::from_sets(ItemId(2), 4, 0, &[]);
        assert_eq!(s.shard_count(), 1);
        assert!(s.is_empty());
        assert_eq!(s.estimate_adopters(&users(&[0])), 0.0);
        assert_eq!(s.estimate_std_error(&users(&[0])), 0.0);
        let scenario = imdpp_diffusion::scenario::toy_scenario();
        let built = built(&scenario, 0, 8, 1, &SketchMetrics::noop());
        assert_eq!(built.shard_count(), 1);
        assert_eq!(built.len(), 8);
    }
}
