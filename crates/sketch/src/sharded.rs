//! The sharded RR-set store: one logical pool of RR sets partitioned across
//! `S` independent shards.
//!
//! ## Why shard
//!
//! The flat [`RrStore`] keeps one arena and one inverted index per item.
//! Past ~10⁵ users both structures become large enough that (a) a refresh
//! touching them stalls on one memory region and (b) parallel generation
//! cannot write shard-locally.  `ShardedRrStore` partitions the sets across
//! `S` shards, each owning *its own arena and its own inverted index*, so
//! build and refresh run as one task per (item × shard) on the work-queue
//! (`grow_stores`, `refresh_stores`) and touch only shard-local memory.
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
//!   estimates, greedy selections and store-equality checks are
//!   shard-count-independent, and `S = 1` degenerates to exactly the flat
//!   store.
//! * Coverage counting aggregates *per-shard partial counters* (one shared
//!   user bitmap, one count per shard) and the estimate divides the summed
//!   coverage by the summed set count — bit-identical to the flat formula
//!   because both operate on the same integers.
//!
//! Index maintenance inherits the flat store's tombstone + append + periodic
//! compaction scheme per shard; see [`crate::store`] for the invariants and
//! [`IndexStats`] for the counters proving no post-build rebuilds happen.

use crate::incremental::RefreshStats;
use crate::persist;
use crate::sampler;
use crate::store::{IndexStats, RrStore, SetId};
use crate::telemetry::SketchMetrics;
use imdpp_diffusion::par::{effective_threads, run_queue};
use imdpp_diffusion::{ImdppError, Scenario};
use imdpp_graph::{ItemId, UserId};

/// Appends `count` RR sets to every store — streams `len()..len() + count`
/// of the store's item, sampled against `scenario` — as one **(item ×
/// shard)** task per shard on the work-queue.  A task samples and pushes
/// the streams of its shard's residue class (`id mod S`), then builds the
/// shard's inverted index if it has none yet; an index that already exists
/// is patched by the pushes instead.  A build is therefore this growth from
/// stream 0 on fresh stores, ending in exactly one full index build per
/// shard.
///
/// `threads` is resolved by [`effective_threads`] against the task count.
/// Every stream is its own RNG and lands in the shard its id names, so the
/// grown stores are bit-identical to pushing the streams one by one — for
/// any `(threads, shards)` combination and any task interleaving.  Each
/// task records one observation into `metrics.shard_build_ns`; the
/// grown-set count folds into `metrics.sets_sampled`.
pub(crate) fn grow_stores(
    stores: &mut [ShardedRrStore],
    scenario: &Scenario,
    base_seed: u64,
    count: usize,
    threads: usize,
    metrics: &SketchMetrics,
) {
    metrics.sets_sampled.add((count * stores.len()) as u64);
    // (shard index, shard count, first stream, end stream, shard) per task.
    let mut tasks: Vec<(u64, u64, u64, u64, &mut RrStore)> = Vec::new();
    for store in stores.iter_mut() {
        let first = store.total as u64;
        store.total += count;
        let stride = store.shards.len() as u64;
        for (si, shard) in store.shards.iter_mut().enumerate() {
            tasks.push((si as u64, stride, first, first + count as u64, shard));
        }
    }
    let workers = effective_threads(threads, tasks.len());
    run_queue(tasks, workers, |_, (si, stride, first, end, shard)| {
        let _span = metrics.shard_build_ns.start();
        let item = shard.item();
        let mut scratch = sampler::Scratch::new(scenario.user_count());
        // The smallest stream >= first congruent to si (mod S).
        let mut stream = first + (si + stride - first % stride) % stride;
        while stream < end {
            let set = sampler::sample_set_with(scenario, item, base_seed, stream, &mut scratch);
            let local = shard.push_set(&set);
            debug_assert_eq!(u64::from(local) * stride + si, stream);
            stream += stride;
        }
        shard.ensure_index();
    });
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
        let invalid = shard.sets_touching_prepared(prepared[ii].as_deref().unwrap_or(&[]));
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
            "patched inverted index diverged from rebuild_index"
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

/// RR sets for one item, partitioned across shards by `id mod S`.
///
/// The public surface mirrors [`RrStore`] with *global* set ids; use
/// [`ShardedRrStore::shard`] to reach the per-shard stores (whose ids are
/// shard-local).
#[derive(Clone, Debug)]
pub struct ShardedRrStore {
    shards: Vec<RrStore>,
    /// Global set count (`Σ` shard lengths; next id to assign).
    total: usize,
}

impl ShardedRrStore {
    /// Creates an empty store for `item` over `user_count` users with
    /// `shard_count` shards (`0` is treated as `1`).
    pub fn new(item: ItemId, user_count: usize, shard_count: usize) -> Self {
        let shard_count = shard_count.max(1);
        ShardedRrStore {
            shards: (0..shard_count)
                .map(|_| RrStore::new(item, user_count))
                .collect(),
            total: 0,
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

    /// One shard's flat store (set ids inside it are shard-local).
    pub fn shard(&self, shard: usize) -> &RrStore {
        &self.shards[shard]
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
    /// borrows the shards mutably).
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

    /// Appends a new set, returning its global id (always `len() - 1`
    /// afterwards).  Ids must be assigned densely in order — which they are,
    /// since this method assigns them — for the `id mod S` placement to
    /// match the shard-local slot `id div S`.
    pub fn push_set(&mut self, users: &[UserId]) -> SetId {
        let id = self.total as SetId;
        let shard = self.shard_of(id);
        let local = self.shards[shard].push_set(users);
        debug_assert_eq!(local, self.local(id));
        self.total += 1;
        id
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

    /// Rebuilds every shard's inverted index with a full counting pass.
    /// Needed once after bulk construction; incremental maintenance takes
    /// over from there.
    pub fn rebuild_index(&mut self) {
        for shard in &mut self.shards {
            shard.rebuild_index();
        }
    }

    /// The sorted, deduplicated *global* ids of all sets containing any of
    /// `users` — aggregated across shards.  The head list is prepared
    /// (bounds-filtered, sorted, deduplicated) once, not per shard.
    pub fn sets_touching(&mut self, users: &[UserId]) -> Vec<SetId> {
        let heads = crate::store::prepare_heads(users, self.user_count());
        let shard_count = self.shards.len();
        let mut ids = Vec::new();
        for (si, shard) in self.shards.iter_mut().enumerate() {
            ids.extend(
                shard
                    .sets_touching_prepared(&heads)
                    .into_iter()
                    .map(|local| local * shard_count as SetId + si as SetId),
            );
        }
        // Shards partition the id space, so cross-shard duplicates cannot
        // occur; per-shard results are already deduplicated.
        ids.sort_unstable();
        ids
    }

    /// The sorted *global* ids of all sets containing any of `users`,
    /// answered through a **shared** (`&self`) borrow — the serving-tier
    /// variant of [`ShardedRrStore::sets_touching`] tenant-overlay
    /// construction uses against a pinned snapshot.  Identical output to
    /// the `&mut` path: shards partition the id space, so mapping each
    /// shard-local hit back to `local · S + shard` and sorting reproduces
    /// the global id order with no duplicates.
    pub fn sets_touching_shared(&self, users: &[UserId]) -> Vec<SetId> {
        let shard_count = self.shards.len();
        let mut ids = Vec::new();
        for (si, shard) in self.shards.iter().enumerate() {
            ids.extend(
                shard
                    .sets_touching_shared(users)
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
    /// by the number of sets query `q` covers — accumulated across shards,
    /// exactly like [`ShardedRrStore::coverage_count`] sums its per-shard
    /// partial counters.  See [`RrStore::coverage_counts_masked`] for the
    /// per-span semantics; the batched counts equal 64 independent
    /// single-query passes by construction.
    pub fn coverage_counts_masked(&self, masks: &[u64], full: u64, counts: &mut [usize]) {
        for shard in &self.shards {
            shard.coverage_counts_masked(masks, full, counts);
        }
    }

    /// Number of sets hit by the marked users, **excluding** the sorted
    /// *global* set ids in `skip` — the base-store side of a tenant
    /// overlay's coverage count, where the skipped sets are answered from
    /// the overlay's patch instead.  Global ids split by residue class
    /// (`shard = id mod S`, `local = id div S`); ascending globals of one
    /// residue class map to ascending locals, so the per-shard skip lists
    /// stay sorted for the flat store's binary search.
    pub fn coverage_count_marked_excluding(&self, marked: &[bool], skip: &[SetId]) -> usize {
        debug_assert!(
            skip.windows(2).all(|w| w[0] < w[1]),
            "skip ids must be sorted"
        );
        let shard_count = self.shards.len();
        if skip.is_empty() {
            return self
                .shards
                .iter()
                .map(|s| s.coverage_count_marked(marked))
                .sum();
        }
        let mut local_skips: Vec<Vec<SetId>> = vec![Vec::new(); shard_count];
        for &id in skip {
            local_skips[id as usize % shard_count].push(id / shard_count as SetId);
        }
        self.shards
            .iter()
            .zip(&local_skips)
            .map(|(shard, skip)| shard.coverage_count_marked_excluding(marked, skip))
            .sum()
    }

    /// Writes the store's persistent form: shard count, global set count,
    /// then each shard's spans in shard order ([`RrStore::serialize_into`]).
    pub(crate) fn serialize_into(&self, out: &mut Vec<u8>) {
        persist::write_varint(self.shards.len() as u64, out);
        persist::write_varint(self.total as u64, out);
        for shard in &self.shards {
            shard.serialize_into(out);
        }
    }

    /// Reads a store back from its persistent form, validating every span
    /// and rebuilding each shard's inverted index from the decoded contents
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

    /// Number of sets hit by the given seed users: per-shard partial
    /// counters over one shared seed bitmap, summed.
    pub fn coverage_count(&self, seeds: &[UserId]) -> usize {
        if self.total == 0 || seeds.is_empty() {
            return 0;
        }
        let user_count = self.user_count();
        let mut marked = vec![false; user_count];
        for &u in seeds {
            if u.index() < user_count {
                marked[u.index()] = true;
            }
        }
        self.shards
            .iter()
            .map(|s| s.coverage_count_marked(&marked))
            .sum()
    }

    /// Unbiased estimate of the expected adopters of the store's item when
    /// `seeds` are seeded in the first promotion — the flat store's formula
    /// over the aggregated counters, hence shard-count-independent.
    pub fn estimate_adopters(&self, seeds: &[UserId]) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.user_count() as f64 * self.coverage_count(seeds) as f64 / self.total as f64
    }

    /// Standard error of [`Self::estimate_adopters`] under the binomial
    /// coverage model.
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

    fn stores_with(shards: usize, sets: &[&[u32]]) -> (RrStore, ShardedRrStore) {
        let mut flat = RrStore::new(ItemId(0), 8);
        let mut sharded = ShardedRrStore::new(ItemId(0), 8, shards);
        for set in sets {
            flat.push_set(&users(set));
            sharded.push_set(&users(set));
        }
        flat.rebuild_index();
        sharded.rebuild_index();
        (flat, sharded)
    }

    const SETS: &[&[u32]] = &[&[0, 1], &[1, 2], &[3], &[4, 5, 6], &[0, 6], &[2], &[7]];

    #[test]
    fn single_shard_is_the_flat_store() {
        let (flat, sharded) = stores_with(1, SETS);
        assert_eq!(sharded.shard_count(), 1);
        for (id, set) in flat.iter() {
            assert_eq!(sharded.set(id), set);
        }
        assert_eq!(
            flat.coverage_count(&users(&[1, 6])),
            sharded.coverage_count(&users(&[1, 6]))
        );
    }

    #[test]
    fn global_iteration_is_id_ordered_for_any_shard_count() {
        for shards in [1, 2, 3, 4, 7] {
            let (flat, sharded) = stores_with(shards, SETS);
            let flat_view: Vec<(SetId, Vec<u32>)> =
                flat.iter().map(|(id, s)| (id, s.to_vec())).collect();
            let sharded_view: Vec<(SetId, Vec<u32>)> =
                sharded.iter().map(|(id, s)| (id, s.to_vec())).collect();
            assert_eq!(flat_view, sharded_view, "{shards} shards");
        }
    }

    #[test]
    fn shard_assignment_is_id_mod_s() {
        let (_, sharded) = stores_with(3, SETS);
        for id in 0..SETS.len() as SetId {
            assert_eq!(sharded.shard_of(id), id as usize % 3);
        }
        // Shard lengths partition the total.
        let total: usize = (0..3).map(|s| sharded.shard(s).len()).sum();
        assert_eq!(total, SETS.len());
    }

    #[test]
    fn estimates_and_frontiers_match_the_flat_store() {
        for shards in [2, 4, 7] {
            let (mut flat, mut sharded) = stores_with(shards, SETS);
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
    fn replacement_patches_the_owning_shard_only() {
        let (mut flat, mut sharded) = stores_with(4, SETS);
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
            assert_eq!(sharded.shard(s).index_stats().entries_patched, 0);
        }
    }

    const SEED: u64 = 77;

    /// A one-item store built by growth from stream 0 to `sizes[0]` sets,
    /// then grown by each further entry of `sizes` in turn.
    fn grown(
        scenario: &Scenario,
        shards: usize,
        sizes: &[usize],
        threads: usize,
        metrics: &SketchMetrics,
    ) -> ShardedRrStore {
        let mut stores = [ShardedRrStore::new(
            ItemId(0),
            scenario.user_count(),
            shards,
        )];
        for &count in sizes {
            grow_stores(&mut stores, scenario, SEED, count, threads, metrics);
        }
        let [store] = stores;
        store
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

    fn sequential_reference(scenario: &Scenario, shards: usize, count: usize) -> ShardedRrStore {
        let mut store = ShardedRrStore::new(ItemId(0), scenario.user_count(), shards);
        for stream in 0..count as u64 {
            store.push_set(&sampler::sample_set(scenario, ItemId(0), SEED, stream));
        }
        store.rebuild_index();
        store
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
        for shards in [1usize, 2, 4, 7] {
            let reference = sequential_reference(&scenario, shards, 96);
            for threads in [1usize, 2, 4, 8] {
                let built = grown(&scenario, shards, &[96], threads, &metrics);
                assert_stores_identical(&built, &reference, &format!("{shards}x{threads}"));
                assert!(built.index_matches_rebuild());
                // Exactly one full index build per shard, none beyond.
                assert_eq!(built.index_stats().full_rebuilds, shards as u64);
            }
        }
    }

    #[test]
    fn parallel_extend_matches_sequential_growth() {
        let scenario = imdpp_diffusion::scenario::toy_scenario();
        let metrics = SketchMetrics::noop();
        for shards in [1usize, 3, 4] {
            let reference = sequential_reference(&scenario, shards, 90);
            for threads in [1usize, 2, 8] {
                // Build 32 then grow twice (odd amounts so shard loads skew).
                let grown = grown(&scenario, shards, &[32, 13, 45], threads, &metrics);
                assert_stores_identical(&grown, &reference, &format!("{shards}x{threads}"));
                assert!(grown.index_matches_rebuild());
                // Growth patches the index; rebuilds stay at construction.
                assert_eq!(grown.index_stats().full_rebuilds, shards as u64);
            }
        }
    }

    #[test]
    fn parallel_refresh_matches_flat_refresh_and_merges_stats() {
        let scenario = imdpp_diffusion::scenario::toy_scenario();
        let drifted = scenario.with_base_preference(UserId(1), ItemId(0), 0.9);
        let heads = [UserId(0), UserId(1), UserId(2)];
        let metrics = SketchMetrics::noop();
        let mut flat = grown(&scenario, 1, &[128], 1, &metrics);
        let (flat_stats, _) = refreshed(&mut flat, &drifted, &heads, 1, &metrics);
        assert!(flat_stats.resampled_sets > 0);
        for shards in [2usize, 4, 7] {
            for threads in [1usize, 2, 8] {
                let mut store = grown(&scenario, shards, &[128], threads, &metrics);
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
        let drifted = scenario.with_base_preference(UserId(1), ItemId(0), 0.9);
        let heads = [UserId(0), UserId(1), UserId(2)];
        let telemetry = imdpp_obs::Telemetry::new();
        let metrics = SketchMetrics::new(&telemetry);

        let mut observed = grown(&scenario, 3, &[96, 32], 2, &metrics);
        let (observed_stats, _) = refreshed(&mut observed, &drifted, &heads, 2, &metrics);

        // Bit-identical to the unmetered path, including the stats.
        let noop = SketchMetrics::noop();
        let mut plain = grown(&scenario, 3, &[96, 32], 2, &noop);
        let (plain_stats, _) = refreshed(&mut plain, &drifted, &heads, 2, &noop);
        assert_stores_identical(&observed, &plain, "observed vs plain");
        assert_eq!(observed_stats, plain_stats);

        // ...and the registry saw the work.
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("sketch.sets_sampled"), Some(96 + 32));
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
        // One wall-clock observation per shard per growth round and refresh.
        let shard_hist = |name: &str| {
            snap.histogram(name)
                .unwrap_or_else(|| panic!("histogram {name} was never registered"))
        };
        assert_eq!(shard_hist("sketch.shard_build_ns").count, 6);
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

        let mut plain = grown(&scenario, 1, &[128], 1, &metrics);
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
                let mut store = grown(&scenario, shards, &[128], threads, &metrics);
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
            grown(&scenario, 2, &[64], 1, &metrics),
            grown(&scenario, 2, &[64], 1, &metrics),
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
    fn shared_frontier_and_batched_coverage_match_the_single_query_paths() {
        for shards in [1usize, 2, 3, 4, 7] {
            let (_, mut sharded) = stores_with(shards, SETS);
            let queries: &[&[u32]] = &[&[1], &[0, 6], &[7], &[2, 3, 4], &[]];
            // Shared-borrow frontier == exclusive-borrow frontier.
            for seeds in queries {
                assert_eq!(
                    sharded.sets_touching_shared(&users(seeds)),
                    sharded.sets_touching(&users(seeds)),
                    "{shards} shards, seeds {seeds:?}"
                );
            }
            // Batched masked coverage == one coverage_count per query.
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
                assert_eq!(
                    counts[q],
                    sharded.coverage_count(&users(seeds)),
                    "{shards} shards, query {q}"
                );
            }
        }
    }

    #[test]
    fn excluding_coverage_splits_global_skip_ids_correctly() {
        for shards in [1usize, 2, 3, 4] {
            let (_, sharded) = stores_with(shards, SETS);
            let mut marked = vec![false; 8];
            for u in [1usize, 6] {
                marked[u] = true;
            }
            let all: usize = (0..shards)
                .map(|s| sharded.shard(s).coverage_count_marked(&marked))
                .sum();
            assert_eq!(sharded.coverage_count_marked_excluding(&marked, &[]), all);
            // Sets 0, 1, 3, 4 cover {1, 6}; skipping two of them drops two.
            assert_eq!(
                sharded.coverage_count_marked_excluding(&marked, &[0, 4]),
                all - 2,
                "{shards} shards"
            );
            // Skipping every covering set reaches zero.
            assert_eq!(
                sharded.coverage_count_marked_excluding(&marked, &[0, 1, 3, 4]),
                0,
                "{shards} shards"
            );
        }
    }

    #[test]
    fn serialization_round_trips_across_the_shard_grid() {
        let scenario = imdpp_diffusion::scenario::toy_scenario();
        for shards in [1usize, 2, 4, 7] {
            let metrics = SketchMetrics::noop();
            let mut store = grown(&scenario, shards, &[96], 2, &metrics);
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
        let (_, sharded) = stores_with(3, SETS);
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
        let s = ShardedRrStore::new(ItemId(2), 4, 0);
        assert_eq!(s.shard_count(), 1);
        assert!(s.is_empty());
        assert_eq!(s.estimate_adopters(&users(&[0])), 0.0);
        assert_eq!(s.estimate_std_error(&users(&[0])), 0.0);
    }
}
