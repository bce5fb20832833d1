//! The sketch-backed [`SpreadOracle`]: per-item RR stores behind the
//! estimation interface of `imdpp-core`.

use crate::incremental::{edge_update_frontier, RefreshStats};
use crate::overlay::SketchPatch;
use crate::persist;
use crate::sharded::{build_stores, refresh_stores, ShardedRrStore};
use crate::store::{for_each_query, IndexStats};
use crate::telemetry::SketchMetrics;
use crate::SketchConfig;
use imdpp_core::nominees::Nominee;
use imdpp_core::oracle::{RefreshableOracle, ScenarioUpdate};
use imdpp_core::SpreadOracle;
use imdpp_diffusion::{DynamicsConfig, ImdppError, Scenario};
use imdpp_graph::{ItemId, UserId};
use imdpp_obs::Telemetry;

/// A reverse-reachable-sketch estimator of the static first-promotion
/// spread `f(N)`, maintaining one [`ShardedRrStore`] per catalogue item
/// (`config.shards` = 1 keeps each item's sets in one shard).
///
/// Construction freezes the scenario's dynamics (the Lemma 1 restriction
/// both estimators target) and samples every store in parallel with
/// deterministic per-set RNG streams.  Between promotions,
/// [`RefreshableOracle::refresh`] migrates the sketch to a drifted scenario
/// by re-sampling only the RR sets whose traversal could have observed the
/// change — the incremental sample-reuse path — and patches the inverted
/// indexes instead of rebuilding them.
#[derive(Clone, Debug)]
pub struct SketchOracle {
    frozen: Scenario,
    config: SketchConfig,
    stores: Vec<ShardedRrStore>,
    /// Pre-resolved telemetry handles (no-op unless the oracle was built
    /// with [`SketchOracle::build_with_telemetry`]).  Clones share the
    /// cells, so a cloned-then-refreshed oracle — the engine's writer path —
    /// keeps recording into the originating registry.
    metrics: SketchMetrics,
}

impl SketchOracle {
    /// Builds the oracle for `scenario`, sampling `config.initial_sets` RR
    /// sets per item under the scenario's initial (frozen) probabilities.
    ///
    /// # Panics
    /// Panics when the scenario uses a triggering model other than
    /// Independent Cascade: the RR-set construction here encodes the IC
    /// triggering distribution, so estimating a Linear Threshold scenario
    /// with it would silently target the wrong quantity (the LT-equivalent
    /// sketch draws one uniformly-chosen live in-edge per node instead).
    pub fn build(scenario: &Scenario, config: SketchConfig) -> Self {
        Self::build_with_telemetry(scenario, config, &Telemetry::disabled())
    }

    /// [`SketchOracle::build`] recording into `telemetry`: construction and
    /// every later refresh fold per-shard wall-clock and the semantic
    /// set/index counters into the registry (see [`SketchMetrics`] for the
    /// metric names).  Passing [`Telemetry::disabled`] makes this identical
    /// to plain `build`; either way the sampled stores are bit-identical —
    /// telemetry is write-only and never feeds the RNG.
    ///
    /// # Panics
    /// Like [`SketchOracle::build`], panics on a non-Independent-Cascade
    /// scenario.
    pub fn build_with_telemetry(
        scenario: &Scenario,
        config: SketchConfig,
        telemetry: &Telemetry,
    ) -> Self {
        assert_eq!(
            scenario.model(),
            imdpp_diffusion::DiffusionModel::IndependentCascade,
            "SketchOracle only supports the Independent Cascade model; \
             use the Monte-Carlo Evaluator for Linear Threshold scenarios"
        );
        let metrics = SketchMetrics::new(telemetry);
        let frozen = scenario.with_dynamics(DynamicsConfig::frozen());
        let stores = build_stores(
            &frozen,
            config.base_seed,
            config.initial_sets,
            config.shards,
            config.threads,
            &metrics,
        );
        let oracle = SketchOracle {
            frozen,
            config,
            stores,
            metrics,
        };
        oracle.record_memory();
        oracle
    }

    /// The frozen scenario the sketch estimates against.
    pub fn scenario(&self) -> &Scenario {
        &self.frozen
    }

    /// The construction configuration.
    pub fn config(&self) -> &SketchConfig {
        &self.config
    }

    /// The (sharded) RR store of one item.
    pub fn store(&self, item: ItemId) -> &ShardedRrStore {
        &self.stores[item.index()]
    }

    /// Total RR sets across all items.
    pub fn total_sets(&self) -> usize {
        self.stores.iter().map(|s| s.len()).sum()
    }

    /// Shards per item store (`config.shards`, clamped to ≥ 1).
    pub fn shard_count(&self) -> usize {
        self.stores.first().map_or(1, |s| s.shard_count())
    }

    /// Encoded bytes of the live compressed-arena spans across every item
    /// store and shard — the sketch's dominant memory term.  A pure
    /// function of the set contents, hence identical across the
    /// `(threads, shards)` grid.
    pub fn live_arena_bytes(&self) -> u64 {
        self.stores.iter().map(|s| s.live_arena_bytes()).sum()
    }

    /// Bytes the same live entries would occupy in the uncompressed
    /// `u32`-pool layout the compressed arena replaced — the baseline of
    /// the ≥ 2× compression gate in the scale smoke.
    pub fn uncompressed_bytes(&self) -> u64 {
        self.stores.iter().map(|s| s.uncompressed_bytes()).sum()
    }

    /// Overwrites the `sketch.arena_live_bytes` gauge with the current live
    /// arena footprint; called after construction and refreshes.
    fn record_memory(&self) {
        self.metrics.arena_live_bytes.set(self.live_arena_bytes());
    }

    /// Aggregated inverted-index maintenance counters across every item
    /// store and shard.  `full_rebuilds` equals `items × shards` right
    /// after construction and — the scale invariant — never grows again.
    pub fn index_stats(&self) -> IndexStats {
        let mut stats = IndexStats::default();
        for store in &self.stores {
            stats.absorb(store.index_stats());
        }
        stats
    }

    /// True when `self` and `other` hold bit-identical RR stores (same item
    /// count, same set count per item, same members in the same order) —
    /// the equality the refresh-equals-rebuild invariant is stated in.
    pub fn stores_equal(&self, other: &SketchOracle) -> bool {
        self.stores.len() == other.stores.len()
            && self.stores.iter().zip(&other.stores).all(|(a, b)| {
                a.len() == b.len()
                    && a.iter()
                        .zip(b.iter())
                        .all(|((_, members_a), (_, members_b))| members_a == members_b)
            })
    }

    /// Estimated adopters of `item` when `users` are seeded with it in the
    /// first promotion (unweighted by importance).
    pub fn estimate_item_adopters(&self, item: ItemId, users: &[UserId]) -> f64 {
        self.stores[item.index()].estimate_adopters(users)
    }

    /// Binomial standard error of [`Self::estimate_item_adopters`].
    pub fn estimate_item_std_error(&self, item: ItemId, users: &[UserId]) -> f64 {
        self.stores[item.index()].estimate_std_error(users)
    }

    /// Writes the sketch's persistent form: the per-item stores in item
    /// order, each span byte-for-byte as the arena holds it (see
    /// [`crate::persist`] for the codec).  Everything else an oracle needs —
    /// scenario, configuration, telemetry — is reconstructed by the caller
    /// and validated by [`SketchOracle::deserialize`], so the payload stays
    /// a pure function of the sampled set contents.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        persist::write_varint(self.stores.len() as u64, &mut out);
        for store in &self.stores {
            store.serialize_into(&mut out);
        }
        out
    }

    /// Rebuilds an oracle from [`SketchOracle::serialize`] output against
    /// the same scenario and configuration — decoding spans, validating
    /// every member, and rebuilding the inverted indexes, but re-sampling
    /// **zero** RR sets (the `sketch.sets_sampled` counter stays untouched,
    /// which is how the warm-restart tests prove no resampling happened).
    ///
    /// # Errors
    /// [`ImdppError::InvalidConfig`] when the scenario is not Independent
    /// Cascade, the payload is truncated or corrupt, or the recorded
    /// item/shard/set layout disagrees with `scenario`/`config`.
    pub fn deserialize(
        scenario: &Scenario,
        config: SketchConfig,
        telemetry: &Telemetry,
        bytes: &[u8],
    ) -> Result<Self, ImdppError> {
        if scenario.model() != imdpp_diffusion::DiffusionModel::IndependentCascade {
            return Err(ImdppError::invalid(
                "SketchOracle snapshots only exist for Independent Cascade scenarios",
            ));
        }
        let frozen = scenario.with_dynamics(DynamicsConfig::frozen());
        let mut input = bytes;
        let store_count = persist::read_varint(&mut input)? as usize;
        if store_count != frozen.item_count() {
            return Err(persist::corrupt(
                "persisted item count disagrees with the scenario catalogue",
            ));
        }
        let expected_shards = config.shards.max(1);
        let mut stores = Vec::with_capacity(store_count);
        for x in 0..store_count {
            let store = ShardedRrStore::deserialize_from(
                ItemId(x as u32),
                frozen.user_count(),
                &mut input,
            )?;
            if store.shard_count() != expected_shards {
                return Err(persist::corrupt(
                    "persisted shard count disagrees with the configuration",
                ));
            }
            if store.len() != config.initial_sets {
                return Err(persist::corrupt(
                    "persisted set count disagrees with the configuration",
                ));
            }
            stores.push(store);
        }
        if !input.is_empty() {
            return Err(persist::corrupt("trailing bytes after the last store"));
        }
        let oracle = SketchOracle {
            frozen,
            config,
            stores,
            metrics: SketchMetrics::new(telemetry),
        };
        oracle.record_memory();
        Ok(oracle)
    }
}

impl RefreshableOracle for SketchOracle {
    /// Migrates the sketch to `updated` (whose dynamics are re-frozen),
    /// re-sampling only the RR sets whose traversal could have observed the
    /// change, and reports the refresh cost plus, **per item**, the touched
    /// users of that item's store: the union of every re-sampled set's
    /// members before and after replacement.  A nominee `(u, x)` with `u`
    /// absent from `touched[x]` kept its covering set ids — and therefore
    /// every marginal involving only such nominees — bit-identical.
    ///
    /// The affected heads (see [`crate::incremental`]) are, per store:
    ///
    /// * [`ScenarioUpdate::Preferences`] — each changed `(u, x)` invalidates
    ///   only item `x`'s sets containing `u`; stores of unchanged items are
    ///   skipped,
    /// * [`ScenarioUpdate::Edges`] — the destinations of the edges that
    ///   actually change ([`edge_update_frontier`]), in every store.
    ///   `updated` must be the oracle's current scenario with exactly those
    ///   updates applied: the frontier is only exact when the adjacency
    ///   order of untouched users is preserved, the guarantee
    ///   `CsrGraph::apply_edge_updates` provides.  A batch of no-op updates
    ///   re-samples zero sets.
    ///
    /// Either way the refreshed sketch is *identical* to rebuilding from
    /// scratch against `updated` with the same configuration, and the
    /// stats and touched lists are identical for any `(threads, shards)`.
    fn refresh(
        &mut self,
        updated: &Scenario,
        update: &ScenarioUpdate,
    ) -> (RefreshStats, Option<Vec<Vec<UserId>>>) {
        let heads: Vec<Vec<UserId>> = match update {
            ScenarioUpdate::Preferences(changes) => {
                let mut by_item = vec![Vec::new(); self.stores.len()];
                for &(u, x, _) in changes {
                    if x.index() < by_item.len() {
                        by_item[x.index()].push(u);
                    }
                }
                by_item
            }
            ScenarioUpdate::Edges(updates) => {
                vec![edge_update_frontier(&self.frozen, updates); self.stores.len()]
            }
        };
        self.frozen = updated.with_dynamics(DynamicsConfig::frozen());
        let per_store = refresh_stores(
            &mut self.stores,
            &self.frozen,
            self.config.base_seed,
            &heads,
            self.config.threads,
            &self.metrics,
        );
        let mut stats = RefreshStats::default();
        let mut touched: Vec<Vec<UserId>> = Vec::with_capacity(per_store.len());
        for (store_stats, store_touched) in per_store {
            stats.absorb(store_stats);
            touched.push(store_touched);
        }
        self.record_memory();
        (stats, Some(touched))
    }
}

impl SketchOracle {
    /// `f(N)` of every query over the stores `self ⊕ patch`: the one
    /// coverage pass behind every answer of the sketch and of its tenant
    /// overlays (an empty patch is the base sketch).
    ///
    /// `f(N) = Σ_x importance(x) · n · coverage_x(N) / total_x`.  Under
    /// frozen dynamics items diffuse independently (`P_ext ≡ 0`), so the
    /// sum targets the Monte-Carlo estimator's quantity.  Each query's
    /// terms are added to `+0.0` in ascending item order (`Iterator::sum`
    /// would start from `−0.0`); out-of-range users and items are dropped.
    ///
    /// Queries are cut into chunks of up to 64, each carrying one `u64`
    /// query mask per user, so every span is decoded **once per chunk**
    /// ([`ShardedRrStore::coverage_counts_masked`]); the patch then moves
    /// each replaced set's hits from its base version to its replacement.
    /// A batch of more than one chunk is first stably ordered by each
    /// query's lowest item id, so queries that share items share a chunk
    /// and a wave of singleton queries decodes each item's store once.
    /// Counts are per-query integers and the elided terms are exact zeros,
    /// so which chunk a query lands in changes no bit of its answer.
    pub(crate) fn spread_batch(&self, patch: &SketchPatch, queries: &[&[Nominee]]) -> Vec<f64> {
        let user_count = self.frozen.user_count();
        let mut order: Vec<usize> = (0..queries.len()).collect();
        if queries.len() > 64 {
            // One chunk decodes each store once whatever the order.
            order.sort_by_key(|&q| queries[q].iter().map(|&(_, x)| x.0).min());
        }
        let mut results = vec![0.0f64; queries.len()];
        // One mask word per user, shared across chunks; entries are cleared
        // through the per-item touch lists, never by reallocating.
        let mut masks = vec![0u64; user_count];
        for chunk in order.chunks(64) {
            // Bucket the chunk's in-range nominees per item: (user,
            // query-bit) pairs.
            let mut by_item: Vec<Vec<(u32, usize)>> = vec![Vec::new(); self.stores.len()];
            for (qi, &q) in chunk.iter().enumerate() {
                for &(u, x) in queries[q] {
                    if x.index() < by_item.len() && u.index() < user_count {
                        by_item[x.index()].push((u.0, qi));
                    }
                }
            }
            let mut counts = vec![0usize; chunk.len()];
            for (x, entries) in by_item.iter().enumerate() {
                if entries.is_empty() {
                    continue;
                }
                let mut full = 0u64;
                for &(u, qi) in entries {
                    masks[u as usize] |= 1 << qi;
                    full |= 1 << qi;
                }
                counts.fill(0);
                let store = &self.stores[x];
                store.coverage_counts_masked(&masks, full, &mut counts);
                patch.adjust_counts(x, store, &masks, full, &mut counts);
                let total = store.len();
                if total > 0 {
                    let importance = self.frozen.catalog().importance(ItemId(x as u32));
                    for_each_query(full, |qi| {
                        results[chunk[qi]] +=
                            importance * (user_count as f64 * counts[qi] as f64 / total as f64);
                    });
                }
                for &(u, _) in entries {
                    masks[u as usize] = 0;
                }
            }
        }
        results
    }
}

impl SpreadOracle for SketchOracle {
    /// The one-query batch: see [`SketchOracle::static_spread_batch`].
    fn static_spread(&self, nominees: &[Nominee]) -> f64 {
        self.static_spread_batch(&[nominees])[0]
    }

    /// Answers the whole batch in one chunked pass over the RR stores (see
    /// `spread_batch` for the estimate, its summation order and its
    /// out-of-range rule).
    fn static_spread_batch(&self, queries: &[&[Nominee]]) -> Vec<f64> {
        self.spread_batch(&SketchPatch::default(), queries)
    }

    fn name(&self) -> &'static str {
        "rr-sketch"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imdpp_diffusion::scenario::toy_scenario;
    use imdpp_graph::EdgeUpdate;

    fn oracle(sets: usize) -> SketchOracle {
        SketchOracle::build(
            &toy_scenario(),
            SketchConfig::fixed(sets).with_base_seed(13),
        )
    }

    #[test]
    fn build_samples_every_item() {
        let o = oracle(64);
        let s = toy_scenario();
        assert_eq!(o.total_sets(), 64 * s.item_count());
        for item in s.items() {
            assert_eq!(o.store(item).len(), 64);
        }
        assert_eq!(o.name(), "rr-sketch");
    }

    #[test]
    fn empty_and_full_seedings_bound_the_estimate() {
        let o = oracle(128);
        let s = toy_scenario();
        let everyone: Vec<UserId> = s.users().collect();
        assert_eq!(o.static_spread(&[]), 0.0);
        let full = o.estimate_item_adopters(ItemId(0), &everyone);
        assert!((full - s.user_count() as f64).abs() < 1e-9);
    }

    #[test]
    fn static_spread_weights_items_by_importance() {
        let o = oracle(256);
        let s = toy_scenario();
        let everyone: Vec<Nominee> = s.users().map(|u| (u, ItemId(0))).collect();
        // Item 0 has importance 1.0: seeding everyone with it yields ≈ n.
        let f = o.static_spread(&everyone);
        assert!((f - s.user_count() as f64).abs() < 1e-9);
        // Item 1 has importance 0.5: the weighted estimate halves.
        let everyone1: Vec<Nominee> = s.users().map(|u| (u, ItemId(1))).collect();
        let f1 = o.static_spread(&everyone1);
        assert!((f1 - 0.5 * s.user_count() as f64).abs() < 1e-9);
    }

    #[test]
    fn estimates_are_monotone_in_the_seed_set() {
        let o = oracle(512);
        let one = o.static_spread(&[(UserId(0), ItemId(0))]);
        let two = o.static_spread(&[(UserId(0), ItemId(0)), (UserId(2), ItemId(0))]);
        assert!(two >= one);
        assert!(one >= 1.0 - 1e-9); // a seed always covers its own root sets
    }

    #[test]
    fn preference_update_is_exact_and_tighter_than_user_update() {
        let s = toy_scenario();
        let config = SketchConfig::fixed(256).with_base_seed(19);
        let pref = ScenarioUpdate::Preferences(vec![(UserId(1), ItemId(2), 0.9)]);
        let drifted = pref.apply(&s);

        let mut precise = SketchOracle::build(&s, config);
        let (precise_stats, _) = precise.refresh(&drifted, &pref);

        // A user-level frontier — user 1 and its out-neighbours, in every
        // item's store — must assume influence strengths moved too.
        let mut coarse = SketchOracle::build(&s, config);
        let user_heads = vec![UserId(1), UserId(3)];
        let heads = vec![user_heads; s.item_count()];
        let coarse_resampled: usize = refresh_stores(
            &mut coarse.stores,
            &drifted.with_dynamics(DynamicsConfig::frozen()),
            config.base_seed,
            &heads,
            1,
            &SketchMetrics::noop(),
        )
        .iter()
        .map(|(stats, _)| stats.resampled_sets)
        .sum();

        // Both must equal a from-scratch rebuild...
        let rebuilt = SketchOracle::build(&drifted, config);
        assert!(precise.stores_equal(&rebuilt));
        assert!(coarse.stores_equal(&rebuilt));
        // ...but the preference-only frontier re-samples (much) less.
        assert!(precise_stats.resampled_sets <= coarse_resampled);
        assert!(precise_stats.resampled_sets < precise_stats.total_sets);
    }

    #[test]
    fn edge_update_refresh_is_exact_and_localized() {
        let s = toy_scenario();
        let config = SketchConfig::fixed(256).with_base_seed(23);
        let updates = [
            EdgeUpdate::Reweight {
                src: UserId(0),
                dst: UserId(1),
                weight: 0.95,
            },
            EdgeUpdate::Insert {
                src: UserId(5),
                dst: UserId(3),
                weight: 0.4,
            },
        ];
        let drifted = s.with_edge_updates(&updates);

        let mut incremental = SketchOracle::build(&s, config);
        let (stats, _) = incremental.refresh(&drifted, &ScenarioUpdate::Edges(updates.to_vec()));
        let rebuilt = SketchOracle::build(&drifted, config);
        assert!(incremental.stores_equal(&rebuilt));
        assert!(stats.resampled_sets > 0);
        assert!(
            stats.resampled_fraction() < 0.5,
            "localized edge update re-sampled {:.1}%",
            100.0 * stats.resampled_fraction()
        );
    }

    #[test]
    fn noop_edge_update_resamples_nothing() {
        let s = toy_scenario();
        let mut oracle = SketchOracle::build(&s, SketchConfig::fixed(128).with_base_seed(31));
        let noop = [
            // The toy graph's 0 -> 1 edge already has strength 0.6.
            EdgeUpdate::Reweight {
                src: UserId(0),
                dst: UserId(1),
                weight: 0.6,
            },
            EdgeUpdate::Remove {
                src: UserId(5),
                dst: UserId(0),
            },
        ];
        let update = ScenarioUpdate::Edges(noop.to_vec());
        let (stats, touched) = oracle.refresh(&update.apply(&s), &update);
        assert_eq!(touched, Some(vec![Vec::new(); s.item_count()]));
        assert_eq!(stats.resampled_sets, 0);
        assert_eq!(stats.total_sets, 128 * s.item_count());
        assert_eq!(stats.resampled_fraction(), 0.0);
    }

    #[test]
    fn refreshable_oracle_dispatch_covers_both_update_kinds() {
        let s = toy_scenario();
        let config = SketchConfig::fixed(128).with_base_seed(37);
        let mut oracle = SketchOracle::build(&s, config);

        let pref = ScenarioUpdate::Preferences(vec![(UserId(1), ItemId(2), 0.9)]);
        let drifted = pref.apply(&s);
        let (r1, _) = oracle.refresh(&drifted, &pref);
        assert!((0.0..1.0).contains(&r1.resampled_fraction()));
        assert_eq!(r1.full_rebuilds, 0, "refresh must patch the index");

        let edges = ScenarioUpdate::Edges(vec![EdgeUpdate::Reweight {
            src: UserId(0),
            dst: UserId(1),
            weight: 0.9,
        }]);
        let drifted2 = edges.apply(&drifted);
        let (r2, _) = oracle.refresh(&drifted2, &edges);
        assert!((0.0..1.0).contains(&r2.resampled_fraction()));
        assert!(
            r2.resampled_sets > 0,
            "a real strength change must re-sample something"
        );
        assert!(r2.index_entries_patched > 0);
        assert_eq!(r2.full_rebuilds, 0);

        // After both refreshes the oracle equals a rebuild of the final world.
        assert!(oracle.stores_equal(&SketchOracle::build(&drifted2, config)));
    }

    #[test]
    fn tracked_refresh_matches_untracked_and_localizes_touched_users() {
        let s = toy_scenario();
        let config = SketchConfig::fixed(256).with_base_seed(47);
        let pref = ScenarioUpdate::Preferences(vec![(UserId(1), ItemId(2), 0.9)]);
        let drifted = pref.apply(&s);

        let mut tracked = SketchOracle::build(&s, config);
        let (stats, touched) = tracked.refresh(&drifted, &pref);
        let touched = touched.unwrap_or_default();

        // Tracking is bookkeeping: the refreshed sketch is the rebuild.
        assert!(tracked.stores_equal(&SketchOracle::build(&drifted, config)));
        assert_eq!(touched.len(), s.item_count());
        // A preference-only change on item 2 touches no other item's store.
        for (x, users) in touched.iter().enumerate() {
            if x != 2 {
                assert!(users.is_empty(), "item {x} must be untouched");
            }
        }
        // The changed user's sets were re-sampled, so it must be touched.
        assert!(touched[2].contains(&UserId(1)));
        assert!(touched[2].windows(2).all(|w| w[0] < w[1]), "sorted + dedup");

        // The grid invariance carries over from the store level.
        for (shards, threads) in [(2usize, 1usize), (4, 4)] {
            let mut grid = SketchOracle::build(
                &s,
                SketchConfig::fixed(256)
                    .with_base_seed(47)
                    .with_shards(shards)
                    .with_threads(threads),
            );
            let (grid_stats, grid_touched) = grid.refresh(&drifted, &pref);
            assert_eq!(grid_stats, stats, "{shards}x{threads}");
            assert_eq!(grid_touched.as_ref(), Some(&touched), "{shards}x{threads}");
        }
    }

    /// `f(N)` from the decoded sets, independently of the coverage pass:
    /// per item, `importance · n · covered / total` added to `+0.0` in
    /// ascending item order (items `N` does not seed add an exact zero).
    fn decoded_spread(o: &SketchOracle, nominees: &[Nominee]) -> f64 {
        let s = o.scenario();
        let n = s.user_count() as f64;
        s.items().fold(0.0, |sum, item| {
            let store = o.store(item);
            let covered = store
                .iter()
                .filter(|(_, set)| {
                    nominees
                        .iter()
                        .any(|&(u, x)| x == item && set.contains(&u.0))
                })
                .count();
            sum + s.catalog().importance(item) * (n * covered as f64 / store.len() as f64)
        })
    }

    #[test]
    fn batched_spread_is_bit_identical_to_single_queries() {
        let s = toy_scenario();
        for shards in [1usize, 3] {
            let o = SketchOracle::build(
                &s,
                SketchConfig::fixed(256)
                    .with_base_seed(13)
                    .with_shards(shards),
            );
            // More than 64 queries forces a second chunk; items interleave
            // across the input, so ordering by lowest item moves queries
            // between chunks.  Include empty, multi-item, duplicate-user,
            // repeated and out-of-range queries.
            let mut owned: Vec<Vec<Nominee>> = Vec::new();
            for i in 0..140u32 {
                owned.push(match i % 7 {
                    0 => vec![(UserId(i % 6), ItemId(3 - i % 4))],
                    1 => vec![(UserId(0), ItemId(2)), (UserId(i % 6), ItemId(1))],
                    2 => vec![],
                    3 => vec![(UserId(999), ItemId(0)), (UserId(1), ItemId(2))],
                    4 => vec![(UserId(1), ItemId(999)), (UserId(i % 6), ItemId(i % 4))],
                    5 => vec![(UserId(3), ItemId(999))],
                    _ => vec![(UserId(2), ItemId(1)), (UserId(2), ItemId(1))],
                });
            }
            let queries: Vec<&[Nominee]> = owned.iter().map(|q| q.as_slice()).collect();
            let batched = o.static_spread_batch(&queries);
            assert_eq!(batched.len(), queries.len());
            for (q, nominees) in queries.iter().enumerate() {
                assert_eq!(
                    batched[q].to_bits(),
                    o.static_spread(nominees).to_bits(),
                    "{shards} shards, query {q}"
                );
                assert_eq!(
                    batched[q].to_bits(),
                    decoded_spread(&o, nominees).to_bits(),
                    "{shards} shards, query {q}"
                );
            }
        }
    }

    #[test]
    fn serialization_restores_an_identical_oracle_without_resampling() {
        let s = toy_scenario();
        for shards in [1usize, 2, 4] {
            let config = SketchConfig::fixed(128)
                .with_base_seed(13)
                .with_shards(shards);
            let mut original = SketchOracle::build(&s, config);
            // Drift once so the payload is not just the construction state.
            let pref = ScenarioUpdate::Preferences(vec![(UserId(1), ItemId(2), 0.9)]);
            let drifted = pref.apply(&s);
            let _ = original.refresh(&drifted, &pref);

            let bytes = original.serialize();
            let telemetry = Telemetry::new();
            let restored = SketchOracle::deserialize(&drifted, config, &telemetry, &bytes).unwrap();
            assert!(restored.stores_equal(&original), "{shards} shards");
            assert_eq!(restored.shard_count(), original.shard_count());
            assert_eq!(restored.live_arena_bytes(), original.live_arena_bytes());
            let probe = [(UserId(0), ItemId(0)), (UserId(3), ItemId(2))];
            assert_eq!(
                restored.static_spread(&probe).to_bits(),
                original.static_spread(&probe).to_bits()
            );
            // Zero sets sampled: the restore decoded, never replayed RNG.
            let snap = telemetry.snapshot();
            assert_eq!(snap.counter("sketch.sets_sampled"), Some(0));
            // The restored index answers refreshes like the original.
            let mut a = original.clone();
            let mut b = restored;
            let pref = ScenarioUpdate::Preferences(vec![(UserId(2), ItemId(0), 0.8)]);
            let further = pref.apply(&drifted);
            assert_eq!(a.refresh(&further, &pref), b.refresh(&further, &pref));
            assert!(a.stores_equal(&b));
        }
    }

    #[test]
    fn deserialization_rejects_mismatched_worlds() {
        let s = toy_scenario();
        let config = SketchConfig::fixed(64).with_base_seed(13).with_shards(2);
        let bytes = SketchOracle::build(&s, config).serialize();
        // Wrong shard count.
        let wrong_shards = SketchConfig {
            shards: 3,
            ..config
        };
        assert!(
            SketchOracle::deserialize(&s, wrong_shards, &Telemetry::disabled(), &bytes).is_err()
        );
        // Wrong pool size: a 128-set image does not restore as 64 sets.
        let bigger =
            SketchOracle::build(&s, SketchConfig::fixed(128).with_base_seed(13)).serialize();
        let restored = SketchOracle::deserialize(
            &s,
            SketchConfig::fixed(64).with_base_seed(13),
            &Telemetry::disabled(),
            &bigger,
        );
        assert!(matches!(restored, Err(ImdppError::InvalidConfig { .. })));
        // Wrong model.
        let lt = s.with_model(imdpp_diffusion::DiffusionModel::LinearThreshold);
        assert!(SketchOracle::deserialize(&lt, config, &Telemetry::disabled(), &bytes).is_err());
        // Truncated payload.
        assert!(SketchOracle::deserialize(
            &s,
            config,
            &Telemetry::disabled(),
            &bytes[..bytes.len() - 1]
        )
        .is_err());
        // Trailing bytes.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(SketchOracle::deserialize(&s, config, &Telemetry::disabled(), &padded).is_err());
    }

    #[test]
    #[should_panic(expected = "Independent Cascade")]
    fn linear_threshold_scenarios_are_rejected() {
        let s = toy_scenario().with_model(imdpp_diffusion::DiffusionModel::LinearThreshold);
        let _ = SketchOracle::build(&s, SketchConfig::fixed(8));
    }

    #[test]
    fn sharded_oracle_matches_the_flat_oracle() {
        let s = toy_scenario();
        let flat = SketchOracle::build(&s, SketchConfig::fixed(256).with_base_seed(41));
        for shards in [2usize, 4, 7] {
            let sharded = SketchOracle::build(
                &s,
                SketchConfig::fixed(256)
                    .with_base_seed(41)
                    .with_shards(shards),
            );
            assert_eq!(sharded.shard_count(), shards);
            assert!(flat.stores_equal(&sharded), "{shards} shards");
            for item in s.items() {
                assert_eq!(
                    flat.estimate_item_adopters(item, &[UserId(0), UserId(3)]),
                    sharded.estimate_item_adopters(item, &[UserId(0), UserId(3)]),
                );
                assert_eq!(
                    flat.estimate_item_std_error(item, &[UserId(0), UserId(3)]),
                    sharded.estimate_item_std_error(item, &[UserId(0), UserId(3)]),
                );
            }
            // Construction performs exactly one index build per shard.
            let stats = sharded.index_stats();
            assert_eq!(stats.full_rebuilds, (shards * s.item_count()) as u64);
            assert_eq!(stats.compactions, 0);
        }
    }

    #[test]
    fn sharded_refresh_stays_identical_to_a_sharded_rebuild() {
        let s = toy_scenario();
        let config = SketchConfig::fixed(192).with_base_seed(43).with_shards(3);
        let mut oracle = SketchOracle::build(&s, config);
        let updates = [EdgeUpdate::Reweight {
            src: UserId(0),
            dst: UserId(1),
            weight: 0.95,
        }];
        let drifted = s.with_edge_updates(&updates);
        let (stats, _) = oracle.refresh(&drifted, &ScenarioUpdate::Edges(updates.to_vec()));
        assert!(stats.resampled_sets > 0);
        assert_eq!(stats.full_rebuilds, 0);
        let rebuilt = SketchOracle::build(&drifted, config);
        assert!(oracle.stores_equal(&rebuilt));
        // Construction builds are all the rebuilds the oracle ever did.
        assert_eq!(
            oracle.index_stats().full_rebuilds,
            (3 * s.item_count()) as u64
        );
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let s = toy_scenario();
        let a = SketchOracle::build(
            &s,
            SketchConfig::fixed(128).with_base_seed(3).with_threads(1),
        );
        let b = SketchOracle::build(
            &s,
            SketchConfig::fixed(128).with_base_seed(3).with_threads(4),
        );
        for item in s.items() {
            let sa: Vec<Vec<u32>> = a.store(item).iter().map(|(_, s)| s.to_vec()).collect();
            let sb: Vec<Vec<u32>> = b.store(item).iter().map(|(_, s)| s.to_vec()).collect();
            assert_eq!(sa, sb);
        }
    }
}
