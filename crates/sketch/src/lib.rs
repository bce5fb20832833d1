//! # imdpp-sketch
//!
//! A reverse-reachable (RR) sketch influence oracle for the IMDPP suite:
//! the estimation engine that replaces per-query forward Monte-Carlo with an
//! amortized pool of RR samples, in the spirit of TIM/IMM/OPIM, extended
//! with **incremental sample reuse** for the dynamic-perception setting
//! (Yalavarthi & Khan's local updating; Zhang et al.'s sample reuse).
//!
//! Components:
//!
//! * [`arena`] — the delta/varint codec of the compressed RR-set arena
//!   (sorted member lists, ~2–4× smaller than a raw `u32` pool) and the
//!   zero-allocation [`SetMembers`] decoder,
//! * [`store`] — the arena-backed store of one shard: CSR-style spans into
//!   one shared compressed arena plus an *incrementally maintained*
//!   inverted user → set index (tombstone + append + periodic compaction,
//!   never a post-build counting rebuild); a store is built whole once and
//!   afterwards only has sets replaced,
//! * [`sharded`] — [`ShardedRrStore`]: an item's sets partitioned across
//!   `S` shards (deterministic `id mod S` placement), each shard owning
//!   its own arena and index; estimates are shard-count-independent.
//!   Build and refresh run as (item × shard) tasks on the suite's one
//!   work-queue (`imdpp_diffusion::par`),
//! * [`sampler`] — RR-set sampling with deterministic per-sample RNG
//!   streams (thread-count-independent, replayable in isolation),
//! * [`incremental`] — invalidate-and-resample maintenance that reuses every
//!   RR set a preference drift or an *edge update* (strength change,
//!   insertion, deletion) could not have touched,
//! * [`maintain`] — maintained-solution repair: intersect a refresh's
//!   touched users with a cached greedy trace, re-run CELF from
//!   the first invalidated position, and keep the repaired seed set while
//!   it stays within a configurable bound of fresh greedy,
//! * [`oracle`] — [`SketchOracle`], the `imdpp_core::SpreadOracle`
//!   implementation callers plug into nominee selection and baselines; every
//!   answer, a single query included, comes from one batched coverage pass
//!   (64 queries per chunk), and its `imdpp_core::RefreshableOracle::refresh`
//!   is the one entry point that moves the sketch to a drifted world,
//! * [`overlay`] — copy-on-write tenant views: [`SketchPatch`] holds the RR
//!   sets a tenant's preference deltas invalidate, replayed from their own
//!   streams against the tenant's scenario; [`PatchedSketch`] answers
//!   through the base sketch's coverage pass, which moves each replaced
//!   set's query hits from its base version to its replacement,
//! * [`dispatch`] — [`ConfiguredOracle`], the one place the
//!   `DysimConfig::oracle` knob resolves to a concrete estimator (consumed
//!   by the `imdpp-engine` `Engine`),
//! * [`telemetry`] — [`SketchMetrics`], the pre-resolved `imdpp-obs`
//!   handles the build and refresh tasks record into (per-shard
//!   wall-clock, sampled/resampled-set counters, frontier sizes); recording
//!   never feeds the RNG, so metered runs stay bit-identical.
//!
//! See `docs/ARCHITECTURE.md` for when to pick the sketch oracle over
//! forward Monte-Carlo, and `docs/QUICKSTART.md` for a guided tour.
//!
//! # Example: build, query, and incrementally maintain a sketch
//!
//! ```
//! use imdpp_diffusion::scenario::toy_scenario;
//! use imdpp_graph::{EdgeUpdate, ItemId, UserId};
//! use imdpp_sketch::{RefreshableOracle, ScenarioUpdate};
//! use imdpp_sketch::{SketchConfig, SketchOracle, SpreadOracle};
//!
//! let scenario = toy_scenario();
//! let config = SketchConfig::fixed(512).with_base_seed(7);
//! let mut oracle = SketchOracle::build(&scenario, config);
//!
//! // f(N) answered from the amortized RR pool.
//! let f = oracle.static_spread(&[(UserId(0), ItemId(0))]);
//! assert!(f >= 1.0);
//!
//! // An influence edge strengthens between promotions: re-sample only the
//! // RR sets whose traversal could have crossed it...
//! let update = ScenarioUpdate::Edges(vec![EdgeUpdate::Reweight {
//!     src: UserId(0),
//!     dst: UserId(1),
//!     weight: 0.9,
//! }]);
//! let drifted = update.apply(&scenario);
//! let (stats, _touched) = oracle.refresh(&drifted, &update);
//! assert!(stats.resampled_sets < stats.total_sets);
//!
//! // ...and the refreshed sketch is bit-identical to a from-scratch rebuild.
//! let rebuilt = SketchOracle::build(&drifted, config);
//! assert_eq!(
//!     oracle.static_spread(&[(UserId(0), ItemId(0))]),
//!     rebuilt.static_spread(&[(UserId(0), ItemId(0))]),
//! );
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arena;
pub mod dispatch;
pub mod incremental;
pub mod maintain;
pub mod oracle;
pub mod overlay;
pub mod persist;
pub mod sampler;
pub mod sharded;
pub mod store;
pub mod telemetry;

pub use arena::SetMembers;
pub use dispatch::ConfiguredOracle;
pub use incremental::{edge_update_frontier, RefreshStats};
pub use maintain::{first_invalidated_position, repair_nominees, RepairOutcome, RepairStats};
pub use oracle::SketchOracle;
pub use overlay::{PatchedSketch, SketchPatch};
pub use sharded::ShardedRrStore;
pub use store::{IndexStats, SetId};
pub use telemetry::SketchMetrics;

pub use imdpp_core::{RefreshableOracle, ScenarioUpdate, SpreadOracle};
pub use imdpp_graph::{EdgeUpdate, ItemId, UserId};

/// Construction parameters of a [`SketchOracle`].
///
/// The pool is fixed: each item holds `initial_sets` RR sets from
/// construction on, and a refresh replaces sets in place without growing
/// the pool.  Dysim's TMI reads `f(N)` from one pool per epoch, and
/// refresh-equals-rebuild is stated over that fixed pool.
#[derive(Clone, Copy, Debug)]
pub struct SketchConfig {
    /// Base seed of the deterministic per-set RNG streams.
    pub base_seed: u64,
    /// RR sets sampled per item at construction.
    pub initial_sets: usize,
    /// Worker threads for the (item × shard) build and refresh tasks.
    ///
    /// This is *the* definition of the convention every path follows
    /// (resolved by `imdpp_diffusion::par::effective_threads`):
    ///
    /// * **`0` means auto** — use every core `available_parallelism`
    ///   reports,
    /// * any explicit count is capped at `available_parallelism` and at
    ///   the available work (the tasks of one build or refresh), and floors
    ///   at 1 (sequential),
    /// * the unit of parallelism is **one shard of one item**: a build or
    ///   refresh spreads `items × shards` tasks over the workers.
    ///
    /// Results are bit-identical for every value — each RR set is its own
    /// deterministic RNG stream (`set id == stream id`), so the thread
    /// count only changes wall-clock, never estimates, seeds or refresh
    /// statistics.
    pub threads: usize,
    /// Shards each item's RR store is partitioned across (`0` is treated
    /// as `1`).  Set → shard assignment is the pure function
    /// `id mod shards`, so estimates and refresh results are
    /// shard-count-independent.
    pub shards: usize,
}

impl Default for SketchConfig {
    fn default() -> Self {
        SketchConfig {
            base_seed: 7,
            initial_sets: 256,
            threads: 0, // auto: every available core (see the field docs)
            shards: 1,
        }
    }
}

impl SketchConfig {
    /// The default configuration with `sets` RR sets per item.
    pub fn fixed(sets: usize) -> Self {
        SketchConfig {
            initial_sets: sets,
            ..SketchConfig::default()
        }
    }

    /// Replaces the base RNG seed.
    pub fn with_base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Replaces the worker-thread count (`0` = auto; see
    /// [`SketchConfig::threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Replaces the shard count of each item's RR store.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_config_disables_growth() {
        let c = SketchConfig::fixed(100)
            .with_base_seed(5)
            .with_threads(2)
            .with_shards(4);
        assert_eq!(c.initial_sets, 100);
        assert_eq!(c.base_seed, 5);
        assert_eq!(c.threads, 2);
        assert_eq!(c.shards, 4);
    }

    #[test]
    fn default_config_is_sane() {
        let c = SketchConfig::default();
        assert!(c.initial_sets > 0);
        assert_eq!(c.threads, 0, "default threads is 0 = auto");
        assert_eq!(c.shards, 1);
    }
}
