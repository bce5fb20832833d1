//! The [`SpreadOracle`] estimation interface and its dynamic-maintenance
//! extension [`RefreshableOracle`].
//!
//! Nominee selection (Procedure 2), the Dysim driver's TMI stage and the
//! RIS-flavoured baselines only ever query one quantity: the *static
//! first-promotion spread* `f(N)` of a nominee set under frozen dynamics
//! (the conditions of Lemma 1 that make `f` monotone and submodular).  This
//! module abstracts over how `f` is estimated so callers can choose the
//! estimator:
//!
//! * **forward Monte-Carlo** ([`crate::eval::Evaluator`], or the owned
//!   [`crate::eval::MonteCarloOracle`]) — the paper's reference estimator;
//!   unbiased for any dynamics but pays a full simulation per query,
//! * **reverse-reachable sketching** (`imdpp-sketch`'s `SketchOracle`) —
//!   amortizes sampling across queries by maintaining a pool of RR sets per
//!   item; orders of magnitude cheaper per query and incrementally
//!   maintainable when perceptions drift or influence edges change between
//!   promotions.
//!
//! Which estimator a config-driven run uses is selected by
//! [`OracleKind`] on [`crate::dysim::DysimConfig`]; the dispatch lives in
//! `imdpp_sketch::dispatch` and is driven by the `imdpp-engine` `Engine`
//! (this crate cannot construct the sketch without a dependency cycle).
//! See `docs/ARCHITECTURE.md` for guidance on picking an implementation.
//!
//! # Example: a custom oracle drives nominee selection
//!
//! ```
//! use imdpp_core::nominees::{select_nominees_with_oracle, NomineeSelectionConfig};
//! use imdpp_core::{CostModel, ImdppInstance, SpreadOracle};
//! use imdpp_core::nominees::Nominee;
//! use imdpp_diffusion::scenario::toy_scenario;
//!
//! /// A toy estimator: f(N) = number of distinct users in N.
//! struct DistinctUsers;
//! impl SpreadOracle for DistinctUsers {
//!     fn static_spread(&self, nominees: &[Nominee]) -> f64 {
//!         let mut users: Vec<u32> = nominees.iter().map(|(u, _)| u.0).collect();
//!         users.sort_unstable();
//!         users.dedup();
//!         users.len() as f64
//!     }
//! }
//!
//! let scenario = toy_scenario();
//! let costs = CostModel::uniform(scenario.user_count(), scenario.item_count(), 1.0);
//! let instance = ImdppInstance::new(scenario, costs, 2.0, 1).unwrap();
//! let universe = instance.nominee_universe(None);
//! let selection = select_nominees_with_oracle(
//!     &instance,
//!     &DistinctUsers,
//!     &universe,
//!     &NomineeSelectionConfig::default(),
//! );
//! assert_eq!(selection.nominees.len(), 2); // budget 2.0 at unit cost
//! ```

use crate::nominees::Nominee;
use imdpp_diffusion::Scenario;
use imdpp_graph::{EdgeUpdate, ItemId, UserId};

/// An estimator of the static first-promotion spread `f(N)`.
///
/// Implementations must target the same quantity:
/// the expected importance-weighted number of adoptions when every nominee
/// `(u, x)` is seeded in promotion 1 with `P_pref`, `P_act`, `P_ext` frozen
/// at their initial values.  Estimates should be deterministic for a fixed
/// construction seed so that greedy selections are reproducible.
pub trait SpreadOracle {
    /// Estimates `f(nominees)`.  Must return `0.0` for the empty set.
    fn static_spread(&self, nominees: &[Nominee]) -> f64;

    /// Estimates `f` of every query in one call.
    ///
    /// Contract: `results[q]` has the same bits as
    /// `self.static_spread(queries[q])`, so a caller may batch any set of
    /// queries that do not depend on one another (CELF's initial gains, a
    /// plain-greedy round) without changing a single comparison.  The
    /// default loops over [`SpreadOracle::static_spread`]; estimators with
    /// a shared pass override it — the RR sketch decodes each item's arena
    /// once per chunk of queries, forward Monte-Carlo runs every query's
    /// samples on one work-queue.
    fn static_spread_batch(&self, queries: &[&[Nominee]]) -> Vec<f64> {
        queries.iter().map(|q| self.static_spread(q)).collect()
    }

    /// Estimates the marginal gain `f(base ∪ {candidate}) − f(base)`.
    ///
    /// The default recomputes both sides; sketch-backed implementations can
    /// answer from coverage counters without re-estimating `base`.
    fn marginal_gain(&self, base: &[Nominee], candidate: Nominee) -> f64 {
        let mut with = base.to_vec();
        with.push(candidate);
        self.static_spread(&with) - self.static_spread(base)
    }

    /// A short human-readable name for logs and benchmark labels.
    fn name(&self) -> &'static str {
        "oracle"
    }
}

/// Which estimator answers the `f(N)` queries of a config-driven Dysim run.
///
/// Stored on [`crate::dysim::DysimConfig`]; honoured by
/// `imdpp_sketch::dispatch::ConfiguredOracle` and hence by every
/// `imdpp-engine` `Engine`.  [`crate::dysim::Dysim::solve_with`] itself
/// takes the oracle as an explicit argument.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OracleKind {
    /// Forward Monte-Carlo (the paper's reference estimator); sample count
    /// taken from `DysimConfig::mc_samples`.
    #[default]
    MonteCarlo,
    /// The `imdpp-sketch` RR-sketch oracle with a fixed pool size per item.
    /// Requires the Independent Cascade triggering model.
    RrSketch {
        /// RR sets sampled per catalogue item.
        sets_per_item: usize,
        /// Shards each item's RR store is partitioned across (`1` = the
        /// flat store; `0` is treated as `1`).  Sharding changes memory
        /// layout and maintenance locality only — estimates and greedy
        /// selections are shard-count-independent.
        shards: usize,
        /// Worker threads for sampling and shard-parallel build/refresh
        /// (`0` = auto, capped at the machine's cores; the convention is
        /// defined on `imdpp_sketch::SketchConfig::threads`).  Estimates,
        /// seeds and refresh statistics are thread-count-independent.
        threads: usize,
    },
}

/// Statistics of one [`RefreshableOracle::refresh`] — how much amortized
/// state the update forced the estimator to recompute.
///
/// Sketch-backed estimators fill the set counters and the inverted-index
/// maintenance counters; estimators without amortized state (forward
/// Monte-Carlo) report [`RefreshStats::full_rebuild`].  The engine surfaces
/// the value on every `ApplyReport` so tests can pin the maintenance regime
/// (e.g. `full_rebuilds == 0` on localized updates) instead of only benches
/// noticing regressions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[must_use = "refresh stats carry the full-rebuild counters tests pin; dropping them hides rebuild regressions"]
pub struct RefreshStats {
    /// Total RR sets across the refreshed stores (0 for non-sketch
    /// estimators).
    pub total_sets: usize,
    /// Sets that were invalidated and re-sampled.
    pub resampled_sets: usize,
    /// Stores (items) refreshed.
    pub stores: usize,
    /// Inverted-index entries tombstoned or appended while patching the
    /// re-sampled sets in.
    pub index_entries_patched: u64,
    /// Full counting-pass index rebuilds the refresh performed — the
    /// quantity incremental maintenance exists to keep at zero.
    pub full_rebuilds: u64,
}

impl RefreshStats {
    /// What an estimator with no amortized state reports: everything
    /// recomputed ([`RefreshStats::resampled_fraction`] = 1.0).
    pub fn full_rebuild() -> Self {
        RefreshStats {
            full_rebuilds: 1,
            ..RefreshStats::default()
        }
    }

    /// Fraction of amortized state recomputed: the resampled set fraction
    /// for sketches, `1.0` for full-rebuild estimators, `0.0` for an empty
    /// refresh.
    pub fn resampled_fraction(&self) -> f64 {
        if self.total_sets == 0 {
            if self.full_rebuilds > 0 {
                1.0
            } else {
                0.0
            }
        } else {
            self.resampled_sets as f64 / self.total_sets as f64
        }
    }

    /// Fraction of sets whose samples were reused.
    pub fn reused_fraction(&self) -> f64 {
        1.0 - self.resampled_fraction()
    }

    /// Accumulates another store's refresh into this one.
    pub fn absorb(&mut self, other: RefreshStats) {
        self.total_sets += other.total_sets;
        self.resampled_sets += other.resampled_sets;
        self.stores += other.stores;
        self.index_entries_patched += other.index_entries_patched;
        self.full_rebuilds += other.full_rebuilds;
    }
}

/// A description of what changed in the world between two adaptive
/// promotion rounds — the update stream [`RefreshableOracle::refresh`]
/// consumes.
///
/// Each variant carries the *new* values, so the same value both transforms
/// a [`Scenario`] (via [`ScenarioUpdate::apply`]) and tells an incremental
/// estimator which part of its state the change could have touched.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioUpdate {
    /// Base preferences moved: each `(u, x, p)` sets `P_pref(u, x, 0) = p`.
    Preferences(Vec<(UserId, ItemId, f64)>),
    /// Influence edges were inserted, removed or re-weighted.
    Edges(Vec<EdgeUpdate>),
}

impl ScenarioUpdate {
    /// Applies the update to a scenario, returning the drifted world.
    pub fn apply(&self, scenario: &Scenario) -> Scenario {
        match self {
            ScenarioUpdate::Preferences(changes) => scenario.with_base_preferences(changes),
            ScenarioUpdate::Edges(updates) => scenario.with_edge_updates(updates),
        }
    }

    /// True when the update carries no changes at all.
    pub fn is_empty(&self) -> bool {
        match self {
            ScenarioUpdate::Preferences(c) => c.is_empty(),
            ScenarioUpdate::Edges(u) => u.is_empty(),
        }
    }
}

/// A [`SpreadOracle`] that can migrate its internal state to a drifted
/// scenario *incrementally* instead of being rebuilt.
///
/// The adaptive Dysim loop
/// ([`crate::adaptive::adaptive_dysim_with_oracle`]) calls
/// [`RefreshableOracle::refresh`] once per applied [`ScenarioUpdate`];
/// sketch-backed implementations re-sample only the RR sets the change
/// could have touched, while the Monte-Carlo implementation simply swaps
/// the scenario (its per-query simulations have no amortized state).
pub trait RefreshableOracle: SpreadOracle {
    /// Migrates the oracle to `updated`, which must equal
    /// `update.apply(previous_scenario)` for the scenario the oracle
    /// currently estimates against — the one entry point every update
    /// goes through.
    ///
    /// Returns what the migration cost — see [`RefreshStats`]
    /// ([`RefreshStats::resampled_fraction`] is `0.0` when everything was
    /// reused, `1.0` for a full rebuild) — and, for estimators with
    /// amortized coverage state, the **touched users of each item**: a
    /// nominee `(u, x)` with `u` absent from `touched[x]` kept every
    /// estimate it contributes to bit-identical through the refresh (the
    /// certificate maintained-solution repair rests on).  Estimators
    /// without such state (forward Monte-Carlo) return `None`.
    fn refresh(
        &mut self,
        updated: &Scenario,
        update: &ScenarioUpdate,
    ) -> (RefreshStats, Option<Vec<Vec<UserId>>>);

    /// Called at the start of each promotion round `t` (1-based) of the
    /// adaptive loop.  Per-query estimators use it to rotate their sampling
    /// streams the way the paper's reference loop re-seeds per round
    /// (`base_seed + t`); amortized estimators like the RR sketch keep the
    /// default no-op — reusing the same pool across rounds is their point.
    fn begin_round(&mut self, _round: u32) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use imdpp_diffusion::scenario::toy_scenario;
    use imdpp_graph::{ItemId, UserId};

    /// A toy oracle: f(N) = number of distinct users in N.
    struct DistinctUsers;

    impl SpreadOracle for DistinctUsers {
        fn static_spread(&self, nominees: &[Nominee]) -> f64 {
            let mut users: Vec<u32> = nominees.iter().map(|(u, _)| u.0).collect();
            users.sort_unstable();
            users.dedup();
            users.len() as f64
        }
    }

    #[test]
    fn default_marginal_gain_is_a_difference() {
        let oracle = DistinctUsers;
        let base = [(UserId(0), ItemId(0)), (UserId(1), ItemId(0))];
        assert_eq!(oracle.marginal_gain(&base, (UserId(0), ItemId(1))), 0.0);
        assert_eq!(oracle.marginal_gain(&base, (UserId(2), ItemId(0))), 1.0);
        assert_eq!(oracle.static_spread(&[]), 0.0);
        assert_eq!(oracle.name(), "oracle");
    }

    #[test]
    fn default_batch_is_the_per_query_loop() {
        let oracle = DistinctUsers;
        let a = [(UserId(0), ItemId(0)), (UserId(1), ItemId(0))];
        let b = [(UserId(2), ItemId(1))];
        // More than 64 queries, with empty and repeated ones.
        let queries: Vec<&[Nominee]> = (0..70).map(|i| [&a[..], &[], &b][i % 3]).collect();
        let expected: Vec<f64> = (0..70).map(|i| [2.0, 0.0, 1.0][i % 3]).collect();
        assert_eq!(oracle.static_spread_batch(&queries), expected);
        assert!(oracle.static_spread_batch(&[]).is_empty());
    }

    #[test]
    fn default_oracle_kind_is_monte_carlo() {
        assert_eq!(OracleKind::default(), OracleKind::MonteCarlo);
    }

    #[test]
    fn refresh_stats_fractions_and_absorb() {
        let full = RefreshStats::full_rebuild();
        assert_eq!(full.resampled_fraction(), 1.0);
        assert_eq!(RefreshStats::default().resampled_fraction(), 0.0);

        let mut a = RefreshStats {
            total_sets: 10,
            resampled_sets: 2,
            stores: 1,
            index_entries_patched: 7,
            full_rebuilds: 0,
        };
        a.absorb(RefreshStats {
            total_sets: 30,
            resampled_sets: 3,
            stores: 1,
            index_entries_patched: 5,
            full_rebuilds: 0,
        });
        assert_eq!(a.total_sets, 40);
        assert_eq!(a.resampled_sets, 5);
        assert_eq!(a.stores, 2);
        assert_eq!(a.index_entries_patched, 12);
        assert!((a.resampled_fraction() - 0.125).abs() < 1e-12);
        assert!((a.reused_fraction() - 0.875).abs() < 1e-12);
    }

    #[test]
    fn scenario_update_applies_preferences_and_edges() {
        let s = toy_scenario();
        let prefs = ScenarioUpdate::Preferences(vec![(UserId(1), ItemId(2), 0.9)]);
        let s2 = prefs.apply(&s);
        assert_eq!(s2.base_preference(UserId(1), ItemId(2)), 0.9);

        let edges = ScenarioUpdate::Edges(vec![EdgeUpdate::Reweight {
            src: UserId(0),
            dst: UserId(1),
            weight: 0.95,
        }]);
        let s3 = edges.apply(&s);
        assert_eq!(s3.social().influence(UserId(0), UserId(1)), 0.95);

        assert!(!prefs.is_empty());
        assert!(ScenarioUpdate::Edges(Vec::new()).is_empty());
        assert!(ScenarioUpdate::Preferences(Vec::new()).is_empty());
    }
}
