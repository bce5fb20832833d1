//! The one dispatch point for [`OracleKind`]: [`ConfiguredOracle`] resolves
//! the estimator knob of a `DysimConfig` to a concrete
//! [`SpreadOracle`]/[`RefreshableOracle`] implementation.
//!
//! `imdpp-core` owns the drivers but cannot construct the RR sketch without
//! a dependency cycle, so the knob is honoured *here* and consumed by the
//! `imdpp-engine` `Engine`:
//!
//! * [`OracleKind::MonteCarlo`] — the owned forward Monte-Carlo oracle
//!   ([`MonteCarloOracle`]), the paper's reference estimator,
//! * [`OracleKind::RrSketch`] — a [`SketchOracle`] with a fixed pool per
//!   item, built once and *refreshed* through the sample-reuse paths when
//!   the world drifts.
//!
//! # Example
//!
//! ```
//! use imdpp_core::{OracleKind, SpreadOracle};
//! use imdpp_diffusion::scenario::toy_scenario;
//! use imdpp_graph::{ItemId, UserId};
//! use imdpp_sketch::dispatch::ConfiguredOracle;
//!
//! let scenario = toy_scenario();
//! let mc = ConfiguredOracle::build(&scenario, OracleKind::MonteCarlo, 8, 7);
//! let sk = ConfiguredOracle::build(
//!     &scenario,
//!     OracleKind::RrSketch { sets_per_item: 512, shards: 2, threads: 0 },
//!     8,
//!     7,
//! );
//! let nominees = [(UserId(0), ItemId(0))];
//! assert!(mc.static_spread(&nominees) >= 1.0);
//! assert!(sk.static_spread(&nominees) >= 1.0);
//! ```

use crate::{SketchConfig, SketchOracle};
use imdpp_core::nominees::Nominee;
use imdpp_core::oracle::{OracleKind, RefreshStats, RefreshableOracle, ScenarioUpdate};
use imdpp_core::{MonteCarloOracle, SpreadOracle};
use imdpp_diffusion::Scenario;
use imdpp_graph::UserId;
use imdpp_obs::Telemetry;

/// The sketch configuration an [`OracleKind::RrSketch`] knob resolves to: a
/// fixed pool of `sets_per_item` sets per item (see [`SketchConfig`]),
/// seeded from the run's base seed, partitioned across `shards` shards per
/// item (`0` is clamped to `1`, the flat store) and built /
/// refreshed by `threads` workers (`0` = auto; see
/// [`SketchConfig::threads`] — results are thread-count-independent).
pub fn sketch_config_for(
    base_seed: u64,
    sets_per_item: usize,
    shards: usize,
    threads: usize,
) -> SketchConfig {
    SketchConfig::fixed(sets_per_item)
        .with_base_seed(base_seed)
        .with_shards(shards.max(1))
        .with_threads(threads)
}

/// A concrete estimator resolved from an [`OracleKind`] knob.
///
/// Both variants implement [`SpreadOracle`] and [`RefreshableOracle`], so a
/// `ConfiguredOracle` can drive nominee selection, the adaptive loop, and
/// the engine's incremental refresh regardless of which estimator the
/// configuration picked.
#[derive(Clone, Debug)]
pub enum ConfiguredOracle {
    /// The owned forward Monte-Carlo estimator.
    MonteCarlo(MonteCarloOracle),
    /// The RR-sketch estimator with a fixed per-item pool.
    RrSketch(SketchOracle),
}

impl ConfiguredOracle {
    /// Resolves `kind` against `scenario`.
    ///
    /// `mc_samples` and `base_seed` come from the run's `DysimConfig`
    /// (`mc_samples` only matters for the Monte-Carlo variant; `base_seed`
    /// seeds both estimators so runs stay deterministic).
    ///
    /// # Panics
    /// With [`OracleKind::RrSketch`] on a Linear Threshold scenario: the RR
    /// sketch encodes the Independent Cascade triggering distribution (see
    /// [`SketchOracle::build`]).  The `imdpp-engine` builder rejects that
    /// combination with a typed error before reaching this point.
    pub fn build(scenario: &Scenario, kind: OracleKind, mc_samples: usize, base_seed: u64) -> Self {
        Self::build_with_telemetry(
            scenario,
            kind,
            mc_samples,
            base_seed,
            &Telemetry::disabled(),
        )
    }

    /// [`ConfiguredOracle::build`] recording into `telemetry` (the engine's
    /// path).  The Monte-Carlo variant carries no sketch-side metrics; the
    /// RR-sketch variant resolves its [`crate::SketchMetrics`] against the
    /// registry so shard workers and refreshes are observable.  Either way
    /// the resolved oracle is bit-identical to the unmetered one.
    ///
    /// # Panics
    /// Same contract as [`ConfiguredOracle::build`].
    pub fn build_with_telemetry(
        scenario: &Scenario,
        kind: OracleKind,
        mc_samples: usize,
        base_seed: u64,
        telemetry: &Telemetry,
    ) -> Self {
        match kind {
            OracleKind::MonteCarlo => {
                ConfiguredOracle::MonteCarlo(MonteCarloOracle::new(scenario, mc_samples, base_seed))
            }
            OracleKind::RrSketch {
                sets_per_item,
                shards,
                threads,
            } => ConfiguredOracle::RrSketch(SketchOracle::build_with_telemetry(
                scenario,
                sketch_config_for(base_seed, sets_per_item, shards, threads),
                telemetry,
            )),
        }
    }

    /// The knob this oracle was resolved from.
    pub fn kind(&self) -> OracleKind {
        match self {
            ConfiguredOracle::MonteCarlo(_) => OracleKind::MonteCarlo,
            ConfiguredOracle::RrSketch(s) => OracleKind::RrSketch {
                sets_per_item: s.config().initial_sets,
                shards: s.shard_count(),
                threads: s.config().threads,
            },
        }
    }

    /// The underlying sketch, when the RR-sketch variant was selected.
    pub fn as_sketch(&self) -> Option<&SketchOracle> {
        match self {
            ConfiguredOracle::RrSketch(s) => Some(s),
            ConfiguredOracle::MonteCarlo(_) => None,
        }
    }

    /// The frozen scenario the estimator currently targets.
    pub fn scenario(&self) -> &Scenario {
        match self {
            ConfiguredOracle::MonteCarlo(o) => o.scenario(),
            ConfiguredOracle::RrSketch(o) => o.scenario(),
        }
    }
}

impl SpreadOracle for ConfiguredOracle {
    fn static_spread(&self, nominees: &[Nominee]) -> f64 {
        match self {
            ConfiguredOracle::MonteCarlo(o) => o.static_spread(nominees),
            ConfiguredOracle::RrSketch(o) => o.static_spread(nominees),
        }
    }

    /// Forwards to the inner oracle's batch pass: the RR sketch decodes
    /// each arena once per chunk of queries, forward Monte-Carlo runs every
    /// query's samples on one work-queue.
    fn static_spread_batch(&self, queries: &[&[Nominee]]) -> Vec<f64> {
        match self {
            ConfiguredOracle::MonteCarlo(o) => o.static_spread_batch(queries),
            ConfiguredOracle::RrSketch(o) => o.static_spread_batch(queries),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            ConfiguredOracle::MonteCarlo(o) => o.name(),
            ConfiguredOracle::RrSketch(o) => o.name(),
        }
    }
}

impl RefreshableOracle for ConfiguredOracle {
    /// Dispatches to the inner oracle: the RR sketch reports its per-item
    /// touched users (the input of the engine's maintained-solution
    /// repair); forward Monte-Carlo has no notion of touched coverage and
    /// returns `None`.
    fn refresh(
        &mut self,
        updated: &Scenario,
        update: &ScenarioUpdate,
    ) -> (RefreshStats, Option<Vec<Vec<UserId>>>) {
        match self {
            ConfiguredOracle::MonteCarlo(o) => o.refresh(updated, update),
            ConfiguredOracle::RrSketch(o) => o.refresh(updated, update),
        }
    }

    fn begin_round(&mut self, round: u32) {
        match self {
            ConfiguredOracle::MonteCarlo(o) => o.begin_round(round),
            ConfiguredOracle::RrSketch(o) => o.begin_round(round),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imdpp_diffusion::scenario::toy_scenario;
    use imdpp_graph::ItemId;

    #[test]
    fn dispatch_resolves_both_kinds() {
        let s = toy_scenario();
        let mc = ConfiguredOracle::build(&s, OracleKind::MonteCarlo, 8, 13);
        assert_eq!(mc.kind(), OracleKind::MonteCarlo);
        assert_eq!(mc.name(), "monte-carlo");
        assert!(mc.as_sketch().is_none());

        let sk = ConfiguredOracle::build(
            &s,
            OracleKind::RrSketch {
                sets_per_item: 128,
                shards: 1,
                threads: 0,
            },
            8,
            13,
        );
        assert_eq!(
            sk.kind(),
            OracleKind::RrSketch {
                sets_per_item: 128,
                shards: 1,
                threads: 0,
            }
        );
        assert_eq!(sk.name(), "rr-sketch");
        assert!(sk.as_sketch().is_some());

        // The shards knob survives the round-trip (0 clamps to 1).
        let sharded = ConfiguredOracle::build(
            &s,
            OracleKind::RrSketch {
                sets_per_item: 128,
                shards: 4,
                threads: 0,
            },
            8,
            13,
        );
        assert_eq!(
            sharded.kind(),
            OracleKind::RrSketch {
                sets_per_item: 128,
                shards: 4,
                threads: 0,
            }
        );
        let clamped = ConfiguredOracle::build(
            &s,
            OracleKind::RrSketch {
                sets_per_item: 64,
                shards: 0,
                threads: 0,
            },
            8,
            13,
        );
        assert_eq!(
            clamped.kind(),
            OracleKind::RrSketch {
                sets_per_item: 64,
                shards: 1,
                threads: 0,
            }
        );
    }

    #[test]
    fn dispatch_matches_the_direct_constructions() {
        let s = toy_scenario();
        let nominees = [(UserId(0), ItemId(0)), (UserId(2), ItemId(1))];

        let mc = ConfiguredOracle::build(&s, OracleKind::MonteCarlo, 8, 13);
        let direct_mc = MonteCarloOracle::new(&s, 8, 13);
        assert_eq!(
            mc.static_spread(&nominees),
            direct_mc.static_spread(&nominees)
        );

        let sk = ConfiguredOracle::build(
            &s,
            OracleKind::RrSketch {
                sets_per_item: 256,
                shards: 2,
                threads: 0,
            },
            8,
            13,
        );
        let direct_sk = SketchOracle::build(&s, sketch_config_for(13, 256, 2, 0));
        assert_eq!(
            sk.static_spread(&nominees),
            direct_sk.static_spread(&nominees)
        );
        assert_eq!(
            sk.marginal_gain(&nominees[..1], nominees[1]),
            direct_sk.marginal_gain(&nominees[..1], nominees[1])
        );
    }

    #[test]
    fn batched_dispatch_matches_per_query_calls_for_both_kinds() {
        let s = toy_scenario();
        // More than 64 queries, items interleaved, with duplicate, repeated
        // and empty queries.
        let owned: Vec<Vec<(UserId, ItemId)>> = (0..70u32)
            .map(|i| match i % 4 {
                0 => vec![(UserId(i % 6), ItemId(3 - i % 4))],
                1 => vec![(UserId(2), ItemId(1)), (UserId(1), ItemId(i % 3))],
                2 => vec![],
                _ => vec![(UserId(4), ItemId(0)), (UserId(4), ItemId(0))],
            })
            .collect();
        let queries: Vec<&[(UserId, ItemId)]> = owned.iter().map(|q| q.as_slice()).collect();
        for kind in [
            OracleKind::MonteCarlo,
            OracleKind::RrSketch {
                sets_per_item: 128,
                shards: 2,
                threads: 0,
            },
        ] {
            let oracle = ConfiguredOracle::build(&s, kind, 8, 13);
            let batched = oracle.static_spread_batch(&queries);
            for (q, nominees) in queries.iter().enumerate() {
                assert_eq!(
                    batched[q].to_bits(),
                    oracle.static_spread(nominees).to_bits(),
                    "{kind:?}, query {q}"
                );
            }
        }
    }

    #[test]
    fn refresh_dispatches_to_the_inner_oracle() {
        let s = toy_scenario();
        let update = ScenarioUpdate::Preferences(vec![(UserId(1), ItemId(2), 0.9)]);
        let drifted = update.apply(&s);

        let mut mc = ConfiguredOracle::build(&s, OracleKind::MonteCarlo, 8, 13);
        let (stats, touched) = mc.refresh(&drifted, &update);
        assert_eq!(stats.resampled_fraction(), 1.0);
        assert!(touched.is_none(), "Monte-Carlo tracks no coverage");

        let mut sk = ConfiguredOracle::build(
            &s,
            OracleKind::RrSketch {
                sets_per_item: 128,
                shards: 1,
                threads: 0,
            },
            8,
            13,
        );
        let (stats, touched) = sk.refresh(&drifted, &update);
        assert!((0.0..1.0).contains(&stats.resampled_fraction()));
        assert_eq!(touched.map(|t| t.len()), Some(s.item_count()));
        assert_eq!(stats.full_rebuilds, 0);
        assert_eq!(sk.scenario().base_preference(UserId(1), ItemId(2)), 0.9);
    }
}
