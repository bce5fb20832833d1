//! # imdpp-engine
//!
//! The snapshot-isolated session façade of the IMDPP suite: one long-lived
//! [`Engine`] gives config-driven runs the shape a serving system needs —
//! *build once, query many times, refresh incrementally as the world
//! drifts*.
//!
//! ## Snapshot isolation
//!
//! Internally the engine owns an immutable [`EngineSnapshot`] — the current
//! [`ImdppInstance`] plus the estimator resolved from
//! [`OracleKind`] — behind an [`Arc`] that is swapped atomically.  Any
//! number of reader threads can call [`Engine::spread`] /
//! [`Engine::solve`] (or pin an epoch explicitly with
//! [`Engine::snapshot`]) while a single writer applies a
//! [`ScenarioUpdate`] through [`Engine::apply`]:
//!
//! * readers never block on a refresh — the writer prepares the next
//!   snapshot *outside* the lock (incrementally, via
//!   [`RefreshableOracle::refresh`])
//!   and only the pointer swap is synchronized,
//! * every read observes a *consistent epoch*: scenario and sketch always
//!   match, never a torn intermediate (property-tested in
//!   `tests/engine_snapshot.rs`),
//! * sketch-backed engines refresh by re-sampling only the RR sets an
//!   update could have touched, and the refreshed snapshot is bit-identical
//!   to rebuilding from scratch against the drifted world.
//!
//! ## Maintained solutions
//!
//! Sketch-backed engines additionally keep the last solve's report alive
//! across applies (controlled by [`DysimConfig::maintain_bound`], on by
//! default).  Each epoch's solution lives in its own snapshot, in a
//! write-once cell: the first [`Engine::solve`] of an epoch fills it, and
//! each [`Engine::apply`] intersects the refresh's touched users with the
//! cached greedy trace, re-runs CELF only from the first invalidated
//! position, and publishes the next snapshot with the repaired report in
//! its cell while the report's sketch objective stays within the bound of a
//! fresh greedy run — leaving the cell empty, so the next solve runs the
//! full pipeline, otherwise.  A solution therefore cannot be served,
//! repaired or persisted at an epoch other than its own.  Each apply
//! reports what happened in [`ApplyReport::solve_repair`], and the
//! `engine.maintain.*` telemetry aggregates it.  See `docs/ARCHITECTURE.md`
//! ("Maintained solutions and the repair bound").
//!
//! ## Serving tier
//!
//! Three facilities turn the engine from a session into a server (see
//! `docs/ARCHITECTURE.md`, "Serving tier"):
//!
//! * [`SpreadBatch`] / [`Engine::static_spread_batch`] — many static-spread
//!   queries pinned to one epoch and answered in a single pass over the
//!   sharded RR store, decoding each arena once per batch instead of once
//!   per query; every answer is bit-identical to the single-query path,
//! * [`TenantOverlay`] / [`Engine::tenant`] — copy-on-write per-user
//!   perception overlays: N tenants share one base snapshot and each holds
//!   only the RR sets its preference deltas invalidated, yet every
//!   tenant-scoped estimate and solve is bit-identical to running N
//!   independent engines,
//! * [`Engine::persist`] / [`EngineBuilder::restore`] — warm restart: the
//!   sampled sketch, epoch counter and the persisted snapshot's maintained
//!   solution round-trip through disk so a restarted process serves
//!   immediately, re-sampling zero RR sets.
//!
//! ## Observability
//!
//! Every engine carries an `imdpp-obs` [`Telemetry`] registry (live by
//! default; pass [`Telemetry::disabled`] to [`EngineBuilder::telemetry`]
//! for a one-branch no-op).  The hot paths record solve / spread /
//! static-spread / apply latencies, writer-queue wait, refresh and
//! epoch-swap durations, snapshot pins, and fold each apply's
//! [`RefreshStats`] into registry counters; the sketch behind an
//! [`OracleKind::RrSketch`] engine records its per-shard build / refresh
//! wall-clock into the same registry.  Read it all back with
//! [`Engine::telemetry`].  Recording is write-only — it never feeds the RNG
//! or alters control flow, so seeds, estimates and refresh statistics stay
//! bit-identical with telemetry on, off, or sharded differently
//! (`tests/parallel_determinism.rs` asserts this across the grid).
//!
//! ## Example
//!
//! ```
//! use imdpp_diffusion::scenario::toy_scenario;
//! use imdpp_engine::Engine;
//! use imdpp_core::{EdgeUpdate, OracleKind, ScenarioUpdate, UserId};
//!
//! let engine = Engine::builder(toy_scenario())
//!     .budget(3.0)
//!     .promotions(2)
//!     .oracle(OracleKind::RrSketch { sets_per_item: 512, shards: 2, threads: 0 })
//!     .seed(7)
//!     .build()
//!     .unwrap();
//!
//! // Solve and query against epoch 0...
//! let seeds = engine.solve();
//! let sigma = engine.spread(&seeds);
//! assert!(sigma > 0.0);
//!
//! // ...then drift the world; the sketch refreshes incrementally and a new
//! // epoch is published atomically.
//! let update = ScenarioUpdate::Edges(vec![EdgeUpdate::Reweight {
//!     src: UserId(0),
//!     dst: UserId(1),
//!     weight: 0.9,
//! }]);
//! let applied = engine.apply(&update).unwrap();
//! assert_eq!(applied.epoch, 1);
//! assert!(!applied.was_empty); // a real update, so the fraction below is
//!                              // reuse at work, not a vacuous zero
//! assert!(applied.refresh_fraction < 1.0); // sample reuse, not a rebuild
//! assert_eq!(applied.refresh.full_rebuilds, 0); // index patched, not rebuilt
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use imdpp_core::adaptive::adaptive_dysim_with_oracle;
use imdpp_core::dysim::Dysim;
use imdpp_core::nominees::{Nominee, NomineeSelectionConfig};
use imdpp_core::oracle::SpreadOracle;
use imdpp_core::problem::{CostModel, ImdppInstance};
use imdpp_core::{Evaluator, RefreshableOracle};
use imdpp_diffusion::{DiffusionModel, Scenario, Seed, SeedGroup};
use imdpp_graph::{EdgeUpdate, UserId};
use imdpp_obs::{Counter, Gauge, Histogram};
use imdpp_sketch::maintain::repair_nominees;
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

mod persist;
mod serve;

pub use serve::{SpreadBatch, TenantOverlay};

pub use imdpp_core::adaptive::AdaptiveReport;
pub use imdpp_core::dysim::{DysimConfig, DysimReport};
pub use imdpp_core::oracle::{OracleKind, RefreshStats, ScenarioUpdate};
pub use imdpp_diffusion::ImdppError;
pub use imdpp_obs::{Telemetry, TelemetrySnapshot};
pub use imdpp_sketch::dispatch::ConfiguredOracle;
pub use imdpp_sketch::maintain::RepairStats;

/// An immutable, internally consistent view of the engine's world at one
/// epoch: the instance (scenario + costs + budget + promotions), the
/// resolved estimator, the driver configuration, and the epoch's
/// maintained solution once one exists.
///
/// Snapshots are shared via [`Arc`]: grab one with [`Engine::snapshot`] to
/// pin an epoch across several queries; single calls on [`Engine`] pin it
/// implicitly for their duration.
#[derive(Clone, Debug)]
pub struct EngineSnapshot {
    epoch: u64,
    instance: ImdppInstance,
    oracle: ConfiguredOracle,
    config: DysimConfig,
    /// This epoch's maintained solution, written once: at publication by
    /// the repair of the previous epoch's solution (or carried over by an
    /// empty update, or read from a persisted image), else by the first
    /// [`Engine::solve_report`] of the epoch.  Only a maintaining engine
    /// (see [`DysimConfig::maintain_bound`]) serves or repairs it.
    solution: OnceLock<DysimReport>,
}

impl EngineSnapshot {
    /// The epoch counter: 0 at [`EngineBuilder::build`], +1 per applied
    /// update.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The instance at this epoch.
    pub fn instance(&self) -> &ImdppInstance {
        &self.instance
    }

    /// The scenario at this epoch.
    pub fn scenario(&self) -> &Scenario {
        self.instance.scenario()
    }

    /// The resolved `f(N)` estimator at this epoch.
    pub fn oracle(&self) -> &ConfiguredOracle {
        &self.oracle
    }

    /// The driver configuration the engine was built with.
    pub fn config(&self) -> &DysimConfig {
        &self.config
    }

    /// Runs the full Dysim pipeline (TMI → DRE → TDSI) against this epoch
    /// and returns the seed group with diagnostics.
    pub fn solve_report(&self) -> DysimReport {
        Dysim::new(self.config.clone()).solve_with(&self.instance, &self.oracle)
    }

    /// Estimates the importance-aware influence spread `σ(S)` of a seed
    /// group against this epoch (forward Monte-Carlo over the full
    /// campaign; deterministic for a fixed engine seed).
    pub fn spread(&self, seeds: &SeedGroup) -> f64 {
        Evaluator::new(
            &self.instance,
            self.config.mc_samples,
            self.config.base_seed,
        )
        .spread(seeds)
    }

    /// Estimates the static first-promotion spread `f(N)` of a nominee set
    /// with this epoch's configured oracle.
    pub fn static_spread(&self, nominees: &[Nominee]) -> f64 {
        self.oracle.static_spread(nominees)
    }

    /// Answers many static-spread queries in one pass over this epoch's
    /// oracle: `results[q]` is bit-identical to
    /// `self.static_spread(queries[q])`, but sketch-backed snapshots decode
    /// each RR-set arena once for the whole batch instead of once per query
    /// (see [`crate::SpreadBatch`] for the engine-level API and the
    /// throughput gate in `benches/engine_concurrency.rs`).
    pub fn static_spread_batch(&self, queries: &[&[Nominee]]) -> Vec<f64> {
        self.oracle.static_spread_batch(queries)
    }
}

/// Outcome of one [`Engine::apply`] call.
#[derive(Clone, Copy, Debug, PartialEq)]
#[must_use = "apply reports carry the epoch and refresh/repair counters tests pin; dropping one hides maintenance regressions"]
pub struct ApplyReport {
    /// The epoch of the snapshot the update produced.
    pub epoch: u64,
    /// Whether the applied update was empty (no preference changes, no edge
    /// updates).  An empty update publishes a new epoch without touching the
    /// estimator, so it also reports `refresh_fraction == 0.0` — this flag
    /// disambiguates that vacuous zero from a non-empty batch whose refresh
    /// genuinely resampled nothing (e.g. no-op edge reweights).
    pub was_empty: bool,
    /// Fraction of the estimator's internal state that had to be recomputed
    /// (`0.0` = everything reused, `1.0` = a full rebuild; sketch-backed
    /// engines report their RR-set resample fraction).  Always `0.0` when
    /// [`ApplyReport::was_empty`] is set — check that flag before reading a
    /// zero as "every sample was reused".
    pub refresh_fraction: f64,
    /// The full refresh instrumentation: resampled-set counters plus the
    /// inverted-index maintenance work (`index_entries_patched`,
    /// `full_rebuilds`).  Tests assert `full_rebuilds == 0` here so a
    /// regression to full-rebuild behaviour fails tests, not just benches.
    pub refresh: RefreshStats,
    /// Wall-clock of the estimator refresh, measured around the out-of-lock
    /// [`RefreshableOracle::refresh`] call (zero for empty updates, which
    /// refresh nothing).  Reported per update so callers get the dominant
    /// write-path cost without reading the full telemetry registry.
    pub refresh_wall: Duration,
    /// Wall-clock of publishing the new epoch: the write-lock acquisition
    /// plus the atomic snapshot-pointer swap.  This is the only interval in
    /// which readers can contend with the writer.
    pub swap_wall: Duration,
    /// What happened to the maintained solution under this update: how many
    /// greedy positions were retained verbatim, how many the CELF repair
    /// recomputed, and whether the update invalidated the cached solution
    /// entirely (forcing the next [`Engine::solve`] to run the full
    /// pipeline).  All-zero when no solution was cached at apply time or
    /// maintenance is disabled (see [`DysimConfig::maintain_bound`]).
    pub solve_repair: RepairStats,
}

/// The engine's pre-resolved telemetry handles: registered once at build so
/// the read and write paths never touch the registry lock.
#[derive(Debug)]
struct EngineMetrics {
    solve_ns: Histogram,
    spread_ns: Histogram,
    static_spread_ns: Histogram,
    batch_ns: Histogram,
    batch_size: Histogram,
    apply_ns: Histogram,
    scenario_update_ns: Histogram,
    oracle_clone_ns: Histogram,
    refresh_ns: Histogram,
    swap_ns: Histogram,
    writer_wait_ns: Histogram,
    snapshot_pins: Counter,
    solves: Counter,
    spreads: Counter,
    static_spreads: Counter,
    batches: Counter,
    batch_queries: Counter,
    tenants: Counter,
    tenant_solves: Counter,
    tenant_spreads: Counter,
    applies: Counter,
    refresh_sets_total: Counter,
    refresh_sets_resampled: Counter,
    refresh_entries_patched: Counter,
    refresh_full_rebuilds: Counter,
    maintain_ns: Histogram,
    maintain_repairs: Counter,
    maintain_full_resolves: Counter,
    tmi: TmiCounters,
    epoch: Gauge,
}

/// The `f(N)` queries nominee selection made and the oracle calls that
/// answered them (`core.tmi.queries`, `core.tmi.batches`), fed by every
/// pipeline run and by both selections of every maintenance repair.  A
/// batched wave of independent queries is one call, so the ratio shows
/// how much of TMI the batch pass answered.
#[derive(Clone, Debug)]
pub(crate) struct TmiCounters {
    queries: Counter,
    batches: Counter,
}

impl TmiCounters {
    fn new(telemetry: &Telemetry) -> Self {
        TmiCounters {
            queries: telemetry.counter("core.tmi.queries"),
            batches: telemetry.counter("core.tmi.batches"),
        }
    }

    fn record(&self, queries: usize, oracle_calls: usize) {
        self.queries.add(queries as u64);
        self.batches.add(oracle_calls as u64);
    }

    /// Records the TMI work of a pipeline run and hands its report on.
    pub(crate) fn pipeline(&self, report: DysimReport) -> DysimReport {
        self.record(report.tmi_queries, report.tmi_oracle_calls);
        report
    }
}

impl EngineMetrics {
    fn new(telemetry: &Telemetry) -> Self {
        EngineMetrics {
            solve_ns: telemetry.histogram("engine.solve_ns"),
            spread_ns: telemetry.histogram("engine.spread_ns"),
            static_spread_ns: telemetry.histogram("engine.static_spread_ns"),
            batch_ns: telemetry.histogram("engine.batch_ns"),
            batch_size: telemetry.histogram("engine.batch.size"),
            apply_ns: telemetry.histogram("engine.apply_ns"),
            scenario_update_ns: telemetry.histogram("engine.scenario_update_ns"),
            oracle_clone_ns: telemetry.histogram("engine.oracle_clone_ns"),
            refresh_ns: telemetry.histogram("engine.refresh_ns"),
            swap_ns: telemetry.histogram("engine.swap_ns"),
            writer_wait_ns: telemetry.histogram("engine.writer_wait_ns"),
            snapshot_pins: telemetry.counter("engine.snapshot_pins"),
            solves: telemetry.counter("engine.solves"),
            spreads: telemetry.counter("engine.spreads"),
            static_spreads: telemetry.counter("engine.static_spreads"),
            batches: telemetry.counter("engine.batches"),
            batch_queries: telemetry.counter("engine.batch.queries"),
            tenants: telemetry.counter("engine.tenants"),
            tenant_solves: telemetry.counter("engine.tenant.solves"),
            tenant_spreads: telemetry.counter("engine.tenant.spreads"),
            applies: telemetry.counter("engine.applies"),
            refresh_sets_total: telemetry.counter("engine.refresh.sets_total"),
            refresh_sets_resampled: telemetry.counter("engine.refresh.sets_resampled"),
            refresh_entries_patched: telemetry.counter("engine.refresh.entries_patched"),
            refresh_full_rebuilds: telemetry.counter("engine.refresh.full_rebuilds"),
            maintain_ns: telemetry.histogram("engine.maintain_ns"),
            maintain_repairs: telemetry.counter("engine.maintain.repairs"),
            maintain_full_resolves: telemetry.counter("engine.maintain.full_resolves"),
            tmi: TmiCounters::new(telemetry),
            epoch: telemetry.gauge("engine.epoch"),
        }
    }
}

/// A long-lived, snapshot-isolated IMDPP session.
///
/// Build one with [`Engine::builder`] (from a scenario) or
/// [`Engine::for_instance`] (adopting an existing instance's costs, budget
/// and promotion count).  The engine is `Send + Sync`: share it behind an
/// `Arc` and call [`Engine::spread`] / [`Engine::solve`] from as many
/// threads as needed while one writer drives [`Engine::apply`].
#[derive(Debug)]
pub struct Engine {
    current: RwLock<Arc<EngineSnapshot>>,
    /// Serializes writers so concurrent `apply` calls cannot interleave
    /// their read-refresh-swap sequences (readers are never blocked by it).
    writer: Mutex<()>,
    /// The registry behind [`Engine::telemetry`]; the sketch (if any)
    /// records into the same registry through its own handles.
    telemetry: Telemetry,
    metrics: EngineMetrics,
}

impl Engine {
    /// Starts building an engine around a scenario.
    pub fn builder(scenario: Scenario) -> EngineBuilder {
        EngineBuilder {
            scenario,
            costs: None,
            budget: None,
            promotions: 1,
            config: DysimConfig::default(),
            telemetry: None,
        }
    }

    /// Starts building an engine that adopts `instance`'s scenario, costs,
    /// budget and promotion count (the migration path from the one-shot
    /// `run*` entry points, and what the experiments harness uses).
    pub fn for_instance(instance: &ImdppInstance) -> EngineBuilder {
        EngineBuilder {
            scenario: instance.scenario().clone(),
            costs: Some(instance.costs().clone()),
            budget: Some(instance.budget()),
            promotions: instance.promotions(),
            config: DysimConfig::default(),
            telemetry: None,
        }
    }

    /// The current snapshot.  Hold the returned [`Arc`] to keep answering
    /// queries against one consistent epoch while writers move on.
    ///
    /// Each call is counted as `engine.snapshot_pins` — the number of
    /// epochs handed out for *caller-held* pinning.  The engine's own query
    /// methods read the snapshot internally without recording a pin.
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        self.metrics.snapshot_pins.incr();
        self.read_snapshot()
    }

    /// [`Engine::snapshot`] with poisoning surfaced as a typed error
    /// instead of silently recovered: returns [`ImdppError::Poisoned`] when
    /// a writer died holding the snapshot lock.  The engine's own read
    /// paths keep serving through a poisoned lock (every published value is
    /// whole — see the internal `read_snapshot`); use this variant when the
    /// caller wants to *know* a writer crashed, e.g. to quarantine the
    /// session instead of serving its last good epoch.
    pub fn try_snapshot(&self) -> Result<Arc<EngineSnapshot>, ImdppError> {
        let guard = self.current.read().map_err(|_| ImdppError::Poisoned {
            what: "snapshot lock",
        })?;
        self.metrics.snapshot_pins.incr();
        Ok(guard.clone())
    }

    /// The snapshot read every query path shares, off the pin counter's
    /// books (one lock round-trip + one `Arc` bump, nothing else).
    ///
    /// Recovers from a poisoned lock instead of panicking: the write guard
    /// only ever performs a whole-value `Arc` assignment (no user code runs
    /// while it is held), so even if a writer thread died the stored
    /// snapshot is a complete, internally consistent epoch — either the old
    /// pointer or the new one, never a torn value.  Readers must not
    /// propagate a panic they did not cause (`tests::
    /// poisoned_snapshot_lock_does_not_take_down_readers`).
    fn read_snapshot(&self) -> Arc<EngineSnapshot> {
        self.current
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// A point-in-time copy of every metric the engine (and, for
    /// sketch-backed engines, the sketch and its shard workers) has
    /// recorded.  Empty when the engine was built with
    /// [`Telemetry::disabled`].
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.telemetry.snapshot()
    }

    /// The live registry itself — for sharing with other components or
    /// checking [`Telemetry::is_enabled`]; use [`Engine::telemetry`] to
    /// read values.
    pub fn telemetry_handle(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The current epoch (0-based; +1 per applied update).
    pub fn epoch(&self) -> u64 {
        self.read_snapshot().epoch
    }

    /// The driver configuration the engine was built with.
    pub fn config(&self) -> DysimConfig {
        self.read_snapshot().config.clone()
    }

    /// Solves against the current snapshot and returns the selected seed
    /// group — serving the epoch's maintained solution when it has one,
    /// running the full Dysim pipeline otherwise.
    pub fn solve(&self) -> SeedGroup {
        self.solve_report().seeds
    }

    /// Solves against the current snapshot and returns the seed group
    /// together with diagnostics.
    ///
    /// On a sketch-backed engine with [`DysimConfig::maintain_bound`] set,
    /// the first solve of each epoch runs the full pipeline and caches its
    /// report in the epoch's snapshot; subsequent solves at the same epoch
    /// serve the cached report, and [`Engine::apply`] repairs it into the
    /// next snapshot so a solve after localized churn is typically a
    /// lookup, not a pipeline run.
    #[must_use = "the report carries the seeds and pipeline diagnostics; dropping it wastes the solve"]
    pub fn solve_report(&self) -> DysimReport {
        let snap = self.read_snapshot();
        self.metrics.solves.incr();
        let _span = self.metrics.solve_ns.start();
        if !self.maintenance_enabled(&snap) {
            return self.metrics.tmi.pipeline(snap.solve_report());
        }
        if let Some(report) = snap.solution.get() {
            return report.clone();
        }
        let report = self.metrics.tmi.pipeline(snap.solve_report());
        if !report.nominees.is_empty() {
            // A concurrent solve of this epoch may have filled the cell
            // first: it ran the same deterministic pipeline on the same
            // snapshot, so losing the race changes nothing.
            let _ = snap.solution.set(report.clone());
        }
        report
    }

    /// Whether this engine maintains solutions across applies: a repair
    /// bound is configured and the oracle is the RR sketch (the repair
    /// invariant — untouched nominees keep bit-identical marginals — only
    /// holds for the sketch's exact coverage objective).
    fn maintenance_enabled(&self, snap: &EngineSnapshot) -> bool {
        snap.config.maintain_bound.is_some() && snap.oracle.as_sketch().is_some()
    }

    /// Estimates `σ(S)` for a seed group against the current snapshot.
    /// Safe to call from any number of threads concurrently with a writer.
    pub fn spread(&self, seeds: &SeedGroup) -> f64 {
        let snap = self.read_snapshot();
        self.metrics.spreads.incr();
        let _span = self.metrics.spread_ns.start();
        snap.spread(seeds)
    }

    /// Estimates the static first-promotion spread `f(N)` of a nominee set
    /// with the configured oracle against the current snapshot.
    pub fn static_spread(&self, nominees: &[Nominee]) -> f64 {
        let snap = self.read_snapshot();
        self.metrics.static_spreads.incr();
        let _span = self.metrics.static_spread_ns.start();
        snap.static_spread(nominees)
    }

    /// Runs the adaptive Dysim loop (Sec. V-D) for `rounds` promotions
    /// against the current snapshot, applying `drift[i]` between promotions
    /// `i + 1` and `i + 2` *inside the simulation*.
    ///
    /// The drift is hypothetical: it migrates a private clone of the
    /// snapshot's oracle round by round and leaves the engine's published
    /// state untouched.  To make drift durable for subsequent queries, feed
    /// the same updates through [`Engine::apply`].
    pub fn adaptive(&self, rounds: u32, drift: &[ScenarioUpdate]) -> AdaptiveReport {
        let snap = self.read_snapshot();
        let instance = snap.instance.with_promotions(rounds);
        let mut oracle = snap.oracle.clone();
        adaptive_dysim_with_oracle(&instance, &snap.config, drift, &mut oracle)
    }

    /// Applies a world update and atomically publishes the refreshed
    /// snapshot as the next epoch.
    ///
    /// The heavy work — applying the update to the scenario and migrating
    /// the estimator through its incremental sample-reuse paths — happens
    /// outside the snapshot lock, so concurrent readers keep answering
    /// against the previous epoch and never observe a half-refreshed world.
    /// Sketch-backed engines re-sample only the RR sets the update could
    /// have touched; the published snapshot is bit-identical to one rebuilt
    /// from scratch against the drifted scenario.
    ///
    /// # Errors
    /// Returns an [`ImdppError`] (and publishes nothing) when the update
    /// references users or items outside the scenario or carries values
    /// outside their valid ranges, or [`ImdppError::Poisoned`] when a
    /// previous `apply` panicked mid-publish — the writer path refuses to
    /// build on possibly half-published state.
    pub fn apply(&self, update: &ScenarioUpdate) -> Result<ApplyReport, ImdppError> {
        let wait_span = self.metrics.writer_wait_ns.start();
        let _writer = self.writer.lock().map_err(|_| ImdppError::Poisoned {
            what: "engine writer lock",
        })?;
        drop(wait_span);
        let snap = self.read_snapshot();
        validate_update(snap.scenario(), update)?;
        let _apply_span = self.metrics.apply_ns.start();

        let epoch = snap.epoch + 1;
        let (next, refresh, refresh_wall, solve_repair) = if update.is_empty() {
            // The world did not change, so a cached solution stays valid
            // verbatim: the cloned snapshot carries it to the new epoch.
            let solve_repair = RepairStats {
                seeds_retained: snap.solution.get().map_or(0, |r| r.nominees.len()),
                ..RepairStats::default()
            };
            let next = Arc::new(EngineSnapshot {
                epoch,
                ..(*snap).clone()
            });
            (next, RefreshStats::default(), Duration::ZERO, solve_repair)
        } else {
            let cached = snap
                .solution
                .get()
                .filter(|r| self.maintenance_enabled(&snap) && !r.nominees.is_empty());
            let updated = {
                let _span = self.metrics.scenario_update_ns.start();
                update.apply(snap.scenario())
            };
            let mut oracle = {
                let _span = self.metrics.oracle_clone_ns.start();
                snap.oracle.clone()
            };
            // Refresh borrows `updated` before it moves into the instance,
            // so the writer path copies the scenario exactly once.  A
            // sketch reports the per-item touched users the repair below
            // intersects with the cached solution.
            // lint: allow(clock) — feeds the engine.refresh_ns telemetry
            // span and ApplyReport::refresh_wall; no algorithm reads it.
            let refresh_started = Instant::now();
            let (refresh, touched) = oracle.refresh(&updated, update);
            let refresh_wall = refresh_started.elapsed();
            self.metrics.refresh_ns.record_duration(refresh_wall);
            let instance = snap.instance.with_scenario(updated)?;
            let (solve_repair, solution) = match (cached, snap.config.maintain_bound) {
                (Some(cached), Some(bound)) => {
                    let _maintain_span = self.metrics.maintain_ns.start();
                    self.repair_maintained(&instance, &oracle, &snap.config, cached, touched, bound)
                }
                _ => (RepairStats::default(), None),
            };
            let next = Arc::new(EngineSnapshot {
                epoch,
                instance,
                oracle,
                config: snap.config.clone(),
                solution: solution.map_or_else(OnceLock::new, OnceLock::from),
            });
            (next, refresh, refresh_wall, solve_repair)
        };
        // lint: allow(clock) — feeds the engine.swap_ns telemetry span and
        // ApplyReport::swap_wall; no algorithm reads it.
        let swap_started = Instant::now();
        *self.current.write().map_err(|_| ImdppError::Poisoned {
            what: "snapshot lock",
        })? = next;
        let swap_wall = swap_started.elapsed();
        self.metrics.swap_ns.record_duration(swap_wall);
        // An empty update refreshed nothing, so these add zero.
        self.metrics
            .refresh_sets_total
            .add(refresh.total_sets as u64);
        self.metrics
            .refresh_sets_resampled
            .add(refresh.resampled_sets as u64);
        self.metrics
            .refresh_entries_patched
            .add(refresh.index_entries_patched);
        self.metrics
            .refresh_full_rebuilds
            .add(refresh.full_rebuilds);
        self.metrics.applies.incr();
        self.metrics.epoch.set(epoch);
        Ok(ApplyReport {
            epoch,
            was_empty: update.is_empty(),
            refresh_fraction: refresh.resampled_fraction(),
            refresh,
            refresh_wall,
            swap_wall,
            solve_repair,
        })
    }

    /// Repairs the previous epoch's solution against the refreshed oracle:
    /// returns the repair's counters and the report the next snapshot
    /// publishes in its cell, or `None` when the update invalidated it.
    /// Called by `apply` with the writer lock held, before the new snapshot
    /// is published.
    fn repair_maintained(
        &self,
        instance: &ImdppInstance,
        oracle: &ConfiguredOracle,
        config: &DysimConfig,
        cached: &DysimReport,
        touched: Option<Vec<Vec<UserId>>>,
        bound: f64,
    ) -> (RepairStats, Option<DysimReport>) {
        let invalidate = || {
            self.metrics.maintain_full_resolves.incr();
            let full_resolve = RepairStats {
                seeds_retained: 0,
                positions_repaired: 0,
                full_resolves: 1,
            };
            (full_resolve, None)
        };
        // Paranoid mode: a repair can only certify the *sketch* objective;
        // DRE/TDSI run Monte-Carlo against the drifted scenario and may
        // legitimately disagree even on an identical nominee set.  Under
        // `bound >= 1.0` ("serve nothing weaker than fresh, ever") the only
        // honest answer to a non-empty update is a full re-solve.
        if bound >= 1.0 {
            return invalidate();
        }
        let Some(touched) = touched else {
            // Tracking unavailable (non-sketch oracle slipped through):
            // nothing certifies the cache, so drop it.
            return invalidate();
        };
        let universe = instance.nominee_universe(config.candidate_users);
        let selection_config = NomineeSelectionConfig {
            max_nominees: config.max_nominees,
            stop_on_nonpositive_gain: true,
        };
        let outcome = repair_nominees(
            instance,
            oracle,
            &universe,
            &selection_config,
            &cached.nominees,
            &touched,
            bound,
        );
        self.metrics
            .tmi
            .record(outcome.queries, outcome.oracle_calls);
        if !outcome.kept {
            return invalidate();
        }
        let stats = RepairStats {
            seeds_retained: outcome.retained,
            positions_repaired: outcome.selection.nominees.len() - outcome.retained,
            full_resolves: 0,
        };
        let report = repaired_report(
            cached.clone(),
            &outcome.selection.nominees,
            outcome.retained,
            instance,
        );
        self.metrics.maintain_repairs.incr();
        (stats, Some(report))
    }
}

/// Splices a repaired nominee trace back into the cached report: seeds of
/// retained prefix nominees keep their TDSI-assigned timings, recomputed
/// tail nominees are seeded at the first promotion, and the total cost is
/// re-priced against the refreshed instance.  Markets, groups and the guard
/// flag carry over from the cached solve — the bound check already decided
/// the repaired set is close enough to fresh that re-deriving them is not
/// worth a Monte-Carlo pass.
fn repaired_report(
    cached: DysimReport,
    nominees: &[Nominee],
    retained: usize,
    instance: &ImdppInstance,
) -> DysimReport {
    let prefix = &nominees[..retained];
    let mut seeds = SeedGroup::new();
    for seed in cached.seeds.seeds() {
        if prefix.contains(&(seed.user, seed.item)) {
            seeds.insert(*seed);
        }
    }
    for &(u, x) in &nominees[retained..] {
        if !seeds.contains_nominee(u, x) {
            seeds.insert(Seed::new(u, x, 1));
        }
    }
    let total_cost = instance.total_cost(&seeds);
    DysimReport {
        nominees: nominees.to_vec(),
        seeds,
        total_cost,
        ..cached
    }
}

/// Rejects updates that would panic deeper in the stack (out-of-range ids
/// or probabilities) with a typed error instead.
fn validate_update(scenario: &Scenario, update: &ScenarioUpdate) -> Result<(), ImdppError> {
    let users = scenario.user_count();
    let items = scenario.item_count();
    match update {
        ScenarioUpdate::Preferences(changes) => {
            for &(u, x, p) in changes {
                if u.index() >= users {
                    return Err(ImdppError::invalid(format!(
                        "preference update references user {u} but the scenario has {users} users"
                    )));
                }
                if x.index() >= items {
                    return Err(ImdppError::invalid(format!(
                        "preference update references item {x} but the scenario has {items} items"
                    )));
                }
                if !(0.0..=1.0).contains(&p) {
                    return Err(ImdppError::OutOfRange {
                        name: "preference",
                        value: p,
                        min: 0.0,
                        max: 1.0,
                    });
                }
            }
        }
        ScenarioUpdate::Edges(updates) => {
            for up in updates {
                for endpoint in [up.src(), up.dst()] {
                    if endpoint.index() >= users {
                        return Err(ImdppError::invalid(format!(
                            "edge update references user {endpoint} but the scenario has \
                             {users} users"
                        )));
                    }
                }
                if let EdgeUpdate::Insert { weight, .. } | EdgeUpdate::Reweight { weight, .. } = up
                {
                    if !(0.0..=1.0).contains(weight) {
                        return Err(ImdppError::OutOfRange {
                            name: "influence strength",
                            value: *weight,
                            min: 0.0,
                            max: 1.0,
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

/// Builder for [`Engine`]; see [`Engine::builder`].
///
/// # Example
///
/// ```
/// use imdpp_core::{CostModel, ImdppError, OracleKind};
/// use imdpp_diffusion::scenario::toy_scenario;
/// use imdpp_engine::Engine;
///
/// let scenario = toy_scenario();
/// let costs = CostModel::degree_over_preference(&scenario, 0.2);
/// let engine = Engine::builder(scenario)
///     .costs(costs)
///     .budget(4.0)
///     .promotions(3)
///     .oracle(OracleKind::MonteCarlo)
///     .seed(42)
///     .build()
///     .unwrap();
/// assert_eq!(engine.epoch(), 0);
///
/// // The budget is the one component without a usable default:
/// let err = Engine::builder(toy_scenario()).build().unwrap_err();
/// assert!(matches!(err, ImdppError::MissingComponent { what: "budget" }));
/// ```
#[derive(Clone, Debug)]
pub struct EngineBuilder {
    scenario: Scenario,
    costs: Option<CostModel>,
    budget: Option<f64>,
    promotions: u32,
    config: DysimConfig,
    telemetry: Option<Telemetry>,
}

impl EngineBuilder {
    /// Sets the hiring-cost model (default: uniform unit costs).
    pub fn costs(mut self, costs: CostModel) -> Self {
        self.costs = Some(costs);
        self
    }

    /// Sets the total budget `b` (required).
    pub fn budget(mut self, budget: f64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Sets the number of promotions `T` (default 1).
    pub fn promotions(mut self, promotions: u32) -> Self {
        self.promotions = promotions;
        self
    }

    /// Replaces the whole driver configuration (default:
    /// [`DysimConfig::default`]).  Call this *before* [`Self::oracle`] /
    /// [`Self::seed`], which tweak individual fields of it.
    pub fn config(mut self, config: DysimConfig) -> Self {
        self.config = config;
        self
    }

    /// Selects the estimator behind nominee selection's `f(N)` queries
    /// (default: [`OracleKind::MonteCarlo`]).
    pub fn oracle(mut self, oracle: OracleKind) -> Self {
        self.config.oracle = oracle;
        self
    }

    /// Sets the base random seed shared by the driver, the Monte-Carlo
    /// estimators and the sketch sampling streams.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.base_seed = seed;
        self
    }

    /// Sets the maintained-solution repair bound (shorthand for the
    /// [`DysimConfig::maintain_bound`] field; `None` disables maintenance,
    /// `Some(b >= 1.0)` is paranoid mode — every non-empty update forces
    /// the next solve to re-run the full pipeline).
    pub fn maintain_bound(mut self, bound: Option<f64>) -> Self {
        self.config.maintain_bound = bound;
        self
    }

    /// Replaces the telemetry registry (default: a fresh live
    /// [`Telemetry::new`]).  Pass [`Telemetry::disabled`] to strip the
    /// engine's instrumentation down to one branch per record site, or a
    /// shared registry to aggregate several engines into one snapshot.
    /// Telemetry never affects results — only whether timings and counters
    /// are collected.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Validates the configuration, resolves the oracle, and publishes
    /// epoch 0.
    ///
    /// # Errors
    /// [`ImdppError::MissingComponent`] when no budget was set;
    /// [`ImdppError::DimensionMismatch`] / [`ImdppError::InvalidConfig`]
    /// when the instance is inconsistent, `mc_samples` is 0, or the RR
    /// sketch is requested on a Linear Threshold scenario (the sketch
    /// encodes the Independent Cascade triggering distribution).
    pub fn build(self) -> Result<Engine, ImdppError> {
        let (instance, config, telemetry) = self.prepare()?;
        let oracle = ConfiguredOracle::build_with_telemetry(
            instance.scenario(),
            config.oracle,
            config.mc_samples,
            config.base_seed,
            &telemetry,
        );
        let metrics = EngineMetrics::new(&telemetry);
        Ok(Engine {
            current: RwLock::new(Arc::new(EngineSnapshot {
                epoch: 0,
                instance,
                oracle,
                config,
                solution: OnceLock::new(),
            })),
            writer: Mutex::new(()),
            telemetry,
            metrics,
        })
    }

    /// The validation prelude [`EngineBuilder::build`] and
    /// [`EngineBuilder::restore`] share: resolves costs and budget into an
    /// instance, rejects zero Monte-Carlo samples and the sketch-on-LT
    /// combination, and takes the telemetry registry out of the builder.
    fn prepare(self) -> Result<(ImdppInstance, DysimConfig, Telemetry), ImdppError> {
        let budget = self
            .budget
            .ok_or(ImdppError::MissingComponent { what: "budget" })?;
        if self.config.mc_samples == 0 {
            return Err(ImdppError::invalid(
                "mc_samples must be at least 1: every Monte-Carlo estimate is a mean over \
                 that many simulations",
            ));
        }
        let costs = self.costs.unwrap_or_else(|| {
            CostModel::uniform(self.scenario.user_count(), self.scenario.item_count(), 1.0)
        });
        let instance = ImdppInstance::new(self.scenario, costs, budget, self.promotions)?;
        if matches!(self.config.oracle, OracleKind::RrSketch { .. })
            && instance.scenario().model() != DiffusionModel::IndependentCascade
        {
            return Err(ImdppError::invalid(
                "the RR-sketch oracle requires the Independent Cascade model; \
                 use OracleKind::MonteCarlo for Linear Threshold scenarios",
            ));
        }
        let telemetry = self.telemetry.unwrap_or_default();
        Ok((instance, self.config, telemetry))
    }
}

// The whole point of the engine: it must be shareable across reader threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<EngineSnapshot>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use imdpp_core::{EdgeUpdate, ItemId, UserId};
    use imdpp_diffusion::scenario::toy_scenario;
    use imdpp_sketch::{SketchConfig, SketchOracle};

    fn engine(oracle: OracleKind) -> Engine {
        Engine::builder(toy_scenario())
            .budget(3.0)
            .promotions(2)
            .config(DysimConfig::fast())
            .oracle(oracle)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_defaults_and_required_budget() {
        let err = Engine::builder(toy_scenario()).build().unwrap_err();
        assert!(matches!(
            err,
            ImdppError::MissingComponent { what: "budget" }
        ));

        let engine = Engine::builder(toy_scenario()).budget(2.0).build().unwrap();
        assert_eq!(engine.epoch(), 0);
        let snap = engine.snapshot();
        assert_eq!(snap.instance().budget(), 2.0);
        assert_eq!(snap.instance().promotions(), 1);
        // Default costs are uniform unit costs.
        assert_eq!(snap.instance().cost(UserId(0), ItemId(0)), 1.0);
    }

    #[test]
    fn builder_rejects_sketch_on_linear_threshold() {
        let lt = toy_scenario().with_model(DiffusionModel::LinearThreshold);
        let err = Engine::builder(lt)
            .budget(2.0)
            .oracle(OracleKind::RrSketch {
                sets_per_item: 64,
                shards: 1,
                threads: 0,
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, ImdppError::InvalidConfig { .. }));
        assert!(err.to_string().contains("Independent Cascade"));
    }

    #[test]
    fn builder_rejects_zero_monte_carlo_samples() {
        let err = Engine::builder(toy_scenario())
            .budget(3.0)
            .config(DysimConfig {
                mc_samples: 0,
                ..DysimConfig::fast()
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, ImdppError::InvalidConfig { .. }));
        assert!(err.to_string().contains("mc_samples"));
    }

    #[test]
    fn adaptive_runs_with_the_largest_seed() -> Result<(), ImdppError> {
        // Each round re-seeds the Monte-Carlo estimator at `base_seed + t`,
        // which must wrap rather than overflow.
        let engine = Engine::builder(toy_scenario())
            .budget(3.0)
            .promotions(3)
            .config(DysimConfig::fast())
            .seed(u64::MAX)
            .build()?;
        let report = engine.adaptive(3, &[]);
        assert_eq!(report.per_promotion.len(), 3);
        assert!(engine.snapshot().instance().is_feasible(&report.seeds));
        Ok(())
    }

    #[test]
    fn solve_matches_the_legacy_monte_carlo_run() {
        let engine = engine(OracleKind::MonteCarlo);
        let snap = engine.snapshot();
        let cfg = snap.config().clone();
        let ev = Evaluator::new(snap.instance(), cfg.mc_samples, cfg.base_seed);
        let legacy = Dysim::new(cfg).solve_with(snap.instance(), &ev);
        let report = engine.solve_report();
        assert_eq!(report.seeds, legacy.seeds);
        assert_eq!(report.nominees, legacy.nominees);
        assert_eq!(engine.solve(), legacy.seeds);
    }

    #[test]
    fn sketch_engine_solves_deterministically() {
        let a = engine(OracleKind::RrSketch {
            sets_per_item: 512,
            shards: 1,
            threads: 0,
        });
        let b = engine(OracleKind::RrSketch {
            sets_per_item: 512,
            shards: 1,
            threads: 0,
        });
        let seeds = a.solve();
        assert_eq!(seeds, b.solve());
        assert!(!seeds.is_empty());
        assert!(a.snapshot().instance().is_feasible(&seeds));
        assert!(a.spread(&seeds) > 0.0);
    }

    #[test]
    fn shard_count_does_not_change_the_solution() {
        let flat = engine(OracleKind::RrSketch {
            sets_per_item: 512,
            shards: 1,
            threads: 0,
        });
        let flat_report = flat.solve_report();
        let nominees = [(UserId(0), ItemId(0)), (UserId(2), ItemId(1))];
        for shards in [2usize, 4, 7] {
            let sharded = engine(OracleKind::RrSketch {
                sets_per_item: 512,
                shards,
                threads: 0,
            });
            let report = sharded.solve_report();
            assert_eq!(report.seeds, flat_report.seeds, "{shards} shards");
            assert_eq!(report.nominees, flat_report.nominees);
            assert_eq!(
                sharded.static_spread(&nominees),
                flat.static_spread(&nominees)
            );
        }
    }

    #[test]
    fn apply_advances_the_epoch_and_refreshes_incrementally() {
        let engine = engine(OracleKind::RrSketch {
            sets_per_item: 256,
            shards: 1,
            threads: 0,
        });
        let update = ScenarioUpdate::Edges(vec![EdgeUpdate::Reweight {
            src: UserId(0),
            dst: UserId(1),
            weight: 0.9,
        }]);
        let before = engine.snapshot();
        let applied = engine.apply(&update).unwrap();
        assert_eq!(applied.epoch, 1);
        assert!(!applied.was_empty);
        assert!(applied.refresh_fraction > 0.0 && applied.refresh_fraction < 1.0);
        // The refresh instrumentation: some sets re-sampled (index patched
        // accordingly), zero full index rebuilds.
        assert!(applied.refresh.resampled_sets > 0);
        assert!(applied.refresh.index_entries_patched > 0);
        assert_eq!(applied.refresh.full_rebuilds, 0);
        assert_eq!(
            applied.refresh.total_sets,
            256 * before.scenario().item_count()
        );
        assert_eq!(
            applied.refresh.resampled_fraction(),
            applied.refresh_fraction
        );
        assert_eq!(engine.epoch(), 1);

        // The pinned pre-update snapshot still answers against epoch 0.
        assert_eq!(
            before.scenario().social().influence(UserId(0), UserId(1)),
            0.6
        );
        assert_eq!(
            engine
                .snapshot()
                .scenario()
                .social()
                .influence(UserId(0), UserId(1)),
            0.9
        );
    }

    #[test]
    fn refreshed_snapshot_is_bit_identical_to_a_rebuild() {
        // Sharded on purpose: the refresh-equals-rebuild invariant (and the
        // zero-rebuild index maintenance) must hold through the façade for
        // any shard count.
        let engine = engine(OracleKind::RrSketch {
            sets_per_item: 256,
            shards: 3,
            threads: 0,
        });
        let updates = vec![
            ScenarioUpdate::Preferences(vec![(UserId(1), ItemId(2), 0.9)]),
            ScenarioUpdate::Edges(vec![EdgeUpdate::Insert {
                src: UserId(5),
                dst: UserId(3),
                weight: 0.4,
            }]),
        ];
        for u in &updates {
            let applied = engine.apply(u).unwrap();
            assert_eq!(applied.refresh.full_rebuilds, 0);
        }
        let snap = engine.snapshot();
        let sketch = snap.oracle().as_sketch().unwrap();
        let rebuilt = SketchOracle::build(
            snap.scenario(),
            SketchConfig::fixed(256).with_base_seed(snap.config().base_seed),
        );
        // `stores_equal` compares global id order, so the flat rebuild is a
        // valid reference for the sharded refreshed sketch.
        assert!(sketch.stores_equal(&rebuilt));
        // Every full index build happened at construction: one per shard
        // per item, none during the applies.
        assert_eq!(
            sketch.index_stats().full_rebuilds,
            (3 * snap.scenario().item_count()) as u64
        );
    }

    #[test]
    fn empty_updates_publish_a_new_epoch_without_refreshing() {
        let engine = engine(OracleKind::MonteCarlo);
        let applied = engine.apply(&ScenarioUpdate::Edges(Vec::new())).unwrap();
        assert_eq!(applied.epoch, 1);
        assert!(applied.was_empty);
        assert_eq!(applied.refresh_fraction, 0.0);
        assert_eq!(applied.refresh, RefreshStats::default());
        // Nothing was updated, cloned or refreshed, so no layer recorded.
        let snap = engine.telemetry();
        assert_eq!(snap.histogram("engine.apply_ns").map(|h| h.count), Some(1));
        for hist in [
            "engine.scenario_update_ns",
            "engine.oracle_clone_ns",
            "engine.refresh_ns",
        ] {
            assert_eq!(snap.histogram(hist).map(|h| h.count), Some(0), "{hist}");
        }
    }

    #[test]
    fn was_empty_disambiguates_the_two_zero_fraction_cases() {
        let engine = engine(OracleKind::RrSketch {
            sets_per_item: 128,
            shards: 2,
            threads: 0,
        });
        // An empty batch: zero fraction because there was nothing to do.
        let empty = engine
            .apply(&ScenarioUpdate::Preferences(Vec::new()))
            .unwrap();
        assert!(empty.was_empty);
        assert_eq!(empty.refresh_fraction, 0.0);
        // A non-empty batch that resamples nothing: re-setting the current
        // influence strength is a real update whose frontier is empty, so
        // the fraction is *also* 0.0 — only the flag tells them apart.
        let current = engine
            .snapshot()
            .scenario()
            .social()
            .influence(UserId(0), UserId(1));
        let noop = ScenarioUpdate::Edges(vec![EdgeUpdate::Reweight {
            src: UserId(0),
            dst: UserId(1),
            weight: current,
        }]);
        let applied = engine.apply(&noop).unwrap();
        assert!(!applied.was_empty);
        assert_eq!(applied.refresh_fraction, 0.0);
        assert_eq!(applied.refresh.resampled_sets, 0);
        assert!(applied.refresh.total_sets > 0);
    }

    #[test]
    fn poisoned_snapshot_lock_does_not_take_down_readers() {
        let engine = engine(OracleKind::RrSketch {
            sets_per_item: 128,
            shards: 1,
            threads: 0,
        });
        let seeds = engine.solve();
        let sigma = engine.spread(&seeds);
        // Poison the snapshot lock: a writer dies while holding the write
        // guard.
        // lint: allow(spawn) — the regression needs a thread to panic
        // while holding the lock; determinism is not at stake.
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _guard = engine.current.write();
                panic!("simulated writer crash while holding the snapshot lock");
            });
            assert!(poisoner.join().is_err(), "the poisoner must have panicked");
        });
        assert!(engine.current.is_poisoned());

        // Readers recover: the stored snapshot is whole (the guard only
        // ever sees whole-value assignments), so queries keep serving the
        // last published epoch with identical answers.
        assert_eq!(engine.epoch(), 0);
        assert_eq!(engine.solve(), seeds);
        assert_eq!(engine.spread(&seeds), sigma);

        // The typed-error surfaces report it instead of panicking: pinning
        // via try_snapshot and the writer path both refuse.
        assert!(matches!(
            engine.try_snapshot().unwrap_err(),
            ImdppError::Poisoned {
                what: "snapshot lock"
            }
        ));
        let update = ScenarioUpdate::Preferences(vec![(UserId(1), ItemId(2), 0.9)]);
        assert!(matches!(
            engine.apply(&update).unwrap_err(),
            ImdppError::Poisoned { .. }
        ));
        assert_eq!(engine.epoch(), 0, "a refused apply publishes nothing");
    }

    #[test]
    fn invalid_updates_are_rejected_and_publish_nothing() {
        let engine = engine(OracleKind::MonteCarlo);
        let bad_user = ScenarioUpdate::Preferences(vec![(UserId(99), ItemId(0), 0.5)]);
        assert!(engine.apply(&bad_user).is_err());
        let bad_pref = ScenarioUpdate::Preferences(vec![(UserId(0), ItemId(0), 1.5)]);
        assert!(matches!(
            engine.apply(&bad_pref).unwrap_err(),
            ImdppError::OutOfRange { .. }
        ));
        let bad_edge = ScenarioUpdate::Edges(vec![EdgeUpdate::Insert {
            src: UserId(0),
            dst: UserId(42),
            weight: 0.3,
        }]);
        assert!(engine.apply(&bad_edge).is_err());
        let bad_weight = ScenarioUpdate::Edges(vec![EdgeUpdate::Reweight {
            src: UserId(0),
            dst: UserId(1),
            weight: 7.0,
        }]);
        assert!(engine.apply(&bad_weight).is_err());
        assert_eq!(engine.epoch(), 0, "failed updates must not advance epochs");
    }

    #[test]
    fn adaptive_matches_the_direct_adaptive_driver() {
        let drift = vec![
            ScenarioUpdate::Edges(vec![EdgeUpdate::Reweight {
                src: UserId(0),
                dst: UserId(1),
                weight: 0.9,
            }]),
            ScenarioUpdate::Preferences(vec![(UserId(2), ItemId(0), 0.8)]),
        ];
        for oracle in [
            OracleKind::MonteCarlo,
            OracleKind::RrSketch {
                sets_per_item: 256,
                shards: 1,
                threads: 0,
            },
        ] {
            let engine = Engine::builder(toy_scenario())
                .budget(4.0)
                .promotions(3)
                .config(DysimConfig::fast())
                .oracle(oracle)
                .build()
                .unwrap();
            let report = engine.adaptive(3, &drift);
            let snap = engine.snapshot();
            let cfg = snap.config();
            let instance = snap.instance().with_promotions(3);
            let mut direct_oracle =
                ConfiguredOracle::build(snap.scenario(), cfg.oracle, cfg.mc_samples, cfg.base_seed);
            let direct = adaptive_dysim_with_oracle(&instance, cfg, &drift, &mut direct_oracle);
            assert_eq!(report.seeds, direct.seeds);
            assert_eq!(report.refresh_fractions, direct.refresh_fractions);
            // The engine's published state is untouched by hypothetical drift.
            assert_eq!(engine.epoch(), 0);
        }
    }

    #[test]
    fn telemetry_is_populated_after_solve_and_apply() {
        let engine = engine(OracleKind::RrSketch {
            sets_per_item: 256,
            shards: 3,
            threads: 0,
        });
        let seeds = engine.solve();
        let _sigma = engine.spread(&seeds);
        let _f = engine.static_spread(&[(UserId(0), ItemId(0))]);
        let update = ScenarioUpdate::Edges(vec![EdgeUpdate::Reweight {
            src: UserId(0),
            dst: UserId(1),
            weight: 0.9,
        }]);
        let applied = engine.apply(&update).unwrap();

        // Per-update wall-clock is reported without the registry...
        assert!(applied.refresh_wall > Duration::ZERO);
        assert!(
            applied.swap_wall < applied.refresh_wall + applied.swap_wall + Duration::from_secs(1)
        );

        // ...and the registry saw every path.
        let snap = engine.telemetry();
        for hist in [
            "engine.solve_ns",
            "engine.spread_ns",
            "engine.static_spread_ns",
            "engine.apply_ns",
            "engine.scenario_update_ns",
            "engine.oracle_clone_ns",
            "engine.refresh_ns",
            "engine.swap_ns",
            "engine.writer_wait_ns",
        ] {
            let h = snap
                .histogram(hist)
                .unwrap_or_else(|| panic!("{hist} missing"));
            assert_eq!(h.count, 1, "{hist}");
        }
        assert!(snap.histogram("engine.solve_ns").unwrap().sum > 0);
        assert_eq!(snap.counter("engine.solves"), Some(1));
        assert_eq!(snap.counter("engine.spreads"), Some(1));
        assert_eq!(snap.counter("engine.static_spreads"), Some(1));
        assert_eq!(snap.counter("engine.applies"), Some(1));
        assert_eq!(snap.gauge("engine.epoch"), Some(1));
        // Pins count *explicit* `Engine::snapshot()` calls only; the four
        // query/apply calls above read their epoch off the books.
        assert_eq!(snap.counter("engine.snapshot_pins"), Some(0));

        // Counter totals match the returned RefreshStats exactly.
        assert_eq!(
            snap.counter("engine.refresh.sets_resampled"),
            Some(applied.refresh.resampled_sets as u64)
        );
        assert_eq!(
            snap.counter("engine.refresh.sets_total"),
            Some(applied.refresh.total_sets as u64)
        );
        assert_eq!(
            snap.counter("engine.refresh.entries_patched"),
            Some(applied.refresh.index_entries_patched)
        );
        assert_eq!(snap.counter("engine.refresh.full_rebuilds"), Some(0));

        // The sketch recorded into the same registry: one build observation
        // per shard per item at construction, one refresh observation per
        // shard per item at apply, and its resample counter agrees with the
        // engine-level fold.
        let items = engine.snapshot().scenario().item_count();
        assert_eq!(
            engine.telemetry().counter("engine.snapshot_pins"),
            Some(1),
            "an explicit snapshot() call is exactly one pin"
        );
        assert_eq!(
            snap.histogram("sketch.shard_build_ns").unwrap().count,
            (3 * items) as u64
        );
        assert_eq!(
            snap.histogram("sketch.shard_refresh_ns").unwrap().count,
            (3 * items) as u64
        );
        assert_eq!(
            snap.counter("sketch.sets_resampled"),
            Some(applied.refresh.resampled_sets as u64)
        );
        assert_eq!(
            snap.counter("sketch.sets_sampled"),
            Some((256 * items) as u64)
        );
        // Valid JSON comes out of the snapshot.
        let json = snap.to_json();
        assert!(json.contains("\"engine.applies\": 1"));
    }

    #[test]
    fn disabled_telemetry_snapshots_empty_and_changes_nothing() {
        let live = engine(OracleKind::RrSketch {
            sets_per_item: 256,
            shards: 2,
            threads: 0,
        });
        let dark = Engine::builder(toy_scenario())
            .budget(3.0)
            .promotions(2)
            .config(DysimConfig::fast())
            .oracle(OracleKind::RrSketch {
                sets_per_item: 256,
                shards: 2,
                threads: 0,
            })
            .telemetry(Telemetry::disabled())
            .build()
            .unwrap();
        assert!(!dark.telemetry_handle().is_enabled());
        assert!(live.telemetry_handle().is_enabled());

        // Identical results with recording on or off.
        assert_eq!(live.solve(), dark.solve());
        let update = ScenarioUpdate::Preferences(vec![(UserId(1), ItemId(2), 0.9)]);
        let a = live.apply(&update).unwrap();
        let b = dark.apply(&update).unwrap();
        assert_eq!(a.refresh, b.refresh);

        // The dark engine recorded nothing.
        assert!(dark.telemetry().is_empty());
        assert!(!live.telemetry().is_empty());
    }

    #[test]
    fn tmi_counters_sum_the_selections_of_every_run_and_repair() -> Result<(), ImdppError> {
        use imdpp_core::nominees::select_nominees_with_prefix;
        let engine = engine(OracleKind::RrSketch {
            sets_per_item: 256,
            shards: 2,
            threads: 0,
        });
        let counters = |engine: &Engine| {
            let snap = engine.telemetry();
            (
                snap.counter("core.tmi.queries").unwrap_or(0),
                snap.counter("core.tmi.batches").unwrap_or(0),
            )
        };
        let first = engine.solve_report();
        assert!(!first.nominees.is_empty());
        // A batched wave answers many queries in one call.
        assert!(first.tmi_oracle_calls < first.tmi_queries);
        let mut expected = (first.tmi_queries as u64, first.tmi_oracle_calls as u64);
        assert_eq!(counters(&engine), expected);
        // A served maintained answer runs no selection.
        let _ = engine.solve_report();
        assert_eq!(counters(&engine), expected);

        // Both selections of the repair: the retained prefix's CELF tail
        // and the fresh run the bound compares against.
        let update = ScenarioUpdate::Preferences(vec![(UserId(5), ItemId(2), 0.4)]);
        let applied = engine.apply(&update)?;
        let snap = engine.snapshot();
        let config = snap.config();
        let universe = snap.instance().nominee_universe(config.candidate_users);
        let selection_config = NomineeSelectionConfig {
            max_nominees: config.max_nominees,
            stop_on_nonpositive_gain: true,
        };
        let retained = applied.solve_repair.seeds_retained;
        for prefix in [&first.nominees[..retained], &[]] {
            let selection = select_nominees_with_prefix(
                snap.instance(),
                snap.oracle(),
                &universe,
                &selection_config,
                prefix,
            );
            expected.0 += selection.evaluations as u64;
            expected.1 += selection.oracle_calls as u64;
        }
        assert_eq!(counters(&engine), expected);
        assert!(expected.1 < expected.0);
        Ok(())
    }

    #[test]
    fn maintained_solution_is_repaired_within_the_bound() {
        let engine = engine(OracleKind::RrSketch {
            sets_per_item: 256,
            shards: 2,
            threads: 0,
        });
        let first = engine.solve_report();
        assert!(!first.nominees.is_empty());
        let before = engine.snapshot();
        let update = ScenarioUpdate::Preferences(vec![(UserId(5), ItemId(2), 0.4)]);
        let applied = engine.apply(&update).unwrap();
        let repair = applied.solve_repair;
        // The repair is kept: it lands in the new epoch's cell, and the
        // pinned epoch keeps the report it was solved with.
        assert_eq!(repair.full_resolves, 0);
        let cached = |snap: &EngineSnapshot| snap.solution.get().map(|r| r.nominees.clone());
        assert_eq!(cached(&before), Some(first.nominees.clone()));
        let repaired = cached(&engine.snapshot());

        // The repair decision is mirrored exactly in telemetry.
        let snap = engine.telemetry();
        assert_eq!(snap.counter("engine.maintain.repairs"), Some(1));
        assert_eq!(snap.counter("engine.maintain.full_resolves"), Some(0));
        assert_eq!(snap.histogram("engine.maintain_ns").unwrap().count, 1);

        // `solve` serves the repaired report, which must sit within the
        // configured bound of a fresh pipeline run.
        let served = engine.solve_report();
        assert_eq!(Some(served.nominees.clone()), repaired);
        let fresh = engine.snapshot().solve_report();
        let bound = engine.config().maintain_bound.unwrap();
        assert!(
            engine.static_spread(&served.nominees) + 1e-9
                >= bound * engine.static_spread(&fresh.nominees)
        );
        assert!(engine.snapshot().instance().is_feasible(&served.seeds));
    }

    #[test]
    fn paranoid_bound_always_resolves_fully_and_matches_maintenance_off() {
        let build = |bound: Option<f64>| {
            Engine::builder(toy_scenario())
                .budget(3.0)
                .promotions(2)
                .config(DysimConfig::fast())
                .oracle(OracleKind::RrSketch {
                    sets_per_item: 256,
                    shards: 1,
                    threads: 0,
                })
                .maintain_bound(bound)
                .build()
                .unwrap()
        };
        let paranoid = build(Some(1.0));
        let off = build(None);
        assert_eq!(paranoid.solve_report().seeds, off.solve_report().seeds);
        let update = ScenarioUpdate::Edges(vec![EdgeUpdate::Reweight {
            src: UserId(0),
            dst: UserId(1),
            weight: 0.9,
        }]);
        let a = paranoid.apply(&update).unwrap();
        let b = off.apply(&update).unwrap();
        // Paranoid mode records the invalidation; maintenance-off engines
        // have nothing to invalidate.
        assert_eq!(
            a.solve_repair,
            RepairStats {
                seeds_retained: 0,
                positions_repaired: 0,
                full_resolves: 1
            }
        );
        assert_eq!(b.solve_repair, RepairStats::default());
        // Both re-run the full pipeline on the next solve: bit-identical.
        let pa = paranoid.solve_report();
        let off_report = off.solve_report();
        assert_eq!(pa.seeds, off_report.seeds);
        assert_eq!(pa.nominees, off_report.nominees);
    }

    #[test]
    fn empty_update_carries_the_maintained_solution_forward() {
        let engine = engine(OracleKind::RrSketch {
            sets_per_item: 256,
            shards: 1,
            threads: 0,
        });
        let first = engine.solve_report();
        let before = engine.snapshot();
        let applied = engine.apply(&ScenarioUpdate::Edges(Vec::new())).unwrap();
        assert_eq!(
            applied.solve_repair,
            RepairStats {
                seeds_retained: first.nominees.len(),
                positions_repaired: 0,
                full_resolves: 0
            }
        );
        // Both the pinned epoch and the new one hold the report.
        let after = engine.snapshot();
        for snap in [&before, &after] {
            let cached = snap.solution.get().map(|r| &r.nominees);
            assert_eq!(cached, Some(&first.nominees), "epoch {}", snap.epoch);
        }
        let served = engine.solve_report();
        assert_eq!(served.seeds, first.seeds);
        assert_eq!(served.nominees, first.nominees);
    }

    #[test]
    fn for_instance_adopts_costs_budget_and_promotions() {
        let scenario = toy_scenario();
        let costs = CostModel::degree_over_preference(&scenario, 0.2);
        let instance = ImdppInstance::new(scenario, costs, 4.0, 3).unwrap();
        let engine = Engine::for_instance(&instance).build().unwrap();
        let snap = engine.snapshot();
        assert_eq!(snap.instance().budget(), 4.0);
        assert_eq!(snap.instance().promotions(), 3);
        assert_eq!(
            snap.instance().cost(UserId(0), ItemId(0)),
            instance.cost(UserId(0), ItemId(0))
        );
    }

    #[test]
    fn static_spread_uses_the_configured_oracle() {
        let engine = engine(OracleKind::RrSketch {
            sets_per_item: 512,
            shards: 1,
            threads: 0,
        });
        let direct = SketchOracle::build(
            engine.snapshot().scenario(),
            SketchConfig::fixed(512).with_base_seed(engine.config().base_seed),
        );
        let nominees = [(UserId(0), ItemId(0))];
        assert_eq!(
            engine.static_spread(&nominees),
            direct.static_spread(&nominees)
        );
    }
}
