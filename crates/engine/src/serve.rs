//! The serving tier's read-side façades: epoch-pinned query batches and
//! copy-on-write tenant overlays.
//!
//! Both are *views* over one [`EngineSnapshot`] — they add no locks and copy
//! no graph state, so any number of batches and tenants can be served
//! concurrently with the engine's single writer:
//!
//! * [`SpreadBatch`] pins one epoch and evaluates many static-spread queries
//!   in a single pass over the sharded RR store, decoding each compressed
//!   arena once per batch instead of once per query (the ≥2× throughput
//!   gate lives in `benches/engine_concurrency.rs`),
//! * [`TenantOverlay`] scopes queries and solves to one user's perception
//!   deltas without materializing a second engine: it holds only the RR
//!   sets those deltas invalidated (`O(deltas)`, not `O(graph)`), and every
//!   answer is bit-identical to an independent engine built on the tenant's
//!   scenario (`tests/serving_tier.rs` proves this across the shard grid).

use crate::{
    validate_update, DysimReport, Engine, EngineSnapshot, ImdppError, ScenarioUpdate, TmiCounters,
};
use imdpp_core::dysim::Dysim;
use imdpp_core::nominees::Nominee;
use imdpp_core::problem::ImdppInstance;
use imdpp_core::{Evaluator, MonteCarloOracle, SpreadOracle};
use imdpp_diffusion::{Scenario, SeedGroup};
use imdpp_graph::{ItemId, UserId};
use imdpp_obs::{Counter, Histogram};
use imdpp_sketch::{PatchedSketch, SketchPatch};
use std::sync::Arc;

/// A batch of static-spread queries pinned to one engine epoch.
///
/// Build one with [`Engine::batch`], add queries with
/// [`SpreadBatch::push`], and answer them all with
/// [`SpreadBatch::evaluate`]: every query is evaluated against the *same*
/// snapshot (even if a writer publishes new epochs in between), and
/// `results[q]` is bit-identical to calling
/// [`EngineSnapshot::static_spread`] with `queries[q]` on that snapshot.
/// Sketch-backed engines answer the whole batch in one pass per item store,
/// decoding each compressed RR arena once instead of once per query — that
/// amortization is where the batched throughput win comes from.
#[derive(Clone, Debug)]
pub struct SpreadBatch {
    snapshot: Arc<EngineSnapshot>,
    queries: Vec<Vec<Nominee>>,
    batch_ns: Histogram,
    batch_size: Histogram,
    batches: Counter,
    batch_queries: Counter,
}

impl SpreadBatch {
    /// Adds one query (a nominee set) to the batch.
    pub fn push(&mut self, nominees: &[Nominee]) -> &mut Self {
        self.queries.push(nominees.to_vec());
        self
    }

    /// Number of queued queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when no queries are queued.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The epoch every query in this batch is answered against.
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// The pinned snapshot itself.
    pub fn snapshot(&self) -> &EngineSnapshot {
        &self.snapshot
    }

    /// Answers every queued query in one pass and returns the spreads in
    /// push order.  The batch stays reusable — call again (or keep pushing)
    /// without re-pinning; the epoch never changes under it.
    pub fn evaluate(&self) -> Vec<f64> {
        self.batches.incr();
        self.batch_queries.add(self.queries.len() as u64);
        self.batch_size.record(self.queries.len() as u64);
        let _span = self.batch_ns.start();
        let refs: Vec<&[Nominee]> = self.queries.iter().map(|q| q.as_slice()).collect();
        self.snapshot.static_spread_batch(&refs)
    }
}

impl Engine {
    /// Starts an empty [`SpreadBatch`] pinned to the current epoch.
    ///
    /// Counts as one `engine.snapshot_pins` — the batch holds a caller-side
    /// epoch pin exactly like [`Engine::snapshot`] does.
    pub fn batch(&self) -> SpreadBatch {
        SpreadBatch {
            snapshot: self.snapshot(),
            queries: Vec::new(),
            batch_ns: self.metrics.batch_ns.clone(),
            batch_size: self.metrics.batch_size.clone(),
            batches: self.metrics.batches.clone(),
            batch_queries: self.metrics.batch_queries.clone(),
        }
    }

    /// Answers many static-spread queries against the current snapshot in
    /// one pass — the one-call form of [`Engine::batch`]: all queries see
    /// the same epoch, and `results[q]` is bit-identical to
    /// `self.static_spread(queries[q])` at that epoch.
    pub fn static_spread_batch(&self, queries: &[&[Nominee]]) -> Vec<f64> {
        let snap = self.read_snapshot();
        self.metrics.batches.incr();
        self.metrics.batch_queries.add(queries.len() as u64);
        self.metrics.batch_size.record(queries.len() as u64);
        let _span = self.metrics.batch_ns.start();
        snap.static_spread_batch(queries)
    }

    /// Creates a copy-on-write tenant overlay: a view of the current
    /// snapshot under per-user preference `deltas` (the paper's "dynamic
    /// personal perception", scoped to one tenant instead of published to
    /// everyone).
    ///
    /// The overlay holds the deltas plus — for sketch-backed engines — only
    /// the RR sets those deltas invalidated, resampled against the tenant's
    /// scenario.  Nothing else is copied: N tenants over one engine cost
    /// `O(Σ deltas)` extra memory, not `O(N × graph)`, yet every
    /// tenant-scoped estimate, marginal and solve is bit-identical to an
    /// independent engine built on the tenant's scenario.
    ///
    /// Duplicate `(user, item)` pairs resolve last-wins, matching what
    /// feeding the same list through [`Engine::apply`] would leave behind.
    ///
    /// # Errors
    /// The same validation as [`Engine::apply`]: out-of-range users, items
    /// or probabilities are rejected with a typed error.
    pub fn tenant(&self, deltas: &[(UserId, ItemId, f64)]) -> Result<TenantOverlay, ImdppError> {
        let snap = self.read_snapshot();
        validate_update(
            snap.scenario(),
            &ScenarioUpdate::Preferences(deltas.to_vec()),
        )?;
        let mut deduped = deltas.to_vec();
        // Stable sort: equal (user, item) keys keep their input order, so
        // the last entry of each run is the last write.
        deduped.sort_by_key(|&(u, x, _)| (u.0, x.0));
        let mut last_wins: Vec<(UserId, ItemId, f64)> = Vec::with_capacity(deduped.len());
        for d in deduped {
            match last_wins.last_mut() {
                Some(prev) if prev.0 == d.0 && prev.1 == d.1 => *prev = d,
                _ => last_wins.push(d),
            }
        }
        let patch = snap.oracle().as_sketch().map(|sketch| {
            let tenant_scenario = snap.scenario().with_base_preferences(&last_wins);
            let pairs: Vec<(UserId, ItemId)> = last_wins.iter().map(|&(u, x, _)| (u, x)).collect();
            SketchPatch::build(sketch, &tenant_scenario, &pairs)
        });
        self.metrics.tenants.incr();
        Ok(TenantOverlay {
            base: snap,
            deltas: last_wins,
            patch,
            tenant_solves: self.metrics.tenant_solves.clone(),
            tenant_spreads: self.metrics.tenant_spreads.clone(),
            tmi: self.metrics.tmi.clone(),
        })
    }
}

/// One tenant's copy-on-write view over a shared [`EngineSnapshot`].
///
/// At rest the overlay owns its preference deltas and (for sketch-backed
/// engines) a [`SketchPatch`] of the RR sets those deltas invalidated —
/// [`TenantOverlay::overlay_bytes`] reports exactly that footprint, and the
/// serving-tier memory gate compares it against N full engines.  Query
/// methods answer through the shared base arenas plus the patch;
/// [`TenantOverlay::solve_report`] and [`TenantOverlay::spread`]
/// materialize the tenant's scenario *transiently* for the duration of the
/// call (the Dysim pipeline and the Monte-Carlo evaluator need a concrete
/// scenario), then drop it — the at-rest footprint stays `O(deltas)`.
///
/// The overlay pins its base epoch: updates applied to the engine after
/// [`Engine::tenant`] do not leak in.  Build a fresh overlay to follow the
/// engine forward.
#[derive(Clone, Debug)]
pub struct TenantOverlay {
    base: Arc<EngineSnapshot>,
    deltas: Vec<(UserId, ItemId, f64)>,
    patch: Option<SketchPatch>,
    tenant_solves: Counter,
    tenant_spreads: Counter,
    tmi: TmiCounters,
}

impl TenantOverlay {
    /// The epoch of the shared base snapshot this overlay pins.
    pub fn base_epoch(&self) -> u64 {
        self.base.epoch()
    }

    /// The tenant's preference deltas, deduplicated last-wins and sorted by
    /// `(user, item)`.
    pub fn deltas(&self) -> &[(UserId, ItemId, f64)] {
        &self.deltas
    }

    /// Number of base RR sets this tenant's patch replaced (0 for
    /// Monte-Carlo engines and for deltas that touched no sampled set).
    pub fn replaced_sets(&self) -> usize {
        self.patch.as_ref().map_or(0, SketchPatch::replaced_sets)
    }

    /// The overlay's own heap footprint in bytes: the delta list plus the
    /// patch.  This — not a second graph, not a second sketch — is what one
    /// extra tenant costs at rest.
    pub fn overlay_bytes(&self) -> u64 {
        let deltas = (self.deltas.capacity() * std::mem::size_of::<(UserId, ItemId, f64)>()) as u64;
        deltas + self.patch.as_ref().map_or(0, SketchPatch::heap_bytes)
    }

    /// The tenant's scenario, materialized on demand (base scenario with
    /// the deltas applied).  Transient by design — callers that need it
    /// repeatedly should hold the result, not the overlay.
    pub fn tenant_scenario(&self) -> Scenario {
        self.base.scenario().with_base_preferences(&self.deltas)
    }

    /// The tenant's instance, materialized on demand.
    fn materialize(&self) -> Result<ImdppInstance, ImdppError> {
        self.base.instance().with_scenario(self.tenant_scenario())
    }

    /// Estimates the static first-promotion spread `f(N)` under this
    /// tenant's perception — bit-identical to asking an independent engine
    /// built on [`TenantOverlay::tenant_scenario`].
    pub fn static_spread(&self, nominees: &[Nominee]) -> f64 {
        match (self.base.oracle().as_sketch(), &self.patch) {
            (Some(sketch), Some(patch)) => {
                PatchedSketch::new(sketch, patch).static_spread(nominees)
            }
            _ => self.monte_carlo_oracle().static_spread(nominees),
        }
    }

    /// Answers many tenant-scoped static-spread queries; `results[q]` is
    /// bit-identical to `self.static_spread(queries[q])`.
    pub fn static_spread_batch(&self, queries: &[&[Nominee]]) -> Vec<f64> {
        match (self.base.oracle().as_sketch(), &self.patch) {
            (Some(sketch), Some(patch)) => {
                PatchedSketch::new(sketch, patch).static_spread_batch(queries)
            }
            _ => self.monte_carlo_oracle().static_spread_batch(queries),
        }
    }

    /// Runs the full Dysim pipeline under this tenant's perception and
    /// returns the seed group with diagnostics — bit-identical to
    /// [`EngineSnapshot::solve_report`] on an independent tenant engine.
    /// The tenant instance exists only for the duration of the call.
    ///
    /// # Errors
    /// Propagates instance-construction failures; with deltas validated at
    /// [`Engine::tenant`] time this does not occur in practice.
    pub fn solve_report(&self) -> Result<DysimReport, ImdppError> {
        self.tenant_solves.incr();
        let instance = self.materialize()?;
        let driver = Dysim::new(self.base.config().clone());
        let report = match (self.base.oracle().as_sketch(), &self.patch) {
            (Some(sketch), Some(patch)) => {
                driver.solve_with(&instance, &PatchedSketch::new(sketch, patch))
            }
            _ => driver.solve_with(
                &instance,
                &MonteCarloOracle::new(
                    instance.scenario(),
                    self.base.config().mc_samples,
                    self.base.config().base_seed,
                ),
            ),
        };
        Ok(self.tmi.pipeline(report))
    }

    /// [`TenantOverlay::solve_report`] returning just the seed group.
    ///
    /// # Errors
    /// Same contract as [`TenantOverlay::solve_report`].
    pub fn solve(&self) -> Result<SeedGroup, ImdppError> {
        Ok(self.solve_report()?.seeds)
    }

    /// Estimates `σ(S)` of a seed group under this tenant's perception
    /// (forward Monte-Carlo over the transiently materialized tenant
    /// instance) — bit-identical to [`EngineSnapshot::spread`] on an
    /// independent tenant engine.
    ///
    /// # Errors
    /// Same contract as [`TenantOverlay::solve_report`].
    pub fn spread(&self, seeds: &SeedGroup) -> Result<f64, ImdppError> {
        self.tenant_spreads.incr();
        let instance = self.materialize()?;
        Ok(Evaluator::new(
            &instance,
            self.base.config().mc_samples,
            self.base.config().base_seed,
        )
        .spread(seeds))
    }

    /// The Monte-Carlo fallback oracle for non-sketch engines, built on the
    /// transient tenant scenario exactly as an independent engine's builder
    /// would.
    fn monte_carlo_oracle(&self) -> MonteCarloOracle {
        MonteCarloOracle::new(
            &self.tenant_scenario(),
            self.base.config().mc_samples,
            self.base.config().base_seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DysimConfig, OracleKind};
    use imdpp_diffusion::scenario::toy_scenario;

    fn engine(oracle: OracleKind) -> Engine {
        Engine::builder(toy_scenario())
            .budget(3.0)
            .promotions(2)
            .config(DysimConfig::fast())
            .oracle(oracle)
            .build()
            .unwrap()
    }

    fn sketch_kind(shards: usize) -> OracleKind {
        OracleKind::RrSketch {
            sets_per_item: 192,
            shards,
            threads: 0,
        }
    }

    #[test]
    fn batch_answers_match_single_queries_and_pin_their_epoch() {
        let engine = engine(sketch_kind(2));
        let mut batch = engine.batch();
        assert!(batch.is_empty());
        let queries: Vec<Vec<Nominee>> = vec![
            vec![(UserId(0), ItemId(0))],
            vec![(UserId(2), ItemId(1)), (UserId(1), ItemId(2))],
            vec![],
            vec![(UserId(4), ItemId(2)), (UserId(0), ItemId(0))],
        ];
        for q in &queries {
            batch.push(q);
        }
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.epoch(), 0);
        let pinned = engine.snapshot();

        // Drift the engine *after* pinning; the batch must not notice.
        let update = ScenarioUpdate::Preferences(vec![(UserId(1), ItemId(2), 0.9)]);
        let _ = engine.apply(&update).unwrap();
        assert_eq!(engine.epoch(), 1);
        assert_eq!(batch.epoch(), 0);

        let results = batch.evaluate();
        for (q, nominees) in queries.iter().enumerate() {
            assert_eq!(
                results[q].to_bits(),
                pinned.static_spread(nominees).to_bits(),
                "query {q} must answer against the pinned epoch"
            );
        }

        // The convenience form answers against the *current* epoch.
        let refs: Vec<&[Nominee]> = queries.iter().map(|q| q.as_slice()).collect();
        let now = engine.static_spread_batch(&refs);
        let current = engine.snapshot();
        for (q, nominees) in queries.iter().enumerate() {
            assert_eq!(now[q].to_bits(), current.static_spread(nominees).to_bits());
        }
    }

    #[test]
    fn batch_telemetry_counts_batches_and_queries() {
        let engine = engine(sketch_kind(1));
        let mut batch = engine.batch();
        batch.push(&[(UserId(0), ItemId(0))]);
        batch.push(&[(UserId(2), ItemId(1))]);
        let _ = batch.evaluate();
        let _ = engine.static_spread_batch(&[&[(UserId(1), ItemId(2))]]);
        let snap = engine.telemetry();
        assert_eq!(snap.counter("engine.batches"), Some(2));
        assert_eq!(snap.counter("engine.batch.queries"), Some(3));
        assert_eq!(snap.histogram("engine.batch_ns").unwrap().count, 2);
        assert_eq!(snap.histogram("engine.batch.size").unwrap().count, 2);
        // Building the batch pinned one snapshot explicitly.
        assert_eq!(snap.counter("engine.snapshot_pins"), Some(1));
    }

    #[test]
    fn tenant_overlay_matches_an_independent_engine_bit_for_bit() {
        let deltas = vec![(UserId(1), ItemId(2), 0.9), (UserId(3), ItemId(0), 0.2)];
        for kind in [OracleKind::MonteCarlo, sketch_kind(1), sketch_kind(3)] {
            let base = engine(kind);
            let tenant = base.tenant(&deltas).unwrap();
            let independent =
                Engine::builder(base.snapshot().scenario().with_base_preferences(&deltas))
                    .budget(3.0)
                    .promotions(2)
                    .config(DysimConfig::fast())
                    .oracle(kind)
                    .build()
                    .unwrap();

            let probes: &[&[Nominee]] = &[
                &[(UserId(0), ItemId(0))],
                &[(UserId(1), ItemId(2)), (UserId(3), ItemId(0))],
                &[],
            ];
            for probe in probes {
                assert_eq!(
                    tenant.static_spread(probe).to_bits(),
                    independent.static_spread(probe).to_bits(),
                    "{kind:?}, probe {probe:?}"
                );
            }
            let batched = tenant.static_spread_batch(probes);
            for (q, probe) in probes.iter().enumerate() {
                assert_eq!(batched[q].to_bits(), tenant.static_spread(probe).to_bits());
            }

            let solved = tenant.solve_report().unwrap();
            let reference = independent.snapshot().solve_report();
            assert_eq!(solved.seeds, reference.seeds, "{kind:?}");
            assert_eq!(solved.nominees, reference.nominees, "{kind:?}");
            assert_eq!(
                tenant.spread(&solved.seeds).unwrap().to_bits(),
                independent.spread(&reference.seeds).to_bits(),
                "{kind:?}"
            );
            // The base engine itself is untouched by tenant work.
            assert_eq!(base.epoch(), 0);
            assert_eq!(tenant.base_epoch(), 0);
        }
    }

    #[test]
    fn tenant_deltas_dedupe_last_wins_and_validate() {
        let base = engine(sketch_kind(1));
        // Two writes to the same pair: only the second one survives, which
        // is exactly what apply()ing the list would leave behind.
        let tenant = base
            .tenant(&[
                (UserId(1), ItemId(2), 0.3),
                (UserId(2), ItemId(0), 0.5),
                (UserId(1), ItemId(2), 0.9),
            ])
            .unwrap();
        assert_eq!(
            tenant.deltas(),
            &[(UserId(1), ItemId(2), 0.9), (UserId(2), ItemId(0), 0.5)]
        );

        assert!(matches!(
            base.tenant(&[(UserId(99), ItemId(0), 0.5)]).unwrap_err(),
            ImdppError::InvalidConfig { .. }
        ));
        assert!(matches!(
            base.tenant(&[(UserId(0), ItemId(0), 1.5)]).unwrap_err(),
            ImdppError::OutOfRange { .. }
        ));
    }

    #[test]
    fn tenant_memory_is_deltas_not_graph() {
        let base = engine(sketch_kind(2));
        let total_sets = base.snapshot().oracle().as_sketch().unwrap().total_sets();
        let tenant = base.tenant(&[(UserId(1), ItemId(2), 0.9)]).unwrap();
        assert!(tenant.replaced_sets() > 0);
        assert!(tenant.overlay_bytes() > 0);
        // One tenant holds only the sets its delta invalidated — a strict
        // subset of one item's pool, not a second sketch.  (Byte-level
        // O(deltas) vs O(N × graph) is gated in tests/serving_tier.rs on an
        // instance big enough for compression constants not to dominate.)
        assert!(
            tenant.replaced_sets() < total_sets / 3,
            "replaced {} of {total_sets} sets",
            tenant.replaced_sets()
        );

        // A no-delta tenant serves pure base answers with an empty patch.
        let noop = base.tenant(&[]).unwrap();
        assert_eq!(noop.replaced_sets(), 0);
        let probe = [(UserId(0), ItemId(0))];
        assert_eq!(
            noop.static_spread(&probe).to_bits(),
            base.static_spread(&probe).to_bits()
        );

        let snap = base.telemetry();
        assert_eq!(snap.counter("engine.tenants"), Some(2));
    }

    #[test]
    fn queries_naming_no_catalogue_item_are_positive_zero_on_every_path() -> Result<(), ImdppError>
    {
        let engine = Engine::builder(toy_scenario())
            .budget(3.0)
            .promotions(2)
            .config(DysimConfig::fast())
            .oracle(OracleKind::RrSketch {
                sets_per_item: 128,
                shards: 2,
                threads: 0,
            })
            .build()?;
        let owned: Vec<Vec<Nominee>> = vec![
            vec![(UserId(0), ItemId(999))],
            vec![(UserId(999), ItemId(0))],
            vec![(UserId(999), ItemId(999)), (UserId(1), ItemId(77))],
            vec![(UserId(0), ItemId(999)), (UserId(1), ItemId(0))],
            vec![(UserId(2), ItemId(1)), (UserId(999), ItemId(1))],
        ];
        let refs: Vec<&[Nominee]> = owned.iter().map(Vec::as_slice).collect();
        let snap = engine.snapshot();
        let oracle = snap.oracle();
        let sketch = oracle
            .as_sketch()
            .ok_or_else(|| ImdppError::invalid("the engine was built on the sketch"))?;
        let mut batch = engine.batch();
        for q in &refs {
            batch.push(q);
        }
        let tenant = engine.tenant(&[(UserId(1), ItemId(0), 0.8)])?;
        let paths = [
            (
                "sketch",
                sketch.static_spread_batch(&refs),
                sketch as &dyn SpreadOracle,
            ),
            ("configured", oracle.static_spread_batch(&refs), oracle),
        ];
        for (name, batched, single) in paths {
            for (q, query) in refs.iter().enumerate() {
                assert_eq!(
                    single.static_spread(query).to_bits(),
                    batched[q].to_bits(),
                    "{name}, query {q}"
                );
            }
        }
        let served = batch.evaluate();
        let tenant_batch = tenant.static_spread_batch(&refs);
        for (q, query) in refs.iter().enumerate() {
            let single = engine.static_spread(query);
            assert_eq!(single.to_bits(), served[q].to_bits(), "engine, query {q}");
            assert_eq!(
                tenant.static_spread(query).to_bits(),
                tenant_batch[q].to_bits(),
                "tenant, query {q}"
            );
        }
        // The first three name no catalogue item (or no valid user): +0.0.
        for q in 0..3 {
            assert_eq!(served[q].to_bits(), 0.0f64.to_bits(), "query {q}");
            assert_eq!(
                tenant_batch[q].to_bits(),
                0.0f64.to_bits(),
                "tenant, query {q}"
            );
        }
        assert!(served[3] > 0.0 && served[4] > 0.0);
        Ok(())
    }
}
