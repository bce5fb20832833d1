//! The sketch's pre-resolved telemetry handles.
//!
//! [`SketchMetrics`] bundles every metric the sketch records, resolved once
//! at oracle construction so the hot paths (shard workers, refresh loops)
//! never touch the registry lock.  The handles are `Arc`-backed and `Sync`,
//! so one bundle is shared by reference across the shard workers of
//! [`crate::sharded::ShardedRrStore`].
//!
//! ## Determinism invariant
//!
//! Telemetry is strictly write-only from the sketch's point of view: no
//! recorded value ever feeds an RNG stream or a control-flow decision, so a
//! metered sketch produces bit-identical stores, estimates and
//! [`RefreshStats`](crate::incremental::RefreshStats) to an unmetered one.
//! The *semantic* counters recorded here (`sketch.sets_sampled`,
//! `sketch.sets_resampled`, `sketch.index_entries_patched`, …) are
//! themselves pure functions of the scenario and the update sequence —
//! independent of the shard count and the worker count — which
//! `tests/parallel_determinism.rs` asserts across the whole grid.  Only the
//! timing histograms (`*_ns`) differ between runs.

use imdpp_obs::{Counter, Gauge, Histogram, Telemetry};

/// Every metric the sketch records, as pre-resolved handles.
///
/// [`SketchMetrics::noop`] (also the `Default`) is the disabled form whose
/// record calls cost one branch; [`SketchMetrics::new`] resolves the
/// handles against a live registry.  Cloning shares the underlying cells.
#[derive(Clone, Debug, Default)]
pub struct SketchMetrics {
    /// Wall-clock of one shard worker's slice of a bulk build
    /// (`sketch.shard_build_ns`) — one observation per shard per build, so
    /// the spread across observations measures worker imbalance.
    pub shard_build_ns: Histogram,
    /// Wall-clock of one shard worker's slice of an incremental refresh
    /// (`sketch.shard_refresh_ns`).
    pub shard_refresh_ns: Histogram,
    /// Prepared refresh-frontier sizes (`sketch.refresh_frontier_heads`),
    /// one observation per store refresh.
    pub refresh_frontier_heads: Histogram,
    /// Per-refresh resample fraction in permille
    /// (`sketch.refresh_resampled_permille`): `⌊1000 · resampled/total⌋`.
    pub refresh_resampled_permille: Histogram,
    /// RR sets sampled by builds (`sketch.sets_sampled`).
    pub sets_sampled: Counter,
    /// RR sets re-sampled by refreshes (`sketch.sets_resampled`).
    pub sets_resampled: Counter,
    /// RR sets reused (left untouched) by refreshes (`sketch.sets_reused`).
    pub sets_reused: Counter,
    /// Store-level refresh invocations (`sketch.refreshes`).
    pub refreshes: Counter,
    /// Inverted-index entries patched by refreshes
    /// (`sketch.index_entries_patched`) — folds the `RefreshStats` field
    /// into the registry.
    pub index_entries_patched: Counter,
    /// Post-build full index rebuilds observed by refreshes
    /// (`sketch.index_full_rebuilds`) — the scale invariant says this stays
    /// 0; construction-time builds are deliberately *not* counted so the
    /// value is shard-count-independent.
    pub index_full_rebuilds: Counter,
    /// Live compressed-arena bytes across every item store and shard
    /// (`sketch.arena_live_bytes`), overwritten after builds and refreshes.
    /// Counts *live* encoded spans only — a pure function of the set
    /// contents — because garbage and compaction timing vary with the shard
    /// count, and gauges must stay grid-bit-identical.
    pub arena_live_bytes: Gauge,
}

impl SketchMetrics {
    /// Resolves the handle bundle against `telemetry` (no-op handles when
    /// the registry is disabled).
    pub fn new(telemetry: &Telemetry) -> Self {
        SketchMetrics {
            shard_build_ns: telemetry.histogram("sketch.shard_build_ns"),
            shard_refresh_ns: telemetry.histogram("sketch.shard_refresh_ns"),
            refresh_frontier_heads: telemetry.histogram("sketch.refresh_frontier_heads"),
            refresh_resampled_permille: telemetry.histogram("sketch.refresh_resampled_permille"),
            sets_sampled: telemetry.counter("sketch.sets_sampled"),
            sets_resampled: telemetry.counter("sketch.sets_resampled"),
            sets_reused: telemetry.counter("sketch.sets_reused"),
            refreshes: telemetry.counter("sketch.refreshes"),
            index_entries_patched: telemetry.counter("sketch.index_entries_patched"),
            index_full_rebuilds: telemetry.counter("sketch.index_full_rebuilds"),
            arena_live_bytes: telemetry.gauge("sketch.arena_live_bytes"),
        }
    }

    /// The disabled bundle: every record call is a single branch.
    pub fn noop() -> Self {
        SketchMetrics::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_resolves_against_the_registry() {
        let t = Telemetry::new();
        let m = SketchMetrics::new(&t);
        m.sets_sampled.add(3);
        m.shard_build_ns.record(100);
        let snap = t.snapshot();
        assert_eq!(snap.counter("sketch.sets_sampled"), Some(3));
        assert_eq!(snap.histogram("sketch.shard_build_ns").unwrap().count, 1);
    }

    #[test]
    fn noop_records_nothing() {
        let m = SketchMetrics::noop();
        m.sets_sampled.add(3);
        m.refreshes.incr();
        assert_eq!(m.sets_sampled.value(), 0);
        assert_eq!(m.refreshes.value(), 0);
    }

    #[test]
    fn disabled_registry_resolves_to_noop_handles() {
        let m = SketchMetrics::new(&Telemetry::disabled());
        m.sets_resampled.add(7);
        assert_eq!(m.sets_resampled.value(), 0);
    }
}
