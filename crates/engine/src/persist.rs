//! Warm restart: serializing an engine's sampled state to disk and
//! rebuilding a serving engine from it without re-sampling.
//!
//! [`Engine::persist`] writes, under the writer lock so the pair is
//! consistent, the three things a restarted process cannot cheaply
//! recompute: the **epoch counter**, the **RR sketch's sampled sets**
//! (byte-for-byte, via [`imdpp_sketch::persist`]'s checked codec), and the
//! **maintained solution** when one is valid for the persisted epoch.
//! Everything else — scenario, costs, budget, configuration — is supplied
//! again by the caller through the [`EngineBuilder`], exactly as at cold
//! start, and [`EngineBuilder::restore`] validates a fingerprint of it
//! against the file so a snapshot can never be grafted onto a different
//! world.
//!
//! The scenario is deliberately *not* persisted: the engine's contract is
//! that the sketch matches the scenario it was built against, so the caller
//! must hand `restore` the same (drifted) scenario that was current at
//! `persist` time.  The fingerprint (user/item counts, seed, oracle shape)
//! catches gross mismatches; semantic drift between persist and restore is
//! the caller's responsibility, just as it is for a cold build.
//!
//! Format (version 1, all integers LEB128, floats as `to_bits` LE):
//!
//! ```text
//! magic "IMDPPENG" | version | fingerprint | epoch
//! | oracle payload (sketch only: length-prefixed SketchOracle bytes)
//! | maintained flag | [DysimReport]
//! ```
//!
//! Versioning caveat: the format is intentionally strict — unknown
//! versions, trailing bytes, or any fingerprint mismatch fail with a typed
//! error rather than best-effort recovery.  A warm snapshot is an
//! optimization, never the source of truth; when in doubt, delete it and
//! cold-build.

use crate::{
    ConfiguredOracle, Engine, EngineBuilder, EngineMetrics, EngineSnapshot, ImdppError,
    MaintainedSolution, OracleKind,
};
use imdpp_core::dysim::DysimReport;
use imdpp_core::market::TargetMarket;
use imdpp_core::nominees::Nominee;
use imdpp_diffusion::{Seed, SeedGroup};
use imdpp_graph::{ItemId, UserId};
use imdpp_sketch::dispatch::sketch_config_for;
use imdpp_sketch::persist as codec;
use imdpp_sketch::SketchOracle;
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock};

/// File magic: identifies an engine snapshot (the sketch payload inside has
/// its own internal validation).
const MAGIC: &[u8; 8] = b"IMDPPENG";
/// Current format version; bumped on any layout change, never reused.
const VERSION: u32 = 1;
/// Oracle tags inside the fingerprint.
const TAG_MONTE_CARLO: u32 = 0;
const TAG_RR_SKETCH: u32 = 1;

impl Engine {
    /// Serializes the engine's warm state — epoch, sampled sketch, and the
    /// maintained solution when it is current — to `path`, atomically with
    /// respect to writers (the writer lock is held while the state pair is
    /// captured, so a concurrent [`Engine::apply`] can never tear it).
    ///
    /// # Errors
    /// [`ImdppError::Io`] when the file cannot be written;
    /// [`ImdppError::Poisoned`] when a previous writer panicked — a
    /// possibly half-published engine must not be persisted.
    pub fn persist(&self, path: impl AsRef<Path>) -> Result<(), ImdppError> {
        let _writer = self.writer.lock().map_err(|_| ImdppError::Poisoned {
            what: "engine writer lock",
        })?;
        let snap = self.read_snapshot();
        let maintained = self
            .maintained
            .lock()
            .map_err(|_| ImdppError::Poisoned {
                what: "maintained-solution lock",
            })?
            .clone();
        // Only a cache that is valid for the persisted epoch is worth
        // carrying across the restart; a stale one would be dropped by the
        // first solve anyway.
        let current_report = maintained
            .filter(|m| m.epoch == snap.epoch)
            .map(|m| m.report);
        let bytes = encode(&snap, current_report.as_ref());
        std::fs::write(path, bytes)?;
        Ok(())
    }
}

impl EngineBuilder {
    /// Builds an engine from a warm snapshot written by [`Engine::persist`]
    /// instead of sampling from scratch: the builder supplies the world
    /// (scenario, costs, budget, configuration — which must match what the
    /// persisting engine ran with), the file supplies the sampled sketch,
    /// the epoch, and the maintained solution.  The restored engine is
    /// bit-identical to the one that persisted — same estimates, same
    /// seeds, same epoch gauge — and re-samples **zero** RR sets getting
    /// there (`tests/engine_snapshot.rs` pins `sketch.sets_sampled == 0`).
    ///
    /// # Errors
    /// [`ImdppError::Io`] when the file cannot be read;
    /// [`ImdppError::InvalidConfig`] when the magic, version, or
    /// fingerprint disagrees with this builder, or the payload is truncated
    /// or corrupt; plus every error [`EngineBuilder::build`] can return.
    pub fn restore(self, path: impl AsRef<Path>) -> Result<Engine, ImdppError> {
        let bytes = std::fs::read(path)?;
        let (instance, config, telemetry) = self.prepare()?;

        let mut input = bytes.as_slice();
        let magic = codec::take(&mut input, MAGIC.len())?;
        if magic != MAGIC {
            return Err(codec::corrupt("not an engine snapshot (bad magic)"));
        }
        let version = codec::read_varint(&mut input)?;
        if version != VERSION {
            return Err(ImdppError::invalid(format!(
                "engine snapshot version {version} is not supported (expected {VERSION})"
            )));
        }
        let tag = check_fingerprint(&mut input, &instance, &config)?;

        let epoch = codec::read_varint64(&mut input)?;
        let oracle = match (config.oracle, tag) {
            (OracleKind::MonteCarlo, TAG_MONTE_CARLO) => {
                // The Monte-Carlo oracle has no sampled pool to restore —
                // rebuilding it from the scenario is already bit-identical.
                ConfiguredOracle::build_with_telemetry(
                    instance.scenario(),
                    config.oracle,
                    config.mc_samples,
                    config.base_seed,
                    &telemetry,
                )
            }
            (
                OracleKind::RrSketch {
                    sets_per_item,
                    shards,
                    threads,
                },
                TAG_RR_SKETCH,
            ) => {
                let len = codec::read_varint64(&mut input)? as usize;
                let payload = codec::take(&mut input, len)?;
                ConfiguredOracle::RrSketch(SketchOracle::deserialize(
                    instance.scenario(),
                    sketch_config_for(config.base_seed, sets_per_item, shards, threads),
                    &telemetry,
                    payload,
                )?)
            }
            // check_fingerprint already compared the tag against the
            // configured kind, so this arm is unreachable in practice.
            _ => {
                return Err(codec::corrupt(
                    "oracle tag disagrees with the configuration",
                ))
            }
        };

        let maintained = match codec::take(&mut input, 1)?[0] {
            0 => None,
            1 => Some(MaintainedSolution {
                epoch,
                report: decode_report(&mut input, &instance)?,
            }),
            _ => return Err(codec::corrupt("maintained-solution flag must be 0 or 1")),
        };
        if !input.is_empty() {
            return Err(codec::corrupt("trailing bytes after the engine snapshot"));
        }

        let metrics = EngineMetrics::new(&telemetry);
        metrics.epoch.set(epoch);
        Ok(Engine {
            current: RwLock::new(Arc::new(EngineSnapshot {
                epoch,
                instance,
                oracle,
                config,
            })),
            writer: Mutex::new(()),
            maintained: Mutex::new(maintained),
            telemetry,
            metrics,
        })
    }
}

/// Serializes the consistent (snapshot, maintained-report) pair `persist`
/// captured under the writer lock.
fn encode(snap: &EngineSnapshot, maintained: Option<&DysimReport>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    codec::write_varint(VERSION, &mut out);
    write_fingerprint(snap, &mut out);
    codec::write_varint(snap.epoch, &mut out);
    if let Some(sketch) = snap.oracle.as_sketch() {
        let payload = sketch.serialize();
        codec::write_varint(payload.len() as u64, &mut out);
        out.extend_from_slice(&payload);
    }
    match maintained {
        Some(report) => {
            out.push(1);
            encode_report(report, &mut out);
        }
        None => out.push(0),
    }
    out
}

/// The world-identity fields `restore` validates before trusting a payload.
fn write_fingerprint(snap: &EngineSnapshot, out: &mut Vec<u8>) {
    let scenario = snap.instance.scenario();
    codec::write_varint(scenario.user_count() as u64, out);
    codec::write_varint(scenario.item_count() as u64, out);
    codec::write_varint(snap.config.base_seed, out);
    codec::write_varint(snap.config.mc_samples as u64, out);
    codec::write_f64(snap.instance.budget(), out);
    codec::write_varint(snap.instance.promotions(), out);
    match snap.oracle.kind() {
        OracleKind::MonteCarlo => codec::write_varint(TAG_MONTE_CARLO, out),
        OracleKind::RrSketch {
            sets_per_item,
            shards,
            ..
        } => {
            codec::write_varint(TAG_RR_SKETCH, out);
            codec::write_varint(sets_per_item as u64, out);
            // The resolved shard count (0 already clamped to 1), so a
            // persist/restore pair with `0` and `1` fingerprints equal.
            codec::write_varint(shards as u64, out);
        }
    }
}

/// Validates the persisted fingerprint against the restoring builder's
/// world and returns the persisted oracle tag.
fn check_fingerprint(
    input: &mut &[u8],
    instance: &imdpp_core::problem::ImdppInstance,
    config: &imdpp_core::dysim::DysimConfig,
) -> Result<u32, ImdppError> {
    let scenario = instance.scenario();
    let mismatch = |what: &str| -> ImdppError {
        ImdppError::invalid(format!(
            "engine snapshot fingerprint mismatch: {what} differs from the builder's — \
             restore must be given the same world the snapshot was persisted from"
        ))
    };
    if codec::read_varint64(input)? != scenario.user_count() as u64 {
        return Err(mismatch("user count"));
    }
    if codec::read_varint64(input)? != scenario.item_count() as u64 {
        return Err(mismatch("item count"));
    }
    if codec::read_varint64(input)? != config.base_seed {
        return Err(mismatch("base seed"));
    }
    if codec::read_varint64(input)? != config.mc_samples as u64 {
        return Err(mismatch("mc_samples"));
    }
    if codec::read_f64(input)?.to_bits() != instance.budget().to_bits() {
        return Err(mismatch("budget"));
    }
    if codec::read_varint(input)? != instance.promotions() {
        return Err(mismatch("promotion count"));
    }
    let tag = codec::read_varint(input)?;
    match config.oracle {
        OracleKind::MonteCarlo => {
            if tag != TAG_MONTE_CARLO {
                return Err(mismatch("oracle kind"));
            }
        }
        OracleKind::RrSketch {
            sets_per_item,
            shards,
            ..
        } => {
            if tag != TAG_RR_SKETCH {
                return Err(mismatch("oracle kind"));
            }
            if codec::read_varint64(input)? != sets_per_item as u64 {
                return Err(mismatch("sets per item"));
            }
            if codec::read_varint64(input)? != shards.max(1) as u64 {
                return Err(mismatch("shard count"));
            }
        }
    }
    Ok(tag)
}

fn encode_nominees(nominees: &[Nominee], out: &mut Vec<u8>) {
    codec::write_varint(nominees.len() as u64, out);
    for &(u, x) in nominees {
        codec::write_varint(u.0, out);
        codec::write_varint(x.0, out);
    }
}

fn decode_nominees(
    input: &mut &[u8],
    users: usize,
    items: usize,
) -> Result<Vec<Nominee>, ImdppError> {
    let count = codec::read_varint64(input)? as usize;
    let mut nominees = Vec::with_capacity(count.min(users.saturating_mul(items)));
    for _ in 0..count {
        let u = codec::read_varint(input)?;
        let x = codec::read_varint(input)?;
        if (u as usize) >= users || (x as usize) >= items {
            return Err(codec::corrupt("persisted nominee is out of range"));
        }
        nominees.push((UserId(u), ItemId(x)));
    }
    Ok(nominees)
}

fn encode_users(users: &[UserId], out: &mut Vec<u8>) {
    codec::write_varint(users.len() as u64, out);
    for u in users {
        codec::write_varint(u.0, out);
    }
}

fn decode_users(input: &mut &[u8], user_count: usize) -> Result<Vec<UserId>, ImdppError> {
    let count = codec::read_varint64(input)? as usize;
    let mut users = Vec::with_capacity(count.min(user_count));
    for _ in 0..count {
        let u = codec::read_varint(input)?;
        if (u as usize) >= user_count {
            return Err(codec::corrupt("persisted market user is out of range"));
        }
        users.push(UserId(u));
    }
    Ok(users)
}

/// Serializes a [`DysimReport`] field by field, in declaration order.
fn encode_report(report: &DysimReport, out: &mut Vec<u8>) {
    let seeds = report.seeds.seeds();
    codec::write_varint(seeds.len() as u64, out);
    for seed in seeds {
        codec::write_varint(seed.user.0, out);
        codec::write_varint(seed.item.0, out);
        codec::write_varint(seed.promotion, out);
    }
    encode_nominees(&report.nominees, out);
    codec::write_varint(report.markets.len() as u64, out);
    for market in &report.markets {
        codec::write_varint(market.index as u64, out);
        codec::write_varint(market.diameter, out);
        encode_nominees(&market.nominees, out);
        encode_users(&market.users, out);
    }
    codec::write_varint(report.groups.len() as u64, out);
    for group in &report.groups {
        codec::write_varint(group.len() as u64, out);
        for &m in group {
            codec::write_varint(m as u64, out);
        }
    }
    codec::write_f64(report.total_cost, out);
    out.push(u8::from(report.guard_solution_used));
}

/// Decodes [`encode_report`] output, validating every id against the
/// restoring instance so a corrupt file fails typed instead of panicking
/// downstream.
fn decode_report(
    input: &mut &[u8],
    instance: &imdpp_core::problem::ImdppInstance,
) -> Result<DysimReport, ImdppError> {
    let users = instance.scenario().user_count();
    let items = instance.scenario().item_count();
    let seed_count = codec::read_varint64(input)? as usize;
    // Seeds are re-inserted in serialized order: `SeedGroup::insert`
    // appends, so the restored group is element-for-element identical to
    // the persisted one (equality includes order).
    let mut seeds = SeedGroup::new();
    for _ in 0..seed_count {
        let u = codec::read_varint(input)?;
        let x = codec::read_varint(input)?;
        let promotion = codec::read_varint(input)?;
        if (u as usize) >= users || (x as usize) >= items {
            return Err(codec::corrupt("persisted seed is out of range"));
        }
        if promotion < 1 || promotion > instance.promotions() {
            return Err(codec::corrupt("persisted seed promotion is out of range"));
        }
        seeds.insert(Seed::new(UserId(u), ItemId(x), promotion));
    }
    let nominees = decode_nominees(input, users, items)?;
    let market_count = codec::read_varint64(input)? as usize;
    let mut markets = Vec::with_capacity(market_count.min(users));
    for _ in 0..market_count {
        let index = codec::read_varint64(input)? as usize;
        let diameter = codec::read_varint(input)?;
        let market_nominees = decode_nominees(input, users, items)?;
        let market_users = decode_users(input, users)?;
        markets.push(TargetMarket {
            index,
            nominees: market_nominees,
            users: market_users,
            diameter,
        });
    }
    let group_count = codec::read_varint64(input)? as usize;
    let mut groups = Vec::with_capacity(group_count.min(markets.len() + 1));
    for _ in 0..group_count {
        let len = codec::read_varint64(input)? as usize;
        let mut group = Vec::with_capacity(len.min(markets.len() + 1));
        for _ in 0..len {
            let m = codec::read_varint64(input)? as usize;
            if m >= markets.len() {
                return Err(codec::corrupt(
                    "persisted group references a missing market",
                ));
            }
            group.push(m);
        }
        groups.push(group);
    }
    let total_cost = codec::read_f64(input)?;
    let guard_solution_used = match codec::take(input, 1)?[0] {
        0 => false,
        1 => true,
        _ => return Err(codec::corrupt("guard-solution flag must be 0 or 1")),
    };
    Ok(DysimReport {
        seeds,
        nominees,
        markets,
        groups,
        total_cost,
        guard_solution_used,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DysimConfig, Engine};
    use imdpp_core::ScenarioUpdate;
    use imdpp_diffusion::scenario::toy_scenario;

    fn builder(kind: OracleKind) -> EngineBuilder {
        Engine::builder(toy_scenario())
            .budget(3.0)
            .promotions(2)
            .config(DysimConfig::fast())
            .oracle(kind)
    }

    fn sketch_kind(shards: usize) -> OracleKind {
        OracleKind::RrSketch {
            sets_per_item: 192,
            shards,
            threads: 0,
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "imdpp-engine-persist-{name}-{}",
            std::process::id()
        ));
        p
    }

    #[test]
    fn persist_restore_round_trips_without_resampling() {
        for (i, kind) in [OracleKind::MonteCarlo, sketch_kind(1), sketch_kind(3)]
            .into_iter()
            .enumerate()
        {
            let is_sketch = matches!(kind, OracleKind::RrSketch { .. });
            let engine = builder(kind).build().unwrap();
            let update = ScenarioUpdate::Preferences(vec![(UserId(1), ItemId(2), 0.9)]);
            let applied = engine.apply(&update).unwrap();
            assert_eq!(applied.epoch, 1);
            let served = engine.solve_report();

            let path = temp_path(&format!("roundtrip-{i}"));
            engine.persist(&path).unwrap();
            let drifted = engine.snapshot().scenario().clone();
            let restored = Engine::builder(drifted)
                .budget(3.0)
                .promotions(2)
                .config(DysimConfig::fast())
                .oracle(kind)
                .restore(&path)
                .unwrap();
            std::fs::remove_file(&path).unwrap();

            assert_eq!(restored.epoch(), 1);
            assert_eq!(restored.telemetry().gauge("engine.epoch"), Some(1));
            // Zero RR sets were sampled rebuilding the oracle.
            if is_sketch {
                assert_eq!(restored.telemetry().counter("sketch.sets_sampled"), Some(0));
                let a = engine.snapshot();
                let b = restored.snapshot();
                assert!(a
                    .oracle()
                    .as_sketch()
                    .unwrap()
                    .stores_equal(b.oracle().as_sketch().unwrap()));
            }
            // Estimates and the served solution are bit-identical.
            let probe = [(UserId(0), ItemId(0)), (UserId(1), ItemId(2))];
            assert_eq!(
                restored.static_spread(&probe).to_bits(),
                engine.static_spread(&probe).to_bits()
            );
            let after = restored.solve_report();
            assert_eq!(after.seeds, served.seeds);
            assert_eq!(after.nominees, served.nominees);
            assert_eq!(after.total_cost.to_bits(), served.total_cost.to_bits());
        }
    }

    #[test]
    fn restore_rejects_zero_monte_carlo_samples() -> Result<(), ImdppError> {
        let engine = builder(OracleKind::MonteCarlo).build()?;
        let path = temp_path("zero-samples");
        engine.persist(&path)?;
        let restored = builder(OracleKind::MonteCarlo)
            .config(DysimConfig {
                mc_samples: 0,
                ..DysimConfig::fast()
            })
            .restore(&path);
        std::fs::remove_file(&path)?;
        let err = restored.unwrap_err();
        assert!(matches!(err, ImdppError::InvalidConfig { .. }));
        assert!(err.to_string().contains("mc_samples"));
        Ok(())
    }

    #[test]
    fn restore_rejects_mismatched_worlds_and_corrupt_files() {
        let engine = builder(sketch_kind(2)).build().unwrap();
        let _ = engine.solve();
        let path = temp_path("mismatch");
        engine.persist(&path).unwrap();
        let scenario = engine.snapshot().scenario().clone();

        // Wrong seed, wrong oracle shape, wrong budget: all refused.
        for bad in [
            builder(sketch_kind(2)).seed(99),
            builder(sketch_kind(4)),
            builder(OracleKind::MonteCarlo),
            Engine::builder(scenario.clone())
                .budget(7.0)
                .promotions(2)
                .config(DysimConfig::fast())
                .oracle(sketch_kind(2)),
        ] {
            assert!(matches!(
                bad.restore(&path).unwrap_err(),
                ImdppError::InvalidConfig { .. }
            ));
        }

        // Truncations anywhere fail typed, never panic.
        let bytes = std::fs::read(&path).unwrap();
        let truncated = temp_path("truncated");
        for cut in [0, 4, MAGIC.len(), bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&truncated, &bytes[..cut]).unwrap();
            assert!(
                matches!(
                    builder(sketch_kind(2)).restore(&truncated).unwrap_err(),
                    ImdppError::InvalidConfig { .. }
                ),
                "cut at {cut} must not restore"
            );
        }
        // Trailing garbage is refused too.
        let mut padded = bytes.clone();
        padded.push(0);
        std::fs::write(&truncated, &padded).unwrap();
        assert!(builder(sketch_kind(2)).restore(&truncated).is_err());
        std::fs::remove_file(&truncated).unwrap();

        // A missing file surfaces the I/O error.
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            builder(sketch_kind(2)).restore(&path).unwrap_err(),
            ImdppError::Io(_)
        ));
    }

    #[test]
    fn maintained_solution_restores_with_the_engine() {
        let engine = builder(sketch_kind(1)).build().unwrap();
        let first = engine.solve_report();
        let path = temp_path("maintained");
        engine.persist(&path).unwrap();
        let restored = builder(sketch_kind(1)).restore(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        // The cache came back installed for the restored epoch, so the
        // first solve is a lookup, not a pipeline run...
        {
            let slot = restored.maintained.lock().unwrap();
            let cached = slot.as_ref().expect("the persisted cache must restore");
            assert_eq!(cached.epoch, 0);
        }
        // ...and it serves the identical report.
        let served = restored.solve_report();
        assert_eq!(served.seeds, first.seeds);
        assert_eq!(served.nominees, first.nominees);
    }

    #[test]
    fn persist_fails_typed_on_unwritable_paths() {
        let engine = builder(OracleKind::MonteCarlo).build().unwrap();
        let missing_dir = temp_path("no-such-dir").join("nested").join("out.bin");
        assert!(matches!(
            engine.persist(&missing_dir).unwrap_err(),
            ImdppError::Io(_)
        ));
    }
}
