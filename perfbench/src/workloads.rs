//! The two workloads: what each caller does, what is timed, and which
//! outputs are checked.  See `perfbench/README.md` for why each exists.

use crate::inputs::{self, StreamMix, World};
use crate::stats::{median, tail};
use crate::trace::{layer_self_ns, Tracer};
use imdpp_core::market::{group_markets, identify_markets, TmiConfig};
use imdpp_core::nominees::Nominee;
use imdpp_core::{Dysim, DysimConfig, Evaluator, ScenarioUpdate, SpreadOracle};
use imdpp_engine::{ConfiguredOracle, DysimReport, Engine, EngineSnapshot};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;
use std::time::{Duration, Instant};

/// Fresh set-ups per run; `setup_s` is their median.  The first opens the
/// run, the others are spread over the measured stream ([`LaterSetups`]).
const SETUPS: usize = 5;
/// Updates every run completes, even past `--seconds`; the work counters
/// cover exactly these, so they repeat for a seed whatever the speed.
const COUNTED_UPDATES: usize = 16;
/// Fresh solves every solve-yelp run completes; `sigma` averages them.
/// Sessions differ by their seeded update, so σ needs this many to repeat
/// within a few percent from seed to seed.
const COUNTED_DRAWS: usize = 32;
/// Monte-Carlo samples and seed of the independent σ evaluation.
const SIGMA_SAMPLES: usize = 100;
const SIGMA_SEED: u64 = 0x5167_A5EE;
/// Updates in a generated stream: more than any run completes.
const STREAM: usize = 4096;
/// Queries per batch.
const BATCH: usize = 32;
/// Distinct batches in a workload's query pool.  A batch costs about one
/// arena pass per item its queries touch, so a small pool would give each
/// seed its own query latency.
const POOL: usize = 256;

pub const WORKLOADS: [&str; 2] = ["solve-yelp", "churn-pa5k"];

/// A metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// What one run produced.
pub struct Run {
    pub digests: Vec<(&'static str, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Human-readable facts printed beside the metrics.
    pub notes: Vec<String>,
    pub tracer: Tracer,
}

/// Everything a run records before the metrics are derived.
#[derive(Default)]
struct Rec {
    setup_s: Vec<f64>,
    /// Digests of the seeds every set-up served.
    setup_seeds: BTreeSet<u64>,
    solve_s: Vec<f64>,
    answer_ms: Vec<f64>,
    query_us: Vec<f64>,
    queries: u64,
    query_busy_s: f64,
    updates: u64,
    stream_s: f64,
    /// Peak resident memory when the stream ended, before the checks
    /// that follow it.
    peak_rss_mb: f64,
    sigma: Vec<f64>,
    /// Per-layer samples, reported as medians.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer values reported as they are (counts and sums).
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Rec {
    fn op(&mut self) {
        self.attempted += 1;
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_insert(0.0) += v;
    }

    /// Records one set-up.  Every set-up of a run must serve the same
    /// feasible seeds.
    fn setup_done(&mut self, seconds: f64, feasible: bool, seeds: u64) {
        self.setup_s.push(seconds);
        self.check(feasible, || {
            "set-up solve returned an empty or infeasible seed group".to_string()
        });
        self.setup_seeds.insert(seeds);
    }

    /// Keeps the first value recorded under `name`.
    fn first(&mut self, name: &'static str, v: f64) {
        self.values.entry(name).or_insert(v);
    }

    /// Closes the measured stream: its length without the later set-ups,
    /// the peak resident memory so far, and how much resident memory the
    /// stream added to what set-up left.
    fn stream_done(&mut self, started: Instant, setups: &LaterSetups) {
        self.stream_s = started
            .elapsed()
            .saturating_sub(setups.paused)
            .as_secs_f64();
        self.peak_rss_mb = mb(imdpp_obs::peak_rss_bytes());
        let after_setup = self
            .values
            .get("engine.rss_after_setup_mb")
            .copied()
            .unwrap_or(0.0);
        self.values.insert(
            "engine.rss_growth_mb",
            mb(imdpp_obs::current_rss_bytes()) - after_setup,
        );
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn mb(bytes: Option<u64>) -> f64 {
    bytes.map_or(0.0, |b| b as f64 / 1e6)
}

/// A [`SpreadOracle`] that counts and times the calls a solve makes.
struct Counting<'a> {
    inner: &'a ConfiguredOracle,
    calls: Cell<u64>,
    busy: Cell<Duration>,
}

impl Counting<'_> {
    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.calls.set(self.calls.get() + 1);
        self.busy.set(self.busy.get() + started.elapsed());
        out
    }
}

impl SpreadOracle for Counting<'_> {
    fn static_spread(&self, nominees: &[Nominee]) -> f64 {
        self.timed(|| self.inner.static_spread(nominees))
    }

    fn marginal_gain(&self, base: &[Nominee], candidate: Nominee) -> f64 {
        self.timed(|| self.inner.marginal_gain(base, candidate))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// σ of a served seed group, from an evaluator independent of the engine.
fn sigma(snapshot: &EngineSnapshot, report: &DysimReport) -> f64 {
    Evaluator::new(snapshot.instance(), SIGMA_SAMPLES, SIGMA_SEED).spread(&report.seeds)
}

fn build(world: &World, config: &DysimConfig) -> Result<Engine, String> {
    Engine::for_instance(&world.instance)
        .config(config.clone())
        .build()
        .map_err(|e| format!("engine build failed: {e}"))
}

/// One set-up — build plus first `solve_report` — and its length in
/// seconds.
fn set_up(world: &World, config: &DysimConfig) -> Result<(Engine, DysimReport, f64), String> {
    let started = Instant::now();
    let engine = build(world, config)?;
    let report = engine.solve_report();
    Ok((engine, report, started.elapsed().as_secs_f64()))
}

fn feasible(world: &World, report: &DysimReport) -> bool {
    !report.seeds.is_empty() && world.instance.is_feasible(&report.seeds)
}

/// The run's first set-up.  Records the resident memory it leaves and,
/// traced, probes the sketch build and the solve's layers.  Returns the
/// engine and the digest of its seeds.
fn setup(
    world: &World,
    config: &DysimConfig,
    tr: &mut Tracer,
    rec: &mut Rec,
) -> Result<(Engine, u64), String> {
    let (engine, report, seconds) = set_up(world, config)?;
    let digest = inputs::seeds_digest(&report.seeds);
    rec.setup_done(seconds, feasible(world, &report), digest);
    rec.values.insert(
        "engine.rss_after_setup_mb",
        mb(imdpp_obs::current_rss_bytes()),
    );
    if tr.enabled() {
        probe_build(&engine.snapshot(), tr, rec);
        probe_core(&engine.snapshot(), &report, tr, rec);
    }
    Ok((engine, digest))
}

/// `perfbench --setup-probe <workload>`: one set-up of the workload's
/// world in a process of its own.  Returns the line it prints: the set-up's
/// seconds, whether its seeds are feasible, and their digest.
pub fn setup_probe(workload: &str) -> Result<String, String> {
    let world = world_of(workload)?;
    let (_, report, seconds) = set_up(&world, &world.config)?;
    Ok(format!(
        "{seconds} {} {:016x}",
        u8::from(feasible(&world, &report)),
        inputs::seeds_digest(&report.seeds)
    ))
}

/// Runs `--setup-probe` in a child process and waits for it.
fn run_setup_probe(workload: &str) -> Result<(f64, bool, u64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--setup-probe", workload])
        .output()
        .map_err(|e| format!("cannot start a set-up probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let fields: Vec<&str> = text.split_whitespace().collect();
    let parsed = match fields.as_slice() {
        [seconds, feasible, digest] if out.status.success() => seconds
            .parse()
            .ok()
            .zip(u64::from_str_radix(digest, 16).ok())
            .map(|(seconds, digest)| (seconds, *feasible == "1", digest)),
        _ => None,
    };
    parsed.ok_or_else(|| {
        format!(
            "set-up probe failed: {} {}",
            text.trim(),
            String::from_utf8_lossy(&out.stderr).trim()
        )
    })
}

/// The set-ups after the first, each in a child process, due at even
/// fractions of the measured stream.  A set-up lasts about a second while
/// the host's speed changes over tens of seconds, so set-ups made back to
/// back would all sample one moment of it; in a child process a set-up's
/// memory never adds to the run's peak.  Their time is left out of the
/// stream's length.
struct LaterSetups {
    workload: &'static str,
    due: Vec<Instant>,
    paused: Duration,
}

impl LaterSetups {
    fn new(workload: &'static str, started: Instant, seconds: f64) -> Self {
        let due = (1..SETUPS)
            .map(|k| started + Duration::from_secs_f64(seconds * k as f64 / SETUPS as f64))
            .collect();
        LaterSetups {
            workload,
            due,
            paused: Duration::ZERO,
        }
    }

    /// Makes the next set-up if it is due, or every one left if `all`.
    fn poll(&mut self, all: bool, rec: &mut Rec) -> Result<(), String> {
        while self
            .due
            .first()
            .is_some_and(|&at| all || Instant::now() >= at)
        {
            self.due.remove(0);
            let started = Instant::now();
            let (seconds, feasible, digest) = run_setup_probe(self.workload)?;
            self.paused += started.elapsed();
            rec.setup_done(seconds, feasible, digest);
        }
        Ok(())
    }
}

/// Traced only: a standalone sketch build on the set-up world.
fn probe_build(snapshot: &EngineSnapshot, tr: &mut Tracer, rec: &mut Rec) {
    let config = snapshot.config();
    tr.next_request();
    let open = tr.enter("sketch.build");
    let oracle = ConfiguredOracle::build(
        snapshot.scenario(),
        config.oracle,
        config.mc_samples,
        config.base_seed,
    );
    rec.sample("sketch.build_ms", ms(tr.exit(open)));
    drop(oracle);
}

/// Traced only: replays the engine's solve through `Dysim::solve_with`
/// with a counting oracle, then the market stages and one Monte-Carlo
/// spread, on the same snapshot.  The replay must serve the same seeds.
fn probe_core(snapshot: &EngineSnapshot, served: &DysimReport, tr: &mut Tracer, rec: &mut Rec) {
    let config = snapshot.config().clone();
    let instance = snapshot.instance();
    let counting = Counting {
        inner: snapshot.oracle(),
        calls: Cell::new(0),
        busy: Cell::new(Duration::ZERO),
    };
    tr.next_request();
    let open = tr.enter("core.solve");
    let report = Dysim::new(config.clone()).solve_with(instance, &counting);
    tr.reported_children(&open, &[("sketch.oracle_query", counting.busy.get())]);
    let solve = tr.exit(open);
    rec.check(report.seeds == served.seeds, || {
        "the traced solve_with replay served different seeds than the engine".to_string()
    });
    rec.sample("core.solve_ms", ms(solve));
    rec.sample("sketch.oracle_query_ms", ms(counting.busy.get()));
    rec.sample(
        "core.mc_stages_ms",
        ms(solve.saturating_sub(counting.busy.get())),
    );
    rec.first("sketch.oracle_queries", counting.calls.get() as f64);
    rec.first("core.nominees", report.nominees.len() as f64);
    rec.first("core.markets", report.markets.len() as f64);
    rec.first("core.groups", report.groups.len() as f64);

    let tmi = TmiConfig {
        mioa_threshold: config.mioa_threshold,
        overlap_threshold: config.market_overlap_threshold,
        ..TmiConfig::default()
    };
    let open = tr.enter("core.markets");
    let markets = identify_markets(instance, &report.nominees, &tmi);
    let groups = group_markets(&markets, config.market_overlap_threshold);
    rec.sample("core.markets_ms", ms(tr.exit(open)));
    if config.use_target_markets {
        rec.check(groups == report.groups, || {
            "replayed market grouping differs from the solve's".to_string()
        });
    }

    let open = tr.enter("diffusion.mc_spread");
    let spread =
        Evaluator::new(instance, config.mc_samples, config.base_seed).spread(&report.seeds);
    rec.sample("diffusion.mc_spread_ms", ms(tr.exit(open)));
    rec.check(spread.is_finite(), || {
        "Monte-Carlo spread is not finite".to_string()
    });
}

/// Traced only: replays the pieces of an apply on the pinned pre-apply
/// snapshot — the scenario update, the graph edit and the oracle clone.
fn replay_apply(engine: &Engine, update: &ScenarioUpdate, tr: &mut Tracer, rec: &mut Rec) {
    if !tr.enabled() {
        return;
    }
    tr.next_request();
    let snapshot = engine.snapshot();
    let root = tr.enter("bench.replay");
    let (span, metric) = match update {
        ScenarioUpdate::Edges(_) => (
            "diffusion.scenario_update_edge",
            "diffusion.scenario_update_edge_ms",
        ),
        ScenarioUpdate::Preferences(_) => (
            "diffusion.scenario_update_pref",
            "diffusion.scenario_update_pref_ms",
        ),
    };
    let open = tr.enter(span);
    let updated = update.apply(snapshot.scenario());
    rec.sample(metric, ms(tr.exit(open)));
    drop(updated);
    if let ScenarioUpdate::Edges(edges) = update {
        let open = tr.enter("graph.edge_update");
        let graph = snapshot.scenario().social().apply_edge_updates(edges);
        rec.sample("graph.edge_update_ms", ms(tr.exit(open)));
        drop(graph);
    }
    let open = tr.enter("sketch.clone");
    let oracle = snapshot.oracle().clone();
    rec.sample("sketch.clone_ms", ms(tr.exit(open)));
    drop(oracle);
    let _ = tr.exit(root);
}

fn maintain_ns(engine: &Engine) -> u64 {
    engine
        .telemetry()
        .histogram("engine.maintain_ns")
        .map_or(0, |h| h.sum)
}

/// One write as the caller sees it: `apply`, then `solve_report`.  Returns
/// the answer and the time from the start of `apply` to the answer.
fn update_and_answer(
    engine: &Engine,
    update: &ScenarioUpdate,
    counted: bool,
    tr: &mut Tracer,
    rec: &mut Rec,
) -> Option<(DysimReport, Duration)> {
    tr.next_request();
    let maintain_before = tr.enabled().then(|| maintain_ns(engine));
    let root = tr.enter("bench.update");
    let open = tr.enter("engine.apply");
    let applied = engine.apply(update);
    rec.op();
    let applied = match applied {
        Ok(applied) => applied,
        Err(e) => {
            let _ = tr.exit(open);
            let _ = tr.exit(root);
            rec.check(false, || format!("apply failed: {e}"));
            return None;
        }
    };
    let maintain = maintain_before.map_or(Duration::ZERO, |before| {
        Duration::from_nanos(maintain_ns(engine).saturating_sub(before))
    });
    tr.reported_children(
        &open,
        &[
            ("sketch.refresh", applied.refresh_wall),
            ("engine.maintain", maintain),
            ("engine.swap", applied.swap_wall),
        ],
    );
    let apply = tr.exit(open);
    let open = tr.enter("engine.solve_report");
    let report = engine.solve_report();
    let solve = tr.exit(open);
    let total = tr.exit(root);
    rec.op();

    rec.solve_s.push(solve.as_secs_f64());
    rec.updates += 1;
    rec.sample("engine.apply_ms", ms(apply));
    rec.sample("engine.served_solve_us", us(solve));
    rec.sample("engine.swap_ms", ms(applied.swap_wall));
    rec.sample("sketch.refresh_ms", ms(applied.refresh_wall));
    if tr.enabled() {
        rec.sample("engine.maintain_ms", ms(maintain));
    }
    rec.add("sketch.full_rebuilds", applied.refresh.full_rebuilds as f64);
    rec.add("bench.refresh_s", applied.refresh_wall.as_secs_f64());
    rec.add("bench.resampled_all", applied.refresh.resampled_sets as f64);
    if counted {
        rec.add(
            "sketch.sets_resampled",
            applied.refresh.resampled_sets as f64,
        );
        rec.add("bench.total_sets", applied.refresh.total_sets as f64);
        rec.add(
            "sketch.index_entries_patched",
            applied.refresh.index_entries_patched as f64,
        );
        let repair = applied.solve_repair;
        rec.add("maintain.seeds_retained", repair.seeds_retained as f64);
        rec.add(
            "maintain.positions_repaired",
            repair.positions_repaired as f64,
        );
        rec.add("maintain.full_resolves", repair.full_resolves as f64);
    }
    rec.check(applied.refresh.full_rebuilds == 0, || {
        format!(
            "update at epoch {} fell back to a full index rebuild",
            applied.epoch
        )
    });
    let feasible = engine.snapshot().instance().is_feasible(&report.seeds);
    rec.check(feasible && !report.seeds.is_empty(), || {
        format!("answer at epoch {} is empty or infeasible", applied.epoch)
    });
    Some((report, total))
}

/// One 32-query batch through `Engine::batch`.  `verify` re-asks every
/// query through `EngineSnapshot::static_spread` on the batch's pinned
/// snapshot and demands bit-identical answers.
fn query_batch(
    engine: &Engine,
    queries: &[Vec<Nominee>],
    verify: bool,
    tr: &mut Tracer,
    rec: &mut Rec,
) {
    tr.next_request();
    let open = tr.enter("engine.batch");
    let mut batch = engine.batch();
    for query in queries {
        batch.push(query);
    }
    let answers = batch.evaluate();
    let took = tr.exit(open);
    rec.op();
    rec.query_us.push(us(took));
    rec.queries += queries.len() as u64;
    rec.query_busy_s += took.as_secs_f64();
    if tr.enabled() {
        let refs: Vec<&[Nominee]> = queries.iter().map(Vec::as_slice).collect();
        let open = tr.enter("sketch.batch_query");
        let direct = batch.snapshot().static_spread_batch(&refs);
        let direct_took = tr.exit(open);
        rec.sample("sketch.batch_query_us", us(direct_took));
        rec.sample("engine.batch_overhead_us", us(took) - us(direct_took));
        rec.check(bits(&direct) == bits(&answers), || {
            "static_spread_batch disagrees with Engine::batch on one snapshot".to_string()
        });
    }
    if verify {
        let single: Vec<f64> = queries
            .iter()
            .map(|q| batch.snapshot().static_spread(q))
            .collect();
        rec.check(bits(&single) == bits(&answers), || {
            format!(
                "batch at epoch {} differs from static_spread bit for bit",
                batch.epoch()
            )
        });
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The arena's size: after the counted prefix of updates, or after set-up
/// on solve-yelp, whose sessions each start from the preset world.
fn record_arena(snapshot: &EngineSnapshot, rec: &mut Rec) {
    if let Some(sketch) = snapshot.oracle().as_sketch() {
        rec.first("sketch.arena_live_bytes", sketch.live_arena_bytes() as f64);
        rec.first(
            "sketch.arena_uncompressed_bytes",
            sketch.uncompressed_bytes() as f64,
        );
    }
}

/// Settings of one run.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub fn run(workload: &str, args: Args) -> Result<Run, String> {
    let world = world_of(workload)?;
    match workload {
        "solve-yelp" => solve_yelp(world, args),
        _ => churn(world, args),
    }
}

/// The fixed world and engine configuration of `workload`.
fn world_of(workload: &str) -> Result<World, String> {
    match workload {
        "solve-yelp" => Ok(inputs::yelp_world()),
        "churn-pa5k" => Ok(inputs::churn_world()),
        other => Err(format!(
            "unknown workload '{other}' (known: {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Tail caps per workload: (update-to-answer, query batch).
fn caps(workload: &str) -> (f64, f64) {
    match workload {
        "solve-yelp" => (75.0, 95.0),
        _ => (90.0, 95.0),
    }
}

struct Inputs {
    world: World,
    stream: Vec<ScenarioUpdate>,
    pool: Vec<Vec<Vec<Nominee>>>,
    digests: Vec<(&'static str, u64)>,
}

fn inputs(world: World, seed: u64, mix: StreamMix) -> Inputs {
    let stream = inputs::update_stream(&world.instance, inputs::derive(seed, 2), STREAM, mix);
    let pool = inputs::query_batches(&world.instance, inputs::derive(seed, 3), POOL, BATCH);
    let digests = vec![
        ("world", inputs::world_digest(&world.instance)),
        ("updates", inputs::updates_digest(&stream)),
        ("queries", inputs::queries_digest(&pool)),
    ];
    Inputs {
        world,
        stream,
        pool,
        digests,
    }
}

/// One caller in a closed loop asks for fresh solves.  Each request is a
/// new session on the preset world: one seeded localized update, then
/// `solve_report` (maintenance is off, so every answer runs the full
/// pipeline), then four query batches.  Every session samples with the
/// engine's one sampling seed, as a deployed engine does, so sessions
/// differ only by their update.
fn solve_yelp(world: World, args: Args) -> Result<Run, String> {
    let input = inputs(
        world,
        args.seed,
        StreamMix {
            preference_share: 0.5,
            preference_range: (0.1, 0.9),
            weight_range: (0.05, 0.5),
        },
    );
    let mut tr = Tracer::new(args.trace, Instant::now());
    let mut rec = Rec::default();
    let base = input.world.config.clone();
    let (engine, digest) = setup(&input.world, &base, &mut tr, &mut rec)?;
    record_arena(&engine.snapshot(), &mut rec);
    drop(engine);

    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(args.seconds);
    let mut setups = LaterSetups::new("solve-yelp", started, args.seconds);
    let mut served = Vec::new();
    let mut draw = 0usize;
    while (Instant::now() < deadline || draw < COUNTED_DRAWS) && draw < input.stream.len() {
        setups.poll(false, &mut rec)?;
        let engine = build(&input.world, &base)?;
        replay_apply(&engine, &input.stream[draw], &mut tr, &mut rec);
        if let Some((answer, took)) = update_and_answer(
            &engine,
            &input.stream[draw],
            draw < COUNTED_UPDATES,
            &mut tr,
            &mut rec,
        ) {
            rec.answer_ms.push(ms(took));
            let snapshot = engine.snapshot();
            if tr.enabled() {
                probe_core(&snapshot, &answer, &mut tr, &mut rec);
            }
            if draw < COUNTED_DRAWS {
                served.push((snapshot, answer));
            }
        }
        for b in 0..4 {
            let queries = &input.pool[(draw * 4 + b) % POOL];
            query_batch(&engine, queries, b == 0, &mut tr, &mut rec);
        }
        draw += 1;
    }
    setups.poll(true, &mut rec)?;
    rec.stream_done(started, &setups);
    for (snapshot, answer) in &served {
        rec.sigma.push(sigma(snapshot, answer));
    }
    finish("solve-yelp", input.digests, digest, rec, tr, Vec::new())
}

/// One writer in a closed loop replays single localized updates, each
/// followed by `solve_report` and four query batches.
fn churn(world: World, args: Args) -> Result<Run, String> {
    let input = inputs(
        world,
        args.seed,
        StreamMix {
            preference_share: 0.25,
            preference_range: (0.4, 0.7),
            weight_range: (0.05, 0.3),
        },
    );
    let mut tr = Tracer::new(args.trace, Instant::now());
    let mut rec = Rec::default();
    let (engine, digest) = setup(&input.world, &input.world.config, &mut tr, &mut rec)?;

    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(args.seconds);
    let mut setups = LaterSetups::new("churn-pa5k", started, args.seconds);
    let mut served = None;
    let mut i = 0usize;
    while (Instant::now() < deadline || i < COUNTED_UPDATES) && i < input.stream.len() {
        setups.poll(false, &mut rec)?;
        replay_apply(&engine, &input.stream[i], &mut tr, &mut rec);
        if let Some((answer, took)) = update_and_answer(
            &engine,
            &input.stream[i],
            i < COUNTED_UPDATES,
            &mut tr,
            &mut rec,
        ) {
            rec.answer_ms.push(ms(took));
            if i + 1 == COUNTED_UPDATES {
                let snapshot = engine.snapshot();
                record_arena(&snapshot, &mut rec);
                served = Some((snapshot, answer));
            }
        }
        for b in 0..4 {
            let queries = &input.pool[(i * 4 + b) % POOL];
            query_batch(&engine, queries, b == 0, &mut tr, &mut rec);
        }
        i += 1;
    }
    setups.poll(true, &mut rec)?;
    rec.stream_done(started, &setups);

    // The refreshed sketch must equal a fresh build on the final world.
    let snapshot = engine.snapshot();
    let config = snapshot.config();
    let rebuilt = ConfiguredOracle::build(
        snapshot.scenario(),
        config.oracle,
        config.mc_samples,
        config.base_seed,
    );
    let equal = match (snapshot.oracle().as_sketch(), rebuilt.as_sketch()) {
        (Some(live), Some(fresh)) => live.stores_equal(fresh),
        _ => false,
    };
    let updates = rec.updates;
    rec.check(equal, || {
        format!("after {updates} updates the refreshed sketch differs from a fresh build")
    });
    drop((rebuilt, snapshot));
    if let Some((snapshot, answer)) = served {
        rec.sigma.push(sigma(&snapshot, &answer));
    }
    finish("churn-pa5k", input.digests, digest, rec, tr, Vec::new())
}

/// Derives the metrics from what the run recorded.
fn finish(
    workload: &str,
    mut digests: Vec<(&'static str, u64)>,
    setup_seeds: u64,
    mut rec: Rec,
    tr: Tracer,
    mut notes: Vec<String>,
) -> Result<Run, String> {
    digests.push(("setup_seeds", setup_seeds));
    let groups = rec.setup_seeds.len();
    rec.check(groups == 1, || {
        format!("{SETUPS} fresh solves of one world returned {groups} different seed groups")
    });
    let (answer_cap, query_cap) = caps(workload);
    let answer_tail = tail(&rec.answer_ms, answer_cap);
    let query_tail = tail(&rec.query_us, query_cap);
    notes.push(format!(
        "update_to_answer_tail_ms is p{} of {} samples; query_tail_us is p{} of {} samples",
        answer_tail.pct, answer_tail.samples, query_tail.pct, query_tail.samples
    ));
    let sigma = if rec.sigma.is_empty() {
        0.0
    } else {
        rec.sigma.iter().sum::<f64>() / rec.sigma.len() as f64
    };
    rec.check(sigma > 0.0, || {
        "no served seed group has a positive σ".to_string()
    });

    let end_to_end = vec![
        ("setup_s", median(&rec.setup_s), "s"),
        ("solve_p50_s", median(&rec.solve_s), "s"),
        ("update_to_answer_p50_ms", median(&rec.answer_ms), "ms"),
        ("update_to_answer_tail_ms", answer_tail.value, "ms"),
        ("updates_per_s", rec.updates as f64 / rec.stream_s, "1/s"),
        ("query_tail_us", query_tail.value, "us"),
        (
            "queries_per_s",
            rec.queries as f64 / rec.query_busy_s.max(1e-12),
            "1/s",
        ),
        ("sigma", sigma, "adoptions"),
        ("peak_rss_mb", rec.peak_rss_mb, "MB"),
    ];

    let value = |name: &str| rec.values.get(name).copied().unwrap_or(0.0);
    let med = |name: &str| rec.samples.get(name).map_or(0.0, |v| median(v));
    let retained = value("maintain.seeds_retained");
    let repaired = value("maintain.positions_repaired");
    let resampled_all = value("bench.resampled_all");
    let spans = tr.spans();
    let requests = spans
        .iter()
        .map(|s| s.request)
        .collect::<BTreeSet<_>>()
        .len();
    let self_ns = layer_self_ns(spans);
    let self_ms = |layer: &str| {
        self_ns
            .get(layer)
            .map_or(0.0, |&ns| ns as f64 / 1e6 / requests.max(1) as f64)
    };
    let per_layer = vec![
        ("engine.apply_ms", med("engine.apply_ms"), "ms"),
        (
            "engine.served_solve_us",
            med("engine.served_solve_us"),
            "us",
        ),
        ("engine.swap_ms", med("engine.swap_ms"), "ms"),
        ("engine.maintain_ms", med("engine.maintain_ms"), "ms"),
        (
            "engine.batch_overhead_us",
            med("engine.batch_overhead_us"),
            "us",
        ),
        (
            "engine.rss_after_setup_mb",
            value("engine.rss_after_setup_mb"),
            "MB",
        ),
        ("engine.rss_growth_mb", value("engine.rss_growth_mb"), "MB"),
        ("maintain.seeds_retained", retained, "count"),
        ("maintain.positions_repaired", repaired, "count"),
        (
            "maintain.full_resolves",
            value("maintain.full_resolves"),
            "count",
        ),
        (
            "maintain.retained_ratio",
            if retained + repaired > 0.0 {
                retained / (retained + repaired)
            } else {
                0.0
            },
            "fraction",
        ),
        ("graph.edge_update_ms", med("graph.edge_update_ms"), "ms"),
        (
            "diffusion.scenario_update_edge_ms",
            med("diffusion.scenario_update_edge_ms"),
            "ms",
        ),
        (
            "diffusion.scenario_update_pref_ms",
            med("diffusion.scenario_update_pref_ms"),
            "ms",
        ),
        (
            "diffusion.mc_spread_ms",
            med("diffusion.mc_spread_ms"),
            "ms",
        ),
        ("sketch.build_ms", med("sketch.build_ms"), "ms"),
        ("sketch.clone_ms", med("sketch.clone_ms"), "ms"),
        ("sketch.refresh_ms", med("sketch.refresh_ms"), "ms"),
        (
            "sketch.sets_resampled",
            value("sketch.sets_resampled"),
            "count",
        ),
        (
            "sketch.resample_fraction",
            value("sketch.sets_resampled") / value("bench.total_sets").max(1.0),
            "fraction",
        ),
        (
            "sketch.index_entries_patched",
            value("sketch.index_entries_patched"),
            "count",
        ),
        (
            "sketch.full_rebuilds",
            value("sketch.full_rebuilds"),
            "count",
        ),
        (
            "sketch.ms_per_resampled_set",
            if resampled_all > 0.0 {
                value("bench.refresh_s") * 1e3 / resampled_all
            } else {
                0.0
            },
            "ms",
        ),
        (
            "sketch.arena_live_bytes",
            value("sketch.arena_live_bytes"),
            "bytes",
        ),
        (
            "sketch.arena_uncompressed_bytes",
            value("sketch.arena_uncompressed_bytes"),
            "bytes",
        ),
        (
            "sketch.oracle_queries",
            value("sketch.oracle_queries"),
            "count",
        ),
        (
            "sketch.oracle_query_ms",
            med("sketch.oracle_query_ms"),
            "ms",
        ),
        ("sketch.batch_query_us", med("sketch.batch_query_us"), "us"),
        ("core.solve_ms", med("core.solve_ms"), "ms"),
        ("core.mc_stages_ms", med("core.mc_stages_ms"), "ms"),
        ("core.markets_ms", med("core.markets_ms"), "ms"),
        ("core.nominees", value("core.nominees"), "count"),
        ("core.markets", value("core.markets"), "count"),
        ("core.groups", value("core.groups"), "count"),
        ("self.bench_ms", self_ms("bench"), "ms"),
        ("self.engine_ms", self_ms("engine"), "ms"),
        ("self.sketch_ms", self_ms("sketch"), "ms"),
        ("self.core_ms", self_ms("core"), "ms"),
        ("self.diffusion_ms", self_ms("diffusion"), "ms"),
        ("self.graph_ms", self_ms("graph"), "ms"),
        ("trace.answer_p50_ms", median(&rec.answer_ms), "ms"),
        ("trace.spans", spans.len() as f64, "count"),
    ];
    Ok(Run {
        digests,
        attempted: rec.attempted,
        failed: rec.failed,
        failures: rec.failures,
        end_to_end,
        per_layer,
        notes,
        tracer: tr,
    })
}

/// Metric names with their units.
#[cfg(test)]
pub type Declared = Vec<(&'static str, &'static str)>;

/// The end-to-end and per-layer metrics every run reports, in output order.
#[cfg(test)]
pub fn declared_metrics() -> (Declared, Declared) {
    let run = finish(
        "solve-yelp",
        Vec::new(),
        0,
        Rec::default(),
        Tracer::new(false, Instant::now()),
        Vec::new(),
    )
    .expect("finish never fails");
    let names = |metrics: &[Metric]| metrics.iter().map(|&(n, _, u)| (n, u)).collect();
    (names(&run.end_to_end), names(&run.per_layer))
}
