//! Algorithm registry, timing and evaluation shared by the experiment
//! binaries.

use imdpp_baselines::{Algorithm, BaselineConfig, Bgrd, Drhga, Hag, Opt, PathScore};
use imdpp_core::{
    DysimConfig, Evaluator, ImdppError, ImdppInstance, MarketOrdering, OracleKind, SeedGroup,
};
use imdpp_engine::Engine;
use std::path::PathBuf;
use std::time::Instant;

/// Environment-driven configuration of an experiment run.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Dataset scale factor (multiplies user / item counts).
    pub scale: f64,
    /// Monte-Carlo samples for the final, reported spread.
    pub eval_samples: usize,
    /// Monte-Carlo samples used inside the selection algorithms.
    pub select_samples: usize,
    /// Candidate-user cap used by every algorithm.
    pub candidate_users: Option<usize>,
    /// Output directory for CSV files.
    pub out_dir: String,
    /// Estimator behind Dysim's nominee selection (`IMDPP_ORACLE`).
    pub oracle: OracleKind,
    /// Where to dump the engine telemetry snapshot (`IMDPP_METRICS`).
    ///
    /// `None` (the default) disables the dump.  When set, every
    /// engine-backed run rewrites the file with that run's snapshot, so
    /// after a multi-algorithm sweep the file holds the *last* Dysim run's
    /// telemetry — pass a distinct path per invocation to keep them all.
    pub metrics_out: Option<PathBuf>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            scale: 1.0,
            eval_samples: 100,
            select_samples: 20,
            candidate_users: Some(48),
            out_dir: "results".to_string(),
            oracle: OracleKind::MonteCarlo,
            metrics_out: None,
        }
    }
}

/// Parses the `IMDPP_ORACLE` syntax: `monte-carlo` / `mc`,
/// `rr-sketch` / `sketch` (2048 RR sets per item, 1 shard, auto threads),
/// `rr-sketch:<sets>`, `rr-sketch:<sets>:<shards>`, or
/// `rr-sketch:<sets>:<shards>:<threads>` (`threads` may be `0` = auto —
/// every available core; any other value is capped at the machine's cores).
pub fn parse_oracle(value: &str) -> Option<OracleKind> {
    let v = value.trim().to_ascii_lowercase();
    match v.as_str() {
        "monte-carlo" | "montecarlo" | "mc" => Some(OracleKind::MonteCarlo),
        "rr-sketch" | "rrsketch" | "sketch" => Some(OracleKind::RrSketch {
            sets_per_item: 2048,
            shards: 1,
            threads: 0,
        }),
        _ => {
            let rest = v
                .strip_prefix("rr-sketch:")
                .or_else(|| v.strip_prefix("sketch:"))?;
            let mut parts = rest.split(':');
            let sets_per_item = parts.next()?.parse::<usize>().ok().filter(|&n| n > 0)?;
            let shards = match parts.next() {
                Some(s) => s.parse::<usize>().ok().filter(|&s| s > 0)?,
                None => 1,
            };
            // Unlike sets and shards, 0 threads is meaningful (= auto).
            let threads = match parts.next() {
                Some(t) => t.parse::<usize>().ok()?,
                None => 0,
            };
            if parts.next().is_some() {
                return None;
            }
            Some(OracleKind::RrSketch {
                sets_per_item,
                shards,
                threads,
            })
        }
    }
}

impl HarnessConfig {
    /// Reads the configuration from the `IMDPP_*` environment variables.
    pub fn from_env() -> Self {
        let mut cfg = HarnessConfig::default();
        if let Ok(v) = std::env::var("IMDPP_SCALE") {
            if let Ok(f) = v.parse::<f64>() {
                cfg.scale = f.max(0.01);
            }
        }
        if let Ok(v) = std::env::var("IMDPP_MC") {
            if let Ok(n) = v.parse::<usize>() {
                cfg.eval_samples = n.max(1);
            }
        }
        if let Ok(v) = std::env::var("IMDPP_SELECT_MC") {
            if let Ok(n) = v.parse::<usize>() {
                cfg.select_samples = n.max(1);
            }
        }
        if let Ok(v) = std::env::var("IMDPP_CANDIDATES") {
            if let Ok(n) = v.parse::<usize>() {
                cfg.candidate_users = Some(n.max(1));
            }
        }
        if let Ok(v) = std::env::var("IMDPP_OUT") {
            cfg.out_dir = v;
        }
        if let Ok(v) = std::env::var("IMDPP_ORACLE") {
            match parse_oracle(&v) {
                Some(oracle) => cfg.oracle = oracle,
                None => eprintln!(
                    "IMDPP_ORACLE = {v:?} not understood (expected monte-carlo | rr-sketch | \
                     rr-sketch:<sets> | rr-sketch:<sets>:<shards> | \
                     rr-sketch:<sets>:<shards>:<threads>); keeping the default"
                ),
            }
        }
        cfg.metrics_out = imdpp_obs::metrics_env_path();
        cfg
    }

    /// The Dysim configuration corresponding to this harness configuration.
    pub fn dysim_config(&self) -> DysimConfig {
        DysimConfig {
            mc_samples: self.select_samples,
            candidate_users: self.candidate_users,
            oracle: self.oracle,
            ..DysimConfig::default()
        }
    }

    /// The baseline configuration corresponding to this harness configuration.
    pub fn baseline_config(&self) -> BaselineConfig {
        BaselineConfig {
            mc_samples: self.select_samples,
            candidate_users: self.candidate_users,
            ..BaselineConfig::default()
        }
    }
}

/// The algorithms compared throughout the evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgorithmKind {
    /// Dysim (this paper).
    Dysim,
    /// Dysim without target markets (ablation, Fig. 10).
    DysimNoTm,
    /// Dysim without item priority (ablation, Fig. 10).
    DysimNoIp,
    /// BGRD baseline.
    Bgrd,
    /// HAG baseline.
    Hag,
    /// PS baseline.
    Ps,
    /// DRHGA baseline.
    Drhga,
    /// Brute-force optimum (small instances only).
    Opt,
}

impl AlgorithmKind {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            AlgorithmKind::Dysim => "Dysim",
            AlgorithmKind::DysimNoTm => "Dysim w/o TM",
            AlgorithmKind::DysimNoIp => "Dysim w/o IP",
            AlgorithmKind::Bgrd => "BGRD",
            AlgorithmKind::Hag => "HAG",
            AlgorithmKind::Ps => "PS",
            AlgorithmKind::Drhga => "DRHGA",
            AlgorithmKind::Opt => "OPT",
        }
    }
}

/// The main comparison set of Figs. 9 (Dysim + the four baselines).
pub fn algorithms() -> [AlgorithmKind; 5] {
    [
        AlgorithmKind::Dysim,
        AlgorithmKind::Bgrd,
        AlgorithmKind::Hag,
        AlgorithmKind::Ps,
        AlgorithmKind::Drhga,
    ]
}

/// One algorithm run on one instance.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Which algorithm ran.
    pub algorithm: &'static str,
    /// The selected seeds.
    pub seeds: SeedGroup,
    /// The evaluated importance-aware influence spread σ(S).
    pub spread: f64,
    /// Selection wall-clock time in seconds (spread evaluation excluded).
    pub seconds: f64,
}

/// Runs one algorithm on an instance and evaluates the resulting seed group
/// with the harness's evaluation sample count.
///
/// Fails only on side-channel I/O: an unwritable `IMDPP_METRICS` path
/// surfaces as [`ImdppError::Io`] with the offending path in the message,
/// instead of silently dropping the artifact.
pub fn run_algorithm(
    kind: AlgorithmKind,
    instance: &ImdppInstance,
    config: &HarnessConfig,
) -> Result<RunResult, ImdppError> {
    // Session setup (engine construction: instance clone + oracle build) is
    // excluded from the timed window so the Dysim kinds stay comparable to
    // the baselines, which are timed on `&instance` directly — in a serving
    // session that cost is paid once and amortized over every solve.
    let engine = match kind {
        AlgorithmKind::Dysim => Some(engine_for(instance, config.dysim_config())),
        AlgorithmKind::DysimNoTm => Some(engine_for(
            instance,
            config.dysim_config().without_target_markets(),
        )),
        AlgorithmKind::DysimNoIp => Some(engine_for(
            instance,
            config.dysim_config().without_item_priority(),
        )),
        _ => None,
    };
    // lint: allow(clock) — wall-clock measurement reported as the run's
    // `seconds` column (paper Fig. 13); never feeds algorithm decisions.
    let start = Instant::now();
    let seeds = match (&engine, kind) {
        (Some(engine), _) => engine.solve(),
        (None, AlgorithmKind::Bgrd) => Bgrd::new(config.baseline_config()).select(instance),
        (None, AlgorithmKind::Hag) => Hag::new(config.baseline_config()).select(instance),
        (None, AlgorithmKind::Ps) => PathScore::new(config.baseline_config()).select(instance),
        (None, AlgorithmKind::Drhga) => Drhga::new(config.baseline_config()).select(instance),
        (None, AlgorithmKind::Opt) => Opt::new(config.baseline_config(), 4, 12).select(instance),
        (None, _) => unreachable!("every Dysim kind builds an engine above"),
    };
    let seconds = start.elapsed().as_secs_f64();
    if let Some(engine) = &engine {
        dump_artifacts(engine, config)?;
    }
    let spread = evaluate_spread(instance, &seeds, config);
    Ok(RunResult {
        algorithm: kind.name(),
        seeds,
        spread,
        seconds,
    })
}

/// Writes `engine`'s telemetry snapshot to [`HarnessConfig::metrics_out`]
/// (the `IMDPP_METRICS` knob); a no-op when the knob is unset.
///
/// An unwritable path is an error, not a stderr note: the caller asked for
/// the artifact by setting the knob, so losing it must sink the run.  The
/// returned [`ImdppError::Io`] names the path that failed.
pub fn dump_artifacts(engine: &Engine, config: &HarnessConfig) -> Result<(), ImdppError> {
    if let Some(path) = &config.metrics_out {
        engine.telemetry().write_to(path).map_err(|e| {
            ImdppError::Io(std::io::Error::new(
                e.kind(),
                format!("IMDPP_METRICS: cannot write {}: {e}", path.display()),
            ))
        })?;
    }
    Ok(())
}

/// Builds an `imdpp-engine` session on an experiment instance, honouring
/// the configuration's [`OracleKind`].
pub fn engine_for(instance: &ImdppInstance, config: DysimConfig) -> Engine {
    Engine::for_instance(instance)
        .config(config)
        .build()
        .expect("experiment instances are valid")
}

/// Runs the full Dysim pipeline through the `imdpp-engine` session façade
/// (one-shot here: build an engine on the instance, solve, drop).  Callers
/// that time the solve should build via [`engine_for`] first and time only
/// `Engine::solve`.
pub fn solve_with_engine(instance: &ImdppInstance, config: DysimConfig) -> SeedGroup {
    engine_for(instance, config).solve()
}

/// Evaluates a seed group with the harness's final evaluation sample count.
pub fn evaluate_spread(instance: &ImdppInstance, seeds: &SeedGroup, config: &HarnessConfig) -> f64 {
    Evaluator::new(instance, config.eval_samples, 0xE7A1).spread(seeds)
}

/// Runs Dysim with a specific market ordering (the Fig. 11 comparison).
/// Shares [`run_algorithm`]'s error contract for the `IMDPP_METRICS` side
/// channel.
pub fn run_dysim_with_ordering(
    instance: &ImdppInstance,
    config: &HarnessConfig,
    ordering: MarketOrdering,
) -> Result<RunResult, ImdppError> {
    let dysim_config = DysimConfig {
        ordering,
        ..config.dysim_config()
    };
    let engine = engine_for(instance, dysim_config);
    // lint: allow(clock) — wall-clock measurement reported as the run's
    // `seconds` column (paper Fig. 11); never feeds algorithm decisions.
    let start = Instant::now();
    let seeds = engine.solve();
    let seconds = start.elapsed().as_secs_f64();
    dump_artifacts(&engine, config)?;
    let spread = evaluate_spread(instance, &seeds, config);
    Ok(RunResult {
        algorithm: ordering.name(),
        seeds,
        spread,
        seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use imdpp_core::CostModel;
    use imdpp_diffusion::scenario::toy_scenario;

    fn tiny_instance() -> ImdppInstance {
        let scenario = toy_scenario();
        let costs = CostModel::uniform(scenario.user_count(), scenario.item_count(), 1.0);
        ImdppInstance::new(scenario, costs, 2.0, 2).unwrap()
    }

    fn tiny_config() -> HarnessConfig {
        HarnessConfig {
            scale: 1.0,
            eval_samples: 16,
            select_samples: 4,
            candidate_users: Some(8),
            out_dir: "/tmp/imdpp-test-results".to_string(),
            oracle: OracleKind::MonteCarlo,
            metrics_out: None,
        }
    }

    #[test]
    fn every_algorithm_kind_runs_on_the_toy_instance() {
        let inst = tiny_instance();
        let cfg = tiny_config();
        for kind in [
            AlgorithmKind::Dysim,
            AlgorithmKind::DysimNoTm,
            AlgorithmKind::DysimNoIp,
            AlgorithmKind::Bgrd,
            AlgorithmKind::Hag,
            AlgorithmKind::Ps,
            AlgorithmKind::Drhga,
        ] {
            let result = run_algorithm(kind, &inst, &cfg).unwrap();
            assert!(inst.is_feasible(&result.seeds), "{}", kind.name());
            assert!(result.spread >= 0.0);
            assert!(result.seconds >= 0.0);
        }
    }

    #[test]
    fn harness_config_from_env_defaults() {
        let cfg = HarnessConfig::from_env();
        assert!(cfg.scale > 0.0);
        assert!(cfg.eval_samples >= 1);
    }

    #[test]
    fn oracle_env_syntax_parses() {
        assert_eq!(parse_oracle("monte-carlo"), Some(OracleKind::MonteCarlo));
        assert_eq!(parse_oracle("MC"), Some(OracleKind::MonteCarlo));
        assert_eq!(
            parse_oracle("rr-sketch"),
            Some(OracleKind::RrSketch {
                sets_per_item: 2048,
                shards: 1,
                threads: 0,
            })
        );
        assert_eq!(
            parse_oracle("rr-sketch:512"),
            Some(OracleKind::RrSketch {
                sets_per_item: 512,
                shards: 1,
                threads: 0,
            })
        );
        assert_eq!(
            parse_oracle("sketch:64"),
            Some(OracleKind::RrSketch {
                sets_per_item: 64,
                shards: 1,
                threads: 0,
            })
        );
        assert_eq!(
            parse_oracle("rr-sketch:512:4"),
            Some(OracleKind::RrSketch {
                sets_per_item: 512,
                shards: 4,
                threads: 0,
            })
        );
        assert_eq!(
            parse_oracle("sketch:64:2"),
            Some(OracleKind::RrSketch {
                sets_per_item: 64,
                shards: 2,
                threads: 0,
            })
        );
        assert_eq!(
            parse_oracle("rr-sketch:512:4:8"),
            Some(OracleKind::RrSketch {
                sets_per_item: 512,
                shards: 4,
                threads: 8,
            })
        );
        // 0 threads is the documented auto convention, not an error.
        assert_eq!(
            parse_oracle("sketch:64:2:0"),
            Some(OracleKind::RrSketch {
                sets_per_item: 64,
                shards: 2,
                threads: 0,
            })
        );
        assert_eq!(parse_oracle("rr-sketch:0"), None);
        assert_eq!(parse_oracle("rr-sketch:512:0"), None);
        assert_eq!(parse_oracle("rr-sketch:512:four"), None);
        assert_eq!(parse_oracle("rr-sketch:512:4:two"), None);
        assert_eq!(parse_oracle("rr-sketch:512:4:8:9"), None);
        assert_eq!(parse_oracle("quantum"), None);
    }

    #[test]
    fn sketch_oracle_config_runs_the_dysim_kinds() {
        let inst = tiny_instance();
        let cfg = HarnessConfig {
            oracle: OracleKind::RrSketch {
                sets_per_item: 256,
                shards: 1,
                threads: 0,
            },
            ..tiny_config()
        };
        let result = run_algorithm(AlgorithmKind::Dysim, &inst, &cfg).unwrap();
        assert!(inst.is_feasible(&result.seeds));
        assert!(!result.seeds.is_empty());
    }

    #[test]
    fn metrics_knob_writes_a_telemetry_snapshot() {
        let inst = tiny_instance();
        let path = std::env::temp_dir().join("imdpp-harness-metrics-test.json");
        let _ = std::fs::remove_file(&path);
        let cfg = HarnessConfig {
            metrics_out: Some(path.clone()),
            ..tiny_config()
        };
        let result = run_algorithm(AlgorithmKind::Dysim, &inst, &cfg).unwrap();
        assert!(inst.is_feasible(&result.seeds));
        let json = std::fs::read_to_string(&path).expect("metrics file written");
        assert!(json.contains("\"engine.solves\": 1"));
        assert!(json.contains("\"histograms\""));
        std::fs::remove_file(&path).unwrap();

        // Baseline runs have no engine and leave the file alone.
        let missing = std::env::temp_dir().join("imdpp-harness-metrics-none.json");
        let cfg = HarnessConfig {
            metrics_out: Some(missing.clone()),
            ..tiny_config()
        };
        let _ = run_algorithm(AlgorithmKind::Bgrd, &inst, &cfg).unwrap();
        assert!(!missing.exists());
    }

    #[test]
    fn unwritable_metrics_path_is_a_typed_error_not_a_silent_drop() {
        let inst = tiny_instance();
        // A regular file used as a directory component: `write_to`'s
        // create_dir_all on the parent fails, which is the closest portable
        // stand-in for "unwritable directory" without chmod games.
        let blocker = std::env::temp_dir().join("imdpp-harness-metrics-blocker");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let cfg = HarnessConfig {
            metrics_out: Some(blocker.join("metrics.json")),
            ..tiny_config()
        };
        let err = run_algorithm(AlgorithmKind::Dysim, &inst, &cfg).unwrap_err();
        match err {
            ImdppError::Io(e) => {
                let msg = e.to_string();
                assert!(msg.contains("IMDPP_METRICS"), "{msg}");
                assert!(msg.contains("metrics.json"), "{msg}");
            }
            other => panic!("expected Io error, got {other:?}"),
        }
        std::fs::remove_file(&blocker).unwrap();
    }

    #[test]
    fn algorithm_names_match_the_paper() {
        let names: Vec<&str> = algorithms().iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["Dysim", "BGRD", "HAG", "PS", "DRHGA"]);
    }

    #[test]
    fn ordering_runs_produce_feasible_seeds() {
        let inst = tiny_instance();
        let cfg = tiny_config();
        let result = run_dysim_with_ordering(&inst, &cfg, MarketOrdering::Profitability).unwrap();
        assert!(inst.is_feasible(&result.seeds));
        assert_eq!(result.algorithm, "PF");
    }
}
