//! The IMDPP benchmark.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! perfbench --compare <old.jsonl> <new.jsonl>
//! perfbench --setup-probe <name>
//! ```
//!
//! One workload per process.  The last line of standard output is a JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics untraced, the per-layer metrics traced.  Every run
//! also appends a record with its host fingerprint to the `--out` file
//! (default `.bench_out/results.jsonl`); traced runs write their spans to
//! `.bench_out/spans-<workload>-<seed>.jsonl`.  `--workload all` runs each
//! workload untraced and traced in child processes and reports the tracing
//! overhead; `--compare` sets two result files side by side.  A run makes
//! most of its set-ups through `--setup-probe`, in child processes.  See
//! `perfbench/README.md`.

mod compare;
mod inputs;
mod json;
mod stats;
mod trace;
mod workloads;

use json::{num, quote};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{Args, Metric, Run, WORKLOADS};

const OUT_DIR: &str = ".bench_out";

struct Cli {
    workload: String,
    args: Args,
    out: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1> [--out <file>]\n       \
         perfbench --compare <old.jsonl> <new.jsonl>",
        WORKLOADS.join("|")
    )
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(OUT_DIR).join("results.jsonl");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    let missing = |what: &str| format!("missing {what}\n{}", usage());
    Ok(Cli {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        args: Args {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
        },
        out,
    })
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// without running git; `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(reference) {
        return sha.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (sha, name) = line.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `nproc`, build profile, compiler and commit, as a JSON object.
fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\":{nproc},\"profile\":{},\"rustc\":{},\"commit\":{}}}",
        quote(env!("PERFBENCH_PROFILE")),
        quote(env!("PERFBENCH_RUSTC")),
        quote(&git_commit())
    )
}

/// The aggregate CPU time counters of `/proc/stat`, in ticks (Linux).
fn cpu_ticks() -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    line.split_whitespace().map(|v| v.parse().ok()).collect()
}

/// The share of CPU time the hypervisor stole (the eighth counter) between
/// two readings of [`cpu_ticks`].
fn steal_share(before: &[u64], after: &[u64]) -> Option<f64> {
    let delta: Vec<u64> = before
        .iter()
        .zip(after)
        .map(|(a, b)| b.saturating_sub(*a))
        .collect();
    let total: u64 = delta.iter().sum();
    (total > 0).then(|| *delta.get(7).unwrap_or(&0) as f64 / total as f64)
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(name),
                num(value),
                quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{line}")?;
    file.sync_all()
}

fn run_one(cli: &Cli) -> ExitCode {
    let Cli {
        workload,
        args,
        out,
    } = cli;
    println!(
        "# perfbench workload={workload} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let host = host_fingerprint();
    println!("host {host}");
    let ticks_before = cpu_ticks();
    let mut run: Run = match workloads::run(workload, *args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(steal) = ticks_before
        .zip(cpu_ticks())
        .and_then(|(before, after)| steal_share(&before, &after))
    {
        run.notes.push(format!(
            "host cpu steal {:.1}% while the run ran",
            100.0 * steal
        ));
    }
    let digests: Vec<String> = run
        .digests
        .iter()
        .map(|(name, d)| format!("{name}={d:016x}"))
        .collect();
    println!("inputs fnv64 {}", digests.join(" "));
    for note in &run.notes {
        println!("note {note}");
    }
    for &(name, value, unit) in run.end_to_end.iter().chain(&run.per_layer) {
        if args.trace || run.end_to_end.iter().any(|m| m.0 == name) {
            println!("metric {name} = {value} {unit}");
        }
    }
    let error_rate = run.failed as f64 / run.attempted.max(1) as f64;
    println!(
        "checks attempted={} failed={} error_rate={error_rate} fraction",
        run.attempted, run.failed
    );
    for failure in &run.failures {
        println!("FAILED {failure}");
    }
    let correct = run.failed == 0;
    let reported = if args.trace {
        &run.per_layer
    } else {
        &run.end_to_end
    };
    let digests_json: Vec<String> = run
        .digests
        .iter()
        .map(|(name, d)| format!("{}:{}", quote(name), quote(&format!("{d:016x}"))))
        .collect();
    let record = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{host},\"inputs\":{{{}}},\
         \"notes\":[{}],\"correct\":{correct},\"attempted\":{},\"failed\":{},\"error_rate\":{},\"metrics\":{}}}",
        quote(workload),
        args.seed,
        num(args.seconds),
        u8::from(args.trace),
        digests_json.join(","),
        run.notes.iter().map(|n| quote(n)).collect::<Vec<_>>().join(","),
        run.attempted,
        run.failed,
        num(error_rate),
        metrics_json(reported)
    );
    if let Err(e) = append_line(out, &record) {
        eprintln!("perfbench: cannot append to {}: {e}", out.display());
    }
    if args.trace {
        let path = PathBuf::from(OUT_DIR).join(format!("spans-{workload}-{}.jsonl", args.seed));
        match run.tracer.write_jsonl(&path) {
            Ok(()) => println!("spans {} -> {}", run.tracer.spans().len(), path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        run.attempted,
        run.failed,
        metrics_json(reported)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The value of `metric` in the last stdout line of a child run.
fn last_line_metric(stdout: &str, metric: &str) -> Option<f64> {
    let last = stdout.lines().last()?;
    json::parse(last)
        .ok()?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Runs every workload untraced, then traced, each in its own process, and
/// reports the tracing overhead of each.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    let mut overheads = Vec::new();
    for workload in WORKLOADS {
        let mut answers = [None, None];
        for trace in [false, true] {
            let output = Command::new(&exe)
                .args(["--workload", workload])
                .args(["--seed", &cli.args.seed.to_string()])
                .args(["--seconds", &cli.args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&cli.out)
                .output();
            let output = match output {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("perfbench: cannot run {workload}: {e}");
                    return ExitCode::from(2);
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            ok &= output.status.success();
            let metric = if trace {
                "trace.answer_p50_ms"
            } else {
                "update_to_answer_p50_ms"
            };
            answers[usize::from(trace)] = last_line_metric(&stdout, metric);
        }
        if let [Some(plain), Some(traced)] = answers {
            overheads.push(format!(
                "tracing overhead {workload}: update_to_answer_p50 {plain:.3} ms untraced, \
                 {traced:.3} ms traced ({:+.3} ms, {:+.1}%)",
                traced - plain,
                100.0 * (traced - plain) / plain
            ));
        }
    }
    for line in overheads {
        println!("{line}");
    }
    println!("results appended to {}", cli.out.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return compare::main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("--setup-probe") {
        let probe = argv
            .get(1)
            .ok_or_else(|| "--setup-probe needs a workload".to_string())
            .and_then(|workload| workloads::setup_probe(workload));
        return match probe {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    match parse_cli(&argv) {
        Ok(cli) if cli.workload == "all" => run_all(&cli),
        Ok(cli) => run_one(&cli),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> json::Value {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_runs_report() {
        let bench = benchmark_json();
        let keys: Vec<&str> = bench.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads: Vec<&str> = bench
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .map(|w| w.get("name").and_then(json::Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);

        let declared = |key: &str| -> Vec<(String, String)> {
            bench
                .get(key)
                .unwrap()
                .as_array()
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(json::Value::as_str).unwrap().to_string();
                    let better = field("better");
                    assert!(better == "higher" || better == "lower", "{better}");
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |v: Vec<(&str, &str)>| -> Vec<(String, String)> {
            v.into_iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        let (end_to_end, per_layer) = workloads::declared_metrics();
        assert_eq!(declared("end_to_end"), owned(end_to_end));
        assert_eq!(declared("per_layer"), owned(per_layer));
    }

    #[test]
    fn names_units_and_bounds_follow_the_contract() {
        let bench = benchmark_json();
        let mut names = std::collections::BTreeSet::new();
        for key in ["workloads", "end_to_end", "per_layer"] {
            for entry in bench.get(key).unwrap().as_array() {
                let name = entry.get("name").and_then(json::Value::as_str).unwrap();
                assert!(is_name(name), "bad name {name}");
                assert!(names.insert(name.to_string()), "name {name} used twice");
                if let Some(unit) = entry.get("unit") {
                    let unit = unit.as_str().unwrap();
                    assert!(is_unit(unit), "bad unit {unit} of {name}");
                }
                if let Some(why) = entry.get("why") {
                    let why = why.as_str().unwrap();
                    assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
                }
            }
        }
        let mut bounds = Vec::new();
        for metric in bench.get("end_to_end").unwrap().as_array() {
            let bound = metric.get("bound").and_then(json::Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
            bounds.push((
                metric.get("name").and_then(json::Value::as_str).unwrap(),
                bound,
            ));
        }
        let setup = bounds
            .iter()
            .find(|(n, _)| *n == "setup_s")
            .expect("setup_s is declared")
            .1;
        assert!(
            bounds.iter().all(|&(_, b)| b <= setup),
            "setup_s has the largest bound"
        );
        let seconds = bench
            .get("run_seconds")
            .and_then(json::Value::as_f64)
            .unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }

    #[test]
    fn steal_share_is_the_eighth_counter_over_all() {
        let before = [100, 0, 10, 500, 0, 0, 0, 5, 0, 0];
        let after = [160, 0, 20, 520, 0, 0, 0, 15, 0, 0];
        assert_eq!(steal_share(&before, &after), Some(0.1));
        assert_eq!(steal_share(&before, &before), None);
        assert_eq!(steal_share(&[1, 2], &[3, 4]), Some(0.0));
    }

    #[test]
    fn cli_rejects_missing_and_malformed_flags() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_cli(&argv(
            "--workload churn-pa5k --seed 3 --seconds 2 --trace 1",
        ))
        .unwrap();
        assert_eq!(ok.args.seed, 3);
        assert!(ok.args.trace);
        assert!(parse_cli(&argv("--workload churn-pa5k --seed 3 --seconds 2")).is_err());
        assert!(parse_cli(&argv("--workload x --seed -1 --seconds 2 --trace 0")).is_err());
        assert!(parse_cli(&argv("--workload x --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_cli(&argv("--workload x --seed 1 --seconds 1 --trace 2")).is_err());
    }
}
