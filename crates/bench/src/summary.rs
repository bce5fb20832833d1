//! Machine-readable benchmark summaries.
//!
//! The acceptance benches print their measurements to stdout for humans;
//! [`BenchSummary`] additionally records the key numbers as
//! `results/bench_<name>.json` so the perf trajectory of the suite is
//! captured per run (and per PR, when CI executes the benches).  Timing
//! gates are deferred through [`BenchSummary::gate`]: a failed one is
//! remembered, the bench runs on, and [`BenchSummary::finish`] writes the
//! JSON before it fails the run, so a noisy wall-clock never throws away
//! the deterministic counters measured beside it.  The JSON is hand-rolled
//! — the workspace has no JSON library — and the format is deliberately
//! flat:
//!
//! ```json
//! {
//!   "bench": "adaptive_pipeline",
//!   "metrics": {
//!     "tmi_monte_carlo_seconds": 0.032,
//!     "tmi_rr_sketch_seconds": 0.009
//!   }
//! }
//! ```

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// A named collection of scalar benchmark metrics, written as
/// `bench_<name>.json` into the results directory.
#[derive(Clone, Debug)]
pub struct BenchSummary {
    name: String,
    metrics: Vec<(String, f64)>,
    /// Messages of the failed gates, in the order they were checked.
    failed_gates: Vec<String>,
}

impl BenchSummary {
    /// Starts a summary for the bench called `name` (lowercase identifier,
    /// e.g. `"adaptive_pipeline"`).
    pub fn new(name: impl Into<String>) -> Self {
        BenchSummary {
            name: name.into(),
            metrics: Vec::new(),
            failed_gates: Vec::new(),
        }
    }

    /// Records one scalar metric (insertion order is preserved; re-using a
    /// key records a second entry rather than overwriting).
    pub fn record(&mut self, metric: impl Into<String>, value: f64) -> &mut Self {
        self.metrics.push((metric.into(), value));
        self
    }

    /// Records the process's peak resident set size (`VmHWM`) as a
    /// `peak_rss_bytes` metric.  A no-op on platforms without
    /// `/proc/self/status` (see [`imdpp_obs::peak_rss_bytes`]), so summaries
    /// stay comparable across OSes rather than carrying a `null`.
    pub fn record_peak_rss(&mut self) -> &mut Self {
        if let Some(bytes) = imdpp_obs::peak_rss_bytes() {
            self.record("peak_rss_bytes", bytes as f64);
        }
        self
    }

    /// Checks one timing gate without stopping the bench: when `ok` is
    /// false, `message` is printed to stderr and remembered, later records
    /// still land in the summary, and [`BenchSummary::finish`] fails the
    /// run once the JSON is written.  Exactness checks stay plain
    /// `assert!`s, which fail fast.
    pub fn gate(&mut self, ok: bool, message: impl Into<String>) -> &mut Self {
        if !ok {
            let message = message.into();
            eprintln!("gate failed: {message}");
            self.failed_gates.push(message);
        }
        self
    }

    /// Writes `bench_<name>.json` ([`BenchSummary::write`]; a write error
    /// is reported, not fatal) and then fails the bench if any gate failed.
    ///
    /// # Panics
    /// When a [`BenchSummary::gate`] failed, listing every failed gate —
    /// after the summary is written.
    pub fn finish(&self) {
        match self.write() {
            Ok(path) => println!("bench summary written to {}", path.display()),
            Err(e) => eprintln!("could not write bench summary: {e}"),
        }
        assert!(
            self.failed_gates.is_empty(),
            "{} bench gate(s) failed:\n  {}",
            self.failed_gates.len(),
            self.failed_gates.join("\n  ")
        );
    }

    /// Number of recorded metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// The summary as a JSON document (non-finite values become `null`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"bench\": \"{}\",\n", escape(&self.name)));
        out.push_str("  \"metrics\": {");
        for (i, (key, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            if value.is_finite() {
                out.push_str(&format!("\"{}\": {value}", escape(key)));
            } else {
                out.push_str(&format!("\"{}\": null", escape(key)));
            }
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// The directory summaries are written to: `IMDPP_BENCH_OUT` when set,
    /// the workspace-root `results/` directory otherwise (cargo runs bench
    /// binaries with the *package* directory as cwd, so a relative
    /// `results/` would scatter files across `crates/*/results`).
    pub fn out_dir() -> PathBuf {
        if let Ok(dir) = std::env::var("IMDPP_BENCH_OUT") {
            return PathBuf::from(dir);
        }
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
    }

    /// Writes `bench_<name>.json` into [`BenchSummary::out_dir`], creating
    /// the directory if needed.  Returns the path written to.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let dir = Self::out_dir();
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("bench_{}.json", self.name));
        let mut f = fs::File::create(&path)?;
        f.write_all(self.to_json().as_bytes())?;
        Ok(path)
    }
}

/// Escapes the characters JSON string literals cannot carry raw.
fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_flat_and_ordered() {
        let mut s = BenchSummary::new("demo");
        s.record("alpha_seconds", 0.5).record("beta_count", 3.0);
        let json = s.to_json();
        assert!(json.contains("\"bench\": \"demo\""));
        assert!(json.contains("\"alpha_seconds\": 0.5"));
        assert!(json.contains("\"beta_count\": 3"));
        assert!(json.find("alpha_seconds").unwrap() < json.find("beta_count").unwrap());
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_is_recorded_on_linux() {
        let mut s = BenchSummary::new("demo");
        s.record_peak_rss();
        assert_eq!(s.len(), 1);
        // Any real process has touched at least a megabyte by now.
        let json = s.to_json();
        assert!(json.contains("\"peak_rss_bytes\": "));
        assert!(!json.contains("\"peak_rss_bytes\": null"));
    }

    #[test]
    fn a_failed_gate_is_recorded_and_later_records_still_land() {
        let mut s = BenchSummary::new("demo");
        s.gate(true, "passes, never recorded");
        s.gate(false, "ratio 2.23x, bound 1.5x");
        s.record("after_the_gate", 1.0);
        assert_eq!(s.failed_gates, ["ratio 2.23x, bound 1.5x"]);
        assert!(s.to_json().contains("\"after_the_gate\": 1"));
    }

    #[test]
    fn non_finite_values_become_null() {
        let mut s = BenchSummary::new("demo");
        s.record("nan", f64::NAN);
        assert!(s.to_json().contains("\"nan\": null"));
    }

    #[test]
    fn escape_handles_quotes_and_newlines() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn write_creates_the_json_file() {
        let dir = std::env::temp_dir().join("imdpp-bench-summary-test");
        // Scope the env override to this test's write via a direct path
        // check: write into a temp results dir by temporarily setting the
        // variable is racy across threads, so just exercise to_json + a
        // manual write here.
        std::fs::create_dir_all(&dir).unwrap();
        let mut s = BenchSummary::new("unit_test");
        s.record("value", 1.25);
        let path = dir.join("bench_unit_test.json");
        std::fs::write(&path, s.to_json()).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert!(read.contains("\"value\": 1.25"));
        std::fs::remove_file(path).ok();
    }
}
