//! Point-in-time telemetry snapshots and their JSON form.
//!
//! [`TelemetrySnapshot`] is a plain owned struct: no atomics, no `Arc`s, no
//! lifetimes — safe to move across threads, diff against another snapshot,
//! or serialize.  The JSON is hand-rolled (the workspace has no JSON
//! library) in the same style as `imdpp_bench::BenchSummary`:
//!
//! ```json
//! {
//!   "counters": { "engine.applies": 3 },
//!   "gauges": { "engine.epoch": 3 },
//!   "histograms": {
//!     "engine.apply_ns": {
//!       "count": 3, "sum": 1964033, "max": 812249,
//!       "p50": 524287, "p90": 1048575, "p99": 812249,
//!       "buckets": [[20, 2], [21, 1]]
//!     }
//!   }
//! }
//! ```

use std::io::Write as _;
use std::path::Path;

/// One histogram's state at snapshot time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// The registered metric name.
    pub name: String,
    /// Number of recorded observations.
    pub count: u64,
    /// Exact sum of all recorded values.
    pub sum: u64,
    /// Exact maximum recorded value (0 when empty).
    pub max: u64,
    /// Median estimate (bucket upper bound, clamped to `max`).
    pub p50: u64,
    /// 90th-percentile estimate (bucket upper bound, clamped to `max`).
    pub p90: u64,
    /// 99th-percentile estimate (bucket upper bound, clamped to `max`).
    pub p99: u64,
    /// The non-empty `(bucket index, count)` pairs in index order; bucket
    /// `k ≥ 1` covers `[2^(k-1), 2^k - 1]` and bucket `0` covers `{0}`.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// Mean recorded value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Every registered metric of one [`crate::Telemetry`] at one moment, with
/// names sorted ascending within each kind.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[must_use = "a snapshot is a point-in-time read; dropping it unread wastes the registry pass"]
pub struct TelemetrySnapshot {
    /// `(name, total)` per registered counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per registered gauge.
    pub gauges: Vec<(String, u64)>,
    /// One entry per registered histogram.
    pub histograms: Vec<HistogramSnapshot>,
}

impl TelemetrySnapshot {
    /// The total of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The value of gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The snapshot of histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// True when no metric is registered (always the case for snapshots of
    /// a disabled registry).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The snapshot as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        push_map(&mut out, "counters", &self.counters, true);
        push_map(&mut out, "gauges", &self.gauges, true);
        out.push_str("  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {{ ", escape(&h.name)));
            out.push_str(&format!(
                "\"count\": {}, \"sum\": {}, \"max\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
                h.count, h.sum, h.max, h.p50, h.p90, h.p99
            ));
            for (j, (bucket, count)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{bucket}, {count}]"));
            }
            out.push_str("] }");
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Writes [`TelemetrySnapshot::to_json`] to `path`, creating parent
    /// directories as needed.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }
}

/// Appends `"key": { "name": value, ... },` to `out`.
fn push_map(out: &mut String, key: &str, entries: &[(String, u64)], trailing_comma: bool) {
    out.push_str(&format!("  \"{key}\": {{"));
    for (i, (name, value)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{}\": {value}", escape(name)));
    }
    if !entries.is_empty() {
        out.push_str("\n  ");
    }
    out.push('}');
    if trailing_comma {
        out.push(',');
    }
    out.push('\n');
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
    use crate::Telemetry;

    fn sample() -> TelemetrySnapshot {
        let t = Telemetry::new();
        t.counter("b.count").add(2);
        t.counter("a.count").add(1);
        t.gauge("epoch").set(7);
        t.histogram("lat_ns").record(3);
        t.histogram("lat_ns").record(900);
        t.snapshot()
    }

    #[test]
    fn snapshot_sorts_names_and_answers_lookups() {
        let snap = sample();
        assert_eq!(
            snap.counters,
            vec![("a.count".to_string(), 1), ("b.count".to_string(), 2)]
        );
        assert_eq!(snap.gauge("epoch"), Some(7));
        let h = snap.histogram("lat_ns").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 903);
        assert!((h.mean() - 451.5).abs() < 1e-12);
        assert!(!snap.is_empty());
    }

    #[test]
    fn json_contains_every_section() {
        let json = sample().to_json();
        assert!(json.contains("\"counters\": {"));
        assert!(json.contains("\"a.count\": 1"));
        assert!(json.contains("\"gauges\": {"));
        assert!(json.contains("\"epoch\": 7"));
        assert!(json.contains("\"lat_ns\": { \"count\": 2, \"sum\": 903"));
        assert!(json.contains("\"buckets\": [[2, 1], [10, 1]]"));
        // Balanced braces and brackets — a cheap well-formedness check.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn empty_snapshot_serializes_to_empty_maps() {
        let json = TelemetrySnapshot::default().to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"gauges\": {}"));
        assert!(json.contains("\"histograms\": {}"));
    }

    #[test]
    fn write_to_creates_parent_directories() {
        let dir = std::env::temp_dir().join("imdpp-obs-snapshot-test");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("nested").join("metrics.json");
        sample().write_to(&path).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert!(read.contains("\"epoch\": 7"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
