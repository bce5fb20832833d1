//! `--compare OLD NEW`: two result sets side by side, per workload and
//! metric, with each side's median and quartiles and whether the new side
//! stays within the bound `BENCHMARK.json` (read from the working
//! directory) fixes for the metric.

use crate::json::{self, Value};
use crate::stats::{quartiles, relative_iqr};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// An end-to-end metric's rule: which direction is better, and by what
/// share of the old median the new one may be worse.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rule {
    pub higher_is_better: bool,
    pub bound: f64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Worse,
    /// One side's own spread is wider than the bound.
    Unresolved,
    /// A side has fewer than two runs.
    TooFew,
}

/// Compares two sets of values of one metric.
pub fn verdict(old: &[f64], new: &[f64], rule: Rule) -> Verdict {
    let (Some([_, old_med, _]), Some([_, new_med, _])) = (quartiles(old), quartiles(new)) else {
        return Verdict::TooFew;
    };
    let worse_by = if rule.higher_is_better {
        (old_med - new_med) / old_med.abs()
    } else {
        (new_med - old_med) / old_med.abs()
    };
    if worse_by > rule.bound {
        return Verdict::Worse;
    }
    let wide = |v: &[f64]| relative_iqr(v).is_none_or(|s| s > rule.bound);
    if wide(old) || wide(new) {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

/// `name -> rule` for every end-to-end metric of a `BENCHMARK.json`.
pub fn rules(benchmark: &Value) -> BTreeMap<String, Rule> {
    benchmark
        .get("end_to_end")
        .map(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                Rule {
                    higher_is_better: m.get("better")?.as_str()? == "higher",
                    bound: m.get("bound")?.as_f64()?,
                },
            ))
        })
        .collect()
}

/// `(workload, metric) -> values` over one result file, and the distinct
/// host fingerprints in it.
type Table = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &Path) -> Result<(Table, Vec<String>), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut table = Table::new();
    let mut hosts = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        let workload = record
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{}:{}: no workload", path.display(), i + 1))?;
        if let Some(host) = record.get("host") {
            let host = host
                .members()
                .iter()
                .map(|(k, v)| match v {
                    Value::Str(s) => format!("{k}={s}"),
                    Value::Num(n) => format!("{k}={n}"),
                    other => format!("{k}={other:?}"),
                })
                .collect::<Vec<_>>()
                .join(" ");
            if !hosts.contains(&host) {
                hosts.push(host);
            }
        }
        for (name, metric) in record
            .get("metrics")
            .map(Value::members)
            .unwrap_or_default()
        {
            if let Some(value) = metric.get("value").and_then(Value::as_f64) {
                table
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok((table, hosts))
}

fn summary(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, q2, q3]) => format!("{q2:.6} [{q1:.6}, {q3:.6}] n={}", values.len()),
        None => format!("{values:?} n={}", values.len()),
    }
}

pub fn main(argv: &[String]) -> ExitCode {
    let [old_path, new_path] = argv else {
        eprintln!("perfbench: --compare takes exactly two result files");
        return ExitCode::from(2);
    };
    let benchmark = "BENCHMARK.json";
    let loaded = std::fs::read_to_string(benchmark)
        .map_err(|e| format!("cannot read {benchmark}: {e}"))
        .and_then(|text| json::parse(&text))
        .and_then(|bench| {
            Ok((
                rules(&bench),
                load(Path::new(old_path))?,
                load(Path::new(new_path))?,
            ))
        });
    let (rules, (old, old_hosts), (new, new_hosts)) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for host in &old_hosts {
        println!("old host {host}");
    }
    for host in &new_hosts {
        println!("new host {host}");
    }
    let mut worse = 0;
    for (key, old_values) in &old {
        let Some(new_values) = new.get(key) else {
            continue;
        };
        let (workload, metric) = key;
        let verdict = match rules.get(metric) {
            Some(&rule) => {
                let v = verdict(old_values, new_values, rule);
                worse += usize::from(v == Verdict::Worse);
                format!("{v:?} (bound {})", rule.bound)
            }
            None => "per-layer, no bound".to_string(),
        };
        println!(
            "{workload:<12} {metric:<34} old {} | new {} | {verdict}",
            summary(old_values),
            summary(new_values)
        );
    }
    if worse > 0 {
        println!("{worse} metric(s) worse than their bound");
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Rule = Rule {
        higher_is_better: false,
        bound: 0.1,
    };

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let old = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(
            verdict(&old, &[10.5, 10.4, 10.6, 10.5], LOWER),
            Verdict::Within
        );
        assert_eq!(
            verdict(&old, &[11.5, 11.4, 11.6, 11.5], LOWER),
            Verdict::Worse
        );
        let higher = Rule {
            higher_is_better: true,
            ..LOWER
        };
        assert_eq!(
            verdict(&old, &[11.5, 11.4, 11.6, 11.5], higher),
            Verdict::Within
        );
        assert_eq!(verdict(&old, &[8.5, 8.4, 8.6, 8.5], higher), Verdict::Worse);
        assert_eq!(
            verdict(&old, &[5.0, 10.0, 15.0, 10.0], LOWER),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&old, &[10.0], LOWER), Verdict::TooFew);
    }

    #[test]
    fn rules_come_from_benchmark_json() {
        let bench = json::parse(
            r#"{"end_to_end": [{"name": "a", "unit": "s", "better": "higher", "bound": 0.2}]}"#,
        )
        .unwrap();
        assert_eq!(
            rules(&bench).get("a"),
            Some(&Rule {
                higher_is_better: true,
                bound: 0.2
            })
        );
    }
}
