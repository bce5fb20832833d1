//! Fig. 9(a)–(c) and 9(e)–(f): influence spread of Dysim vs the baselines on
//! the large datasets.
//!
//! * `fig9_influence budget`     — σ vs b ∈ {100..500} at T = 10 (Figs. 9(a)–(c))
//! * `fig9_influence promotions` — σ vs T ∈ {1, 5, 10, 20, 40} at b = 500 (Figs. 9(e)–(f))
//! * optional dataset filter as a second positional argument
//!   (`yelp`, `amazon`, `douban`, `gowalla`)
//! * append `--quick` to shrink the sweep.

use imdpp_datasets::{generate, DatasetKind};
use imdpp_experiments::{algorithms, run_algorithm, write_csv, HarnessConfig, Table};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("budget");
    let quick = args.iter().any(|a| a == "--quick");
    let dataset_filter = args.get(1).filter(|a| !a.starts_with("--")).cloned();
    let config = HarnessConfig::from_env();

    let datasets: Vec<DatasetKind> = match mode {
        "promotions" => vec![DatasetKind::YelpSmall, DatasetKind::AmazonSmall],
        _ => vec![
            DatasetKind::YelpSmall,
            DatasetKind::AmazonSmall,
            DatasetKind::DoubanSmall,
        ],
    };
    let datasets: Vec<DatasetKind> = datasets
        .into_iter()
        .filter(|k| dataset_filter.as_deref().is_none_or(|f| k.name() == f))
        .collect();

    let mut table = Table::new(
        format!("Fig. 9 influence ({mode})"),
        &["dataset", "sweep", "algorithm", "sigma", "seeds", "seconds"],
    );

    for kind in datasets {
        let dataset = generate(&kind.config().scaled(config.scale));
        match mode {
            "promotions" => {
                let sweep: Vec<u32> = if quick {
                    vec![1, 5, 10]
                } else {
                    vec![1, 5, 10, 20, 40]
                };
                for &t in &sweep {
                    let instance = dataset.instance.with_budget(500.0).with_promotions(t);
                    for algo in algorithms() {
                        let r =
                            run_algorithm(algo, &instance, &config).expect("metrics side channel");
                        println!(
                            "{} T={t} {:<6} sigma={:.1} ({} seeds, {:.1}s)",
                            kind.name(),
                            r.algorithm,
                            r.spread,
                            r.seeds.len(),
                            r.seconds
                        );
                        table.push_row(vec![
                            kind.name().to_string(),
                            format!("T={t}"),
                            r.algorithm.to_string(),
                            format!("{:.3}", r.spread),
                            r.seeds.len().to_string(),
                            format!("{:.3}", r.seconds),
                        ]);
                    }
                }
            }
            _ => {
                let sweep: Vec<f64> = if quick {
                    vec![100.0, 300.0]
                } else {
                    vec![100.0, 200.0, 300.0, 400.0, 500.0]
                };
                for &b in &sweep {
                    let instance = dataset.instance.with_budget(b).with_promotions(10);
                    for algo in algorithms() {
                        let r =
                            run_algorithm(algo, &instance, &config).expect("metrics side channel");
                        println!(
                            "{} b={b} {:<6} sigma={:.1} ({} seeds, {:.1}s)",
                            kind.name(),
                            r.algorithm,
                            r.spread,
                            r.seeds.len(),
                            r.seconds
                        );
                        table.push_row(vec![
                            kind.name().to_string(),
                            format!("b={b}"),
                            r.algorithm.to_string(),
                            format!("{:.3}", r.spread),
                            r.seeds.len().to_string(),
                            format!("{:.3}", r.seconds),
                        ]);
                    }
                }
            }
        }
    }

    print!("{}", table.render());
    match write_csv(&table, &config.out_dir, &format!("fig9_influence_{mode}")) {
        Ok(path) => println!("csv written to {path}"),
        Err(e) => eprintln!("could not write csv: {e}"),
    }
}
