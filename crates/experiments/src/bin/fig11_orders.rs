//! Fig. 11: comparison of market-ordering metrics (AE, PF, SZ, RMS, RD) on
//! Yelp and Amazon.
//!
//! * `fig11_orders budget`     — σ vs b ∈ {750..1500} at T = 40
//! * `fig11_orders promotions` — σ vs T ∈ {5, 10, 20, 40} at b = 1000
//! * append `--quick` to shrink the sweep.

use imdpp_core::MarketOrdering;
use imdpp_datasets::{generate, DatasetKind};
use imdpp_experiments::{harness::run_dysim_with_ordering, write_csv, HarnessConfig, Table};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("budget");
    let quick = args.iter().any(|a| a == "--quick");
    let config = HarnessConfig::from_env();

    let mut table = Table::new(
        format!("Fig. 11 market orderings ({mode})"),
        &["dataset", "sweep", "ordering", "sigma", "seeds", "seconds"],
    );

    for kind in [DatasetKind::YelpSmall, DatasetKind::AmazonSmall] {
        let dataset = generate(&kind.config().scaled(config.scale));
        let sweeps: Vec<(String, f64, u32)> = match mode {
            "promotions" => {
                let ts: Vec<u32> = if quick {
                    vec![5, 20]
                } else {
                    vec![5, 10, 20, 40]
                };
                ts.iter().map(|&t| (format!("T={t}"), 1000.0, t)).collect()
            }
            _ => {
                let bs: Vec<f64> = if quick {
                    vec![750.0, 1500.0]
                } else {
                    vec![750.0, 1000.0, 1250.0, 1500.0]
                };
                bs.iter().map(|&b| (format!("b={b}"), b, 40)).collect()
            }
        };
        for (label, budget, promotions) in sweeps {
            let instance = dataset
                .instance
                .with_budget(budget)
                .with_promotions(promotions);
            for ordering in MarketOrdering::all() {
                let r = run_dysim_with_ordering(&instance, &config, ordering)
                    .expect("metrics side channel");
                println!(
                    "{} {label} {:<3} sigma={:.1} ({} seeds, {:.1}s)",
                    kind.name(),
                    r.algorithm,
                    r.spread,
                    r.seeds.len(),
                    r.seconds
                );
                table.push_row(vec![
                    kind.name().to_string(),
                    label.clone(),
                    r.algorithm.to_string(),
                    format!("{:.3}", r.spread),
                    r.seeds.len().to_string(),
                    format!("{:.3}", r.seconds),
                ]);
            }
        }
    }

    print!("{}", table.render());
    match write_csv(&table, &config.out_dir, &format!("fig11_orders_{mode}")) {
        Ok(path) => println!("csv written to {path}"),
        Err(e) => eprintln!("could not write csv: {e}"),
    }
}
