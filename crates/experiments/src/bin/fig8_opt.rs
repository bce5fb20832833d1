//! Fig. 8: comparison against OPT on the 100-user Amazon sample.
//!
//! * `fig8_opt budgets`     — Fig. 8(a): σ vs budget b ∈ {50, 75, 100, 125} at T = 2
//! * `fig8_opt promotions`  — Fig. 8(b): σ vs T ∈ {1, 2, 3} at b = 100
//! * append `--quick` to halve the sweep.

use imdpp_datasets::{generate, DatasetKind};
use imdpp_experiments::{run_algorithm, write_csv, AlgorithmKind, HarnessConfig, Table};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("budgets");
    let quick = args.iter().any(|a| a == "--quick");
    let config = HarnessConfig::from_env();

    let dataset = generate(&DatasetKind::AmazonTiny.config().scaled(config.scale));
    let algorithms = [
        AlgorithmKind::Opt,
        AlgorithmKind::Dysim,
        AlgorithmKind::Bgrd,
        AlgorithmKind::Hag,
        AlgorithmKind::Ps,
        AlgorithmKind::Drhga,
    ];

    let mut table = Table::new(
        format!("Fig. 8 ({mode}) — Amazon 100-user sample vs OPT"),
        &["sweep", "algorithm", "sigma", "seeds", "seconds"],
    );

    match mode {
        "promotions" => {
            let promotions: Vec<u32> = if quick { vec![1, 2] } else { vec![1, 2, 3] };
            for &t in &promotions {
                let instance = dataset.instance.with_budget(100.0).with_promotions(t);
                for kind in algorithms {
                    let r = run_algorithm(kind, &instance, &config).expect("metrics side channel");
                    println!(
                        "T={t} {:<6} sigma={:.2} ({} seeds, {:.2}s)",
                        r.algorithm,
                        r.spread,
                        r.seeds.len(),
                        r.seconds
                    );
                    table.push_row(vec![
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
            let budgets: Vec<f64> = if quick {
                vec![50.0, 125.0]
            } else {
                vec![50.0, 75.0, 100.0, 125.0]
            };
            for &b in &budgets {
                let instance = dataset.instance.with_budget(b).with_promotions(2);
                for kind in algorithms {
                    let r = run_algorithm(kind, &instance, &config).expect("metrics side channel");
                    println!(
                        "b={b} {:<6} sigma={:.2} ({} seeds, {:.2}s)",
                        r.algorithm,
                        r.spread,
                        r.seeds.len(),
                        r.seconds
                    );
                    table.push_row(vec![
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

    print!("{}", table.render());
    match write_csv(&table, &config.out_dir, &format!("fig8_{mode}")) {
        Ok(path) => println!("csv written to {path}"),
        Err(e) => eprintln!("could not write csv: {e}"),
    }
}
