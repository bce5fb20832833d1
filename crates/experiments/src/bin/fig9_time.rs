//! Fig. 9(d), 9(g) and 9(h): execution time of Dysim vs the baselines.
//!
//! * `fig9_time budget`     — selection time vs b on Amazon (Fig. 9(d))
//! * `fig9_time promotions` — selection time vs T on Amazon (Fig. 9(g))
//! * `fig9_time datasets`   — Dysim's time across the four datasets (Fig. 9(h))
//! * append `--quick` to shrink the sweep.

use imdpp_datasets::{generate, DatasetKind};
use imdpp_experiments::{
    algorithms, run_algorithm, write_csv, AlgorithmKind, HarnessConfig, Table,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("budget");
    let quick = args.iter().any(|a| a == "--quick");
    let config = HarnessConfig::from_env();

    let mut table = Table::new(
        format!("Fig. 9 execution time ({mode})"),
        &["dataset", "sweep", "algorithm", "seconds", "sigma"],
    );

    match mode {
        "datasets" => {
            for kind in DatasetKind::large() {
                let dataset = generate(&kind.config().scaled(config.scale));
                let instance = dataset.instance.with_budget(500.0).with_promotions(10);
                let r = run_algorithm(AlgorithmKind::Dysim, &instance, &config)
                    .expect("metrics side channel");
                println!(
                    "{} Dysim {:.2}s sigma={:.1}",
                    kind.name(),
                    r.seconds,
                    r.spread
                );
                table.push_row(vec![
                    kind.name().to_string(),
                    "b=500,T=10".to_string(),
                    r.algorithm.to_string(),
                    format!("{:.3}", r.seconds),
                    format!("{:.3}", r.spread),
                ]);
            }
        }
        "promotions" => {
            let dataset = generate(&DatasetKind::AmazonSmall.config().scaled(config.scale));
            let sweep: Vec<u32> = if quick {
                vec![1, 10]
            } else {
                vec![1, 5, 10, 20, 40]
            };
            for &t in &sweep {
                let instance = dataset.instance.with_budget(500.0).with_promotions(t);
                for algo in algorithms() {
                    let r = run_algorithm(algo, &instance, &config).expect("metrics side channel");
                    println!("amazon T={t} {:<6} {:.2}s", r.algorithm, r.seconds);
                    table.push_row(vec![
                        "amazon".to_string(),
                        format!("T={t}"),
                        r.algorithm.to_string(),
                        format!("{:.3}", r.seconds),
                        format!("{:.3}", r.spread),
                    ]);
                }
            }
        }
        _ => {
            let dataset = generate(&DatasetKind::AmazonSmall.config().scaled(config.scale));
            let sweep: Vec<f64> = if quick {
                vec![100.0, 300.0]
            } else {
                vec![100.0, 200.0, 300.0, 400.0, 500.0]
            };
            for &b in &sweep {
                let instance = dataset.instance.with_budget(b).with_promotions(10);
                for algo in algorithms() {
                    let r = run_algorithm(algo, &instance, &config).expect("metrics side channel");
                    println!("amazon b={b} {:<6} {:.2}s", r.algorithm, r.seconds);
                    table.push_row(vec![
                        "amazon".to_string(),
                        format!("b={b}"),
                        r.algorithm.to_string(),
                        format!("{:.3}", r.seconds),
                        format!("{:.3}", r.spread),
                    ]);
                }
            }
        }
    }

    print!("{}", table.render());
    match write_csv(&table, &config.out_dir, &format!("fig9_time_{mode}")) {
        Ok(path) => println!("csv written to {path}"),
        Err(e) => eprintln!("could not write csv: {e}"),
    }
}
