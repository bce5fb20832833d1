//! Fig. 13: sensitivity of Dysim to the number of meta-graphs
//! (1, 2 or 3 complementary meta-graphs; b = 100, T = 3).
//!
//! Usage: `cargo run --release -p imdpp-experiments --bin fig13_metagraphs [--quick]`

use imdpp_datasets::{generate, DatasetKind};
use imdpp_experiments::{run_algorithm, write_csv, AlgorithmKind, HarnessConfig, Table};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let config = HarnessConfig::from_env();
    let datasets: Vec<DatasetKind> = if quick {
        vec![DatasetKind::YelpSmall]
    } else {
        DatasetKind::large().to_vec()
    };

    let mut table = Table::new(
        "Fig. 13 — sensitivity to the number of meta-graphs (b=100, T=3)",
        &["dataset", "metagraphs", "sigma", "seeds", "seconds"],
    );

    for kind in datasets {
        let dataset = generate(&kind.config().scaled(config.scale));
        for metagraphs in 1..=3usize {
            let scenario = dataset.instance.scenario().with_metagraph_count(metagraphs);
            let instance = dataset
                .instance
                .with_scenario(scenario)
                .expect("truncated scenario must remain valid")
                .with_budget(100.0)
                .with_promotions(3);
            let r = run_algorithm(AlgorithmKind::Dysim, &instance, &config)
                .expect("metrics side channel");
            println!(
                "{} m={metagraphs} sigma={:.1} ({} seeds, {:.1}s)",
                kind.name(),
                r.spread,
                r.seeds.len(),
                r.seconds
            );
            table.push_row(vec![
                kind.name().to_string(),
                metagraphs.to_string(),
                format!("{:.3}", r.spread),
                r.seeds.len().to_string(),
                format!("{:.3}", r.seconds),
            ]);
        }
    }

    print!("{}", table.render());
    match write_csv(&table, &config.out_dir, "fig13_metagraphs") {
        Ok(path) => println!("csv written to {path}"),
        Err(e) => eprintln!("could not write csv: {e}"),
    }
}
