//! Fig. 12 + Table III: the course-promotion empirical study — number of
//! students selecting elective courses per class, for Dysim, BGRD, HAG and
//! PS at b = 50, T = 3.
//!
//! Usage: `cargo run --release -p imdpp-experiments --bin fig12_empirical`

use imdpp_core::Evaluator;
use imdpp_datasets::{generate_class, ClassSpec};
use imdpp_experiments::{run_algorithm, write_csv, AlgorithmKind, HarnessConfig, Table};

fn main() {
    let config = HarnessConfig::from_env();
    let algorithms = [
        AlgorithmKind::Dysim,
        AlgorithmKind::Bgrd,
        AlgorithmKind::Hag,
        AlgorithmKind::Ps,
    ];

    let mut class_table = Table::new("Table III — class statistics", &["class", "users", "edges"]);
    let mut table = Table::new(
        "Fig. 12 — students selecting elective courses (b=50, T=3)",
        &["class", "algorithm", "selections", "sigma", "seconds"],
    );

    for spec in ClassSpec::all() {
        class_table.push_row(vec![
            spec.id.to_string(),
            spec.users.to_string(),
            spec.edges.to_string(),
        ]);
        let instance = generate_class(&spec);
        for algo in algorithms {
            let r = run_algorithm(algo, &instance, &config).expect("metrics side channel");
            // All course importances are 1, so σ equals the expected number of
            // course selections; report it rounded as the figure does.
            let selections = Evaluator::new(&instance, config.eval_samples, 0xC1A55)
                .spread(&r.seeds)
                .round();
            println!(
                "class {} {:<6} selections={} ({} seeds, {:.1}s)",
                spec.id,
                r.algorithm,
                selections,
                r.seeds.len(),
                r.seconds
            );
            table.push_row(vec![
                spec.id.to_string(),
                r.algorithm.to_string(),
                format!("{selections}"),
                format!("{:.3}", r.spread),
                format!("{:.3}", r.seconds),
            ]);
        }
    }

    print!("{}", class_table.render());
    print!("{}", table.render());
    if let Err(e) = write_csv(&class_table, &config.out_dir, "table3_classes") {
        eprintln!("could not write csv: {e}");
    }
    match write_csv(&table, &config.out_dir, "fig12_empirical") {
        Ok(path) => println!("csv written to {path}"),
        Err(e) => eprintln!("could not write csv: {e}"),
    }
}
