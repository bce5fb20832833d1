//! RIS-sketch baselines: TIM/IMM-flavoured selection driven by the
//! `imdpp-sketch` reverse-reachable oracle instead of forward Monte-Carlo.
//!
//! The same MCP selection machinery as [`imdpp_core::nominees`], but every
//! `f(N)` query is answered from the amortized RR-set pool of a
//! [`SketchOracle`] (build one with `SketchOracle::build` on the instance's
//! scenario; `select_nominees_with_oracle` takes it directly).  On the
//! static restricted problem the selections agree with the Monte-Carlo
//! greedy up to sampling noise while being orders of magnitude cheaper per
//! query.
//!
//! The full Dysim pipeline (not just this baseline) can also run
//! sketch-backed: set `DysimConfig::oracle` to `OracleKind::RrSketch` and
//! drive it through the `imdpp-engine` `Engine`.

use imdpp_core::nominees::{select_nominees_with_oracle, NomineeSelectionConfig};
use imdpp_core::{ImdppInstance, ItemId, Seed, SeedGroup};
use imdpp_sketch::SketchOracle;

/// TIM-style single-item baseline: budget-constrained greedy seeding of one
/// item, with marginal gains estimated from the RR sketch.  All chosen seeds
/// are placed in the first promotion.
pub fn sketch_greedy_single_item(
    instance: &ImdppInstance,
    item: ItemId,
    oracle: &SketchOracle,
) -> SeedGroup {
    let universe: Vec<_> = instance.scenario().users().map(|u| (u, item)).collect();
    let selection = select_nominees_with_oracle(
        instance,
        oracle,
        &universe,
        &NomineeSelectionConfig::default(),
    );
    selection
        .nominees
        .into_iter()
        .map(|(u, x)| Seed::new(u, x, 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::BaselineConfig;
    use imdpp_core::{CostModel, Evaluator, SpreadOracle, UserId};
    use imdpp_diffusion::scenario::toy_scenario;
    use imdpp_diffusion::DynamicsConfig;
    use imdpp_sketch::SketchConfig;

    fn sketch(inst: &ImdppInstance, sets: usize, seed: u64) -> SketchOracle {
        SketchOracle::build(
            inst.scenario(),
            SketchConfig::fixed(sets).with_base_seed(seed),
        )
    }

    fn instance(budget: f64) -> ImdppInstance {
        let scenario = toy_scenario();
        let costs = CostModel::uniform(scenario.user_count(), scenario.item_count(), 1.0);
        ImdppInstance::new(scenario, costs, budget, 1).unwrap()
    }

    #[test]
    fn sketch_selection_is_feasible_and_deterministic() {
        let inst = instance(2.0);
        let oracle = sketch(&inst, 512, 3);
        let a = sketch_greedy_single_item(&inst, ItemId(0), &oracle);
        let b = sketch_greedy_single_item(&inst, ItemId(0), &oracle);
        assert_eq!(a, b);
        assert!(inst.is_feasible(&a));
        assert_eq!(a.len(), 2);
        assert!(a
            .seeds()
            .iter()
            .all(|s| s.item == ItemId(0) && s.promotion == 1));
    }

    #[test]
    fn sketch_and_monte_carlo_selections_have_comparable_quality() {
        // Frozen instance so both estimators target the same static problem.
        let scenario = toy_scenario().with_dynamics(DynamicsConfig::frozen());
        let costs = CostModel::uniform(scenario.user_count(), scenario.item_count(), 1.0);
        let inst = ImdppInstance::new(scenario, costs, 2.0, 1).unwrap();

        let oracle = sketch(&inst, 2048, 5);
        let sketch_seeds = sketch_greedy_single_item(&inst, ItemId(0), &oracle);
        let mc_seeds =
            crate::classic::greedy_single_item(&inst, ItemId(0), &BaselineConfig::fast());

        // Evaluate both seed groups with one reference Monte-Carlo estimator.
        let ev = Evaluator::new(&inst, 2_000, 99);
        let sketch_spread = ev.spread(&sketch_seeds);
        let mc_spread = ev.spread(&mc_seeds);
        assert!(
            (sketch_spread - mc_spread).abs() <= 0.05 * mc_spread.max(1.0),
            "sketch greedy {sketch_spread:.3} vs MC greedy {mc_spread:.3}"
        );
    }

    #[test]
    fn nominee_selection_through_the_oracle_respects_budget() {
        let inst = instance(3.0);
        let oracle = sketch(&inst, 256, 11);
        let universe = inst.nominee_universe(None);
        let sel = select_nominees_with_oracle(
            &inst,
            &oracle,
            &universe,
            &NomineeSelectionConfig::default(),
        );
        assert!(sel.total_cost <= inst.budget() + 1e-9);
        assert!(!sel.nominees.is_empty());
        assert!(sel.objective > 0.0);
        // The objective reported is the oracle's own estimate.
        assert!((sel.objective - oracle.static_spread(&sel.nominees)).abs() < 1e-12);
        // CELF through the sketch must not pick the sink user first.
        assert_ne!(sel.nominees[0].0, UserId(5));
    }
}
