//! DRHGA (after Huang, Meng & Shen, "Competitive and complementary influence
//! maximization in social network: a follower's perspective" \[19\]).
//!
//! Behavioural description used for the re-implementation: DRHGA models the
//! users' adopting probability of a promoted item as depending on previously
//! adopted complementary / substitutable items (dynamic preferences), and it
//! "is able to select appropriate users to promote each item, instead of
//! regarding all items as a bundle", but "does not choose items to be
//! promoted" — every item of the catalogue is promoted, with its own
//! greedy-selected users — and it does not reason about promotional timings
//! or the dynamics of perceptions and influence strengths.  Timings are
//! assigned with CR-Greedy.

use crate::common::{Algorithm, BaselineConfig};
use crate::crgreedy::cr_greedy_timing;
use imdpp_core::{Evaluator, ImdppInstance, ItemId, Seed, SeedGroup, UserId};

/// The DRHGA baseline.
#[derive(Clone, Debug, Default)]
pub struct Drhga {
    /// Shared baseline configuration.
    pub config: BaselineConfig,
}

impl Drhga {
    /// Creates a DRHGA runner.
    pub fn new(config: BaselineConfig) -> Self {
        Drhga { config }
    }
}

impl Algorithm for Drhga {
    fn name(&self) -> &'static str {
        "DRHGA"
    }

    fn select(&self, instance: &ImdppInstance) -> SeedGroup {
        let evaluator = Evaluator::new(instance, self.config.mc_samples, self.config.base_seed);
        let users = crate::common::candidate_users(instance, self.config.candidate_users);
        let items: Vec<ItemId> = instance.scenario().items().collect();
        if items.is_empty() {
            return SeedGroup::new();
        }
        // DRHGA promotes every item of the catalogue and repeatedly selects
        // the best user *for each item* in a round-robin over the items (so
        // that every item gets some seeding before any item gets its second
        // seed), until no affordable user improves the spread.  The shared
        // budget is not pre-split across items.
        let mut selected: Vec<(UserId, ItemId)> = Vec::new();
        let mut total_spent = 0.0;
        let mut group = SeedGroup::new();
        let mut current = 0.0;
        loop {
            let mut added_this_round = false;
            for &x in &items {
                let mut best: Option<(UserId, f64, f64)> = None; // (user, gain, ratio)
                for &u in &users {
                    if group.contains_nominee(u, x) {
                        continue;
                    }
                    let cost = instance.cost(u, x);
                    if cost > instance.budget() - total_spent {
                        continue;
                    }
                    let value = evaluator.spread(&group.with(Seed::new(u, x, 1)));
                    let gain = value - current;
                    let ratio = gain / cost;
                    if best.is_none_or(|(_, _, r)| ratio > r) {
                        best = Some((u, gain, ratio));
                    }
                }
                if let Some((u, gain, _)) = best {
                    if gain > 0.0 {
                        let cost = instance.cost(u, x);
                        total_spent += cost;
                        current += gain;
                        group.insert(Seed::new(u, x, 1));
                        selected.push((u, x));
                        added_this_round = true;
                    }
                }
            }
            if !added_this_round {
                break;
            }
        }
        cr_greedy_timing(instance, &selected, &self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imdpp_core::CostModel;
    use imdpp_diffusion::scenario::toy_scenario;

    fn instance(budget: f64, promotions: u32) -> ImdppInstance {
        let scenario = toy_scenario();
        let costs = CostModel::uniform(scenario.user_count(), scenario.item_count(), 1.0);
        ImdppInstance::new(scenario, costs, budget, promotions).unwrap()
    }

    #[test]
    fn drhga_is_feasible() {
        let inst = instance(4.0, 2);
        let seeds = Drhga::new(BaselineConfig::fast()).select(&inst);
        assert!(inst.is_feasible(&seeds));
        assert!(!seeds.is_empty());
    }

    #[test]
    fn drhga_promotes_multiple_items_when_budget_allows() {
        let inst = instance(8.0, 2);
        let seeds = Drhga::new(BaselineConfig::fast()).select(&inst);
        assert!(seeds.items().len() >= 2);
    }

    #[test]
    fn drhga_selects_different_users_per_item() {
        let inst = instance(8.0, 2);
        let seeds = Drhga::new(BaselineConfig::fast()).select(&inst);
        // Unlike BGRD, DRHGA is free to pick different users for different
        // items; at minimum the selection must not be a single-user bundle of
        // every item unless that is genuinely optimal on this tiny graph.
        assert!(seeds.len() >= 2);
    }

    #[test]
    fn drhga_with_tiny_budget_still_respects_it() {
        let inst = instance(1.0, 1);
        let seeds = Drhga::new(BaselineConfig::fast()).select(&inst);
        assert!(inst.is_feasible(&seeds));
        assert!(seeds.len() <= 1);
    }

    #[test]
    fn drhga_name() {
        assert_eq!(Drhga::default().name(), "DRHGA");
    }
}
