//! BGRD (after Banerjee, Chen & Lakshmanan, "Maximizing welfare in social
//! networks under a utility driven influence diffusion model" \[38\]).
//!
//! Behavioural description used for the re-implementation (Secs. II and
//! VI-B of the paper): BGRD selects influential *users* greedily by the
//! marginal welfare of the whole item set per unit cost and "regards all
//! items as a bundle to be promoted" at those users; it does not reason
//! about the substitutable relationship or about which item should go to
//! which user.  Promotional timings are assigned afterwards with CR-Greedy.

use crate::common::{Algorithm, BaselineConfig};
use crate::crgreedy::cr_greedy_timing;
use imdpp_core::{Evaluator, ImdppInstance, ItemId, Seed, SeedGroup, UserId};

/// The BGRD baseline.
#[derive(Clone, Debug, Default)]
pub struct Bgrd {
    /// Shared baseline configuration.
    pub config: BaselineConfig,
}

impl Bgrd {
    /// Creates a BGRD runner.
    pub fn new(config: BaselineConfig) -> Self {
        Bgrd { config }
    }

    /// The bundle BGRD places at a user: as many items as the remaining
    /// budget affords, filled in decreasing order of item importance (BGRD
    /// values the whole welfare of the bundle, so when the full catalogue
    /// does not fit it keeps the most valuable items).  Returns the items and
    /// their total cost; empty when not even one item is affordable.
    fn affordable_bundle(
        instance: &ImdppInstance,
        u: UserId,
        remaining_budget: f64,
    ) -> (Vec<ItemId>, f64) {
        let mut items: Vec<ItemId> = instance.scenario().items().collect();
        items.sort_by(|a, b| {
            instance
                .scenario()
                .catalog()
                .importance(*b)
                .partial_cmp(&instance.scenario().catalog().importance(*a))
                .unwrap()
        });
        let mut bundle = Vec::new();
        let mut cost = 0.0;
        for x in items {
            let c = instance.cost(u, x);
            if cost + c <= remaining_budget {
                bundle.push(x);
                cost += c;
            }
        }
        (bundle, cost)
    }

    /// Seeds for a set of `(user, bundle)` assignments, all in promotion 1.
    fn bundle_seeds(assignments: &[(UserId, Vec<ItemId>)]) -> SeedGroup {
        let mut g = SeedGroup::new();
        for (u, bundle) in assignments {
            for &x in bundle {
                g.insert(Seed::new(*u, x, 1));
            }
        }
        g
    }
}

impl Algorithm for Bgrd {
    fn name(&self) -> &'static str {
        "BGRD"
    }

    fn select(&self, instance: &ImdppInstance) -> SeedGroup {
        let evaluator = Evaluator::new(instance, self.config.mc_samples, self.config.base_seed);
        let candidates = crate::common::candidate_users(instance, self.config.candidate_users);
        let mut assignments: Vec<(UserId, Vec<ItemId>)> = Vec::new();
        let mut spent = 0.0;
        let mut current = 0.0;
        loop {
            let remaining = instance.budget() - spent;
            let mut best: Option<(UserId, Vec<ItemId>, f64, f64, f64)> = None; // user, bundle, cost, gain, ratio
            for &u in &candidates {
                if assignments.iter().any(|(v, _)| *v == u) {
                    continue;
                }
                let (bundle, cost) = Self::affordable_bundle(instance, u, remaining);
                if bundle.is_empty() {
                    continue;
                }
                let mut with = assignments.clone();
                with.push((u, bundle.clone()));
                let value = evaluator.spread(&Self::bundle_seeds(&with));
                let gain = value - current;
                let ratio = gain / cost;
                if best.as_ref().is_none_or(|(_, _, _, _, r)| ratio > *r) {
                    best = Some((u, bundle, cost, gain, ratio));
                }
            }
            match best {
                Some((u, bundle, cost, gain, _)) if gain > 0.0 => {
                    spent += cost;
                    current += gain;
                    assignments.push((u, bundle));
                }
                _ => break,
            }
        }
        // Spread the bundles' (user, item) pairs over the T promotions.
        let nominees: Vec<(UserId, ItemId)> = assignments
            .iter()
            .flat_map(|(u, bundle)| bundle.iter().map(move |&x| (*u, x)))
            .collect();
        cr_greedy_timing(instance, &nominees, &self.config)
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
    fn bgrd_selects_whole_bundles() {
        // Budget 4 = exactly one bundle of 4 items.
        let inst = instance(4.0, 2);
        let seeds = Bgrd::new(BaselineConfig::fast()).select(&inst);
        assert!(inst.is_feasible(&seeds));
        assert_eq!(seeds.users().len(), 1);
        assert_eq!(seeds.items().len(), 4);
    }

    #[test]
    fn bgrd_with_tiny_budget_truncates_the_bundle_by_importance() {
        // A full bundle costs 4 > budget 2: BGRD keeps the two most important
        // items (iPhone 1.0 and wireless charger 0.8) at a single user.
        let inst = instance(2.0, 1);
        let seeds = Bgrd::new(BaselineConfig::fast()).select(&inst);
        assert_eq!(seeds.users().len(), 1);
        assert_eq!(seeds.items(), vec![ItemId(0), ItemId(2)]);
        assert!(inst.is_feasible(&seeds));
    }

    #[test]
    fn bgrd_respects_budget_with_two_bundles() {
        let inst = instance(8.0, 2);
        let seeds = Bgrd::new(BaselineConfig::fast()).select(&inst);
        assert!(inst.is_feasible(&seeds));
        assert!(seeds.users().len() <= 2);
    }

    #[test]
    fn bgrd_name() {
        assert_eq!(Bgrd::default().name(), "BGRD");
    }
}
