//! HAG (after Hung et al., "When social influence meets item inference"
//! \[37\]).
//!
//! Behavioural description used for the re-implementation: HAG "greedily
//! selects the most influential combination of user-item pairs as the
//! seeds, instead of the most influential user to promote a bundle of
//! items", which makes it more cost-effective than BGRD at small budgets,
//! but it neither examines the substitutable relationship nor exploits the
//! dynamics of perceptions.  Its combinatorial pair search also makes it the
//! slowest baseline at large budgets (Fig. 9(d)).  Timings are assigned with
//! CR-Greedy.

use crate::common::{Algorithm, BaselineConfig};
use crate::crgreedy::cr_greedy_timing;
use imdpp_core::{Evaluator, ImdppInstance, ItemId, Seed, SeedGroup, UserId};

/// The HAG baseline.
#[derive(Clone, Debug, Default)]
pub struct Hag {
    /// Shared baseline configuration.
    pub config: BaselineConfig,
}

impl Hag {
    /// Creates a HAG runner.
    pub fn new(config: BaselineConfig) -> Self {
        Hag { config }
    }
}

impl Algorithm for Hag {
    fn name(&self) -> &'static str {
        "HAG"
    }

    fn select(&self, instance: &ImdppInstance) -> SeedGroup {
        let evaluator = Evaluator::new(instance, self.config.mc_samples, self.config.base_seed);
        let users = crate::common::candidate_users(instance, self.config.candidate_users);
        let pairs: Vec<(UserId, ItemId)> = users
            .iter()
            .flat_map(|&u| instance.scenario().items().map(move |x| (u, x)))
            .filter(|&(u, x)| instance.cost(u, x) <= instance.budget())
            .collect();

        // Greedy by raw marginal gain (not the cost-performance ratio), which
        // reproduces HAG's tendency to pick influential-but-expensive pairs.
        let mut selected: Vec<(UserId, ItemId)> = Vec::new();
        let mut group = SeedGroup::new();
        let mut spent = 0.0;
        let mut current = 0.0;
        loop {
            let mut best: Option<((UserId, ItemId), f64)> = None;
            for &(u, x) in &pairs {
                if group.contains_nominee(u, x) {
                    continue;
                }
                let cost = instance.cost(u, x);
                if cost > instance.budget() - spent {
                    continue;
                }
                let value = evaluator.spread(&group.with(Seed::new(u, x, 1)));
                let gain = value - current;
                if best.is_none_or(|(_, g)| gain > g) {
                    best = Some(((u, x), gain));
                }
            }
            match best {
                Some(((u, x), gain)) if gain > 0.0 => {
                    spent += instance.cost(u, x);
                    current += gain;
                    group.insert(Seed::new(u, x, 1));
                    selected.push((u, x));
                }
                _ => break,
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
    fn hag_is_feasible_and_nonempty() {
        let inst = instance(2.0, 2);
        let seeds = Hag::new(BaselineConfig::fast()).select(&inst);
        assert!(inst.is_feasible(&seeds));
        assert!(!seeds.is_empty());
        assert!(seeds.len() <= 2);
    }

    #[test]
    fn hag_can_mix_items_unlike_bgrd() {
        let inst = instance(2.0, 1);
        let seeds = Hag::new(BaselineConfig::fast()).select(&inst);
        // HAG can afford two pairs with budget 2 whereas BGRD needs 4 for a
        // bundle; it must therefore select something.
        assert!(!seeds.is_empty());
    }

    #[test]
    fn hag_prefers_high_importance_items_first() {
        let inst = instance(1.0, 1);
        let seeds = Hag::new(BaselineConfig::fast()).select(&inst);
        assert_eq!(seeds.len(), 1);
        // The single chosen item should be the high-importance iPhone (w=1.0)
        // rather than the cable (w=0.3).
        assert_ne!(seeds.items()[0], ItemId(3));
    }

    #[test]
    fn hag_name() {
        assert_eq!(Hag::default().name(), "HAG");
    }
}
