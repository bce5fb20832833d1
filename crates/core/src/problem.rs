//! The IMDPP problem instance (Definition 2 of the paper).

use imdpp_diffusion::{ImdppError, Scenario, SeedGroup};
use imdpp_graph::{ItemId, UserId};

/// The hiring-cost model `c_{u,x}`: how much of the budget seeding user `u`
/// with item `x` consumes.
#[derive(Clone, Debug)]
pub struct CostModel {
    costs: Vec<f64>,
    user_count: usize,
    item_count: usize,
}

impl CostModel {
    /// Uniform cost for every `(user, item)` pair.
    pub fn uniform(user_count: usize, item_count: usize, cost: f64) -> Self {
        assert!(cost.is_finite() && cost > 0.0, "cost must be positive");
        CostModel {
            costs: vec![cost; user_count * item_count],
            user_count,
            item_count,
        }
    }

    /// The cost model used throughout the paper's experiments (following
    /// \[3\], \[67\] and the empirical study): proportional to the user's
    /// out-degree
    /// and inversely proportional to the user's initial preference for the
    /// item, scaled by `scale`.
    ///
    /// ```text
    /// c_{u,x} = scale · (1 + out_degree(u)) / max(P_pref(u, x, 0), 0.1)
    /// ```
    pub fn degree_over_preference(scenario: &Scenario, scale: f64) -> Self {
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        let user_count = scenario.user_count();
        let item_count = scenario.item_count();
        let mut costs = Vec::with_capacity(user_count * item_count);
        for u in scenario.users() {
            let degree = scenario.social().out_degree(u) as f64;
            for x in scenario.items() {
                let pref = scenario.base_preference(u, x).max(0.1);
                costs.push(scale * (1.0 + degree) / pref);
            }
        }
        CostModel {
            costs,
            user_count,
            item_count,
        }
    }

    /// The cost `c_{u,x}`.
    #[inline]
    pub fn cost(&self, u: UserId, x: ItemId) -> f64 {
        self.costs[u.index() * self.item_count + x.index()]
    }

    /// Overwrites the cost of a single pair.
    pub fn set_cost(&mut self, u: UserId, x: ItemId, cost: f64) {
        assert!(cost.is_finite() && cost > 0.0, "cost must be positive");
        self.costs[u.index() * self.item_count + x.index()] = cost;
    }

    /// Number of users covered.
    pub fn user_count(&self) -> usize {
        self.user_count
    }

    /// Number of items covered.
    pub fn item_count(&self) -> usize {
        self.item_count
    }
}

/// A complete IMDPP instance: the world (scenario), the seeding costs, the
/// total budget `b` and the number of promotions `T`.
#[derive(Clone, Debug)]
pub struct ImdppInstance {
    scenario: Scenario,
    costs: CostModel,
    budget: f64,
    promotions: u32,
}

impl ImdppInstance {
    /// Creates an instance after validating dimensions and ranges.
    pub fn new(
        scenario: Scenario,
        costs: CostModel,
        budget: f64,
        promotions: u32,
    ) -> Result<Self, ImdppError> {
        if costs.user_count() != scenario.user_count() {
            return Err(ImdppError::DimensionMismatch {
                what: "cost model users vs scenario users",
                expected: scenario.user_count(),
                found: costs.user_count(),
            });
        }
        if costs.item_count() != scenario.item_count() {
            return Err(ImdppError::DimensionMismatch {
                what: "cost model items vs scenario items",
                expected: scenario.item_count(),
                found: costs.item_count(),
            });
        }
        if !budget.is_finite() || budget <= 0.0 {
            return Err(ImdppError::invalid("budget must be positive"));
        }
        if promotions == 0 {
            return Err(ImdppError::invalid("at least one promotion is required"));
        }
        Ok(ImdppInstance {
            scenario,
            costs,
            budget,
            promotions,
        })
    }

    /// The scenario (social network, items, KG relevance, dynamics).
    #[inline]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The cost model.
    #[inline]
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// The total budget `b`.
    #[inline]
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// The number of promotions `T`.
    #[inline]
    pub fn promotions(&self) -> u32 {
        self.promotions
    }

    /// The cost `c_{u,x}` of a nominee.
    #[inline]
    pub fn cost(&self, u: UserId, x: ItemId) -> f64 {
        self.costs.cost(u, x)
    }

    /// The total cost of a seed group.
    pub fn total_cost(&self, seeds: &SeedGroup) -> f64 {
        seeds.total_cost(|u, x| self.costs.cost(u, x))
    }

    /// Whether a seed group satisfies the budget and timing constraints.
    pub fn is_feasible(&self, seeds: &SeedGroup) -> bool {
        seeds
            .seeds()
            .iter()
            .all(|s| s.promotion >= 1 && s.promotion <= self.promotions)
            && self.total_cost(seeds) <= self.budget + 1e-9
    }

    /// Returns a copy of the instance with a different budget.
    pub fn with_budget(&self, budget: f64) -> ImdppInstance {
        let mut inst = self.clone();
        inst.budget = budget;
        inst
    }

    /// Returns a copy of the instance with a different number of promotions.
    pub fn with_promotions(&self, promotions: u32) -> ImdppInstance {
        let mut inst = self.clone();
        inst.promotions = promotions.max(1);
        inst
    }

    /// Returns a copy of the instance with a different scenario (same costs,
    /// budget and promotion count).  Used by ablations that freeze dynamics
    /// or truncate meta-graphs.
    pub fn with_scenario(&self, scenario: Scenario) -> Result<ImdppInstance, ImdppError> {
        ImdppInstance::new(scenario, self.costs.clone(), self.budget, self.promotions)
    }

    /// All `(user, item)` pairs whose individual cost fits within the budget
    /// (the initial nominee universe `U` of Algorithm 1).
    ///
    /// When `candidate_users` is given, only the that-many highest-out-degree
    /// users are considered, which keeps the universe tractable on large
    /// synthetic datasets (the paper evaluates all pairs on a 1 TB-RAM
    /// server; see DESIGN.md §3).
    pub fn nominee_universe(&self, candidate_users: Option<usize>) -> Vec<(UserId, ItemId)> {
        let mut users: Vec<UserId> = self.scenario.users().collect();
        users.sort_by_key(|u| std::cmp::Reverse(self.scenario.social().out_degree(*u)));
        let cap = candidate_users.unwrap_or(usize::MAX);
        let mut universe = Vec::new();
        let mut kept_users = 0usize;
        for &u in &users {
            if kept_users >= cap {
                break;
            }
            let before = universe.len();
            for x in self.scenario.items() {
                if self.costs.cost(u, x) <= self.budget {
                    universe.push((u, x));
                }
            }
            // Only users with at least one affordable item count toward the
            // candidate cap, so an expensive hub cannot crowd out the whole
            // universe under small budgets.
            if universe.len() > before {
                kept_users += 1;
            }
        }
        universe
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imdpp_diffusion::scenario::toy_scenario;
    use imdpp_diffusion::Seed;

    fn instance() -> ImdppInstance {
        let scenario = toy_scenario();
        let costs = CostModel::uniform(scenario.user_count(), scenario.item_count(), 1.0);
        ImdppInstance::new(scenario, costs, 3.0, 2).unwrap()
    }

    #[test]
    fn uniform_costs_apply_to_all_pairs() {
        let c = CostModel::uniform(3, 2, 2.0);
        assert_eq!(c.cost(UserId(2), ItemId(1)), 2.0);
    }

    #[test]
    fn degree_over_preference_costs_grow_with_degree() {
        let scenario = toy_scenario();
        let c = CostModel::degree_over_preference(&scenario, 1.0);
        // User 0 has out-degree 2, user 5 has out-degree 0.
        assert!(c.cost(UserId(0), ItemId(0)) > c.cost(UserId(5), ItemId(0)));
    }

    #[test]
    fn instance_validates_dimensions_and_ranges() {
        let scenario = toy_scenario();
        let bad_costs = CostModel::uniform(2, 2, 1.0);
        assert!(ImdppInstance::new(scenario.clone(), bad_costs, 5.0, 2).is_err());
        let costs = CostModel::uniform(scenario.user_count(), scenario.item_count(), 1.0);
        assert!(ImdppInstance::new(scenario.clone(), costs.clone(), -1.0, 2).is_err());
        assert!(ImdppInstance::new(scenario, costs, 5.0, 0).is_err());
    }

    #[test]
    fn feasibility_checks_budget_and_timing() {
        let inst = instance();
        let ok = SeedGroup::from_seeds(vec![
            Seed::new(UserId(0), ItemId(0), 1),
            Seed::new(UserId(1), ItemId(1), 2),
        ]);
        assert!(inst.is_feasible(&ok));
        let too_expensive = SeedGroup::from_seeds(vec![
            Seed::new(UserId(0), ItemId(0), 1),
            Seed::new(UserId(1), ItemId(1), 1),
            Seed::new(UserId(2), ItemId(2), 1),
            Seed::new(UserId(3), ItemId(3), 1),
        ]);
        assert!(!inst.is_feasible(&too_expensive));
        let too_late = SeedGroup::from_seeds(vec![Seed::new(UserId(0), ItemId(0), 5)]);
        assert!(!inst.is_feasible(&too_late));
    }

    #[test]
    fn total_cost_sums_costs() {
        let inst = instance();
        let g = SeedGroup::from_seeds(vec![
            Seed::new(UserId(0), ItemId(0), 1),
            Seed::new(UserId(1), ItemId(1), 1),
        ]);
        assert!((inst.total_cost(&g) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn nominee_universe_filters_by_cost() {
        let scenario = toy_scenario();
        let mut costs = CostModel::uniform(scenario.user_count(), scenario.item_count(), 1.0);
        costs.set_cost(UserId(0), ItemId(0), 100.0);
        let inst = ImdppInstance::new(scenario, costs, 3.0, 2).unwrap();
        let universe = inst.nominee_universe(None);
        assert!(!universe.contains(&(UserId(0), ItemId(0))));
        assert!(universe.contains(&(UserId(0), ItemId(1))));
        assert_eq!(universe.len(), 6 * 4 - 1);
    }

    #[test]
    fn nominee_universe_candidate_cap_keeps_high_degree_users() {
        let inst = instance();
        let universe = inst.nominee_universe(Some(2));
        let users: std::collections::HashSet<u32> = universe.iter().map(|(u, _)| u.0).collect();
        assert_eq!(users.len(), 2);
        // User 5 has out-degree 0 and must not be among the top-2.
        assert!(!users.contains(&5));
    }

    #[test]
    fn with_budget_and_promotions_produce_modified_copies() {
        let inst = instance();
        assert_eq!(inst.with_budget(10.0).budget(), 10.0);
        assert_eq!(inst.with_promotions(7).promotions(), 7);
        assert_eq!(inst.budget(), 3.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn cost_model_rejects_non_positive_costs() {
        let _ = CostModel::uniform(2, 2, 0.0);
    }
}
