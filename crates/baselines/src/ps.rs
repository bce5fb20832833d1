//! PS (after Teng et al., "Revenue maximization on the multi-grade product"
//! \[35\]).
//!
//! Behavioural description used for the re-implementation: PS "only
//! estimates the influence of a seed alone and cannot utilize the impact of
//! items from other promotions to find seeds"; it scores every `(user,
//! item)` pair with a *path-based* estimate (maximum-influence paths from
//! the user weighted by the reached users' preferences and the item's
//! importance), then selects pairs by a degree-discount style rule that
//! down-weights users already covered by earlier picks.  It never re-runs
//! Monte-Carlo marginals, which makes it fast but inaccurate, and it is
//! "less sensitive to b" because of the discounting (Sec. VI-B).

use crate::common::{Algorithm, BaselineConfig};
use crate::crgreedy::cr_greedy_timing;
use imdpp_core::{ImdppInstance, ItemId, SeedGroup, UserId};
use imdpp_graph::paths::max_influence_paths;
use std::collections::HashMap;

/// The PS baseline.
#[derive(Clone, Debug, Default)]
pub struct PathScore {
    /// Shared baseline configuration.
    pub config: BaselineConfig,
}

impl PathScore {
    /// Creates a PS runner.
    pub fn new(config: BaselineConfig) -> Self {
        PathScore { config }
    }

    /// Path-based influence score of seeding `(u, x)`: the sum over users `v`
    /// of the maximum-influence-path probability from `u` to `v`, times `v`'s
    /// initial preference for `x`, times the item importance.
    fn path_score(
        instance: &ImdppInstance,
        u: UserId,
        x: ItemId,
        reach_cache: &mut HashMap<u32, Vec<f64>>,
    ) -> f64 {
        let scenario = instance.scenario();
        let reach = reach_cache.entry(u.0).or_insert_with(|| {
            let paths = max_influence_paths(scenario.social().graph(), &[u]);
            scenario.users().map(|v| paths.probability(v)).collect()
        });
        let w = scenario.catalog().importance(x);
        scenario
            .users()
            .map(|v| reach[v.index()] * scenario.base_preference(v, x))
            .sum::<f64>()
            * w
    }
}

impl Algorithm for PathScore {
    fn name(&self) -> &'static str {
        "PS"
    }

    fn select(&self, instance: &ImdppInstance) -> SeedGroup {
        let users = crate::common::candidate_users(instance, self.config.candidate_users);
        let scenario = instance.scenario();
        let mut reach_cache: HashMap<u32, Vec<f64>> = HashMap::new();

        // Score every affordable pair once.
        let mut scored: Vec<((UserId, ItemId), f64)> = Vec::new();
        for &u in &users {
            for x in scenario.items() {
                if instance.cost(u, x) > instance.budget() {
                    continue;
                }
                let s = Self::path_score(instance, u, x, &mut reach_cache);
                scored.push(((u, x), s));
            }
        }

        // Degree-discount style selection: coverage already claimed by chosen
        // seeds discounts later scores.
        let mut covered = vec![0.0f64; scenario.user_count()];
        let mut selected: Vec<(UserId, ItemId)> = Vec::new();
        let mut spent = 0.0;
        while !scored.is_empty() {
            let mut best: Option<(usize, f64)> = None;
            for (idx, &((u, x), base)) in scored.iter().enumerate() {
                if instance.cost(u, x) > instance.budget() - spent {
                    continue;
                }
                let reach = &reach_cache[&u.0];
                let discount: f64 = scenario
                    .users()
                    .map(|v| reach[v.index()] * covered[v.index()] * scenario.base_preference(v, x))
                    .sum();
                let score = base - discount * scenario.catalog().importance(x);
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((idx, score));
                }
            }
            match best {
                Some((idx, score)) if score > 0.0 => {
                    let ((u, x), _) = scored.remove(idx);
                    spent += instance.cost(u, x);
                    let reach = reach_cache[&u.0].clone();
                    for v in scenario.users() {
                        covered[v.index()] = (covered[v.index()] + reach[v.index()]).min(1.0);
                    }
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
    fn ps_is_feasible_and_nonempty() {
        let inst = instance(3.0, 2);
        let seeds = PathScore::new(BaselineConfig::fast()).select(&inst);
        assert!(inst.is_feasible(&seeds));
        assert!(!seeds.is_empty());
    }

    #[test]
    fn ps_prefers_connected_users_over_isolated_ones() {
        let inst = instance(1.0, 1);
        let seeds = PathScore::new(BaselineConfig::fast()).select(&inst);
        assert_eq!(seeds.len(), 1);
        // User 5 has no out-edges: its path score is limited to itself, so a
        // connected user must win.
        assert_ne!(seeds.users()[0], UserId(5));
    }

    #[test]
    fn ps_prefers_important_items() {
        let inst = instance(1.0, 1);
        let seeds = PathScore::new(BaselineConfig::fast()).select(&inst);
        // iPhone (importance 1.0) dominates cable (0.3) for the same user.
        assert_eq!(seeds.items(), vec![ItemId(0)]);
    }

    #[test]
    fn ps_is_deterministic() {
        let inst = instance(3.0, 2);
        let a = PathScore::new(BaselineConfig::fast()).select(&inst);
        let b = PathScore::new(BaselineConfig::fast()).select(&inst);
        assert_eq!(a, b);
    }
}
