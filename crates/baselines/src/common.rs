//! Shared configuration, candidate users and the common algorithm interface.

use imdpp_core::{ImdppInstance, SeedGroup, UserId};

/// Configuration shared by all baseline algorithms.
#[derive(Clone, Copy, Debug)]
pub struct BaselineConfig {
    /// Monte-Carlo samples per spread estimation.
    pub mc_samples: usize,
    /// Base random seed (estimates are deterministic per seed).
    pub base_seed: u64,
    /// Restrict candidate seed users to the that-many highest out-degree
    /// users (`None` = all users).
    pub candidate_users: Option<usize>,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            mc_samples: 30,
            base_seed: 0xBA5E,
            candidate_users: Some(64),
        }
    }
}

impl BaselineConfig {
    /// A cheaper configuration for unit tests.
    pub fn fast() -> Self {
        BaselineConfig {
            mc_samples: 8,
            candidate_users: Some(16),
            ..Self::default()
        }
    }
}

/// Candidate seed users of an instance, optionally restricted to the
/// highest-out-degree users.  Only users with at least one affordable item
/// count toward the cap, so expensive hubs cannot crowd out every affordable
/// candidate under small budgets.
pub fn candidate_users(instance: &ImdppInstance, cap: Option<usize>) -> Vec<UserId> {
    let mut users: Vec<UserId> = instance.scenario().users().collect();
    users.sort_by_key(|u| std::cmp::Reverse(instance.scenario().social().out_degree(*u)));
    let cap = cap.unwrap_or(usize::MAX);
    let mut kept = Vec::new();
    for u in users {
        if kept.len() >= cap {
            break;
        }
        let affordable = instance
            .scenario()
            .items()
            .any(|x| instance.cost(u, x) <= instance.budget());
        if affordable || cap == usize::MAX {
            kept.push(u);
        }
    }
    kept
}

/// The common interface of every seed-selection algorithm in this suite
/// (Dysim, the baselines and OPT), used by the experiment harness.
pub trait Algorithm {
    /// Human-readable name used in experiment output.
    fn name(&self) -> &'static str;
    /// Selects a feasible seed group for the instance.
    fn select(&self, instance: &ImdppInstance) -> SeedGroup;
}

#[cfg(test)]
mod tests {
    use super::*;
    use imdpp_core::CostModel;
    use imdpp_diffusion::scenario::toy_scenario;

    #[test]
    fn candidate_users_are_sorted_by_degree() {
        let scenario = toy_scenario();
        let costs = CostModel::uniform(scenario.user_count(), scenario.item_count(), 1.0);
        let inst = ImdppInstance::new(scenario, costs, 3.0, 1).unwrap();
        let users = candidate_users(&inst, Some(3));
        assert_eq!(users.len(), 3);
        // User 5 has out-degree 0 and cannot be in the top 3.
        assert!(!users.contains(&UserId(5)));
    }

    #[test]
    fn default_config_is_sensible() {
        let c = BaselineConfig::default();
        assert!(c.mc_samples >= 1);
        assert!(c.candidate_users.unwrap() > 0);
    }

    #[test]
    fn fast_config_uses_fewer_samples() {
        assert!(BaselineConfig::fast().mc_samples < BaselineConfig::default().mc_samples);
    }
}
