//! Shared configuration and the common algorithm interface.

use imdpp_core::{ImdppInstance, SeedGroup};

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
