//! Declarative description of a synthetic dataset.

use imdpp_diffusion::ImdppError;

/// The random-graph model used for the friendship topology.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SocialModel {
    /// Preferential attachment with the given number of links per new node
    /// (heavy-tailed degrees, the default for the Table II datasets).
    PreferentialAttachment {
        /// Edges attached by each arriving node.
        links_per_node: usize,
    },
    /// Watts–Strogatz small world (used for the dense course classes).
    SmallWorld {
        /// Even number of lattice neighbours.
        neighbours: usize,
        /// Rewiring probability.
        rewire: f64,
    },
    /// Erdős–Rényi with the given edge probability.
    Random {
        /// Edge probability.
        edge_probability: f64,
    },
}

/// Distribution of the item importances `w_x` (Table II reports the average).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ImportanceDistribution {
    /// Every item has the same importance.
    Uniform {
        /// The shared importance value.
        value: f64,
    },
    /// Log-normal-like prices (Douban / Yelp / Amazon use website prices);
    /// importances are `exp(mu + sigma · z)` with `z ~ N(0, 1)`, clamped to
    /// `[0.05, 20]`.
    LogNormal {
        /// Location parameter of the underlying normal.
        mu: f64,
        /// Scale parameter of the underlying normal.
        sigma: f64,
    },
    /// Uniformly random in `[lo, hi]` (Gowalla's importances are random in
    /// the paper because the website is offline).
    Range {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
}

/// Full synthetic dataset description.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetConfig {
    /// Human-readable dataset name.
    pub name: String,
    /// Number of users.
    pub users: usize,
    /// Number of items.
    pub items: usize,
    /// Whether friendships are directed (Amazon+Pokec) or undirected.
    pub directed_friendships: bool,
    /// Friendship topology model.
    pub social_model: SocialModel,
    /// Target average initial influence strength (Table II row).
    pub avg_influence_strength: f64,
    /// Item importance distribution (Table II's "avg. item importance").
    pub importance: ImportanceDistribution,
    /// Number of feature nodes in the KG.
    pub kg_features: usize,
    /// Number of brand nodes in the KG.
    pub kg_brands: usize,
    /// Number of category nodes in the KG.
    pub kg_categories: usize,
    /// Number of keyword nodes in the KG.
    pub kg_keywords: usize,
    /// Average number of features attached to each item.
    pub features_per_item: usize,
    /// Average number of keywords attached to each item.
    pub keywords_per_item: usize,
    /// Fraction of item pairs receiving an explicit `RelatedTo` fact
    /// ("also bought" style edges).
    pub related_pair_fraction: f64,
    /// Range of the initial user preferences `P_pref(u, x, 0)`.
    pub base_preference_range: (f64, f64),
    /// Scale of the hiring-cost model (`c ∝ scale · degree / preference`).
    pub cost_scale: f64,
    /// Uniform initial meta-graph weighting.
    pub initial_metagraph_weight: f64,
    /// Random seed controlling every generated component.
    pub seed: u64,
}

impl DatasetConfig {
    /// Basic validation of ranges and sizes.
    pub fn validate(&self) -> Result<(), ImdppError> {
        if self.users == 0 || self.items == 0 {
            return Err(ImdppError::invalid("users and items must be positive"));
        }
        if !(0.0..=1.0).contains(&self.avg_influence_strength) {
            return Err(ImdppError::OutOfRange {
                name: "avg_influence_strength",
                value: self.avg_influence_strength,
                min: 0.0,
                max: 1.0,
            });
        }
        let (lo, hi) = self.base_preference_range;
        if !(0.0..=1.0).contains(&lo) || !(0.0..=1.0).contains(&hi) || lo > hi {
            return Err(ImdppError::invalid(
                "base_preference_range must be a sub-range of [0, 1]",
            ));
        }
        if !(0.0..=1.0).contains(&self.related_pair_fraction) {
            return Err(ImdppError::OutOfRange {
                name: "related_pair_fraction",
                value: self.related_pair_fraction,
                min: 0.0,
                max: 1.0,
            });
        }
        if self.cost_scale <= 0.0 {
            return Err(ImdppError::invalid("cost_scale must be positive"));
        }
        Ok(())
    }

    /// Returns a copy with a different scale (users and items multiplied by
    /// `factor`, with minimums of 20 users and 5 items).  Used by the
    /// experiment harness's `--scale` flag.
    pub fn scaled(&self, factor: f64) -> DatasetConfig {
        let mut c = self.clone();
        // Entity pools that are absent (0) in the preset stay absent so that
        // the KG keeps its node-type mix at any scale.
        let scale_pool = |count: usize, min: usize| -> usize {
            if count == 0 {
                0
            } else {
                ((count as f64 * factor).round() as usize).max(min)
            }
        };
        c.users = ((self.users as f64 * factor).round() as usize).max(20);
        c.items = ((self.items as f64 * factor).round() as usize).max(5);
        c.kg_features = scale_pool(self.kg_features, 3);
        c.kg_brands = scale_pool(self.kg_brands, 2);
        c.kg_categories = scale_pool(self.kg_categories, 2);
        c.kg_keywords = scale_pool(self.kg_keywords, 2);
        c
    }
}

#[cfg(test)]
mod tests {
    use crate::catalog::DatasetKind;

    #[test]
    fn presets_validate() {
        for kind in DatasetKind::all() {
            kind.config().validate().unwrap();
        }
    }

    #[test]
    fn invalid_ranges_are_rejected() {
        let mut c = DatasetKind::YelpSmall.config();
        c.avg_influence_strength = 1.5;
        assert!(c.validate().is_err());
        let mut c = DatasetKind::YelpSmall.config();
        c.base_preference_range = (0.9, 0.1);
        assert!(c.validate().is_err());
        let mut c = DatasetKind::YelpSmall.config();
        c.users = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn scaling_preserves_minimums() {
        let c = DatasetKind::AmazonTiny.config().scaled(0.001);
        assert!(c.users >= 20);
        assert!(c.items >= 5);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn scaling_up_multiplies_sizes() {
        let base = DatasetKind::YelpSmall.config();
        let big = base.scaled(2.0);
        assert_eq!(big.users, base.users * 2);
        assert_eq!(big.items, base.items * 2);
    }
}
