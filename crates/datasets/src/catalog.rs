//! Presets mirroring the shape of the Table II datasets at reduced scale.
//!
//! | Preset        | Paper dataset | Users (paper → here) | Items (paper → here) | Friendships | Avg. strength | Avg. importance |
//! |---------------|---------------|----------------------|----------------------|-------------|---------------|-----------------|
//! | `DoubanSmall` | Douban        | 5.5 M → 1 500        | 2.1 M → 60           | undirected  | 0.011         | ≈ 2.1           |
//! | `GowallaSmall`| Gowalla       | 407 K → 1 000        | 2.8 M → 50           | undirected  | 0.092         | ≈ 0.5           |
//! | `YelpSmall`   | Yelp          | 17 K → 800           | 22 K → 40            | undirected  | 0.121         | ≈ 1.6           |
//! | `AmazonSmall` | Amazon+Pokec  | 1.6 M → 1 200        | 20 K → 50            | directed    | 0.050         | ≈ 1.8           |
//! | `AmazonTiny`  | 100-user Amazon sample of Fig. 8 | 100 | 8 | directed | 0.050 | ≈ 1.8 |
//!
//! The node/edge *type* counts of each KG follow Table II: Douban and
//! Gowalla have 3 node/edge types, Yelp and Amazon have 6.

use crate::config::{DatasetConfig, ImportanceDistribution, SocialModel};

/// The available dataset presets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Scaled-down Douban-shaped dataset.
    DoubanSmall,
    /// Scaled-down Gowalla-shaped dataset.
    GowallaSmall,
    /// Scaled-down Yelp-shaped dataset.
    YelpSmall,
    /// Scaled-down Amazon(+Pokec)-shaped dataset.
    AmazonSmall,
    /// The 100-user Amazon sample used for the comparison against OPT
    /// (Fig. 8).
    AmazonTiny,
}

impl DatasetKind {
    /// All presets, in the order the paper lists them.
    pub fn all() -> [DatasetKind; 5] {
        [
            DatasetKind::DoubanSmall,
            DatasetKind::GowallaSmall,
            DatasetKind::YelpSmall,
            DatasetKind::AmazonSmall,
            DatasetKind::AmazonTiny,
        ]
    }

    /// The four "large" datasets of Figs. 9–14 (everything except the
    /// 100-user sample).
    pub fn large() -> [DatasetKind; 4] {
        [
            DatasetKind::DoubanSmall,
            DatasetKind::GowallaSmall,
            DatasetKind::YelpSmall,
            DatasetKind::AmazonSmall,
        ]
    }

    /// Short name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::DoubanSmall => "douban",
            DatasetKind::GowallaSmall => "gowalla",
            DatasetKind::YelpSmall => "yelp",
            DatasetKind::AmazonSmall => "amazon",
            DatasetKind::AmazonTiny => "amazon-tiny",
        }
    }

    /// The dataset configuration of the preset.
    pub fn config(&self) -> DatasetConfig {
        match self {
            DatasetKind::DoubanSmall => DatasetConfig {
                name: "douban".to_string(),
                users: 1500,
                items: 60,
                directed_friendships: false,
                social_model: SocialModel::PreferentialAttachment { links_per_node: 8 },
                avg_influence_strength: 0.011,
                importance: ImportanceDistribution::LogNormal {
                    mu: 0.55,
                    sigma: 0.6,
                },
                kg_features: 0,
                kg_brands: 0,
                kg_categories: 12,
                kg_keywords: 40,
                features_per_item: 0,
                keywords_per_item: 4,
                related_pair_fraction: 0.03,
                base_preference_range: (0.05, 0.4),
                cost_scale: 0.3,
                initial_metagraph_weight: 0.2,
                seed: 0xD0BA,
            },
            DatasetKind::GowallaSmall => DatasetConfig {
                name: "gowalla".to_string(),
                users: 1000,
                items: 50,
                directed_friendships: false,
                social_model: SocialModel::PreferentialAttachment { links_per_node: 4 },
                avg_influence_strength: 0.092,
                importance: ImportanceDistribution::Range { lo: 0.1, hi: 0.9 },
                kg_features: 0,
                kg_brands: 0,
                kg_categories: 10,
                kg_keywords: 30,
                features_per_item: 0,
                keywords_per_item: 3,
                related_pair_fraction: 0.04,
                base_preference_range: (0.05, 0.45),
                cost_scale: 0.4,
                initial_metagraph_weight: 0.2,
                seed: 0x60A11A,
            },
            DatasetKind::YelpSmall => DatasetConfig {
                name: "yelp".to_string(),
                users: 800,
                items: 40,
                directed_friendships: false,
                social_model: SocialModel::PreferentialAttachment { links_per_node: 5 },
                avg_influence_strength: 0.121,
                importance: ImportanceDistribution::LogNormal {
                    mu: 0.3,
                    sigma: 0.5,
                },
                kg_features: 25,
                kg_brands: 10,
                kg_categories: 8,
                kg_keywords: 20,
                features_per_item: 3,
                keywords_per_item: 2,
                related_pair_fraction: 0.05,
                base_preference_range: (0.08, 0.5),
                cost_scale: 0.5,
                initial_metagraph_weight: 0.2,
                seed: 0x7E17,
            },
            DatasetKind::AmazonSmall => DatasetConfig {
                name: "amazon".to_string(),
                users: 1200,
                items: 50,
                directed_friendships: true,
                social_model: SocialModel::PreferentialAttachment { links_per_node: 6 },
                avg_influence_strength: 0.050,
                importance: ImportanceDistribution::LogNormal {
                    mu: 0.4,
                    sigma: 0.6,
                },
                kg_features: 30,
                kg_brands: 12,
                kg_categories: 10,
                kg_keywords: 25,
                features_per_item: 3,
                keywords_per_item: 2,
                related_pair_fraction: 0.05,
                base_preference_range: (0.05, 0.4),
                cost_scale: 0.4,
                initial_metagraph_weight: 0.2,
                seed: 0xA3A2,
            },
            DatasetKind::AmazonTiny => DatasetConfig {
                name: "amazon-tiny".to_string(),
                users: 100,
                items: 8,
                directed_friendships: true,
                social_model: SocialModel::PreferentialAttachment { links_per_node: 3 },
                avg_influence_strength: 0.2,
                importance: ImportanceDistribution::LogNormal {
                    mu: 0.4,
                    sigma: 0.5,
                },
                kg_features: 8,
                kg_brands: 3,
                kg_categories: 3,
                kg_keywords: 6,
                features_per_item: 2,
                keywords_per_item: 1,
                related_pair_fraction: 0.15,
                base_preference_range: (0.1, 0.6),
                cost_scale: 1.3,
                initial_metagraph_weight: 0.2,
                seed: 0xA3A27,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_have_distinct_names() {
        let names: std::collections::HashSet<&str> =
            DatasetKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn large_excludes_the_tiny_sample() {
        assert!(!DatasetKind::large().contains(&DatasetKind::AmazonTiny));
    }

    #[test]
    fn only_amazon_has_directed_friendships() {
        for kind in DatasetKind::all() {
            let directed = kind.config().directed_friendships;
            match kind {
                DatasetKind::AmazonSmall | DatasetKind::AmazonTiny => assert!(directed),
                _ => assert!(!directed),
            }
        }
    }

    #[test]
    fn douban_and_gowalla_have_three_node_types_worth_of_kg() {
        // Douban / Gowalla KGs use items + categories + keywords (3 types).
        let c = DatasetKind::DoubanSmall.config();
        assert_eq!(c.kg_features, 0);
        assert_eq!(c.kg_brands, 0);
        assert!(c.kg_categories > 0 && c.kg_keywords > 0);
        // Yelp / Amazon add features and brands (6 types total).
        let c = DatasetKind::YelpSmall.config();
        assert!(c.kg_features > 0 && c.kg_brands > 0);
    }

    #[test]
    fn influence_strengths_follow_table_two_ordering() {
        // Yelp > Gowalla > Amazon > Douban in Table II.
        let s = |k: DatasetKind| k.config().avg_influence_strength;
        assert!(s(DatasetKind::YelpSmall) > s(DatasetKind::GowallaSmall));
        assert!(s(DatasetKind::GowallaSmall) > s(DatasetKind::AmazonSmall));
        assert!(s(DatasetKind::AmazonSmall) > s(DatasetKind::DoubanSmall));
    }
}
