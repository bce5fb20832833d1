//! The four dynamic factors of the IMDPP diffusion process (Sec. V-A).
//!
//! | Paper factor              | Function here                        |
//! |---------------------------|--------------------------------------|
//! | (1) relevance measurement | [`crate::state::DiffusionState::record_adoptions`] (delegates to [`imdpp_kg::PersonalPerception::update_on_adoption`]) |
//! | (2) preference estimation | [`DynamicsConfig::preference`]       |
//! | (3) influence learning    | [`DynamicsConfig::influence`]        |
//! | (4) item associations     | [`DynamicsConfig::extra_adoption_probability`] |
//!
//! All four are closed-form, monotone stand-ins for the learned models the
//! paper plugs in (SemRec, RSC/RCF, DeepInf/DANSER, CKE): adopting
//! complementary items raises preferences and adopting similar items raises
//! influence strengths, exactly the qualitative behaviour the algorithm
//! depends on.  See DESIGN.md §3 for the substitution rationale.

use crate::error::ImdppError;
use imdpp_graph::{ItemId, UserId};
use imdpp_kg::PersonalPerception;

/// Parameters of the dynamic factors.
#[derive(Clone, Copy, Debug)]
pub struct DynamicsConfig {
    /// Learning rate of the meta-graph weighting update (relevance
    /// measurement).
    pub weight_learning_rate: f64,
    /// Gain applied to complementary relevance when estimating preferences:
    /// adopting a complement of `y` raises `P_pref(·, y)` by `gain · r_C`.
    pub preference_gain: f64,
    /// Loss applied to substitutable relevance when estimating preferences:
    /// adopting a substitute of `y` lowers `P_pref(·, y)` by `loss · r_S`.
    pub preference_loss: f64,
    /// Gain applied to user similarity when learning influence strengths.
    pub influence_gain: f64,
    /// Mixing factor between adoption-set similarity (Jaccard) and
    /// perception similarity (weighting cosine) in influence learning;
    /// 1.0 = only adoption similarity.
    pub influence_adoption_mix: f64,
    /// Scale of the extra-adoption probability (item associations).
    pub extra_adoption_scale: f64,
    /// Hard floor applied to dynamic preferences (`P_minpref` in Theorem 5).
    pub min_preference: f64,
    /// Hard floor applied to dynamic influence strengths (`P_minact`).
    pub min_influence: f64,
    /// When `true` the dynamic updates are disabled entirely: preferences,
    /// influence strengths and perceptions stay at their initial values.
    /// This realises the "static" restricted problem used by Lemma 1 /
    /// Theorems 2–4 and by several baselines.
    pub frozen: bool,
}

impl Default for DynamicsConfig {
    /// Default parameters.  The gains are deliberately moderate: the dynamic
    /// boosts must stay comparable to the *initial* influence strengths of
    /// Table II (0.01–0.12), otherwise every cascade saturates the network
    /// and the algorithms become indistinguishable.
    fn default() -> Self {
        DynamicsConfig {
            weight_learning_rate: 0.2,
            preference_gain: 0.3,
            preference_loss: 0.5,
            influence_gain: 0.1,
            influence_adoption_mix: 0.5,
            extra_adoption_scale: 0.25,
            min_preference: 0.0,
            min_influence: 0.0,
            frozen: false,
        }
    }
}

impl DynamicsConfig {
    /// A configuration with all dynamics switched off (static `P_pref`,
    /// `P_act`, `P_ext`), matching the restricted problem of Lemma 1.
    pub fn frozen() -> Self {
        DynamicsConfig {
            frozen: true,
            ..Self::default()
        }
    }

    /// Validates that every parameter lies in a sensible range.
    pub fn validate(&self) -> Result<(), ImdppError> {
        let checks = [
            ("weight_learning_rate", self.weight_learning_rate, 0.0, 10.0),
            ("preference_gain", self.preference_gain, 0.0, 10.0),
            ("preference_loss", self.preference_loss, 0.0, 10.0),
            ("influence_gain", self.influence_gain, 0.0, 1.0),
            (
                "influence_adoption_mix",
                self.influence_adoption_mix,
                0.0,
                1.0,
            ),
            ("extra_adoption_scale", self.extra_adoption_scale, 0.0, 1.0),
            ("min_preference", self.min_preference, 0.0, 1.0),
            ("min_influence", self.min_influence, 0.0, 1.0),
        ];
        for (name, v, lo, hi) in checks {
            if !v.is_finite() || v < lo || v > hi {
                return Err(ImdppError::OutOfRange {
                    name,
                    value: v,
                    min: lo,
                    max: hi,
                });
            }
        }
        Ok(())
    }

    /// (2) Preference estimation: the dynamic preference `P_pref(u, y)` given
    /// the base preference, the items `u` has adopted and `u`'s current
    /// personal item network.
    ///
    /// ```text
    /// P_pref = clamp(base + Σ_{x ∈ A(u)} gain·r_C(u,x,y) − loss·r_S(u,x,y))
    /// ```
    pub fn preference(
        &self,
        perception: &PersonalPerception,
        base_preference: f64,
        user: UserId,
        adopted: &[ItemId],
        item: ItemId,
    ) -> f64 {
        let base = base_preference.clamp(0.0, 1.0);
        if self.frozen {
            return base.max(self.min_preference);
        }
        let mut delta = 0.0;
        for &x in adopted {
            if x == item {
                continue;
            }
            delta += self.preference_gain * perception.complementary(user, x, item);
            delta -= self.preference_loss * perception.substitutable(user, x, item);
        }
        (base + delta).clamp(self.min_preference, 1.0)
    }

    /// (3) Influence learning: the dynamic influence strength
    /// `P_act(u, v)` given the base strength and the similarity of the two
    /// users' adopted items and perceptions.
    ///
    /// ```text
    /// sim   = mix · Jaccard(A(u), A(v)) + (1 − mix) · cos(W(u), W(v))
    /// P_act = clamp(base + influence_gain · sim · adopted_anything)
    /// ```
    ///
    /// The similarity contribution only kicks in once at least one of the two
    /// users has adopted something, so that the initial strengths of the
    /// dataset are reproduced exactly at `ζ = 0`.
    pub fn influence(
        &self,
        perception: &PersonalPerception,
        base_strength: f64,
        u: UserId,
        v: UserId,
        adopted_u: &[ItemId],
        adopted_v: &[ItemId],
    ) -> f64 {
        let base = base_strength.clamp(0.0, 1.0);
        if self.frozen {
            return base.max(self.min_influence);
        }
        if adopted_u.is_empty() && adopted_v.is_empty() {
            return base.max(self.min_influence);
        }
        let jaccard = jaccard_similarity(adopted_u, adopted_v);
        let cos = perception.weighting_similarity(u, v);
        let sim = self.influence_adoption_mix * jaccard + (1.0 - self.influence_adoption_mix) * cos;
        (base + self.influence_gain * sim).clamp(self.min_influence, 1.0)
    }

    /// (4) Item associations: the probability `P_ext(u, u', x, y)` that `u`,
    /// while being promoted `x` by `u'`, additionally adopts the relevant
    /// item `y`.
    ///
    /// ```text
    /// P_ext = scale · P_act(u', u) · P_pref(u, x) · r_C(u, x, y)
    /// ```
    pub fn extra_adoption_probability(
        &self,
        perception: &PersonalPerception,
        influence_strength: f64,
        preference_for_promoted: f64,
        user: UserId,
        promoted: ItemId,
        relevant: ItemId,
    ) -> f64 {
        if self.frozen {
            return 0.0;
        }
        let r_c = perception.complementary(user, promoted, relevant);
        (self.extra_adoption_scale
            * influence_strength.clamp(0.0, 1.0)
            * preference_for_promoted.clamp(0.0, 1.0)
            * r_c)
            .clamp(0.0, 1.0)
    }
}

/// Jaccard similarity of two item sets; `0.0` when both are empty.
///
/// Both slices must be sorted and free of duplicates — the adoption rows
/// [`crate::DiffusionState`] keeps are — so the intersection is counted by
/// one merge, without allocating.
pub fn jaccard_similarity(a: &[ItemId], b: &[ItemId]) -> f64 {
    debug_assert!(
        a.windows(2).all(|w| w[0] < w[1]) && b.windows(2).all(|w| w[0] < w[1]),
        "jaccard_similarity needs sorted, deduplicated item sets"
    );
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let (mut i, mut j, mut inter) = (0, 0, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use imdpp_kg::{hin::figure1_knowledge_graph, MetaGraph, RelevanceModel};
    use std::sync::Arc;

    fn perception() -> PersonalPerception {
        let model = Arc::new(RelevanceModel::compute(
            &figure1_knowledge_graph(),
            MetaGraph::default_set(),
        ));
        PersonalPerception::uniform(model, 2, 0.2)
    }

    #[test]
    fn default_config_is_valid() {
        assert!(DynamicsConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let cfg = DynamicsConfig {
            influence_gain: 3.0,
            ..DynamicsConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn preference_grows_with_complementary_adoptions() {
        let p = perception();
        let cfg = DynamicsConfig::default();
        // Preference for the wireless charger (item 2) with and without having
        // adopted the iPhone (item 0), which is complementary to it.
        let before = cfg.preference(&p, 0.3, UserId(0), &[], ItemId(2));
        let after = cfg.preference(&p, 0.3, UserId(0), &[ItemId(0)], ItemId(2));
        assert!(after > before);
        assert!(after <= 1.0);
    }

    #[test]
    fn preference_is_clamped_and_respects_floor() {
        let p = perception();
        let cfg = DynamicsConfig {
            min_preference: 0.1,
            preference_loss: 10.0,
            ..DynamicsConfig::default()
        };
        // Even with a huge substitutable penalty the preference cannot fall
        // below the configured floor.
        let v = cfg.preference(&p, 0.0, UserId(0), &[ItemId(0)], ItemId(1));
        assert!(v >= 0.1);
    }

    #[test]
    fn frozen_config_returns_base_values() {
        let p = perception();
        let cfg = DynamicsConfig::frozen();
        assert_eq!(
            cfg.preference(&p, 0.4, UserId(0), &[ItemId(0)], ItemId(2)),
            0.4
        );
        assert_eq!(
            cfg.influence(&p, 0.2, UserId(0), UserId(1), &[ItemId(0)], &[ItemId(0)]),
            0.2
        );
        assert_eq!(
            cfg.extra_adoption_probability(&p, 0.9, 0.9, UserId(0), ItemId(0), ItemId(1)),
            0.0
        );
    }

    #[test]
    fn influence_grows_with_shared_adoptions() {
        let p = perception();
        let cfg = DynamicsConfig::default();
        let before = cfg.influence(&p, 0.2, UserId(0), UserId(1), &[], &[]);
        let after = cfg.influence(
            &p,
            0.2,
            UserId(0),
            UserId(1),
            &[ItemId(0), ItemId(1)],
            &[ItemId(0), ItemId(1)],
        );
        assert_eq!(before, 0.2);
        assert!(after > before);
        assert!(after <= 1.0);
    }

    #[test]
    fn influence_gain_scales_with_similarity() {
        let p = perception();
        let cfg = DynamicsConfig::default();
        let same = cfg.influence(&p, 0.2, UserId(0), UserId(1), &[ItemId(0)], &[ItemId(0)]);
        let disjoint = cfg.influence(&p, 0.2, UserId(0), UserId(1), &[ItemId(0)], &[ItemId(3)]);
        assert!(same > disjoint);
    }

    #[test]
    fn extra_adoption_probability_follows_relevance() {
        let p = perception();
        let cfg = DynamicsConfig::default();
        // AirPods (1) is complementary to iPhone (0); cable (3) is not
        // complementary to AirPods in the Fig. 1 KG.
        let related = cfg.extra_adoption_probability(&p, 0.8, 0.9, UserId(0), ItemId(0), ItemId(1));
        let unrelated =
            cfg.extra_adoption_probability(&p, 0.8, 0.9, UserId(0), ItemId(1), ItemId(3));
        assert!(related > 0.0);
        assert_eq!(unrelated, 0.0);
        assert!(related <= 1.0);
    }

    #[test]
    fn merged_jaccard_matches_a_hash_set_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashSet;
        let mut rng = StdRng::seed_from_u64(0x1ACC);
        let random_set = |rng: &mut StdRng| -> Vec<ItemId> {
            let len = rng.gen_range(0..12usize);
            let mut items: Vec<ItemId> =
                (0..len).map(|_| ItemId(rng.gen_range(0..16u32))).collect();
            items.sort_unstable();
            items.dedup();
            items
        };
        for _ in 0..500 {
            let a = random_set(&mut rng);
            let b = random_set(&mut rng);
            let sa: HashSet<ItemId> = a.iter().copied().collect();
            let sb: HashSet<ItemId> = b.iter().copied().collect();
            let inter = a.iter().filter(|x| sb.contains(x)).count();
            let union = sa.len() + sb.len() - inter;
            let reference = if union == 0 {
                0.0
            } else {
                inter as f64 / union as f64
            };
            assert_eq!(jaccard_similarity(&a, &b).to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn jaccard_edge_cases() {
        assert_eq!(jaccard_similarity(&[], &[]), 0.0);
        assert_eq!(jaccard_similarity(&[ItemId(0)], &[]), 0.0);
        assert_eq!(jaccard_similarity(&[ItemId(0)], &[ItemId(0)]), 1.0);
        assert!((jaccard_similarity(&[ItemId(0), ItemId(1)], &[ItemId(1)]) - 0.5).abs() < 1e-12);
    }
}
