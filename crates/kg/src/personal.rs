//! Dynamic personal perception: per-user meta-graph weightings and the
//! derived personal item networks.
//!
//! The paper captures each user's perception of item relationships with a
//! *personal item network* `G_PIN(u, ζ_t)`: the complementary relevance
//! `r_C(u, x, y, ζ_t)` and substitutable relevance `r_S(u, x, y, ζ_t)` are
//! personally-weighted combinations of the shared meta-graph relevance
//! scores `s(x, y | m)`, with weightings `W_meta(u, m, ζ_t)` that grow as
//! the user adopts items connected by instances of `m` (Fig. 1(c)–(d)).
//!
//! This module owns the weightings and the relevance / similarity queries;
//! the diffusion crate drives the update schedule.

use crate::metagraph::{MetaGraphId, RelationKind};
use crate::relevance::RelevanceModel;
use imdpp_graph::{ItemId, UserId};
use std::sync::Arc;

/// Lower bound kept on every meta-graph weighting so that no relationship
/// kind can be permanently "forgotten".
pub const MIN_WEIGHT: f64 = 0.01;

/// Per-user dynamic meta-graph weightings over a shared [`RelevanceModel`].
#[derive(Clone, Debug)]
pub struct PersonalPerception {
    model: Arc<RelevanceModel>,
    user_count: usize,
    /// Flat `user_count × model.len()` weight matrix.
    weights: Vec<f64>,
}

impl PersonalPerception {
    /// Creates perceptions for `user_count` users with every weighting set to
    /// `initial_weight`.
    pub fn uniform(model: Arc<RelevanceModel>, user_count: usize, initial_weight: f64) -> Self {
        assert!(
            (MIN_WEIGHT..=1.0).contains(&initial_weight),
            "initial weight must be in [{MIN_WEIGHT}, 1]"
        );
        let weights = vec![initial_weight; user_count * model.len()];
        PersonalPerception {
            model,
            user_count,
            weights,
        }
    }

    /// The shared relevance model.
    pub fn model(&self) -> &Arc<RelevanceModel> {
        &self.model
    }

    /// Number of users.
    pub fn user_count(&self) -> usize {
        self.user_count
    }

    /// Number of meta-graphs.
    pub fn metagraph_count(&self) -> usize {
        self.model.len()
    }

    #[inline]
    fn offset(&self, u: UserId) -> usize {
        u.index() * self.model.len()
    }

    /// The weighting `W_meta(u, m)`.
    #[inline]
    pub fn weight(&self, u: UserId, m: MetaGraphId) -> f64 {
        self.weights[self.offset(u) + m.index()]
    }

    /// Overwrites the weighting `W_meta(u, m)` (clamped to `[MIN_WEIGHT, 1]`).
    pub fn set_weight(&mut self, u: UserId, m: MetaGraphId, w: f64) {
        let off = self.offset(u);
        self.weights[off + m.index()] = w.clamp(MIN_WEIGHT, 1.0);
    }

    /// The full weight vector of a user.
    pub fn weight_vector(&self, u: UserId) -> &[f64] {
        let off = self.offset(u);
        &self.weights[off..off + self.model.len()]
    }

    /// Personal relevance of the given kind between two items in `u`'s
    /// perception: the weighting-scaled sum of the meta-graph scores,
    /// clamped into `[0, 1]`,
    ///
    /// ```text
    /// r(u, x, y) = min(1, Σ_m W(u, m) · s(x, y | m))    (m of `kind`)
    /// ```
    ///
    /// The weightings act as absolute significances (Fig. 1(c)–(d) of the
    /// paper): as a user's weighting on a meta-graph grows — or as more
    /// meta-graphs describe the relationship — the perceived relevance grows,
    /// which is exactly the behaviour the Fig. 13 sensitivity study relies
    /// on.
    ///
    /// Only the pair's non-zero scores are summed, in meta-graph order: a
    /// skipped term is `W · 0.0 = +0.0`, and adding it to the non-negative
    /// sum would leave every bit of the sum unchanged.
    pub fn relevance(&self, u: UserId, x: ItemId, y: ItemId, kind: RelationKind) -> f64 {
        if x == y {
            return 0.0;
        }
        let weights = self.weight_vector(u);
        let mut total = 0.0;
        for term in self.model.pair_terms(x, y) {
            if term.kind == kind {
                total += weights[term.metagraph.index()] * term.score;
            }
        }
        total.clamp(0.0, 1.0)
    }

    /// Complementary relevance `r_C(u, x, y)`.
    #[inline]
    pub fn complementary(&self, u: UserId, x: ItemId, y: ItemId) -> f64 {
        self.relevance(u, x, y, RelationKind::Complementary)
    }

    /// Substitutable relevance `r_S(u, x, y)`.
    #[inline]
    pub fn substitutable(&self, u: UserId, x: ItemId, y: ItemId) -> f64 {
        self.relevance(u, x, y, RelationKind::Substitutable)
    }

    /// Average relevance `r̄(x, y)` of a kind over a set of users (used by
    /// TMI and DRE; over *all* users when `users` covers everyone).
    pub fn average_relevance(
        &self,
        users: impl IntoIterator<Item = UserId>,
        x: ItemId,
        y: ItemId,
        kind: RelationKind,
    ) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for u in users {
            sum += self.relevance(u, x, y, kind);
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Updates `u`'s weightings after new adoptions (the paper's *relevance
    /// measurement* factor, Sec. V-A (1)).
    ///
    /// For every meta-graph `m`, the evidence is the total relevance
    /// `s(a, b | m)` over pairs of a newly adopted item `a` and any other
    /// item `b` the user has adopted; the weighting grows by
    /// `learning_rate · evidence`, clamped into `[MIN_WEIGHT, 1]`.  This
    /// mirrors Fig. 1(d): adopting iPhone + AirPods raises the weight of the
    /// meta-graphs that connect them.
    pub fn update_on_adoption(
        &mut self,
        u: UserId,
        newly_adopted: &[ItemId],
        all_adopted: &[ItemId],
        learning_rate: f64,
    ) {
        if newly_adopted.is_empty() || self.model.is_empty() {
            return;
        }
        // Only non-zero scores are added, each in pair order, so every
        // evidence sum is bit-identical to summing all meta-graphs.
        let mut evidence = vec![0.0f64; self.model.len()];
        for &a in newly_adopted {
            for &b in all_adopted {
                for term in self.model.pair_terms(a, b) {
                    evidence[term.metagraph.index()] += term.score;
                }
            }
        }
        let off = self.offset(u);
        for (idx, &e) in evidence.iter().enumerate() {
            if e > 0.0 {
                let w = self.weights[off + idx] + learning_rate * e;
                self.weights[off + idx] = w.clamp(MIN_WEIGHT, 1.0);
            }
        }
    }

    /// Cosine similarity of the weight vectors of two users, in `[0, 1]`.
    /// Used by the *influence learning* factor: users with similar
    /// perceptions influence each other more strongly.
    pub fn weighting_similarity(&self, u: UserId, v: UserId) -> f64 {
        let a = self.weight_vector(u);
        let b = self.weight_vector(v);
        let mut dot = 0.0;
        let mut na = 0.0;
        let mut nb = 0.0;
        for i in 0..a.len() {
            dot += a[i] * b[i];
            na += a[i] * a[i];
            nb += b[i] * b[i];
        }
        if na <= 0.0 || nb <= 0.0 {
            0.0
        } else {
            (dot / (na.sqrt() * nb.sqrt())).clamp(0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hin::figure1_knowledge_graph;
    use crate::metagraph::MetaGraph;

    fn perception(users: usize) -> PersonalPerception {
        let model = Arc::new(RelevanceModel::compute(
            &figure1_knowledge_graph(),
            MetaGraph::default_set(),
        ));
        PersonalPerception::uniform(model, users, 0.2)
    }

    #[test]
    fn uniform_initialisation_sets_all_weights() {
        let p = perception(3);
        assert_eq!(p.user_count(), 3);
        assert_eq!(p.metagraph_count(), 5);
        for m in 0..5 {
            assert_eq!(p.weight(UserId(1), MetaGraphId(m)), 0.2);
        }
    }

    #[test]
    fn relevance_is_the_weighted_sum_of_matrix_scores() {
        let p = perception(1);
        let model = p.model().clone();
        let rc = p.complementary(UserId(0), ItemId(0), ItemId(1));
        // With uniform weights 0.2, the relevance is 0.2 · Σ_m s(x, y | m_C).
        let expected: f64 = model
            .ids_of_kind(RelationKind::Complementary)
            .into_iter()
            .map(|id| 0.2 * model.matrix(id).score(ItemId(0), ItemId(1)))
            .sum();
        assert!((rc - expected.clamp(0.0, 1.0)).abs() < 1e-12);
        // Relevance grows when the user's weightings grow.
        let mut heavier = perception(1);
        heavier.set_weight(UserId(0), MetaGraphId(0), 1.0);
        assert!(heavier.complementary(UserId(0), ItemId(0), ItemId(1)) > rc);
    }

    #[test]
    fn relevance_bounds_and_diagonal() {
        let p = perception(1);
        for x in 0..4u32 {
            for y in 0..4u32 {
                let r = p.complementary(UserId(0), ItemId(x), ItemId(y));
                assert!((0.0..=1.0).contains(&r));
                if x == y {
                    assert_eq!(r, 0.0);
                }
            }
        }
    }

    #[test]
    fn adoption_update_raises_matching_weights() {
        let mut p = perception(2);
        let before = p.weight(UserId(0), MetaGraphId(0));
        // User 0 adopts iPhone and AirPods: shared-feature and same-brand
        // meta-graphs connect them, so their weights must grow.
        p.update_on_adoption(UserId(0), &[ItemId(1)], &[ItemId(0), ItemId(1)], 0.3);
        assert!(p.weight(UserId(0), MetaGraphId(0)) > before);
        assert!(p.weight(UserId(0), MetaGraphId(1)) > before);
        // The direct-link meta-graph has no iPhone–AirPods instance: unchanged.
        assert_eq!(p.weight(UserId(0), MetaGraphId(2)), before);
        // Other users are untouched.
        assert_eq!(p.weight(UserId(1), MetaGraphId(0)), before);
    }

    #[test]
    fn adoption_update_raises_relevance_to_third_items() {
        // Fig. 1(d): after adopting iPhone and AirPods the relevance between
        // iPhone and the wireless charger grows (shared-feature weight grew).
        let mut p = perception(1);
        let before = p.complementary(UserId(0), ItemId(0), ItemId(2));
        p.update_on_adoption(UserId(0), &[ItemId(1)], &[ItemId(0), ItemId(1)], 0.5);
        let after = p.complementary(UserId(0), ItemId(0), ItemId(2));
        assert!(
            after > before,
            "relevance should grow: before {before}, after {after}"
        );
    }

    #[test]
    fn weights_are_clamped_to_one() {
        let mut p = perception(1);
        for _ in 0..100 {
            p.update_on_adoption(UserId(0), &[ItemId(1)], &[ItemId(0), ItemId(1)], 1.0);
        }
        for m in 0..p.metagraph_count() {
            assert!(p.weight(UserId(0), MetaGraphId(m as u32)) <= 1.0);
        }
    }

    #[test]
    fn empty_adoption_is_a_no_op() {
        let mut p = perception(1);
        let before: Vec<f64> = p.weight_vector(UserId(0)).to_vec();
        p.update_on_adoption(UserId(0), &[], &[ItemId(0)], 0.5);
        assert_eq!(p.weight_vector(UserId(0)), &before[..]);
    }

    #[test]
    fn weighting_similarity_is_one_for_identical_vectors() {
        let p = perception(2);
        assert!((p.weighting_similarity(UserId(0), UserId(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighting_similarity_decreases_after_divergence() {
        let mut p = perception(2);
        p.set_weight(UserId(0), MetaGraphId(0), 1.0);
        p.set_weight(UserId(1), MetaGraphId(4), 1.0);
        let s = p.weighting_similarity(UserId(0), UserId(1));
        assert!(s < 1.0 && s > 0.0);
    }

    #[test]
    fn average_relevance_over_users() {
        let mut p = perception(2);
        p.update_on_adoption(UserId(0), &[ItemId(1)], &[ItemId(0), ItemId(1)], 0.5);
        let avg = p.average_relevance(
            vec![UserId(0), UserId(1)],
            ItemId(0),
            ItemId(1),
            RelationKind::Complementary,
        );
        let r0 = p.complementary(UserId(0), ItemId(0), ItemId(1));
        let r1 = p.complementary(UserId(1), ItemId(0), ItemId(1));
        assert!((avg - (r0 + r1) / 2.0).abs() < 1e-12);
    }
}
