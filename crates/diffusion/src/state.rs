//! Per-simulation mutable state: adoption sets and the evolving perceptions.
//!
//! Preferences, influence strengths and extra-adoption probabilities are
//! *derived* quantities (functions of the adoption sets, the perceptions and
//! the scenario's base values) exactly as in Fig. 3 of the paper, so the
//! state only stores the two primary quantities and recomputes the rest on
//! demand.  Both change only in [`DiffusionState::record_adoptions`], at the
//! end of a diffusion step, so a derived value read during a step stays
//! valid for the rest of that step.

use crate::scenario::Scenario;
use imdpp_graph::{ItemId, UserId};
use imdpp_kg::PersonalPerception;

/// Mutable state of one stochastic realisation of the campaign.
#[derive(Clone, Debug)]
pub struct DiffusionState {
    /// Sorted adoption set `A(u)` per user.
    adopted: Vec<Vec<ItemId>>,
    /// The evolving personal perceptions (meta-graph weightings).
    perception: PersonalPerception,
    /// Total number of adoptions recorded.
    adoption_count: usize,
}

impl DiffusionState {
    /// Creates the initial state of a scenario (no adoptions, initial
    /// perceptions).
    pub fn new(scenario: &Scenario) -> Self {
        DiffusionState {
            adopted: vec![Vec::new(); scenario.user_count()],
            perception: scenario.initial_perception().clone(),
            adoption_count: 0,
        }
    }

    /// The evolving perceptions.
    pub fn perception(&self) -> &PersonalPerception {
        &self.perception
    }

    /// The adoption set `A(u)` (sorted).
    pub fn adopted_items(&self, u: UserId) -> &[ItemId] {
        &self.adopted[u.index()]
    }

    /// Whether `u` has adopted `x`.
    pub fn has_adopted(&self, u: UserId, x: ItemId) -> bool {
        self.adopted[u.index()].binary_search(&x).is_ok()
    }

    /// Total number of `(user, item)` adoptions.
    pub fn adoption_count(&self) -> usize {
        self.adoption_count
    }

    /// Records a batch of new adoptions (the end-of-step bookkeeping of the
    /// diffusion process): adds the items to the adoption sets and applies
    /// the *relevance measurement* update to each affected user's
    /// perceptions (skipped when the dynamics are frozen).
    ///
    /// Adoptions already present are ignored; returns the number of new
    /// adoptions actually recorded.
    pub fn record_adoptions(&mut self, scenario: &Scenario, newly: &[(UserId, ItemId)]) -> usize {
        // Group by user to apply a single perception update per user.  A
        // BTreeMap so the perception updates below run in user order — the
        // updates are per-user independent today, but keyed iteration keeps
        // that invariant structural rather than incidental.
        let mut per_user: std::collections::BTreeMap<UserId, Vec<ItemId>> =
            std::collections::BTreeMap::new();
        let mut recorded = 0usize;
        for &(u, x) in newly {
            if self.has_adopted(u, x) {
                continue;
            }
            let row = &mut self.adopted[u.index()];
            match row.binary_search(&x) {
                Ok(_) => continue,
                Err(pos) => row.insert(pos, x),
            }
            recorded += 1;
            self.adoption_count += 1;
            per_user.entry(u).or_default().push(x);
        }
        if !scenario.dynamics().frozen {
            for (u, new_items) in per_user {
                self.perception.update_on_adoption(
                    u,
                    &new_items,
                    &self.adopted[u.index()],
                    scenario.dynamics().weight_learning_rate,
                );
            }
        }
        recorded
    }

    /// Dynamic preference `P_pref(u, x, ζ)` under the current state.
    pub fn preference(&self, scenario: &Scenario, u: UserId, x: ItemId) -> f64 {
        scenario.dynamics().preference(
            &self.perception,
            scenario.base_preference(u, x),
            u,
            self.adopted_items(u),
            x,
        )
    }

    /// Dynamic influence strength `P_act(u, v, ζ)` under the current state.
    pub fn influence(&self, scenario: &Scenario, u: UserId, v: UserId) -> f64 {
        scenario.dynamics().influence(
            &self.perception,
            scenario.social().influence(u, v),
            u,
            v,
            self.adopted_items(u),
            self.adopted_items(v),
        )
    }

    /// Aggregated influence probability `AIS(v, y)` that `y` would be
    /// promoted to `v` in the *next* promotion, given the current adoptions
    /// (Eq. (13) and footnote 31 of the paper).
    ///
    /// Under IC this is `1 − Π (1 − P_act(v', v))` over in-neighbours `v'`
    /// that have adopted `y`; under LT it is the (capped) sum of those
    /// strengths.
    pub fn aggregated_influence(&self, scenario: &Scenario, v: UserId, y: ItemId) -> f64 {
        let mut not_influenced = 1.0f64;
        let mut sum = 0.0f64;
        let mut any = false;
        for (v_prime, _) in scenario.social().influencers_of(v) {
            if !self.has_adopted(v_prime, y) {
                continue;
            }
            any = true;
            let p = self.influence(scenario, v_prime, v);
            not_influenced *= 1.0 - p;
            sum += p;
        }
        if !any {
            return 0.0;
        }
        match scenario.model() {
            crate::models::DiffusionModel::IndependentCascade => 1.0 - not_influenced,
            crate::models::DiffusionModel::LinearThreshold => sum.min(1.0),
        }
    }

    /// The likelihood `π(S_G)` (Eq. (13)): expected mass of not-yet-adopted
    /// items that the given users would adopt in the next promotion.
    ///
    /// Only items with positive aggregated influence contribute, so the cost
    /// is proportional to the adopted-item neighbourhood rather than to
    /// `|users| × |items|`.
    pub fn future_adoption_likelihood(
        &self,
        scenario: &Scenario,
        users: impl IntoIterator<Item = UserId>,
    ) -> f64 {
        let mut total = 0.0;
        for v in users {
            // Candidate items: items adopted by at least one in-neighbour.
            let mut candidates: Vec<ItemId> = Vec::new();
            for (v_prime, _) in scenario.social().influencers_of(v) {
                candidates.extend_from_slice(self.adopted_items(v_prime));
            }
            candidates.sort_unstable();
            candidates.dedup();
            for y in candidates {
                if self.has_adopted(v, y) {
                    continue;
                }
                let ais = self.aggregated_influence(scenario, v, y);
                if ais <= 0.0 {
                    continue;
                }
                total += ais * self.preference(scenario, v, y);
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::toy_scenario;

    #[test]
    fn new_state_has_no_adoptions() {
        let s = toy_scenario();
        let st = DiffusionState::new(&s);
        assert_eq!(st.adoption_count(), 0);
        assert!(!st.has_adopted(UserId(0), ItemId(0)));
    }

    #[test]
    fn record_adoptions_updates_sets_and_counts() {
        let s = toy_scenario();
        let mut st = DiffusionState::new(&s);
        let n = st.record_adoptions(&s, &[(UserId(1), ItemId(0)), (UserId(1), ItemId(1))]);
        assert_eq!(n, 2);
        assert!(st.has_adopted(UserId(1), ItemId(0)));
        assert_eq!(st.adopted_items(UserId(1)), &[ItemId(0), ItemId(1)]);
    }

    #[test]
    fn duplicate_adoptions_are_ignored() {
        let s = toy_scenario();
        let mut st = DiffusionState::new(&s);
        st.record_adoptions(&s, &[(UserId(1), ItemId(0))]);
        let n = st.record_adoptions(&s, &[(UserId(1), ItemId(0))]);
        assert_eq!(n, 0);
        assert_eq!(st.adoption_count(), 1);
    }

    #[test]
    fn adoption_raises_preference_for_complements() {
        // Bob adopts the iPhone; his preference for the wireless charger must
        // grow relative to the base preference (Fig. 2 of the paper).
        let s = toy_scenario();
        let mut st = DiffusionState::new(&s);
        let before = st.preference(&s, UserId(1), ItemId(2));
        st.record_adoptions(&s, &[(UserId(1), ItemId(0))]);
        let after = st.preference(&s, UserId(1), ItemId(2));
        assert!(after > before, "{after} vs {before}");
    }

    #[test]
    fn adoption_raises_influence_between_similar_users() {
        // Bob and Cindy both adopt the iPhone; Cindy's influence on Bob grows.
        let s = toy_scenario();
        let mut st = DiffusionState::new(&s);
        let before = st.influence(&s, UserId(2), UserId(1));
        st.record_adoptions(&s, &[(UserId(1), ItemId(0)), (UserId(2), ItemId(0))]);
        let after = st.influence(&s, UserId(2), UserId(1));
        assert!(after > before);
        assert!(after <= 1.0);
    }

    #[test]
    fn influence_of_unconnected_users_stays_zero_without_base_edge() {
        let s = toy_scenario();
        let mut st = DiffusionState::new(&s);
        st.record_adoptions(&s, &[(UserId(0), ItemId(0)), (UserId(5), ItemId(0))]);
        // There is no 5 -> 0 edge, but dynamics add similarity gain on top of
        // base 0.0; the result must stay a valid probability.
        let p = st.influence(&s, UserId(5), UserId(0));
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn frozen_dynamics_do_not_touch_perception() {
        let s = toy_scenario().with_dynamics(crate::dynamics::DynamicsConfig::frozen());
        let mut st = DiffusionState::new(&s);
        let w_before = st.perception().weight_vector(UserId(1)).to_vec();
        st.record_adoptions(&s, &[(UserId(1), ItemId(0)), (UserId(1), ItemId(1))]);
        assert_eq!(st.perception().weight_vector(UserId(1)), &w_before[..]);
        // Preference equals the base preference under frozen dynamics.
        assert_eq!(st.preference(&s, UserId(1), ItemId(2)), 0.4);
    }

    #[test]
    fn aggregated_influence_requires_adopting_in_neighbours() {
        let s = toy_scenario();
        let mut st = DiffusionState::new(&s);
        assert_eq!(st.aggregated_influence(&s, UserId(1), ItemId(0)), 0.0);
        // Alice (0) adopts the iPhone; Bob (1) is her out-neighbour.
        st.record_adoptions(&s, &[(UserId(0), ItemId(0))]);
        let ais = st.aggregated_influence(&s, UserId(1), ItemId(0));
        assert!(ais > 0.0 && ais <= 1.0);
    }

    #[test]
    fn aggregated_influence_under_lt_sums_strengths() {
        let s = toy_scenario().with_model(crate::models::DiffusionModel::LinearThreshold);
        let mut st = DiffusionState::new(&s);
        st.record_adoptions(&s, &[(UserId(0), ItemId(0)), (UserId(2), ItemId(0))]);
        let ais = st.aggregated_influence(&s, UserId(1), ItemId(0));
        // Under LT the aggregate is the (dynamic) sum of the two strengths.
        assert!(ais > 0.9 && ais <= 1.0, "ais = {ais}");
    }

    #[test]
    fn future_likelihood_grows_with_adopting_neighbours() {
        let s = toy_scenario();
        let mut st = DiffusionState::new(&s);
        let users: Vec<UserId> = s.users().collect();
        let before = st.future_adoption_likelihood(&s, users.clone());
        assert_eq!(before, 0.0);
        st.record_adoptions(&s, &[(UserId(0), ItemId(0))]);
        let after = st.future_adoption_likelihood(&s, users);
        assert!(after > 0.0);
    }
}
