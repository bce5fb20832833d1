//! One stochastic realisation of the multi-promotion diffusion process
//! (Sec. III of the paper).

use crate::models::DiffusionModel;
use crate::scenario::Scenario;
use crate::seeds::SeedGroup;
use crate::state::DiffusionState;
use imdpp_graph::{ItemId, UserId};
use rand::Rng;
use std::collections::HashMap;

/// A single `(user, item)` adoption with the promotion and step at which it
/// happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdoptionRecord {
    /// The adopting user.
    pub user: UserId,
    /// The adopted item.
    pub item: ItemId,
    /// The promotion (1-based) during which the adoption happened.
    pub promotion: u32,
    /// The step `ζ_t` within the promotion (0 = seeding).
    pub step: u32,
    /// Whether the adoption came from an item association (`P_ext`) rather
    /// than a direct promotion.
    pub via_association: bool,
}

/// The outcome of one simulated campaign.
#[derive(Clone, Debug)]
pub struct SimulationOutcome {
    records: Vec<AdoptionRecord>,
    state: DiffusionState,
}

impl SimulationOutcome {
    /// All adoption records in chronological order.
    pub fn records(&self) -> &[AdoptionRecord] {
        &self.records
    }

    /// The final diffusion state (adoption sets + perceptions).
    pub fn state(&self) -> &DiffusionState {
        &self.state
    }

    /// Total number of adoptions.
    pub fn adoption_count(&self) -> usize {
        self.records.len()
    }

    /// The importance-aware influence of the whole campaign:
    /// `Σ_x w_x · n_x` over every adoption.
    pub fn weighted_spread(&self, scenario: &Scenario) -> f64 {
        self.records
            .iter()
            .map(|r| scenario.catalog().importance(r.item))
            .sum()
    }

    /// The importance-aware influence restricted to a user subset (used for
    /// the per-target-market spread `σ_τ`): the adoptions of the users `u`
    /// with `members[u.index()]` set (users past the end of `members` are
    /// outside the subset).
    pub fn weighted_spread_in(&self, scenario: &Scenario, members: &[bool]) -> f64 {
        self.records
            .iter()
            .filter(|r| members.get(r.user.index()) == Some(&true))
            .map(|r| scenario.catalog().importance(r.item))
            .sum()
    }

    /// Number of adoptions of a specific item.
    pub fn adoptions_of(&self, item: ItemId) -> usize {
        self.records.iter().filter(|r| r.item == item).count()
    }
}

/// Runs one stochastic realisation of the campaign described by `seeds` over
/// `promotions` promotions: a new [`Simulation`] advanced through
/// promotions `1..=promotions` in order.
///
/// The process follows Sec. III of the paper:
///
/// 1. At step `ζ_t = 0` of promotion `t`, the seeds of `S_t` adopt their
///    items (if not already adopted).
/// 2. At each later step, users who newly adopted an item at the previous
///    step promote it to their friends.  A friend `u` adopts with
///    probability `P_act(u', u) · P_pref(u, x)` (IC) or when the accumulated
///    strength reaches a pre-drawn threshold (LT); either way, being
///    promoted `x` can additionally trigger extra adoptions of relevant
///    items through `P_ext`.
/// 3. At the end of each step, perceptions / preferences / influence
///    strengths of users with new adoptions are updated.
/// 4. The promotion ends when a step produces no new adoptions; the next
///    promotion then starts from the resulting state.
pub fn simulate(
    scenario: &Scenario,
    seeds: &SeedGroup,
    promotions: u32,
    rng: &mut impl Rng,
) -> SimulationOutcome {
    let mut simulation = Simulation::new(scenario);
    for t in 1..=promotions {
        simulation.run_promotion(scenario, seeds, t, rng);
    }
    simulation.into_outcome()
}

/// One realisation of the campaign in progress, between promotions.
///
/// **The promotion-boundary rule.**  The state at the start of promotion
/// `t` — adoptions, perceptions, records and the LT thresholds drawn so
/// far — depends only on the seeds of promotions before `t` and on the
/// random draws made so far.  So a clone of the `Simulation` and of the RNG
/// taken there resumes *any* seed group that agrees with the simulated one
/// before `t` exactly as [`simulate`] would have run it from scratch: the
/// same draws in the same order, the same float operations.  TDSI's
/// candidates share their prefix this way
/// (`SpreadEstimator::collect_candidates`).
#[derive(Clone, Debug)]
pub struct Simulation {
    state: DiffusionState,
    records: Vec<AdoptionRecord>,
    /// LT thresholds are drawn lazily per (user, item) and fixed for the
    /// whole campaign, matching the triggering-model construction in the
    /// paper's submodularity proof.
    lt_thresholds: HashMap<(u32, u32), f64>,
}

impl Simulation {
    /// The campaign before promotion 1: no adoptions, the scenario's
    /// initial perceptions.
    pub fn new(scenario: &Scenario) -> Self {
        Simulation {
            state: DiffusionState::new(scenario),
            records: Vec::new(),
            lt_thresholds: HashMap::new(),
        }
    }

    /// Runs promotion `t` of the campaign of `seeds`: seeds `S_t`, then
    /// propagation until a step produces no new adoption.  `scenario` must
    /// be the one the simulation was created for, and promotions must run
    /// in order.
    pub fn run_promotion(
        &mut self,
        scenario: &Scenario,
        seeds: &SeedGroup,
        t: u32,
        rng: &mut impl Rng,
    ) {
        let Simulation {
            state,
            records,
            lt_thresholds,
        } = self;
        // Accumulated LT weight per (user, item), local to the promotion.
        let mut lt_weight: HashMap<(u32, u32), f64> = HashMap::new();
        // --- ζ_t = 0: seeding -------------------------------------------------
        let mut newly: Vec<(UserId, ItemId)> = Vec::new();
        for seed in seeds.in_promotion(t) {
            if !state.has_adopted(seed.user, seed.item) {
                newly.push((seed.user, seed.item));
            }
        }
        newly.sort_unstable_by_key(|(u, x)| (u.0, x.0));
        newly.dedup();
        let mut frontier: Vec<(UserId, ItemId)> = Vec::new();
        for &(u, x) in &newly {
            records.push(AdoptionRecord {
                user: u,
                item: x,
                promotion: t,
                step: 0,
                via_association: false,
            });
            frontier.push((u, x));
        }
        state.record_adoptions(scenario, &newly);

        // --- ζ_t ≥ 1: propagation --------------------------------------------
        let mut step = 1u32;
        while !frontier.is_empty() {
            let mut next_newly: Vec<(UserId, ItemId, bool)> = Vec::new();
            for &(promoter, item) in &frontier {
                for (friend, _) in scenario.social().influenced_by(promoter) {
                    if state.has_adopted(friend, item) {
                        continue;
                    }
                    let strength = state.influence(scenario, promoter, friend);
                    let preference = state.preference(scenario, friend, item);
                    let adopted_via_promotion = match scenario.model() {
                        DiffusionModel::IndependentCascade => {
                            rng.gen::<f64>() < strength * preference
                        }
                        DiffusionModel::LinearThreshold => {
                            let key = (friend.0, item.0);
                            let threshold =
                                *lt_thresholds.entry(key).or_insert_with(|| rng.gen::<f64>());
                            let acc = lt_weight.entry(key).or_insert(0.0);
                            *acc += strength * preference;
                            *acc >= threshold
                        }
                    };
                    if adopted_via_promotion {
                        next_newly.push((friend, item, false));
                    }
                    // Item associations: being promoted `item` can trigger the
                    // adoption of relevant items regardless of whether `item`
                    // itself was adopted (footnote 9 of the paper).  `P_ext`
                    // reuses this visit's `strength` and `preference`: the
                    // state only changes at the end of the step.  A related
                    // item without complementary relevance has `P_ext = 0`
                    // and draws nothing.
                    if !scenario.dynamics().frozen {
                        for &relevant in state.perception().model().related_items(item) {
                            if state.has_adopted(friend, relevant) {
                                continue;
                            }
                            let p_ext = scenario.dynamics().extra_adoption_probability(
                                state.perception(),
                                strength,
                                preference,
                                friend,
                                item,
                                relevant,
                            );
                            if p_ext > 0.0 && rng.gen::<f64>() < p_ext {
                                next_newly.push((friend, relevant, true));
                            }
                        }
                    }
                }
            }
            if next_newly.is_empty() {
                break;
            }
            // Deduplicate (a user may be convinced through several paths in
            // the same step) and drop anything adopted meanwhile.
            next_newly.sort_unstable_by_key(|(u, x, _)| (u.0, x.0));
            next_newly.dedup_by_key(|(u, x, _)| (u.0, x.0));
            let mut recorded_pairs: Vec<(UserId, ItemId)> = Vec::new();
            for (u, x, via_association) in next_newly {
                if state.has_adopted(u, x) {
                    continue;
                }
                recorded_pairs.push((u, x));
                records.push(AdoptionRecord {
                    user: u,
                    item: x,
                    promotion: t,
                    step,
                    via_association,
                });
            }
            if recorded_pairs.is_empty() {
                break;
            }
            state.record_adoptions(scenario, &recorded_pairs);
            frontier = recorded_pairs;
            step += 1;
        }
    }

    /// The outcome of the promotions run so far.
    pub fn into_outcome(self) -> SimulationOutcome {
        SimulationOutcome {
            records: self.records,
            state: self.state,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::toy_scenario;
    use crate::seeds::Seed;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn seeds(list: &[(u32, u32, u32)]) -> SeedGroup {
        SeedGroup::from_seeds(
            list.iter()
                .map(|&(u, x, t)| Seed::new(UserId(u), ItemId(x), t))
                .collect(),
        )
    }

    #[test]
    fn empty_seed_group_produces_no_adoptions() {
        let s = toy_scenario();
        let mut rng = StdRng::seed_from_u64(1);
        let out = simulate(&s, &SeedGroup::new(), 3, &mut rng);
        assert_eq!(out.adoption_count(), 0);
        assert_eq!(out.weighted_spread(&s), 0.0);
    }

    #[test]
    fn seeds_always_adopt_their_items() {
        let s = toy_scenario();
        let mut rng = StdRng::seed_from_u64(1);
        let out = simulate(&s, &seeds(&[(0, 0, 1), (2, 1, 2)]), 2, &mut rng);
        assert!(out.state().has_adopted(UserId(0), ItemId(0)));
        assert!(out.state().has_adopted(UserId(2), ItemId(1)));
        assert!(out.adoption_count() >= 2);
        // Seed adoptions are recorded at step 0 of their promotion.
        let seed_records: Vec<_> = out.records().iter().filter(|r| r.step == 0).collect();
        assert_eq!(seed_records.len(), 2);
        assert!(seed_records.iter().any(|r| r.promotion == 2));
    }

    #[test]
    fn each_user_adopts_an_item_at_most_once() {
        let s = toy_scenario();
        for sample in 0..20 {
            let mut rng = StdRng::seed_from_u64(sample);
            let out = simulate(&s, &seeds(&[(0, 0, 1), (2, 0, 1)]), 3, &mut rng);
            let mut seen = std::collections::HashSet::new();
            for r in out.records() {
                assert!(
                    seen.insert((r.user.0, r.item.0)),
                    "duplicate adoption of {:?} by {:?}",
                    r.item,
                    r.user
                );
            }
        }
    }

    #[test]
    fn weighted_spread_counts_importance() {
        let s = toy_scenario();
        let mut rng = StdRng::seed_from_u64(3);
        let out = simulate(&s, &seeds(&[(0, 0, 1)]), 1, &mut rng);
        let spread = out.weighted_spread(&s);
        // At least the seed adoption itself (importance 1.0).
        assert!(spread >= 1.0);
        let manual: f64 = out
            .records()
            .iter()
            .map(|r| s.catalog().importance(r.item))
            .sum();
        assert!((spread - manual).abs() < 1e-12);
    }

    #[test]
    fn full_strength_path_propagates_deterministically() {
        // With strength 1 and preference 1 and frozen dynamics, IC adoption is
        // certain along the path.
        use imdpp_graph::SocialGraph;
        use imdpp_kg::{ItemCatalog, MetaGraph, RelevanceModel};
        use std::sync::Arc;
        let kg = imdpp_kg::hin::figure1_knowledge_graph();
        let relevance = Arc::new(RelevanceModel::compute(&kg, MetaGraph::default_set()));
        let social = SocialGraph::from_influence_edges(
            3,
            vec![(UserId(0), UserId(1), 1.0), (UserId(1), UserId(2), 1.0)],
            true,
        );
        let scenario = Scenario::builder()
            .social(social)
            .catalog(ItemCatalog::uniform(4))
            .relevance(relevance)
            .uniform_base_preference(1.0)
            .dynamics(crate::dynamics::DynamicsConfig::frozen())
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let out = simulate(&scenario, &seeds(&[(0, 0, 1)]), 1, &mut rng);
        assert!(out.state().has_adopted(UserId(2), ItemId(0)));
        assert_eq!(out.adoption_count(), 3);
        // Steps are 0, 1, 2 along the path.
        let steps: Vec<u32> = out.records().iter().map(|r| r.step).collect();
        assert_eq!(steps, vec![0, 1, 2]);
    }

    #[test]
    fn later_promotions_start_from_previous_state() {
        let s = toy_scenario();
        let mut rng = StdRng::seed_from_u64(5);
        let out = simulate(&s, &seeds(&[(0, 0, 1), (0, 0, 2)]), 2, &mut rng);
        // The second seeding of the same (user, item) cannot adopt again.
        let count = out
            .records()
            .iter()
            .filter(|r| r.user == UserId(0) && r.item == ItemId(0))
            .count();
        assert_eq!(count, 1);
    }

    #[test]
    fn association_adoptions_are_flagged() {
        let s = toy_scenario();
        let mut found_any = false;
        for sample in 0..50 {
            let mut rng = StdRng::seed_from_u64(sample);
            let out = simulate(&s, &seeds(&[(0, 0, 1)]), 2, &mut rng);
            if out.records().iter().any(|r| r.via_association) {
                found_any = true;
                break;
            }
        }
        assert!(
            found_any,
            "item associations should trigger at least one extra adoption across 50 runs"
        );
    }

    #[test]
    fn lt_model_also_diffuses() {
        let s = toy_scenario().with_model(DiffusionModel::LinearThreshold);
        let mut total = 0usize;
        for sample in 0..20 {
            let mut rng = StdRng::seed_from_u64(sample);
            let out = simulate(&s, &seeds(&[(0, 0, 1), (2, 0, 1)]), 2, &mut rng);
            total += out.adoption_count();
        }
        // At least the two seed adoptions per run.
        assert!(total >= 40);
    }

    #[test]
    fn promotion_and_step_metadata_are_consistent() {
        let s = toy_scenario();
        let mut rng = StdRng::seed_from_u64(11);
        let out = simulate(&s, &seeds(&[(0, 0, 1), (4, 2, 3)]), 3, &mut rng);
        for r in out.records() {
            assert!(r.promotion >= 1 && r.promotion <= 3);
        }
    }

    #[test]
    fn spread_restricted_to_subset_is_at_most_total() {
        let s = toy_scenario();
        let mut rng = StdRng::seed_from_u64(13);
        let out = simulate(&s, &seeds(&[(0, 0, 1)]), 2, &mut rng);
        let mut members = vec![false; s.user_count()];
        members[0] = true;
        members[1] = true;
        assert!(out.weighted_spread_in(&s, &members) <= out.weighted_spread(&s) + 1e-12);
        assert_eq!(
            out.weighted_spread_in(&s, &vec![true; s.user_count()]),
            out.weighted_spread(&s)
        );
    }
}
