//! Monte-Carlo evaluation of the quantities Dysim and the baselines need.
//!
//! All evaluation goes through the diffusion crate's simulator; this module
//! packages the specific metrics of the paper:
//!
//! * the importance-aware influence `σ(S)` (Definition 1),
//! * its restriction to a target market, `σ_τ(S)`,
//! * the future-adoption likelihood `π_τ(S)` (Eq. 13),
//! * the *static* first-promotion spread `f(N)` used by nominee selection
//!   (probabilities assigned at the beginning of the promotion),
//! * the expected post-campaign perceptions used by dynamic reachability.

use crate::nominees::Nominee;
use crate::oracle::SpreadOracle;
use crate::problem::ImdppInstance;
use imdpp_diffusion::{simulate, DynamicsConfig, Scenario, Seed, SeedGroup, SpreadEstimator};
use imdpp_graph::UserId;
use imdpp_kg::PersonalPerception;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Monte-Carlo evaluator bound to an IMDPP instance.
#[derive(Clone, Debug)]
pub struct Evaluator<'a> {
    instance: &'a ImdppInstance,
    /// Frozen-dynamics copy of the scenario, used by the static objective of
    /// nominee selection (Lemma 1 conditions).
    frozen_scenario: Scenario,
    samples: usize,
    base_seed: u64,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator using `samples` Monte-Carlo samples per query.
    pub fn new(instance: &'a ImdppInstance, samples: usize, base_seed: u64) -> Self {
        let frozen_scenario = instance.scenario().with_dynamics(DynamicsConfig::frozen());
        Evaluator {
            instance,
            frozen_scenario,
            samples,
            base_seed,
        }
    }

    /// The underlying instance.
    pub fn instance(&self) -> &ImdppInstance {
        self.instance
    }

    /// Number of Monte-Carlo samples per query.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Estimates the importance-aware influence spread `σ(S)` over the full
    /// campaign of `T` promotions.
    pub fn spread(&self, seeds: &SeedGroup) -> f64 {
        if seeds.is_empty() {
            return 0.0;
        }
        SpreadEstimator::new(self.instance.scenario(), self.samples, self.base_seed)
            .mean_spread(seeds, self.instance.promotions())
    }

    /// Estimates `σ_τ(S)`: the spread restricted to the users of a target
    /// market.
    pub fn spread_in(&self, seeds: &SeedGroup, users: &[UserId]) -> f64 {
        if seeds.is_empty() || users.is_empty() {
            return 0.0;
        }
        let scenario = self.instance.scenario();
        SpreadEstimator::new(scenario, self.samples, self.base_seed)
            .estimate_metric(seeds, self.instance.promotions(), |out| {
                out.weighted_spread_in(scenario, users)
            })
            .mean
    }

    /// Estimates `π_τ(S)`: the expected likelihood of the users in `users`
    /// adopting their not-yet-adopted items in a further promotion after the
    /// campaign of `S` has run (Eq. 13).
    pub fn future_likelihood_in(&self, seeds: &SeedGroup, users: &[UserId]) -> f64 {
        if users.is_empty() {
            return 0.0;
        }
        let scenario = self.instance.scenario();
        let users_vec = users.to_vec();
        SpreadEstimator::new(scenario, self.samples, self.base_seed)
            .estimate_metric(seeds, self.instance.promotions(), move |out| {
                out.state()
                    .future_adoption_likelihood(scenario, users_vec.iter().copied())
            })
            .mean
    }

    /// The static nominee-selection objective `f(N)`: the spread of the
    /// nominees all placed in the first promotion with `P_pref`, `P_act` and
    /// `P_ext` fixed at their initial values (the conditions of Lemma 1 under
    /// which `f` is submodular).
    pub fn static_first_promotion_spread(&self, nominees: &[Nominee]) -> f64 {
        if nominees.is_empty() {
            return 0.0;
        }
        let seeds: SeedGroup = nominees.iter().map(|&(u, x)| Seed::new(u, x, 1)).collect();
        SpreadEstimator::new(&self.frozen_scenario, self.samples, self.base_seed)
            .mean_spread(&seeds, 1)
    }

    /// The expected post-campaign perceptions of a set of users: the
    /// meta-graph weight vectors averaged over Monte-Carlo realisations of
    /// the campaign of `seeds` (the expectation illustrated in Fig. 6(c)).
    ///
    /// Returns a [`PersonalPerception`] over *all* users in which the users
    /// outside `users` keep their initial weightings.
    pub fn expected_perception(&self, seeds: &SeedGroup, users: &[UserId]) -> PersonalPerception {
        let scenario = self.instance.scenario();
        let mut perception = scenario.initial_perception().clone();
        if users.is_empty() || scenario.dynamics().frozen {
            return perception;
        }
        let m_count = perception.metagraph_count();
        let mut sums = vec![0.0f64; users.len() * m_count];
        for i in 0..self.samples {
            let mut rng = StdRng::seed_from_u64(self.base_seed.wrapping_add(i as u64));
            let out = simulate(scenario, seeds, self.instance.promotions(), &mut rng);
            for (ui, &u) in users.iter().enumerate() {
                let w = out.state().perception().weight_vector(u);
                for (mi, &wv) in w.iter().enumerate() {
                    sums[ui * m_count + mi] += wv;
                }
            }
        }
        for (ui, &u) in users.iter().enumerate() {
            for mi in 0..m_count {
                perception.set_weight(
                    u,
                    imdpp_kg::MetaGraphId(mi as u32),
                    sums[ui * m_count + mi] / self.samples as f64,
                );
            }
        }
        perception
    }
}

impl SpreadOracle for Evaluator<'_> {
    /// Forward Monte-Carlo estimation of `f(N)` (the paper's reference
    /// estimator): a frozen-dynamics simulation per sample.
    fn static_spread(&self, nominees: &[Nominee]) -> f64 {
        self.static_first_promotion_spread(nominees)
    }

    fn name(&self) -> &'static str {
        "monte-carlo"
    }
}

/// An *owned* forward Monte-Carlo `f(N)` oracle.
///
/// Unlike [`Evaluator`], which borrows an instance, this oracle owns a
/// frozen copy of the scenario, so it can outlive the per-round instances
/// of the adaptive loop and implement
/// [`RefreshableOracle`](crate::oracle::RefreshableOracle): a refresh
/// simply swaps the scenario (forward Monte-Carlo keeps no amortized state,
/// so the "recomputed fraction" is reported as `1.0`).
#[derive(Clone, Debug)]
pub struct MonteCarloOracle {
    frozen: Scenario,
    samples: usize,
    base_seed: u64,
    /// Additive seed offset rotated by `begin_round` so that each adaptive
    /// round draws fresh sampling streams (`base_seed + t`, the reference
    /// loop's re-seeding discipline).  Zero outside the adaptive loop.
    round: u64,
}

impl MonteCarloOracle {
    /// Creates the oracle for `scenario` with `samples` Monte-Carlo samples
    /// per query.
    pub fn new(scenario: &Scenario, samples: usize, base_seed: u64) -> Self {
        MonteCarloOracle {
            frozen: scenario.with_dynamics(DynamicsConfig::frozen()),
            samples: samples.max(1),
            base_seed,
            round: 0,
        }
    }

    /// The frozen scenario the oracle estimates against.
    pub fn scenario(&self) -> &Scenario {
        &self.frozen
    }
}

impl SpreadOracle for MonteCarloOracle {
    fn static_spread(&self, nominees: &[Nominee]) -> f64 {
        if nominees.is_empty() {
            return 0.0;
        }
        let seeds: SeedGroup = nominees.iter().map(|&(u, x)| Seed::new(u, x, 1)).collect();
        SpreadEstimator::new(
            &self.frozen,
            self.samples,
            self.base_seed.wrapping_add(self.round),
        )
        .mean_spread(&seeds, 1)
    }

    fn name(&self) -> &'static str {
        "monte-carlo"
    }
}

impl crate::oracle::RefreshableOracle for MonteCarloOracle {
    fn refresh(
        &mut self,
        updated: &Scenario,
        _update: &crate::oracle::ScenarioUpdate,
    ) -> (crate::oracle::RefreshStats, Option<Vec<Vec<UserId>>>) {
        self.frozen = updated.with_dynamics(DynamicsConfig::frozen());
        // Forward Monte-Carlo keeps no amortized state: swapping the
        // scenario recomputes everything from the next query on, and no
        // estimate is certified unchanged.
        (crate::oracle::RefreshStats::full_rebuild(), None)
    }

    fn begin_round(&mut self, round: u32) {
        self.round = round as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::CostModel;
    use imdpp_diffusion::scenario::toy_scenario;
    use imdpp_graph::ItemId;

    fn instance() -> ImdppInstance {
        let scenario = toy_scenario();
        let costs = CostModel::uniform(scenario.user_count(), scenario.item_count(), 1.0);
        ImdppInstance::new(scenario, costs, 4.0, 2).unwrap()
    }

    fn one_seed() -> SeedGroup {
        SeedGroup::from_seeds(vec![Seed::new(UserId(0), ItemId(0), 1)])
    }

    #[test]
    fn empty_group_has_zero_spread() {
        let inst = instance();
        let ev = Evaluator::new(&inst, 8, 1);
        assert_eq!(ev.spread(&SeedGroup::new()), 0.0);
        assert_eq!(ev.spread_in(&SeedGroup::new(), &[UserId(0)]), 0.0);
        assert_eq!(ev.static_first_promotion_spread(&[]), 0.0);
    }

    #[test]
    fn spread_is_at_least_seed_importance() {
        let inst = instance();
        let ev = Evaluator::new(&inst, 16, 2);
        assert!(ev.spread(&one_seed()) >= 1.0);
    }

    #[test]
    fn restricted_spread_is_bounded_by_total() {
        let inst = instance();
        let ev = Evaluator::new(&inst, 16, 3);
        let all: Vec<UserId> = inst.scenario().users().collect();
        let total = ev.spread(&one_seed());
        let subset = ev.spread_in(&one_seed(), &[UserId(0), UserId(1)]);
        let everyone = ev.spread_in(&one_seed(), &all);
        assert!(subset <= total + 1e-9);
        assert!((everyone - total).abs() < 1e-9);
    }

    #[test]
    fn static_objective_matches_frozen_single_promotion() {
        let inst = instance();
        let ev = Evaluator::new(&inst, 16, 4);
        let f = ev.static_first_promotion_spread(&[(UserId(0), ItemId(0))]);
        assert!(f >= 1.0);
        // With two nominees the static objective cannot decrease (monotone
        // under static probabilities, Lemma 1).
        let f2 =
            ev.static_first_promotion_spread(&[(UserId(0), ItemId(0)), (UserId(2), ItemId(0))]);
        assert!(f2 + 1e-9 >= f);
    }

    #[test]
    fn future_likelihood_is_nonnegative_and_grows_with_seeds() {
        let inst = instance();
        let ev = Evaluator::new(&inst, 16, 5);
        let users: Vec<UserId> = inst.scenario().users().collect();
        let none = ev.future_likelihood_in(&SeedGroup::new(), &users);
        let some = ev.future_likelihood_in(&one_seed(), &users);
        assert!(none >= 0.0);
        assert!(some >= none);
    }

    #[test]
    fn owned_monte_carlo_oracle_matches_the_evaluator() {
        use crate::oracle::{RefreshableOracle, ScenarioUpdate};
        let inst = instance();
        let ev = Evaluator::new(&inst, 16, 4);
        let mc = MonteCarloOracle::new(inst.scenario(), 16, 4);
        let nominees = [(UserId(0), ItemId(0)), (UserId(2), ItemId(1))];
        // Same samples + same seed + same frozen scenario = same estimate.
        assert_eq!(ev.static_spread(&nominees), mc.static_spread(&nominees));
        assert_eq!(mc.static_spread(&[]), 0.0);
        assert_eq!(mc.name(), "monte-carlo");

        // Refreshing moves the estimate to the drifted world and reports a
        // full rebuild (MC has no amortized state).
        let drifted = inst
            .scenario()
            .with_base_preference(UserId(1), ItemId(0), 0.95);
        let update = ScenarioUpdate::Preferences(vec![(UserId(1), ItemId(0), 0.95)]);
        let mut mc2 = mc.clone();
        let (stats, touched) = mc2.refresh(&drifted, &update);
        assert_eq!(stats.resampled_fraction(), 1.0);
        assert!(touched.is_none());
        let fresh = MonteCarloOracle::new(&drifted, 16, 4);
        assert_eq!(mc2.static_spread(&nominees), fresh.static_spread(&nominees));
    }

    #[test]
    fn expected_perception_moves_weights_of_reached_users() {
        let inst = instance();
        let ev = Evaluator::new(&inst, 16, 6);
        let p = ev.expected_perception(&one_seed(), &[UserId(0), UserId(1)]);
        // The seeded user adopts the iPhone; with any further adoption its
        // weights move above the initial 0.2 in at least some samples, so the
        // average must be >= the initial value and > for the seed user when
        // any pair evidence exists.  At minimum it must stay a valid weight.
        for m in 0..p.metagraph_count() {
            let w = p.weight(UserId(0), imdpp_kg::MetaGraphId(m as u32));
            assert!((0.01..=1.0).contains(&w));
        }
        // Users not in the averaged set keep their initial weights.
        let w5 = p.weight_vector(UserId(5)).to_vec();
        assert_eq!(
            w5,
            inst.scenario()
                .initial_perception()
                .weight_vector(UserId(5))
        );
    }
}
