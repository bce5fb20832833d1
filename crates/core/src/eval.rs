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
use imdpp_diffusion::{
    DynamicsConfig, Scenario, Seed, SeedGroup, SimulationOutcome, SpreadEstimate, SpreadEstimator,
};
use imdpp_graph::UserId;
use imdpp_kg::PersonalPerception;

/// The two per-market quantities TDSI scores a seed group by, estimated
/// from the same simulations.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MarketEstimate {
    /// `σ_τ(S)`: the importance-aware spread restricted to the market's
    /// users.
    pub spread: f64,
    /// `π_τ(S)`: the expected likelihood of the market's users adopting
    /// their not-yet-adopted items in a further promotion after the
    /// campaign of `S` has run (Eq. 13).
    pub likelihood: f64,
}

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

    /// Number of Monte-Carlo samples per query.
    pub fn samples(&self) -> usize {
        self.samples
    }

    fn estimator(&self) -> SpreadEstimator<'_> {
        SpreadEstimator::new(self.instance.scenario(), self.samples, self.base_seed)
    }

    /// Estimates the importance-aware influence spread `σ(S)` over the full
    /// campaign of `T` promotions.
    pub fn spread(&self, seeds: &SeedGroup) -> f64 {
        self.spreads(std::slice::from_ref(seeds))[0]
    }

    /// Estimates `σ(S)` of every group in one pass on the work-queue: each
    /// value equals [`Evaluator::spread`] of that group.
    pub fn spreads(&self, groups: &[SeedGroup]) -> Vec<f64> {
        let scenario = self.instance.scenario();
        let estimator = self.estimator();
        means_per_group(
            &estimator,
            self.instance.promotions(),
            groups,
            [0.0],
            |out| [out.weighted_spread(scenario)],
        )
        .into_iter()
        .map(|[spread]| spread)
        .collect()
    }

    /// The per-simulation `[σ_τ, π_τ]` of the market of `users` (non-empty).
    fn market_metric<'s>(
        &'s self,
        users: &'s [UserId],
    ) -> impl Fn(&SimulationOutcome) -> [f64; 2] + Sync + 's {
        let scenario = self.instance.scenario();
        let mut members = vec![false; scenario.user_count()];
        for u in users {
            members[u.index()] = true;
        }
        move |out| {
            [
                out.weighted_spread_in(scenario, &members),
                out.state()
                    .future_adoption_likelihood(scenario, users.iter().copied()),
            ]
        }
    }

    /// Estimates `σ_τ(S)` and `π_τ(S)` of a group on the market of `users`:
    /// one simulation per sample yields both values, each the mean over the
    /// group's sample streams, so it equals a separate estimate of that
    /// value.  An empty group (no adoptions) and an empty market give zero
    /// for both.
    pub fn market_estimate(&self, seeds: &SeedGroup, users: &[UserId]) -> MarketEstimate {
        if users.is_empty() {
            return MarketEstimate::default();
        }
        let [spread, likelihood] = means_per_group(
            &self.estimator(),
            self.instance.promotions(),
            std::slice::from_ref(seeds),
            [0.0, 0.0],
            self.market_metric(users),
        )[0];
        MarketEstimate { spread, likelihood }
    }

    /// [`Evaluator::market_estimate`] of `base.with(c)` for every candidate
    /// `c`, bit for bit, from one pass that shares each sample's prefix:
    /// a candidate resumes from the sample's state at the start of its own
    /// promotion instead of re-simulating the promotions before it
    /// ([`SpreadEstimator::collect_candidates`]).
    pub fn candidate_estimates(
        &self,
        base: &SeedGroup,
        candidates: &[Seed],
        users: &[UserId],
    ) -> Vec<MarketEstimate> {
        if users.is_empty() {
            return vec![MarketEstimate::default(); candidates.len()];
        }
        self.estimator()
            .collect_candidates(
                base,
                candidates,
                self.instance.promotions(),
                &self.market_metric(users),
            )
            .iter()
            .map(|samples| {
                let [spread, likelihood] = component_means(samples);
                MarketEstimate { spread, likelihood }
            })
            .collect()
    }

    /// The static nominee-selection objective `f(N)`: the spread of the
    /// nominees all placed in the first promotion with `P_pref`, `P_act` and
    /// `P_ext` fixed at their initial values (the conditions of Lemma 1 under
    /// which `f` is submodular).
    pub fn static_first_promotion_spread(&self, nominees: &[Nominee]) -> f64 {
        self.static_spread_batch(&[nominees])[0]
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
        let weights = self
            .estimator()
            .collect_metric(seeds, self.instance.promotions(), &|out| {
                let perception = out.state().perception();
                let rows = users.iter().map(|&u| perception.weight_vector(u));
                rows.flatten().copied().collect::<Vec<f64>>()
            });
        // Summed in sample order, whatever worker ran which sample.
        let mut sums = vec![0.0f64; users.len() * m_count];
        for sample in &weights {
            for (sum, &w) in sums.iter_mut().zip(sample) {
                *sum += w;
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

/// Runs every non-empty group's samples in one pass and returns, per
/// group, the mean of `metric` over its samples (`empty` for an empty
/// group, which is not simulated).
fn means_per_group<const K: usize>(
    estimator: &SpreadEstimator<'_>,
    promotions: u32,
    groups: &[SeedGroup],
    empty: [f64; K],
    metric: impl Fn(&SimulationOutcome) -> [f64; K] + Sync,
) -> Vec<[f64; K]> {
    let (live, slots): (Vec<&SeedGroup>, Vec<usize>) = groups
        .iter()
        .enumerate()
        .filter(|(_, g)| !g.is_empty())
        .map(|(slot, g)| (g, slot))
        .unzip();
    let passes = estimator.collect_groups(&live, promotions, &metric);
    let mut means = vec![empty; groups.len()];
    for (slot, samples) in slots.into_iter().zip(passes) {
        means[slot] = component_means(&samples);
    }
    means
}

/// The mean of each component over the samples, summed in sample order.
fn component_means<const K: usize>(samples: &[[f64; K]]) -> [f64; K] {
    std::array::from_fn(|k| {
        let values: Vec<f64> = samples.iter().map(|v| v[k]).collect();
        SpreadEstimate::from_samples(&values).mean
    })
}

/// `f(N)` of every query from one work-queue pass of `estimator` (over a
/// frozen scenario): each query's nominees are seeded in promotion 1 and
/// its value is the mean spread over the sample streams, what
/// `estimator.mean_spread(.., 1)` gives for that query alone.  An empty
/// query is 0.0 and is not simulated.
fn static_spreads(estimator: &SpreadEstimator<'_>, queries: &[&[Nominee]]) -> Vec<f64> {
    let groups: Vec<SeedGroup> = queries
        .iter()
        .map(|q| q.iter().map(|&(u, x)| Seed::new(u, x, 1)).collect())
        .collect();
    let scenario = estimator.scenario();
    means_per_group(estimator, 1, &groups, [0.0], |out| {
        [out.weighted_spread(scenario)]
    })
    .into_iter()
    .map(|[spread]| spread)
    .collect()
}

impl SpreadOracle for Evaluator<'_> {
    /// Forward Monte-Carlo estimation of `f(N)` (the paper's reference
    /// estimator): a frozen-dynamics simulation per sample.
    fn static_spread(&self, nominees: &[Nominee]) -> f64 {
        self.static_first_promotion_spread(nominees)
    }

    /// Every query's samples in one pass on the work-queue; `results[q]`
    /// equals `self.static_spread(queries[q])` bit for bit.
    fn static_spread_batch(&self, queries: &[&[Nominee]]) -> Vec<f64> {
        let estimator = SpreadEstimator::new(&self.frozen_scenario, self.samples, self.base_seed);
        static_spreads(&estimator, queries)
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
        self.static_spread_batch(&[nominees])[0]
    }

    /// Every query's samples in one pass on the work-queue, on the
    /// round's streams `base_seed + round + i`; `results[q]` equals
    /// `self.static_spread(queries[q])` bit for bit.
    fn static_spread_batch(&self, queries: &[&[Nominee]]) -> Vec<f64> {
        let estimator = SpreadEstimator::new(
            &self.frozen,
            self.samples,
            self.base_seed.wrapping_add(self.round),
        );
        static_spreads(&estimator, queries)
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
        assert_eq!(
            ev.market_estimate(&SeedGroup::new(), &[UserId(0)]),
            MarketEstimate::default()
        );
        assert_eq!(
            ev.market_estimate(&one_seed(), &[]),
            MarketEstimate::default()
        );
        let candidate = Seed::new(UserId(2), ItemId(1), 1);
        assert_eq!(
            ev.candidate_estimates(&one_seed(), &[candidate], &[]),
            vec![MarketEstimate::default()]
        );
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
        let subset = ev
            .market_estimate(&one_seed(), &[UserId(0), UserId(1)])
            .spread;
        let everyone = ev.market_estimate(&one_seed(), &all).spread;
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
        let none = ev.market_estimate(&SeedGroup::new(), &users).likelihood;
        let some = ev.market_estimate(&one_seed(), &users).likelihood;
        assert!(none >= 0.0);
        assert!(some >= none);
    }

    #[test]
    fn one_pass_estimates_equal_separate_estimates_bit_for_bit() {
        let inst = instance();
        let scenario = inst.scenario();
        let ev = Evaluator::new(&inst, 6, 9);
        let users = [UserId(1), UserId(3), UserId(4)];
        let groups = [
            one_seed(),
            SeedGroup::new(),
            SeedGroup::from_seeds(vec![
                Seed::new(UserId(2), ItemId(1), 1),
                Seed::new(UserId(0), ItemId(2), 2),
            ]),
        ];
        let spreads = ev.spreads(&groups);
        for (i, group) in groups.iter().enumerate() {
            let measured = ev.market_estimate(group, &users);
            let separate = |metric: &(dyn Fn(&SimulationOutcome) -> f64 + Sync)| {
                SpreadEstimator::new(scenario, 6, 9)
                    .estimate_metric(group, inst.promotions(), metric)
                    .mean
            };
            let in_market = |out: &SimulationOutcome| {
                let rows = out.records().iter().filter(|r| users.contains(&r.user));
                rows.map(|r| scenario.catalog().importance(r.item)).sum()
            };
            let likelihood = |out: &SimulationOutcome| {
                let state = out.state();
                state.future_adoption_likelihood(scenario, users.iter().copied())
            };
            let spread = if group.is_empty() {
                0.0
            } else {
                separate(&in_market)
            };
            assert_eq!(measured.spread.to_bits(), spread.to_bits());
            assert_eq!(
                measured.likelihood.to_bits(),
                separate(&likelihood).to_bits()
            );
            assert_eq!(spreads[i].to_bits(), ev.spread(group).to_bits());
        }
    }

    #[test]
    fn candidate_estimates_equal_the_estimates_of_each_extended_group() {
        let inst = instance();
        let users = [UserId(0), UserId(1), UserId(3), UserId(4)];
        let base = SeedGroup::from_seeds(vec![
            Seed::new(UserId(2), ItemId(1), 1),
            Seed::new(UserId(4), ItemId(2), 2),
        ]);
        // Several timings, a candidate already in the base, one past the
        // horizon.
        let candidates = [
            Seed::new(UserId(0), ItemId(0), 2),
            Seed::new(UserId(1), ItemId(3), 1),
            Seed::new(UserId(0), ItemId(0), 1),
            Seed::new(UserId(4), ItemId(2), 2),
            Seed::new(UserId(3), ItemId(0), 3),
        ];
        for (samples, seed) in [(6, 9), (1, 4)] {
            let ev = Evaluator::new(&inst, samples, seed);
            let measured = ev.candidate_estimates(&base, &candidates, &users);
            assert_eq!(measured.len(), candidates.len());
            for (&c, m) in candidates.iter().zip(&measured) {
                let alone = ev.market_estimate(&base.with(c), &users);
                assert_eq!(m.spread.to_bits(), alone.spread.to_bits(), "{c:?}");
                assert_eq!(m.likelihood.to_bits(), alone.likelihood.to_bits(), "{c:?}");
            }
        }
    }

    /// More than 64 queries, items interleaved, with duplicate, repeated
    /// and empty queries.
    fn batch_queries() -> Vec<Vec<Nominee>> {
        (0..70u32)
            .map(|i| match i % 6 {
                0 => vec![(UserId(i % 6), ItemId(i % 4))],
                1 => vec![(UserId(2), ItemId(3)), (UserId(0), ItemId(i % 4))],
                2 => vec![],
                3 => vec![(UserId(1), ItemId(1)), (UserId(1), ItemId(1))],
                4 => vec![(UserId(4), ItemId(2)), (UserId(i % 5), ItemId(0))],
                _ => vec![(UserId(0), ItemId(0))],
            })
            .collect()
    }

    #[test]
    fn monte_carlo_batches_equal_the_per_query_loop_bit_for_bit() {
        let inst = instance();
        let owned = batch_queries();
        let queries: Vec<&[Nominee]> = owned.iter().map(Vec::as_slice).collect();
        let ev = Evaluator::new(&inst, 3, 21);
        let mut mc = MonteCarloOracle::new(inst.scenario(), 3, 21);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let looped = |o: &dyn SpreadOracle| {
            queries
                .iter()
                .map(|q| o.static_spread(q))
                .collect::<Vec<f64>>()
        };
        assert_eq!(bits(&ev.static_spread_batch(&queries)), bits(&looped(&ev)));
        assert_eq!(bits(&mc.static_spread_batch(&queries)), bits(&looped(&mc)));
        // The round's stream rotation carries over to the batch.
        crate::oracle::RefreshableOracle::begin_round(&mut mc, 2);
        assert_eq!(bits(&mc.static_spread_batch(&queries)), bits(&looped(&mc)));
        assert_eq!(ev.static_spread_batch(&queries)[2], 0.0);
        assert!(ev.static_spread_batch(&[]).is_empty());
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
