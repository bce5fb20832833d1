//! Parallel Monte-Carlo estimation of the importance-aware influence spread.
//!
//! Following footnote 12 of the paper, `σ(S)` is estimated by simulating the
//! diffusion `M` times and averaging.  The estimator is deterministic for a
//! fixed `(base_seed, sample_count)` pair regardless of the number of worker
//! threads, because each sample uses its own RNG stream derived from the
//! base seed and the sample index.
//!
//! Callers that compare several seed groups (the guard solutions) measure
//! them in one pass, [`SpreadEstimator::collect_groups`]: every group sees
//! the same sample streams it would see on its own, and a pass forks and
//! joins the workers once instead of once per group.  TDSI's candidates —
//! one group extended by one seed each — go through
//! [`SpreadEstimator::collect_candidates`], which also shares each
//! sample's promotions before a candidate's own seed.

use crate::par::{effective_threads, run_queue};
use crate::process::{simulate, Simulation, SimulationOutcome};
use crate::scenario::Scenario;
use crate::seeds::{Seed, SeedGroup};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A Monte-Carlo estimate of a scalar metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpreadEstimate {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (0.0 for a single sample).
    pub std_dev: f64,
    /// Number of samples used.
    pub samples: usize,
}

impl SpreadEstimate {
    /// Summarizes per-sample values: the mean is their sum in sample order
    /// divided by their count; the standard deviation is the sample one.
    pub fn from_samples(values: &[f64]) -> Self {
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let variance = if n > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0)
        } else {
            0.0
        };
        SpreadEstimate {
            mean,
            std_dev: variance.sqrt(),
            samples: n,
        }
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.samples <= 1 {
            0.0
        } else {
            self.std_dev / (self.samples as f64).sqrt()
        }
    }
}

/// Monte-Carlo spread estimator over a scenario.
#[derive(Clone, Debug)]
pub struct SpreadEstimator<'a> {
    scenario: &'a Scenario,
    samples: usize,
    base_seed: u64,
    /// Worker override; `None` resolves `effective_threads(0, tasks)` per
    /// pass.
    threads: Option<usize>,
}

impl<'a> SpreadEstimator<'a> {
    /// Creates an estimator with `samples` Monte-Carlo samples (the paper
    /// uses `M = 100`).
    pub fn new(scenario: &'a Scenario, samples: usize, base_seed: u64) -> Self {
        assert!(samples >= 1, "at least one sample is required");
        SpreadEstimator {
            scenario,
            samples,
            base_seed,
            threads: None,
        }
    }

    /// Overrides the number of worker threads (1 = sequential).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// The underlying scenario.
    pub fn scenario(&self) -> &Scenario {
        self.scenario
    }

    /// Number of Monte-Carlo samples.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Estimates the expectation of an arbitrary per-simulation metric.
    pub fn estimate_metric<F>(
        &self,
        seeds: &SeedGroup,
        promotions: u32,
        metric: F,
    ) -> SpreadEstimate
    where
        F: Fn(&SimulationOutcome) -> f64 + Sync,
    {
        SpreadEstimate::from_samples(&self.collect_metric(seeds, promotions, &metric))
    }

    /// Estimates the importance-aware influence spread `σ(S)`.
    pub fn estimate(&self, seeds: &SeedGroup, promotions: u32) -> SpreadEstimate {
        self.estimate_metric(seeds, promotions, |out| out.weighted_spread(self.scenario))
    }

    /// Convenience wrapper returning only the mean spread.
    pub fn mean_spread(&self, seeds: &SeedGroup, promotions: u32) -> f64 {
        self.estimate(seeds, promotions).mean
    }

    /// Collects the raw per-sample metric values (ordered by sample index):
    /// the one-group case of [`SpreadEstimator::collect_groups`].
    pub fn collect_metric<T, F>(&self, seeds: &SeedGroup, promotions: u32, metric: &F) -> Vec<T>
    where
        T: Send,
        F: Fn(&SimulationOutcome) -> T + Sync,
    {
        let groups = self.collect_groups(&[seeds], promotions, metric);
        groups.into_iter().flatten().collect()
    }

    /// Collects the per-sample metric values of every group, each in sample
    /// order, from one pass on the work-queue ([`run_queue`]): task
    /// `g · samples + i` simulates group `g` with the RNG stream
    /// `base_seed + i`, the stream sample `i` of a one-group estimate uses.
    pub fn collect_groups<T, F>(
        &self,
        groups: &[&SeedGroup],
        promotions: u32,
        metric: &F,
    ) -> Vec<Vec<T>>
    where
        T: Send,
        F: Fn(&SimulationOutcome) -> T + Sync,
    {
        let tasks = groups.len() * self.samples;
        let workers = self.threads.unwrap_or_else(|| effective_threads(0, tasks));
        let mut values = run_queue((0..tasks).collect(), workers, |_, task| {
            let (group, i) = (task / self.samples, task % self.samples);
            let mut rng = StdRng::seed_from_u64(self.base_seed.wrapping_add(i as u64));
            metric(&simulate(
                self.scenario,
                groups[group],
                promotions,
                &mut rng,
            ))
        })
        .into_iter();
        groups
            .iter()
            .map(|_| values.by_ref().take(self.samples).collect())
            .collect()
    }

    /// Collects the per-sample metric values of `base.with(c)` for every
    /// candidate `c`, each in sample order: bit for bit what
    /// [`SpreadEstimator::collect_groups`] returns for those groups.
    ///
    /// Sample `i` is one task on the work-queue, on the stream
    /// `base_seed + i`.  The task runs `base` once, promotion by promotion,
    /// and at the start of each candidate's promotion clones the
    /// [`Simulation`] and the RNG and resumes `base.with(c)` from the
    /// clone, so the promotions before a candidate's own seed are simulated
    /// once per sample, not once per candidate.  That is exact by the
    /// promotion-boundary rule: before `c.promotion` the group
    /// `base.with(c)` seeds exactly what `base` seeds, so its prefix is the
    /// same realisation.
    pub fn collect_candidates<T, F>(
        &self,
        base: &SeedGroup,
        candidates: &[Seed],
        promotions: u32,
        metric: &F,
    ) -> Vec<Vec<T>>
    where
        T: Send,
        F: Fn(&SimulationOutcome) -> T + Sync,
    {
        // A candidate past the horizon never seeds: it resumes after the
        // last promotion.
        let resume_at = |c: &Seed| c.promotion.min(promotions + 1);
        // Candidates in the order their promotions start, so one run of
        // `base` passes every resume point in turn.
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        order.sort_by_key(|&k| resume_at(&candidates[k]));
        let groups: Vec<SeedGroup> = candidates.iter().map(|&c| base.with(c)).collect();
        let workers = self
            .threads
            .unwrap_or_else(|| effective_threads(0, self.samples));
        let per_sample = run_queue((0..self.samples).collect(), workers, |_, i| {
            let mut rng = StdRng::seed_from_u64(self.base_seed.wrapping_add(i as u64));
            let mut prefix = Simulation::new(self.scenario);
            let mut t = 1;
            order
                .iter()
                .map(|&k| {
                    let start = resume_at(&candidates[k]);
                    while t < start {
                        prefix.run_promotion(self.scenario, base, t, &mut rng);
                        t += 1;
                    }
                    let (mut run, mut run_rng) = (prefix.clone(), rng.clone());
                    for t in start..=promotions {
                        run.run_promotion(self.scenario, &groups[k], t, &mut run_rng);
                    }
                    (k, metric(&run.into_outcome()))
                })
                .collect::<Vec<(usize, T)>>()
        });
        // One row per candidate, filled in sample order.
        let mut rows: Vec<Vec<T>> = candidates
            .iter()
            .map(|_| Vec::with_capacity(self.samples))
            .collect();
        for sample in per_sample {
            for (k, value) in sample {
                rows[k].push(value);
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::toy_scenario;
    use crate::seeds::{Seed, SeedGroup};
    use imdpp_graph::{ItemId, UserId};

    fn one_seed() -> SeedGroup {
        SeedGroup::from_seeds(vec![Seed::new(UserId(0), ItemId(0), 1)])
    }

    #[test]
    fn estimate_of_empty_group_is_zero() {
        let s = toy_scenario();
        let est = SpreadEstimator::new(&s, 8, 42);
        let e = est.estimate(&SeedGroup::new(), 2);
        assert_eq!(e.mean, 0.0);
        assert_eq!(e.std_dev, 0.0);
        assert_eq!(e.samples, 8);
    }

    #[test]
    fn estimate_includes_seed_importance() {
        let s = toy_scenario();
        let est = SpreadEstimator::new(&s, 16, 7);
        let e = est.estimate(&one_seed(), 1);
        // The seed itself adopts an item of importance 1.0 in every sample.
        assert!(e.mean >= 1.0);
        assert!(e.std_error() >= 0.0);
    }

    #[test]
    fn estimates_are_deterministic_per_seed() {
        let s = toy_scenario();
        let a = SpreadEstimator::new(&s, 12, 99)
            .with_threads(1)
            .estimate(&one_seed(), 2);
        let b = SpreadEstimator::new(&s, 12, 99)
            .with_threads(4)
            .estimate(&one_seed(), 2);
        assert!((a.mean - b.mean).abs() < 1e-12);
        assert!((a.std_dev - b.std_dev).abs() < 1e-12);
    }

    #[test]
    fn different_base_seeds_change_the_estimate_slightly() {
        let s = toy_scenario();
        let a = SpreadEstimator::new(&s, 4, 1).mean_spread(&one_seed(), 2);
        let b = SpreadEstimator::new(&s, 4, 2).mean_spread(&one_seed(), 2);
        // Not asserting inequality strictly (they may coincide), only that the
        // values are valid spreads.
        assert!(a >= 1.0 && b >= 1.0);
    }

    #[test]
    fn more_seeds_do_not_decrease_single_promotion_spread() {
        let s = toy_scenario();
        let est = SpreadEstimator::new(&s, 32, 3);
        let one = est.mean_spread(&one_seed(), 1);
        let two = est.mean_spread(
            &SeedGroup::from_seeds(vec![
                Seed::new(UserId(0), ItemId(0), 1),
                Seed::new(UserId(2), ItemId(0), 1),
            ]),
            1,
        );
        assert!(two + 1e-9 >= one, "two = {two}, one = {one}");
    }

    #[test]
    fn custom_metric_is_averaged() {
        let s = toy_scenario();
        let est = SpreadEstimator::new(&s, 8, 5);
        let e = est.estimate_metric(&one_seed(), 1, |out| out.adoption_count() as f64);
        assert!(e.mean >= 1.0);
    }

    #[test]
    fn collect_metric_returns_one_value_per_sample() {
        let s = toy_scenario();
        let est = SpreadEstimator::new(&s, 5, 11);
        let vals = est.collect_metric(&one_seed(), 1, &|out| out.weighted_spread(&s));
        assert_eq!(vals.len(), 5);
        assert!(vals.iter().all(|v| *v >= 1.0));
    }

    #[test]
    fn one_pass_over_groups_matches_each_group_on_its_own() {
        let s = toy_scenario();
        let groups = [
            one_seed(),
            SeedGroup::new(),
            SeedGroup::from_seeds(vec![
                Seed::new(UserId(2), ItemId(1), 1),
                Seed::new(UserId(0), ItemId(0), 2),
            ]),
        ];
        let metric = |out: &SimulationOutcome| out.weighted_spread(&s);
        for threads in [1, 3] {
            let est = SpreadEstimator::new(&s, 6, 17).with_threads(threads);
            let pass = est.collect_groups(&groups.iter().collect::<Vec<_>>(), 2, &metric);
            assert_eq!(pass.len(), groups.len());
            for (group, values) in groups.iter().zip(&pass) {
                let alone = est.collect_metric(group, 2, &metric);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(values), bits(&alone));
            }
        }
    }

    #[test]
    fn candidates_equal_their_extended_groups_bit_for_bit() {
        use crate::dynamics::DynamicsConfig;
        use crate::models::DiffusionModel;
        let worlds = [
            ("ic", toy_scenario()),
            (
                "lt",
                toy_scenario().with_model(DiffusionModel::LinearThreshold),
            ),
            (
                "frozen",
                toy_scenario().with_dynamics(DynamicsConfig::frozen()),
            ),
        ];
        let promotions = 4;
        let base = SeedGroup::from_seeds(vec![
            Seed::new(UserId(1), ItemId(3), 1),
            Seed::new(UserId(3), ItemId(2), 2),
        ]);
        // One, two and all T timings; one window reaches past the horizon.
        let windows: [&[u32]; 4] = [&[2], &[2, 3], &[1, 2, 3, 4], &[4, 5]];
        let nominees = [(0u32, 0u32), (2, 1), (3, 2), (4, 0)];
        for (name, scenario) in &worlds {
            // Everything a realisation leaves behind: its records and the
            // perceptions it moved.
            let metric = |out: &SimulationOutcome| {
                let weights = scenario.users().flat_map(|u| {
                    let row = out.state().perception().weight_vector(u);
                    row.iter().map(|w| w.to_bits()).collect::<Vec<_>>()
                });
                (out.records().to_vec(), weights.collect::<Vec<u64>>())
            };
            for window in windows {
                let candidates: Vec<Seed> = nominees
                    .iter()
                    .flat_map(|&(u, x)| {
                        window
                            .iter()
                            .map(move |&t| Seed::new(UserId(u), ItemId(x), t))
                    })
                    .collect();
                let groups: Vec<SeedGroup> = candidates.iter().map(|&c| base.with(c)).collect();
                let refs: Vec<&SeedGroup> = groups.iter().collect();
                for threads in [1, 4] {
                    let est = SpreadEstimator::new(scenario, 5, 31).with_threads(threads);
                    let shared = est.collect_candidates(&base, &candidates, promotions, &metric);
                    let separate = est.collect_groups(&refs, promotions, &metric);
                    assert!(
                        shared == separate,
                        "{name}, window {window:?}, {threads} threads"
                    );
                }
            }
        }
        let est = SpreadEstimator::new(&worlds[0].1, 3, 1);
        assert!(est
            .collect_candidates(&base, &[], promotions, &|out| out.adoption_count())
            .is_empty());
    }

    #[test]
    fn summary_statistics_are_correct() {
        let e = SpreadEstimate::from_samples(&[1.0, 3.0]);
        assert_eq!(e.mean, 2.0);
        assert!((e.std_dev - (2.0f64).sqrt()).abs() < 1e-12);
        assert!((e.std_error() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_are_rejected() {
        let s = toy_scenario();
        let _ = SpreadEstimator::new(&s, 0, 1);
    }
}
