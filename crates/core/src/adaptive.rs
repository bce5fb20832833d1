//! Adaptive IM with Dysim (Sec. V-D): seeds are committed one promotion at a
//! time, re-planning after the outcome of every promotion is observed.
//!
//! The paper's adaptive variant re-runs TMI with a single nominee at a time
//! and limits the TDSI window to `{t, t + 1}`.  This module implements a
//! faithful sequential re-planning loop on top of the same building blocks:
//!
//! 1. simulate (one realisation of) the promotions committed so far,
//! 2. re-select nominees with the remaining budget, conditioned on what has
//!    already been adopted (previously adopted `(u, x)` pairs add nothing, so
//!    their marginal gain collapses and they are never re-selected),
//! 3. keep the nominees whose substantial influence prefers the *current*
//!    promotion `t` over `t + 1`; defer the rest.
//!
//! For the last promotion `T` the remaining budget is spent greedily.
//!
//! Nominee re-selection is generic over [`crate::oracle::SpreadOracle`]:
//! [`adaptive_dysim_with_oracle`] — the loop primitive the `imdpp-engine`
//! `Engine::adaptive` method drives — accepts any [`RefreshableOracle`], in
//! particular the RR-sketch oracle of `imdpp-sketch`, which *refreshes*
//! between rounds (re-sampling only the RR sets a scenario update could
//! have touched) instead of being rebuilt.  The world may drift between
//! promotions: pass one [`ScenarioUpdate`] per inter-round gap and the loop
//! applies it to the instance and hands it to the oracle.

use crate::dysim::DysimConfig;
use crate::eval::Evaluator;
use crate::market::TargetMarket;
use crate::nominees::{select_nominees_with_oracle, NomineeSelectionConfig};
use crate::oracle::{RefreshableOracle, ScenarioUpdate};
use crate::problem::ImdppInstance;
use crate::tdsi::substantial_influence;
use imdpp_diffusion::{Seed, SeedGroup};

/// Result of an adaptive Dysim run.
#[derive(Clone, Debug, Default)]
pub struct AdaptiveReport {
    /// The committed seed group (union over all promotions).
    pub seeds: SeedGroup,
    /// Budget actually spent.
    pub spent: f64,
    /// Seeds committed per promotion (index 0 = promotion 1).
    pub per_promotion: Vec<usize>,
    /// For every *consumed* drift entry (index `i` = the update between
    /// promotions `i + 1` and `i + 2`): the fraction of the oracle's
    /// internal state that had to be recomputed — `0.0` for an empty
    /// update, `1.0` for a full rebuild; sketch-backed oracles report
    /// their resample fraction.
    pub refresh_fractions: Vec<f64>,
}

/// Runs the adaptive Dysim loop with `oracle` answering the static `f(N)`
/// queries of per-round nominee re-selection, over a world that may drift
/// between promotions.
///
/// `drift[i]` is applied between promotion `i + 1` and promotion `i + 2`
/// (a campaign of `T` promotions consumes at most `T - 1` updates; extra
/// entries are ignored).  Before planning the affected round the loop
/// applies the update to the instance's scenario and calls
/// [`RefreshableOracle::refresh`], so a sketch-backed oracle re-samples
/// only what the update could have touched; the per-update recomputed
/// fractions are reported in [`AdaptiveReport::refresh_fractions`].
///
/// The substantial-influence timing test and the final spread bookkeeping
/// always use Monte-Carlo (they query dynamic quantities outside the static
/// oracle contract), evaluated against the *current* drifted scenario.
pub fn adaptive_dysim_with_oracle<O: RefreshableOracle>(
    instance: &ImdppInstance,
    config: &DysimConfig,
    drift: &[ScenarioUpdate],
    oracle: &mut O,
) -> AdaptiveReport {
    let total_promotions = instance.promotions();
    let mut current = instance.clone();
    let mut committed = SeedGroup::new();
    let mut spent = 0.0f64;
    let mut per_promotion = Vec::with_capacity(total_promotions as usize);
    let mut refresh_fractions = Vec::new();

    // The whole population acts as the market for SI scoring.
    let mut whole_market = whole_population_market(&current);

    for t in 1..=total_promotions {
        oracle.begin_round(t);
        // ---- Inter-round drift: update the world and refresh the oracle. ----
        if t >= 2 {
            if let Some(update) = drift.get(t as usize - 2) {
                if update.is_empty() {
                    // Keep indices aligned with `drift`: nothing to refresh.
                    refresh_fractions.push(0.0);
                } else {
                    let updated = update.apply(current.scenario());
                    let (stats, _touched) = oracle.refresh(&updated, update);
                    refresh_fractions.push(stats.resampled_fraction());
                    current = current
                        .with_scenario(updated)
                        .expect("scenario updates preserve instance dimensions");
                    // Only edge updates can change the topology (and hence
                    // the hop diameter) behind the SI-scoring market.
                    if matches!(update, ScenarioUpdate::Edges(_)) {
                        whole_market = whole_population_market(&current);
                    }
                }
            }
        }

        let remaining_budget = current.budget() - spent;
        if remaining_budget <= 0.0 {
            per_promotion.push(0);
            continue;
        }
        // Re-plan with the remaining budget.
        let stage_instance = current.with_budget(remaining_budget);
        let universe = stage_instance.nominee_universe(config.candidate_users);
        // Drop nominees already committed at an earlier promotion.
        let universe: Vec<_> = universe
            .into_iter()
            .filter(|&(u, x)| !committed.contains_nominee(u, x))
            .collect();
        let selection = select_nominees_with_oracle(
            &stage_instance,
            &*oracle,
            &universe,
            &NomineeSelectionConfig {
                max_nominees: config.max_nominees,
            },
        );

        let mut committed_this_round = 0usize;
        if t == total_promotions {
            // Final promotion: spend whatever remains greedily at timing T.
            for &(u, x) in &selection.nominees {
                let cost = current.cost(u, x);
                if cost <= current.budget() - spent {
                    committed.insert(Seed::new(u, x, t));
                    spent += cost;
                    committed_this_round += 1;
                }
            }
        } else {
            // Keep only the nominees that prefer the current promotion over
            // the next one under substantial influence.
            let eval_full = Evaluator::new(
                &current,
                config.mc_samples,
                config.base_seed.wrapping_add(t as u64),
            );
            let users = &whole_market.users;
            let baseline = eval_full.market_estimate(&committed, users);
            for &(u, x) in &selection.nominees {
                let cost = current.cost(u, x);
                if cost > current.budget() - spent {
                    continue;
                }
                let (now, later) = (Seed::new(u, x, t), Seed::new(u, x, t + 1));
                let measured = eval_full.candidate_estimates(&committed, &[now, later], users);
                let now = substantial_influence(now, measured[0], baseline, total_promotions);
                let later = substantial_influence(later, measured[1], baseline, total_promotions);
                if now.substantial_influence >= later.substantial_influence {
                    committed.insert(Seed::new(u, x, t));
                    spent += cost;
                    committed_this_round += 1;
                }
            }
        }
        per_promotion.push(committed_this_round);
    }

    AdaptiveReport {
        seeds: committed,
        spent,
        per_promotion,
        refresh_fractions,
    }
}

/// A [`TargetMarket`] holding the whole population — the scope used when
/// scoring substantial influence in the adaptive loop.
fn whole_population_market(instance: &ImdppInstance) -> TargetMarket {
    TargetMarket {
        index: 0,
        nominees: Vec::new(),
        users: instance.scenario().users().collect(),
        diameter: imdpp_graph::paths::graph_hop_diameter(instance.scenario().social().graph())
            .max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::MonteCarloOracle;
    use crate::problem::CostModel;
    use imdpp_diffusion::scenario::toy_scenario;
    use imdpp_graph::{EdgeUpdate, ItemId, UserId};

    fn instance(budget: f64, promotions: u32) -> ImdppInstance {
        let scenario = toy_scenario();
        let costs = CostModel::uniform(scenario.user_count(), scenario.item_count(), 1.0);
        ImdppInstance::new(scenario, costs, budget, promotions).unwrap()
    }

    /// The static-world Monte-Carlo loop (the paper's reference
    /// configuration).
    fn adaptive_mc(inst: &ImdppInstance, config: &DysimConfig) -> AdaptiveReport {
        let mut oracle =
            MonteCarloOracle::new(inst.scenario(), config.mc_samples, config.base_seed);
        adaptive_dysim_with_oracle(inst, config, &[], &mut oracle)
    }

    #[test]
    fn adaptive_respects_the_budget_without_preallocation() {
        let inst = instance(3.0, 3);
        let report = adaptive_mc(&inst, &DysimConfig::fast());
        assert!(report.spent <= inst.budget() + 1e-9);
        assert!(inst.is_feasible(&report.seeds));
        assert_eq!(report.per_promotion.len(), 3);
        assert!(report.refresh_fractions.is_empty());
    }

    #[test]
    fn adaptive_commits_at_least_one_seed_when_affordable() {
        let inst = instance(2.0, 2);
        let report = adaptive_mc(&inst, &DysimConfig::fast());
        assert!(!report.seeds.is_empty());
    }

    #[test]
    fn adaptive_never_commits_the_same_nominee_twice() {
        let inst = instance(4.0, 3);
        let report = adaptive_mc(&inst, &DysimConfig::fast());
        let mut nominees: Vec<_> = report
            .seeds
            .seeds()
            .iter()
            .map(|s| (s.user, s.item))
            .collect();
        let before = nominees.len();
        nominees.sort_unstable();
        nominees.dedup();
        assert_eq!(nominees.len(), before);
    }

    #[test]
    fn adaptive_seed_timings_are_within_horizon() {
        let inst = instance(4.0, 2);
        let report = adaptive_mc(&inst, &DysimConfig::fast());
        for s in report.seeds.seeds() {
            assert!(s.promotion >= 1 && s.promotion <= 2);
        }
    }

    #[test]
    fn zero_budget_leftover_stops_committing() {
        let inst = instance(1.0, 3);
        let report = adaptive_mc(&inst, &DysimConfig::fast());
        assert!(report.seeds.len() <= 1);
        assert!(report.spent <= 1.0 + 1e-9);
    }

    #[test]
    fn drift_is_applied_and_reported() {
        let inst = instance(4.0, 3);
        let cfg = DysimConfig::fast();
        let drift = vec![
            ScenarioUpdate::Preferences(vec![(UserId(1), ItemId(0), 0.9)]),
            ScenarioUpdate::Edges(vec![EdgeUpdate::Reweight {
                src: UserId(0),
                dst: UserId(1),
                weight: 0.9,
            }]),
        ];
        let mut oracle = MonteCarloOracle::new(inst.scenario(), cfg.mc_samples, cfg.base_seed);
        let report = adaptive_dysim_with_oracle(&inst, &cfg, &drift, &mut oracle);
        // One refresh per applied update, each a full MC "rebuild".
        assert_eq!(report.refresh_fractions, vec![1.0, 1.0]);
        assert!(inst.is_feasible(&report.seeds));
        // The oracle ends up estimating against the fully drifted world.
        assert_eq!(
            oracle.scenario().social().influence(UserId(0), UserId(1)),
            0.9
        );
        assert_eq!(oracle.scenario().base_preference(UserId(1), ItemId(0)), 0.9);
    }

    #[test]
    fn empty_drift_entries_keep_indices_aligned() {
        let inst = instance(3.0, 3);
        let cfg = DysimConfig::fast();
        let drift = vec![
            ScenarioUpdate::Edges(Vec::new()),
            ScenarioUpdate::Preferences(vec![(UserId(1), ItemId(0), 0.9)]),
        ];
        let mut oracle = MonteCarloOracle::new(inst.scenario(), cfg.mc_samples, cfg.base_seed);
        let report = adaptive_dysim_with_oracle(&inst, &cfg, &drift, &mut oracle);
        // One entry per consumed drift slot: the empty update refreshes
        // nothing, the real one is a full MC "rebuild".
        assert_eq!(report.refresh_fractions, vec![0.0, 1.0]);
    }
}
