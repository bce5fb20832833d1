//! Timing Determination by Substantial Influence (TDSI):
//! Eqs. (2), (11), (12) and the restricted timing-window search.
//!
//! For a candidate seed `(u, x_p, t)` under the current seed group `S_G`,
//! the substantial influence is
//!
//! ```text
//! SI = MA(S_G, (u, x_p, t)) + (T − t + 1) / T · ML(S_G, (u, x_p, t))
//! ```
//!
//! where the marginal adoption `MA` is the increase of the market-restricted
//! spread `σ_τ` and the marginal likelihood `ML` is the increase of the
//! future-adoption likelihood `π_τ` (Eq. 13).  TDSI only searches the two
//! timings `t ∈ [t̂, min(t̂ + 1, Σ_{i ≤ k} T_{τ_i})]` (Sec. IV-B justifies why
//! this restriction loses nothing).

use crate::eval::{Evaluator, MarketEstimate};
use crate::market::TargetMarket;
use crate::nominees::Nominee;
use imdpp_diffusion::{Seed, SeedGroup};

/// One scored candidate `(u, x_p, t)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoredCandidate {
    /// The candidate seed.
    pub seed: Seed,
    /// Its substantial influence under the current seed group.
    pub substantial_influence: f64,
    /// The marginal adoption component.
    pub marginal_adoption: f64,
    /// The marginal likelihood component (unweighted).
    pub marginal_likelihood: f64,
}

/// Computes the substantial influence of a candidate seed (Eq. 2) from the
/// market estimates of the current seed group (`baseline`) and of the group
/// extended by the candidate (`with`).
pub fn substantial_influence(
    candidate: Seed,
    with: MarketEstimate,
    baseline: MarketEstimate,
    total_promotions: u32,
) -> ScoredCandidate {
    let marginal_adoption = with.spread - baseline.spread;
    let marginal_likelihood = with.likelihood - baseline.likelihood;
    let t = candidate.promotion as f64;
    let horizon = total_promotions as f64;
    let weight = ((horizon - t + 1.0) / horizon).clamp(0.0, 1.0);
    ScoredCandidate {
        seed: candidate,
        substantial_influence: marginal_adoption + weight * marginal_likelihood,
        marginal_adoption,
        marginal_likelihood,
    }
}

/// The timing window TDSI searches for the next seed: `[t̂, min(t̂ + 1,
/// cumulative_duration)]`, clamped to `[1, total_promotions]`.
pub fn timing_window(
    seed_group: &SeedGroup,
    cumulative_duration: u32,
    total_promotions: u32,
) -> Vec<u32> {
    let t_hat = seed_group.latest_promotion().max(1);
    let upper = (t_hat + 1)
        .min(cumulative_duration.max(1))
        .min(total_promotions)
        .max(t_hat.min(total_promotions));
    (t_hat.min(total_promotions)..=upper).collect()
}

/// Assigns promotional timings to every nominee in `pending` (the `N_p` of
/// Algorithm 1, lines 16–28), extending `seed_group` in place.
///
/// `cumulative_duration` is `Σ_{i ≤ k} T_{τ_i}`, the last promotion this
/// market may use.  When `full_timing_search` is set, every timing in
/// `[t̂, total_promotions]` is examined instead of the two-slot window (used
/// by the ablation bench that validates the window restriction).
///
/// A round measures all its candidates in one Monte-Carlo pass.  Its
/// baseline is the current group, measured once; after that the current
/// group is the previous round's winning `with`, whose estimate the round
/// already measured.
#[allow(clippy::too_many_arguments)]
pub fn assign_timings(
    evaluator: &Evaluator<'_>,
    market: &TargetMarket,
    mut pending: Vec<Nominee>,
    seed_group: &mut SeedGroup,
    cumulative_duration: u32,
    total_promotions: u32,
    full_timing_search: bool,
) -> Vec<ScoredCandidate> {
    let mut placed = Vec::with_capacity(pending.len());
    // The estimate of the current group as measured — never rebuilt as
    // `baseline + marginal`, which can differ from it in the last ulp.
    let mut baseline: Option<MarketEstimate> = None;
    while !pending.is_empty() {
        let base = match baseline {
            Some(measured) => measured,
            None => evaluator.market_estimate(seed_group, &market.users),
        };
        let timings = if full_timing_search {
            let t_hat = seed_group.latest_promotion().max(1).min(total_promotions);
            (t_hat..=total_promotions).collect::<Vec<u32>>()
        } else {
            timing_window(seed_group, cumulative_duration, total_promotions)
        };
        let candidates: Vec<Seed> = pending
            .iter()
            .filter(|&&(u, x)| !seed_group.contains_nominee(u, x))
            .flat_map(|&(u, x)| timings.iter().map(move |&t| Seed::new(u, x, t)))
            .collect();
        let withs: Vec<SeedGroup> = candidates.iter().map(|&c| seed_group.with(c)).collect();
        let measured = evaluator.market_estimates(&withs, &market.users);
        // Candidates in nominee-then-timing order; a later one wins only
        // when strictly better.
        let mut best: Option<(ScoredCandidate, MarketEstimate)> = None;
        for (&candidate, &with) in candidates.iter().zip(&measured) {
            let scored = substantial_influence(candidate, with, base, total_promotions);
            let better = match &best {
                None => true,
                Some((b, _)) => scored.substantial_influence > b.substantial_influence,
            };
            if better {
                best = Some((scored, with));
            }
        }
        let Some((chosen, with)) = best else { break };
        seed_group.insert(chosen.seed);
        baseline = Some(with);
        pending.retain(|&(u, x)| !(u == chosen.seed.user && x == chosen.seed.item));
        placed.push(chosen);
    }
    placed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{CostModel, ImdppInstance};
    use imdpp_diffusion::scenario::toy_scenario;
    use imdpp_graph::{ItemId, UserId};

    fn instance() -> ImdppInstance {
        let scenario = toy_scenario();
        let costs = CostModel::uniform(scenario.user_count(), scenario.item_count(), 1.0);
        ImdppInstance::new(scenario, costs, 6.0, 4).unwrap()
    }

    fn whole_market(inst: &ImdppInstance) -> TargetMarket {
        TargetMarket {
            index: 0,
            nominees: vec![(UserId(0), ItemId(0)), (UserId(2), ItemId(1))],
            users: inst.scenario().users().collect(),
            diameter: 3,
        }
    }

    #[test]
    fn timing_window_starts_at_one_for_empty_group() {
        let g = SeedGroup::new();
        assert_eq!(timing_window(&g, 3, 5), vec![1, 2]);
        assert_eq!(timing_window(&g, 1, 5), vec![1]);
    }

    #[test]
    fn timing_window_follows_latest_seed() {
        let g = SeedGroup::from_seeds(vec![Seed::new(UserId(0), ItemId(0), 2)]);
        assert_eq!(timing_window(&g, 5, 5), vec![2, 3]);
        // Cumulative duration caps the upper end.
        assert_eq!(timing_window(&g, 2, 5), vec![2]);
        // Total promotions cap everything.
        let g5 = SeedGroup::from_seeds(vec![Seed::new(UserId(0), ItemId(0), 5)]);
        assert_eq!(timing_window(&g5, 9, 5), vec![5]);
    }

    #[test]
    fn substantial_influence_is_positive_for_a_useful_seed() {
        let inst = instance();
        let ev = Evaluator::new(&inst, 16, 1);
        let market = whole_market(&inst);
        let sg = SeedGroup::new();
        let candidate = Seed::new(UserId(0), ItemId(0), 1);
        let measured = ev.market_estimates(&[sg.clone(), sg.with(candidate)], &market.users);
        assert_eq!(measured[0], MarketEstimate::default());
        let scored = substantial_influence(candidate, measured[1], measured[0], inst.promotions());
        assert!(scored.marginal_adoption >= 1.0);
        assert!(scored.substantial_influence >= scored.marginal_adoption);
    }

    #[test]
    fn later_timing_discounts_the_likelihood_component() {
        let with = MarketEstimate {
            spread: 3.0,
            likelihood: 2.0,
        };
        let base = MarketEstimate {
            spread: 1.0,
            likelihood: 1.0,
        };
        let early = substantial_influence(Seed::new(UserId(0), ItemId(0), 1), with, base, 4);
        let late = substantial_influence(Seed::new(UserId(0), ItemId(0), 4), with, base, 4);
        assert_eq!(early.marginal_adoption, 2.0);
        assert_eq!(early.marginal_likelihood, 1.0);
        // The likelihood weight is (T - t + 1) / T: 1.0 at t=1, 0.25 at t=4.
        assert_eq!(early.substantial_influence, 3.0);
        assert_eq!(late.substantial_influence, 2.25);
    }

    #[test]
    fn assign_timings_places_every_nominee() {
        let inst = instance();
        let ev = Evaluator::new(&inst, 8, 3);
        let market = whole_market(&inst);
        let mut sg = SeedGroup::new();
        let placed = assign_timings(
            &ev,
            &market,
            vec![(UserId(0), ItemId(0)), (UserId(2), ItemId(1))],
            &mut sg,
            4,
            inst.promotions(),
            false,
        );
        assert_eq!(placed.len(), 2);
        assert_eq!(sg.len(), 2);
        // Timings must be non-decreasing in placement order and within range.
        for w in placed.windows(2) {
            assert!(w[1].seed.promotion >= w[0].seed.promotion);
        }
        for s in sg.seeds() {
            assert!(s.promotion >= 1 && s.promotion <= inst.promotions());
        }
    }

    #[test]
    fn assign_timings_with_existing_seed_group_respects_t_hat() {
        let inst = instance();
        let ev = Evaluator::new(&inst, 8, 4);
        let market = whole_market(&inst);
        let mut sg = SeedGroup::from_seeds(vec![Seed::new(UserId(1), ItemId(2), 2)]);
        let placed = assign_timings(
            &ev,
            &market,
            vec![(UserId(0), ItemId(0))],
            &mut sg,
            4,
            inst.promotions(),
            false,
        );
        assert_eq!(placed.len(), 1);
        assert!(placed[0].seed.promotion >= 2);
    }

    #[test]
    fn full_timing_search_agrees_with_window_on_small_instance() {
        let inst = instance();
        let market = whole_market(&inst);
        let run = |full: bool| {
            let ev = Evaluator::new(&inst, 16, 5);
            let mut sg = SeedGroup::new();
            assign_timings(
                &ev,
                &market,
                vec![(UserId(0), ItemId(0))],
                &mut sg,
                inst.promotions(),
                inst.promotions(),
                full,
            );
            sg
        };
        let windowed = run(false);
        let full = run(true);
        // On this tiny instance the windowed search places the single seed in
        // promotion 1 or 2; the full search must not do better than the
        // windowed search by more than Monte-Carlo noise.
        let ev = Evaluator::new(&inst, 64, 6);
        let s_win = ev.spread(&windowed);
        let s_full = ev.spread(&full);
        assert!(s_win + 0.5 >= s_full, "window {s_win} vs full {s_full}");
    }

    #[test]
    fn nominees_already_in_group_are_skipped() {
        let inst = instance();
        let ev = Evaluator::new(&inst, 8, 7);
        let market = whole_market(&inst);
        let mut sg = SeedGroup::from_seeds(vec![Seed::new(UserId(0), ItemId(0), 1)]);
        let placed = assign_timings(
            &ev,
            &market,
            vec![(UserId(0), ItemId(0))],
            &mut sg,
            4,
            inst.promotions(),
            false,
        );
        assert!(placed.is_empty());
        assert_eq!(sg.len(), 1);
    }
}
