//! Promoting-order metrics for target markets within a group `G`
//! (Sec. IV-B and the Sec. VI-D comparison): Antagonistic Extent (AE),
//! Profitability (PF), market Size (SZ), Relative Market Share (RMS) and a
//! Random baseline (RD).

use crate::eval::Evaluator;
use crate::market::{average_relevance_over_population, TargetMarket};
use crate::problem::ImdppInstance;
use imdpp_graph::ItemId;
use imdpp_kg::RelationKind;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The metric used to order the target markets of a group.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MarketOrdering {
    /// Antagonistic Extent: markets whose items are *less* substitutable to
    /// the other markets' items are promoted earlier (ascending AE).  The
    /// paper's default.
    #[default]
    AntagonisticExtent,
    /// Profitability: expected adoptions of the market's nominees minus their
    /// cost; larger first.
    Profitability,
    /// Market size (number of users); larger first.
    Size,
    /// Relative market share of the promoted items; larger first.
    RelativeMarketShare,
    /// Random order (baseline).
    Random,
}

impl MarketOrdering {
    /// Short name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            MarketOrdering::AntagonisticExtent => "AE",
            MarketOrdering::Profitability => "PF",
            MarketOrdering::Size => "SZ",
            MarketOrdering::RelativeMarketShare => "RMS",
            MarketOrdering::Random => "RD",
        }
    }

    /// All ordering metrics (the series of Fig. 11).
    pub fn all() -> [MarketOrdering; 5] {
        [
            MarketOrdering::AntagonisticExtent,
            MarketOrdering::Profitability,
            MarketOrdering::Size,
            MarketOrdering::RelativeMarketShare,
            MarketOrdering::Random,
        ]
    }
}

/// Antagonistic Extent of market `i` within its group: the total average
/// substitutable relevance between the items it promotes and the items the
/// other markets of the group promote.
pub fn antagonistic_extent(
    instance: &ImdppInstance,
    markets: &[TargetMarket],
    group: &[usize],
    market: usize,
) -> f64 {
    let perception = instance.scenario().initial_perception();
    let my_items = markets[market].items();
    let mut ae = 0.0;
    for &other in group {
        if other == market {
            continue;
        }
        for &x in &my_items {
            for y in markets[other].items() {
                if x == y {
                    continue;
                }
                ae += average_relevance_over_population(
                    perception,
                    64,
                    x,
                    y,
                    RelationKind::Substitutable,
                );
            }
        }
    }
    ae
}

/// Profitability of a market: the static expected spread of its nominees
/// minus their total hiring cost.
pub fn profitability(
    instance: &ImdppInstance,
    evaluator: &Evaluator<'_>,
    market: &TargetMarket,
) -> f64 {
    let spread = evaluator.static_first_promotion_spread(&market.nominees);
    let cost: f64 = market
        .nominees
        .iter()
        .map(|&(u, x)| instance.cost(u, x))
        .sum();
    spread - cost
}

/// Relative market share of the items a market promotes: for each item, the
/// share of users preferring it most among itself and its substitutes,
/// divided by the largest substitute share; averaged over the market's items.
pub fn relative_market_share(instance: &ImdppInstance, market: &TargetMarket) -> f64 {
    let scenario = instance.scenario();
    let perception = scenario.initial_perception();
    let items = market.items();
    if items.is_empty() {
        return 0.0;
    }
    let share_of = |item: ItemId| -> f64 {
        scenario
            .users()
            .map(|u| scenario.base_preference(u, item))
            .sum::<f64>()
    };
    let mut total = 0.0;
    for &x in &items {
        let substitutes: Vec<ItemId> = scenario
            .items()
            .filter(|&y| {
                y != x
                    && average_relevance_over_population(
                        perception,
                        64,
                        x,
                        y,
                        RelationKind::Substitutable,
                    ) > 0.0
            })
            .collect();
        let own = share_of(x);
        let best_rival = substitutes
            .iter()
            .map(|&y| share_of(y))
            .fold(0.0f64, f64::max);
        total += if best_rival <= 0.0 {
            1.0
        } else {
            own / best_rival
        };
    }
    total / items.len() as f64
}

/// Orders the markets of a group according to the chosen metric; returns the
/// group's market indices in promoting order.
pub fn order_group(
    instance: &ImdppInstance,
    evaluator: &Evaluator<'_>,
    markets: &[TargetMarket],
    group: &[usize],
    ordering: MarketOrdering,
    seed: u64,
) -> Vec<usize> {
    let mut order: Vec<usize> = group.to_vec();
    match ordering {
        MarketOrdering::AntagonisticExtent => {
            let mut keyed: Vec<(f64, usize)> = order
                .iter()
                .map(|&i| (antagonistic_extent(instance, markets, group, i), i))
                .collect();
            keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
            order = keyed.into_iter().map(|(_, i)| i).collect();
        }
        MarketOrdering::Profitability => {
            let mut keyed: Vec<(f64, usize)> = order
                .iter()
                .map(|&i| (profitability(instance, evaluator, &markets[i]), i))
                .collect();
            keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
            order = keyed.into_iter().map(|(_, i)| i).collect();
        }
        MarketOrdering::Size => {
            order.sort_by_key(|&i| std::cmp::Reverse(markets[i].users.len()));
        }
        MarketOrdering::RelativeMarketShare => {
            let mut keyed: Vec<(f64, usize)> = order
                .iter()
                .map(|&i| (relative_market_share(instance, &markets[i]), i))
                .collect();
            keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
            order = keyed.into_iter().map(|(_, i)| i).collect();
        }
        MarketOrdering::Random => {
            let mut rng = StdRng::seed_from_u64(seed);
            order.shuffle(&mut rng);
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::CostModel;
    use imdpp_diffusion::scenario::toy_scenario;
    use imdpp_graph::UserId;

    fn instance() -> ImdppInstance {
        let scenario = toy_scenario();
        let costs = CostModel::uniform(scenario.user_count(), scenario.item_count(), 1.0);
        ImdppInstance::new(scenario, costs, 4.0, 3).unwrap()
    }

    fn market(index: usize, nominees: Vec<(UserId, ItemId)>, users: Vec<UserId>) -> TargetMarket {
        TargetMarket {
            index,
            nominees,
            users,
            diameter: 2,
        }
    }

    fn two_markets() -> Vec<TargetMarket> {
        vec![
            market(
                0,
                vec![(UserId(0), ItemId(0))],
                vec![UserId(0), UserId(1), UserId(2)],
            ),
            market(1, vec![(UserId(2), ItemId(1))], vec![UserId(2), UserId(4)]),
        ]
    }

    #[test]
    fn ordering_names_and_all() {
        assert_eq!(MarketOrdering::AntagonisticExtent.name(), "AE");
        assert_eq!(MarketOrdering::all().len(), 5);
        assert_eq!(
            MarketOrdering::default(),
            MarketOrdering::AntagonisticExtent
        );
    }

    #[test]
    fn antagonistic_extent_is_zero_without_substitutes() {
        // The Fig. 1 KG defines no substitutable relations, so AE must be 0.
        let inst = instance();
        let markets = two_markets();
        let ae = antagonistic_extent(&inst, &markets, &[0, 1], 0);
        assert_eq!(ae, 0.0);
    }

    #[test]
    fn profitability_decreases_with_cost() {
        let inst = instance();
        let ev = Evaluator::new(&inst, 16, 1);
        let m = &two_markets()[0];
        let pf = profitability(&inst, &ev, m);
        // Spread of one nominee is at least 1.0 (the seed itself), cost is 1.0.
        assert!(pf >= 0.0);
        // A pricier cost model lowers profitability.
        let scenario = toy_scenario();
        let costs = CostModel::uniform(scenario.user_count(), scenario.item_count(), 5.0);
        let pricey = ImdppInstance::new(scenario, costs, 20.0, 3).unwrap();
        let ev2 = Evaluator::new(&pricey, 16, 1);
        assert!(profitability(&pricey, &ev2, m) < pf);
    }

    #[test]
    fn relative_market_share_defaults_to_one_without_substitutes() {
        let inst = instance();
        let m = &two_markets()[0];
        assert!((relative_market_share(&inst, m) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn size_ordering_puts_bigger_market_first() {
        let inst = instance();
        let ev = Evaluator::new(&inst, 8, 1);
        let markets = two_markets();
        let order = order_group(&inst, &ev, &markets, &[0, 1], MarketOrdering::Size, 7);
        assert_eq!(order[0], 0);
    }

    #[test]
    fn random_ordering_is_a_permutation() {
        let inst = instance();
        let ev = Evaluator::new(&inst, 8, 1);
        let markets = two_markets();
        let order = order_group(&inst, &ev, &markets, &[0, 1], MarketOrdering::Random, 3);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1]);
    }

    #[test]
    fn every_ordering_returns_all_markets() {
        let inst = instance();
        let ev = Evaluator::new(&inst, 8, 1);
        let markets = two_markets();
        for ordering in MarketOrdering::all() {
            let order = order_group(&inst, &ev, &markets, &[0, 1], ordering, 11);
            assert_eq!(order.len(), 2, "{}", ordering.name());
        }
    }
}
