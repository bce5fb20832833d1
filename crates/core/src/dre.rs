//! Dynamic Reachability Evaluation (DRE): the proactive / reactive item
//! impact recursion of Eqs. (1), (9) and (10).
//!
//! For a target market `τ` and the seed group `S_G` chosen so far, the
//! *dynamic reachability* of an item `x` is
//!
//! ```text
//! DR(x) = PI(x, d_τ) + RI(x, d_τ)
//! ```
//!
//! where the proactive impact `PI` measures how strongly promoting `x` would
//! raise the market's preferences for other items, the reactive impact `RI`
//! measures how strongly the items already promoted raise the market's
//! preference for `x`, and `d_τ` is the market's hop diameter.  Both are
//! computed from the market's *expected* perceptions after the campaign of
//! `S_G` (the Monte-Carlo expectation of Fig. 6(c)).

use crate::market::TargetMarket;
use imdpp_graph::{ItemId, UserId};
use imdpp_kg::{ItemCatalog, PersonalPerception};
use std::collections::HashMap;

/// Item-impact model over a target market: average complementary /
/// substitutable relevances between items, as perceived (in expectation) by
/// the market's users.
#[derive(Clone, Debug)]
pub struct ItemImpactModel {
    /// Average complementary relevance per (unordered) item pair.
    avg_complementary: HashMap<(u32, u32), f64>,
    /// Average substitutable relevance per (unordered) item pair.
    avg_substitutable: HashMap<(u32, u32), f64>,
    /// Adjacency: items related to each item (union over both kinds).
    related: HashMap<u32, Vec<ItemId>>,
}

/// Most market members [`ItemImpactModel::new`] averages relevance over.
const IMPACT_USER_CAP: usize = 64;

fn pair_key(x: ItemId, y: ItemId) -> (u32, u32) {
    if x.0 < y.0 {
        (x.0, y.0)
    } else {
        (y.0, x.0)
    }
}

impl ItemImpactModel {
    /// Builds the impact model for a market from (expected) perceptions.
    ///
    /// `users` is capped at `IMPACT_USER_CAP` (64) evenly-spaced members to
    /// keep the cost bounded on very large markets.
    pub fn new(perception: &PersonalPerception, users: &[UserId]) -> Self {
        let sampled: Vec<UserId> = if users.len() <= IMPACT_USER_CAP {
            users.to_vec()
        } else {
            let step = users.len() / IMPACT_USER_CAP;
            users.iter().step_by(step).copied().collect()
        };
        let model = perception.model().clone();
        let mut avg_c = HashMap::new();
        let mut avg_s = HashMap::new();
        let mut related: HashMap<u32, Vec<ItemId>> = HashMap::new();
        for x_idx in 0..model.item_count() {
            let x = ItemId(x_idx as u32);
            let neighbours = model.related_items(x);
            if neighbours.is_empty() {
                continue;
            }
            related.insert(x.0, neighbours.to_vec());
            for &y in neighbours {
                let key = pair_key(x, y);
                if avg_c.contains_key(&key) {
                    continue;
                }
                let (mut c_sum, mut s_sum) = (0.0, 0.0);
                for &u in &sampled {
                    c_sum += perception.complementary(u, x, y);
                    s_sum += perception.substitutable(u, x, y);
                }
                let n = sampled.len().max(1) as f64;
                avg_c.insert(key, c_sum / n);
                avg_s.insert(key, s_sum / n);
            }
        }
        ItemImpactModel {
            avg_complementary: avg_c,
            avg_substitutable: avg_s,
            related,
        }
    }

    /// Average complementary relevance `r̄C_{x,y}` over the market.
    pub fn complementary(&self, x: ItemId, y: ItemId) -> f64 {
        *self.avg_complementary.get(&pair_key(x, y)).unwrap_or(&0.0)
    }

    /// Average substitutable relevance `r̄S_{x,y}` over the market.
    pub fn substitutable(&self, x: ItemId, y: ItemId) -> f64 {
        *self.avg_substitutable.get(&pair_key(x, y)).unwrap_or(&0.0)
    }

    /// Likelihood of the market regarding `x` and `y` as complementary
    /// (`L_C`, Sec. V-B): the complementary share of the total relevance.
    pub fn complementary_likelihood(&self, x: ItemId, y: ItemId) -> f64 {
        let c = self.complementary(x, y);
        let s = self.substitutable(x, y);
        if c + s <= 0.0 {
            0.0
        } else {
            c / (c + s)
        }
    }

    /// Likelihood of the market regarding `x` and `y` as substitutable (`L_S`).
    pub fn substitutable_likelihood(&self, x: ItemId, y: ItemId) -> f64 {
        let c = self.complementary(x, y);
        let s = self.substitutable(x, y);
        if c + s <= 0.0 {
            0.0
        } else {
            s / (c + s)
        }
    }

    /// Items related to `x` (either kind of relevance positive).
    pub fn related_items(&self, x: ItemId) -> &[ItemId] {
        self.related.get(&x.0).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Proactive impact `PI_{W,τ}(S_G, x, d)` (Eq. 9): the propensity of `x`
    /// to raise the market's preferences for other items, propagated up to
    /// `d` hops through the item network.
    pub fn proactive_impact(&self, catalog: &ItemCatalog, x: ItemId, depth: u32) -> f64 {
        let mut memo = HashMap::new();
        self.proactive_rec(catalog, x, depth, &mut memo)
    }

    fn proactive_rec(
        &self,
        catalog: &ItemCatalog,
        x: ItemId,
        depth: u32,
        memo: &mut HashMap<(u32, u32), f64>,
    ) -> f64 {
        if depth == 0 {
            return 0.0;
        }
        if let Some(&v) = memo.get(&(x.0, depth)) {
            return v;
        }
        let mut total = 0.0;
        for &y in self.related_items(x) {
            let w_y = catalog.importance(y);
            total += self.complementary_likelihood(x, y) * self.complementary(x, y) * w_y
                - self.substitutable_likelihood(x, y) * self.substitutable(x, y) * w_y
                + self.proactive_rec(catalog, y, depth - 1, memo);
        }
        memo.insert((x.0, depth), total);
        total
    }

    /// Reactive impact `RI_{w_x,τ}(S_G, x, d)` (Eq. 10): the propensity of the
    /// items already promoted (`promoted`) to raise the market's preference
    /// for `x`, propagated up to `d` hops.
    ///
    /// Only impact chains that originate at a previously promoted item
    /// contribute; when nothing has been promoted yet the reactive impact is
    /// zero.
    pub fn reactive_impact(
        &self,
        catalog: &ItemCatalog,
        x: ItemId,
        promoted: &[ItemId],
        depth: u32,
    ) -> f64 {
        if promoted.is_empty() {
            return 0.0;
        }
        let w_x = catalog.importance(x);
        let promoted_set: std::collections::HashSet<u32> = promoted.iter().map(|i| i.0).collect();
        let mut memo = HashMap::new();
        self.reactive_rec(x, w_x, x, &promoted_set, depth, &mut memo)
    }

    fn reactive_rec(
        &self,
        target: ItemId,
        w_x: f64,
        current: ItemId,
        promoted: &std::collections::HashSet<u32>,
        depth: u32,
        memo: &mut HashMap<(u32, u32), f64>,
    ) -> f64 {
        if depth == 0 {
            return 0.0;
        }
        if let Some(&v) = memo.get(&(current.0, depth)) {
            return v;
        }
        let mut total = 0.0;
        for &z in self.related_items(current) {
            if z == target {
                continue;
            }
            // Direct contribution only from items that have been promoted.
            if promoted.contains(&z.0) {
                total += self.complementary_likelihood(z, current)
                    * self.complementary(z, current)
                    * w_x
                    - self.substitutable_likelihood(z, current)
                        * self.substitutable(z, current)
                        * w_x;
            }
            total += self.reactive_rec(target, w_x, z, promoted, depth - 1, memo);
        }
        memo.insert((current.0, depth), total);
        total
    }

    /// Dynamic reachability `DR(x) = PI(x, d) + RI(x, d)` (Eq. 1).
    pub fn dynamic_reachability(
        &self,
        catalog: &ItemCatalog,
        x: ItemId,
        promoted: &[ItemId],
        depth: u32,
    ) -> f64 {
        self.proactive_impact(catalog, x, depth) + self.reactive_impact(catalog, x, promoted, depth)
    }
}

/// Picks the not-yet-promoted item of a target market with the highest
/// dynamic reachability.  Returns `None` when `candidates` is empty.
pub fn best_item_by_reachability(
    impact: &ItemImpactModel,
    catalog: &ItemCatalog,
    market: &TargetMarket,
    candidates: &[ItemId],
    promoted: &[ItemId],
) -> Option<ItemId> {
    candidates
        .iter()
        .copied()
        .map(|x| {
            (
                x,
                impact.dynamic_reachability(catalog, x, promoted, market.diameter),
            )
        })
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(b.0 .0.cmp(&a.0 .0)))
        .map(|(x, _)| x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imdpp_diffusion::scenario::toy_scenario;

    fn impact_model() -> (ItemImpactModel, ItemCatalog) {
        let scenario = toy_scenario();
        let users: Vec<UserId> = scenario.users().collect();
        let model = ItemImpactModel::new(scenario.initial_perception(), &users);
        (model, scenario.catalog().clone())
    }

    #[test]
    fn averages_match_uniform_perception() {
        let scenario = toy_scenario();
        let users: Vec<UserId> = scenario.users().collect();
        let m = ItemImpactModel::new(scenario.initial_perception(), &users);
        let direct = scenario
            .initial_perception()
            .complementary(UserId(0), ItemId(0), ItemId(1));
        assert!((m.complementary(ItemId(0), ItemId(1)) - direct).abs() < 1e-12);
    }

    #[test]
    fn likelihoods_are_normalised() {
        let (m, _) = impact_model();
        let lc = m.complementary_likelihood(ItemId(0), ItemId(1));
        let ls = m.substitutable_likelihood(ItemId(0), ItemId(1));
        assert!((lc + ls - 1.0).abs() < 1e-9 || (lc == 0.0 && ls == 0.0));
        // The Fig.1 KG has no substitutable relations: LC must dominate.
        assert!(lc > 0.9);
    }

    #[test]
    fn unrelated_pairs_have_zero_impact_terms() {
        let (m, _) = impact_model();
        // AirPods (1) and cable (3) share nothing in the Fig. 1 KG.
        assert_eq!(m.complementary(ItemId(1), ItemId(3)), 0.0);
        assert_eq!(m.complementary_likelihood(ItemId(1), ItemId(3)), 0.0);
    }

    #[test]
    fn proactive_impact_is_zero_at_depth_zero() {
        let (m, catalog) = impact_model();
        assert_eq!(m.proactive_impact(&catalog, ItemId(0), 0), 0.0);
    }

    #[test]
    fn proactive_impact_grows_with_depth() {
        let (m, catalog) = impact_model();
        let d1 = m.proactive_impact(&catalog, ItemId(0), 1);
        let d2 = m.proactive_impact(&catalog, ItemId(0), 2);
        assert!(d1 > 0.0);
        assert!(d2 >= d1);
    }

    #[test]
    fn reactive_impact_requires_promoted_items() {
        let (m, catalog) = impact_model();
        assert_eq!(m.reactive_impact(&catalog, ItemId(1), &[], 3), 0.0);
        let with_promoted = m.reactive_impact(&catalog, ItemId(1), &[ItemId(0)], 3);
        assert!(with_promoted > 0.0);
    }

    #[test]
    fn central_item_has_highest_reachability() {
        // In the Fig. 1 KG the iPhone is connected (complementarily) to all
        // three other items, so its proactive impact dominates.
        let (m, catalog) = impact_model();
        let dr_iphone = m.dynamic_reachability(&catalog, ItemId(0), &[], 2);
        let dr_cable = m.dynamic_reachability(&catalog, ItemId(3), &[], 2);
        assert!(dr_iphone > dr_cable);
    }

    #[test]
    fn best_item_selection_prefers_highest_dr() {
        let scenario = toy_scenario();
        let users: Vec<UserId> = scenario.users().collect();
        let m = ItemImpactModel::new(scenario.initial_perception(), &users);
        let market = TargetMarket {
            index: 0,
            nominees: vec![(UserId(0), ItemId(0)), (UserId(1), ItemId(3))],
            users: users.clone(),
            diameter: 2,
        };
        let best = best_item_by_reachability(
            &m,
            scenario.catalog(),
            &market,
            &[ItemId(0), ItemId(3)],
            &[],
        );
        assert_eq!(best, Some(ItemId(0)));
        assert_eq!(
            best_item_by_reachability(&m, scenario.catalog(), &market, &[], &[]),
            None
        );
    }

    #[test]
    fn promoted_complements_increase_reachability() {
        let (m, catalog) = impact_model();
        let without = m.dynamic_reachability(&catalog, ItemId(2), &[], 2);
        let with = m.dynamic_reachability(&catalog, ItemId(2), &[ItemId(0)], 2);
        assert!(with > without);
    }
}
