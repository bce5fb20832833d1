//! Nominee selection by marginal cost-performance ratio (Procedure 2 of the
//! paper, `selectNominees`), with CELF-style lazy re-evaluation.
//!
//! A *nominee* is a `(user, item)` pair that may later be turned into a seed
//! `(user, item, t)` by TDSI.  TMI selects nominees greedily by the marginal
//! cost-performance ratio
//!
//! ```text
//! MCP(u, x | N) = (f(N ∪ {(u,x)}) − f(N)) / c_{u,x}
//! ```
//!
//! where `f` is the static first-promotion spread.  Because `f` is
//! submodular under static probabilities (Lemma 1), stale marginal gains
//! upper-bound fresh ones, so the classic CELF lazy evaluation applies and
//! drastically reduces the number of spread estimations.
//!
//! Every `f(N)` query goes through a [`crate::oracle::SpreadOracle`]: the
//! forward Monte-Carlo [`Evaluator`] (the paper's reference, used by
//! [`select_nominees`]) or the RR-sketch oracle of `imdpp-sketch`
//! (via [`select_nominees_with_oracle`]), which answers each query from an
//! amortized coverage scan instead of fresh simulations.

use crate::eval::Evaluator;
use crate::oracle::SpreadOracle;
use crate::problem::ImdppInstance;
use imdpp_graph::{ItemId, UserId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A `(user, item)` pair considered for seeding.
pub type Nominee = (UserId, ItemId);

/// Configuration of the nominee-selection procedure.
#[derive(Clone, Copy, Debug)]
pub struct NomineeSelectionConfig {
    /// Hard cap on the number of nominees selected (`None` = budget-limited
    /// only).
    pub max_nominees: Option<usize>,
    /// Stop as soon as the best available marginal gain is non-positive.
    pub stop_on_nonpositive_gain: bool,
}

impl Default for NomineeSelectionConfig {
    fn default() -> Self {
        NomineeSelectionConfig {
            max_nominees: None,
            stop_on_nonpositive_gain: true,
        }
    }
}

#[derive(Debug)]
struct HeapEntry {
    ratio: f64,
    gain: f64,
    /// `f(N ∪ {nominee})` at evaluation time.  Installed as the running
    /// objective on acceptance so the selection state is always the exact
    /// oracle value of the selected set — never an accumulated sum of
    /// gains — which is what lets a prefix re-run reproduce the tail bit
    /// for bit (see [`select_nominees_with_prefix`]).
    value_with: f64,
    nominee: Nominee,
    /// The |N| at which `ratio` was last computed (CELF staleness marker).
    evaluated_at: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.ratio == other.ratio && self.nominee == other.nominee
    }
}
impl Eq for HeapEntry {}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.ratio
            .partial_cmp(&other.ratio)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.nominee.0 .0.cmp(&self.nominee.0 .0))
            .then_with(|| other.nominee.1 .0.cmp(&self.nominee.1 .0))
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Result of nominee selection.
#[derive(Clone, Debug, Default)]
pub struct NomineeSelection {
    /// The selected nominees in selection order.
    pub nominees: Vec<Nominee>,
    /// The total cost of the selected nominees.
    pub total_cost: f64,
    /// The static objective value `f(N)` of the selected set.
    pub objective: f64,
    /// How many `f(N)` queries were answered, the final objective
    /// included (for the CELF-vs-plain bench).
    pub evaluations: usize,
    /// How many oracle calls answered them: a batched wave of independent
    /// queries is one call ([`SpreadOracle::static_spread_batch`]).
    pub oracle_calls: usize,
}

/// Runs MCP nominee selection over the given universe with the forward
/// Monte-Carlo estimator (the paper's reference configuration); a shorthand
/// for [`select_nominees_with_oracle`] with the evaluator as the oracle.
///
/// `universe` is typically [`crate::problem::ImdppInstance::nominee_universe`].
pub fn select_nominees(
    evaluator: &Evaluator<'_>,
    universe: &[Nominee],
    config: &NomineeSelectionConfig,
) -> NomineeSelection {
    select_nominees_with_oracle(evaluator.instance(), evaluator, universe, config)
}

/// Runs MCP nominee selection with an arbitrary [`SpreadOracle`] estimating
/// the static objective `f(N)` — forward Monte-Carlo
/// ([`crate::eval::Evaluator`]) or the RR-sketch oracle of `imdpp-sketch`.
pub fn select_nominees_with_oracle(
    instance: &ImdppInstance,
    oracle: &dyn SpreadOracle,
    universe: &[Nominee],
    config: &NomineeSelectionConfig,
) -> NomineeSelection {
    select_nominees_with_prefix(instance, oracle, universe, config, &[])
}

/// MCP nominee selection that continues from an already-committed `prefix`:
/// the prefix nominees are adopted verbatim (in order, with their costs
/// charged against the budget) and the CELF loop greedily extends them from
/// `universe` exactly as [`select_nominees_with_oracle`] would have, had it
/// reached the same state.  With an empty prefix this *is*
/// [`select_nominees_with_oracle`] — bit for bit, including the evaluation
/// schedule.
///
/// This is the repair primitive of the engine's maintained solutions: when
/// an update invalidates the greedy trace at position `p`, re-running
/// selection with `prefix = nominees[..p]` recomputes only the tail.
///
/// Prefix nominees are excluded from the candidate pool; the prefix is
/// assumed affordable (it was selected under the same budget).
///
/// The initial gains do not depend on one another, so they are measured
/// in one [`SpreadOracle::static_spread_batch`] call over `prefix ∪ {c}`
/// for every affordable candidate `c`, and pushed in universe order.
/// Stale re-evaluations stay single exact queries: each depends on the
/// nominee accepted before it.
pub fn select_nominees_with_prefix(
    instance: &ImdppInstance,
    oracle: &dyn SpreadOracle,
    universe: &[Nominee],
    config: &NomineeSelectionConfig,
    prefix: &[Nominee],
) -> NomineeSelection {
    let budget = instance.budget();
    let mut selected: Vec<Nominee> = prefix.to_vec();
    // lint: allow(float-accum) — folds over the prefix in its recorded
    // order, so the sum is bit-stable for a given prefix.
    let mut spent: f64 = prefix.iter().map(|&(u, x)| instance.cost(u, x)).sum();
    let mut queries = QueryCount::default();
    let mut current_value = if selected.is_empty() {
        0.0
    } else {
        queries.single(oracle, &selected)
    };

    // Initial gains: marginal with respect to the (possibly empty) prefix.
    let candidates: Vec<Nominee> = universe
        .iter()
        .copied()
        .filter(|&(u, x)| !selected.contains(&(u, x)) && instance.cost(u, x) <= budget)
        .collect();
    let values = queries.wave(oracle, &selected, &candidates);
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(candidates.len());
    for (&(u, x), value_with) in candidates.iter().zip(values) {
        let gain = value_with - current_value;
        heap.push(HeapEntry {
            ratio: gain / instance.cost(u, x),
            gain,
            value_with,
            nominee: (u, x),
            evaluated_at: selected.len(),
        });
    }

    while let Some(top) = heap.pop() {
        if let Some(max) = config.max_nominees {
            if selected.len() >= max {
                break;
            }
        }
        let (u, x) = top.nominee;
        let cost = instance.cost(u, x);
        if cost > budget - spent {
            // Unaffordable now; it can never become affordable again.
            continue;
        }
        if top.evaluated_at == selected.len() {
            // Fresh evaluation: accept or stop.
            if config.stop_on_nonpositive_gain && top.gain <= 0.0 {
                break;
            }
            selected.push((u, x));
            // lint: allow(float-accum) — budget spend folds over the
            // selection order, which is itself deterministic; costs are
            // instance inputs, not oracle estimates.
            spent += cost;
            // Install the exact oracle value, not `current_value + gain`:
            // the two differ by rounding, and only the former makes the
            // running state a pure function of `selected`.
            current_value = top.value_with;
        } else {
            // Stale: re-evaluate the marginal gain against the current set.
            let mut with = selected.clone();
            with.push((u, x));
            let value_with = queries.single(oracle, &with);
            let gain = value_with - current_value;
            heap.push(HeapEntry {
                ratio: gain / cost,
                gain,
                value_with,
                nominee: (u, x),
                evaluated_at: selected.len(),
            });
        }
    }

    queries.finish(oracle, selected, spent)
}

/// Plain (non-lazy) greedy MCP selection.  Exists for the ablation benchmark
/// comparing CELF lazy evaluation against the textbook greedy; produces the
/// same selection when the objective is submodular.
pub fn select_nominees_plain_greedy(
    evaluator: &Evaluator<'_>,
    universe: &[Nominee],
    config: &NomineeSelectionConfig,
) -> NomineeSelection {
    select_nominees_plain_greedy_with_oracle(evaluator.instance(), evaluator, universe, config)
}

/// Plain greedy MCP selection with an arbitrary [`SpreadOracle`].
pub fn select_nominees_plain_greedy_with_oracle(
    instance: &ImdppInstance,
    oracle: &dyn SpreadOracle,
    universe: &[Nominee],
    config: &NomineeSelectionConfig,
) -> NomineeSelection {
    let budget = instance.budget();
    let mut remaining: Vec<Nominee> = universe
        .iter()
        .copied()
        .filter(|&(u, x)| instance.cost(u, x) <= budget)
        .collect();
    let mut selected: Vec<Nominee> = Vec::new();
    let mut spent = 0.0;
    let mut current_value = 0.0;
    let mut queries = QueryCount::default();

    loop {
        if let Some(max) = config.max_nominees {
            if selected.len() >= max {
                break;
            }
        }
        // One round's queries do not depend on one another: one batch.
        let affordable: Vec<usize> = (0..remaining.len())
            .filter(|&i| {
                let (u, x) = remaining[i];
                instance.cost(u, x) <= budget - spent
            })
            .collect();
        let round: Vec<Nominee> = affordable.iter().map(|&i| remaining[i]).collect();
        let values = queries.wave(oracle, &selected, &round);
        // (index, gain, exact value with the nominee, ratio)
        let mut best: Option<(usize, f64, f64, f64)> = None;
        for (&i, value_with) in affordable.iter().zip(values) {
            let (u, x) = remaining[i];
            let gain = value_with - current_value;
            let ratio = gain / instance.cost(u, x);
            if best.is_none_or(|(_, _, _, r)| ratio > r) {
                best = Some((i, gain, value_with, ratio));
            }
        }
        match best {
            Some((i, gain, value_with, _)) => {
                if config.stop_on_nonpositive_gain && gain <= 0.0 {
                    break;
                }
                let (u, x) = remaining.remove(i);
                // lint: allow(float-accum) — budget spend folds over the
                // selection order, which is itself deterministic; costs are
                // instance inputs, not oracle estimates.
                spent += instance.cost(u, x);
                // Install the exact oracle value, not `current_value + gain`:
                // an accumulated gain sum drifts by ulps from the oracle and
                // can flip later ratio comparisons (the PR 7 CELF bug class).
                current_value = value_with;
                selected.push((u, x));
            }
            None => break,
        }
    }
    queries.finish(oracle, selected, spent)
}

/// The `f(N)` queries a selection makes, counted as it makes them.
#[derive(Default)]
struct QueryCount {
    evaluations: usize,
    oracle_calls: usize,
}

impl QueryCount {
    /// One query in one call.
    fn single(&mut self, oracle: &dyn SpreadOracle, nominees: &[Nominee]) -> f64 {
        self.evaluations += 1;
        self.oracle_calls += 1;
        oracle.static_spread(nominees)
    }

    /// `f(base ∪ {c})` of every candidate, in candidate order, in one call
    /// (none for an empty wave).
    fn wave(
        &mut self,
        oracle: &dyn SpreadOracle,
        base: &[Nominee],
        candidates: &[Nominee],
    ) -> Vec<f64> {
        if candidates.is_empty() {
            return Vec::new();
        }
        let withs: Vec<Vec<Nominee>> = candidates
            .iter()
            .map(|&c| {
                let mut with = Vec::with_capacity(base.len() + 1);
                with.extend_from_slice(base);
                with.push(c);
                with
            })
            .collect();
        let refs: Vec<&[Nominee]> = withs.iter().map(Vec::as_slice).collect();
        self.evaluations += candidates.len();
        self.oracle_calls += 1;
        oracle.static_spread_batch(&refs)
    }

    /// The selection, with the exact objective of the final set recomputed
    /// once.
    fn finish(
        mut self,
        oracle: &dyn SpreadOracle,
        selected: Vec<Nominee>,
        spent: f64,
    ) -> NomineeSelection {
        let objective = if selected.is_empty() {
            0.0
        } else {
            self.single(oracle, &selected)
        };
        NomineeSelection {
            nominees: selected,
            total_cost: spent,
            objective,
            evaluations: self.evaluations,
            oracle_calls: self.oracle_calls,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{CostModel, ImdppInstance};
    use imdpp_diffusion::scenario::toy_scenario;

    fn instance(budget: f64) -> ImdppInstance {
        let scenario = toy_scenario();
        let costs = CostModel::uniform(scenario.user_count(), scenario.item_count(), 1.0);
        ImdppInstance::new(scenario, costs, budget, 2).unwrap()
    }

    #[test]
    fn selection_respects_budget() {
        let inst = instance(2.0);
        let ev = Evaluator::new(&inst, 8, 1);
        let universe = inst.nominee_universe(None);
        let sel = select_nominees(&ev, &universe, &NomineeSelectionConfig::default());
        assert!(sel.total_cost <= inst.budget() + 1e-9);
        assert!(sel.nominees.len() <= 2);
        assert!(!sel.nominees.is_empty());
    }

    #[test]
    fn selection_prefers_influential_users() {
        let inst = instance(1.0);
        let ev = Evaluator::new(&inst, 32, 2);
        let universe = inst.nominee_universe(None);
        let sel = select_nominees(&ev, &universe, &NomineeSelectionConfig::default());
        assert_eq!(sel.nominees.len(), 1);
        // User 5 has no out-edges; it can never be the single best nominee.
        assert_ne!(sel.nominees[0].0, UserId(5));
        assert!(sel.objective >= 1.0);
    }

    #[test]
    fn max_nominees_caps_the_selection() {
        let inst = instance(10.0);
        let ev = Evaluator::new(&inst, 8, 3);
        let universe = inst.nominee_universe(None);
        let cfg = NomineeSelectionConfig {
            max_nominees: Some(2),
            ..Default::default()
        };
        let sel = select_nominees(&ev, &universe, &cfg);
        assert_eq!(sel.nominees.len(), 2);
    }

    #[test]
    fn empty_universe_selects_nothing() {
        let inst = instance(3.0);
        let ev = Evaluator::new(&inst, 4, 4);
        let sel = select_nominees(&ev, &[], &NomineeSelectionConfig::default());
        assert!(sel.nominees.is_empty());
        assert_eq!(sel.objective, 0.0);
        assert_eq!(sel.total_cost, 0.0);
    }

    #[test]
    fn lazy_and_plain_greedy_agree_on_small_instances() {
        let inst = instance(2.0);
        let ev = Evaluator::new(&inst, 64, 5);
        let universe = inst.nominee_universe(Some(4));
        let cfg = NomineeSelectionConfig::default();
        let lazy = select_nominees(&ev, &universe, &cfg);
        let plain = select_nominees_plain_greedy(&ev, &universe, &cfg);
        // Objectives must be very close (identical estimator seeds).
        assert!((lazy.objective - plain.objective).abs() < 0.5);
        // CELF must not use more evaluations than plain greedy.
        assert!(lazy.evaluations <= plain.evaluations);
    }

    #[test]
    fn empty_prefix_is_plain_selection() {
        let inst = instance(3.0);
        let ev = Evaluator::new(&inst, 16, 9);
        let universe = inst.nominee_universe(None);
        let cfg = NomineeSelectionConfig::default();
        let plain = select_nominees_with_oracle(&inst, &ev, &universe, &cfg);
        let prefixed = select_nominees_with_prefix(&inst, &ev, &universe, &cfg, &[]);
        assert_eq!(plain.nominees, prefixed.nominees);
        assert_eq!(plain.objective, prefixed.objective);
        assert_eq!(plain.total_cost, prefixed.total_cost);
        assert_eq!(plain.evaluations, prefixed.evaluations);
    }

    /// A deterministic, *exactly* submodular coverage oracle: nominee
    /// `(u, x)` covers a fixed pseudo-random element set and `f(N)` is the
    /// size of the union.  The Monte-Carlo evaluator's sampled estimates
    /// can violate submodularity, under which lazy CELF legitimately
    /// diverges from fresh greedy — so the prefix-repair invariants are
    /// asserted against the oracle class they are actually claimed for
    /// (exact coverage, like the RR sketch).
    struct CoverOracle;

    impl CoverOracle {
        fn elements(nominee: Nominee) -> impl Iterator<Item = u32> {
            let (UserId(u), ItemId(x)) = nominee;
            let count = 3 + (u * 5 + x * 11) % 13;
            (0..count).map(move |k| (u * 31 + x * 17 + k * 7) % 101)
        }
    }

    impl SpreadOracle for CoverOracle {
        fn static_spread(&self, nominees: &[Nominee]) -> f64 {
            let mut seen = [false; 101];
            let mut total = 0usize;
            for &n in nominees {
                for e in Self::elements(n) {
                    if !seen[e as usize] {
                        seen[e as usize] = true;
                        total += 1;
                    }
                }
            }
            total as f64
        }
    }

    #[test]
    fn selection_from_its_own_prefix_reproduces_the_tail() {
        let inst = instance(3.0);
        let universe = inst.nominee_universe(None);
        let cfg = NomineeSelectionConfig::default();
        let full = select_nominees_with_oracle(&inst, &CoverOracle, &universe, &cfg);
        assert!(full.nominees.len() >= 2, "need a non-trivial trace");
        for p in 0..=full.nominees.len() {
            let repaired = select_nominees_with_prefix(
                &inst,
                &CoverOracle,
                &universe,
                &cfg,
                &full.nominees[..p],
            );
            assert_eq!(repaired.nominees, full.nominees, "prefix length {p}");
            assert_eq!(repaired.objective, full.objective, "prefix length {p}");
            assert!((repaired.total_cost - full.total_cost).abs() < 1e-12);
        }
    }

    #[test]
    fn prefix_cost_counts_against_the_budget() {
        // Budget 2 with unit costs: a full-length prefix leaves no room.
        let inst = instance(2.0);
        let universe = inst.nominee_universe(None);
        let cfg = NomineeSelectionConfig::default();
        let full = select_nominees_with_oracle(&inst, &CoverOracle, &universe, &cfg);
        assert!(!full.nominees.is_empty());
        let repaired =
            select_nominees_with_prefix(&inst, &CoverOracle, &universe, &cfg, &full.nominees);
        assert_eq!(repaired.nominees, full.nominees);
        assert!(repaired.total_cost <= inst.budget() + 1e-9);
    }

    #[test]
    fn unaffordable_nominees_are_skipped() {
        let scenario = toy_scenario();
        let mut costs = CostModel::uniform(scenario.user_count(), scenario.item_count(), 1.0);
        // Make user 0 (the most influential) unaffordable.
        for x in scenario.items() {
            costs.set_cost(UserId(0), x, 100.0);
        }
        let inst = ImdppInstance::new(scenario, costs, 2.0, 2).unwrap();
        let ev = Evaluator::new(&inst, 8, 6);
        let universe = inst.nominee_universe(None);
        let sel = select_nominees(&ev, &universe, &NomineeSelectionConfig::default());
        assert!(sel.nominees.iter().all(|(u, _)| *u != UserId(0)));
    }
}
