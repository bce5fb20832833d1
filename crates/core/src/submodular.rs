//! Generic submodular-maximization machinery behind Theorems 2–4.
//!
//! The paper reduces the restricted IMDPP (static probabilities) to
//! non-monotone submodular maximization under a knapsack constraint (SMK) and
//! gives a `1/12`-approximation built from three ingredients:
//!
//! 1. a greedy by marginal cost-performance ratio run until the budget is
//!    *just* violated (Lemma 3),
//! 2. the linear-time deterministic `1/3` (randomised `1/2`) double-greedy
//!    for unconstrained submodular maximization (USM, Buchbinder et al.),
//! 3. a combiner that also considers the best single element and repairs
//!    infeasibility by dropping the violating element (Theorem 3).
//!
//! The implementations are generic over a [`SetFunction`] oracle and are
//! unit-tested against closed-form submodular functions (coverage, cut, …).
//! Only `imdpp-core`'s own tests call them: the OPT baseline enumerates
//! seed groups with `Evaluator` instead.

/// Oracle access to a set function over the ground set `0..ground_size`.
pub trait SetFunction {
    /// Size of the ground set.
    fn ground_size(&self) -> usize;
    /// Evaluates the function on a subset (given as a sorted slice of
    /// distinct indices).
    fn eval(&mut self, subset: &[usize]) -> f64;
    /// Cost of a single element (defaults to 1.0).
    fn cost(&self, _element: usize) -> f64 {
        1.0
    }
}

/// Outcome of a maximization routine.
#[derive(Clone, Debug, Default)]
pub struct MaximizationResult {
    /// The selected subset (sorted).
    pub subset: Vec<usize>,
    /// Objective value of the subset.
    pub value: f64,
    /// Number of oracle evaluations used.
    pub evaluations: usize,
}

fn eval_sorted(f: &mut impl SetFunction, subset: &mut Vec<usize>) -> f64 {
    subset.sort_unstable();
    subset.dedup();
    f.eval(subset)
}

/// Budgeted greedy by marginal cost-performance ratio.
///
/// When `allow_violation` is true the greedy keeps adding the best-ratio
/// element until the budget is *just violated* (the set returned includes the
/// violating element), exactly as in Lemma 3; otherwise elements that do not
/// fit are skipped (Procedure 2 behaviour).
pub fn greedy_mcp(
    f: &mut impl SetFunction,
    budget: f64,
    allow_violation: bool,
) -> MaximizationResult {
    let n = f.ground_size();
    let mut selected: Vec<usize> = Vec::new();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut current = 0.0;
    let mut spent = 0.0;
    let mut evaluations = 0usize;
    loop {
        // (position, gain, exact value with the element, ratio)
        let mut best: Option<(usize, f64, f64, f64)> = None;
        for (pos, &e) in remaining.iter().enumerate() {
            let cost = f.cost(e);
            if !allow_violation && cost > budget - spent {
                continue;
            }
            if allow_violation && spent > budget {
                break;
            }
            let mut with = selected.clone();
            with.push(e);
            let value = eval_sorted(f, &mut with);
            evaluations += 1;
            let gain = value - current;
            let ratio = gain / cost;
            if best.is_none_or(|(_, _, _, r)| ratio > r) {
                best = Some((pos, gain, value, ratio));
            }
        }
        match best {
            Some((pos, gain, value_with, _)) => {
                let e = remaining.remove(pos);
                // Lemma 3 stops when a negative marginal gain occurs.
                if gain <= 0.0 && allow_violation {
                    break;
                }
                if gain <= 0.0 && !allow_violation {
                    break;
                }
                selected.push(e);
                // lint: allow(float-accum) — budget spend is a fold over the
                // selection order, which is itself deterministic; costs are
                // instance inputs, not oracle estimates.
                spent += f.cost(e);
                // Install the oracle's exact value for the grown set rather
                // than accumulating gains: a running `current += gain` drifts
                // by ulps from `eval(selected)` and can flip later ratio
                // comparisons (the PR 7 CELF bug class).
                current = value_with;
                if allow_violation && spent > budget {
                    break;
                }
            }
            None => break,
        }
        if remaining.is_empty() {
            break;
        }
    }
    selected.sort_unstable();
    let value = if selected.is_empty() {
        0.0
    } else {
        f.eval(&selected)
    };
    MaximizationResult {
        subset: selected,
        value,
        evaluations,
    }
}

/// Deterministic double-greedy for Unconstrained Submodular Maximization
/// (Buchbinder et al.), restricted to a sub-ground-set.  Guarantees a `1/3`
/// approximation deterministically (`1/2` in expectation for the randomised
/// variant) for non-negative submodular functions.
pub fn double_greedy_usm(f: &mut impl SetFunction, ground: &[usize]) -> MaximizationResult {
    let mut x: Vec<usize> = Vec::new();
    let mut y: Vec<usize> = ground.to_vec();
    y.sort_unstable();
    let mut evaluations = 0usize;
    for &e in ground {
        let mut x_with = x.clone();
        x_with.push(e);
        let a = eval_sorted(f, &mut x_with) - f.eval(&x);
        let mut y_without: Vec<usize> = y.iter().copied().filter(|&v| v != e).collect();
        let b = f.eval(&y_without) - f.eval(&y);
        evaluations += 4;
        if a >= b {
            x = x_with;
            x.sort_unstable();
        } else {
            y_without.sort_unstable();
            y = y_without;
        }
    }
    let value = f.eval(&x);
    MaximizationResult {
        subset: x,
        value,
        evaluations,
    }
}

/// The `1/12`-approximation for non-monotone submodular maximization under a
/// knapsack constraint (Theorem 3), assembled from two greedy passes, one USM
/// pass and the best single element, with an infeasibility repair step.
pub fn smk_one_twelfth(f: &mut impl SetFunction, budget: f64) -> MaximizationResult {
    let n = f.ground_size();
    let mut evaluations = 0usize;

    // S1: greedy until the budget is just violated.
    let s1 = greedy_mcp(f, budget, true);
    evaluations += s1.evaluations;

    // S2: greedy on the ground set without S1.
    let mut remaining_f = RestrictedFunction {
        inner: f,
        allowed: (0..n).filter(|e| !s1.subset.contains(e)).collect(),
    };
    let s2 = greedy_mcp(&mut remaining_f, budget, true);
    evaluations += s2.evaluations;

    // USM on the ground set S1.
    let usm = double_greedy_usm(f, &s1.subset);
    evaluations += usm.evaluations;

    // Best single affordable element.
    let mut best_single: Option<(usize, f64)> = None;
    for e in 0..n {
        if f.cost(e) > budget {
            continue;
        }
        let v = f.eval(&[e]);
        evaluations += 1;
        if best_single.is_none_or(|(_, bv)| v > bv) {
            best_single = Some((e, v));
        }
    }

    // Candidate solutions, repaired to feasibility by dropping the last
    // (violating) element when needed.
    let mut candidates: Vec<Vec<usize>> = Vec::new();
    for cand in [&s1.subset, &s2.subset, &usm.subset] {
        candidates.push(make_feasible(f, cand, budget));
    }
    if let Some((e, _)) = best_single {
        candidates.push(vec![e]);
    }
    candidates.push(Vec::new());

    let mut best = MaximizationResult::default();
    for cand in candidates {
        let value = if cand.is_empty() { 0.0 } else { f.eval(&cand) };
        evaluations += 1;
        if value > best.value || (best.subset.is_empty() && !cand.is_empty() && value >= best.value)
        {
            best = MaximizationResult {
                subset: cand,
                value,
                evaluations: 0,
            };
        }
    }
    best.evaluations = evaluations;
    best
}

fn make_feasible(f: &impl SetFunction, subset: &[usize], budget: f64) -> Vec<usize> {
    let mut set = subset.to_vec();
    set.sort_unstable();
    // lint: allow(float-accum) — cost of a *sorted* set: the fold order is
    // fixed, so the sum is bit-stable across runs.
    let mut cost: f64 = set.iter().map(|&e| f.cost(e)).sum();
    // Drop the most expensive elements until feasible.
    while cost > budget && !set.is_empty() {
        let (pos, _) = set
            .iter()
            .enumerate()
            .max_by(|a, b| f.cost(*a.1).partial_cmp(&f.cost(*b.1)).unwrap())
            .unwrap();
        cost -= f.cost(set[pos]);
        set.remove(pos);
    }
    set
}

struct RestrictedFunction<'a, F: SetFunction> {
    inner: &'a mut F,
    allowed: Vec<usize>,
}

impl<F: SetFunction> SetFunction for RestrictedFunction<'_, F> {
    fn ground_size(&self) -> usize {
        self.inner.ground_size()
    }
    fn eval(&mut self, subset: &[usize]) -> f64 {
        let filtered: Vec<usize> = subset
            .iter()
            .copied()
            .filter(|e| self.allowed.contains(e))
            .collect();
        self.inner.eval(&filtered)
    }
    fn cost(&self, element: usize) -> f64 {
        if self.allowed.contains(&element) {
            self.inner.cost(element)
        } else {
            f64::INFINITY
        }
    }
}

/// Empirically checks the submodularity inequality (Definition 3) of a set
/// function on every `(X ⊆ Y, e ∉ Y)` triple drawn from the given subsets.
/// Used by the theory tests to validate Lemma 1 on small instances.
pub fn check_submodularity_on(
    f: &mut impl SetFunction,
    subsets: &[Vec<usize>],
    tolerance: f64,
) -> bool {
    let n = f.ground_size();
    for x in subsets {
        for y in subsets {
            if !x.iter().all(|e| y.contains(e)) {
                continue;
            }
            for e in 0..n {
                if y.contains(&e) {
                    continue;
                }
                let mut xe = x.clone();
                xe.push(e);
                let mut ye = y.clone();
                ye.push(e);
                let gain_x = eval_sorted(f, &mut xe) - f.eval(x);
                let gain_y = eval_sorted(f, &mut ye) - f.eval(y);
                if gain_y > gain_x + tolerance {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Weighted coverage function: element i covers a set of points; value is
    /// the number of distinct points covered.  Monotone submodular.
    struct Coverage {
        covers: Vec<Vec<usize>>,
        costs: Vec<f64>,
    }

    impl SetFunction for Coverage {
        fn ground_size(&self) -> usize {
            self.covers.len()
        }
        fn eval(&mut self, subset: &[usize]) -> f64 {
            let mut points = std::collections::HashSet::new();
            for &e in subset {
                points.extend(self.covers[e].iter().copied());
            }
            points.len() as f64
        }
        fn cost(&self, element: usize) -> f64 {
            self.costs[element]
        }
    }

    fn coverage() -> Coverage {
        Coverage {
            covers: vec![
                vec![0, 1, 2],
                vec![2, 3],
                vec![4],
                vec![0, 1, 2, 3],
                vec![5, 6, 7, 8],
            ],
            costs: vec![1.0, 1.0, 1.0, 2.0, 3.0],
        }
    }

    /// A (non-monotone) cut-like function on a tiny graph.
    struct Cut {
        edges: Vec<(usize, usize)>,
        n: usize,
    }

    impl SetFunction for Cut {
        fn ground_size(&self) -> usize {
            self.n
        }
        fn eval(&mut self, subset: &[usize]) -> f64 {
            let inside: std::collections::HashSet<usize> = subset.iter().copied().collect();
            self.edges
                .iter()
                .filter(|(a, b)| inside.contains(a) != inside.contains(b))
                .count() as f64
        }
    }

    #[test]
    fn greedy_mcp_respects_budget_without_violation() {
        let mut f = coverage();
        let r = greedy_mcp(&mut f, 2.0, false);
        // lint: allow(float-accum) — test assertion over a sorted result set.
        let cost: f64 = r.subset.iter().map(|&e| f.cost(e)).sum();
        assert!(cost <= 2.0);
        assert!(r.value >= 4.0); // elements 0 and 1 cover {0,1,2,3}
    }

    #[test]
    fn greedy_mcp_with_violation_overshoots_by_one_element() {
        let mut f = coverage();
        let r = greedy_mcp(&mut f, 1.5, true);
        // lint: allow(float-accum) — test assertion over a sorted result set.
        let cost: f64 = r.subset.iter().map(|&e| f.cost(e)).sum();
        // The set may exceed the budget, but only because of the last element.
        assert!(cost > 1.5 || r.subset.len() <= 1);
        assert!(!r.subset.is_empty());
    }

    #[test]
    fn greedy_finds_full_coverage_with_large_budget() {
        let mut f = coverage();
        let r = greedy_mcp(&mut f, 100.0, false);
        assert_eq!(r.value, 9.0);
    }

    #[test]
    fn double_greedy_handles_nonmonotone_cut() {
        // Path graph 0-1-2-3: the maximum cut selects alternating vertices.
        let mut f = Cut {
            edges: vec![(0, 1), (1, 2), (2, 3)],
            n: 4,
        };
        let ground: Vec<usize> = (0..4).collect();
        let r = double_greedy_usm(&mut f, &ground);
        // Optimal cut value is 3; the deterministic double greedy guarantees >= 1/3 of it.
        assert!(r.value >= 1.0);
        assert!(r.value <= 3.0);
    }

    #[test]
    fn smk_one_twelfth_is_feasible_and_reasonable() {
        let mut f = coverage();
        let budget = 3.0;
        let r = smk_one_twelfth(&mut f, budget);
        // lint: allow(float-accum) — test assertion over a sorted result set.
        let cost: f64 = r.subset.iter().map(|&e| f.cost(e)).sum();
        assert!(cost <= budget + 1e-9, "cost {cost} exceeds budget");
        // Optimum with budget 3 is 6 (elements {0,1,2} -> 5 points, or {3,2} -> 5,
        // element 4 alone -> 4). Greedy reaches at least 1/12 of it trivially;
        // in practice it should reach at least 4.
        assert!(r.value >= 4.0, "value = {}", r.value);
    }

    #[test]
    fn smk_on_cut_function_is_feasible() {
        let mut f = Cut {
            edges: vec![(0, 1), (1, 2), (2, 3), (3, 0)],
            n: 4,
        };
        let r = smk_one_twelfth(&mut f, 2.0);
        assert!(r.subset.len() <= 2);
        assert!(r.value >= 1.0);
    }

    #[test]
    fn coverage_function_is_submodular() {
        let mut f = coverage();
        let subsets = vec![vec![], vec![0], vec![0, 1], vec![0, 1, 2], vec![1, 3]];
        assert!(check_submodularity_on(&mut f, &subsets, 1e-9));
    }

    #[test]
    fn supermodular_function_fails_the_check() {
        /// f(S) = |S|^2 is supermodular, not submodular.
        struct Square;
        impl SetFunction for Square {
            fn ground_size(&self) -> usize {
                4
            }
            fn eval(&mut self, subset: &[usize]) -> f64 {
                (subset.len() * subset.len()) as f64
            }
        }
        let subsets = vec![vec![], vec![0], vec![0, 1]];
        assert!(!check_submodularity_on(&mut Square, &subsets, 1e-9));
    }

    #[test]
    fn empty_ground_set_is_handled() {
        struct Zero;
        impl SetFunction for Zero {
            fn ground_size(&self) -> usize {
                0
            }
            fn eval(&mut self, _s: &[usize]) -> f64 {
                0.0
            }
        }
        let r = greedy_mcp(&mut Zero, 1.0, false);
        assert!(r.subset.is_empty());
        let r = smk_one_twelfth(&mut Zero, 1.0);
        assert!(r.subset.is_empty());
    }
}
