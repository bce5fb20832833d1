//! Maintained-solution repair: keep a previously solved seed set alive
//! across [`imdpp_core::oracle::ScenarioUpdate`]s instead of re-running
//! greedy from scratch.
//!
//! ## The idea
//!
//! The engine's solve path is dominated by the greedy pipeline, not by
//! sampling: after an incremental refresh the sketch is bit-identical to a
//! rebuild, yet every solve still pays full nominee selection plus the
//! Monte-Carlo heavy DRE/TDSI stages.  Following the maintained-solution
//! route of the dynamic influence-maximization literature (Yalavarthi &
//! Khan; Yang et al.), this module repairs the *greedy trace* instead:
//!
//! 1. The refresh reports, per item, the **touched users** — the
//!    union of every re-sampled RR set's members before and after
//!    replacement ([`crate::SketchOracle`]'s `RefreshableOracle::refresh`).
//!    A nominee `(u, x)` with `u` untouched for item `x` kept its covering
//!    set-ids bit-identical, and since the sketch objective is a sum of
//!    per-item coverage terms, every marginal computed among untouched
//!    nominees is numerically unchanged.
//! 2. The first greedy position holding a touched nominee is where the
//!    cached trace loses its certificate
//!    ([`first_invalidated_position`]); everything before it is still the
//!    exact CELF prefix of the refreshed world.
//! 3. [`repair_nominees`] re-runs CELF from that prefix
//!    ([`imdpp_core::nominees::select_nominees_with_prefix`]) and compares
//!    the repaired objective against a fresh full CELF run on the same
//!    refreshed sketch: the repaired set is kept only while
//!    `f(repaired) ≥ bound × f(fresh)`.  Both runs query only the sketch —
//!    no Monte-Carlo stage — so an apply-time repair costs a small multiple
//!    of nominee selection, not a full solve.
//!
//! Every quantity involved (touched users, CELF selections, objectives) is
//! a pure function of grid-invariant sketch state, so repair decisions and
//! [`RepairStats`] are bit-identical across shard and thread counts —
//! property-tested in `tests/solution_maintenance.rs`.

use imdpp_core::nominees::{
    select_nominees_with_prefix, Nominee, NomineeSelection, NomineeSelectionConfig,
};
use imdpp_core::problem::ImdppInstance;
use imdpp_core::SpreadOracle;
use imdpp_graph::UserId;

/// Absolute slack of the bound comparison, so exact ties (bound = 1.0 with
/// an untouched trace, or identical repaired/fresh sets) keep the repaired
/// solution regardless of floating-point summation order.
const BOUND_EPSILON: f64 = 1e-9;

/// Per-apply maintained-solution bookkeeping, surfaced on the engine's
/// `ApplyReport::solve_repair` and mirrored by the
/// `engine.maintain.{repairs,full_resolves}` counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[must_use = "repair stats record whether the maintained solution survived; dropping them hides full re-solves"]
pub struct RepairStats {
    /// Greedy positions retained verbatim from the cached trace (the length
    /// of the still-certified CELF prefix).
    pub seeds_retained: usize,
    /// Greedy positions recomputed by the CELF repair tail (including
    /// positions appended beyond the cached trace's length).
    pub positions_repaired: usize,
    /// 1 when this update invalidated the maintained solution — the bound
    /// failed, or paranoid mode (`bound ≥ 1.0`) dropped it — forcing the
    /// next solve to run the full pipeline; 0 otherwise.
    pub full_resolves: u64,
}

impl RepairStats {
    /// Folds another apply's stats into an accumulated total.
    pub fn absorb(&mut self, other: &RepairStats) {
        self.seeds_retained += other.seeds_retained;
        self.positions_repaired += other.positions_repaired;
        self.full_resolves += other.full_resolves;
    }
}

/// Outcome of one [`repair_nominees`] call.
#[derive(Clone, Debug)]
pub struct RepairOutcome {
    /// The repaired CELF selection (cached prefix + recomputed tail).
    /// Meaningful only when `kept` is true.
    pub selection: NomineeSelection,
    /// Greedy positions retained from the cached trace.
    pub retained: usize,
    /// The objective of the fresh full CELF run the bound was checked
    /// against (the fresh-greedy upper bound of the tests).
    pub fresh_objective: f64,
    /// Whether the repaired set met the bound and should keep serving.
    pub kept: bool,
}

/// The first greedy position whose nominee was touched by a refresh:
/// position `i` is invalidated when `nominees[i] = (u, x)` and `u` appears
/// in `touched_by_item[x]`.  Returns `nominees.len()` when the whole trace
/// survived (every per-item touched list misses every same-item nominee).
///
/// `touched_by_item` is the per-item output of the sketch's
/// `RefreshableOracle::refresh`; its lists are sorted, so each position
/// costs one binary search.
pub fn first_invalidated_position(nominees: &[Nominee], touched_by_item: &[Vec<UserId>]) -> usize {
    nominees
        .iter()
        .position(|&(u, x)| {
            touched_by_item
                .get(x.index())
                .is_some_and(|users| users.binary_search(&u).is_ok())
        })
        .unwrap_or(nominees.len())
}

/// CELF-style repair of a cached greedy trace against a refreshed oracle.
///
/// Re-runs nominee selection from the first invalidated position's prefix
/// and checks the repaired objective against a fresh full selection on the
/// same (already refreshed) oracle: `kept` is true iff
/// `f(repaired) + ε ≥ bound × f(fresh)`.  Because the prefix positions are
/// untouched, their marginals — hence the prefix itself — are exactly what
/// fresh greedy would recompute up to that depth; only the tail can
/// diverge, and the bound quantifies by how much at most.
///
/// Both selections run against `oracle` only (for the engine: the RR
/// sketch), so the cost is two sketch-priced CELF passes — no Monte-Carlo.
pub fn repair_nominees(
    instance: &ImdppInstance,
    oracle: &dyn SpreadOracle,
    universe: &[Nominee],
    selection_config: &NomineeSelectionConfig,
    cached: &[Nominee],
    touched_by_item: &[Vec<UserId>],
    bound: f64,
) -> RepairOutcome {
    let retained = first_invalidated_position(cached, touched_by_item);
    let repaired = select_nominees_with_prefix(
        instance,
        oracle,
        universe,
        selection_config,
        &cached[..retained],
    );
    let fresh = select_nominees_with_prefix(instance, oracle, universe, selection_config, &[]);
    let kept = repaired.objective + BOUND_EPSILON >= bound * fresh.objective;
    RepairOutcome {
        fresh_objective: fresh.objective,
        selection: repaired,
        retained,
        kept,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SketchConfig, SketchOracle};
    use imdpp_core::nominees::select_nominees_with_oracle;
    use imdpp_core::problem::CostModel;
    use imdpp_diffusion::scenario::toy_scenario;
    use imdpp_graph::ItemId;

    fn instance(budget: f64) -> ImdppInstance {
        let scenario = toy_scenario();
        let costs = CostModel::uniform(scenario.user_count(), scenario.item_count(), 1.0);
        ImdppInstance::new(scenario, costs, budget, 2).unwrap()
    }

    #[test]
    fn first_invalidated_position_scans_per_item() {
        let nominees = vec![
            (UserId(3), ItemId(0)),
            (UserId(1), ItemId(1)),
            (UserId(2), ItemId(0)),
        ];
        let none: Vec<Vec<UserId>> = vec![Vec::new(), Vec::new()];
        assert_eq!(first_invalidated_position(&nominees, &none), 3);
        // User 1 touched for item 0 only: no nominee matches (user 1 is an
        // item-1 nominee).
        let wrong_item = vec![vec![UserId(1)], Vec::new()];
        assert_eq!(first_invalidated_position(&nominees, &wrong_item), 3);
        // Touching user 1 on item 1 invalidates position 1.
        let hit = vec![Vec::new(), vec![UserId(1)]];
        assert_eq!(first_invalidated_position(&nominees, &hit), 1);
        // Touching the head nominee invalidates everything.
        let head = vec![vec![UserId(3)], Vec::new()];
        assert_eq!(first_invalidated_position(&nominees, &head), 0);
        // Out-of-range items are treated as untouched.
        let short: Vec<Vec<UserId>> = vec![vec![UserId(2)]];
        assert_eq!(first_invalidated_position(&nominees, &short), 2);
    }

    #[test]
    fn untouched_trace_repairs_to_itself_and_is_kept() {
        let inst = instance(3.0);
        let oracle =
            SketchOracle::build(inst.scenario(), SketchConfig::fixed(256).with_base_seed(7));
        let universe = inst.nominee_universe(None);
        let cfg = NomineeSelectionConfig::default();
        let full = select_nominees_with_oracle(&inst, &oracle, &universe, &cfg);
        assert!(!full.nominees.is_empty());

        let untouched: Vec<Vec<UserId>> = vec![Vec::new(); inst.scenario().item_count()];
        let outcome = repair_nominees(
            &inst,
            &oracle,
            &universe,
            &cfg,
            &full.nominees,
            &untouched,
            0.95,
        );
        assert!(outcome.kept);
        assert_eq!(outcome.retained, full.nominees.len());
        assert_eq!(outcome.selection.nominees, full.nominees);
        assert_eq!(outcome.selection.objective, full.objective);
        assert_eq!(outcome.fresh_objective, full.objective);
        // An exact tie survives even paranoid bounds at the outcome level.
        let paranoid = repair_nominees(
            &inst,
            &oracle,
            &universe,
            &cfg,
            &full.nominees,
            &untouched,
            1.0,
        );
        assert!(paranoid.kept);
    }

    #[test]
    fn fully_invalidated_trace_equals_fresh_greedy() {
        let inst = instance(3.0);
        let oracle =
            SketchOracle::build(inst.scenario(), SketchConfig::fixed(256).with_base_seed(7));
        let universe = inst.nominee_universe(None);
        let cfg = NomineeSelectionConfig::default();
        let full = select_nominees_with_oracle(&inst, &oracle, &universe, &cfg);
        // Touch every user for every item: position 0 is invalidated and the
        // repair degenerates to a fresh run, which always meets any bound.
        let everyone: Vec<UserId> = inst.scenario().users().collect();
        let all_touched: Vec<Vec<UserId>> = vec![everyone; inst.scenario().item_count()];
        let outcome = repair_nominees(
            &inst,
            &oracle,
            &universe,
            &cfg,
            &full.nominees,
            &all_touched,
            1.0,
        );
        assert!(outcome.kept);
        assert_eq!(outcome.retained, 0);
        assert_eq!(outcome.selection.nominees, full.nominees);
        assert_eq!(outcome.selection.objective, outcome.fresh_objective);
    }
}
