//! The Dysim driver (Algorithm 1): TMI → DRE → TDSI, with ablation switches
//! and the guard solutions used by the Theorem 5 analysis.
//!
//! The nominee-selection stage (the `f(N)` queries of Procedure 2) is
//! generic over [`crate::oracle::SpreadOracle`]: [`Dysim::solve_with`] — the
//! one driver entry point — accepts any estimator, in particular the
//! RR-sketch oracle of `imdpp-sketch`.  Applications should not call the
//! driver directly: the `imdpp-engine` crate's `Engine` owns oracle
//! construction (via [`DysimConfig::oracle`]), snapshotting and refresh, and
//! is the public face of the suite.  The DRE and TDSI stages always use
//! Monte-Carlo:
//! they query *dynamic* quantities (`σ_τ`, `π_τ`, expected perceptions)
//! that the static sketch does not target.
//!
//! # Example
//!
//! ```
//! use imdpp_core::{CostModel, Dysim, DysimConfig, Evaluator, ImdppInstance};
//! use imdpp_core::eval::MonteCarloOracle;
//! use imdpp_diffusion::scenario::toy_scenario;
//!
//! let scenario = toy_scenario();
//! let costs = CostModel::uniform(scenario.user_count(), scenario.item_count(), 1.0);
//! let instance = ImdppInstance::new(scenario, costs, 3.0, 2).unwrap();
//!
//! // The driver estimates f(N) with whatever SpreadOracle it is handed:
//! // forward Monte-Carlo (the paper's reference estimator)...
//! let dysim = Dysim::new(DysimConfig::fast());
//! let evaluator = Evaluator::new(&instance, 8, 0xD751);
//! let report = dysim.solve_with(&instance, &evaluator);
//! assert!(instance.is_feasible(&report.seeds));
//!
//! // ...or any other estimator of the same static quantity.
//! let oracle = MonteCarloOracle::new(instance.scenario(), 8, 0xD751);
//! let via_oracle = dysim.solve_with(&instance, &oracle);
//! assert!(instance.is_feasible(&via_oracle.seeds));
//! ```

use crate::dre::{best_item_by_reachability, ItemImpactModel};
use crate::eval::Evaluator;
use crate::market::{group_markets, identify_markets, TargetMarket, TmiConfig};
use crate::nominees::{select_nominees_with_oracle, Nominee, NomineeSelectionConfig};
use crate::oracle::{OracleKind, SpreadOracle};
use crate::ordering::{order_group, MarketOrdering};
use crate::problem::ImdppInstance;
use crate::tdsi::assign_timings;
use imdpp_diffusion::{Seed, SeedGroup};
use imdpp_graph::ItemId;

/// Configuration of a Dysim run.
///
/// Knob-to-paper mapping (figures refer to the ICDE 2021 paper):
///
/// | Knob | Paper counterpart |
/// |---|---|
/// | `mc_samples` | `M = 100` Monte-Carlo samples (footnote 12; Fig. 9's accuracy/latency trade-off) |
/// | `market_overlap_threshold` | overlap threshold `θ` (Fig. 14 sensitivity study) |
/// | `ordering` | market-ordering metrics AE / PF / SZ / RMS / RD (Sec. VI-D, Fig. 11) |
/// | `use_target_markets` | "Dysim w/o TM" ablation (Fig. 10) |
/// | `use_item_priority` | "Dysim w/o IP" ablation (Fig. 10) |
/// | `full_timing_search` | two-slot TDSI window vs full `[t̂, T]` search (Sec. V-C; both pinned by `tests/mc_golden.rs`) |
/// | `use_guard_solutions` | auxiliary solution `N̄` of the Theorem 5 analysis |
/// | `oracle` | estimator behind Procedure 2's `f(N)` queries (Monte-Carlo vs RR sketch) |
#[derive(Clone, Debug)]
pub struct DysimConfig {
    /// Monte-Carlo samples used by every spread / likelihood estimation
    /// during seed selection (the paper uses `M = 100`; smaller values trade
    /// accuracy for speed).
    pub mc_samples: usize,
    /// Base random seed of the Monte-Carlo estimator (results are
    /// deterministic for a fixed seed).
    pub base_seed: u64,
    /// Only the that-many highest-out-degree users are considered as seed
    /// candidates (`None` = all users).
    pub candidate_users: Option<usize>,
    /// Hard cap on the number of nominees selected by TMI (`None` =
    /// budget-limited only).
    pub max_nominees: Option<usize>,
    /// MIOA maximum-influence-path threshold for target-market expansion.
    pub mioa_threshold: f64,
    /// Overlap threshold `θ` above which two markets join the same group.
    pub market_overlap_threshold: usize,
    /// Metric used to order the markets of a group.
    pub ordering: MarketOrdering,
    /// Ablation switch: when false, all nominees form a single target market
    /// ("Dysim w/o TM" in Fig. 10).
    pub use_target_markets: bool,
    /// Ablation switch: when false, items within a market are promoted in an
    /// arbitrary (catalogue) order instead of by dynamic reachability
    /// ("Dysim w/o IP" in Fig. 10).
    pub use_item_priority: bool,
    /// When true, the final solution is compared against the two guard
    /// solutions of Theorem 5 (all nominees in the first promotion; the best
    /// single seed) and the best of the three is returned.
    pub use_guard_solutions: bool,
    /// When true TDSI searches every timing in `[t̂, T]` instead of the
    /// two-slot window (ablation of the window restriction).
    pub full_timing_search: bool,
    /// Cap on the users sampled when averaging relevance within a market.
    pub impact_user_cap: usize,
    /// Which estimator answers nominee selection's static `f(N)` queries.
    ///
    /// Honoured by the config-driven `imdpp-engine` `Engine`;
    /// [`Dysim::solve_with`] itself takes the oracle as an argument (this
    /// crate cannot construct the sketch without a dependency cycle).
    pub oracle: OracleKind,
    /// Quality bound of the engine's maintained-solution repair: after an
    /// applied update, the repaired seed set is kept only while its static
    /// objective `f(N)` stays ≥ `maintain_bound ×` the fresh-greedy value on
    /// the refreshed estimator; below the bound the cached solution is
    /// dropped and the next solve runs the full pipeline.  `None` disables
    /// maintenance (every solve is a fresh full run); values ≥ 1.0 are
    /// "paranoid mode" — any non-empty update invalidates immediately, so
    /// served solutions are always bit-identical to fresh solves.
    ///
    /// Honoured by the `imdpp-engine` `Engine` for sketch-backed oracles
    /// ([`OracleKind::RrSketch`]); [`Dysim::solve_with`] itself ignores it.
    pub maintain_bound: Option<f64>,
}

impl Default for DysimConfig {
    fn default() -> Self {
        DysimConfig {
            mc_samples: 30,
            base_seed: 0xD751,
            candidate_users: Some(64),
            max_nominees: None,
            mioa_threshold: 0.1,
            market_overlap_threshold: 1,
            ordering: MarketOrdering::AntagonisticExtent,
            use_target_markets: true,
            use_item_priority: true,
            use_guard_solutions: true,
            full_timing_search: false,
            impact_user_cap: 64,
            oracle: OracleKind::MonteCarlo,
            maintain_bound: Some(0.95),
        }
    }
}

impl DysimConfig {
    /// A cheaper configuration for unit tests and small instances.
    pub fn fast() -> Self {
        DysimConfig {
            mc_samples: 8,
            candidate_users: Some(16),
            ..Self::default()
        }
    }

    /// The "Dysim w/o TM" ablation of Fig. 10.
    pub fn without_target_markets(mut self) -> Self {
        self.use_target_markets = false;
        self
    }

    /// The "Dysim w/o IP" ablation of Fig. 10.
    pub fn without_item_priority(mut self) -> Self {
        self.use_item_priority = false;
        self
    }

    /// Selects the estimator behind nominee selection's `f(N)` queries.
    pub fn with_oracle(mut self, oracle: OracleKind) -> Self {
        self.oracle = oracle;
        self
    }
}

/// Diagnostics collected during a Dysim run.
#[derive(Clone, Debug, Default)]
pub struct DysimReport {
    /// The selected seed group.
    pub seeds: SeedGroup,
    /// The nominees selected by TMI (before timing assignment).
    pub nominees: Vec<Nominee>,
    /// The identified target markets.
    pub markets: Vec<TargetMarket>,
    /// The groups of overlapping markets (indices into `markets`).
    pub groups: Vec<Vec<usize>>,
    /// Total hiring cost of the returned seed group.
    pub total_cost: f64,
    /// Whether a guard solution replaced the market-based solution.
    pub guard_solution_used: bool,
    /// The `f(N)` queries TMI's nominee selection made
    /// ([`crate::nominees::NomineeSelection::evaluations`]); zero on a
    /// report restored from a persisted engine image, which did not run
    /// TMI.
    pub tmi_queries: usize,
    /// The oracle calls that answered them: each batched wave of
    /// independent queries is one call
    /// ([`crate::nominees::NomineeSelection::oracle_calls`]).
    pub tmi_oracle_calls: usize,
}

/// The Dysim algorithm.
#[derive(Clone, Debug, Default)]
pub struct Dysim {
    config: DysimConfig,
}

impl Dysim {
    /// Creates a Dysim runner with the given configuration.
    pub fn new(config: DysimConfig) -> Self {
        Dysim { config }
    }

    /// The configuration.
    pub fn config(&self) -> &DysimConfig {
        &self.config
    }

    /// Runs Dysim with `nominee_oracle` answering the static `f(N)` queries
    /// of the TMI nominee-selection stage (Procedure 2) and returns the seed
    /// group together with diagnostics.
    ///
    /// This is the one driver entry point (the old `run*` wrappers were
    /// removed after their deprecation cycle).  Applications normally reach
    /// it through `imdpp_engine::Engine`, which constructs the oracle
    /// selected by [`DysimConfig::oracle`] and snapshots it for concurrent
    /// readers; for the reference Monte-Carlo configuration pass an
    /// [`Evaluator`] built from the instance.
    ///
    /// Only nominee selection is oracle-generic: the DRE and TDSI stages
    /// query dynamic quantities (`σ_τ`, `π_τ`, expected perceptions) that
    /// only the Monte-Carlo evaluator targets, so they keep using it
    /// regardless of the oracle passed here.
    pub fn solve_with(
        &self,
        instance: &ImdppInstance,
        nominee_oracle: &dyn SpreadOracle,
    ) -> DysimReport {
        let cfg = &self.config;
        let evaluator = Evaluator::new(instance, cfg.mc_samples, cfg.base_seed);

        // ---- TMI: nominee selection ------------------------------------------
        let universe = instance.nominee_universe(cfg.candidate_users);
        let selection = select_nominees_with_oracle(
            instance,
            nominee_oracle,
            &universe,
            &NomineeSelectionConfig {
                max_nominees: cfg.max_nominees,
                stop_on_nonpositive_gain: true,
            },
        );
        let (tmi_queries, tmi_oracle_calls) = (selection.evaluations, selection.oracle_calls);
        let nominees = selection.nominees;
        if nominees.is_empty() {
            return DysimReport {
                tmi_queries,
                tmi_oracle_calls,
                ..DysimReport::default()
            };
        }

        // ---- TMI: target markets ----------------------------------------------
        let tmi_config = TmiConfig {
            mioa_threshold: cfg.mioa_threshold,
            overlap_threshold: cfg.market_overlap_threshold,
            ..TmiConfig::default()
        };
        let markets: Vec<TargetMarket> = if cfg.use_target_markets {
            identify_markets(instance, &nominees, &tmi_config)
        } else {
            // Ablation: one market holding every nominee and every user it can
            // reach.
            vec![crate::market::identify_market(
                instance,
                0,
                nominees.clone(),
                &tmi_config,
            )]
        };
        let groups = group_markets(&markets, cfg.market_overlap_threshold);

        // ---- Per group: DRE + TDSI ---------------------------------------------
        let total_promotions = instance.promotions();
        let mut all_seeds = SeedGroup::new();
        for group in &groups {
            let ordered = order_group(
                instance,
                &evaluator,
                &markets,
                group,
                cfg.ordering,
                cfg.base_seed,
            );
            let total_group_nominees: usize =
                ordered.iter().map(|&i| markets[i].nominees.len()).sum();
            let mut group_seeds = SeedGroup::new();
            let mut cumulative_duration = 0u32;
            for &market_idx in &ordered {
                let market = &markets[market_idx];
                // Promotional duration T_τ ∝ the market's nominee share.
                let share = market.nominees.len() as f64 / total_group_nominees.max(1) as f64;
                let duration = ((share * total_promotions as f64).floor() as u32).max(1);
                cumulative_duration = (cumulative_duration + duration).min(total_promotions);

                // DRE: expected perceptions after the group's seeds so far.
                let expected = evaluator.expected_perception(&group_seeds, &market.users);
                let impact = ItemImpactModel::new(&expected, &market.users, cfg.impact_user_cap);

                let mut pending_items: Vec<ItemId> = market.items();
                let mut promoted_items: Vec<ItemId> = group_seeds.items();
                while !pending_items.is_empty() {
                    let next_item = if cfg.use_item_priority {
                        best_item_by_reachability(
                            &impact,
                            instance.scenario().catalog(),
                            market,
                            &pending_items,
                            &promoted_items,
                        )
                        .expect("pending_items is non-empty")
                    } else {
                        pending_items[0]
                    };
                    pending_items.retain(|&x| x != next_item);

                    let pending_nominees: Vec<Nominee> = market
                        .nominees
                        .iter()
                        .copied()
                        .filter(|&(u, x)| x == next_item && !group_seeds.contains_nominee(u, x))
                        .collect();
                    if pending_nominees.is_empty() {
                        continue;
                    }
                    assign_timings(
                        &evaluator,
                        market,
                        pending_nominees,
                        &mut group_seeds,
                        cumulative_duration,
                        total_promotions,
                        cfg.full_timing_search,
                    );
                    promoted_items.push(next_item);
                }
            }
            for seed in group_seeds.seeds() {
                all_seeds.insert(*seed);
            }
        }

        // ---- Guard solutions (Theorem 5's auxiliary solution N̄) ----------------
        let mut guard_solution_used = false;
        if cfg.use_guard_solutions {
            let final_eval = Evaluator::new(instance, cfg.mc_samples, cfg.base_seed ^ 0x5EED);
            // The market-based solution, then the feasible guards: all
            // nominees placed in the first promotion, and every single
            // nominee.  One Monte-Carlo pass measures them all.
            let mut contenders = vec![all_seeds];
            let nominees_first: SeedGroup =
                nominees.iter().map(|&(u, x)| Seed::new(u, x, 1)).collect();
            let singles = nominees
                .iter()
                .map(|&(u, x)| SeedGroup::from_seeds(vec![Seed::new(u, x, 1)]));
            contenders.extend(
                std::iter::once(nominees_first)
                    .chain(singles)
                    .filter(|group| instance.is_feasible(group)),
            );
            let values = final_eval.spreads(&contenders);
            // A later contender replaces the best only when strictly better.
            let mut best = 0;
            for (i, &value) in values.iter().enumerate() {
                if value > values[best] {
                    best = i;
                }
            }
            guard_solution_used = best > 0;
            all_seeds = contenders.swap_remove(best);
        }

        let total_cost = instance.total_cost(&all_seeds);
        DysimReport {
            seeds: all_seeds,
            nominees,
            markets,
            groups,
            total_cost,
            guard_solution_used,
            tmi_queries,
            tmi_oracle_calls,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::CostModel;
    use imdpp_diffusion::scenario::toy_scenario;

    fn instance(budget: f64, promotions: u32) -> ImdppInstance {
        let scenario = toy_scenario();
        let costs = CostModel::uniform(scenario.user_count(), scenario.item_count(), 1.0);
        ImdppInstance::new(scenario, costs, budget, promotions).unwrap()
    }

    /// The reference configuration: `solve_with` driven by the Monte-Carlo
    /// evaluator.
    fn solve(config: DysimConfig, inst: &ImdppInstance) -> DysimReport {
        let dysim = Dysim::new(config);
        let ev = Evaluator::new(inst, dysim.config().mc_samples, dysim.config().base_seed);
        dysim.solve_with(inst, &ev)
    }

    #[test]
    fn dysim_returns_a_feasible_nonempty_solution() {
        let inst = instance(3.0, 3);
        let report = solve(DysimConfig::fast(), &inst);
        assert!(!report.seeds.is_empty());
        assert!(inst.is_feasible(&report.seeds));
        assert!(report.total_cost <= inst.budget() + 1e-9);
        assert!(!report.nominees.is_empty());
        assert!(!report.markets.is_empty());
    }

    #[test]
    fn dysim_seeds_are_within_promotion_horizon() {
        let inst = instance(4.0, 2);
        let seeds = solve(DysimConfig::fast(), &inst).seeds;
        for s in seeds.seeds() {
            assert!(s.promotion >= 1 && s.promotion <= 2);
        }
    }

    #[test]
    fn dysim_spread_beats_a_random_single_seed() {
        let inst = instance(3.0, 2);
        let seeds = solve(DysimConfig::fast(), &inst).seeds;
        let ev = Evaluator::new(&inst, 64, 77);
        let dysim_spread = ev.spread(&seeds);
        // A weak baseline: seeding the isolated user 5 with the cheapest item.
        let weak = SeedGroup::from_seeds(vec![Seed::new(imdpp_graph::UserId(5), ItemId(3), 1)]);
        let weak_spread = ev.spread(&weak);
        assert!(
            dysim_spread > weak_spread,
            "dysim {dysim_spread} vs weak {weak_spread}"
        );
    }

    #[test]
    fn ablations_produce_feasible_solutions() {
        let inst = instance(3.0, 3);
        let no_tm = solve(DysimConfig::fast().without_target_markets(), &inst).seeds;
        let no_ip = solve(DysimConfig::fast().without_item_priority(), &inst).seeds;
        assert!(inst.is_feasible(&no_tm));
        assert!(inst.is_feasible(&no_ip));
        assert!(!no_tm.is_empty());
        assert!(!no_ip.is_empty());
    }

    #[test]
    fn dysim_is_deterministic_for_a_fixed_seed() {
        let inst = instance(3.0, 2);
        let a = solve(DysimConfig::fast(), &inst).seeds;
        let b = solve(DysimConfig::fast(), &inst).seeds;
        assert_eq!(a, b);
    }

    #[test]
    fn larger_budget_never_reduces_the_number_of_seeds() {
        let small = solve(DysimConfig::fast(), &instance(1.0, 2)).seeds;
        let large = solve(DysimConfig::fast(), &instance(4.0, 2)).seeds;
        assert!(large.len() >= small.len());
    }

    #[test]
    fn every_ordering_metric_runs_end_to_end() {
        let inst = instance(3.0, 2);
        for ordering in MarketOrdering::all() {
            let cfg = DysimConfig {
                ordering,
                ..DysimConfig::fast()
            };
            let seeds = solve(cfg, &inst).seeds;
            assert!(inst.is_feasible(&seeds), "{}", ordering.name());
        }
    }

    #[test]
    fn explicit_monte_carlo_oracle_reproduces_the_default_run() {
        use crate::eval::MonteCarloOracle;
        let inst = instance(3.0, 3);
        let cfg = DysimConfig::fast();
        let default_report = solve(cfg.clone(), &inst);
        let oracle = MonteCarloOracle::new(inst.scenario(), cfg.mc_samples, cfg.base_seed);
        let via_oracle = Dysim::new(cfg).solve_with(&inst, &oracle);
        assert_eq!(default_report.seeds, via_oracle.seeds);
        assert_eq!(default_report.nominees, via_oracle.nominees);
    }

    #[test]
    fn zero_viable_nominees_gives_empty_solution() {
        // Budget below every cost: universe is empty.
        let scenario = toy_scenario();
        let costs = CostModel::uniform(scenario.user_count(), scenario.item_count(), 10.0);
        let inst = ImdppInstance::new(scenario, costs, 5.0, 2).unwrap();
        let report = solve(DysimConfig::fast(), &inst);
        assert!(report.seeds.is_empty());
        assert!(report.nominees.is_empty());
    }
}
