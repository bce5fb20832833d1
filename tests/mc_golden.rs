//! Bit-identity pins for the forward Monte-Carlo estimator and everything
//! built on it.
//!
//! Every RNG draw, the order of the draws and the order of the
//! floating-point operations that feed an estimate are part of the output
//! (ARCHITECTURE.md, "Determinism").  This file pins, as `f64::to_bits`
//! values and FNV-64 digests, what the estimator computes on four worlds —
//! the toy scenario under IC, under Linear Threshold and with frozen
//! dynamics, and the directed `AmazonTiny` preset:
//!
//! * the `SpreadEstimator` mean and standard deviation,
//! * `σ_τ` and `π_τ` of a seed group on a market subset — the two values
//!   TDSI measures per candidate,
//! * the `expected_perception` weights DRE reads,
//! * a digest of `simulate`'s adoption records for every sample stream,
//! * the `ScoredCandidate`s of `assign_timings` — over the two-slot
//!   window, over the full `[t̂, T]` search (several timings per round),
//!   and from a group whose latest seed sits in promotion 2,
//! * the seeds of `Dysim::solve_with` under `DysimConfig::fast()`, with
//!   and without the full timing search, and of
//!   `adaptive_dysim_with_oracle`,
//! * on the Independent Cascade worlds, the nominees and seeds of
//!   `Dysim::solve_with` driven by an RR-sketch oracle, and the selection
//!   of `select_nominees_plain_greedy_with_oracle` through that sketch.
//!
//! A kernel or estimator change that claims to be exact must leave every
//! pinned value unchanged.  On a mismatch the assertion prints the whole
//! measured table, in the format of `GOLDEN`.

use imdpp_suite::core::eval::MonteCarloOracle;
use imdpp_suite::core::market::TargetMarket;
use imdpp_suite::core::nominees::{
    select_nominees_plain_greedy_with_oracle, NomineeSelectionConfig,
};
use imdpp_suite::core::tdsi::assign_timings;
use imdpp_suite::core::{
    adaptive_dysim_with_oracle, CostModel, Dysim, DysimConfig, Evaluator, ImdppError,
    ImdppInstance, ScenarioUpdate,
};
use imdpp_suite::datasets::{generate, DatasetKind};
use imdpp_suite::diffusion::scenario::toy_scenario;
use imdpp_suite::diffusion::{
    simulate, DiffusionModel, DynamicsConfig, Seed, SeedGroup, SpreadEstimator,
};
use imdpp_suite::graph::{ItemId, UserId};
use imdpp_suite::sketch::{SketchConfig, SketchOracle};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Monte-Carlo samples per estimate.
const SAMPLES: usize = 8;
/// Base seed of every estimator in this file.
const BASE_SEED: u64 = 0x601D;
/// RR sets per item of the sketch-driven pins.
const SKETCH_SETS: usize = 512;

/// One world with the seed groups and the market the pins are taken on.
struct Case {
    name: &'static str,
    instance: ImdppInstance,
    /// The group whose σ, σ_τ, π_τ, perceptions and records are pinned.
    seeds: SeedGroup,
    /// The market subset for σ_τ, π_τ, expected perceptions and TDSI.
    market_users: Vec<UserId>,
    /// The group TDSI extends (non-empty, so its baseline is measured).
    timing_group: SeedGroup,
    /// A group whose latest seed sits in promotion 2 (`t̂ = 2`).
    late_group: SeedGroup,
    /// The nominees TDSI places.
    pending: Vec<(UserId, ItemId)>,
}

fn seed(u: u32, x: u32, t: u32) -> Seed {
    Seed::new(UserId(u), ItemId(x), t)
}

fn toy_case(name: &'static str, model: DiffusionModel, frozen: bool) -> Result<Case, ImdppError> {
    let mut scenario = toy_scenario().with_model(model);
    if frozen {
        scenario = scenario.with_dynamics(DynamicsConfig::frozen());
    }
    let costs = CostModel::uniform(scenario.user_count(), scenario.item_count(), 1.0);
    Ok(Case {
        name,
        instance: ImdppInstance::new(scenario, costs, 3.0, 3)?,
        seeds: SeedGroup::from_seeds(vec![seed(0, 0, 1), seed(2, 1, 2), seed(4, 2, 3)]),
        market_users: vec![UserId(0), UserId(1), UserId(3), UserId(5)],
        timing_group: SeedGroup::from_seeds(vec![seed(1, 3, 1)]),
        late_group: SeedGroup::from_seeds(vec![seed(1, 3, 1), seed(3, 2, 2)]),
        pending: vec![
            (UserId(0), ItemId(0)),
            (UserId(2), ItemId(0)),
            (UserId(2), ItemId(1)),
        ],
    })
}

fn amazon_case() -> Case {
    let instance = generate(&DatasetKind::AmazonTiny.config())
        .instance
        .with_budget(60.0)
        .with_promotions(2);
    Case {
        name: "amazon-tiny",
        instance,
        seeds: SeedGroup::from_seeds(vec![seed(0, 0, 1), seed(7, 1, 1), seed(13, 2, 2)]),
        market_users: (0..100).step_by(3).map(UserId).collect(),
        timing_group: SeedGroup::from_seeds(vec![seed(21, 3, 1)]),
        late_group: SeedGroup::from_seeds(vec![seed(21, 3, 2)]),
        pending: vec![
            (UserId(0), ItemId(0)),
            (UserId(7), ItemId(1)),
            (UserId(13), ItemId(0)),
        ],
    }
}

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn nominees_digest(nominees: &[(UserId, ItemId)]) -> u64 {
    fnv(nominees
        .iter()
        .flat_map(|&(u, x)| [u64::from(u.0), u64::from(x.0)]))
}

fn seeds_digest(group: &SeedGroup) -> u64 {
    fnv(group.seeds().iter().flat_map(|s| {
        [
            u64::from(s.user.0),
            u64::from(s.item.0),
            u64::from(s.promotion),
        ]
    }))
}

/// Measures every pinned value of one case, in `GOLDEN` order.
fn measure(case: &Case) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut pin = |what: &str, bits: u64| out.push((format!("{}.{what}", case.name), bits));
    let scenario = case.instance.scenario();
    let promotions = case.instance.promotions();
    let users = &case.market_users;

    let estimator = SpreadEstimator::new(scenario, SAMPLES, BASE_SEED);
    let sigma = estimator.estimate(&case.seeds, promotions);
    pin("sigma.mean", sigma.mean.to_bits());
    pin("sigma.std_dev", sigma.std_dev.to_bits());

    // σ_τ and π_τ: the market-restricted spread and the future-adoption
    // likelihood of the market, each the mean over the same sample streams.
    let sigma_tau = estimator
        .estimate_metric(&case.seeds, promotions, |out| {
            out.records()
                .iter()
                .filter(|r| users.contains(&r.user))
                .map(|r| scenario.catalog().importance(r.item))
                .sum()
        })
        .mean;
    let pi_tau = estimator
        .estimate_metric(&case.seeds, promotions, |out| {
            out.state()
                .future_adoption_likelihood(scenario, users.iter().copied())
        })
        .mean;
    pin("sigma_tau", sigma_tau.to_bits());
    pin("pi_tau", pi_tau.to_bits());

    let evaluator = Evaluator::new(&case.instance, SAMPLES, BASE_SEED);
    pin("evaluator.spread", evaluator.spread(&case.seeds).to_bits());
    let perception = evaluator.expected_perception(&case.seeds, users);
    pin(
        "expected_perception",
        fnv(users
            .iter()
            .flat_map(|&u| perception.weight_vector(u).iter().map(|w| w.to_bits()))),
    );

    for i in 0..SAMPLES as u64 {
        let mut rng = StdRng::seed_from_u64(BASE_SEED.wrapping_add(i));
        let outcome = simulate(scenario, &case.seeds, promotions, &mut rng);
        let digest = fnv(outcome.records().iter().flat_map(|r| {
            [
                u64::from(r.user.0),
                u64::from(r.item.0),
                u64::from(r.promotion),
                u64::from(r.step),
                u64::from(r.via_association),
            ]
        }));
        pin(&format!("records[{i}]"), digest);
    }

    let market = TargetMarket {
        index: 0,
        nominees: case.pending.clone(),
        users: users.clone(),
        diameter: 3,
    };
    // The two-slot window, the full [t̂, T] search, and the window from a
    // group whose latest seed is in promotion 2.
    let timing_runs = [
        ("assign_timings", &case.timing_group, false),
        ("assign_timings.full", &case.timing_group, true),
        ("assign_timings.late", &case.late_group, false),
    ];
    for (label, start, full_timing_search) in timing_runs {
        let mut group = start.clone();
        let placed = assign_timings(
            &evaluator,
            &market,
            case.pending.clone(),
            &mut group,
            promotions,
            promotions,
            full_timing_search,
        );
        for (i, c) in placed.iter().enumerate() {
            pin(
                &format!("{label}[{i}]"),
                fnv([
                    u64::from(c.seed.user.0),
                    u64::from(c.seed.item.0),
                    u64::from(c.seed.promotion),
                    c.substantial_influence.to_bits(),
                    c.marginal_adoption.to_bits(),
                    c.marginal_likelihood.to_bits(),
                ]),
            );
        }
    }

    let config = DysimConfig::fast();
    let dysim = Dysim::new(config.clone());
    let reference = Evaluator::new(&case.instance, config.mc_samples, config.base_seed);
    let report = dysim.solve_with(&case.instance, &reference);
    pin("dysim.seeds", seeds_digest(&report.seeds));
    pin("dysim.nominees", nominees_digest(&report.nominees));
    // Without the guard solutions the answer is TDSI's own seed group.
    let unguarded = Dysim::new(DysimConfig {
        use_guard_solutions: false,
        ..config.clone()
    })
    .solve_with(&case.instance, &reference);
    pin("dysim.unguarded_seeds", seeds_digest(&unguarded.seeds));
    let full_search = Dysim::new(DysimConfig {
        full_timing_search: true,
        use_guard_solutions: false,
        ..config.clone()
    })
    .solve_with(&case.instance, &reference);
    pin("dysim.full_search_seeds", seeds_digest(&full_search.seeds));

    // The RR sketch encodes the Independent Cascade triggering model only.
    if scenario.model() == DiffusionModel::IndependentCascade {
        let sketch = SketchOracle::build(
            scenario,
            SketchConfig::fixed(SKETCH_SETS).with_base_seed(BASE_SEED),
        );
        let via_sketch = dysim.solve_with(&case.instance, &sketch);
        pin(
            "sketch.dysim.nominees",
            nominees_digest(&via_sketch.nominees),
        );
        pin("sketch.dysim.seeds", seeds_digest(&via_sketch.seeds));
        let universe = case.instance.nominee_universe(config.candidate_users);
        let plain = select_nominees_plain_greedy_with_oracle(
            &case.instance,
            &sketch,
            &universe,
            &NomineeSelectionConfig::default(),
        );
        pin(
            "sketch.plain_greedy.nominees",
            nominees_digest(&plain.nominees),
        );
        pin("sketch.plain_greedy.objective", plain.objective.to_bits());
    }

    let drift = [ScenarioUpdate::Preferences(vec![(
        UserId(1),
        ItemId(0),
        0.9,
    )])];
    let mut oracle = MonteCarloOracle::new(scenario, config.mc_samples, config.base_seed);
    let adaptive = adaptive_dysim_with_oracle(&case.instance, &config, &drift, &mut oracle);
    pin("adaptive.seeds", seeds_digest(&adaptive.seeds));
    out
}

/// The values computed by the estimator before the allocation-free kernel
/// and the fused TDSI pass; both must reproduce them bit for bit.  The
/// full-search, `t̂ = 2`, full-search Dysim and sketch-driven pins were
/// taken before batched nominee selection and prefix-shared TDSI rounds,
/// which must reproduce them too.
const GOLDEN: &[(&str, u64)] = &[
    ("toy-ic.sigma.mean", 0x400a333333333334),
    ("toy-ic.sigma.std_dev", 0x3feeeb3bb8e3d4fe),
    ("toy-ic.sigma_tau", 0x3ff8000000000000),
    ("toy-ic.pi_tau", 0x3fe494a393978221),
    ("toy-ic.evaluator.spread", 0x400a333333333334),
    ("toy-ic.expected_perception", 0x0a556c18f0e9aa88),
    ("toy-ic.records[0]", 0xa8a9105f94b6b0e2),
    ("toy-ic.records[1]", 0x3d5ba373930990c2),
    ("toy-ic.records[2]", 0x391aa2bbd95e1e24),
    ("toy-ic.records[3]", 0x91c6ca1ffb24ac43),
    ("toy-ic.records[4]", 0x09511c96438dd8a1),
    ("toy-ic.records[5]", 0x1d2e8dbb5f4d61e0),
    ("toy-ic.records[6]", 0x1d2e8dbb5f4d61e0),
    ("toy-ic.records[7]", 0xbb0252a1a796e0a1),
    ("toy-ic.assign_timings[0]", 0x4d1b896c2cd21bcb),
    ("toy-ic.assign_timings[1]", 0xc073a58bb12a2831),
    ("toy-ic.assign_timings[2]", 0xa9651529c3c0138c),
    ("toy-ic.assign_timings.full[0]", 0x4d1b896c2cd21bcb),
    ("toy-ic.assign_timings.full[1]", 0xc073a58bb12a2831),
    ("toy-ic.assign_timings.full[2]", 0xa9651529c3c0138c),
    ("toy-ic.assign_timings.late[0]", 0x32788d2d922ea7e1),
    ("toy-ic.assign_timings.late[1]", 0xb433d603d87a045e),
    ("toy-ic.assign_timings.late[2]", 0xf4f37b32ddb05ea3),
    ("toy-ic.dysim.seeds", 0x11d77dff2aa364a5),
    ("toy-ic.dysim.nominees", 0x00f2a5795e6d62e4),
    ("toy-ic.dysim.unguarded_seeds", 0x99d09d9b188af166),
    ("toy-ic.dysim.full_search_seeds", 0x99d09d9b188af166),
    ("toy-ic.sketch.dysim.nominees", 0x4ff0bb4171827b25),
    ("toy-ic.sketch.dysim.seeds", 0xfe9803b1e9821b44),
    ("toy-ic.sketch.plain_greedy.nominees", 0x4ff0bb4171827b25),
    ("toy-ic.sketch.plain_greedy.objective", 0x4010633333333333),
    ("toy-ic.adaptive.seeds", 0x11d77dff2aa364a5),
    ("toy-lt.sigma.mean", 0x400b333333333334),
    ("toy-lt.sigma.std_dev", 0x3ff084710fce510a),
    ("toy-lt.sigma_tau", 0x3ffa000000000000),
    ("toy-lt.pi_tau", 0x3fe466246c6ce4e8),
    ("toy-lt.evaluator.spread", 0x400b333333333334),
    ("toy-lt.expected_perception", 0x0a556c18f0e9aa88),
    ("toy-lt.records[0]", 0xa8a9105f94b6b0e2),
    ("toy-lt.records[1]", 0x826f4e9c7dceef40),
    ("toy-lt.records[2]", 0x391aa2bbd95e1e24),
    ("toy-lt.records[3]", 0x91c6ca1ffb24ac43),
    ("toy-lt.records[4]", 0x09511c96438dd8a1),
    ("toy-lt.records[5]", 0x1d2e8dbb5f4d61e0),
    ("toy-lt.records[6]", 0x1d2e8dbb5f4d61e0),
    ("toy-lt.records[7]", 0xbb0252a1a796e0a1),
    ("toy-lt.assign_timings[0]", 0x90673ecf9006323e),
    ("toy-lt.assign_timings[1]", 0x4102045673bfb394),
    ("toy-lt.assign_timings[2]", 0xf06088fe15bff1d8),
    ("toy-lt.assign_timings.full[0]", 0x90673ecf9006323e),
    ("toy-lt.assign_timings.full[1]", 0x4102045673bfb394),
    ("toy-lt.assign_timings.full[2]", 0xf06088fe15bff1d8),
    ("toy-lt.assign_timings.late[0]", 0xaa8fbb39ce7c327a),
    ("toy-lt.assign_timings.late[1]", 0xe29558b5835b0eb1),
    ("toy-lt.assign_timings.late[2]", 0x5577f9cdb90d3dc5),
    ("toy-lt.dysim.seeds", 0x99d09d9b188af166),
    ("toy-lt.dysim.nominees", 0x00f2a5795e6d62e4),
    ("toy-lt.dysim.unguarded_seeds", 0x99d09d9b188af166),
    ("toy-lt.dysim.full_search_seeds", 0x99d09d9b188af166),
    ("toy-lt.adaptive.seeds", 0xfe9803b1e9821b44),
    ("toy-frozen.sigma.mean", 0x4010266666666666),
    ("toy-frozen.sigma.std_dev", 0x3ff13b2ffc0d1a57),
    ("toy-frozen.sigma_tau", 0x3ffdcccccccccccd),
    ("toy-frozen.pi_tau", 0x3fe21cac083126ea),
    ("toy-frozen.evaluator.spread", 0x4010266666666666),
    ("toy-frozen.expected_perception", 0x2dc670cb27b349cd),
    ("toy-frozen.records[0]", 0x09511c96438dd8a1),
    ("toy-frozen.records[1]", 0x911163d1e52c2d25),
    ("toy-frozen.records[2]", 0xb3437fb2550e7ce7),
    ("toy-frozen.records[3]", 0x5ae1075cb2ed0a06),
    ("toy-frozen.records[4]", 0x09511c96438dd8a1),
    ("toy-frozen.records[5]", 0x1707782067e106c5),
    ("toy-frozen.records[6]", 0x7288278a18e57ee1),
    ("toy-frozen.records[7]", 0x0b8900b125ec44c7),
    ("toy-frozen.assign_timings[0]", 0x9aaec8a02154a9bf),
    ("toy-frozen.assign_timings[1]", 0xc1907cdaaff09822),
    ("toy-frozen.assign_timings[2]", 0x9b90e17c3add7925),
    ("toy-frozen.assign_timings.full[0]", 0x9aaec8a02154a9bf),
    ("toy-frozen.assign_timings.full[1]", 0xc1907cdaaff09822),
    ("toy-frozen.assign_timings.full[2]", 0x9b90e17c3add7925),
    ("toy-frozen.assign_timings.late[0]", 0x6f29c14f2f5be79d),
    ("toy-frozen.assign_timings.late[1]", 0x9f67f803611f53cd),
    ("toy-frozen.assign_timings.late[2]", 0x9a2245ca9a422b95),
    ("toy-frozen.dysim.seeds", 0x7ad5d6920d9ba745),
    ("toy-frozen.dysim.nominees", 0x00f2a5795e6d62e4),
    ("toy-frozen.dysim.unguarded_seeds", 0x7ad5d6920d9ba745),
    ("toy-frozen.dysim.full_search_seeds", 0x7ad5d6920d9ba745),
    ("toy-frozen.sketch.dysim.nominees", 0x4ff0bb4171827b25),
    ("toy-frozen.sketch.dysim.seeds", 0x0b8b7b15420470a4),
    (
        "toy-frozen.sketch.plain_greedy.nominees",
        0x4ff0bb4171827b25,
    ),
    (
        "toy-frozen.sketch.plain_greedy.objective",
        0x4010633333333333,
    ),
    ("toy-frozen.adaptive.seeds", 0x11d77dff2aa364a5),
    ("amazon-tiny.sigma.mean", 0x4045ff5797824b93),
    ("amazon-tiny.sigma.std_dev", 0x40466353df626117),
    ("amazon-tiny.sigma_tau", 0x40282ab15f0a034d),
    ("amazon-tiny.pi_tau", 0x4012c5059e051bca),
    ("amazon-tiny.evaluator.spread", 0x4045ff5797824b93),
    ("amazon-tiny.expected_perception", 0x6d84cf24a9cedd50),
    ("amazon-tiny.records[0]", 0xa86e1a18e04daaf0),
    ("amazon-tiny.records[1]", 0x36a234d2d71ef762),
    ("amazon-tiny.records[2]", 0x440aaff2274e74ae),
    ("amazon-tiny.records[3]", 0xb4fdf0fd62eb111f),
    ("amazon-tiny.records[4]", 0x5ca3a423fb33c269),
    ("amazon-tiny.records[5]", 0x0c719541e9fa27fd),
    ("amazon-tiny.records[6]", 0xbcb9e6b40ce1e30b),
    ("amazon-tiny.records[7]", 0xdd831df8cab32f7d),
    ("amazon-tiny.assign_timings[0]", 0x3a0f11ddfb776893),
    ("amazon-tiny.assign_timings[1]", 0xcdce33062f55f26d),
    ("amazon-tiny.assign_timings[2]", 0xde4364edf097e62d),
    ("amazon-tiny.assign_timings.full[0]", 0x3a0f11ddfb776893),
    ("amazon-tiny.assign_timings.full[1]", 0xcdce33062f55f26d),
    ("amazon-tiny.assign_timings.full[2]", 0xde4364edf097e62d),
    ("amazon-tiny.assign_timings.late[0]", 0x1bb2b9da457903e7),
    ("amazon-tiny.assign_timings.late[1]", 0x453fb8e78894755c),
    ("amazon-tiny.assign_timings.late[2]", 0x70893eb932a73a99),
    ("amazon-tiny.dysim.seeds", 0x2d9f776b54de7d63),
    ("amazon-tiny.dysim.nominees", 0x7c89e90391256860),
    ("amazon-tiny.dysim.unguarded_seeds", 0x2d9f776b54de7d63),
    ("amazon-tiny.dysim.full_search_seeds", 0x2d9f776b54de7d63),
    ("amazon-tiny.sketch.dysim.nominees", 0xe8a6dff676937e6e),
    ("amazon-tiny.sketch.dysim.seeds", 0x41f62d1b659dfa0d),
    (
        "amazon-tiny.sketch.plain_greedy.nominees",
        0xe8a6dff676937e6e,
    ),
    (
        "amazon-tiny.sketch.plain_greedy.objective",
        0x40361c42192311ea,
    ),
    ("amazon-tiny.adaptive.seeds", 0x1c16ea94ff9647f8),
];

#[test]
fn monte_carlo_outputs_are_bit_identical_to_the_pinned_values() -> Result<(), ImdppError> {
    let cases = [
        toy_case("toy-ic", DiffusionModel::IndependentCascade, false)?,
        toy_case("toy-lt", DiffusionModel::LinearThreshold, false)?,
        toy_case("toy-frozen", DiffusionModel::IndependentCascade, true)?,
        amazon_case(),
    ];
    let measured: Vec<(String, u64)> = cases.iter().flat_map(measure).collect();
    let table: String = measured
        .iter()
        .map(|(name, bits)| format!("    (\"{name}\", 0x{bits:016x}),\n"))
        .collect();
    let golden: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, b)| (n.to_string(), b)).collect();
    assert!(
        measured == golden,
        "Monte-Carlo outputs moved; measured table:\n{table}"
    );
    Ok(())
}
