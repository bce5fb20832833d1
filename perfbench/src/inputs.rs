//! Seeded inputs: the worlds, update streams and query batches every
//! workload is driven by, plus FNV digests of each so two commits can be
//! shown to receive identical inputs.
//!
//! Each workload's world is fixed; the workload seed drives what happens
//! to it — the update stream and the query batches.  Fresh-solve and
//! update costs differ several-fold between generated worlds of these
//! sizes, so a seeded world would make every figure measure the world
//! rather than the code (see `perfbench/README.md`).  The program under
//! test only ever sees the generated values.

use imdpp_core::nominees::Nominee;
use imdpp_core::{
    DysimConfig, EdgeUpdate, ImdppInstance, ItemId, OracleKind, ScenarioUpdate, UserId,
};
use imdpp_datasets::config::{ImportanceDistribution, SocialModel};
use imdpp_datasets::{generate, DatasetConfig, DatasetKind};
use imdpp_diffusion::SeedGroup;
use std::collections::BTreeSet;

/// SplitMix64: small, fast and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, (lo, hi): (f64, f64)) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// An independent sub-seed of `seed` for one purpose (`salt`).
pub fn derive(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// FNV-1a over 64-bit words.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn real(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A generated world and the engine configuration that serves it.
pub struct World {
    pub instance: ImdppInstance,
    pub config: DysimConfig,
}

/// The Yelp-shaped preset at a quarter of its size (about 200 users,
/// 10 items), budget 120, 3 promotions.
pub fn yelp_world() -> World {
    let instance = generate(&DatasetKind::YelpSmall.config().scaled(0.25))
        .instance
        .with_budget(120.0)
        .with_promotions(3);
    let config = DysimConfig {
        mc_samples: 10,
        candidate_users: Some(32),
        max_nominees: Some(6),
        maintain_bound: None,
        ..DysimConfig::default()
    }
    .with_oracle(OracleKind::RrSketch {
        sets_per_item: 2048,
        shards: 1,
        threads: 0,
    });
    World { instance, config }
}

fn preferential_attachment(
    name: &str,
    users: usize,
    links_per_node: usize,
    avg_influence_strength: f64,
    items: usize,
    base_preference_range: (f64, f64),
    seed: u64,
) -> DatasetConfig {
    DatasetConfig {
        name: name.to_string(),
        users,
        items,
        directed_friendships: false,
        social_model: SocialModel::PreferentialAttachment { links_per_node },
        avg_influence_strength,
        importance: ImportanceDistribution::Uniform { value: 1.0 },
        kg_features: 10,
        kg_brands: 4,
        kg_categories: 4,
        kg_keywords: 8,
        features_per_item: 2,
        keywords_per_item: 1,
        related_pair_fraction: 0.2,
        base_preference_range,
        cost_scale: 0.001,
        initial_metagraph_weight: 0.2,
        seed,
    }
}

/// 5·10³ users, preferential attachment with 4 links per node, mean
/// influence 0.15 and base preferences 0.4–0.7: past the percolation
/// threshold, so RR sets reach the giant cluster.  3 items, budget 40,
/// 2 promotions.
pub fn churn_world() -> World {
    let dataset = preferential_attachment("churn-pa5k", 5_000, 4, 0.15, 3, (0.4, 0.7), 0xC4_0057);
    let instance = generate(&dataset)
        .instance
        .with_budget(40.0)
        .with_promotions(2);
    let config = DysimConfig {
        mc_samples: 2,
        candidate_users: Some(8),
        max_nominees: Some(4),
        use_guard_solutions: false,
        ..DysimConfig::default()
    }
    .with_oracle(OracleKind::RrSketch {
        sets_per_item: 2048,
        shards: 2,
        threads: 0,
    });
    World { instance, config }
}

/// The mix of a seeded update stream.
#[derive(Clone, Copy, Debug)]
pub struct StreamMix {
    /// Share of single preference changes; the rest are edge updates,
    /// split evenly between reweights, inserts and removes.
    pub preference_share: f64,
    pub preference_range: (f64, f64),
    pub weight_range: (f64, f64),
}

/// `len` single localized updates around uniformly drawn users.  An edge
/// update changes one friendship in both directions (the worlds are
/// undirected); no friendship is touched twice, so every update is valid
/// against the world the earlier ones produced.
pub fn update_stream(
    instance: &ImdppInstance,
    seed: u64,
    len: usize,
    mix: StreamMix,
) -> Vec<ScenarioUpdate> {
    let scenario = instance.scenario();
    let social = scenario.social();
    let users = scenario.user_count() as u64;
    let items = scenario.item_count() as u64;
    let mut rng = Rng::new(seed);
    let mut touched = BTreeSet::new();
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let u = UserId(rng.below(users) as u32);
        if rng.range((0.0, 1.0)) < mix.preference_share {
            let item = ItemId(rng.below(items) as u32);
            out.push(ScenarioUpdate::Preferences(vec![(
                u,
                item,
                rng.range(mix.preference_range),
            )]));
            continue;
        }
        let kind = rng.below(3);
        let v = if kind == 1 {
            let v = UserId(rng.below(users) as u32);
            if v == u || social.influence(v, u) > 0.0 {
                continue;
            }
            v
        } else {
            let neighbours: Vec<UserId> = social.influencers_of(u).map(|(v, _)| v).collect();
            if neighbours.is_empty() {
                continue;
            }
            neighbours[rng.below(neighbours.len() as u64) as usize]
        };
        if !touched.insert((u.0.min(v.0), u.0.max(v.0))) {
            continue;
        }
        let update = match kind {
            0 => EdgeUpdate::Reweight {
                src: v,
                dst: u,
                weight: rng.range(mix.weight_range),
            },
            1 => EdgeUpdate::Insert {
                src: v,
                dst: u,
                weight: rng.range(mix.weight_range),
            },
            _ => EdgeUpdate::Remove { src: v, dst: u },
        };
        out.push(ScenarioUpdate::Edges(vec![update, update.mirrored()]));
    }
    out
}

/// `batches` batches of `per_batch` queries; each query holds 1–8 distinct
/// nominees drawn from the candidates of the 64 highest-out-degree users.
pub fn query_batches(
    instance: &ImdppInstance,
    seed: u64,
    batches: usize,
    per_batch: usize,
) -> Vec<Vec<Vec<Nominee>>> {
    let universe = instance.nominee_universe(Some(64));
    let mut rng = Rng::new(seed);
    (0..batches)
        .map(|_| {
            (0..per_batch)
                .map(|_| {
                    let size = (1 + rng.below(8) as usize).min(universe.len());
                    let mut query: Vec<Nominee> = Vec::with_capacity(size);
                    while query.len() < size {
                        let pick = universe[rng.below(universe.len() as u64) as usize];
                        if !query.contains(&pick) {
                            query.push(pick);
                        }
                    }
                    query
                })
                .collect()
        })
        .collect()
}

/// Digest of everything the engine reads from a world: the influence
/// graph in adjacency order, base preferences, hiring costs, item
/// importances, budget and promotions.
pub fn world_digest(instance: &ImdppInstance) -> u64 {
    let scenario = instance.scenario();
    let mut h = Fnv::new();
    h.word(scenario.user_count() as u64);
    h.word(scenario.item_count() as u64);
    for x in scenario.items() {
        h.real(scenario.catalog().importance(x));
    }
    for u in scenario.users() {
        for (v, w) in scenario.social().influenced_by(u) {
            h.word(u64::from(v.0));
            h.real(w);
        }
        h.word(u64::MAX);
        for x in scenario.items() {
            h.real(scenario.base_preference(u, x));
            h.real(instance.cost(u, x));
        }
    }
    h.real(instance.budget());
    h.word(u64::from(instance.promotions()));
    h.finish()
}

pub fn updates_digest(updates: &[ScenarioUpdate]) -> u64 {
    let mut h = Fnv::new();
    for update in updates {
        match update {
            ScenarioUpdate::Preferences(changes) => {
                h.word(0);
                for &(u, x, p) in changes {
                    h.word(u64::from(u.0));
                    h.word(u64::from(x.0));
                    h.real(p);
                }
            }
            ScenarioUpdate::Edges(edges) => {
                h.word(1);
                for e in edges {
                    let (kind, weight) = match *e {
                        EdgeUpdate::Insert { weight, .. } => (2, weight),
                        EdgeUpdate::Remove { .. } => (3, 0.0),
                        EdgeUpdate::Reweight { weight, .. } => (4, weight),
                    };
                    h.word(kind);
                    h.word(u64::from(e.src().0));
                    h.word(u64::from(e.dst().0));
                    h.real(weight);
                }
            }
        }
    }
    h.finish()
}

pub fn queries_digest(batches: &[Vec<Vec<Nominee>>]) -> u64 {
    let mut h = Fnv::new();
    for batch in batches {
        h.word(batch.len() as u64);
        for query in batch {
            h.word(query.len() as u64);
            for &(u, x) in query {
                h.word(u64::from(u.0));
                h.word(u64::from(x.0));
            }
        }
    }
    h.finish()
}

pub fn seeds_digest(seeds: &SeedGroup) -> u64 {
    let mut h = Fnv::new();
    for s in seeds.seeds() {
        h.word(u64::from(s.user.0));
        h.word(u64::from(s.item.0));
        h.word(u64::from(s.promotion));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: StreamMix = StreamMix {
        preference_share: 0.25,
        preference_range: (0.1, 0.5),
        weight_range: (0.05, 0.3),
    };

    #[test]
    fn rng_is_seeded_and_in_range() {
        let draws = |seed| {
            let mut rng = Rng::new(seed);
            (0..64).map(|_| rng.below(10)).collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
        let mut rng = Rng::new(3);
        assert!((0..1000).all(|_| (0.2..0.4).contains(&rng.range((0.2, 0.4)))));
        assert_ne!(derive(1, 1), derive(1, 2));
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let world = yelp_world();
        let a = update_stream(&world.instance, 11, 40, MIX);
        let b = update_stream(&world.instance, 11, 40, MIX);
        let c = update_stream(&world.instance, 12, 40, MIX);
        assert_eq!(updates_digest(&a), updates_digest(&b));
        assert_ne!(updates_digest(&a), updates_digest(&c));
        let q = query_batches(&world.instance, 5, 2, 32);
        assert_eq!(
            queries_digest(&q),
            queries_digest(&query_batches(&world.instance, 5, 2, 32))
        );
        assert_ne!(
            queries_digest(&q),
            queries_digest(&query_batches(&world.instance, 6, 2, 32))
        );
        assert_eq!(
            world_digest(&world.instance),
            world_digest(&yelp_world().instance)
        );
    }

    #[test]
    fn streams_never_touch_a_friendship_twice() {
        let world = yelp_world();
        let mut pairs = BTreeSet::new();
        for update in update_stream(&world.instance, 3, 60, MIX) {
            if let ScenarioUpdate::Edges(edges) = update {
                assert_eq!(edges.len(), 2);
                assert_eq!(edges[1], edges[0].mirrored());
                let (u, v) = (edges[0].src().0, edges[0].dst().0);
                assert!(pairs.insert((u.min(v), u.max(v))));
            }
        }
    }

    #[test]
    fn queries_hold_one_to_eight_distinct_nominees() {
        let world = yelp_world();
        for query in query_batches(&world.instance, 9, 4, 32).concat() {
            assert!((1..=8).contains(&query.len()));
            let mut sorted = query.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), query.len());
        }
    }
}
