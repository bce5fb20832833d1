//! Reverse-reachable set sampling with deterministic per-sample RNG
//! streams.
//!
//! Every RR set is produced by its own RNG stream, seeded from
//! `(base_seed, item, stream_id)` — the same idiom as
//! `imdpp_diffusion::montecarlo`: the result is bit-identical regardless of
//! which worker of the (item × shard) build, growth and refresh tasks
//! samples it (see [`crate::sharded`]), and any single set can be
//! *re-generated later in isolation* (against an updated scenario) by
//! replaying its stream.  That replay property is what makes incremental
//! maintenance exact: see [`crate::incremental`].
//!
//! A set is sampled by drawing a uniform root and traversing in-edges
//! backwards, each edge `u' → u` being live with probability
//! `P_act(u', u, 0) · P_pref(u, item, 0)` — the IC triggering probability of
//! the restricted (frozen-dynamics, single-promotion) problem of Lemma 1.

use imdpp_diffusion::Scenario;
use imdpp_graph::{ItemId, UserId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Mixes `(base_seed, item, stream)` into one RNG seed (SplitMix64-style
/// finalizers keep distinct streams statistically independent).
pub fn stream_seed(base_seed: u64, item: ItemId, stream: u64) -> u64 {
    let mut z = base_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)))
        .wrapping_add((item.0 as u64) << 32);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Scratch state reused across samples so per-set allocations stay O(|set|).
pub(crate) struct Scratch {
    /// Stamp-based visited marks (`visited[u] == stamp` ⇔ visited now).
    visited: Vec<u64>,
    stamp: u64,
    queue: VecDeque<UserId>,
}

impl Scratch {
    pub(crate) fn new(user_count: usize) -> Self {
        Scratch {
            visited: vec![0; user_count],
            stamp: 0,
            queue: VecDeque::new(),
        }
    }
}

/// Samples the RR set of `stream` for `item` under the scenario's *initial*
/// probabilities.  Deterministic in `(scenario, item, base_seed, stream)`.
pub fn sample_set(scenario: &Scenario, item: ItemId, base_seed: u64, stream: u64) -> Vec<UserId> {
    let mut scratch = Scratch::new(scenario.user_count());
    sample_set_with(scenario, item, base_seed, stream, &mut scratch)
}

pub(crate) fn sample_set_with(
    scenario: &Scenario,
    item: ItemId,
    base_seed: u64,
    stream: u64,
    scratch: &mut Scratch,
) -> Vec<UserId> {
    let n = scenario.user_count();
    if n == 0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(stream_seed(base_seed, item, stream));
    scratch.stamp += 1;
    let stamp = scratch.stamp;
    scratch.queue.clear();

    let root = UserId(rng.gen_range(0..n as u32));
    scratch.visited[root.index()] = stamp;
    scratch.queue.push_back(root);
    let mut set = vec![root];
    while let Some(u) = scratch.queue.pop_front() {
        let pref = scenario.base_preference(u, item);
        for (v, strength) in scenario.social().influencers_of(u) {
            if scratch.visited[v.index()] == stamp {
                continue;
            }
            if rng.gen::<f64>() < strength * pref {
                scratch.visited[v.index()] = stamp;
                set.push(v);
                scratch.queue.push_back(v);
            }
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use imdpp_diffusion::par::run_queue;
    use imdpp_diffusion::scenario::toy_scenario;

    #[test]
    fn sets_contain_their_root_and_only_valid_users() {
        let s = toy_scenario();
        for stream in 0..32 {
            let set = sample_set(&s, ItemId(0), 9, stream);
            assert!(!set.is_empty());
            assert!(set.iter().all(|u| u.index() < s.user_count()));
            // No duplicates.
            let mut ids: Vec<u32> = set.iter().map(|u| u.0).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), set.len());
        }
    }

    fn replayed(s: &Scenario, item: ItemId, count: u64) -> Vec<Vec<UserId>> {
        (0..count)
            .map(|stream| sample_set(s, item, 5, stream))
            .collect()
    }

    #[test]
    fn streams_are_deterministic_and_independent_of_thread_count() {
        let s = toy_scenario();
        let isolated = replayed(&s, ItemId(0), 64);
        // One reused scratch buffer reproduces the isolated replays...
        let mut scratch = Scratch::new(s.user_count());
        let reused: Vec<Vec<UserId>> = (0..64)
            .map(|stream| sample_set_with(&s, ItemId(0), 5, stream, &mut scratch))
            .collect();
        assert_eq!(reused, isolated);
        // ...and so does any worker count on the work-queue, forced past
        // the machine's core count.
        for workers in [2usize, 4, 8] {
            let queued = run_queue((0..64u64).collect(), workers, |_, stream| {
                sample_set(&s, ItemId(0), 5, stream)
            });
            assert_eq!(queued, isolated, "{workers} workers");
        }
    }

    #[test]
    fn different_streams_differ_somewhere() {
        let s = toy_scenario();
        let sets = replayed(&s, ItemId(0), 32);
        assert!(sets.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn different_items_use_different_streams() {
        let s = toy_scenario();
        let a = replayed(&s, ItemId(0), 16);
        let b = replayed(&s, ItemId(1), 16);
        assert_ne!(a, b);
    }

    #[test]
    fn stream_seed_mixes_all_inputs() {
        let a = stream_seed(1, ItemId(0), 0);
        assert_ne!(a, stream_seed(2, ItemId(0), 0));
        assert_ne!(a, stream_seed(1, ItemId(1), 0));
        assert_ne!(a, stream_seed(1, ItemId(0), 1));
    }
}
