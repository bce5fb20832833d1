//! Greedy max-coverage seed selection over a [`ShardedRrStore`] with
//! dense, incrementally-maintained counters.
//!
//! The selection core of TIM/IMM-family algorithms: repeatedly pick the user
//! covering the most not-yet-covered RR sets.  Instead of recounting every
//! user per iteration (the quadratic pattern the toy implementation used),
//! a dense `Vec` of per-user counters is built once and *decremented* as
//! sets become covered — each RR-set entry is touched at most twice overall
//! (CELF-style lazy bookkeeping specialized to exact coverage counts).
//! Ties break deterministically toward the smallest user id.

use crate::sharded::ShardedRrStore;
use crate::store::{RrStore, SetId};
use imdpp_graph::UserId;

/// Users per argmax tile: 4096 × 4 bytes = one 16 KiB block of the counter
/// array — small enough to stay cache-resident while a tile is scanned,
/// large enough that the per-tile bookkeeping is negligible at 10⁶ users.
const ARGMAX_TILE: usize = 4096;

/// The cache-tiled argmax over the dense per-user counters.
///
/// Each tile caches its maximum; a tile is only re-scanned when a decrement
/// dirtied it since the last argmax, and a clean tile whose cached max
/// cannot beat the current best is skipped without touching its counters.
/// At 10⁶ users a selection iteration therefore reads the few dirtied tiles
/// plus one cached word per clean tile instead of streaming 4 MB of
/// counters.  Tiles are scanned in ascending order with the same
/// strictly-greater comparison as the flat loop, so the result — winner
/// *and* tie-break toward the smallest user id — is exactly the flat scan's.
struct TiledArgmax {
    tile_max: Vec<u32>,
    dirty: Vec<bool>,
}

impl TiledArgmax {
    fn new(users: usize) -> Self {
        let tiles = users.div_ceil(ARGMAX_TILE).max(1);
        TiledArgmax {
            tile_max: vec![0; tiles],
            dirty: vec![true; tiles],
        }
    }

    /// Marks the tile containing `user` stale after a counter decrement.
    #[inline]
    fn touch(&mut self, user: usize) {
        self.dirty[user / ARGMAX_TILE] = true;
    }

    /// `(best user, best count)` over `counts`, ties toward the smallest id;
    /// `(0, 0)` when every counter is zero.
    fn argmax(&mut self, counts: &[u32]) -> (usize, u32) {
        let mut best_user = 0usize;
        let mut best_count = 0u32;
        for (t, (cached, dirty)) in self.tile_max.iter_mut().zip(&mut self.dirty).enumerate() {
            let lo = t * ARGMAX_TILE;
            let hi = (lo + ARGMAX_TILE).min(counts.len());
            if *dirty {
                *cached = counts[lo..hi].iter().copied().max().unwrap_or(0);
                *dirty = false;
            }
            if *cached <= best_count {
                continue;
            }
            for (off, &c) in counts[lo..hi].iter().enumerate() {
                if c > best_count {
                    best_count = c;
                    best_user = lo + off;
                }
            }
        }
        (best_user, best_count)
    }
}

/// Result of a greedy max-coverage selection.
#[derive(Clone, Debug, Default)]
pub struct GreedySelection {
    /// Chosen users in selection order.
    pub seeds: Vec<UserId>,
    /// Number of RR sets covered by the chosen users.
    pub covered: usize,
    /// Estimated adopters of the store's item when seeding `seeds`:
    /// `n · covered / |sets|`.
    pub estimated_adopters: f64,
}

/// Selects up to `k` users greedily maximizing RR-set coverage.
///
/// Stops early when no remaining user covers an uncovered set.
/// Deterministic (ties toward smaller user ids), and `O(total pool size +
/// k · n)`: each shard contributes a local inverted index and its per-user
/// counts; the argmax runs over the aggregated (summed) counts, the picked
/// user's sets come from the shard indexes, and covering a set releases its
/// members' counts — each RR-set entry is decremented exactly once, when
/// its set first becomes covered.  Because the aggregated counters equal
/// the counters of one flat pool at every step (the shards partition the
/// same multiset of sets), the selection — seeds, order, tie breaks,
/// coverage — is the same for any shard count.
pub fn greedy_max_coverage(store: &ShardedRrStore, k: usize) -> GreedySelection {
    let n = store.user_count();
    let total = store.len();
    let shard_count = store.shard_count();
    if n == 0 || total == 0 || k == 0 {
        return GreedySelection::default();
    }

    // One local inverted index per shard, and the aggregated per-user
    // counts of uncovered sets (the sum of the per-shard partial counters)
    // read off the index offsets — no second corpus scan.
    let shard_invs: Vec<(Vec<u32>, Vec<SetId>)> = (0..shard_count)
        .map(|si| local_inverted_index(store.shard(si), n))
        .collect();
    let mut counts = vec![0u32; n];
    for (inv_offsets, _) in &shard_invs {
        for (u, count) in counts.iter_mut().enumerate() {
            *count += inv_offsets[u + 1] - inv_offsets[u];
        }
    }

    // Coverage flags indexed by *global* id so `covered_count` and the
    // estimate aggregate across shards.
    let mut covered = vec![false; total];
    let mut covered_count = 0usize;
    let mut chosen = Vec::with_capacity(k.min(n));
    let mut argmax = TiledArgmax::new(n);

    for _ in 0..k {
        let (best_user, best_count) = argmax.argmax(&counts);
        if best_count == 0 {
            break;
        }
        chosen.push(UserId(best_user as u32));
        for (si, (inv_offsets, inv_sets)) in shard_invs.iter().enumerate() {
            let lo = inv_offsets[best_user] as usize;
            let hi = inv_offsets[best_user + 1] as usize;
            for &local in &inv_sets[lo..hi] {
                let global = local as usize * shard_count + si;
                if covered[global] {
                    continue;
                }
                covered[global] = true;
                covered_count += 1;
                for u in store.shard(si).set_members(local) {
                    counts[u as usize] -= 1;
                    argmax.touch(u as usize);
                }
            }
        }
        debug_assert_eq!(counts[best_user], 0);
    }

    GreedySelection {
        estimated_adopters: n as f64 * covered_count as f64 / total as f64,
        seeds: chosen,
        covered: covered_count,
    }
}

/// One counting-sort pass building a local user → set CSR index over a flat
/// store (usable without `&mut RrStore`, unlike the store's own index).
fn local_inverted_index(store: &RrStore, n: usize) -> (Vec<u32>, Vec<SetId>) {
    let mut counts = vec![0u32; n];
    for id in 0..store.len() as SetId {
        for u in store.set_members(id) {
            counts[u as usize] += 1;
        }
    }
    let mut inv_offsets = vec![0u32; n + 1];
    for (u, &c) in counts.iter().enumerate() {
        inv_offsets[u + 1] = inv_offsets[u] + c;
    }
    let mut cursors = inv_offsets.clone();
    let mut inv_sets = vec![0u32; inv_offsets[n] as usize];
    for id in 0..store.len() as SetId {
        for u in store.set_members(id) {
            inv_sets[cursors[u as usize] as usize] = id;
            cursors[u as usize] += 1;
        }
    }
    (inv_offsets, inv_sets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imdpp_graph::ItemId;

    fn users(ids: &[u32]) -> Vec<UserId> {
        ids.iter().map(|&u| UserId(u)).collect()
    }

    /// The reference every selection is checked against: the
    /// recount-per-round greedy (count each user's uncovered sets afresh,
    /// take the first maximum), returning the seeds and the covered count.
    fn recount_greedy(sets: &[&[u32]], n: u32, k: usize) -> (Vec<UserId>, usize) {
        let mut covered = vec![false; sets.len()];
        let mut seeds = Vec::new();
        for _ in 0..k {
            let mut best = (0u32, 0usize);
            for u in 0..n {
                let c = sets
                    .iter()
                    .enumerate()
                    .filter(|(i, s)| !covered[*i] && s.contains(&u))
                    .count();
                if c > best.1 {
                    best = (u, c);
                }
            }
            if best.1 == 0 {
                break;
            }
            seeds.push(UserId(best.0));
            for (i, s) in sets.iter().enumerate() {
                covered[i] |= s.contains(&best.0);
            }
        }
        (seeds, covered.iter().filter(|&&c| c).count())
    }

    /// Checks the greedy over `sets` against [`recount_greedy`] for every
    /// shard count, returning the (shard-independent) selection.
    fn checked_greedy(n: u32, sets: &[&[u32]], k: usize) -> GreedySelection {
        let (seeds, covered) = recount_greedy(sets, n, k);
        let selections = [1usize, 2, 4, 7].map(|shards| {
            let mut store = ShardedRrStore::new(ItemId(0), n as usize, shards);
            for set in sets {
                store.push_set(&users(set));
            }
            let sel = greedy_max_coverage(&store, k);
            assert_eq!(sel.seeds, seeds, "{shards} shards");
            assert_eq!(sel.covered, covered, "{shards} shards");
            sel
        });
        for other in &selections[1..] {
            assert_eq!(other.estimated_adopters, selections[0].estimated_adopters);
        }
        let [sel, ..] = selections;
        sel
    }

    #[test]
    fn picks_the_dominant_coverer_first() {
        let sel = checked_greedy(5, &[&[0, 1], &[0, 2], &[0, 3], &[4]], 2);
        assert_eq!(sel.seeds, users(&[0, 4]));
        assert_eq!(sel.covered, 4);
        assert!((sel.estimated_adopters - 5.0).abs() < 1e-12);
    }

    #[test]
    fn stops_when_everything_is_covered() {
        let sel = checked_greedy(4, &[&[1], &[1, 2]], 10);
        assert_eq!(sel.seeds, users(&[1]));
        assert_eq!(sel.covered, 2);
    }

    #[test]
    fn ties_break_toward_smaller_ids() {
        let sel = checked_greedy(4, &[&[2, 3], &[2, 3]], 1);
        assert_eq!(sel.seeds, users(&[2]));
    }

    #[test]
    fn empty_inputs_yield_empty_selection() {
        assert!(checked_greedy(4, &[], 3).seeds.is_empty());
        assert!(checked_greedy(4, &[&[0]], 0).seeds.is_empty());
    }

    #[test]
    fn matches_the_legacy_quadratic_greedy() {
        // Moderately sized random-ish instance against the recount-per-round
        // reference, at every shard count.
        let mut sets: Vec<Vec<u32>> = Vec::new();
        let mut x = 12345u64;
        for _ in 0..60 {
            let mut set = Vec::new();
            for u in 0..20u32 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if x >> 33 & 7 < 2 {
                    set.push(u);
                }
            }
            if set.is_empty() {
                set.push((x >> 40) as u32 % 20);
            }
            sets.push(set);
        }
        let sets: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
        let sel = checked_greedy(20, &sets, 5);
        assert_eq!(sel.seeds.len(), 5);
    }
}
