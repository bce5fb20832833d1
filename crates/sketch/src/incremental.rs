//! Incremental sketch maintenance under preference drift and edge updates —
//! the sample-reuse path (Zhang et al., *A Sample Reuse Strategy for Dynamic
//! Influence Maximization*; Yalavarthi & Khan's local updating).
//!
//! An RR set's traversal only ever draws randomness *at the nodes it
//! visited* — every visited node is a member of the set — and the draws at
//! a node `u` are for its in-edges `u' → u`, live with probability
//! `P_act(u', u) · P_pref(u, item)`.  A set whose members' draws are all
//! unaffected by an update is therefore re-generated **bit-identically** by
//! its RNG stream against the updated scenario.  Those sets are reused;
//! only sets containing an *affected head* are re-sampled (found in O(1)
//! per head via the store's inverted index):
//!
//! * a **preference change** `(u, x)` moves `P_pref(u, x)`, felt only on
//!   the in-edge draws of `u` for item `x` — so its head is `u`, in item
//!   `x`'s store only;
//! * an **edge update** (strength change, insertion, deletion of `v → w`)
//!   changes the in-edge draws of `w` and nothing else about the
//!   in-adjacency any *other* node presents (an order-preservation
//!   guarantee of `CsrGraph::apply_edge_updates`) — so its head is the
//!   destination `w` of each edge that actually changed, in every item's
//!   store (see [`edge_update_frontier`]).
//!
//! Invalidating every set containing an affected head is exact: the
//! refreshed sketch equals a from-scratch rebuild with the same streams (a
//! property the test-suite asserts).  Refreshes also patch the store's
//! inverted index incrementally (tombstone-and-append, see
//! [`crate::store`]): the [`RefreshStats`] returned per refresh carries the
//! index-maintenance deltas, and in debug builds every refresh
//! `debug_assert`s the patched index against a full rebuild.  The refresh
//! itself runs as (item × shard) tasks on the work-queue; see
//! [`crate::sharded`].

use imdpp_diffusion::Scenario;
use imdpp_graph::{EdgeUpdate, UserId};

pub use imdpp_core::oracle::RefreshStats;

/// Computes the affected heads of a batch of edge updates against the
/// *pre-update* scenario: the destinations of the edges whose strength
/// actually changes.  Sorted and deduplicated.
///
/// No-op updates — removing an absent edge, re-weighting an absent edge, or
/// setting a strength to its current (clamped) value — contribute nothing,
/// so a fully no-op batch yields an empty frontier and the refresh reuses
/// every RR set.
pub fn edge_update_frontier(before: &Scenario, updates: &[EdgeUpdate]) -> Vec<UserId> {
    let graph = before.social().graph();
    let mut heads: Vec<UserId> = Vec::with_capacity(updates.len());
    for up in updates {
        if up.src().index() >= before.user_count() || up.dst().index() >= before.user_count() {
            continue;
        }
        let changes = match *up {
            EdgeUpdate::Insert { src, dst, weight } => {
                graph.edge_weight(src, dst) != Some(weight.clamp(0.0, 1.0))
            }
            EdgeUpdate::Remove { src, dst } => graph.has_edge(src, dst),
            EdgeUpdate::Reweight { src, dst, weight } => match graph.edge_weight(src, dst) {
                Some(w) => w != weight.clamp(0.0, 1.0),
                None => false,
            },
        };
        if changes {
            heads.push(up.dst());
        }
    }
    heads.sort_unstable();
    heads.dedup();
    heads
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::{build_stores, refresh_stores};
    use crate::telemetry::SketchMetrics;
    use imdpp_diffusion::scenario::toy_scenario;

    #[test]
    fn edge_update_frontier_contains_only_changed_destinations() {
        let s = toy_scenario();
        // Toy graph has 0 -> 1 (0.6) and no 5 -> 0 edge.
        let updates = [
            // A real strength change: head is the destination 1.
            EdgeUpdate::Reweight {
                src: UserId(0),
                dst: UserId(1),
                weight: 0.9,
            },
            // Setting the current strength: no-op.
            EdgeUpdate::Reweight {
                src: UserId(0),
                dst: UserId(2),
                weight: 0.5,
            },
            // Removing an absent edge: no-op.
            EdgeUpdate::Remove {
                src: UserId(5),
                dst: UserId(0),
            },
            // Inserting a new edge: head is the destination 0.
            EdgeUpdate::Insert {
                src: UserId(5),
                dst: UserId(4),
                weight: 0.2,
            },
        ];
        assert_eq!(
            edge_update_frontier(&s, &updates),
            vec![UserId(1), UserId(4)]
        );
        // Out-of-range endpoints are ignored.
        let oob = [EdgeUpdate::Insert {
            src: UserId(99),
            dst: UserId(0),
            weight: 0.1,
        }];
        assert!(edge_update_frontier(&s, &oob).is_empty());
        // An upsert to the existing strength is a no-op; clamped weights
        // compare against the stored (clamped) strength.
        let noop = [
            EdgeUpdate::Insert {
                src: UserId(0),
                dst: UserId(1),
                weight: 0.6,
            },
            EdgeUpdate::Reweight {
                src: UserId(0),
                dst: UserId(1),
                weight: 0.6,
            },
        ];
        assert!(edge_update_frontier(&s, &noop).is_empty());
    }

    #[test]
    fn refresh_with_unchanged_scenario_is_a_fixed_point() {
        let s = toy_scenario();
        let metrics = SketchMetrics::noop();
        for shards in [1usize, 3] {
            // Item 0's store only.
            let mut stores = build_stores(&s, 11, 128, shards, 2, &metrics);
            stores.truncate(1);
            let before: Vec<Vec<u32>> = stores[0].iter().map(|(_, set)| set).collect();
            // "Change" user 0 and its out-neighbours but hand the identical
            // scenario: the re-sampled sets replay their streams and must
            // come out identical.
            let heads = [vec![UserId(0), UserId(1), UserId(2)]];
            let (stats, touched) =
                refresh_stores(&mut stores, &s, 11, &heads, 2, &metrics).swap_remove(0);
            assert_eq!(stats.total_sets, 128);
            assert!(stats.resampled_sets > 0);
            assert_eq!(stats.full_rebuilds, 0, "refresh must patch, not rebuild");
            assert!(stats.index_entries_patched > 0);
            assert!(touched.contains(&UserId(0)));
            let after: Vec<Vec<u32>> = stores[0].iter().map(|(_, set)| set).collect();
            assert_eq!(before, after);
            assert!((stats.resampled_fraction() + stats.reused_fraction() - 1.0).abs() < 1e-12);
        }
    }
}
