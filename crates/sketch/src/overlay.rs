//! Copy-on-write tenant overlays over a shared base sketch.
//!
//! The paper's "dynamic personal perception" is a per-user view of one
//! shared knowledge graph.  Serving N such views as N engines would copy
//! the graph — and the RR sketch — N times; the overlay keeps **one** base
//! [`SketchOracle`] and materializes, per tenant, only the RR sets whose
//! sampling could have observed that tenant's preference deltas:
//!
//! * [`SketchPatch`] holds the tenant's replacement sets — the same
//!   `(set id, resampled members)` pairs a refresh of the base sketch would
//!   produce for the tenant's scenario, built by replaying exactly the
//!   invalidated RNG streams.  Its size is `O(deltas × affected sets)`,
//!   independent of the graph and of every other tenant.
//! * [`PatchedSketch`] is the borrowed view `base ⊕ patch` implementing
//!   [`SpreadOracle`]: it runs the base sketch's one coverage pass over the
//!   shared arenas, and `SketchPatch::adjust_counts` then moves each
//!   replaced set's query hits from its base version to the tenant's
//!   replacement.
//!
//! ## Why this is exact
//!
//! The sketch's refresh-equals-rebuild invariant says: resampling exactly
//! the sets containing a changed user, against the drifted scenario, yields
//! a store **bit-identical** to building from scratch against that
//! scenario.  A patch replays those same streams against the tenant's
//! scenario, so `base ⊕ patch` holds — set for set — the stores an
//! independent tenant engine would have built.  Coverage counts are
//! integers, so moving a replaced set's hits yields exactly the counts of
//! a pass over those sets, and the estimate formula is the base sketch's
//! own function, so every tenant-scoped spread estimate and greedy
//! decision is bit-identical to the N-engines deployment.

use crate::oracle::SketchOracle;
use crate::sampler;
use crate::sharded::ShardedRrStore;
use crate::store::{for_each_query, query_hits, SetId};
use imdpp_core::nominees::Nominee;
use imdpp_core::SpreadOracle;
use imdpp_diffusion::Scenario;
use imdpp_graph::{ItemId, UserId};

/// One tenant's copy-on-write delta over a base [`SketchOracle`]: for each
/// item, the sorted list of (global set id, resampled members) replacements.
/// Everything not listed here is served from the shared base arenas.
#[derive(Clone, Debug, Default)]
pub struct SketchPatch {
    /// `replaced[x]` = item `x`'s replacements, sorted by global set id;
    /// members are sorted and duplicate-free, exactly as the store encodes
    /// them.
    replaced: Vec<Vec<(SetId, Vec<u32>)>>,
}

impl SketchPatch {
    /// Builds the patch for a tenant whose scenario differs from the base
    /// oracle's by per-user preference deltas on the `(user, item)` pairs in
    /// `changes`.  `tenant` must be the base scenario with exactly those
    /// deltas applied (same graph, same catalogue) — the engine validates
    /// this before calling.
    ///
    /// For each changed pair the base store's sets containing that user are
    /// invalidated (the frontier a preference refresh of the base sketch
    /// would re-sample), and each invalidated stream is replayed against
    /// `tenant` — set id equals RNG stream id, so the replacements are
    /// bit-identical to the sets a tenant-owned sketch would hold.  The
    /// sampler reads only base preferences and in-edge strengths, which
    /// freezing the dynamics leaves as they are, so `tenant` is sampled
    /// directly rather than through a frozen copy.  One sampling scratch
    /// (stamp-based visit marks) serves every replayed stream of the patch.
    pub fn build(base: &SketchOracle, tenant: &Scenario, changes: &[(UserId, ItemId)]) -> Self {
        let item_count = tenant.item_count();
        let base_seed = base.config().base_seed;
        let mut by_item: Vec<Vec<UserId>> = vec![Vec::new(); item_count];
        for &(u, x) in changes {
            if x.index() < item_count {
                by_item[x.index()].push(u);
            }
        }
        let mut replaced: Vec<Vec<(SetId, Vec<u32>)>> = vec![Vec::new(); item_count];
        let mut scratch = sampler::Scratch::new(tenant.user_count());
        for (x, users) in by_item.iter().enumerate() {
            if users.is_empty() {
                continue;
            }
            let item = ItemId(x as u32);
            let store = base.store(item);
            for id in store.sets_touching(users) {
                // Global set id == RNG stream id, for any shard count.
                let stream = u64::from(id);
                let set = sampler::sample_set_with(tenant, item, base_seed, stream, &mut scratch);
                let mut members: Vec<u32> = set.iter().map(|u| u.0).collect();
                members.sort_unstable();
                members.dedup();
                replaced[x].push((id, members));
            }
        }
        SketchPatch { replaced }
    }

    /// Number of replaced sets across all items — the patch's size in the
    /// `O(deltas)` memory argument.
    pub fn replaced_sets(&self) -> usize {
        self.replaced.iter().map(|r| r.len()).sum()
    }

    /// Approximate heap footprint of the patch in bytes — the quantity the
    /// serving tier's O(deltas) memory gate compares against N full
    /// sketches.
    pub fn heap_bytes(&self) -> u64 {
        let mut bytes =
            (self.replaced.capacity() * std::mem::size_of::<Vec<(SetId, Vec<u32>)>>()) as u64;
        for per_item in &self.replaced {
            bytes += (per_item.capacity() * std::mem::size_of::<(SetId, Vec<u32>)>()) as u64;
            for (_, members) in per_item {
                bytes += (members.capacity() * std::mem::size_of::<u32>()) as u64;
            }
        }
        bytes
    }

    /// Moves the query hits of item `x`'s replaced sets in `counts` (the
    /// base store's counts for `masks`, see
    /// [`ShardedRrStore::coverage_counts_masked`]) from each set's base
    /// version to its replacement: the bits only the base version hits
    /// lose one, the bits only the replacement hits gain one.  The counts
    /// are integers, so the result equals a pass over the tenant-built
    /// store.
    pub(crate) fn adjust_counts(
        &self,
        x: usize,
        store: &ShardedRrStore,
        masks: &[u64],
        full: u64,
        counts: &mut [usize],
    ) {
        for (id, members) in self.replaced.get(x).into_iter().flatten() {
            let before = query_hits(store.set_members(*id), masks, full);
            let after = query_hits(members.iter().copied(), masks, full);
            for_each_query(before & !after, |q| counts[q] -= 1);
            for_each_query(after & !before, |q| counts[q] += 1);
        }
    }
}

/// The borrowed tenant view `base ⊕ patch`: a [`SpreadOracle`] whose
/// coverage counts come from the shared base arenas, with the patched
/// sets' hits moved to their replacements.  Construction borrows both
/// sides — nothing is copied, so a query through this view costs a base
/// query plus `O(patch)` extras.
#[derive(Clone, Copy, Debug)]
pub struct PatchedSketch<'a> {
    base: &'a SketchOracle,
    patch: &'a SketchPatch,
}

impl<'a> PatchedSketch<'a> {
    /// Couples a base oracle with one tenant's patch.  The patch must have
    /// been built against this base ([`SketchPatch::build`]); set ids in it
    /// index the base's stores.
    pub fn new(base: &'a SketchOracle, patch: &'a SketchPatch) -> Self {
        PatchedSketch { base, patch }
    }
}

impl SpreadOracle for PatchedSketch<'_> {
    /// The tenant-scoped `f(N)`: the one-query batch.
    fn static_spread(&self, nominees: &[Nominee]) -> f64 {
        self.static_spread_batch(&[nominees])[0]
    }

    /// The base sketch's batch pass over `base ⊕ patch` — the same
    /// formula, summation order and out-of-range rule as
    /// [`SketchOracle`]'s answers, bit-identical to an independently
    /// built tenant sketch (see the module docs).
    fn static_spread_batch(&self, queries: &[&[Nominee]]) -> Vec<f64> {
        self.base.spread_batch(self.patch, queries)
    }

    fn name(&self) -> &'static str {
        "rr-sketch-overlay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SketchConfig;
    use imdpp_diffusion::scenario::toy_scenario;

    fn deltas() -> Vec<(UserId, ItemId, f64)> {
        vec![(UserId(1), ItemId(2), 0.9), (UserId(3), ItemId(0), 0.2)]
    }

    fn pairs(d: &[(UserId, ItemId, f64)]) -> Vec<(UserId, ItemId)> {
        d.iter().map(|&(u, x, _)| (u, x)).collect()
    }

    #[test]
    fn patched_view_is_bit_identical_to_a_tenant_built_sketch() {
        let s = toy_scenario();
        let d = deltas();
        let tenant = s.with_base_preferences(&d);
        for shards in [1usize, 2, 4] {
            let config = SketchConfig::fixed(192)
                .with_base_seed(13)
                .with_shards(shards);
            let base = SketchOracle::build(&s, config);
            let independent = SketchOracle::build(&tenant, config);
            let patch = SketchPatch::build(&base, &tenant, &pairs(&d));
            let view = PatchedSketch::new(&base, &patch);
            assert_eq!(view.name(), "rr-sketch-overlay");

            let probes: &[&[Nominee]] = &[
                &[(UserId(0), ItemId(0))],
                &[(UserId(1), ItemId(2))],
                &[(UserId(3), ItemId(0)), (UserId(1), ItemId(2))],
                &[
                    (UserId(0), ItemId(0)),
                    (UserId(2), ItemId(1)),
                    (UserId(4), ItemId(2)),
                ],
                &[(UserId(999), ItemId(0))],
                &[],
            ];
            for probe in probes {
                assert_eq!(
                    view.static_spread(probe).to_bits(),
                    independent.static_spread(probe).to_bits(),
                    "{shards} shards, probe {probe:?}"
                );
            }
            // The batch agrees with the tenant-built sketch's over more than
            // 64 queries, and a query naming no catalogue item is +0.0 on
            // both.  The batch seeds the delta items, so the patch moves
            // answers: (u0, x0) falls and (u0, x2) rises against the base.
            let owned: Vec<Vec<Nominee>> = (0..70u32)
                .map(|i| match i % 6 {
                    0 => vec![(UserId(i % 5), ItemId(3 - i % 4))],
                    1 => vec![(UserId(1), ItemId(2)), (UserId(1), ItemId(2))],
                    2 => vec![],
                    3 => vec![(UserId(0), ItemId(0))],
                    4 => vec![(UserId(0), ItemId(2)), (UserId(i % 5), ItemId(i % 3))],
                    _ => vec![(UserId(i % 6), ItemId(999))],
                })
                .collect();
            let queries: Vec<&[Nominee]> = owned.iter().map(Vec::as_slice).collect();
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            let tenant_batch = bits(view.static_spread_batch(&queries));
            assert_eq!(
                tenant_batch,
                bits(independent.static_spread_batch(&queries)),
                "{shards} shards"
            );
            assert_ne!(
                tenant_batch,
                bits(base.static_spread_batch(&queries)),
                "{shards} shards"
            );
            let (u0x0, u0x2) = ([(UserId(0), ItemId(0))], [(UserId(0), ItemId(2))]);
            assert!(view.static_spread(&u0x0) < base.static_spread(&u0x0));
            assert!(view.static_spread(&u0x2) > base.static_spread(&u0x2));
            assert_eq!(view.static_spread(queries[2]).to_bits(), 0.0f64.to_bits());
            // Marginals — the greedy loop's primitive — agree too.
            let basep = [(UserId(0), ItemId(0))];
            assert_eq!(
                view.marginal_gain(&basep, (UserId(1), ItemId(2))).to_bits(),
                independent
                    .marginal_gain(&basep, (UserId(1), ItemId(2)))
                    .to_bits(),
                "{shards} shards"
            );
        }
    }

    #[test]
    fn patch_is_small_and_empty_for_noop_deltas() {
        let s = toy_scenario();
        let base = SketchOracle::build(&s, SketchConfig::fixed(128).with_base_seed(13));
        let d = deltas();
        let tenant = s.with_base_preferences(&d);
        let patch = SketchPatch::build(&base, &tenant, &pairs(&d));
        assert!(patch.replaced_sets() > 0);
        // The patch replaces only sets containing the changed users — a
        // strict subset of the base sketch.
        assert!(patch.replaced_sets() < base.total_sets());
        assert!(patch.heap_bytes() > 0);

        // No deltas → empty patch → the view answers pure base numbers.
        let empty = SketchPatch::build(&base, &s, &[]);
        assert_eq!(empty.replaced_sets(), 0);
        let view = PatchedSketch::new(&base, &empty);
        let probe = [(UserId(0), ItemId(0)), (UserId(2), ItemId(1))];
        assert_eq!(
            view.static_spread(&probe).to_bits(),
            base.static_spread(&probe).to_bits()
        );
    }

    #[test]
    fn out_of_range_changes_are_ignored_like_the_refresh_path() {
        let s = toy_scenario();
        let base = SketchOracle::build(&s, SketchConfig::fixed(64).with_base_seed(13));
        // An item past the catalogue is dropped, not panicked on.
        let patch = SketchPatch::build(&base, &s, &[(UserId(0), ItemId(999))]);
        assert_eq!(patch.replaced_sets(), 0);
    }
}
