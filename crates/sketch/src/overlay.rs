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
//!   [`SpreadOracle`]: coverage counts split into "base sets minus the
//!   patched ids" (answered by the shared arenas) plus "patched
//!   replacements" (answered by the tenant's own little list).
//!
//! ## Why this is exact
//!
//! The sketch's refresh-equals-rebuild invariant says: resampling exactly
//! the sets containing a changed user, against the drifted scenario, yields
//! a store **bit-identical** to building from scratch against that
//! scenario.  A patch replays those same streams against the tenant's
//! scenario, so `base ⊕ patch` holds — set for set — the stores an
//! independent tenant engine would have built.  Coverage counts are
//! integer counts over those sets, and the estimate formula
//! (`importance · n · coverage / total`, summed in ascending item order)
//! is evaluated identically, so every tenant-scoped spread estimate and
//! greedy decision is bit-identical to the N-engines deployment.

use crate::oracle::SketchOracle;
use crate::sampler;
use crate::store::SetId;
use imdpp_core::nominees::Nominee;
use imdpp_core::SpreadOracle;
use imdpp_diffusion::{DynamicsConfig, Scenario};
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
    /// would re-sample), and each invalidated stream is replayed against the
    /// tenant's frozen scenario — set id equals RNG stream id, so the
    /// replacements are bit-identical to the sets a tenant-owned sketch
    /// would hold.  One sampling scratch (stamp-based visit marks) serves
    /// every replayed stream of the patch.
    pub fn build(base: &SketchOracle, tenant: &Scenario, changes: &[(UserId, ItemId)]) -> Self {
        let frozen = tenant.with_dynamics(DynamicsConfig::frozen());
        let item_count = frozen.item_count();
        let base_seed = base.config().base_seed;
        let mut by_item: Vec<Vec<UserId>> = vec![Vec::new(); item_count];
        for &(u, x) in changes {
            if x.index() < item_count {
                by_item[x.index()].push(u);
            }
        }
        let mut replaced: Vec<Vec<(SetId, Vec<u32>)>> = vec![Vec::new(); item_count];
        let mut scratch = sampler::Scratch::new(frozen.user_count());
        for (x, users) in by_item.iter().enumerate() {
            if users.is_empty() {
                continue;
            }
            let item = ItemId(x as u32);
            let store = base.store(item);
            for id in store.sets_touching(users) {
                // Global set id == RNG stream id, for any shard count.
                let stream = u64::from(id);
                let set = sampler::sample_set_with(&frozen, item, base_seed, stream, &mut scratch);
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

    /// True when the patch replaces nothing (the tenant's deltas touched no
    /// sampled set): the overlay then serves pure base answers.
    pub fn is_empty(&self) -> bool {
        self.replaced.iter().all(|r| r.is_empty())
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

    /// The sorted replaced set ids of one item (empty when untouched).
    fn skip_ids(&self, x: usize) -> Vec<SetId> {
        self.replaced
            .get(x)
            .map(|r| r.iter().map(|&(id, _)| id).collect())
            .unwrap_or_default()
    }
}

/// The borrowed tenant view `base ⊕ patch`: a [`SpreadOracle`] whose
/// coverage counts come from the shared base arenas for unpatched sets and
/// from the patch's replacement lists for patched ones.  Construction
/// borrows both sides — nothing is copied, so a query through this view
/// costs the same order of work as a base query plus `O(patch)` extras.
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

    /// Coverage count of `users` against item `x`'s patched store: base
    /// sets excluding the replaced ids, plus replacements that contain a
    /// marked user.
    fn coverage(&self, x: usize, marked: &[bool]) -> usize {
        let store = self.base.store(ItemId(x as u32));
        let skip = self.patch.skip_ids(x);
        let mut covered = store.coverage_count_marked_excluding(marked, &skip);
        if let Some(per_item) = self.patch.replaced.get(x) {
            covered += per_item
                .iter()
                .filter(|(_, members)| members.iter().any(|&u| marked[u as usize]))
                .count();
        }
        covered
    }
}

impl SpreadOracle for PatchedSketch<'_> {
    /// The tenant-scoped `f(N)`: identical formula and summation order to
    /// [`SketchOracle::static_spread`], with each item's coverage integer
    /// computed over `base ⊕ patch` — bit-identical to the estimate of an
    /// independently built tenant sketch (see the module docs).  Like the
    /// sketch, it adds the terms to `+0.0`, so a query naming no catalogue
    /// item is `+0.0`, not the `−0.0` of an empty `Iterator::sum`.
    fn static_spread(&self, nominees: &[Nominee]) -> f64 {
        if nominees.is_empty() {
            return 0.0;
        }
        let scenario = self.base.scenario();
        let user_count = scenario.user_count();
        let item_count = scenario.item_count();
        let mut by_item: Vec<Vec<UserId>> = vec![Vec::new(); item_count];
        for &(u, x) in nominees {
            if x.index() < item_count {
                by_item[x.index()].push(u);
            }
        }
        let mut marked = vec![false; user_count];
        by_item
            .iter()
            .enumerate()
            .filter(|(_, users)| !users.is_empty())
            .map(|(x, users)| {
                marked.fill(false);
                for &u in users {
                    if u.index() < user_count {
                        marked[u.index()] = true;
                    }
                }
                let item = ItemId(x as u32);
                let store = self.base.store(item);
                let estimate = if store.is_empty() {
                    0.0
                } else {
                    user_count as f64 * self.coverage(x, &marked) as f64 / store.len() as f64
                };
                scenario.catalog().importance(item) * estimate
            })
            .fold(0.0, |sum, term| sum + term)
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
            // The batch (the trait's per-query loop here) agrees with the
            // tenant-built sketch's batch pass over more than 64 queries,
            // and a query naming no catalogue item is +0.0 on both.
            let owned: Vec<Vec<Nominee>> = (0..70u32)
                .map(|i| match i % 4 {
                    0 => vec![(UserId(i % 6), ItemId(3 - i % 4))],
                    1 => vec![(UserId(1), ItemId(2)), (UserId(1), ItemId(2))],
                    2 => vec![],
                    _ => vec![(UserId(i % 6), ItemId(999))],
                })
                .collect();
            let queries: Vec<&[Nominee]> = owned.iter().map(Vec::as_slice).collect();
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(
                bits(view.static_spread_batch(&queries)),
                bits(independent.static_spread_batch(&queries)),
                "{shards} shards"
            );
            assert_eq!(view.static_spread(queries[3]).to_bits(), 0.0f64.to_bits());
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
        assert!(!patch.is_empty());
        assert!(patch.replaced_sets() > 0);
        // The patch replaces only sets containing the changed users — a
        // strict subset of the base sketch.
        assert!(patch.replaced_sets() < base.total_sets());
        assert!(patch.heap_bytes() > 0);

        // No deltas → empty patch → the view answers pure base numbers.
        let empty = SketchPatch::build(&base, &s, &[]);
        assert!(empty.is_empty());
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
        assert!(patch.is_empty());
    }
}
