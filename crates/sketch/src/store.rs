//! The arena-backed RR-set store of one shard.
//!
//! Replaces the toy `Vec<Vec<UserId>>` layout of `imdpp_diffusion::ris` with
//! a CSR-style arena: every RR set is a span into one shared **compressed
//! byte arena** (sorted members, delta/varint-encoded — see
//! [`crate::arena`]), giving one allocation for the whole sketch, cache-
//! friendly scans during coverage counting, and roughly 2–4× less memory
//! than a raw `u32` pool at 10⁶-user scale.  An inverted user → set index
//! (CSR) answers "which sets does user `u` appear in?" — the query that
//! drives incremental invalidation.
//!
//! ## One lifecycle: built whole, then only patched
//!
//! `RrStore::from_sets` encodes every set of the store as it arrives and
//! ends in one counting-sort index build; afterwards `RrStore::replace_set`
//! is the only mutation.  Sets are identified by a stable [`SetId`] (their
//! stream id — see [`crate::sampler`]); replacing a set appends its new span
//! to the arena and tombstones the old one.  Dead arena bytes are tracked
//! and the arena is compacted automatically once more than half of it is
//! garbage.  Span offsets are `u64`, so the arena cannot overflow its offset
//! type on any machine that can allocate it; set ids must stay below the
//! tombstone bit (`1 << 31`), which construction checks.
//!
//! ## Incremental index maintenance
//!
//! The inverted index is *patched*, not rebuilt, when sets change: replacing
//! set `s` appends `(user, s)` pairs for its new members to an overflow log
//! as one contiguous block and tombstones its old entries where they are —
//! in the base CSR rows (one binary search per member) if `s` has not been
//! replaced since the last compaction, or else as the whole block its last
//! replacement appended, whose start the store remembers (no search).
//! Queries merge the base rows with the log, skipping tombstones.  Once
//! tombstones or the log grow past a fraction of the base index the whole
//! thing is folded back into a clean CSR — a *compaction*, amortized O(1)
//! per patched entry.  A full counting build only ever happens at
//! construction; [`IndexStats`] counts builds, compactions and patched
//! entries so tests can pin the maintenance regime, and
//! `RrStore::index_matches_rebuild` is the `debug_assert`-guarded
//! equivalence check the refresh paths use.

use crate::arena::{encode_set, SetMembers};
use crate::persist;
use imdpp_diffusion::ImdppError;
use imdpp_graph::{ItemId, UserId};
use std::collections::HashMap;

/// Identifier of one RR set inside a store.  Stable across replacements and
/// equal to the RNG stream id that generated the set.
pub type SetId = u32;

/// Tombstone flag for dead entries of the inverted index, in the base rows
/// and in the overflow log alike.
///
/// The counting-sort build leaves every base row sorted ascending by set
/// id; tombstoning an entry sets this high bit and *keeps the id*, so the
/// row stays sorted under the masked comparison and
/// [`RrStore::replace_set`] can binary-search instead of scanning —
/// O(log row) per patched entry even for hub users appearing in thousands
/// of sets.  Ids with the high bit set cannot occur: [`RrStore::from_sets`]
/// refuses to assign them.
const TOMBSTONE_BIT: SetId = 1 << 31;

/// The set id of an index entry, dead or alive.
#[inline]
fn entry_id(entry: SetId) -> SetId {
    entry & !TOMBSTONE_BIT
}

/// True when an index entry is live (not tombstoned).
#[inline]
fn entry_live(entry: SetId) -> bool {
    entry & TOMBSTONE_BIT == 0
}

/// One set's location in the compressed arena: `bytes` encoded bytes at
/// `offset`, decoding to `members` ascending user ids.
#[derive(Clone, Copy, Debug)]
struct Span {
    offset: u64,
    members: u32,
    bytes: u32,
}

/// Bounds-filters, sorts and deduplicates a head list into the form
/// [`RrStore::sets_touching`] expects.
pub(crate) fn prepare_heads(users: &[UserId], user_count: usize) -> Vec<u32> {
    let mut heads: Vec<u32> = users
        .iter()
        .map(|u| u.0)
        .filter(|&u| (u as usize) < user_count)
        .collect();
    heads.sort_unstable();
    heads.dedup();
    heads
}

/// The queries of `masks` that a set with `members` hits: the OR of the
/// members' masks, stopping once it reaches `full` (every bit of `masks`
/// lies in `full`, so stopping early changes nothing).
#[inline]
pub(crate) fn query_hits(members: impl IntoIterator<Item = u32>, masks: &[u64], full: u64) -> u64 {
    let mut acc = 0u64;
    for u in members {
        acc |= masks[u as usize];
        if acc == full {
            break;
        }
    }
    acc
}

/// Calls `f(q)` for every query bit `q` set in `bits`, lowest first.
#[inline]
pub(crate) fn for_each_query(mut bits: u64, mut f: impl FnMut(usize)) {
    while bits != 0 {
        f(bits.trailing_zeros() as usize);
        bits &= bits - 1;
    }
}

/// Counters of the inverted-index maintenance work a store has performed.
///
/// `full_rebuilds` counts counting-sort passes over the whole corpus (one
/// per shard, at construction or restore); `compactions` counts the
/// amortized fold-backs of tombstones/overflow into a clean CSR;
/// `entries_patched` counts individual index entries tombstoned or appended
/// by incremental maintenance.  The scale tests assert `full_rebuilds` never
/// grows after construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Index entries tombstoned or appended by incremental patching.
    pub entries_patched: u64,
    /// Full counting-pass index builds (one per shard at construction).
    pub full_rebuilds: u64,
    /// Amortized compactions folding patches back into a clean CSR.
    pub compactions: u64,
}

impl IndexStats {
    /// Accumulates another store's counters into this one.
    pub fn absorb(&mut self, other: IndexStats) {
        self.entries_patched += other.entries_patched;
        self.full_rebuilds += other.full_rebuilds;
        self.compactions += other.compactions;
    }

    /// The difference `self - earlier`, for measuring one operation's work.
    pub fn since(&self, earlier: IndexStats) -> IndexStats {
        IndexStats {
            entries_patched: self.entries_patched - earlier.entries_patched,
            full_rebuilds: self.full_rebuilds - earlier.full_rebuilds,
            compactions: self.compactions - earlier.compactions,
        }
    }
}

/// A collection of reverse-reachable sets for one item, stored in a shared
/// compressed arena with an inverted user → set index.
#[derive(Clone, Debug)]
pub(crate) struct RrStore {
    item: ItemId,
    user_count: usize,
    /// Per-set spans into `arena`.
    spans: Vec<Span>,
    /// The compressed arena: delta/varint-encoded sorted member lists.
    arena: Vec<u8>,
    /// Dead (tombstoned) bytes in `arena`.
    garbage_bytes: u64,
    /// Live member entries across all spans (`Σ span.members`).
    live_members: usize,
    /// Reusable sort buffer of the encoding path.
    sort_scratch: Vec<u32>,
    /// CSR offsets of the inverted index (`user_count + 1` entries).
    inv_offsets: Vec<u32>,
    /// Set ids, grouped by user according to `inv_offsets`.  Each row is
    /// sorted ascending by [`entry_id`]; dead entries carry
    /// [`TOMBSTONE_BIT`] (which preserves that order).
    inv_sets: Vec<SetId>,
    /// Overflow log of `(user index, set)` entries appended since the last
    /// compaction, one contiguous block per replacement; dead entries carry
    /// [`TOMBSTONE_BIT`] on the set.
    inv_extra: Vec<(u32, SetId)>,
    /// For each set replaced since the last compaction, the start of the
    /// `inv_extra` block holding its current members (`span.members`
    /// entries).  Every other set's entries are all in the base rows.
    log_blocks: HashMap<SetId, usize>,
    /// Number of tombstoned entries in `inv_sets`.
    inv_dead: usize,
    /// Maintenance counters.
    index_stats: IndexStats,
}

impl RrStore {
    /// A store with no sets and no index: the starting point of
    /// [`RrStore::from_sets`] and [`RrStore::deserialize_from`], both of
    /// which end in [`RrStore::build_index`].
    fn empty(item: ItemId, user_count: usize) -> Self {
        RrStore {
            item,
            user_count,
            spans: Vec::new(),
            arena: Vec::new(),
            garbage_bytes: 0,
            live_members: 0,
            sort_scratch: Vec::new(),
            inv_offsets: Vec::new(),
            inv_sets: Vec::new(),
            inv_extra: Vec::new(),
            log_blocks: HashMap::new(),
            inv_dead: 0,
            index_stats: IndexStats::default(),
        }
    }

    /// Builds the store of `sets` for `item` over `user_count` users: set
    /// `i` of the stream gets id `i`, each set is encoded as it arrives (a
    /// lazily sampled stream is never collected), and one counting pass
    /// builds the inverted index.
    ///
    /// # Panics
    /// When the stream holds more sets than the id space below the
    /// tombstone bit can name.
    pub(crate) fn from_sets<S: AsRef<[UserId]>>(
        item: ItemId,
        user_count: usize,
        sets: impl IntoIterator<Item = S>,
    ) -> Self {
        let mut store = RrStore::empty(item, user_count);
        for set in sets {
            let id = store.spans.len() as u64;
            if id >= u64::from(TOMBSTONE_BIT) {
                let err = ImdppError::CapacityExceeded {
                    what: "RR set ids",
                    capacity: u64::from(TOMBSTONE_BIT),
                    needed: id + 1,
                };
                panic!("{err}");
            }
            let span = store.encode(set.as_ref());
            store.live_members += span.members as usize;
            store.spans.push(span);
        }
        store.build_index();
        store
    }

    /// The item the sets were sampled for.
    pub(crate) fn item(&self) -> ItemId {
        self.item
    }

    /// Number of users in the underlying scenario.
    pub(crate) fn user_count(&self) -> usize {
        self.user_count
    }

    /// Number of RR sets.
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total number of live user entries across all sets.
    pub(crate) fn live_entries(&self) -> usize {
        self.live_members
    }

    /// Encoded bytes of the *live* spans only — a pure function of the set
    /// contents (shard- and history-independent), which is why the memory
    /// telemetry reports this figure rather than the arena's length.
    pub(crate) fn live_arena_bytes(&self) -> u64 {
        self.arena.len() as u64 - self.garbage_bytes
    }

    /// Bytes the live entries would occupy in the uncompressed `u32`-pool
    /// layout this arena replaced — the baseline of the compression-ratio
    /// gate in the scale smoke.
    pub(crate) fn uncompressed_bytes(&self) -> u64 {
        4 * self.live_members as u64
    }

    /// Fraction of the arena occupied by tombstoned bytes.
    fn garbage_ratio(&self) -> f64 {
        if self.arena.is_empty() {
            0.0
        } else {
            self.garbage_bytes as f64 / self.arena.len() as f64
        }
    }

    /// The inverted-index maintenance counters.
    pub(crate) fn index_stats(&self) -> IndexStats {
        self.index_stats
    }

    /// Sorts and deduplicates `users` into the reusable scratch buffer and
    /// appends the encoded span to the arena.  Afterwards the scratch
    /// buffer holds the sorted members (for index patching) and the new
    /// span is *not yet* pushed to `spans`.
    fn encode(&mut self, users: &[UserId]) -> Span {
        self.sort_scratch.clear();
        self.sort_scratch.extend(users.iter().map(|u| u.0));
        self.sort_scratch.sort_unstable();
        self.sort_scratch.dedup();
        let offset = self.arena.len() as u64;
        let bytes = encode_set(&self.sort_scratch, &mut self.arena);
        Span {
            offset,
            members: self.sort_scratch.len() as u32,
            bytes: bytes as u32,
        }
    }

    /// Replaces the contents of set `id`, tombstoning its old span.
    ///
    /// The inverted index is patched incrementally, in O(old + new members)
    /// entries: the old members' entries are tombstoned and the new
    /// members' entries appended to the overflow log as one block — no
    /// counting pass over the corpus and no scan of the log.
    pub(crate) fn replace_set(&mut self, id: SetId, users: &[UserId]) {
        let old = self.spans[id as usize];
        match self.log_blocks.get(&id) {
            // Replaced since the last compaction: one block of the log.
            Some(&start) => {
                for entry in &mut self.inv_extra[start..start + old.members as usize] {
                    entry.1 |= TOMBSTONE_BIT;
                }
            }
            // Otherwise the base rows, each sorted by set id.
            None => {
                let arena = &self.arena[old.offset as usize..][..old.bytes as usize];
                for u in SetMembers::new(arena, old.members) {
                    let row = &mut self.inv_sets[self.inv_offsets[u as usize] as usize
                        ..self.inv_offsets[u as usize + 1] as usize];
                    let slot = row.partition_point(|&e| entry_id(e) < id);
                    let found = slot < row.len() && row[slot] == id;
                    debug_assert!(found, "inverted index is missing (user {u}, set {id})");
                    if found {
                        row[slot] = id | TOMBSTONE_BIT;
                        self.inv_dead += 1;
                    }
                }
            }
        }
        let span = self.encode(users);
        self.garbage_bytes += u64::from(old.bytes);
        self.live_members -= old.members as usize;
        self.live_members += span.members as usize;
        self.spans[id as usize] = span;
        self.log_blocks.insert(id, self.inv_extra.len());
        self.inv_extra
            .extend(self.sort_scratch.iter().map(|&u| (u, id)));
        self.index_stats.entries_patched += u64::from(old.members) + u64::from(span.members);
        self.maybe_compact_index();
        if self.garbage_ratio() > 0.5 {
            self.compact();
        }
    }

    /// The decoding iterator of one span.
    #[inline]
    fn span_members(&self, span: &Span) -> SetMembers<'_> {
        let lo = span.offset as usize;
        let hi = lo + span.bytes as usize;
        SetMembers::new(&self.arena[lo..hi], span.members)
    }

    /// The users of set `id`, decoded in ascending id order (allocates; hot
    /// paths should prefer the zero-copy [`RrStore::set_members`]).
    pub(crate) fn set(&self, id: SetId) -> Vec<u32> {
        self.set_members(id).collect()
    }

    /// Zero-allocation decoding iterator over the users of set `id`
    /// (ascending id order).
    pub(crate) fn set_members(&self, id: SetId) -> SetMembers<'_> {
        self.span_members(&self.spans[id as usize])
    }

    /// Rewrites the arena without tombstoned bytes (spans keep their ids;
    /// encoded spans are copied verbatim, never re-encoded).
    fn compact(&mut self) {
        if self.garbage_bytes == 0 {
            return;
        }
        let live = (self.arena.len() as u64 - self.garbage_bytes) as usize;
        let mut arena = Vec::with_capacity(live);
        for span in self.spans.iter_mut() {
            let lo = span.offset as usize;
            let hi = lo + span.bytes as usize;
            span.offset = arena.len() as u64;
            arena.extend_from_slice(&self.arena[lo..hi]);
        }
        self.arena = arena;
        self.garbage_bytes = 0;
    }

    /// One counting-sort CSR pass over the spans, producing a clean base
    /// index with no tombstones and an empty overflow log.
    fn build_index_from_spans(&mut self) {
        let mut counts = vec![0u32; self.user_count + 1];
        for span in &self.spans {
            for u in self.span_members(span) {
                counts[u as usize + 1] += 1;
            }
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let mut cursors = counts.clone();
        let mut inv_sets = vec![0; *counts.last().unwrap() as usize];
        for (id, span) in self.spans.iter().enumerate() {
            for u in self.span_members(span) {
                inv_sets[cursors[u as usize] as usize] = id as SetId;
                cursors[u as usize] += 1;
            }
        }
        self.inv_offsets = counts;
        self.inv_sets = inv_sets;
        self.inv_extra.clear();
        self.log_blocks.clear();
        self.inv_dead = 0;
    }

    /// The one full counting pass a store makes, at the end of construction
    /// or restore (`full_rebuilds` exists so tests can prove it is the
    /// only one).
    fn build_index(&mut self) {
        self.build_index_from_spans();
        self.index_stats.full_rebuilds += 1;
    }

    /// Folds tombstones and the overflow log back into a clean CSR once
    /// they outgrow the base index.  The log's length counts its dead
    /// entries too, so the threshold keeps both the wasted memory and the
    /// O(|log|) overflow scans of membership queries bounded by a constant
    /// fraction of the live index, making compaction cost amortized O(1)
    /// per patched entry.
    fn maybe_compact_index(&mut self) {
        let base = self.inv_sets.len();
        if self.inv_dead * 2 > base || self.inv_extra.len() > base / 2 + 16 {
            self.build_index_from_spans();
            self.index_stats.compactions += 1;
        }
    }

    /// The sorted, deduplicated ids of all sets containing any of `heads`
    /// (prepared by [`prepare_heads`]: in range, sorted, deduplicated) —
    /// the invalidation frontier of an update touching those users.
    ///
    /// Cost is proportional to the *touched* rows plus the overflow log
    /// (`O(Σ row + |log| · log |heads|)`) — no corpus- or population-sized
    /// allocation happens here, so localized frontiers stay cheap at any
    /// scale.
    pub(crate) fn sets_touching(&self, heads: &[u32]) -> Vec<SetId> {
        let mut ids = Vec::new();
        for &u in heads {
            let lo = self.inv_offsets[u as usize] as usize;
            let hi = self.inv_offsets[u as usize + 1] as usize;
            ids.extend(
                self.inv_sets[lo..hi]
                    .iter()
                    .copied()
                    .filter(|&e| entry_live(e)),
            );
        }
        ids.extend(
            self.inv_extra
                .iter()
                .filter(|&&(u, s)| entry_live(s) && heads.binary_search(&u).is_ok())
                .map(|&(_, s)| s),
        );
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Equivalence check of the incrementally maintained index against a
    /// freshly built one — the invariant the refresh paths `debug_assert`.
    ///
    /// O(corpus); intended for `debug_assert!` and tests, not hot paths.
    pub(crate) fn index_matches_rebuild(&self) -> bool {
        let mut reference: Vec<Vec<SetId>> = vec![Vec::new(); self.user_count];
        for (id, span) in self.spans.iter().enumerate() {
            for u in self.span_members(span) {
                reference[u as usize].push(id as SetId);
            }
            // A replaced set's log block holds exactly its current members.
            if let Some(&start) = self.log_blocks.get(&(id as SetId)) {
                let block = self
                    .inv_extra
                    .get(start..start + span.members as usize)
                    .unwrap_or_default();
                let current = self.span_members(span).map(|u| (u, id as SetId));
                if !block.iter().copied().eq(current) {
                    return false;
                }
            }
        }
        let mut logged: Vec<Vec<SetId>> = vec![Vec::new(); self.user_count];
        for &(u, s) in &self.inv_extra {
            if entry_live(s) {
                logged[u as usize].push(s);
            }
        }
        for (user, expected) in reference.iter().enumerate() {
            let lo = self.inv_offsets[user] as usize;
            let hi = self.inv_offsets[user + 1] as usize;
            let mut got: Vec<SetId> = self.inv_sets[lo..hi]
                .iter()
                .copied()
                .filter(|&e| entry_live(e))
                .collect();
            got.extend_from_slice(&logged[user]);
            got.sort_unstable();
            // `expected` is already sorted: spans ascend by id.
            if &got != expected {
                return false;
            }
        }
        true
    }

    /// Multi-query coverage in **one pass over the arena**: `masks` is a
    /// dense per-user bitmask (bit `q` set on user `u` = query `q` seeds
    /// `u`), and `counts[q]` is incremented once per span containing at
    /// least one user with bit `q` set.  Each span is decoded exactly once
    /// for up to 64 queries — the amortization behind every `f(N)` answer
    /// of the sketch — with early exit once the accumulated mask reaches
    /// `full` (the union of bits any query could still contribute).
    pub(crate) fn coverage_counts_masked(&self, masks: &[u64], full: u64, counts: &mut [usize]) {
        debug_assert_eq!(masks.len(), self.user_count);
        if full == 0 {
            return;
        }
        for span in &self.spans {
            for_each_query(query_hits(self.span_members(span), masks, full), |q| {
                counts[q] += 1
            });
        }
    }

    /// Serializes the live spans: set count, then per set the member count,
    /// encoded byte length and the raw arena bytes (copied verbatim —
    /// tombstoned garbage is skipped naturally because only live spans are
    /// walked).  The inverted index is *not* persisted; it is rebuilt once
    /// on restore, exactly like at construction.
    pub(crate) fn serialize_into(&self, out: &mut Vec<u8>) {
        persist::write_varint(self.spans.len() as u64, out);
        for span in &self.spans {
            let lo = span.offset as usize;
            let hi = lo + span.bytes as usize;
            persist::write_varint(span.members, out);
            persist::write_varint(span.bytes, out);
            out.extend_from_slice(&self.arena[lo..hi]);
        }
    }

    /// Restores a store serialized by [`RrStore::serialize_into`], advancing
    /// `input` past the consumed bytes.  Every span is validated
    /// ([`persist::validate_span`]) before it is appended, and the store
    /// ends in the same one index build as [`RrStore::from_sets`] — with
    /// **zero sets re-sampled**.
    ///
    /// # Errors
    /// [`ImdppError::InvalidConfig`] on truncated or corrupt span data.
    pub(crate) fn deserialize_from(
        item: ItemId,
        user_count: usize,
        input: &mut &[u8],
    ) -> Result<Self, ImdppError> {
        let mut store = RrStore::empty(item, user_count);
        let sets = persist::read_varint(input)?;
        if u64::from(sets) >= u64::from(TOMBSTONE_BIT) {
            return Err(persist::corrupt("set count exceeds the id space"));
        }
        for _ in 0..sets {
            let members = persist::read_varint(input)?;
            let bytes = persist::read_varint(input)?;
            let encoded = persist::take(input, bytes as usize)?;
            persist::validate_span(encoded, members, user_count)?;
            let offset = store.arena.len() as u64;
            store.arena.extend_from_slice(encoded);
            store.spans.push(Span {
                offset,
                members,
                bytes,
            });
            store.live_members += members as usize;
        }
        store.build_index();
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn users(ids: &[u32]) -> Vec<UserId> {
        ids.iter().map(|&u| UserId(u)).collect()
    }

    fn store_with(sets: &[&[u32]]) -> RrStore {
        RrStore::from_sets(ItemId(0), 6, sets.iter().map(|set| users(set)))
    }

    /// The frontier of `ids` through the store's one query.
    fn touching(s: &RrStore, ids: &[u32]) -> Vec<SetId> {
        s.sets_touching(&prepare_heads(&users(ids), s.user_count()))
    }

    /// Sets holding one of `seeds`, by a scan of the decoded sets.
    fn covered(s: &RrStore, seeds: &[u32]) -> usize {
        (0..s.len() as SetId)
            .filter(|&id| s.set_members(id).any(|u| seeds.contains(&u)))
            .count()
    }

    #[test]
    fn push_and_read_back() {
        let s = store_with(&[&[0, 1], &[2], &[3, 4, 5]]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.set(0), &[0, 1]);
        assert_eq!(s.set(2), &[3, 4, 5]);
        assert_eq!(s.live_entries(), 6);
        // Construction ends in exactly one index build.
        assert_eq!(s.index_stats().full_rebuilds, 1);
        assert!(s.index_matches_rebuild());
    }

    #[test]
    fn members_are_stored_sorted_and_deduplicated() {
        // Insertion order does not survive: the compressed arena encodes
        // sorted members (every consumer is order-independent over the
        // member multiset).
        let s = store_with(&[&[5, 0, 3, 0]]);
        assert_eq!(s.set(0), &[0, 3, 5]);
        assert_eq!(s.set_members(0).collect::<Vec<_>>(), vec![0, 3, 5]);
    }

    #[test]
    fn inverted_index_answers_membership() {
        let s = store_with(&[&[0, 1], &[1, 2], &[2]]);
        assert_eq!(touching(&s, &[1]), &[0, 1]);
        assert_eq!(touching(&s, &[2]), &[1, 2]);
        assert_eq!(touching(&s, &[5]), Vec::<SetId>::new());
        assert_eq!(touching(&s, &[0, 2]), vec![0, 1, 2]);
        // Out-of-range heads are dropped when the frontier is prepared.
        assert_eq!(touching(&s, &[99]), Vec::<SetId>::new());
        assert_eq!(s.index_stats().full_rebuilds, 1);
    }

    #[test]
    fn replace_patches_the_index_without_rebuilding() {
        let mut s = store_with(&[&[0, 1], &[1, 2]]);
        s.replace_set(0, &users(&[3]));
        assert_eq!(s.set(0), &[3]);
        assert_eq!(touching(&s, &[1]), &[1]);
        assert_eq!(touching(&s, &[3]), &[0]);
        assert_eq!(s.len(), 2);
        assert!(s.index_matches_rebuild());
        assert_eq!(s.index_stats().full_rebuilds, 1);
        // 2 tombstoned + 1 appended.
        assert_eq!(s.index_stats().entries_patched, 3);
    }

    #[test]
    fn replacing_a_replaced_set_tombstones_its_log_block_in_place() {
        let mut s = store_with(&[
            &[0, 1, 2],
            &[1, 3],
            &[2, 4, 5],
            &[0, 5],
            &[3, 4],
            &[1, 2, 5],
        ]);
        // Set 0 three times, set 1 once in between: from its second
        // replacement on, set 0's members are a block of the log.
        let steps: [(SetId, &[u32]); 4] = [
            (0, &[3, 4]),
            (1, &[0, 2, 4]),
            (0, &[1, 5]),
            (0, &[0, 1, 2, 3]),
        ];
        let mut superseded: Vec<(SetId, Vec<u32>)> = Vec::new();
        for (id, members) in steps {
            let in_log = s.log_blocks.contains_key(&id);
            assert_eq!(in_log, superseded.iter().any(|&(set, _)| set == id));
            let (patched, dead) = (s.index_stats().entries_patched, s.inv_dead);
            let old = s.set(id);
            s.replace_set(id, &users(members));
            assert!(s.index_matches_rebuild(), "after replacing set {id}");
            assert_eq!(
                s.index_stats().entries_patched - patched,
                (old.len() + members.len()) as u64
            );
            // A log-resident set leaves the base rows' tombstones alone.
            let base_tombstones = if in_log { 0 } else { old.len() };
            assert_eq!(s.inv_dead - dead, base_tombstones);
            superseded.push((id, old));
            for (set, version) in &superseded {
                for &u in version {
                    assert_eq!(
                        touching(&s, &[u]).contains(set),
                        s.set(*set).contains(&u),
                        "set {set}, user {u}"
                    );
                }
            }
        }
        assert_eq!(s.index_stats().compactions, 0);
    }

    #[test]
    fn sustained_churn_compacts_but_never_rebuilds() {
        let mut s = store_with(&[&[0, 1, 2], &[3, 4], &[5], &[0, 5]]);
        for round in 0u32..50 {
            let id = round % 4;
            let members = [(round % 6), (round + 1) % 6];
            s.replace_set(id, &users(&members));
            assert!(s.index_matches_rebuild(), "diverged at round {round}");
        }
        let stats = s.index_stats();
        assert_eq!(stats.full_rebuilds, 1, "churn must not trigger rebuilds");
        assert!(stats.compactions > 0, "churn this heavy must compact");
        assert!(stats.entries_patched > 0);
    }

    #[test]
    fn compaction_preserves_contents() {
        let mut s = store_with(&[&[0, 1, 2], &[3, 4]]);
        // Two replacements push garbage over 50% and trigger compaction.
        s.replace_set(0, &users(&[5]));
        s.replace_set(1, &users(&[0]));
        assert_eq!(s.garbage_ratio(), 0.0);
        assert_eq!(s.set(0), &[5]);
        assert_eq!(s.set(1), &[0]);
        assert_eq!(s.live_entries(), 2);
        assert!(s.index_matches_rebuild());
    }

    #[test]
    fn arena_accounting_tracks_live_and_garbage_bytes() {
        let mut s = store_with(&[&[0, 1, 2, 3, 4, 5]]);
        let live = s.live_arena_bytes();
        assert!(live > 0);
        assert_eq!(s.arena.len() as u64, live);
        assert_eq!(s.uncompressed_bytes(), 4 * 6);
        // Consecutive ids delta-encode to one byte per member.
        assert_eq!(live, 6);
        // A replacement leaves the old span as garbage until compaction.
        s.replace_set(0, &users(&[2]));
        assert_eq!(s.live_arena_bytes(), 1);
        assert_eq!(s.uncompressed_bytes(), 4);
    }

    #[test]
    fn masked_coverage_matches_per_query_passes() {
        let s = store_with(&[&[0, 1], &[1, 2], &[3], &[4, 5], &[0, 5]]);
        let queries: &[&[u32]] = &[&[1], &[1, 3], &[5], &[], &[0, 2, 4]];
        let mut masks = vec![0u64; s.user_count()];
        let mut full = 0u64;
        for (q, seeds) in queries.iter().enumerate() {
            for &u in *seeds {
                masks[u as usize] |= 1 << q;
                full |= 1 << q;
            }
        }
        let mut counts = vec![0usize; queries.len()];
        s.coverage_counts_masked(&masks, full, &mut counts);
        for (q, seeds) in queries.iter().enumerate() {
            assert_eq!(
                counts[q],
                covered(&s, seeds),
                "query {q} diverged from a scan of the sets"
            );
        }
        // A zero full-mask is a no-op.
        let mut untouched = vec![7usize; queries.len()];
        s.coverage_counts_masked(&vec![0; s.user_count()], 0, &mut untouched);
        assert!(untouched.iter().all(|&c| c == 7));
    }

    #[test]
    fn serialization_round_trips_spans_and_rebuilds_the_index() {
        let mut s = store_with(&[&[0, 1], &[1, 2], &[3], &[4, 5], &[0, 5]]);
        // Churn creates garbage so the writer proves it skips dead bytes.
        s.replace_set(1, &users(&[0, 3]));
        let mut out = Vec::new();
        s.serialize_into(&mut out);
        let mut cursor = out.as_slice();
        let restored = RrStore::deserialize_from(ItemId(0), 6, &mut cursor).unwrap();
        assert!(cursor.is_empty(), "reader must consume exactly the payload");
        assert_eq!(restored.len(), s.len());
        assert_eq!(restored.live_entries(), s.live_entries());
        for id in 0..s.len() as SetId {
            assert_eq!(restored.set(id), s.set(id), "set {id}");
        }
        assert!(restored.index_matches_rebuild());
        assert_eq!(restored.index_stats().full_rebuilds, 1);
        // The restored arena is garbage-free.
        assert_eq!(restored.garbage_ratio(), 0.0);
    }

    #[test]
    fn deserialization_rejects_corrupt_payloads() {
        let s = store_with(&[&[0, 1], &[4, 5]]);
        let mut out = Vec::new();
        s.serialize_into(&mut out);
        // Truncation anywhere inside the payload fails cleanly.
        for cut in 0..out.len() {
            let mut cursor = &out[..cut];
            assert!(
                RrStore::deserialize_from(ItemId(0), 6, &mut cursor).is_err(),
                "truncation at byte {cut} must be detected"
            );
        }
        // A member id past the user count fails validation.
        let mut cursor = out.as_slice();
        assert!(RrStore::deserialize_from(ItemId(0), 4, &mut cursor).is_err());
    }

    #[test]
    fn index_stats_absorb_and_since() {
        let mut a = IndexStats {
            entries_patched: 5,
            full_rebuilds: 1,
            compactions: 0,
        };
        let earlier = a;
        a.absorb(IndexStats {
            entries_patched: 3,
            full_rebuilds: 0,
            compactions: 2,
        });
        assert_eq!(a.entries_patched, 8);
        assert_eq!(a.full_rebuilds, 1);
        assert_eq!(a.compactions, 2);
        let delta = a.since(earlier);
        assert_eq!(delta.entries_patched, 3);
        assert_eq!(delta.full_rebuilds, 0);
        assert_eq!(delta.compactions, 2);
    }
}
