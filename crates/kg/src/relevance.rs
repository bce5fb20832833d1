//! Shared item–item relevance matrices `s(x, y | m)` per meta-graph.
//!
//! Following SCSE / PathSim style measures, the relevance between items `x`
//! and `y` under a meta-graph `m` is the symmetrised, normalised instance
//! count
//!
//! ```text
//! s(x, y | m) = 2 · count_m(x, y) / (count_m(x, x) + count_m(y, y))
//! ```
//!
//! clamped into `[0, 1]`.  The matrices are *shared across users*: dynamic
//! personal perception enters through the per-user meta-graph weightings of
//! [`crate::personal::PersonalPerception`], not through per-user copies of
//! these matrices.  This keeps memory proportional to
//! `|meta-graphs| · nnz + |users| · |meta-graphs|` instead of
//! `|users| · |items|²`.

use crate::hin::KnowledgeGraph;
use crate::metagraph::{MetaGraph, MetaGraphId, MetaGraphShape, RelationKind};
use imdpp_graph::ItemId;
use std::collections::HashMap;

/// A sparse symmetric item×item relevance matrix with scores in `[0, 1]`.
#[derive(Clone, Debug, Default)]
pub struct RelevanceMatrix {
    /// Per item: sorted list of `(other item, score)` with positive score.
    rows: Vec<Vec<(ItemId, f64)>>,
}

impl RelevanceMatrix {
    /// Builds an empty matrix over `item_count` items.
    pub fn empty(item_count: usize) -> Self {
        RelevanceMatrix {
            rows: vec![Vec::new(); item_count],
        }
    }

    /// Builds a matrix from an unordered map of pair scores.  Scores are
    /// clamped into `[0, 1]`; zero entries are dropped; the matrix is
    /// symmetrised by storing each pair in both rows.
    pub fn from_pairs(item_count: usize, pairs: &HashMap<(u32, u32), f64>) -> Self {
        let mut rows: Vec<Vec<(ItemId, f64)>> = vec![Vec::new(); item_count];
        // Iterate in key order: with duplicate pairs (e.g. both (a,b) and
        // (b,a) present) the dedup below keeps the first row entry, and
        // `sort_unstable` gives no order guarantee among equal keys — so
        // hash order could pick the surviving score.
        // lint: allow(hash-order) — collected and sorted before use.
        let mut entries: Vec<(&(u32, u32), &f64)> = pairs.iter().collect();
        entries.sort_unstable_by_key(|(&k, _)| k);
        for (&(a, b), &score) in entries {
            let s = score.clamp(0.0, 1.0);
            if s <= 0.0 || a == b {
                continue;
            }
            rows[a as usize].push((ItemId(b), s));
            rows[b as usize].push((ItemId(a), s));
        }
        for row in &mut rows {
            row.sort_unstable_by_key(|(i, _)| i.0);
            row.dedup_by_key(|(i, _)| i.0);
        }
        RelevanceMatrix { rows }
    }

    /// The relevance score between two items (0.0 when absent).
    pub fn score(&self, x: ItemId, y: ItemId) -> f64 {
        if x == y {
            return 0.0;
        }
        self.rows[x.index()]
            .binary_search_by_key(&y.0, |(i, _)| i.0)
            .map(|pos| self.rows[x.index()][pos].1)
            .unwrap_or(0.0)
    }

    /// Items with positive relevance to `x`.
    pub fn neighbours(&self, x: ItemId) -> impl Iterator<Item = (ItemId, f64)> + '_ {
        self.rows[x.index()].iter().copied()
    }

    /// Number of non-zero (directed) entries.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(|r| r.len()).sum()
    }
}

/// One non-zero relevance score `s(x, y | m)` of an item pair, tagged with
/// the kind of its meta-graph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PairTerm {
    /// The meta-graph `m`.
    pub metagraph: MetaGraphId,
    /// The relationship kind of `m`.
    pub kind: RelationKind,
    /// The score `s(x, y | m)`, positive.
    pub score: f64,
}

/// The non-zero scores of every related item pair, laid out flat once per
/// model: the hot relevance queries of the diffusion kernel read them
/// without a per-meta-graph binary search or an allocation.
#[derive(Clone, Debug, Default)]
struct PairIndex {
    /// Row `x` is `related[related_offsets[x]..related_offsets[x + 1]]`:
    /// the items related to `x`, sorted.
    related_offsets: Vec<usize>,
    related: Vec<ItemId>,
    /// The pair at position `p` of `related` owns
    /// `terms[term_offsets[p]..term_offsets[p + 1]]`, in meta-graph order;
    /// the last offset is `terms.len()`.
    term_offsets: Vec<usize>,
    terms: Vec<PairTerm>,
}

impl PairIndex {
    fn build(metagraphs: &[MetaGraph], matrices: &[RelevanceMatrix], item_count: usize) -> Self {
        let mut index = PairIndex {
            related_offsets: vec![0],
            terms: Vec::with_capacity(matrices.iter().map(RelevanceMatrix::nnz).sum()),
            ..PairIndex::default()
        };
        let mut row: Vec<(ItemId, PairTerm)> = Vec::new();
        for x in 0..item_count {
            row.clear();
            for (m, (mg, matrix)) in metagraphs.iter().zip(matrices).enumerate() {
                for (y, score) in matrix.neighbours(ItemId(x as u32)) {
                    let metagraph = MetaGraphId(m as u32);
                    let kind = mg.kind;
                    row.push((
                        y,
                        PairTerm {
                            metagraph,
                            kind,
                            score,
                        },
                    ));
                }
            }
            // Stable: the terms of one pair keep their meta-graph order.
            row.sort_by_key(|(y, _)| y.0);
            let row_start = index.related.len();
            for &(y, term) in &row {
                if index.related[row_start..].last() != Some(&y) {
                    index.related.push(y);
                    index.term_offsets.push(index.terms.len());
                }
                index.terms.push(term);
            }
            index.related_offsets.push(index.related.len());
        }
        index.term_offsets.push(index.terms.len());
        index
    }

    fn row(&self, x: ItemId) -> std::ops::Range<usize> {
        self.related_offsets[x.index()]..self.related_offsets[x.index() + 1]
    }
}

/// The collection of meta-graphs together with their relevance matrices.
#[derive(Clone, Debug)]
pub struct RelevanceModel {
    metagraphs: Vec<MetaGraph>,
    matrices: Vec<RelevanceMatrix>,
    item_count: usize,
    pairs: PairIndex,
}

impl RelevanceModel {
    /// Computes the relevance matrices of every meta-graph over a knowledge
    /// graph.
    ///
    /// Counting is performed with inverted indices (middle node → attached
    /// items) so the cost is proportional to the number of meta-graph
    /// instances rather than to `|items|²`.
    pub fn compute(kg: &KnowledgeGraph, metagraphs: Vec<MetaGraph>) -> Self {
        let item_count = kg.item_count();
        let mut matrices = Vec::with_capacity(metagraphs.len());
        for mg in &metagraphs {
            matrices.push(Self::compute_matrix(kg, mg));
        }
        Self::assemble(metagraphs, matrices, item_count)
    }

    fn assemble(
        metagraphs: Vec<MetaGraph>,
        matrices: Vec<RelevanceMatrix>,
        item_count: usize,
    ) -> Self {
        let pairs = PairIndex::build(&metagraphs, &matrices, item_count);
        RelevanceModel {
            metagraphs,
            matrices,
            item_count,
            pairs,
        }
    }

    fn compute_matrix(kg: &KnowledgeGraph, mg: &MetaGraph) -> RelevanceMatrix {
        let item_count = kg.item_count();
        let mut counts: HashMap<(u32, u32), f64> = HashMap::new();
        // Pair counts via inverted index on the middle node(s).
        match mg.shape {
            MetaGraphShape::DirectLink { edge } => {
                for x in kg.items() {
                    let nx = kg.item_node(x);
                    for (n, e) in kg.neighbours(nx) {
                        if e != edge {
                            continue;
                        }
                        if let Some(y) = kg.item_of_node(n) {
                            if y.0 > x.0 {
                                *counts.entry((x.0, y.0)).or_insert(0.0) += 1.0;
                            }
                        }
                    }
                }
            }
            MetaGraphShape::SharedNeighbour { via, edge } => {
                // middle node -> items attached to it through `edge`.
                for mid in 0..kg.node_count() {
                    let mid = crate::hin::KgNodeId(mid as u32);
                    if kg.node_type(mid) != via {
                        continue;
                    }
                    let attached: Vec<ItemId> = kg
                        .neighbours(mid)
                        .filter(|(_, e)| *e == edge)
                        .filter_map(|(n, _)| kg.item_of_node(n))
                        .collect();
                    for i in 0..attached.len() {
                        for j in (i + 1)..attached.len() {
                            let (a, b) = if attached[i].0 < attached[j].0 {
                                (attached[i].0, attached[j].0)
                            } else {
                                (attached[j].0, attached[i].0)
                            };
                            if a != b {
                                *counts.entry((a, b)).or_insert(0.0) += 1.0;
                            }
                        }
                    }
                }
            }
            MetaGraphShape::CoupledNeighbours {
                via_a,
                edge_a,
                via_b,
                edge_b,
            } => {
                // For each adjacent (m1: via_a, m2: via_b) pair, link the items
                // attached to m1 via edge_a with the items attached to m2 via
                // edge_b.  Count both orientations and halve to symmetrise.
                for mid in 0..kg.node_count() {
                    let m1 = crate::hin::KgNodeId(mid as u32);
                    if kg.node_type(m1) != via_a {
                        continue;
                    }
                    let items_a: Vec<ItemId> = kg
                        .neighbours(m1)
                        .filter(|(_, e)| *e == edge_a)
                        .filter_map(|(n, _)| kg.item_of_node(n))
                        .collect();
                    if items_a.is_empty() {
                        continue;
                    }
                    for (m2, _) in kg.neighbours(m1) {
                        if kg.node_type(m2) != via_b {
                            continue;
                        }
                        let items_b: Vec<ItemId> = kg
                            .neighbours(m2)
                            .filter(|(_, e)| *e == edge_b)
                            .filter_map(|(n, _)| kg.item_of_node(n))
                            .collect();
                        for &a in &items_a {
                            for &b in &items_b {
                                if a == b {
                                    continue;
                                }
                                let key = if a.0 < b.0 { (a.0, b.0) } else { (b.0, a.0) };
                                *counts.entry(key).or_insert(0.0) += 0.5;
                            }
                        }
                    }
                }
            }
        }
        // PathSim-style normalisation by the self counts of the endpoints.
        let self_counts: Vec<f64> = kg
            .items()
            .map(|x| mg.self_count(kg, kg.item_node(x)) as f64)
            .collect();
        let mut scores: HashMap<(u32, u32), f64> = HashMap::with_capacity(counts.len());
        // lint: allow(hash-order) — each distinct key is written exactly once
        // into `scores`; no accumulation, so visit order cannot matter.
        for ((a, b), c) in counts {
            let denom = self_counts[a as usize] + self_counts[b as usize];
            if denom > 0.0 {
                scores.insert((a, b), (2.0 * c / denom).clamp(0.0, 1.0));
            }
        }
        RelevanceMatrix::from_pairs(item_count, &scores)
    }

    /// Number of meta-graphs in the model.
    pub fn len(&self) -> usize {
        self.metagraphs.len()
    }

    /// True if the model contains no meta-graphs.
    pub fn is_empty(&self) -> bool {
        self.metagraphs.is_empty()
    }

    /// Number of items the matrices cover.
    pub fn item_count(&self) -> usize {
        self.item_count
    }

    /// The meta-graphs of the model.
    pub fn metagraphs(&self) -> &[MetaGraph] {
        &self.metagraphs
    }

    /// The relevance matrix of a meta-graph.
    pub fn matrix(&self, id: MetaGraphId) -> &RelevanceMatrix {
        &self.matrices[id.index()]
    }

    /// Ids of the meta-graphs with the given relationship kind.
    pub fn ids_of_kind(&self, kind: RelationKind) -> Vec<MetaGraphId> {
        self.metagraphs
            .iter()
            .enumerate()
            .filter(|(_, m)| m.kind == kind)
            .map(|(i, _)| MetaGraphId(i as u32))
            .collect()
    }

    /// Restricts the model to its first `k` meta-graphs (used by the Fig. 13
    /// sensitivity study on the number of meta-graphs).
    pub fn truncated(&self, k: usize) -> RelevanceModel {
        let k = k.min(self.metagraphs.len());
        Self::assemble(
            self.metagraphs[..k].to_vec(),
            self.matrices[..k].to_vec(),
            self.item_count,
        )
    }

    /// The unweighted average relevance of kind `kind` between `x` and `y`
    /// over the meta-graphs of that kind (each user's perception starts from
    /// this value under uniform weightings).
    pub fn base_relevance(&self, x: ItemId, y: ItemId, kind: RelationKind) -> f64 {
        let ids = self.ids_of_kind(kind);
        if ids.is_empty() {
            return 0.0;
        }
        let sum: f64 = ids.iter().map(|id| self.matrix(*id).score(x, y)).sum();
        (sum / ids.len() as f64).clamp(0.0, 1.0)
    }

    /// Items that have positive relevance (of either kind) to `x` under any
    /// meta-graph, sorted and without duplicates.
    pub fn related_items(&self, x: ItemId) -> &[ItemId] {
        &self.pairs.related[self.pairs.row(x)]
    }

    /// The non-zero scores `s(x, y | m)` of the pair, in meta-graph order
    /// (empty when no meta-graph relates `x` and `y`, and for `x == y`).
    pub fn pair_terms(&self, x: ItemId, y: ItemId) -> &[PairTerm] {
        let row = self.pairs.row(x);
        match self.pairs.related[row.clone()].binary_search(&y) {
            Ok(pos) => {
                let p = row.start + pos;
                &self.pairs.terms[self.pairs.term_offsets[p]..self.pairs.term_offsets[p + 1]]
            }
            Err(_) => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hin::figure1_knowledge_graph;

    fn model() -> RelevanceModel {
        RelevanceModel::compute(&figure1_knowledge_graph(), MetaGraph::default_set())
    }

    #[test]
    fn matrix_scores_are_symmetric_and_bounded() {
        let m = model();
        for id in 0..m.len() {
            let mat = m.matrix(MetaGraphId(id as u32));
            for x in 0..m.item_count() {
                for y in 0..m.item_count() {
                    let (x, y) = (ItemId(x as u32), ItemId(y as u32));
                    let s = mat.score(x, y);
                    assert!((0.0..=1.0).contains(&s));
                    assert!((s - mat.score(y, x)).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn shared_feature_relevance_matches_hand_computation() {
        let m = model();
        let m1 = m.matrix(MetaGraphId(0)); // shared_feature
                                           // iPhone has 2 features, AirPods 1, shared 1 => 2*1/(2+1) = 2/3.
        let s = m1.score(ItemId(0), ItemId(1));
        assert!((s - 2.0 / 3.0).abs() < 1e-9, "s = {s}");
        // iPhone/charger share Qi: 2*1/(2+1) = 2/3.
        assert!((m1.score(ItemId(0), ItemId(2)) - 2.0 / 3.0).abs() < 1e-9);
        // AirPods/charger share nothing.
        assert_eq!(m1.score(ItemId(1), ItemId(2)), 0.0);
    }

    #[test]
    fn direct_link_relevance_is_one_for_related_pairs() {
        let m = model();
        let m3 = m.matrix(MetaGraphId(2)); // directly_related
        assert!((m3.score(ItemId(0), ItemId(3)) - 1.0).abs() < 1e-9);
        assert_eq!(m3.score(ItemId(1), ItemId(2)), 0.0);
    }

    #[test]
    fn diagonal_is_zero() {
        let m = model();
        for id in 0..m.len() {
            let mat = m.matrix(MetaGraphId(id as u32));
            for x in 0..m.item_count() {
                assert_eq!(mat.score(ItemId(x as u32), ItemId(x as u32)), 0.0);
            }
        }
    }

    #[test]
    fn ids_of_kind_partition_the_metagraphs() {
        let m = model();
        let comp = m.ids_of_kind(RelationKind::Complementary);
        let sub = m.ids_of_kind(RelationKind::Substitutable);
        assert_eq!(comp.len() + sub.len(), m.len());
        assert_eq!(comp, vec![MetaGraphId(0), MetaGraphId(1), MetaGraphId(2)]);
    }

    #[test]
    fn truncated_model_keeps_prefix() {
        let m = model();
        let t = m.truncated(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.item_count(), m.item_count());
        assert_eq!(m.truncated(99).len(), m.len());
    }

    #[test]
    fn base_relevance_averages_over_kind() {
        let m = model();
        // Complementary: m1 gives 2/3, m2 gives 2*1/(1+1)=1, m3 gives 0 for (iPhone, AirPods).
        let r = m.base_relevance(ItemId(0), ItemId(1), RelationKind::Complementary);
        assert!((r - (2.0 / 3.0 + 1.0 + 0.0) / 3.0).abs() < 1e-9, "r = {r}");
        // No substitutable meta-graph matches anything in the Fig. 1 KG.
        assert_eq!(
            m.base_relevance(ItemId(0), ItemId(1), RelationKind::Substitutable),
            0.0
        );
    }

    #[test]
    fn related_items_unions_all_metagraphs() {
        let m = model();
        let rel = m.related_items(ItemId(0));
        // iPhone is related to AirPods (feature/brand), charger (feature), cable (direct link).
        assert_eq!(rel, vec![ItemId(1), ItemId(2), ItemId(3)]);
    }

    #[test]
    fn pair_terms_are_the_non_zero_scores_in_metagraph_order() {
        for m in [model(), model().truncated(2)] {
            for x in 0..m.item_count() as u32 {
                for y in 0..m.item_count() as u32 {
                    let (x, y) = (ItemId(x), ItemId(y));
                    let expected: Vec<PairTerm> = m
                        .metagraphs()
                        .iter()
                        .enumerate()
                        .map(|(i, mg)| PairTerm {
                            metagraph: MetaGraphId(i as u32),
                            kind: mg.kind,
                            score: m.matrix(MetaGraphId(i as u32)).score(x, y),
                        })
                        .filter(|t| t.score > 0.0)
                        .collect();
                    assert_eq!(m.pair_terms(x, y), &expected[..]);
                    assert_eq!(m.related_items(x).contains(&y), !expected.is_empty());
                }
            }
        }
    }

    #[test]
    fn from_pairs_drops_zero_and_clamps() {
        let mut pairs = HashMap::new();
        pairs.insert((0u32, 1u32), 1.7);
        pairs.insert((1u32, 2u32), 0.0);
        let m = RelevanceMatrix::from_pairs(3, &pairs);
        assert_eq!(m.score(ItemId(0), ItemId(1)), 1.0);
        assert_eq!(m.score(ItemId(1), ItemId(2)), 0.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn empty_model_is_harmless() {
        let kg = figure1_knowledge_graph();
        let m = RelevanceModel::compute(&kg, Vec::new());
        assert!(m.is_empty());
        assert_eq!(
            m.base_relevance(ItemId(0), ItemId(1), RelationKind::Complementary),
            0.0
        );
        assert!(m.related_items(ItemId(0)).is_empty());
    }
}
