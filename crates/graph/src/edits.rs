//! Edge updates: insertions, deletions and strength changes applied to an
//! existing [`CsrGraph`] without disturbing the adjacency *order* of
//! untouched nodes.
//!
//! Dynamic-IM maintenance (the `imdpp-sketch` crate) re-samples only the RR
//! sets whose traversal could have crossed a touched edge, and proves the
//! refresh equal to a rebuild by *replaying RNG streams*.  That replay is
//! only bit-identical when every untouched node presents its in-edges in the
//! same order before and after the update, so [`CsrGraph::apply_edge_updates`]
//! guarantees:
//!
//! * removals delete the first matching entry of the source's out-row and
//!   of the destination's in-row without reordering the rest,
//! * reweights change that entry's weight in place,
//! * insertions of an absent edge append to the end of both rows,
//! * every row no update touches is copied as it is.
//!
//! So each update edits copies of its two rows, `src`'s out-row and `dst`'s
//! in-row, and the new graph's arrays are written in one pass per direction:
//! a batch costs O(E + n + Σ touched rows), with no hashing, sorting or
//! rebuild.
//!
//! Updates address *directed* edges.  For undirected social graphs (where a
//! friendship is materialised as two directed influence edges) apply the
//! update and its [`EdgeUpdate::mirrored`] counterpart together.

use crate::csr::{CsrGraph, Row};
use crate::ids::UserId;
use std::collections::BTreeMap;

/// A single mutation of a weighted directed graph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EdgeUpdate {
    /// Insert `src → dst` with the given weight; when the edge already
    /// exists this acts as a reweight (upsert).
    Insert {
        /// Source node.
        src: UserId,
        /// Destination node.
        dst: UserId,
        /// New edge weight.
        weight: f64,
    },
    /// Remove `src → dst`; a no-op when the edge does not exist.
    Remove {
        /// Source node.
        src: UserId,
        /// Destination node.
        dst: UserId,
    },
    /// Set the weight of the existing edge `src → dst`; a no-op when the
    /// edge does not exist (use [`EdgeUpdate::Insert`] to upsert).
    Reweight {
        /// Source node.
        src: UserId,
        /// Destination node.
        dst: UserId,
        /// New edge weight.
        weight: f64,
    },
}

impl EdgeUpdate {
    /// The source endpoint of the touched edge.
    pub fn src(&self) -> UserId {
        match *self {
            EdgeUpdate::Insert { src, .. }
            | EdgeUpdate::Remove { src, .. }
            | EdgeUpdate::Reweight { src, .. } => src,
        }
    }

    /// The destination endpoint of the touched edge.
    pub fn dst(&self) -> UserId {
        match *self {
            EdgeUpdate::Insert { dst, .. }
            | EdgeUpdate::Remove { dst, .. }
            | EdgeUpdate::Reweight { dst, .. } => dst,
        }
    }

    /// The same update with source and destination swapped — the companion
    /// update for undirected graphs.
    pub fn mirrored(&self) -> EdgeUpdate {
        match *self {
            EdgeUpdate::Insert { src, dst, weight } => EdgeUpdate::Insert {
                src: dst,
                dst: src,
                weight,
            },
            EdgeUpdate::Remove { src, dst } => EdgeUpdate::Remove { src: dst, dst: src },
            EdgeUpdate::Reweight { src, dst, weight } => EdgeUpdate::Reweight {
                src: dst,
                dst: src,
                weight,
            },
        }
    }
}

impl CsrGraph {
    /// Returns a new graph with the updates applied in order.
    ///
    /// The node count is fixed: updates referencing nodes outside
    /// `0..node_count()` panic (dynamic worlds in this suite have a fixed
    /// user population; growing it invalidates preference matrices and
    /// perception state wholesale).
    ///
    /// Ordering guarantee: the in- and out-adjacency sequences of every node
    /// not touched by an update are preserved exactly; insertions append to
    /// the destination's in-adjacency.  This is what keeps RNG-stream replay
    /// over the updated graph bit-identical for traversals that never visit
    /// a touched destination (see `imdpp_sketch::incremental`).
    pub fn apply_edge_updates(&self, updates: &[EdgeUpdate]) -> CsrGraph {
        for up in updates {
            assert!(
                up.src().index() < self.node_count() && up.dst().index() < self.node_count(),
                "edge update {:?} out of range for {} nodes",
                up,
                self.node_count()
            );
            if let EdgeUpdate::Insert { weight, .. } | EdgeUpdate::Reweight { weight, .. } = up {
                assert!(weight.is_finite(), "edge weight must be finite");
            }
        }
        let mut out_rows: BTreeMap<u32, Row> = BTreeMap::new();
        let mut in_rows: BTreeMap<u32, Row> = BTreeMap::new();
        for up in updates {
            let (src, dst) = (up.src(), up.dst());
            let out_row = out_rows
                .entry(src.0)
                .or_insert_with(|| self.out_edges(src).map(|(v, w)| (v.0, w)).unzip());
            edit_row(out_row, dst, up);
            let in_row = in_rows
                .entry(dst.0)
                .or_insert_with(|| self.in_edges(dst).map(|(v, w)| (v.0, w)).unzip());
            edit_row(in_row, src, up);
        }
        self.with_rows(&out_rows, &in_rows)
    }
}

/// Applies `up` to one of its two rows, the one listing `other` as the far
/// endpoint.  The first entry naming `other` is the same edge in both rows
/// (both list a node pair's parallel edges in construction order), so the
/// two rows stay in step.
fn edit_row((ids, weights): &mut Row, other: UserId, up: &EdgeUpdate) {
    let slot = ids.iter().position(|&v| v == other.0);
    match (*up, slot) {
        (EdgeUpdate::Insert { weight, .. } | EdgeUpdate::Reweight { weight, .. }, Some(i)) => {
            weights[i] = weight
        }
        (EdgeUpdate::Insert { weight, .. }, None) => {
            ids.push(other.0);
            weights.push(weight);
        }
        (EdgeUpdate::Remove { .. }, Some(i)) => {
            ids.remove(i);
            weights.remove(i);
        }
        (EdgeUpdate::Remove { .. } | EdgeUpdate::Reweight { .. }, None) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::WeightedEdge;

    fn g() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 2
        CsrGraph::from_edges(
            4,
            &[
                WeightedEdge {
                    src: UserId(0),
                    dst: UserId(1),
                    weight: 0.5,
                },
                WeightedEdge {
                    src: UserId(0),
                    dst: UserId(2),
                    weight: 0.25,
                },
                WeightedEdge {
                    src: UserId(1),
                    dst: UserId(2),
                    weight: 0.75,
                },
            ],
        )
    }

    #[test]
    fn insert_appends_and_upserts() {
        let g2 = g().apply_edge_updates(&[EdgeUpdate::Insert {
            src: UserId(2),
            dst: UserId(3),
            weight: 0.9,
        }]);
        assert_eq!(g2.edge_count(), 4);
        assert_eq!(g2.edge_weight(UserId(2), UserId(3)), Some(0.9));
        // Upsert on an existing edge reweights instead of duplicating.
        let g3 = g().apply_edge_updates(&[EdgeUpdate::Insert {
            src: UserId(0),
            dst: UserId(1),
            weight: 0.1,
        }]);
        assert_eq!(g3.edge_count(), 3);
        assert_eq!(g3.edge_weight(UserId(0), UserId(1)), Some(0.1));
    }

    #[test]
    fn remove_deletes_one_edge_and_tolerates_absence() {
        let g2 = g().apply_edge_updates(&[EdgeUpdate::Remove {
            src: UserId(0),
            dst: UserId(2),
        }]);
        assert_eq!(g2.edge_count(), 2);
        assert!(!g2.has_edge(UserId(0), UserId(2)));
        let g3 = g().apply_edge_updates(&[EdgeUpdate::Remove {
            src: UserId(3),
            dst: UserId(0),
        }]);
        assert_eq!(g3.edge_count(), 3);
    }

    #[test]
    fn reweight_changes_in_place_and_skips_absent_edges() {
        let g2 = g().apply_edge_updates(&[
            EdgeUpdate::Reweight {
                src: UserId(1),
                dst: UserId(2),
                weight: 0.33,
            },
            EdgeUpdate::Reweight {
                src: UserId(2),
                dst: UserId(0),
                weight: 0.9,
            },
        ]);
        assert_eq!(g2.edge_weight(UserId(1), UserId(2)), Some(0.33));
        assert!(!g2.has_edge(UserId(2), UserId(0)));
    }

    #[test]
    fn untouched_in_adjacency_order_is_preserved() {
        // Node 2's in-edges are (0, .25) then (1, .75); removing 0 -> 1 and
        // inserting 3 -> 1 must not disturb that order.
        let g2 = g().apply_edge_updates(&[
            EdgeUpdate::Remove {
                src: UserId(0),
                dst: UserId(1),
            },
            EdgeUpdate::Insert {
                src: UserId(3),
                dst: UserId(1),
                weight: 0.6,
            },
        ]);
        let before: Vec<_> = g().in_edges(UserId(2)).collect();
        let after: Vec<_> = g2.in_edges(UserId(2)).collect();
        assert_eq!(before, after);
        // The inserted edge lands at the end of node 1's in-adjacency.
        let in1: Vec<_> = g2.in_edges(UserId(1)).collect();
        assert_eq!(in1.last(), Some(&(UserId(3), 0.6)));
    }

    #[test]
    fn noop_detection_matches_application() {
        let base = g();
        let cases = [
            (
                EdgeUpdate::Remove {
                    src: UserId(3),
                    dst: UserId(0),
                },
                true,
            ),
            (
                EdgeUpdate::Reweight {
                    src: UserId(2),
                    dst: UserId(0),
                    weight: 0.4,
                },
                true,
            ),
            (
                EdgeUpdate::Reweight {
                    src: UserId(0),
                    dst: UserId(1),
                    weight: 0.5,
                },
                true,
            ),
            (
                EdgeUpdate::Insert {
                    src: UserId(0),
                    dst: UserId(1),
                    weight: 0.5,
                },
                true,
            ),
            (
                EdgeUpdate::Insert {
                    src: UserId(0),
                    dst: UserId(1),
                    weight: 0.6,
                },
                false,
            ),
            (
                EdgeUpdate::Remove {
                    src: UserId(0),
                    dst: UserId(1),
                },
                false,
            ),
        ];
        for (up, expect_noop) in cases {
            let applied = base.apply_edge_updates(&[up]);
            let unchanged = applied.to_edge_list() == base.to_edge_list();
            assert_eq!(unchanged, expect_noop, "{up:?}");
        }
    }

    #[test]
    fn mirrored_swaps_endpoints() {
        let up = EdgeUpdate::Insert {
            src: UserId(1),
            dst: UserId(2),
            weight: 0.3,
        };
        assert_eq!(up.mirrored().src(), UserId(2));
        assert_eq!(up.mirrored().dst(), UserId(1));
        assert_eq!(up.mirrored().mirrored(), up);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_updates() {
        let _ = g().apply_edge_updates(&[EdgeUpdate::Remove {
            src: UserId(9),
            dst: UserId(0),
        }]);
    }
}
