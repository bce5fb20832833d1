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
//! * removals delete one entry without reordering the rest,
//! * reweights change a weight in place,
//! * insertions append at the end of the edge list (and hence at the end of
//!   the destination's in-adjacency).
//!
//! Updates address *directed* edges.  For undirected social graphs (where a
//! friendship is materialised as two directed influence edges) apply the
//! update and its [`EdgeUpdate::mirrored`] counterpart together.

use crate::csr::CsrGraph;
use crate::ids::UserId;

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
        // Start from an order that reproduces both adjacency directions:
        // `to_edge_list` alone is by-source and would scramble every node's
        // in-adjacency, invalidating RNG replay for *untouched* sets.
        //
        // Removed entries are tombstoned (`None`) and a `(src, dst)` → slot
        // index makes each update O(1), so a batch of `U` updates costs
        // O(E + U) instead of O(U · E) linear scans.  Per-pair FIFOs handle
        // (never-constructed-here but representable) parallel edges with
        // the same first-match semantics a linear scan would have.
        let mut slots: Vec<Option<crate::csr::WeightedEdge>> =
            self.interleaved_edge_list().into_iter().map(Some).collect();
        let mut index: std::collections::HashMap<(u32, u32), std::collections::VecDeque<usize>> =
            std::collections::HashMap::new();
        for (i, slot) in slots.iter().enumerate() {
            let e = slot.as_ref().expect("freshly wrapped");
            index.entry((e.src.0, e.dst.0)).or_default().push_back(i);
        }
        for up in updates {
            match *up {
                EdgeUpdate::Insert { src, dst, weight } => {
                    let queue = index.entry((src.0, dst.0)).or_default();
                    match queue.front() {
                        Some(&i) => {
                            slots[i].as_mut().expect("indexed slots are live").weight = weight
                        }
                        None => {
                            queue.push_back(slots.len());
                            slots.push(Some(crate::csr::WeightedEdge { src, dst, weight }));
                        }
                    }
                }
                EdgeUpdate::Remove { src, dst } => {
                    if let Some(i) = index.get_mut(&(src.0, dst.0)).and_then(|q| q.pop_front()) {
                        slots[i] = None;
                    }
                }
                EdgeUpdate::Reweight { src, dst, weight } => {
                    if let Some(&i) = index.get(&(src.0, dst.0)).and_then(|q| q.front()) {
                        slots[i].as_mut().expect("indexed slots are live").weight = weight;
                    }
                }
            }
        }
        let edges: Vec<crate::csr::WeightedEdge> = slots.into_iter().flatten().collect();
        CsrGraph::from_edges(self.node_count(), &edges)
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
