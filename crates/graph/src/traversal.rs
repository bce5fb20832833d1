//! Breadth-first traversal over out-edges or over both edge directions.

use crate::csr::CsrGraph;
use crate::ids::UserId;
use std::collections::VecDeque;

/// Result of a BFS from a set of sources: hop distance per node, `u32::MAX`
/// when unreachable.
#[derive(Clone, Debug)]
pub struct BfsDistances {
    distances: Vec<u32>,
}

/// Sentinel marking an unreachable node in [`BfsDistances`].
pub const UNREACHABLE: u32 = u32::MAX;

impl BfsDistances {
    /// Hop distance to `u` (`None` if unreachable).
    pub fn distance(&self, u: UserId) -> Option<u32> {
        let d = self.distances[u.index()];
        (d != UNREACHABLE).then_some(d)
    }

    /// Nodes reachable from the sources (including the sources themselves).
    pub fn reachable(&self) -> impl Iterator<Item = UserId> + '_ {
        self.distances
            .iter()
            .enumerate()
            .filter(|(_, &d)| d != UNREACHABLE)
            .map(|(i, _)| UserId::from_index(i))
    }

    /// Largest finite hop distance (the eccentricity of the source set).
    pub fn eccentricity(&self) -> u32 {
        self.distances
            .iter()
            .copied()
            .filter(|&d| d != UNREACHABLE)
            .max()
            .unwrap_or(0)
    }
}

/// Multi-source BFS over out-edges within an optional hop limit.
pub fn bfs(graph: &CsrGraph, sources: &[UserId], max_hops: Option<u32>) -> BfsDistances {
    let mut distances = vec![UNREACHABLE; graph.node_count()];
    let mut queue = VecDeque::new();
    for &s in sources {
        if distances[s.index()] == UNREACHABLE {
            distances[s.index()] = 0;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = distances[u.index()];
        if let Some(limit) = max_hops {
            if du >= limit {
                continue;
            }
        }
        for (v, _) in graph.out_edges(u) {
            if distances[v.index()] == UNREACHABLE {
                distances[v.index()] = du + 1;
                queue.push_back(v);
            }
        }
    }
    BfsDistances { distances }
}

/// Multi-source BFS that treats every edge as undirected (follows both out-
/// and in-edges).  Used for social distance and hop diameters.
pub fn bfs_undirected(graph: &CsrGraph, sources: &[UserId], max_hops: Option<u32>) -> BfsDistances {
    let mut distances = vec![UNREACHABLE; graph.node_count()];
    let mut queue = VecDeque::new();
    for &s in sources {
        if distances[s.index()] == UNREACHABLE {
            distances[s.index()] = 0;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = distances[u.index()];
        if let Some(limit) = max_hops {
            if du >= limit {
                continue;
            }
        }
        let neighbours = graph
            .out_edges(u)
            .map(|(v, _)| v)
            .chain(graph.in_edges(u).map(|(v, _)| v));
        for v in neighbours {
            if distances[v.index()] == UNREACHABLE {
                distances[v.index()] = du + 1;
                queue.push_back(v);
            }
        }
    }
    BfsDistances { distances }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn path_graph(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(UserId(i as u32), UserId(i as u32 + 1), 1.0);
        }
        b.build()
    }

    #[test]
    fn bfs_distances_on_a_path() {
        let g = path_graph(5);
        let d = bfs(&g, &[UserId(0)], None);
        assert_eq!(d.distance(UserId(0)), Some(0));
        assert_eq!(d.distance(UserId(4)), Some(4));
        assert_eq!(d.reachable().count(), 5);
        assert_eq!(d.eccentricity(), 4);
    }

    #[test]
    fn bfs_respects_hop_limit() {
        let g = path_graph(5);
        let d = bfs(&g, &[UserId(0)], Some(2));
        assert_eq!(d.distance(UserId(2)), Some(2));
        assert_eq!(d.distance(UserId(3)), None);
        assert_eq!(d.reachable().count(), 3);
    }

    #[test]
    fn bfs_is_directed() {
        let g = path_graph(3);
        let d = bfs(&g, &[UserId(2)], None);
        assert_eq!(d.reachable().count(), 1);
    }

    #[test]
    fn undirected_bfs_ignores_direction() {
        let g = path_graph(3);
        let d = bfs_undirected(&g, &[UserId(2)], None);
        assert_eq!(d.reachable().count(), 3);
        assert_eq!(d.distance(UserId(0)), Some(2));
    }

    #[test]
    fn multi_source_bfs_takes_minimum() {
        let g = path_graph(6);
        let d = bfs(&g, &[UserId(0), UserId(4)], None);
        assert_eq!(d.distance(UserId(5)), Some(1));
        assert_eq!(d.distance(UserId(3)), Some(3));
    }
}
