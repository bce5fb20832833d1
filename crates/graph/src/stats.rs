//! Degree / density statistics for graphs (Table II style summaries).

use crate::csr::CsrGraph;

/// Summary statistics of the degree distribution of a directed graph.
#[derive(Clone, Debug, PartialEq)]
pub struct DegreeStats {
    /// Number of nodes.
    pub node_count: usize,
    /// Number of directed edges.
    pub edge_count: usize,
    /// Mean out-degree.
    pub mean_out_degree: f64,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Number of isolated nodes (no in- or out-edges).
    pub isolated_nodes: usize,
    /// Edge density `|E| / (|V| * (|V| - 1))`.
    pub density: f64,
}

impl DegreeStats {
    /// Computes degree statistics for a graph.
    pub fn of(graph: &CsrGraph) -> Self {
        let n = graph.node_count();
        let m = graph.edge_count();
        let mut max_out = 0usize;
        let mut max_in = 0usize;
        let mut isolated = 0usize;
        for u in graph.nodes() {
            let out = graph.out_degree(u);
            let inn = graph.in_degree(u);
            max_out = max_out.max(out);
            max_in = max_in.max(inn);
            if out == 0 && inn == 0 {
                isolated += 1;
            }
        }
        let density = if n > 1 {
            m as f64 / (n as f64 * (n as f64 - 1.0))
        } else {
            0.0
        };
        DegreeStats {
            node_count: n,
            edge_count: m,
            mean_out_degree: if n > 0 { m as f64 / n as f64 } else { 0.0 },
            max_out_degree: max_out,
            max_in_degree: max_in,
            isolated_nodes: isolated,
            density,
        }
    }
}

/// Out-degree histogram of a graph, as `(degree, node_count)` pairs sorted by
/// degree.  Used to check that synthetic generators reproduce heavy-tailed
/// degree distributions.
pub fn out_degree_histogram(graph: &CsrGraph) -> Vec<(usize, usize)> {
    use std::collections::BTreeMap;
    let mut hist: BTreeMap<usize, usize> = BTreeMap::new();
    for u in graph.nodes() {
        *hist.entry(graph.out_degree(u)).or_insert(0) += 1;
    }
    hist.into_iter().collect()
}

/// Fits the exponent of a power-law `P(k) ∝ k^(-α)` to the out-degree
/// distribution using the discrete maximum-likelihood estimator over degrees
/// `>= k_min`.  Returns `None` when fewer than two nodes qualify.
pub fn power_law_exponent(graph: &CsrGraph, k_min: usize) -> Option<f64> {
    let k_min = k_min.max(1);
    let mut sum_log = 0.0f64;
    let mut count = 0usize;
    for u in graph.nodes() {
        let k = graph.out_degree(u);
        if k >= k_min {
            sum_log += (k as f64 / (k_min as f64 - 0.5)).ln();
            count += 1;
        }
    }
    if count < 2 || sum_log <= 0.0 {
        return None;
    }
    Some(1.0 + count as f64 / sum_log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::ids::UserId;

    fn star(n: u32) -> CsrGraph {
        let mut b = GraphBuilder::new(n as usize + 1);
        for i in 1..=n {
            b.add_edge(UserId(0), UserId(i), 1.0);
        }
        b.build()
    }

    #[test]
    fn stats_of_star_graph() {
        let g = star(4);
        let s = DegreeStats::of(&g);
        assert_eq!(s.node_count, 5);
        assert_eq!(s.edge_count, 4);
        assert_eq!(s.max_out_degree, 4);
        assert_eq!(s.max_in_degree, 1);
        assert_eq!(s.isolated_nodes, 0);
        assert!((s.mean_out_degree - 0.8).abs() < 1e-12);
        assert!((s.density - 4.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn isolated_nodes_are_counted() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(UserId(0), UserId(1), 1.0);
        let s = DegreeStats::of(&b.build());
        assert_eq!(s.isolated_nodes, 2);
    }

    #[test]
    fn histogram_groups_by_degree() {
        let g = star(3);
        let hist = out_degree_histogram(&g);
        assert_eq!(hist, vec![(0, 3), (3, 1)]);
    }

    #[test]
    fn power_law_estimator_needs_enough_nodes() {
        let g = star(2);
        assert!(power_law_exponent(&g, 5).is_none());
    }

    #[test]
    fn power_law_estimator_returns_plausible_exponent() {
        // A graph where degrees roughly follow k^-2: many degree-1, few high.
        let mut b = GraphBuilder::new(200);
        let mut next = 1u32;
        for hub in 0..10u32 {
            let fanout = if hub == 0 { 60 } else { 6 };
            for _ in 0..fanout {
                if next as usize >= 199 {
                    break;
                }
                b.add_edge(UserId(hub), UserId(next), 1.0);
                next += 1;
            }
        }
        let alpha = power_law_exponent(&b.build(), 1).unwrap();
        assert!(alpha > 1.0 && alpha < 5.0, "alpha = {alpha}");
    }

    #[test]
    fn stats_of_empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        let s = DegreeStats::of(&g);
        assert_eq!(s.node_count, 0);
        assert_eq!(s.mean_out_degree, 0.0);
        assert_eq!(s.density, 0.0);
    }
}
