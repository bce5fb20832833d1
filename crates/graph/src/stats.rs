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
    fn stats_of_empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        let s = DegreeStats::of(&g);
        assert_eq!(s.node_count, 0);
        assert_eq!(s.mean_out_degree, 0.0);
        assert_eq!(s.density, 0.0);
    }
}
