//! Rendering of explaining subgraphs for display to the user.
//!
//! The whole point of Section 4 is showing the user *why* a result scored
//! high (e.g. Figure 9 of the paper). Two renderers are provided: a
//! Graphviz DOT export mirroring the paper's figures, and a plain-text
//! summary listing the strongest flow paths.

use crate::paths::top_paths;
use crate::subgraph::Explanation;
use orex_graph::{escape_label, DataGraph};
use std::fmt::Write as _;

/// Renders the explaining subgraph as Graphviz DOT. Node labels come from
/// the data graph; every edge is annotated with its adjusted authority
/// flow (the quantity of Figure 9). The target is drawn with a double
/// border, base-set sources shaded.
pub fn to_dot(explanation: &Explanation, data: &DataGraph) -> String {
    let mut out = String::from("digraph explanation {\n  rankdir=LR;\n");
    for node in explanation.nodes() {
        let mut attrs = format!(
            "label=\"{}: {}\"",
            escape_label(data.node_label(node)),
            escape_label(&data.node_display(node))
        );
        if node == explanation.target() {
            attrs.push_str(", peripheries=2");
        }
        if explanation.is_source(node) {
            attrs.push_str(", style=filled, fillcolor=lightgrey");
        }
        let _ = writeln!(out, "  {} [{}];", node.index(), attrs);
    }
    for e in explanation.edges() {
        let _ = writeln!(
            out,
            "  {} -> {} [label=\"{:.3e}\"];",
            e.source.index(),
            e.target.index(),
            e.adjusted_flow
        );
    }
    out.push_str("}\n");
    out
}

/// Renders a plain-text explanation: the target, its total explained
/// inflow, and the `max_paths` strongest flow paths with per-edge flows.
pub fn to_text(explanation: &Explanation, data: &DataGraph, max_paths: usize) -> String {
    let target = explanation.target();
    let mut out = format!(
        "Why \"{}\" ({})?\n  total explained authority inflow: {:.4e}\n  subgraph: {} nodes, {} edges\n",
        data.node_display(target),
        data.node_label(target),
        explanation.target_inflow(),
        explanation.node_count(),
        explanation.edge_count(),
    );
    let paths = top_paths(explanation, max_paths);
    if paths.is_empty() {
        out.push_str("  (no flow paths found)\n");
        return out;
    }
    for (i, p) in paths.iter().enumerate() {
        let _ = writeln!(out, "  path {} (bottleneck {:.3e}):", i + 1, p.bottleneck);
        for &e in &p.edges {
            let edge = &explanation.edges()[e];
            let _ = writeln!(
                out,
                "    {} --[{:.3e}]--> {}",
                data.node_display(edge.source),
                edge.adjusted_flow,
                data.node_display(edge.target),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subgraph::ExplainParams;
    use orex_authority::{power_iteration, BaseSet, RankParams, TransitionMatrix};
    use orex_graph::{
        DataGraphBuilder, NodeId, SchemaGraph, TransferGraph, TransferRates, TransferTypeId,
    };

    fn setup() -> (DataGraph, Explanation) {
        let mut schema = SchemaGraph::new();
        let p = schema.add_node_type("Paper").unwrap();
        let r = schema.add_edge_type(p, p, "cites").unwrap();
        let mut b = DataGraphBuilder::new(schema);
        let s = b.add_node_with(p, &[("Title", "Source Paper")]).unwrap();
        let t = b
            .add_node_with(p, &[("Title", "Target \"Paper\"")])
            .unwrap();
        b.add_edge(s, t, r).unwrap();
        let g = b.freeze();
        let mut rates = TransferRates::zero(g.schema());
        rates.set(TransferTypeId::forward(r), 0.7).unwrap();
        let tg = TransferGraph::build(&g);
        let m = TransitionMatrix::new(&tg, &rates);
        let base = BaseSet::uniform([0]).unwrap();
        let rank = power_iteration(&m, &base, &RankParams::default(), None);
        let expl = Explanation::explain(
            &tg,
            &rates,
            &rank.scores,
            base.nodes(),
            NodeId::new(1),
            &ExplainParams::default(),
        )
        .unwrap();
        (g, expl)
    }

    use orex_graph::DataGraph;

    #[test]
    fn dot_marks_target_and_source() {
        let (g, expl) = setup();
        let dot = to_dot(&expl, &g);
        assert!(dot.contains("peripheries=2"));
        assert!(dot.contains("fillcolor=lightgrey"));
        assert!(dot.contains("0 -> 1"));
        // Quotes in titles escaped.
        assert!(dot.contains("Target \\\"Paper\\\""));
    }

    #[test]
    fn text_lists_paths() {
        let (g, expl) = setup();
        let text = to_text(&expl, &g, 3);
        assert!(text.contains("Why"));
        assert!(text.contains("Source Paper"));
        assert!(text.contains("path 1"));
        assert!(text.contains("-->"));
    }
}
