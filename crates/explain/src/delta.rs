//! Explanation deltas: what a reformulation changed.
//!
//! The paper explains *results*; a natural extension (transparency of the
//! feedback loop itself) is explaining the *reformulation*: after a
//! feedback round adjusts the rates and the query, how did the authority
//! arriving at an object change, which paths gained, which disappeared?
//! [`diff`] compares two explanations of the same target — typically
//! before and after one reformulation round — and reports the node and
//! flow-level changes, strongest first.

use crate::subgraph::Explanation;
use orex_graph::NodeId;
use std::collections::HashMap;

/// One edge whose adjusted flow changed between two explanations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeChange {
    /// Edge source.
    pub source: NodeId,
    /// Edge target.
    pub target: NodeId,
    /// Adjusted flow in the "before" explanation (0 when absent).
    pub before: f64,
    /// Adjusted flow in the "after" explanation (0 when absent).
    pub after: f64,
}

impl EdgeChange {
    /// Signed flow change.
    pub fn delta(&self) -> f64 {
        self.after - self.before
    }
}

/// The difference between two explanations of the same target.
#[derive(Clone, Debug)]
pub struct ExplanationDelta {
    /// The shared target object.
    pub target: NodeId,
    /// Total explained inflow before.
    pub inflow_before: f64,
    /// Total explained inflow after.
    pub inflow_after: f64,
    /// Nodes only present after the reformulation.
    pub added_nodes: Vec<NodeId>,
    /// Nodes only present before the reformulation.
    pub removed_nodes: Vec<NodeId>,
    /// Edge flow changes, sorted by `|delta|` descending (capped by the
    /// `top` argument of [`diff`]).
    pub edge_changes: Vec<EdgeChange>,
}

/// Compares two explanations of the same target.
///
/// # Errors
/// Returns an error message when the targets differ.
pub fn diff(
    before: &Explanation,
    after: &Explanation,
    top: usize,
) -> Result<ExplanationDelta, String> {
    if before.target() != after.target() {
        return Err(format!(
            "cannot diff explanations of different targets ({} vs {})",
            before.target(),
            after.target()
        ));
    }
    let added_nodes: Vec<NodeId> = after.nodes().filter(|&n| !before.contains(n)).collect();
    let removed_nodes: Vec<NodeId> = before.nodes().filter(|&n| !after.contains(n)).collect();

    // Merge flows by (source, target), summing parallel edges.
    let mut flows: HashMap<(u32, u32), (f64, f64)> = HashMap::new();
    for e in before.edges() {
        flows
            .entry((e.source.raw(), e.target.raw()))
            .or_insert((0.0, 0.0))
            .0 += e.adjusted_flow;
    }
    for e in after.edges() {
        flows
            .entry((e.source.raw(), e.target.raw()))
            .or_insert((0.0, 0.0))
            .1 += e.adjusted_flow;
    }
    let mut edge_changes: Vec<EdgeChange> = flows
        .into_iter()
        .filter(|&(_, (b, a))| (a - b).abs() > f64::EPSILON)
        .map(|((s, t), (b, a))| EdgeChange {
            source: NodeId::new(s),
            target: NodeId::new(t),
            before: b,
            after: a,
        })
        .collect();
    edge_changes.sort_by(|x, y| {
        y.delta()
            .abs()
            .total_cmp(&x.delta().abs())
            .then_with(|| (x.source, x.target).cmp(&(y.source, y.target)))
    });
    edge_changes.truncate(top);

    Ok(ExplanationDelta {
        target: before.target(),
        inflow_before: before.target_inflow(),
        inflow_after: after.target_inflow(),
        added_nodes,
        removed_nodes,
        edge_changes,
    })
}

/// Renders a delta as plain text with display names from the data graph.
pub fn delta_to_text(delta: &ExplanationDelta, data: &orex_graph::DataGraph) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "Reformulation effect on \"{}\":\n  explained inflow: {:.4e} -> {:.4e} ({:+.1}%)\n",
        data.node_display(delta.target),
        delta.inflow_before,
        delta.inflow_after,
        if delta.inflow_before > 0.0 {
            (delta.inflow_after / delta.inflow_before - 1.0) * 100.0
        } else {
            f64::INFINITY
        }
    );
    if !delta.added_nodes.is_empty() {
        let _ = writeln!(
            out,
            "  {} nodes joined the explanation",
            delta.added_nodes.len()
        );
    }
    if !delta.removed_nodes.is_empty() {
        let _ = writeln!(
            out,
            "  {} nodes left the explanation",
            delta.removed_nodes.len()
        );
    }
    for c in &delta.edge_changes {
        let _ = writeln!(
            out,
            "  {} -> {}: {:.3e} -> {:.3e} ({:+.3e})",
            data.node_display(c.source),
            data.node_display(c.target),
            c.before,
            c.after,
            c.delta()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subgraph::ExplainParams;
    use orex_authority::{power_iteration, BaseSet, RankParams, TransitionMatrix};
    use orex_graph::{DataGraphBuilder, SchemaGraph, TransferGraph, TransferRates, TransferTypeId};

    /// s -> a -> t with rates we vary between the two explanations.
    fn explain_with_rate(rate: f64) -> (orex_graph::DataGraph, Explanation) {
        let mut schema = SchemaGraph::new();
        let p = schema.add_node_type("P").unwrap();
        let r = schema.add_edge_type(p, p, "r").unwrap();
        let mut b = DataGraphBuilder::new(schema);
        let s = b.add_node_with(p, &[("Title", "s")]).unwrap();
        let a = b.add_node_with(p, &[("Title", "a")]).unwrap();
        let t = b.add_node_with(p, &[("Title", "t")]).unwrap();
        b.add_edge(s, a, r).unwrap();
        b.add_edge(a, t, r).unwrap();
        let g = b.freeze();
        let mut rates = TransferRates::zero(g.schema());
        rates.set(TransferTypeId::forward(r), rate).unwrap();
        let tg = TransferGraph::build(&g);
        let m = TransitionMatrix::new(&tg, &rates);
        let base = BaseSet::uniform([0]).unwrap();
        let rank = power_iteration(
            &m,
            &base,
            &RankParams {
                epsilon: 1e-14,
                max_iterations: 5000,
                threads: 1,
                ..RankParams::default()
            },
            None,
        );
        let expl = Explanation::explain(
            &tg,
            &rates,
            &rank.scores,
            base.nodes(),
            NodeId::new(2),
            &ExplainParams::default(),
        )
        .unwrap();
        (g, expl)
    }

    #[test]
    fn diff_reports_flow_growth() {
        let (g, weak) = explain_with_rate(0.3);
        let (_, strong) = explain_with_rate(0.8);
        let delta = diff(&weak, &strong, 10).unwrap();
        assert!(delta.inflow_after > delta.inflow_before);
        assert!(!delta.edge_changes.is_empty());
        for c in &delta.edge_changes {
            assert!(c.delta() > 0.0, "all flows grow with the rate");
        }
        let text = delta_to_text(&delta, &g);
        assert!(text.contains("Reformulation effect"));
        assert!(text.contains("->"));
    }

    #[test]
    fn diff_same_explanation_is_empty() {
        let (_, e) = explain_with_rate(0.5);
        let delta = diff(&e, &e, 10).unwrap();
        assert!(delta.edge_changes.is_empty());
        assert!(delta.added_nodes.is_empty());
        assert!(delta.removed_nodes.is_empty());
        assert_eq!(delta.inflow_before, delta.inflow_after);
    }

    #[test]
    fn diff_rejects_different_targets() {
        let (_, e1) = explain_with_rate(0.5);
        // Build an explanation of a different node on a fresh graph.
        let mut schema = SchemaGraph::new();
        let p = schema.add_node_type("P").unwrap();
        let r = schema.add_edge_type(p, p, "r").unwrap();
        let mut b = DataGraphBuilder::new(schema);
        let s = b.add_node(p, vec![]).unwrap();
        let t = b.add_node(p, vec![]).unwrap();
        b.add_edge(s, t, r).unwrap();
        let g = b.freeze();
        let mut rates = TransferRates::zero(g.schema());
        rates.set(TransferTypeId::forward(r), 0.5).unwrap();
        let tg = TransferGraph::build(&g);
        let m = TransitionMatrix::new(&tg, &rates);
        let base = BaseSet::uniform([0]).unwrap();
        let rank = power_iteration(&m, &base, &RankParams::default(), None);
        let e2 = Explanation::explain(
            &tg,
            &rates,
            &rank.scores,
            base.nodes(),
            NodeId::new(1),
            &ExplainParams::default(),
        )
        .unwrap();
        assert!(diff(&e1, &e2, 10).is_err());
    }

    #[test]
    fn top_caps_changes() {
        let (_, weak) = explain_with_rate(0.3);
        let (_, strong) = explain_with_rate(0.8);
        let delta = diff(&weak, &strong, 1).unwrap();
        assert_eq!(delta.edge_changes.len(), 1);
    }
}
