//! Meta-path summaries of explanations.
//!
//! A large explaining subgraph overwhelms a user; its *meta-paths* — the
//! schema-level shapes of the flow paths, like
//! `Paper =cites=> Paper <=by= Author` — compress it into a handful of
//! rows ("most of this result's authority arrives via citations from
//! base-set papers; a little via shared authors"). This is also the most
//! interpretable way to see what structure-based reformulation is about
//! to boost, since Equation 13 aggregates flows by exactly these edge
//! types.

use crate::paths::{top_paths, FlowPath};
use crate::subgraph::Explanation;
use orex_graph::{DataGraph, Direction, TransferGraph};
use std::collections::HashMap;

/// One meta-path row of a summary.
#[derive(Clone, Debug)]
pub struct MetaPath {
    /// Schema-level signature, e.g. `"Paper =cites=> Paper <=by= Author"`.
    pub signature: String,
    /// Number of extracted paths with this shape.
    pub count: usize,
    /// Sum of the bottleneck flows of those paths.
    pub total_flow: f64,
    /// The strongest concrete path of this shape.
    pub example: FlowPath,
}

/// Summarizes the `k` strongest flow paths of an explanation by their
/// meta-path signature, strongest aggregate first.
pub fn summarize(
    explanation: &Explanation,
    transfer: &TransferGraph,
    data: &DataGraph,
    k: usize,
) -> Vec<MetaPath> {
    let mut groups: HashMap<String, MetaPath> = HashMap::new();
    for path in top_paths(explanation, k) {
        let Some(signature) = signature_of(&path, explanation, transfer, data) else {
            continue;
        };
        match groups.get_mut(&signature) {
            Some(group) => {
                group.count += 1;
                group.total_flow += path.bottleneck;
                if path.bottleneck > group.example.bottleneck {
                    group.example = path;
                }
            }
            None => {
                groups.insert(
                    signature.clone(),
                    MetaPath {
                        signature,
                        count: 1,
                        total_flow: path.bottleneck,
                        example: path,
                    },
                );
            }
        }
    }
    let mut out: Vec<MetaPath> = groups.into_values().collect();
    out.sort_by(|a, b| {
        b.total_flow
            .total_cmp(&a.total_flow)
            .then_with(|| a.signature.cmp(&b.signature))
    });
    out
}

/// Builds the schema-level signature of a concrete path. Forward hops
/// render as `=label=>`, backward hops as `<=label=`.
fn signature_of(
    path: &FlowPath,
    explanation: &Explanation,
    transfer: &TransferGraph,
    data: &DataGraph,
) -> Option<String> {
    let schema = data.schema();
    let mut sig = String::new();
    sig.push_str(schema.node_label(data.node_type(*path.nodes.first()?)));
    for &e in &path.edges {
        let edge = &explanation.edges()[e];
        let tt = transfer.edge_transfer_type(edge.transfer_edge);
        let label = &schema.edge_type(tt.edge_type).label;
        match tt.direction {
            Direction::Forward => {
                sig.push_str(" =");
                sig.push_str(label);
                sig.push_str("=> ");
            }
            Direction::Backward => {
                sig.push_str(" <=");
                sig.push_str(label);
                sig.push_str("= ");
            }
        }
        sig.push_str(schema.node_label(data.node_type(edge.target)));
    }
    Some(sig)
}

/// Renders a summary as aligned plain text.
pub fn summary_to_text(summary: &[MetaPath]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for m in summary {
        let _ = writeln!(
            out,
            "{:>3}x  {:<60}  Σ bottleneck {:.3e}",
            m.count, m.signature, m.total_flow
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subgraph::ExplainParams;
    use orex_authority::{power_iteration, BaseSet, RankParams, TransitionMatrix};
    use orex_graph::{DataGraphBuilder, NodeId, SchemaGraph, TransferRates, TransferTypeId};

    /// Paper s cites paper t; author a wrote both s and t (so flow also
    /// arrives via the author backward hop).
    fn setup() -> (DataGraph, TransferGraph, Explanation) {
        let mut schema = SchemaGraph::new();
        let p = schema.add_node_type("Paper").unwrap();
        let au = schema.add_node_type("Author").unwrap();
        let cites = schema.add_edge_type(p, p, "cites").unwrap();
        let by = schema.add_edge_type(p, au, "by").unwrap();
        let mut b = DataGraphBuilder::new(schema);
        let s = b.add_node_with(p, &[("Title", "olap s")]).unwrap();
        let t = b.add_node_with(p, &[("Title", "target t")]).unwrap();
        let a = b.add_node_with(au, &[("Name", "author a")]).unwrap();
        b.add_edge(s, t, cites).unwrap();
        b.add_edge(s, a, by).unwrap();
        b.add_edge(t, a, by).unwrap();
        let g = b.freeze();
        let mut rates = TransferRates::zero(g.schema());
        rates.set(TransferTypeId::forward(cites), 0.5).unwrap();
        rates.set(TransferTypeId::forward(by), 0.2).unwrap();
        rates.set(TransferTypeId::backward(by), 0.2).unwrap();
        let tg = TransferGraph::build(&g);
        let weights = tg.weights(&rates);
        let m = TransitionMatrix::new(&tg, &rates);
        let base = BaseSet::uniform([0]).unwrap();
        let rank = power_iteration(
            &m,
            &base,
            &RankParams {
                epsilon: 1e-13,
                max_iterations: 5000,
                threads: 1,
                ..RankParams::default()
            },
            None,
        );
        let expl = Explanation::explain(
            &tg,
            &weights,
            &rank.scores,
            &base,
            NodeId::new(1),
            &ExplainParams::default(),
        )
        .unwrap();
        (g, tg, expl)
    }

    #[test]
    fn summary_groups_by_shape() {
        let (g, tg, expl) = setup();
        let summary = summarize(&expl, &tg, &g, 5);
        assert!(!summary.is_empty());
        let sigs: Vec<&str> = summary.iter().map(|m| m.signature.as_str()).collect();
        assert!(
            sigs.contains(&"Paper =cites=> Paper"),
            "direct citation shape expected in {sigs:?}"
        );
        assert!(
            sigs.contains(&"Paper =by=> Author <=by= Paper"),
            "shared-author shape expected in {sigs:?}"
        );
    }

    #[test]
    fn strongest_shape_leads() {
        let (g, tg, expl) = setup();
        let summary = summarize(&expl, &tg, &g, 5);
        // cites at 0.5 beats the two-hop 0.2 * 0.2 author route.
        assert_eq!(summary[0].signature, "Paper =cites=> Paper");
        for w in summary.windows(2) {
            assert!(w[0].total_flow >= w[1].total_flow);
        }
    }

    #[test]
    fn example_paths_match_their_signature_length() {
        let (g, tg, expl) = setup();
        for m in summarize(&expl, &tg, &g, 5) {
            // A signature with n hops renders n arrows.
            let arrows = m.signature.matches("=>").count() + m.signature.matches("<=").count();
            assert_eq!(arrows, m.example.len());
            assert!(m.count >= 1);
        }
    }

    #[test]
    fn text_rendering() {
        let (g, tg, expl) = setup();
        let text = summary_to_text(&summarize(&expl, &tg, &g, 5));
        assert!(text.contains("Paper =cites=> Paper"));
        assert!(text.contains('x'));
    }
}
