//! Top authority-flow path extraction.
//!
//! Explaining subgraphs can be large; the paper's online demo "only
//! keep[s] the paths with high authority flow" for display. We extract the
//! `k` *widest* base-set-to-target paths: a path's strength is the minimum
//! adjusted flow along it (the bottleneck), which matches the intuition
//! that a chain of strong edges with one negligible link explains little.
//!
//! The widest path is found by the max-bottleneck variant of Dijkstra;
//! successive paths are found by masking the previous path's bottleneck
//! hop (a standard diverse-k heuristic — exact k-widest enumeration is
//! not needed for display purposes).
//!
//! A path names the edge that carries each hop ([`FlowPath::edges`]), so
//! its readers look the hop up instead of rescanning the parallel edges
//! between its nodes.

use crate::subgraph::Explanation;
use orex_graph::NodeId;
use std::collections::BinaryHeap;

/// One extracted flow path.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowPath {
    /// Node sequence from a base-set node to the target.
    pub nodes: Vec<NodeId>,
    /// The edge carrying each hop, as an index into the
    /// [`Explanation::edges`] of the explanation the path was extracted
    /// from: `edges[i]` runs `nodes[i] -> nodes[i + 1]`. Of the parallel
    /// edges between a hop's two nodes it is the strongest, the last in
    /// edge order when several tie.
    pub edges: Vec<usize>,
    /// Bottleneck (minimum adjusted flow) along the path.
    pub bottleneck: f64,
    /// Sum of adjusted flows along the path.
    pub total_flow: f64,
}

impl FlowPath {
    /// Path length in edges.
    pub fn len(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }

    /// True for degenerate single-node paths (target in base set).
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }
}

/// Extracts up to `k` high-flow paths from the explanation's base-set
/// nodes to its target, strongest first.
pub fn top_paths(explanation: &Explanation, k: usize) -> Vec<FlowPath> {
    let mut masked = vec![false; explanation.edge_count()];
    std::iter::from_fn(|| widest_path(explanation, &mut masked))
        .take(k)
        .collect()
}

/// Total-ordered `f64` key for the search heap.
#[derive(PartialEq)]
struct Width(f64);

impl Eq for Width {}

impl Ord for Width {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for Width {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Max-bottleneck Dijkstra from all base-set nodes to the target,
/// ignoring `masked` edges. The found path's bottleneck hop is masked
/// before returning, so the next search diverges from it.
fn widest_path(explanation: &Explanation, masked: &mut [bool]) -> Option<FlowPath> {
    const NO_PARENT: u32 = u32::MAX;
    let edges = explanation.edges();
    let flow = |e: usize| edges[e].adjusted_flow;
    let n = explanation.node_count();
    let target = explanation.local(explanation.target())?;
    // width[n] = best bottleneck achievable from any source to n.
    let mut width = vec![0.0f64; n];
    let mut parent = vec![NO_PARENT; n];
    // Local order is global id order, so ties on width pop by node id.
    let mut heap: BinaryHeap<(Width, u32)> = BinaryHeap::new();
    for source in (0..n).filter(|&i| explanation.is_source_at(i)) {
        // The target may itself be in the base set; it is still the path
        // *destination*, never a path start (a zero-length path explains
        // nothing), so it is not seeded.
        if source != target {
            width[source] = f64::INFINITY;
            heap.push((Width(f64::INFINITY), source as u32));
        }
    }
    while let Some((Width(w), u)) = heap.pop() {
        let u = u as usize;
        if width[u] > w {
            continue; // stale entry
        }
        if u == target {
            break; // never seeded, so it was reached over at least one hop
        }
        for (v, e) in explanation.out_local(u) {
            if masked[e] || flow(e) <= 0.0 {
                continue;
            }
            let cand = w.min(flow(e));
            if cand > width[v] {
                width[v] = cand;
                parent[v] = u as u32;
                heap.push((Width(cand), v as u32));
            }
        }
    }
    if parent[target] == NO_PARENT {
        return None;
    }

    // Reconstruct, target first. The strongest of the parallel edges
    // between a hop's two nodes carries the hop; `max_by` keeps the last
    // of several equally strong ones.
    let mut nodes = vec![explanation.target()];
    let mut hops = Vec::new();
    let mut cur = target;
    while parent[cur] != NO_PARENT {
        let prev = parent[cur] as usize;
        let hop = explanation
            .out_local(prev)
            .filter(|&(v, _)| v == cur)
            .map(|(_, e)| e)
            .max_by(|&a, &b| flow(a).total_cmp(&flow(b)))?;
        nodes.push(edges[hop].source);
        hops.push(hop);
        cur = prev;
    }
    nodes.reverse();
    hops.reverse();

    // Mask the bottleneck hop — the first of the weakest — together with
    // every edge parallel to it.
    let weakest = hops
        .iter()
        .map(|&e| &edges[e])
        .min_by(|a, b| a.adjusted_flow.total_cmp(&b.adjusted_flow))?;
    for (_, e) in explanation.out_local(explanation.local(weakest.source)?) {
        masked[e] |= edges[e].target == weakest.target;
    }

    Some(FlowPath {
        nodes,
        bottleneck: width[target],
        total_flow: hops.iter().fold(0.0, |total, &e| total + flow(e)),
        edges: hops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subgraph::{ExplainParams, Explanation};
    use orex_authority::{power_iteration, BaseSet, RankParams, TransitionMatrix};
    use orex_graph::{DataGraphBuilder, SchemaGraph, TransferGraph, TransferRates, TransferTypeId};

    /// Diamond: s -> a -> t and s -> b -> t, with a-branch carrying more
    /// flow (a also feeds t via a second parallel structure is avoided;
    /// instead b leaks half its flow to x).
    fn diamond() -> (TransferGraph, Vec<f64>, Vec<f64>, BaseSet) {
        let mut schema = SchemaGraph::new();
        let p = schema.add_node_type("P").unwrap();
        let r = schema.add_edge_type(p, p, "r").unwrap();
        let mut bld = DataGraphBuilder::new(schema);
        let n: Vec<_> = (0..6).map(|_| bld.add_node(p, vec![]).unwrap()).collect();
        bld.add_edge(n[0], n[1], r).unwrap(); // s -> a
        bld.add_edge(n[0], n[2], r).unwrap(); // s -> b
        bld.add_edge(n[1], n[3], r).unwrap(); // a -> t
        bld.add_edge(n[2], n[3], r).unwrap(); // b -> t
        bld.add_edge(n[2], n[4], r).unwrap(); // b -> x (leak)
        bld.add_edge(n[5], n[3], r).unwrap(); // y -> t (y not reached)
        let g = bld.freeze();
        let mut rates = TransferRates::zero(g.schema());
        rates.set(TransferTypeId::forward(r), 0.8).unwrap();
        let tg = TransferGraph::build(&g);
        let weights = tg.weights(&rates);
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
        (tg, weights, rank.scores, base)
    }

    fn explanation() -> Explanation {
        let (tg, weights, scores, base) = diamond();
        Explanation::explain(
            &tg,
            &weights,
            &scores,
            &base,
            orex_graph::NodeId::new(3),
            &ExplainParams::default(),
        )
        .unwrap()
    }

    #[test]
    fn best_path_goes_through_stronger_branch() {
        let expl = explanation();
        let paths = top_paths(&expl, 1);
        assert_eq!(paths.len(), 1);
        let ids: Vec<u32> = paths[0].nodes.iter().map(|n| n.raw()).collect();
        // a -> t carries 0.4 * r(a) vs b -> t carrying 0.4 * r(b) with
        // r(a) = r(b); but the s -> a edge is adjusted by h(a) = 0.4 and
        // s -> b by h(b) = 0.4 too (b splits to t and x).
        // Bottlenecks differ because alpha(s->a)=alpha(s->b)=0.4, and
        // a sends everything to t while b halves. The a-branch wins.
        assert_eq!(ids, vec![0, 1, 3]);
        assert!(paths[0].bottleneck > 0.0);
    }

    #[test]
    fn second_path_diverges() {
        let expl = explanation();
        let paths = top_paths(&expl, 3);
        assert!(paths.len() >= 2, "expected two distinct paths");
        let ids1: Vec<u32> = paths[0].nodes.iter().map(|n| n.raw()).collect();
        let ids2: Vec<u32> = paths[1].nodes.iter().map(|n| n.raw()).collect();
        assert_ne!(ids1, ids2);
        assert_eq!(ids2, vec![0, 2, 3]);
        assert!(paths[0].bottleneck >= paths[1].bottleneck);
    }

    #[test]
    fn paths_start_at_source_end_at_target() {
        let expl = explanation();
        for p in top_paths(&expl, 5) {
            assert!(expl.is_source(p.nodes[0]));
            assert_eq!(*p.nodes.last().unwrap(), expl.target());
            assert!(!p.is_empty());
        }
    }

    #[test]
    fn k_zero_returns_nothing() {
        let expl = explanation();
        assert!(top_paths(&expl, 0).is_empty());
    }

    #[test]
    fn target_in_base_set_still_yields_paths() {
        // Regression: when the target itself matches the query (is a
        // base-set node), paths from the *other* sources must still be
        // found — a zero-length self-path used to block them.
        let (tg, weights, _, _) = diamond();
        let base = BaseSet::uniform([0, 3]).unwrap(); // target 3 in base set
        let m = TransitionMatrix::new(&tg, &tg_rates());
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
            &weights,
            &rank.scores,
            &base,
            orex_graph::NodeId::new(3),
            &ExplainParams::default(),
        )
        .unwrap();
        let paths = top_paths(&expl, 3);
        assert!(!paths.is_empty(), "paths from node 0 must be found");
        assert!(!paths[0].is_empty());
        assert_eq!(*paths[0].nodes.last().unwrap(), expl.target());
    }

    fn tg_rates() -> orex_graph::TransferRates {
        let mut schema = SchemaGraph::new();
        let p = schema.add_node_type("P").unwrap();
        let r = schema.add_edge_type(p, p, "r").unwrap();
        let mut rates = TransferRates::zero(&schema);
        rates.set(TransferTypeId::forward(r), 0.8).unwrap();
        rates
    }

    #[test]
    fn total_flow_is_sum_of_edges() {
        let expl = explanation();
        let p = &top_paths(&expl, 1)[0];
        let mut sum = 0.0;
        for pair in p.nodes.windows(2) {
            sum += expl
                .out_edges(pair[0])
                .filter(|e| e.target == pair[1])
                .map(|e| e.adjusted_flow)
                .fold(0.0, f64::max);
        }
        assert!((p.total_flow - sum).abs() < 1e-12);
    }

    /// `top_paths` as it stood before a path named its edges: hash-keyed
    /// width/parent tables on global ids, a node-pair mask, and a rescan
    /// of the parallel edges wherever a hop's flow is wanted. Kept
    /// verbatim (its paths carry no `edges`) as the oracle for
    /// `matches_the_rescanning_reference`.
    mod reference {
        use super::super::FlowPath;
        use crate::subgraph::Explanation;
        use orex_graph::NodeId;
        use std::collections::{HashMap, HashSet};

        pub fn top_paths(explanation: &Explanation, k: usize) -> Vec<FlowPath> {
            let mut masked: HashSet<(u32, u32)> = HashSet::new();
            let mut out = Vec::new();
            for _ in 0..k {
                match widest_path(explanation, &masked) {
                    Some(path) => {
                        // Mask the bottleneck edge so the next path diverges.
                        if let Some(b) = bottleneck_edge(explanation, &path) {
                            masked.insert(b);
                        } else {
                            out.push(path);
                            break;
                        }
                        out.push(path);
                    }
                    None => break,
                }
            }
            out
        }

        fn bottleneck_edge(explanation: &Explanation, path: &FlowPath) -> Option<(u32, u32)> {
            let mut best: Option<((u32, u32), f64)> = None;
            for pair in path.nodes.windows(2) {
                let flow = edge_flow(explanation, pair[0], pair[1])?;
                if best.is_none_or(|(_, f)| flow < f) {
                    best = Some(((pair[0].raw(), pair[1].raw()), flow));
                }
            }
            best.map(|(e, _)| e)
        }

        fn edge_flow(explanation: &Explanation, src: NodeId, dst: NodeId) -> Option<f64> {
            explanation
                .out_edges(src)
                .filter(|e| e.target == dst)
                .map(|e| e.adjusted_flow)
                .reduce(f64::max)
        }

        /// Max-bottleneck Dijkstra from all base-set nodes to the target,
        /// ignoring `masked` edges.
        fn widest_path(
            explanation: &Explanation,
            masked: &HashSet<(u32, u32)>,
        ) -> Option<FlowPath> {
            // width[n] = best bottleneck achievable from any source to n.
            let mut width: HashMap<u32, f64> = HashMap::new();
            let mut parent: HashMap<u32, u32> = HashMap::new();
            // Local helper type for total-ordered f64 keys in the heap.
            #[derive(PartialEq)]
            struct Width(f64);
            impl Eq for Width {}
            impl Ord for Width {
                fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                    self.0.total_cmp(&other.0)
                }
            }
            impl PartialOrd for Width {
                fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                    Some(self.cmp(other))
                }
            }

            let mut heap: std::collections::BinaryHeap<(Width, u32)> = Default::default();
            let target = explanation.target().raw();
            for node in explanation.nodes() {
                // The target may itself be in the base set; it is still the path
                // *destination*, never a path start (a zero-length path explains
                // nothing), so it is not seeded.
                if explanation.is_source(node) && node.raw() != target {
                    width.insert(node.raw(), f64::INFINITY);
                    heap.push((Width(f64::INFINITY), node.raw()));
                }
            }
            while let Some((Width(w), u)) = heap.pop() {
                if width.get(&u).copied().unwrap_or(0.0) > w {
                    continue; // stale entry
                }
                if u == target && w.is_finite() {
                    // Reconstruct.
                    let mut nodes = vec![NodeId::new(u)];
                    let mut cur = u;
                    while let Some(&p) = parent.get(&cur) {
                        nodes.push(NodeId::new(p));
                        cur = p;
                    }
                    nodes.reverse();
                    let mut total = 0.0;
                    for pair in nodes.windows(2) {
                        total += edge_flow(explanation, pair[0], pair[1]).unwrap_or(0.0);
                    }
                    return Some(FlowPath {
                        nodes,
                        edges: Vec::new(),
                        bottleneck: w,
                        total_flow: total,
                    });
                }
                for e in explanation.out_edges(NodeId::new(u)) {
                    if masked.contains(&(e.source.raw(), e.target.raw())) {
                        continue;
                    }
                    if e.adjusted_flow <= 0.0 {
                        continue;
                    }
                    let cand = w.min(e.adjusted_flow);
                    let entry = width.entry(e.target.raw()).or_insert(0.0);
                    if cand > *entry {
                        *entry = cand;
                        parent.insert(e.target.raw(), u);
                        heap.push((Width(cand), e.target.raw()));
                    }
                }
            }
            None
        }
    }

    use crate::subgraph::tests::{random_case, random_explanation};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Same paths, bit for bit, as the rescanning reference, for
        /// every `k` from none to more than there are paths; and every
        /// path's `edges` are the hops the reference's readers used to
        /// rediscover.
        #[test]
        fn matches_the_rescanning_reference(case in random_case()) {
            let Some((_, _, expl)) = random_explanation(&case) else {
                return Ok(());
            };
            let all = top_paths(&expl, 64);
            prop_assert!(all.len() < 64, "64 is past the number of paths");
            for k in [0, 1, 2, 3, 5, 8, 64] {
                let got = top_paths(&expl, k);
                let want = reference::top_paths(&expl, k);
                prop_assert_eq!(got.len(), want.len());
                prop_assert_eq!(&got[..], &all[..got.len()], "a smaller k yields a prefix");
                for (g, w) in got.iter().zip(&want) {
                    prop_assert_eq!(&g.nodes, &w.nodes);
                    prop_assert_eq!(g.bottleneck.to_bits(), w.bottleneck.to_bits());
                    prop_assert_eq!(g.total_flow.to_bits(), w.total_flow.to_bits());
                }
            }
            let edges = expl.edges();
            for path in &all {
                prop_assert_eq!(path.edges.len(), path.nodes.len() - 1);
                for (pair, &e) in path.nodes.windows(2).zip(&path.edges) {
                    prop_assert_eq!((edges[e].source, edges[e].target), (pair[0], pair[1]));
                    let strongest = (0..edges.len())
                        .filter(|&i| (edges[i].source, edges[i].target) == (pair[0], pair[1]))
                        .max_by(|&a, &b| edges[a].adjusted_flow.total_cmp(&edges[b].adjusted_flow));
                    prop_assert_eq!(Some(e), strongest);
                }
                let flows = path.edges.iter().map(|&e| edges[e].adjusted_flow);
                let min = flows.clone().fold(f64::INFINITY, f64::min);
                let sum = flows.fold(0.0, |acc, f| acc + f);
                prop_assert_eq!(path.bottleneck.to_bits(), min.to_bits());
                prop_assert_eq!(path.total_flow.to_bits(), sum.to_bits());
            }
        }
    }
}
