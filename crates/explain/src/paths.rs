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
//! The k searches of one call share a *source frontier*. Every search
//! starts at all base-set nodes with width +∞, which can never improve,
//! so popping them leaves each other node with its widest unmasked
//! in-edge from the base set — a function of the masked hops alone. That
//! frontier is computed once per call, and a mask changes it only when
//! the masked hop leaves a base-set node, and then only at that hop's
//! head. Each search starts from it, so a search costs what it explores
//! beyond the base set, not the base set's size, and finds the same path
//! bit for bit as one that seeds and pops every base-set node.
//!
//! A path names the edge that carries each hop ([`FlowPath::edges`]), so
//! its readers look the hop up instead of rescanning the parallel edges
//! between its nodes.
//!
//! An explanation keeps the longest list asked of it so far. The searches
//! run in sequence, each masking what the ones before it found, so the
//! list for `k` is a prefix of the list for any larger `k`: a summary and
//! the reformulation that reads the same explanation share one search.

use crate::subgraph::Explanation;
use orex_graph::NodeId;
use std::collections::BinaryHeap;
use std::mem::size_of;
use std::sync::{Mutex, MutexGuard, PoisonError};

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
///
/// The explanation memoises the longest list asked for so far and
/// answers any `k` it covers from it; a memoised list shorter than the
/// `k` it was searched for holds every path there is and answers every
/// `k`. Only a search records into `explain.top_paths_us`; an answer
/// from the memo counts in `explain.top_paths_reused`.
pub fn top_paths(explanation: &Explanation, k: usize) -> Vec<FlowPath> {
    let mut memo = explanation.path_memo().lock();
    if k > memo.0 && memo.1.len() == memo.0 {
        let mut span = orex_telemetry::tracer().span("explain.top_paths");
        let _timer = orex_telemetry::global().span("explain.top_paths_us");
        let paths: Vec<FlowPath> = match Searches::new(explanation) {
            Some(mut searches) => std::iter::from_fn(|| searches.widest_path())
                .take(k)
                .collect(),
            None => Vec::new(),
        };
        if span.is_recording() {
            span.attr_u64("k", k as u64);
            span.attr_u64("paths", paths.len() as u64);
        }
        *memo = (k, paths);
    } else {
        orex_telemetry::global()
            .counter("explain.top_paths_reused")
            .incr();
    }
    memo.1[..k.min(memo.1.len())].to_vec()
}

/// The memo [`top_paths`] keeps in an [`Explanation`]: `(k, paths)` for
/// the largest `k` searched so far.
#[derive(Debug, Default)]
pub(crate) struct PathMemo(Mutex<(usize, Vec<FlowPath>)>);

impl Clone for PathMemo {
    fn clone(&self) -> Self {
        Self(Mutex::new(self.lock().clone()))
    }
}

impl PathMemo {
    /// The memo is replaced whole, so a poisoned lock still guards a
    /// consistent pair.
    fn lock(&self) -> MutexGuard<'_, (usize, Vec<FlowPath>)> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Bytes the memoised paths hold on the heap.
    pub(crate) fn heap_bytes(&self) -> usize {
        let memo = self.lock();
        let paths = &memo.1;
        paths.capacity() * size_of::<FlowPath>()
            + paths
                .iter()
                .map(|p| {
                    p.nodes.capacity() * size_of::<NodeId>()
                        + p.edges.capacity() * size_of::<usize>()
                })
                .sum::<usize>()
    }
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

const NO_PARENT: u32 = u32::MAX;

/// What the k searches of one [`top_paths`] call share.
struct Searches<'a> {
    explanation: &'a Explanation,
    /// The target's local index.
    target: usize,
    /// Per local node: whether searches start there. The target may
    /// itself be in the base set; it is still the path *destination*,
    /// never a path start (a zero-length path explains nothing), so it is
    /// not seeded.
    seeded: Vec<bool>,
    /// Per edge: masked by an earlier path.
    masked: Vec<bool>,
    /// The source frontier: `width` and `parent` as popping every seeded
    /// node leaves them. A seeded node has +∞ and no parent; any other
    /// node has the flow and tail of its widest unmasked in-edge from a
    /// seeded node, or 0 and no parent without one.
    frontier_width: Vec<f64>,
    frontier_parent: Vec<u32>,
    /// One search's tables, refilled from the frontier by every search:
    /// `width[n]` is the best bottleneck found from any seeded node to `n`.
    width: Vec<f64>,
    parent: Vec<u32>,
}

impl<'a> Searches<'a> {
    fn new(explanation: &'a Explanation) -> Option<Self> {
        let n = explanation.node_count();
        let target = explanation.local(explanation.target())?;
        let mut searches = Self {
            explanation,
            target,
            seeded: (0..n)
                .map(|v| v != target && explanation.is_source_at(v))
                .collect(),
            masked: vec![false; explanation.edge_count()],
            // Every seeded node is at +∞ before any entry is computed, so
            // an edge between two of them never gives one a parent.
            frontier_width: vec![f64::INFINITY; n],
            frontier_parent: vec![NO_PARENT; n],
            width: vec![0.0; n],
            parent: vec![NO_PARENT; n],
        };
        for v in 0..n {
            if !searches.seeded[v] {
                searches.refresh_frontier(v);
            }
        }
        Some(searches)
    }

    /// Recomputes the frontier entry of the unseeded node `v`. Of equally
    /// wide in-edges the one whose tail has the larger local index wins:
    /// the max-heap pops that tail first, and only a strictly wider
    /// candidate replaces a parent.
    fn refresh_frontier(&mut self, v: usize) {
        let edges = self.explanation.edges();
        let (mut width, mut parent) = (0.0, NO_PARENT);
        for (u, e) in self.explanation.in_local(v) {
            let (flow, u) = (edges[e].adjusted_flow, u as u32);
            let wider = flow > width || (flow == width && u > parent);
            if wider && flow > 0.0 && self.seeded[u as usize] && !self.masked[e] {
                (width, parent) = (flow, u);
            }
        }
        self.frontier_width[v] = width;
        self.frontier_parent[v] = parent;
    }

    /// Max-bottleneck Dijkstra from the seeded nodes to the target,
    /// ignoring masked edges. The found path's bottleneck hop is masked
    /// before returning, so the next search diverges from it.
    fn widest_path(&mut self) -> Option<FlowPath> {
        let explanation = self.explanation;
        let edges = explanation.edges();
        let flow = |e: usize| edges[e].adjusted_flow;
        let target = self.target;
        let (width, parent, masked) = (&mut self.width, &mut self.parent, &mut self.masked);
        // Start where popping every seeded node leaves the search: at the
        // frontier, with the nodes it reaches on the heap. Local order is
        // global id order, so ties on width pop by node id.
        width.copy_from_slice(&self.frontier_width);
        parent.copy_from_slice(&self.frontier_parent);
        let reached: Vec<(Width, u32)> = (0..width.len())
            .filter(|&v| parent[v] != NO_PARENT)
            .map(|v| (Width(width[v]), v as u32))
            .collect();
        let mut heap = BinaryHeap::from(reached);
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
        let tail = explanation.local(weakest.source)?;
        for (_, e) in explanation.out_local(tail) {
            masked[e] |= edges[e].target == weakest.target;
        }
        let path = FlowPath {
            nodes,
            bottleneck: width[target],
            total_flow: hops.iter().fold(0.0, |total, &e| total + flow(e)),
            edges: hops,
        };
        // Only a hop out of a seeded node is part of the frontier, and
        // masking it can change no entry but its head's.
        if self.seeded[tail] {
            self.refresh_frontier(explanation.local(weakest.target)?);
        }
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subgraph::{ExplainParams, Explanation};
    use orex_authority::{power_iteration, BaseSet, RankParams, TransitionMatrix};
    use orex_graph::{DataGraphBuilder, SchemaGraph, TransferGraph, TransferRates, TransferTypeId};

    /// The explanation of `target` on a one-type graph of `nodes` nodes
    /// with the given edges, each transferring 0.8 forward and nothing
    /// back, under a uniform base set.
    fn explain_edges(nodes: u32, edges: &[(u32, u32)], base: &[u32], target: u32) -> Explanation {
        let mut schema = SchemaGraph::new();
        let p = schema.add_node_type("P").unwrap();
        let r = schema.add_edge_type(p, p, "r").unwrap();
        let mut bld = DataGraphBuilder::new(schema);
        let n: Vec<_> = (0..nodes)
            .map(|_| bld.add_node(p, vec![]).unwrap())
            .collect();
        for &(s, t) in edges {
            bld.add_edge(n[s as usize], n[t as usize], r).unwrap();
        }
        let g = bld.freeze();
        let mut rates = TransferRates::zero(g.schema());
        rates.set(TransferTypeId::forward(r), 0.8).unwrap();
        let tg = TransferGraph::build(&g);
        let base = BaseSet::uniform(base.iter().copied()).unwrap();
        let params = RankParams {
            epsilon: 1e-14,
            max_iterations: 5000,
            threads: 1,
            ..RankParams::default()
        };
        let rank = power_iteration(&TransitionMatrix::new(&tg, &rates), &base, &params, None);
        Explanation::explain(
            &tg,
            &rates,
            &rank.scores,
            base.nodes(),
            NodeId::new(target),
            &ExplainParams::default(),
        )
        .unwrap()
    }

    /// Diamond: s(0) -> a(1) -> t(3) and s -> b(2) -> t, where b leaks
    /// half its flow to x(4), and y(5) -> t is never reached.
    const DIAMOND: [(u32, u32); 6] = [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (5, 3)];

    fn explanation() -> Explanation {
        explain_edges(6, &DIAMOND, &[0], 3)
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
    fn heap_bytes_count_the_memoised_paths() {
        let expl = explanation();
        let bare = expl.heap_bytes();
        let paths = top_paths(&expl, 3);
        assert!(!paths.is_empty());
        assert!(expl.heap_bytes() > bare);
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
        let expl = explain_edges(6, &DIAMOND, &[0, 3], 3); // target 3 in base set
        let paths = top_paths(&expl, 3);
        assert!(!paths.is_empty(), "paths from node 0 must be found");
        assert!(!paths[0].is_empty());
        assert_eq!(*paths[0].nodes.last().unwrap(), expl.target());
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

    /// The node ids of the first `k` paths, after checking those paths
    /// against the rescanning reference bit for bit.
    fn paths_checked_against_reference(expl: &Explanation, k: usize) -> Vec<Vec<u32>> {
        let got = top_paths(expl, k);
        let want = reference::top_paths(expl, k);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.nodes, w.nodes);
            assert_eq!(g.bottleneck.to_bits(), w.bottleneck.to_bits());
            assert_eq!(g.total_flow.to_bits(), w.total_flow.to_bits());
        }
        got.iter()
            .map(|p| p.nodes.iter().map(|n| n.raw()).collect())
            .collect()
    }

    #[test]
    fn equally_wide_source_edges_go_to_the_larger_local_index() {
        // Sources 0 and 1 have the same score and one out-edge each, so
        // 0 -> 2 and 1 -> 2 carry bit-equal flows; either is the bottleneck
        // of its path (2 -> 3 carries both sources' authority).
        let expl = explain_edges(4, &[(0, 2), (1, 2), (2, 3)], &[0, 1], 3);
        let [a, b] = [0, 1].map(|s| expl.out_edges(NodeId::new(s)).next().unwrap());
        assert_eq!(a.adjusted_flow.to_bits(), b.adjusted_flow.to_bits());
        assert_eq!(
            paths_checked_against_reference(&expl, 8),
            vec![vec![1, 2, 3], vec![0, 2, 3]]
        );
    }

    #[test]
    fn masking_a_source_hop_falls_back_to_the_heads_next_source_edge() {
        // Source 0 leaks half its authority to 4, which cannot reach the
        // target, so 0 -> 2 is weaker than 1 -> 2; 1 -> 2 is the first
        // path's bottleneck, and once it is masked node 2 must be reached
        // over 0 -> 2.
        let expl = explain_edges(5, &[(0, 2), (0, 4), (1, 2), (2, 3)], &[0, 1], 3);
        let flow = |s: u32| expl.out_edges(NodeId::new(s)).next().unwrap().adjusted_flow;
        assert!(flow(0) < flow(1));
        let paths = top_paths(&expl, 1);
        assert_eq!(paths[0].bottleneck.to_bits(), flow(1).to_bits());
        assert_eq!(
            paths_checked_against_reference(&expl, 8),
            vec![vec![1, 2, 3], vec![0, 2, 3]]
        );
    }

    #[test]
    fn a_target_in_the_base_set_is_patched_like_any_head() {
        // The target 2 is a base-set node and the head of both source
        // hops; masking the stronger one leaves the weaker one.
        let expl = explain_edges(4, &[(0, 2), (0, 3), (1, 2)], &[0, 1, 2], 2);
        assert!(expl.is_source(NodeId::new(2)));
        assert_eq!(
            paths_checked_against_reference(&expl, 8),
            vec![vec![1, 2], vec![0, 2]]
        );
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

        /// A memoised explanation answers as a fresh one does: a smaller
        /// `k` gets a prefix of what a larger one searched, and widening
        /// the memo finds what a freshly built twin finds.
        #[test]
        fn memoised_paths_answer_like_a_fresh_search(case in random_case()) {
            let Some((_, _, expl)) = random_explanation(&case) else {
                return Ok(());
            };
            let eight = top_paths(&expl, 8);
            prop_assert_eq!(&top_paths(&expl, 3)[..], &eight[..eight.len().min(3)]);
            let (_, _, twin) = random_explanation(&case).expect("built once already");
            prop_assert_eq!(top_paths(&expl, 12), top_paths(&twin, 12));
        }
    }
}
