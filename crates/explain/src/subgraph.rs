//! Explaining-subgraph construction and flow adjustment (Section 4).
//!
//! Given a converged ObjectRank2 execution and a *target object* `v`, the
//! explaining subgraph `G_v^Q` shows the user the paths along which
//! authority reached `v`. It is built in two stages (Figure 8):
//!
//! 1. **Construction**: a breadth-first search *backwards* from `v` over
//!    the authority transfer data graph measures the distance to `v` of
//!    every node within `L − 1` hops, and each other base-set node with an
//!    edge into that cone is labelled `L`; a forward search from the
//!    labelled base-set nodes then keeps each edge it meets whose head
//!    lies within `L − 1` hops of `v` — the edges that carry base-set
//!    authority to `v` within `L` hops.
//! 2. **Flow adjustment**: the "original" edge flows
//!    `Flow_0(vi -> vj) = d · alpha(vi -> vj) · r^Q(vi)` (Equation 5)
//!    over-count, because part of each node's outgoing authority leaks to
//!    nodes *outside* the subgraph. The reduction factors `h(v_k)` satisfy
//!    the fixpoint (Equation 10)
//!
//!    ```text
//!    h(v_k) = Σ_{(v_k -> v_j) ∈ G_v^Q} h(v_j) · alpha(v_k -> v_j)
//!    ```
//!
//!    with `h(v) ≡ 1` pinned at the target (its incoming flows are what we
//!    are explaining, so they are *not* adjusted). The adjusted flow of an
//!    edge is `Flow(vi -> vk) = h(v_k) · Flow_0(vi -> vk)` (Equation 7).
//!
//! Both stages walk only edges that carry authority. Construction walks
//! the transfer edges the query's rates leave live
//! ([`TransferGraph::live_edges`]), so a zero-`alpha` edge is never met
//! and no walk tests `alpha`. The fixpoint sweeps the subgraph's
//! out-adjacency, laid out as four-row slices ([`orex_graph::slices`]:
//! rows are local tails, sources local heads, classes Equation 1 class
//! ids), four sums at a time, like the power sweep.

use crate::paths::PathMemo;
use orex_graph::slices::{NO_ROW, PAD_EDGE};
use orex_graph::{Csr, InSlices, NodeId, TransferGraph, TransferRates};
use std::fmt;

/// Parameters for explanation generation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExplainParams {
    /// Radius `L` of the subgraph: maximum path length from any node to
    /// the target. The paper finds `L = 3` "adequate to effectively
    /// explain a result" (Section 4); longer paths are unintuitive and
    /// carry little authority.
    pub radius: usize,
    /// Damping factor `d` of the ObjectRank2 run being explained
    /// (Equation 5 scales every original flow by it).
    pub damping: f64,
    /// L∞ convergence threshold of the `h` fixpoint. The default matches
    /// the paper's operational convergence threshold (0.002, Section 6.2),
    /// which yields the 4–11 iteration counts of Table 3; tighten it when
    /// exact flows are needed.
    pub epsilon: f64,
    /// Iteration cap for the `h` fixpoint.
    pub max_iterations: usize,
}

impl Default for ExplainParams {
    fn default() -> Self {
        Self {
            radius: 3,
            damping: 0.85,
            epsilon: 0.002,
            max_iterations: 500,
        }
    }
}

/// Errors raised during explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExplainError {
    /// The target node id is outside the graph.
    TargetOutOfRange(NodeId),
    /// No authority reaches the target from the base set within the
    /// radius: there is nothing to explain (the target's score is pure
    /// random-jump mass or came from outside the radius).
    TargetUnreachable(NodeId),
}

impl fmt::Display for ExplainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExplainError::TargetOutOfRange(v) => write!(f, "target {v} out of range"),
            ExplainError::TargetUnreachable(v) => {
                write!(
                    f,
                    "no base-set authority reaches target {v} within the radius"
                )
            }
        }
    }
}

impl std::error::Error for ExplainError {}

/// One edge of the explaining subgraph with its original and adjusted
/// authority flows.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExplainEdge {
    /// Transfer-edge index in the underlying [`TransferGraph`].
    pub transfer_edge: usize,
    /// Source node (global id).
    pub source: NodeId,
    /// Target node (global id).
    pub target: NodeId,
    /// `alpha` of the edge (Equation 1).
    pub alpha: f64,
    /// `Flow_0` per Equation 5.
    pub original_flow: f64,
    /// `Flow` per Equation 7 — the authority that traverses this edge
    /// *and eventually reaches the target*.
    pub adjusted_flow: f64,
}

/// Adjacency over local node indices, with the index into
/// `Explanation::edges` of every CSR slot. Within a node's row the slots
/// are in ascending edge order.
type Adjacency = (Csr, Vec<u32>);

/// `(neighbour's local index, index into edges)` per slot of a row.
fn row(adj: &Adjacency, local: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    adj.0
        .neighbors(local)
        .map(|(neighbour, slot)| (neighbour as usize, adj.1[slot] as usize))
}

/// `(head's local index, index into edges)` per slot of a tail's row of
/// the out-slices, in ascending edge order.
fn out_row(out: &InSlices, local: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    out.lane(local)
        .map(|slot| (out.sources()[slot] as usize, out.edges()[slot] as usize))
}

/// The indices of the set bits of `words`, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(i, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                i * 64 + bit
            })
        })
    })
}

/// The explaining subgraph `G_v^Q` of a target object.
///
/// Dense arrays throughout, no hash maps: a node's *local index* is its
/// position in the ascending `node_ids` (found by binary search), every
/// per-node array is indexed by it, and adjacency is over it: four-row
/// slices out of each node, CSR into each node.
#[derive(Clone, Debug)]
pub struct Explanation {
    target: NodeId,
    /// Global node ids, ascending.
    node_ids: Vec<u32>,
    /// Per local node: BFS distance (edges) to the target.
    dist_to_target: Vec<u32>,
    /// Per local node: whether it is in the query base set.
    is_source: Vec<bool>,
    /// Per local node: reduction factor `h` (1.0 at the target).
    h: Vec<f64>,
    /// In ascending transfer-edge order.
    edges: Vec<ExplainEdge>,
    /// Outgoing edges per local node, as four-row slices: rows are tails,
    /// sources heads, edge indices index `edges`, classes are Equation 1
    /// class ids.
    out_adj: InSlices,
    /// Incoming edges per local node.
    in_adj: Adjacency,
    /// Fixpoint iterations performed.
    iterations: usize,
    /// Whether the fixpoint met the threshold.
    converged: bool,
    /// Wall time of the construction stage.
    construction_time: std::time::Duration,
    /// Wall time of the flow-adjustment stage.
    adjustment_time: std::time::Duration,
    /// The widest paths [`crate::top_paths`] found so far.
    paths: PathMemo,
}

impl Explanation {
    /// Builds the explaining subgraph for `target`.
    ///
    /// `rates` are the authority transfer rates of the executed query, so
    /// an edge's `alpha` is its Equation 1 class's
    /// ([`TransferGraph::class_alpha`]); `scores` its converged
    /// ObjectRank2 vector `r^Q`; `base_nodes` the nodes of its base set
    /// ([`orex_authority::BaseSet::nodes`]), in any order. Construction
    /// reads only which nodes are in the base set, not their weights.
    pub fn explain(
        graph: &TransferGraph,
        rates: &TransferRates,
        scores: &[f64],
        base_nodes: impl IntoIterator<Item = u32>,
        target: NodeId,
        params: &ExplainParams,
    ) -> Result<Self, ExplainError> {
        assert_eq!(scores.len(), graph.node_count());
        if target.index() >= graph.node_count() {
            return Err(ExplainError::TargetOutOfRange(target));
        }
        let trace = orex_telemetry::tracer();
        let mut explain_span = trace.span("explain.run");
        if explain_span.is_recording() {
            explain_span.attr_u64("target", u64::from(target.raw()));
            explain_span.attr_u64("radius", params.radius as u64);
        }
        let mut construct_span = trace.span("explain.construct");
        let construction_start = std::time::Instant::now();

        // --- Construction stage, backward pass -------------------------
        // BFS from the target over the *incoming* edges the rates leave
        // live, so every edge met carries authority. dist[u] = hops from u
        // to target (sentinel u32::MAX): on the paper's full-scale graphs
        // (Table 1) radius-3 subgraphs of hub targets touch millions of
        // edges, and hashing dominated the construction stage. The search
        // walks each node's lane of the live in-slices.
        //
        // The search expands depths 0..L−1 only, labelling every node
        // within L − 1 hops. Construction reads a node's distance only if
        // the node is a base-set node (a source, at any distance ≤ L) or
        // the head of a kept edge (distance < L), so of the nodes exactly
        // L hops away only the base-set ones need a label. They are
        // labelled below from their own out-edges: expanding the last
        // level would scan the in-edges of most of a radius-L cone.
        let mut class_alpha = graph.class_alpha(rates);
        let live = graph.live_edges(&class_alpha);
        let edge_class = graph.edge_classes();
        let n_global = graph.node_count();
        let radius = params.radius as u32;
        let mut dist = vec![u32::MAX; n_global];
        dist[target.index()] = 0;
        let mut frontier = vec![target.raw()];
        let slices = live.in_slices();
        let in_source = slices.sources();
        for depth in 0..radius.saturating_sub(1) {
            let mut next = Vec::new();
            for &w in &frontier {
                for slot in slices.lane(w as usize) {
                    let u = in_source[slot];
                    if dist[u as usize] == u32::MAX {
                        dist[u as usize] = depth + 1;
                        next.push(u);
                    }
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }

        // --- Construction stage, forward pass ---------------------------
        // The sources are the base-set nodes within L hops. A still
        // unlabelled one is exactly L hops away iff one of its own live
        // out-edges reaches a node within L − 1 hops (one nearer would
        // have labelled it already). At L = 0 no node lies within L − 1
        // hops, so none is labelled.
        //
        // Then the search runs from the sources inside the backward cone.
        // A live edge u -> w can carry authority to the target within L
        // hops iff dist[w] < L; the search keeps every such edge out of
        // every node it reaches, in an |E|-bit set: each node is reached
        // once, so each edge is met once, from its only tail, and reading
        // the set word by word yields the kept edges in ascending order
        // without a sort. `found` lists each reached node once. It is
        // exactly the node set: a reached base-set node other than the
        // target owns an edge into the cone, and every other reached node
        // is the head of a kept edge.
        const FOUND: u8 = 1;
        const SOURCE: u8 = 2;
        let mut state = vec![0u8; n_global];
        let mut found: Vec<u32> = Vec::new();
        for n in base_nodes {
            if dist[n as usize] == u32::MAX
                && live
                    .out_transfer(NodeId::new(n))
                    .any(|(w, _)| dist[w.index()] < radius)
            {
                dist[n as usize] = radius;
            }
            if dist[n as usize] != u32::MAX && state[n as usize] == 0 {
                state[n as usize] = SOURCE;
                found.push(n);
            }
        }
        let mut kept = vec![0u64; graph.transfer_edge_count().div_ceil(64)];
        let mut kept_count = 0;
        let mut cursor = 0;
        while let Some(&u) = found.get(cursor) {
            cursor += 1;
            for (w, e) in live.out_transfer(NodeId::new(u)) {
                if dist[w.index()] < radius {
                    kept[e / 64] |= 1 << (e % 64);
                    kept_count += 1;
                    if state[w.index()] == 0 {
                        state[w.index()] = FOUND;
                        found.push(w.raw());
                    }
                }
            }
        }
        if state[target.index()] == 0 {
            return Err(ExplainError::TargetUnreachable(target));
        }

        // --- Assemble local structure -----------------------------------
        let mut node_set = found;
        node_set.sort_unstable();
        let n_local = node_set.len();
        let dist_to_target: Vec<u32> = node_set.iter().map(|&n| dist[n as usize]).collect();
        let is_source: Vec<bool> = node_set
            .iter()
            .map(|&n| state[n as usize] == SOURCE)
            .collect();
        // Distances are read off; `dist` becomes the global -> local map.
        let mut local = dist;
        for (i, &n) in node_set.iter().enumerate() {
            local[n as usize] = i as u32;
        }

        let d = params.damping;
        let mut edges: Vec<ExplainEdge> = Vec::with_capacity(kept_count);
        let mut classes: Vec<u16> = Vec::with_capacity(kept_count);
        let mut tails = Vec::with_capacity(kept_count);
        let mut heads = Vec::with_capacity(kept_count);
        for e in set_bits(&kept) {
            let (src, dst) = graph.edge_endpoints(e);
            let class = edge_class[e];
            let alpha = class_alpha[usize::from(class)];
            edges.push(ExplainEdge {
                transfer_edge: e,
                source: src,
                target: dst,
                alpha,
                // Equation 5.
                original_flow: d * alpha * scores[src.index()],
                adjusted_flow: 0.0,
            });
            classes.push(class);
            tails.push(local[src.index()]);
            heads.push(local[dst.index()]);
        }
        // Each row lists its edges in ascending edge order: the slices
        // place edges in input order, and `Csr::from_edges` sorts stably.
        let pad_class = graph.class_count() as u16;
        let out_adj = InSlices::build(n_local, &heads, &tails, &classes, pad_class, |_| true);
        drop(classes);
        let in_adj = Csr::from_edges(n_local, &Vec::from_iter(heads.into_iter().zip(tails)));

        if construct_span.is_recording() {
            construct_span.attr_u64("subgraph_nodes", n_local as u64);
            construct_span.attr_u64("subgraph_edges", edges.len() as u64);
        }
        drop(construct_span);
        let construction_time = construction_start.elapsed();
        let adjustment_start = std::time::Instant::now();

        // --- Flow adjustment stage: the Equation 10 fixpoint ------------
        // Four rows per chunk advance together; every term is
        // `alpha · h(head)`, the product `h(head) · alpha` of a row-by-row
        // pull, and a padding term is `+0.0`, so each row's sum is that
        // pull's, bit for bit. δ is a max, which no order changes.
        let target_local = local[target.index()];
        class_alpha.push(0.0); // The padding class.
        let mut h = vec![1.0f64; n_local];
        let mut h_new = vec![0.0f64; n_local];
        let mut iterations = 0;
        let mut converged = false;
        for _ in 0..params.max_iterations {
            iterations += 1;
            let mut round_span = trace.span("explain.fixpoint.round");
            let mut delta: f64 = 0.0;
            for c in 0..out_adj.chunk_count() {
                let acc = out_adj.chunk_sums(c, out_adj.classes(), &class_alpha, &h);
                for (k, acc) in out_adj.chunk_rows(c).into_iter().zip(acc) {
                    if k == target_local {
                        h_new[k as usize] = 1.0;
                    } else if k != NO_ROW {
                        let k = k as usize;
                        h_new[k] = acc;
                        delta = delta.max((acc - h[k]).abs());
                    }
                }
            }
            if round_span.is_recording() {
                round_span.attr_f64("delta", delta);
            }
            drop(round_span);
            std::mem::swap(&mut h, &mut h_new);
            if delta < params.epsilon {
                converged = true;
                break;
            }
        }

        // Equation 7: adjust every edge by the reduction factor of its
        // *head*; edges into the target keep their original flow
        // (h(target) = 1).
        for (&head, &e) in out_adj.sources().iter().zip(out_adj.edges()) {
            if e != PAD_EDGE {
                let e = &mut edges[e as usize];
                e.adjusted_flow = h[head as usize] * e.original_flow;
            }
        }

        let telemetry = orex_telemetry::global();
        telemetry.counter("explain.runs").incr();
        telemetry
            .counter("explain.fixpoint_rounds")
            .add(iterations as u64);
        telemetry
            .histogram("explain.subgraph_nodes")
            .record(n_local as f64);
        telemetry
            .histogram("explain.subgraph_edges")
            .record(edges.len() as f64);
        telemetry
            .histogram("explain.construction_us")
            .record(construction_time.as_secs_f64() * 1e6);
        let adjustment_time = adjustment_start.elapsed();
        telemetry
            .histogram("explain.adjustment_us")
            .record(adjustment_time.as_secs_f64() * 1e6);
        if explain_span.is_recording() {
            explain_span.attr_u64("fixpoint_rounds", iterations as u64);
            explain_span.attr_u64("converged", u64::from(converged));
        }
        let log = orex_telemetry::logger();
        if converged {
            log.debug("explain.adjust", "flow-adjustment fixpoint converged")
        } else {
            log.warn(
                "explain.adjust",
                "flow-adjustment fixpoint hit iteration cap",
            )
        }
        .field_u64("rounds", iterations as u64)
        .field_u64("nodes", n_local as u64)
        .field_u64("edges", edges.len() as u64)
        .field_u64("target", u64::from(target.raw()))
        .emit();

        Ok(Self {
            target,
            node_ids: node_set,
            dist_to_target,
            is_source,
            h,
            edges,
            out_adj,
            in_adj,
            iterations,
            converged,
            construction_time,
            adjustment_time,
            paths: PathMemo::default(),
        })
    }

    /// Wall time of the construction stage (backward + forward BFS) —
    /// the "Explaining Subgraph Creation" bar of Figures 14–17.
    #[inline]
    pub fn construction_time(&self) -> std::time::Duration {
        self.construction_time
    }

    /// Wall time of the flow-adjustment fixpoint — the "Explaining
    /// ObjectRank2 Execution" bar of Figures 14–17.
    #[inline]
    pub fn adjustment_time(&self) -> std::time::Duration {
        self.adjustment_time
    }

    /// The explained target object.
    #[inline]
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// Number of subgraph nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_ids.len()
    }

    /// Number of subgraph edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Fixpoint iterations performed ("Explaining ObjectRank2 iterations"
    /// in Table 3 of the paper).
    #[inline]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Whether the fixpoint met the threshold.
    #[inline]
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Bytes the explanation holds on the heap: its per-node arrays, its
    /// edges, its out-slices, its in-CSR and the paths memoised so far.
    /// What a store that keeps explanations charges against its memory
    /// budget.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let (csr, slots) = &self.in_adj;
        let in_adj =
            (csr.row_offsets().len() + csr.targets().len() + slots.capacity()) * size_of::<u32>();
        self.node_ids.capacity() * size_of::<u32>()
            + self.dist_to_target.capacity() * size_of::<u32>()
            + self.is_source.capacity() * size_of::<bool>()
            + self.h.capacity() * size_of::<f64>()
            + self.edges.capacity() * size_of::<ExplainEdge>()
            + self.out_adj.heap_bytes()
            + in_adj
            + self.paths.heap_bytes()
    }

    /// The memo behind [`crate::top_paths`].
    pub(crate) fn path_memo(&self) -> &PathMemo {
        &self.paths
    }

    /// The subgraph's nodes (global ids, ascending).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids.iter().map(|&n| NodeId::new(n))
    }

    /// `(node, BFS distance to the target, outflow)` per subgraph node, in
    /// ascending node order: what [`nodes`](Self::nodes),
    /// [`distance`](Self::distance) and [`outflow`](Self::outflow) give,
    /// walked by local index instead of looked up node by node.
    pub fn nodes_with_outflow(&self) -> impl Iterator<Item = (NodeId, usize, f64)> + '_ {
        self.node_ids
            .iter()
            .zip(&self.dist_to_target)
            .enumerate()
            .map(|(i, (&node, &d))| {
                let outflow = out_row(&self.out_adj, i)
                    .map(|(_, e)| self.edges[e].adjusted_flow)
                    .sum();
                (NodeId::new(node), d as usize, outflow)
            })
    }

    /// The local index of `node`, when it is part of the subgraph.
    pub(crate) fn local(&self, node: NodeId) -> Option<usize> {
        self.node_ids.binary_search(&node.raw()).ok()
    }

    /// Whether the node at a local index belongs to the query base set.
    pub(crate) fn is_source_at(&self, local: usize) -> bool {
        self.is_source[local]
    }

    /// `(head's local index, index into edges())` per outgoing edge of
    /// the node at a local index, in ascending edge order.
    pub(crate) fn out_local(&self, local: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        out_row(&self.out_adj, local)
    }

    /// `(tail's local index, index into edges())` per incoming edge of
    /// the node at a local index, in ascending edge order.
    pub(crate) fn in_local(&self, local: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        row(&self.in_adj, local)
    }

    /// True if the node is part of the subgraph.
    pub fn contains(&self, node: NodeId) -> bool {
        self.local(node).is_some()
    }

    /// BFS distance (in edges) from `node` to the target, when present.
    pub fn distance(&self, node: NodeId) -> Option<usize> {
        self.local(node).map(|i| self.dist_to_target[i] as usize)
    }

    /// True if `node` belongs to the query base set.
    pub fn is_source(&self, node: NodeId) -> bool {
        self.local(node).is_some_and(|i| self.is_source[i])
    }

    /// The reduction factor `h` of a node, when present.
    pub fn reduction_factor(&self, node: NodeId) -> Option<f64> {
        self.local(node).map(|i| self.h[i])
    }

    /// All edges with their flows, in ascending transfer-edge order.
    pub fn edges(&self) -> &[ExplainEdge] {
        &self.edges
    }

    /// Outgoing edges of `node` within the subgraph.
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = &ExplainEdge> + '_ {
        self.local(node)
            .into_iter()
            .flat_map(|i| self.out_local(i))
            .map(|(_, e)| &self.edges[e])
    }

    /// Incoming edges of `node` within the subgraph.
    pub fn in_edges(&self, node: NodeId) -> impl Iterator<Item = &ExplainEdge> + '_ {
        self.local(node)
            .into_iter()
            .flat_map(|i| self.in_local(i))
            .map(|(_, e)| &self.edges[e])
    }

    /// Sum of adjusted outgoing flows of a node — the `O(v_k)` of
    /// Equation 6b, which content-based reformulation uses as the node's
    /// contribution weight.
    pub fn outflow(&self, node: NodeId) -> f64 {
        self.out_edges(node).map(|e| e.adjusted_flow).sum()
    }

    /// Sum of adjusted incoming flows of a node (`I(v_k)`, Equation 6a).
    pub fn inflow(&self, node: NodeId) -> f64 {
        self.in_edges(node).map(|e| e.adjusted_flow).sum()
    }

    /// Total adjusted authority arriving at the target — what the
    /// explanation explains.
    pub fn target_inflow(&self) -> f64 {
        self.inflow(self.target)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use orex_authority::{power_iteration, BaseSet, RankParams, TransitionMatrix};
    use orex_graph::{DataGraph, DataGraphBuilder, SchemaGraph, TransferRates, TransferTypeId};
    use proptest::prelude::*;

    /// The arguments of [`random_explanation`] as one proptest strategy.
    pub(crate) fn random_case() -> impl Strategy<Value = RandomCase> {
        (
            (2usize..10, 1usize..3),
            proptest::collection::vec((0u32..64, 0u32..64, 0u8..3), 1..40),
            proptest::collection::vec(0u32..64, 1..24),
            (0u32..64, 0u8..2),
        )
    }

    /// `((papers, authors), edge rolls, base-set rolls, (target roll,
    /// rates roll))`.
    pub(crate) type RandomCase = ((usize, usize), Vec<(u32, u32, u8)>, Vec<u32>, (u32, u8));

    /// One explanation on a random schema-conformant graph, with the
    /// graph's node count and the base set; `None` when the roll's target
    /// is unreachable.
    pub(crate) fn random_explanation(case: &RandomCase) -> Option<(usize, BaseSet, Explanation)> {
        let (g, rates, base, target) = random_graph(case);
        let (_, _, _, base, explanation) =
            run(&g, &rates, &base, target, &ExplainParams::default());
        Some((g.node_count(), base, explanation.ok()?))
    }

    /// The graph, rates, base-set nodes and target of a [`RandomCase`].
    ///
    /// Papers cite and extend papers — two edge types over one pair of
    /// node types, so an ordered pair of papers can carry parallel edges
    /// of different types, and a repeated roll adds parallel edges of one
    /// type, whose flows are exactly equal — and papers have authors.
    /// Every type transfers both ways, so cycles are everywhere. An even
    /// rates roll gives `cites` and `extends` the same rates (equal flows
    /// across types wherever the out-degrees agree); every fourth target
    /// roll puts the target inside the base set.
    fn random_graph(
        ((papers, authors), edge_rolls, base_rolls, (target_roll, rates_roll)): &RandomCase,
    ) -> (DataGraph, TransferRates, Vec<u32>, u32) {
        let mut schema = SchemaGraph::new();
        let p = schema.add_node_type("Paper").unwrap();
        let a = schema.add_node_type("Author").unwrap();
        let cites = schema.add_edge_type(p, p, "cites").unwrap();
        let extends = schema.add_edge_type(p, p, "extends").unwrap();
        let by = schema.add_edge_type(p, a, "by").unwrap();
        let mut b = DataGraphBuilder::new(schema);
        let paper: Vec<_> = (0..*papers)
            .map(|_| b.add_node(p, vec![]).unwrap())
            .collect();
        let author: Vec<_> = (0..*authors)
            .map(|_| b.add_node(a, vec![]).unwrap())
            .collect();
        for &(s, t, ty) in edge_rolls {
            let s = paper[s as usize % papers];
            match ty {
                0 => b.add_edge(s, paper[t as usize % papers], cites),
                1 => b.add_edge(s, paper[t as usize % papers], extends),
                _ => b.add_edge(s, author[t as usize % authors], by),
            }
            .unwrap();
        }
        let g = b.freeze();
        let mut rates = TransferRates::zero(g.schema());
        let (cites_f, extends_f, cites_b, extends_b) = if rates_roll % 2 == 0 {
            (0.25, 0.25, 0.1, 0.1)
        } else {
            (0.3, 0.15, 0.05, 0.15)
        };
        for (tt, rate) in [
            (TransferTypeId::forward(cites), cites_f),
            (TransferTypeId::forward(extends), extends_f),
            (TransferTypeId::backward(cites), cites_b),
            (TransferTypeId::backward(extends), extends_b),
            (TransferTypeId::forward(by), 0.2),
            (TransferTypeId::backward(by), 0.5),
        ] {
            rates.set(tt, rate).unwrap();
        }
        rates.validate(g.schema()).unwrap();
        let n = g.node_count();
        let base: Vec<u32> = base_rolls.iter().map(|&r| r % n as u32).collect();
        let target = if target_roll % 4 == 0 {
            base[0]
        } else {
            target_roll % n as u32
        };
        (g, rates, base, target)
    }

    /// Chain with a side branch:
    ///   s(0) -> a(1) -> t(2),  a(1) -> x(3)   [x outside any path to t]
    /// Base set = {s}. Target = t.
    fn chain_graph() -> (DataGraph, TransferRates) {
        let mut schema = SchemaGraph::new();
        let p = schema.add_node_type("P").unwrap();
        let r = schema.add_edge_type(p, p, "r").unwrap();
        let mut b = DataGraphBuilder::new(schema);
        let n: Vec<_> = (0..4).map(|_| b.add_node(p, vec![]).unwrap()).collect();
        b.add_edge(n[0], n[1], r).unwrap();
        b.add_edge(n[1], n[2], r).unwrap();
        b.add_edge(n[1], n[3], r).unwrap();
        let g = b.freeze();
        let mut rates = TransferRates::zero(g.schema());
        rates.set(TransferTypeId::forward(r), 0.8).unwrap();
        (g, rates)
    }

    fn run(
        g: &DataGraph,
        rates: &TransferRates,
        base_nodes: &[u32],
        target: u32,
        params: &ExplainParams,
    ) -> (
        TransferGraph,
        Vec<f64>,
        Vec<f64>,
        BaseSet,
        Result<Explanation, ExplainError>,
    ) {
        let tg = TransferGraph::build(g);
        let weights = tg.weights(rates);
        let m = TransitionMatrix::new(&tg, rates);
        let base = BaseSet::uniform(base_nodes.iter().copied()).unwrap();
        let rank = power_iteration(
            &m,
            &base,
            &RankParams {
                epsilon: 1e-14,
                max_iterations: 5000,
                damping: params.damping,
                threads: 1,
            },
            None,
        );
        let expl = Explanation::explain(
            &tg,
            rates,
            &rank.scores,
            base.nodes(),
            NodeId::new(target),
            params,
        );
        (tg, weights, rank.scores, base, expl)
    }

    #[test]
    fn construction_excludes_non_contributing_nodes() {
        let (g, rates) = chain_graph();
        let (_, _, _, _, expl) = run(&g, &rates, &[0], 2, &ExplainParams::default());
        let expl = expl.unwrap();
        // x (node 3) carries no authority to t: excluded.
        assert!(expl.contains(NodeId::new(0)));
        assert!(expl.contains(NodeId::new(1)));
        assert!(expl.contains(NodeId::new(2)));
        assert!(!expl.contains(NodeId::new(3)));
        assert_eq!(expl.edge_count(), 2);
    }

    #[test]
    fn distances_measured_to_target() {
        let (g, rates) = chain_graph();
        let (_, _, _, _, expl) = run(&g, &rates, &[0], 2, &ExplainParams::default());
        let expl = expl.unwrap();
        assert_eq!(expl.distance(NodeId::new(2)), Some(0));
        assert_eq!(expl.distance(NodeId::new(1)), Some(1));
        assert_eq!(expl.distance(NodeId::new(0)), Some(2));
        assert_eq!(expl.distance(NodeId::new(3)), None);
    }

    #[test]
    fn radius_limits_subgraph() {
        let (g, rates) = chain_graph();
        let params = ExplainParams {
            radius: 1,
            ..ExplainParams::default()
        };
        // With L = 1 only a -> t remains, but the base set {s} cannot
        // reach it: unreachable.
        let (_, _, _, _, expl) = run(&g, &rates, &[0], 2, &params);
        assert!(matches!(expl, Err(ExplainError::TargetUnreachable(_))));
        // With the base set at a it works.
        let (_, _, _, _, expl) = run(&g, &rates, &[1], 2, &params);
        let expl = expl.unwrap();
        assert_eq!(expl.node_count(), 2);
        assert_eq!(expl.edge_count(), 1);
    }

    #[test]
    fn unreachable_target_is_an_error() {
        let (g, rates) = chain_graph();
        // Base set = {x}: no path x -> t exists with forward-only rates.
        let (_, _, _, _, expl) = run(&g, &rates, &[3], 2, &ExplainParams::default());
        assert!(matches!(expl, Err(ExplainError::TargetUnreachable(_))));
    }

    #[test]
    fn out_of_range_target() {
        let (g, rates) = chain_graph();
        let (_, _, _, _, expl) = run(&g, &rates, &[0], 99, &ExplainParams::default());
        assert!(matches!(expl, Err(ExplainError::TargetOutOfRange(_))));
    }

    #[test]
    fn edges_into_target_keep_original_flow() {
        let (g, rates) = chain_graph();
        let (_, _, _, _, expl) = run(&g, &rates, &[0], 2, &ExplainParams::default());
        let expl = expl.unwrap();
        for e in expl.in_edges(NodeId::new(2)) {
            assert!(
                (e.adjusted_flow - e.original_flow).abs() < 1e-12,
                "target inflow must be unadjusted"
            );
        }
        assert!((expl.reduction_factor(NodeId::new(2)).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn leak_reduces_upstream_flow() {
        let (g, rates) = chain_graph();
        let (_, _, _, _, expl) = run(&g, &rates, &[0], 2, &ExplainParams::default());
        let expl = expl.unwrap();
        // a (node 1) splits its 0.8 rate between t and x: alpha = 0.4
        // each. Half of a's outgoing flow leaks to x, so h(a) = 0.4 and
        // the flow s -> a is scaled by 0.4.
        let h_a = expl.reduction_factor(NodeId::new(1)).unwrap();
        assert!((h_a - 0.4).abs() < 1e-9, "h(a) = {h_a}");
        let sa = expl
            .out_edges(NodeId::new(0))
            .next()
            .expect("edge s -> a present");
        assert!((sa.adjusted_flow - 0.4 * sa.original_flow).abs() < 1e-12);
    }

    #[test]
    fn equation5_defines_original_flows() {
        let (g, rates) = chain_graph();
        let params = ExplainParams::default();
        let (tg, weights, scores, _, expl) = run(&g, &rates, &[0], 2, &params);
        let expl = expl.unwrap();
        for e in expl.edges() {
            let expect = params.damping * weights[e.transfer_edge] * scores[e.source.index()];
            assert!((e.original_flow - expect).abs() < 1e-12);
        }
        let _ = tg;
    }

    #[test]
    fn flow_conservation_at_interior_nodes() {
        // At convergence, for every non-target node with h computed by
        // Equation 10, adjusted outflow O(v) = h(v) * d * r(v) * (sum of
        // alphas) ... the invariant the paper states is
        // I(v) / O(v) = r'(v)/..; we check the operational form:
        // O(v) = h(v) * (original outflow), since every out-edge of v is
        // scaled by its head's h and Eq. 10 makes the h-weighted alpha sum
        // equal h(v).
        let (g, rates) = chain_graph();
        let (_, _, scores, _, expl) = run(&g, &rates, &[0], 2, &ExplainParams::default());
        let expl = expl.unwrap();
        let d = 0.85;
        for node in [NodeId::new(0), NodeId::new(1)] {
            let h = expl.reduction_factor(node).unwrap();
            let outflow = expl.outflow(node);
            let expect = h * d * scores[node.index()];
            assert!(
                (outflow - expect).abs() < 1e-9,
                "node {node}: O = {outflow}, h*d*r = {expect}"
            );
        }
    }

    #[test]
    fn cycle_graph_converges() {
        // s -> a <-> b -> t: a cycle a <-> b must not break the fixpoint
        // (the naive single-pass proportional reduction fails here).
        let mut schema = SchemaGraph::new();
        let p = schema.add_node_type("P").unwrap();
        let r = schema.add_edge_type(p, p, "r").unwrap();
        let mut b = DataGraphBuilder::new(schema);
        let n: Vec<_> = (0..4).map(|_| b.add_node(p, vec![]).unwrap()).collect();
        b.add_edge(n[0], n[1], r).unwrap(); // s -> a
        b.add_edge(n[1], n[2], r).unwrap(); // a -> b
        b.add_edge(n[2], n[1], r).unwrap(); // b -> a
        b.add_edge(n[2], n[3], r).unwrap(); // b -> t
        let g = b.freeze();
        let mut rates = TransferRates::zero(g.schema());
        rates.set(TransferTypeId::forward(r), 0.8).unwrap();
        let params = ExplainParams {
            epsilon: 1e-12,
            ..ExplainParams::default()
        };
        let (_, _, _, _, expl) = run(&g, &rates, &[0], 3, &params);
        let expl = expl.unwrap();
        assert!(expl.converged());
        assert!(expl.iterations() > 1, "cycles need iteration");
        // h(b): outgoing to a (h_a * 0.4) + to t (1 * 0.4);
        // h(a): outgoing to b only: h_b * 0.8 -- solve:
        // h_a = 0.8 h_b; h_b = 0.4 h_a + 0.4 => h_b = 0.32 h_b + 0.4
        // => h_b = 0.4/0.68.
        let hb = expl.reduction_factor(NodeId::new(2)).unwrap();
        assert!((hb - 0.4 / 0.68).abs() < 1e-6, "h(b) = {hb}");
        let ha = expl.reduction_factor(NodeId::new(1)).unwrap();
        assert!((ha - 0.8 * hb).abs() < 1e-6);
    }

    #[test]
    fn target_inflow_positive_and_bounded() {
        let (g, rates) = chain_graph();
        let (_, _, scores, _, expl) = run(&g, &rates, &[0], 2, &ExplainParams::default());
        let expl = expl.unwrap();
        let inflow = expl.target_inflow();
        assert!(inflow > 0.0);
        // The target's score is inflow + (1-d)*s_target; here s_t = 0,
        // so inflow equals the target's score exactly.
        assert!((inflow - scores[2]).abs() < 1e-9);
    }

    #[test]
    fn source_marking() {
        let (g, rates) = chain_graph();
        let (_, _, _, _, expl) = run(&g, &rates, &[0], 2, &ExplainParams::default());
        let expl = expl.unwrap();
        assert!(expl.is_source(NodeId::new(0)));
        assert!(!expl.is_source(NodeId::new(1)));
    }

    /// `s(0) -q-> a(1) -r-> t(2)` and `y(3) -r-> a(1)`: at radius 2, `s`
    /// and `y` are both exactly `L` hops from `t`. `r` transfers at 0.8
    /// and `q` at `q_rate`.
    fn two_hop_graph(q_rate: f64) -> (DataGraph, TransferRates) {
        let mut schema = SchemaGraph::new();
        let p = schema.add_node_type("P").unwrap();
        let q = schema.add_edge_type(p, p, "q").unwrap();
        let r = schema.add_edge_type(p, p, "r").unwrap();
        let mut b = DataGraphBuilder::new(schema);
        let n: Vec<_> = (0..4).map(|_| b.add_node(p, vec![]).unwrap()).collect();
        b.add_edge(n[0], n[1], q).unwrap();
        b.add_edge(n[1], n[2], r).unwrap();
        b.add_edge(n[3], n[1], r).unwrap();
        let g = b.freeze();
        let mut rates = TransferRates::zero(g.schema());
        rates.set(TransferTypeId::forward(q), q_rate).unwrap();
        rates.set(TransferTypeId::forward(r), 0.8).unwrap();
        (g, rates)
    }

    fn radius_2() -> ExplainParams {
        ExplainParams {
            radius: 2,
            ..ExplainParams::default()
        }
    }

    #[test]
    fn a_base_node_exactly_l_hops_away_is_a_source() {
        let (g, rates) = two_hop_graph(0.5);
        let (tg, _, _, _, expl) = run(&g, &rates, &[0], 2, &radius_2());
        let expl = expl.unwrap();
        assert!(expl.is_source(NodeId::new(0)));
        assert_eq!(expl.distance(NodeId::new(0)), Some(2));
        let kept: Vec<_> = expl.out_edges(NodeId::new(0)).collect();
        assert_eq!(kept.len(), 1);
        assert_eq!(
            tg.edge_endpoints(kept[0].transfer_edge),
            (NodeId::new(0), NodeId::new(1))
        );
    }

    #[test]
    fn a_base_node_whose_only_hop_has_zero_alpha_is_not_a_source() {
        let (g, rates) = two_hop_graph(0.0);
        let (_, _, _, _, expl) = run(&g, &rates, &[0, 1], 2, &radius_2());
        let expl = expl.unwrap();
        assert!(!expl.contains(NodeId::new(0)));
        assert_eq!(expl.distance(NodeId::new(1)), Some(1));
        let (_, _, _, _, expl) = run(&g, &rates, &[0], 2, &radius_2());
        assert_eq!(
            expl.err(),
            Some(ExplainError::TargetUnreachable(NodeId::new(2)))
        );
    }

    #[test]
    fn a_non_base_node_exactly_l_hops_away_is_left_out() {
        let (g, rates) = two_hop_graph(0.5);
        let (_, _, _, _, expl) = run(&g, &rates, &[0], 2, &radius_2());
        let expl = expl.unwrap();
        assert!(!expl.contains(NodeId::new(3)));
        assert_eq!(expl.node_count(), 3);
        assert_eq!(expl.edge_count(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every lookup agrees with a naive scan of `nodes()` and
        /// `edges()`, for ids inside the subgraph, outside it, and past
        /// the end of the graph.
        #[test]
        fn lookups_agree_with_a_naive_scan(case in random_case()) {
            let Some((n, base, expl)) = random_explanation(&case) else {
                return Ok(());
            };
            let nodes: Vec<NodeId> = expl.nodes().collect();
            prop_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "ascending, distinct");
            prop_assert!(expl.edges().windows(2).all(|w| w[0].transfer_edge < w[1].transfer_edge));
            // Backward BFS from the target over `edges()`.
            let mut dist = vec![(expl.target(), 0usize)];
            let mut next = 0;
            while let Some(&(w, d)) = dist.get(next) {
                next += 1;
                for e in expl.edges().iter().filter(|e| e.target == w) {
                    if dist.iter().all(|&(seen, _)| seen != e.source) {
                        dist.push((e.source, d + 1));
                    }
                }
            }
            for id in (0..n as u32 + 3).chain([u32::MAX]) {
                let node = NodeId::new(id);
                let present = nodes.contains(&node);
                prop_assert_eq!(expl.contains(node), present);
                prop_assert_eq!(
                    expl.distance(node),
                    dist.iter().find(|&&(seen, _)| seen == node).map(|&(_, d)| d)
                );
                prop_assert_eq!(expl.distance(node).is_some(), present);
                prop_assert_eq!(expl.is_source(node), present && base.contains(id));
                prop_assert_eq!(expl.reduction_factor(node).is_some(), present);
                let ids = |edges: Vec<&ExplainEdge>| -> Vec<usize> {
                    edges.iter().map(|e| e.transfer_edge).collect()
                };
                prop_assert_eq!(
                    ids(expl.out_edges(node).collect()),
                    ids(expl.edges().iter().filter(|e| e.source == node).collect())
                );
                prop_assert_eq!(
                    ids(expl.in_edges(node).collect()),
                    ids(expl.edges().iter().filter(|e| e.target == node).collect())
                );
            }
            // The per-local-index walk is the per-node lookups, bit for bit.
            let walked: Vec<(NodeId, usize, u64)> = expl
                .nodes_with_outflow()
                .map(|(node, d, outflow)| (node, d, outflow.to_bits()))
                .collect();
            let looked_up: Vec<(NodeId, usize, u64)> = nodes
                .iter()
                .map(|&node| (node, expl.distance(node).unwrap(), expl.outflow(node).to_bits()))
                .collect();
            prop_assert_eq!(walked, looked_up);
            // Equation 7 ties every edge's flows to its head's factor.
            prop_assert_eq!(expl.reduction_factor(expl.target()), Some(1.0));
            for e in expl.edges() {
                let h = expl.reduction_factor(e.target).unwrap();
                prop_assert_eq!((h * e.original_flow).to_bits(), e.adjusted_flow.to_bits());
            }
        }

        /// `explain`, reading alpha from the class table, is bit-identical
        /// to the candidate-list construction it replaced, reading the
        /// gathered |E| weights, at radii 0–4, with or without zero-alpha
        /// edges, and fails with the same variant where that fails.
        #[test]
        fn matches_the_candidate_list_reference(
            case in random_case(),
            radius in 0usize..5,
            zero_extends_back in any::<bool>(),
        ) {
            let (g, mut rates, base_nodes, target) = random_graph(&case);
            if zero_extends_back {
                let extends = orex_graph::EdgeTypeId::new(1);
                rates.set(TransferTypeId::backward(extends), 0.0).unwrap();
            }
            let params = ExplainParams { radius, ..ExplainParams::default() };
            let (tg, weights, scores, base, _) = run(&g, &rates, &base_nodes, target, &params);
            let out_of_range = NodeId::new(tg.node_count() as u32 + target % 3);
            for target in [NodeId::new(target), out_of_range] {
                let got = Explanation::explain(&tg, &rates, &scores, base.nodes(), target, &params);
                let want = reference::explain(&tg, &weights, &scores, &base, target, &params);
                match (got, want) {
                    (Ok(got), Ok(want)) => {
                        prop_assert_eq!(&got.node_ids, &want.node_ids);
                        prop_assert_eq!(&got.dist_to_target, &want.dist_to_target);
                        prop_assert_eq!(&got.is_source, &want.is_source);
                        let bits = |h: &[f64]| h.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        prop_assert_eq!(bits(&got.h), bits(&want.h));
                        prop_assert_eq!(got.edges.len(), want.edges.len());
                        for (a, b) in got.edges.iter().zip(&want.edges) {
                            prop_assert_eq!(
                                (a.transfer_edge, a.source, a.target),
                                (b.transfer_edge, b.source, b.target)
                            );
                            prop_assert_eq!(
                                bits(&[a.alpha, a.original_flow, a.adjusted_flow]),
                                bits(&[b.alpha, b.original_flow, b.adjusted_flow])
                            );
                        }
                        for k in 0..want.node_ids.len() {
                            prop_assert!(got.out_local(k).eq(row(&want.out_adj, k)));
                        }
                        let (a, b) = (&got.in_adj, &want.in_adj);
                        prop_assert_eq!(a.0.row_offsets(), b.0.row_offsets());
                        prop_assert_eq!(a.0.targets(), b.0.targets());
                        prop_assert_eq!(&a.1, &b.1);
                        prop_assert_eq!(got.iterations, want.iterations);
                        prop_assert_eq!(got.converged, want.converged);
                    }
                    (got, want) => prop_assert_eq!(got.err(), want.err()),
                }
            }
        }
    }

    /// `Explanation::explain` as it stood before construction dropped its
    /// candidate list: the backward BFS collects every `(source, edge)`
    /// it expands, the forward DFS binary-searches the sorted list per
    /// node, and the assembly binary-searches the node set per edge. Kept
    /// verbatim apart from its spans, metrics, log line and stage timers
    /// as the oracle for `matches_the_candidate_list_reference`; it
    /// returns its fields rather than an `Explanation`, whose
    /// out-adjacency is slices where the oracle's is a CSR.
    mod reference {
        use super::super::*;
        use orex_authority::BaseSet;

        pub struct Explanation {
            pub node_ids: Vec<u32>,
            pub dist_to_target: Vec<u32>,
            pub is_source: Vec<bool>,
            pub h: Vec<f64>,
            pub edges: Vec<ExplainEdge>,
            pub out_adj: Adjacency,
            pub in_adj: Adjacency,
            pub iterations: usize,
            pub converged: bool,
        }

        pub fn explain(
            graph: &TransferGraph,
            weights: &[f64],
            scores: &[f64],
            base: &BaseSet,
            target: NodeId,
            params: &ExplainParams,
        ) -> Result<Explanation, ExplainError> {
            assert_eq!(weights.len(), graph.transfer_edge_count());
            assert_eq!(scores.len(), graph.node_count());
            if target.index() >= graph.node_count() {
                return Err(ExplainError::TargetOutOfRange(target));
            }
            let n_global = graph.node_count();
            let mut dist = vec![u32::MAX; n_global];
            dist[target.index()] = 0;
            let mut frontier = vec![target.raw()];
            let mut candidates: Vec<(u32, u32)> = Vec::new(); // (src, edge)
            for depth in 0..params.radius as u32 {
                let mut next = Vec::new();
                for &w in &frontier {
                    for (u, e) in graph.in_transfer(NodeId::new(w)) {
                        if weights[e] <= 0.0 {
                            continue;
                        }
                        candidates.push((u.raw(), e as u32));
                        if dist[u.index()] == u32::MAX {
                            dist[u.index()] = depth + 1;
                            next.push(u.raw());
                        }
                    }
                }
                frontier = next;
                if frontier.is_empty() {
                    break;
                }
            }

            candidates.sort_unstable();
            let mut reachable = vec![false; n_global];
            let mut stack: Vec<u32> = base
                .nodes()
                .filter(|&n| dist[n as usize] != u32::MAX)
                .collect();
            for &n in &stack {
                reachable[n as usize] = true;
            }
            let mut kept_edges: Vec<usize> = Vec::new();
            while let Some(u) = stack.pop() {
                let start = candidates.partition_point(|&(s, _)| s < u);
                for &(s, e) in &candidates[start..] {
                    if s != u {
                        break;
                    }
                    kept_edges.push(e as usize);
                    let (_, w) = graph.edge_endpoints(e as usize);
                    if !reachable[w.index()] {
                        reachable[w.index()] = true;
                        stack.push(w.raw());
                    }
                }
            }
            kept_edges.sort_unstable();
            kept_edges.dedup();
            if !reachable[target.index()] {
                return Err(ExplainError::TargetUnreachable(target));
            }

            let mut node_set: Vec<u32> = kept_edges
                .iter()
                .flat_map(|&e| {
                    let (s, t) = graph.edge_endpoints(e);
                    [s.raw(), t.raw()]
                })
                .chain(std::iter::once(target.raw()))
                .collect();
            node_set.sort_unstable();
            node_set.dedup();
            let n_local = node_set.len();
            let local = |id: NodeId| node_set.partition_point(|&n| n < id.raw());
            let dist_to_target: Vec<u32> = node_set.iter().map(|&n| dist[n as usize]).collect();
            let is_source: Vec<bool> = node_set.iter().map(|&n| base.contains(n)).collect();

            let d = params.damping;
            let mut edges: Vec<ExplainEdge> = kept_edges
                .iter()
                .map(|&e| {
                    let (src, dst) = graph.edge_endpoints(e);
                    let alpha = weights[e];
                    ExplainEdge {
                        transfer_edge: e,
                        source: src,
                        target: dst,
                        alpha,
                        original_flow: d * alpha * scores[src.index()],
                        adjusted_flow: 0.0,
                    }
                })
                .collect();
            let mut endpoints: Vec<(u32, u32)> = edges
                .iter()
                .map(|e| (local(e.source) as u32, local(e.target) as u32))
                .collect();
            let out_adj = Csr::from_edges(n_local, &endpoints);
            for pair in &mut endpoints {
                *pair = (pair.1, pair.0);
            }
            let in_adj = Csr::from_edges(n_local, &endpoints);

            let target_local = local(target);
            let mut h = vec![1.0f64; n_local];
            let mut h_new = vec![0.0f64; n_local];
            let mut iterations = 0;
            let mut converged = false;
            for _ in 0..params.max_iterations {
                iterations += 1;
                let mut delta: f64 = 0.0;
                for k in 0..n_local {
                    if k == target_local {
                        h_new[k] = 1.0;
                        continue;
                    }
                    let mut acc = 0.0;
                    for (head, e) in row(&out_adj, k) {
                        acc += h[head] * edges[e].alpha;
                    }
                    h_new[k] = acc;
                    delta = delta.max((acc - h[k]).abs());
                }
                std::mem::swap(&mut h, &mut h_new);
                if delta < params.epsilon {
                    converged = true;
                    break;
                }
            }

            for (&head, &e) in out_adj.0.targets().iter().zip(&out_adj.1) {
                let e = &mut edges[e as usize];
                e.adjusted_flow = h[head as usize] * e.original_flow;
            }

            Ok(Explanation {
                node_ids: node_set,
                dist_to_target,
                is_source,
                h,
                edges,
                out_adj,
                in_adj,
                iterations,
                converged,
            })
        }
    }
}
