//! The power-iteration engine behind every ranking in the paper
//! (Equation 4):
//!
//! ```text
//! r = d · A · r + (1 - d) · s
//! ```
//!
//! where `A[i][j] = alpha(e)` for transfer edges `e = (v_j -> v_i)`, `d` is
//! the damping factor, and `s` is the (normalized) base-set vector. The
//! engine is *pull-based*: each node gathers from its in-neighbors, so
//! iterations parallelize over disjoint output ranges with no write
//! contention and bitwise-deterministic results for any thread count.
//!
//! The sweep reads `alpha` through Equation 1's class table: each in-slot
//! carries a `u16` class id ([`orex_graph::InSlices::classes`]), and a
//! matrix is that id array plus `class_alpha`, one f64 per class (a few
//! hundred, so the table stays in L1) and a trailing `0.0` for the
//! padding class. A slot's term is `class_alpha[class[s]] * r[src]`, the
//! same product as a gathered per-edge `alpha` array would give, so no
//! process keeps or builds one.
//!
//! A matrix built from rates sweeps only the edges those rates leave
//! live ([`orex_graph::TransferGraph::live_edges`]): a class whose
//! `alpha` is `0.0` adds `+0.0` to every sum it touches, so its edges get
//! no slot. The paper's DBLP rates zero PP-back, which leaves out 35 % of
//! `dblp-top:1.0`'s slots. A matrix from arbitrary edge weights sweeps
//! every edge.
//!
//! The sweep walks the live in-adjacency as four-row slices
//! ([`orex_graph::slices`]): a chunk of four rows of similar in-degree,
//! stored step-major, so one pass over the chunk advances four
//! independent sums, `[f64; 4]`, instead of one serial chain of adds per
//! row ([`orex_graph::InSlices::chunk_sums`]). Each row's slots are in
//! ascending edge order and its padding and dropped terms are `+0.0`, so
//! every sum is bit-identical to a row-by-row pull over all in-edges in
//! ascending edge order, on any thread count.
//! Windows of 4,096 rows are the unit of thread partitioning: threads
//! claim contiguous window runs balanced by **slot** count rather than
//! row count, which keeps skewed in-degree distributions (DBLP's
//! papers-vs-years) from serializing on one unlucky worker.

use crate::base_set::BaseSet;
use orex_graph::slices::{NO_ROW, PAD_EDGE, WINDOW_ROWS};
use orex_graph::{class_id, class_table, InSlices, LiveEdges, TransferGraph, TransferRates};
use orex_telemetry::{logger, Counter, Gauge, HistogramHandle, Level, RateLimit};
use std::ops::Range;
use std::sync::OnceLock;

/// Log target of the power-iteration engine.
const LOG_TARGET: &str = "authority.power";

/// The per-iteration residual is logged (at `Level::Trace`) at most once
/// every this many iterations, so turning residual logging on cannot
/// flood the ring on large graphs.
const RESIDUAL_LOG_EVERY: u64 = 32;

/// Pre-resolved handles for the per-iteration metrics: the power loop is
/// the system's hottest path, so it must not pay the registry's RwLock
/// read + string hash on every iteration. Resolved once per process from
/// the global recorder.
struct PowerMetrics {
    iter_us: HistogramHandle,
    runs: Counter,
    iterations: Counter,
    converged: Counter,
    last_residual: Gauge,
}

fn power_metrics() -> &'static PowerMetrics {
    static METRICS: OnceLock<PowerMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let t = orex_telemetry::global();
        PowerMetrics {
            iter_us: t.histogram("authority.power.iteration_us"),
            runs: t.counter("authority.power.runs"),
            iterations: t.counter("authority.power.iterations"),
            converged: t.counter("authority.power.converged"),
            last_residual: t.gauge("authority.power.last_residual"),
        }
    })
}

/// Parameters of a power-iteration run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RankParams {
    /// Damping factor `d` (the paper uses 0.85; `1 - d` is the random-jump
    /// probability).
    pub damping: f64,
    /// Convergence threshold on the L1 residual `Σ|r_new - r_old|`.
    /// The paper's performance experiments use 0.002 (Section 6.2).
    pub epsilon: f64,
    /// Iteration cap; the run reports `converged = false` when hit.
    pub max_iterations: usize,
    /// Worker threads; 0 selects automatically (1 for small graphs).
    pub threads: usize,
}

impl Default for RankParams {
    fn default() -> Self {
        Self {
            damping: 0.85,
            epsilon: 0.002,
            max_iterations: 200,
            threads: 0,
        }
    }
}

/// Outcome of a power-iteration run.
#[derive(Clone, Debug)]
pub struct RankResult {
    /// The score vector `r` at termination (one entry per node).
    pub scores: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the L1 residual dropped below `epsilon`.
    pub converged: bool,
    /// L1 residual after each iteration (for convergence plots).
    pub residuals: Vec<f64>,
}

/// The transition structure `d`-independent part of Equation 4: the
/// transfer edges a sweep visits, a class id per in-slot and each class's
/// `alpha` under one rates vector.
///
/// The class ids are the layout's own ([`orex_graph::InSlices::classes`]);
/// only [`Self::from_edge_weights`] owns a class array. Building a matrix
/// from rates costs the class table, a few hundred multiplies, and a
/// lookup of the layout its dead classes select.
pub struct TransitionMatrix<'g> {
    edges: LiveEdges<'g>,
    /// `alpha` (Equation 1) per class, then `0.0` for the padding class.
    class_alpha: Vec<f64>,
    /// The class of each in-slot, when it is not the layout's own.
    slot_class: Option<Vec<u16>>,
}

impl<'g> TransitionMatrix<'g> {
    /// Builds the matrix for a rates vector: the graph's class table under
    /// `rates` ([`TransferGraph::class_alpha`]) read through the in-slot
    /// class ids of the edges it leaves live.
    pub fn new(graph: &'g TransferGraph, rates: &TransferRates) -> Self {
        let mut class_alpha = graph.class_alpha(rates);
        let edges = graph.live_edges(&class_alpha);
        // The padding class, id `graph.class_count()`.
        class_alpha.push(0.0);
        Self {
            edges,
            class_alpha,
            slot_class: None,
        }
    }

    /// Builds the matrix from precomputed per-edge weights (edge-indexed)
    /// over every transfer edge: each distinct f64 bit pattern becomes one
    /// class, so every slot reads back exactly its edge's weight. Each
    /// edge gets its class id once, in edge order ([`class_by_bits`]), and
    /// the ids are gathered into slot order.
    ///
    /// # Panics
    /// Panics if `edge_weights` does not have one entry per transfer edge,
    /// or holds more than [`orex_graph::MAX_CLASSES`] distinct values.
    pub fn from_edge_weights(graph: &'g TransferGraph, edge_weights: Vec<f64>) -> Self {
        assert_eq!(
            edge_weights.len(),
            graph.transfer_edge_count(),
            "edge weight vector length mismatch"
        );
        let (table, edge_class) = class_by_bits(&edge_weights);
        drop(edge_weights);
        let pad_class = table.len() as u16;
        let edges = graph.all_edges();
        let slot_class = edges
            .in_slices()
            .edges()
            .iter()
            .map(|&e| match e {
                PAD_EDGE => pad_class,
                e => edge_class[e as usize],
            })
            .collect();
        let mut class_alpha: Vec<f64> = table.into_iter().map(f64::from_bits).collect();
        class_alpha.push(0.0);
        Self {
            edges,
            class_alpha,
            slot_class: Some(slot_class),
        }
    }

    /// The in-adjacency the sweep walks.
    #[inline]
    fn slices(&self) -> &InSlices {
        self.edges.in_slices()
    }

    /// The class of each in-slot.
    #[inline]
    fn slot_classes(&self) -> &[u16] {
        match &self.slot_class {
            Some(owned) => owned,
            None => self.slices().classes(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.graph().node_count()
    }

    /// The underlying transfer graph.
    #[inline]
    pub fn graph(&self) -> &'g TransferGraph {
        self.edges.graph()
    }

    /// Computes `out[i] = damping * Σ_{j -> i} alpha(j -> i) * r[j] + add[i]`
    /// for `i` in `rows`, writing into `out` (which must be the slice for
    /// exactly those rows). `alpha(j -> i)` is its slot's class `alpha`.
    /// `rows` must be window-aligned (it comes from [`Self::thread_ranges`]).
    fn pull_rows(&self, r: &[f64], out: &mut [f64], rows: Range<usize>, damping: f64, add: &[f64]) {
        let slices = self.slices();
        let (alpha, classes) = (&self.class_alpha[..], self.slot_classes());
        for c in slices.chunks_of(rows.clone()) {
            let acc = slices.chunk_sums(c, classes, alpha, r);
            for (row, acc) in slices.chunk_rows(c).into_iter().zip(acc) {
                if row != NO_ROW {
                    let row = row as usize;
                    out[row - rows.start] = damping * acc + add[row];
                }
            }
        }
    }

    /// Splits the row space into at most `threads` contiguous,
    /// window-aligned ranges with balanced **slot** counts. Row-count
    /// chunking is what it replaces: on skewed in-degree distributions a
    /// uniform row split leaves one thread holding most of the edges.
    fn thread_ranges(&self, threads: usize) -> Vec<Range<usize>> {
        let n = self.node_count();
        if threads <= 1 || n == 0 {
            return std::iter::once(0..n).collect();
        }
        let slices = self.slices();
        let target = slices.slot_count().div_ceil(threads).max(1);
        let mut ranges = Vec::with_capacity(threads);
        let mut row_start = 0usize;
        for window_end in (WINDOW_ROWS..n).step_by(WINDOW_ROWS).chain([n]) {
            if ranges.len() + 1 == threads {
                break;
            }
            if slices.slots_of(row_start..window_end).len() >= target {
                ranges.push(row_start..window_end);
                row_start = window_end;
            }
        }
        if row_start < n || ranges.is_empty() {
            ranges.push(row_start..n);
        }
        ranges
    }

    /// One full iteration `r_new = d·A·r + add` across the configured
    /// thread ranges (single-threaded when only one range exists).
    fn sweep(
        &self,
        r: &[f64],
        r_new: &mut [f64],
        damping: f64,
        add: &[f64],
        ranges: &[Range<usize>],
    ) {
        if ranges.len() <= 1 {
            self.pull_rows(r, r_new, 0..self.node_count(), damping, add);
            return;
        }
        std::thread::scope(|scope| {
            let mut rest: &mut [f64] = r_new;
            for range in ranges {
                let (head, tail) = rest.split_at_mut(range.len());
                rest = tail;
                let range = range.clone();
                scope.spawn(move || self.pull_rows(r, head, range, damping, add));
            }
        });
    }
}

/// Classes weights by bit pattern: the distinct patterns, ascending (a
/// [`class_table`]), and each weight's class id. A direct-mapped memo of
/// recently seen patterns skips most repeats, so the table is sorted from
/// a few hundred candidates rather than from every weight, and only a
/// memo miss binary-searches it.
fn class_by_bits(weights: &[f64]) -> (Vec<u64>, Vec<u16>) {
    const MEMO_SLOTS: usize = 1 << 10;
    let slot = |bits: u64| (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54) as usize;
    let mut seen: Vec<Option<u64>> = vec![None; MEMO_SLOTS];
    let mut candidates = Vec::new();
    for bits in weights.iter().map(|w| w.to_bits()) {
        let memo = &mut seen[slot(bits)];
        if *memo != Some(bits) {
            *memo = Some(bits);
            candidates.push(bits);
        }
    }
    let table = class_table(candidates, "distinct edge weights");
    let mut ids: Vec<Option<(u64, u16)>> = vec![None; MEMO_SLOTS];
    let edge_class = weights
        .iter()
        .map(|w| {
            let bits = w.to_bits();
            let memo = &mut ids[slot(bits)];
            match *memo {
                Some((seen, id)) if seen == bits => id,
                _ => {
                    let id = class_id(&table, &bits);
                    *memo = Some((bits, id));
                    id
                }
            }
        })
        .collect();
    (table, edge_class)
}

fn resolve_threads(requested: usize, n: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if n < 50_000 {
        return 1;
    }
    std::thread::available_parallelism()
        .map(|p| p.get().min(16))
        .unwrap_or(1)
}

/// The starting vector of [`power_iteration`]: the warm start when it
/// carries positive, finite mass, else the base-set dense vector.
fn initial_vector(base: &BaseSet, n: usize, warm_start: Option<&[f64]>) -> Vec<f64> {
    match warm_start {
        Some(w) => {
            assert_eq!(w.len(), n, "warm-start vector length mismatch");
            // Use the previous scores verbatim: the fixpoint of Equation 4
            // generally sums to less than 1 (authority leaks at nodes whose
            // outgoing rates sum below 1), so renormalizing would move a
            // perfect warm start *away* from the fixpoint.
            let sum: f64 = w.iter().sum();
            if sum > 0.0 && sum.is_finite() {
                logger()
                    .info(LOG_TARGET, "warm start reused")
                    .field_u64("nodes", n as u64)
                    .field_f64("mass", sum)
                    .emit();
                w.to_vec()
            } else {
                logger()
                    .warn(LOG_TARGET, "warm start rejected, falling back to base set")
                    .field_f64("mass", sum)
                    .emit();
                base.to_dense(n)
            }
        }
        None => base.to_dense(n),
    }
}

/// Runs Equation 4 to convergence.
///
/// `warm_start` seeds the iteration with a previous score vector — the
/// Section 6.2 optimization ("Manipulating Initial ObjectRank values"):
/// the initial query starts from global ObjectRank scores, reformulated
/// queries from the previous query's scores, which Figures 14(b)–17(b)
/// show cuts the iteration count sharply. Without it the iteration starts
/// from the base-set vector itself.
pub fn power_iteration(
    matrix: &TransitionMatrix<'_>,
    base: &BaseSet,
    params: &RankParams,
    warm_start: Option<&[f64]>,
) -> RankResult {
    let n = matrix.node_count();
    assert!(n > 0, "empty graph");
    assert!(
        (0.0..1.0).contains(&params.damping),
        "damping must be in [0, 1)"
    );
    let d = params.damping;
    let mut jump = base.to_dense(n);
    for p in &mut jump {
        *p *= 1.0 - d;
    }

    let mut r = initial_vector(base, n, warm_start);
    let mut r_new = vec![0.0; n];

    let threads = resolve_threads(params.threads, n);
    let ranges = matrix.thread_ranges(threads);
    let mut residuals = Vec::new();
    let mut converged = false;
    let mut iterations = 0;

    let metrics = power_metrics();
    let iter_us = &metrics.iter_us;
    let tracer = orex_telemetry::tracer();
    let mut run_span = tracer.span("authority.power");
    if run_span.is_recording() {
        run_span.attr_u64("nodes", n as u64);
        run_span.attr_u64("warm_start", u64::from(warm_start.is_some()));
    }

    for _ in 0..params.max_iterations {
        iterations += 1;
        let mut iter_span = tracer.span("authority.power.iteration");
        let iter_start = iter_us.is_recording().then(std::time::Instant::now);
        matrix.sweep(&r, &mut r_new, d, &jump, &ranges);
        let residual: f64 = r_new.iter().zip(&r).map(|(&a, &b)| (a - b).abs()).sum();
        residuals.push(residual);
        if let Some(start) = iter_start {
            iter_us.record(start.elapsed().as_secs_f64() * 1e6);
        }
        if iter_span.is_recording() {
            iter_span.attr_f64("residual", residual);
            let active = r_new.iter().filter(|&&v| v > 0.0).count();
            iter_span.attr_u64("active_nodes", active as u64);
        }
        // Rate-limited so even OREX_LOG=trace stays bounded on the
        // hottest loop in the system.
        static RESIDUAL_LOG: RateLimit = RateLimit::new();
        if logger().enabled(Level::Trace, LOG_TARGET) && RESIDUAL_LOG.admit(RESIDUAL_LOG_EVERY) {
            logger()
                .trace(LOG_TARGET, "residual")
                .field_u64("iteration", iterations as u64)
                .field_f64("residual", residual)
                .emit();
        }
        drop(iter_span);
        std::mem::swap(&mut r, &mut r_new);
        if residual < params.epsilon {
            converged = true;
            break;
        }
    }

    metrics.runs.incr();
    metrics.iterations.add(iterations as u64);
    if converged {
        metrics.converged.incr();
    }
    let last_residual = residuals.last().copied().unwrap_or(0.0);
    metrics.last_residual.set(last_residual);
    if run_span.is_recording() {
        run_span.attr_u64("iterations", iterations as u64);
        run_span.attr_u64("converged", u64::from(converged));
    }
    if converged {
        logger()
            .info(LOG_TARGET, "converged")
            .field_u64("iterations", iterations as u64)
            .field_u64("nodes", n as u64)
            .field_f64("residual", last_residual)
            .field_bool("warm_start", warm_start.is_some())
            .emit();
    } else {
        logger()
            .warn(LOG_TARGET, "did not converge within iteration cap")
            .field_u64("iterations", iterations as u64)
            .field_u64("nodes", n as u64)
            .field_f64("residual", last_residual)
            .field_f64("epsilon", params.epsilon)
            .emit();
    }

    RankResult {
        scores: r,
        iterations,
        converged,
        residuals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orex_graph::{DataGraphBuilder, SchemaGraph, TransferGraph, TransferRates, TransferTypeId};

    /// A 4-node "cites" chain 0 -> 1 -> 2 -> 3 plus a back edge 3 -> 0.
    fn ring_graph() -> (TransferGraph, TransferRates) {
        let mut schema = SchemaGraph::new();
        let p = schema.add_node_type("Paper").unwrap();
        let cites = schema.add_edge_type(p, p, "cites").unwrap();
        let mut b = DataGraphBuilder::new(schema);
        let nodes: Vec<_> = (0..4).map(|_| b.add_node(p, vec![]).unwrap()).collect();
        for i in 0..4 {
            b.add_edge(nodes[i], nodes[(i + 1) % 4], cites).unwrap();
        }
        let g = b.freeze();
        let tg = TransferGraph::build(&g);
        let mut rates = TransferRates::zero(g.schema());
        rates.set(TransferTypeId::forward(cites), 0.7).unwrap();
        rates.set(TransferTypeId::backward(cites), 0.1).unwrap();
        (tg, rates)
    }

    fn tight() -> RankParams {
        RankParams {
            epsilon: 1e-12,
            max_iterations: 2000,
            ..RankParams::default()
        }
    }

    /// The reference pull, straight from the edge list: each row sums
    /// `weights[e] * r[src(e)]` over the edges into it, in ascending edge
    /// id, with no in-adjacency involved.
    fn edge_list_pull(tg: &TransferGraph, weights: &[f64], r: &[f64]) -> Vec<f64> {
        let mut acc = vec![0.0; tg.node_count()];
        for (e, w) in weights.iter().enumerate() {
            let (src, dst) = tg.edge_endpoints(e);
            acc[dst.index()] += w * r[src.index()];
        }
        acc
    }

    #[test]
    fn symmetric_ring_gives_uniform_scores() {
        let (tg, rates) = ring_graph();
        let m = TransitionMatrix::new(&tg, &rates);
        let base = BaseSet::global(4).unwrap();
        let res = power_iteration(&m, &base, &tight(), None);
        assert!(res.converged);
        for &s in &res.scores {
            assert!((s - res.scores[0]).abs() < 1e-9, "{:?}", res.scores);
        }
    }

    #[test]
    fn scores_sum_at_most_one() {
        let (tg, rates) = ring_graph();
        let m = TransitionMatrix::new(&tg, &rates);
        let base = BaseSet::uniform([0]).unwrap();
        let res = power_iteration(&m, &base, &tight(), None);
        let sum: f64 = res.scores.iter().sum();
        // Rates sum to 0.8 < 1 per node, so authority leaks: sum < 1.
        assert!(sum <= 1.0 + 1e-9);
        assert!(sum > 0.0);
    }

    #[test]
    fn base_set_node_dominates_nearby() {
        let (tg, rates) = ring_graph();
        let m = TransitionMatrix::new(&tg, &rates);
        let base = BaseSet::uniform([0]).unwrap();
        let res = power_iteration(&m, &base, &tight(), None);
        // Node 0 jumps back to itself; node 1 receives its citation flow.
        assert!(res.scores[0] > res.scores[1]);
        assert!(res.scores[1] > res.scores[2]);
    }

    #[test]
    fn fixpoint_satisfies_equation4() {
        let (tg, rates) = ring_graph();
        let m = TransitionMatrix::new(&tg, &rates);
        let base = BaseSet::weighted([(0, 3.0), (2, 1.0)]).unwrap();
        let params = tight();
        let res = power_iteration(&m, &base, &params, None);
        assert!(res.converged);
        // Verify r = d A r + (1-d) s componentwise by a manual pull.
        let pulled = edge_list_pull(&tg, &tg.weights(&rates), &res.scores);
        for (i, acc) in pulled.into_iter().enumerate() {
            let expect = params.damping * acc + (1.0 - params.damping) * base.probability(i as u32);
            assert!((res.scores[i] - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn warm_start_from_fixpoint_converges_immediately() {
        let (tg, rates) = ring_graph();
        let m = TransitionMatrix::new(&tg, &rates);
        let base = BaseSet::uniform([0, 2]).unwrap();
        let cold = power_iteration(&m, &base, &tight(), None);
        let warm = power_iteration(&m, &base, &tight(), Some(&cold.scores));
        assert!(warm.iterations <= 2, "took {}", warm.iterations);
        assert!(warm.converged);
    }

    #[test]
    fn warm_start_reduces_iterations_for_similar_query() {
        let (tg, rates) = ring_graph();
        let m = TransitionMatrix::new(&tg, &rates);
        let base1 = BaseSet::weighted([(0, 1.0), (1, 1.0)]).unwrap();
        let base2 = BaseSet::weighted([(0, 1.0), (1, 0.9)]).unwrap();
        let cold1 = power_iteration(&m, &base1, &tight(), None);
        let cold2 = power_iteration(&m, &base2, &tight(), None);
        let warm2 = power_iteration(&m, &base2, &tight(), Some(&cold1.scores));
        assert!(warm2.iterations < cold2.iterations);
        // Same fixpoint either way.
        for (a, b) in warm2.scores.iter().zip(&cold2.scores) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn degenerate_warm_start_falls_back_to_base() {
        let (tg, rates) = ring_graph();
        let m = TransitionMatrix::new(&tg, &rates);
        let base = BaseSet::uniform([0]).unwrap();
        let zeros = vec![0.0; 4];
        let res = power_iteration(&m, &base, &tight(), Some(&zeros));
        assert!(res.converged);
        assert!(res.scores[0] > 0.0);
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let (tg, rates) = ring_graph();
        let m = TransitionMatrix::new(&tg, &rates);
        let base = BaseSet::weighted([(1, 2.0), (3, 1.0)]).unwrap();
        let serial = power_iteration(
            &m,
            &base,
            &RankParams {
                threads: 1,
                ..tight()
            },
            None,
        );
        let parallel = power_iteration(
            &m,
            &base,
            &RankParams {
                threads: 3,
                ..tight()
            },
            None,
        );
        assert_eq!(serial.iterations, parallel.iterations);
        for (a, b) in serial.scores.iter().zip(&parallel.scores) {
            assert_eq!(a, b, "parallel must be bitwise deterministic");
        }
    }

    #[test]
    fn residuals_decrease() {
        let (tg, rates) = ring_graph();
        let m = TransitionMatrix::new(&tg, &rates);
        let base = BaseSet::uniform([0]).unwrap();
        let res = power_iteration(&m, &base, &tight(), None);
        for pair in res.residuals.windows(2) {
            assert!(
                pair[1] <= pair[0] * 1.01,
                "residuals not decreasing: {pair:?}"
            );
        }
    }

    #[test]
    fn max_iterations_cap_respected() {
        let (tg, rates) = ring_graph();
        let m = TransitionMatrix::new(&tg, &rates);
        let base = BaseSet::uniform([0]).unwrap();
        let res = power_iteration(
            &m,
            &base,
            &RankParams {
                epsilon: 0.0,
                max_iterations: 3,
                ..RankParams::default()
            },
            None,
        );
        assert_eq!(res.iterations, 3);
        assert!(!res.converged);
    }

    #[test]
    fn damping_zero_returns_base_set() {
        let (tg, rates) = ring_graph();
        let m = TransitionMatrix::new(&tg, &rates);
        let base = BaseSet::weighted([(2, 1.0)]).unwrap();
        let res = power_iteration(
            &m,
            &base,
            &RankParams {
                damping: 0.0,
                ..tight()
            },
            None,
        );
        assert!(res.converged);
        assert!((res.scores[2] - 1.0).abs() < 1e-12);
        assert_eq!(res.scores[0], 0.0);
    }

    /// A larger skewed graph: node 0 is cited by everyone (one heavy CSR
    /// row), the rest form a sparse chain — exercises multi-block layouts
    /// and the edge-balanced thread partition.
    fn skewed_graph(n: usize) -> (TransferGraph, TransferRates) {
        let mut schema = SchemaGraph::new();
        let p = schema.add_node_type("P").unwrap();
        let r = schema.add_edge_type(p, p, "r").unwrap();
        let mut b = DataGraphBuilder::new(schema);
        let nodes: Vec<_> = (0..n).map(|_| b.add_node(p, vec![]).unwrap()).collect();
        for i in 1..n {
            b.add_edge(nodes[i], nodes[0], r).unwrap();
            b.add_edge(nodes[i], nodes[i - 1], r).unwrap();
        }
        let g = b.freeze();
        let tg = TransferGraph::build(&g);
        let mut rates = TransferRates::zero(g.schema());
        rates.set(TransferTypeId::forward(r), 0.6).unwrap();
        rates.set(TransferTypeId::backward(r), 0.2).unwrap();
        (tg, rates)
    }

    #[test]
    fn thread_ranges_cover_rows_exactly_once() {
        for n in [200, 3 * WINDOW_ROWS + 5] {
            let (tg, rates) = skewed_graph(n);
            let m = TransitionMatrix::new(&tg, &rates);
            for threads in [1, 2, 3, 7] {
                let ranges = m.thread_ranges(threads);
                assert!(ranges.len() <= threads);
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, m.node_count());
                for pair in ranges.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start, "ranges must tile");
                    assert_eq!(pair[0].end % WINDOW_ROWS, 0, "ranges are window-aligned");
                }
            }
        }
    }

    /// A matrix from rates borrows its layout's in-slot class ids rather
    /// than copying them, every slot reads back its edge's Equation 1
    /// weight, bit for bit, and every padding slot reads `0.0`.
    #[test]
    fn class_kernel_borrows_the_graphs_class_ids() {
        let (tg, rates) = skewed_graph(40);
        let m = TransitionMatrix::new(&tg, &rates);
        let slices = m.slices();
        assert!(m.slot_class.is_none());
        assert_eq!(m.slot_classes().as_ptr(), slices.classes().as_ptr());
        assert_eq!(m.class_alpha.len(), tg.class_count() + 1);
        let w = tg.weights(&rates);
        assert!(slices.edges().contains(&PAD_EDGE));
        for (&c, &e) in m.slot_classes().iter().zip(slices.edges()) {
            let want = if e == PAD_EDGE { 0.0 } else { w[e as usize] };
            assert_eq!(m.class_alpha[c as usize].to_bits(), want.to_bits());
        }
    }

    /// `from_edge_weights` makes one class per distinct bit pattern (so
    /// `0.0` and `-0.0` stay apart) and every slot reads back its own
    /// edge's weight.
    #[test]
    fn class_kernel_classes_edge_weights_by_bit_pattern() {
        let (tg, _) = ring_graph();
        let weights = vec![0.5, -0.0, 0.0, 0.5, 1.0 / 3.0, 0.0, 0.5, 0.25];
        assert_eq!(weights.len(), tg.transfer_edge_count());
        let m = TransitionMatrix::from_edge_weights(&tg, weights.clone());
        assert!(m.slot_class.is_some());
        assert!(m.edges.same_layout(&tg.all_edges()));
        // Five distinct patterns and the padding class.
        assert_eq!(m.class_alpha.len(), 6);
        for (&c, &e) in m.slot_classes().iter().zip(m.slices().edges()) {
            assert_eq!(
                m.class_alpha[c as usize].to_bits(),
                weights[e as usize].to_bits()
            );
        }
    }

    /// One sweep over class ids equals the edge-list pull, bit for bit,
    /// on one thread range and on several.
    #[test]
    fn class_kernel_sweeps_like_a_pull_over_gathered_alpha() {
        let (tg, rates) = skewed_graph(2 * WINDOW_ROWS + 100);
        let n = tg.node_count();
        let w = tg.weights(&rates);
        let r: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
        let add: Vec<f64> = (0..n).map(|i| (i % 7) as f64 * 1e-3).collect();
        let expect: Vec<u64> = edge_list_pull(&tg, &w, &r)
            .iter()
            .zip(&add)
            .map(|(acc, add)| (0.85 * acc + add).to_bits())
            .collect();
        for m in [
            TransitionMatrix::new(&tg, &rates),
            TransitionMatrix::from_edge_weights(&tg, w.clone()),
        ] {
            for threads in [1, 2, 3] {
                let ranges = m.thread_ranges(threads);
                assert_eq!(ranges.len(), threads.min(2));
                let mut out = vec![0.0; n];
                m.sweep(&r, &mut out, 0.85, &add, &ranges);
                let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, expect, "{threads} threads");
            }
        }
    }

    /// More distinct patterns than memo slots, each met many times and
    /// `-0.0` apart from `0.0`: every weight gets its own pattern's id.
    #[test]
    fn class_by_bits_ids_every_weight_by_its_pattern() {
        let weights: Vec<f64> = (0..20_000u64)
            .map(|i| ((i * 7919) % 3001) as f64 * 0.5)
            .chain([-0.0, 0.0])
            .collect();
        let (table, ids) = class_by_bits(&weights);
        assert_eq!(table.len(), 3002);
        assert!(table.windows(2).all(|p| p[0] < p[1]));
        for (w, &id) in weights.iter().zip(&ids) {
            assert_eq!(table[id as usize], w.to_bits());
        }
    }

    /// A chain long enough to carry more transfer edges than class ids.
    fn long_chain() -> TransferGraph {
        let (tg, _) = skewed_graph(orex_graph::MAX_CLASSES / 4 + 2);
        assert!(tg.transfer_edge_count() > orex_graph::MAX_CLASSES);
        tg
    }

    #[test]
    fn from_edge_weights_holds_exactly_the_u16_bound() {
        let tg = long_chain();
        let bound = orex_graph::MAX_CLASSES;
        let weights = (0..tg.transfer_edge_count())
            .map(|e| (e % bound) as f64)
            .collect();
        let m = TransitionMatrix::from_edge_weights(&tg, weights);
        assert_eq!(m.class_alpha.len(), bound + 1);
        assert_eq!(m.class_alpha[bound - 1], (bound - 1) as f64);
        assert_eq!(m.class_alpha[bound].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    #[should_panic(expected = "too many distinct edge weights: more than 65535")]
    fn from_edge_weights_rejects_one_weight_past_the_u16_bound() {
        let tg = long_chain();
        let weights = (0..tg.transfer_edge_count()).map(|e| e as f64).collect();
        let _ = TransitionMatrix::from_edge_weights(&tg, weights);
    }

    /// The graph's class ids and edge weights classed by bit pattern are
    /// two routes to one matrix: every ranking on them agrees bit for bit.
    #[test]
    fn a_matrix_from_rates_ranks_like_one_from_gathered_edge_weights() {
        let (tg, rates) = skewed_graph(120);
        let mut other = rates.clone();
        other.as_mut_slice()[1] = 0.0;
        let bases = vec![
            BaseSet::uniform([0]).unwrap(),
            BaseSet::weighted([(7, 3.0), (90, 1.0)]).unwrap(),
            BaseSet::global(120).unwrap(),
        ];
        let bits = |r: &RankResult| r.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        for rates in [rates, other] {
            let streamed = TransitionMatrix::new(&tg, &rates);
            let gathered = TransitionMatrix::from_edge_weights(&tg, tg.weights(&rates));
            for threads in [1, 3] {
                let params = RankParams {
                    threads,
                    epsilon: 1e-10,
                    max_iterations: 500,
                    ..RankParams::default()
                };
                for base in &bases {
                    let a = power_iteration(&streamed, base, &params, None);
                    let b = power_iteration(&gathered, base, &params, None);
                    assert_eq!(a.iterations, b.iterations);
                    assert_eq!(bits(&a), bits(&b), "solo, {threads} threads");
                }
            }
        }
    }
}
