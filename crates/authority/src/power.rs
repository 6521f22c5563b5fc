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
//! The CSR kernel is organized around *cache blocks*: contiguous row
//! groups bounded by edge count, so the `targets`/`alpha` slices one block
//! touches stay cache-resident while it is swept. Blocks are also the
//! unit of thread partitioning — threads claim contiguous block runs
//! balanced by **edge** count rather than row count, which keeps skewed
//! in-degree distributions (DBLP's papers-vs-years) from serializing on
//! one unlucky worker. [`power_iteration_batch`] advances many base-set
//! vectors through one shared sweep of that structure, reading the CSR
//! topology once per iteration for the whole batch.

use crate::base_set::BaseSet;
use orex_graph::{TransferGraph, TransferRates};
use orex_telemetry::{logger, Counter, HistogramHandle, Level, RateLimit};
use std::ops::Range;
use std::sync::OnceLock;

/// Log target of the power-iteration engine.
const LOG_TARGET: &str = "authority.power";

/// The per-iteration residual is logged (at `Level::Trace`) at most once
/// every this many iterations, so turning residual logging on cannot
/// flood the ring on large graphs.
const RESIDUAL_LOG_EVERY: u64 = 32;

/// Edge budget of one cache block. At 12 bytes of CSR structure per edge
/// (u32 target + f64 alpha) a full block touches ~96 KiB — comfortably
/// inside L2 — so re-walking a block for every column of a batched sweep
/// hits warm lines instead of DRAM.
const BLOCK_EDGES: u32 = 8192;

/// Pre-resolved handles for the per-iteration metrics: the power loop is
/// the system's hottest path, so it must not pay the registry's RwLock
/// read + string hash on every iteration. Resolved once per process from
/// the global recorder.
struct PowerMetrics {
    iter_us: HistogramHandle,
    batch_sweep_us: HistogramHandle,
    runs: Counter,
    iterations: Counter,
    converged: Counter,
    batch_runs: Counter,
    batch_vectors: Counter,
    batch_sweeps: Counter,
}

fn power_metrics() -> &'static PowerMetrics {
    static METRICS: OnceLock<PowerMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let t = orex_telemetry::global();
        PowerMetrics {
            iter_us: t.histogram("authority.power.iteration_us"),
            batch_sweep_us: t.histogram("authority.power.batch_sweep_us"),
            runs: t.counter("authority.power.runs"),
            iterations: t.counter("authority.power.iterations"),
            converged: t.counter("authority.power.converged"),
            batch_runs: t.counter("authority.power.batch_runs"),
            batch_vectors: t.counter("authority.power.batch_vectors"),
            batch_sweeps: t.counter("authority.power.batch_sweeps"),
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
/// transfer-graph topology with per-edge `alpha` weights derived from a
/// rates vector, pre-aligned to the in-CSR slots for the pull loop, plus
/// the cache-block boundaries the sweeps iterate over.
pub struct TransitionMatrix<'g> {
    graph: &'g TransferGraph,
    /// Per transfer-edge `alpha` (Equation 1), edge-indexed.
    edge_weights: Vec<f64>,
    /// `alpha` aligned with the in-CSR slots.
    in_slot_weights: Vec<f64>,
    /// Cache-block row boundaries: `blocks[0] = 0`, `blocks.last() = n`,
    /// each block spanning at most [`BLOCK_EDGES`] in-edges (single rows
    /// over the budget get a block of their own).
    blocks: Vec<u32>,
}

impl<'g> TransitionMatrix<'g> {
    /// Builds the matrix for a rates vector.
    pub fn new(graph: &'g TransferGraph, rates: &TransferRates) -> Self {
        Self::from_edge_weights(graph, graph.weights(rates))
    }

    /// Builds the matrix from precomputed per-edge weights (edge-indexed).
    ///
    /// # Panics
    /// Panics if `edge_weights` does not have one entry per transfer edge.
    pub fn from_edge_weights(graph: &'g TransferGraph, edge_weights: Vec<f64>) -> Self {
        assert_eq!(
            edge_weights.len(),
            graph.transfer_edge_count(),
            "edge weight vector length mismatch"
        );
        let in_slot_weights = graph
            .in_slot_edges()
            .iter()
            .map(|&e| edge_weights[e as usize])
            .collect();
        let blocks = cache_blocks(graph.in_csr().row_offsets(), graph.node_count());
        Self {
            graph,
            edge_weights,
            in_slot_weights,
            blocks,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The underlying transfer graph.
    #[inline]
    pub fn graph(&self) -> &'g TransferGraph {
        self.graph
    }

    /// Per-transfer-edge `alpha` weights (edge-indexed).
    #[inline]
    pub fn edge_weights(&self) -> &[f64] {
        &self.edge_weights
    }

    /// Number of cache blocks the row space is partitioned into.
    #[inline]
    pub fn cache_block_count(&self) -> usize {
        self.blocks.len() - 1
    }

    /// Computes `out[i] = damping * Σ_{j -> i} alpha(j -> i) * r[j] + add[i]`
    /// for `i` in `range`, writing into `out` (which must be the slice for
    /// exactly that range).
    fn pull_range(
        &self,
        r: &[f64],
        out: &mut [f64],
        range: Range<usize>,
        damping: f64,
        add: &[f64],
    ) {
        let csr = self.graph.in_csr();
        let offsets = csr.row_offsets();
        let targets = csr.targets();
        for (local, i) in range.clone().enumerate() {
            let lo = offsets[i] as usize;
            let hi = offsets[i + 1] as usize;
            let mut acc = 0.0;
            for slot in lo..hi {
                // `targets` of the in-CSR are the *sources* j of edges j->i.
                acc += self.in_slot_weights[slot] * r[targets[slot] as usize];
            }
            out[local] = damping * acc + add[i];
        }
    }

    /// [`Self::pull_range`] over `rows`, walking the cache blocks that
    /// cover it one at a time so each block's CSR slice stays resident.
    /// `rows` must be block-aligned (it comes from [`Self::thread_ranges`]).
    fn pull_rows(&self, r: &[f64], out: &mut [f64], rows: Range<usize>, damping: f64, add: &[f64]) {
        let mut row = rows.start;
        let mut bi = self.blocks.partition_point(|&b| (b as usize) <= rows.start);
        while row < rows.end {
            let block_end = (self.blocks[bi] as usize).min(rows.end);
            let lo = row - rows.start;
            let hi = block_end - rows.start;
            self.pull_range(r, &mut out[lo..hi], row..block_end, damping, add);
            row = block_end;
            bi += 1;
        }
    }

    /// One shared sweep over the rows in `rows` for *all* columns: the CSR
    /// structure of each row is read once, and every column's accumulator
    /// advances in in-slot order — the identical floating-point op
    /// sequence a single-vector sweep performs, so batching cannot perturb
    /// results. `acc` is a scratch buffer of at least `cols.len()`.
    fn pull_rows_batch(
        &self,
        cols: &mut [BatchColumn<'_>],
        rows: Range<usize>,
        damping: f64,
        acc: &mut [f64],
    ) {
        let csr = self.graph.in_csr();
        let offsets = csr.row_offsets();
        let targets = csr.targets();
        let width = cols.len();
        for (local, i) in rows.clone().enumerate() {
            let lo = offsets[i] as usize;
            let hi = offsets[i + 1] as usize;
            acc[..width].fill(0.0);
            for (&w, &src) in self.in_slot_weights[lo..hi].iter().zip(&targets[lo..hi]) {
                let src = src as usize;
                for (a, col) in acc[..width].iter_mut().zip(cols.iter()) {
                    *a += w * col.r[src];
                }
            }
            for (a, col) in acc[..width].iter().zip(cols.iter_mut()) {
                col.out[local] = damping * *a + col.add[i];
            }
        }
    }

    /// Splits the row space into at most `threads` contiguous,
    /// block-aligned ranges with balanced **edge** counts. Row-count
    /// chunking is what it replaces: on skewed in-degree distributions a
    /// uniform row split leaves one thread holding most of the edges.
    fn thread_ranges(&self, threads: usize) -> Vec<Range<usize>> {
        let n = self.node_count();
        if threads <= 1 || n == 0 {
            return std::iter::once(0..n).collect();
        }
        let offsets = self.graph.in_csr().row_offsets();
        let total = offsets[n] as usize;
        let target = total.div_ceil(threads).max(1);
        let mut ranges = Vec::with_capacity(threads);
        let mut row_start = 0usize;
        for w in self.blocks.windows(2) {
            if ranges.len() + 1 == threads {
                break;
            }
            let block_end = w[1] as usize;
            if (offsets[block_end] - offsets[row_start]) as usize >= target {
                ranges.push(row_start..block_end);
                row_start = block_end;
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

/// Greedy row grouping: close a block as soon as adding the next row would
/// push it past [`BLOCK_EDGES`] (rows bigger than the budget get their own
/// block).
fn cache_blocks(offsets: &[u32], n: usize) -> Vec<u32> {
    let mut blocks = Vec::with_capacity(n / 64 + 2);
    blocks.push(0u32);
    let mut i = 0usize;
    while i < n {
        let start = offsets[i];
        let mut j = i + 1;
        while j < n && offsets[j + 1] - start <= BLOCK_EDGES {
            j += 1;
        }
        blocks.push(j as u32);
        i = j;
    }
    blocks
}

/// One thread's view of one batch column over a row range.
struct BatchColumn<'a> {
    r: &'a [f64],
    out: &'a mut [f64],
    add: &'a [f64],
}

/// Full per-column state of an in-flight batched run.
struct BatchState {
    r: Vec<f64>,
    r_new: Vec<f64>,
    jump: Vec<f64>,
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

/// Validates a warm-start vector like [`power_iteration`] does, falling
/// back to the base-set dense vector on degenerate mass.
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
    orex_telemetry::global()
        .gauge("authority.power.last_residual")
        .set(residuals.last().copied().unwrap_or(0.0));
    if run_span.is_recording() {
        run_span.attr_u64("iterations", iterations as u64);
        run_span.attr_u64("converged", u64::from(converged));
    }
    let last_residual = residuals.last().copied().unwrap_or(0.0);
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

/// Runs Equation 4 for many base sets through **one shared matrix sweep
/// per iteration**: each row's CSR slots are read once and every column's
/// accumulator advances in the same in-slot order a dedicated
/// single-vector run would use, so each returned [`RankResult`] is
/// *bitwise identical* to `power_iteration(matrix, &bases[k], params,
/// warm_start)` — batching only amortizes the CSR structure traffic (u32
/// target + f64 alpha per edge) across the batch.
///
/// Columns converge independently: once a column's residual drops under
/// `epsilon` it is frozen and later sweeps skip it, exactly as its
/// dedicated run would have stopped. `warm_start` (typically the global
/// ObjectRank vector) seeds every column.
///
/// Telemetry: each shared sweep records `authority.power.batch_sweep_us`;
/// runs/vectors/sweeps land in `authority.power.batch_*` counters.
pub fn power_iteration_batch(
    matrix: &TransitionMatrix<'_>,
    bases: &[BaseSet],
    params: &RankParams,
    warm_start: Option<&[f64]>,
) -> Vec<RankResult> {
    let n = matrix.node_count();
    assert!(n > 0, "empty graph");
    assert!(
        (0.0..1.0).contains(&params.damping),
        "damping must be in [0, 1)"
    );
    if bases.is_empty() {
        return Vec::new();
    }
    let d = params.damping;

    let metrics = power_metrics();
    metrics.batch_runs.incr();
    metrics.batch_vectors.add(bases.len() as u64);
    let tracer = orex_telemetry::tracer();
    let mut run_span = tracer.span("authority.power.batch");
    if run_span.is_recording() {
        run_span.attr_u64("nodes", n as u64);
        run_span.attr_u64("vectors", bases.len() as u64);
    }

    let mut cols: Vec<BatchState> = bases
        .iter()
        .map(|base| {
            let mut jump = base.to_dense(n);
            for p in &mut jump {
                *p *= 1.0 - d;
            }
            BatchState {
                r: initial_vector(base, n, warm_start),
                r_new: vec![0.0; n],
                jump,
            }
        })
        .collect();

    let threads = resolve_threads(params.threads, n);
    let ranges = matrix.thread_ranges(threads);

    // Per-column bookkeeping; `active` holds indices of still-iterating
    // columns in ascending order.
    let mut active: Vec<usize> = (0..cols.len()).collect();
    let mut results: Vec<RankResult> = cols
        .iter()
        .map(|_| RankResult {
            scores: Vec::new(),
            iterations: 0,
            converged: false,
            residuals: Vec::new(),
        })
        .collect();

    let mut sweeps = 0usize;
    for iter in 0..params.max_iterations {
        if active.is_empty() {
            break;
        }
        sweeps += 1;
        let sweep_start = metrics
            .batch_sweep_us
            .is_recording()
            .then(std::time::Instant::now);
        {
            // Borrow the active columns as one contiguous working set for
            // this sweep. Selection preserves ascending column order.
            let mut views: Vec<&mut BatchState> = Vec::with_capacity(active.len());
            let mut rest: &mut [BatchState] = &mut cols;
            let mut consumed = 0usize;
            for &k in &active {
                let (_, tail) = rest.split_at_mut(k - consumed);
                let (head, tail) = tail.split_at_mut(1);
                views.push(&mut head[0]);
                rest = tail;
                consumed = k + 1;
            }
            sweep_batch_views(matrix, &mut views, d, &ranges);
        }
        if let Some(start) = sweep_start {
            metrics
                .batch_sweep_us
                .record(start.elapsed().as_secs_f64() * 1e6);
        }

        // Residuals, swaps and freezes — identical order and arithmetic to
        // the dedicated runs.
        let mut still_active = Vec::with_capacity(active.len());
        for &k in &active {
            let col = &mut cols[k];
            let residual: f64 = col
                .r_new
                .iter()
                .zip(&col.r)
                .map(|(&a, &b)| (a - b).abs())
                .sum();
            results[k].residuals.push(residual);
            results[k].iterations = iter + 1;
            std::mem::swap(&mut col.r, &mut col.r_new);
            if residual < params.epsilon {
                results[k].converged = true;
            } else {
                still_active.push(k);
            }
        }
        active = still_active;
    }

    metrics.batch_sweeps.add(sweeps as u64);
    for (k, col) in cols.into_iter().enumerate() {
        results[k].scores = col.r;
        metrics.iterations.add(results[k].iterations as u64);
    }
    let converged = results.iter().filter(|r| r.converged).count();
    if run_span.is_recording() {
        run_span.attr_u64("sweeps", sweeps as u64);
        run_span.attr_u64("converged", converged as u64);
    }
    logger()
        .info(LOG_TARGET, "batched run finished")
        .field_u64("vectors", results.len() as u64)
        .field_u64("sweeps", sweeps as u64)
        .field_u64("converged", converged as u64)
        .emit();
    results
}

/// Adapter: runs one shared sweep over a set of *views* into the column
/// states (the active subset of a batch).
fn sweep_batch_views(
    matrix: &TransitionMatrix<'_>,
    views: &mut [&mut BatchState],
    damping: f64,
    ranges: &[Range<usize>],
) {
    let width = views.len();
    if ranges.len() <= 1 {
        let n = matrix.node_count();
        let mut acc = vec![0.0; width];
        let mut cols: Vec<BatchColumn<'_>> = views
            .iter_mut()
            .map(|c| BatchColumn {
                r: &c.r,
                out: &mut c.r_new,
                add: &c.jump,
            })
            .collect();
        matrix.pull_rows_batch(&mut cols, 0..n, damping, &mut acc);
        return;
    }
    let mut per_thread: Vec<Vec<BatchColumn<'_>>> =
        ranges.iter().map(|_| Vec::with_capacity(width)).collect();
    for col in views.iter_mut() {
        let mut rest: &mut [f64] = &mut col.r_new;
        for (t, range) in ranges.iter().enumerate() {
            let (head, tail) = rest.split_at_mut(range.len());
            rest = tail;
            per_thread[t].push(BatchColumn {
                r: &col.r,
                out: head,
                add: &col.jump,
            });
        }
    }
    std::thread::scope(|scope| {
        for (mut cols, range) in per_thread.into_iter().zip(ranges.iter().cloned()) {
            scope.spawn(move || {
                let mut acc = vec![0.0; cols.len()];
                matrix.pull_rows_batch(&mut cols, range, damping, &mut acc);
            });
        }
    });
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
        let n = tg.node_count();
        let w = m.edge_weights();
        for i in 0..n {
            let mut acc = 0.0;
            for (src, e) in tg.in_transfer(orex_graph::NodeId::from_usize(i)) {
                acc += w[e] * res.scores[src.index()];
            }
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
        let (tg, rates) = skewed_graph(200);
        let m = TransitionMatrix::new(&tg, &rates);
        for threads in [1, 2, 3, 7] {
            let ranges = m.thread_ranges(threads);
            assert!(ranges.len() <= threads);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, m.node_count());
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "ranges must tile");
            }
        }
    }

    #[test]
    fn cache_blocks_tile_the_row_space() {
        let (tg, rates) = skewed_graph(150);
        let m = TransitionMatrix::new(&tg, &rates);
        assert!(m.cache_block_count() >= 1);
        // Synthetic check of the block builder itself on a skewed CSR.
        let offsets: Vec<u32> = vec![0, 9000, 9001, 9002, 17000, 17001];
        let blocks = cache_blocks(&offsets, 5);
        assert_eq!(*blocks.first().unwrap(), 0);
        assert_eq!(*blocks.last().unwrap(), 5);
        for pair in blocks.windows(2) {
            assert!(pair[0] < pair[1], "blocks must advance: {blocks:?}");
            let edges = offsets[pair[1] as usize] - offsets[pair[0] as usize];
            let rows = pair[1] - pair[0];
            assert!(
                edges <= BLOCK_EDGES || rows == 1,
                "oversized multi-row block: {blocks:?}"
            );
        }
    }

    #[test]
    fn batch_matches_independent_runs_bitwise() {
        let (tg, rates) = skewed_graph(120);
        let m = TransitionMatrix::new(&tg, &rates);
        let bases = vec![
            BaseSet::uniform([0]).unwrap(),
            BaseSet::weighted([(3, 2.0), (50, 1.0)]).unwrap(),
            BaseSet::global(120).unwrap(),
            BaseSet::weighted([(119, 1.0), (60, 0.25)]).unwrap(),
        ];
        for threads in [1, 3] {
            let params = RankParams {
                threads,
                epsilon: 1e-10,
                max_iterations: 500,
                ..RankParams::default()
            };
            let batch = power_iteration_batch(&m, &bases, &params, None);
            assert_eq!(batch.len(), bases.len());
            for (base, got) in bases.iter().zip(&batch) {
                let solo = power_iteration(&m, base, &params, None);
                assert_eq!(solo.iterations, got.iterations, "iteration counts differ");
                assert_eq!(solo.converged, got.converged);
                assert_eq!(solo.residuals, got.residuals, "residual streams differ");
                for (a, b) in solo.scores.iter().zip(&got.scores) {
                    assert_eq!(a, b, "batched sweep must be bitwise identical");
                }
            }
        }
    }

    #[test]
    fn batch_with_warm_start_matches_independent_runs() {
        let (tg, rates) = ring_graph();
        let m = TransitionMatrix::new(&tg, &rates);
        let global = power_iteration(&m, &BaseSet::global(4).unwrap(), &tight(), None);
        let bases = vec![
            BaseSet::uniform([1]).unwrap(),
            BaseSet::uniform([2, 3]).unwrap(),
        ];
        let params = tight();
        let batch = power_iteration_batch(&m, &bases, &params, Some(&global.scores));
        for (base, got) in bases.iter().zip(&batch) {
            let solo = power_iteration(&m, base, &params, Some(&global.scores));
            assert_eq!(solo.iterations, got.iterations);
            for (a, b) in solo.scores.iter().zip(&got.scores) {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn batch_of_none_and_one() {
        let (tg, rates) = ring_graph();
        let m = TransitionMatrix::new(&tg, &rates);
        assert!(power_iteration_batch(&m, &[], &tight(), None).is_empty());
        let base = BaseSet::uniform([0]).unwrap();
        let one = power_iteration_batch(&m, std::slice::from_ref(&base), &tight(), None);
        let solo = power_iteration(&m, &base, &tight(), None);
        assert_eq!(one[0].scores, solo.scores);
    }

    #[test]
    fn batch_respects_iteration_cap() {
        let (tg, rates) = ring_graph();
        let m = TransitionMatrix::new(&tg, &rates);
        let bases = vec![
            BaseSet::uniform([0]).unwrap(),
            BaseSet::uniform([1]).unwrap(),
        ];
        let res = power_iteration_batch(
            &m,
            &bases,
            &RankParams {
                epsilon: 0.0,
                max_iterations: 3,
                ..RankParams::default()
            },
            None,
        );
        for r in &res {
            assert_eq!(r.iterations, 3);
            assert!(!r.converged);
        }
    }
}
