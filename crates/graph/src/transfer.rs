//! Authority transfer graphs (Section 2, Figures 3 and 5 of the paper).
//!
//! From the schema graph we derive the *authority transfer schema graph*:
//! every schema edge type `e_S = (u -> v)` is split into a forward transfer
//! type `e_S^f = (u -> v)` and a backward transfer type `e_S^b = (v -> u)`,
//! each annotated with an authority transfer rate `a(.) ∈ [0, 1]`. The rates
//! live in a [`TransferRates`] vector — the object that structure-based
//! reformulation (Section 5.2) adjusts and that the training experiments
//! (Figures 11, 13) compare against ground truth by cosine similarity.
//!
//! From a data graph conforming to the schema we derive the *authority
//! transfer data graph* [`TransferGraph`]: every data edge `u -> v` of type
//! `t` materializes a forward transfer edge `u -> v` of type `t^f` and a
//! backward transfer edge `v -> u` of type `t^b`. Equation 1 assigns each
//! transfer edge the weight
//!
//! ```text
//! alpha(e) = a(type(e)) / OutDeg(src(e), type(e))   if OutDeg > 0
//! ```
//!
//! where `OutDeg(u, tt)` counts `u`'s outgoing transfer edges of type `tt`.
//!
//! So `alpha` takes one value per *class*, a distinct `(tt, OutDeg)` pair,
//! and a graph has few of them: 324 on `dblp-top:1.0` (312,060 transfer
//! edges), 396 on `dblp-complete:0.1` (808,740), 201 on `ds7-cancer:0.5`,
//! 488 on `ds7:1.0` (7.1M) and 952 on `dblp-complete:1.0` (8.27M). The
//! graph keeps a `u16` class id per transfer edge, in edge order and in
//! the in-adjacency's slot order, and one `(tt, 1 / OutDeg)` row per
//! class. [`TransferGraph::class_alpha`] turns a rates vector into every
//! class's `alpha` in about a thousand multiplies. Every reader of
//! `alpha` goes through that table: the power sweep reads `class_alpha[c]`
//! for each in-slot class id ([`InSlices::classes`]), an explanation for
//! each edge's ([`TransferGraph::edge_classes`]), and only
//! [`TransferGraph::weights`] gathers an edge-indexed array. No per-edge
//! `alpha` array is kept, and reformulation iterations never rebuild
//! adjacency.
//!
//! A class whose `alpha` is `0.0` is *dead*: its edges carry no
//! authority, and `alpha = rate · 1/OutDeg` is `0.0` exactly when the
//! type's rate is. The paper's DBLP rates set PP-back to 0, so 30.6 % of
//! `dblp-complete:0.1`'s transfer edges and 35.4 % of `dblp-top:1.0`'s are
//! dead. The adjacency the hot loops walk is laid out per set of dead
//! classes ([`TransferGraph::live_edges`], a [`LiveEdges`]) and holds only
//! the live edges: an in-adjacency of four-row slices the power sweep
//! walks four sums at a time (see [`crate::slices`]; its padding slots
//! carry the padding class, id [`TransferGraph::class_count`]) and an
//! out-CSR the explaining-subgraph walks use. A layout is built on first
//! use and kept. Equation 13 rescales a rate by multiplying it, so
//! feedback never turns a zero rate live or a live one zero: a served
//! process asks for its initial rates' layout only and holds one. The
//! layout of every edge ([`TransferGraph::all_edges`]) is built only when
//! something asks for it: a matrix from arbitrary edge weights, HITS,
//! [`TransferGraph::in_transfer`], or rates without a zero.
//!
//! Bytes per transfer edge ([`TransferGraph::heap_bytes`]; a layout adds
//! 4 B per node for the out-CSR row offsets, 4 B per node and 4 B per
//! chunk of four for the slices' lane maps, and 10 B per padding slot;
//! the class table adds 16 B per class):
//!
//! | array | per transfer edge | per live edge of a built layout |
//! |---|---|---|
//! | `edge_src`, `edge_dst`, `edge_origin` | 12 | — |
//! | class id | 2 | — |
//! | out-CSR target + slot → edge map | — | 8 |
//! | in-slices source + slot → edge map + class id | — | 10 |
//!
//! So a graph with the layout of every edge holds 32 B per transfer edge;
//! one with only `dblp-top:1.0`'s live layout, 14 + 18 × 0.646 = 25.6.

use crate::csr::Csr;
use crate::data::DataGraph;
use crate::error::{GraphError, Result};
use crate::ids::{EdgeId, NodeId, TransferTypeId};
use crate::schema::SchemaGraph;
use crate::slices::InSlices;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// The authority transfer rates of an authority transfer schema graph:
/// one rate per transfer-edge type (`2 * |schema edge types|` entries,
/// indexed by [`TransferTypeId::dense_index`]).
#[derive(Clone, Debug, PartialEq)]
pub struct TransferRates {
    rates: Vec<f64>,
}

impl TransferRates {
    /// All rates set to `rate` (the experiments in Section 6.1 initialize
    /// every rate to 0.3 before training).
    pub fn uniform(schema: &SchemaGraph, rate: f64) -> Self {
        Self {
            rates: vec![rate; schema.edge_type_count() * 2],
        }
    }

    /// All rates zero.
    pub fn zero(schema: &SchemaGraph) -> Self {
        Self::uniform(schema, 0.0)
    }

    /// Builds from a dense vector (forward/backward interleaved per edge
    /// type, see [`TransferTypeId::dense_index`]).
    ///
    /// # Errors
    /// Returns [`GraphError::RatesDimensionMismatch`] on wrong length.
    pub fn from_dense(schema: &SchemaGraph, rates: Vec<f64>) -> Result<Self> {
        let expected = schema.edge_type_count() * 2;
        if rates.len() != expected {
            return Err(GraphError::RatesDimensionMismatch {
                expected,
                actual: rates.len(),
            });
        }
        Ok(Self { rates })
    }

    /// Number of transfer-edge types.
    #[inline]
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// True when the schema has no edge types.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// The rate of a transfer-edge type.
    ///
    /// # Panics
    /// Panics if the type is out of range for the schema.
    #[inline]
    pub fn get(&self, tt: TransferTypeId) -> f64 {
        self.rates[tt.dense_index()]
    }

    /// Sets the rate of a transfer-edge type.
    ///
    /// # Errors
    /// Returns [`GraphError::RateOutOfRange`] for rates outside `[0, 1]`.
    pub fn set(&mut self, tt: TransferTypeId, rate: f64) -> Result<()> {
        if !(0.0..=1.0).contains(&rate) || rate.is_nan() {
            return Err(GraphError::RateOutOfRange {
                transfer_type: tt,
                rate,
            });
        }
        self.rates[tt.dense_index()] = rate;
        Ok(())
    }

    /// Dense view of the rates.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.rates
    }

    /// Mutable dense view (used by reformulation's normalization passes,
    /// which re-validate afterwards).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.rates
    }

    /// Replaces every zero backward (or forward) rate with `epsilon`.
    ///
    /// Theorem 1 of the paper requires a non-zero reverse direction for
    /// every edge type so the explaining-subgraph fixpoint converges;
    /// "arbitrarily small flow rates can be assigned to the direction of
    /// small importance".
    pub fn ensure_bidirectional(&mut self, epsilon: f64) {
        for rate in &mut self.rates {
            if *rate == 0.0 {
                *rate = epsilon;
            }
        }
    }

    /// Per-schema-node-type sums of outgoing transfer rates.
    ///
    /// A forward rate of edge type `(u -> v)` is outgoing for `u`; the
    /// backward rate is outgoing for `v`.
    pub fn outgoing_sums(&self, schema: &SchemaGraph) -> Vec<f64> {
        let mut sums = vec![0.0; schema.node_type_count()];
        for et in schema.edge_types() {
            let sig = schema.edge_type(et);
            sums[sig.source.index()] += self.get(TransferTypeId::forward(et));
            sums[sig.target.index()] += self.get(TransferTypeId::backward(et));
        }
        sums
    }

    /// Validates that all rates are in `[0, 1]` and that every schema node
    /// type's outgoing rates sum to at most 1 (+ a small tolerance), the
    /// condition Section 5.2 step 4 enforces for ObjectRank2 convergence.
    pub fn validate(&self, schema: &SchemaGraph) -> Result<()> {
        let expected = schema.edge_type_count() * 2;
        if self.rates.len() != expected {
            return Err(GraphError::RatesDimensionMismatch {
                expected,
                actual: self.rates.len(),
            });
        }
        for (idx, &rate) in self.rates.iter().enumerate() {
            if !(0.0..=1.0).contains(&rate) || rate.is_nan() {
                return Err(GraphError::RateOutOfRange {
                    transfer_type: TransferTypeId::from_dense_index(idx),
                    rate,
                });
            }
        }
        const TOL: f64 = 1e-9;
        for (nt_idx, &sum) in self.outgoing_sums(schema).iter().enumerate() {
            if sum > 1.0 + TOL {
                return Err(GraphError::OutgoingRatesExceedOne {
                    node_type: crate::ids::NodeTypeId::from_usize(nt_idx),
                    sum,
                });
            }
        }
        Ok(())
    }

    /// Rescales each schema node type's outgoing rates so they sum to at
    /// most 1 — step 4 of the Section 5.2 normalization, also needed when
    /// initializing "all rates to 0.3" as the training experiments do
    /// (Section 6.1.1): on schemas where a node type owns four transfer
    /// types, the raw uniform vector sums to 1.2 and would break
    /// ObjectRank2 convergence.
    pub fn rescale_outgoing(&mut self, schema: &SchemaGraph) {
        let sums = self.outgoing_sums(schema);
        for et in schema.edge_types() {
            let sig = schema.edge_type(et);
            for (tt, owner) in [
                (TransferTypeId::forward(et), sig.source),
                (TransferTypeId::backward(et), sig.target),
            ] {
                let sum = sums[owner.index()];
                if sum > 1.0 {
                    self.rates[tt.dense_index()] /= sum;
                }
            }
        }
    }

    /// A uniform rates vector rescaled to validity: every rate starts at
    /// `rate` and each node type's outgoing rates are scaled down to sum
    /// to at most 1.
    pub fn normalized_uniform(schema: &SchemaGraph, rate: f64) -> Self {
        let mut r = Self::uniform(schema, rate);
        r.rescale_outgoing(schema);
        debug_assert!(r.validate(schema).is_ok());
        r
    }

    /// Cosine similarity with another rates vector — the training-quality
    /// metric of Figures 11 and 13.
    ///
    /// Returns 0 when either vector is all-zero.
    pub fn cosine_similarity(&self, other: &TransferRates) -> f64 {
        assert_eq!(self.rates.len(), other.rates.len(), "dimension mismatch");
        let mut dot = 0.0;
        let mut na = 0.0;
        let mut nb = 0.0;
        for (&a, &b) in self.rates.iter().zip(&other.rates) {
            dot += a * b;
            na += a * a;
            nb += b * b;
        }
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na.sqrt() * nb.sqrt())
        }
    }
}

/// The most classes a [`class_table`] can hold: class ids are `u16`, and
/// the id past the last class is the in-adjacency's padding class.
pub const MAX_CLASSES: usize = u16::MAX as usize;

/// The distinct keys, ascending: a key's `u16` class id is its position
/// ([`class_id`]). The graph classes its transfer edges by `(transfer
/// type, OutDeg)`; a matrix built from arbitrary edge weights classes
/// them by bit pattern.
///
/// # Panics
/// Panics, naming `what` is being classed, if there are more than
/// [`MAX_CLASSES`] distinct keys.
pub fn class_table<K: Ord>(keys: impl IntoIterator<Item = K>, what: &str) -> Vec<K> {
    let mut table: Vec<K> = keys.into_iter().collect();
    table.sort_unstable();
    table.dedup();
    assert!(
        table.len() <= MAX_CLASSES,
        "too many {what}: more than {MAX_CLASSES} distinct keys"
    );
    table.shrink_to_fit();
    table
}

/// The class id of a key [`class_table`] holds: its position.
pub fn class_id<K: Ord>(table: &[K], key: &K) -> u16 {
    table.partition_point(|k| k < key) as u16
}

/// What [`TransferGraph::build`] classes: `(transfer type, OutDeg)` pairs.
const EQUATION_1_CLASSES: &str = "Equation 1 classes";

/// The authority transfer data graph: materialized forward + backward
/// transfer edges over a data graph, with weight derivation per Equation 1.
///
/// Topology is immutable; `alpha` weights are a function of a
/// [`TransferRates`] vector, derived per class by [`Self::class_alpha`]
/// and gathered per edge by [`Self::weights`]. The adjacency is laid out
/// per set of dead classes, on first use ([`Self::live_edges`]).
#[derive(Debug)]
pub struct TransferGraph {
    node_count: usize,
    /// The layout of every transfer edge.
    all: Arc<Layout>,
    /// The layouts of the dead-class sets asked for so far, `all` aside.
    /// Equation 13 keeps a rates vector's zeros, so there are few.
    live: Mutex<Vec<Arc<Layout>>>,
    /// Per transfer edge: source node.
    edge_src: Vec<u32>,
    /// Per transfer edge: target node.
    edge_dst: Vec<u32>,
    /// Per transfer edge: the data edge it was derived from.
    edge_origin: Vec<u32>,
    /// Per transfer edge: its Equation 1 class.
    edge_class: Vec<u16>,
    /// Per class: dense transfer-type index and `1 / OutDeg(src, type)`,
    /// the rates-free half of Equation 1.
    classes: Vec<(u16, f64)>,
    transfer_type_count: usize,
}

impl TransferGraph {
    /// Builds the authority transfer data graph for `data`.
    ///
    /// # Panics
    /// Panics if the schema has more than 32,768 edge types or the graph
    /// more than 65,535 distinct `(transfer type, OutDeg)` pairs.
    pub fn build(data: &DataGraph) -> Self {
        let n = data.node_count();
        let m = data.edge_count();
        let tt_count = data.schema().edge_type_count() * 2;
        assert!(tt_count <= u16::MAX as usize + 1, "too many edge types");

        let mut edge_src = Vec::with_capacity(2 * m);
        let mut edge_dst = Vec::with_capacity(2 * m);
        let mut edge_type: Vec<u16> = Vec::with_capacity(2 * m);
        let mut edge_origin = Vec::with_capacity(2 * m);
        for eid in data.edges() {
            let rec = data.edge(eid);
            let fwd = TransferTypeId::forward(rec.edge_type).dense_index() as u16;
            let bwd = TransferTypeId::backward(rec.edge_type).dense_index() as u16;
            edge_src.push(rec.source.raw());
            edge_dst.push(rec.target.raw());
            edge_type.push(fwd);
            edge_origin.push(eid.raw());
            edge_src.push(rec.target.raw());
            edge_dst.push(rec.source.raw());
            edge_type.push(bwd);
            edge_origin.push(eid.raw());
        }

        // OutDeg(u, tt): count per (node, transfer type), then numbered
        // in place: each present (node, type) slot holds its class id.
        let mut slot_class = vec![0u32; n * tt_count];
        for (&src, &tt) in edge_src.iter().zip(&edge_type) {
            slot_class[src as usize * tt_count + tt as usize] += 1;
        }
        let key = |slot: usize, deg: u32| ((slot % tt_count) as u16, deg);
        let present = |(slot, &deg): (usize, &u32)| (deg > 0).then(|| key(slot, deg));
        let table = class_table(
            slot_class.iter().enumerate().filter_map(present),
            EQUATION_1_CLASSES,
        );
        for (slot, deg) in slot_class.iter_mut().enumerate() {
            if *deg > 0 {
                *deg = u32::from(class_id(&table, &key(slot, *deg)));
            }
        }
        let classes = table
            .iter()
            .map(|&(tt, deg)| (tt, 1.0 / deg as f64))
            .collect();
        let edge_class: Vec<u16> = edge_src
            .iter()
            .zip(&edge_type)
            .map(|(&src, &tt)| slot_class[src as usize * tt_count + tt as usize] as u16)
            .collect();
        drop((slot_class, edge_type));

        Self {
            node_count: n,
            all: Arc::new(Layout::new(vec![0; table.len().div_ceil(64)].into())),
            live: Mutex::new(Vec::new()),
            edge_src,
            edge_dst,
            edge_origin,
            edge_class,
            classes,
            transfer_type_count: tt_count,
        }
    }

    /// Number of nodes (same as the data graph).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of transfer edges (`2 *` data-graph edges).
    #[inline]
    pub fn transfer_edge_count(&self) -> usize {
        self.edge_src.len()
    }

    /// Number of transfer-edge types (`2 *` schema edge types).
    #[inline]
    pub fn transfer_type_count(&self) -> usize {
        self.transfer_type_count
    }

    /// Number of Equation 1 classes: distinct `(transfer type, OutDeg)`
    /// pairs over the graph's transfer edges. It is also the id of the
    /// in-adjacency's padding class.
    #[inline]
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Equation 1 per class: `class_alpha(r)[c]` is the `alpha` of every
    /// transfer edge in class `c` ([`Self::edge_classes`]).
    ///
    /// # Panics
    /// Panics if `rates` has the wrong dimension for the schema.
    pub fn class_alpha(&self, rates: &TransferRates) -> Vec<f64> {
        assert_eq!(
            rates.len(),
            self.transfer_type_count,
            "rates dimension mismatch"
        );
        let dense = rates.as_slice();
        self.classes
            .iter()
            .map(|&(tt, inv_out_deg)| dense[tt as usize] * inv_out_deg)
            .collect()
    }

    /// The class id of every transfer edge, indexed by transfer-edge
    /// index: `weights(r)[e] == class_alpha(r)[edge_classes()[e]]`.
    #[inline]
    pub fn edge_classes(&self) -> &[u16] {
        &self.edge_class
    }

    /// The transfer edges whose class `alpha` is not `0.0`, given one
    /// `alpha` per class (entries past [`Self::class_count`], such as a
    /// padding class's, are ignored). Laid out on first use per set of
    /// dead classes and kept; with no dead class, [`Self::all_edges`].
    ///
    /// # Panics
    /// Panics if `class_alpha` has fewer entries than there are classes.
    pub fn live_edges(&self, class_alpha: &[f64]) -> LiveEdges<'_> {
        let classes = self.classes.len();
        let mut dead = vec![0u64; classes.div_ceil(64)].into_boxed_slice();
        for (c, _) in class_alpha[..classes]
            .iter()
            .enumerate()
            .filter(|&(_, &alpha)| alpha == 0.0)
        {
            dead[c / 64] |= 1 << (c % 64);
        }
        if dead.iter().all(|&word| word == 0) {
            return self.all_edges();
        }
        // The memo only ever grows by a whole entry, so a poisoned lock
        // still guards a consistent list.
        let mut memo = self.live.lock().unwrap_or_else(PoisonError::into_inner);
        let layout = match memo.iter().find(|layout| layout.dead == dead) {
            Some(layout) => Arc::clone(layout),
            None => {
                let layout = Arc::new(Layout::new(dead));
                memo.push(Arc::clone(&layout));
                layout
            }
        };
        LiveEdges {
            graph: self,
            layout,
        }
    }

    /// Every transfer edge, laid out on first use and kept.
    pub fn all_edges(&self) -> LiveEdges<'_> {
        LiveEdges {
            graph: self,
            layout: Arc::clone(&self.all),
        }
    }

    /// Derives the per-edge `alpha` weights for a rates vector (Equation 1).
    ///
    /// The returned vector is indexed by transfer-edge index.
    pub fn weights(&self, rates: &TransferRates) -> Vec<f64> {
        let class_alpha = self.class_alpha(rates);
        self.edge_class
            .iter()
            .map(|&c| class_alpha[c as usize])
            .collect()
    }

    /// Bytes the graph holds on the heap: its per-edge arrays, its class
    /// table and the layouts built so far.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let u32s = [&self.edge_src, &self.edge_dst, &self.edge_origin];
        let memo = self.live.lock().unwrap_or_else(PoisonError::into_inner);
        let layouts: usize = std::iter::once(&self.all)
            .chain(memo.iter())
            .filter_map(|layout| layout.adjacency.get())
            .map(Adjacency::heap_bytes)
            .sum();
        u32s.iter().map(|v| v.capacity()).sum::<usize>() * size_of::<u32>()
            + self.edge_class.capacity() * size_of::<u16>()
            + self.classes.capacity() * size_of::<(u16, f64)>()
            + layouts
    }

    /// Outgoing transfer edges of `node`, every class included:
    /// `(target, transfer edge index)`.
    pub fn out_transfer(&self, node: NodeId) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        self.all.adjacency(self).out_transfer(node)
    }

    /// Incoming transfer edges of `node`, every class included, in
    /// ascending edge order: `(source, transfer edge index)`.
    pub fn in_transfer(&self, node: NodeId) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        self.all.adjacency(self).in_transfer(node)
    }

    /// Out-degree in the transfer graph, every class included.
    #[inline]
    pub fn out_transfer_degree(&self, node: NodeId) -> usize {
        self.all.adjacency(self).out_csr.degree(node.index())
    }

    /// `(source, target)` of a transfer edge.
    #[inline]
    pub fn edge_endpoints(&self, edge: usize) -> (NodeId, NodeId) {
        (
            NodeId::new(self.edge_src[edge]),
            NodeId::new(self.edge_dst[edge]),
        )
    }

    /// Transfer type of a transfer edge.
    #[inline]
    pub fn edge_transfer_type(&self, edge: usize) -> TransferTypeId {
        let (tt, _) = self.classes[self.edge_class[edge] as usize];
        TransferTypeId::from_dense_index(tt as usize)
    }

    /// The data edge a transfer edge was derived from.
    #[inline]
    pub fn edge_origin(&self, edge: usize) -> EdgeId {
        EdgeId::new(self.edge_origin[edge])
    }

    /// Checks Equation 1's identity: for every node and every transfer
    /// type among its out-edges, the `alpha` of those edges sums to that
    /// type's rate (relative tolerance 1e-9).
    pub fn verify_weight_invariant(&self, rates: &TransferRates) -> bool {
        let weights = self.weights(rates);
        let dense = rates.as_slice();
        let mut sums = vec![0.0; self.transfer_type_count];
        let mut present = vec![false; self.transfer_type_count];
        for node in 0..self.node_count {
            sums.fill(0.0);
            present.fill(false);
            for (_, e) in self.out_transfer(NodeId::from_usize(node)) {
                let tt = self.edge_transfer_type(e).dense_index();
                sums[tt] += weights[e];
                present[tt] = true;
            }
            let off = |tt: usize| (sums[tt] - dense[tt]).abs() > 1e-9 * dense[tt].abs();
            if (0..self.transfer_type_count).any(|tt| present[tt] && off(tt)) {
                return false;
            }
        }
        true
    }
}

/// The edges one set of dead classes leaves, laid out on first use.
#[derive(Debug)]
struct Layout {
    /// One bit per Equation 1 class, set when the class is dead: its
    /// edges get no slot.
    dead: Box<[u64]>,
    adjacency: OnceLock<Adjacency>,
}

impl Layout {
    fn new(dead: Box<[u64]>) -> Self {
        Self {
            dead,
            adjacency: OnceLock::new(),
        }
    }

    /// The layout's adjacency, built on the first call.
    fn adjacency(&self, graph: &TransferGraph) -> &Adjacency {
        self.adjacency
            .get_or_init(|| Adjacency::build(graph, &self.dead))
    }
}

/// One layout's out-CSR and in-slices.
#[derive(Debug)]
struct Adjacency {
    /// Forward-orientation CSR (adjacency of the transfer graph itself).
    out_csr: Csr,
    /// For each out-CSR slot, the transfer-edge index it stores.
    out_slot_edge: Vec<u32>,
    /// In-adjacency as four-row slices.
    in_slices: InSlices,
}

impl Adjacency {
    /// Lays out the edges of `graph` whose class is not set in `dead`.
    fn build(graph: &TransferGraph, dead: &[u64]) -> Self {
        let live = |c: u16| dead[usize::from(c) / 64] >> (c % 64) & 1 == 0;
        let n = graph.node_count;
        let (mut pairs, mut live_edge) = (Vec::new(), Vec::new());
        for (e, &c) in graph.edge_class.iter().enumerate() {
            if live(c) {
                pairs.push((graph.edge_src[e], graph.edge_dst[e]));
                live_edge.push(e as u32);
            }
        }
        let (out_csr, mut out_slot_edge) = Csr::from_edges(n, &pairs);
        drop(pairs);
        for slot_edge in &mut out_slot_edge {
            *slot_edge = live_edge[*slot_edge as usize];
        }
        drop(live_edge);
        let pad_class = graph.classes.len() as u16;
        let in_slices = InSlices::build(
            n,
            &graph.edge_src,
            &graph.edge_dst,
            &graph.edge_class,
            pad_class,
            live,
        );
        Self {
            out_csr,
            out_slot_edge,
            in_slices,
        }
    }

    fn out_transfer(&self, node: NodeId) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        self.out_csr
            .neighbors(node.index())
            .map(|(t, slot)| (NodeId::new(t), self.out_slot_edge[slot] as usize))
    }

    fn in_transfer(&self, node: NodeId) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        let slices = &self.in_slices;
        slices.lane(node.index()).map(|slot| {
            let source = NodeId::new(slices.sources()[slot]);
            (source, slices.edges()[slot] as usize)
        })
    }

    fn heap_bytes(&self) -> usize {
        let out = &self.out_csr;
        let u32s = [out.row_offsets(), out.targets(), &self.out_slot_edge];
        u32s.iter().map(|v| v.len()).sum::<usize>() * std::mem::size_of::<u32>()
            + self.in_slices.heap_bytes()
    }
}

/// The transfer edges a rates vector leaves live, or every transfer edge
/// ([`TransferGraph::live_edges`], [`TransferGraph::all_edges`]): what
/// the power sweep and the explaining-subgraph walks visit.
#[derive(Debug)]
pub struct LiveEdges<'g> {
    graph: &'g TransferGraph,
    layout: Arc<Layout>,
}

impl<'g> LiveEdges<'g> {
    /// The graph the edges belong to.
    #[inline]
    pub fn graph(&self) -> &'g TransferGraph {
        self.graph
    }

    /// The live in-adjacency as four-row slices. Its class ids are
    /// `edge_classes()` gathered into slot order, so
    /// `weights(r)[edges()[s]] == class_alpha(r)[classes()[s]]` for every
    /// slot but padding, whose class is [`TransferGraph::class_count`].
    /// The power sweep reads `alpha` through these.
    #[inline]
    pub fn in_slices(&self) -> &InSlices {
        &self.layout.adjacency(self.graph).in_slices
    }

    /// Live outgoing transfer edges of `node`, in ascending edge order:
    /// `(target, transfer edge index)`.
    pub fn out_transfer(&self, node: NodeId) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        self.layout.adjacency(self.graph).out_transfer(node)
    }

    /// Whether both hold the same layout: one set of dead classes.
    pub fn same_layout(&self, other: &LiveEdges<'_>) -> bool {
        Arc::ptr_eq(&self.layout, &other.layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{DataGraph, DataGraphBuilder};
    use crate::ids::EdgeTypeId;

    fn tiny_graph() -> DataGraph {
        // Schema: Paper -cites-> Paper, Paper -by-> Author.
        let mut schema = SchemaGraph::new();
        let paper = schema.add_node_type("Paper").unwrap();
        let author = schema.add_node_type("Author").unwrap();
        let cites = schema.add_edge_type(paper, paper, "cites").unwrap();
        let by = schema.add_edge_type(paper, author, "by").unwrap();
        let mut b = DataGraphBuilder::new(schema);
        let p0 = b.add_node(paper, vec![]).unwrap();
        let p1 = b.add_node(paper, vec![]).unwrap();
        let p2 = b.add_node(paper, vec![]).unwrap();
        let a0 = b.add_node(author, vec![]).unwrap();
        b.add_edge(p0, p1, cites).unwrap();
        b.add_edge(p0, p2, cites).unwrap();
        b.add_edge(p0, a0, by).unwrap();
        b.add_edge(p1, a0, by).unwrap();
        b.freeze()
    }

    fn dblp_rates(schema: &SchemaGraph) -> TransferRates {
        // cites: fwd 0.7, bwd 0.0; by: fwd (PA) 0.2, bwd (AP) 0.2
        let mut r = TransferRates::zero(schema);
        let cites = EdgeTypeId::new(0);
        let by = EdgeTypeId::new(1);
        r.set(TransferTypeId::forward(cites), 0.7).unwrap();
        r.set(TransferTypeId::backward(cites), 0.0).unwrap();
        r.set(TransferTypeId::forward(by), 0.2).unwrap();
        r.set(TransferTypeId::backward(by), 0.2).unwrap();
        r
    }

    #[test]
    fn transfer_graph_doubles_edges() {
        let g = tiny_graph();
        let tg = TransferGraph::build(&g);
        assert_eq!(tg.transfer_edge_count(), 2 * g.edge_count());
        assert_eq!(tg.node_count(), g.node_count());
    }

    #[test]
    fn equation1_divides_rate_by_type_outdegree() {
        let g = tiny_graph();
        let tg = TransferGraph::build(&g);
        let rates = dblp_rates(g.schema());
        let w = tg.weights(&rates);
        // p0 has 2 outgoing "cites" edges: each forward weight = 0.7 / 2.
        let p0 = NodeId::new(0);
        let mut cites_fwd: Vec<f64> = tg
            .out_transfer(p0)
            .filter(|&(_, e)| {
                tg.edge_transfer_type(e) == TransferTypeId::forward(EdgeTypeId::new(0))
            })
            .map(|(_, e)| w[e])
            .collect();
        cites_fwd.sort_by(f64::total_cmp);
        assert_eq!(cites_fwd.len(), 2);
        assert!((cites_fwd[0] - 0.35).abs() < 1e-12);
        assert!((cites_fwd[1] - 0.35).abs() < 1e-12);
        // p0 has 1 outgoing "by" edge: forward weight = 0.2 / 1.
        let by_fwd: Vec<f64> = tg
            .out_transfer(p0)
            .filter(|&(_, e)| {
                tg.edge_transfer_type(e) == TransferTypeId::forward(EdgeTypeId::new(1))
            })
            .map(|(_, e)| w[e])
            .collect();
        assert_eq!(by_fwd, vec![0.2]);
    }

    #[test]
    fn backward_outdegree_counts_data_in_edges() {
        let g = tiny_graph();
        let tg = TransferGraph::build(&g);
        let rates = dblp_rates(g.schema());
        let w = tg.weights(&rates);
        // a0 has 2 incoming "by" edges, so 2 outgoing backward-"by"
        // transfer edges, each weighted 0.2 / 2 = 0.1.
        let a0 = NodeId::new(3);
        let back: Vec<f64> = tg.out_transfer(a0).map(|(_, e)| w[e]).collect();
        assert_eq!(back.len(), 2);
        for v in back {
            assert!((v - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn in_transfer_is_reverse_of_out_transfer() {
        let g = tiny_graph();
        let tg = TransferGraph::build(&g);
        for node in 0..tg.node_count() {
            let node = NodeId::from_usize(node);
            for (dst, e) in tg.out_transfer(node) {
                assert!(tg.in_transfer(dst).any(|(s, e2)| s == node && e2 == e));
            }
        }
    }

    #[test]
    fn zero_rate_yields_zero_weight() {
        let g = tiny_graph();
        let tg = TransferGraph::build(&g);
        let rates = dblp_rates(g.schema());
        let w = tg.weights(&rates);
        // Backward "cites" rate is 0 => the corresponding weights are 0.
        for (e, &weight) in w.iter().enumerate().take(tg.transfer_edge_count()) {
            if tg.edge_transfer_type(e) == TransferTypeId::backward(EdgeTypeId::new(0)) {
                assert_eq!(weight, 0.0);
            }
        }
    }

    #[test]
    fn rates_validation() {
        let g = tiny_graph();
        let schema = g.schema();
        let mut r = dblp_rates(schema);
        r.validate(schema).unwrap();
        // Papers' outgoing sum: cites_f 0.7 + by_f 0.2 + cites_b 0.0 = 0.9 ok.
        // Push cites forward to 0.9 => 1.1 > 1 => invalid.
        r.set(TransferTypeId::forward(EdgeTypeId::new(0)), 0.9)
            .unwrap();
        assert!(matches!(
            r.validate(schema),
            Err(GraphError::OutgoingRatesExceedOne { .. })
        ));
    }

    #[test]
    fn rate_bounds_enforced() {
        let g = tiny_graph();
        let mut r = TransferRates::zero(g.schema());
        assert!(r
            .set(TransferTypeId::forward(EdgeTypeId::new(0)), 1.5)
            .is_err());
        assert!(r
            .set(TransferTypeId::forward(EdgeTypeId::new(0)), -0.1)
            .is_err());
        assert!(r
            .set(TransferTypeId::forward(EdgeTypeId::new(0)), f64::NAN)
            .is_err());
    }

    #[test]
    fn cosine_similarity_basics() {
        let g = tiny_graph();
        let schema = g.schema();
        let a = dblp_rates(schema);
        assert!((a.cosine_similarity(&a) - 1.0).abs() < 1e-12);
        let z = TransferRates::zero(schema);
        assert_eq!(a.cosine_similarity(&z), 0.0);
        let u = TransferRates::uniform(schema, 0.3);
        let sim = a.cosine_similarity(&u);
        assert!(sim > 0.0 && sim < 1.0);
    }

    #[test]
    fn ensure_bidirectional_fills_zeros() {
        let g = tiny_graph();
        let mut r = dblp_rates(g.schema());
        r.ensure_bidirectional(1e-4);
        assert_eq!(r.get(TransferTypeId::backward(EdgeTypeId::new(0))), 1e-4);
        // Non-zero rates untouched.
        assert_eq!(r.get(TransferTypeId::forward(EdgeTypeId::new(0))), 0.7);
    }

    #[test]
    fn outgoing_sums_split_by_endpoint_type() {
        let g = tiny_graph();
        let schema = g.schema();
        let r = dblp_rates(schema);
        let sums = r.outgoing_sums(schema);
        // Paper: cites_f 0.7 + cites_b 0.0 + by_f 0.2 = 0.9
        assert!((sums[0] - 0.9).abs() < 1e-12);
        // Author: by_b 0.2
        assert!((sums[1] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn in_slot_classes_are_the_edge_classes_in_slot_order() {
        let g = tiny_graph();
        let tg = TransferGraph::build(&g);
        let mut rates = dblp_rates(g.schema());
        let all = tg.all_edges();
        let slices = all.in_slices();
        let pad = tg.class_count() as u16;
        let mut edges = 0;
        for (&c, &e) in slices.classes().iter().zip(slices.edges()) {
            if e == crate::slices::PAD_EDGE {
                assert_eq!(c, pad);
            } else {
                assert_eq!(c, tg.edge_classes()[e as usize]);
                edges += 1;
            }
        }
        assert_eq!(edges, tg.transfer_edge_count());
        for _ in 0..2 {
            let w = tg.weights(&rates);
            let alpha = tg.class_alpha(&rates);
            for node in 0..tg.node_count() {
                for slot in slices.lane(node) {
                    let (c, e) = (slices.classes()[slot], slices.edges()[slot]);
                    assert_eq!(alpha[c as usize].to_bits(), w[e as usize].to_bits());
                }
            }
            rates.ensure_bidirectional(1e-4);
        }
    }

    #[test]
    fn class_table_numbers_distinct_keys_in_ascending_order() {
        let table = class_table([(1, 2), (0, 5), (1, 2), (0, 1), (1, 1)], EQUATION_1_CLASSES);
        assert_eq!(table, vec![(0, 1), (0, 5), (1, 1), (1, 2)]);
        for (id, key) in table.iter().enumerate() {
            assert_eq!(class_id(&table, key) as usize, id);
        }
        assert!(class_table::<(u16, u32)>([], EQUATION_1_CLASSES).is_empty());
    }

    /// `MAX_CLASSES` keys over two transfer types, in the order a
    /// node-major scan would meet them, each twice.
    fn keys_up_to_the_bound() -> impl Iterator<Item = (u16, u32)> {
        let keys = (0..MAX_CLASSES as u32).map(|i| ((i % 2) as u16, i / 2 + 1));
        keys.clone().chain(keys)
    }

    /// The last id, `u16::MAX`, stays free for the padding class.
    #[test]
    fn class_table_holds_exactly_the_u16_bound() {
        let table = class_table(keys_up_to_the_bound(), EQUATION_1_CLASSES);
        assert_eq!(table.len(), MAX_CLASSES);
        assert_eq!(class_id(&table, &(0, 1)), 0);
        let last = (1, MAX_CLASSES as u32 / 2);
        assert_eq!(table.last(), Some(&last));
        assert_eq!(class_id(&table, &last), u16::MAX - 1);
    }

    #[test]
    #[should_panic(expected = "too many Equation 1 classes: more than 65535")]
    fn class_table_rejects_one_class_past_the_u16_bound() {
        let _ = class_table(keys_up_to_the_bound().chain([(2, 1)]), EQUATION_1_CLASSES);
    }

    #[test]
    fn class_alpha_is_rate_over_outdegree_for_every_edge() {
        let g = tiny_graph();
        let tg = TransferGraph::build(&g);
        // (cites_f, 2) at p0; (cites_b, 1) at p1, p2; (by_f, 1) at p0, p1;
        // (by_b, 2) at a0.
        assert_eq!(tg.class_count(), 4);
        let mut rates = dblp_rates(g.schema());
        for _ in 0..2 {
            let alpha = tg.class_alpha(&rates);
            assert_eq!(alpha.len(), tg.class_count());
            let w = tg.weights(&rates);
            for node in 0..tg.node_count() {
                let out: Vec<usize> = tg
                    .out_transfer(NodeId::from_usize(node))
                    .map(|(_, e)| e)
                    .collect();
                for &e in &out {
                    let tt = tg.edge_transfer_type(e);
                    let deg = out
                        .iter()
                        .filter(|&&f| tg.edge_transfer_type(f) == tt)
                        .count();
                    let eq1 = rates.get(tt) * (1.0 / deg as f64);
                    assert_eq!(
                        alpha[tg.edge_classes()[e] as usize].to_bits(),
                        eq1.to_bits()
                    );
                    assert_eq!(w[e].to_bits(), eq1.to_bits());
                }
            }
            rates.ensure_bidirectional(1e-4);
        }
    }

    #[test]
    fn heap_bytes_count_thirty_two_bytes_per_transfer_edge() {
        let g = tiny_graph();
        let tg = TransferGraph::build(&g);
        let (edges, nodes) = (tg.transfer_edge_count(), tg.node_count());
        let bare = 14 * edges + 16 * tg.class_count();
        assert_eq!(tg.heap_bytes(), bare, "no layout is built up front");
        let all = tg.all_edges();
        let slices = all.in_slices();
        let (padding, chunks) = (slices.slot_count() - edges, slices.chunk_count());
        assert_eq!(
            tg.heap_bytes(),
            32 * edges
                + 10 * padding
                + 4 * (nodes + 1)
                + 2 * nodes
                + 2 * 4 * chunks
                + 4 * (chunks + 1)
                + 16 * tg.class_count()
        );
    }

    /// A zero rate kills its classes: the live layout holds exactly the
    /// other edges, is built once per set of dead classes and counted in
    /// `heap_bytes`, and rates without a zero get the layout of every
    /// edge.
    #[test]
    fn live_edges_leave_out_dead_classes_and_are_built_once() {
        let g = tiny_graph();
        let tg = TransferGraph::build(&g);
        let rates = dblp_rates(g.schema());
        let alpha = tg.class_alpha(&rates);
        let live = tg.live_edges(&alpha);
        assert!(!live.same_layout(&tg.all_edges()));
        assert!(live.same_layout(&tg.live_edges(&alpha)), "kept");
        let bare = tg.heap_bytes();
        let slices = live.in_slices();
        let held: Vec<u32> = slices
            .edges()
            .iter()
            .copied()
            .filter(|&e| e != crate::slices::PAD_EDGE)
            .collect();
        let want: Vec<u32> = (0..tg.transfer_edge_count() as u32)
            .filter(|&e| alpha[tg.edge_classes()[e as usize] as usize] != 0.0)
            .collect();
        assert_eq!(
            want.len(),
            tg.transfer_edge_count() - 2,
            "cites back is dead"
        );
        let mut sorted = held.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, want);
        let mut out: Vec<u32> = (0..tg.node_count())
            .flat_map(|n| {
                live.out_transfer(NodeId::from_usize(n))
                    .map(|(_, e)| e as u32)
            })
            .collect();
        out.sort_unstable();
        assert_eq!(out, want);
        assert_eq!(tg.heap_bytes() - bare, {
            let n = tg.node_count();
            let (slots, chunks) = (slices.slot_count(), slices.chunk_count());
            8 * want.len() + 4 * (n + 1) + 10 * slots + 2 * n + 2 * 4 * chunks + 4 * (chunks + 1)
        });

        let mut all_live = rates.clone();
        all_live.ensure_bidirectional(1e-4);
        assert!(tg
            .live_edges(&tg.class_alpha(&all_live))
            .same_layout(&tg.all_edges()));
    }

    #[test]
    fn weight_invariant_holds() {
        let g = tiny_graph();
        let tg = TransferGraph::build(&g);
        let rates = dblp_rates(g.schema());
        assert!(tg.verify_weight_invariant(&rates));
    }
}
