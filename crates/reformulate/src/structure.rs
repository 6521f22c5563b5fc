//! Structure-based reformulation (Section 5.2, Equation 13).
//!
//! If edges of a type carry large authority in the explaining subgraph of
//! a feedback object, the user implicitly voted for that edge type. The
//! authority transfer rate of each type present in the subgraph is boosted
//! proportionally to the flow it carried:
//!
//! ```text
//! a'(e_S) = (1 + C_f · F̂(e_S)) · a(e_S)       (Eq. 13)
//! ```
//!
//! with `F(e_S) = Σ flows of type-e_S edges in G_v^Q`, followed by the
//! paper's four normalization steps:
//!
//! 1. normalize the `F` factors so the maximum is 1;
//! 2. apply Equation 13;
//! 3. normalize the resulting rates so the maximum is 1;
//! 4. rescale each schema node type's outgoing rates to sum to at most 1
//!    (required for ObjectRank2 convergence).

use orex_explain::Explanation;
use orex_graph::{SchemaGraph, TransferGraph, TransferRates};

/// Parameters of structure-based reformulation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StructureParams {
    /// Authority-transfer-rate adjustment factor `C_f ∈ [0, 1]`
    /// (typically 0.5; 0 disables structure reformulation). Larger values
    /// train the rates faster but overshoot sooner (Figure 11).
    pub rate_factor: f64,
    /// Measure `F` on the edges of the strongest `top_paths` flow paths
    /// instead of the whole subgraph (0 = whole subgraph). Section 4's
    /// practice — the online demo keeps "only the paths with high
    /// authority flow", and those pruned subgraphs drive reformulation —
    /// matters here: the full radius-L cone is saturated with diffuse
    /// cycle flow that votes for *every* edge type roughly equally, while
    /// the dominant paths carry the type signal the user's click implies.
    pub top_paths: usize,
}

impl Default for StructureParams {
    fn default() -> Self {
        Self {
            rate_factor: 0.5,
            top_paths: 8,
        }
    }
}

impl StructureParams {
    /// Setting with a bare rate factor (whole-subgraph measurement).
    pub fn unpruned(rate_factor: f64) -> Self {
        Self {
            rate_factor,
            top_paths: 0,
        }
    }
}

/// Sums the adjusted flows per transfer-edge type over an explaining
/// subgraph: the raw `F(e_S)` factors of Equation 13, densely indexed by
/// `TransferTypeId::dense_index`. Multi-feedback aggregation
/// (Equation 15) adds these vectors across feedback objects.
pub fn edge_type_flows(explanation: &Explanation, graph: &TransferGraph) -> Vec<f64> {
    let mut flows = vec![0.0; graph.transfer_type_count()];
    for e in explanation.edges() {
        let tt = graph.edge_transfer_type(e.transfer_edge);
        flows[tt.dense_index()] += e.adjusted_flow;
    }
    flows
}

/// Like [`edge_type_flows`], but measured only on the edges of the
/// `k` strongest flow paths of the explanation (see
/// [`StructureParams::top_paths`]). Parallel edges between the same node
/// pair contribute their strongest representative — the one the path
/// names for the hop — matching what the pruned display shows the user.
pub fn edge_type_flows_pruned(
    explanation: &Explanation,
    graph: &TransferGraph,
    k: usize,
) -> Vec<f64> {
    let mut flows = vec![0.0; graph.transfer_type_count()];
    let edges = explanation.edges();
    let mut counted = vec![false; edges.len()];
    for path in orex_explain::top_paths(explanation, k) {
        for e in path.edges {
            if std::mem::replace(&mut counted[e], true) {
                continue; // shared prefix edges count once
            }
            let tt = graph.edge_transfer_type(edges[e].transfer_edge);
            flows[tt.dense_index()] += edges[e].adjusted_flow;
        }
    }
    flows
}

/// Applies Equation 13 plus the four-step normalization, producing a new
/// valid rates vector. `type_flows` is the (possibly aggregated) raw `F`
/// vector from [`edge_type_flows`].
pub fn structure_reformulate(
    rates: &TransferRates,
    type_flows: &[f64],
    schema: &SchemaGraph,
    params: &StructureParams,
) -> TransferRates {
    assert_eq!(
        type_flows.len(),
        schema.edge_type_count() * 2,
        "type flow vector dimension mismatch"
    );
    if params.rate_factor == 0.0 {
        return rates.clone();
    }

    // Step 1: normalize F to max 1.
    let max_f = type_flows.iter().copied().fold(0.0, f64::max);
    let f_hat: Vec<f64> = if max_f > 0.0 {
        type_flows.iter().map(|&f| f / max_f).collect()
    } else {
        vec![0.0; type_flows.len()]
    };

    // Step 2: Equation 13.
    let mut new_rates: Vec<f64> = rates
        .as_slice()
        .iter()
        .zip(&f_hat)
        .map(|(&a, &f)| (1.0 + params.rate_factor * f) * a)
        .collect();

    // Step 3: normalize rates so the maximum is exactly 1, "as in Step 1".
    // This is a *uniform* scaling — it fixes the canonical scale without
    // touching relative proportions.
    let max_a = new_rates.iter().copied().fold(0.0, f64::max);
    if max_a > 0.0 {
        for a in &mut new_rates {
            *a /= max_a;
        }
    }

    // Step 4: scale so every schema node type's outgoing rates sum to at
    // most 1. This must also be a *uniform* scaling (divide everything by
    // the worst node type's sum): a per-owner rescale would let rate
    // types owned by low-fanout node types ratchet upward round after
    // round — the paper's Example 2 (cont'd), where AP *drops* from 0.2
    // to 0.16 even though the Author type's budget was never exceeded,
    // shows the intended semantics. The combination pins the busiest node
    // type's outgoing sum at 1 (the example's reformulated Paper sum is
    // 0.99).
    // orex::allow(ORX008): `new_rates` is built two steps above with
    // exactly `schema.rate_type_count()` entries, so the dimension
    // check in `from_dense` cannot fail here.
    let mut out = TransferRates::from_dense(schema, new_rates).expect("dimension checked above");
    let worst = out.outgoing_sums(schema).into_iter().fold(0.0f64, f64::max);
    if worst > 1.0 {
        for a in out.as_mut_slice() {
            *a /= worst;
        }
    }
    debug_assert!(out.validate(schema).is_ok());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use orex_authority::{power_iteration, BaseSet, RankParams, TransitionMatrix};
    use orex_explain::ExplainParams;
    use orex_graph::{DataGraphBuilder, EdgeTypeId, NodeId, SchemaGraph, TransferTypeId};

    /// Two-type graph: papers cite papers and have authors. Base at a
    /// paper, feedback at a paper reached through citations — citation
    /// edges carry all the flow, author edges none.
    fn setup() -> (SchemaGraph, TransferGraph, TransferRates, Explanation) {
        let mut schema = SchemaGraph::new();
        let p = schema.add_node_type("Paper").unwrap();
        let a = schema.add_node_type("Author").unwrap();
        let cites = schema.add_edge_type(p, p, "cites").unwrap();
        let by = schema.add_edge_type(p, a, "by").unwrap();
        let mut b = DataGraphBuilder::new(schema);
        let p0 = b.add_node(p, vec![]).unwrap();
        let p1 = b.add_node(p, vec![]).unwrap();
        let p2 = b.add_node(p, vec![]).unwrap();
        let a0 = b.add_node(a, vec![]).unwrap();
        b.add_edge(p0, p1, cites).unwrap();
        b.add_edge(p1, p2, cites).unwrap();
        b.add_edge(p1, a0, by).unwrap();
        let g = b.freeze();
        let schema = g.schema().clone();
        let mut rates = TransferRates::uniform(&schema, 0.3);
        // Keep per-node sums valid: papers have cites_f + cites_b + by_f.
        rates
            .set(TransferTypeId::backward(EdgeTypeId::new(0)), 0.1)
            .unwrap();
        rates.validate(&schema).unwrap();
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
        (schema, tg, rates, expl)
    }

    #[test]
    fn flows_attributed_to_types() {
        let (_, tg, _, expl) = setup();
        let flows = edge_type_flows(&expl, &tg);
        let cites_fwd = TransferTypeId::forward(EdgeTypeId::new(0)).dense_index();
        let by_fwd = TransferTypeId::forward(EdgeTypeId::new(1)).dense_index();
        assert!(flows[cites_fwd] > 0.0, "citation flow present");
        // Author edges carry only the small paper -> author -> paper
        // detour flow; the direct citation path dominates.
        assert!(
            flows[cites_fwd] > 5.0 * flows[by_fwd],
            "cites {:} vs by {:}",
            flows[cites_fwd],
            flows[by_fwd]
        );
    }

    #[test]
    fn boosted_types_gain_relative_to_unused() {
        let (schema, tg, rates, expl) = setup();
        let flows = edge_type_flows(&expl, &tg);
        let new = structure_reformulate(&rates, &flows, &schema, &StructureParams::default());
        let cites_f = TransferTypeId::forward(EdgeTypeId::new(0));
        let by_f = TransferTypeId::forward(EdgeTypeId::new(1));
        let ratio_before = rates.get(cites_f) / rates.get(by_f);
        let ratio_after = new.get(cites_f) / new.get(by_f);
        assert!(
            ratio_after > ratio_before,
            "cites/by ratio must increase: {ratio_before} -> {ratio_after}"
        );
    }

    #[test]
    fn result_is_always_valid() {
        let (schema, tg, rates, expl) = setup();
        let flows = edge_type_flows(&expl, &tg);
        for cf in [0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
            let new =
                structure_reformulate(&rates, &flows, &schema, &StructureParams::unpruned(cf));
            new.validate(&schema).unwrap();
        }
    }

    #[test]
    fn zero_factor_is_identity() {
        let (schema, tg, rates, expl) = setup();
        let flows = edge_type_flows(&expl, &tg);
        let new = structure_reformulate(&rates, &flows, &schema, &StructureParams::unpruned(0.0));
        assert_eq!(new, rates);
    }

    #[test]
    fn zero_flows_keep_relative_rates() {
        let (schema, _, rates, _) = setup();
        let flows = vec![0.0; schema.edge_type_count() * 2];
        let new = structure_reformulate(&rates, &flows, &schema, &StructureParams::default());
        // With F = 0 everywhere, Eq. 13 is the identity; the canonical
        // rescaling (max rate / node sums) may change the absolute scale
        // but never the direction of the vector.
        assert!((new.cosine_similarity(&rates) - 1.0).abs() < 1e-12);
        let ratio = new.as_slice()[0] / rates.as_slice()[0];
        for (a, b) in new.as_slice().iter().zip(rates.as_slice()) {
            assert!((a - b * ratio).abs() < 1e-12, "not a uniform rescale");
        }
        new.validate(&schema).unwrap();
    }

    #[test]
    fn normalization_pins_busiest_node_sum_at_one() {
        let (schema, tg, rates, expl) = setup();
        let flows = edge_type_flows(&expl, &tg);
        let new = structure_reformulate(&rates, &flows, &schema, &StructureParams::default());
        let worst = new
            .outgoing_sums(&schema)
            .into_iter()
            .fold(0.0f64, f64::max);
        assert!(
            (worst - 1.0).abs() < 1e-9,
            "canonical form pins the max outgoing sum at 1, got {worst}"
        );
    }

    #[test]
    fn repeated_training_converges_toward_flow_carrying_types() {
        let (schema, tg, mut rates, _) = setup();
        // Re-run the full loop: rates -> rank -> explain -> adjust, the
        // inner loop of the Figure 11 training experiment.
        for _ in 0..4 {
            let m = TransitionMatrix::new(&tg, &rates);
            let base = BaseSet::uniform([0]).unwrap();
            let rank = power_iteration(
                &m,
                &base,
                &RankParams {
                    epsilon: 1e-12,
                    max_iterations: 2000,
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
            let flows = edge_type_flows(&expl, &tg);
            rates = structure_reformulate(&rates, &flows, &schema, &StructureParams::default());
            rates.validate(&schema).unwrap();
        }
        let cites_f = rates.get(TransferTypeId::forward(EdgeTypeId::new(0)));
        let by_f = rates.get(TransferTypeId::forward(EdgeTypeId::new(1)));
        assert!(
            cites_f > 2.0 * by_f,
            "after training, cites ({cites_f}) should dominate by ({by_f})"
        );
    }

    #[test]
    fn pruned_flows_count_shared_hops_once_and_parallel_pairs_by_their_strongest_edge() {
        // s -> a, then a -> t twice in parallel (cites and extends) and
        // the detour a -> b -> t. The two strongest paths are s a t and
        // s a b t: they share the hop s -> a, and the first crosses the
        // parallel pair.
        let mut schema = SchemaGraph::new();
        let p = schema.add_node_type("Paper").unwrap();
        let cites = schema.add_edge_type(p, p, "cites").unwrap();
        let extends = schema.add_edge_type(p, p, "extends").unwrap();
        let mut bld = DataGraphBuilder::new(schema);
        let [s, a, b, t] = [(); 4].map(|()| bld.add_node(p, vec![]).unwrap());
        bld.add_edge(s, a, cites).unwrap();
        bld.add_edge(a, t, extends).unwrap();
        bld.add_edge(a, t, cites).unwrap();
        bld.add_edge(a, b, cites).unwrap();
        bld.add_edge(b, t, cites).unwrap();
        let g = bld.freeze();
        let mut rates = TransferRates::zero(g.schema());
        rates.set(TransferTypeId::forward(cites), 0.5).unwrap();
        rates.set(TransferTypeId::forward(extends), 0.2).unwrap();
        let tg = TransferGraph::build(&g);
        let m = TransitionMatrix::new(&tg, &rates);
        let base = BaseSet::uniform([s.raw()]).unwrap();
        let rank = power_iteration(&m, &base, &RankParams::default(), None);
        let expl = Explanation::explain(
            &tg,
            &rates,
            &rank.scores,
            base.nodes(),
            t,
            &ExplainParams::default(),
        )
        .unwrap();

        let paths = orex_explain::top_paths(&expl, 8);
        let nodes: Vec<&[NodeId]> = paths.iter().map(|p| &p.nodes[..]).collect();
        assert_eq!(nodes, [&[s, a, t][..], &[s, a, b, t][..]]);

        let flow = |src: NodeId, dst: NodeId, ty: EdgeTypeId| {
            let mut matching = expl.edges().iter().filter(|e| {
                (e.source, e.target) == (src, dst)
                    && tg.edge_transfer_type(e.transfer_edge) == TransferTypeId::forward(ty)
            });
            let flow = matching.next().unwrap().adjusted_flow;
            assert!(matching.next().is_none());
            flow
        };
        // alpha(a -> t) is 0.25 by citation and 0.2 by extension.
        assert!(flow(a, t, cites) > flow(a, t, extends));
        let mut by_hand = vec![0.0; tg.transfer_type_count()];
        by_hand[TransferTypeId::forward(cites).dense_index()] =
            flow(s, a, cites) + flow(a, t, cites) + flow(a, b, cites) + flow(b, t, cites);
        assert_eq!(edge_type_flows_pruned(&expl, &tg, 8), by_hand);
        // The whole subgraph also hears the weaker parallel edge.
        let whole = edge_type_flows(&expl, &tg);
        assert_eq!(
            whole[TransferTypeId::forward(extends).dense_index()],
            flow(a, t, extends)
        );
    }

    /// Equation 13 multiplies a rate, and steps 3 and 4 divide every rate
    /// by one positive number, so a zero rate stays exactly zero and a
    /// positive one stays positive over any number of rounds, whatever
    /// flow its type is credited: the set of zero-rate types, and with
    /// it the live-edge layout a session sweeps, never changes.
    #[test]
    fn zero_rates_stay_zero_over_rounds() {
        let (schema, _, mut rates, _) = setup();
        let pp_back = TransferTypeId::backward(EdgeTypeId::new(0));
        rates.set(pp_back, 0.0).unwrap();
        let zeros =
            |r: &TransferRates| -> Vec<bool> { r.as_slice().iter().map(|&a| a == 0.0).collect() };
        let before = zeros(&rates);
        for round in 0..6 {
            // Every type credited, the dead one most of all.
            let flows: Vec<f64> = (0..rates.len())
                .map(|t| {
                    if t == pp_back.dense_index() {
                        5.0
                    } else {
                        1.0 + t as f64
                    }
                })
                .collect();
            let params = StructureParams::unpruned([0.1, 0.5, 1.0][round % 3]);
            rates = structure_reformulate(&rates, &flows, &schema, &params);
            assert_eq!(
                rates.get(pp_back).to_bits(),
                0.0f64.to_bits(),
                "round {round}"
            );
            assert_eq!(zeros(&rates), before, "round {round}");
        }
    }
}
