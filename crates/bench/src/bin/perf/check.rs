//! Output correctness: what a response must look like, and the
//! in-process reference the sampled ones must agree with.

use crate::client::numbers_after;
use crate::workload::{Spec, K};
use orex_core::{ObjectRankSystem, QuerySession, ResultObject, SystemConfig};
use orex_datagen::{synthetic_word, Preset, DOMAIN_KEYWORDS};
use orex_graph::NodeId;
use orex_ir::Query;
use std::time::{Duration, Instant};

/// Scores must agree with the reference to this relative tolerance.
const SCORE_TOLERANCE: f64 = 1e-9;

/// The ranked list of a query or feedback response.
#[derive(Clone, Debug, PartialEq)]
pub struct TopK {
    pub nodes: Vec<u64>,
    pub scores: Vec<f64>,
}

impl TopK {
    /// Reads the `results` array of a response body.
    pub fn parse(body: &str) -> Result<Self, String> {
        let nodes: Vec<u64> = numbers_after(body, "node")
            .map(|n| n.parse().map_err(|_| format!("bad node id {n:?}")))
            .collect::<Result<_, _>>()?;
        let scores: Vec<f64> = numbers_after(body, "score")
            .map(|s| s.parse().map_err(|_| format!("bad score {s:?}")))
            .collect::<Result<_, _>>()?;
        if nodes.len() != scores.len() {
            return Err(format!(
                "{} node ids but {} scores",
                nodes.len(),
                scores.len()
            ));
        }
        Ok(Self { nodes, scores })
    }

    /// Exactly `k` results, scores finite and non-increasing.
    pub fn check_shape(&self) -> Result<(), String> {
        if self.nodes.len() != K {
            return Err(format!("{} results, expected k = {K}", self.nodes.len()));
        }
        if self.scores.iter().any(|s| !s.is_finite()) {
            return Err("a score is not finite".into());
        }
        if let Some(w) = self.scores.windows(2).find(|w| w[0] < w[1]) {
            return Err(format!("scores increase from {} to {}", w[0], w[1]));
        }
        Ok(())
    }

    /// Same node ids in the same order, scores within tolerance.
    pub fn matches(&self, reference: &[ResultObject]) -> Result<(), String> {
        let ids: Vec<u64> = reference.iter().map(|r| u64::from(r.node.raw())).collect();
        if self.nodes != ids {
            return Err(format!(
                "top-k ids {:?} differ from the reference {ids:?}",
                self.nodes
            ));
        }
        for (got, want) in self.scores.iter().zip(reference) {
            if (got - want.score).abs() > SCORE_TOLERANCE * want.score.abs() {
                return Err(format!(
                    "score {got} differs from the reference {}",
                    want.score
                ));
            }
        }
        Ok(())
    }
}

/// FNV-1a over a stream of u64s.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    pub fn add(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The workload's datasets built in this process: the reference that
/// sampled responses are compared with, and the subject of the replay.
pub struct Reference {
    pub systems: Vec<ObjectRankSystem>,
    /// Summed `Preset::generate` time.
    pub generate: Duration,
    /// Summed `ObjectRankSystem::new` time.
    pub system_build: Duration,
}

impl Reference {
    pub fn build(spec: &Spec) -> Result<Self, String> {
        let mut reference = Self {
            systems: Vec::new(),
            generate: Duration::ZERO,
            system_build: Duration::ZERO,
        };
        for d in spec.datasets {
            let preset =
                Preset::parse(d.preset).ok_or_else(|| format!("unknown preset {}", d.preset))?;
            let scale: f64 = d
                .scale
                .parse()
                .map_err(|_| format!("bad scale {}", d.scale))?;
            let t = Instant::now();
            let dataset = preset.generate(scale);
            reference.generate += t.elapsed();
            let t = Instant::now();
            reference.systems.push(ObjectRankSystem::new(
                dataset.graph,
                dataset.ground_truth,
                SystemConfig::default(),
            ));
            reference.system_build += t.elapsed();
        }
        Ok(reference)
    }

    /// Per dataset, the keywords it can rank, in the fixed order
    /// `DOMAIN_KEYWORDS` then `synthetic_word(0..)`: a keyword qualifies
    /// when its analyzed term has at least three postings.
    pub fn candidates(&self, spec: &Spec) -> Vec<Vec<String>> {
        self.systems
            .iter()
            .zip(spec.datasets)
            .map(|(system, def)| {
                let index = system.index();
                DOMAIN_KEYWORDS
                    .iter()
                    .map(|kw| kw.to_string())
                    .chain((0..4096).map(synthetic_word))
                    .filter(|kw| {
                        index
                            .analyzer()
                            .analyze_term(kw)
                            .and_then(|term| index.term_id(&term))
                            .is_some_and(|tid| index.df(tid) >= 3)
                    })
                    .take(def.pool)
                    .collect()
            })
            .collect()
    }

    /// Starts the reference session for `keyword` on dataset `dataset`.
    pub fn start(&self, dataset: usize, keyword: &str) -> Result<QuerySession<'_>, String> {
        QuerySession::start(&self.systems[dataset], &Query::parse(keyword))
            .map_err(|e| format!("reference query {keyword:?}: {e}"))
    }
}

/// The feedback objects a client marks: the first two results.
pub fn feedback_objects(top: &TopK) -> Vec<u64> {
    top.nodes.iter().copied().take(2).collect()
}

pub fn node_ids(raw: &[u64]) -> Vec<NodeId> {
    raw.iter().map(|&n| NodeId::new(n as u32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(pairs: &[(u64, f64)]) -> String {
        let results: Vec<String> = pairs
            .iter()
            .map(|(n, s)| format!("{{\"node\":{n},\"score\":{s},\"label\":\"Paper\"}}"))
            .collect();
        format!(
            "{{\"session\":3,\"cached\":false,\"results\":[{}]}}",
            results.join(",")
        )
    }

    #[test]
    fn shape_check_wants_k_sorted_results() {
        let good: Vec<(u64, f64)> = (0..K as u64).map(|i| (i, 1.0 / (i + 1) as f64)).collect();
        assert!(TopK::parse(&body(&good)).unwrap().check_shape().is_ok());
        assert!(TopK::parse(&body(&good[..K - 1]))
            .unwrap()
            .check_shape()
            .is_err());
        let mut unsorted = good.clone();
        unsorted.swap(2, 3);
        assert!(TopK::parse(&body(&unsorted))
            .unwrap()
            .check_shape()
            .is_err());
        // Ties are allowed.
        let mut tied = good;
        tied[4].1 = tied[3].1;
        assert!(TopK::parse(&body(&tied)).unwrap().check_shape().is_ok());
    }

    #[test]
    fn digest_depends_on_order() {
        let digest = |values: &[u64]| {
            let mut d = Digest::new();
            values.iter().for_each(|&v| d.add(v));
            d.hex()
        };
        assert_eq!(digest(&[1, 2, 3]), digest(&[1, 2, 3]));
        assert_ne!(digest(&[1, 2, 3]), digest(&[3, 2, 1]));
        assert_eq!(digest(&[]), "cbf29ce484222325");
    }
}
