//! The four workloads: which server each one runs against, which
//! requests the clients send, and in what order.
//!
//! A workload is one sequence of iterations, a pure function of
//! `(workload, seed, iteration index)`. The clients take the next index
//! from one shared cursor, so the server sees the sequence in order
//! however the two connections happen to be paced, and fill, measure,
//! traced and replay phases all walk it by index. The program under
//! test only ever sees the generated requests; the seed never reaches
//! it.

/// Client threads (and keep-alive connections) driving every workload —
/// `nproc` of the reference box.
pub const CLIENTS: usize = 2;
/// `k` of every query and feedback request.
pub const K: usize = 10;
/// `--cache-entries` of every server.
pub const CACHE_ENTRIES: usize = 64;
/// `--max-sessions` of every server.
pub const MAX_SESSIONS: usize = 64;

/// One served dataset of a workload.
pub struct DatasetDef {
    /// The `dataset` field queries carry; `None` for a single-dataset
    /// `orex serve --preset` server, where the field is omitted.
    pub name: Option<&'static str>,
    /// Generator preset, CLI spelling.
    pub preset: &'static str,
    /// Generator scale, CLI spelling (passed through verbatim).
    pub scale: &'static str,
    /// Distinct keywords drawn for this dataset.
    pub pool: usize,
}

/// What one iteration of a client's loop sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `POST /query` and nothing else.
    QueryOnly,
    /// The paper's loop: query → explain top-1 → feedback [top-1, top-2]
    /// → explain the new top-1 → feedback again.
    PaperLoop,
    /// Query → explain top-1 → one feedback [top-1, top-2].
    FleetMix,
}

/// How an iteration picks its keyword.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Draw {
    /// Seeded zipf(1.0) draws over the pool, after one covering pass
    /// that requests every key once.
    Zipf,
    /// One seeded permutation of the pool, walked in order again and
    /// again: a key's reuse distance is the whole rest of the pool.
    Cyclic,
}

/// The share of measured query responses that must (or must not) carry
/// `"cached":true` for the run to be valid.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CachedRule {
    AtLeast(f64),
    AtMost(f64),
    Any,
}

/// One workload definition.
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` and the README.
    pub why: &'static str,
    pub datasets: &'static [DatasetDef],
    /// True when the server is an `orex route` fleet of two workers.
    pub routed: bool,
    pub shape: Shape,
    pub draw: Draw,
    /// Untimed iterations before measuring.
    pub fill_iterations: usize,
    pub cached: CachedRule,
}

pub const WORKLOADS: &[Spec] = &[
    Spec {
        name: "cache_hot",
        why: "8 hot keys on 87k nodes: every query is a cache hit, so only transport, parse, snapshot clone, resume, top-k and JSON are left",
        datasets: &[DatasetDef {
            name: None,
            preset: "dblp-complete",
            scale: "0.1",
            pool: 8,
        }],
        routed: false,
        shape: Shape::QueryOnly,
        draw: Draw::Zipf,
        fill_iterations: 8,
        cached: CachedRule::AtLeast(0.98),
    },
    Spec {
        name: "live_rank",
        why: "96 keys visited cyclically against a 64-entry cache: every query misses, so matrix build and power iteration dominate",
        datasets: &[DatasetDef {
            name: None,
            preset: "dblp-complete",
            scale: "0.1",
            pool: 96,
        }],
        routed: false,
        shape: Shape::QueryOnly,
        draw: Draw::Cyclic,
        fill_iterations: 96,
        cached: CachedRule::AtMost(0.02),
    },
    Spec {
        name: "feedback_loop",
        why: "the paper's loop on DBLPtop: query, explain, feedback, explain, feedback; explain and reformulate do nearly all the work",
        datasets: &[DatasetDef {
            name: None,
            preset: "dblp-top",
            scale: "1.0",
            pool: 16,
        }],
        routed: false,
        shape: Shape::PaperLoop,
        draw: Draw::Cyclic,
        fill_iterations: 16,
        cached: CachedRule::Any,
    },
    Spec {
        name: "fleet_mixed",
        why: "two datasets behind orex route, query-explain-feedback: every request crosses the router, so ring lookup, session pinning and the pooled hop do work",
        datasets: &[
            DatasetDef {
                name: Some("dblp"),
                preset: "dblp-top",
                scale: "0.5",
                pool: 8,
            },
            DatasetDef {
                name: Some("bio"),
                preset: "ds7-cancer",
                scale: "0.5",
                pool: 8,
            },
        ],
        routed: true,
        shape: Shape::FleetMix,
        draw: Draw::Zipf,
        fill_iterations: 32,
        cached: CachedRule::Any,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: the benchmark's only source of randomness.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A uniform `[0, 1)` draw addressed by position instead of by stream
/// state, so any phase can ask for iteration `i` directly.
fn draw_at(seed: u64, iteration: u64, lane: u64) -> f64 {
    let mut rng = SplitMix64::new(
        seed ^ iteration.wrapping_mul(0xA076_1D64_78BD_642F)
            ^ lane.wrapping_mul(0xE703_7ED1_A0B4_28DB),
    );
    rng.next_f64()
}

/// Cumulative zipf(`s`) distribution over ranks `0..n`.
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|rank| 1.0 / (rank as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn pick(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

/// A seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// One iteration of the workload's loop, before any response is known.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Iteration {
    /// Index into the workload's datasets.
    pub dataset: usize,
    /// Index into that dataset's keyword pool.
    pub key: usize,
}

/// A workload bound to a seed and to the keyword pools the served
/// datasets actually answer.
pub struct Plan {
    pub spec: &'static Spec,
    seed: u64,
    /// Per dataset: the pool in seeded order (rank 0 is the hottest key
    /// under zipf, the first visited under cyclic).
    pools: Vec<Vec<String>>,
    dataset_cdf: Vec<f64>,
    key_cdfs: Vec<Vec<f64>>,
}

impl Plan {
    /// `candidates[d]` lists, in a fixed order, keywords dataset `d`
    /// answers; the first `pool` of them form the pool and the seed only
    /// reorders them.
    pub fn new(spec: &'static Spec, seed: u64, candidates: &[Vec<String>]) -> Result<Self, String> {
        let mut rng = SplitMix64::new(seed);
        let mut pools = Vec::new();
        for (def, found) in spec.datasets.iter().zip(candidates) {
            if found.len() < def.pool {
                return Err(format!(
                    "{}: dataset {} answers only {} of the {} keywords the pool needs",
                    spec.name,
                    def.preset,
                    found.len(),
                    def.pool
                ));
            }
            let order = permutation(def.pool, &mut rng);
            pools.push(order.iter().map(|&i| found[i].clone()).collect());
        }
        Ok(Self {
            spec,
            seed,
            dataset_cdf: zipf_cdf(spec.datasets.len(), 1.0),
            key_cdfs: spec
                .datasets
                .iter()
                .map(|d| zipf_cdf(d.pool, 1.0))
                .collect(),
            pools,
        })
    }

    /// Distinct `(dataset, key)` pairs across all pools.
    pub fn pairs(&self) -> usize {
        self.pools.iter().map(Vec::len).sum()
    }

    /// The `slot`-th `(dataset, key)` pair, datasets interleaved.
    pub fn pair(&self, slot: usize) -> Iteration {
        let dataset = slot % self.pools.len();
        Iteration {
            dataset,
            key: (slot / self.pools.len()) % self.pools[dataset].len(),
        }
    }

    /// Iteration `i` of the workload's sequence.
    pub fn iteration(&self, i: u64) -> Iteration {
        match self.spec.draw {
            // One dataset, so slots are the pool's keys in order.
            Draw::Cyclic => self.pair(i as usize),
            Draw::Zipf if (i as usize) < self.pairs() => self.pair(i as usize),
            Draw::Zipf => {
                let dataset = pick(&self.dataset_cdf, draw_at(self.seed, i, 1));
                Iteration {
                    dataset,
                    key: pick(&self.key_cdfs[dataset], draw_at(self.seed, i, 2)),
                }
            }
        }
    }

    pub fn keyword(&self, it: Iteration) -> &str {
        &self.pools[it.dataset][it.key]
    }

    /// The JSON body of the iteration's `POST /query`.
    pub fn query_body(&self, it: Iteration) -> String {
        let keyword = self.keyword(it);
        match self.spec.datasets[it.dataset].name {
            Some(dataset) => {
                format!("{{\"query\":\"{keyword}\",\"dataset\":\"{dataset}\",\"k\":{K}}}")
            }
            None => format!("{{\"query\":\"{keyword}\",\"k\":{K}}}"),
        }
    }
}

/// The JSON body of a `POST /feedback`.
pub fn feedback_body(objects: &[u64]) -> String {
    let ids: Vec<String> = objects.iter().map(u64::to_string).collect();
    format!("{{\"objects\":[{}],\"k\":{K}}}", ids.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::request_bytes;

    fn candidates(spec: &Spec) -> Vec<Vec<String>> {
        spec.datasets
            .iter()
            .map(|d| (0..d.pool + 5).map(|i| format!("kw{i}")).collect())
            .collect()
    }

    fn request_stream(spec: &'static Spec, seed: u64) -> Vec<u8> {
        let plan = Plan::new(spec, seed, &candidates(spec)).unwrap();
        let mut bytes = Vec::new();
        for i in 0..400 {
            let it = plan.iteration(i);
            bytes.extend(request_bytes("POST", "/query", Some(&plan.query_body(it))));
        }
        bytes
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_order() {
        for spec in WORKLOADS {
            assert_eq!(
                request_stream(spec, 42),
                request_stream(spec, 42),
                "{}",
                spec.name
            );
            assert_ne!(
                request_stream(spec, 42),
                request_stream(spec, 43),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn zipf_workloads_cover_every_pair_before_drawing() {
        for spec in WORKLOADS.iter().filter(|w| w.draw == Draw::Zipf) {
            let plan = Plan::new(spec, 7, &candidates(spec)).unwrap();
            assert!(plan.pairs() <= spec.fill_iterations);
            let seen: std::collections::HashSet<_> = (0..plan.pairs() as u64)
                .map(|i| {
                    let it = plan.iteration(i);
                    (it.dataset, it.key)
                })
                .collect();
            assert_eq!(seen.len(), plan.pairs(), "{}", spec.name);
        }
    }

    #[test]
    fn live_rank_never_repeats_a_key_within_the_cache_size() {
        let spec = find("live_rank").unwrap();
        let plan = Plan::new(spec, 42, &candidates(spec)).unwrap();
        let sequence: Vec<usize> = (0..800).map(|i| plan.iteration(i).key).collect();
        for (at, key) in sequence.iter().enumerate() {
            if let Some(back) = sequence[..at].iter().rposition(|k| k == key) {
                let between: std::collections::HashSet<_> = sequence[back + 1..at].iter().collect();
                // Two requests in flight may swap places, so leave slack.
                assert!(
                    between.len() >= CACHE_ENTRIES + CLIENTS,
                    "key {key} re-requested after only {} distinct keys",
                    between.len()
                );
            }
        }
    }

    #[test]
    fn zipf_draws_favour_low_ranks() {
        let cdf = zipf_cdf(8, 1.0);
        assert_eq!(pick(&cdf, 0.0), 0);
        assert_eq!(pick(&cdf, 0.999_999), 7);
        assert!((cdf[0] - 1.0 / 2.717_857).abs() < 1e-3);
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = permutation(96, &mut SplitMix64::new(1));
        p.sort_unstable();
        assert_eq!(p, (0..96).collect::<Vec<_>>());
    }
}
