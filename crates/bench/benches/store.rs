//! Criterion bench: snapshot encode/decode throughput — how fast datasets
//! and precomputed rank vectors persist (the Section 6.2 precomputation
//! pipeline's I/O side).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use orex_datagen::{generate_dblp, DblpConfig, TextConfig};
use orex_store::{decode_graph, encode_graph, PrecomputedRanks};
use std::hint::black_box;

fn bench_store(c: &mut Criterion) {
    let dataset = generate_dblp(
        "bench",
        &DblpConfig {
            papers: 4_000,
            authors: 1_800,
            conferences: 20,
            years_per_conference: 10,
            text: TextConfig {
                vocab_size: 4_000,
                topics: 12,
                ..TextConfig::default()
            },
            ..DblpConfig::default()
        },
    );
    let encoded = encode_graph(&dataset.graph);

    let mut group = c.benchmark_group("snapshot");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("encode_graph", |b| {
        b.iter(|| black_box(encode_graph(black_box(&dataset.graph))).len())
    });
    group.bench_function("decode_graph", |b| {
        b.iter(|| {
            black_box(decode_graph(black_box(encoded.clone())))
                .unwrap()
                .node_count()
        })
    });
    group.finish();

    let n = dataset.graph.node_count();
    let mut ranks = PrecomputedRanks::new(0, n, 0.85, 0.002);
    let vec: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
    for term in ["data", "query", "mining", "index", "graph", "stream"] {
        ranks.insert(term, 1.0, &vec);
    }
    let encoded = ranks.encode();
    let mut group = c.benchmark_group("precomputed_ranks");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("encode", |b| b.iter(|| black_box(ranks.encode()).len()));
    group.bench_function("decode", |b| {
        b.iter(|| {
            PrecomputedRanks::decode(black_box(encoded.clone()))
                .unwrap()
                .len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
