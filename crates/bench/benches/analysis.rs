//! Analysis benchmarks over a generated trace: trace generation (whole
//! and per thread count) and path analysis of the longest chain. The
//! pipeline itself is timed end to end and per layer by `perfbench/`.

use certchain_bench::Lab;
use certchain_chainlab::matchpath::analyze;
use certchain_chainlab::CrossSignRegistry;
use certchain_workload::{CampusProfile, CampusTrace};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn tiny_profile() -> CampusProfile {
    // Smaller than `quick` so per-iteration time stays sane under Criterion.
    CampusProfile {
        seed: 7,
        chain_scale: 0.0005,
        conn_scale: 0.00005,
        public_chains: 100,
        public_conns_per_chain: 2,
    }
}

fn bench_trace_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload");
    group.sample_size(10);
    group.bench_function("generate_tiny_trace", |b| {
        b.iter(|| CampusTrace::generate(tiny_profile()))
    });
    group.finish();
}

fn bench_trace_generation_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload/threads");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| b.iter(|| CampusTrace::generate_with(tiny_profile(), threads)),
        );
    }
    group.finish();
}

fn bench_matchpath(c: &mut Criterion) {
    let lab = Lab::new(tiny_profile());
    // Pick a long hybrid chain for a representative path analysis.
    let chain = lab
        .analysis
        .chains
        .iter()
        .max_by_key(|c| c.certs.len())
        .expect("chains exist");
    let registry = CrossSignRegistry::new();
    c.bench_function("matchpath/longest_chain", |b| {
        b.iter(|| analyze(std::hint::black_box(&chain.certs), &registry))
    });
}

criterion_group!(
    benches,
    bench_trace_generation,
    bench_trace_generation_threads,
    bench_matchpath
);
criterion_main!(benches);
