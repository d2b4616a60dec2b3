//! B5 — admission-control churn: the incremental warm-started admission
//! controller on the shared churn script (arrivals and departures on the
//! converging star).
//!
//! Decisions and bounds are byte-identical to a cold analysis of every
//! trial set (the churn replay asserts as much in its tests); this bench
//! measures what the controller's decisions cost in wall clock.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use gmf_analysis::AnalysisConfig;
use gmf_bench::{churn_bench_config, CHURN_BENCH_SEED};
use gmf_workloads::run_churn;

fn bench_admission_churn(c: &mut Criterion) {
    let config = churn_bench_config();
    let analysis = AnalysisConfig::paper();
    let mut group = c.benchmark_group("churn_admission");
    group.bench_function(BenchmarkId::from_parameter("warm"), |b| {
        b.iter(|| black_box(run_churn(black_box(CHURN_BENCH_SEED), &config, &analysis)))
    });
    group.finish();
}

criterion_group!(benches, bench_admission_churn);
criterion_main!(benches);
