//! Criterion: the ZFP-stand-in kernels — block transform throughput,
//! refactor cost vs the other representations, and progressive plane
//! fetching. The compute side of the representation ablation
//! (`--bin ablation`, section 1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pqr_progressive::fragstore::FragmentSource;
use pqr_progressive::refactored::{FieldReader, RefactoredField, Scheme};
use pqr_zfp::{transform, ZfpRefactorer};
use std::sync::Arc;

fn field(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as f64) * 0.001).sin() * 5.0 + ((i as f64) * 0.013).cos())
        .collect()
}

fn bench_transform(c: &mut Criterion) {
    let mut g = c.benchmark_group("zfp_transform");
    for nd in [1usize, 2, 3] {
        let len = 4usize.pow(nd as u32);
        let blk: Vec<i64> = (0..len as i64).map(|i| i * 1_000_003 % 77_777).collect();
        g.bench_function(BenchmarkId::new("forward", format!("{nd}d")), |b| {
            b.iter_batched(
                || blk.clone(),
                |mut v| transform::forward(&mut v, nd),
                criterion::BatchSize::SmallInput,
            )
        });
        let mut coeffs = blk.clone();
        transform::forward(&mut coeffs, nd);
        g.bench_function(BenchmarkId::new("inverse", format!("{nd}d")), |b| {
            b.iter_batched(
                || coeffs.clone(),
                |mut v| transform::inverse(&mut v, nd),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_refactor(c: &mut Criterion) {
    let n = 100_000;
    let data = field(n);
    let mut g = c.benchmark_group("zfp_refactor");
    g.throughput(Throughput::Bytes((n * 8) as u64));
    g.sample_size(20);
    g.bench_function("1d_100k", |b| {
        b.iter(|| ZfpRefactorer::new().refactor(&data, &[n]).unwrap())
    });
    let dims3 = [40usize, 50, 50];
    g.bench_function("3d_100k", |b| {
        b.iter(|| ZfpRefactorer::new().refactor(&data, &dims3).unwrap())
    });
    g.finish();
}

fn bench_retrieve(c: &mut Criterion) {
    let n = 100_000;
    let data = field(n);
    let field: Arc<dyn FragmentSource> =
        Arc::new(RefactoredField::refactor(Scheme::Pzfp, &data, &[n]).unwrap());
    let manifest = field.manifest().unwrap();
    let mut g = c.benchmark_group("zfp_retrieve");
    g.throughput(Throughput::Bytes((n * 8) as u64));
    g.sample_size(20);
    for eb in [1e-2, 1e-6, 1e-10] {
        g.bench_function(
            BenchmarkId::new("refine_reconstruct", format!("{eb:.0e}")),
            |b| {
                b.iter(|| {
                    let mut r = FieldReader::open(Arc::clone(&field), &manifest, 0).unwrap();
                    r.refine_to(eb).unwrap();
                    r.share_recon()
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_transform, bench_refactor, bench_retrieve);
criterion_main!(benches);
