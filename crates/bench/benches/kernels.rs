//! Micro-benchmarks of the kernels that dominate on-device token generation:
//! dense vs column-sparse matrix–vector products, per-token top-k selection,
//! the DIP / DIP-CA MLP forward passes, and the DRAM cache policies.

use bench::{bench_input, bench_model};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dip_core::strategies::{Dip, DipCacheAware};
use hwsim::cache::{BeladyColumnCache, LfuColumnCache, LruColumnCache};
use hwsim::{BlockCacheCapacity, ColumnCache};
use lm::mlp::{DenseMlp, MlpForward};
use std::hint::black_box;
use tensor::topk;

fn bench_matvec(c: &mut Criterion) {
    let model = bench_model();
    let mlp = &model.layers[0].mlp;
    let x = bench_input(mlp.d_model());
    let active: Vec<usize> = (0..mlp.d_model()).step_by(2).collect();

    let mut group = c.benchmark_group("matvec");
    group.bench_function("dense", |b| {
        b.iter(|| black_box(mlp.w_up.matvec(black_box(&x)).unwrap()))
    });
    group.bench_function("column_sparse_50pct", |b| {
        b.iter(|| {
            black_box(
                mlp.w_up
                    .matvec_cols(black_box(&x), black_box(&active))
                    .unwrap(),
            )
        })
    });
    group.finish();
}

/// Kernel variants at phi3-mini shapes (`W_u`: d_ff × d_model = 320 × 96):
/// naive reference vs allocating vs `_into` vs gathered column-sparse vs
/// packed panels vs worker-pool threaded. The perf trajectory's
/// `BENCH_PR3.json` is produced from the same comparisons by the
/// `perf_report` bin.
fn bench_kernels_phi3_shapes(c: &mut Criterion) {
    use lm::ModelConfig;
    let config = ModelConfig::phi3_mini_sim();
    let model = lm::build_synthetic(&config, 42).expect("phi3-mini-sim builds");
    let mlp = &model.layers[0].mlp;
    let x = bench_input(mlp.d_model());
    let active: Vec<usize> = (0..mlp.d_model()).step_by(2).collect();
    let packed = tensor::PackedMatrix::pack(&mlp.w_up);
    let mut out = vec![0.0f32; mlp.d_ff()];

    let mut group = c.benchmark_group("kernels");
    group.bench_function("matvec_reference", |b| {
        b.iter(|| {
            tensor::reference::matvec_into(black_box(&mlp.w_up), black_box(&x), &mut out);
            black_box(&out);
        })
    });
    group.bench_function("matvec_alloc", |b| {
        b.iter(|| black_box(mlp.w_up.matvec(black_box(&x)).unwrap()))
    });
    group.bench_function("matvec_into", |b| {
        b.iter(|| {
            mlp.w_up.matvec_into(black_box(&x), &mut out).unwrap();
            black_box(&out);
        })
    });
    group.bench_function("matvec_packed", |b| {
        b.iter(|| {
            mlp.w_up
                .matvec_packed(black_box(&packed), black_box(&x), &mut out)
                .unwrap();
            black_box(&out);
        })
    });
    group.bench_function("matvec_cols_reference_50pct", |b| {
        b.iter(|| {
            tensor::reference::matvec_cols_into(
                black_box(&mlp.w_up),
                black_box(&x),
                black_box(&active),
                &mut out,
            );
            black_box(&out);
        })
    });
    group.bench_function("matvec_cols_gathered_50pct", |b| {
        b.iter(|| {
            mlp.w_up
                .matvec_cols_into(black_box(&x), black_box(&active), &mut out)
                .unwrap();
            black_box(&out);
        })
    });
    group.bench_function("matvec_cols_packed_50pct", |b| {
        b.iter(|| {
            mlp.w_up
                .matvec_cols_packed(
                    black_box(&packed),
                    black_box(&x),
                    black_box(&active),
                    &mut out,
                )
                .unwrap();
            black_box(&out);
        })
    });

    // the threaded kernel only forks past its size threshold — use an
    // LM-head-scale matrix so the pool path actually runs
    let big = tensor::Matrix::from_vec(
        1024,
        256,
        (0..1024 * 256)
            .map(|i| ((i * 37) % 113) as f32 / 113.0 - 0.5)
            .collect(),
    )
    .unwrap();
    let big_x = bench_input(256);
    let mut big_out = vec![0.0f32; 1024];
    let pool = tensor::WorkerPool::global();
    group.bench_function("matvec_big_sequential", |b| {
        b.iter(|| {
            big.matvec_into(black_box(&big_x), &mut big_out).unwrap();
            black_box(&big_out);
        })
    });
    group.bench_function("matvec_big_threaded", |b| {
        b.iter(|| {
            big.matvec_into_threaded(black_box(&big_x), &mut big_out, pool)
                .unwrap();
            black_box(&big_out);
        })
    });
    group.finish();
}

fn bench_topk(c: &mut Criterion) {
    let values = bench_input(4096);
    let mut group = c.benchmark_group("topk");
    group.bench_function("top_k_by_magnitude_50pct", |b| {
        b.iter(|| black_box(topk::top_k_by_magnitude(black_box(&values), 2048)))
    });
    group.bench_function("threshold_selection", |b| {
        b.iter(|| black_box(topk::indices_above_threshold(black_box(&values), 0.5)))
    });
    // the serving shapes of the DIP / DIP-CA selection path (phi3-mini-sim
    // d_model = 96 and d_ff = 320 at density 0.5), reusing their buffers
    for (n, k) in [(96usize, 48usize), (320, 160)] {
        let values = bench_input(n);
        let (mut keys, mut out) = (Vec::new(), Vec::new());
        group.bench_function(&format!("top_k_by_magnitude_into_{n}_{k}"), |b| {
            b.iter(|| {
                topk::top_k_by_magnitude_into(black_box(&values), k, &mut keys, &mut out);
                black_box(&out);
            })
        });
    }
    // one LFU access at DIP-CA's d_ff shape in steady state: 160 distinct
    // columns per access, ~90% from a drifting hot set, capacity 176
    let (n_columns, capacity, k) = (320usize, 176usize, 160usize);
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as usize
    };
    let accesses: Vec<Vec<usize>> = (0..256)
        .map(|t| {
            let mut picked = vec![false; n_columns];
            let mut cols = Vec::with_capacity(k);
            while cols.len() < k {
                let col = if next() % 10 < 9 {
                    (t / 32 * 7 + next() % 200) % n_columns
                } else {
                    next() % n_columns
                };
                if !std::mem::replace(&mut picked[col], true) {
                    cols.push(col);
                }
            }
            cols
        })
        .collect();
    group.bench_function("lfu_access_dip_ca_320_176", |b| {
        let mut cache = LfuColumnCache::new(n_columns, capacity);
        let mut t = 0usize;
        b.iter(|| {
            t = (t + 1) % accesses.len();
            black_box(cache.access(black_box(&accesses[t])))
        })
    });
    group.finish();
}

fn bench_mlp_strategies(c: &mut Criterion) {
    let model = bench_model();
    let mlp = &model.layers[0].mlp;
    let x = bench_input(mlp.d_model());
    let capacities: Vec<BlockCacheCapacity> = (0..model.n_layers())
        .map(|_| BlockCacheCapacity {
            up: mlp.d_model() / 2,
            gate: mlp.d_model() / 2,
            down: mlp.d_ff() / 2,
        })
        .collect();

    let mut group = c.benchmark_group("mlp_forward");
    group.bench_function("dense", |b| {
        let mut strategy = DenseMlp;
        b.iter(|| black_box(strategy.forward(0, mlp, black_box(&x)).unwrap()))
    });
    group.bench_function("dip_50pct", |b| {
        let mut strategy = Dip::new(0.5, 0.5).unwrap();
        b.iter(|| black_box(strategy.forward(0, mlp, black_box(&x)).unwrap()))
    });
    group.bench_function("dip_ca_50pct", |b| {
        let mut strategy =
            DipCacheAware::new(0.5, 0.5, 0.2, mlp.d_model(), mlp.d_ff(), capacities.clone())
                .unwrap();
        b.iter(|| black_box(strategy.forward(0, mlp, black_box(&x)).unwrap()))
    });
    group.finish();
}

fn bench_cache_policies(c: &mut Criterion) {
    let n_columns = 1024;
    let capacity = 256;
    let accesses: Vec<Vec<usize>> = (0..64)
        .map(|t| (0..128).map(|i| (i * 7 + t * 13) % n_columns).collect())
        .collect();

    let mut group = c.benchmark_group("cache_policies");
    group.bench_function("lru", |b| {
        b.iter_batched(
            || LruColumnCache::new(n_columns, capacity),
            |mut cache| {
                for a in &accesses {
                    black_box(cache.access(a));
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("lfu", |b| {
        b.iter_batched(
            || LfuColumnCache::new(n_columns, capacity),
            |mut cache| {
                for a in &accesses {
                    black_box(cache.access(a));
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("belady", |b| {
        b.iter_batched(
            || BeladyColumnCache::new(n_columns, capacity, &accesses),
            |mut cache| {
                for a in &accesses {
                    black_box(cache.access(a));
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_matvec, bench_kernels_phi3_shapes, bench_topk, bench_mlp_strategies,
        bench_cache_policies
}
criterion_main!(kernels);
