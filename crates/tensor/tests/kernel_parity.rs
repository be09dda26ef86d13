//! Bitwise parity of the optimised kernels against the naive references.
//!
//! The optimisation contract of `crates/tensor` is that unrolling runs only
//! across independent outputs, so no floating-point reduction is ever
//! reordered: for *any* shape, values (including exact zeros, negatives and
//! denormals) and active-index mask, the optimised `_into` / packed /
//! threaded kernels must produce **bit-for-bit** the same output as the
//! pre-optimisation scalar loops in `tensor::reference`.

use proptest::prelude::*;
use tensor::kernels::{available_arches, force_kernel_arch};
use tensor::pool::WorkerPool;
use tensor::{reference, Matrix, PackedMatrix};

/// Runs `f` once per microkernel family the host can execute, with the
/// dispatch table pinned to that family, then resets to auto-detection.
/// Parity must hold for **every** dispatch choice, not just the detected
/// one — this is what makes `TENSOR_FORCE_PORTABLE=1` a pure speed switch.
fn for_each_arch(mut f: impl FnMut(&'static str)) {
    for arch in available_arches() {
        force_kernel_arch(Some(arch));
        f(match arch {
            tensor::kernels::KernelArch::Portable => "portable",
            tensor::kernels::KernelArch::Avx2 => "avx2",
        });
    }
    force_kernel_arch(None);
}

/// Bit-exact comparison (distinguishes `-0.0` from `0.0` and is NaN-safe).
fn assert_bits_eq(fast: &[f32], naive: &[f32], what: &str) {
    assert_eq!(fast.len(), naive.len(), "{what}: length mismatch");
    for (i, (a, b)) in fast.iter().zip(naive.iter()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: output {i} diverged ({a} vs {b})"
        );
    }
}

/// A value grid that includes exact zeros (both signs), small and large
/// magnitudes — the cases where reordered arithmetic would show first.
fn value() -> impl Strategy<Value = f32> {
    (0u32..12, -1000i64..1000).prop_map(|(kind, mantissa)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => 1e-30 * mantissa as f32,
        3 => 1e6 * mantissa as f32,
        _ => mantissa as f32 / 97.0,
    })
}

fn matrix(rows: usize, cols: usize, values: Vec<f32>) -> Matrix {
    Matrix::from_vec(rows, cols, values).expect("generated buffer matches shape")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn matvec_matches_reference(
        rows in 1usize..24,
        cols in 1usize..24,
        seedvals in prop::collection::vec(value(), (24 * 24 + 24)..(24 * 24 + 25)),
    ) {
        let m = matrix(rows, cols, seedvals[..rows * cols].to_vec());
        let x = &seedvals[rows * cols..rows * cols + cols];
        let fast = m.matvec(x).unwrap();
        let mut naive = vec![0.0f32; rows];
        reference::matvec_into(&m, x, &mut naive);
        assert_bits_eq(&fast, &naive, "matvec");

        let mut into = vec![f32::NAN; rows];
        m.matvec_into(x, &mut into).unwrap();
        assert_bits_eq(&into, &naive, "matvec_into");

        // the packed register-blocked kernels, under every dispatch choice
        let pm = PackedMatrix::pack(&m);
        for_each_arch(|arch| {
            let mut packed = vec![f32::NAN; rows];
            m.matvec_packed(&pm, x, &mut packed).unwrap();
            assert_bits_eq(&packed, &naive, &format!("matvec_packed[{arch}]"));
        });
    }

    #[test]
    fn matvec_cols_matches_reference(
        rows in 1usize..24,
        cols in 1usize..24,
        seedvals in prop::collection::vec(value(), (24 * 24 + 24)..(24 * 24 + 25)),
        mask in prop::collection::vec(0usize..24, 0..40),
    ) {
        let m = matrix(rows, cols, seedvals[..rows * cols].to_vec());
        let x = &seedvals[rows * cols..rows * cols + cols];
        // masks may repeat and arrive in arbitrary order — both are part of
        // the kernel contract (accumulation order follows the active list)
        let active: Vec<usize> = mask.into_iter().map(|c| c % cols).collect();

        let mut naive = vec![0.0f32; rows];
        reference::matvec_cols_into(&m, x, &active, &mut naive);

        let fast = m.matvec_cols(x, &active).unwrap();
        assert_bits_eq(&fast, &naive, "matvec_cols");

        let mut into = vec![f32::NAN; rows];
        m.matvec_cols_into(x, &active, &mut into).unwrap();
        assert_bits_eq(&into, &naive, "matvec_cols_into");

        let pm = PackedMatrix::pack(&m);
        for_each_arch(|arch| {
            let mut packed = vec![f32::NAN; rows];
            m.matvec_cols_packed(&pm, x, &active, &mut packed).unwrap();
            assert_bits_eq(&packed, &naive, &format!("matvec_cols_packed[{arch}]"));
        });
    }

    #[test]
    fn matvec_rows_matches_reference(
        rows in 1usize..24,
        cols in 1usize..24,
        seedvals in prop::collection::vec(value(), (24 * 24 + 24)..(24 * 24 + 25)),
        mask in prop::collection::vec(0usize..24, 0..40),
    ) {
        let m = matrix(rows, cols, seedvals[..rows * cols].to_vec());
        let x = &seedvals[rows * cols..rows * cols + cols];
        let active: Vec<usize> = mask.into_iter().map(|r| r % rows).collect();

        let mut naive = vec![0.0f32; rows];
        reference::matvec_rows_into(&m, x, &active, &mut naive);

        let fast = m.matvec_rows(x, &active).unwrap();
        assert_bits_eq(&fast, &naive, "matvec_rows");

        let mut into = vec![f32::NAN; rows];
        m.matvec_rows_into(x, &active, &mut into).unwrap();
        assert_bits_eq(&into, &naive, "matvec_rows_into");
    }

    #[test]
    fn matvec_t_matches_reference(
        rows in 1usize..24,
        cols in 1usize..24,
        seedvals in prop::collection::vec(value(), (24 * 24 + 24)..(24 * 24 + 25)),
    ) {
        let m = matrix(rows, cols, seedvals[..rows * cols].to_vec());
        let x = &seedvals[rows * cols..rows * cols + rows];
        let mut naive = vec![0.0f32; cols];
        reference::matvec_t_into(&m, x, &mut naive);

        let fast = m.matvec_t(x).unwrap();
        assert_bits_eq(&fast, &naive, "matvec_t");

        let mut into = vec![f32::NAN; cols];
        m.matvec_t_into(x, &mut into).unwrap();
        assert_bits_eq(&into, &naive, "matvec_t_into");
    }

    #[test]
    fn matvec_batch_matches_reference(
        rows in 1usize..24,
        cols in 1usize..24,
        k in 1usize..6,
        seedvals in prop::collection::vec(value(), (24 * 24 + 6 * 24)..(24 * 24 + 6 * 24 + 1)),
    ) {
        let m = matrix(rows, cols, seedvals[..rows * cols].to_vec());
        let xs = &seedvals[rows * cols..rows * cols + k * cols];
        let mut naive = vec![0.0f32; k * rows];
        reference::matvec_batch_into(&m, xs, k, &mut naive);

        // the reference itself is k independent single-RHS references
        for s in 0..k {
            let mut single = vec![0.0f32; rows];
            reference::matvec_into(&m, &xs[s * cols..(s + 1) * cols], &mut single);
            assert_bits_eq(&naive[s * rows..(s + 1) * rows], &single, "batch reference row");
        }

        let mut fused = vec![f32::NAN; k * rows];
        m.matvec_batch_into(xs, k, &mut fused).unwrap();
        assert_bits_eq(&fused, &naive, "matvec_batch_into");

        for pool in [WorkerPool::new(0), WorkerPool::new(3)] {
            let mut threaded = vec![f32::NAN; k * rows];
            m.matvec_batch_into_threaded(xs, k, &mut threaded, &pool).unwrap();
            assert_bits_eq(&threaded, &naive, "matvec_batch_into_threaded");
        }

        let pm = PackedMatrix::pack(&m);
        for_each_arch(|arch| {
            let mut packed = vec![f32::NAN; k * rows];
            m.matvec_batch_packed(&pm, xs, k, &mut packed).unwrap();
            assert_bits_eq(&packed, &naive, &format!("matvec_batch_packed[{arch}]"));
        });
    }

    #[test]
    fn matvec_cols_batch_matches_reference(
        rows in 1usize..24,
        cols in 1usize..24,
        k in 1usize..6,
        seedvals in prop::collection::vec(value(), (24 * 24 + 6 * 24)..(24 * 24 + 6 * 24 + 1)),
        masks in prop::collection::vec(prop::collection::vec(0usize..24, 0..30), 6..7),
    ) {
        let m = matrix(rows, cols, seedvals[..rows * cols].to_vec());
        let xs = &seedvals[rows * cols..rows * cols + k * cols];
        // per-RHS active lists in arbitrary order with repeats, CSR-packed
        let mut indices = Vec::new();
        let mut offsets = vec![0usize];
        for mask in masks.iter().take(k) {
            indices.extend(mask.iter().map(|c| c % cols));
            offsets.push(indices.len());
        }

        let mut naive = vec![0.0f32; k * rows];
        reference::matvec_cols_batch_into(&m, xs, k, &indices, &offsets, &mut naive);
        let mut fused = vec![f32::NAN; k * rows];
        m.matvec_cols_batch_into(xs, k, &indices, &offsets, &mut fused).unwrap();
        assert_bits_eq(&fused, &naive, "matvec_cols_batch_into");

        let pm = PackedMatrix::pack(&m);
        for_each_arch(|arch| {
            let mut packed = vec![f32::NAN; k * rows];
            m.matvec_cols_batch_packed(&pm, xs, k, &indices, &offsets, &mut packed).unwrap();
            assert_bits_eq(&packed, &naive, &format!("matvec_cols_batch_packed[{arch}]"));
        });

        // and each row equals the single-RHS gathered kernel on its own list
        for s in 0..k {
            let mut single = vec![f32::NAN; rows];
            m.matvec_cols_into(
                &xs[s * cols..(s + 1) * cols],
                &indices[offsets[s]..offsets[s + 1]],
                &mut single,
            )
            .unwrap();
            assert_bits_eq(&fused[s * rows..(s + 1) * rows], &single, "batch vs single cols");
        }
    }

    #[test]
    fn blocked_matmul_matches_reference(
        m_rows in 1usize..12,
        inner in 1usize..12,
        n_cols in 1usize..12,
        seedvals in prop::collection::vec(value(), (12 * 12 * 2)..(12 * 12 * 2 + 1)),
    ) {
        let a = matrix(m_rows, inner, seedvals[..m_rows * inner].to_vec());
        let b = matrix(inner, n_cols, seedvals[144..144 + inner * n_cols].to_vec());
        let naive = reference::matmul(&a, &b);
        for_each_arch(|arch| {
            let blocked = a.matmul(&b).unwrap();
            assert_eq!(blocked.shape(), naive.shape());
            assert_bits_eq(blocked.as_slice(), naive.as_slice(), &format!("matmul[{arch}]"));
        });
    }

    #[test]
    fn blocked_transpose_matches_reference(
        rows in 1usize..40,
        cols in 1usize..40,
        seedvals in prop::collection::vec(value(), (40 * 40)..(40 * 40 + 1)),
    ) {
        let m = matrix(rows, cols, seedvals[..rows * cols].to_vec());
        let blocked = m.transpose();
        let naive = reference::transpose(&m);
        prop_assert_eq!(blocked.shape(), naive.shape());
        assert_bits_eq(blocked.as_slice(), naive.as_slice(), "transpose");
    }

    #[test]
    fn threaded_matvec_is_bitwise_deterministic(
        rows in 1usize..40,
        cols in 1usize..24,
        seedvals in prop::collection::vec(value(), (40 * 24 + 24)..(40 * 24 + 25)),
    ) {
        // the threaded kernel row-partitions the output and never splits a
        // reduction, so any pool size must reproduce the sequential result
        let m = matrix(rows, cols, seedvals[..rows * cols].to_vec());
        let x = &seedvals[rows * cols..rows * cols + cols];
        let mut naive = vec![0.0f32; rows];
        reference::matvec_into(&m, x, &mut naive);
        for pool in [WorkerPool::new(0), WorkerPool::new(3)] {
            let mut threaded = vec![f32::NAN; rows];
            m.matvec_into_threaded(x, &mut threaded, &pool).unwrap();
            assert_bits_eq(&threaded, &naive, "matvec_into_threaded");
        }
    }
}

/// Tall batches (prefill chunks) at shapes past every row-quad and
/// remainder boundary, including the exact production prefill shape
/// (chunk 64 at phi3-mini dims).
#[test]
fn tall_batch_parity_matches_reference() {
    for (rows, cols, k) in [
        (70usize, 70usize, 24usize),
        (320, 96, 64),
        (5, 130, 33),
        (96, 96, 64),
        (37, 41, 17),
    ] {
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 2654435761usize) % 997) as f32 / 331.0 - 1.5)
            .collect();
        let m = Matrix::from_vec(rows, cols, data).unwrap();
        let xs: Vec<f32> = (0..k * cols)
            .map(|i| ((i * 40503) % 641) as f32 / 127.0 - 2.5)
            .collect();
        let mut naive = vec![0.0f32; k * rows];
        reference::matvec_batch_into(&m, &xs, k, &mut naive);
        let mut fused = vec![f32::NAN; k * rows];
        m.matvec_batch_into(&xs, k, &mut fused).unwrap();
        assert_bits_eq(&fused, &naive, "matvec_batch_into (tall)");
    }
}

/// The blocked matmul's tile loops (J_TILE = K_TILE = 64) never trigger on
/// proptest-sized shapes; pin multi-tile shapes with awkward remainders to
/// the naive reference bitwise.
#[test]
fn multi_tile_matmul_matches_reference() {
    for (m, k, n) in [
        (70usize, 150usize, 130usize),
        (64, 64, 64),
        (1, 200, 65),
        (130, 1, 70),
    ] {
        let a_data: Vec<f32> = (0..m * k)
            .map(|i| ((i * 2654435761usize) % 997) as f32 / 331.0 - 1.5)
            .collect();
        let b_data: Vec<f32> = (0..k * n)
            .map(|i| {
                if i % 7 == 0 {
                    0.0
                } else {
                    ((i * 40503) % 641) as f32 / 127.0 - 2.5
                }
            })
            .collect();
        // exact zeros in the left operand exercise the historical skip
        let a_data: Vec<f32> = a_data
            .into_iter()
            .enumerate()
            .map(|(i, v)| if i % 5 == 0 { 0.0 } else { v })
            .collect();
        let a = Matrix::from_vec(m, k, a_data).unwrap();
        let b = Matrix::from_vec(k, n, b_data).unwrap();
        let naive = reference::matmul(&a, &b);
        for_each_arch(|arch| {
            let blocked = a.matmul(&b).unwrap();
            assert_bits_eq(
                blocked.as_slice(),
                naive.as_slice(),
                &format!("matmul (multi-tile)[{arch}]"),
            );
        });
    }
}

/// Proptest shapes (≤ 24 rows) never span more than three MR-panels, so the
/// wide accumulator tiles (4 and 8 panels in flight) and the panel-group
/// remainder loops would go unexercised; pin production shapes (phi3-mini
/// dims among them) and batch widths crossing every NR remainder (4/2/1)
/// under every dispatch choice.
#[test]
fn packed_kernels_parity_at_production_shapes() {
    for (rows, cols) in [
        (320usize, 96usize),
        (96, 320),
        (96, 96),
        (257, 96),
        (70, 33),
    ] {
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| {
                if i % 11 == 0 {
                    0.0
                } else {
                    ((i * 2654435761usize) % 997) as f32 / 331.0 - 1.5
                }
            })
            .collect();
        let m = Matrix::from_vec(rows, cols, data).unwrap();
        let pm = PackedMatrix::pack(&m);

        let x: Vec<f32> = (0..cols)
            .map(|i| {
                if i % 13 == 0 {
                    0.0
                } else {
                    ((i * 40503) % 641) as f32 / 127.0 - 2.5
                }
            })
            .collect();
        let mut naive = vec![0.0f32; rows];
        reference::matvec_into(&m, &x, &mut naive);

        let active: Vec<usize> = (0..cols)
            .filter(|c| c % 3 != 1)
            .map(|c| (c * 7) % cols)
            .collect();
        let mut naive_cols = vec![0.0f32; rows];
        reference::matvec_cols_into(&m, &x, &active, &mut naive_cols);

        for_each_arch(|arch| {
            let mut packed = vec![f32::NAN; rows];
            m.matvec_packed(&pm, &x, &mut packed).unwrap();
            assert_bits_eq(&packed, &naive, &format!("matvec_packed wide[{arch}]"));

            let mut packed_cols = vec![f32::NAN; rows];
            m.matvec_cols_packed(&pm, &x, &active, &mut packed_cols)
                .unwrap();
            assert_bits_eq(
                &packed_cols,
                &naive_cols,
                &format!("matvec_cols_packed wide[{arch}]"),
            );

            for k in [1usize, 2, 3, 5, 7, 8, 64] {
                let xs: Vec<f32> = (0..k * cols)
                    .map(|i| {
                        if i % 17 == 0 {
                            0.0
                        } else {
                            ((i * 48271) % 1021) as f32 / 255.0 - 2.0
                        }
                    })
                    .collect();
                let mut naive_b = vec![0.0f32; k * rows];
                reference::matvec_batch_into(&m, &xs, k, &mut naive_b);
                let mut packed_b = vec![f32::NAN; k * rows];
                m.matvec_batch_packed(&pm, &xs, k, &mut packed_b).unwrap();
                assert_bits_eq(
                    &packed_b,
                    &naive_b,
                    &format!("matvec_batch_packed k={k}[{arch}]"),
                );
            }
        });
    }
}

/// The threaded kernel only forks above a size threshold; force a matrix
/// past it to exercise the actual parallel path.
#[test]
fn threaded_matvec_parity_above_fork_threshold() {
    let rows = 512;
    let cols = 128;
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| ((i * 2654435761usize) % 1000) as f32 / 997.0 - 0.5)
        .collect();
    let m = Matrix::from_vec(rows, cols, data).unwrap();
    let x: Vec<f32> = (0..cols).map(|i| (i as f32 * 0.37).sin()).collect();
    let mut naive = vec![0.0f32; rows];
    reference::matvec_into(&m, &x, &mut naive);
    let pool = WorkerPool::new(4);
    let mut threaded = vec![f32::NAN; rows];
    m.matvec_into_threaded(&x, &mut threaded, &pool).unwrap();
    for (a, b) in threaded.iter().zip(naive.iter()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// Top-k scores drawn from a small grid so ties are common, plus both
/// zeros, both infinities, subnormals, negatives and NaN.
fn topk_score() -> impl Strategy<Value = f32> {
    (0u32..10, -6i64..6).prop_map(|(kind, step)| match kind {
        0 => 0.0,
        6 => f32::NAN,
        1 => -0.0,
        2 => f32::INFINITY,
        3 => f32::NEG_INFINITY,
        4 => f32::from_bits(1 + step.unsigned_abs() as u32) * step.signum() as f32,
        5 => f32::MIN_POSITIVE * step as f32,
        _ => step as f32 / 4.0,
    })
}

/// Both packed-key entry points against the comparator oracle for every
/// `k ∈ 0..=n+1`, with the key and output buffers reused across calls.
fn assert_topk_matches_reference(scores: &[f32], keys: &mut Vec<u64>, out: &mut Vec<usize>) {
    for k in 0..=scores.len() + 1 {
        tensor::topk::top_k_indices_into(scores, k, keys, out);
        assert_eq!(
            *out,
            reference::top_k_indices(scores, k),
            "top_k_indices n={} k={k}",
            scores.len()
        );
        tensor::topk::top_k_by_magnitude_into(scores, k, keys, out);
        assert_eq!(
            *out,
            reference::top_k_by_magnitude(scores, k),
            "top_k_by_magnitude n={} k={k}",
            scores.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn topk_matches_reference(scores in prop::collection::vec(topk_score(), 0..40)) {
        let (mut keys, mut out) = (vec![u64::MAX; 7], vec![usize::MAX; 3]);
        assert_topk_matches_reference(&scores, &mut keys, &mut out);
    }
}

/// The serving shapes of the DIP/DIP-CA selection path (phi3-mini-sim:
/// `d_model = 96`, `d_ff = 320`, density 0.5) on continuous scores with a
/// sprinkling of exact ties.
#[test]
fn topk_parity_at_serving_shapes() {
    let (mut keys, mut out) = (Vec::new(), Vec::new());
    for (n, k) in [(96usize, 48usize), (320, 160)] {
        for seed in 0..8u32 {
            let scores: Vec<f32> = (0..n as u32)
                .map(|i| {
                    let v = ((i * 7 + seed * 13) as f32 * 0.37).sin();
                    if i % 11 == 0 {
                        0.25
                    } else {
                        v
                    }
                })
                .collect();
            tensor::topk::top_k_indices_into(&scores, k, &mut keys, &mut out);
            assert_eq!(out, reference::top_k_indices(&scores, k));
            tensor::topk::top_k_by_magnitude_into(&scores, k, &mut keys, &mut out);
            assert_eq!(out, reference::top_k_by_magnitude(&scores, k));
        }
    }
}
