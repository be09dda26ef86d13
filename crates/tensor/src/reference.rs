//! Naive scalar reference kernels — the pre-optimisation loops, kept as
//! bit-exact oracles.
//!
//! Every optimised kernel in [`crate::Matrix`] preserves the *per-output
//! accumulation order* of these loops (unrolling runs across independent
//! outputs, never inside one reduction), so the optimised kernels must be
//! **bitwise identical** to these references on any input. The property
//! suite in `tests/kernel_parity.rs` enforces that, and the benchmark
//! harness uses this module (via [`crate::kernels::set_reference_mode`]) to
//! measure honest before/after numbers on the same binary.

use crate::Matrix;

/// Naive dense matrix–vector product: one sequential dot per row.
///
/// # Panics
///
/// Panics if `x.len() != cols` or `out.len() != rows`.
pub fn matvec_into(m: &Matrix, x: &[f32], out: &mut [f32]) {
    let (rows, cols) = m.shape();
    assert_eq!(x.len(), cols);
    assert_eq!(out.len(), rows);
    let w = m.as_slice();
    for (r, o) in out.iter_mut().enumerate() {
        let row = &w[r * cols..(r + 1) * cols];
        let mut acc = 0.0f32;
        for (wv, xv) in row.iter().zip(x.iter()) {
            acc += wv * xv;
        }
        *o = acc;
    }
}

/// Naive column-sparse product: walks each active *column* with stride
/// `cols` (the cache-hostile layout the optimised kernel fixes).
///
/// Indices must be pre-validated; columns whose `x` entry is exactly zero
/// are skipped, as in the original kernel.
///
/// # Panics
///
/// Panics if `x.len() != cols`, `out.len() != rows` or an index is out of
/// range.
pub fn matvec_cols_into(m: &Matrix, x: &[f32], active_cols: &[usize], out: &mut [f32]) {
    let (rows, cols) = m.shape();
    assert_eq!(x.len(), cols);
    assert_eq!(out.len(), rows);
    out.fill(0.0);
    let w = m.as_slice();
    for &c in active_cols {
        assert!(c < cols);
        let xv = x[c];
        if xv == 0.0 {
            continue;
        }
        for (r, o) in out.iter_mut().enumerate() {
            *o += w[r * cols + c] * xv;
        }
    }
    let _ = rows;
}

/// Naive row-sparse product: one sequential dot per active row.
///
/// # Panics
///
/// Panics if `x.len() != cols`, `out.len() != rows` or an index is out of
/// range.
pub fn matvec_rows_into(m: &Matrix, x: &[f32], active_rows: &[usize], out: &mut [f32]) {
    let (rows, cols) = m.shape();
    assert_eq!(x.len(), cols);
    assert_eq!(out.len(), rows);
    out.fill(0.0);
    let w = m.as_slice();
    for &r in active_rows {
        assert!(r < rows);
        let row = &w[r * cols..(r + 1) * cols];
        let mut acc = 0.0f32;
        for (wv, xv) in row.iter().zip(x.iter()) {
            acc += wv * xv;
        }
        out[r] = acc;
    }
}

/// Naive transposed product `y = W^T x`: one full axpy pass per row with a
/// non-zero coefficient.
///
/// # Panics
///
/// Panics if `x.len() != rows` or `out.len() != cols`.
pub fn matvec_t_into(m: &Matrix, x: &[f32], out: &mut [f32]) {
    let (rows, cols) = m.shape();
    assert_eq!(x.len(), rows);
    assert_eq!(out.len(), cols);
    out.fill(0.0);
    let w = m.as_slice();
    for (r, &xv) in x.iter().enumerate() {
        if xv == 0.0 {
            continue;
        }
        let row = &w[r * cols..(r + 1) * cols];
        for (o, wv) in out.iter_mut().zip(row.iter()) {
            *o += wv * xv;
        }
    }
}

/// Naive batched dense product: one [`matvec_into`] per stacked
/// right-hand-side row (`xs` holds `k` vectors of `m.cols()` values
/// row-major; `out` receives `k` rows of `m.rows()` values row-major).
///
/// # Panics
///
/// Panics if `xs.len() != k * cols` or `out.len() != k * rows`.
pub fn matvec_batch_into(m: &Matrix, xs: &[f32], k: usize, out: &mut [f32]) {
    let (rows, cols) = m.shape();
    assert_eq!(xs.len(), k * cols);
    assert_eq!(out.len(), k * rows);
    for (x, o) in xs.chunks_exact(cols).zip(out.chunks_exact_mut(rows)) {
        matvec_into(m, x, o);
    }
}

/// Naive batched column-sparse product: one [`matvec_cols_into`] per stacked
/// right-hand-side row, each with its own active-column list (CSR layout:
/// row `s`'s columns are `indices[offsets[s]..offsets[s + 1]]`).
///
/// # Panics
///
/// Panics on shape mismatches, malformed offsets or an out-of-range index.
pub fn matvec_cols_batch_into(
    m: &Matrix,
    xs: &[f32],
    k: usize,
    indices: &[usize],
    offsets: &[usize],
    out: &mut [f32],
) {
    let (rows, cols) = m.shape();
    assert_eq!(xs.len(), k * cols);
    assert_eq!(out.len(), k * rows);
    assert_eq!(offsets.len(), k + 1);
    for (s, (x, o)) in xs
        .chunks_exact(cols)
        .zip(out.chunks_exact_mut(rows))
        .enumerate()
    {
        matvec_cols_into(m, x, &indices[offsets[s]..offsets[s + 1]], o);
    }
}

/// Naive dense matrix–matrix product — the historical
/// `Matrix::matmul` triple loop (`i`/`k` outer with a zero-skip on the
/// left operand, ascending `k` accumulation per output).
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows());
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let av = a.get(i, k);
            if av == 0.0 {
                continue;
            }
            for j in 0..b.cols() {
                let v = out.get(i, j) + av * b.get(k, j);
                out.set(i, j, v);
            }
        }
    }
    out
}

/// Naive element-by-element transpose (strided scalar walk).
pub fn transpose(m: &Matrix) -> Matrix {
    let (rows, cols) = m.shape();
    let mut out = Matrix::zeros(cols, rows);
    for r in 0..rows {
        for c in 0..cols {
            out.set(c, r, m.get(r, c));
        }
    }
    out
}

/// Comparator full sort behind [`crate::topk::top_k_indices`]: every index
/// sorted by score descending, ties by lower index, NaN last, truncated to
/// `k`. The parity oracle of the packed-key selection.
pub fn top_k_indices(scores: &[f32], k: usize) -> Vec<usize> {
    // `None < Some(_)`, so mapping NaN to `None` ranks it below `-inf`
    let rank = |i: usize| Some(scores[i]).filter(|s| !s.is_nan());
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| {
        rank(b)
            .partial_cmp(&rank(a))
            .expect("NaN-free ranks are totally ordered")
            .then(a.cmp(&b))
    });
    idx.truncate(k);
    idx
}

/// [`top_k_indices`] over `|values|`: the oracle of
/// [`crate::topk::top_k_by_magnitude`].
pub fn top_k_by_magnitude(values: &[f32], k: usize) -> Vec<usize> {
    let magnitudes: Vec<f32> = values.iter().map(|v| v.abs()).collect();
    top_k_indices(&magnitudes, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_public_kernels_on_a_sample() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let x = [1.0, 0.0, -1.0];
        let mut y = vec![0.0; 2];
        matvec_into(&m, &x, &mut y);
        assert_eq!(y, m.matvec(&x).unwrap());
        matvec_cols_into(&m, &x, &[0, 2], &mut y);
        assert_eq!(y, m.matvec_cols(&x, &[0, 2]).unwrap());
        matvec_rows_into(&m, &x, &[1], &mut y);
        assert_eq!(y, m.matvec_rows(&x, &[1]).unwrap());
        let mut yt = vec![0.0; 3];
        matvec_t_into(&m, &[1.0, -1.0], &mut yt);
        assert_eq!(yt, m.matvec_t(&[1.0, -1.0]).unwrap());
        assert_eq!(transpose(&m), m.transpose());
    }
}
