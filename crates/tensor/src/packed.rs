//! Packed-panel weight layout and the register-blocked microkernel family.
//!
//! # Panel layout
//!
//! [`PackedMatrix::pack`] reorders a row-major weight matrix `W` (`rows ×
//! cols`) into panels of [`MR`] = 8 consecutive output rows:
//!
//! ```text
//! data[(p * cols + c) * MR + l] = W[p * MR + l][c]      (0 ≤ l < MR)
//! ```
//!
//! A microkernel walking one panel with ascending `c` therefore reads the
//! buffer **fully sequentially** while keeping `MR` output accumulators in
//! registers: each output element is loaded and stored exactly once per
//! call.
//! The final panel is zero-padded (padding lanes compute `±0.0`
//! contributions into accumulators that are never stored).
//!
//! # Parity discipline
//!
//! Every kernel here obeys the workspace-wide rule: blocking and register
//! tiling only ever span *independent outputs*; each output's reduction
//! runs in exactly the naive order (ascending columns for dense kernels,
//! active-list order with the exact-zero skip for the sparse ones). The
//! accumulator-tile shape (how many panels × how many RHS vectors are in
//! flight) is therefore free to vary per [`crate::kernels::KernelArch`]
//! without changing a single output bit — `kernel_parity.rs` pins this
//! against [`crate::reference`] for every dispatch choice.
//!
//! The architecture-specialised variants are the *same* generic Rust
//! bodies compiled under `#[target_feature(enable = "avx2")]`; no FMA
//! intrinsics are used anywhere (a fused multiply-add rounds once where
//! the scalar reference rounds twice, which would break bitwise parity).

use crate::error::Result;
use crate::kernels::{kernel_arch, KernelArch};
use crate::matrix::Matrix;

/// Panel height: every packed matrix interleaves groups of `MR` output
/// rows. Fixed across architectures so any dispatch choice can consume any
/// packed buffer (wider kernels process several consecutive panels).
pub const MR: usize = 8;

/// A weight matrix packed into cache-friendly `MR`-row panels (see the
/// module docs for the exact layout).
#[derive(Debug, Clone, PartialEq)]
pub struct PackedMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl PackedMatrix {
    /// Packs a row-major matrix into `MR`-row panels (the one expensive
    /// step; packed buffers are built once per weight matrix and reused).
    pub fn pack(w: &Matrix) -> PackedMatrix {
        let (rows, cols) = w.shape();
        let panels = rows.div_ceil(MR);
        let mut data = vec![0.0f32; panels * cols * MR];
        let src = w.as_slice();
        for p in 0..panels {
            let panel = &mut data[p * cols * MR..(p + 1) * cols * MR];
            for l in 0..MR {
                let r = p * MR + l;
                if r >= rows {
                    break;
                }
                let row = &src[r * cols..(r + 1) * cols];
                for (c, &v) in row.iter().enumerate() {
                    panel[c * MR + l] = v;
                }
            }
        }
        PackedMatrix { rows, cols, data }
    }

    /// Rows of the original (unpacked) matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the original (unpacked) matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of `MR`-row panels (including the zero-padded tail panel).
    pub fn panels(&self) -> usize {
        self.rows.div_ceil(MR)
    }

    /// Bytes of packed storage (telemetry / memory accounting).
    pub fn packed_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

/// The hook through which quantized packed weights (the `quant` crate's
/// fused dequant-matvec panels) plug into higher layers without a
/// dependency cycle: `lm`'s MLP block holds `Arc<dyn QuantMatvec>` and
/// routes its kernels through it, so every sparsity strategy's column
/// selections ride the fused panels unchanged.
///
/// Implementations must be bitwise identical to materialising the
/// dequantized `f32` matrix and running [`crate::reference`]'s loops on it
/// (same per-output accumulation order, same exact-zero skip rules).
pub trait QuantMatvec: std::fmt::Debug + Send + Sync {
    /// `(rows, cols)` of the logical (dequantized) matrix.
    fn shape(&self) -> (usize, usize);

    /// Dense fused dequant-matvec; bitwise identical to
    /// [`crate::reference::matvec_into`] on the materialised matrix.
    ///
    /// # Errors
    ///
    /// Shape errors exactly like [`Matrix::matvec_into`].
    fn matvec_into(&self, x: &[f32], out: &mut [f32]) -> Result<()>;

    /// Column-sparse fused dequant-matvec (active-list order, exact-zero
    /// skip); bitwise identical to [`crate::reference::matvec_cols_into`]
    /// on the materialised matrix.
    ///
    /// # Errors
    ///
    /// Shape/index errors exactly like [`Matrix::matvec_cols_into`].
    fn matvec_cols_into(&self, x: &[f32], active_cols: &[usize], out: &mut [f32]) -> Result<()>;

    /// Batched dense fused dequant-matvec over `k` stacked RHS vectors.
    ///
    /// # Errors
    ///
    /// Shape errors exactly like [`Matrix::matvec_batch_into`].
    fn matvec_batch_into(&self, xs: &[f32], k: usize, out: &mut [f32]) -> Result<()>;

    /// Batched column-sparse fused dequant-matvec (CSR per-row lists).
    ///
    /// # Errors
    ///
    /// Shape/index errors exactly like [`Matrix::matvec_cols_batch_into`].
    fn matvec_cols_batch_into(
        &self,
        xs: &[f32],
        k: usize,
        indices: &[usize],
        offsets: &[usize],
        out: &mut [f32],
    ) -> Result<()>;

    /// Microkernel name for telemetry (e.g. `"fused_int4"`).
    fn kernel_name(&self) -> &'static str;
}

// ---------------------------------------------------------------------------
// Generic microkernel bodies.
//
// Everything below is `#[inline(always)]` so the `#[target_feature]`
// wrappers at the bottom re-compile the same source under wider instruction
// sets. `NP` = panels (of MR outputs each) per accumulator tile; `NR` = RHS
// vectors per tile. Results are independent of both (independent outputs).
// ---------------------------------------------------------------------------

/// One dense tile: `NP` consecutive panels against one RHS. `out` holds the
/// valid output rows of the tile (`≤ NP * MR`; the zero-padded tail lanes
/// are computed but never stored).
#[inline(always)]
fn matvec_tile<const NP: usize>(panels: &[f32], cols: usize, x: &[f32], out: &mut [f32]) {
    let mut acc = [[0.0f32; MR]; NP];
    for (c, &xv) in x.iter().enumerate() {
        for p in 0..NP {
            let w = &panels[(p * cols + c) * MR..(p * cols + c) * MR + MR];
            for l in 0..MR {
                acc[p][l] += w[l] * xv;
            }
        }
    }
    for (p, chunk) in out.chunks_mut(MR).enumerate() {
        chunk.copy_from_slice(&acc[p][..chunk.len()]);
    }
}

#[inline(always)]
fn matvec_impl<const NP: usize>(pm: &PackedMatrix, x: &[f32], out: &mut [f32]) {
    let cols = pm.cols;
    let panel_len = cols * MR;
    let panels = pm.panels();
    let mut p = 0usize;
    while p + NP <= panels {
        let lo = p * MR;
        let hi = ((p + NP) * MR).min(pm.rows);
        matvec_tile::<NP>(
            &pm.data[p * panel_len..(p + NP) * panel_len],
            cols,
            x,
            &mut out[lo..hi],
        );
        p += NP;
    }
    while p < panels {
        let lo = p * MR;
        let hi = ((p + 1) * MR).min(pm.rows);
        matvec_tile::<1>(
            &pm.data[p * panel_len..(p + 1) * panel_len],
            cols,
            x,
            &mut out[lo..hi],
        );
        p += 1;
    }
}

/// One column-sparse tile: like [`matvec_tile`] but walking the active list
/// in order with the exact-zero skip (the reference sparse order).
#[inline(always)]
fn matvec_cols_tile<const NP: usize>(
    panels: &[f32],
    cols: usize,
    x: &[f32],
    active: &[usize],
    out: &mut [f32],
) {
    let mut acc = [[0.0f32; MR]; NP];
    for &c in active {
        let xv = x[c];
        if xv == 0.0 {
            continue;
        }
        for p in 0..NP {
            let w = &panels[(p * cols + c) * MR..(p * cols + c) * MR + MR];
            for l in 0..MR {
                acc[p][l] += w[l] * xv;
            }
        }
    }
    for (p, chunk) in out.chunks_mut(MR).enumerate() {
        chunk.copy_from_slice(&acc[p][..chunk.len()]);
    }
}

#[inline(always)]
fn matvec_cols_impl<const NP: usize>(
    pm: &PackedMatrix,
    x: &[f32],
    active: &[usize],
    out: &mut [f32],
) {
    let cols = pm.cols;
    let panel_len = cols * MR;
    let panels = pm.panels();
    let mut p = 0usize;
    while p + NP <= panels {
        let lo = p * MR;
        let hi = ((p + NP) * MR).min(pm.rows);
        matvec_cols_tile::<NP>(
            &pm.data[p * panel_len..(p + NP) * panel_len],
            cols,
            x,
            active,
            &mut out[lo..hi],
        );
        p += NP;
    }
    while p < panels {
        let lo = p * MR;
        let hi = ((p + 1) * MR).min(pm.rows);
        matvec_cols_tile::<1>(
            &pm.data[p * panel_len..(p + 1) * panel_len],
            cols,
            x,
            active,
            &mut out[lo..hi],
        );
        p += 1;
    }
}

/// One batched tile: `NP` panels × `NR` RHS vectors of accumulators. The
/// panel band stays L1-resident while every RHS group streams over it
/// (panel-outer looping in [`matvec_batch_impl`]), and each `(output, rhs)`
/// accumulation still runs ascending columns — the naive dot order.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn matvec_batch_tile<const NP: usize, const NR: usize>(
    panels: &[f32],
    cols: usize,
    xs: &[f32],
    s0: usize,
    rows: usize,
    lo: usize,
    valid: usize,
    out: &mut [f32],
) {
    let mut acc = [[[0.0f32; MR]; NP]; NR];
    for c in 0..cols {
        let mut w = [[0.0f32; MR]; NP];
        for p in 0..NP {
            w[p].copy_from_slice(&panels[(p * cols + c) * MR..(p * cols + c) * MR + MR]);
        }
        for s in 0..NR {
            let xv = xs[(s0 + s) * cols + c];
            for p in 0..NP {
                for l in 0..MR {
                    acc[s][p][l] += w[p][l] * xv;
                }
            }
        }
    }
    for s in 0..NR {
        let dst = &mut out[(s0 + s) * rows + lo..(s0 + s) * rows + lo + valid];
        for (p, chunk) in dst.chunks_mut(MR).enumerate() {
            chunk.copy_from_slice(&acc[s][p][..chunk.len()]);
        }
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn matvec_batch_panel_group<const NP: usize>(
    panels: &[f32],
    cols: usize,
    xs: &[f32],
    k: usize,
    rows: usize,
    lo: usize,
    valid: usize,
    out: &mut [f32],
) {
    let mut s0 = 0usize;
    while s0 + 4 <= k {
        matvec_batch_tile::<NP, 4>(panels, cols, xs, s0, rows, lo, valid, out);
        s0 += 4;
    }
    if s0 + 2 <= k {
        matvec_batch_tile::<NP, 2>(panels, cols, xs, s0, rows, lo, valid, out);
        s0 += 2;
    }
    if s0 < k {
        matvec_batch_tile::<NP, 1>(panels, cols, xs, s0, rows, lo, valid, out);
    }
}

#[inline(always)]
fn matvec_batch_impl<const NP: usize>(pm: &PackedMatrix, xs: &[f32], k: usize, out: &mut [f32]) {
    let cols = pm.cols;
    let rows = pm.rows;
    let panel_len = cols * MR;
    let panels = pm.panels();
    let mut p = 0usize;
    while p + NP <= panels {
        let lo = p * MR;
        let valid = (((p + NP) * MR).min(rows)) - lo;
        matvec_batch_panel_group::<NP>(
            &pm.data[p * panel_len..(p + NP) * panel_len],
            cols,
            xs,
            k,
            rows,
            lo,
            valid,
            out,
        );
        p += NP;
    }
    while p < panels {
        let lo = p * MR;
        let valid = (((p + 1) * MR).min(rows)) - lo;
        matvec_batch_panel_group::<1>(
            &pm.data[p * panel_len..(p + 1) * panel_len],
            cols,
            xs,
            k,
            rows,
            lo,
            valid,
            out,
        );
        p += 1;
    }
}

/// Register-tiled matmul microkernel: an `NR`-column accumulator tile of
/// one output row is held in registers across the full ascending-`k` loop
/// (with the historical zero-skip on the left operand), so each output
/// element is stored exactly once. The right operand's row-major layout
/// already *is* the panel layout this access pattern wants — `b[k][j..j+NR]`
/// is contiguous — so no explicit packing pass is needed.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn matmul_impl<const NR: usize>(
    a: &[f32],
    m: usize,
    kk: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    for i in 0..m {
        let a_row = &a[i * kk..(i + 1) * kk];
        let out_row = &mut out[i * n..(i + 1) * n];
        let mut j = 0usize;
        while j + NR <= n {
            let mut acc = [0.0f32; NR];
            for (ko, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_chunk = &b[ko * n + j..ko * n + j + NR];
                for t in 0..NR {
                    acc[t] += av * b_chunk[t];
                }
            }
            out_row[j..j + NR].copy_from_slice(&acc);
            j += NR;
        }
        if j < n {
            let rem = n - j;
            let mut acc = [0.0f32; NR];
            for (ko, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_chunk = &b[ko * n + j..ko * n + j + rem];
                for (t, &bv) in b_chunk.iter().enumerate() {
                    acc[t] += av * bv;
                }
            }
            out_row[j..].copy_from_slice(&acc[..rem]);
        }
    }
}

// ---------------------------------------------------------------------------
// Architecture-specialised wrappers + dispatch.
// ---------------------------------------------------------------------------

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod avx2 {
    //! The same generic bodies compiled under AVX2 with wider accumulator
    //! tiles. Safety: callers reach these only through [`super::kernel_arch`]
    //! returning [`KernelArch::Avx2`], which requires
    //! `is_x86_feature_detected!("avx2")`.
    use super::*;

    #[target_feature(enable = "avx2")]
    pub unsafe fn matvec(pm: &PackedMatrix, x: &[f32], out: &mut [f32]) {
        matvec_impl::<8>(pm, x, out);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn matvec_cols(pm: &PackedMatrix, x: &[f32], active: &[usize], out: &mut [f32]) {
        matvec_cols_impl::<8>(pm, x, active, out);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn matvec_batch(pm: &PackedMatrix, xs: &[f32], k: usize, out: &mut [f32]) {
        matvec_batch_impl::<2>(pm, xs, k, out);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn matmul(a: &[f32], m: usize, kk: usize, b: &[f32], n: usize, out: &mut [f32]) {
        matmul_impl::<16>(a, m, kk, b, n, out);
    }
}

pub(crate) fn matvec_dispatch(pm: &PackedMatrix, x: &[f32], out: &mut [f32]) {
    match kernel_arch() {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: `kernel_arch` only returns `Avx2` when the host supports it.
        KernelArch::Avx2 => unsafe { avx2::matvec(pm, x, out) },
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        KernelArch::Avx2 => matvec_impl::<4>(pm, x, out),
        KernelArch::Portable => matvec_impl::<4>(pm, x, out),
    }
}

pub(crate) fn matvec_cols_dispatch(
    pm: &PackedMatrix,
    x: &[f32],
    active: &[usize],
    out: &mut [f32],
) {
    match kernel_arch() {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: `kernel_arch` only returns `Avx2` when the host supports it.
        KernelArch::Avx2 => unsafe { avx2::matvec_cols(pm, x, active, out) },
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        KernelArch::Avx2 => matvec_cols_impl::<4>(pm, x, active, out),
        KernelArch::Portable => matvec_cols_impl::<4>(pm, x, active, out),
    }
}

pub(crate) fn matvec_batch_dispatch(pm: &PackedMatrix, xs: &[f32], k: usize, out: &mut [f32]) {
    match kernel_arch() {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: `kernel_arch` only returns `Avx2` when the host supports it.
        KernelArch::Avx2 => unsafe { avx2::matvec_batch(pm, xs, k, out) },
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        KernelArch::Avx2 => matvec_batch_impl::<1>(pm, xs, k, out),
        KernelArch::Portable => matvec_batch_impl::<1>(pm, xs, k, out),
    }
}

pub(crate) fn matmul_dispatch(
    a: &[f32],
    m: usize,
    kk: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    match kernel_arch() {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: `kernel_arch` only returns `Avx2` when the host supports it.
        KernelArch::Avx2 => unsafe { avx2::matmul(a, m, kk, b, n, out) },
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        KernelArch::Avx2 => matmul_impl::<8>(a, m, kk, b, n, out),
        KernelArch::Portable => matmul_impl::<8>(a, m, kk, b, n, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows: usize, cols: usize) -> Matrix {
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 37 + 11) % 23) as f32 - 11.0)
            .collect();
        Matrix::from_vec(rows, cols, data).unwrap()
    }

    #[test]
    fn pack_layout_round_trips() {
        let w = sample(11, 5); // non-multiple of MR → padded tail panel
        let pm = PackedMatrix::pack(&w);
        assert_eq!(pm.panels(), 2);
        assert_eq!((pm.rows(), pm.cols()), (11, 5));
        for r in 0..11 {
            for c in 0..5 {
                let (p, l) = (r / MR, r % MR);
                assert_eq!(pm.data[(p * 5 + c) * MR + l], w.get(r, c));
            }
        }
        // padding lanes are exactly zero
        for c in 0..5 {
            for l in 3..MR {
                assert_eq!(pm.data[(5 + c) * MR + l], 0.0);
            }
        }
        assert_eq!(pm.packed_bytes(), 2 * 5 * MR * 4);
    }
}
