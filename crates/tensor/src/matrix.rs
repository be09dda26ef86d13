//! Row-major dense matrix with dense and column-sparse matrix–vector products.
//!
//! # Kernel design
//!
//! The matrix–vector kernels dominate decode wall-clock time, so each has an
//! allocation-free `_into` variant writing into a caller-owned buffer, with
//! the allocating method kept as a thin wrapper. The optimised loops follow
//! one rule that makes them **bitwise identical** to the naive scalar
//! references in [`crate::reference`]: unrolling runs across *independent
//! outputs* (4 rows in flight, each with its own accumulator), never inside
//! a single reduction, so no floating-point addition is ever reordered.
//! `matvec_cols` additionally swaps its cache-hostile stride-`cols` column
//! walk for a row-outer loop with a gathered inner loop (each row is a
//! contiguous cache-resident slice), preserving the per-output accumulation
//! order exactly. The `_packed` kernels run the same products over a
//! [`crate::PackedMatrix`] panel layout.

use crate::error::{Result, TensorError};
use crate::pool::{chunk_size, WorkerPool};
use crate::sparse::ColumnMask;
use serde::{Deserialize, Serialize};

/// Minimum number of matrix elements before a threaded kernel splits work
/// across the pool; below this the handshake costs more than the math.
const PAR_MIN_ELEMENTS: usize = 1 << 15;

/// Four independent sequential dot products sharing one pass over `x`.
///
/// Each accumulator observes its row's products in exactly the order the
/// naive per-row loop would, so the results are bitwise identical to four
/// separate naive dots while giving the CPU four independent dependency
/// chains (and a vectorisable inner loop).
#[inline(always)]
fn dot4(x: &[f32], r0: &[f32], r1: &[f32], r2: &[f32], r3: &[f32]) -> (f32, f32, f32, f32) {
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for ((((&xv, &w0), &w1), &w2), &w3) in x
        .iter()
        .zip(r0.iter())
        .zip(r1.iter())
        .zip(r2.iter())
        .zip(r3.iter())
    {
        a0 += w0 * xv;
        a1 += w1 * xv;
        a2 += w2 * xv;
        a3 += w3 * xv;
    }
    (a0, a1, a2, a3)
}

/// One sequential dot product (the naive order).
#[inline(always)]
fn dot1(x: &[f32], row: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (&w, &xv) in row.iter().zip(x.iter()) {
        acc += w * xv;
    }
    acc
}

/// A row-major dense `f32` matrix.
///
/// The matrix–vector product `W x` is the dominant operation during LLM token
/// generation; this type provides the dense kernel plus the two sparse
/// variants exploited by dynamic sparsity methods:
///
/// * [`Matrix::matvec_cols`] — skip pruned *input columns* (used when the
///   input activation vector is sparsified, e.g. DIP's `W_u`/`W_g` step),
/// * [`Matrix::matvec_rows`] — compute only selected *output rows*
///   (used for the transposed view of down-projection pruning).
///
/// # Example
///
/// ```
/// use tensor::Matrix;
/// let w = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
/// assert_eq!(w.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix of zeros with the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with a constant value.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::ShapeMismatch {
                op: "Matrix::from_vec",
                expected: (rows, cols),
                found: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of rows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] when `rows` is empty and
    /// [`TensorError::ShapeMismatch`] when rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(TensorError::Empty {
                op: "Matrix::from_rows",
            });
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(TensorError::ShapeMismatch {
                    op: "Matrix::from_rows",
                    expected: (rows.len(), cols),
                    found: (rows.len(), r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Returns row `r` as a slice.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `r >= rows`.
    pub fn row(&self, r: usize) -> Result<&[f32]> {
        if r >= self.rows {
            return Err(TensorError::IndexOutOfBounds {
                index: r,
                len: self.rows,
            });
        }
        Ok(&self.data[r * self.cols..(r + 1) * self.cols])
    }

    /// Returns a mutable view of row `r`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> Result<&mut [f32]> {
        if r >= self.rows {
            return Err(TensorError::IndexOutOfBounds {
                index: r,
                len: self.rows,
            });
        }
        Ok(&mut self.data[r * self.cols..(r + 1) * self.cols])
    }

    /// Returns column `c` as an owned vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `c >= cols`.
    pub fn column(&self, c: usize) -> Result<Vec<f32>> {
        if c >= self.cols {
            return Err(TensorError::IndexOutOfBounds {
                index: c,
                len: self.cols,
            });
        }
        if self.rows == 0 {
            return Ok(Vec::new());
        }
        Ok(self.data[c..].iter().step_by(self.cols).copied().collect())
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Dense matrix–vector product `y = W x`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `x.len() != cols`.
    pub fn matvec(&self, x: &[f32]) -> Result<Vec<f32>> {
        let mut y = vec![0.0f32; self.rows];
        self.matvec_into(x, &mut y)?;
        Ok(y)
    }

    /// Allocation-free dense product: writes `W x` into `out`.
    ///
    /// Bitwise identical to [`Matrix::matvec`] / [`crate::reference::matvec_into`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `x.len() != cols` or
    /// `out.len() != rows`.
    pub fn matvec_into(&self, x: &[f32], out: &mut [f32]) -> Result<()> {
        if x.len() != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matvec",
                expected: (self.cols, 1),
                found: (x.len(), 1),
            });
        }
        if out.len() != self.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matvec",
                expected: (self.rows, 1),
                found: (out.len(), 1),
            });
        }
        if crate::kernels::reference_mode() {
            crate::reference::matvec_into(self, x, out);
            return Ok(());
        }
        self.matvec_rows_range(x, 0, out);
        Ok(())
    }

    /// Computes output rows `[lo, lo + out.len())` of `W x` into `out` with
    /// the 4-row-unrolled kernel. Shapes must be pre-validated.
    fn matvec_rows_range(&self, x: &[f32], lo: usize, out: &mut [f32]) {
        let cols = self.cols;
        let mut r = lo;
        let mut chunks = out.chunks_exact_mut(4);
        for quad in &mut chunks {
            let base = r * cols;
            let r0 = &self.data[base..base + cols];
            let r1 = &self.data[base + cols..base + 2 * cols];
            let r2 = &self.data[base + 2 * cols..base + 3 * cols];
            let r3 = &self.data[base + 3 * cols..base + 4 * cols];
            let (a0, a1, a2, a3) = dot4(x, r0, r1, r2, r3);
            quad[0] = a0;
            quad[1] = a1;
            quad[2] = a2;
            quad[3] = a3;
            r += 4;
        }
        for o in chunks.into_remainder() {
            *o = dot1(x, &self.data[r * cols..(r + 1) * cols]);
            r += 1;
        }
    }

    /// Like [`Matrix::matvec_into`], but row-partitions the output across
    /// the worker pool for large matrices.
    ///
    /// Row partitioning never splits a dot product, so the result is
    /// bitwise identical to the sequential kernel whatever the thread
    /// count or scheduling.
    ///
    /// # Errors
    ///
    /// Same shape errors as [`Matrix::matvec_into`].
    pub fn matvec_into_threaded(
        &self,
        x: &[f32],
        out: &mut [f32],
        pool: &WorkerPool,
    ) -> Result<()> {
        if self.len() < PAR_MIN_ELEMENTS || pool.parallelism() == 1 {
            return self.matvec_into(x, out);
        }
        if x.len() != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matvec",
                expected: (self.cols, 1),
                found: (x.len(), 1),
            });
        }
        if out.len() != self.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matvec",
                expected: (self.rows, 1),
                found: (out.len(), 1),
            });
        }
        if crate::kernels::reference_mode() {
            crate::reference::matvec_into(self, x, out);
            return Ok(());
        }
        let chunk = chunk_size(self.rows, pool.parallelism(), 16);
        let chunks: Vec<std::sync::Mutex<(usize, &mut [f32])>> = out
            .chunks_mut(chunk)
            .enumerate()
            .map(|(i, c)| std::sync::Mutex::new((i * chunk, c)))
            .collect();
        pool.run(chunks.len(), |i| {
            let mut guard = chunks[i].lock().expect("chunk lock poisoned");
            let (lo, chunk) = &mut *guard;
            self.matvec_rows_range(x, *lo, chunk);
        });
        Ok(())
    }

    /// Column-sparse matrix–vector product: only the listed input columns
    /// contribute (all other entries of `x` are treated as zero).
    ///
    /// This is the kernel exercised when the *input* activation vector has
    /// been pruned: pruned entries mean the corresponding weight columns
    /// never need to be loaded from Flash/DRAM.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `x.len() != cols` and
    /// [`TensorError::IndexOutOfBounds`] if any column index is invalid.
    pub fn matvec_cols(&self, x: &[f32], active_cols: &[usize]) -> Result<Vec<f32>> {
        let mut y = vec![0.0f32; self.rows];
        self.matvec_cols_into(x, active_cols, &mut y)?;
        Ok(y)
    }

    /// Allocation-free column-sparse product into `out`.
    ///
    /// The historical kernel walked each active *column* with stride
    /// `cols` — one cache line fetched per element. This kernel iterates
    /// rows on the outside (each row a contiguous slice, 4 rows in flight)
    /// and gathers the active columns on the inside, preserving the exact
    /// per-output accumulation order (active-list order, entries whose `x`
    /// value is exactly zero skipped) of
    /// [`crate::reference::matvec_cols_into`] — so the result is bitwise
    /// identical.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] for bad `x`/`out` lengths and
    /// [`TensorError::IndexOutOfBounds`] if any column index is invalid
    /// (checked up front; `out` is zeroed but otherwise untouched on error).
    pub fn matvec_cols_into(
        &self,
        x: &[f32],
        active_cols: &[usize],
        out: &mut [f32],
    ) -> Result<()> {
        if x.len() != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matvec_cols",
                expected: (self.cols, 1),
                found: (x.len(), 1),
            });
        }
        if out.len() != self.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matvec_cols",
                expected: (self.rows, 1),
                found: (out.len(), 1),
            });
        }
        out.fill(0.0);
        if let Some(&bad) = active_cols.iter().find(|&&c| c >= self.cols) {
            return Err(TensorError::IndexOutOfBounds {
                index: bad,
                len: self.cols,
            });
        }
        if crate::kernels::reference_mode() {
            crate::reference::matvec_cols_into(self, x, active_cols, out);
            return Ok(());
        }
        let cols = self.cols;
        let mut r = 0usize;
        let mut quads = out.chunks_exact_mut(4);
        for quad in &mut quads {
            let base = r * cols;
            let r0 = &self.data[base..base + cols];
            let r1 = &self.data[base + cols..base + 2 * cols];
            let r2 = &self.data[base + 2 * cols..base + 3 * cols];
            let r3 = &self.data[base + 3 * cols..base + 4 * cols];
            let (mut a0, mut a1, mut a2, mut a3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for &c in active_cols {
                let xv = x[c];
                if xv == 0.0 {
                    continue;
                }
                a0 += r0[c] * xv;
                a1 += r1[c] * xv;
                a2 += r2[c] * xv;
                a3 += r3[c] * xv;
            }
            quad[0] = a0;
            quad[1] = a1;
            quad[2] = a2;
            quad[3] = a3;
            r += 4;
        }
        for o in quads.into_remainder() {
            let row = &self.data[r * cols..(r + 1) * cols];
            let mut acc = 0.0f32;
            for &c in active_cols {
                let xv = x[c];
                if xv == 0.0 {
                    continue;
                }
                acc += row[c] * xv;
            }
            *o = acc;
            r += 1;
        }
        Ok(())
    }

    /// Validates a packed-panel mirror against this matrix's shape.
    fn check_packed(&self, op: &'static str, packed: &crate::packed::PackedMatrix) -> Result<()> {
        if (packed.rows(), packed.cols()) != self.shape() {
            return Err(TensorError::ShapeMismatch {
                op,
                expected: self.shape(),
                found: (packed.rows(), packed.cols()),
            });
        }
        Ok(())
    }

    /// Dense product through a packed-panel mirror of this matrix
    /// (`packed == PackedMatrix::pack(self)`), dispatched to the
    /// register-blocked microkernel family selected by
    /// [`crate::kernels::kernel_arch`].
    ///
    /// Accumulators live in registers for the whole ascending-column loop
    /// (one load/store per output instead of one per column quad), so the
    /// addition sequence per output is exactly the sequential row dot —
    /// bitwise identical to [`Matrix::matvec`] for every dispatch choice.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the packed mirror was
    /// built from a matrix of a different shape or the vector lengths are
    /// wrong.
    pub fn matvec_packed(
        &self,
        packed: &crate::packed::PackedMatrix,
        x: &[f32],
        out: &mut [f32],
    ) -> Result<()> {
        self.check_packed("matvec_packed", packed)?;
        if x.len() != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matvec_packed",
                expected: (self.cols, 1),
                found: (x.len(), 1),
            });
        }
        if out.len() != self.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matvec_packed",
                expected: (self.rows, 1),
                found: (out.len(), 1),
            });
        }
        if crate::kernels::reference_mode() {
            crate::reference::matvec_into(self, x, out);
            return Ok(());
        }
        crate::packed::matvec_dispatch(packed, x, out);
        Ok(())
    }

    /// Column-sparse product through a packed-panel mirror, dispatched to
    /// the register-blocked microkernel family. Walks the active list in
    /// order with the exact-zero skip inside the panel loop, so it is
    /// bitwise identical to [`Matrix::matvec_cols`] for every dispatch
    /// choice.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] for a mismatched packed
    /// mirror or bad vector lengths, and [`TensorError::IndexOutOfBounds`]
    /// for an invalid column index (checked up front).
    pub fn matvec_cols_packed(
        &self,
        packed: &crate::packed::PackedMatrix,
        x: &[f32],
        active_cols: &[usize],
        out: &mut [f32],
    ) -> Result<()> {
        self.check_packed("matvec_cols_packed", packed)?;
        if x.len() != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matvec_cols_packed",
                expected: (self.cols, 1),
                found: (x.len(), 1),
            });
        }
        if out.len() != self.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matvec_cols_packed",
                expected: (self.rows, 1),
                found: (out.len(), 1),
            });
        }
        out.fill(0.0);
        if let Some(&bad) = active_cols.iter().find(|&&c| c >= self.cols) {
            return Err(TensorError::IndexOutOfBounds {
                index: bad,
                len: self.cols,
            });
        }
        if crate::kernels::reference_mode() {
            crate::reference::matvec_cols_into(self, x, active_cols, out);
            return Ok(());
        }
        crate::packed::matvec_cols_dispatch(packed, x, active_cols, out);
        Ok(())
    }

    /// Multi-RHS product through a packed-panel mirror: `k` stacked RHS
    /// vectors against register tiles of panels × RHS accumulators, so a
    /// weight lane loaded once feeds several sessions *and* several output
    /// rows without touching memory. Each `(row, rhs)` output is one
    /// sequential ascending-column dot — bitwise identical to a separate
    /// [`Matrix::matvec_into`] per RHS for every dispatch choice.
    ///
    /// The panel band is walked on the outside (staying cache-resident
    /// while every RHS group streams over it), which is what makes this
    /// kernel hold up from fleet decode (`k ≤ 8`) through prefill chunks.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] for a mismatched packed
    /// mirror or bad `xs`/`out` lengths.
    pub fn matvec_batch_packed(
        &self,
        packed: &crate::packed::PackedMatrix,
        xs: &[f32],
        k: usize,
        out: &mut [f32],
    ) -> Result<()> {
        self.check_packed("matvec_batch_packed", packed)?;
        self.check_batch_shapes(xs, k, out)?;
        if crate::kernels::reference_mode() {
            crate::reference::matvec_batch_into(self, xs, k, out);
            return Ok(());
        }
        crate::packed::matvec_batch_dispatch(packed, xs, k, out);
        Ok(())
    }

    /// Batched column-sparse product through a packed-panel mirror: `k`
    /// stacked RHS vectors, each with its own CSR active-column list (as
    /// [`Matrix::matvec_cols_batch_into`]). Runs the packed column-sparse
    /// microkernel once per RHS, so every output row is bitwise identical
    /// to a separate [`Matrix::matvec_cols_into`] on that RHS for every
    /// dispatch choice.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] for a mismatched packed
    /// mirror or bad `xs`/`out`/`offsets` lengths, and
    /// [`TensorError::IndexOutOfBounds`] for an invalid column index
    /// (checked up front; `out` is zeroed but otherwise untouched).
    pub fn matvec_cols_batch_packed(
        &self,
        packed: &crate::packed::PackedMatrix,
        xs: &[f32],
        k: usize,
        indices: &[usize],
        offsets: &[usize],
        out: &mut [f32],
    ) -> Result<()> {
        self.check_packed("matvec_cols_batch_packed", packed)?;
        self.check_batch_shapes(xs, k, out)?;
        if offsets.len() != k + 1
            || offsets.windows(2).any(|w| w[0] > w[1])
            || offsets.last().copied().unwrap_or(0) > indices.len()
        {
            return Err(TensorError::ShapeMismatch {
                op: "matvec_cols_batch",
                expected: (k + 1, 1),
                found: (offsets.len(), 1),
            });
        }
        out.fill(0.0);
        let used = &indices[..offsets[k]];
        if let Some(&bad) = used.iter().find(|&&c| c >= self.cols) {
            return Err(TensorError::IndexOutOfBounds {
                index: bad,
                len: self.cols,
            });
        }
        if crate::kernels::reference_mode() {
            crate::reference::matvec_cols_batch_into(self, xs, k, indices, offsets, out);
            return Ok(());
        }
        let (rows, cols) = self.shape();
        for s in 0..k {
            let x = &xs[s * cols..(s + 1) * cols];
            let active = &indices[offsets[s]..offsets[s + 1]];
            let o = &mut out[s * rows..(s + 1) * rows];
            crate::packed::matvec_cols_dispatch(packed, x, active, o);
        }
        Ok(())
    }

    /// Row-sparse matrix–vector product: only the listed output rows are
    /// computed; all other outputs are zero.
    ///
    /// This is the kernel exercised when the *output* of a projection has
    /// been pruned (e.g. pruning intermediate GLU activations means the
    /// corresponding rows of `W_u`/`W_g` are skipped).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `x.len() != cols` and
    /// [`TensorError::IndexOutOfBounds`] if any row index is invalid.
    pub fn matvec_rows(&self, x: &[f32], active_rows: &[usize]) -> Result<Vec<f32>> {
        let mut y = vec![0.0f32; self.rows];
        self.matvec_rows_into(x, active_rows, &mut y)?;
        Ok(y)
    }

    /// Allocation-free row-sparse product into `out` (inactive outputs are
    /// zeroed). Runs 4 active rows in flight, each reduction sequential —
    /// bitwise identical to [`crate::reference::matvec_rows_into`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] for bad `x`/`out` lengths and
    /// [`TensorError::IndexOutOfBounds`] if any row index is invalid
    /// (checked up front; `out` is zeroed but otherwise untouched on error).
    pub fn matvec_rows_into(
        &self,
        x: &[f32],
        active_rows: &[usize],
        out: &mut [f32],
    ) -> Result<()> {
        if x.len() != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matvec_rows",
                expected: (self.cols, 1),
                found: (x.len(), 1),
            });
        }
        if out.len() != self.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matvec_rows",
                expected: (self.rows, 1),
                found: (out.len(), 1),
            });
        }
        out.fill(0.0);
        if let Some(&bad) = active_rows.iter().find(|&&r| r >= self.rows) {
            return Err(TensorError::IndexOutOfBounds {
                index: bad,
                len: self.rows,
            });
        }
        if crate::kernels::reference_mode() {
            crate::reference::matvec_rows_into(self, x, active_rows, out);
            return Ok(());
        }
        let cols = self.cols;
        let row = |r: usize| &self.data[r * cols..(r + 1) * cols];
        let mut quads = active_rows.chunks_exact(4);
        for quad in &mut quads {
            let (a0, a1, a2, a3) = dot4(x, row(quad[0]), row(quad[1]), row(quad[2]), row(quad[3]));
            out[quad[0]] = a0;
            out[quad[1]] = a1;
            out[quad[2]] = a2;
            out[quad[3]] = a3;
        }
        for &r in quads.remainder() {
            out[r] = dot1(x, row(r));
        }
        Ok(())
    }

    /// Masked column-sparse product using a [`ColumnMask`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the mask length differs from
    /// the number of columns or `x.len() != cols`.
    pub fn matvec_masked(&self, x: &[f32], mask: &ColumnMask) -> Result<Vec<f32>> {
        if mask.len() != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matvec_masked",
                expected: (self.cols, 1),
                found: (mask.len(), 1),
            });
        }
        self.matvec_cols(x, &mask.active_indices())
    }

    /// Transposed matrix–vector product `y = W^T x`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `x.len() != rows`.
    pub fn matvec_t(&self, x: &[f32]) -> Result<Vec<f32>> {
        let mut y = vec![0.0f32; self.cols];
        self.matvec_t_into(x, &mut y)?;
        Ok(y)
    }

    /// Allocation-free transposed product `y = W^T x` into `out`.
    ///
    /// Fuses up to 4 contributing rows per pass over `out`, with the
    /// per-element additions kept in row order — bitwise identical to the
    /// one-axpy-per-row loop in [`crate::reference::matvec_t_into`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `x.len() != rows` or
    /// `out.len() != cols`.
    pub fn matvec_t_into(&self, x: &[f32], out: &mut [f32]) -> Result<()> {
        if x.len() != self.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matvec_t",
                expected: (self.rows, 1),
                found: (x.len(), 1),
            });
        }
        if out.len() != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matvec_t",
                expected: (self.cols, 1),
                found: (out.len(), 1),
            });
        }
        out.fill(0.0);
        if crate::kernels::reference_mode() {
            crate::reference::matvec_t_into(self, x, out);
            return Ok(());
        }
        let cols = self.cols;
        let mut batch: [(&[f32], f32); 4] = [(&[], 0.0); 4];
        let mut filled = 0usize;
        for (r, &xv) in x.iter().enumerate() {
            if xv == 0.0 {
                continue;
            }
            batch[filled] = (&self.data[r * cols..(r + 1) * cols], xv);
            filled += 1;
            if filled == 4 {
                let [(w0, x0), (w1, x1), (w2, x2), (w3, x3)] = batch;
                for (i, o) in out.iter_mut().enumerate() {
                    let mut acc = *o;
                    acc += w0[i] * x0;
                    acc += w1[i] * x1;
                    acc += w2[i] * x2;
                    acc += w3[i] * x3;
                    *o = acc;
                }
                filled = 0;
            }
        }
        for &(w, xv) in &batch[..filled] {
            for (o, &wv) in out.iter_mut().zip(w.iter()) {
                *o += wv * xv;
            }
        }
        Ok(())
    }

    /// Dense matrix–matrix product `C = A B` through the blocked kernel
    /// ([`Matrix::matmul_into`]); used by the LoRA/quantization paths and by
    /// chunked-prefill consumers that want an owned result.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// Allocation-free blocked matrix–matrix product `out = self · other`.
    ///
    /// The kernel tiles the right operand and the output into cache-sized
    /// column/depth panels, but every output element still accumulates its
    /// `k`-products in ascending order with the historical zero-skip on the
    /// left operand — so the result is **bitwise identical** to the naive
    /// triple loop preserved in [`crate::reference::matmul`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols != other.rows`
    /// or `out` is not `(self.rows, other.cols)`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                expected: (self.cols, self.cols),
                found: other.shape(),
            });
        }
        if out.shape() != (self.rows, other.cols) {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                expected: (self.rows, other.cols),
                found: out.shape(),
            });
        }
        if crate::kernels::reference_mode() {
            let naive = crate::reference::matmul(self, other);
            out.data.copy_from_slice(&naive.data);
            return Ok(());
        }
        // Register-tiled microkernel, selected by the runtime dispatch
        // table: an NR-column accumulator tile of one output row is held in
        // registers across the full ascending-k loop (zero-skip on the left
        // operand preserved), so each output element is stored exactly once
        // and `other`'s row-major layout is read contiguously (`b[k][j..]`
        // already is the panel order this access pattern wants, so no
        // packing pass is needed).
        let (m, kk) = self.shape();
        let n = other.cols;
        crate::packed::matmul_dispatch(&self.data, m, kk, &other.data, n, &mut out.data);
        Ok(())
    }

    /// Validates the shared shapes of the batched (multi-RHS) kernels:
    /// `xs` holds `k` stacked input vectors row-major, `out` receives `k`
    /// stacked output vectors row-major.
    fn check_batch_shapes(&self, xs: &[f32], k: usize, out: &[f32]) -> Result<()> {
        if xs.len() != k * self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matvec_batch",
                expected: (k, self.cols),
                found: (xs.len(), 1),
            });
        }
        if out.len() != k * self.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matvec_batch",
                expected: (k, self.rows),
                found: (out.len(), 1),
            });
        }
        Ok(())
    }

    /// Multi-RHS "skinny GEMM": computes `W x_s` for `k` stacked activation
    /// vectors in **one pass over the weights**.
    ///
    /// `xs` holds the `k` input vectors row-major (`k × cols`); `out`
    /// receives the `k` output vectors row-major (`k × rows`). Each
    /// `(row, rhs)` output is one sequential dot product in exactly the
    /// naive order, so every output row is bitwise identical to a separate
    /// [`Matrix::matvec_into`] on that RHS — the fusion only amortises the
    /// weight traffic: a quad of weight rows is loaded once and reused by
    /// all `k` vectors while cache-resident.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] for bad `xs`/`out` lengths.
    pub fn matvec_batch_into(&self, xs: &[f32], k: usize, out: &mut [f32]) -> Result<()> {
        self.check_batch_shapes(xs, k, out)?;
        if crate::kernels::reference_mode() {
            crate::reference::matvec_batch_into(self, xs, k, out);
            return Ok(());
        }
        self.matvec_batch_rows_range(xs, k, 0, self.rows, out);
        Ok(())
    }

    /// Computes output rows `[lo, hi)` of the batched product for all `k`
    /// RHS vectors (shapes pre-validated). `out` is the full `k × rows`
    /// buffer; only the `[lo, hi)` slice of each RHS row is written.
    fn matvec_batch_rows_range(&self, xs: &[f32], k: usize, lo: usize, hi: usize, out: &mut [f32]) {
        let (rows, cols) = self.shape();
        let mut r = lo;
        while r + 4 <= hi {
            let base = r * cols;
            let r0 = &self.data[base..base + cols];
            let r1 = &self.data[base + cols..base + 2 * cols];
            let r2 = &self.data[base + 2 * cols..base + 3 * cols];
            let r3 = &self.data[base + 3 * cols..base + 4 * cols];
            for s in 0..k {
                let x = &xs[s * cols..(s + 1) * cols];
                let (a0, a1, a2, a3) = dot4(x, r0, r1, r2, r3);
                let o = &mut out[s * rows + r..s * rows + r + 4];
                o[0] = a0;
                o[1] = a1;
                o[2] = a2;
                o[3] = a3;
            }
            r += 4;
        }
        while r < hi {
            let row = &self.data[r * cols..(r + 1) * cols];
            for s in 0..k {
                out[s * rows + r] = dot1(&xs[s * cols..(s + 1) * cols], row);
            }
            r += 1;
        }
    }

    /// Like [`Matrix::matvec_batch_into`], but row-partitions the weight
    /// pass across the worker pool for large matrices. Row partitioning
    /// never splits a dot product, so the result is bitwise identical to the
    /// sequential batch kernel whatever the thread count.
    ///
    /// # Errors
    ///
    /// Same shape errors as [`Matrix::matvec_batch_into`].
    pub fn matvec_batch_into_threaded(
        &self,
        xs: &[f32],
        k: usize,
        out: &mut [f32],
        pool: &WorkerPool,
    ) -> Result<()> {
        if self.len() * k < PAR_MIN_ELEMENTS || pool.parallelism() == 1 {
            return self.matvec_batch_into(xs, k, out);
        }
        self.check_batch_shapes(xs, k, out)?;
        if crate::kernels::reference_mode() {
            crate::reference::matvec_batch_into(self, xs, k, out);
            return Ok(());
        }
        let rows = self.rows;
        let chunk = chunk_size(rows, pool.parallelism(), 16);
        let n_row_chunks = rows.div_ceil(chunk);
        // session-major part list: part (s, ci) lives at index
        // s * n_row_chunks + ci, and task ci claims that part for every s —
        // each part is locked by exactly one task, writes stay disjoint
        let parts: Vec<std::sync::Mutex<(usize, &mut [f32])>> = out
            .chunks_mut(rows)
            .flat_map(|session_out| {
                session_out
                    .chunks_mut(chunk)
                    .enumerate()
                    .map(|(ci, c)| std::sync::Mutex::new((ci * chunk, c)))
            })
            .collect();
        pool.run(n_row_chunks, |ci| {
            for s in 0..k {
                let mut guard = parts[s * n_row_chunks + ci].lock().expect("chunk lock");
                let (lo, part) = &mut *guard;
                let hi = *lo + part.len();
                // compute rows [lo, hi) of RHS `s` directly into its part
                let xs_row = &xs[s * self.cols..(s + 1) * self.cols];
                self.matvec_rows_span(xs_row, *lo, hi, part);
            }
        });
        Ok(())
    }

    /// Computes output rows `[lo, hi)` of `W x` into `part` (which holds
    /// exactly `hi - lo` values) with the 4-row-unrolled kernel.
    fn matvec_rows_span(&self, x: &[f32], lo: usize, hi: usize, part: &mut [f32]) {
        debug_assert_eq!(part.len(), hi - lo);
        self.matvec_rows_range(x, lo, part);
    }

    /// Batched column-sparse product: `k` stacked RHS vectors, each with its
    /// **own** active-column list in CSR layout (row `s`'s columns are
    /// `indices[offsets[s]..offsets[s + 1]]`).
    ///
    /// The kernel walks weight rows on the outside (quads in flight, each
    /// row a contiguous cache-resident slice reused by all `k` vectors) and
    /// gathers each RHS's active columns on the inside **in that RHS's own
    /// list order** with the exact-zero skip — so every output row is
    /// bitwise identical to a separate [`Matrix::matvec_cols_into`] on that
    /// RHS. Sharing the row pass across the batch is what turns `k`
    /// per-session weight passes into one.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] for bad `xs`/`out`/`offsets`
    /// lengths and [`TensorError::IndexOutOfBounds`] for an invalid column
    /// index (checked up front; `out` is zeroed but otherwise untouched).
    pub fn matvec_cols_batch_into(
        &self,
        xs: &[f32],
        k: usize,
        indices: &[usize],
        offsets: &[usize],
        out: &mut [f32],
    ) -> Result<()> {
        self.check_batch_shapes(xs, k, out)?;
        if offsets.len() != k + 1
            || offsets.windows(2).any(|w| w[0] > w[1])
            || offsets.last().copied().unwrap_or(0) > indices.len()
        {
            return Err(TensorError::ShapeMismatch {
                op: "matvec_cols_batch",
                expected: (k + 1, 1),
                found: (offsets.len(), 1),
            });
        }
        out.fill(0.0);
        let used = &indices[..offsets[k]];
        if let Some(&bad) = used.iter().find(|&&c| c >= self.cols) {
            return Err(TensorError::IndexOutOfBounds {
                index: bad,
                len: self.cols,
            });
        }
        if crate::kernels::reference_mode() {
            crate::reference::matvec_cols_batch_into(self, xs, k, indices, offsets, out);
            return Ok(());
        }
        let (rows, cols) = self.shape();
        let mut r = 0usize;
        while r + 4 <= rows {
            let base = r * cols;
            let r0 = &self.data[base..base + cols];
            let r1 = &self.data[base + cols..base + 2 * cols];
            let r2 = &self.data[base + 2 * cols..base + 3 * cols];
            let r3 = &self.data[base + 3 * cols..base + 4 * cols];
            for s in 0..k {
                let x = &xs[s * cols..(s + 1) * cols];
                let active = &indices[offsets[s]..offsets[s + 1]];
                let (mut a0, mut a1, mut a2, mut a3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
                for &c in active {
                    let xv = x[c];
                    if xv == 0.0 {
                        continue;
                    }
                    a0 += r0[c] * xv;
                    a1 += r1[c] * xv;
                    a2 += r2[c] * xv;
                    a3 += r3[c] * xv;
                }
                let o = &mut out[s * rows + r..s * rows + r + 4];
                o[0] = a0;
                o[1] = a1;
                o[2] = a2;
                o[3] = a3;
            }
            r += 4;
        }
        while r < rows {
            let row = &self.data[r * cols..(r + 1) * cols];
            for s in 0..k {
                let x = &xs[s * cols..(s + 1) * cols];
                let active = &indices[offsets[s]..offsets[s + 1]];
                let mut acc = 0.0f32;
                for &c in active {
                    let xv = x[c];
                    if xv == 0.0 {
                        continue;
                    }
                    acc += row[c] * xv;
                }
                out[s * rows + r] = acc;
            }
            r += 1;
        }
        Ok(())
    }

    /// Returns the transpose of this matrix.
    ///
    /// Walks the matrix in cache-sized tiles so both the source rows and
    /// the destination rows stay resident, instead of the naive
    /// stride-`rows` scalar walk ([`crate::reference::transpose`], which
    /// this is element-for-element identical to).
    pub fn transpose(&self) -> Matrix {
        const TILE: usize = 32;
        let (rows, cols) = self.shape();
        let mut out = Matrix::zeros(cols, rows);
        for rb in (0..rows).step_by(TILE) {
            let r_end = (rb + TILE).min(rows);
            for cb in (0..cols).step_by(TILE) {
                let c_end = (cb + TILE).min(cols);
                for r in rb..r_end {
                    let src = &self.data[r * cols + cb..r * cols + c_end];
                    for (c, &v) in src.iter().enumerate() {
                        out.data[(cb + c) * rows + r] = v;
                    }
                }
            }
        }
        out
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "add",
                expected: self.shape(),
                found: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Element-wise subtraction `self - other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "sub",
                expected: self.shape(),
                found: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Multiplies every element by a scalar, in place.
    pub fn scale_in_place(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Scales an individual row in place.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `r >= rows`.
    pub fn scale_row(&mut self, r: usize, s: f32) -> Result<()> {
        let row = self.row_mut(r)?;
        for v in row {
            *v *= s;
        }
        Ok(())
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Mean absolute value of all elements (0 for an empty matrix).
    pub fn mean_abs(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|v| v.abs()).sum::<f32>() / self.data.len() as f32
    }

    /// Zeros the listed columns in place (structured column pruning).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] on an invalid column index.
    pub fn zero_columns(&mut self, cols: &[usize]) -> Result<()> {
        for &c in cols {
            if c >= self.cols {
                return Err(TensorError::IndexOutOfBounds {
                    index: c,
                    len: self.cols,
                });
            }
            for r in 0..self.rows {
                self.set(r, c, 0.0);
            }
        }
        Ok(())
    }

    /// Zeros the listed rows in place (structured row pruning).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] on an invalid row index.
    pub fn zero_rows(&mut self, rows: &[usize]) -> Result<()> {
        for &r in rows {
            if r >= self.rows {
                return Err(TensorError::IndexOutOfBounds {
                    index: r,
                    len: self.rows,
                });
            }
            for v in self.row_mut(r)? {
                *v = 0.0;
            }
        }
        Ok(())
    }

    /// Counts elements that are exactly zero.
    pub fn count_zeros(&self) -> usize {
        self.data.iter().filter(|v| **v == 0.0).count()
    }

    /// Fraction of elements that are exactly zero (0 for an empty matrix).
    pub fn sparsity(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.count_zeros() as f32 / self.data.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(0).unwrap(), &[1.0, 2.0, 3.0]);
        assert_eq!(m.column(1).unwrap(), vec![2.0, 5.0]);
        assert_eq!(m.len(), 6);
        assert!(!m.is_empty());
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_validates_shape() {
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn identity_matvec_is_noop() {
        let id = Matrix::identity(4);
        let x = vec![1.0, -2.0, 3.0, 0.5];
        assert_eq!(id.matvec(&x).unwrap(), x);
    }

    #[test]
    fn matvec_matches_manual_computation() {
        let m = sample();
        let y = m.matvec(&[1.0, 0.0, -1.0]).unwrap();
        assert_eq!(y, vec![-2.0, -2.0]);
    }

    #[test]
    fn matvec_rejects_bad_shape() {
        let m = sample();
        assert!(m.matvec(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn matvec_cols_equals_dense_with_zeroed_inputs() {
        let m = sample();
        let x = vec![1.0, 2.0, 3.0];
        let active = vec![0, 2];
        let sparse = m.matvec_cols(&x, &active).unwrap();
        let mut x_masked = x.clone();
        x_masked[1] = 0.0;
        let dense = m.matvec(&x_masked).unwrap();
        assert_eq!(sparse, dense);
    }

    #[test]
    fn matvec_rows_only_computes_selected_outputs() {
        let m = sample();
        let y = m.matvec_rows(&[1.0, 1.0, 1.0], &[1]).unwrap();
        assert_eq!(y, vec![0.0, 15.0]);
    }

    #[test]
    fn matvec_cols_rejects_bad_index() {
        let m = sample();
        assert!(m.matvec_cols(&[1.0, 1.0, 1.0], &[3]).is_err());
    }

    #[test]
    fn matvec_t_matches_transpose() {
        let m = sample();
        let x = vec![1.0, -1.0];
        let a = m.matvec_t(&x).unwrap();
        let b = m.transpose().matvec(&x).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn matmul_matches_manual() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[vec![2.0, 1.0], vec![4.0, 3.0]]).unwrap()
        );
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = sample();
        assert!(a.matmul(&sample()).is_err());
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = sample();
        let b = Matrix::filled(2, 3, 1.0);
        let c = a.add(&b).unwrap().sub(&b).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn zero_columns_and_sparsity() {
        let mut m = sample();
        m.zero_columns(&[0, 2]).unwrap();
        assert_eq!(m.column(0).unwrap(), vec![0.0, 0.0]);
        assert_eq!(m.column(2).unwrap(), vec![0.0, 0.0]);
        assert_eq!(m.count_zeros(), 4);
        assert!((m.sparsity() - 4.0 / 6.0).abs() < 1e-6);
    }

    #[test]
    fn zero_rows_clears_entire_row() {
        let mut m = sample();
        m.zero_rows(&[0]).unwrap();
        assert_eq!(m.row(0).unwrap(), &[0.0, 0.0, 0.0]);
        assert_eq!(m.row(1).unwrap(), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn frobenius_and_mean_abs() {
        let m = Matrix::from_rows(&[vec![3.0, 4.0]]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
        assert!((m.mean_abs() - 3.5).abs() < 1e-6);
    }

    #[test]
    fn scale_row_and_scale_in_place() {
        let mut m = sample();
        m.scale_row(0, 2.0).unwrap();
        assert_eq!(m.row(0).unwrap(), &[2.0, 4.0, 6.0]);
        m.scale_in_place(0.5);
        assert_eq!(m.row(0).unwrap(), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1).unwrap(), &[2.0, 2.5, 3.0]);
    }

    #[test]
    fn iter_rows_yields_all_rows() {
        let m = sample();
        let rows: Vec<&[f32]> = m.iter_rows().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], &[4.0, 5.0, 6.0]);
    }
}
