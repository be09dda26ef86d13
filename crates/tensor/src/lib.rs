//! Minimal dense / column-sparse linear algebra substrate.
//!
//! This crate provides the numerical kernels used by every other crate in the
//! `dynamic-sparsity` workspace:
//!
//! * [`Matrix`] — a row-major `f32` matrix with dense and **column-sparse**
//!   matrix–vector products (the core operation of LLM token generation),
//! * [`Vector`] helpers — dot products, softmax, norms,
//! * [`Activation`] — the non-linearities used by GLU MLPs (SiLU, ReLU, GELU),
//! * [`topk`] — per-token top-k selection used by magnitude pruning,
//! * [`stats`] — quantiles, histograms and calibration-set CDF thresholds,
//! * [`init`] — random weight initialisation, including the heavy-tailed
//!   initialisers used to mimic the GLU activation magnitude distribution
//!   reported in the paper (Fig. 10, left),
//! * [`pool`] — a persistent std-only worker pool for deterministic
//!   row-partitioned parallelism,
//! * [`mod@reference`] — the naive scalar kernels kept as bit-exact oracles
//!   for the optimised paths (see the kernel-design notes in [`matrix`]).
//!
//! # Example
//!
//! ```
//! use tensor::{Matrix, Activation};
//!
//! // A 2x3 matrix applied to a 3-vector.
//! let w = Matrix::from_rows(&[vec![1.0, 0.0, 2.0], vec![0.0, 1.0, -1.0]]).unwrap();
//! let x = vec![1.0, 2.0, 3.0];
//! let y = w.matvec(&x).unwrap();
//! assert_eq!(y, vec![7.0, -1.0]);
//! let a = Activation::Silu.apply_scalar(1.0);
//! assert!(a > 0.7 && a < 0.74);
//! ```

#![warn(missing_docs)]

pub mod activation;
pub mod error;
pub mod init;
pub mod kernels;
pub mod matrix;
pub mod packed;
pub mod pool;
pub mod reference;
pub mod sparse;
pub mod stats;
pub mod topk;
pub mod vector;

pub use activation::Activation;
pub use error::{Result, TensorError};
pub use matrix::Matrix;
pub use packed::{PackedMatrix, QuantMatvec};
pub use pool::WorkerPool;
pub use sparse::ColumnMask;
pub use vector::Vector;
