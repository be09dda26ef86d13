//! Synthetic SwiGLU transformer language-model substrate.
//!
//! This crate implements everything the paper's evaluation needs from an LLM:
//!
//! * the architecture — RMSNorm, RoPE, grouped-query attention with a KV
//!   cache, and the gated (SwiGLU) MLP that dynamic sparsity methods target,
//! * synthetic, statistically calibrated model construction
//!   ([`build_synthetic`]) as the stand-in for Phi-3 / Llama-3 / Mistral
//!   checkpoints (see `DESIGN.md` §1),
//! * the [`mlp::MlpForward`] hook through which the `dip-core` crate plugs in
//!   DIP, DIP-CA and every baseline pruning strategy,
//! * corpus generation, perplexity and downstream-task evaluation
//!   ([`eval`]), and activation tracing for calibration ([`trace`]).
//!
//! # Example
//!
//! ```
//! use lm::{build_synthetic, ModelConfig, eval, mlp::DenseMlp};
//!
//! let model = build_synthetic(&ModelConfig::tiny(), 42)?;
//! let corpus = eval::standard_eval_corpus(&model, 2, 16, 0)?;
//! let result = eval::perplexity(&model, &mut DenseMlp, &corpus)?;
//! assert!(result.perplexity >= 1.0);
//! # Ok::<(), lm::LmError>(())
//! ```

#![warn(missing_docs)]

pub mod attention;
pub mod builder;
pub mod config;
pub mod data;
pub mod error;
pub mod eval;
pub mod kv_paged;
pub mod mlp;
pub mod model;
pub mod norm;
pub mod rope;
pub mod scratch;
pub mod trace;

pub use builder::build_synthetic;
pub use config::ModelConfig;
pub use error::{LmError, Result};
pub use eval::{EvalResult, Task, TaskSuite};
pub use kv_paged::{pages_spanning, KvPagePool, PageId, PagePoolHandle, PagePoolStats, PagedKv};
pub use mlp::{
    ColumnAccess, DenseMlp, GluMlp, MatrixAccess, MlpAccessRecord, MlpForward, MlpForwardOutput,
    MlpMatrix, SliceAxis,
};
pub use model::{BatchStrategies, DecodeState, DecodeStatePool, TokenOutput, TransformerModel};
pub use scratch::{
    AccessBuf, AttnMirrors, AttnScratch, BatchScratch, DecodeScratch, LayerMirrors,
    MlpAccessScratch, MlpBatchWorkspace, MlpMirrors, MlpWorkspace, ModelMirrors,
};
pub use trace::{ActivationTrace, TracingMlp};
