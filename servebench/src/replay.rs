//! Layer timings of the traced run, measured from outside the engine.
//!
//! The engine's own spans stop at its stage boundaries, so the layers below
//! it are timed here, around the public calls into each crate:
//!
//! * `lm`: the traced run's lanes and chunks are replayed through
//!   [`TransformerModel::forward_tokens_batch_into`] (lanes of the traced
//!   mean width) and [`TransformerModel::forward_prompt_into`] (chunks of the
//!   traced mean height);
//! * `core`: the strategy comes from [`serve::StrategyFactory::instantiate`]
//!   and is wrapped in `Timed`, which times every delegated MLP call, so
//!   `lm` self time is the `lm` call minus the wrapper;
//! * `hwsim`: every replayed row's accesses are priced by a fresh
//!   [`hwsim::TokenPricer`];
//! * `tensor`: the packed-panel kernels `lm` calls on the serving path are
//!   timed at the workload model's shapes, the lane width and the chunk
//!   height, with the bytes each call computes on.

use crate::workloads::Workload;
use lm::{BatchScratch, BatchStrategies, MlpForward, TransformerModel};
use serve::{GenRequest, StrategyFactory};
use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};
use tensor::{Matrix, PackedMatrix};

/// Host time each replay phase may take (rows stop at this budget or at
/// the traced run's own row count, whichever comes first).
const PHASE_BUDGET: Duration = Duration::from_millis(1500);

/// Host time each kernel is timed for.
const KERNEL_BUDGET: Duration = Duration::from_millis(200);

/// What the replay measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTimes {
    /// Rows replayed through fused decode lanes.
    pub decode_rows: u64,
    /// Host ns of the lane calls, MLP included.
    pub decode_call_ns: u64,
    /// Host ns of the MLP calls inside the lanes.
    pub decode_mlp_ns: u64,
    /// Prompt tokens replayed through prefill chunks.
    pub prefill_rows: u64,
    /// Host ns of the chunk calls, MLP included.
    pub prefill_call_ns: u64,
    /// Host ns of the MLP calls inside the chunks.
    pub prefill_mlp_ns: u64,
    /// Tokens priced.
    pub priced: u64,
    /// Host ns of `TokenPricer::price_token`.
    pub price_ns: u64,
}

impl LayerTimes {
    /// `lm` self time per decode row, µs.
    pub fn lm_decode_us_per_row(&self) -> f64 {
        per(self.decode_call_ns - self.decode_mlp_ns, self.decode_rows) / 1e3
    }

    /// `lm` self time per prompt token, µs.
    pub fn lm_prefill_us_per_token(&self) -> f64 {
        per(
            self.prefill_call_ns - self.prefill_mlp_ns,
            self.prefill_rows,
        ) / 1e3
    }

    /// `core` (strategy) time per row over both phases, µs.
    pub fn core_us_per_row(&self) -> f64 {
        per(
            self.decode_mlp_ns + self.prefill_mlp_ns,
            self.decode_rows + self.prefill_rows,
        ) / 1e3
    }

    /// `hwsim` pricing time per token, µs.
    pub fn price_us_per_token(&self) -> f64 {
        per(self.price_ns, self.priced) / 1e3
    }
}

fn per(ns: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        ns as f64 / n as f64
    }
}

/// Delegates every MLP call to the wrapped strategy and adds its host time
/// to a shared counter.
struct Timed {
    inner: Box<dyn MlpForward>,
    ns: Rc<Cell<u64>>,
}

impl Timed {
    fn add_since(&self, t: Instant) {
        self.ns.set(self.ns.get() + t.elapsed().as_nanos() as u64);
    }
}

impl MlpForward for Timed {
    fn forward(
        &mut self,
        layer: usize,
        mlp: &lm::GluMlp,
        x: &[f32],
    ) -> lm::Result<lm::MlpForwardOutput> {
        let t = Instant::now();
        let out = self.inner.forward(layer, mlp, x);
        self.add_since(t);
        out
    }

    fn forward_scratch(
        &mut self,
        layer: usize,
        mlp: &lm::GluMlp,
        x: &[f32],
        ws: &mut lm::MlpWorkspace,
        access: &mut lm::MlpAccessScratch,
        mirrors: Option<&lm::MlpMirrors>,
    ) -> lm::Result<()> {
        let t = Instant::now();
        let out = self
            .inner
            .forward_scratch(layer, mlp, x, ws, access, mirrors);
        self.add_since(t);
        out
    }

    fn batch_fusable(&self) -> bool {
        self.inner.batch_fusable()
    }

    fn forward_batch_scratch(
        &mut self,
        layer: usize,
        mlp: &lm::GluMlp,
        xs: &[f32],
        rows: usize,
        ws: &mut lm::MlpBatchWorkspace,
        accesses: &mut [lm::MlpAccessScratch],
        mirrors: Option<&lm::MlpMirrors>,
    ) -> lm::Result<()> {
        let t = Instant::now();
        let out = self
            .inner
            .forward_batch_scratch(layer, mlp, xs, rows, ws, accesses, mirrors);
        self.add_since(t);
        out
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// The shape of the traced run the replay reproduces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Rows the traced run served in lanes.
    pub lane_rows: u64,
    /// Mean lane width.
    pub lane_width: f64,
    /// Rows the traced run served in prefill chunks.
    pub chunk_rows: u64,
    /// Mean chunk height.
    pub chunk_height: f64,
}

/// Replays the traced run's lanes and chunks through `lm`, `core` and
/// `hwsim`. `requests` supplies the prompt tokens and the strategy.
///
/// # Errors
///
/// Propagates model, strategy and pricing errors as text.
pub fn replay(
    workload: Workload,
    model: &TransformerModel,
    requests: &[GenRequest],
    shape: Shape,
) -> Result<LayerTimes, String> {
    let config = workload.serve_config();
    let spec = requests.first().ok_or("no requests to replay")?.strategy;
    let window = config
        .kv_budget_tokens
        .unwrap_or(model.config.max_seq_len)
        .min(model.config.max_seq_len);
    if let Some(r) = requests.iter().find(|r| r.total_tokens() > window) {
        return Err(format!(
            "request {} does not fit the {window}-token window",
            r.id
        ));
    }
    let axes = serve::resolve_axes(&[spec]).map_err(|e| e.to_string())?;
    let layout = serve::layout::layout_for_serving(
        &model.config,
        axes,
        config.bits_per_weight,
        config.max_concurrent,
        window,
    );
    let allocation = hwsim::allocate(&layout, &config.device).map_err(|e| e.to_string())?;
    let mut pricer = hwsim::TokenPricer::new(&layout, &config.device, config.eviction, None)
        .map_err(|e| e.to_string())?;
    let mut factory = StrategyFactory::new();
    let mlp_ns = Rc::new(Cell::new(0u64));
    let mut timed = |n: usize| -> Result<Vec<Box<dyn MlpForward>>, String> {
        (0..n)
            .map(|_| {
                let inner = factory
                    .instantiate(&spec, model, &allocation.capacities, None)
                    .map_err(|e| e.to_string())?;
                Ok(Box::new(Timed {
                    inner,
                    ns: Rc::clone(&mlp_ns),
                }) as Box<dyn MlpForward>)
            })
            .collect()
    };
    let mut scratch = BatchScratch::for_model(model);
    let mut out = LayerTimes::default();
    let mut accesses = Vec::new();
    let vocab = model.config.vocab_size as u32;

    // ---- decode lanes: each lane slot serves the workload's requests in
    // turn, prefilling a prompt untimed and then decoding its budget ----
    let width = (shape.lane_width.round() as usize).max(1);
    let mut lane = timed(width)?;
    let mut states: Vec<lm::DecodeState> = (0..width).map(|_| model.new_decode_state()).collect();
    let mut left = vec![0usize; width];
    let mut queue = requests.iter().cycle();
    let start = Instant::now();
    let mut step = 0u32;
    while out.decode_rows < shape.lane_rows.max(1) && start.elapsed() < PHASE_BUDGET {
        for ((state, strategy), left) in states.iter_mut().zip(lane.iter_mut()).zip(&mut left) {
            if *left == 0 {
                let request = queue.next().expect("cycled");
                state.reset();
                for chunk in request.prompt.chunks(64) {
                    model
                        .forward_prompt_into(chunk, state, strategy.as_mut(), &mut scratch)
                        .map_err(|e| e.to_string())?;
                }
                *left = request.max_new_tokens.max(1);
            }
        }
        let tokens: Vec<u32> = (0..width as u32)
            .map(|r| 1 + (step * 7 + r * 13) % (vocab - 1))
            .collect();
        step += 1;
        let before = mlp_ns.get();
        let t = Instant::now();
        let mut strategies = if lane[0].batch_fusable() {
            BatchStrategies::Fused(lane[0].as_mut())
        } else {
            BatchStrategies::PerRow(&mut lane)
        };
        model
            .forward_tokens_batch_into(&tokens, &mut states, &mut strategies, &mut scratch)
            .map_err(|e| e.to_string())?;
        out.decode_call_ns += t.elapsed().as_nanos() as u64;
        out.decode_mlp_ns += mlp_ns.get() - before;
        out.decode_rows += width as u64;
        for (r, left) in left.iter_mut().enumerate() {
            accesses.push(serve::layout::to_token_access_batch_row(
                &scratch.accesses,
                r,
            ));
            *left -= 1;
        }
    }

    // ---- prefill chunks: the workload's prompts, in chunks of the traced
    // mean height ----
    let height = (shape.chunk_height.round() as usize).clamp(1, 64);
    let mut strategy = timed(1)?.pop().expect("one strategy");
    let mut state = model.new_decode_state();
    let mut prompt: &[u32] = &[];
    let start = Instant::now();
    while out.prefill_rows < shape.chunk_rows.max(1) && start.elapsed() < PHASE_BUDGET {
        if prompt.is_empty() {
            state.reset();
            prompt = &queue.next().expect("cycled").prompt;
        }
        let (chunk, rest) = prompt.split_at(height.min(prompt.len()));
        prompt = rest;
        let before = mlp_ns.get();
        let t = Instant::now();
        model
            .forward_prompt_into(chunk, &mut state, strategy.as_mut(), &mut scratch)
            .map_err(|e| e.to_string())?;
        out.prefill_call_ns += t.elapsed().as_nanos() as u64;
        out.prefill_mlp_ns += mlp_ns.get() - before;
        out.prefill_rows += chunk.len() as u64;
        for r in 0..chunk.len() {
            accesses.push(serve::layout::to_token_access_batch_row(
                &scratch.accesses,
                r,
            ));
        }
    }

    // ---- pricing ----
    let t = Instant::now();
    for access in &accesses {
        black_box(pricer.price_token(access).map_err(|e| e.to_string())?);
    }
    out.price_ns = t.elapsed().as_nanos() as u64;
    out.priced = accesses.len() as u64;
    Ok(out)
}

/// One timed kernel: host ns per call and the bytes each call computes on
/// (weights read, inputs read, outputs written; f32).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTime {
    /// Host ns per call.
    pub ns: f64,
    /// Bytes per call.
    pub bytes: f64,
}

/// Times the packed-panel kernels `lm` runs when the engine has built its
/// weight mirrors, each on a `d_ff × d_model` matrix of the workload's
/// model:
///
/// * `matvec_cols_batch_packed` at the lane width, every row with its own
///   half-density active-input list (a fused DIP / DIP-CA lane's gate and
///   up projections);
/// * `matvec_batch_packed` at the lane width (a lane's attention
///   projections and dense MLP);
/// * `matvec_batch_packed` at the chunk height (a prefill chunk's
///   projections: `forward_prompt_into` has no kernel of its own).
pub fn kernels(
    model: &TransformerModel,
    lane_width: usize,
    chunk_height: usize,
) -> [KernelTime; 3] {
    let (rows, cols) = (model.config.d_ff, model.config.d_model);
    let w = Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| ((i % 97) as f32 - 48.0) / 97.0)
            .collect(),
    )
    .expect("shape matches data");
    let packed = PackedMatrix::pack(&w);
    let (width, height) = (lane_width.max(1), chunk_height.max(1));
    let k_max = width.max(height);
    // no exact zeros: the column kernels skip them
    let xs: Vec<f32> = (0..k_max * cols)
        .map(|i| ((i % 13) as f32 - 6.5) / 13.0)
        .collect();
    // row r keeps the inputs of parity r % 2, so rows differ as they do in
    // a lane
    let (mut indices, mut offsets) = (Vec::new(), vec![0]);
    for r in 0..width {
        indices.extend((r % 2..cols).step_by(2));
        offsets.push(indices.len());
    }
    let f32s = |n: usize| 4.0 * n as f64;
    let mut out = vec![0.0f32; rows * k_max];
    let cols_ns = time_calls(|| {
        w.matvec_cols_batch_packed(
            &packed,
            black_box(&xs[..width * cols]),
            width,
            &indices,
            &offsets,
            &mut out[..width * rows],
        )
        .expect("shapes match");
    });
    let active = indices.len();
    let mut batch = |k: usize| KernelTime {
        ns: time_calls(|| {
            w.matvec_batch_packed(&packed, black_box(&xs[..k * cols]), k, &mut out[..k * rows])
                .expect("shapes match");
        }),
        bytes: f32s(rows * cols + k * cols + k * rows),
    };
    [
        KernelTime {
            ns: cols_ns,
            bytes: f32s(rows * active + active + width * rows),
        },
        batch(width),
        batch(height),
    ]
}

/// Mean host ns per call of `f`, over at least 16 calls and
/// [`KERNEL_BUDGET`].
fn time_calls(mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut calls = 0u64;
    while calls < 16 || start.elapsed() < KERNEL_BUDGET {
        f();
        calls += 1;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}
