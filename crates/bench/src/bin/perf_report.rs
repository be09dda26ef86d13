//! `perf_report` — the perf-trajectory measurement bin.
//!
//! Measures honest before/after numbers for the serving hot paths **in one
//! binary**:
//!
//! * **kernels** — naive reference loops vs the optimised single-RHS and
//!   batched (multi-RHS "skinny GEMM") kernels at phi3-mini shapes,
//! * **kernels_packed** — the packed register-blocked panel kernels at the
//!   same shapes, plus the fused INT4/INT8 dequant-matvec vs materialise-then-matvec (at a
//!   weight-streaming shape where the 8x smaller packed codes pay off),
//! * **single-stream decode** — the seed-replica allocating loop on
//!   reference kernels vs the zero-allocation scratch path (PR 3's
//!   measurement, kept for trajectory continuity),
//! * **prefill** — token-at-a-time prompt ingestion vs chunked prefill
//!   (`forward_prompt_into`: the whole chunk through each layer as a
//!   matrix),
//! * **fleet** — an 8-session serve-engine fleet under shared-cache
//!   contention: the token-at-a-time sequential engine vs batch-lane
//!   execution (cross-session fused decode + chunked prefill). Both modes
//!   compute bitwise-identical schedules (see
//!   `serve/tests/batched_equivalence.rs`), so the ratio is pure host-side
//!   speed,
//! * **paged fleet** — a 2048-session closed fleet on a fixed KV page
//!   budget: paged KV without prefix sharing vs copy-on-write shared-prefix
//!   caching. The simulated tokens/sec and TTFT-p95 ratios are
//!   deterministic (virtual clock); the wall-clock ratio measures the real
//!   prefill compute the prefix cache removes,
//! * **event loop** — the open-loop engine cores head-to-head on the
//!   head-of-line stall workload (six decoders + one long-prompt premium
//!   tenant): decode TBT p99 under the step loop vs the event-driven
//!   chunked-prefill core at equal aggregate tok/s, plus a preempting
//!   one-slot fleet whose KV spills are priced on the virtual clock
//!   (spill-priced tok/s, non-zero cost per preemption). All ratios come
//!   from the virtual clock, so they are deterministic,
//! * **chaos** — the seeded fault-injection scenario (client cancels,
//!   injected deadlines, retryable aborts, KV page loss, a slow lane) with
//!   conservation and replay-determinism verified, plus the degrade-vs-shed
//!   headline: graceful strategy degradation vs pure back-pressure on the
//!   same slots and KV page pool — premium SLO lift at near-equal
//!   aggregate tok/s. All numbers are virtual-clock deterministic.
//!
//! ```text
//! cargo run --release -p bench --bin perf_report -- --quick [--out FILE] [--check BASELINE]
//!     [--paged-out FILE] [--check-paged BASELINE]
//!     [--event-out FILE] [--check-event BASELINE]
//!     [--chaos-out FILE] [--check-chaos BASELINE]
//! ```
//!
//! Writes a flat JSON report (default `BENCH_PR8.json`; the paged-fleet
//! group goes to its own file, default `BENCH_PR7.json`, the event-loop
//! group to default `BENCH_PR9.json`, and the chaos/degradation group to
//! default `BENCH_PR10.json`) and the same measurements as a
//! Prometheus text exposition next to it (`<out>.prom`, one gauge per
//! entry, `mode`/`model` as const labels) so perf numbers flow through the
//! identical pipeline the serving telemetry uses. With `--check`, the
//! *speedup ratios* (both sides measured on the current machine, so the
//! check is host-independent) are compared against the committed baseline
//! and the process exits non-zero if any single-stream decode, fleet-batch
//! or prefill speedup regressed by more than 20 %; `--check-paged` and
//! `--check-event` apply the same gate to the paged-fleet and event-loop
//! *simulated* numbers (virtual clock — deterministic, so any drift is a
//! real change; wall-clock numbers are reported but too host-noisy to
//! gate).

use dip_core::strategies::{Dip, DipCacheAware};
use hwsim::BlockCacheCapacity;
use lm::mlp::DenseMlp;
use lm::{
    build_synthetic, BatchScratch, DecodeScratch, MlpForward, ModelConfig, SliceAxis,
    TransformerModel,
};
use serve::{ExecutionMode, GenRequest, ServeConfig, ServeEngine, StrategySpec};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

struct Opts {
    quick: bool,
    out: String,
    check: Option<String>,
    paged_out: String,
    check_paged: Option<String>,
    event_out: String,
    check_event: Option<String>,
    chaos_out: String,
    check_chaos: Option<String>,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        quick: false,
        out: "BENCH_PR8.json".to_string(),
        check: None,
        paged_out: "BENCH_PR7.json".to_string(),
        check_paged: None,
        event_out: "BENCH_PR9.json".to_string(),
        check_event: None,
        chaos_out: "BENCH_PR10.json".to_string(),
        check_chaos: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" | "quick" => opts.quick = true,
            "--out" => opts.out = args.next().expect("--out needs a path"),
            "--check" => opts.check = Some(args.next().expect("--check needs a path")),
            "--paged-out" => opts.paged_out = args.next().expect("--paged-out needs a path"),
            "--check-paged" => {
                opts.check_paged = Some(args.next().expect("--check-paged needs a path"))
            }
            "--event-out" => opts.event_out = args.next().expect("--event-out needs a path"),
            "--check-event" => {
                opts.check_event = Some(args.next().expect("--check-event needs a path"))
            }
            "--chaos-out" => opts.chaos_out = args.next().expect("--chaos-out needs a path"),
            "--check-chaos" => {
                opts.check_chaos = Some(args.next().expect("--check-chaos needs a path"))
            }
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: perf_report [--quick] [--out FILE] [--check BASELINE] \
                     [--paged-out FILE] [--check-paged BASELINE] \
                     [--event-out FILE] [--check-event BASELINE] \
                     [--chaos-out FILE] [--check-chaos BASELINE]"
                );
                std::process::exit(2);
            }
        }
    }
    opts
}

/// Context window of the single-stream decode measurement: 64-token
/// assistant turns (matching the serving fleet's short-generation
/// workload), so the measurement stresses the weight-streaming kernels the
/// paper's system is bound by rather than long-context attention.
const DECODE_CONTEXT: usize = 64;

/// One token through a faithful replica of the *seed* decode loop: per-op
/// allocations, per-head attention passes over the KV cache (each position
/// re-sliced once per head), allocating softmax, allocating MLP strategy
/// API. Combined with reference-mode kernels this reproduces the pre-PR
/// scalar path inside the current binary (bitwise-identical outputs, seed
/// speed profile).
fn seed_forward_token(
    model: &TransformerModel,
    token: u32,
    state: &mut lm::DecodeState,
    strategy: &mut dyn MlpForward,
) -> Vec<f32> {
    use tensor::Vector;
    let pos = state.pos;
    let mut x: Vec<f32> = model.embedding.row(token as usize).unwrap().to_vec();
    for (li, layer) in model.layers.iter().enumerate() {
        let normed = layer.attn_norm.forward(&x);
        // seed-style attention: project, rope, then one pass over the whole
        // cache per head
        let attn = &layer.attn;
        let head_dim = model.config.d_model / model.config.n_heads;
        let group = model.config.n_heads / model.config.n_kv_heads;
        let mut q = attn.w_q.matvec(&normed).unwrap();
        let mut k = attn.w_k.matvec(&normed).unwrap();
        let v = attn.w_v.matvec(&normed).unwrap();
        lm::rope::apply_rope_multihead(&mut q, head_dim, pos, model.config.rope_theta);
        lm::rope::apply_rope_multihead(&mut k, head_dim, pos, model.config.rope_theta);
        let cache = &mut state.kv[li];
        cache.push_slices(&k, &v).unwrap();
        let seq_len = cache.len();
        let pool = cache.pool_handle().borrow();
        let ps = cache.page_size();
        let slot = |t: usize| (cache.pages()[t / ps], t % ps);
        let scale = 1.0 / (head_dim as f32).sqrt();
        let mut attended = vec![0.0f32; model.config.n_heads * head_dim];
        for h in 0..model.config.n_heads {
            let kv_head = h / group;
            let q_head = &q[h * head_dim..(h + 1) * head_dim];
            let mut scores = Vec::with_capacity(seq_len);
            for t in 0..seq_len {
                let (page, s) = slot(t);
                let key = pool.key(page, s);
                let k_head = &key[kv_head * head_dim..(kv_head + 1) * head_dim];
                scores.push(Vector::dot(q_head, k_head).unwrap() * scale);
            }
            let weights = Vector::softmax(&scores).unwrap();
            let out = &mut attended[h * head_dim..(h + 1) * head_dim];
            for (t, &w) in weights.iter().enumerate() {
                let (page, s) = slot(t);
                let value = pool.value(page, s);
                let v_head = &value[kv_head * head_dim..(kv_head + 1) * head_dim];
                for (o, vv) in out.iter_mut().zip(v_head.iter()) {
                    *o += w * vv;
                }
            }
        }
        let attn_out = attn.w_o.matvec(&attended).unwrap();
        Vector::axpy(1.0, &attn_out, &mut x).unwrap();

        let normed = layer.mlp_norm.forward(&x);
        let mlp_out = strategy.forward(li, &layer.mlp, &normed).unwrap();
        Vector::axpy(1.0, &mlp_out.y, &mut x).unwrap();
    }
    let final_x = model.final_norm.forward(&x);
    state.pos += 1;
    model.lm_head.matvec(&final_x).unwrap()
}

/// Decodes `n_tokens` through the seed-replica loop (the pre-PR path when
/// reference mode is on) and returns tokens/sec of wall-clock time.
fn decode_tps_alloc(
    model: &TransformerModel,
    strategy: &mut dyn MlpForward,
    n_tokens: usize,
) -> f64 {
    strategy.reset();
    let mut state = model.new_decode_state();
    for i in 0..32 {
        black_box(seed_forward_token(
            model,
            (i % 255) as u32,
            &mut state,
            strategy,
        ));
        if state.pos >= DECODE_CONTEXT {
            state.reset();
        }
    }
    let start = Instant::now();
    for i in 0..n_tokens {
        let token = (i % (model.config.vocab_size - 1)) as u32;
        black_box(seed_forward_token(model, token, &mut state, strategy));
        if state.pos >= DECODE_CONTEXT {
            state.reset();
        }
    }
    n_tokens as f64 / start.elapsed().as_secs_f64()
}

/// Decodes `n_tokens` through the zero-allocation scratch path.
fn decode_tps_scratch(
    model: &TransformerModel,
    strategy: &mut dyn MlpForward,
    n_tokens: usize,
) -> f64 {
    strategy.reset();
    let mut state = model.new_decode_state();
    let mut scratch = DecodeScratch::for_model(model);
    for i in 0..32 {
        model
            .forward_token_into((i % 255) as u32, &mut state, strategy, &mut scratch)
            .expect("warm-up");
        if state.pos >= DECODE_CONTEXT {
            state.reset();
        }
    }
    let start = Instant::now();
    for i in 0..n_tokens {
        let token = (i % (model.config.vocab_size - 1)) as u32;
        model
            .forward_token_into(token, &mut state, strategy, &mut scratch)
            .expect("decode");
        black_box(&scratch.logits);
        if state.pos >= DECODE_CONTEXT {
            state.reset();
        }
    }
    n_tokens as f64 / start.elapsed().as_secs_f64()
}

/// Prompt length of the prefill measurement (a long assistant context).
const PREFILL_PROMPT: usize = 128;
/// Chunk height of the chunked-prefill measurement (the serve engine's
/// `MAX_PREFILL_CHUNK`).
const PREFILL_CHUNK: usize = 64;

fn prefill_prompt(model: &TransformerModel) -> Vec<u32> {
    (0..PREFILL_PROMPT)
        .map(|i| ((i * 11 + 3) % (model.config.vocab_size - 1)) as u32)
        .collect()
}

/// Token-at-a-time prefill: the prompt through `forward_token_into`, one
/// position per forward pass — the pre-PR 5 ingestion path (run under
/// reference-mode kernels by the caller for the "before" measurement, the
/// same honest-before convention the decode and fleet rows use).
fn prefill_tps_token(model: &TransformerModel, reps: usize) -> f64 {
    let prompt = prefill_prompt(model);
    let mut state = model.new_decode_state();
    let mut scratch = DecodeScratch::for_model(model);
    let mut strategy = DenseMlp;
    let mut run = |state: &mut lm::DecodeState| {
        state.reset();
        for &t in &prompt {
            model
                .forward_token_into(t, state, &mut strategy, &mut scratch)
                .expect("prefill token");
        }
        black_box(&scratch.logits);
    };
    run(&mut state); // warm-up (sizes scratch, builds mirrors)
    let mut best = f64::MIN;
    for _ in 0..reps {
        let start = Instant::now();
        run(&mut state);
        best = best.max(prompt.len() as f64 / start.elapsed().as_secs_f64());
    }
    best
}

/// Chunked prefill: the same prompt through `forward_prompt_into` in
/// `PREFILL_CHUNK`-token chunks (one fused weight pass per chunk per
/// matrix). Logits of the final position are bitwise identical to the
/// token-at-a-time loop.
fn prefill_tps_chunked(model: &TransformerModel, reps: usize) -> f64 {
    let prompt = prefill_prompt(model);
    let mut state = model.new_decode_state();
    let mut batch = BatchScratch::for_model(model);
    let mut strategy = DenseMlp;
    let mut run = |state: &mut lm::DecodeState| {
        state.reset();
        for chunk in prompt.chunks(PREFILL_CHUNK) {
            model
                .forward_prompt_into(chunk, state, &mut strategy, &mut batch)
                .expect("prefill chunk");
        }
        black_box(&batch.logits);
    };
    run(&mut state);
    let mut best = f64::MIN;
    for _ in 0..reps {
        let start = Instant::now();
        run(&mut state);
        best = best.max(prompt.len() as f64 / start.elapsed().as_secs_f64());
    }
    best
}

fn capacities(config: &ModelConfig) -> Vec<BlockCacheCapacity> {
    (0..config.n_layers)
        .map(|_| BlockCacheCapacity {
            up: config.d_model / 2,
            gate: config.d_model / 2,
            down: config.d_ff / 2,
        })
        .collect()
}

/// Builds a warm 8-session serving engine (layout with a ~55% MLP cache,
/// INT4 weights) in the given execution mode.
fn fleet_engine(
    config: &ModelConfig,
    tokens_per_session: usize,
    execution: ExecutionMode,
) -> ServeEngine {
    let sessions = 8usize;
    let kv_budget = (4 + tokens_per_session + 2).min(config.max_seq_len);
    let layout =
        serve::layout::layout_for_serving(config, [SliceAxis::Input; 3], 4.0, sessions, kv_budget);
    let dram = layout.static_bytes + ((layout.mlp_bytes() as f64) * 0.55) as u64;
    let device = hwsim::DeviceConfig::apple_a18(4.0).with_dram_bytes(dram);
    let model = build_synthetic(config, 13).expect("model builds");
    let serve_config = ServeConfig::new(device)
        .with_max_concurrent(sessions)
        .with_kv_budget(kv_budget)
        .with_execution(execution);
    ServeEngine::new(model, serve_config).expect("engine builds")
}

fn fleet_requests(spec: StrategySpec, tokens_per_session: usize) -> Vec<GenRequest> {
    (0..8usize)
        .map(|i| {
            GenRequest::new(
                i as u64,
                vec![(i % 5) as u32 + 1, (i % 11) as u32 + 2],
                tokens_per_session,
                spec,
            )
        })
        .collect()
}

/// Wall-clock tokens/sec of one `ServeEngine::run` call on a warm engine
/// (prefill + decode tokens over real elapsed time — the wall-clock
/// counterpart of the simulated `aggregate_tps`). The engine persists
/// across calls, as a long-lived serving deployment would: weight mirrors
/// and scratch buffers are built once, not once per fleet.
fn fleet_wall_tps(engine: &mut ServeEngine, spec: StrategySpec, tokens_per_session: usize) -> f64 {
    let requests = fleet_requests(spec, tokens_per_session);
    let total_tokens: usize = requests.iter().map(|r| r.total_tokens()).sum();
    let start = Instant::now();
    let report = engine.run(requests).expect("fleet runs");
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(report.total_generated_tokens, 8 * tokens_per_session);
    total_tokens as f64 / elapsed
}

/// Best-of-`reps` tokens/sec: rerunning the whole measurement and keeping
/// the fastest run filters out noisy-neighbor windows on shared runners
/// (the CI regression gate compares ratios of these).
fn best_tps(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..reps).map(|_| f()).fold(f64::MIN, f64::max)
}

/// Sessions in the paged-fleet measurement. The tiny-model fleet is cheap
/// enough to run the headline size in both `--quick` and full mode, which
/// keeps the simulated ratios (virtual clock, deterministic) identical
/// across modes — the committed baseline gates exactly.
const PAGED_FLEET_SESSIONS: usize = 2048;
/// Template prefix length of the paged fleet (shared system prompt).
const PAGED_PREFIX: usize = 12;
/// Generated tokens per paged-fleet session.
const PAGED_GEN: usize = 6;

/// A paged-KV fleet engine mirroring
/// `experiments::serving::run_paged_fleet`: tiny model, 64 slots, fixed
/// page budget sized to half the slots' worst case (memory binds first).
fn paged_fleet_engine(sharing: bool) -> ServeEngine {
    let config = ModelConfig::tiny();
    let slots = 64usize;
    let page_size = 4usize;
    let total = PAGED_PREFIX + 2 + PAGED_GEN;
    let per_session = config.n_layers * lm::pages_spanning(total, page_size);
    let pool_pages = per_session * (slots / 2);
    let kv_budget = total.min(config.max_seq_len);
    let layout =
        serve::layout::layout_for_serving(&config, [SliceAxis::Input; 3], 4.0, slots, kv_budget);
    let dram = layout.static_bytes + ((layout.mlp_bytes() as f64) * 0.55) as u64;
    let device = hwsim::DeviceConfig::apple_a18(4.0).with_dram_bytes(dram);
    let model = build_synthetic(&config, 13).expect("tiny model builds");
    let mut serve_config = ServeConfig::new(device)
        .with_max_concurrent(slots)
        .with_kv_budget(kv_budget)
        .with_paged_kv(page_size, pool_pages);
    if sharing {
        serve_config = serve_config.with_prefix_sharing();
    }
    ServeEngine::new(model, serve_config).expect("paged engine builds")
}

/// The paged fleet's requests: two assistant templates, each opening with
/// its own 12-token shared system prompt, plus a 2-token unique suffix.
fn paged_fleet_requests() -> Vec<GenRequest> {
    let vocab = ModelConfig::tiny().vocab_size as u32;
    let prefixes: Vec<Vec<u32>> = (0..2u32)
        .map(|t| {
            (0..PAGED_PREFIX as u32)
                .map(|i| (t * 31 + i * 7 + 1) % vocab)
                .collect()
        })
        .collect();
    (0..PAGED_FLEET_SESSIONS)
        .map(|i| {
            let mut prompt = prefixes[i % 2].clone();
            prompt.extend([(i % 23) as u32 + 1, (i % 17) as u32 + 2]);
            GenRequest::new(i as u64, prompt, PAGED_GEN, StrategySpec::Dense)
                .with_shared_prefix(PAGED_PREFIX)
        })
        .collect()
}

/// Wall-clock tokens/sec of one paged-fleet run on a warm engine. The
/// numerator is the *requested* token total (identical whether or not the
/// prefix cache skipped prefill work), so the shared/isolated ratio
/// measures exactly the compute the cache removed.
fn paged_fleet_wall_tps(engine: &mut ServeEngine) -> f64 {
    let requests = paged_fleet_requests();
    let total_tokens: usize = requests.iter().map(|r| r.total_tokens()).sum();
    let start = Instant::now();
    let report = engine.run(requests).expect("paged fleet runs");
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(
        report.total_generated_tokens,
        PAGED_FLEET_SESSIONS * PAGED_GEN
    );
    total_tokens as f64 / elapsed
}

/// Times `f` and returns the best-of-`reps` nanoseconds per call.
fn best_ns(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..inner {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / inner as f64);
    }
    best
}

fn main() {
    let opts = parse_args();
    let (decode_tokens, kernel_reps, prefill_reps) = if opts.quick {
        (512, 30, 3)
    } else {
        (2048, 80, 8)
    };
    let config = ModelConfig::phi3_mini_sim();
    let model = build_synthetic(&config, 42).expect("phi3-mini-sim builds");
    let mut entries: Vec<(String, f64)> = Vec::new();

    // ---- kernel micro-benchmarks at phi3-mini shapes ----
    let mlp = &model.layers[0].mlp;
    let x: Vec<f32> = (0..mlp.d_model())
        .map(|i| {
            let v = (i as f32 * 0.37).sin();
            v * v * v * 3.0
        })
        .collect();
    let active: Vec<usize> = (0..mlp.d_model()).step_by(2).collect();
    let mut out = vec![0.0f32; mlp.d_ff()];

    let packed_up = tensor::PackedMatrix::pack(&mlp.w_up);

    let naive_matvec = best_ns(kernel_reps, 200, || {
        tensor::reference::matvec_into(&mlp.w_up, black_box(&x), &mut out)
    });
    let fast_matvec = best_ns(kernel_reps, 200, || {
        mlp.w_up.matvec_into(black_box(&x), &mut out).unwrap()
    });
    let packed_matvec = best_ns(kernel_reps, 200, || {
        mlp.w_up
            .matvec_packed(&packed_up, black_box(&x), &mut out)
            .unwrap()
    });
    let naive_cols = best_ns(kernel_reps, 200, || {
        tensor::reference::matvec_cols_into(&mlp.w_up, black_box(&x), &active, &mut out)
    });
    let fast_cols = best_ns(kernel_reps, 200, || {
        mlp.w_up
            .matvec_cols_into(black_box(&x), &active, &mut out)
            .unwrap()
    });
    let packed_cols = best_ns(kernel_reps, 200, || {
        mlp.w_up
            .matvec_cols_packed(&packed_up, black_box(&x), &active, &mut out)
            .unwrap()
    });
    entries.push(("kernel_matvec_reference_ns".into(), naive_matvec));
    entries.push(("kernel_matvec_optimized_ns".into(), fast_matvec));
    entries.push(("kernel_matvec_packed_ns".into(), packed_matvec));
    entries.push((
        "kernel_matvec_speedup".into(),
        naive_matvec / fast_matvec.min(packed_matvec),
    ));
    entries.push(("kernel_matvec_cols50_reference_ns".into(), naive_cols));
    entries.push(("kernel_matvec_cols50_gathered_ns".into(), fast_cols));
    entries.push(("kernel_matvec_cols50_packed_ns".into(), packed_cols));
    entries.push((
        "kernel_matvec_cols50_speedup".into(),
        naive_cols / fast_cols.min(packed_cols),
    ));

    // batched (multi-RHS) kernels: 8 stacked activation vectors, one weight
    // pass — compared per token against 8 single matvecs
    let batch_k = 8usize;
    let xs: Vec<f32> = (0..batch_k * mlp.d_model())
        .map(|i| ((i as f32) * 0.23).sin())
        .collect();
    let mut out_batch = vec![0.0f32; batch_k * mlp.d_ff()];
    let batch_ns = best_ns(kernel_reps, 50, || {
        mlp.w_up
            .matvec_batch_into(black_box(&xs), batch_k, &mut out_batch)
            .unwrap()
    });
    let batch_packed_ns = best_ns(kernel_reps, 50, || {
        mlp.w_up
            .matvec_batch_packed(&packed_up, black_box(&xs), batch_k, &mut out_batch)
            .unwrap()
    });
    let per_token_batch = (batch_ns / batch_k as f64).min(batch_packed_ns / batch_k as f64);
    entries.push(("kernel_matvec_batch8_ns".into(), batch_ns));
    entries.push(("kernel_matvec_batch8_packed_ns".into(), batch_packed_ns));
    entries.push((
        "kernel_matvec_batch8_per_token_speedup".into(),
        fast_matvec.min(packed_matvec) / per_token_batch,
    ));

    // ---- kernels_packed: the fused INT4/INT8 dequant-matvec against
    //      materialising the f32 reconstruction and streaming it. The f32
    //      rows above are L2-resident; the fused comparison runs at a
    //      weight-streaming shape (d_ff x d_model of a mid-size model) where
    //      the matvec is memory-bound and the 8x/4x smaller codes buy real
    //      bandwidth. ----
    {
        use quant::{BlockwiseQuantizer, PackedQuantMatrix};
        use tensor::QuantMatvec;
        let (big_rows, big_cols) = (4096usize, 1536usize);
        let w_big = tensor::Matrix::from_vec(
            big_rows,
            big_cols,
            (0..big_rows * big_cols)
                .map(|i| ((i as f32) * 0.013).sin())
                .collect(),
        )
        .expect("big weight builds");
        let x_big: Vec<f32> = (0..big_cols).map(|i| ((i as f32) * 0.29).cos()).collect();
        let mut out_big = vec![0.0f32; big_rows];
        let dequant_reps = kernel_reps.min(20);
        for bits in [4u8, 8u8] {
            let quantizer = BlockwiseQuantizer::new(bits, 32).expect("quantizer");
            let fused = PackedQuantMatrix::quantize(&w_big, &quantizer).expect("packs");
            // materialise-then-matvec: the pre-fused serving path pays the
            // one-off reconstruction at load time, then streams the full
            // f32 matrix every token — so the per-token cost is the packed
            // f32 matvec over the reconstruction
            let w_deq = quantizer.quantize_dequantize(&w_big);
            let packed_deq = tensor::PackedMatrix::pack(&w_deq);
            let materialized_ns = best_ns(dequant_reps, 4, || {
                w_deq
                    .matvec_packed(&packed_deq, black_box(&x_big), &mut out_big)
                    .unwrap()
            });
            let fused_ns = best_ns(dequant_reps, 4, || {
                fused.matvec_into(black_box(&x_big), &mut out_big).unwrap()
            });
            println!(
                "fused int{bits} dequant-matvec ({big_rows}x{big_cols}): \
                 {materialized_ns:.0} -> {fused_ns:.0} ns ({:.2}x)",
                materialized_ns / fused_ns
            );
            entries.push((
                format!("kernel_dequant{bits}_materialized_ns"),
                materialized_ns,
            ));
            entries.push((format!("kernel_dequant{bits}_fused_ns"), fused_ns));
            entries.push((
                format!("kernel_dequant{bits}_fused_speedup"),
                materialized_ns / fused_ns,
            ));
        }
    }

    // ---- single-stream decode, before (reference kernels + allocating
    //      path) vs after (optimised kernels + scratch path) ----
    let strategies: Vec<(&str, Box<dyn MlpForward>)> = vec![
        ("dense", Box::new(DenseMlp)),
        ("dip", Box::new(Dip::new(0.5, 0.5).unwrap())),
        (
            "dip_ca",
            Box::new(
                DipCacheAware::new(
                    0.5,
                    0.5,
                    0.2,
                    config.d_model,
                    config.d_ff,
                    capacities(&config),
                )
                .unwrap(),
            ),
        ),
    ];
    for (name, mut strategy) in strategies {
        tensor::kernels::set_reference_mode(true);
        let before = best_tps(3, || {
            decode_tps_alloc(&model, strategy.as_mut(), decode_tokens)
        });
        tensor::kernels::set_reference_mode(false);
        let after = best_tps(3, || {
            decode_tps_scratch(&model, strategy.as_mut(), decode_tokens)
        });
        println!(
            "decode {name}: {before:.0} -> {after:.0} tok/s ({:.2}x)",
            after / before
        );
        entries.push((format!("decode_{name}_reference_tps"), before));
        entries.push((format!("decode_{name}_optimized_tps"), after));
        entries.push((format!("decode_{name}_speedup"), after / before));
    }

    // ---- prefill: token-at-a-time on reference kernels (the pre-PR
    //      ingestion path, same before/after convention as the decode and
    //      fleet rows) vs chunked on the optimised kernels ----
    tensor::kernels::set_reference_mode(true);
    let prefill_token = prefill_tps_token(&model, prefill_reps.min(3));
    tensor::kernels::set_reference_mode(false);
    let prefill_optimized_token = prefill_tps_token(&model, prefill_reps);
    let prefill_chunked = prefill_tps_chunked(&model, prefill_reps);
    println!(
        "prefill: {prefill_token:.0} -> {prefill_chunked:.0} tok/s ({:.2}x)",
        prefill_chunked / prefill_token
    );
    entries.push(("prefill_token_at_a_time_tps".into(), prefill_token));
    entries.push((
        "prefill_token_optimized_tps".into(),
        prefill_optimized_token,
    ));
    entries.push(("prefill_chunked_tps".into(), prefill_chunked));
    entries.push(("prefill_speedup".into(), prefill_chunked / prefill_token));
    entries.push((
        "prefill_chunking_speedup".into(),
        prefill_chunked / prefill_optimized_token,
    ));

    // ---- 8-session fleet through the serve engine (wall clock):
    //      reference kernels + sequential engine ("before"), optimised
    //      kernels + sequential engine, optimised kernels + batch lanes
    //      ("after"). All three compute the same schedule. ----
    let fleet_tokens = if opts.quick { 16 } else { 48 };
    for (name, spec) in [
        ("dense", StrategySpec::Dense),
        ("dip", StrategySpec::Dip { density: 0.5 }),
        (
            "dip_ca",
            StrategySpec::DipCacheAware {
                density: 0.5,
                gamma: 0.2,
            },
        ),
    ] {
        let mut seq_engine = fleet_engine(&config, fleet_tokens, ExecutionMode::Sequential);
        let mut batched_engine = fleet_engine(&config, fleet_tokens, ExecutionMode::Batched);
        tensor::kernels::set_reference_mode(true);
        let reference = best_tps(3, || fleet_wall_tps(&mut seq_engine, spec, fleet_tokens));
        tensor::kernels::set_reference_mode(false);
        let sequential = best_tps(3, || fleet_wall_tps(&mut seq_engine, spec, fleet_tokens));
        let batched = best_tps(3, || {
            fleet_wall_tps(&mut batched_engine, spec, fleet_tokens)
        });
        println!(
            "fleet8 {name}: {reference:.0} (reference) -> {sequential:.0} (sequential) -> \
             {batched:.0} (batched) tok/s (batch {:.2}x)",
            batched / sequential
        );
        entries.push((format!("fleet8_{name}_reference_tps"), reference));
        entries.push((format!("fleet8_{name}_sequential_tps"), sequential));
        entries.push((format!("fleet8_{name}_optimized_tps"), batched));
        entries.push((format!("fleet8_{name}_speedup"), batched / reference));
        entries.push((format!("fleet8_{name}_batch_speedup"), batched / sequential));
    }

    // ---- paged-KV fleet: 2048 template-sharing sessions on a fixed page
    //      budget, prefix sharing off vs on. The simulated tok/s and
    //      TTFT-p95 ratios come from the virtual clock (deterministic, so
    //      `--quick` and full mode gate against the same baseline); the
    //      wall-clock ratio measures the prefill compute the prefix cache
    //      removes on this host. ----
    let tiny = ModelConfig::tiny();
    let scenario = experiments::serving::run_paged_fleet(PAGED_FLEET_SESSIONS)
        .expect("paged-fleet scenario runs");
    let shared_stats = scenario.shared.paged_kv.as_ref().expect("paged stats");
    let sim_speedup = scenario.shared.aggregate_tps / scenario.isolated.aggregate_tps;
    let ttft_speedup = scenario.isolated_ttft_p95_s / scenario.shared_ttft_p95_s.max(1e-12);
    let mut isolated_engine = paged_fleet_engine(false);
    let mut shared_engine = paged_fleet_engine(true);
    let isolated_wall = best_tps(3, || paged_fleet_wall_tps(&mut isolated_engine));
    let shared_wall = best_tps(3, || paged_fleet_wall_tps(&mut shared_engine));
    println!(
        "paged fleet ({PAGED_FLEET_SESSIONS} sessions): sim {:.0} -> {:.0} tok/s ({sim_speedup:.2}x), \
         TTFT p95 {ttft_speedup:.2}x, wall {isolated_wall:.0} -> {shared_wall:.0} tok/s ({:.2}x)",
        scenario.isolated.aggregate_tps,
        scenario.shared.aggregate_tps,
        shared_wall / isolated_wall
    );
    let paged_entries: Vec<(String, f64)> = vec![
        ("paged_fleet_sessions".into(), PAGED_FLEET_SESSIONS as f64),
        ("paged_fleet_pool_pages".into(), scenario.pool_pages as f64),
        (
            "paged_fleet_isolated_sim_tps".into(),
            scenario.isolated.aggregate_tps,
        ),
        (
            "paged_fleet_shared_sim_tps".into(),
            scenario.shared.aggregate_tps,
        ),
        ("paged_fleet_sharing_speedup".into(), sim_speedup),
        ("paged_fleet_ttft_p95_speedup".into(), ttft_speedup),
        (
            "paged_fleet_prefix_hits".into(),
            shared_stats.prefix_hits as f64,
        ),
        (
            "paged_fleet_prefix_tokens_saved".into(),
            shared_stats.prefix_tokens_saved as f64,
        ),
        (
            "paged_fleet_pages_high_water".into(),
            shared_stats.pages_high_water as f64,
        ),
        ("paged_fleet_isolated_wall_tps".into(), isolated_wall),
        ("paged_fleet_shared_wall_tps".into(), shared_wall),
        (
            "paged_fleet_wall_speedup".into(),
            shared_wall / isolated_wall,
        ),
    ];

    // ---- event-loop core: head-of-line stall + spill pricing, all on the
    //      deterministic virtual clock (no wall-clock rows; `--quick` and
    //      full mode gate against the same baseline) ----
    let stall = experiments::serving::run_event_loop_stall().expect("event-loop scenario runs");
    let spill_ol = stall.spill.open_loop.as_ref().expect("open-loop stats");
    let cost_per_preemption_us = 1e6 * spill_ol.kv_swap_s / spill_ol.preemptions.max(1) as f64;
    println!(
        "event loop: decode TBT p99 {:.3} -> {:.3} us ({:.2}x stall cut) at {:.2}x tok/s; \
         spill fleet {:.0} tok/s, {:.3} us/preemption over {} preemptions",
        1e6 * stall.step_tbt_p99_s,
        1e6 * stall.event_tbt_p99_s,
        stall.stall_ratio,
        stall.tps_ratio,
        stall.spill.aggregate_tps,
        cost_per_preemption_us,
        spill_ol.preemptions
    );
    let event_entries: Vec<(String, f64)> = vec![
        ("event_loop_decoders".into(), stall.decoders as f64),
        (
            "event_loop_long_prompt_tokens".into(),
            stall.long_prompt_tokens as f64,
        ),
        (
            "event_loop_prefill_chunk_tokens".into(),
            stall.prefill_chunk_tokens as f64,
        ),
        (
            "event_loop_step_tbt_p99_us".into(),
            1e6 * stall.step_tbt_p99_s,
        ),
        (
            "event_loop_event_tbt_p99_us".into(),
            1e6 * stall.event_tbt_p99_s,
        ),
        ("event_loop_tbt_p99_stall_ratio".into(), stall.stall_ratio),
        ("event_loop_step_sim_tps".into(), stall.step.aggregate_tps),
        ("event_loop_event_sim_tps".into(), stall.event.aggregate_tps),
        ("event_loop_tps_ratio".into(), stall.tps_ratio),
        (
            "event_loop_spill_fleet_sim_tps".into(),
            stall.spill.aggregate_tps,
        ),
        (
            "event_loop_spill_preemptions".into(),
            spill_ol.preemptions as f64,
        ),
        (
            "event_loop_spill_kv_swap_us".into(),
            1e6 * spill_ol.kv_swap_s,
        ),
        (
            "event_loop_spill_kv_swap_bytes".into(),
            spill_ol.kv_swap_bytes,
        ),
        (
            "event_loop_cost_per_preemption_us".into(),
            cost_per_preemption_us,
        ),
    ];
    assert!(
        cost_per_preemption_us > 0.0,
        "every preemption must carry a non-zero priced virtual cost"
    );

    // ---- chaos + graceful degradation: seeded fault injection with
    //      conservation and replay determinism verified, plus the
    //      degrade-vs-shed headline — all virtual-clock numbers, so
    //      `--quick` and full mode gate against the same baseline ----
    // seed 4 exercises every lifecycle path at once: client cancels,
    // injected deadline expiries, a retried abort, and KV page loss
    let chaos_seed = 4u64;
    let chaos = experiments::serving::run_chaos(chaos_seed).expect("chaos scenario runs");
    let chaos_replay = experiments::serving::run_chaos(chaos_seed).expect("chaos replay runs");
    let chaos_deterministic =
        chaos.chaos == chaos_replay.chaos && chaos.clean == chaos_replay.clean;
    let chaos_conserved = experiments::serving::conservation_violation(&chaos.clean).is_none()
        && experiments::serving::conservation_violation(&chaos.chaos).is_none();
    let chaos_ol = chaos.chaos.open_loop.as_ref().expect("open-loop stats");
    let headline =
        experiments::serving::run_degrade_vs_shed().expect("degrade-vs-shed scenario runs");
    println!(
        "chaos (seed {chaos_seed}): {} arrived -> {} completed, {} cancelled, {} expired, \
         {} failed after {} retries, {} pages lost; degrade vs shed: premium SLO \
         {:.1}% -> {:.1}% at {:.3}x tok/s",
        chaos_ol.arrived,
        chaos_ol.completed,
        chaos_ol.cancelled,
        chaos_ol.deadline_expired,
        chaos_ol.failed,
        chaos_ol.retries,
        chaos_ol.kv_pages_lost,
        100.0 * headline.shed_premium_slo,
        100.0 * headline.degrade_premium_slo,
        headline.tps_ratio
    );
    let chaos_entries: Vec<(String, f64)> = vec![
        ("chaos_seed".into(), chaos_seed as f64),
        ("chaos_arrived".into(), chaos_ol.arrived as f64),
        ("chaos_completed".into(), chaos_ol.completed as f64),
        ("chaos_cancelled".into(), chaos_ol.cancelled as f64),
        (
            "chaos_deadline_expired".into(),
            chaos_ol.deadline_expired as f64,
        ),
        ("chaos_failed".into(), chaos_ol.failed as f64),
        ("chaos_retries".into(), chaos_ol.retries as f64),
        ("chaos_kv_pages_lost".into(), chaos_ol.kv_pages_lost as f64),
        (
            "chaos_kv_refill_tokens".into(),
            chaos_ol.kv_refill_tokens as f64,
        ),
        (
            "chaos_degraded_sessions".into(),
            chaos_ol.degraded_sessions as f64,
        ),
        ("chaos_sim_tps".into(), chaos.chaos.aggregate_tps),
        ("chaos_clean_sim_tps".into(), chaos.clean.aggregate_tps),
        (
            "chaos_conserved".into(),
            if chaos_conserved { 1.0 } else { 0.0 },
        ),
        (
            "chaos_deterministic".into(),
            if chaos_deterministic { 1.0 } else { 0.0 },
        ),
        ("degrade_vs_shed_slots".into(), headline.slots as f64),
        (
            "degrade_vs_shed_pool_pages".into(),
            headline.pool_pages as f64,
        ),
        ("shed_premium_slo".into(), headline.shed_premium_slo),
        ("degrade_premium_slo".into(), headline.degrade_premium_slo),
        ("degrade_premium_slo_lift".into(), headline.premium_slo_lift),
        ("degrade_tps_ratio".into(), headline.tps_ratio),
        (
            "degrade_shed_only_sim_tps".into(),
            headline.shed_only.aggregate_tps,
        ),
        (
            "degrade_degraded_sim_tps".into(),
            headline.degraded.aggregate_tps,
        ),
    ];

    // ---- write the reports ----
    let mode = if opts.quick { "quick" } else { "full" };
    write_flat_json(&opts.out, &config.name, mode, &entries);
    write_flat_json(&opts.paged_out, &tiny.name, mode, &paged_entries);
    write_flat_json(&opts.event_out, &tiny.name, mode, &event_entries);
    write_flat_json(&opts.chaos_out, &tiny.name, mode, &chaos_entries);

    // ---- the same entries through the telemetry exposition pipeline ----
    // one writer, two sinks per group: the flat JSON above stays the
    // `--check`/`--check-paged`/`--check-event` baseline format, the
    // exposition below feeds the same scrape tooling the serving bin's
    // --metrics-out output does
    write_exposition(&opts.out, &config.name, mode, &entries);
    write_exposition(&opts.paged_out, &tiny.name, mode, &paged_entries);
    write_exposition(&opts.event_out, &tiny.name, mode, &event_entries);
    write_exposition(&opts.chaos_out, &tiny.name, mode, &chaos_entries);

    // ---- regression checks against the committed baselines ----
    let mut failures = Vec::new();
    let mut checked = false;
    if let Some(baseline_path) = &opts.check {
        checked = true;
        failures.extend(check_ratios(
            baseline_path,
            &entries,
            &[
                "decode_dense_speedup",
                "decode_dip_speedup",
                "decode_dip_ca_speedup",
                "prefill_speedup",
                "fleet8_dense_speedup",
                "fleet8_dip_speedup",
                "fleet8_dip_ca_speedup",
            ],
        ));
    }
    // only the simulated ratios are gated: they run on the virtual clock
    // and reproduce bit-for-bit, so any drift is a real scheduling or
    // sharing change. The wall-clock ratio is reported for trajectory but
    // not gated — host noise on shared runners spans more than the 20%
    // tolerance even best-of-3.
    if let Some(baseline_path) = &opts.check_paged {
        checked = true;
        failures.extend(check_ratios(
            baseline_path,
            &paged_entries,
            &[
                "paged_fleet_sharing_speedup",
                "paged_fleet_ttft_p95_speedup",
            ],
        ));
    }
    // event-loop rows are all virtual-clock numbers, so the stall cut, the
    // equal-work throughput ratio and the spill-priced fleet tok/s gate
    // exactly like the paged simulated ratios do
    if let Some(baseline_path) = &opts.check_event {
        checked = true;
        failures.extend(check_ratios(
            baseline_path,
            &event_entries,
            &[
                "event_loop_tbt_p99_stall_ratio",
                "event_loop_tps_ratio",
                "event_loop_spill_fleet_sim_tps",
            ],
        ));
    }
    // chaos rows are virtual-clock numbers too; the gate holds the
    // robustness trajectory — requests completed under the same fault
    // plan, the premium SLO lift degradation buys, near-equal throughput,
    // and the two binary invariants (conservation, replay determinism)
    // which a 20% tolerance on a 0-or-1 value only passes at exactly 1
    if let Some(baseline_path) = &opts.check_chaos {
        checked = true;
        failures.extend(check_ratios(
            baseline_path,
            &chaos_entries,
            &[
                "chaos_completed",
                "chaos_conserved",
                "chaos_deterministic",
                "degrade_premium_slo_lift",
                "degrade_tps_ratio",
            ],
        ));
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("REGRESSION {f}");
        }
        std::process::exit(1);
    }
    if checked {
        println!("regression check passed");
    }
}

/// Writes one measurement group as the flat JSON the `--check` gates parse.
fn write_flat_json(path: &str, model: &str, mode: &str, entries: &[(String, f64)]) {
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"model\": \"{model}\",");
    let _ = writeln!(json, "  \"mode\": \"{mode}\",");
    for (i, (k, v)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        let _ = writeln!(json, "  \"{k}\": {v:.3}{comma}");
    }
    json.push_str("}\n");
    std::fs::write(path, &json).expect("write report");
    println!("wrote {path}");
}

/// Writes the same group as a Prometheus text exposition next to the JSON
/// (`<out>.prom`, one gauge per entry, `mode`/`model` as const labels).
fn write_exposition(out: &str, model: &str, mode: &str, entries: &[(String, f64)]) {
    let mut registry =
        telemetry::MetricsRegistry::with_const_labels(&[("mode", mode), ("model", model)]);
    for (key, value) in entries {
        let (_, unit) = unit_of(key);
        let id = registry.gauge(&format!("perf_{key}"), unit);
        registry.set(id, *value);
    }
    let exposition = telemetry::render_prometheus(&registry);
    telemetry::check_exposition(&exposition).expect("internal error: invalid exposition");
    let prom_out = format!("{out}.prom");
    std::fs::write(&prom_out, &exposition).expect("write exposition");
    println!("wrote {prom_out}");
}

/// The unit a key's suffix implies: the symbol `check_ratios` prints after
/// a value (with its leading space, if any) and the exposition help text.
fn unit_of(key: &str) -> (&'static str, &'static str) {
    const UNITS: [(&str, &str, &str); 6] = [
        ("_ns", " ns", "nanoseconds per call, best-of-reps"),
        ("_us", " us", "microseconds of virtual-clock time"),
        ("_tps", " tok/s", "tokens per second of wall clock"),
        ("_speedup", "x", "speedup ratio (dimensionless)"),
        ("_ratio", "x", "ratio (dimensionless)"),
        ("_bytes", " B", "bytes of priced traffic"),
    ];
    UNITS
        .iter()
        .find(|(suffix, ..)| key.ends_with(suffix))
        .map_or(("", "count (dimensionless)"), |&(_, symbol, help)| {
            (symbol, help)
        })
}

/// Compares each `keys` entry against the committed baseline and returns
/// the failures. Speedups are self-normalising (both sides of every ratio
/// are measured on this host — or on the deterministic virtual clock), so
/// the check transfers across machines; >20% regression fails.
fn check_ratios(baseline_path: &str, entries: &[(String, f64)], keys: &[&str]) -> Vec<String> {
    let baseline = std::fs::read_to_string(baseline_path).expect("read baseline");
    let mut failures = Vec::new();
    for key in keys {
        let expected = extract_number(&baseline, key)
            .unwrap_or_else(|| panic!("baseline {baseline_path} lacks `{key}`"));
        let measured = entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .expect("measured entry present");
        let (unit, _) = unit_of(key);
        if measured < expected * 0.8 {
            failures.push(format!(
                "{key}: measured {measured:.2}{unit} vs baseline {expected:.2}{unit} (>20% \
                 regression)"
            ));
        } else {
            println!("check {key}: {measured:.2}{unit} vs baseline {expected:.2}{unit} — ok");
        }
    }
    failures
}

/// Extracts `"key": <number>` from a flat JSON document.
fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+')
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
