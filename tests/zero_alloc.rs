//! Steady-state decode must be allocation-free on the dense and DIP paths.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! phase sizes every scratch buffer (and the KV cache reserves its full
//! flat storage), a window of further decoded tokens must perform **zero**
//! heap allocations — the contract of `lm::DecodeScratch` and the `_into`
//! kernel plumbing.
//!
//! The counting allocator is process-global, so every test body runs under
//! one lock ([`serial`]): run in parallel, each test would count its
//! neighbours' allocations. A thread-local counter is not an option — it
//! would stop counting the allocations of `WorkerPool` threads.

use dip_core::strategies::{Dip, DipCacheAware};
use dynamic_sparsity::lm::mlp::DenseMlp;
use dynamic_sparsity::lm::{build_synthetic, DecodeScratch, MlpForward, ModelConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates every operation to the system allocator unchanged; the
// counter is a relaxed atomic with no allocation of its own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

static SERIAL: Mutex<()> = Mutex::new(());

/// Serialises the tests of this file. Poison-tolerant: one failing test
/// must not fail the ones after it.
///
/// The lock orders test *bodies* only: the test harness still allocates
/// around them (the thread that just released the lock reports its result,
/// the harness spawns the next test thread). Before handing the lock over,
/// wait until the counter has been still for a few milliseconds, so a fast
/// (release-mode) warm-up cannot put that traffic inside a measured window.
fn serial() -> MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut last = allocations();
    for _ in 0..200 {
        std::thread::sleep(std::time::Duration::from_millis(5));
        let now = allocations();
        if now == last {
            break;
        }
        last = now;
    }
    guard
}

fn assert_zero_alloc_decode(name: &str, mut strategy: Box<dyn MlpForward>) {
    let model = build_synthetic(&ModelConfig::tiny(), 7).expect("tiny model builds");
    let mut state = model.new_decode_state();
    let mut scratch = DecodeScratch::for_model(&model);
    let tokens: Vec<u32> = (0..24u32).map(|i| (i * 5 + 1) % 60).collect();

    // Warm-up: sizes every scratch buffer and makes the KV cache reserve
    // its full flat storage (one reservation per layer, at the first push).
    for &t in &tokens[..8] {
        model
            .forward_token_into(t, &mut state, strategy.as_mut(), &mut scratch)
            .expect("warm-up token decodes");
    }

    let before = allocations();
    for &t in &tokens[8..] {
        model
            .forward_token_into(t, &mut state, strategy.as_mut(), &mut scratch)
            .expect("steady-state token decodes");
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "{name}: steady-state decode of {} tokens allocated {} times",
        tokens.len() - 8,
        after - before
    );
}

#[test]
fn dense_decode_is_allocation_free_in_steady_state() {
    let _serial = serial();
    assert_zero_alloc_decode("dense", Box::new(DenseMlp));
}

/// Chunked prefill steady state: after one warm-up chunk sizes the batch
/// scratch (stacked activations, CSR selection buffers, mirrors) and the KV
/// cache reserves its flat storage, pushing further prompt chunks through
/// `forward_prompt_into` performs zero heap allocations — no per-step
/// matrix allocations anywhere in the fused path.
fn assert_zero_alloc_prefill(name: &str, mut strategy: Box<dyn MlpForward>) {
    use dynamic_sparsity::lm::BatchScratch;

    let model = build_synthetic(&ModelConfig::tiny(), 7).expect("tiny model builds");
    let mut state = model.new_decode_state();
    let mut batch = BatchScratch::for_model(&model);
    let prompt: Vec<u32> = (0..12u32).map(|i| (i * 7 + 1) % 60).collect();

    // warm-up: two chunk shapes so every stacked buffer reaches steady size
    model
        .forward_prompt_into(&prompt, &mut state, strategy.as_mut(), &mut batch)
        .expect("warm-up chunk");
    model
        .forward_prompt_into(&prompt[..5], &mut state, strategy.as_mut(), &mut batch)
        .expect("warm-up tail chunk");
    state.reset();

    let before = allocations();
    model
        .forward_prompt_into(&prompt, &mut state, strategy.as_mut(), &mut batch)
        .expect("steady-state chunk");
    model
        .forward_prompt_into(&prompt[..5], &mut state, strategy.as_mut(), &mut batch)
        .expect("steady-state tail chunk");
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "{name}: steady-state chunked prefill allocated {} times",
        after - before
    );
}

#[test]
fn batched_prefill_is_allocation_free_in_steady_state() {
    let _serial = serial();
    assert_zero_alloc_prefill("dense", Box::new(DenseMlp));
    assert_zero_alloc_prefill(
        "dip@0.5/0.5",
        Box::new(Dip::new(0.5, 0.5).expect("valid densities")),
    );
}

/// Cross-session fused decode steady state: one warm batch sizes the
/// stacked buffers; every further fused step over the same lane width
/// performs zero heap allocations.
fn assert_zero_alloc_fused_decode(name: &str, mut strategy: Box<dyn MlpForward>) {
    use dynamic_sparsity::lm::{BatchScratch, BatchStrategies, DecodeState};

    let model = build_synthetic(&ModelConfig::tiny(), 7).expect("tiny model builds");
    let rows = 4usize;
    let mut states: Vec<DecodeState> = (0..rows).map(|_| model.new_decode_state()).collect();
    let mut batch = BatchScratch::for_model(&model);
    let tokens_of =
        |step: u32| -> Vec<u32> { (0..rows as u32).map(|r| (step * 5 + r) % 60).collect() };

    for warm in 0..2u32 {
        let tokens = tokens_of(warm);
        let mut fused = BatchStrategies::Fused(strategy.as_mut());
        model
            .forward_tokens_batch_into(&tokens, &mut states, &mut fused, &mut batch)
            .expect("warm-up fused step");
    }

    let steady: Vec<Vec<u32>> = (2..12u32).map(tokens_of).collect();
    let before = allocations();
    for tokens in &steady {
        let mut fused = BatchStrategies::Fused(strategy.as_mut());
        model
            .forward_tokens_batch_into(tokens, &mut states, &mut fused, &mut batch)
            .expect("steady-state fused step");
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "{name}: steady-state fused decode allocated {} times over {} steps",
        after - before,
        steady.len()
    );
}

#[test]
fn fused_decode_is_allocation_free_in_steady_state() {
    let _serial = serial();
    assert_zero_alloc_fused_decode("dense", Box::new(DenseMlp));
    assert_zero_alloc_fused_decode(
        "dip@0.5/0.5",
        Box::new(Dip::new(0.5, 0.5).expect("valid densities")),
    );
}

/// The batched serving engine's steady state: identical closed-batch rounds
/// (batched prefill chunks + fused decode lanes) allocate *identically* —
/// any growth across rounds would be a leaked buffer — and the per-token
/// allocation budget stays bounded by the trace/report bookkeeping that
/// must own its indices.
#[test]
fn batched_engine_rounds_allocate_identically() {
    use dynamic_sparsity::serve::{GenRequest, ServeConfig, ServeEngine, StrategySpec};
    let _serial = serial();

    let config = ModelConfig::tiny();
    let model = build_synthetic(&config, 7).expect("tiny model builds");
    let layout = dynamic_sparsity::serve::layout::layout_for_serving(
        &config,
        [dynamic_sparsity::lm::SliceAxis::Input; 3],
        4.0,
        4,
        config.max_seq_len,
    );
    let dram = layout.static_bytes + (layout.mlp_bytes() as f64 * 0.6) as u64;
    let device = dynamic_sparsity::hwsim::DeviceConfig::apple_a18(4.0).with_dram_bytes(dram);
    // default execution mode: batched lanes
    let mut engine =
        ServeEngine::new(model, ServeConfig::new(device).with_max_concurrent(4)).unwrap();
    let requests = || -> Vec<GenRequest> {
        (0..8u64)
            .map(|i| {
                let spec = if i % 2 == 0 {
                    StrategySpec::Dense
                } else {
                    StrategySpec::Dip { density: 0.5 }
                };
                GenRequest::new(i, vec![(i % 7) as u32 + 1, 2, 3, 4], 6, spec)
            })
            .collect()
    };

    // round 0 warms the batch scratch, mirrors, state pool and report paths
    let warm = engine.run(requests()).unwrap();
    let tokens = warm.total_prefill_tokens + warm.total_generated_tokens;
    assert!(tokens >= 80, "enough traffic to average over");

    let mut per_round = Vec::new();
    for _ in 0..2 {
        let before = allocations();
        engine.run(requests()).unwrap();
        per_round.push(allocations() - before);
    }
    assert_eq!(
        per_round[0], per_round[1],
        "identical batched rounds must allocate identically"
    );
    let per_token = per_round[1] as f64 / tokens as f64;
    assert!(
        per_token < 32.0,
        "batched engine steady state allocates {per_token:.1} times per token"
    );
}

/// The paged-KV serving engine's steady state: identical closed-batch
/// rounds over a page pool with prefix sharing enabled allocate
/// *identically* — page handout, copy-on-write forks, registry
/// registration and prefix adoption must all recycle through the pool's
/// free list rather than grow the heap — and the per-token allocation
/// budget stays within the same bound as the flat backend.
#[test]
fn paged_engine_rounds_allocate_identically() {
    use dynamic_sparsity::serve::{GenRequest, ServeConfig, ServeEngine, StrategySpec};
    let _serial = serial();

    let config = ModelConfig::tiny();
    let model = build_synthetic(&config, 7).expect("tiny model builds");
    let layout = dynamic_sparsity::serve::layout::layout_for_serving(
        &config,
        [dynamic_sparsity::lm::SliceAxis::Input; 3],
        4.0,
        4,
        config.max_seq_len,
    );
    let dram = layout.static_bytes + (layout.mlp_bytes() as f64 * 0.6) as u64;
    let device = dynamic_sparsity::hwsim::DeviceConfig::apple_a18(4.0).with_dram_bytes(dram);
    let mut engine = ServeEngine::new(
        model,
        ServeConfig::new(device)
            .with_max_concurrent(4)
            .with_paged_kv(4, 4096)
            .with_prefix_sharing(),
    )
    .unwrap();
    let prefix: Vec<u32> = vec![9, 8, 7, 6, 5];
    let requests = || -> Vec<GenRequest> {
        (0..8u64)
            .map(|i| {
                let mut prompt = prefix.clone();
                prompt.extend([(i % 7) as u32 + 1, 2, 3, 4]);
                GenRequest::new(i, prompt, 6, StrategySpec::Dense).with_shared_prefix(prefix.len())
            })
            .collect()
    };

    // round 0 warms the batch scratch, page pool, prefix registry and the
    // state pool's paged decode states
    let warm = engine.run(requests()).unwrap();
    let tokens = warm.total_prefill_tokens + warm.total_generated_tokens;
    assert!(tokens >= 80, "enough traffic to average over");
    let paged = warm.paged_kv.as_ref().expect("paged stats present");
    assert!(paged.prefix_hits > 0, "the shared prefix must actually hit");

    let mut per_round = Vec::new();
    for _ in 0..2 {
        let before = allocations();
        engine.run(requests()).unwrap();
        per_round.push(allocations() - before);
    }
    assert_eq!(
        per_round[0], per_round[1],
        "identical paged rounds must allocate identically"
    );
    let per_token = per_round[1] as f64 / tokens as f64;
    assert!(
        per_token < 32.0,
        "paged engine steady state allocates {per_token:.1} times per token"
    );
}

#[test]
fn dip_decode_is_allocation_free_in_steady_state() {
    let _serial = serial();
    assert_zero_alloc_decode(
        "dip@0.5/0.5",
        Box::new(Dip::new(0.5, 0.5).expect("valid densities")),
    );
}

/// DIP-CA's steady state: its packed top-k keys and the LFU eviction queue
/// of its cache models reach their full size during warm-up, on the
/// single-row and the fused multi-row path.
#[test]
fn dip_ca_decode_is_allocation_free_in_steady_state() {
    let _serial = serial();
    let config = ModelConfig::tiny();
    let dip_ca = || -> Box<dyn MlpForward> {
        let capacity = dynamic_sparsity::hwsim::BlockCacheCapacity {
            up: config.d_model * 2 / 5,
            gate: config.d_model * 2 / 5,
            down: config.d_ff * 2 / 5,
        };
        Box::new(
            DipCacheAware::new(
                0.5,
                0.5,
                0.2,
                config.d_model,
                config.d_ff,
                vec![capacity; config.n_layers],
            )
            .expect("valid DIP-CA configuration"),
        )
    };
    assert_zero_alloc_decode("dip-ca@0.5/0.5", dip_ca());
    assert_zero_alloc_fused_decode("dip-ca@0.5/0.5", dip_ca());
}

/// Steady-state decode **with metrics enabled** stays allocation-free: every
/// operation the serving engine's per-token telemetry hook performs —
/// counter adds, a histogram observation, a gauge set, a span-ring push and
/// a timeline update — runs alongside the decode kernel and the window must
/// still record **zero** heap allocations. Registration and ring/timeline
/// sizing are warm-up-phase work by contract
/// (`telemetry::MetricsRegistry` handle lifecycle).
#[test]
fn decode_with_metrics_enabled_is_allocation_free_in_steady_state() {
    use dynamic_sparsity::telemetry::{EventKind, Telemetry, TelemetryConfig};
    let _serial = serial();

    let model = build_synthetic(&ModelConfig::tiny(), 7).expect("tiny model builds");
    let mut state = model.new_decode_state();
    let mut scratch = DecodeScratch::for_model(&model);
    let mut strategy: Box<dyn MlpForward> = Box::new(DenseMlp);
    let tokens: Vec<u32> = (0..24u32).map(|i| (i * 5 + 1) % 60).collect();

    // Setup phase: pre-register every handle (the only allocating metrics
    // operation), preallocate the ring, and reserve the timeline windows the
    // steady-state virtual clock will touch.
    let mut tel = Telemetry::new(TelemetryConfig::default().with_ring_capacity(256));
    let tokens_total = tel.registry.counter("serve_tokens_total", "tokens");
    let decode_tokens = tel.registry.counter("serve_decode_tokens_total", "decode");
    let hits = tel.registry.counter("serve_cache_hits_total", "hits");
    let latency = tel.registry.histogram(
        "serve_token_latency_seconds",
        "latency",
        &dynamic_sparsity::telemetry::registry::LATENCY_BOUNDS_S,
    );
    let clock = tel.registry.gauge("serve_virtual_time_seconds", "clock");
    tel.timeline.reserve_until(1.0);
    let mut now = 0.0f64;

    // Warm-up decodes size the scratch and the KV cache's flat storage.
    for &t in &tokens[..8] {
        model
            .forward_token_into(t, &mut state, strategy.as_mut(), &mut scratch)
            .expect("warm-up token decodes");
    }

    let before = allocations();
    for &t in &tokens[8..] {
        model
            .forward_token_into(t, &mut state, strategy.as_mut(), &mut scratch)
            .expect("steady-state token decodes");
        // the engine's per-token hook, move for move
        now += 0.002;
        tel.registry.inc(tokens_total);
        tel.registry.inc(decode_tokens);
        tel.registry.add(hits, 3.0);
        tel.registry.observe(latency, 0.002);
        tel.registry.set(clock, now);
        tel.timeline.observe_token(now, false, 3, 1);
        tel.event(EventKind::TokenSettle, 0, now, (3 << 32) | 1, 0.002);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "decode with metrics enabled allocated {} times over {} tokens",
        after - before,
        tokens.len() - 8
    );
    assert_eq!(
        tel.registry.counter_value(tokens_total),
        (tokens.len() - 8) as f64
    );
    assert_eq!(tel.ring.len(), tokens.len() - 8);
    assert_eq!(tel.timeline.total_tokens(), (tokens.len() - 8) as u64);
}

/// The open-loop engine's steady state under preemption churn: the decode
/// hot path stays scratch-backed, so per-token allocations are bounded by
/// the trace/queue bookkeeping (which must own its indices) — and, because
/// the run is deterministic and the decode-state pool recycles parked and
/// released states, repeated identical runs allocate *identically*: any
/// growth across rounds would be a leak.
#[test]
fn open_loop_steady_state_allocations_are_bounded_and_leak_free() {
    use dynamic_sparsity::serve::{
        ArrivalProcess, GenRequest, RequestTemplate, SchedulerPolicy, ServeConfig, ServeEngine,
        StrategySpec, Tier, Workload,
    };
    let _serial = serial();

    let config = ModelConfig::tiny();
    let model = build_synthetic(&config, 7).expect("tiny model builds");
    let layout = dynamic_sparsity::serve::layout::layout_for_serving(
        &config,
        [dynamic_sparsity::lm::SliceAxis::Input; 3],
        4.0,
        2,
        config.max_seq_len,
    );
    let dram = layout.static_bytes + (layout.mlp_bytes() as f64 * 0.6) as u64;
    let device = dynamic_sparsity::hwsim::DeviceConfig::apple_a18(4.0).with_dram_bytes(dram);
    let mut engine = ServeEngine::new(
        model,
        ServeConfig::new(device)
            .with_max_concurrent(2)
            .with_scheduler(SchedulerPolicy::PriorityPreemptive),
    )
    .expect("valid serve config");

    // calibrate a bursty workload to the simulated service rate so the run
    // genuinely preempts (the probe also warms scratch/pool/caches)
    let probe = engine
        .run_open_loop_requests(vec![GenRequest::new(
            0,
            vec![1, 2],
            30,
            StrategySpec::Dense,
        )])
        .expect("probe run");
    let per_token = probe.makespan_s / 32.0;
    let on_s = 100.0 * per_token;
    let workload = Workload::new(
        9,
        4.0 * on_s,
        ArrivalProcess::OnOff {
            rate_per_s: 1.0 / (3.0 * per_token),
            on_s,
            off_s: on_s,
        },
        vec![
            RequestTemplate::new((2, 3), (6, 10), StrategySpec::Dense)
                .with_tier(Tier::Batch)
                .with_weight(2.0),
            RequestTemplate::new((1, 2), (2, 4), StrategySpec::Dense).with_tier(Tier::Premium),
        ],
    );

    // round 0 warms every pool (decode states, scratch, shared caches)
    let warm = engine.run_open_loop(&workload).expect("warm-up round");
    assert!(
        warm.open_loop.as_ref().unwrap().preemptions > 0,
        "churn workload must preempt"
    );
    let builds_after_warmup = engine.state_pool().build_count();

    let mut per_round_allocs = Vec::new();
    let mut tokens = 0usize;
    for _ in 0..2 {
        let before = allocations();
        let report = engine.run_open_loop(&workload).expect("steady-state round");
        per_round_allocs.push(allocations() - before);
        tokens = report.total_prefill_tokens + report.total_generated_tokens;
        assert!(tokens > 50, "enough traffic to average over");
    }

    // identical rounds allocate identically — growth would be a leak
    assert_eq!(
        per_round_allocs[0], per_round_allocs[1],
        "steady-state rounds must allocate identically"
    );
    // the decode path itself is scratch-backed; what remains is bounded
    // per-token bookkeeping (owned trace indices, queue and session setup)
    let per_token_allocs = per_round_allocs[1] as f64 / tokens as f64;
    assert!(
        per_token_allocs < 32.0,
        "open-loop steady state allocates {per_token_allocs:.1} times per token"
    );
    // and the state pool recycled rather than built: churn leaked nothing
    assert_eq!(
        engine.state_pool().build_count(),
        builds_after_warmup,
        "steady-state rounds must not build fresh decode states"
    );
    assert_eq!(engine.state_pool().parked_count(), 0);
}
