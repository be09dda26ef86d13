//! The serving engine: admission, continuous batching, shared-cache replay.
//!
//! [`ServeEngine::run`] drives a closed batch of [`GenRequest`]s (all queued
//! at t = 0) to completion:
//!
//! 1. **Admission.** Up to `max_concurrent` sessions hold a KV-cache slot;
//!    whenever a slot frees, the scheduler admits the next waiting request.
//!    Decode states are recycled through [`lm::DecodeStatePool`].
//! 2. **Token loop.** The schedule is token-granular — each schedule
//!    position serves one token of one session, and the simulated memory
//!    bus serialises positions — but *execution* is batched
//!    ([`ExecutionMode::Batched`], the default): the engine groups
//!    consecutive schedule positions into **batch lanes** (runs of distinct
//!    same-spec sessions, or one session's prompt chunk) and computes each
//!    lane in a single fused pass over the weights
//!    ([`lm::TransformerModel::forward_tokens_batch_into`] /
//!    [`lm::TransformerModel::forward_prompt_into`]). Lane formation
//!    re-asks the scheduler *per position* after committing each token's
//!    bookkeeping, so the schedule — and therefore every recorded access,
//!    RNG draw, trace and price — is **bitwise identical** to serving one
//!    token at a time; [`ExecutionMode::Sequential`] keeps the
//!    token-at-a-time path as the oracle (see
//!    `tests/batched_equivalence.rs` and DESIGN.md §11). Every served
//!    token's weight accesses are recorded into its stream's
//!    [`hwsim::AccessTrace`], and the position's session into the global
//!    interleave order. (The open loop prices each token as it is served
//!    and keeps no trace.)
//! 3. **Pricing.** The per-session traces are replayed in that exact order
//!    through one *shared* DRAM column cache
//!    ([`hwsim::simulate_concurrent`]), which prices every token and yields
//!    wall-clock completion times under multi-tenant cache contention.
//!    Batched execution changes *how fast the host computes* the schedule,
//!    never the simulated cost of a token.
//!
//! The decode pass and the pricing pass are deliberately separate: model
//! execution decides *which* columns each token needs (for DIP-CA, guided by
//! the shared cache model), while the hardware replay decides what that
//! traffic *costs* on a given device.
//!
//! # Open loop: the event-driven core
//!
//! [`ServeEngine::run_open_loop_requests`] serves *timestamped* arrivals on
//! a virtual clock driven by a (time, seq)-keyed [`crate::event::EventQueue`]
//! instead of the closed batch above. Arrivals, prefill chunks, decode
//! rounds and preemption KV spills/reloads are all events on that clock;
//! under [`EngineCore::EventDriven`] (the default) long prefills are split
//! into [`ServeConfig::prefill_chunk_tokens`]-sized chunks with a decode
//! round between them, so one long prompt no longer holds every decoding
//! session's TBT hostage, and every park/resume pays its KV transfer through
//! the same [`hwsim::TokenPricer`] that prices tokens. [`EngineCore::StepLoop`]
//! preserves the legacy monolithic-prefill step loop for A/B comparison
//! (see DESIGN.md §16). The closed-loop [`ServeEngine::run`] path is
//! untouched by the core selection and stays bitwise identical to the
//! sequential oracle.
//!
//! # Observability
//!
//! The engine is instrumented end to end: attach an
//! [`crate::telemetry::EngineTelemetry`] pipeline via
//! [`ServeEngine::attach_telemetry`] and every run records token/shed/
//! preemption counters, TTFT/TBT/queue-delay histograms, batch-lane widths,
//! span events on a preallocated ring and a virtual-time timeline — all
//! through pre-registered handles, so the zero-allocation decode loop stays
//! allocation-free. Telemetry is write-only from the engine's side; attaching
//! any sink leaves the [`ServeReport`] bitwise identical
//! (`tests/open_loop_determinism.rs`).

use crate::admission::{AdmissionConfig, AdmissionController};
use crate::error::{Result, ServeError};
use crate::event::{Event, EventKind as EngineEvent, EventQueue};
use crate::fault::RetryPolicy;
use crate::layout::{layout_for_serving, to_token_access_batch_row};
use crate::prefix::PrefixRegistry;
use crate::report::{
    percentile, FinishReason, OpenLoopStats, PagedKvStats, Percentiles, RequestStats, ServeReport,
    StrategyClassStats, TierStats,
};
use crate::request::{GenRequest, TIERS};
use crate::scheduler::{AdmissionCandidate, SchedulerPolicy};
use crate::session::{PlannedToken, Session, SessionPhase};
use crate::strategy::{resolve_axes, StrategyFactory, StrategySpec};
use crate::telemetry::EngineTelemetry;
use crate::workload::Workload;
use hwsim::{simulate_concurrent, AccessTrace, DeviceConfig, EvictionPolicy, TokenPricer};
use lm::mlp::DenseMlp;
use lm::{
    pages_spanning, ActivationTrace, BatchScratch, BatchStrategies, DecodeStatePool, KvPagePool,
    MlpForward, ModelConfig, PagePoolHandle, TransformerModel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How the engine computes the token-granular schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Fuse consecutive schedule positions into batch lanes (cross-session
    /// fused decode, chunked prefill) — one pass over the weights per lane.
    /// Bitwise identical to [`ExecutionMode::Sequential`] by construction.
    #[default]
    Batched,
    /// Serve one token at a time through the single-token path. Kept as the
    /// equivalence oracle for `tests/batched_equivalence.rs` and for
    /// honest before/after benchmarking.
    Sequential,
}

/// Which scheduling core drives the open-loop virtual clock.
///
/// Both cores run on the same event queue ([`crate::event::EventQueue`]):
/// arrivals, spill/reload completions and service-unit settlements are
/// ordered events on one clock either way. They differ in exactly one
/// rule — whether a long prefill may monopolize the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineCore {
    /// Time-slice prefill: after [`ServeConfig::prefill_chunk_tokens`]
    /// consecutive prefill tokens of one stream, the scheduler's pick is
    /// restricted to decode-phase sessions for one round (each currently
    /// decoding session is served once) before the prefill may continue.
    /// This bounds every decoding session's inter-token gap by roughly one
    /// chunk plus one decode round, killing the head-of-line TBT spikes a
    /// long prompt otherwise causes.
    #[default]
    EventDriven,
    /// The legacy synchronous rule: the scheduler's unrestricted pick,
    /// which serves an entire prefill before any decode token under
    /// priority scheduling. Kept as the honest before/after baseline for
    /// the TBT-p99 stall gate (`perf_report --event-out`).
    StepLoop,
}

/// Upper bound on a prefill chunk (bounds the batch scratch: logits and
/// activations scale with the chunk height).
const MAX_PREFILL_CHUNK: usize = 64;

/// Paged KV memory configuration (see DESIGN.md §14).
///
/// Instead of a private full-context KV page per session, every session's
/// KV becomes a page table over one engine-wide [`lm::KvPagePool`] of
/// `pool_pages` fixed-size pages. Admission then gates on *pages*, not
/// slots: a fleet of thousands of short sessions fits the same fixed memory
/// budget that eight full-context slots would pin. With `prefix_sharing`,
/// sessions arriving with a declared shared prompt prefix
/// ([`GenRequest::shared_prefix_len`]) map already-prefilled pages
/// copy-on-write instead of re-prefilling them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagedKvConfig {
    /// KV positions per page.
    pub page_size: usize,
    /// Total pages in the engine-wide pool — the fleet's hard KV memory cap.
    pub pool_pages: usize,
    /// Map registered shared prefixes copy-on-write at admission.
    pub prefix_sharing: bool,
}

/// Configuration of a serving deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// KV-cache slots: the maximum number of concurrently active sessions.
    /// Each slot pins one full-context KV cache in DRAM.
    pub max_concurrent: usize,
    /// Continuous-batching scheduler policy.
    pub scheduler: SchedulerPolicy,
    /// Eviction policy of the shared DRAM column cache.
    pub eviction: EvictionPolicy,
    /// The simulated device the deployment runs on.
    pub device: DeviceConfig,
    /// Weight precision in bits (4.0 = INT4, the paper's serving setup).
    pub bits_per_weight: f64,
    /// Per-session context budget in tokens (`None` = the model's full
    /// `max_seq_len`). Each KV slot pins this much context in DRAM, so
    /// bounding it frees DRAM for the shared weight cache.
    pub kv_budget_tokens: Option<usize>,
    /// Seed for sampling temperature > 0 requests.
    pub seed: u64,
    /// Admission policy of open-loop runs (ignored by closed batches).
    pub admission: AdmissionConfig,
    /// Batched-lane or sequential (oracle) execution of the schedule.
    pub execution: ExecutionMode,
    /// Back sessions with one shared paged KV pool instead of a private
    /// full-context page each (`None`, the default).
    pub paged_kv: Option<PagedKvConfig>,
    /// Which open-loop scheduling core drives the virtual clock (closed
    /// batches always use the unrestricted pick).
    pub engine_core: EngineCore,
    /// Prefill-slice budget of [`EngineCore::EventDriven`]: consecutive
    /// prefill tokens one stream may take before decoding sessions get a
    /// round. Clamped to the engine's chunk bound (64) at use.
    pub prefill_chunk_tokens: usize,
    /// Deterministic fault-injection plan for open-loop runs (`None` = no
    /// injected faults; closed batches reject a plan at run time).
    pub fault_plan: Option<crate::fault::FaultPlan>,
    /// Retry policy for worker-aborted attempts: re-offer through admission
    /// after exponential backoff on the virtual clock (`None` = an abort
    /// fails the request immediately).
    pub retry: Option<crate::fault::RetryPolicy>,
    /// Graceful strategy degradation under queue pressure: substitute
    /// cheaper specs along [`StrategySpec::degraded`] at admission instead
    /// of letting the queue shed (`None` = always serve as requested).
    pub degrade: Option<crate::fault::DegradePolicy>,
    /// Set by [`ServeConfig::with_prefix_sharing`] so [`ServeConfig::validate`]
    /// can reject prefix sharing without a paged pool as a typed error
    /// (the flag itself is consumed through `paged_kv.prefix_sharing`).
    pub(crate) prefix_sharing_requested: bool,
}

impl ServeConfig {
    /// A default serving configuration on the given device: 8 slots, FIFO
    /// continuous batching, LFU shared cache, INT4 weights, default
    /// admission policy.
    pub fn new(device: DeviceConfig) -> Self {
        ServeConfig {
            max_concurrent: 8,
            scheduler: SchedulerPolicy::Fifo,
            eviction: EvictionPolicy::Lfu,
            device,
            bits_per_weight: 4.0,
            kv_budget_tokens: None,
            seed: 0x5e42,
            admission: AdmissionConfig::default(),
            execution: ExecutionMode::default(),
            paged_kv: None,
            engine_core: EngineCore::default(),
            prefill_chunk_tokens: 16,
            fault_plan: None,
            retry: None,
            degrade: None,
            prefix_sharing_requested: false,
        }
    }

    /// Returns a copy injecting the given deterministic fault plan into
    /// open-loop runs (see [`crate::fault::FaultPlan`]).
    pub fn with_fault_plan(mut self, plan: crate::fault::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Returns a copy that re-offers worker-aborted attempts through
    /// admission under the given retry policy.
    pub fn with_retry(mut self, retry: crate::fault::RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Returns a copy that degrades strategies along
    /// [`StrategySpec::degraded`] under queue pressure instead of serving
    /// every request as requested.
    pub fn with_degrade(mut self, degrade: crate::fault::DegradePolicy) -> Self {
        self.degrade = Some(degrade);
        self
    }

    /// Returns a copy with the given open-loop scheduling core.
    pub fn with_engine_core(mut self, core: EngineCore) -> Self {
        self.engine_core = core;
        self
    }

    /// Returns a copy with the given prefill-slice budget (tokens of one
    /// stream's prefill served consecutively before decoding sessions get a
    /// round; only [`EngineCore::EventDriven`] slices).
    pub fn with_prefill_chunk(mut self, tokens: usize) -> Self {
        self.prefill_chunk_tokens = tokens;
        self
    }

    /// Returns a copy backed by a paged KV pool of `pool_pages` pages of
    /// `page_size` positions each (prefix sharing off; see
    /// [`ServeConfig::with_prefix_sharing`]).
    pub fn with_paged_kv(mut self, page_size: usize, pool_pages: usize) -> Self {
        self.paged_kv = Some(PagedKvConfig {
            page_size,
            pool_pages,
            prefix_sharing: false,
        });
        self
    }

    /// Enables copy-on-write shared-prefix caching on the paged pool. Call
    /// after [`ServeConfig::with_paged_kv`]; without a paged pool,
    /// [`ServeConfig::validate`] rejects the configuration.
    pub fn with_prefix_sharing(mut self) -> Self {
        self.prefix_sharing_requested = true;
        if let Some(paged) = &mut self.paged_kv {
            paged.prefix_sharing = true;
        }
        self
    }

    /// Returns a copy with the given execution mode.
    pub fn with_execution(mut self, execution: ExecutionMode) -> Self {
        self.execution = execution;
        self
    }

    /// Returns a copy with the given per-session context budget.
    pub fn with_kv_budget(mut self, tokens: usize) -> Self {
        self.kv_budget_tokens = Some(tokens);
        self
    }

    /// Returns a copy with the given number of KV slots.
    pub fn with_max_concurrent(mut self, slots: usize) -> Self {
        self.max_concurrent = slots;
        self
    }

    /// Returns a copy with the given scheduler policy.
    pub fn with_scheduler(mut self, scheduler: SchedulerPolicy) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Returns a copy with the given eviction policy.
    pub fn with_eviction(mut self, eviction: EvictionPolicy) -> Self {
        self.eviction = eviction;
        self
    }

    /// Returns a copy with the given open-loop admission policy.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for zero slots, a non-positive
    /// bit width, or an invalid device.
    pub fn validate(&self) -> Result<()> {
        if self.max_concurrent == 0 {
            return Err(ServeError::InvalidConfig {
                field: "max_concurrent",
                reason: "need at least one KV slot".to_string(),
            });
        }
        if !(self.bits_per_weight.is_finite() && self.bits_per_weight > 0.0) {
            return Err(ServeError::InvalidConfig {
                field: "bits_per_weight",
                reason: format!("must be positive, got {}", self.bits_per_weight),
            });
        }
        if self.prefill_chunk_tokens == 0 || self.prefill_chunk_tokens > MAX_PREFILL_CHUNK {
            return Err(ServeError::InvalidConfig {
                field: "prefill_chunk_tokens",
                reason: format!(
                    "prefill slice must be 1..={MAX_PREFILL_CHUNK} tokens, got {}",
                    self.prefill_chunk_tokens
                ),
            });
        }
        if let Some(budget) = self.kv_budget_tokens {
            if budget < 2 {
                return Err(ServeError::InvalidConfig {
                    field: "kv_budget_tokens",
                    reason: format!("context budget must be at least 2 tokens, got {budget}"),
                });
            }
        }
        if let Some(paged) = &self.paged_kv {
            if paged.page_size == 0 {
                return Err(ServeError::InvalidConfig {
                    field: "paged_kv.page_size",
                    reason: "pages must hold at least one position".to_string(),
                });
            }
            if paged.pool_pages == 0 {
                return Err(ServeError::InvalidConfig {
                    field: "paged_kv.pool_pages",
                    reason: "the pool needs at least one page".to_string(),
                });
            }
        }
        if self.prefix_sharing_requested && self.paged_kv.is_none() {
            return Err(ServeError::InvalidConfig {
                field: "paged_kv",
                reason: "prefix sharing maps copy-on-write *pages*; enable a paged KV \
                         pool with `with_paged_kv` before `with_prefix_sharing`"
                    .to_string(),
            });
        }
        if let Some(plan) = &self.fault_plan {
            plan.validate()?;
            if plan.wants_page_loss() && self.paged_kv.is_none() {
                return Err(ServeError::InvalidConfig {
                    field: "fault_plan.page_loss_every_s",
                    reason: "KV page loss needs a paged KV pool to lose pages from; \
                             private per-session pools have no shared pages"
                        .to_string(),
                });
            }
        }
        if let Some(retry) = &self.retry {
            retry.validate()?;
        }
        if let Some(degrade) = &self.degrade {
            degrade.validate()?;
        }
        self.admission.validate()?;
        self.device.validate()?;
        Ok(())
    }
}

/// Which shape of fused pass a batch plan executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlanKind {
    /// A run of consecutive prompt tokens of one session.
    Chunk,
    /// One token each of a run of distinct same-spec sessions.
    Lane,
}

/// One schedule position of a batch plan.
#[derive(Debug, Clone, Copy)]
struct PlanRow {
    /// Index into the engine's `active` session vector.
    idx: usize,
    /// The session's stream id (for the interleave order).
    stream: usize,
    /// The planning flags committed for this position.
    planned: PlannedToken,
}

/// A planned batch: consecutive scheduler decisions the engine executes in
/// one fused pass. Buffers are engine-owned and reused across batches.
#[derive(Default)]
struct BatchPlan {
    kind: Option<PlanKind>,
    rows: Vec<PlanRow>,
}

/// Reused take-out buffers for batch execution (session states, strategy
/// boxes and tokens are moved out for the fused call and restored after).
/// `priced` holds each planned position's `(cost, completion time)` between
/// dispatch and settlement of a service unit.
#[derive(Default)]
struct ExecBuffers {
    tokens: Vec<u32>,
    states: Vec<lm::DecodeState>,
    strategies: Vec<Box<dyn MlpForward>>,
    priced: Vec<(hwsim::TokenCost, f64)>,
}

/// Chunked-prefill time-slice state of [`EngineCore::EventDriven`].
///
/// The slice is token-granular and updated identically at plan time in both
/// execution modes (one [`PrefillSlice::note`] per planned position, in
/// plan order), so it cannot break the batched ↔ sequential bitwise
/// equivalence: both modes see the same `(pick, note)` sequence.
struct PrefillSlice {
    /// Stream of the prefill run being counted (`usize::MAX` = none).
    stream: usize,
    /// Consecutive prefill tokens granted to `stream`.
    run: usize,
    /// Decode tokens still owed before the prefill may continue (one per
    /// session that was decoding when the slice expired).
    yield_left: usize,
}

impl PrefillSlice {
    fn new() -> Self {
        PrefillSlice {
            stream: usize::MAX,
            run: 0,
            yield_left: 0,
        }
    }

    /// The slicing service pick: the scheduler's choice, unless the chosen
    /// session's prefill has exhausted its slice and someone is decoding —
    /// then the pick is restricted to decode-phase sessions until each
    /// session decoding at expiry has been served once.
    fn pick(
        &mut self,
        scheduler: &SchedulerPolicy,
        active: &[Session],
        chunk: usize,
    ) -> Option<usize> {
        let is_decoding = |s: &Session| s.phase() == SessionPhase::Decode;
        if self.yield_left > 0 {
            if let Some(i) = scheduler.next_service_where(active, is_decoding) {
                return Some(i);
            }
            // every decoding session completed or was parked mid-round
            self.yield_left = 0;
        }
        let first = scheduler.next_service(active)?;
        if active[first].phase() == SessionPhase::Prefill
            && active[first].stream == self.stream
            && self.run >= chunk
        {
            let decoding = active.iter().filter(|s| is_decoding(s)).count();
            if decoding > 0 {
                self.run = 0;
                self.yield_left = decoding;
                return scheduler.next_service_where(active, is_decoding);
            }
        }
        Some(first)
    }

    /// Records a planned token (called once per schedule position, in plan
    /// order).
    fn note(&mut self, stream: usize, was_prefill: bool) {
        if was_prefill {
            if self.stream == stream {
                self.run += 1;
            } else {
                self.stream = stream;
                self.run = 1;
            }
        } else if self.yield_left > 0 {
            self.yield_left -= 1;
        }
    }
}

/// The open-loop service pick: the slice-aware pick under
/// [`EngineCore::EventDriven`], the scheduler's unrestricted pick otherwise
/// (and always for closed batches, which pass no slice).
fn pick_service(
    scheduler: &SchedulerPolicy,
    active: &[Session],
    slice: Option<&mut PrefillSlice>,
    chunk: usize,
) -> Option<usize> {
    match slice {
        Some(slice) => slice.pick(scheduler, active, chunk),
        None => scheduler.next_service(active),
    }
}

/// The engine's paged-KV runtime: the page pool every session's backing
/// draws from, the shared-prefix registry over it, and the conservative
/// page-commitment ledger admission gates on.
struct PagedRuntime {
    pool: PagePoolHandle,
    registry: PrefixRegistry,
    prefix_sharing: bool,
    page_size: usize,
    pool_pages: usize,
    /// Pages *committed* (reserved worst-case), not pages in use: the sum of
    /// every active session's worst-case footprint plus the registry's held
    /// pages. Admission requires `committed + needed <= pool_pages`, and
    /// every page the pool can ever hand out is covered by some commitment,
    /// so a mid-decode allocation can never find the pool empty.
    committed: usize,
    /// Pool fork counter at run start (reports carry per-run deltas).
    forks_at_start: u64,
}

/// An admission decision under the paged pool: the worst-case pages the
/// candidate commits, and the prefix-registry hit to map (entry index,
/// shared length), if any.
#[derive(Clone, Copy)]
struct PagedAdmit {
    needed: usize,
    hit: Option<(usize, usize)>,
}

/// Plans a candidate's admission against the paged pool. A registry hit
/// discounts the shared prefix's pages (`shared_len / page_size` — the
/// shareable length is page-aligned, see [`PrefixRegistry::shareable_len`]):
/// those pages are mapped full and never appended to, so a sharer can never
/// fork them, and the discounted commitment exactly covers the private
/// pages the session can allocate.
fn paged_plan(paged: &PagedRuntime, n_layers: usize, request: &GenRequest) -> PagedAdmit {
    let ps = paged.page_size;
    let full_pages = pages_spanning(request.total_tokens(), ps);
    let full = PagedAdmit {
        needed: n_layers * full_pages,
        hit: None,
    };
    if !paged.prefix_sharing {
        return full;
    }
    let Some(len) = paged.registry.shareable_len(request) else {
        return full;
    };
    match paged
        .registry
        .find(&request.strategy, &request.prompt[..len])
    {
        Some(entry) => PagedAdmit {
            needed: n_layers * (full_pages - len / ps),
            hit: Some((entry, len)),
        },
        None => full,
    }
}

/// Registers a session's shared prefix once it is fully prefilled (the
/// engine calls this after every serve round, *before* completion removal,
/// so even a session that finishes in one round publishes its prefix). The
/// retained pages join the commitment ledger.
fn try_register_prefix(paged: &mut Option<PagedRuntime>, session: &mut Session) {
    let Some(paged) = paged.as_mut() else { return };
    let Some(len) = session.pending_prefix_register else {
        return;
    };
    if session.state.pos < len {
        return;
    }
    session.pending_prefix_register = None;
    let added = paged.registry.register(
        &session.request.strategy,
        &session.request.prompt,
        len,
        &session.state,
    );
    paged.committed += added;
}

/// A multi-session token-generation serving engine.
pub struct ServeEngine {
    model: TransformerModel,
    config: ServeConfig,
    pool: DecodeStatePool,
    calibration: Option<ActivationTrace>,
    /// Single-token decode workspace (sequential oracle path); persists
    /// across runs so weight mirrors are built once per engine.
    scratch: lm::DecodeScratch,
    /// Fused multi-row workspace (batched path); persists across runs.
    batch: BatchScratch,
    plan: BatchPlan,
    exec: ExecBuffers,
    /// Shared KV page pool + prefix registry (`None` when every session
    /// owns a private pool).
    paged: Option<PagedRuntime>,
    /// Optional observability pipeline; `None` (the default) costs a single
    /// branch per hook. Boxed so the engine stays cheap to move.
    telemetry: Option<Box<EngineTelemetry>>,
}

impl ServeEngine {
    /// Creates an engine around a model.
    ///
    /// # Errors
    ///
    /// Returns configuration validation errors.
    pub fn new(model: TransformerModel, config: ServeConfig) -> Result<Self> {
        config.validate()?;
        let scratch = lm::DecodeScratch::for_model(&model);
        let batch = BatchScratch::for_model(&model);
        let paged = config.paged_kv.map(|pk| {
            let pool = KvPagePool::new_handle(pk.pool_pages, pk.page_size);
            PagedRuntime {
                registry: PrefixRegistry::new(&pool),
                pool,
                // `||` makes builder order irrelevant: `with_prefix_sharing`
                // before `with_paged_kv` still enables sharing
                prefix_sharing: pk.prefix_sharing || config.prefix_sharing_requested,
                page_size: pk.page_size,
                pool_pages: pk.pool_pages,
                committed: 0,
                forks_at_start: 0,
            }
        });
        Ok(ServeEngine {
            model,
            config,
            pool: DecodeStatePool::new(),
            calibration: None,
            scratch,
            batch,
            plan: BatchPlan::default(),
            exec: ExecBuffers::default(),
            paged,
            telemetry: None,
        })
    }

    /// Attaches an observability pipeline. The engine records into it on
    /// every run until [`ServeEngine::take_telemetry`]; recording is
    /// write-only, so reports stay bitwise identical with or without it.
    pub fn attach_telemetry(&mut self, telemetry: EngineTelemetry) {
        self.telemetry = Some(Box::new(telemetry));
    }

    /// The attached observability pipeline, if any.
    pub fn telemetry(&self) -> Option<&EngineTelemetry> {
        self.telemetry.as_deref()
    }

    /// Detaches and returns the observability pipeline (for export after a
    /// run).
    pub fn take_telemetry(&mut self) -> Option<EngineTelemetry> {
        self.telemetry.take().map(|b| *b)
    }

    /// The model configuration being served.
    pub fn model_config(&self) -> &ModelConfig {
        &self.model.config
    }

    /// The engine configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The decode-state pool (exposed for reuse diagnostics).
    pub fn state_pool(&self) -> &DecodeStatePool {
        &self.pool
    }

    /// The paged KV page pool, when the engine runs one (exposed for leak
    /// and balance diagnostics).
    pub fn kv_page_pool(&self) -> Option<&PagePoolHandle> {
        self.paged.as_ref().map(|p| &p.pool)
    }

    /// Resets per-run paged-KV state: evicts the prefix registry (pages from
    /// a prior run must not leak into this run's reports or determinism),
    /// rebases the pool's high-water mark and snapshots the fork counter so
    /// the report carries per-run numbers.
    fn reset_paged_run(&mut self) {
        if let Some(paged) = self.paged.as_mut() {
            paged.committed -= paged.registry.pages_held();
            paged.registry.reset();
            debug_assert_eq!(paged.committed, 0, "no sessions live between runs");
            let mut pool = paged.pool.borrow_mut();
            pool.reset_high_water();
            paged.forks_at_start = pool.fork_count();
        }
    }

    /// The run's paged-KV report block, if the engine is paged.
    fn paged_stats(&self) -> Option<PagedKvStats> {
        self.paged.as_ref().map(|paged| {
            let pool = paged.pool.borrow();
            PagedKvStats {
                page_size: paged.page_size,
                pool_pages: paged.pool_pages,
                pages_high_water: pool.high_water(),
                pages_at_end: pool.pages_in_use(),
                cow_forks: pool.fork_count() - paged.forks_at_start,
                prefix_hits: paged.registry.hits(),
                prefix_misses: paged.registry.misses(),
                prefix_registrations: paged.registry.len(),
                prefix_tokens_saved: paged.registry.tokens_saved(),
            }
        })
    }

    /// Publishes end-of-run paged-KV gauges to the attached telemetry.
    fn publish_paged_telemetry(&mut self) {
        let Some(paged) = self.paged.as_ref() else {
            return;
        };
        let (in_use, forks) = {
            let pool = paged.pool.borrow();
            (
                pool.pages_in_use(),
                pool.fork_count() - paged.forks_at_start,
            )
        };
        let high_water = paged.pool.borrow().high_water();
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.on_paged_kv(in_use, high_water, forks);
        }
    }

    /// Admission gate of the paged pool: plans `request` against the
    /// commitment ledger and returns its admission plan if it fits (always
    /// `Some(None)` without a shared pool). When nothing is running and
    /// nothing else can free pages, the prefix registry is evicted and the plan
    /// recomputed — [`ServeConfig::validate`] plus the per-run request
    /// validation guarantee any single request fits an empty pool, so
    /// serving can always make progress.
    fn paged_admission_gate(
        paged: &mut Option<PagedRuntime>,
        n_layers: usize,
        request: &GenRequest,
        nothing_active: bool,
    ) -> Option<Option<PagedAdmit>> {
        let Some(paged) = paged.as_mut() else {
            return Some(None);
        };
        let mut plan = paged_plan(paged, n_layers, request);
        if paged.committed + plan.needed > paged.pool_pages
            && nothing_active
            && !paged.registry.is_empty()
        {
            paged.committed -= paged.registry.pages_held();
            paged.registry.reset();
            plan = paged_plan(paged, n_layers, request);
        }
        if paged.committed + plan.needed > paged.pool_pages {
            return None;
        }
        Some(Some(plan))
    }

    /// Applies an admission plan to a freshly created paged session: books
    /// the commitment, maps a prefix hit's pages copy-on-write (skipping
    /// their prefill), or schedules the prefix for registration on a miss.
    fn apply_paged_admit(
        paged: &mut Option<PagedRuntime>,
        telemetry: &mut Option<Box<EngineTelemetry>>,
        session: &mut Session,
        plan: Option<PagedAdmit>,
    ) -> Result<()> {
        let (Some(paged), Some(plan)) = (paged.as_mut(), plan) else {
            return Ok(());
        };
        paged.committed += plan.needed;
        session.kv_pages_committed = plan.needed;
        match plan.hit {
            Some((entry, len)) => {
                for (layer, kv) in session.state.kv.iter_mut().enumerate() {
                    kv.adopt_prefix(&paged.registry.entry_pages(entry)[layer], len)?;
                }
                session.state.pos = len;
                session.skip_prefilled_prefix(len);
                paged.registry.record_hit(len);
                if let Some(t) = telemetry.as_deref_mut() {
                    t.on_prefix_hit();
                }
            }
            None => {
                if paged.prefix_sharing {
                    if let Some(len) = paged.registry.shareable_len(&session.request) {
                        session.pending_prefix_register = Some(len);
                        paged.registry.record_miss();
                    }
                }
            }
        }
        Ok(())
    }

    /// Supplies a calibration trace for CATS requests (otherwise one is
    /// collected on demand from a small model-generated corpus).
    pub fn with_calibration(mut self, trace: ActivationTrace) -> Self {
        self.calibration = Some(trace);
        self
    }

    fn ensure_calibration(&mut self) -> Result<()> {
        if self.calibration.is_none() {
            let seqs = lm::eval::standard_eval_corpus(&self.model, 2, 16, self.config.seed)?;
            self.calibration = Some(lm::trace::collect_activation_trace(&self.model, &seqs)?);
        }
        Ok(())
    }

    /// The effective per-session context window: the configured budget
    /// clamped to the model's `max_seq_len`.
    pub fn context_window(&self) -> usize {
        self.config
            .kv_budget_tokens
            .unwrap_or(self.model.config.max_seq_len)
            .min(self.model.config.max_seq_len)
    }

    fn validate_requests(&self, requests: &[GenRequest]) -> Result<()> {
        let config = &self.model.config;
        let window = self.context_window();
        for r in requests {
            if r.prompt.is_empty() {
                return Err(ServeError::InvalidRequest {
                    id: r.id,
                    reason: "prompt must contain at least one token".to_string(),
                });
            }
            if let Some(&bad) = r
                .prompt
                .iter()
                .find(|&&t| (t as usize) >= config.vocab_size)
            {
                return Err(ServeError::InvalidRequest {
                    id: r.id,
                    reason: format!(
                        "prompt token {bad} outside vocabulary of {}",
                        config.vocab_size
                    ),
                });
            }
            // every served token (prefill or decode) pushes exactly one KV
            // entry, so a request fits iff its total tokens fit the window
            if r.total_tokens() > window {
                return Err(ServeError::InvalidRequest {
                    id: r.id,
                    reason: format!(
                        "prompt ({}) + generation ({}) exceeds the context window ({window})",
                        r.prompt.len(),
                        r.max_new_tokens,
                    ),
                });
            }
            r.strategy
                .validate()
                .map_err(|e| ServeError::InvalidRequest {
                    id: r.id,
                    reason: e.to_string(),
                })?;
            // weight-transforming specs (static pruning, LoRA fusing) would
            // rewrite the model every co-tenant is concurrently decoding with
            if r.strategy.weight_transform().is_some() {
                return Err(ServeError::InvalidRequest {
                    id: r.id,
                    reason: format!(
                        "`{}` requires an offline weight transform; serve the \
                         transformed model instead",
                        r.strategy.label()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Plans the next fused batch: asks the scheduler for the next schedule
    /// position, commits that position's token (prompt cursor / RNG draw /
    /// bookkeeping, via [`Session::plan_token`]) and repeats against the
    /// *updated* session state — so every decision is exactly the one the
    /// sequential engine would make at that position. Planning stops at any
    /// boundary where batching could diverge from token-at-a-time serving:
    ///
    /// * the scheduler re-picks a session already in the batch (a decode
    ///   token would depend on an unserved token's logits),
    /// * the picked session's spec differs from the lane's (one fused MLP
    ///   pass serves one spec),
    /// * a planned token completes its session (the freed slot makes the
    ///   next admission decision due *before* any further token),
    /// * `allow_multi` is false — the open-loop driver's guard for windows
    ///   where un-ingested arrivals could change scheduling mid-batch.
    ///
    /// A session starting (or continuing) prefill instead plans a prompt
    /// *chunk*: consecutive positions of that one session, as long as the
    /// scheduler (filtered through the prefill slice, when one is passed)
    /// keeps choosing it, bounded by `chunk_limit` positions.
    #[allow(clippy::too_many_arguments)]
    fn plan_batch(
        scheduler: &SchedulerPolicy,
        active: &mut [Session],
        rng: &mut StdRng,
        step_base: usize,
        allow_multi: bool,
        mut slice: Option<&mut PrefillSlice>,
        chunk_limit: usize,
        plan: &mut BatchPlan,
    ) -> Result<()> {
        plan.rows.clear();
        let mut step = step_base;
        let first = pick_service(scheduler, active, slice.as_deref_mut(), chunk_limit)
            .expect("active is non-empty");
        if allow_multi
            && active[first].phase() == SessionPhase::Prefill
            && active[first].prompt_remaining() >= 2
        {
            plan.kind = Some(PlanKind::Chunk);
            loop {
                let planned = active[first].plan_token(rng, step)?;
                active[first].last_served_step = step;
                if let Some(slice) = slice.as_deref_mut() {
                    slice.note(active[first].stream, planned.was_prefill);
                }
                plan.rows.push(PlanRow {
                    idx: first,
                    stream: active[first].stream,
                    planned,
                });
                step += 1;
                if planned.prefill_ended
                    || plan.rows.len() >= chunk_limit
                    // a page-loss replay re-serves already-generated
                    // positions as prefill without ever "ending" prefill;
                    // once the replayed prompt runs out the next step is a
                    // decode that must sample fresh logits, so close the
                    // chunk here instead of running into it
                    || active[first].prompt_remaining() == 0
                {
                    break;
                }
                if pick_service(scheduler, active, slice.as_deref_mut(), chunk_limit) != Some(first)
                {
                    break;
                }
            }
            return Ok(());
        }
        plan.kind = Some(PlanKind::Lane);
        let lane_spec = active[first].request.strategy;
        let mut idx = first;
        loop {
            let planned = active[idx].plan_token(rng, step)?;
            active[idx].last_served_step = step;
            if let Some(slice) = slice.as_deref_mut() {
                slice.note(active[idx].stream, planned.was_prefill);
            }
            plan.rows.push(PlanRow {
                idx,
                stream: active[idx].stream,
                planned,
            });
            step += 1;
            if active[idx].remaining_tokens() == 0 || !allow_multi {
                break;
            }
            let Some(next) = pick_service(scheduler, active, slice.as_deref_mut(), chunk_limit)
            else {
                break;
            };
            if plan.rows.iter().any(|r| r.idx == next) || active[next].request.strategy != lane_spec
            {
                break;
            }
            idx = next;
        }
        Ok(())
    }

    /// Executes the current plan in one fused pass: a prompt chunk through
    /// [`TransformerModel::forward_prompt_into`], a lane through
    /// [`TransformerModel::forward_tokens_batch_into`] (fused MLP when the
    /// lane strategy allows it, per-session MLP otherwise). Session states
    /// and strategy boxes are moved out for the call and restored after.
    fn execute_batch(&mut self, active: &mut [Session]) -> Result<()> {
        let ServeEngine {
            model,
            batch,
            plan,
            exec,
            ..
        } = self;
        exec.tokens.clear();
        exec.tokens
            .extend(plan.rows.iter().map(|r| r.planned.token));
        match plan.kind.expect("executing a planned batch") {
            PlanKind::Chunk => {
                let session = &mut active[plan.rows[0].idx];
                let mut state = take_state(session);
                let result = model.forward_prompt_into(
                    &exec.tokens,
                    &mut state,
                    session.strategy.as_mut(),
                    batch,
                );
                session.state = state;
                result?;
            }
            PlanKind::Lane => {
                exec.states.clear();
                exec.strategies.clear();
                for row in &plan.rows {
                    let session = &mut active[row.idx];
                    exec.states.push(take_state(session));
                    exec.strategies
                        .push(std::mem::replace(&mut session.strategy, Box::new(DenseMlp)));
                }
                let result = if exec.strategies[0].batch_fusable() {
                    // one instance may drive the whole lane (stateless or
                    // lane-shared state — see `MlpForward::batch_fusable`)
                    let mut mode = BatchStrategies::Fused(exec.strategies[0].as_mut());
                    model.forward_tokens_batch_into(
                        &exec.tokens,
                        &mut exec.states,
                        &mut mode,
                        batch,
                    )
                } else {
                    let mut mode = BatchStrategies::PerRow(&mut exec.strategies);
                    model.forward_tokens_batch_into(
                        &exec.tokens,
                        &mut exec.states,
                        &mut mode,
                        batch,
                    )
                };
                for (row, (state, strategy)) in plan
                    .rows
                    .iter()
                    .zip(exec.states.drain(..).zip(exec.strategies.drain(..)))
                {
                    let session = &mut active[row.idx];
                    session.state = state;
                    session.strategy = strategy;
                }
                result?;
            }
        }
        Ok(())
    }

    /// Whether row `i` of the executed plan produced observable logits (lane
    /// rows always do; only the last row of a prompt chunk does).
    fn row_logits_ready(&self, i: usize) -> bool {
        match self.plan.kind {
            Some(PlanKind::Lane) => true,
            _ => i + 1 == self.plan.rows.len(),
        }
    }

    /// Serves a closed batch of requests to completion and reports
    /// per-request latencies and fleet aggregates.
    ///
    /// # Errors
    ///
    /// Propagates request validation, strategy construction, model forward
    /// and simulation errors.
    pub fn run(&mut self, requests: Vec<GenRequest>) -> Result<ServeReport> {
        // Faults, retries and degradation are *events in time*: they need
        // the open-loop virtual clock (arrival offsets, backoff, queue
        // pressure). A closed batch has no clock and no queue pressure, so
        // a configuration carrying them is a category error, not a no-op.
        if self.config.fault_plan.is_some() {
            return Err(ServeError::InvalidConfig {
                field: "fault_plan",
                reason: "fault injection needs the open-loop virtual clock; \
                         use run_open_loop for chaos runs"
                    .to_string(),
            });
        }
        if self.config.retry.is_some() {
            return Err(ServeError::InvalidConfig {
                field: "retry",
                reason: "retry backoff runs on the open-loop virtual clock; \
                         closed batches cannot re-enqueue"
                    .to_string(),
            });
        }
        if self.config.degrade.is_some() {
            return Err(ServeError::InvalidConfig {
                field: "degrade",
                reason: "degradation reacts to open-loop queue pressure; \
                         a closed batch has no admission queue"
                    .to_string(),
            });
        }
        self.validate_requests(&requests)?;
        // a closed batch must drain, so every request must fit the page
        // pool by itself (open-loop traffic sheds such requests instead)
        if let Some(paged) = &self.paged {
            let n_layers = self.model.config.n_layers;
            for r in &requests {
                let needed = n_layers * pages_spanning(r.total_tokens(), paged.page_size);
                if needed > paged.pool_pages {
                    return Err(ServeError::InvalidRequest {
                        id: r.id,
                        reason: format!(
                            "needs {needed} KV pages but the pool holds {}",
                            paged.pool_pages
                        ),
                    });
                }
            }
        }
        self.reset_paged_run();
        if requests.iter().any(|r| r.strategy.needs_calibration()) {
            self.ensure_calibration()?;
        }

        // Shared layout + DRAM split, fixed for the whole run.
        let specs: Vec<StrategySpec> = requests.iter().map(|r| r.strategy).collect();
        let axes = resolve_axes(&specs)?;
        let layout = layout_for_serving(
            &self.model.config,
            axes,
            self.config.bits_per_weight,
            self.config.max_concurrent,
            self.context_window(),
        );
        let allocation = hwsim::allocate(&layout, &self.config.device)?;

        let mut traces = vec![AccessTrace::new(); requests.len()];
        let mut factory = StrategyFactory::new();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let sequential = self.config.execution == ExecutionMode::Sequential;
        let mut waiting: Vec<GenRequest> = requests;
        let mut active: Vec<Session> = Vec::new();
        let mut finished: Vec<Session> = Vec::new();
        let mut order: Vec<usize> = Vec::new();
        let mut next_stream = 0usize;
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.on_run_start(0.0);
        }

        while !waiting.is_empty() || !active.is_empty() {
            // Admission: fill free KV slots following the scheduler policy
            // (gated on page commitment when the engine is paged).
            while active.len() < self.config.max_concurrent && !waiting.is_empty() {
                let idx = self
                    .config
                    .scheduler
                    .next_admission(&waiting)
                    .expect("queue is non-empty");
                let Some(plan) = Self::paged_admission_gate(
                    &mut self.paged,
                    self.model.config.n_layers,
                    &waiting[idx],
                    active.is_empty(),
                ) else {
                    // pool pressure: wait for a running session to complete
                    break;
                };
                let request = waiting.remove(idx);
                let strategy = factory.instantiate(
                    &request.strategy,
                    &self.model,
                    &allocation.capacities,
                    self.calibration.as_ref(),
                )?;
                let state = self
                    .pool
                    .acquire_backed(&self.model, self.paged.as_ref().map(|p| &p.pool));
                if let Some(t) = self.telemetry.as_deref_mut() {
                    t.on_slot_granted(next_stream, &request.strategy.label());
                }
                let mut session = Session::new(next_stream, request, order.len(), state, strategy);
                Self::apply_paged_admit(&mut self.paged, &mut self.telemetry, &mut session, plan)?;
                active.push(session);
                next_stream += 1;
            }

            if sequential {
                // Oracle path: serve one token of one active session.
                let idx = self
                    .config
                    .scheduler
                    .next_service(&active)
                    .expect("active set is non-empty");
                let step = order.len();
                let (planned, access) =
                    active[idx].step(&self.model, &mut rng, step, &mut self.scratch)?;
                active[idx].last_served_step = step;
                order.push(active[idx].stream);
                traces[active[idx].stream].push(access);
                if let Some(t) = self.telemetry.as_deref_mut() {
                    t.on_closed_token(active[idx].stream, planned.was_prefill);
                }
                // Let every *other* shared cache-aware model see this
                // traffic: the physical DRAM cache is shared, so their view
                // must include co-tenant accesses.
                factory.observe_cross_traffic_scratch(
                    active[idx].request.strategy.shared_cache_key(),
                    &self.scratch.accesses,
                    self.model.config.d_model,
                    self.model.config.d_ff,
                );

                try_register_prefix(&mut self.paged, &mut active[idx]);
                if active[idx].remaining_tokens() == 0 {
                    let mut session = active.swap_remove(idx);
                    if let Some(paged) = self.paged.as_mut() {
                        paged.committed -= session.kv_pages_committed;
                        session.kv_pages_committed = 0;
                    }
                    // Return the KV slot's decode state to the pool for the
                    // next admission; the session keeps its bookkeeping.
                    let state = take_state(&mut session);
                    self.pool.release(state);
                    finished.push(session);
                }
            } else {
                // Batched path: plan a lane/chunk of consecutive schedule
                // positions and execute it in one fused weight pass, then
                // settle each position in schedule order (identical traces,
                // interleave and shared-cache observations).
                Self::plan_batch(
                    &self.config.scheduler,
                    &mut active,
                    &mut rng,
                    order.len(),
                    true,
                    None,
                    MAX_PREFILL_CHUNK,
                    &mut self.plan,
                )?;
                self.execute_batch(&mut active)?;
                let rows_n = self.plan.rows.len();
                let vocab = self.model.config.vocab_size;
                if let Some(t) = self.telemetry.as_deref_mut() {
                    t.on_plan(self.plan.kind == Some(PlanKind::Chunk), rows_n, 0.0);
                }
                for i in 0..rows_n {
                    let row = self.plan.rows[i];
                    let access = to_token_access_batch_row(&self.batch.accesses, i);
                    let logits = self
                        .row_logits_ready(i)
                        .then(|| &self.batch.logits[i * vocab..(i + 1) * vocab]);
                    active[row.idx].finish_row(logits);
                    traces[row.stream].push(access);
                    order.push(row.stream);
                    if let Some(t) = self.telemetry.as_deref_mut() {
                        t.on_closed_token(row.stream, row.planned.was_prefill);
                    }
                    factory.observe_cross_traffic_batch_row(
                        active[row.idx].request.strategy.shared_cache_key(),
                        &self.batch.accesses,
                        i,
                        self.model.config.d_model,
                        self.model.config.d_ff,
                    );
                }
                for i in 0..rows_n {
                    let row_idx = self.plan.rows[i].idx;
                    try_register_prefix(&mut self.paged, &mut active[row_idx]);
                }
                // at most the last planned position's session completed
                // (the planner breaks a batch at any earlier completion)
                let last_idx = self.plan.rows[rows_n - 1].idx;
                if active[last_idx].remaining_tokens() == 0 {
                    let mut session = active.swap_remove(last_idx);
                    if let Some(paged) = self.paged.as_mut() {
                        paged.committed -= session.kv_pages_committed;
                        session.kv_pages_committed = 0;
                    }
                    let state = take_state(&mut session);
                    self.pool.release(state);
                    finished.push(session);
                }
            }
        }

        self.publish_paged_telemetry();
        if let Some(t) = self.telemetry.as_deref_mut() {
            // closed batches are priced post hoc, so the virtual clock here
            // is 0; the report carries the makespan
            t.on_run_end(
                0.0,
                order.len() as u64,
                active.len(),
                0,
                waiting.len(),
                &self.pool,
                self.batch.rows_computed,
                self.batch.fused_passes,
                self.batch.pack_nanos + self.scratch.pack_nanos,
                self.batch.pack_builds + self.scratch.pack_builds,
            );
        }
        self.build_report(&layout, finished, order, traces)
    }

    /// Fires one [`crate::event::EventKind::Arrival`]: takes the request
    /// out of the run's inbox and offers it to admission control. Admission
    /// decisions use the request's own arrival time, so the token bucket
    /// refills on true inter-arrival gaps regardless of when the engine's
    /// clock catches up. A request whose worst-case footprint exceeds the
    /// whole page pool is shed at the door rather than pinning the queue
    /// forever.
    fn ingest_arrival(
        inbox: &mut [Option<GenRequest>],
        i: usize,
        n_layers: usize,
        paged_caps: Option<(usize, usize)>,
        admission: &mut AdmissionController,
        telemetry: &mut Option<Box<EngineTelemetry>>,
    ) {
        let request = inbox[i].take().expect("each arrival fires exactly once");
        let at = request.arrival_s;
        let fits_memory = paged_caps.is_none_or(|(page_size, pool_pages)| {
            n_layers * pages_spanning(request.total_tokens(), page_size) <= pool_pages
        });
        let verdict = admission.offer_with_memory(request, at, fits_memory);
        if let Some(t) = telemetry.as_deref_mut() {
            t.on_arrival(verdict, admission.queue().len(), at);
        }
    }

    /// Generates an open-loop workload's traffic and serves it on a virtual
    /// clock (see [`ServeEngine::run_open_loop_requests`]).
    ///
    /// # Errors
    ///
    /// Propagates workload validation/generation errors and everything
    /// [`ServeEngine::run_open_loop_requests`] returns.
    pub fn run_open_loop(&mut self, workload: &Workload) -> Result<ServeReport> {
        let arrivals = workload.generate(self.model.config.vocab_size)?;
        self.run_open_loop_requests(arrivals)
    }

    /// Serves timestamped arrivals open loop, to drain, on a virtual clock
    /// driven by an [`EventQueue`].
    ///
    /// Where [`ServeEngine::run`] consumes a closed batch (everything queued
    /// at t = 0) and prices the traffic post hoc, this driver interleaves
    /// *time* with execution. The clock is the head of a (time, seq)-keyed
    /// event queue rather than a token counter:
    ///
    /// 1. Every arrival is seeded as an
    ///    [`crate::event::EventKind::Arrival`] at its timestamp. Firing one
    ///    offers the request to admission control
    ///    ([`crate::admission::AdmissionController`]): token-bucket rate
    ///    limiting, per-tier quotas, then the bounded queue — excess traffic
    ///    is **shed**, not queued forever.
    /// 2. Each scheduled unit of work (a prefill chunk or a decode round)
    ///    completes as a `UnitDone` event whose duration is the sum of its
    ///    tokens' service latencies ([`hwsim::TokenPricer`] prices tokens
    ///    online with the same cost model the batch replay uses — identical
    ///    by construction). Long prefills are split into chunks of
    ///    [`ServeConfig::prefill_chunk_tokens`] under
    ///    [`EngineCore::EventDriven`] (the default), with a decode round
    ///    between chunks, so a monolithic prompt can no longer stall every
    ///    decoding session behind it; [`EngineCore::StepLoop`] keeps the
    ///    legacy monolithic-chunk behaviour.
    /// 3. Free KV slots are filled from the waiting queue (and from parked
    ///    sessions) following the scheduler policy. Under
    ///    [`SchedulerPolicy::PriorityPreemptive`] a waiting request that
    ///    outranks the lowest-tier active session **preempts** it at a token
    ///    boundary: the victim's decode state is parked in
    ///    [`lm::DecodeStatePool`] (KV and position intact) and resumed later
    ///    without output divergence. Parking spills the victim's KV bytes
    ///    and resuming reloads them; both transfers are priced through the
    ///    same [`hwsim::TokenPricer`] and occupy the clock as
    ///    `SpillDone`/`ReloadDone` events — preemption is never free.
    /// 4. When nothing is runnable the clock jumps to the next pending
    ///    event (typically the next arrival).
    ///
    /// The run is a pure function of `(arrivals, config, model)`: events at
    /// equal times fire in insertion (seq) order, no wall clock or ambient
    /// randomness enters, so reports are bitwise reproducible across runs
    /// and thread counts.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for
    /// [`EvictionPolicy::Belady`] (the oracle needs the full future trace,
    /// which an open-loop run does not have), [`ServeError::InvalidRequest`]
    /// for malformed requests or non-finite/negative arrival times, and
    /// propagates strategy construction, forward-pass and pricing errors.
    pub fn run_open_loop_requests(&mut self, mut arrivals: Vec<GenRequest>) -> Result<ServeReport> {
        if self.config.eviction == EvictionPolicy::Belady {
            return Err(ServeError::InvalidConfig {
                field: "eviction",
                reason: "Belady's oracle needs the full future access trace; \
                         open-loop traffic is priced online"
                    .to_string(),
            });
        }
        self.validate_requests(&arrivals)?;
        if let Some(bad) = arrivals
            .iter()
            .find(|r| !r.arrival_s.is_finite() || r.arrival_s < 0.0)
        {
            return Err(ServeError::InvalidRequest {
                id: bad.id,
                reason: format!(
                    "arrival time {} is not a finite non-negative virtual-clock time",
                    bad.arrival_s
                ),
            });
        }
        if arrivals.iter().any(|r| r.strategy.needs_calibration()) {
            self.ensure_calibration()?;
        }
        self.reset_paged_run();
        arrivals.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.id.cmp(&b.id)));

        // Shared layout + DRAM split, fixed for the whole run (axes must be
        // resolvable across every arrival, shed or not, since the layout
        // cannot change mid-run).
        let specs: Vec<StrategySpec> = arrivals.iter().map(|r| r.strategy).collect();
        let axes = resolve_axes(&specs)?;
        let layout = layout_for_serving(
            &self.model.config,
            axes,
            self.config.bits_per_weight,
            self.config.max_concurrent,
            self.context_window(),
        );
        let static_bytes = layout.static_bytes as f64;
        let mlp_bytes = layout.mlp_bytes() as f64;
        let allocation = hwsim::allocate(&layout, &self.config.device)?;
        let mut pricer =
            TokenPricer::new(&layout, &self.config.device, self.config.eviction, None)?;

        let mut factory = StrategyFactory::new();
        let mut acc = OpenAccum {
            cache_fraction: pricer.cache_fraction(),
            ..OpenAccum::default()
        };
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let sequential = self.config.execution == ExecutionMode::Sequential;
        let mut admission = AdmissionController::new(self.config.admission.clone());
        // Every request becomes an Arrival event up front; pushing in sorted
        // order means equal-time arrivals pop in id order. The queue also
        // carries one in-flight completion event (spill, reload or service
        // unit) at a time, plus any seeded deadline and injected fault
        // events (counted or pushed here, before steady state begins).
        let n_deadlines = arrivals.iter().filter(|r| r.deadline_s.is_finite()).count();
        let mut events = EventQueue::with_capacity(arrivals.len() + n_deadlines + 1);
        for (i, r) in arrivals.iter().enumerate() {
            events.push_at(r.arrival_s, EngineEvent::Arrival(i));
        }
        // Request-declared wall budgets become deadline events on the same
        // clock (after the arrivals, so an arrival at the same instant pops
        // first and the deadline finds the request, not a ghost).
        for r in &arrivals {
            if r.deadline_s.is_finite() {
                events.push_at(
                    r.arrival_s + r.deadline_s,
                    EngineEvent::DeadlineAt { request: r.id },
                );
            }
        }
        if let Some(plan) = &self.config.fault_plan {
            crate::fault::FaultInjector::new(plan).schedule(plan, &arrivals, &mut events);
        }
        let retry_policy = self.config.retry;
        let degrade_policy = self.config.degrade;
        let slow_lane_factor = self
            .config
            .fault_plan
            .as_ref()
            .and_then(|p| p.slow_lane)
            .map_or(1.0, |w| w.factor);
        let mut slow_factor = 1.0f64;
        let mut fc = FaultCounters::default();
        let mut deferred: Vec<Event> = Vec::new();
        let mut pending_retries: Vec<Option<(GenRequest, u32)>> = Vec::new();
        let mut retry_attempts: std::collections::HashMap<u64, u32> =
            std::collections::HashMap::new();
        let mut inbox: Vec<Option<GenRequest>> = arrivals.into_iter().map(Some).collect();
        let chunk_limit = match self.config.engine_core {
            EngineCore::EventDriven => self.config.prefill_chunk_tokens.min(MAX_PREFILL_CHUNK),
            EngineCore::StepLoop => MAX_PREFILL_CHUNK,
        };
        let mut slice = match self.config.engine_core {
            EngineCore::EventDriven => Some(PrefillSlice::new()),
            EngineCore::StepLoop => None,
        };
        let paged_caps = self.paged.as_ref().map(|p| (p.page_size, p.pool_pages));
        let mut parked: Vec<Session> = Vec::new();
        let mut active: Vec<Session> = Vec::new();
        let mut finished: Vec<Session> = Vec::new();
        let mut metas: Vec<OpenMeta> = Vec::new();
        // The DRAM layout budgets KV for `max_concurrent` slots; a parked
        // session's KV state cannot stay resident on top of that, so
        // preemption swaps it out to Flash (and back in on resume), and the
        // transfer is charged on the virtual clock at Flash bandwidth.
        let kv_bytes_per_pos =
            self.model.config.kv_cache_bytes() / self.model.config.max_seq_len as f64;
        let n_layers = self.model.config.n_layers;
        let mut now = 0.0f64;
        let mut step = 0usize;
        let mut next_stream = 0usize;
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.on_run_start(now);
        }

        // One borrow bundle per fault-application site: the handler needs
        // most of the driver's state, and an associated fn taking a context
        // struct keeps the three call sites identical.
        macro_rules! fault_ctx {
            () => {
                FaultCtx {
                    active: &mut active,
                    parked: &mut parked,
                    finished: &mut finished,
                    metas: &mut metas,
                    admission: &mut admission,
                    events: &mut events,
                    pool: &mut self.pool,
                    paged: &mut self.paged,
                    telemetry: &mut self.telemetry,
                    pending_retries: &mut pending_retries,
                    retry_attempts: &mut retry_attempts,
                    fc: &mut fc,
                    slow_factor: &mut slow_factor,
                    retry_policy,
                    slow_lane_factor,
                    n_layers,
                }
            };
        }

        loop {
            // 0. Apply fault events that popped inside the previous
            // dispatch's drain window. They are deferred to here — a loop
            // head, where no unit is mid-settlement — and land at the
            // already-advanced clock, in their pop order.
            if !deferred.is_empty() {
                for ev in &deferred {
                    apply_fault(fault_ctx!(), ev.kind, now);
                }
                deferred.clear();
            }

            // 1. Fire every event the clock has already passed: arrivals
            // and fault events. Completion events are drained at their own
            // dispatch site, before the clock moves on.
            while let Some(ev) = events.pop_due(now) {
                match ev.kind {
                    EngineEvent::Arrival(i) => Self::ingest_arrival(
                        &mut inbox,
                        i,
                        n_layers,
                        paged_caps,
                        &mut admission,
                        &mut self.telemetry,
                    ),
                    EngineEvent::SpillDone { .. }
                    | EngineEvent::ReloadDone { .. }
                    | EngineEvent::UnitDone { .. } => {
                        debug_assert!(false, "completion events settle at dispatch");
                    }
                    kind => apply_fault(fault_ctx!(), kind, now),
                }
            }

            // 2. Fill free KV slots; under PriorityPreemptive, additionally
            // displace lower-tier active sessions for higher-tier waiters.
            while let Some(candidate) = self
                .config
                .scheduler
                .next_candidate(admission.queue(), &parked)
            {
                if active.len() >= self.config.max_concurrent {
                    let tier = match candidate {
                        AdmissionCandidate::Queued(i) => admission.queue()[i].tier,
                        AdmissionCandidate::Parked(i) => parked[i].request.tier,
                    };
                    let Some(victim) = self.config.scheduler.preemption_victim(&active, tier)
                    else {
                        break;
                    };
                    let mut session = active.swap_remove(victim);
                    if let Some(paged) = self.paged.as_mut() {
                        // parking spills the pages to (virtual) Flash; the
                        // worst-case commitment goes with them
                        paged.committed -= session.kv_pages_committed;
                        session.kv_pages_committed = 0;
                    }
                    let state = take_state(&mut session);
                    let positions = state.pos;
                    // the spill is priced traffic, not a bare clock bump:
                    // TokenPricer charges it at Flash bandwidth and the
                    // bytes join the fleet's flash totals, so the
                    // telemetry-counted swap bytes and the priced cost agree
                    let swap = pricer.price_kv_swap(kv_bytes_per_pos * positions as f64);
                    let end = now + swap.latency_s;
                    events.push_at(
                        end,
                        EngineEvent::SpillDone {
                            stream: session.stream,
                        },
                    );
                    while let Some(ev) = events.pop_due(end) {
                        match ev.kind {
                            EngineEvent::Arrival(i) => Self::ingest_arrival(
                                &mut inbox,
                                i,
                                n_layers,
                                paged_caps,
                                &mut admission,
                                &mut self.telemetry,
                            ),
                            // the transfer completion we just scheduled is
                            // what advances the clock
                            EngineEvent::SpillDone { .. }
                            | EngineEvent::ReloadDone { .. }
                            | EngineEvent::UnitDone { .. } => now = now.max(ev.time),
                            // fault events inside a dispatch window apply at
                            // the next loop head, never mid-settlement
                            _ => deferred.push(ev),
                        }
                    }
                    acc.kv_swap_s += swap.latency_s;
                    acc.kv_swap_bytes += swap.flash_bytes;
                    acc.kv_spill_bytes += swap.flash_bytes;
                    acc.flash_bytes += swap.flash_bytes;
                    metas[session.stream].flash_bytes += swap.flash_bytes;
                    self.pool.park(session.stream as u64, state);
                    metas[session.stream].preemptions += 1;
                    acc.preemptions += 1;
                    if let Some(t) = self.telemetry.as_deref_mut() {
                        t.on_preempt(session.stream, positions, swap.latency_s, now);
                        t.on_kv_swap_bytes(swap.flash_bytes);
                    }
                    parked.push(session);
                }
                // Graceful degradation decision for a queued candidate:
                // under queue pressure, walk the spec-declared fallback
                // chain ([`StrategySpec::degraded`]) as far as the policy's
                // step budget and run-level admissibility (axis agreement
                // with the resolved layout, calibration availability)
                // allow. Decided *before* the paged plan so a prefix-hit
                // lookup keys on the spec the session will actually run —
                // adopting pages prefilled under a different strategy would
                // splice mismatched hidden states.
                let degraded_to: Option<StrategySpec> = match (degrade_policy, candidate) {
                    (Some(policy), AdmissionCandidate::Queued(i)) => {
                        let waiting_behind = admission.queue().len().saturating_sub(1);
                        degrade_spec(
                            &admission.queue()[i].strategy,
                            policy.steps_for_depth(waiting_behind),
                            axes,
                            self.calibration.is_some(),
                        )
                    }
                    _ => None,
                };

                // Paged memory gate for the candidate. A resumed session
                // re-commits its full worst-case footprint: spilling
                // privatised its pages, so any prefix sharing is gone.
                let plan = match self.paged.as_mut() {
                    None => None,
                    Some(paged) => {
                        let plan_of = |paged: &PagedRuntime| match candidate {
                            AdmissionCandidate::Queued(i) => match degraded_to {
                                Some(spec) => {
                                    let mut request = admission.queue()[i].clone();
                                    request.strategy = spec;
                                    paged_plan(paged, n_layers, &request)
                                }
                                None => paged_plan(paged, n_layers, &admission.queue()[i]),
                            },
                            AdmissionCandidate::Parked(i) => PagedAdmit {
                                needed: n_layers
                                    * pages_spanning(
                                        parked[i].request.total_tokens(),
                                        paged.page_size,
                                    ),
                                hit: None,
                            },
                        };
                        let mut plan = plan_of(paged);
                        if paged.committed + plan.needed > paged.pool_pages
                            && active.is_empty()
                            && !paged.registry.is_empty()
                        {
                            // nothing runnable can free pages: evict the
                            // prefix registry and re-plan without it
                            paged.committed -= paged.registry.pages_held();
                            paged.registry.reset();
                            plan = plan_of(paged);
                        }
                        if paged.committed + plan.needed > paged.pool_pages {
                            break;
                        }
                        Some(plan)
                    }
                };
                match candidate {
                    AdmissionCandidate::Parked(i) => {
                        let mut session = parked.swap_remove(i);
                        session.state = self
                            .pool
                            .resume(session.stream as u64)
                            .expect("parked session has a parked state");
                        if let (Some(paged), Some(plan)) = (self.paged.as_mut(), plan) {
                            paged.committed += plan.needed;
                            session.kv_pages_committed = plan.needed;
                            // re-allocate pages and restore the spilled KV
                            session.state.reload_kv()?;
                        }
                        // the reload prices like the spill did: the parked
                        // position count is frozen, so each park/resume
                        // cycle moves the same bytes once in each direction
                        let swap =
                            pricer.price_kv_swap(kv_bytes_per_pos * session.state.pos as f64);
                        let end = now + swap.latency_s;
                        events.push_at(
                            end,
                            EngineEvent::ReloadDone {
                                stream: session.stream,
                            },
                        );
                        while let Some(ev) = events.pop_due(end) {
                            match ev.kind {
                                EngineEvent::Arrival(i) => Self::ingest_arrival(
                                    &mut inbox,
                                    i,
                                    n_layers,
                                    paged_caps,
                                    &mut admission,
                                    &mut self.telemetry,
                                ),
                                EngineEvent::SpillDone { .. }
                                | EngineEvent::ReloadDone { .. }
                                | EngineEvent::UnitDone { .. } => now = now.max(ev.time),
                                // fault events inside a dispatch window apply at
                                // the next loop head, never mid-settlement
                                _ => deferred.push(ev),
                            }
                        }
                        acc.kv_swap_s += swap.latency_s;
                        acc.kv_swap_bytes += swap.flash_bytes;
                        acc.kv_reload_bytes += swap.flash_bytes;
                        acc.flash_bytes += swap.flash_bytes;
                        metas[session.stream].flash_bytes += swap.flash_bytes;
                        acc.resumes += 1;
                        if let Some(t) = self.telemetry.as_deref_mut() {
                            t.on_resume(session.stream, session.state.pos, swap.latency_s, now);
                            t.on_kv_swap_bytes(swap.flash_bytes);
                        }
                        active.push(session);
                    }
                    AdmissionCandidate::Queued(i) => {
                        let mut request = admission.take(i);
                        let was_degraded = match degraded_to {
                            Some(spec) => {
                                request.strategy = spec;
                                if let Some(t) = self.telemetry.as_deref_mut() {
                                    t.on_degrade(next_stream, now);
                                }
                                true
                            }
                            None => false,
                        };
                        let strategy = factory.instantiate(
                            &request.strategy,
                            &self.model,
                            &allocation.capacities,
                            self.calibration.as_ref(),
                        )?;
                        let state = self
                            .pool
                            .acquire_backed(&self.model, self.paged.as_ref().map(|p| &p.pool));
                        if let Some(t) = self.telemetry.as_deref_mut() {
                            t.on_slot_granted(next_stream, &request.strategy.label());
                        }
                        metas.push(OpenMeta::new(request.arrival_s, now));
                        let mut session = Session::new(next_stream, request, step, state, strategy);
                        session.degraded = was_degraded;
                        // a request coming back through admission after a
                        // worker abort carries its attempt count forward
                        session.attempts = retry_attempts
                            .remove(&session.request.id)
                            .unwrap_or(session.attempts);
                        Self::apply_paged_admit(
                            &mut self.paged,
                            &mut self.telemetry,
                            &mut session,
                            plan,
                        )?;
                        active.push(session);
                        next_stream += 1;
                    }
                }
            }

            // 3. Nothing runnable: jump the clock to the next arrival, or
            // drain. (With free slots the admission loop above empties both
            // the queue and the parked set, so an idle engine truly has
            // nothing waiting.)
            if active.is_empty() {
                debug_assert!(admission.queue().is_empty() && parked.is_empty());
                match events.pop_next() {
                    None => break,
                    Some(ev) => {
                        match ev.kind {
                            // an arrival (or a maturing retry) is real
                            // traffic: jump the clock to it
                            EngineEvent::Arrival(i) => {
                                now = now.max(ev.time);
                                Self::ingest_arrival(
                                    &mut inbox,
                                    i,
                                    n_layers,
                                    paged_caps,
                                    &mut admission,
                                    &mut self.telemetry,
                                );
                            }
                            EngineEvent::RetryAt { .. } => {
                                now = now.max(ev.time);
                                apply_fault(fault_ctx!(), ev.kind, now);
                            }
                            EngineEvent::SpillDone { .. }
                            | EngineEvent::ReloadDone { .. }
                            | EngineEvent::UnitDone { .. } => {
                                debug_assert!(false, "idle queues hold no completions");
                            }
                            // With nothing active, parked or queued, the
                            // remaining fault events are stale strikes on
                            // already-retired requests (or a slow-lane
                            // toggle with nothing to slow down). They must
                            // still pop — a pending-retry slot can be
                            // cancelled here — but a no-op must not stretch
                            // the makespan, so the clock stays put.
                            kind => apply_fault(fault_ctx!(), kind, now.max(ev.time)),
                        }
                        continue;
                    }
                }
            }

            // 4. Serve the scheduler's next token(s) and advance the
            // virtual clock by each token's online-priced service time.
            if sequential {
                let idx =
                    pick_service(&self.config.scheduler, &active, slice.as_mut(), chunk_limit)
                        .expect("active set is non-empty");
                let (planned, access) =
                    active[idx].step(&self.model, &mut rng, step, &mut self.scratch)?;
                active[idx].last_served_step = step;
                step += 1;
                if let Some(slice) = slice.as_mut() {
                    slice.note(active[idx].stream, planned.was_prefill);
                }
                let mut cost = pricer.price_token(&access)?;
                if slow_factor != 1.0 {
                    cost.latency_s *= slow_factor;
                }
                // dispatch: the bus is occupied until `end`; arrivals landing
                // inside the occupancy are ingested in event order before the
                // unit settles
                let end = now + cost.latency_s;
                events.push_at(end, EngineEvent::UnitDone { tokens: 1 });
                while let Some(ev) = events.pop_due(end) {
                    match ev.kind {
                        EngineEvent::Arrival(i) => Self::ingest_arrival(
                            &mut inbox,
                            i,
                            n_layers,
                            paged_caps,
                            &mut admission,
                            &mut self.telemetry,
                        ),
                        EngineEvent::SpillDone { .. }
                        | EngineEvent::ReloadDone { .. }
                        | EngineEvent::UnitDone { .. } => now = now.max(ev.time),
                        // fault events inside a dispatch window apply at
                        // the next loop head, never mid-settlement
                        _ => deferred.push(ev),
                    }
                }
                settle_open_loop_token(
                    &cost,
                    &planned,
                    active[idx].request.max_new_tokens,
                    active[idx].stream,
                    now,
                    &mut acc,
                    &mut metas,
                    static_bytes,
                    mlp_bytes,
                );
                if let Some(t) = self.telemetry.as_deref_mut() {
                    t.on_token(
                        active[idx].stream,
                        active[idx].request.tier,
                        &cost,
                        planned.was_prefill,
                        now,
                    );
                }
                factory.observe_cross_traffic_scratch(
                    active[idx].request.strategy.shared_cache_key(),
                    &self.scratch.accesses,
                    self.model.config.d_model,
                    self.model.config.d_ff,
                );

                try_register_prefix(&mut self.paged, &mut active[idx]);
                if active[idx].remaining_tokens() == 0 {
                    let session = active.swap_remove(idx);
                    let finish = if session.token_capped() {
                        FinishReason::Cancelled
                    } else {
                        FinishReason::Completed
                    };
                    retire_open_session(
                        session,
                        finish,
                        now,
                        &mut self.paged,
                        &mut self.pool,
                        &mut self.telemetry,
                        &mut metas,
                        &mut finished,
                        &mut fc,
                    );
                }
            } else {
                // Batch extension is only allowed while no *un-ingested*
                // arrival could change scheduling mid-batch: either every
                // arrival is already ingested, or the slots are full under a
                // non-preemptive policy (then admission between tokens is
                // provably a no-op and delayed ingestion is equivalent —
                // see DESIGN.md §11/§16).
                let allow_multi = !events.has_pending_arrival()
                    || (self.config.scheduler != SchedulerPolicy::PriorityPreemptive
                        && active.len() == self.config.max_concurrent);
                Self::plan_batch(
                    &self.config.scheduler,
                    &mut active,
                    &mut rng,
                    step,
                    allow_multi,
                    slice.as_mut(),
                    chunk_limit,
                    &mut self.plan,
                )?;
                self.execute_batch(&mut active)?;
                let rows_n = self.plan.rows.len();
                let vocab = self.model.config.vocab_size;
                if let Some(t) = self.telemetry.as_deref_mut() {
                    t.on_plan(self.plan.kind == Some(PlanKind::Chunk), rows_n, now);
                }
                // dispatch: price every position in plan order (the bus
                // order), recording each one's completion time on the clock
                self.exec.priced.clear();
                let mut end = now;
                for i in 0..rows_n {
                    let access = to_token_access_batch_row(&self.batch.accesses, i);
                    let mut cost = pricer.price_token(&access)?;
                    if slow_factor != 1.0 {
                        cost.latency_s *= slow_factor;
                    }
                    end += cost.latency_s;
                    self.exec.priced.push((cost, end));
                }
                events.push_at(end, EngineEvent::UnitDone { tokens: rows_n });
                while let Some(ev) = events.pop_due(end) {
                    match ev.kind {
                        EngineEvent::Arrival(i) => Self::ingest_arrival(
                            &mut inbox,
                            i,
                            n_layers,
                            paged_caps,
                            &mut admission,
                            &mut self.telemetry,
                        ),
                        EngineEvent::SpillDone { .. }
                        | EngineEvent::ReloadDone { .. }
                        | EngineEvent::UnitDone { .. } => now = now.max(ev.time),
                        // fault events inside a dispatch window apply at
                        // the next loop head, never mid-settlement
                        _ => deferred.push(ev),
                    }
                }
                // settlement: each position lands at its own recorded time
                for i in 0..rows_n {
                    let row = self.plan.rows[i];
                    let (cost, at) = self.exec.priced[i];
                    settle_open_loop_token(
                        &cost,
                        &row.planned,
                        active[row.idx].request.max_new_tokens,
                        row.stream,
                        at,
                        &mut acc,
                        &mut metas,
                        static_bytes,
                        mlp_bytes,
                    );
                    if let Some(t) = self.telemetry.as_deref_mut() {
                        t.on_token(
                            row.stream,
                            active[row.idx].request.tier,
                            &cost,
                            row.planned.was_prefill,
                            at,
                        );
                    }
                    let logits = self
                        .row_logits_ready(i)
                        .then(|| &self.batch.logits[i * vocab..(i + 1) * vocab]);
                    active[row.idx].finish_row(logits);
                    factory.observe_cross_traffic_batch_row(
                        active[row.idx].request.strategy.shared_cache_key(),
                        &self.batch.accesses,
                        i,
                        self.model.config.d_model,
                        self.model.config.d_ff,
                    );
                    step += 1;
                }
                for i in 0..rows_n {
                    let row_idx = self.plan.rows[i].idx;
                    try_register_prefix(&mut self.paged, &mut active[row_idx]);
                }
                let last_idx = self.plan.rows[rows_n - 1].idx;
                if active[last_idx].remaining_tokens() == 0 {
                    let session = active.swap_remove(last_idx);
                    let finish = if session.token_capped() {
                        FinishReason::Cancelled
                    } else {
                        FinishReason::Completed
                    };
                    retire_open_session(
                        session,
                        finish,
                        now,
                        &mut self.paged,
                        &mut self.pool,
                        &mut self.telemetry,
                        &mut metas,
                        &mut finished,
                        &mut fc,
                    );
                }
            }
        }

        debug_assert_eq!(
            admission.stats().admitted,
            finished.len() + fc.withdrawn + fc.retries,
            "every admitted request drains, is withdrawn, or is re-queued for retry"
        );
        self.publish_paged_telemetry();
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.on_run_end(
                now,
                step as u64,
                active.len(),
                parked.len(),
                admission.queue().len(),
                &self.pool,
                self.batch.rows_computed,
                self.batch.fused_passes,
                self.batch.pack_nanos + self.scratch.pack_nanos,
                self.batch.pack_builds + self.scratch.pack_builds,
            );
        }
        Ok(self.build_open_loop_report(finished, metas, admission, acc, fc, now))
    }

    #[allow(clippy::too_many_arguments)]
    fn build_open_loop_report(
        &self,
        mut finished: Vec<Session>,
        metas: Vec<OpenMeta>,
        admission: AdmissionController,
        acc: OpenAccum,
        fc: FaultCounters,
        makespan_s: f64,
    ) -> ServeReport {
        finished.sort_by_key(|s| s.stream);

        let mut request_stats = Vec::with_capacity(finished.len());
        let mut latencies = Vec::with_capacity(finished.len());
        let mut ttfts = Vec::with_capacity(finished.len());
        let mut queue_delays = Vec::with_capacity(finished.len());
        let mut services = Vec::with_capacity(finished.len());
        let mut ttft_sum = 0.0f64;
        let mut total_generated = 0usize;
        let mut total_prefill = 0usize;
        for s in &mut finished {
            let meta = &metas[s.stream];
            let generated_ids = std::mem::take(&mut s.generated);
            let generated = generated_ids.len();
            total_generated += generated;
            // count *served* prefill tokens: a mapped shared prefix was never
            // forwarded (and must not inflate the token timeline), while a
            // page-loss replay re-serves positions and must count each pass
            total_prefill += s.forwarded - generated;
            let ttft_s = if generated > 0 {
                meta.first_token_s - meta.arrival_s
            } else {
                meta.completion_s - meta.arrival_s
            };
            let tbt_mean_s = if generated > 0 {
                (meta.completion_s - meta.first_token_s) / generated as f64
            } else {
                0.0
            };
            let latency = meta.completion_s - meta.arrival_s;
            let accesses = meta.hits + meta.misses;
            ttft_sum += ttft_s;
            latencies.push(latency);
            ttfts.push(ttft_s);
            queue_delays.push(meta.slot_s - meta.arrival_s);
            services.push(meta.service_s);
            request_stats.push(RequestStats {
                id: s.request.id,
                stream: s.stream,
                strategy: s.request.strategy.label(),
                tier: s.request.tier,
                prompt_tokens: s.request.prompt.len(),
                generated_tokens: generated,
                generated: generated_ids,
                admitted_step: s.admitted_step,
                arrival_s: meta.arrival_s,
                queue_delay_s: meta.slot_s - meta.arrival_s,
                first_token_s: if generated > 0 {
                    meta.first_token_s
                } else {
                    0.0
                },
                ttft_s,
                tbt_mean_s,
                preemptions: meta.preemptions,
                // a session that produced no tokens has nothing to meet a
                // latency target *with*: its ttft_s is a time-to-nothing, so
                // counting the (vacuously fast) default SLO as met would let
                // zero-output sessions launder attainment upward
                slo_met: generated > 0 && s.request.slo.met(ttft_s, tbt_mean_s),
                completion_s: meta.completion_s,
                service_s: meta.service_s,
                throughput_tps: if latency > 0.0 {
                    generated as f64 / latency
                } else {
                    0.0
                },
                hit_rate: if accesses == 0 {
                    1.0
                } else {
                    meta.hits as f64 / accesses as f64
                },
                flash_bytes: meta.flash_bytes,
                dram_bytes: meta.dram_bytes,
                finish: s.finish,
                degraded: s.degraded,
                attempts: s.attempts,
            });
        }

        // Per-tier breakdown; a shed request counts as a missed SLO, so
        // shedding cannot launder attainment.
        let stats = admission.stats();
        let tiers: Vec<TierStats> = TIERS
            .iter()
            .enumerate()
            .map(|(i, &tier)| {
                let in_tier: Vec<&RequestStats> =
                    request_stats.iter().filter(|r| r.tier == tier).collect();
                let met = in_tier.iter().filter(|r| r.slo_met).count();
                let tier_ttfts: Vec<f64> = in_tier.iter().map(|r| r.ttft_s).collect();
                let tier_delays: Vec<f64> = in_tier.iter().map(|r| r.queue_delay_s).collect();
                TierStats {
                    tier,
                    arrived: stats.arrived_per_tier[i],
                    admitted: stats.arrived_per_tier[i] - stats.shed_per_tier[i],
                    shed: stats.shed_per_tier[i],
                    completed: in_tier
                        .iter()
                        .filter(|r| r.finish == FinishReason::Completed)
                        .count(),
                    cancelled: fc.cancelled_per_tier[i],
                    expired: fc.expired_per_tier[i],
                    failed: fc.failed_per_tier[i],
                    degraded: in_tier.iter().filter(|r| r.degraded).count(),
                    preemptions: in_tier.iter().map(|r| r.preemptions).sum(),
                    ttft: Percentiles::of(&tier_ttfts),
                    queue_delay: Percentiles::of(&tier_delays),
                    slo_attainment: if stats.arrived_per_tier[i] == 0 {
                        1.0
                    } else {
                        met as f64 / stats.arrived_per_tier[i] as f64
                    },
                }
            })
            .collect();

        // Per-strategy breakdown, in order of first appearance.
        let mut strategies: Vec<StrategyClassStats> = Vec::new();
        for r in &request_stats {
            if !strategies.iter().any(|c| c.strategy == r.strategy) {
                let in_class: Vec<&RequestStats> = request_stats
                    .iter()
                    .filter(|o| o.strategy == r.strategy)
                    .collect();
                let class_ttfts: Vec<f64> = in_class.iter().map(|o| o.ttft_s).collect();
                let (class_hits, class_accesses) = in_class.iter().fold((0u64, 0u64), |a, o| {
                    let m = &metas[o.stream];
                    (a.0 + m.hits, a.1 + m.hits + m.misses)
                });
                strategies.push(StrategyClassStats {
                    strategy: r.strategy.clone(),
                    completed: in_class.len(),
                    generated_tokens: in_class.iter().map(|o| o.generated_tokens).sum(),
                    ttft: Percentiles::of(&class_ttfts),
                    hit_rate: if class_accesses == 0 {
                        1.0
                    } else {
                        class_hits as f64 / class_accesses as f64
                    },
                    slo_attainment: if in_class.is_empty() {
                        1.0
                    } else {
                        in_class.iter().filter(|o| o.slo_met).count() as f64 / in_class.len() as f64
                    },
                });
            }
        }

        let met_total = request_stats.iter().filter(|r| r.slo_met).count();
        let open_loop = OpenLoopStats {
            arrived: stats.arrived,
            admitted: stats.admitted,
            shed: stats.shed(),
            shed_rate_limited: stats.shed_rate_limited,
            shed_tier_quota: stats.shed_tier_quota,
            shed_queue_full: stats.shed_queue_full,
            shed_memory: stats.shed_memory,
            completed: request_stats
                .iter()
                .filter(|r| r.finish == FinishReason::Completed)
                .count(),
            cancelled: fc.cancelled,
            deadline_expired: fc.deadline_expired,
            failed: fc.failed,
            retries: fc.retries,
            degraded_sessions: request_stats.iter().filter(|r| r.degraded).count(),
            kv_pages_lost: fc.kv_pages_lost,
            kv_refill_tokens: fc.kv_refill_tokens,
            preemptions: acc.preemptions,
            resumes: acc.resumes,
            kv_swap_s: acc.kv_swap_s,
            kv_swap_bytes: acc.kv_swap_bytes,
            kv_spill_bytes: acc.kv_spill_bytes,
            kv_reload_bytes: acc.kv_reload_bytes,
            ttft: Percentiles::of(&ttfts),
            tbt: Percentiles::of(&acc.tbt_gaps),
            queue_delay: Percentiles::of(&queue_delays),
            slo_attainment: if stats.arrived == 0 {
                1.0
            } else {
                met_total as f64 / stats.arrived as f64
            },
            tiers,
            strategies,
        };

        let served_steps = total_prefill + total_generated;
        let accesses = acc.hits + acc.misses;
        let n = finished.len().max(1);
        ServeReport {
            model: self.model.config.name.clone(),
            scheduler: self.config.scheduler,
            eviction: self.config.eviction,
            max_concurrent: self.config.max_concurrent,
            requests: request_stats,
            total_prefill_tokens: total_prefill,
            total_generated_tokens: total_generated,
            makespan_s,
            aggregate_tps: if makespan_s > 0.0 {
                total_generated as f64 / makespan_s
            } else {
                0.0
            },
            latency_p50_s: percentile(&latencies, 0.50),
            latency_p95_s: percentile(&latencies, 0.95),
            latency_p99_s: percentile(&latencies, 0.99),
            mean_first_token_s: ttft_sum / n as f64,
            cache_hit_rate: if accesses == 0 {
                1.0
            } else {
                acc.hits as f64 / accesses as f64
            },
            cache_fraction: acc.cache_fraction,
            fairness: hwsim::jain_index(&services),
            mean_density: if served_steps == 0 {
                1.0
            } else {
                acc.density_sum / served_steps as f64
            },
            flash_bytes: acc.flash_bytes,
            dram_bytes: acc.dram_bytes,
            open_loop: Some(open_loop),
            paged_kv: self.paged_stats(),
        }
    }

    fn build_report(
        &self,
        layout: &hwsim::ModelLayout,
        mut finished: Vec<Session>,
        order: Vec<usize>,
        streams: Vec<AccessTrace>,
    ) -> Result<ServeReport> {
        finished.sort_by_key(|s| s.stream);
        let sim = simulate_concurrent(
            layout,
            &self.config.device,
            self.config.eviction,
            &streams,
            &order,
        )?;

        // Wall-clock completion of each schedule position.
        let mut clock = 0.0f64;
        let completion_at: Vec<f64> = sim
            .schedule
            .iter()
            .map(|(_, latency)| {
                clock += latency;
                clock
            })
            .collect();

        let mut request_stats = Vec::with_capacity(finished.len());
        let mut completions = Vec::with_capacity(finished.len());
        let mut first_token_sum = 0.0f64;
        let mut total_generated = 0usize;
        let mut total_prefill = 0usize;
        for s in &mut finished {
            let stream_stats = &sim.streams[s.stream];
            let first_token_s = s
                .first_token_position()
                .map(|p| completion_at[p])
                .unwrap_or(0.0);
            let generated_ids = std::mem::take(&mut s.generated);
            let generated = generated_ids.len();
            total_generated += generated;
            // served prefill only: mapped shared-prefix tokens were skipped
            total_prefill += s.request.prompt.len() - s.prefix_tokens_skipped();
            first_token_sum += first_token_s;
            completions.push(stream_stats.completion_s);
            // closed batches have every request present at t = 0, so TTFT
            // is the first token's completion and queueing is free
            let ttft_s = first_token_s;
            let tbt_mean_s = if generated > 0 {
                (stream_stats.completion_s - first_token_s) / generated as f64
            } else {
                0.0
            };
            request_stats.push(RequestStats {
                id: s.request.id,
                stream: s.stream,
                strategy: s.request.strategy.label(),
                tier: s.request.tier,
                prompt_tokens: s.request.prompt.len(),
                generated_tokens: generated,
                generated: generated_ids,
                admitted_step: s.admitted_step,
                arrival_s: 0.0,
                queue_delay_s: 0.0,
                first_token_s,
                ttft_s,
                tbt_mean_s,
                preemptions: 0,
                slo_met: s.request.slo.met(ttft_s, tbt_mean_s),
                completion_s: stream_stats.completion_s,
                service_s: stream_stats.service_s,
                throughput_tps: if stream_stats.completion_s > 0.0 {
                    generated as f64 / stream_stats.completion_s
                } else {
                    0.0
                },
                hit_rate: stream_stats.hit_rate,
                flash_bytes: stream_stats.flash_bytes,
                dram_bytes: stream_stats.dram_bytes,
                finish: if s.token_capped() {
                    FinishReason::Cancelled
                } else {
                    FinishReason::Completed
                },
                degraded: s.degraded,
                attempts: s.attempts,
            });
        }

        let makespan = sim.makespan_s();
        let n = finished.len().max(1);
        Ok(ServeReport {
            model: self.model.config.name.clone(),
            scheduler: self.config.scheduler,
            eviction: self.config.eviction,
            max_concurrent: self.config.max_concurrent,
            requests: request_stats,
            total_prefill_tokens: total_prefill,
            total_generated_tokens: total_generated,
            makespan_s: makespan,
            aggregate_tps: if makespan > 0.0 {
                total_generated as f64 / makespan
            } else {
                0.0
            },
            latency_p50_s: percentile(&completions, 0.50),
            latency_p95_s: percentile(&completions, 0.95),
            latency_p99_s: percentile(&completions, 0.99),
            mean_first_token_s: first_token_sum / n as f64,
            cache_hit_rate: sim.aggregate.hit_rate,
            cache_fraction: sim.aggregate.cache_fraction,
            fairness: sim.jain_fairness(),
            mean_density: sim.aggregate.mean_density,
            flash_bytes: sim.aggregate.flash_bytes,
            dram_bytes: sim.aggregate.dram_bytes,
            open_loop: None,
            paged_kv: self.paged_stats(),
        })
    }
}

/// Per-session timing and traffic bookkeeping of an open-loop run, indexed
/// by stream.
struct OpenMeta {
    /// Arrival on the virtual clock.
    arrival_s: f64,
    /// First KV-slot grant.
    slot_s: f64,
    /// Availability of the first generated token (0 until known).
    first_token_s: f64,
    /// Completion of the session's most recent step.
    last_completion_s: f64,
    /// Completion of the session's last step.
    completion_s: f64,
    service_s: f64,
    hits: u64,
    misses: u64,
    flash_bytes: f64,
    dram_bytes: f64,
    preemptions: usize,
}

impl OpenMeta {
    fn new(arrival_s: f64, slot_s: f64) -> Self {
        OpenMeta {
            arrival_s,
            slot_s,
            first_token_s: 0.0,
            last_completion_s: slot_s,
            completion_s: slot_s,
            service_s: 0.0,
            hits: 0,
            misses: 0,
            flash_bytes: 0.0,
            dram_bytes: 0.0,
            preemptions: 0,
        }
    }
}

/// Fleet-wide accumulators of an open-loop run.
#[derive(Default)]
struct OpenAccum {
    hits: u64,
    misses: u64,
    flash_bytes: f64,
    dram_bytes: f64,
    density_sum: f64,
    tbt_gaps: Vec<f64>,
    preemptions: usize,
    resumes: usize,
    kv_swap_s: f64,
    kv_swap_bytes: f64,
    kv_spill_bytes: f64,
    kv_reload_bytes: f64,
    cache_fraction: f64,
}

/// Settles one served token of an open-loop run at its completion time `at`
/// on the virtual clock (the dispatch site computed `at` from the token's
/// priced service time and fired the unit's completion event) and updates
/// the fleet and per-session accounting. One function serves both execution
/// modes, so their arithmetic cannot drift.
#[allow(clippy::too_many_arguments)]
fn settle_open_loop_token(
    cost: &hwsim::TokenCost,
    planned: &PlannedToken,
    max_new_tokens: usize,
    stream: usize,
    at: f64,
    acc: &mut OpenAccum,
    metas: &mut [OpenMeta],
    static_bytes: f64,
    mlp_bytes: f64,
) {
    acc.hits += cost.hits as u64;
    acc.misses += cost.misses as u64;
    acc.flash_bytes += cost.flash_bytes;
    acc.dram_bytes += cost.dram_bytes;
    if mlp_bytes > 0.0 {
        // bytes-weighted MLP density of this token (uniform per-layer
        // layouts make this identical to the batch replay's
        // per-(token, block) mean)
        acc.density_sum += (cost.dram_bytes - static_bytes + cost.flash_bytes) / mlp_bytes;
    }
    let meta = &mut metas[stream];
    meta.service_s += cost.latency_s;
    meta.hits += cost.hits as u64;
    meta.misses += cost.misses as u64;
    meta.flash_bytes += cost.flash_bytes;
    meta.dram_bytes += cost.dram_bytes;
    if !planned.was_prefill {
        acc.tbt_gaps.push(at - meta.last_completion_s);
    }
    if planned.prefill_ended && max_new_tokens > 0 {
        // completing the last prefill step makes the first generated token
        // available (same convention as the closed-batch report)
        meta.first_token_s = at;
    }
    meta.last_completion_s = at;
}

/// Completion-time latency stats of a drained open-loop session —
/// `(generated, ttft_s, tbt_mean_s, queue_delay_s, slo_met)` — matching the
/// report's definitions exactly, so telemetry histograms observe the same
/// numbers the report later recomputes.
fn completion_stats(session: &Session, meta: &OpenMeta) -> (usize, f64, f64, f64, bool) {
    let generated = session.generated.len();
    let ttft_s = if generated > 0 {
        meta.first_token_s - meta.arrival_s
    } else {
        meta.completion_s - meta.arrival_s
    };
    let tbt_mean_s = if generated > 0 {
        (meta.completion_s - meta.first_token_s) / generated as f64
    } else {
        0.0
    };
    let queue_delay_s = meta.slot_s - meta.arrival_s;
    // zero-output sessions never count as SLO-met (see the report assembly)
    let slo_met = generated > 0 && session.request.slo.met(ttft_s, tbt_mean_s);
    (generated, ttft_s, tbt_mean_s, queue_delay_s, slo_met)
}

/// Moves a session's decode state out, leaving an empty placeholder (the
/// session keeps only its bookkeeping until resumed or retired).
fn take_state(session: &mut Session) -> lm::DecodeState {
    std::mem::replace(
        &mut session.state,
        lm::DecodeState {
            kv: Vec::new(),
            pos: 0,
        },
    )
}

/// Run-scoped fault accounting. Every arrival ends exactly one way, so at
/// drain `arrived = shed + completed + cancelled + deadline_expired +
/// failed`, while `admitted = finished + withdrawn + retries` holds at the
/// attempt level (each abort-and-retry consumed one prior admission, each
/// queued-request withdrawal one pending admission).
#[derive(Default)]
struct FaultCounters {
    /// Requests retired as [`FinishReason::Cancelled`] (injected client
    /// cancellations and patience-capped completions).
    cancelled: usize,
    /// Requests retired as [`FinishReason::DeadlineExpired`].
    deadline_expired: usize,
    /// Requests retired as [`FinishReason::Failed`].
    failed: usize,
    /// Worker aborts re-offered through admission with backoff.
    retries: usize,
    /// Cancellations/expiries that struck a request still in the waiting
    /// queue (withdrawn before ever holding a KV slot — no session row).
    withdrawn: usize,
    /// Paged-KV pages invalidated by page-loss faults, across layers.
    kv_pages_lost: usize,
    /// Tokens queued for re-prefill to rebuild lost pages.
    kv_refill_tokens: usize,
    cancelled_per_tier: [usize; 3],
    expired_per_tier: [usize; 3],
    failed_per_tier: [usize; 3],
}

/// The borrow bundle a fault handler needs: most of the open-loop driver's
/// mutable state. Built by the driver's `fault_ctx!` macro at each of the
/// three application sites (loop head, due-event drain, idle wait).
struct FaultCtx<'a> {
    active: &'a mut Vec<Session>,
    parked: &'a mut Vec<Session>,
    finished: &'a mut Vec<Session>,
    metas: &'a mut Vec<OpenMeta>,
    admission: &'a mut AdmissionController,
    events: &'a mut EventQueue,
    pool: &'a mut DecodeStatePool,
    paged: &'a mut Option<PagedRuntime>,
    telemetry: &'a mut Option<Box<EngineTelemetry>>,
    pending_retries: &'a mut Vec<Option<(GenRequest, u32)>>,
    retry_attempts: &'a mut std::collections::HashMap<u64, u32>,
    fc: &'a mut FaultCounters,
    slow_factor: &'a mut f64,
    retry_policy: Option<RetryPolicy>,
    slow_lane_factor: f64,
    n_layers: usize,
}

/// Retires an open-loop session (normal completion or fault) with uniform
/// cleanup: paged commitment released (a parked victim already spilled its
/// pages and holds none, so nothing double-releases), completion stamped,
/// telemetry notified, decode state returned to the pool, counters updated.
#[allow(clippy::too_many_arguments)]
fn retire_open_session(
    mut session: Session,
    finish: FinishReason,
    now: f64,
    paged: &mut Option<PagedRuntime>,
    pool: &mut DecodeStatePool,
    telemetry: &mut Option<Box<EngineTelemetry>>,
    metas: &mut [OpenMeta],
    finished: &mut Vec<Session>,
    fc: &mut FaultCounters,
) {
    session.finish = finish;
    if let Some(paged) = paged.as_mut() {
        paged.committed -= session.kv_pages_committed;
        session.kv_pages_committed = 0;
    }
    metas[session.stream].completion_s = now;
    let tier = session.request.tier.index();
    match finish {
        FinishReason::Completed => {
            if let Some(t) = telemetry.as_deref_mut() {
                let (generated, ttft_s, tbt_s, delay_s, slo) =
                    completion_stats(&session, &metas[session.stream]);
                t.on_complete(session.stream, generated, ttft_s, tbt_s, delay_s, slo, now);
            }
        }
        FinishReason::Cancelled => {
            fc.cancelled += 1;
            fc.cancelled_per_tier[tier] += 1;
            if let Some(t) = telemetry.as_deref_mut() {
                t.on_fault_finish(finish, now);
            }
        }
        FinishReason::DeadlineExpired => {
            fc.deadline_expired += 1;
            fc.expired_per_tier[tier] += 1;
            if let Some(t) = telemetry.as_deref_mut() {
                t.on_fault_finish(finish, now);
            }
        }
        FinishReason::Failed => {
            fc.failed += 1;
            fc.failed_per_tier[tier] += 1;
            if let Some(t) = telemetry.as_deref_mut() {
                t.on_fault_finish(finish, now);
            }
        }
    }
    let state = take_state(&mut session);
    pool.release(state);
    finished.push(session);
}

/// Walks `spec` down its fallback chain ([`StrategySpec::degraded`]) by at
/// most `steps`, stopping at the last step admissible under this run's
/// fixed layout: every declared axis requirement must match the resolved
/// `axes`, and a step that needs calibration is only admissible when the
/// engine holds a trace. Returns `None` when no admissible step exists (the
/// candidate runs as requested).
fn degrade_spec(
    spec: &StrategySpec,
    steps: usize,
    axes: [lm::SliceAxis; 3],
    has_calibration: bool,
) -> Option<StrategySpec> {
    let mut current = *spec;
    let mut adopted = None;
    for _ in 0..steps {
        let Some(next) = current.degraded() else {
            break;
        };
        let axes_ok = next
            .axis_requirements()
            .iter()
            .zip(axes.iter())
            .all(|(req, axis)| req.is_none() || *req == Some(*axis));
        if !axes_ok || (next.needs_calibration() && !has_calibration) {
            break;
        }
        adopted = Some(next);
        current = next;
    }
    adopted
}

/// Applies one fault event at virtual time `at`. Fault events are routed
/// here from every site that pops them; completion events and arrivals
/// never reach this function.
fn apply_fault(ctx: FaultCtx<'_>, kind: EngineEvent, at: f64) {
    match kind {
        EngineEvent::CancelAt { request } => {
            cancel_or_expire(ctx, request, FinishReason::Cancelled, at);
        }
        EngineEvent::DeadlineAt { request } => {
            cancel_or_expire(ctx, request, FinishReason::DeadlineExpired, at);
        }
        EngineEvent::AbortAt { request } => abort_session(ctx, request, at),
        EngineEvent::PageLossAt { draw } => page_loss(ctx, draw, at),
        EngineEvent::SlowLane { on } => {
            *ctx.slow_factor = if on { ctx.slow_lane_factor } else { 1.0 };
        }
        EngineEvent::RetryAt { slot } => retry_matures(ctx, slot, at),
        EngineEvent::Arrival(_)
        | EngineEvent::SpillDone { .. }
        | EngineEvent::ReloadDone { .. }
        | EngineEvent::UnitDone { .. } => {
            debug_assert!(false, "only fault events route to apply_fault");
        }
    }
}

/// A client cancellation or deadline expiry strikes request `request`,
/// wherever it currently lives: still queued (withdrawn, counted, no
/// session row), active, parked (its spilled state is reclaimed from the
/// pool's parked set), or backing off toward a retry. A request that
/// already finished makes the event a stale no-op.
fn cancel_or_expire(ctx: FaultCtx<'_>, request: u64, finish: FinishReason, at: f64) {
    if let Some(req) = ctx.admission.withdraw(request) {
        ctx.fc.withdrawn += 1;
        let tier = req.tier.index();
        match finish {
            FinishReason::Cancelled => {
                ctx.fc.cancelled += 1;
                ctx.fc.cancelled_per_tier[tier] += 1;
            }
            _ => {
                ctx.fc.deadline_expired += 1;
                ctx.fc.expired_per_tier[tier] += 1;
            }
        }
        if let Some(t) = ctx.telemetry.as_deref_mut() {
            t.on_fault_finish(finish, at);
        }
        return;
    }
    if let Some(idx) = ctx.active.iter().position(|s| s.request.id == request) {
        let session = ctx.active.swap_remove(idx);
        retire_open_session(
            session,
            finish,
            at,
            ctx.paged,
            ctx.pool,
            ctx.telemetry,
            ctx.metas,
            ctx.finished,
            ctx.fc,
        );
        return;
    }
    if let Some(idx) = ctx.parked.iter().position(|s| s.request.id == request) {
        let mut session = ctx.parked.swap_remove(idx);
        // reclaim the spilled state so the pool's parked set cannot leak
        session.state = ctx
            .pool
            .resume(session.stream as u64)
            .expect("parked session has a parked state");
        retire_open_session(
            session,
            finish,
            at,
            ctx.paged,
            ctx.pool,
            ctx.telemetry,
            ctx.metas,
            ctx.finished,
            ctx.fc,
        );
        return;
    }
    if let Some(slot) = ctx
        .pending_retries
        .iter()
        .position(|p| p.as_ref().is_some_and(|(r, _)| r.id == request))
    {
        // the strike lands mid-backoff: the retry never re-admits (its
        // RetryAt event will find an empty slot and no-op)
        let (req, _) = ctx.pending_retries[slot].take().expect("slot just matched");
        ctx.retry_attempts.remove(&request);
        let tier = req.tier.index();
        match finish {
            FinishReason::Cancelled => {
                ctx.fc.cancelled += 1;
                ctx.fc.cancelled_per_tier[tier] += 1;
            }
            _ => {
                ctx.fc.deadline_expired += 1;
                ctx.fc.expired_per_tier[tier] += 1;
            }
        }
        if let Some(t) = ctx.telemetry.as_deref_mut() {
            t.on_fault_finish(finish, at);
        }
    }
}

/// A transient worker failure aborts request `request`'s *active* session
/// (queued or parked requests have no worker to abort — stale no-op). When
/// a [`RetryPolicy`] has attempts left the session is destroyed and its
/// request re-enters admission after an exponential backoff; otherwise it
/// retires as [`FinishReason::Failed`].
fn abort_session(ctx: FaultCtx<'_>, request: u64, at: f64) {
    let Some(idx) = ctx.active.iter().position(|s| s.request.id == request) else {
        return;
    };
    let retryable = ctx
        .retry_policy
        .is_some_and(|p| ctx.active[idx].attempts < p.max_attempts);
    if !retryable {
        let session = ctx.active.swap_remove(idx);
        retire_open_session(
            session,
            FinishReason::Failed,
            at,
            ctx.paged,
            ctx.pool,
            ctx.telemetry,
            ctx.metas,
            ctx.finished,
            ctx.fc,
        );
        return;
    }
    let mut session = ctx.active.swap_remove(idx);
    if let Some(paged) = ctx.paged.as_mut() {
        paged.committed -= session.kv_pages_committed;
        session.kv_pages_committed = 0;
    }
    let state = take_state(&mut session);
    ctx.pool.release(state);
    let attempts = session.attempts;
    let policy = ctx.retry_policy.expect("retryable implies a policy");
    ctx.fc.retries += 1;
    // the re-admitted session picks its attempt count up here; the
    // destroyed attempt's meta stays orphaned (no report row is built
    // for it — the retry gets a fresh stream and meta)
    ctx.retry_attempts.insert(request, attempts + 1);
    let slot = match ctx.pending_retries.iter().position(Option::is_none) {
        Some(free) => free,
        None => {
            ctx.pending_retries.push(None);
            ctx.pending_retries.len() - 1
        }
    };
    ctx.pending_retries[slot] = Some((session.request, attempts + 1));
    ctx.events.push_at(
        at + policy.backoff_s(attempts),
        EngineEvent::RetryAt { slot },
    );
    if let Some(t) = ctx.telemetry.as_deref_mut() {
        t.on_retry(at);
    }
}

/// A paged-KV page-loss fault strikes. The victim is picked
/// deterministically (`draw % eligible`) among active paged sessions that
/// hold context beyond their adopted shared prefix; it rewinds to its last
/// whole page boundary — never below the adopted prefix, whose pages are
/// mapped, not owned — and re-prefills the lost suffix through the
/// ordinary serve path (bitwise-identical KV, so outputs are unchanged;
/// the fault costs time, not correctness). Without a shared pool or an
/// eligible session the event is a no-op.
fn page_loss(ctx: FaultCtx<'_>, draw: u64, at: f64) {
    let Some(paged) = ctx.paged.as_mut() else {
        return;
    };
    let ps = paged.page_size;
    let eligible = |s: &Session| s.state.pos > s.prefix_tokens_skipped();
    let n_eligible = ctx.active.iter().filter(|s| eligible(s)).count();
    if n_eligible == 0 {
        return;
    }
    let pick = (draw % n_eligible as u64) as usize;
    let idx = ctx
        .active
        .iter()
        .enumerate()
        .filter(|(_, s)| eligible(s))
        .nth(pick)
        .map(|(i, _)| i)
        .expect("pick < n_eligible");
    let session = &mut ctx.active[idx];
    let old_pos = session.state.pos;
    let new_pos = (((old_pos - 1) / ps) * ps).max(session.prefix_tokens_skipped());
    let lost_tokens = session.rewind_for_refill(new_pos);
    let pages = ctx.n_layers * (pages_spanning(old_pos, ps) - pages_spanning(new_pos, ps));
    ctx.fc.kv_pages_lost += pages;
    ctx.fc.kv_refill_tokens += lost_tokens;
    if let Some(t) = ctx.telemetry.as_deref_mut() {
        t.on_page_loss(session.stream, pages, lost_tokens, at);
    }
}

/// A backed-off retry matures: re-offer the request parked in `slot`
/// through admission. The slot is empty when a cancellation or expiry
/// struck during the backoff — then the event is a stale no-op. Admission
/// may still reject the re-offer (rate limit, quota, bounded queue); a
/// rejected retry retires as [`FinishReason::Failed`] with no session row.
fn retry_matures(ctx: FaultCtx<'_>, slot: usize, at: f64) {
    let Some((request, _)) = ctx.pending_retries.get_mut(slot).and_then(Option::take) else {
        return;
    };
    let id = request.id;
    let tier = request.tier.index();
    if ctx.admission.reoffer(request, at).is_some() {
        ctx.retry_attempts.remove(&id);
        ctx.fc.failed += 1;
        ctx.fc.failed_per_tier[tier] += 1;
        if let Some(t) = ctx.telemetry.as_deref_mut() {
            t.on_fault_finish(FinishReason::Failed, at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lm::{build_synthetic, ModelConfig};

    fn tiny_engine(slots: usize, cache_fraction: f64) -> ServeEngine {
        let config = ModelConfig::tiny();
        let model = build_synthetic(&config, 7).unwrap();
        let layout = layout_for_serving(
            &config,
            [lm::SliceAxis::Input; 3],
            4.0,
            slots,
            config.max_seq_len,
        );
        // DRAM = everything static + `cache_fraction` of the MLP weights
        let dram = layout.static_bytes + (layout.mlp_bytes() as f64 * cache_fraction) as u64;
        let device = DeviceConfig::apple_a18(4.0).with_dram_bytes(dram);
        ServeEngine::new(model, ServeConfig::new(device).with_max_concurrent(slots)).unwrap()
    }

    fn dense_requests(n: usize, prompt_len: usize, new_tokens: usize) -> Vec<GenRequest> {
        (0..n)
            .map(|i| {
                GenRequest::new(
                    i as u64,
                    vec![(i % 7) as u32 + 1; prompt_len],
                    new_tokens,
                    StrategySpec::Dense,
                )
            })
            .collect()
    }

    #[test]
    fn config_validation() {
        let device = DeviceConfig::apple_a18(4.0);
        assert!(ServeConfig::new(device.clone()).validate().is_ok());
        assert!(ServeConfig::new(device.clone())
            .with_max_concurrent(0)
            .validate()
            .is_err());
        let mut bad = ServeConfig::new(device);
        bad.bits_per_weight = 0.0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn robustness_configs_are_validated() {
        use crate::fault::{DegradePolicy, FaultPlan, RetryPolicy};
        let device = DeviceConfig::apple_a18(4.0);
        // prefix sharing maps pages; without a paged pool it is a typed error
        assert!(matches!(
            ServeConfig::new(device.clone())
                .with_prefix_sharing()
                .validate(),
            Err(ServeError::InvalidConfig {
                field: "paged_kv",
                ..
            })
        ));
        // ...and the same request with a pool validates
        assert!(ServeConfig::new(device.clone())
            .with_paged_kv(16, 64)
            .with_prefix_sharing()
            .validate()
            .is_ok());
        // builder order must not matter: sharing requested first still
        // reaches the paged runtime
        assert!(ServeConfig::new(device.clone())
            .with_prefix_sharing()
            .with_paged_kv(16, 64)
            .validate()
            .is_ok());
        // page-loss faults need a paged pool to lose pages from
        let mut plan = FaultPlan::none();
        plan.page_loss_every_s = 1.0;
        plan.page_loss_horizon_s = 10.0;
        assert!(matches!(
            ServeConfig::new(device.clone())
                .with_fault_plan(plan.clone())
                .validate(),
            Err(ServeError::InvalidConfig {
                field: "fault_plan.page_loss_every_s",
                ..
            })
        ));
        assert!(ServeConfig::new(device.clone())
            .with_paged_kv(16, 64)
            .with_fault_plan(plan)
            .validate()
            .is_ok());
        // rates must be probabilities
        let mut bad = FaultPlan::none();
        bad.cancel_rate = 1.5;
        assert!(ServeConfig::new(device.clone())
            .with_fault_plan(bad)
            .validate()
            .is_err());
        // retry and degrade bounds are typed errors too
        assert!(matches!(
            ServeConfig::new(device.clone())
                .with_retry(RetryPolicy {
                    max_attempts: 0,
                    backoff_base_s: 1.0,
                })
                .validate(),
            Err(ServeError::InvalidConfig {
                field: "retry.max_attempts",
                ..
            })
        ));
        assert!(matches!(
            ServeConfig::new(device)
                .with_degrade(DegradePolicy {
                    queue_depth_threshold: 0,
                    max_steps: 1,
                })
                .validate(),
            Err(ServeError::InvalidConfig {
                field: "degrade.queue_depth_threshold",
                ..
            })
        ));
    }

    #[test]
    fn closed_batches_reject_time_domain_robustness_knobs() {
        let mut engine = tiny_engine(2, 0.6);
        engine.config.fault_plan = Some(crate::fault::FaultPlan::none());
        assert!(matches!(
            engine.run(dense_requests(1, 2, 2)),
            Err(ServeError::InvalidConfig {
                field: "fault_plan",
                ..
            })
        ));
        engine.config.fault_plan = None;
        engine.config.retry = Some(crate::fault::RetryPolicy {
            max_attempts: 2,
            backoff_base_s: 0.5,
        });
        assert!(matches!(
            engine.run(dense_requests(1, 2, 2)),
            Err(ServeError::InvalidConfig { field: "retry", .. })
        ));
        engine.config.retry = None;
        engine.config.degrade = Some(crate::fault::DegradePolicy {
            queue_depth_threshold: 1,
            max_steps: 1,
        });
        assert!(matches!(
            engine.run(dense_requests(1, 2, 2)),
            Err(ServeError::InvalidConfig {
                field: "degrade",
                ..
            })
        ));
        engine.config.degrade = None;
        assert!(engine.run(dense_requests(1, 2, 2)).is_ok());
    }

    #[test]
    fn queue_pressure_degrades_along_the_fallback_chain() {
        let mut engine = tiny_engine(1, 0.6);
        engine.config.degrade = Some(crate::fault::DegradePolicy {
            queue_depth_threshold: 1,
            max_steps: 2,
        });
        // four simultaneous arrivals on one slot: the first admissions see
        // deep queues and degrade, the last sees an empty queue and runs as
        // requested
        let arrivals: Vec<GenRequest> = (0..4)
            .map(|i| GenRequest::new(i, vec![1, 2, 3], 3, StrategySpec::Dense))
            .collect();
        let report = engine.run_open_loop_requests(arrivals).unwrap();
        let ol = report.open_loop.as_ref().unwrap();
        assert!(ol.degraded_sessions > 0, "queue pressure must degrade");
        assert!(
            ol.degraded_sessions < ol.completed,
            "an uncontended admission must run as requested"
        );
        let degraded: Vec<_> = report.requests.iter().filter(|r| r.degraded).collect();
        assert_eq!(degraded.len(), ol.degraded_sessions);
        for r in &degraded {
            assert!(
                r.strategy.starts_with("dip@"),
                "dense degrades into DIP, got {}",
                r.strategy
            );
        }
        let tier_total: usize = ol.tiers.iter().map(|t| t.degraded).sum();
        assert_eq!(tier_total, ol.degraded_sessions);
        // every request still drains to completion
        assert_eq!(ol.arrived, ol.shed + ol.completed);
        for r in &report.requests {
            assert_eq!(r.finish, FinishReason::Completed);
            assert_eq!(r.generated_tokens, 3);
        }
    }

    #[test]
    fn closed_batch_runs_to_completion() {
        let mut engine = tiny_engine(2, 0.6);
        let report = engine.run(dense_requests(5, 2, 4)).unwrap();
        assert_eq!(report.requests.len(), 5);
        assert_eq!(report.total_generated_tokens, 20);
        assert_eq!(report.total_prefill_tokens, 10);
        assert!(report.makespan_s > 0.0);
        assert!(report.aggregate_tps > 0.0);
        assert!(report.latency_p50_s <= report.latency_p95_s);
        assert!(report.latency_p95_s <= report.latency_p99_s);
        assert!(report.latency_p99_s <= report.makespan_s + 1e-12);
        assert!(report.fairness > 0.0 && report.fairness <= 1.0);
        // every request got all its tokens and a sensible timeline
        for r in &report.requests {
            assert_eq!(r.generated_tokens, 4);
            assert!(r.first_token_s > 0.0);
            assert!(r.first_token_s <= r.completion_s);
            assert!(r.service_s <= r.completion_s + 1e-12);
        }
        assert!(!report.summary().is_empty());
    }

    #[test]
    fn pack_telemetry_counts_the_scratch_that_packs() {
        // Sequential decodes through `DecodeScratch`, Batched through
        // `BatchScratch`: each packs the weights exactly once, and the
        // exported gauge must see it in either mode
        for mode in [ExecutionMode::Sequential, ExecutionMode::Batched] {
            let mut engine = tiny_engine(2, 0.6);
            engine.config.execution = mode;
            engine.attach_telemetry(EngineTelemetry::new(crate::TelemetryConfig::default(), &[]));
            engine.run(dense_requests(3, 2, 3)).unwrap();
            let text = ::telemetry::render_prometheus(engine.telemetry().unwrap().registry());
            assert!(
                text.lines().any(|l| l == "serve_pack_builds 1"),
                "{mode:?}: {text}"
            );
        }
    }

    #[test]
    fn kv_slots_are_recycled_through_the_pool() {
        let mut engine = tiny_engine(2, 0.6);
        engine.run(dense_requests(6, 2, 3)).unwrap();
        // 6 sessions through 2 slots: at most 2 fresh states, at least 4 reuses
        assert!(engine.state_pool().build_count() <= 2);
        assert!(engine.state_pool().reuse_count() >= 4);
    }

    #[test]
    fn srf_finishes_short_requests_first() {
        let make = |scheduler| {
            let mut engine = tiny_engine(2, 0.6);
            engine.config.scheduler = scheduler;
            let mut requests = dense_requests(1, 2, 30);
            requests.push(GenRequest::new(1, vec![3, 4], 2, StrategySpec::Dense));
            engine.run(requests).unwrap()
        };
        let by_id = |report: &ServeReport, id: u64| {
            report
                .requests
                .iter()
                .find(|r| r.id == id)
                .cloned()
                .expect("request present")
        };
        let srf = make(SchedulerPolicy::ShortestRemainingFirst);
        let short = by_id(&srf, 1);
        let long = by_id(&srf, 0);
        assert!(short.completion_s < long.completion_s);
        // under SRF the short request barely queues behind the long one
        let fifo = make(SchedulerPolicy::Fifo);
        assert!(short.completion_s <= by_id(&fifo, 1).completion_s + 1e-12);
    }

    #[test]
    fn invalid_requests_are_rejected_up_front() {
        let mut engine = tiny_engine(2, 0.6);
        let empty = vec![GenRequest::new(9, vec![], 4, StrategySpec::Dense)];
        assert!(matches!(
            engine.run(empty),
            Err(ServeError::InvalidRequest { id: 9, .. })
        ));
        let oov = vec![GenRequest::new(3, vec![999], 4, StrategySpec::Dense)];
        assert!(engine.run(oov).is_err());
        let too_long = vec![GenRequest::new(4, vec![1], 400, StrategySpec::Dense)];
        assert!(engine.run(too_long).is_err());

        // a request that exactly fills the context window is accepted
        let window = engine.context_window();
        let exact = vec![GenRequest::new(
            5,
            vec![1, 2],
            window - 2,
            StrategySpec::Dense,
        )];
        let report = engine.run(exact).unwrap();
        assert_eq!(report.total_generated_tokens, window - 2);
        let over = vec![GenRequest::new(
            6,
            vec![1, 2],
            window - 1,
            StrategySpec::Dense,
        )];
        assert!(engine.run(over).is_err());
    }

    #[test]
    fn empty_batch_produces_empty_report() {
        let mut engine = tiny_engine(2, 0.6);
        let report = engine.run(Vec::new()).unwrap();
        assert!(report.requests.is_empty());
        assert_eq!(report.total_generated_tokens, 0);
        assert_eq!(report.aggregate_tps, 0.0);
    }

    #[test]
    fn mixed_strategies_share_one_run() {
        let mut engine = tiny_engine(3, 0.55);
        let requests = vec![
            GenRequest::new(0, vec![1, 2], 4, StrategySpec::Dense),
            GenRequest::new(1, vec![2, 3], 4, StrategySpec::Dip { density: 0.5 }),
            GenRequest::new(
                2,
                vec![3, 4],
                4,
                StrategySpec::DipCacheAware {
                    density: 0.5,
                    gamma: 0.2,
                },
            ),
        ];
        let report = engine.run(requests).unwrap();
        assert_eq!(report.requests.len(), 3);
        // the dense request moved more bytes than the pruned ones
        assert!(
            report.requests[0].dram_bytes + report.requests[0].flash_bytes
                > report.requests[1].dram_bytes + report.requests[1].flash_bytes
        );
        assert!(report.mean_density < 1.0);
    }

    #[test]
    fn open_loop_drains_a_steady_workload() {
        use crate::request::Tier;
        use crate::workload::{ArrivalProcess, RequestTemplate, Workload};

        let mut engine = tiny_engine(2, 0.6);
        let workload = Workload::new(
            5,
            0.05,
            ArrivalProcess::Steady { rate_per_s: 300.0 },
            vec![
                RequestTemplate::new((2, 3), (3, 5), StrategySpec::Dense).with_weight(2.0),
                RequestTemplate::new((1, 2), (2, 3), StrategySpec::Dip { density: 0.5 })
                    .with_tier(Tier::Premium),
            ],
        );
        let report = engine.run_open_loop(&workload).unwrap();
        let ol = report.open_loop.as_ref().expect("open-loop stats present");
        assert!(ol.arrived > 0, "workload produced arrivals");
        assert_eq!(ol.arrived, ol.admitted + ol.shed, "admission conserves");
        assert_eq!(ol.admitted, ol.completed, "a drained run completes all");
        assert_eq!(report.requests.len(), ol.completed);
        assert!(report.makespan_s > 0.0);
        assert!(ol.ttft.p50_s <= ol.ttft.p95_s && ol.ttft.p95_s <= ol.ttft.p99_s);
        for r in &report.requests {
            assert!(r.arrival_s >= 0.0);
            assert!(r.queue_delay_s >= -1e-12);
            assert!(r.ttft_s > 0.0);
            assert!(r.completion_s - r.arrival_s >= r.ttft_s - 1e-12);
            assert!(r.tbt_mean_s >= 0.0);
        }
        // per-tier rows cover every tier and add up
        assert_eq!(ol.tiers.len(), 3);
        let arrived: usize = ol.tiers.iter().map(|t| t.arrived).sum();
        assert_eq!(arrived, ol.arrived);
        assert!(!report.summary().is_empty());
    }

    #[test]
    fn open_loop_sheds_under_admission_pressure() {
        use crate::admission::AdmissionConfig;

        let mut engine = tiny_engine(1, 0.6);
        engine.config.admission = AdmissionConfig::default()
            .with_queue_capacity(1)
            .with_rate_limit(50.0, 1.0);
        // a burst of simultaneous arrivals: 1 admitted to the slot path,
        // most rate-limited or queue-shed
        let arrivals: Vec<GenRequest> = (0..6)
            .map(|i| GenRequest::new(i, vec![1, 2], 2, StrategySpec::Dense).at(0.001 * i as f64))
            .collect();
        let report = engine.run_open_loop_requests(arrivals).unwrap();
        let ol = report.open_loop.as_ref().unwrap();
        assert_eq!(ol.arrived, 6);
        assert!(ol.shed > 0, "pressure must shed");
        assert_eq!(
            ol.shed,
            ol.shed_rate_limited + ol.shed_tier_quota + ol.shed_queue_full + ol.shed_memory
        );
        assert!(ol.shed_rate_limited > 0);
        assert_eq!(ol.admitted, ol.completed);
    }

    #[test]
    fn open_loop_rejects_belady_and_bad_arrivals() {
        let mut engine = tiny_engine(2, 0.6);
        engine.config.eviction = hwsim::EvictionPolicy::Belady;
        let requests = vec![GenRequest::new(0, vec![1], 2, StrategySpec::Dense)];
        assert!(matches!(
            engine.run_open_loop_requests(requests.clone()),
            Err(ServeError::InvalidConfig {
                field: "eviction",
                ..
            })
        ));

        let mut engine = tiny_engine(2, 0.6);
        let bad = vec![GenRequest::new(3, vec![1], 2, StrategySpec::Dense).at(f64::NAN)];
        assert!(matches!(
            engine.run_open_loop_requests(bad),
            Err(ServeError::InvalidRequest { id: 3, .. })
        ));
        let neg = vec![GenRequest::new(4, vec![1], 2, StrategySpec::Dense).at(-1.0)];
        assert!(engine.run_open_loop_requests(neg).is_err());
        // and an empty arrival list is a well-defined empty report
        let report = engine.run_open_loop_requests(Vec::new()).unwrap();
        assert_eq!(report.requests.len(), 0);
        assert_eq!(report.open_loop.unwrap().arrived, 0);
    }

    #[test]
    fn open_loop_clock_jumps_idle_gaps() {
        let mut engine = tiny_engine(2, 0.6);
        // one request far in the future: the run must end after it, with the
        // makespan at least its arrival time (the clock jumped, not crawled)
        let requests = vec![GenRequest::new(0, vec![1, 2], 3, StrategySpec::Dense).at(5.0)];
        let report = engine.run_open_loop_requests(requests).unwrap();
        assert_eq!(report.requests.len(), 1);
        assert!(report.makespan_s >= 5.0);
        let r = &report.requests[0];
        assert!((r.arrival_s - 5.0).abs() < 1e-12);
        assert!(r.queue_delay_s < 1.0, "no queueing when the engine is idle");
    }

    #[test]
    fn priority_preemption_parks_and_resumes_low_tier_work() {
        use crate::request::{SloTarget, Tier};

        // calibrate the premium arrival to land mid-generation: the virtual
        // clock is deterministic, so probe the solo makespan first
        let solo = {
            let mut probe = tiny_engine(1, 0.6);
            probe.config.scheduler = SchedulerPolicy::PriorityPreemptive;
            probe
                .run_open_loop_requests(vec![GenRequest::new(
                    0,
                    vec![1, 2],
                    24,
                    StrategySpec::Dense,
                )
                .with_tier(Tier::Batch)])
                .unwrap()
                .makespan_s
        };
        let mut engine = tiny_engine(1, 0.6);
        engine.config.scheduler = SchedulerPolicy::PriorityPreemptive;
        // a long batch job arrives first and fills the only slot; a premium
        // request arrives mid-generation and must preempt it
        let requests = vec![
            GenRequest::new(0, vec![1, 2], 24, StrategySpec::Dense).with_tier(Tier::Batch),
            GenRequest::new(1, vec![3], 3, StrategySpec::Dense)
                .with_tier(Tier::Premium)
                .with_slo(SloTarget::new(f64::INFINITY, f64::INFINITY))
                .at(0.4 * solo),
        ];
        let report = engine.run_open_loop_requests(requests).unwrap();
        let ol = report.open_loop.as_ref().unwrap();
        assert_eq!(ol.completed, 2, "both requests finish");
        assert!(ol.preemptions >= 1, "the batch job was parked");
        assert_eq!(ol.resumes, ol.preemptions, "every park resumed at drain");
        let batch = report.requests.iter().find(|r| r.id == 0).unwrap();
        let premium = report.requests.iter().find(|r| r.id == 1).unwrap();
        assert!(batch.preemptions >= 1);
        assert_eq!(premium.preemptions, 0);
        assert!(
            premium.completion_s < batch.completion_s,
            "premium finishes first despite arriving second"
        );
        assert_eq!(batch.generated_tokens, 24, "preemption loses no tokens");
        // the pool saw the park/resume cycle and holds no leaked state
        assert_eq!(engine.state_pool().parked_count(), 0);
        assert!(engine.state_pool().park_count() >= 1);
    }

    #[test]
    fn cats_requests_calibrate_lazily_and_conflict_with_dip() {
        let mut engine = tiny_engine(2, 0.6);
        let cats = vec![GenRequest::new(
            0,
            vec![1, 2],
            3,
            StrategySpec::Cats { density: 0.5 },
        )];
        let report = engine.run(cats).unwrap();
        assert_eq!(report.requests.len(), 1);
        assert!(report.mean_density < 0.9);

        let conflict = vec![
            GenRequest::new(0, vec![1], 2, StrategySpec::Cats { density: 0.5 }),
            GenRequest::new(1, vec![1], 2, StrategySpec::Dip { density: 0.5 }),
        ];
        assert!(matches!(
            engine.run(conflict),
            Err(ServeError::IncompatibleStrategies { .. })
        ));
    }

    fn tiny_paged_engine(
        slots: usize,
        cache_fraction: f64,
        page_size: usize,
        pool_pages: usize,
        sharing: bool,
    ) -> ServeEngine {
        let config = ModelConfig::tiny();
        let model = build_synthetic(&config, 7).unwrap();
        let layout = layout_for_serving(
            &config,
            [lm::SliceAxis::Input; 3],
            4.0,
            slots,
            config.max_seq_len,
        );
        let dram = layout.static_bytes + (layout.mlp_bytes() as f64 * cache_fraction) as u64;
        let device = DeviceConfig::apple_a18(4.0).with_dram_bytes(dram);
        let mut serve_config = ServeConfig::new(device)
            .with_max_concurrent(slots)
            .with_paged_kv(page_size, pool_pages);
        if sharing {
            serve_config = serve_config.with_prefix_sharing();
        }
        ServeEngine::new(model, serve_config).unwrap()
    }

    #[test]
    fn paged_backend_reproduces_the_flat_report() {
        let requests = dense_requests(5, 4, 4);
        let flat = tiny_engine(2, 0.6).run(requests.clone()).unwrap();
        // plenty of pages: the pool never constrains this fleet
        let mut engine = tiny_paged_engine(2, 0.6, 4, 256, false);
        let mut paged = engine.run(requests).unwrap();
        let stats = paged.paged_kv.take().expect("paged engines report pools");
        assert_eq!(flat, paged, "backing is invisible to the report");
        assert!(stats.pages_high_water > 0);
        assert_eq!(stats.pages_at_end, 0, "no sharing, no retained pages");
        assert_eq!(stats.cow_forks, 0);
        let pool = engine.kv_page_pool().expect("paged engine exposes pool");
        assert_eq!(pool.borrow().pages_in_use(), 0, "drained run leaks nothing");
    }

    #[test]
    fn page_pressure_throttles_admission_without_losing_requests() {
        // pool sized so only ~1 session fits at a time even with 4 slots
        let config = ModelConfig::tiny();
        let n_layers = config.n_layers;
        let per_session = n_layers * pages_spanning(4 + 4, 4);
        let mut engine = tiny_paged_engine(4, 0.6, 4, per_session + 1, false);
        let report = engine.run(dense_requests(5, 4, 4)).unwrap();
        assert_eq!(report.requests.len(), 5, "pressure delays, never drops");
        assert_eq!(report.total_generated_tokens, 20);
        let stats = report.paged_kv.unwrap();
        assert!(
            stats.pages_high_water <= per_session + 1,
            "the pool cap held: {} > {}",
            stats.pages_high_water,
            per_session + 1
        );
    }

    #[test]
    fn closed_batch_rejects_requests_larger_than_the_pool() {
        let mut engine = tiny_paged_engine(2, 0.6, 4, 2, false);
        let err = engine.run(dense_requests(1, 4, 4));
        assert!(matches!(err, Err(ServeError::InvalidRequest { .. })));
    }

    #[test]
    fn shared_prefixes_are_prefilled_once_and_reused() {
        let prefix = vec![1u32, 2, 3, 4, 5, 6];
        let requests: Vec<GenRequest> = (0..6)
            .map(|i| {
                let mut prompt = prefix.clone();
                prompt.push((i % 7) as u32 + 1);
                GenRequest::new(i, prompt, 4, StrategySpec::Dense).with_shared_prefix(prefix.len())
            })
            .collect();

        let baseline = tiny_paged_engine(2, 0.6, 4, 256, false)
            .run(requests.clone())
            .unwrap();
        let shared = tiny_paged_engine(2, 0.6, 4, 256, true)
            .run(requests)
            .unwrap();

        let stats = shared.paged_kv.unwrap();
        assert!(stats.prefix_registrations >= 1, "first session registers");
        assert!(stats.prefix_hits >= 1, "later sessions map the prefix");
        // the 6-token prefix spans one whole 4-position page plus a partial
        // tail; only the whole page is shared, the tail re-prefills per hit
        let aligned = (prefix.len() / 4) * 4;
        assert_eq!(
            stats.prefix_tokens_saved,
            stats.prefix_hits * aligned,
            "every hit skips the page-aligned prefix"
        );
        assert!(stats.pages_at_end > 0, "the registry retains prefix pages");
        assert_eq!(
            shared.total_prefill_tokens,
            baseline.total_prefill_tokens - stats.prefix_tokens_saved,
            "skipped tokens leave the served-prefill count"
        );
        // sharing maps bitwise-identical KV pages, so every request decodes
        // the exact token stream it would have decoded alone
        for (a, b) in baseline.requests.iter().zip(shared.requests.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.generated, b.generated, "request {} diverged", a.id);
        }
        assert!(
            shared.makespan_s < baseline.makespan_s,
            "skipped prefill must shorten the run: {} >= {}",
            shared.makespan_s,
            baseline.makespan_s
        );
    }

    #[test]
    fn unaligned_prefixes_share_only_whole_pages_on_an_exact_pool() {
        // Regression: a 12-token prefix on 8-position pages leaves a partial
        // tail page. If the registry retained it, the session that built it
        // would keep appending into a now-shared page and copy-on-write fork
        // a page no admission commitment reserved — on a pool sized to
        // exactly the fleet's worst case, that exhausted the pool mid-run.
        // Aligned sharing retains whole pages only, so this must complete.
        let config = ModelConfig::tiny();
        let prefix: Vec<u32> = (1..=12).collect();
        let total = prefix.len() + 2 + 6;
        let per_session = config.n_layers * pages_spanning(total, 8);
        let slots = 3;
        let requests: Vec<GenRequest> = (0..12)
            .map(|i| {
                let mut prompt = prefix.clone();
                prompt.extend([(i % 5) as u32 + 1, (i % 7) as u32 + 2]);
                GenRequest::new(i, prompt, 6, StrategySpec::Dense).with_shared_prefix(prefix.len())
            })
            .collect();
        let baseline = tiny_paged_engine(slots, 0.6, 8, per_session * slots, false)
            .run(requests.clone())
            .unwrap();
        let shared = tiny_paged_engine(slots, 0.6, 8, per_session * slots, true)
            .run(requests)
            .unwrap();
        let stats = shared.paged_kv.unwrap();
        assert!(stats.prefix_hits >= 1, "whole-page sharing still hits");
        assert_eq!(
            stats.prefix_tokens_saved,
            stats.prefix_hits * 8,
            "each hit skips one whole 8-position page of the 12-token prefix"
        );
        for (a, b) in baseline.requests.iter().zip(shared.requests.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.generated, b.generated, "request {} diverged", a.id);
        }
    }

    #[test]
    fn prefix_sharing_reports_are_deterministic_across_runs() {
        let prefix = vec![1u32, 2, 3, 4];
        let requests: Vec<GenRequest> = (0..4)
            .map(|i| {
                let mut prompt = prefix.clone();
                prompt.push(i as u32 + 1);
                GenRequest::new(i, prompt, 3, StrategySpec::Dense).with_shared_prefix(prefix.len())
            })
            .collect();
        let mut engine = tiny_paged_engine(2, 0.6, 4, 64, true);
        let first = engine.run(requests.clone()).unwrap();
        let second = engine.run(requests).unwrap();
        assert_eq!(first, second, "per-run registry reset keeps runs pure");
    }

    #[test]
    fn open_loop_sheds_requests_that_can_never_fit_the_pool() {
        let config = ModelConfig::tiny();
        let n_layers = config.n_layers;
        // pool fits a small request but not the big one
        let pool_pages = n_layers * pages_spanning(8, 4);
        let mut engine = tiny_paged_engine(2, 0.6, 4, pool_pages, false);
        let arrivals = vec![
            GenRequest::new(0, vec![1, 2], 2, StrategySpec::Dense).at(0.0),
            GenRequest::new(1, vec![1; 24], 24, StrategySpec::Dense).at(0.001),
        ];
        let report = engine.run_open_loop_requests(arrivals).unwrap();
        let ol = report.open_loop.as_ref().unwrap();
        assert_eq!(ol.shed_memory, 1, "the oversized request is shed");
        assert_eq!(ol.completed, 1);
        assert_eq!(ol.shed, ol.shed_memory);
        assert_eq!(report.requests[0].id, 0);
    }

    #[test]
    fn open_loop_paged_backend_reproduces_the_flat_report() {
        let arrivals: Vec<GenRequest> = (0..5)
            .map(|i| {
                GenRequest::new(i, vec![(i % 7) as u32 + 1; 3], 3, StrategySpec::Dense)
                    .at(0.002 * i as f64)
            })
            .collect();
        let flat = tiny_engine(2, 0.6)
            .run_open_loop_requests(arrivals.clone())
            .unwrap();
        let mut paged = tiny_paged_engine(2, 0.6, 4, 256, false)
            .run_open_loop_requests(arrivals)
            .unwrap();
        assert!(paged.paged_kv.take().is_some());
        assert_eq!(flat, paged, "open-loop reports match across backings");
    }
}
