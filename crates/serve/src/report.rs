//! Serving-run reports: per-request stats and fleet-level aggregates.

use crate::request::Tier;
use crate::scheduler::SchedulerPolicy;
use hwsim::EvictionPolicy;
use serde::{Deserialize, Serialize};

/// How a request's lifecycle ended.
///
/// Every request that holds (or ever held) a session retires with exactly
/// one reason; together with admission sheds and queue withdrawals these
/// partition the arrivals — the chaos suite's conservation invariant
/// (DESIGN.md §17).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum FinishReason {
    /// The request generated its full token budget.
    #[default]
    Completed,
    /// The client cancelled (injected [`EventKind::CancelAt`] or the
    /// request's own `cancel_after_tokens` patience ran out).
    ///
    /// [`EventKind::CancelAt`]: crate::event::EventKind::CancelAt
    Cancelled,
    /// The request's wall-clock deadline expired before completion.
    DeadlineExpired,
    /// A transient worker abort killed the session and the retry budget
    /// (if any) was exhausted.
    Failed,
}

impl std::fmt::Display for FinishReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FinishReason::Completed => "completed",
            FinishReason::Cancelled => "cancelled",
            FinishReason::DeadlineExpired => "deadline_expired",
            FinishReason::Failed => "failed",
        };
        f.write_str(s)
    }
}

/// Statistics of one completed request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestStats {
    /// Caller-chosen request id.
    pub id: u64,
    /// Stream index in the shared-cache replay (submission order).
    pub stream: usize,
    /// Strategy label the request ran under.
    pub strategy: String,
    /// Priority tier of the request.
    pub tier: Tier,
    /// Prompt length in tokens.
    pub prompt_tokens: usize,
    /// Number of generated tokens.
    pub generated_tokens: usize,
    /// The generated token ids themselves (greedy decode makes them a pure
    /// function of model + prompt + strategy; golden-trace and
    /// preemption-correctness suites pin them).
    pub generated: Vec<u32>,
    /// Engine step at which the request was admitted to a KV slot.
    pub admitted_step: usize,
    /// Arrival time on the run's virtual clock (0 for closed batches).
    pub arrival_s: f64,
    /// Time from arrival to first holding a KV slot (0 for closed batches,
    /// where every request is pre-materialized).
    pub queue_delay_s: f64,
    /// Wall-clock completion of the first *generated* token, in seconds from
    /// the start of the run (0 when nothing was generated).
    pub first_token_s: f64,
    /// Time from *arrival* to the first generated token.
    pub ttft_s: f64,
    /// Mean time between generated tokens (0 with fewer than one generated
    /// token); preemption stalls count against it.
    pub tbt_mean_s: f64,
    /// How many times the session was preempted and parked.
    pub preemptions: usize,
    /// Whether the request's latency objective was attained (always true
    /// for the default unbounded [`crate::request::SloTarget`]).
    pub slo_met: bool,
    /// Wall-clock completion of the request.
    pub completion_s: f64,
    /// Service time this request consumed on the memory bus.
    pub service_s: f64,
    /// Generated tokens per second of end-to-end latency.
    pub throughput_tps: f64,
    /// Shared-cache hit rate of this request's weight accesses.
    pub hit_rate: f64,
    /// Bytes this request read from Flash.
    pub flash_bytes: f64,
    /// Bytes this request read from DRAM.
    pub dram_bytes: f64,
    /// How the request's lifecycle ended ([`FinishReason::Completed`] for
    /// every request of a fault-free run).
    pub finish: FinishReason,
    /// Whether admission downgraded this request's strategy along the
    /// fallback chain under queue pressure (a [`crate::DegradePolicy`]).
    pub degraded: bool,
    /// Service attempts this request consumed (1 without retries).
    pub attempts: u32,
}

/// Latency percentiles of one open-loop metric (seconds).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Percentiles {
    /// Median.
    pub p50_s: f64,
    /// 95th percentile.
    pub p95_s: f64,
    /// 99th percentile.
    pub p99_s: f64,
}

impl Percentiles {
    /// Nearest-rank percentiles of an unsorted sample (see [`percentile`]).
    pub fn of(values: &[f64]) -> Self {
        Percentiles {
            p50_s: percentile(values, 0.50),
            p95_s: percentile(values, 0.95),
            p99_s: percentile(values, 0.99),
        }
    }
}

/// Open-loop outcomes of one priority tier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierStats {
    /// The tier.
    pub tier: Tier,
    /// Arrivals on this tier.
    pub arrived: usize,
    /// Arrivals accepted into the waiting queue.
    pub admitted: usize,
    /// Arrivals shed at admission.
    pub shed: usize,
    /// Requests served to completion.
    pub completed: usize,
    /// Requests cancelled by the client (injected or patience-capped),
    /// including cancellations that struck while still queued.
    pub cancelled: usize,
    /// Requests whose deadline expired, including expiries while queued.
    pub expired: usize,
    /// Requests that exhausted their retry budget after worker aborts.
    pub failed: usize,
    /// Sessions admitted with a degraded strategy on this tier.
    pub degraded: usize,
    /// Preemptions suffered by this tier's sessions.
    pub preemptions: usize,
    /// Time-to-first-token percentiles over completed requests.
    pub ttft: Percentiles,
    /// Queue-delay percentiles over completed requests.
    pub queue_delay: Percentiles,
    /// Fraction of *arrived* requests that completed within their SLO (a
    /// shed request counts as missed, so shedding cannot launder attainment;
    /// cancelled/expired/failed requests count as missed too).
    pub slo_attainment: f64,
}

/// Open-loop outcomes of one strategy spec (by label).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategyClassStats {
    /// Strategy label ([`crate::strategy::StrategySpec::label`]).
    pub strategy: String,
    /// Requests served to completion.
    pub completed: usize,
    /// Tokens generated by this class.
    pub generated_tokens: usize,
    /// Time-to-first-token percentiles over completed requests.
    pub ttft: Percentiles,
    /// Shared-cache hit rate of this class's weight accesses.
    pub hit_rate: f64,
    /// Fraction of completed requests that met their SLO.
    pub slo_attainment: f64,
}

/// Aggregates that only an open-loop run produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpenLoopStats {
    /// Requests that arrived over the run.
    pub arrived: usize,
    /// Requests accepted into the waiting queue.
    pub admitted: usize,
    /// Requests shed at admission (total).
    pub shed: usize,
    /// Requests shed by the token-bucket rate limit.
    pub shed_rate_limited: usize,
    /// Requests shed by a per-tier quota.
    pub shed_tier_quota: usize,
    /// Requests shed by the bounded queue.
    pub shed_queue_full: usize,
    /// Requests shed because their KV page footprint exceeds the paged pool.
    pub shed_memory: usize,
    /// Requests served to completion. Without faults this equals `admitted`
    /// at drain; with faults every arrival ends exactly one way, so at
    /// drain `arrived = shed + completed + cancelled + deadline_expired +
    /// failed` (the chaos suite's conservation invariant). `admitted` is
    /// attempt-level: each successful retry re-admission counts again.
    pub completed: usize,
    /// Requests retired as [`FinishReason::Cancelled`], including client
    /// cancellations that withdrew a still-queued request.
    pub cancelled: usize,
    /// Requests retired as [`FinishReason::DeadlineExpired`], including
    /// expiries while still queued.
    pub deadline_expired: usize,
    /// Requests retired as [`FinishReason::Failed`] (retry budget
    /// exhausted).
    pub failed: usize,
    /// Worker aborts that were re-offered through admission with backoff.
    pub retries: usize,
    /// Sessions admitted with a strategy degraded along the fallback chain.
    pub degraded_sessions: usize,
    /// Paged-KV pages invalidated by injected page-loss faults (counted
    /// across layers).
    pub kv_pages_lost: usize,
    /// Prompt/generated tokens re-prefilled to rebuild lost KV pages
    /// (included in the report's `total_prefill_tokens`).
    pub kv_refill_tokens: usize,
    /// Sessions preempted (parked at a token boundary).
    pub preemptions: usize,
    /// Parked sessions resumed.
    pub resumes: usize,
    /// Virtual-clock seconds spent swapping parked KV states to Flash and
    /// back (the DRAM layout budgets KV for `max_concurrent` slots only, so
    /// preemption pays to move the victim's context out of DRAM).
    pub kv_swap_s: f64,
    /// Bytes of KV state swapped to and from Flash by preemption. Always
    /// `kv_spill_bytes + kv_reload_bytes`.
    pub kv_swap_bytes: f64,
    /// Bytes of KV state spilled DRAM→Flash when preemptions parked
    /// sessions. Each park/resume cycle moves a session's bytes exactly
    /// once in each direction, so over a drained run this equals
    /// [`OpenLoopStats::kv_reload_bytes`].
    pub kv_spill_bytes: f64,
    /// Bytes of KV state reloaded Flash→DRAM when parked sessions resumed.
    pub kv_reload_bytes: f64,
    /// Time-to-first-token percentiles over completed requests.
    pub ttft: Percentiles,
    /// Time-between-tokens percentiles over every decode gap of the run.
    pub tbt: Percentiles,
    /// Queue-delay (arrival → KV slot) percentiles over completed requests.
    pub queue_delay: Percentiles,
    /// Fraction of *arrived* requests that completed within their SLO.
    pub slo_attainment: f64,
    /// Per-tier breakdown, ascending tier order.
    pub tiers: Vec<TierStats>,
    /// Per-strategy breakdown, in order of first appearance.
    pub strategies: Vec<StrategyClassStats>,
}

/// Paged-KV pool outcomes of one run (present when the engine's sessions
/// share one [`lm::KvPagePool`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PagedKvStats {
    /// Positions per page.
    pub page_size: usize,
    /// Total pages in the pool (across layers and sessions).
    pub pool_pages: usize,
    /// High-water mark of allocated pages over the run.
    pub pages_high_water: usize,
    /// Pages still allocated at drain (shared-prefix registry pages; the
    /// registry is cleared at the start of each run, so this is what the
    /// run itself pinned).
    pub pages_at_end: usize,
    /// Copy-on-write page forks performed during the run.
    pub cow_forks: u64,
    /// Admissions that mapped an already-prefilled shared prefix.
    pub prefix_hits: usize,
    /// Prefix-eligible admissions that found no registered prefix.
    pub prefix_misses: usize,
    /// Shared prefixes registered for later arrivals.
    pub prefix_registrations: usize,
    /// Prompt tokens never prefilled because a shared prefix was mapped.
    pub prefix_tokens_saved: usize,
}

/// Aggregate report of one serving run.
///
/// Reports are **bitwise deterministic**: every field (each f64 bit) is a
/// pure function of the model, config, and request stream. Both execution
/// modes produce identical reports ([`ExecutionMode::Batched`] is the
/// default; `Sequential` is the token-at-a-time oracle —
/// `tests/batched_equivalence.rs` holds the contract), and attaching
/// telemetry ([`ServeEngine::attach_telemetry`]) changes no report bit:
/// the engine's hooks are write-only, so metrics, trace rings and
/// timeline windows observe the run without participating in it. The
/// telemetry timeline's per-window token sums equal
/// `total_prefill_tokens + total_generated_tokens` exactly.
///
/// [`ExecutionMode::Batched`]: crate::ExecutionMode::Batched
/// [`ServeEngine::attach_telemetry`]: crate::ServeEngine::attach_telemetry
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Model name.
    pub model: String,
    /// Scheduling policy of the run.
    pub scheduler: SchedulerPolicy,
    /// Shared-cache eviction policy.
    pub eviction: EvictionPolicy,
    /// KV-cache slots (maximum concurrent sessions).
    pub max_concurrent: usize,
    /// Per-request statistics, in submission order.
    pub requests: Vec<RequestStats>,
    /// Total prompt tokens prefilled across requests.
    pub total_prefill_tokens: usize,
    /// Total tokens generated across requests.
    pub total_generated_tokens: usize,
    /// Wall-clock length of the run in seconds.
    pub makespan_s: f64,
    /// Generated tokens per second of wall-clock time, across all requests.
    pub aggregate_tps: f64,
    /// Median end-to-end request latency (seconds).
    pub latency_p50_s: f64,
    /// 95th-percentile end-to-end request latency (seconds).
    pub latency_p95_s: f64,
    /// 99th-percentile end-to-end request latency (seconds).
    pub latency_p99_s: f64,
    /// Mean wall-clock time to each request's first generated token.
    pub mean_first_token_s: f64,
    /// Hit rate of the shared DRAM column cache over the whole run.
    pub cache_hit_rate: f64,
    /// Fraction of the MLP weights the shared cache can hold.
    pub cache_fraction: f64,
    /// Jain fairness index over per-request service times.
    pub fairness: f64,
    /// Mean MLP weight density of the replayed traffic.
    pub mean_density: f64,
    /// Total bytes read from Flash.
    pub flash_bytes: f64,
    /// Total bytes read from DRAM.
    pub dram_bytes: f64,
    /// Open-loop aggregates (`None` for closed-batch runs).
    pub open_loop: Option<OpenLoopStats>,
    /// Shared KV page-pool outcomes (`None` when the engine has no shared
    /// pool).
    pub paged_kv: Option<PagedKvStats>,
}

impl ServeReport {
    /// Renders a short human-readable summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} | {} requests, {} slots, {}/{} | {:.2} tok/s | p50 {:.1} ms, p95 {:.1} ms, p99 {:.1} ms | hit rate {:.1}% | fairness {:.3}",
            self.model,
            self.requests.len(),
            self.max_concurrent,
            self.scheduler,
            self.eviction,
            self.aggregate_tps,
            1e3 * self.latency_p50_s,
            1e3 * self.latency_p95_s,
            1e3 * self.latency_p99_s,
            100.0 * self.cache_hit_rate,
            self.fairness,
        );
        if let Some(ol) = &self.open_loop {
            s.push_str(&format!(
                " | open-loop: {} arrived, {} shed, {} preemptions, TTFT p95 {:.1} ms, SLO {:.1}%",
                ol.arrived,
                ol.shed,
                ol.preemptions,
                1e3 * ol.ttft.p95_s,
                100.0 * ol.slo_attainment,
            ));
            if ol.cancelled + ol.deadline_expired + ol.failed + ol.retries > 0 {
                s.push_str(&format!(
                    " | faults: {} cancelled, {} expired, {} failed, {} retries",
                    ol.cancelled, ol.deadline_expired, ol.failed, ol.retries,
                ));
            }
            if ol.degraded_sessions > 0 {
                s.push_str(&format!(" | {} degraded sessions", ol.degraded_sessions));
            }
        }
        if let Some(pk) = &self.paged_kv {
            s.push_str(&format!(
                " | paged KV: {}/{} pages high-water, {} prefix hits, {} tokens saved",
                pk.pages_high_water, pk.pool_pages, pk.prefix_hits, pk.prefix_tokens_saved,
            ));
        }
        s
    }
}

/// Nearest-rank percentile of an unsorted sample; `q` is clamped to
/// `[0, 1]`. Canonical implementation lives in [`::telemetry::stats`] so
/// the bench/report writers and this crate agree on one definition; this
/// re-export keeps `serve::report::percentile` (and `serve::percentile`)
/// working.
pub use ::telemetry::percentile;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v = vec![4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.95), 5.0);
        assert_eq!(percentile(&v, 0.99), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
    }

    #[test]
    fn percentile_of_empty_sample_is_defined() {
        // The documented empty-slice contract: 0.0 at every quantile, no
        // index panic.
        for q in [-1.0, 0.0, 0.5, 0.99, 1.0, 7.0] {
            assert_eq!(percentile(&[], q), 0.0);
        }
    }

    #[test]
    fn percentile_of_single_element_is_that_element() {
        for q in [-1.0, 0.0, 0.5, 0.99, 1.0, 7.0] {
            assert_eq!(percentile(&[7.5], q), 7.5);
        }
    }

    #[test]
    fn percentile_tolerates_non_finite_samples() {
        // total_cmp sorts NaN last and infinities at the extremes: the
        // median of a poisoned sample is still a defined value.
        let v = vec![2.0, f64::NAN, 1.0, f64::INFINITY, f64::NEG_INFINITY];
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.0), f64::NEG_INFINITY);
    }

    #[test]
    fn percentiles_are_monotone_in_q() {
        let v: Vec<f64> = (0..100).map(|i| (i * 37 % 101) as f64).collect();
        let p50 = percentile(&v, 0.5);
        let p95 = percentile(&v, 0.95);
        let p99 = percentile(&v, 0.99);
        assert!(p50 <= p95 && p95 <= p99);
    }
}
