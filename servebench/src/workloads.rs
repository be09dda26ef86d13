//! The benchmark's two open-loop workloads.
//!
//! Each workload is a deployment (model, KV backing, slots, scheduler,
//! admission) plus a seeded traffic generator. Arrivals are virtual-clock
//! timestamps drawn here, from the `--seed` argument alone; the engine only
//! ever sees the finished `Vec<GenRequest>`. Rates, lengths and SLO limits
//! are literal numbers, fixed once against the device model and never
//! re-calibrated at run time: a probe would move the load together with the
//! device model and hide device-clock gains.

use lm::ModelConfig;
use serve::{
    AdmissionConfig, GenRequest, SchedulerPolicy, ServeConfig, SloTarget, StrategySpec, Tier,
};

/// Seed of the model weights (fixed: the workload seed varies traffic only).
pub const MODEL_SEED: u64 = 13;

/// Seed of the fixed warm-up traffic every set-up serves once.
const WARMUP_SEED: u64 = 0x5eed_0000;

/// Requests in the warm-up pass of a set-up.
const WARMUP_REQUESTS: usize = 4;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's method on its hot path: DIP-CA decode lanes.
    DecodeDipca,
    /// The serving layer itself: a bursty fleet of short requests over
    /// shared prefixes on a paged pool.
    PrefixFleet,
}

impl Workload {
    /// Every workload, in manifest order.
    pub const ALL: [Workload; 2] = [Workload::DecodeDipca, Workload::PrefixFleet];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DecodeDipca => "decode-dipca",
            Workload::PrefixFleet => "prefix-fleet",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (written into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::DecodeDipca => {
                "DIP-CA decode lanes on phi3-mini-sim with the device saturated: lm decode, core \
                 mask and cache model, tensor column kernels, hwsim pricing"
            }
            Workload::PrefixFleet => {
                "bursty fleet of short DIP requests over shared prefixes on a paged pool: serve \
                 queue, admission, preemption, page pool and prefix registry"
            }
        }
    }

    /// The served model.
    pub fn model_config(self) -> ModelConfig {
        match self {
            Workload::DecodeDipca => ModelConfig::phi3_mini_sim(),
            Workload::PrefixFleet => ModelConfig::tiny(),
        }
    }

    /// The deployment.
    pub fn serve_config(self) -> ServeConfig {
        let config = self.model_config();
        match self {
            // Why: the paper's method on its hot path. Host time goes to
            // `lm` decode lanes, the `core` DIP-CA mask and cache model, the
            // `tensor` column kernels and `hwsim` per-token pricing; prefill,
            // paging and prefixes barely run. The 8-wide lanes are where a
            // per-lane pricing change shows. The offered load exceeds the
            // device's capacity and a short queue sheds the excess, so the
            // device stays saturated: `sim_tps` is then its capacity and
            // moves with any device-clock gain, and latency percentiles stay
            // steady from seed to seed (near but under capacity, queueing
            // bursts made TTFT p95 swing several-fold between seeds).
            Workload::DecodeDipca => {
                let (slots, kv) = (8, DIPCA_PROMPT.1 + DIPCA_OUTPUT.1);
                ServeConfig::new(device_for(&config, dipca_spec(), slots, kv))
                    .with_max_concurrent(slots)
                    .with_kv_budget(kv)
                    .with_scheduler(SchedulerPolicy::Fifo)
                    .with_admission(AdmissionConfig::default().with_queue_capacity(DIPCA_QUEUE))
            }
            // Why: model compute is negligible (tiny model), so host time
            // goes to `serve` itself: the event queue, admission, the
            // priority scheduler, preemption and spill, the page pool and
            // the prefix registry. Device TTFT is set by queueing and prefix
            // hits. The only workload with shared prefixes.
            Workload::PrefixFleet => {
                let slots = 64;
                let kv = config.max_seq_len;
                ServeConfig::new(device_for(&config, fleet_spec(), slots, kv))
                    .with_max_concurrent(slots)
                    .with_kv_budget(kv)
                    .with_scheduler(SchedulerPolicy::PriorityPreemptive)
                    .with_paged_kv(FLEET_PAGE_SIZE, FLEET_POOL_PAGES)
                    .with_prefix_sharing()
                    .with_admission(AdmissionConfig::default().with_queue_capacity(FLEET_QUEUE))
            }
        }
    }

    /// The traffic every pass of a run serves: a pure function of `seed`.
    pub fn requests(self, seed: u64) -> Vec<GenRequest> {
        let mut rng = SplitMix64::new(seed ^ self.salt());
        match self {
            Workload::DecodeDipca => decode_dipca(&mut rng, DIPCA_REQUESTS),
            Workload::PrefixFleet => prefix_fleet(&mut rng, FLEET_REQUESTS),
        }
    }

    /// The fixed warm-up traffic of a set-up: a few requests of the
    /// workload's own shape, so weight mirrors, scratch buffers and pools
    /// exist before anything is timed. Independent of `--seed`.
    pub fn warmup_requests(self) -> Vec<GenRequest> {
        let mut rng = SplitMix64::new(WARMUP_SEED ^ self.salt());
        match self {
            Workload::DecodeDipca => decode_dipca(&mut rng, WARMUP_REQUESTS),
            Workload::PrefixFleet => prefix_fleet(&mut rng, WARMUP_REQUESTS),
        }
    }

    fn salt(self) -> u64 {
        match self {
            Workload::DecodeDipca => 0xd1ca_0001,
            Workload::PrefixFleet => 0xf1ee_0002,
        }
    }
}

// ---- decode-dipca -------------------------------------------------------

/// Requests per pass.
const DIPCA_REQUESTS: usize = 320;
/// Prompt length range (tokens, inclusive).
const DIPCA_PROMPT: (usize, usize) = (4, 16);
/// Output length range (tokens, inclusive).
const DIPCA_OUTPUT: (usize, usize) = (48, 96);
/// Poisson arrival rate (requests per virtual second), about 1.4 times
/// what the deployment serves on the device clock (≈ 197 requests/s).
const DIPCA_RATE_PER_S: f64 = 280.0;
/// Bounded waiting queue.
const DIPCA_QUEUE: usize = 8;
/// Share of premium requests (the rest are standard).
const DIPCA_PREMIUM: f64 = 0.25;
/// SLO limits (TTFT, mean TBT) in seconds: premium, standard.
const DIPCA_SLO: [(f64, f64); 2] = [(0.045, 0.001), (0.06, 0.001)];

fn dipca_spec() -> StrategySpec {
    StrategySpec::DipCacheAware {
        density: 0.5,
        gamma: 0.2,
    }
}

fn decode_dipca(rng: &mut SplitMix64, n: usize) -> Vec<GenRequest> {
    let vocab = ModelConfig::phi3_mini_sim().vocab_size;
    let arrivals = rng.arrivals(n, DIPCA_RATE_PER_S);
    (0..n)
        .map(|i| {
            let premium = rng.unit() < DIPCA_PREMIUM;
            let (tier, (ttft, tbt)) = if premium {
                (Tier::Premium, DIPCA_SLO[0])
            } else {
                (Tier::Standard, DIPCA_SLO[1])
            };
            let len = rng_len(rng, DIPCA_PROMPT);
            let prompt = rng.tokens(len, vocab);
            GenRequest::new(i as u64, prompt, rng_len(rng, DIPCA_OUTPUT), dipca_spec())
                .at(arrivals[i])
                .with_tier(tier)
                .with_slo(SloTarget::new(ttft, tbt))
        })
        .collect()
}

// ---- prefix-fleet -------------------------------------------------------

/// Requests per pass: eight on-windows of arrivals. A pass takes a few host
/// seconds, so one run's `wall_tps` is the median of a dozen passes or more.
const FLEET_REQUESTS: usize = 6_400;
/// Paged KV: positions per page and pages in the fixed pool.
const FLEET_PAGE_SIZE: usize = 4;
const FLEET_POOL_PAGES: usize = 640;
/// Bounded waiting queue.
const FLEET_QUEUE: usize = 256;
/// On/off arrivals: rate while on (requests per virtual second), window
/// lengths (seconds).
const FLEET_RATE_PER_S: f64 = 16000.0;
const FLEET_ON_S: f64 = 0.05;
const FLEET_OFF_S: f64 = 0.05;
/// Shared system-prompt lengths of the templates; 0 = no shared prefix.
const FLEET_PREFIXES: [usize; 4] = [32, 24, 16, 0];
/// Template weights (same order).
const FLEET_WEIGHTS: [f64; 4] = [0.35, 0.25, 0.2, 0.2];
/// Per-request unique suffix and output ranges (tokens, inclusive).
const FLEET_SUFFIX: (usize, usize) = (2, 6);
const FLEET_OUTPUT: (usize, usize) = (4, 12);
/// Tier mix (premium, standard; the rest is batch).
const FLEET_TIERS: (f64, f64) = (0.2, 0.5);
/// SLO limits (TTFT, mean TBT) in seconds: premium, standard, batch.
const FLEET_SLO: [(f64, f64); 3] = [(0.005, 0.0005), (0.02, 0.001), (0.1, 0.002)];
/// Share of requests with a deadline, and the deadline (seconds).
const FLEET_DEADLINE: (f64, f64) = (0.1, 0.05);
/// Share of requests whose client hangs up early, and after how many tokens.
const FLEET_CANCEL: (f64, usize) = (0.05, 3);

fn fleet_spec() -> StrategySpec {
    StrategySpec::Dip { density: 0.5 }
}

fn prefix_fleet(rng: &mut SplitMix64, n: usize) -> Vec<GenRequest> {
    let vocab = ModelConfig::tiny().vocab_size;
    // the system prompts are part of the deployment, not of the traffic:
    // fixed token ids, identical for every seed
    let mut fixed = SplitMix64::new(0x0051_57e3);
    let prefixes: Vec<Vec<u32>> = FLEET_PREFIXES
        .iter()
        .map(|&len| fixed.tokens(len, vocab))
        .collect();
    let arrivals: Vec<f64> = rng
        .arrivals(n, FLEET_RATE_PER_S)
        .into_iter()
        .map(on_off)
        .collect();
    (0..n)
        .map(|i| {
            let template = rng.pick(&FLEET_WEIGHTS);
            let mut prompt = prefixes[template].clone();
            let len = rng_len(rng, FLEET_SUFFIX);
            let suffix = rng.tokens(len, vocab);
            prompt.extend(suffix);
            let u = rng.unit();
            let (tier, (ttft, tbt)) = if u < FLEET_TIERS.0 {
                (Tier::Premium, FLEET_SLO[0])
            } else if u < FLEET_TIERS.0 + FLEET_TIERS.1 {
                (Tier::Standard, FLEET_SLO[1])
            } else {
                (Tier::Batch, FLEET_SLO[2])
            };
            let mut r = GenRequest::new(i as u64, prompt, rng_len(rng, FLEET_OUTPUT), fleet_spec())
                .at(arrivals[i])
                .with_tier(tier)
                .with_slo(SloTarget::new(ttft, tbt))
                .with_shared_prefix(FLEET_PREFIXES[template]);
            if rng.unit() < FLEET_DEADLINE.0 {
                r = r.with_deadline_s(FLEET_DEADLINE.1);
            }
            if rng.unit() < FLEET_CANCEL.0 {
                r = r.with_cancel_after_tokens(FLEET_CANCEL.1);
            }
            r
        })
        .collect()
}

/// Maps a time on the source's *on* clock to the virtual clock: on-windows
/// of `FLEET_ON_S` seconds separated by silent `FLEET_OFF_S` gaps.
fn on_off(on_time: f64) -> f64 {
    let cycle = (on_time / FLEET_ON_S).floor();
    on_time + cycle * FLEET_OFF_S
}

// ---- shared helpers -----------------------------------------------------

/// The DRAM-constrained phone: statics and every slot's KV budget pinned,
/// about 55% of the INT4 MLP weights cacheable.
fn device_for(
    config: &ModelConfig,
    spec: StrategySpec,
    slots: usize,
    kv_tokens: usize,
) -> hwsim::DeviceConfig {
    let axes = serve::resolve_axes(&[spec]).expect("a single spec resolves its own axes");
    let layout = serve::layout::layout_for_serving(config, axes, 4.0, slots, kv_tokens);
    let dram = layout.static_bytes + ((layout.mlp_bytes() as f64) * 0.55) as u64;
    hwsim::DeviceConfig::apple_a18(4.0).with_dram_bytes(dram)
}

fn rng_len(rng: &mut SplitMix64, (lo, hi): (usize, usize)) -> usize {
    lo + (rng.next_u64() % (hi - lo + 1) as u64) as usize
}

/// SplitMix64: a tiny, fully specified generator, so the traffic of a seed
/// never changes with the repository's own random-number code.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `n` arrival times of a Poisson process of the given rate, conditioned
    /// on exactly `n` arrivals in the window `[0, n / rate)`: sorted uniform
    /// draws. Fixing the window (rather than summing `n` exponential gaps)
    /// keeps the offered load, and so the makespan, the same for every seed.
    fn arrivals(&mut self, n: usize, rate_per_s: f64) -> Vec<f64> {
        let window = n as f64 / rate_per_s;
        let mut at: Vec<f64> = (0..n).map(|_| self.unit() * window).collect();
        at.sort_by(f64::total_cmp);
        at
    }

    /// `len` token ids in `1..vocab`.
    fn tokens(&mut self, len: usize, vocab: usize) -> Vec<u32> {
        (0..len)
            .map(|_| 1 + (self.next_u64() % (vocab as u64 - 1)) as u32)
            .collect()
    }

    /// An index drawn with the given (positive, not necessarily normalised)
    /// weights.
    fn pick(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut u = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if u < *w {
                return i;
            }
            u -= w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_is_a_pure_function_of_the_seed() {
        for w in Workload::ALL {
            assert_eq!(w.requests(7), w.requests(7), "{}", w.name());
            assert_ne!(w.requests(7), w.requests(8), "{}", w.name());
            assert_eq!(w.warmup_requests(), w.warmup_requests());
        }
    }

    #[test]
    fn arrivals_are_sorted_and_requests_fit_the_context() {
        for w in Workload::ALL {
            let config = w.model_config();
            let serve = w.serve_config();
            let window = serve.kv_budget_tokens.unwrap_or(config.max_seq_len);
            let reqs = w.requests(1);
            assert!(reqs.windows(2).all(|p| p[0].arrival_s <= p[1].arrival_s));
            assert!(
                reqs.iter().all(|r| r.total_tokens() <= window),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn on_off_arrivals_skip_the_off_windows() {
        for i in 0..1000 {
            let t = on_off(i as f64 * 0.0123);
            let phase = t % (FLEET_ON_S + FLEET_OFF_S);
            assert!(phase < FLEET_ON_S, "arrival at {t} falls in an off-window");
        }
    }
}
