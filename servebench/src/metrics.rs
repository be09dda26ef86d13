//! Device-clock outcomes of one pass and the correctness checks every run
//! makes on it.

use serve::{percentile, FinishReason, GenRequest, ServeReport};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Nearest-rank percentiles of a sample, with the sample count they rest on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    /// Median.
    pub p50: f64,
    /// The tail percentile the metric reports (p95 or p99).
    pub tail: f64,
    /// Samples.
    pub count: usize,
}

impl Quantiles {
    /// Median and the `tail` quantile (in `[0, 1]`) of `values`.
    pub fn of(values: &[f64], tail: f64) -> Quantiles {
        Quantiles {
            p50: percentile(values, 0.50),
            tail: percentile(values, tail),
            count: values.len(),
        }
    }
}

/// What one open-loop pass delivered, on the device clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Requests offered to admission.
    pub arrived: usize,
    /// Shed at admission (every reason).
    pub shed: usize,
    /// Served to their full budget.
    pub completed: usize,
    /// Ended early by the client's own patience.
    pub cancelled: usize,
    /// Retired by their deadline.
    pub expired: usize,
    /// Retired by a worker failure.
    pub failed: usize,
    /// Prompt tokens forwarded.
    pub prefill_tokens: usize,
    /// Tokens generated.
    pub generated_tokens: usize,
    /// Virtual seconds from the first arrival's clock origin to drain.
    pub makespan_s: f64,
    /// Generated tokens per virtual second.
    pub sim_tps: f64,
    /// Generated tokens of requests that completed within both SLO limits,
    /// per virtual second of makespan.
    pub sim_goodput_tps: f64,
    /// TTFT (seconds, from each request's due time) over completed requests.
    pub ttft: Quantiles,
    /// Decode gaps (seconds) over every generated token; the tail is p99.
    pub tbt: Quantiles,
    /// Share of arrived requests that completed within both SLO limits.
    pub slo_attainment: f64,
    /// (shed + deadline-expired + failed) / arrived.
    pub failed_frac: f64,
}

impl Outcome {
    /// Summarises an open-loop report.
    ///
    /// # Errors
    ///
    /// Returns a description when the report carries no open-loop block.
    pub fn of(report: &ServeReport) -> Result<Outcome, String> {
        let ol = report
            .open_loop
            .as_ref()
            .ok_or("report of a closed batch, not an open-loop run")?;
        let done: Vec<_> = report
            .requests
            .iter()
            .filter(|r| r.finish == FinishReason::Completed)
            .collect();
        let ttfts: Vec<f64> = done.iter().map(|r| r.ttft_s).collect();
        let good_tokens: usize = done
            .iter()
            .filter(|r| r.slo_met)
            .map(|r| r.generated_tokens)
            .sum();
        let met = done.iter().filter(|r| r.slo_met).count();
        let per_s = |n: usize| {
            if report.makespan_s > 0.0 {
                n as f64 / report.makespan_s
            } else {
                0.0
            }
        };
        let share = |n: usize| {
            if ol.arrived == 0 {
                0.0
            } else {
                n as f64 / ol.arrived as f64
            }
        };
        Ok(Outcome {
            arrived: ol.arrived,
            shed: ol.shed,
            completed: ol.completed,
            cancelled: ol.cancelled,
            expired: ol.deadline_expired,
            failed: ol.failed,
            prefill_tokens: report.total_prefill_tokens,
            generated_tokens: report.total_generated_tokens,
            makespan_s: report.makespan_s,
            sim_tps: report.aggregate_tps,
            sim_goodput_tps: per_s(good_tokens),
            ttft: Quantiles::of(&ttfts, 0.95),
            // the engine keeps the gaps themselves private; one gap is
            // recorded per generated token (checked against the telemetry
            // decode counter in the traced run)
            tbt: Quantiles {
                p50: ol.tbt.p50_s,
                tail: ol.tbt.p99_s,
                count: report.total_generated_tokens,
            },
            slo_attainment: share(met),
            failed_frac: share(ol.shed + ol.deadline_expired + ol.failed),
        })
    }

    /// Requests that failed: shed, deadline-expired or retired by a worker
    /// failure (the numerator of `failed_frac`).
    pub fn failed_requests(&self) -> usize {
        self.shed + self.expired + self.failed
    }

    /// Tokens the pass pushed through the model.
    pub fn tokens(&self) -> usize {
        self.prefill_tokens + self.generated_tokens
    }
}

/// The correctness checks of one pass: request conservation and every
/// request's token budget. Returns one line per violation.
pub fn check(requests: &[GenRequest], report: &ServeReport) -> Vec<String> {
    let mut bad = Vec::new();
    let Some(ol) = report.open_loop.as_ref() else {
        return vec!["report carries no open-loop block".to_string()];
    };
    if ol.arrived != requests.len() {
        bad.push(format!(
            "{} requests sent but {} arrived",
            requests.len(),
            ol.arrived
        ));
    }
    let ended = ol.shed + ol.completed + ol.cancelled + ol.deadline_expired + ol.failed;
    if ended != ol.arrived {
        bad.push(format!(
            "conservation: arrived {} != shed {} + completed {} + cancelled {} + expired {} + \
             failed {}",
            ol.arrived, ol.shed, ol.completed, ol.cancelled, ol.deadline_expired, ol.failed
        ));
    }
    let sent: HashMap<u64, &GenRequest> = requests.iter().map(|r| (r.id, r)).collect();
    for r in &report.requests {
        let Some(req) = sent.get(&r.id) else {
            bad.push(format!("request {} was never sent", r.id));
            continue;
        };
        if r.generated.len() != r.generated_tokens {
            bad.push(format!(
                "request {}: {} ids for {} generated tokens",
                r.id,
                r.generated.len(),
                r.generated_tokens
            ));
        }
        let budget = match r.finish {
            FinishReason::Completed => Some(req.max_new_tokens),
            FinishReason::Cancelled => Some(req.effective_new_tokens()),
            FinishReason::DeadlineExpired | FinishReason::Failed => None,
        };
        if let Some(budget) = budget {
            if r.generated_tokens != budget {
                bad.push(format!(
                    "request {} ({}): generated {} of a {budget}-token budget",
                    r.id, r.finish, r.generated_tokens
                ));
            }
        }
    }
    bad
}

/// FNV-1a digest of every generated token id, in request-id order, so two
/// commits' outputs can be compared at a glance.
pub fn output_digest(report: &ServeReport) -> u64 {
    let mut order: Vec<_> = report.requests.iter().collect();
    order.sort_by_key(|r| r.id);
    let mut h = Fnv::default();
    for r in order {
        h.bytes(&r.id.to_le_bytes());
        h.bytes(&(r.generated.len() as u64).to_le_bytes());
        for t in &r.generated {
            h.bytes(&t.to_le_bytes());
        }
    }
    h.0
}

/// Digest of the whole report, bit for bit: `Debug` prints every `f64` in
/// its shortest round-trip form, so equal digests mean bitwise-equal
/// reports (up to a hash collision).
pub fn report_digest(report: &ServeReport) -> u64 {
    let mut h = Fnv::default();
    write!(h, "{report:?}").expect("hashing never fails");
    h.0
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serve::{Percentiles, RequestStats, StrategySpec, Tier};

    fn stats(id: u64, generated: usize, finish: FinishReason, slo_met: bool) -> RequestStats {
        RequestStats {
            id,
            stream: id as usize,
            strategy: "dense".to_string(),
            tier: Tier::Standard,
            prompt_tokens: 4,
            generated_tokens: generated,
            generated: vec![7; generated],
            admitted_step: 0,
            arrival_s: 0.0,
            queue_delay_s: 0.0,
            first_token_s: 0.0,
            ttft_s: 0.01 * (id + 1) as f64,
            tbt_mean_s: 0.001,
            preemptions: 0,
            slo_met,
            completion_s: 1.0,
            service_s: 0.1,
            throughput_tps: 1.0,
            hit_rate: 1.0,
            flash_bytes: 0.0,
            dram_bytes: 0.0,
            finish,
            degraded: false,
            attempts: 1,
        }
    }

    /// Ten arrivals: six completed (four within SLO), one cancelled by
    /// patience, one expired, two shed.
    fn hand_built() -> (Vec<GenRequest>, ServeReport) {
        let requests: Vec<GenRequest> = (0..10)
            .map(|i| {
                let r = GenRequest::new(i, vec![1, 2, 3, 4], 8, StrategySpec::Dense);
                if i == 6 {
                    r.with_cancel_after_tokens(3)
                } else {
                    r
                }
            })
            .collect();
        let mut served: Vec<RequestStats> = (0..6)
            .map(|i| stats(i, 8, FinishReason::Completed, i < 4))
            .collect();
        served.push(stats(6, 3, FinishReason::Cancelled, true));
        served.push(stats(7, 5, FinishReason::DeadlineExpired, false));
        let generated: usize = served.iter().map(|r| r.generated_tokens).sum();
        // a real (tiny) open-loop report as the template, so the test keeps
        // compiling as the report grows fields; every field the metrics
        // read is then set by hand
        let model = lm::build_synthetic(&lm::ModelConfig::tiny(), 1).unwrap();
        let device = hwsim::DeviceConfig::apple_a18(4.0).with_dram_bytes(400_000);
        let mut engine = serve::ServeEngine::new(model, serve::ServeConfig::new(device)).unwrap();
        let mut report = engine
            .run_open_loop_requests(vec![GenRequest::new(0, vec![1], 1, StrategySpec::Dense)])
            .unwrap();
        report.requests = served;
        report.total_prefill_tokens = 32;
        report.total_generated_tokens = generated;
        report.makespan_s = 2.0;
        report.aggregate_tps = generated as f64 / 2.0;
        let ol = report.open_loop.as_mut().unwrap();
        ol.arrived = 10;
        ol.admitted = 8;
        ol.shed = 2;
        ol.shed_queue_full = 2;
        ol.completed = 6;
        ol.cancelled = 1;
        ol.deadline_expired = 1;
        ol.failed = 0;
        ol.tbt = Percentiles {
            p50_s: 0.002,
            p95_s: 0.004,
            p99_s: 0.005,
        };
        (requests, report)
    }

    #[test]
    fn failed_frac_and_goodput_follow_their_definitions() {
        let (requests, report) = hand_built();
        assert!(check(&requests, &report).is_empty());
        let o = Outcome::of(&report).unwrap();
        // shed 2 + expired 1 of 10; the cancelled request is not a failure
        assert_eq!(o.failed_frac, 0.3);
        assert_eq!(o.failed_requests(), 3);
        assert_eq!(o.failed_requests() as f64 / o.arrived as f64, o.failed_frac);
        // four completed requests met their SLO; the cancelled one did too
        // but did not complete, so it is a miss
        assert_eq!(o.slo_attainment, 0.4);
        assert_eq!(o.sim_goodput_tps, 4.0 * 8.0 / 2.0);
        assert_eq!(o.tokens(), 32 + 6 * 8 + 3 + 5);
    }

    #[test]
    fn percentiles_rest_on_completed_requests_and_report_their_count() {
        let (_, report) = hand_built();
        let o = Outcome::of(&report).unwrap();
        assert_eq!(o.ttft.count, 6);
        // nearest rank over 0.01..0.06: p50 is the 3rd value, p95 the 6th
        assert_eq!(o.ttft.p50, 0.03);
        assert_eq!(o.ttft.tail, 0.06);
        assert_eq!(o.tbt.count, 6 * 8 + 3 + 5);
        assert_eq!((o.tbt.p50, o.tbt.tail), (0.002, 0.005));
        let q = Quantiles::of(&(1..=200).map(f64::from).collect::<Vec<_>>(), 0.99);
        assert_eq!((q.p50, q.tail, q.count), (100.0, 198.0, 200));
    }

    #[test]
    fn checks_catch_broken_conservation_and_budgets() {
        let (requests, mut report) = hand_built();
        report.requests[0].generated_tokens = 7;
        report.requests[0].generated.pop();
        report.open_loop.as_mut().unwrap().shed = 1;
        let bad = check(&requests, &report);
        assert_eq!(bad.len(), 2, "{bad:?}");
        assert!(bad[0].starts_with("conservation"));
        assert!(bad[1].contains("generated 7 of a 8-token budget"));
    }

    #[test]
    fn digests_see_every_token_and_every_bit() {
        let (_, report) = hand_built();
        let mut other = report.clone();
        assert_eq!(output_digest(&report), output_digest(&other));
        assert_eq!(report_digest(&report), report_digest(&other));
        other.requests[3].generated[0] = 8;
        assert_ne!(output_digest(&report), output_digest(&other));
        let mut nudged = report.clone();
        nudged.makespan_s = f64::from_bits(report.makespan_s.to_bits() + 1);
        assert_ne!(report_digest(&report), report_digest(&nudged));
        assert_eq!(output_digest(&report), output_digest(&nudged));
    }
}
