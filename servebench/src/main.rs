//! `servebench`: the two-clock open-loop serving benchmark.
//!
//! One process runs one workload:
//!
//! ```text
//! servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! servebench --emit-manifest > BENCHMARK.json
//! ```
//!
//! With `--trace 0` it serves the seeded traffic through
//! `ServeEngine::run_open_loop_requests` once untimed to warm up, then in
//! timed passes until `--seconds` is spent (at least one), checks every
//! pass, then sets the engine up again several times (`setup_s` is the
//! median) and prints the end-to-end metrics. With `--trace 1` it serves
//! one untraced and one traced pass, splits the traced run's host time by
//! engine stage, replays the layers below the engine and prints the
//! per-layer metrics. Human-readable lines come first; the last line of
//! standard output is one JSON object.

use serve::{EngineTelemetry, ServeEngine, ServeReport, TelemetryConfig};
use servebench::manifest::{self, Metric, END_TO_END, PER_LAYER};
use servebench::metrics::{check, output_digest, report_digest, Outcome};
use servebench::replay::{self, Shape};
use servebench::stages;
use servebench::workloads::{Workload, MODEL_SEED};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per untraced run: at least `MIN_SETUPS`, more while they take
/// under `SETUP_BUDGET` in total (a millisecond set-up needs many samples
/// for a steady median). `setup_s` is their median.
const MIN_SETUPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_secs(3);
/// Completed requests the TTFT percentiles must rest on.
const MIN_TTFT_SAMPLES: usize = 200;
/// Decode gaps the TBT percentiles must rest on.
const MIN_TBT_SAMPLES: usize = 1000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    EmitManifest,
}

const USAGE: &str = "usage: servebench --workload <decode-dipca|prefix-fleet> \
                     --seed <n> --seconds <s> --trace <0|1>\n       servebench --emit-manifest";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        if flag == "--emit-manifest" {
            return Ok(Command::EmitManifest);
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    match parse_args(std::env::args().skip(1)) {
        Ok(Command::EmitManifest) => {
            print!("{}", manifest::benchmark_json());
            ExitCode::SUCCESS
        }
        Ok(Command::Run(args)) => match run(&args, process_start) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("servebench: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Builds the model and engine and serves the fixed warm-up traffic once,
/// so weight mirrors, scratch buffers and pools exist before timing.
fn set_up(w: Workload) -> Result<ServeEngine, String> {
    let model = lm::build_synthetic(&w.model_config(), MODEL_SEED).map_err(|e| e.to_string())?;
    let mut engine = ServeEngine::new(model, w.serve_config()).map_err(|e| e.to_string())?;
    engine
        .run_open_loop_requests(w.warmup_requests())
        .map_err(|e| format!("warm-up: {e}"))?;
    Ok(engine)
}

/// One timed pass: the report and its host seconds.
fn timed_pass(
    engine: &mut ServeEngine,
    requests: &[serve::GenRequest],
) -> Result<(ServeReport, f64), String> {
    let arrivals = requests.to_vec();
    let t = Instant::now();
    let report = engine
        .run_open_loop_requests(arrivals)
        .map_err(|e| format!("pass failed: {e}"))?;
    Ok((report, t.elapsed().as_secs_f64()))
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn run(args: &Args, process_start: Instant) -> Result<(), String> {
    let w = args.workload;
    let requests = w.requests(args.seed);
    let config = w.serve_config();
    println!(
        "servebench workload={} seed={} trace={} model={} slots={} scheduler={} requests={} \
         kernel_arch={:?} cores={}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        w.model_config().name,
        config.max_concurrent,
        config.scheduler,
        requests.len(),
        tensor::kernels::kernel_arch(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    // ---- first set-up: from process start until the engine is ready ----
    let mut engine = set_up(w)?;
    let cold_setup_s = process_start.elapsed().as_secs_f64();

    // ---- warm-up pass: the seeded traffic once, untimed, so the heap has
    // grown to the run's size before anything is timed; its report is the
    // reference every later pass must reproduce ----
    let (report, warm_wall) = timed_pass(&mut engine, &requests)?;
    let mut bad = check(&requests, &report);
    let reference = report_digest(&report);

    // ---- timed passes (untraced) ----
    let budget = Duration::from_secs_f64(args.seconds);
    let timed = Instant::now();
    let mut walls = Vec::new();
    if !args.trace {
        loop {
            let (pass, wall) = timed_pass(&mut engine, &requests)?;
            bad.extend(check(&requests, &pass));
            if report_digest(&pass) != reference {
                bad.push(format!(
                    "timed pass {} report differs from the warm-up pass",
                    walls.len() + 1
                ));
            }
            walls.push(wall);
            let spent = timed.elapsed();
            let per_pass = spent / walls.len() as u32;
            if spent + per_pass > budget {
                break;
            }
        }
    }

    let outcome = Outcome::of(&report)?;
    if outcome.ttft.count < MIN_TTFT_SAMPLES {
        bad.push(format!(
            "TTFT rests on {} completed requests (< {MIN_TTFT_SAMPLES})",
            outcome.ttft.count
        ));
    }
    if outcome.tbt.count < MIN_TBT_SAMPLES {
        bad.push(format!(
            "TBT rests on {} decode gaps (< {MIN_TBT_SAMPLES})",
            outcome.tbt.count
        ));
    }
    let tokens = outcome.tokens() as f64;
    println!(
        "warm-up pass: {warm_wall:.3} s host, {} tokens, {:.1} tok/s (untimed)",
        outcome.tokens(),
        tokens / warm_wall
    );
    let tps: Vec<f64> = walls.iter().map(|w| tokens / w).collect();
    for (i, (wall, tps)) in walls.iter().zip(&tps).enumerate() {
        println!(
            "timed pass {}: {wall:.3} s host, {} tokens, {tps:.1} tok/s",
            i + 1,
            outcome.tokens()
        );
    }
    println!(
        "outputs digest {:016x}, report digest {:016x}; arrived {} = shed {} + completed {} + \
         cancelled {} + expired {} + failed {}",
        output_digest(&report),
        report_digest(&report),
        outcome.arrived,
        outcome.shed,
        outcome.completed,
        outcome.cancelled,
        outcome.expired,
        outcome.failed
    );

    let (table, metrics): (&[Metric], Vec<(&str, f64)>) = if args.trace {
        let untraced_tps = tokens / warm_wall;
        let layers = traced(w, &mut engine, &requests, &report, untraced_tps, &mut bad)?;
        (&PER_LAYER, layers)
    } else {
        let peak_rss = peak_rss_mib()?;
        // the timed set-ups run after the passes, so the engines they build
        // and drop cannot disturb the timed heap; each is timed from its own
        // start, so every sample measures the same work
        drop(engine);
        let mut setup_s = Vec::new();
        let all = Instant::now();
        while setup_s.len() < MIN_SETUPS || all.elapsed() < SETUP_BUDGET {
            let t = Instant::now();
            let ready = set_up(w)?;
            setup_s.push(t.elapsed().as_secs_f64());
            drop(ready);
        }
        // a run that fails a check counts every request as failed
        let failed_frac = if bad.is_empty() {
            outcome.failed_frac
        } else {
            1.0
        };
        let ms = 1e3;
        let rows = [
            (
                "setup_s",
                median(&setup_s),
                format!(
                    "median of {} set-ups ({:.4}-{:.4} s)",
                    setup_s.len(),
                    setup_s.iter().copied().fold(f64::INFINITY, f64::min),
                    setup_s.iter().copied().fold(0.0, f64::max)
                ),
            ),
            (
                "wall_tps",
                median(&tps),
                format!("median of {} timed passes", walls.len()),
            ),
            (
                "peak_rss_mb",
                peak_rss,
                "VmHWM after the passes".to_string(),
            ),
            (
                "sim_tps",
                outcome.sim_tps,
                format!("{} generated tokens", outcome.generated_tokens),
            ),
            (
                "sim_goodput_tps",
                outcome.sim_goodput_tps,
                format!("over {:.4} virtual s", outcome.makespan_s),
            ),
            (
                "sim_ttft_p50_ms",
                outcome.ttft.p50 * ms,
                format!("n={} completed", outcome.ttft.count),
            ),
            (
                "sim_ttft_p95_ms",
                outcome.ttft.tail * ms,
                format!("n={} completed", outcome.ttft.count),
            ),
            (
                "sim_tbt_p50_ms",
                outcome.tbt.p50 * ms,
                format!("n={} decode gaps", outcome.tbt.count),
            ),
            (
                "sim_tbt_p99_ms",
                outcome.tbt.tail * ms,
                format!("n={} decode gaps", outcome.tbt.count),
            ),
            (
                "slo_attainment",
                outcome.slo_attainment,
                format!("of {} arrived", outcome.arrived),
            ),
            (
                "served_frac",
                1.0 - failed_frac,
                format!("of {} arrived", outcome.arrived),
            ),
        ];
        println!(
            "{:<18} {:>16} {:<6} {:<6} samples",
            "metric", "value", "unit", "clock"
        );
        for (name, value, samples) in &rows {
            let m = END_TO_END
                .iter()
                .find(|m| m.name == *name)
                .expect("row of the table");
            println!(
                "{name:<18} {value:>16.6} {:<6} {:<6} {samples}",
                m.unit,
                format!("{:?}", m.clock).to_lowercase()
            );
        }
        println!(
            "{:<18} {:>16.6} {:<6} {:<6} (shed + expired + failed) / arrived; 1 - served_frac",
            "failed_frac", failed_frac, "frac", "both"
        );
        println!(
            "first set-up, from process start: {cold_setup_s:.6} s (not in setup_s: it also \
             covers request generation and runs on a fresh heap)"
        );
        (&END_TO_END, rows.iter().map(|(n, v, _)| (*n, *v)).collect())
    };

    for b in &bad {
        println!("CHECK FAILED: {b}");
    }
    let correct = bad.is_empty();
    let attempted = outcome.arrived as u64;
    let failed = if correct {
        outcome.failed_requests() as u64
    } else {
        attempted
    };
    println!(
        "{}",
        manifest::result_line(correct, attempted, failed, table, &metrics)?
    );
    Ok(())
}

/// Looks up engine series by name without creating new ones.
struct Series<'a> {
    tel: &'a mut EngineTelemetry,
    known: usize,
}

impl Series<'_> {
    fn check(&self, name: &str) -> Result<(), String> {
        if self.tel.registry().len() != self.known {
            return Err(format!("the engine records no series `{name}`"));
        }
        Ok(())
    }

    fn counter(&mut self, name: &str) -> Result<f64, String> {
        let id = self.tel.pipeline_mut().registry.counter(name, "");
        self.check(name)?;
        Ok(self.tel.registry().counter_value(id))
    }

    fn gauge(&mut self, name: &str) -> Result<f64, String> {
        let id = self.tel.pipeline_mut().registry.gauge(name, "");
        self.check(name)?;
        Ok(self.tel.registry().gauge_value(id))
    }

    /// `(count, sum)` of a histogram.
    fn histogram(&mut self, name: &str) -> Result<(u64, f64), String> {
        let id = self.tel.pipeline_mut().registry.histogram(
            name,
            "",
            &telemetry::registry::WIDTH_BOUNDS,
        );
        self.check(name)?;
        let r = self.tel.registry();
        Ok((r.histogram_count(id), r.histogram_sum(id)))
    }
}

/// The traced run: one pass with telemetry attached, the stage split of its
/// host time, the layer replay and the per-layer metrics.
fn traced(
    w: Workload,
    engine: &mut ServeEngine,
    requests: &[serve::GenRequest],
    untraced: &ServeReport,
    untraced_tps: f64,
    bad: &mut Vec<String>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let ol = untraced.open_loop.as_ref().ok_or("no open-loop block")?;
    // every event the run can emit: run start/end, one plan and one settle
    // per token at most, an admit or shed per arrival, a completion or
    // fault per request, a preempt and a resume per preemption
    let tokens = untraced.total_prefill_tokens + untraced.total_generated_tokens;
    let capacity = 2 * tokens + 4 * requests.len() + 2 * ol.preemptions + 64;
    engine.attach_telemetry(EngineTelemetry::new(
        TelemetryConfig::default().with_ring_capacity(capacity),
        &[],
    ));
    let (report, wall) = timed_pass(engine, requests)?;
    let mut tel = engine.take_telemetry().ok_or("telemetry vanished")?;
    if report_digest(&report) != report_digest(untraced) {
        bad.push("the traced report differs from the untraced one".to_string());
    }
    let dropped = tel.ring().dropped();
    if dropped != 0 {
        bad.push(format!("the ring dropped {dropped} events"));
    }
    let split = stages::split(tel.ring().iter())?;
    if !split.tiles() {
        bad.push(format!("stage intervals do not tile the run: {split:?}"));
    }
    let known = tel.registry().len();
    let mut series = Series {
        tel: &mut tel,
        known,
    };
    let decode_tokens = series.counter("serve_decode_tokens_total")?;
    if decode_tokens != report.total_generated_tokens as f64 {
        bad.push(format!(
            "{decode_tokens} decode gaps recorded for {} generated tokens",
            report.total_generated_tokens
        ));
    }
    let (lanes, lane_rows) = series.histogram("serve_lane_width")?;
    let (chunks, chunk_rows) = series.histogram("serve_chunk_height")?;
    let evictions = series.counter("serve_cache_evictions_total")?;
    let pack_s = series.counter("serve_pack_seconds_total")?;
    let pool_builds = series.gauge("serve_pool_builds")?;
    let mean = |sum: f64, n: u64| if n == 0 { 0.0 } else { sum / n as f64 };
    let shape = Shape {
        lane_rows: lane_rows as u64,
        lane_width: mean(lane_rows, lanes),
        chunk_rows: chunk_rows as u64,
        chunk_height: mean(chunk_rows, chunks),
    };
    let traced_tps = tokens as f64 / wall;
    println!(
        "traced pass: {wall:.3} s host, {traced_tps:.1} tok/s; {} ring events, {dropped} dropped; \
         run {} ns = dispatch {} + price {} + settle {} ({})",
        tel.ring().len(),
        split.run_ns,
        split.dispatch_ns,
        split.price_ns,
        split.settle_ns,
        if split.tiles() { "exact" } else { "NOT exact" }
    );

    let model = lm::build_synthetic(&w.model_config(), MODEL_SEED).map_err(|e| e.to_string())?;
    let times = replay::replay(w, &model, requests, shape)?;
    let width = (shape.lane_width.round() as usize).max(1);
    let height = (shape.chunk_height.round() as usize).max(1);
    let [cols, batch, chunk] = replay::kernels(&model, width, height);
    println!(
        "replay: {} lane rows (width {width}), {} chunk rows (height {height}), {} tokens priced",
        times.decode_rows, times.prefill_rows, times.priced
    );

    let plans = split.plans.max(1) as f64;
    let per_token = |x: f64| x / tokens.max(1) as f64;
    let arrived = ol.arrived.max(1) as f64;
    let paged = report.paged_kv.unwrap_or_default();
    let prefix_lookups = (paged.prefix_hits + paged.prefix_misses).max(1) as f64;
    let metrics = vec![
        ("tensor.matvec_cols_ns", cols.ns),
        ("tensor.matvec_cols_bytes", cols.bytes),
        ("tensor.matvec_batch_ns", batch.ns),
        ("tensor.matvec_batch_bytes", batch.bytes),
        ("tensor.matmul_chunk_ns", chunk.ns),
        ("tensor.matmul_chunk_bytes", chunk.bytes),
        ("lm.decode_us_per_row", times.lm_decode_us_per_row()),
        ("lm.prefill_us_per_token", times.lm_prefill_us_per_token()),
        ("core.mlp_us_per_row", times.core_us_per_row()),
        ("core.mean_density", report.mean_density),
        ("hwsim.price_us_per_token", times.price_us_per_token()),
        ("hwsim.hit_rate", report.cache_hit_rate),
        ("hwsim.evictions", evictions),
        (
            "hwsim.flash_kb_per_token",
            per_token(report.flash_bytes) / 1024.0,
        ),
        (
            "hwsim.dram_kb_per_token",
            per_token(report.dram_bytes) / 1024.0,
        ),
        (
            "serve.dispatch_us_per_lane",
            split.dispatch_ns as f64 / plans / 1e3,
        ),
        (
            "serve.price_us_per_lane",
            split.price_ns as f64 / plans / 1e3,
        ),
        (
            "serve.settle_us_per_lane",
            split.settle_ns as f64 / plans / 1e3,
        ),
        ("serve.lane_width_mean", shape.lane_width),
        ("serve.chunk_height_mean", shape.chunk_height),
        ("serve.queue_delay_p95_ms", ol.queue_delay.p95_s * 1e3),
        (
            "serve.shed_frac.rate",
            ol.shed_rate_limited as f64 / arrived,
        ),
        ("serve.shed_frac.quota", ol.shed_tier_quota as f64 / arrived),
        ("serve.shed_frac.queue", ol.shed_queue_full as f64 / arrived),
        ("serve.shed_frac.memory", ol.shed_memory as f64 / arrived),
        ("serve.deadline_expired", ol.deadline_expired as f64),
        ("serve.cancelled", ol.cancelled as f64),
        ("serve.preemptions", ol.preemptions as f64),
        ("serve.kv_swap_mb", ol.kv_swap_bytes / (1024.0 * 1024.0)),
        (
            "serve.prefix_hit_rate",
            paged.prefix_hits as f64 / prefix_lookups,
        ),
        (
            "serve.prefix_tokens_saved_frac",
            paged.prefix_tokens_saved as f64
                / (paged.prefix_tokens_saved + report.total_prefill_tokens).max(1) as f64,
        ),
        (
            "serve.kv_pages_high_water_frac",
            paged.pages_high_water as f64 / paged.pool_pages.max(1) as f64,
        ),
        ("serve.pack_ms", pack_s * 1e3),
        ("serve.pool_builds", pool_builds),
        (
            "telemetry.overhead_pct",
            (untraced_tps / traced_tps - 1.0) * 100.0,
        ),
        ("telemetry.ring_dropped", dropped as f64),
    ];
    println!("{:<32} {:>16} unit", "metric", "value");
    for (name, value) in &metrics {
        let m = PER_LAYER
            .iter()
            .find(|m| m.name == *name)
            .ok_or(format!("`{name}` is not in the table"))?;
        println!("{name:<32} {value:>16.6} {}", m.unit);
    }
    Ok(metrics)
}
