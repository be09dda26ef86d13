//! Every metric the benchmark prints, and the `BENCHMARK.json` built from
//! them. One table feeds both, so a printed name can never drift from the
//! manifest (a test pins the committed file to [`benchmark_json`]).

use crate::workloads::Workload;

/// Which clock a metric is measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall clock: how fast the Rust code computes the schedule.
    Host,
    /// `hwsim` virtual clock: how the simulated phone would serve it.
    Device,
    /// Counts that both clocks share.
    Both,
}

/// Whether smaller or larger is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One printed metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Clock.
    pub clock: Clock,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may worsen. `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    clock: Clock,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        clock,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, clock: Clock) -> Metric {
    Metric {
        name,
        unit,
        better,
        clock,
        bound: None,
    }
}

use Better::{Higher, Lower};
use Clock::{Both, Device, Host};

/// The end-to-end metrics, printed by untraced runs (`--trace 0`).
///
/// `failed_frac` is printed in the human-readable table but enters the
/// JSON as its complement `served_frac`: a bound is a share of the median,
/// and the failed share's seed-to-seed spread relative to its median is two
/// to eight times that of the served share.
pub const END_TO_END: [Metric; 11] = [
    e2e("setup_s", "s", Lower, Host, 0.25),
    e2e("wall_tps", "tok/s", Higher, Host, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, Host, 0.1),
    e2e("sim_tps", "tok/s", Higher, Device, 0.15),
    e2e("sim_goodput_tps", "tok/s", Higher, Device, 0.15),
    e2e("sim_ttft_p50_ms", "ms", Lower, Device, 0.2),
    e2e("sim_ttft_p95_ms", "ms", Lower, Device, 0.15),
    e2e("sim_tbt_p50_ms", "ms", Lower, Device, 0.1),
    e2e("sim_tbt_p99_ms", "ms", Lower, Device, 0.15),
    e2e("slo_attainment", "frac", Higher, Device, 0.2),
    e2e("served_frac", "frac", Higher, Both, 0.15),
];

/// The per-layer metrics, printed by traced runs (`--trace 1`).
pub const PER_LAYER: [Metric; 36] = [
    layer("tensor.matvec_cols_ns", "ns", Lower, Host),
    layer("tensor.matvec_cols_bytes", "B", Lower, Host),
    layer("tensor.matvec_batch_ns", "ns", Lower, Host),
    layer("tensor.matvec_batch_bytes", "B", Lower, Host),
    layer("tensor.matmul_chunk_ns", "ns", Lower, Host),
    layer("tensor.matmul_chunk_bytes", "B", Lower, Host),
    layer("lm.decode_us_per_row", "us", Lower, Host),
    layer("lm.prefill_us_per_token", "us", Lower, Host),
    layer("core.mlp_us_per_row", "us", Lower, Host),
    layer("core.mean_density", "frac", Lower, Device),
    layer("hwsim.price_us_per_token", "us", Lower, Host),
    layer("hwsim.hit_rate", "frac", Higher, Device),
    layer("hwsim.evictions", "count", Lower, Device),
    layer("hwsim.flash_kb_per_token", "KiB", Lower, Device),
    layer("hwsim.dram_kb_per_token", "KiB", Lower, Device),
    layer("serve.dispatch_us_per_lane", "us", Lower, Host),
    layer("serve.price_us_per_lane", "us", Lower, Host),
    layer("serve.settle_us_per_lane", "us", Lower, Host),
    layer("serve.lane_width_mean", "rows", Higher, Host),
    layer("serve.chunk_height_mean", "rows", Higher, Host),
    layer("serve.queue_delay_p95_ms", "ms", Lower, Device),
    layer("serve.shed_frac.rate", "frac", Lower, Device),
    layer("serve.shed_frac.quota", "frac", Lower, Device),
    layer("serve.shed_frac.queue", "frac", Lower, Device),
    layer("serve.shed_frac.memory", "frac", Lower, Device),
    layer("serve.deadline_expired", "count", Lower, Device),
    layer("serve.cancelled", "count", Lower, Device),
    layer("serve.preemptions", "count", Lower, Device),
    layer("serve.kv_swap_mb", "MiB", Lower, Device),
    layer("serve.prefix_hit_rate", "frac", Higher, Device),
    layer("serve.prefix_tokens_saved_frac", "frac", Higher, Device),
    layer("serve.kv_pages_high_water_frac", "frac", Lower, Device),
    layer("serve.pack_ms", "ms", Lower, Host),
    layer("serve.pool_builds", "count", Lower, Host),
    layer("telemetry.overhead_pct", "%", Lower, Host),
    layer("telemetry.ring_dropped", "count", Lower, Host),
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 40;

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"servebench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"servebench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    s.push_str(&workloads.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    s.push_str(&e2e.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    s.push_str(&layers.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

/// The result line every run prints last: `metrics` holds `(name, value)`
/// for exactly the metrics of `table`, in its order.
///
/// # Errors
///
/// Returns a description when a metric of `table` is missing, one not in
/// `table` is given, or a value is not finite.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[Metric],
    metrics: &[(&str, f64)],
) -> Result<String, String> {
    if metrics.len() != table.len() {
        return Err(format!(
            "{} metrics measured for a table of {}",
            metrics.len(),
            table.len()
        ));
    }
    let mut body = Vec::with_capacity(table.len());
    for m in table {
        let Some(&(_, value)) = metrics.iter().find(|(n, _)| *n == m.name) else {
            return Err(format!("metric `{}` was not measured", m.name));
        };
        if !value.is_finite() {
            return Err(format!("metric `{}` is not finite: {value}", m.name));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_metric_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `servebench --emit-manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        let valid = |s: &str, extra: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for n in &names {
            assert!(valid(n, "_.-"), "bad name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            names.len(),
            "duplicate metric or workload name"
        );
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains(['\n', '"']));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
    }

    #[test]
    fn result_line_prints_every_metric_of_the_table() {
        let table = &END_TO_END[..2];
        let line =
            result_line(true, 10, 0, table, &[("wall_tps", 2.5), ("setup_s", 0.125)]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 0.125, \"unit\": \"s\"}, \"wall_tps\": {\"value\": 2.5, \"unit\": \
             \"tok/s\"}}}"
        );
        assert!(result_line(true, 1, 0, table, &[("setup_s", 1.0)]).is_err());
        assert!(result_line(true, 1, 0, table, &[("setup_s", 1.0), ("x", 1.0)]).is_err());
        assert!(result_line(
            true,
            1,
            0,
            table,
            &[("setup_s", 1.0), ("wall_tps", f64::NAN)]
        )
        .is_err());
    }
}
