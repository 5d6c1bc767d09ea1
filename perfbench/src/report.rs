//! What a run reports: the end-to-end and per-layer metric sets named in
//! `BENCHMARK.json`, the operation counts, and the final JSON line.

use std::collections::BTreeMap;

/// End-to-end metrics, reported on every workload (see RATIONALE.md for
/// what each one measures on each workload), in output order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("gap_ms_p50", "ms"),
    ("gap_ms_tail", "ms"),
    ("throughput_per_s", "1/s"),
    ("quality_pct", "%"),
    ("memory_bytes", "bytes"),
];

/// The workspace crates the traced run attributes self time to
/// (`telemetry` records the spans and owns none).
pub const LAYERS: [&str; 8] = [
    "luc", "hw", "core", "model", "quant", "tensor", "serve", "fleet",
];

/// Linear sites the kernel probe times.
pub const SITES: [&str; 4] = ["qkv", "proj", "fc1", "fc2"];

/// Every per-layer metric of the traced run with its unit. A layer the
/// workload does not call reports 0: it did no work there.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("luc.profile_ms", "ms"),
        ("luc.search_ms", "ms"),
        ("luc.evaluations", "count"),
        ("hw.schedule_search_ms", "ms"),
        ("core.apply_policy_ms", "ms"),
        ("model.step_ms_p50", "ms"),
        ("model.forward_ms_p50", "ms"),
        ("model.backward_ms_p50", "ms"),
        ("model.optimizer_ms_p50", "ms"),
        ("model.requant_layers_per_step", "count"),
        ("model.cache_invalidations_per_step", "count"),
        ("model.act_bytes_peak", "bytes"),
        ("model.pack_ms", "ms"),
        ("model.decode_pass_ms_p50", "ms"),
        ("model.decode_pass_ms_p99", "ms"),
        ("serve.step_ms_p50", "ms"),
        ("serve.step_ms_p99", "ms"),
        ("serve.self_ms_p50", "ms"),
        ("serve.rows_per_step_mean", "count"),
        ("serve.queue_wait_ms_p50", "ms"),
        ("serve.queue_wait_ms_p95", "ms"),
        ("serve.prefill_share", "ratio"),
        ("serve.adapter_hit_ratio", "ratio"),
        ("fleet.ticks", "count"),
        ("fleet.ms_per_tick", "ms"),
        ("fleet.tokens_per_tick", "count"),
        ("fleet.queue_wait_ticks_p50", "count"),
        ("fleet.queue_wait_ticks_p95", "count"),
        ("fleet.decode_pass_ms_p50", "ms"),
        ("fleet.replays", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for site in SITES {
        for m in ["m1", "m8"] {
            v.push((format!("quant.pgemm_us.{site}.{m}"), "us"));
        }
    }
    v.push(("quant.act_quant_us.m1".into(), "us"));
    v.push(("quant.act_quant_us.m8".into(), "us"));
    for site in SITES {
        for m in ["m1", "m8"] {
            v.push((format!("tensor.matmul_us.{site}.{m}"), "us"));
        }
    }
    for site in SITES {
        v.push((format!("tensor.matmul_us.train.{site}"), "us"));
    }
    for layer in LAYERS {
        v.push((format!("self_ms.{layer}"), "ms"));
    }
    v.push(("telemetry.overhead_pct".into(), "%"));
    v.push(("telemetry.events".into(), "count"));
    v
}

/// Named values in insertion order; a later `put` of a name overwrites.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
    order: Vec<(String, &'static str)>,
}

impl Metrics {
    /// Records `name = value unit`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if self.values.insert(name.clone(), value).is_none() {
            self.order.push((name, unit));
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// `(name, value, unit)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> + '_ {
        self.order
            .iter()
            .map(|(n, u)| (n.as_str(), self.values[n], *u))
    }
}

/// Everything one workload pass produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the workload sent (steps, requests, sessions).
    pub attempted: u64,
    /// Operations that did not succeed.
    pub failed: u64,
    /// Output checks that failed, one line each.
    pub problems: Vec<String>,
    /// The generic end-to-end metrics of [`END_TO_END`].
    pub e2e: Metrics,
    /// The same run's workload-specific metrics, printed for readers.
    pub named: Metrics,
    /// Per-layer metrics (filled by the traced pass).
    pub layer: Metrics,
    /// Median compute time per operation, milliseconds: the figure the
    /// traced and untraced passes are compared on for the tracing
    /// overhead.
    pub basis_ms: f64,
}

impl Outcome {
    /// Records a failed output check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }
}

/// Formats a metric value for JSON: every digit Rust's shortest
/// round-trip representation gives, never NaN or infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metric map
/// of the requested set, each metric with its unit.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Picks the `wanted` metrics out of `have`, recording a problem for any
/// that is missing or not finite (a workload bug, never silently 0).
pub fn select(
    wanted: &[(String, &'static str)],
    have: &Metrics,
    default_zero: bool,
    problems: &mut Vec<String>,
) -> Vec<(String, f64, &'static str)> {
    wanted
        .iter()
        .map(|(name, unit)| {
            let v = match have.get(name) {
                Some(v) if v.is_finite() => v,
                Some(v) => {
                    problems.push(format!("metric {name} is not finite ({v})"));
                    0.0
                }
                None if default_zero => 0.0,
                None => {
                    problems.push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            (name.clone(), v, *unit)
        })
        .collect()
}
