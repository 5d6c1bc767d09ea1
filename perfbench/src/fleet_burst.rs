//! `fleet_burst`: closed batches of `burst`-shaped loadgen traffic (most
//! sessions arrive on one tick, with mixed priorities) sent through
//! `run_fleet_with_adapters` on 2 workers x 4 slots over the compressed
//! serving model, spread over 8 tenants with seeded low-rank adapters.
//!
//! Each fleet call serves one burst; the run repeats bursts (each from
//! its own sub-seed) until `seconds` of fleet time are measured. Short
//! prompts and long outputs make it decode-heavy, the opposite mix to
//! `serve_open` on the same decode layers, and it is the only workload
//! that drives the fleet's lock-step tick loop, its worker threads and
//! the per-slot adapter path.

use crate::report::Outcome;
use crate::serving_model::{self, stratified};
use crate::stats::{median, ms, pct};
use crate::trace;
use edge_llm::model::{AdapterTarget, EdgeModel, TenantAdapter};
use edge_llm::serve::{run_solo_with_adapter, FinishReason};
use edge_llm::telemetry;
use edge_llm::tensor::TensorRng;
use edge_llm_fleet::{
    run_fleet_with_adapters, Arrival, FleetConfig, FleetRequest, ScenarioSpec, SessionFinish,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sessions per burst: three waves through the fleet's 8 slots.
const SESSIONS: usize = 24;
/// Tenants the sessions are spread over.
const TENANTS: usize = 8;
/// Rank of every tenant's adapter.
const ADAPTER_RANK: usize = 4;
/// Inclusive prompt-length and generation-budget ranges, tokens.
const PROMPT_LEN: (usize, usize) = (4, 16);
const NEW_TOKENS: (usize, usize) = (32, 96);
/// Sessions per burst re-decoded alone with their tenant's adapter.
const SOLO_CHECKS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

fn fleet_config() -> FleetConfig {
    FleetConfig {
        workers: 2,
        batch_per_worker: 4,
        // deep enough that the burst is queued, never shed
        queue_depth: SESSIONS,
        ..FleetConfig::default()
    }
}

/// Tenant `t`'s adapter: rank-4 deltas on the first block's attention
/// and the last block's MLP.
fn adapters(model: &EdgeModel, seed: u64) -> Vec<(String, TenantAdapter)> {
    let cfg = model.config();
    let last = cfg.n_layers - 1;
    let sites = [
        (0, AdapterTarget::Qkv),
        (0, AdapterTarget::Proj),
        (last, AdapterTarget::Fc1),
        (last, AdapterTarget::Fc2),
    ];
    (0..TENANTS)
        .map(|t| {
            let adapter =
                TenantAdapter::seeded(cfg, seed ^ ((t as u64 + 1) << 20), ADAPTER_RANK, &sites);
            (format!("tenant-{t}"), adapter)
        })
        .collect()
}

/// Burst `burst` of the run: the loadgen's burst shape with its own
/// sub-seed, generation budgets stratified so every burst asks for the
/// same number of tokens.
fn traffic(seed: u64, burst: usize, model: &EdgeModel) -> Vec<FleetRequest> {
    let cfg = model.config();
    let sub_seed = seed.wrapping_mul(0x9e37_79b9).wrapping_add(burst as u64);
    let spec = ScenarioSpec {
        name: format!("burst{burst}"),
        seed: sub_seed,
        sessions: SESSIONS,
        span_ticks: 16,
        arrival: Arrival::Burst {
            at_tick: 2,
            percent: 75,
        },
        prompt_len: PROMPT_LEN,
        max_new_tokens: NEW_TOKENS,
        priorities: vec![0, 1, 1, 2],
        sampled_percent: 50,
        tenants: TENANTS,
        faults: Vec::new(),
    };
    let mut reqs = spec.generate(cfg.vocab_size, cfg.n_layers);
    let mut rng = TensorRng::seed_from(sub_seed ^ 0xb0d6e7);
    for (r, budget) in reqs
        .iter_mut()
        .zip(stratified(SESSIONS, NEW_TOKENS, &mut rng))
    {
        r.req.max_new_tokens = budget;
    }
    reqs
}

fn pass(fixture: &EdgeModel, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut apply_ms = Vec::new();
    let mut pack_ms = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let p = serving_model::prepare(fixture)?;
        let tenants = {
            let _s = telemetry::span("model");
            let tenants = adapters(&p.model, seed);
            for (_, a) in &tenants {
                a.resolve(&p.model).map_err(|e| e.to_string())?;
            }
            tenants
        };
        setup_s.push(t.elapsed().as_secs_f64());
        apply_ms.push(p.apply_ms);
        pack_ms.push(p.pack_ms);
        prepared = Some((p.model, tenants));
    }
    let (model, tenants) = prepared.expect("at least one set-up");
    let cfg = fleet_config();

    let budget = Duration::from_secs_f64(seconds);
    let mut measured = Duration::ZERO;
    let mut wall_ms = Vec::new();
    let mut pass_p50_ms = Vec::new();
    let mut pass_p95_ms = Vec::new();
    let mut wait_p50 = Vec::new();
    let mut wait_p95 = Vec::new();
    let mut ticks = 0u64;
    let mut replays = 0usize;
    let mut tokens = 0u64;
    let mut attempted = 0usize;
    let mut succeeded = 0usize;
    let mut rng = TensorRng::seed_from(seed ^ 0x5010);
    let mut burst = 0usize;
    while measured < budget || burst < 2 {
        let reqs = traffic(seed, burst, &model);
        let t0 = Instant::now();
        let run = {
            let _s = telemetry::span("fleet");
            run_fleet_with_adapters(&model, &cfg, &tenants, &reqs).map_err(|e| e.to_string())?
        };
        let wall = t0.elapsed();
        measured += wall;
        wall_ms.push(wall.as_secs_f64() * 1e3);
        let r = &run.report;
        pass_p50_ms.push(ms(r.decode_token.p50_ns));
        pass_p95_ms.push(ms(r.decode_token.p95_ns));
        wait_p50.push(r.queue_wait_ticks.p50_ns as f64);
        wait_p95.push(r.queue_wait_ticks.p95_ns as f64);
        ticks += r.ticks;
        replays += r.replays;
        tokens += r.tokens_generated;

        // output checks, outside timing: success is only a completed
        // session with its whole budget (the report's `served` also
        // counts rejected and evicted sessions)
        attempted += reqs.len();
        for fr in &reqs {
            let ok = matches!(run.outcome(&fr.req.id), Some(o)
                if o.finish == SessionFinish::Served(FinishReason::Completed)
                    && o.tokens.len() == fr.req.max_new_tokens);
            if ok {
                succeeded += 1;
            } else {
                out.problem(format!("session {} did not complete", fr.req.id));
            }
        }
        for _ in 0..SOLO_CHECKS {
            let fr = &reqs[rng.index(reqs.len())];
            let tenant = fr
                .req
                .tenant
                .as_deref()
                .expect("every session has a tenant");
            let adapter = tenants
                .iter()
                .find(|(name, _)| name == tenant)
                .map(|(_, a)| a.resolve(&model))
                .transpose()
                .map_err(|e| e.to_string())?
                .map(Arc::new);
            let solo =
                run_solo_with_adapter(&model, &fr.req, adapter).map_err(|e| e.to_string())?;
            match run.outcome(&fr.req.id) {
                Some(o) if o.tokens == solo.tokens => {}
                _ => out.problem(format!(
                    "session {} differs from its solo decode",
                    fr.req.id
                )),
            }
        }
        burst += 1;
    }

    out.attempted = attempted as u64;
    out.failed = (attempted - succeeded) as u64;
    out.basis_ms = median(&wall_ms);
    let total_s = measured.as_secs_f64();
    let tok_per_s = tokens as f64 / total_s;
    let setup = median(&setup_s);
    let resident = model.decode_weight_bytes() as f64;
    let e = &mut out.e2e;
    e.put("setup_s", setup, "s");
    e.put("latency_ms_p50", median(&wall_ms), "ms");
    e.put("latency_ms_tail", pct(&wall_ms, 90.0), "ms");
    e.put("gap_ms_p50", median(&pass_p50_ms), "ms");
    e.put("gap_ms_tail", median(&pass_p95_ms), "ms");
    e.put("throughput_per_s", tok_per_s, "1/s");
    e.put(
        "quality_pct",
        succeeded as f64 / attempted as f64 * 100.0,
        "%",
    );
    e.put("memory_bytes", resident, "bytes");

    let nm = &mut out.named;
    nm.put("setup_s", setup, "s");
    nm.put("fleet_tok_per_s", tok_per_s, "1/s");
    nm.put("resident_weight_bytes", resident, "bytes");
    nm.put("bursts", burst as f64, "count");
    nm.put("burst_ms_p50", median(&wall_ms), "ms");

    let l = &mut out.layer;
    l.put("core.apply_policy_ms", median(&apply_ms), "ms");
    l.put("model.pack_ms", median(&pack_ms), "ms");
    l.put("fleet.ticks", ticks as f64 / burst as f64, "count");
    l.put(
        "fleet.ms_per_tick",
        total_s * 1e3 / ticks.max(1) as f64,
        "ms",
    );
    l.put(
        "fleet.tokens_per_tick",
        tokens as f64 / ticks.max(1) as f64,
        "count",
    );
    l.put("fleet.queue_wait_ticks_p50", median(&wait_p50), "count");
    l.put("fleet.queue_wait_ticks_p95", median(&wait_p95), "count");
    l.put("fleet.decode_pass_ms_p50", median(&pass_p50_ms), "ms");
    l.put("fleet.replays", replays as f64, "count");
    Ok(out)
}

/// Runs the workload; with `traced`, a traced pass follows the untraced
/// one and supplies the per-layer metrics.
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<(Outcome, Option<trace::Traced>), String> {
    let t = Instant::now();
    let fixture = serving_model::fixture(seed)?;
    let fixture_s = t.elapsed().as_secs_f64();
    let mut base = pass(&fixture, seed, seconds)?;
    base.named.put("fixture_s", fixture_s, "s");
    if !traced {
        return Ok((base, None));
    }
    let mut traced = trace::traced(|| pass(&fixture, seed, seconds))?;
    let counters = telemetry::counter_totals(&traced.events);
    let hits = counters.get("serve.adapter.hit").copied().unwrap_or(0) as f64;
    let misses = counters.get("serve.adapter.miss").copied().unwrap_or(0) as f64;
    let ratio = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    traced
        .outcome
        .layer
        .put("serve.adapter_hit_ratio", ratio, "ratio");
    Ok((base, Some(traced)))
}
