//! `adapt`: a closed loop of on-device Edge-LLM adaptation at the
//! `ExperimentConfig::edge_default()` shape.
//!
//! Fixture (timed, not set-up): model init and source-task pretraining,
//! standing in for the checkpoint a device receives. Set-up: LUC profile
//! and DP search, `apply_policy`, and the modeled schedule search. Timed
//! phase: `AdaptiveTuner::step` calls over a round-robin window of depth
//! 3. Outside timing: evaluation with the learned-voting policy
//! `run_method` builds.

use crate::report::Outcome;
use crate::stats::{mean, median, ms, pct};
use crate::trace;
use edge_llm::data::{Batch, Dataset, TaskGenerator};
use edge_llm::luc::{profile, search_policy, SearchAlgorithm};
use edge_llm::model::{
    fit_learned_weights, load_model, save_model, AdaptiveTuner, EdgeModel, LayerWindow,
    ModelConfig, Sgd, StepPhases, VotingCombiner, VotingPolicy, WindowSchedule,
};
use edge_llm::oracle::ModelOracle;
use edge_llm::pipeline::{ExperimentConfig, LUC_BIT_CHOICES, LUC_RATIO_CHOICES};
use edge_llm::resilience::{DivergenceGuard, ResilienceConfig};
use edge_llm::tensor::TensorRng;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Evaluation samples (12 supervised facts each). `edge_default` uses 16;
/// 8x as many keeps the sampling error of the accuracy small next to its
/// spread across adaptation data.
const EVAL_SAMPLES: usize = 128;

/// The device's checkpoint and data, built from the seed.
struct Fixture {
    cfg: ExperimentConfig,
    model_cfg: ModelConfig,
    model: EdgeModel,
    train: Dataset,
    eval: Dataset,
    calib: Batch,
}

fn dataset(task: &dyn TaskGenerator, n: usize, seq_len: usize, rng: &mut TensorRng) -> Dataset {
    Dataset::from_samples((0..n).map(|_| task.sample(seq_len, rng)).collect())
}

/// The device's checkpoint is fixed: model init, source-task pretraining
/// and the calibration batch come from `edge_default`'s own seed, as in
/// `run_method`. The benchmark seed draws the adaptation data the device
/// collects (training and evaluation sets and their order). Pretraining
/// takes most of the fixture's time, so its result is kept in `out/`.
fn fixture(seed: u64) -> Result<Fixture, String> {
    let cfg = ExperimentConfig::edge_default();
    let task = cfg.task.build();
    let source = cfg.task.build_with_salt(1);
    let model_cfg = cfg.model.clone().with_vocab(task.vocab_size());
    let mut fixed = TensorRng::seed_from(cfg.seed);
    let mut model = EdgeModel::new(model_cfg.clone(), &mut fixed).map_err(|e| e.to_string())?;
    let pre_train = dataset(
        source.as_ref(),
        cfg.train_samples,
        model_cfg.seq_len,
        &mut fixed,
    );
    let cache = crate::out_dir().join(format!("adapt-fixture-{:016x}.ckpt", exe_hash()?));
    match std::fs::read(&cache)
        .ok()
        .and_then(|b| load_model(&mut b.as_slice()).ok())
    {
        Some(m) if m.config() == &model_cfg => model = m,
        _ => {
            let windows: Vec<LayerWindow> = (1..=model_cfg.n_layers)
                .map(|e| LayerWindow { start: 0, end: e })
                .collect();
            let mut tuner = AdaptiveTuner::new(WindowSchedule::Ordered(windows));
            let mut opt = Sgd::new(cfg.lr);
            for it in 0..cfg.pretrain_iterations {
                let b = pre_train.batch_at(it * cfg.batch, cfg.batch);
                tuner
                    .step(&mut model, &mut opt, &b.tokens, &b.targets, b.batch)
                    .map_err(|e| e.to_string())?;
            }
            store(&cache, &model)?;
        }
    }
    let calib_set = dataset(
        source.as_ref(),
        cfg.batch * 2,
        model_cfg.seq_len,
        &mut fixed,
    );
    let calib = calib_set.batch_at(0, cfg.batch * 2);

    let mut rng = TensorRng::seed_from(seed);
    let mut train = dataset(
        task.as_ref(),
        cfg.train_samples,
        model_cfg.seq_len,
        &mut rng,
    );
    let eval = dataset(task.as_ref(), EVAL_SAMPLES, model_cfg.seq_len, &mut rng);
    train.shuffle(&mut rng);
    Ok(Fixture {
        cfg,
        model_cfg,
        model,
        train,
        eval,
        calib,
    })
}

/// FNV-1a hash of the running executable: the pretrained fixture is a
/// function of the program alone, so a cached copy is reused only by the
/// exact binary that wrote it.
fn exe_hash() -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    Ok(bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    }))
}

/// Writes the checkpoint atomically (temporary file, then rename).
fn store(path: &std::path::Path, model: &EdgeModel) -> Result<(), String> {
    let mut buf = Vec::new();
    save_model(model, &mut buf).map_err(|e| e.to_string())?;
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    std::fs::create_dir_all(crate::out_dir())
        .and_then(|()| std::fs::write(&tmp, &buf))
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Wall times of one set-up, milliseconds.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    total_s: f64,
    profile_ms: f64,
    search_ms: f64,
    evaluations: usize,
    apply_ms: f64,
    schedule_ms: f64,
}

fn setup(fx: &Fixture) -> Result<(EdgeModel, String, SetupTimes), String> {
    let cfg = &fx.cfg;
    let mut model = fx.model.clone();
    let t_all = Instant::now();
    let t = Instant::now();
    let prof = {
        let _s = edge_llm::telemetry::span("luc");
        let mut oracle =
            ModelOracle::new(&model, &fx.calib.tokens, &fx.calib.targets, fx.calib.batch);
        profile(&mut oracle, &LUC_BIT_CHOICES, &LUC_RATIO_CHOICES).map_err(|e| e.to_string())?
    };
    let profile_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let found = {
        let _s = edge_llm::telemetry::span("luc");
        search_policy(&prof, cfg.budget, SearchAlgorithm::DynamicProgramming)
            .map_err(|e| e.to_string())?
    };
    let search_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    {
        let _s = edge_llm::telemetry::span("core");
        edge_llm::compress::apply_policy(&mut model, &found.policy).map_err(|e| e.to_string())?;
    }
    let apply_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    {
        let _s = edge_llm::telemetry::span("hw");
        edge_llm::schedule::modeled_training_iteration(
            &fx.model_cfg,
            &found.policy,
            cfg.window_depth.min(fx.model_cfg.n_layers),
            cfg.batch,
            &cfg.device,
        )
        .map_err(|e| e.to_string())?;
    }
    let schedule_ms = t.elapsed().as_secs_f64() * 1e3;
    let times = SetupTimes {
        total_s: t_all.elapsed().as_secs_f64(),
        profile_ms,
        search_ms,
        evaluations: found.evaluations,
        apply_ms,
        schedule_ms,
    };
    Ok((model, found.policy.to_compact_string(), times))
}

/// The learned-voting evaluation `run_method` performs for Edge-LLM.
fn evaluate(fx: &Fixture, model: &EdgeModel) -> Result<f32, String> {
    let batch = fx.cfg.batch;
    let voting = {
        let _s = edge_llm::telemetry::span("model");
        let calib = fx.train.batch_at(0, batch.min(fx.train.len()));
        let exits: Vec<usize> = (0..model.n_layers()).collect();
        let mut weights =
            fit_learned_weights(model, &exits, &calib.tokens, &calib.targets, calib.batch)
                .map_err(|e| e.to_string())?;
        for w in &mut weights {
            *w = w.powi(3);
        }
        VotingPolicy {
            exits,
            combiner: VotingCombiner::Learned(weights),
        }
    };
    let _s = edge_llm::telemetry::span("core");
    edge_llm::eval::evaluate(model, &voting, &fx.eval, batch)
        .map(|r| r.accuracy)
        .map_err(|e| e.to_string())
}

/// One pass: set-ups, then at least `iterations` steps and at least
/// `seconds` of stepping, then the checks.
fn pass(fx: &Fixture, seconds: f64) -> Result<Outcome, String> {
    let cfg = &fx.cfg;
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut model = None;
    let mut policy = String::new();
    for rep in 0..SETUP_REPS {
        let (m, p, times) = setup(fx)?;
        if rep > 0 && p != policy {
            out.problem(format!("LUC chose {p} on set-up {rep}, {policy} before"));
        }
        policy = p;
        model = Some(m);
        setups.push(times);
    }
    let mut model = model.expect("at least one set-up");
    println!("adapt: LUC policy {policy}");

    let res = ResilienceConfig::default();
    let mut guard = DivergenceGuard::new(res.spike_factor, res.ewma_alpha, res.warmup_steps);
    let depth = cfg.window_depth.min(fx.model_cfg.n_layers);
    let mut tuner = AdaptiveTuner::new(WindowSchedule::RoundRobin { depth });
    let mut opt = Sgd::new(cfg.lr);
    let budget = Duration::from_secs_f64(seconds);
    let mut measured = Duration::ZERO;
    let mut step_ms = Vec::new();
    let mut gap_ms = Vec::new();
    let mut phases: Vec<StepPhases> = Vec::new();
    let mut act_peak = 0usize;
    let mut accuracy = None;
    let mut failed_steps = 0u64;
    let mut spikes = 0u64;
    let mut prev_start: Option<Instant> = None;
    let mut it = 0usize;
    while it < cfg.iterations || measured < budget {
        let start = Instant::now();
        if let Some(p) = prev_start {
            gap_ms.push((start - p).as_secs_f64() * 1e3);
        }
        prev_start = Some(start);
        let b = fx.train.batch_at(it * cfg.batch, cfg.batch);
        let t0 = Instant::now();
        let report = {
            let _s = edge_llm::telemetry::span("model");
            tuner
                .step(&mut model, &mut opt, &b.tokens, &b.targets, b.batch)
                .map_err(|e| e.to_string())?
        };
        step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if !(report.loss.is_finite() && report.grad_norm.is_finite()) {
            failed_steps += 1;
        } else if guard.observe(report.loss, report.grad_norm).is_some() {
            // a loss spike: `resilient_adapt` would roll back here, but the
            // step itself succeeded
            spikes += 1;
        }
        act_peak = act_peak.max(report.activation_bytes);
        phases.push(report.phases);
        measured += start.elapsed();
        it += 1;
        if it == cfg.iterations {
            // the adaptation the paper's accuracy is quoted at; the eval
            // is outside timing and breaks the gap sequence
            accuracy = Some(evaluate(fx, &model)?);
            prev_start = None;
        }
    }
    let accuracy = accuracy.expect("loop runs at least `iterations` steps");

    out.attempted = step_ms.len() as u64;
    out.failed = failed_steps;
    if failed_steps > 0 {
        out.problem(format!(
            "{failed_steps} steps had a non-finite loss or gradient"
        ));
    }
    if !(0.0..=1.0).contains(&accuracy) {
        out.problem(format!("accuracy {accuracy} outside [0, 1]"));
    }

    // One round-robin cycle visits every window position once. Step
    // times cluster by the window's exit depth, so the median step sits
    // between clusters; the median over whole cycles does not.
    let cycle = fx.model_cfg.n_layers.div_ceil(depth);
    let cycle_ms: Vec<f64> = step_ms
        .chunks_exact(cycle)
        .map(|c| c.iter().sum::<f64>() / cycle as f64)
        .collect();
    let gap_cycle_ms: Vec<f64> = gap_ms
        .chunks_exact(cycle)
        .map(|c| c.iter().sum::<f64>() / cycle as f64)
        .collect();
    out.basis_ms = median(&cycle_ms);
    let setup_s = median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>());
    let tokens = (cfg.batch * fx.model_cfg.seq_len * step_ms.len()) as f64;
    let e = &mut out.e2e;
    e.put("setup_s", setup_s, "s");
    e.put("latency_ms_p50", median(&cycle_ms), "ms");
    e.put("latency_ms_tail", pct(&step_ms, 95.0), "ms");
    e.put("gap_ms_p50", median(&gap_cycle_ms), "ms");
    e.put("gap_ms_tail", pct(&gap_ms, 95.0), "ms");
    e.put("throughput_per_s", tokens / measured.as_secs_f64(), "1/s");
    e.put("quality_pct", f64::from(accuracy) * 100.0, "%");
    e.put("memory_bytes", act_peak as f64, "bytes");

    let n = &mut out.named;
    n.put("setup_s", setup_s, "s");
    n.put("adapt_iter_ms_p50", median(&step_ms), "ms");
    n.put("adapt_iter_ms_cycle_p50", median(&cycle_ms), "ms");
    n.put("adapt_iter_ms_p95", pct(&step_ms, 95.0), "ms");
    n.put("adapt_accuracy", f64::from(accuracy), "ratio");
    n.put("adapt_peak_act_bytes", act_peak as f64, "bytes");
    n.put("adapt_steps", step_ms.len() as f64, "count");
    n.put("adapt_guard_spikes", spikes as f64, "count");

    let col = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let ph = |f: fn(&StepPhases) -> u64| phases.iter().map(|p| ms(f(p))).collect::<Vec<_>>();
    let l = &mut out.layer;
    l.put("luc.profile_ms", col(|s| s.profile_ms), "ms");
    l.put("luc.search_ms", col(|s| s.search_ms), "ms");
    l.put("luc.evaluations", col(|s| s.evaluations as f64), "count");
    l.put("hw.schedule_search_ms", col(|s| s.schedule_ms), "ms");
    l.put("core.apply_policy_ms", col(|s| s.apply_ms), "ms");
    l.put("model.step_ms_p50", median(&ph(|p| p.total_ns)), "ms");
    l.put("model.forward_ms_p50", median(&ph(|p| p.forward_ns)), "ms");
    l.put(
        "model.backward_ms_p50",
        median(&ph(|p| p.backward_ns)),
        "ms",
    );
    l.put(
        "model.optimizer_ms_p50",
        median(&ph(|p| p.optimizer_ns)),
        "ms",
    );
    let per_step = |f: fn(&StepPhases) -> f64| mean(&phases.iter().map(f).collect::<Vec<_>>());
    l.put(
        "model.requant_layers_per_step",
        per_step(|p| p.requant_layers as f64),
        "count",
    );
    l.put(
        "model.cache_invalidations_per_step",
        per_step(|p| p.cache_invalidations as f64),
        "count",
    );
    l.put("model.act_bytes_peak", act_peak as f64, "bytes");
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
    let fx = fixture(seed)?;
    let fixture_s = t.elapsed().as_secs_f64();
    let mut base = pass(&fx, seconds)?;
    base.named.put("fixture_s", fixture_s, "s");
    if !traced {
        return Ok((base, None));
    }
    let traced = trace::traced(|| pass(&fx, seconds))?;
    Ok((base, Some(traced)))
}
