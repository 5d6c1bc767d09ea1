//! Kernel probe of the traced run: the packed integer GEMM and the dense
//! f32 `x·Wᵀ` it replaces, at the serving model's exact Linear shapes
//! (m = 1 and m = 8 rows) and at the adaptation model's training shapes
//! (m = 96 rows).
//!
//! The integer figure per site is the mean per-call time over the
//! serving model's integer-route layers, each at its own bit-width. MACs
//! and bytes moved are computed from tensor sizes, not measured.

use crate::report::{Metrics, SITES};
use crate::serving_model;
use crate::stats::median;
use edge_llm::model::ModelConfig;
use edge_llm::pipeline::ExperimentConfig;
use edge_llm::quant::{
    packed_decode_matmul, quantize_activations, BitWidth, QuantScheme, QuantizedTensor,
};
use edge_llm::telemetry;
use edge_llm::tensor::{matmul_a_bt, Tensor, TensorRng};
use std::hint::black_box;
use std::time::Instant;

/// Timed samples per kernel; the reported figure is their median.
const SAMPLES: usize = 9;
/// Minimum wall time of one sample, seconds (calls are batched to it).
const SAMPLE_S: f64 = 0.002;

/// `(d_in, d_out)` of each Linear site.
fn site_shapes(cfg: &ModelConfig) -> [(usize, usize); 4] {
    let d = cfg.d_model;
    [(d, 3 * d), (d, d), (d, cfg.d_ff), (cfg.d_ff, d)]
}

/// Median microseconds per call of `f`, calls batched so each timed
/// sample lasts at least [`SAMPLE_S`]; each sample runs in a `layer` span.
fn time_us(layer: &'static str, mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let t = Instant::now();
    f()?;
    let once = t.elapsed().as_secs_f64().max(1e-7);
    let calls = ((SAMPLE_S / once).ceil() as usize).clamp(1, 10_000);
    let mut per_call = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let _s = telemetry::span(layer);
        let t = Instant::now();
        for _ in 0..calls {
            f()?;
        }
        per_call.push(t.elapsed().as_secs_f64() * 1e6 / calls as f64);
    }
    Ok(median(&per_call))
}

fn packed_weight_bytes(k: usize, n: usize, bits: BitWidth) -> usize {
    (k * n * bits.bits() as usize).div_ceil(8) + 4 * n
}

/// Runs the probe and records `quant.*` and `tensor.*` metrics.
///
/// # Errors
///
/// Propagates kernel errors.
pub fn run(out: &mut Metrics) -> Result<(), String> {
    let mut rng = TensorRng::seed_from(0x9e0be);
    let act = QuantScheme::asymmetric(BitWidth::W8);
    let cfg = serving_model::config();
    // the integer route's layers and how many take each width
    let widths: Vec<BitWidth> = serving_model::layer_bits()
        .into_iter()
        .filter(|&b| b <= BitWidth::W8)
        .collect();
    for m in [1usize, 8] {
        let x = Tensor::randn(m, cfg.d_model, 1.0, &mut rng);
        let us = time_us("quant", || {
            black_box(quantize_activations(black_box(&x), act).map_err(|e| e.to_string())?);
            Ok(())
        })?;
        out.put(format!("quant.act_quant_us.m{m}"), us, "us");
    }
    for (site, (k, n)) in SITES.iter().zip(site_shapes(&cfg)) {
        let w = Tensor::randn(n, k, 0.05, &mut rng);
        for m in [1usize, 8] {
            let x = Tensor::randn(m, k, 1.0, &mut rng);
            let xq = quantize_activations(&x, act).map_err(|e| e.to_string())?;
            let mut total = 0.0;
            for &bits in &widths {
                let wq = QuantizedTensor::quantize(&w, QuantScheme::symmetric(bits))
                    .map_err(|e| e.to_string())?;
                total += time_us("quant", || {
                    black_box(
                        packed_decode_matmul(&xq, black_box(&wq), 1).map_err(|e| e.to_string())?,
                    );
                    Ok(())
                })?;
            }
            let pgemm = total / widths.len() as f64;
            let dense = time_us("tensor", || {
                black_box(matmul_a_bt(black_box(&x), black_box(&w)).map_err(|e| e.to_string())?);
                Ok(())
            })?;
            out.put(format!("quant.pgemm_us.{site}.m{m}"), pgemm, "us");
            out.put(format!("tensor.matmul_us.{site}.m{m}"), dense, "us");
            let w_bytes: Vec<String> = [BitWidth::W2, BitWidth::W4, BitWidth::W8]
                .iter()
                .map(|&b| format!("W{}={}", b.bits(), packed_weight_bytes(k, n, b)))
                .collect();
            println!(
                "probe {site} m={m} k={k} n={n}: macs/call={} (computed) | f32 bytes moved={} | \
                 integer bytes moved (packed weights+scales, i32 activation codes, f32 out) {} \
                 +{} | dense {dense:.2} us, integer {pgemm:.2} us",
                m * k * n,
                4 * (m * k + k * n + m * n),
                w_bytes.join(" "),
                4 * m * k + 4 * m * n,
            );
        }
    }
    let train = ExperimentConfig::edge_default().model;
    let m = 96;
    for (site, (k, n)) in SITES.iter().zip(site_shapes(&train)) {
        let w = Tensor::randn(n, k, 0.05, &mut rng);
        let x = Tensor::randn(m, k, 1.0, &mut rng);
        let dense = time_us("tensor", || {
            black_box(matmul_a_bt(black_box(&x), black_box(&w)).map_err(|e| e.to_string())?);
            Ok(())
        })?;
        out.put(format!("tensor.matmul_us.train.{site}"), dense, "us");
        println!(
            "probe train {site} m={m} k={k} n={n}: macs/call={} (computed) | f32 bytes moved={} \
             | dense {dense:.2} us",
            m * k * n,
            4 * (m * k + k * n + m * n),
        );
    }
    Ok(())
}
