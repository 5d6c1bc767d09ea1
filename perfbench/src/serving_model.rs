//! The compressed serving model `serve_open` and `fleet_burst` share.
//!
//! d128 x 8 layers with `seq_len` 256, compressed with the per-layer
//! policy LUC chose in `adapt` plus asymmetric W8 per-row activation
//! quantization, then packed: layers at W8 or narrower take the
//! integer-code decode route, the W16 layers the cached f32 route.

use edge_llm::compress::{apply_activation_quant, apply_policy};
use edge_llm::luc::CompressionPolicy;
use edge_llm::model::{EdgeModel, ModelConfig};
use edge_llm::quant::{BitWidth, QuantScheme};
use edge_llm::telemetry;
use edge_llm::tensor::TensorRng;
use std::time::Instant;

/// Per-layer `bits:prune_ratio`, as LUC chose it in `adapt`.
pub const POLICY: &str = "8:0,2:0,16:0.75,16:0.5,2:0,2:0,2:0,4:0";

/// The serving model's shape.
pub fn config() -> ModelConfig {
    ModelConfig::edge_base().with_seq_len(256)
}

/// Weight bit-widths of the policy's layers, in layer order.
pub fn layer_bits() -> Vec<BitWidth> {
    CompressionPolicy::parse_compact(POLICY)
        .expect("the serving policy parses")
        .layers()
        .iter()
        .map(|l| l.bits)
        .collect()
}

/// The uncompressed checkpoint, initialized from the seed.
pub fn fixture(seed: u64) -> Result<EdgeModel, String> {
    let mut rng = TensorRng::seed_from(seed);
    EdgeModel::new(config(), &mut rng).map_err(|e| e.to_string())
}

/// A compressed, packed copy of the checkpoint and what preparing it
/// cost, milliseconds.
pub struct Prepared {
    /// The model as served.
    pub model: EdgeModel,
    /// `apply_policy` plus activation quantization.
    pub apply_ms: f64,
    /// `pack_frozen_weights`.
    pub pack_ms: f64,
}

/// Compresses and packs a copy of `fixture`.
pub fn prepare(fixture: &EdgeModel) -> Result<Prepared, String> {
    let mut model = fixture.clone();
    let policy = CompressionPolicy::parse_compact(POLICY).map_err(|e| e.to_string())?;
    let t = Instant::now();
    {
        let _s = telemetry::span("core");
        apply_policy(&mut model, &policy).map_err(|e| e.to_string())?;
        apply_activation_quant(&mut model, Some(QuantScheme::asymmetric(BitWidth::W8)))
            .map_err(|e| e.to_string())?;
    }
    let apply_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    {
        let _s = telemetry::span("model");
        model.pack_frozen_weights().map_err(|e| e.to_string())?;
    }
    let pack_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok(Prepared {
        model,
        apply_ms,
        pack_ms,
    })
}

/// `(lo..=hi)` spread evenly over `n` values and shuffled: every seed
/// gets the same length mix in a different order.
pub fn stratified(n: usize, (lo, hi): (usize, usize), rng: &mut TensorRng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n)
        .map(|i| lo + (i * (hi - lo + 1)) / n.max(1))
        .collect();
    rng.shuffle(&mut v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_covers_every_layer() {
        assert_eq!(layer_bits().len(), config().n_layers);
    }

    #[test]
    fn stratified_spans_the_range() {
        let mut rng = TensorRng::seed_from(1);
        let mut v = stratified(8, (32, 96), &mut rng);
        v.sort_unstable();
        assert_eq!(v[0], 32);
        assert!(v[7] <= 96 && v[7] >= 88);
    }
}
