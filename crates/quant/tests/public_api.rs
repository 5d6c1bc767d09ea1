//! The crate's public accessors, as a caller outside the crate uses them:
//! each must agree bit-for-bit with the conversion it exposes a piece of,
//! so a kernel built on the accessors computes what `dequantize` does.

use edge_llm_quant::{
    fake_quant, fake_quant_in_place, packed_decode_matmul, quantize_activations, sqnr_db, BitWidth,
    QuantScheme, QuantizedTensor,
};
use edge_llm_tensor::{max_abs_diff, Tensor, TensorRng};

#[test]
fn row_codes_scales_and_zero_points_rebuild_dequantize_bitwise() {
    let mut rng = TensorRng::seed_from(21);
    let x = Tensor::randn(5, 19, 1.0, &mut rng);
    for bits in [BitWidth::W2, BitWidth::W4, BitWidth::W8] {
        for scheme in [QuantScheme::asymmetric(bits), QuantScheme::symmetric(bits)] {
            // the default granularity is per-row: group g is row g
            let q = QuantizedTensor::quantize(&x, scheme).unwrap();
            let dense = q.dequantize();
            for r in 0..x.rows() {
                let rebuilt: Vec<f32> = q
                    .row_codes(r)
                    .iter()
                    .map(|&c| (c as f32 - q.zero_point(r)) * q.scale(r))
                    .collect();
                assert_eq!(rebuilt, dense.row(r), "{scheme:?} row {r}");
            }
        }
    }
}

#[test]
fn activation_codes_rebuild_the_row_within_half_a_step() {
    // the packed GEMM's activation operand: centred codes times the row
    // scale reproduce each value to within rounding
    let mut rng = TensorRng::seed_from(22);
    let x = Tensor::randn(3, 40, 2.0, &mut rng);
    let x_q = quantize_activations(&x, QuantScheme::asymmetric(BitWidth::W8)).unwrap();
    assert_eq!(x_q.shape(), x.shape());
    for r in 0..x.rows() {
        let s = x_q.scale(r);
        for (&c, &v) in x_q.row(r).iter().zip(x.row(r)) {
            assert!(
                (c as f32 * s - v).abs() <= 0.5 * s + 1e-6,
                "row {r}: {c} * {s} vs {v}"
            );
        }
    }
}

#[test]
fn in_place_fake_quant_matches_fake_quant_and_reports_its_error() {
    let mut rng = TensorRng::seed_from(23);
    let x = Tensor::randn(4, 24, 1.0, &mut rng);
    let scheme = QuantScheme::symmetric(BitWidth::W4);
    let want = fake_quant(&x, scheme).unwrap();
    let mut y = x.clone();
    let err = fake_quant_in_place(&mut y, scheme).unwrap();
    assert_eq!(y.as_slice(), want.as_slice());
    assert_eq!(err, max_abs_diff(&x, &want));
}

#[test]
fn sqnr_rises_with_bit_width_and_rejects_mismatched_shapes() {
    let mut rng = TensorRng::seed_from(24);
    let x = Tensor::randn(8, 32, 1.0, &mut rng);
    let db = |bits| sqnr_db(&x, &fake_quant(&x, QuantScheme::symmetric(bits)).unwrap());
    let (w2, w4, w8) = (db(BitWidth::W2), db(BitWidth::W4), db(BitWidth::W8));
    assert!(w2 < w4 && w4 < w8, "W2 {w2} dB, W4 {w4} dB, W8 {w8} dB");
    assert_eq!(sqnr_db(&x, &Tensor::zeros(8, 31)), f32::NEG_INFINITY);
}

#[test]
fn kernel_errors_name_the_operation_and_shapes() {
    let mut rng = TensorRng::seed_from(25);
    let x_q = quantize_activations(
        &Tensor::randn(1, 16, 1.0, &mut rng),
        QuantScheme::asymmetric(BitWidth::W8),
    )
    .unwrap();
    let w_q = QuantizedTensor::quantize(
        &Tensor::randn(3, 8, 0.3, &mut rng),
        QuantScheme::symmetric(BitWidth::W4),
    )
    .unwrap();
    let err = packed_decode_matmul(&x_q, &w_q, 1).unwrap_err();
    assert_eq!(
        err.to_string(),
        "shape mismatch in packed_decode_matmul: lhs 1x16, rhs 3x8"
    );
}
