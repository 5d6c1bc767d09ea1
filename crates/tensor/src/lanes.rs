//! Fixed-width integer lane micro-kernel.
//!
//! The packed-code integer GEMM (`edge-llm-quant`) and the standalone
//! integer matmul accumulate products of small signed codes. Their inner
//! loops run on `[i32; LANES]` chunks: a fixed-width array of independent
//! lane accumulators with no cross-lane dependency inside a chunk, which
//! is exactly the shape LLVM's autovectorizer turns into SIMD
//! multiply-accumulates — no intrinsics, no dependencies, portable to
//! every target the workspace builds for.
//!
//! Unlike the f32 kernels (where reassociating a reduction changes the
//! bits, so the blocked kernels must preserve ascending-`p` order per
//! element), integer addition is exact and associative: splitting a dot
//! product into lane partials and spilling them into a wide accumulator
//! in any fixed order produces **the same integer** as the plain
//! ascending-index loop. The §5d reduction-order discipline is therefore
//! satisfied for free, and "scalar vs SIMD" equality is an algebraic
//! identity that the oracle tests still verify empirically.
//!
//! Overflow contract: callers must keep `|a[i] * b[i]| <= 2^17` (true for
//! any product of an 8-bit code with a zero-centred 8-bit code, the widest
//! operands the packed decode path feeds in). Lane partials are spilled
//! into the `i64` total every [`SPILL_CHUNK`] elements, so an `i32` lane
//! accumulates at most `SPILL_CHUNK / LANES * 2^17 <= 2^29` — no overflow.

/// Lanes per chunk. Eight `i32`s fill one 256-bit vector register; on
/// 128-bit targets the compiler splits the chunk into two dependency-free
/// halves, which still vectorizes cleanly.
pub const LANES: usize = 8;

/// Elements accumulated in `i32` lanes between spills to the `i64` total.
pub const SPILL_CHUNK: usize = 4096;

/// Whether this CPU runs AVX2 instructions, probed at run time.
///
/// The workspace builds for baseline x86-64, where every `[i32; N]` lane
/// MAC lowers to SSE2 and the 32-bit multiply is emulated. A kernel that
/// wants wider lanes compiles its `#[inline(always)]` body a second time
/// inside a `#[target_feature(enable = "avx2")]` function and calls that
/// instance only when this returns `true`: the binary stays portable and
/// the CPU, not a build setting, picks the instance. Off x86-64 this is
/// always `false`, so the portable instance is the only path there. The
/// standard library caches the probe, so the call costs one load.
#[inline]
pub fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// One lane-wise multiply-accumulate step: `acc[l] += a[l] * b[l]`.
///
/// `N` is a compile-time width so the loop fully unrolls into straight-line
/// lane operations. Shared by the in-crate helpers below and by the
/// packed-word kernels in `edge-llm-quant`, which unpack a 32-bit code word
/// into an `[i32; N]` chunk and feed it straight through here.
#[inline(always)]
pub fn mac_i32_lanes<const N: usize>(acc: &mut [i32; N], a: &[i32; N], b: &[i32; N]) {
    for l in 0..N {
        acc[l] += a[l] * b[l];
    }
}

/// One `i16` lane-wise multiply-accumulate step: `acc[l] += a[l] * b[l]`.
///
/// Narrow lanes double the SIMD throughput: a 256-bit register holds 16
/// `i16` lanes against 8 `i32` lanes, so codes whose products fit `i16`
/// (e.g. 2-bit weight codes times centred 8-bit activation codes,
/// `|product| <= 3 * 255 = 765`) get one vector op where the `i32` kernel
/// needs two. The price is a much tighter overflow contract: **the caller
/// must bound the number of accumulated products per lane** so that
/// `|acc[l]|` stays within `i16` — there is no in-kernel spill. Callers
/// spill into a wide total every few dozen steps (see the packed W2
/// kernel in `edge-llm-quant`). Debug builds panic on a violated budget;
/// release builds would wrap and corrupt the product, so the spill
/// cadence is asserted by the max-magnitude oracle tests.
#[inline(always)]
pub fn mac_i16_lanes<const N: usize>(acc: &mut [i16; N], a: &[i16; N], b: &[i16; N]) {
    for l in 0..N {
        acc[l] += a[l] * b[l];
    }
}

/// Exact dot product `Σ a[i] * b[i]` of two equal-length `i32` slices,
/// accumulated in `i64`.
///
/// The body runs [`LANES`]-wide chunks through [`mac_i32_lanes`] and
/// spills into the `i64` total every [`SPILL_CHUNK`] elements; the ragged
/// tail is accumulated directly in `i64`. See the module docs for the
/// overflow contract. The result is bit-identical to the scalar
/// ascending-index `i64` loop because every partial sum is exact.
///
/// # Panics
///
/// Panics (debug assertion) if the slices differ in length.
#[inline]
pub fn dot_i32_i64(a: &[i32], b: &[i32]) -> i64 {
    debug_assert_eq!(a.len(), b.len());
    let mut total: i64 = 0;
    let mut a_chunks = a.chunks_exact(SPILL_CHUNK);
    let mut b_chunks = b.chunks_exact(SPILL_CHUNK);
    for (ac, bc) in a_chunks.by_ref().zip(b_chunks.by_ref()) {
        total += dot_i32_block(ac, bc);
    }
    total += dot_i32_block(a_chunks.remainder(), b_chunks.remainder());
    total
}

/// Exact sum `Σ a[i]` of an `i32` slice in `i64` (used for the zero-point
/// correction term of the packed integer GEMM).
#[inline]
pub fn sum_i32_i64(a: &[i32]) -> i64 {
    let mut lanes = [0i64; LANES];
    let mut chunks = a.chunks_exact(LANES);
    for c in chunks.by_ref() {
        for l in 0..LANES {
            lanes[l] += c[l] as i64;
        }
    }
    let mut total: i64 = lanes.iter().sum();
    for &v in chunks.remainder() {
        total += v as i64;
    }
    total
}

/// Dot product of one spill block (`<= SPILL_CHUNK` elements) with `i32`
/// lane accumulators.
#[inline]
fn dot_i32_block(a: &[i32], b: &[i32]) -> i64 {
    let mut lanes = [0i32; LANES];
    let mut a_chunks = a.chunks_exact(LANES);
    let mut b_chunks = b.chunks_exact(LANES);
    for (ac, bc) in a_chunks.by_ref().zip(b_chunks.by_ref()) {
        let ac: &[i32; LANES] = ac.try_into().expect("LANES-sized chunk");
        let bc: &[i32; LANES] = bc.try_into().expect("LANES-sized chunk");
        mac_i32_lanes(&mut lanes, ac, bc);
    }
    let mut total: i64 = lanes.iter().map(|&v| v as i64).sum();
    for (&av, &bv) in a_chunks.remainder().iter().zip(b_chunks.remainder()) {
        total += (av as i64) * (bv as i64);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_dot(a: &[i32], b: &[i32]) -> i64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| (x as i64) * (y as i64))
            .sum()
    }

    #[test]
    fn dot_matches_scalar_over_ragged_lengths() {
        // deterministic pseudo-random codes in the packed-GEMM range
        let gen = |seed: i64, i: usize| ((seed * 31 + i as i64 * 17) % 511 - 255) as i32;
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000, SPILL_CHUNK + 3] {
            let a: Vec<i32> = (0..len).map(|i| gen(3, i)).collect();
            let b: Vec<i32> = (0..len).map(|i| gen(11, i)).collect();
            assert_eq!(dot_i32_i64(&a, &b), scalar_dot(&a, &b), "len {len}");
        }
    }

    #[test]
    fn dot_survives_max_magnitude_codes_without_overflow() {
        // worst case under the overflow contract: every product is +-2^17
        // over more than one spill block
        let n = SPILL_CHUNK * 2 + 5;
        let a = vec![512i32; n];
        let b: Vec<i32> = (0..n)
            .map(|i| if i % 2 == 0 { 256 } else { -256 })
            .collect();
        assert_eq!(dot_i32_i64(&a, &b), scalar_dot(&a, &b));
    }

    #[test]
    fn sum_matches_scalar() {
        for len in [0usize, 1, 5, 8, 31, 1024] {
            let a: Vec<i32> = (0..len).map(|i| (i as i32 % 509) - 254).collect();
            let want: i64 = a.iter().map(|&v| v as i64).sum();
            assert_eq!(sum_i32_i64(&a), want, "len {len}");
        }
    }

    #[test]
    fn mac_lanes_is_plain_lane_fma() {
        let mut acc = [1i32; 4];
        mac_i32_lanes(&mut acc, &[2, -3, 4, 0], &[5, 5, -5, 9]);
        assert_eq!(acc, [11, -14, -19, 1]);
    }

    #[test]
    fn mac_i16_lanes_matches_i32_reference() {
        let mut acc16 = [3i16, -7, 0, 100];
        let mut acc32 = [3i32, -7, 0, 100];
        let a = [-255i16, 255, 3, -3];
        let b = [3i16, 3, -255, 255];
        mac_i16_lanes(&mut acc16, &a, &b);
        mac_i32_lanes(&mut acc32, &a.map(i32::from), &b.map(i32::from));
        assert_eq!(acc16.map(i32::from), acc32);
    }
}
