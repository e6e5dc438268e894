//! AVX2 kernel tier: the four lane RNGs live in four `__m256i` registers
//! (xoshiro state word `i` of all lanes side by side), Lemire bounded
//! sampling rides `vpmuludq`, and column scans use `vpminud`/`vpmaxud`.
//! Each drive replays `CompiledSampler::pick` lane by lane: a masked
//! redraw advances only the lanes whose draw rejected, so every lane
//! consumes exactly its scalar word sequence (see the bit-exactness
//! notes in `super`).
//!
//! # Unsafe policy
//!
//! This file is the only `unsafe_code` in the crate (re-allowed below).
//! Every `pub(super)` entry point is a `#[target_feature(enable =
//! "avx2")]` function, so Rust makes the dispatchers in `super` call it
//! inside `unsafe {}`; each checks `is_x86_feature_detected!("avx2")`
//! (through `KernelTier::is_supported`) on the same call first.
//! Internal `unsafe {}` blocks are limited to 32-byte in-bounds vector
//! loads and `transmute` between `__m256i` and plain integer arrays of
//! the same size (no padding, all bit patterns valid).
#![allow(unsafe_code)]

use core::arch::x86_64::*;

use crate::engine::toward;
use crate::rng::FastRng;

/// `x <<< 23` on each 64-bit element.
#[inline]
#[target_feature(enable = "avx2")]
fn rotl23(x: __m256i) -> __m256i {
    _mm256_or_si256(_mm256_slli_epi64::<23>(x), _mm256_srli_epi64::<41>(x))
}

/// `x <<< 45` on each 64-bit element.
#[inline]
#[target_feature(enable = "avx2")]
fn rotl45(x: __m256i) -> __m256i {
    _mm256_or_si256(_mm256_slli_epi64::<45>(x), _mm256_srli_epi64::<19>(x))
}

/// `__m256i` → the four lane values (element 0 = lane 0).
#[inline]
#[target_feature(enable = "avx2")]
fn lanes_of(v: __m256i) -> [u64; 4] {
    // SAFETY: __m256i and [u64; 4] are both 32 bytes with no padding and
    // no invalid bit patterns.
    unsafe { core::mem::transmute(v) }
}

/// Four xoshiro256++ generators, state word `i` of all lanes in `s[i]`.
/// Stepping lane `j` is exactly `FastRng::next_word` on that lane.
struct Rng4x {
    s: [__m256i; 4],
}

impl Rng4x {
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load(rngs: &[FastRng; 4]) -> Rng4x {
        let st: [[u64; 4]; 4] = [
            rngs[0].state(),
            rngs[1].state(),
            rngs[2].state(),
            rngs[3].state(),
        ];
        let word = |w: usize| {
            _mm256_set_epi64x(
                st[3][w] as i64,
                st[2][w] as i64,
                st[1][w] as i64,
                st[0][w] as i64,
            )
        };
        Rng4x {
            s: [word(0), word(1), word(2), word(3)],
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn store(&self, rngs: &mut [FastRng; 4]) {
        let w: [[u64; 4]; 4] = [
            lanes_of(self.s[0]),
            lanes_of(self.s[1]),
            lanes_of(self.s[2]),
            lanes_of(self.s[3]),
        ];
        for (j, rng) in rngs.iter_mut().enumerate() {
            rng.set_state([w[0][j], w[1][j], w[2][j], w[3][j]]);
        }
    }

    /// The xoshiro256++ step on all four lanes: `(result, new_state)`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn step(&self) -> (__m256i, [__m256i; 4]) {
        let [s0, s1, s2, s3] = self.s;
        let result = _mm256_add_epi64(rotl23(_mm256_add_epi64(s0, s3)), s0);
        let t = _mm256_slli_epi64::<17>(s1);
        let s2 = _mm256_xor_si256(s2, s0);
        let s3 = _mm256_xor_si256(s3, s1);
        let s1 = _mm256_xor_si256(s1, s2);
        let s0 = _mm256_xor_si256(s0, s3);
        let s2 = _mm256_xor_si256(s2, t);
        let s3 = rotl45(s3);
        (result, [s0, s1, s2, s3])
    }

    /// One step on all four lanes (the common, unmasked first draw).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn next_words(&mut self) -> __m256i {
        let (result, s) = self.step();
        self.s = s;
        result
    }

    /// Redraws **only** the lanes whose mask element is all-ones:
    /// accepted lanes keep both their output word and their state, which
    /// is what pins each lane's word stream to its scalar replay.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn redraw_masked(&mut self, words: &mut __m256i, mask: __m256i) {
        let (result, s) = self.step();
        *words = _mm256_blendv_epi8(*words, result, mask);
        for (dst, &src) in self.s.iter_mut().zip(s.iter()) {
            *dst = _mm256_blendv_epi8(*dst, src, mask);
        }
    }
}

/// Constants of the complete-pair draw.
#[derive(Clone, Copy)]
struct PairConsts {
    lo32: __m256i,
    one: __m256i,
    nv: __m256i,
    nm1v: __m256i,
    tv: __m256i,
    tw: __m256i,
}

impl PairConsts {
    #[inline]
    #[target_feature(enable = "avx2")]
    fn new(n: u32) -> PairConsts {
        let nm1 = n - 1;
        PairConsts {
            lo32: _mm256_set1_epi64x(0xFFFF_FFFF),
            one: _mm256_set1_epi64x(1),
            nv: _mm256_set1_epi64x(n as i64),
            nm1v: _mm256_set1_epi64x(nm1 as i64),
            // Lemire rejection thresholds (accept ⇔ frac ≥ t); all
            // operands of the compares below are < 2³², so signed 64-bit
            // compare is exact.
            tv: _mm256_set1_epi64x((n.wrapping_neg() % n) as i64),
            tw: _mm256_set1_epi64x((nm1.wrapping_neg() % nm1) as i64),
        }
    }
}

/// The complete-pair draw on four lanes with masked redraw: returns
/// `v | (w << 32)` per lane (packed so one spill serves both indices).
#[inline]
#[target_feature(enable = "avx2")]
fn pair_draw(rng4: &mut Rng4x, c: PairConsts) -> __m256i {
    let mut words = rng4.next_words();
    let (mut mv, mut mw);
    loop {
        let hi = _mm256_srli_epi64::<32>(words);
        let lo = _mm256_and_si256(words, c.lo32);
        mv = _mm256_mul_epu32(hi, c.nv);
        mw = _mm256_mul_epu32(lo, c.nm1v);
        let fv = _mm256_and_si256(mv, c.lo32);
        let fw = _mm256_and_si256(mw, c.lo32);
        let rej = _mm256_or_si256(_mm256_cmpgt_epi64(c.tv, fv), _mm256_cmpgt_epi64(c.tw, fw));
        if _mm256_testz_si256(rej, rej) != 0 {
            break;
        }
        rng4.redraw_masked(&mut words, rej);
    }
    let v = _mm256_srli_epi64::<32>(mv);
    let w0 = _mm256_srli_epi64::<32>(mw);
    // Skip over v: w = w0 + (w0 ≥ v) = w0 + 1 + (v > w0 ? −1 : 0).
    let w = _mm256_add_epi64(_mm256_add_epi64(w0, c.one), _mm256_cmpgt_epi64(v, w0));
    _mm256_or_si256(v, _mm256_slli_epi64::<32>(w))
}

/// Applies four packed `v | (w << 32)` draws to four lane columns.
#[inline]
#[target_feature(enable = "avx2")]
fn toward4(cols: &mut [&mut [u32]; 4], vw: __m256i) {
    let a = lanes_of(vw);
    for j in 0..4 {
        toward(cols[j], a[j] as u32 as usize, (a[j] >> 32) as usize);
    }
}

/// Lockstep drive for the complete-pair sampler on four lanes: one word
/// per step per lane, high half → `v` over `n`, low half → `w` over
/// `n − 1` with the skip-over-`v` map.  Rejection of either half
/// redraws the whole word, per lane, exactly as the scalar pick does.
#[target_feature(enable = "avx2")]
pub(super) fn drive_complete_pair(
    cols: &mut [&mut [u32]; 4],
    rngs: &mut [FastRng; 4],
    n: u32,
    steps: u64,
) {
    let mut rng4 = Rng4x::load(rngs);
    let c = PairConsts::new(n);
    for _ in 0..steps {
        let vw = pair_draw(&mut rng4, c);
        toward4(cols, vw);
    }
    rng4.store(rngs);
}

/// The masked 64-bit Lemire draw on four lanes: given the current output
/// words, returns the per-lane index in `[0, range)` after redrawing
/// rejecting lanes.  `range` must be `< 2³²` (the dispatcher guarantees
/// it), so the 64×range product fits 96 bits and splits into two
/// `vpmuludq` halves.
#[inline]
#[target_feature(enable = "avx2")]
fn bounded_masked(rng4: &mut Rng4x, words: &mut __m256i, range: u64, t: u64) -> __m256i {
    let lo32 = _mm256_set1_epi64x(0xFFFF_FFFF);
    let sign = _mm256_set1_epi64x(i64::MIN);
    let rv = _mm256_set1_epi64x(range as i64);
    // t ^ 2⁶³: bias for unsigned 64-bit compare via signed vpcmpgtq.
    let tb = _mm256_set1_epi64x((t as i64) ^ i64::MIN);
    loop {
        let lo = _mm256_and_si256(*words, lo32);
        let hi = _mm256_srli_epi64::<32>(*words);
        let p0 = _mm256_mul_epu32(lo, rv);
        let p1 = _mm256_mul_epu32(hi, rv);
        // 128-bit product split: low = p0 + (p1 << 32) (wrapping), high
        // = (p1 >> 32) + carry, carry ⇔ low <ᵤ p0.
        let low = _mm256_add_epi64(p0, _mm256_slli_epi64::<32>(p1));
        let low_b = _mm256_xor_si256(low, sign);
        let carry = _mm256_cmpgt_epi64(_mm256_xor_si256(p0, sign), low_b);
        let idx = _mm256_sub_epi64(_mm256_srli_epi64::<32>(p1), carry);
        let rej = _mm256_cmpgt_epi64(tb, low_b);
        if _mm256_testz_si256(rej, rej) != 0 {
            return idx;
        }
        rng4.redraw_masked(words, rej);
    }
}

/// One edge draw for four lanes (redraws rolled in), applied to the lane
/// columns through the endpoint table.
#[inline]
#[target_feature(enable = "avx2")]
fn edge_step(rng4: &mut Rng4x, cols: &mut [&mut [u32]; 4], endpoints: &[u32], two_m: u64, t: u64) {
    let mut words = rng4.next_words();
    let idx = lanes_of(bounded_masked(rng4, &mut words, two_m, t));
    for j in 0..4 {
        let a = endpoints[idx[j] as usize] as usize;
        let b = endpoints[idx[j] as usize ^ 1] as usize;
        toward(cols[j], a, b);
    }
}

/// Lockstep drive for the edge sampler on four lanes: one 64-bit Lemire
/// draw `j ∈ [0, 2m)` per step per lane addresses the directed edge
/// `(endpoints[j], endpoints[j ^ 1])`.  `two_m < 2³²` is guaranteed by
/// `super::accelerates`.
#[target_feature(enable = "avx2")]
pub(super) fn drive_edge(
    cols: &mut [&mut [u32]; 4],
    rngs: &mut [FastRng; 4],
    endpoints: &[u32],
    two_m: u64,
    steps: u64,
) {
    debug_assert!(two_m < (1u64 << 32));
    let mut rng4 = Rng4x::load(rngs);
    let t = two_m.wrapping_neg() % two_m;
    for _ in 0..steps {
        edge_step(&mut rng4, cols, endpoints, two_m, t);
    }
    rng4.store(rngs);
}

/// One masked 64-bit Lemire draw per lane (test/bench entry for the
/// vectorised sampler).  `range` must be in `(0, 2³²)`.
#[target_feature(enable = "avx2")]
pub(super) fn bounded_u64_x4(rngs: &mut [FastRng; 4], range: u64) -> [u64; 4] {
    let mut rng4 = Rng4x::load(rngs);
    let t = range.wrapping_neg() % range;
    let mut words = rng4.next_words();
    let out = lanes_of(bounded_masked(&mut rng4, &mut words, range, t));
    rng4.store(rngs);
    out
}

/// AVX2 min/max over a `u32` slice: 8 values per `vpminud`/`vpmaxud`,
/// horizontal reduction at the end, scalar tail.  Returns
/// `(u32::MAX, 0)` for an empty slice, like the scalar fold.
#[target_feature(enable = "avx2")]
pub(super) fn min_max_u32(xs: &[u32]) -> (u32, u32) {
    let mut chunks = xs.chunks_exact(8);
    let mut vmn = _mm256_set1_epi32(-1);
    let mut vmx = _mm256_setzero_si256();
    for c in chunks.by_ref() {
        // SAFETY: `c` holds exactly 8 u32s — 32 readable bytes; loadu
        // has no alignment requirement.
        let v = unsafe { _mm256_loadu_si256(c.as_ptr() as *const __m256i) };
        vmn = _mm256_min_epu32(vmn, v);
        vmx = _mm256_max_epu32(vmx, v);
    }
    // SAFETY: __m256i and [u32; 8] are both 32 plain bytes.
    let amn: [u32; 8] = unsafe { core::mem::transmute(vmn) };
    let amx: [u32; 8] = unsafe { core::mem::transmute(vmx) };
    let mut mn = amn.iter().copied().fold(u32::MAX, u32::min);
    let mut mx = amx.iter().copied().fold(0u32, u32::max);
    for &x in chunks.remainder() {
        mn = mn.min(x);
        mx = mx.max(x);
    }
    (mn, mx)
}
