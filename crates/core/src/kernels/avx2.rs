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
//! Internal `unsafe {}` blocks come in three kinds:
//!
//! * 32-byte in-bounds vector loads;
//! * `transmute` between `__m256i` and plain integer arrays of the same
//!   size (no padding, all bit patterns valid);
//! * unchecked lane-column and edge-table accesses in the lockstep
//!   drives.  Each is bounded once per drive, not once per step: the
//!   drives are `unsafe fn`s whose `# Safety` contracts (column lengths
//!   against the sampler's vertex bound, the edge table's length) are
//!   exactly the entry asserts of `super::drive_group`, and inside the
//!   step one `vpminud` clamps every drawn index to its table, so no
//!   access depends on the draw arithmetic being right.  The clamp never
//!   changes a correct draw, so every lane stays bit-exact.  Each such
//!   block names the assert or clamp that bounds it and `debug_assert!`s
//!   its index.
#![allow(unsafe_code)]

use core::arch::x86_64::*;

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

/// `engine::toward` without bounds checks: `v` moves one unit toward
/// `w`'s opinion.
///
/// # Safety
///
/// `v < col.len()` and `w < col.len()`.
#[inline(always)]
unsafe fn toward_unchecked(col: &mut [u32], v: usize, w: usize) {
    debug_assert!(v < col.len() && w < col.len());
    // SAFETY: the caller guarantees both indices are in bounds.
    unsafe {
        let xv = *col.get_unchecked(v);
        let xw = *col.get_unchecked(w);
        let delta = (xw > xv) as i32 - (xw < xv) as i32;
        *col.get_unchecked_mut(v) = (xv as i32 + delta) as u32;
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
    /// `n − 1` in every 32-bit element: the clamp on both packed indices.
    last: __m256i,
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
            last: _mm256_set1_epi32(nm1 as i32),
        }
    }
}

/// The complete-pair draw on four lanes with masked redraw: returns
/// `v | (w << 32)` per lane (packed so one spill serves both indices),
/// each half clamped to `n − 1`.  A correct draw is already `< n`, so
/// the clamp changes nothing but bounds the column accesses.
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
    _mm256_min_epu32(_mm256_or_si256(v, _mm256_slli_epi64::<32>(w)), c.last)
}

/// Lockstep drive for the complete-pair sampler on four lanes: one word
/// per step per lane, high half → `v` over `n`, low half → `w` over
/// `n − 1` with the skip-over-`v` map.  Rejection of either half
/// redraws the whole word, per lane, exactly as the scalar pick does.
///
/// # Safety
///
/// The CPU supports AVX2, `n ≥ 2`, and every column is at least `n`
/// long (the entry asserts of `super::drive_group`).
#[target_feature(enable = "avx2")]
pub(super) unsafe fn drive_complete_pair(
    cols: &mut [&mut [u32]; 4],
    rngs: &mut [FastRng; 4],
    n: u32,
    steps: u64,
) {
    debug_assert!(n >= 2 && cols.iter().all(|c| c.len() >= n as usize));
    let mut rng4 = Rng4x::load(rngs);
    let c = PairConsts::new(n);
    for _ in 0..steps {
        let vw = lanes_of(pair_draw(&mut rng4, c));
        for j in 0..4 {
            let (v, w) = (vw[j] as u32 as usize, (vw[j] >> 32) as usize);
            // SAFETY: `pair_draw` clamps both halves to `n − 1`, and the
            // contract (drive_group's entry assert) makes every column
            // at least `n` long.
            unsafe { toward_unchecked(cols[j], v, w) };
        }
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

/// Lockstep drive for the edge sampler on four lanes: one 64-bit Lemire
/// draw `j ∈ [0, 2m)` per step per lane addresses the directed edge
/// `(endpoints[j], endpoints[j ^ 1])`, where `2m = endpoints.len()`.
///
/// # Safety
///
/// The CPU supports AVX2, `endpoints.len()` is even and in `(0, 2³²)`,
/// and every column is longer than every endpoint (the entry asserts of
/// `super::drive_group` against the compiled vertex bound).
#[target_feature(enable = "avx2")]
pub(super) unsafe fn drive_edge(
    cols: &mut [&mut [u32]; 4],
    rngs: &mut [FastRng; 4],
    endpoints: &[u32],
    steps: u64,
) {
    let two_m = endpoints.len() as u64;
    debug_assert!(two_m > 0 && two_m.is_multiple_of(2) && two_m < (1u64 << 32));
    let mut rng4 = Rng4x::load(rngs);
    let t = two_m.wrapping_neg() % two_m;
    // 2m − 1 in the low half of each 64-bit element, 0 in the high half.
    let last = _mm256_set1_epi64x(two_m as i64 - 1);
    for _ in 0..steps {
        let mut words = rng4.next_words();
        let idx = bounded_masked(&mut rng4, &mut words, two_m, t);
        // A correct draw is `< 2m`, so the clamp changes nothing; it
        // bounds the table loads whatever the draw arithmetic does.
        let idx = lanes_of(_mm256_min_epu32(idx, last));
        for j in 0..4 {
            let e = idx[j] as usize;
            debug_assert!(e < endpoints.len() && e ^ 1 < endpoints.len());
            // SAFETY: the clamp above bounds `e ≤ 2m − 1`, and `2m` is
            // even (the contract; drive_group's entry assert), so
            // `e ^ 1 ≤ 2m − 1` too.
            let (a, b) = unsafe {
                (
                    *endpoints.get_unchecked(e) as usize,
                    *endpoints.get_unchecked(e ^ 1) as usize,
                )
            };
            // SAFETY: every endpoint is below every column's length (the
            // contract; drive_group's entry assert on the vertex bound).
            unsafe { toward_unchecked(cols[j], a, b) };
        }
    }
    rng4.store(rngs);
}

/// One masked 64-bit Lemire draw per lane (test/bench entry for the
/// vectorised sampler).  `range` must be in `(0, 2³²)`, where the draw's
/// 96-bit product split holds; `super` routes every other range to the
/// scalar draw.
#[target_feature(enable = "avx2")]
pub(super) fn bounded_u64_x4(rngs: &mut [FastRng; 4], range: u64) -> [u64; 4] {
    debug_assert!(range > 0 && range < (1u64 << 32));
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
