//! Runtime-dispatched SIMD kernels for the batch and sharded engines.
//!
//! The batch engine's hot loop is four independent per-lane operations —
//! xoshiro256++ word generation, Lemire bounded rejection sampling, the
//! branchless toward-step against a `u32` opinion column, and the
//! end-of-block min/max column scan.  None of them vectorise under the
//! default `x86-64` codegen because each lane's RNG stream is a serial
//! dependency chain; stepping **four lanes in lockstep** breaks the chain
//! and maps every operation onto 4×64-bit vector arithmetic.  This module
//! provides that lockstep drive at two tiers:
//!
//! * [`KernelTier::Scalar`] — every lane runs the fast engine's
//!   single-lane block loop (`crate::engine::Lane`) one at a time.
//! * [`KernelTier::Avx2`] — `core::arch::x86_64` intrinsics: the four
//!   lane RNGs live in four `__m256i` registers (state word `i` of all
//!   lanes side by side), Lemire multiplies ride `vpmuludq`, and column
//!   scans use `vpminud`/`vpmaxud`.  Selected only when
//!   `is_x86_feature_detected!("avx2")` holds.
//!
//! [`KernelTier`] stays an enum so another tier can be added, but only
//! once it beats these two on a recorded benchmark (DESIGN.md §3.4 has
//! the measurements of the tiers that did not).
//!
//! # Bit-exactness across tiers
//!
//! Every tier replays the scalar engine word-for-word: lanes never share
//! a draw, and the masked redraw loops advance **only** the lanes whose
//! Lemire draw rejected (accepted lanes keep their word while their
//! neighbours redraw), so each lane consumes exactly the rejection-redraw
//! sequence `CompiledSampler::pick` would have consumed.  Within a step
//! the four lanes touch four disjoint opinion columns, so lockstep order
//! is observationally identical to lane-at-a-time order.  The tier can
//! therefore never change a byte of any report — `DIV_KERNELS` forcing is
//! a pure performance knob, and `crates/core/tests/` assert identical
//! trajectories under every tier.
//!
//! Only the complete-pair and edge families are driven in groups.  The
//! vertex families (degree lookup, then neighbour lookup, or the one
//! neighbour load on a constant-degree graph) and the
//! alias-table family (slot load, threshold compare, degree draw) are
//! load-bound, not ALU-bound, and keep the single-lane loop on every tier:
//! an interleaved four-lane vertex drive measured slower than the scalar
//! one (DESIGN.md §3.4).  `accelerates` decides per batch, never per
//! lane.
//!
//! # Tier selection
//!
//! [`KernelTier::active`] picks the best supported tier, overridable via
//! the `DIV_KERNELS` environment variable (`scalar` or `avx2`) so CI can
//! force each tier and diff whole campaign reports byte-for-byte.  An
//! unknown name (including the removed `swar` and `avx512`) or an
//! unsupported forced tier warns once on stderr and falls back to
//! detection — tests that must pin a tier use
//! [`crate::BatchProcess::set_kernel_tier`] instead, which panics on an
//! unsupported tier rather than degrading silently.
//!
//! # Unsafe policy
//!
//! This module is the only unsafe code in `div-core`.  The crate denies
//! `unsafe_code`; `avx2.rs` alone re-allows it.  Its entry points are
//! `#[target_feature(enable = "avx2")]` functions, which Rust lets code
//! not compiled for AVX2 call only inside `unsafe {}`: every dispatcher
//! below makes that call only after `KernelTier::is_supported` held on
//! the same call.  Inside `avx2.rs` every `unsafe {}` block is a
//! pointer-free `transmute` between vector and plain-integer arrays
//! (same size, no padding, any bit pattern valid), an in-bounds
//! vector load, or an unchecked lane-column or edge-table access of a
//! lockstep drive.  Those accesses are bounded once per drive, by the
//! entry asserts of `drive_group` (the four columns share one length
//! that covers the sampler's compiled vertex bound; the edge table is
//! non-empty, even and below 2³²), and once per step by a `vpminud`
//! clamp of each drawn index to its table, so no memory access depends
//! on the draw arithmetic being right.

use crate::engine::CompiledSampler;
use crate::rng::FastRng;

#[cfg(target_arch = "x86_64")]
mod avx2;

/// One tier of the runtime dispatch; see the module docs for what each
/// tier implements.  Ordering is by preference: `detect()` returns
/// the highest supported tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelTier {
    /// Lane-at-a-time scalar loops (always supported; the pre-kernel
    /// engine).
    Scalar,
    /// AVX2 intrinsics (x86-64 with runtime `avx2` support only).
    Avx2,
}

impl KernelTier {
    /// Every tier, in ascending preference order.
    pub const ALL: [KernelTier; 2] = [KernelTier::Scalar, KernelTier::Avx2];

    /// The lowercase name used by `DIV_KERNELS` and in reports.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Avx2 => "avx2",
        }
    }

    /// Parses a `DIV_KERNELS` value.
    pub fn from_name(name: &str) -> Option<KernelTier> {
        match name {
            "scalar" => Some(KernelTier::Scalar),
            "avx2" => Some(KernelTier::Avx2),
            _ => None,
        }
    }

    /// Whether this tier can run on the current CPU.
    pub fn is_supported(self) -> bool {
        match self {
            KernelTier::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            KernelTier::Avx2 => false,
        }
    }

    /// The tiers the current CPU supports, ascending.
    pub fn supported() -> Vec<KernelTier> {
        Self::ALL.into_iter().filter(|t| t.is_supported()).collect()
    }

    /// The best tier the current CPU supports (ignores `DIV_KERNELS`).
    pub fn detect() -> KernelTier {
        if KernelTier::Avx2.is_supported() {
            KernelTier::Avx2
        } else {
            KernelTier::Scalar
        }
    }

    /// The tier new engines should use: the `DIV_KERNELS` override when
    /// set, valid and supported, otherwise [`KernelTier::detect`].  A
    /// bad override warns once on stderr instead of failing — campaign
    /// binaries must not die on an environment typo — and tests that
    /// need a hard guarantee pin tiers explicitly instead.
    pub fn active() -> KernelTier {
        match std::env::var("DIV_KERNELS") {
            Ok(name) => match KernelTier::from_name(name.trim()) {
                Some(tier) if tier.is_supported() => tier,
                Some(tier) => {
                    warn_once(&format!(
                        "DIV_KERNELS={} is not supported on this CPU; using {}",
                        tier.name(),
                        KernelTier::detect().name()
                    ));
                    KernelTier::detect()
                }
                None => {
                    warn_once(&format!(
                        "DIV_KERNELS={name:?} is not one of scalar|avx2; using {}",
                        KernelTier::detect().name()
                    ));
                    KernelTier::detect()
                }
            },
            Err(_) => KernelTier::detect(),
        }
    }
}

fn warn_once(msg: &str) {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| eprintln!("div-core: {msg}"));
}

/// Lanes per lockstep group of [`drive_group`].
pub(crate) const GROUP: usize = 4;

/// Whether `tier` drives this sampler family in lockstep groups of
/// [`GROUP`] lanes.  `false` keeps the whole batch on the single-lane loop
/// (identical results either way): the scalar tier, the load-bound
/// vertex and alias families, and an edge table with `2m ≥ 2³²` (an
/// endpoint list over 32 GiB would overflow the AVX2 32×32→64 Lemire
/// multiply).
pub(crate) fn accelerates(tier: KernelTier, sampler: &CompiledSampler) -> bool {
    tier == KernelTier::Avx2
        && match sampler {
            CompiledSampler::CompletePair { .. } => true,
            CompiledSampler::Edge { two_m, .. } => *two_m < (1u64 << 32),
            CompiledSampler::Vertex { .. }
            | CompiledSampler::RegularVertex { .. }
            | CompiledSampler::Alias { .. } => false,
        }
}

/// Drives a group of [`GROUP`] lanes in lockstep for exactly `steps`
/// bare toward-steps each, advancing each lane's RNG exactly as the
/// single-lane loop would.  `cols` are the lanes' (disjoint) opinion
/// columns.
///
/// The AVX2 drives step without bounds checks; the asserts at entry are
/// what bound their accesses, once per call.
///
/// # Panics
///
/// Panics unless the four columns share one length that covers the
/// sampler's vertex bound (`n` for the complete-pair family, 1 + the
/// largest endpoint for the edge family), and unless [`accelerates`]
/// holds for `tier` and `sampler` and this CPU supports `tier` (the
/// batch engine routes every other batch to the single-lane loop, and
/// holds only supported tiers).
#[allow(unsafe_code)] // feature-guarded dispatch into `avx2` (see SAFETY notes)
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn drive_group(
    tier: KernelTier,
    sampler: &CompiledSampler,
    cols: &mut [&mut [u32]; GROUP],
    rngs: &mut [FastRng; GROUP],
    steps: u64,
) {
    let n = cols[0].len();
    assert!(
        cols.iter().all(|c| c.len() == n),
        "lane columns must share one length"
    );
    let vertex_bound = match sampler {
        CompiledSampler::CompletePair { n } => *n as usize,
        CompiledSampler::Edge { vertex_bound, .. } => *vertex_bound,
        _ => unreachable!("{} does not accelerate this sampler family", tier.name()),
    };
    assert!(
        vertex_bound <= n,
        "lane columns of length {n} do not cover the sampler's vertex bound {vertex_bound}"
    );
    #[cfg(target_arch = "x86_64")]
    let vector = tier == KernelTier::Avx2 && tier.is_supported();
    match sampler {
        #[cfg(target_arch = "x86_64")]
        CompiledSampler::CompletePair { n } if vector => {
            assert!(*n >= 2, "a complete-pair draw needs two vertices");
            // SAFETY: `vector` checked that this CPU supports AVX2; the
            // asserts above give n ≥ 2 and every column ≥ n long.
            unsafe { avx2::drive_complete_pair(cols, rngs, *n, steps) }
        }
        #[cfg(target_arch = "x86_64")]
        CompiledSampler::Edge { endpoints, .. } if vector => {
            let two_m = endpoints.len() as u64;
            assert!(
                two_m > 0 && two_m.is_multiple_of(2) && two_m < (1u64 << 32),
                "edge table of {two_m} entries is not an even length in (0, 2³²)"
            );
            // SAFETY: `vector` checked that this CPU supports AVX2; the
            // assert above bounds the table, and the vertex-bound assert
            // makes every column longer than every endpoint.
            unsafe { avx2::drive_edge(cols, rngs, endpoints, steps) }
        }
        _ => unreachable!("{} does not accelerate this sampler family", tier.name()),
    }
}

/// Min and max of `xs` under `tier`, with the scalar fold's conventions
/// (`(u32::MAX, 0)` on an empty slice): the end-of-block width scans of
/// the fast and batch engines and the sharded engine's end-of-round
/// extreme scans.  All tiers return identical results — the tier is a
/// pure throughput knob, and a tier this CPU does not support runs the
/// scalar fold.
#[allow(unsafe_code)] // feature-guarded dispatch into `avx2` (see SAFETY notes)
pub fn min_max_u32(xs: &[u32], tier: KernelTier) -> (u32, u32) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard checked that this CPU supports AVX2.
        KernelTier::Avx2 if tier.is_supported() => unsafe { avx2::min_max_u32(xs) },
        _ => {
            let (mut mn, mut mx) = (u32::MAX, 0u32);
            for &x in xs {
                mn = mn.min(x);
                mx = mx.max(x);
            }
            (mn, mx)
        }
    }
}

/// One masked 64-bit Lemire draw per lane under `tier` — each lane `j`
/// returns exactly `bounded_u64(&mut rngs[j], range)`, including the
/// rejection redraws, but rejecting lanes redraw together under a lane
/// mask.  This is the primitive the edge drive inlines, exposed so the
/// statistical acceptance tests and benchmarks can hit the vectorised
/// sampler directly.
///
/// The vector tier covers `range < 2³²` (the batch engine's edge-table
/// regime); every tier takes the scalar draw for larger ranges.
///
/// # Panics
///
/// Panics if `range == 0`.
#[allow(unsafe_code)] // feature-guarded dispatch into `avx2` (see SAFETY notes)
pub fn bounded_u64_x4(tier: KernelTier, rngs: &mut [FastRng; 4], range: u64) -> [u64; 4] {
    assert!(range > 0, "bounded draw over an empty range");
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard checked that this CPU supports AVX2.
        KernelTier::Avx2 if tier.is_supported() && range < (1u64 << 32) => unsafe {
            avx2::bounded_u64_x4(rngs, range)
        },
        _ => rngs
            .each_mut()
            .map(|rng| crate::engine::bounded_u64(rng, range)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::bounded_u64;
    use rand::SeedableRng;

    fn tiers() -> Vec<KernelTier> {
        KernelTier::supported()
    }

    #[test]
    fn tier_names_round_trip() {
        for tier in KernelTier::ALL {
            assert_eq!(KernelTier::from_name(tier.name()), Some(tier));
        }
        for removed in ["neon", "swar", "avx512"] {
            assert_eq!(KernelTier::from_name(removed), None, "{removed}");
        }
        assert!(KernelTier::Scalar.is_supported());
        assert!(KernelTier::supported().contains(&KernelTier::detect()));
    }

    #[test]
    fn min_max_matches_scalar_fold_on_all_tiers() {
        let mut rng = FastRng::seed_from_u64(0x51CA);
        for len in [0usize, 1, 3, 4, 7, 8, 15, 16, 17, 63, 64, 100, 1013] {
            let xs: Vec<u32> = (0..len).map(|_| rng.next_word() as u32).collect();
            let want = min_max_u32(&xs, KernelTier::Scalar);
            for tier in tiers() {
                assert_eq!(min_max_u32(&xs, tier), want, "len {len} {tier:?}");
            }
        }
    }

    #[test]
    fn min_max_handles_high_bit_values() {
        // The vector compares are unsigned: values across the per-field
        // sign bit must still order correctly.
        let xs32: Vec<u32> = vec![0x7FFF_FFFF, 0x8000_0000, u32::MAX, 3, 0x8000_0001];
        for tier in tiers() {
            assert_eq!(min_max_u32(&xs32, tier), (3, u32::MAX), "{tier:?}");
        }
    }

    /// Every tier's 4-lane bounded draw must replay the scalar Lemire
    /// sampler word-for-word, per lane, including RNG positions after a
    /// long run (so rejection redraws were charged to the right lane).
    #[test]
    fn bounded_x4_is_bit_exact_per_lane() {
        for range in [1u64, 2, 3, 5, 6, 1000, 1_000_003, (1 << 32) - 1] {
            for tier in tiers() {
                let mut lanes: [FastRng; 4] =
                    std::array::from_fn(|j| FastRng::seed_from_u64(0xB0B0 + 31 * j as u64 + range));
                let mut scalar = lanes;
                for _ in 0..2048 {
                    let got = bounded_u64_x4(tier, &mut lanes, range);
                    for (j, rng) in scalar.iter_mut().enumerate() {
                        assert_eq!(got[j], bounded_u64(rng, range), "lane {j} {tier:?} {range}");
                    }
                }
                for j in 0..4 {
                    assert_eq!(
                        lanes[j], scalar[j],
                        "lane {j} rng position {tier:?} {range}"
                    );
                }
            }
        }
    }

    /// Ranges of 2³² and above take the scalar draw on every tier: the
    /// vector draw's 96-bit product split holds only below 2³².
    #[test]
    fn bounded_x4_matches_the_scalar_draw_above_two_to_the_32() {
        for range in [(1u64 << 32) + 3, (1u64 << 40) + 1, u64::MAX] {
            for tier in tiers() {
                let mut lanes: [FastRng; 4] =
                    std::array::from_fn(|j| FastRng::seed_from_u64(0x7A11 + 17 * j as u64));
                let mut scalar = lanes;
                for _ in 0..64 {
                    let got = bounded_u64_x4(tier, &mut lanes, range);
                    for (j, rng) in scalar.iter_mut().enumerate() {
                        assert_eq!(got[j], bounded_u64(rng, range), "lane {j} {tier:?} {range}");
                    }
                }
                assert_eq!(lanes, scalar, "{tier:?} {range}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn bounded_x4_rejects_an_empty_range() {
        let mut lanes: [FastRng; 4] = std::array::from_fn(|j| FastRng::seed_from_u64(j as u64));
        bounded_u64_x4(KernelTier::detect(), &mut lanes, 0);
    }

    /// Drives one group under `sampler` with the given column lengths.
    /// The entry asserts must reject bad lengths before any tier runs, so
    /// these panic (and read nothing out of bounds) on every host.
    fn drive_with_lengths(sampler: &CompiledSampler, lens: [usize; GROUP]) {
        let mut cols: [Vec<u32>; GROUP] = lens.map(|len| (0..len as u32).collect());
        let mut rngs: [FastRng; GROUP] = std::array::from_fn(|j| FastRng::seed_from_u64(j as u64));
        let mut slices = cols.each_mut().map(|c| c.as_mut_slice());
        drive_group(KernelTier::Avx2, sampler, &mut slices, &mut rngs, 10_000);
    }

    fn edge_sampler() -> CompiledSampler {
        let g = div_graph::generators::wheel(12).unwrap();
        CompiledSampler::compile(&g, crate::FastScheduler::Edge)
    }

    fn pair_sampler() -> CompiledSampler {
        let g = div_graph::generators::complete(12).unwrap();
        CompiledSampler::compile(&g, crate::FastScheduler::Edge)
    }

    #[test]
    #[should_panic(expected = "share one length")]
    fn drive_group_rejects_a_short_edge_lane_column() {
        drive_with_lengths(&edge_sampler(), [12, 12, 3, 12]);
    }

    #[test]
    #[should_panic(expected = "do not cover the sampler's vertex bound 12")]
    fn drive_group_rejects_edge_columns_below_the_vertex_bound() {
        drive_with_lengths(&edge_sampler(), [11; GROUP]);
    }

    #[test]
    #[should_panic(expected = "share one length")]
    fn drive_group_rejects_a_short_pair_lane_column() {
        drive_with_lengths(&pair_sampler(), [12, 12, 12, 0]);
    }

    #[test]
    #[should_panic(expected = "do not cover the sampler's vertex bound 12")]
    fn drive_group_rejects_pair_columns_below_the_vertex_bound() {
        drive_with_lengths(&pair_sampler(), [5; GROUP]);
    }

    fn chi_square_bounded_x4(tier: KernelTier, seed: u64, range: u64, draws: u64) {
        let mut lanes: [FastRng; 4] =
            std::array::from_fn(|j| FastRng::seed_from_u64(seed ^ (j as u64 * 0x9E37)));
        let mut counts = vec![0u64; range as usize];
        let rounds = draws / 4;
        for _ in 0..rounds {
            for x in bounded_u64_x4(tier, &mut lanes, range) {
                counts[x as usize] += 1;
            }
        }
        let total = (rounds * 4) as f64;
        let expected = total / range as f64;
        let stat: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        let df = (range - 1) as f64;
        // Wilson–Hilferty critical value at α = 0.001, matching the
        // scalar sampler's acceptance test in `engine.rs`.
        let h = 2.0 / (9.0 * df);
        let critical = df * (1.0 - h + 3.0902 * h.sqrt()).powi(3);
        assert!(
            stat < critical,
            "{tier:?} range {range}: chi² {stat:.1} ≥ critical {critical:.1} — modulo bias?"
        );
    }

    /// Modulo-bias guard for the vectorised sampler, mirroring the PR 3
    /// scalar spans: 3 and 5 exercise the (near-)rejection-free path,
    /// 1000003 (prime) a span whose naive `% range` bias is detectable.
    #[test]
    fn chi_square_accepts_vector_lemire_on_non_dividing_spans() {
        for tier in tiers() {
            chi_square_bounded_x4(tier, 0xD1CE_1001, 3, 60_000);
            chi_square_bounded_x4(tier, 0xD1CE_1002, 5, 100_000);
            chi_square_bounded_x4(tier, 0xD1CE_1003, 1_000_003, 10_000_030);
        }
    }
}
