//! Runtime-dispatched SIMD kernels for the batch and sharded engines.
//!
//! The batch engine's hot loop is four independent per-lane operations —
//! xoshiro256++ word generation, Lemire bounded rejection sampling, the
//! branchless toward-step against a `u16` opinion column, and the
//! end-of-block min/max column scan.  None of them vectorise under the
//! default `x86-64` codegen because each lane's RNG stream is a serial
//! dependency chain; stepping **four lanes in lockstep** breaks the chain
//! and maps every operation onto 4×64-bit vector arithmetic.  This module
//! provides that lockstep drive at three tiers:
//!
//! * [`KernelTier::Scalar`] — the lane-at-a-time loops in `crate::batch`,
//!   byte-for-byte the engine as shipped before this module existed.
//! * [`KernelTier::Swar`] — portable Rust: four lanes interleaved in
//!   `[u64; 4]` arrays (ILP across lanes; the autovectoriser maps the
//!   xoshiro step onto baseline SSE2) and genuine SWAR-on-u64 min/max
//!   scans (four `u16` fields per word, guard-bit partitioned compares).
//! * [`KernelTier::Avx2`] — `core::arch::x86_64` intrinsics: the four
//!   lane RNGs live in four `__m256i` registers (state word `i` of all
//!   lanes side by side), Lemire multiplies ride `vpmuludq`, and column
//!   scans use `vpminuw`/`vpmaxuw`.  Selected only when
//!   `is_x86_feature_detected!("avx2")` holds.
//! * [`KernelTier::Avx512`] — eight lanes per `__m512i`, native 64-bit
//!   rotates and unsigned compares, masked redraws as single
//!   `k`-register moves; roughly half the instructions per lane-step of
//!   the AVX2 tier.  Requires F/DQ/BW/VL (plus AVX2, for the scans and
//!   leftover four-lane groups it shares with the AVX2 tier).
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
//! The alias-table family (`CompiledSampler::Alias`) keeps the scalar
//! drive on every tier: its two-table indirection (slot load, threshold
//! compare, per-vertex degree draw) is load-bound, not ALU-bound, and it
//! exists for ablation only.  `accelerates` reports the supported
//! families; `crate::batch` falls back per batch, never per lane.
//!
//! # Tier selection
//!
//! [`KernelTier::active`] picks the best supported tier, overridable via
//! the `DIV_KERNELS` environment variable (`scalar`, `swar`, `avx2` or
//! `avx512`) so
//! CI can force each tier and diff whole campaign reports byte-for-byte.
//! An unknown name or an unsupported forced tier warns once on stderr and
//! falls back to detection — tests that must pin a tier use
//! [`crate::BatchProcess::set_kernel_tier`] instead, which panics on an
//! unsupported tier rather than degrading silently.
//!
//! # Unsafe policy
//!
//! This module is the only unsafe code in `div-core`.  The crate denies
//! `unsafe_code` and `unsafe_op_in_unsafe_fn`; `avx2.rs` and `avx512.rs`
//! alone re-allow `unsafe_code`, every `unsafe fn` there carries a
//! `# Safety` contract (the tier's CPU features must be available —
//! guaranteed by the dispatcher's feature check), and every internal
//! `unsafe {}` block is a pointer-free `transmute` between vector and
//! plain-integer arrays (same size, no padding, any bit pattern valid)
//! or an in-bounds vector load.

use div_graph::Graph;

use crate::engine::CompiledSampler;
use crate::rng::FastRng;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;
mod swar;

/// One rung of the runtime dispatch ladder; see the module docs for what
/// each tier implements.  Ordering is by preference: `detect()` returns
/// the highest supported tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelTier {
    /// Lane-at-a-time scalar loops (always supported; the pre-kernel
    /// engine).
    Scalar,
    /// Portable interleaved-lane + SWAR-on-u64 kernels (always supported).
    Swar,
    /// AVX2 intrinsics (x86-64 with runtime `avx2` support only).
    Avx2,
    /// AVX-512 intrinsics (x86-64 with runtime F/DQ/BW/VL + AVX2 only).
    Avx512,
}

impl KernelTier {
    /// Every tier, in ascending preference order.
    pub const ALL: [KernelTier; 4] = [
        KernelTier::Scalar,
        KernelTier::Swar,
        KernelTier::Avx2,
        KernelTier::Avx512,
    ];

    /// The lowercase name used by `DIV_KERNELS` and in reports.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Swar => "swar",
            KernelTier::Avx2 => "avx2",
            KernelTier::Avx512 => "avx512",
        }
    }

    /// Parses a `DIV_KERNELS` value.
    pub fn from_name(name: &str) -> Option<KernelTier> {
        match name {
            "scalar" => Some(KernelTier::Scalar),
            "swar" => Some(KernelTier::Swar),
            "avx2" => Some(KernelTier::Avx2),
            "avx512" => Some(KernelTier::Avx512),
            _ => None,
        }
    }

    /// Whether this tier can run on the current CPU.  `Avx512` also
    /// requires AVX2 (true on every AVX-512 part) because its four-lane
    /// leftover groups and column scans share the AVX2 kernels.
    pub fn is_supported(self) -> bool {
        match self {
            KernelTier::Scalar | KernelTier::Swar => true,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512dq")
                    && is_x86_feature_detected!("avx512bw")
                    && is_x86_feature_detected!("avx512vl")
                    && is_x86_feature_detected!("avx2")
            }
            #[cfg(not(target_arch = "x86_64"))]
            KernelTier::Avx2 | KernelTier::Avx512 => false,
        }
    }

    /// The tiers the current CPU supports, ascending.
    pub fn supported() -> Vec<KernelTier> {
        Self::ALL.into_iter().filter(|t| t.is_supported()).collect()
    }

    /// The best tier the current CPU supports (ignores `DIV_KERNELS`).
    ///
    /// Deliberately prefers `Avx2` over `Avx512` even when both pass
    /// their feature checks: on the Ice-Lake/Sapphire-Rapids-class
    /// hosts we measured, the eight-wide drives at best tie the
    /// four-wide ones on the complete-pair family and lose ~25 % on
    /// the edge family (the per-step scalar column-update tail
    /// dominates, and the wider state spills cost more than the saved
    /// vector uops).  `DIV_KERNELS=avx512` still forces the wide rung
    /// for hosts where it wins.
    pub fn detect() -> KernelTier {
        if KernelTier::Avx2.is_supported() {
            KernelTier::Avx2
        } else {
            KernelTier::Swar
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
                        "DIV_KERNELS={name:?} is not one of scalar|swar|avx2|avx512; using {}",
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

/// Whether the kernel tiers accelerate this sampler family.  `false`
/// keeps the whole batch on the scalar drive (identical results either
/// way): the alias family is load-bound, and an edge table with `2m ≥
/// 2³²` (a >32 GiB endpoint list) would overflow the AVX2 32×32→64
/// Lemire multiply.
pub(crate) fn accelerates(sampler: &CompiledSampler) -> bool {
    match sampler {
        CompiledSampler::Vertex { .. } | CompiledSampler::CompletePair { .. } => true,
        CompiledSampler::Edge { two_m, .. } => *two_m < (1u64 << 32),
        CompiledSampler::Alias { .. } => false,
    }
}

/// The lockstep group width the kernels provide for this tier/sampler
/// pair: `8` where the AVX-512 drives pack eight lanes per `__m512i`
/// (complete-pair and edge), `4` for the other accelerated
/// combinations, `0` when the batch must stay on the scalar drive.  The
/// batch engine carves its active-lane list into the widest groups
/// first; [`drive_group`] accepts exactly the widths reported here.
pub(crate) fn group_width(tier: KernelTier, sampler: &CompiledSampler) -> usize {
    if tier == KernelTier::Scalar || !accelerates(sampler) {
        return 0;
    }
    #[cfg(target_arch = "x86_64")]
    if tier == KernelTier::Avx512
        && matches!(
            sampler,
            CompiledSampler::CompletePair { .. } | CompiledSampler::Edge { .. }
        )
    {
        return 8;
    }
    4
}

/// Drives a group of four or eight lanes in lockstep for exactly `steps`
/// bare toward-steps each, advancing each lane's RNG exactly as the
/// scalar drive would.  `cols` are the lanes' (disjoint) opinion
/// columns; `cols.len()` must equal `rngs.len()` and be a width
/// [`group_width`] reports for this tier/sampler pair (8 is AVX-512
/// complete-pair/edge only).
///
/// # Panics
///
/// Panics on a width/tier/sampler combination [`group_width`] does not
/// report; debug-panics if the sampler family is not
/// [`accelerates`]-supported or `tier` is `Scalar` (both are routed by
/// the caller).
#[allow(unsafe_code)] // feature-guarded dispatch into `avx2`/`avx512` (see SAFETY notes)
pub(crate) fn drive_group(
    tier: KernelTier,
    sampler: &CompiledSampler,
    graph: &Graph,
    cols: &mut [&mut [u16]],
    rngs: &mut [FastRng],
    steps: u64,
) {
    debug_assert!(accelerates(sampler), "unaccelerated sampler family");
    debug_assert!(tier != KernelTier::Scalar, "scalar drive stays in batch.rs");
    debug_assert_eq!(cols.len(), rngs.len());
    let width = cols.len();
    if width == 8 {
        let rngs: &mut [FastRng; 8] = rngs.try_into().expect("width checked above");
        #[cfg(target_arch = "x86_64")]
        if tier == KernelTier::Avx512 {
            let cols: &mut [&mut [u16]; 8] = cols.try_into().expect("width checked above");
            match sampler {
                CompiledSampler::CompletePair { n } =>
                // SAFETY: `tier == Avx512` only flows here when
                // `KernelTier::Avx512.is_supported()` held at tier
                // selection (`active()` clamps, `set_kernel_tier`
                // panics otherwise).
                unsafe { avx512::drive_complete_pair(cols, rngs, *n, steps) },
                CompiledSampler::Edge { endpoints, two_m } =>
                // SAFETY: as above — Avx512 implies a successful
                // runtime check.
                unsafe { avx512::drive_edge(cols, rngs, endpoints, *two_m, steps) },
                _ => panic!("8-lane groups are AVX-512 complete-pair/edge only"),
            }
            return;
        }
        let _ = rngs;
        panic!("8-lane groups are AVX-512 complete-pair/edge only");
    }
    let rngs: &mut [FastRng; 4] = rngs.try_into().expect("group width must be 4 or 8");
    let cols: &mut [&mut [u16]; 4] = cols.try_into().expect("width checked above");
    match sampler {
        CompiledSampler::CompletePair { n } => match tier {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2`-or-above tier values only flow here when the
            // matching `is_supported()` held at tier selection (`active()`
            // clamps, `set_kernel_tier` panics otherwise), and `Avx512`
            // support includes AVX2.
            KernelTier::Avx2 | KernelTier::Avx512 => unsafe {
                avx2::drive_complete_pair(cols, rngs, *n, steps)
            },
            _ => swar::drive_complete_pair(cols, rngs, *n, steps),
        },
        CompiledSampler::Edge { endpoints, two_m } => match tier {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above — the tier implies a successful runtime check.
            KernelTier::Avx2 | KernelTier::Avx512 => unsafe {
                avx2::drive_edge(cols, rngs, endpoints, *two_m, steps)
            },
            _ => swar::drive_edge(cols, rngs, endpoints, *two_m, steps),
        },
        // The vertex family's per-step degree/neighbour lookups are
        // scalar on every tier (gathered CSR indirection does not pay at
        // AVX2 widths); the interleaved word generation is the win, so
        // the AVX2 tier shares the SWAR drive.
        CompiledSampler::Vertex { n } => swar::drive_vertex(cols, rngs, graph, *n, steps),
        CompiledSampler::Alias { .. } => unreachable!("alias family is never accelerated"),
    }
}

/// Min and max of `xs` under `tier`, with the scalar fold's conventions
/// (`(u16::MAX, 0)` on an empty slice).  All tiers return identical
/// results — the tier is a pure throughput knob.
#[allow(unsafe_code)] // feature-guarded dispatch into `avx2` (see SAFETY notes)
pub fn min_max_u16(xs: &[u16], tier: KernelTier) -> (u16, u16) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2-or-above tier values only exist after a runtime
        // check (Avx512 support includes AVX2).
        KernelTier::Avx2 | KernelTier::Avx512 => unsafe { avx2::min_max_u16(xs) },
        KernelTier::Swar => swar::min_max_u16(xs),
        _ => {
            let (mut mn, mut mx) = (u16::MAX, 0u16);
            for &x in xs {
                mn = mn.min(x);
                mx = mx.max(x);
            }
            (mn, mx)
        }
    }
}

/// Min and max of `xs` under `tier` (`(u32::MAX, 0)` on an empty slice).
/// The `u32` twin of [`min_max_u16`], used by the sharded engine's
/// end-of-round extreme scans.
#[allow(unsafe_code)] // feature-guarded dispatch into `avx2` (see SAFETY notes)
pub fn min_max_u32(xs: &[u32], tier: KernelTier) -> (u32, u32) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2-or-above tier values only exist after a runtime
        // check (Avx512 support includes AVX2).
        KernelTier::Avx2 | KernelTier::Avx512 => unsafe { avx2::min_max_u32(xs) },
        KernelTier::Swar => swar::min_max_u32(xs),
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
/// # Panics
///
/// Debug-panics unless `0 < range < 2³²` (the batch engine's edge-table
/// regime) or if `tier` is unsupported on this CPU.
#[allow(unsafe_code)] // feature-guarded dispatch into `avx2` (see SAFETY notes)
pub fn bounded_u64_x4(tier: KernelTier, rngs: &mut [FastRng; 4], range: u64) -> [u64; 4] {
    debug_assert!(range > 0 && range < (1u64 << 32));
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2-or-above tier values only exist after a runtime
        // check; four-lane draws under Avx512 share the AVX2 kernel.
        KernelTier::Avx2 | KernelTier::Avx512 => unsafe { avx2::bounded_u64_x4(rngs, range) },
        KernelTier::Swar => swar::bounded_u64_x4(rngs, range),
        KernelTier::Scalar => {
            let mut out = [0u64; 4];
            for (j, rng) in rngs.iter_mut().enumerate() {
                out[j] = crate::engine::bounded_u64(rng, range);
            }
            out
        }
        #[cfg(not(target_arch = "x86_64"))]
        KernelTier::Avx2 | KernelTier::Avx512 => {
            unreachable!("vector tier on a non-x86_64 build")
        }
    }
}

/// One masked 64-bit Lemire draw on each of eight lanes — the
/// eight-wide twin of [`bounded_u64_x4`], native on the AVX-512 tier
/// and split into four-lane halves (lane-independent, so exact) on the
/// others.
///
/// # Panics
///
/// Debug-panics unless `0 < range < 2³²` or if `tier` is unsupported on
/// this CPU.
#[allow(unsafe_code)] // feature-guarded dispatch into `avx512` (see SAFETY notes)
pub fn bounded_u64_x8(tier: KernelTier, rngs: &mut [FastRng; 8], range: u64) -> [u64; 8] {
    debug_assert!(range > 0 && range < (1u64 << 32));
    #[cfg(target_arch = "x86_64")]
    if tier == KernelTier::Avx512 {
        // SAFETY: Avx512 tier values only exist after a runtime check.
        return unsafe { avx512::bounded_u64_x8(rngs, range) };
    }
    let (a, b) = rngs.split_at_mut(4);
    let a: &mut [FastRng; 4] = a.try_into().expect("eight lanes");
    let b: &mut [FastRng; 4] = b.try_into().expect("eight lanes");
    let tier4 = if tier == KernelTier::Avx512 {
        KernelTier::Avx2
    } else {
        tier
    };
    let lo = bounded_u64_x4(tier4, a, range);
    let hi = bounded_u64_x4(tier4, b, range);
    let mut out = [0u64; 8];
    out[..4].copy_from_slice(&lo);
    out[4..].copy_from_slice(&hi);
    out
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
        assert_eq!(KernelTier::from_name("neon"), None);
        assert!(KernelTier::Scalar.is_supported());
        assert!(KernelTier::Swar.is_supported());
        assert!(KernelTier::supported().contains(&KernelTier::detect()));
    }

    #[test]
    fn min_max_matches_scalar_fold_on_all_tiers() {
        let mut rng = FastRng::seed_from_u64(0x51CA);
        for len in [0usize, 1, 3, 4, 7, 8, 15, 16, 17, 63, 64, 100, 1013] {
            let xs: Vec<u16> = (0..len).map(|_| rng.next_word() as u16).collect();
            let want = min_max_u16(&xs, KernelTier::Scalar);
            let xs32: Vec<u32> = xs.iter().map(|&x| x as u32 * 7919).collect();
            let want32 = min_max_u32(&xs32, KernelTier::Scalar);
            for tier in tiers() {
                assert_eq!(min_max_u16(&xs, tier), want, "u16 len {len} {tier:?}");
                assert_eq!(min_max_u32(&xs32, tier), want32, "u32 len {len} {tier:?}");
            }
        }
    }

    #[test]
    fn min_max_handles_high_bit_values() {
        // The SWAR guard-bit compare must stay exact when values cross
        // the per-field sign bit.
        let xs: Vec<u16> = vec![0x7FFF, 0x8000, 0xFFFF, 0, 1, 0x8001, 0x7FFE];
        for tier in tiers() {
            assert_eq!(min_max_u16(&xs, tier), (0, 0xFFFF), "{tier:?}");
        }
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

    /// The eight-wide draw must agree with the scalar sampler lane for
    /// lane — on the AVX-512 tier this is the only entry that exercises
    /// the 512-bit Lemire path outside a full batch drive.
    #[test]
    fn bounded_x8_is_bit_exact_per_lane() {
        for range in [1u64, 2, 3, 5, 6, 1000, 1_000_003, (1 << 32) - 1] {
            for tier in tiers() {
                let mut lanes: [FastRng; 8] =
                    std::array::from_fn(|j| FastRng::seed_from_u64(0xE1E1 + 17 * j as u64 + range));
                let mut scalar = lanes;
                for _ in 0..2048 {
                    let got = bounded_u64_x8(tier, &mut lanes, range);
                    for (j, rng) in scalar.iter_mut().enumerate() {
                        assert_eq!(got[j], bounded_u64(rng, range), "lane {j} {tier:?} {range}");
                    }
                }
                for j in 0..8 {
                    assert_eq!(
                        lanes[j], scalar[j],
                        "lane {j} rng position {tier:?} {range}"
                    );
                }
            }
        }
    }

    /// Chi-square acceptance for the eight-wide draw on the same
    /// non-dividing spans (covers the 512-bit rejection path).
    #[test]
    fn chi_square_accepts_x8_lemire_on_non_dividing_spans() {
        for tier in tiers() {
            for (seed, range, draws) in [
                (0xD1CE_2001u64, 3u64, 60_000u64),
                (0xD1CE_2002, 5, 100_000),
                (0xD1CE_2003, 1_000_003, 10_000_030),
            ] {
                let mut lanes: [FastRng; 8] =
                    std::array::from_fn(|j| FastRng::seed_from_u64(seed ^ (j as u64 * 0x9E37)));
                let mut counts = vec![0u64; range as usize];
                let rounds = draws / 8;
                for _ in 0..rounds {
                    for x in bounded_u64_x8(tier, &mut lanes, range) {
                        counts[x as usize] += 1;
                    }
                }
                let total = (rounds * 8) as f64;
                let expected = total / range as f64;
                let stat: f64 = counts
                    .iter()
                    .map(|&c| {
                        let d = c as f64 - expected;
                        d * d / expected
                    })
                    .sum();
                let df = (range - 1) as f64;
                let h = 2.0 / (9.0 * df);
                let critical = df * (1.0 - h + 3.0902 * h.sqrt()).powi(3);
                assert!(
                    stat < critical,
                    "{tier:?} range {range}: chi² {stat:.1} ≥ critical {critical:.1}"
                );
            }
        }
    }
}
