//! Random graph families.
//!
//! These are the expander classes of the paper's Theorem 2 examples:
//! random `d`-regular graphs (`λ = O(1/√d)` w.h.p.) and Erdős–Rényi
//! `G(n,p)` above the connectivity threshold (`λ ≤ (1+o(1))·2/√(np)`
//! w.h.p.), plus two structured random families (Watts–Strogatz,
//! Barabási–Albert) used as additional workloads.

use rand::Rng;

use crate::{Graph, GraphBuilder, GraphError};

/// Maximum number of full restarts before
/// [`random_regular`] reports [`GraphError::GenerationFailed`].
const REGULAR_MAX_ATTEMPTS: usize = 1_000;

/// A random simple `d`-regular graph on `n` vertices, via the
/// Steger–Wormald pairing algorithm.
///
/// Stubs (half-edges) are paired one edge at a time, each time drawing a
/// uniform pair among the remaining stubs and rejecting only pairs that
/// would create a loop or a parallel edge; if the process wedges (the
/// remaining stubs admit no valid pair) the whole attempt restarts.  The
/// resulting distribution is asymptotically uniform over simple
/// `d`-regular graphs (Steger & Wormald 1999) and the algorithm is fast
/// for `d = o(n^{1/3})`, covering every degree used in the experiments.
///
/// Each vertex keeps a table of the at most `d` neighbours placed so far,
/// so rejecting a parallel edge scans one short list instead of hashing
/// a pair.
///
/// The sample is *not* conditioned on connectivity; for `d ≥ 3` it is
/// connected with high probability.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `d == 0`, `d >= n`, or `nd`
/// is odd, and [`GraphError::GenerationFailed`] if no simple sample is
/// found within the restart budget.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// # fn main() -> Result<(), div_graph::GraphError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let g = div_graph::generators::random_regular(100, 4, &mut rng)?;
/// assert!(g.is_regular());
/// assert_eq!(g.min_degree(), 4);
/// # Ok(())
/// # }
/// ```
pub fn random_regular<R: Rng + ?Sized>(
    n: usize,
    d: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::EmptyGraph);
    }
    if d == 0 {
        return Err(GraphError::invalid("random_regular requires d >= 1"));
    }
    if d >= n {
        return Err(GraphError::invalid(format!(
            "random_regular requires d < n (got d={d}, n={n})"
        )));
    }
    // The stub list indexes vertices as u32 and holds n·d entries: both
    // bounds are checked up front so million-vertex requests fail loudly
    // on narrow targets instead of truncating through `as` casts.
    if n > u32::MAX as usize {
        return Err(GraphError::overflow(
            "random_regular",
            format!("vertex count {n} exceeds the u32 stub index"),
        ));
    }
    let num_stubs = n
        .checked_mul(d)
        .ok_or_else(|| GraphError::overflow("random_regular", format!("stub count {n} * {d}")))?;
    if !num_stubs.is_multiple_of(2) {
        return Err(GraphError::invalid(format!(
            "random_regular requires n*d even (got n={n}, d={d})"
        )));
    }

    'attempt: for _ in 0..REGULAR_MAX_ATTEMPTS {
        // Stub list: vertex v appears once per unit of residual degree.
        let mut stubs: Vec<u32> = (0..num_stubs).map(|i| (i / d) as u32).collect();
        let mut placed = Placed::new(n, d);
        while !stubs.is_empty() {
            // A uniform stub pair is valid unless it is a loop or repeats
            // an edge. If the remaining stubs admit no valid pair at all,
            // restart; detect that case after a bounded streak of
            // rejections by an exhaustive check.
            let mut paired = false;
            for _ in 0..64 {
                let i = rng.gen_range(0..stubs.len());
                let mut j = rng.gen_range(0..stubs.len() - 1);
                if j >= i {
                    j += 1;
                }
                let (u, v) = (stubs[i] as usize, stubs[j] as usize);
                if u == v || placed.contains(u, v) {
                    continue;
                }
                placed.insert(u, v);
                // Remove both stubs (higher index first).
                let (hi, lo) = if i > j { (i, j) } else { (j, i) };
                stubs.swap_remove(hi);
                stubs.swap_remove(lo);
                paired = true;
                break;
            }
            if !paired {
                // Exhaustively verify whether any valid pair remains.
                let any = (0..stubs.len()).any(|a| {
                    ((a + 1)..stubs.len()).any(|b| {
                        let (u, v) = (stubs[a] as usize, stubs[b] as usize);
                        u != v && !placed.contains(u, v)
                    })
                });
                if !any {
                    continue 'attempt; // wedged; restart
                }
                // Valid pairs exist but we were unlucky; keep sampling.
            }
        }
        let mut builder = GraphBuilder::with_capacity(n, num_stubs / 2)?;
        for u in 0..n {
            for &w in placed.list(u).iter().filter(|&&w| w as usize > u) {
                builder.add_edge(u, w as usize)?;
            }
        }
        return builder.build();
    }
    Err(GraphError::GenerationFailed {
        generator: "random_regular",
        attempts: REGULAR_MAX_ATTEMPTS,
    })
}

/// The neighbours [`random_regular`] has placed so far in one pairing
/// attempt: vertex `v`'s occupy `slots[v·d .. v·d + len[v]]`, and there
/// are never more than `d` of them, so a membership test scans at most
/// `d` entries and needs no hashing.  Once every stub is paired it is the
/// graph's adjacency table, from which the edges are read.
struct Placed {
    d: usize,
    len: Vec<u32>,
    slots: Vec<u32>,
}

impl Placed {
    fn new(n: usize, d: usize) -> Self {
        Placed {
            d,
            len: vec![0; n],
            slots: vec![0; n * d],
        }
    }

    fn list(&self, v: usize) -> &[u32] {
        &self.slots[v * self.d..v * self.d + self.len[v] as usize]
    }

    /// Whether the edge `{u, v}` is placed: a scan of the shorter list.
    fn contains(&self, u: usize, v: usize) -> bool {
        let (a, b) = if self.len[u] <= self.len[v] {
            (u, v)
        } else {
            (v, u)
        };
        self.list(a).contains(&(b as u32))
    }

    fn insert(&mut self, u: usize, v: usize) {
        for (a, b) in [(u, v), (v, u)] {
            self.slots[a * self.d + self.len[a] as usize] = b as u32;
            self.len[a] += 1;
        }
    }
}

/// The Erdős–Rényi random graph `G(n, p)`: each of the `C(n,2)` possible
/// edges is present independently with probability `p`.
///
/// Implemented with geometric gap-skipping, so the cost is
/// `O(n + m)` rather than `O(n²)` for sparse `p`.
///
/// # Errors
///
/// Returns [`GraphError::EmptyGraph`] if `n == 0` and
/// [`GraphError::InvalidParameter`] if `p` is not in `[0, 1]` or is NaN.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// # fn main() -> Result<(), div_graph::GraphError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(11);
/// let g = div_graph::generators::gnp(200, 0.05, &mut rng)?;
/// assert_eq!(g.num_vertices(), 200);
/// # Ok(())
/// # }
/// ```
pub fn gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::EmptyGraph);
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::invalid(format!(
            "gnp requires p in [0, 1] (got {p})"
        )));
    }
    if p == 1.0 {
        return crate::generators::complete(n);
    }
    let mut builder = GraphBuilder::new(n)?;
    if p > 0.0 {
        // Enumerate pairs (u, v), u < v, in lexicographic order as a single
        // index in 0..C(n,2), skipping ahead by geometric gaps.
        let total = n as u64 * (n as u64 - 1) / 2;
        let log_q = (1.0 - p).ln();
        let mut idx: u64 = 0;
        let mut first = true;
        loop {
            let r: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let gap = (r.ln() / log_q).floor() as u64;
            idx = if first {
                first = false;
                gap
            } else {
                match idx.checked_add(gap + 1) {
                    Some(x) => x,
                    None => break,
                }
            };
            if idx >= total {
                break;
            }
            let (u, v) = pair_from_index(n as u64, idx);
            builder.add_edge(u as usize, v as usize)?;
        }
    }
    builder.build()
}

/// Maps a lexicographic pair index in `0..C(n,2)` to the pair `(u, v)`,
/// `u < v`.
fn pair_from_index(n: u64, idx: u64) -> (u64, u64) {
    // Row u owns indices [S(u), S(u) + n-1-u) where S(u) = u*n - u*(u+1)/2.
    // Solve by binary search over u (robust against floating-point edge
    // cases that a closed-form quadratic inversion would have).
    let row_start = |u: u64| u * n - u * (u + 1) / 2;
    let (mut lo, mut hi) = (0u64, n - 1);
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if row_start(mid) <= idx {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let u = if row_start(hi) <= idx { hi } else { lo };
    let v = u + 1 + (idx - row_start(u));
    (u, v)
}

/// The Watts–Strogatz small-world graph: a ring lattice where each vertex
/// is joined to its `k/2` nearest neighbours on each side, with every edge
/// rewired independently with probability `beta` (avoiding loops and
/// duplicates).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `k` is odd, `k == 0`,
/// `k >= n - 1`, or `beta` is not in `[0, 1]`.
pub fn watts_strogatz<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    beta: f64,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if k == 0 || !k.is_multiple_of(2) {
        return Err(GraphError::invalid(format!(
            "watts_strogatz requires even k >= 2 (got {k})"
        )));
    }
    if k >= n.saturating_sub(1) {
        return Err(GraphError::invalid(format!(
            "watts_strogatz requires k < n - 1 (got k={k}, n={n})"
        )));
    }
    if !(0.0..=1.0).contains(&beta) {
        return Err(GraphError::invalid(format!(
            "watts_strogatz requires beta in [0, 1] (got {beta})"
        )));
    }
    let lattice_edges = n.checked_mul(k).map(|nk| nk / 2).ok_or_else(|| {
        GraphError::overflow("watts_strogatz", format!("edge count {n} * {k} / 2"))
    })?;
    // Edge set maintained as a hash set of canonical pairs, then built.
    let mut edges: std::collections::HashSet<(usize, usize)> =
        std::collections::HashSet::with_capacity(lattice_edges);
    let canon = |u: usize, v: usize| if u < v { (u, v) } else { (v, u) };
    for u in 0..n {
        for j in 1..=(k / 2) {
            edges.insert(canon(u, (u + j) % n));
        }
    }
    if beta > 0.0 {
        // Rewire the lattice edges in a deterministic sweep order.
        for u in 0..n {
            for j in 1..=(k / 2) {
                let old = canon(u, (u + j) % n);
                if !edges.contains(&old) || rng.gen::<f64>() >= beta {
                    continue;
                }
                // Choose a fresh endpoint; give up after a bounded number
                // of tries (dense corner cases), keeping the old edge.
                for _ in 0..32 {
                    let w = rng.gen_range(0..n);
                    let candidate = canon(u, w);
                    if w != u && candidate != old && !edges.contains(&candidate) {
                        edges.remove(&old);
                        edges.insert(candidate);
                        break;
                    }
                }
            }
        }
    }
    let mut builder = GraphBuilder::with_capacity(n, edges.len())?;
    for (u, v) in edges {
        builder.add_edge(u, v)?;
    }
    builder.build()
}

/// The Barabási–Albert preferential-attachment graph: starting from a
/// complete graph on `m + 1` vertices, each new vertex attaches to `m`
/// distinct existing vertices chosen with probability proportional to
/// degree.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `m == 0` or `n < m + 1`.
pub fn barabasi_albert<R: Rng + ?Sized>(
    n: usize,
    m: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if m == 0 {
        return Err(GraphError::invalid("barabasi_albert requires m >= 1"));
    }
    if n < m + 1 {
        return Err(GraphError::invalid(format!(
            "barabasi_albert requires n >= m + 1 (got n={n}, m={m})"
        )));
    }
    let overflow =
        || GraphError::overflow("barabasi_albert", format!("edge budget for n={n}, m={m}"));
    let num_edges = (m * (m + 1) / 2)
        .checked_add((n - m - 1).checked_mul(m).ok_or_else(overflow)?)
        .ok_or_else(overflow)?;
    let num_stubs = num_edges.checked_mul(2).ok_or_else(overflow)?;
    let mut builder = GraphBuilder::with_capacity(n, num_edges)?;
    // `stubs` holds each vertex once per unit of degree; sampling a uniform
    // element is exactly degree-proportional sampling.
    let mut stubs: Vec<usize> = Vec::with_capacity(num_stubs);
    for u in 0..=m {
        for v in (u + 1)..=m {
            builder.add_edge(u, v)?;
            stubs.push(u);
            stubs.push(v);
        }
    }
    let mut chosen: Vec<usize> = Vec::with_capacity(m);
    for v in (m + 1)..n {
        chosen.clear();
        while chosen.len() < m {
            let t = stubs[rng.gen_range(0..stubs.len())];
            if !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for &t in &chosen {
            builder.add_edge(v, t)?;
            stubs.push(v);
            stubs.push(t);
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_regular_is_regular_and_connected() {
        let mut rng = StdRng::seed_from_u64(42);
        for &(n, d) in &[(10, 3), (50, 4), (101, 6), (200, 3)] {
            let g = random_regular(n, d, &mut rng).unwrap();
            assert_eq!(g.num_vertices(), n);
            assert!(g.is_regular(), "n={n} d={d}");
            assert_eq!(g.min_degree(), d);
            assert_eq!(g.num_edges(), n * d / 2);
            // d >= 3 samples are connected w.h.p.; with this fixed seed
            // they all are.
            assert!(algo::is_connected(&g), "n={n} d={d}");
        }
    }

    #[test]
    fn random_regular_parameter_validation() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(random_regular(0, 3, &mut rng).is_err());
        assert!(random_regular(10, 0, &mut rng).is_err());
        assert!(random_regular(10, 10, &mut rng).is_err());
        assert!(random_regular(5, 3, &mut rng).is_err()); // odd n*d
    }

    #[test]
    fn oversized_requests_fail_loudly_before_allocating() {
        let mut rng = StdRng::seed_from_u64(0);
        // Each of these would overflow an intermediate size product (or
        // the u32 stub index); the typed error must fire eagerly instead
        // of truncating or aborting on a huge allocation.
        let err = random_regular(u32::MAX as usize + 2, 2, &mut rng).unwrap_err();
        assert!(matches!(err, GraphError::SizeOverflow { .. }), "{err:?}");
        let err = watts_strogatz(usize::MAX / 2, 4, 0.0, &mut rng).unwrap_err();
        assert!(matches!(err, GraphError::SizeOverflow { .. }), "{err:?}");
        let err = barabasi_albert(usize::MAX / 2, 3, &mut rng).unwrap_err();
        assert!(matches!(err, GraphError::SizeOverflow { .. }), "{err:?}");
    }

    #[test]
    fn random_regular_d1_is_perfect_matching() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = random_regular(10, 1, &mut rng).unwrap();
        assert_eq!(g.num_edges(), 5);
        assert!(g.is_regular());
        assert_eq!(g.max_degree(), 1);
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        let empty = gnp(20, 0.0, &mut rng).unwrap();
        assert_eq!(empty.num_edges(), 0);
        let full = gnp(20, 1.0, &mut rng).unwrap();
        assert_eq!(full.num_edges(), 190);
    }

    #[test]
    fn gnp_edge_count_near_expectation() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 400;
        let p = 0.1;
        let total = (n * (n - 1) / 2) as f64;
        let mut sum = 0.0;
        let reps = 20;
        for _ in 0..reps {
            sum += gnp(n, p, &mut rng).unwrap().num_edges() as f64;
        }
        let mean = sum / reps as f64;
        let expect = total * p;
        let sd = (total * p * (1.0 - p) / reps as f64).sqrt();
        assert!(
            (mean - expect).abs() < 5.0 * sd,
            "mean {mean} vs expectation {expect}"
        );
    }

    #[test]
    fn gnp_connected_above_threshold() {
        let mut rng = StdRng::seed_from_u64(9);
        // np = 3 log n, comfortably above the log n threshold.
        let n = 300;
        let p = 3.0 * (n as f64).ln() / n as f64;
        for _ in 0..5 {
            let g = gnp(n, p, &mut rng).unwrap();
            assert!(algo::is_connected(&g));
        }
    }

    #[test]
    fn gnp_validation() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(gnp(0, 0.5, &mut rng).is_err());
        assert!(gnp(10, -0.1, &mut rng).is_err());
        assert!(gnp(10, 1.5, &mut rng).is_err());
        assert!(gnp(10, f64::NAN, &mut rng).is_err());
    }

    #[test]
    fn pair_from_index_roundtrip() {
        let n = 13u64;
        let mut idx = 0u64;
        for u in 0..n {
            for v in (u + 1)..n {
                assert_eq!(pair_from_index(n, idx), (u, v), "idx={idx}");
                idx += 1;
            }
        }
        assert_eq!(idx, n * (n - 1) / 2);
    }

    #[test]
    fn watts_strogatz_zero_beta_is_ring_lattice() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = watts_strogatz(20, 4, 0.0, &mut rng).unwrap();
        assert!(g.is_regular());
        assert_eq!(g.min_degree(), 4);
        assert_eq!(g.num_edges(), 40);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(0, 19));
        assert!(g.has_edge(0, 18));
    }

    #[test]
    fn watts_strogatz_preserves_edge_count() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = watts_strogatz(60, 6, 0.3, &mut rng).unwrap();
        assert_eq!(g.num_edges(), 180);
        assert_eq!(g.num_vertices(), 60);
    }

    #[test]
    fn watts_strogatz_validation() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(watts_strogatz(10, 3, 0.1, &mut rng).is_err()); // odd k
        assert!(watts_strogatz(10, 0, 0.1, &mut rng).is_err());
        assert!(watts_strogatz(5, 4, 0.1, &mut rng).is_err()); // k >= n-1
        assert!(watts_strogatz(10, 4, 1.5, &mut rng).is_err());
    }

    #[test]
    fn barabasi_albert_counts() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = barabasi_albert(50, 3, &mut rng).unwrap();
        assert_eq!(g.num_vertices(), 50);
        assert_eq!(g.num_edges(), 6 + 46 * 3);
        assert!(algo::is_connected(&g));
        assert!(g.min_degree() >= 3);
    }

    #[test]
    fn barabasi_albert_hubs_emerge() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = barabasi_albert(400, 2, &mut rng).unwrap();
        // Preferential attachment produces a heavy tail: the max degree
        // should far exceed the mean degree (4).
        assert!(g.max_degree() > 12, "max degree {}", g.max_degree());
    }

    #[test]
    fn barabasi_albert_validation() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(barabasi_albert(10, 0, &mut rng).is_err());
        assert!(barabasi_albert(3, 3, &mut rng).is_err());
    }
}
