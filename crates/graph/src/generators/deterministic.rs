//! Deterministic graph families with known structure and spectra.

use crate::{Graph, GraphBuilder, GraphError};

/// The complete graph `K_n`.
///
/// Second random-walk eigenvalue `λ = 1/(n − 1)` in absolute value, the
/// canonical expander of the paper's examples.
///
/// # Errors
///
/// Returns [`GraphError::EmptyGraph`] if `n == 0`.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), div_graph::GraphError> {
/// let g = div_graph::generators::complete(6)?;
/// assert_eq!(g.num_edges(), 15);
/// assert!(g.is_regular());
/// # Ok(())
/// # }
/// ```
pub fn complete(n: usize) -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_mul(n.saturating_sub(1)) / 2)?;
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u, v)?;
        }
    }
    b.build()
}

/// The path graph `P_n` on vertices `0 — 1 — … — n−1`.
///
/// The paper's canonical *non*-expander: `λ = 1 − O(1/n²)`, so the
/// `λk = o(1)` hypothesis of Theorem 2 fails and opinions other than
/// `⌊c⌋, ⌈c⌉` can win (experiment E5).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n < 2` (a single vertex has
/// no edges, and voting on it is degenerate).
pub fn path(n: usize) -> Result<Graph, GraphError> {
    if n < 2 {
        return Err(GraphError::invalid("path requires n >= 2"));
    }
    let mut b = GraphBuilder::with_capacity(n, n - 1)?;
    for v in 1..n {
        b.add_edge(v - 1, v)?;
    }
    b.build()
}

/// The cycle graph `C_n`.
///
/// Random-walk eigenvalues `cos(2πj/n)`; for even `n` the graph is
/// bipartite and `λ = 1`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n < 3`.
pub fn cycle(n: usize) -> Result<Graph, GraphError> {
    if n < 3 {
        return Err(GraphError::invalid("cycle requires n >= 3"));
    }
    let mut b = GraphBuilder::with_capacity(n, n)?;
    for v in 1..n {
        b.add_edge(v - 1, v)?;
    }
    b.add_edge(n - 1, 0)?;
    b.build()
}

/// The star `S_n`: centre `0` joined to leaves `1..n`.
///
/// Maximally irregular: `π_0 = 1/2` while each leaf has `π_v = 1/(2(n−1))`,
/// making it the sharpest separator between the vertex-process
/// (degree-weighted) and edge-process (uniform) averages.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n < 2`.
pub fn star(n: usize) -> Result<Graph, GraphError> {
    if n < 2 {
        return Err(GraphError::invalid("star requires n >= 2"));
    }
    let mut b = GraphBuilder::with_capacity(n, n - 1)?;
    for v in 1..n {
        b.add_edge(0, v)?;
    }
    b.build()
}

/// The wheel `W_n`: a cycle on `1..n` plus a hub `0` joined to every rim
/// vertex.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n < 4` (the rim needs at
/// least three vertices).
pub fn wheel(n: usize) -> Result<Graph, GraphError> {
    if n < 4 {
        return Err(GraphError::invalid("wheel requires n >= 4"));
    }
    let rim = n - 1;
    let mut b = GraphBuilder::with_capacity(n, 2 * rim)?;
    for v in 1..n {
        b.add_edge(0, v)?;
    }
    for i in 0..rim {
        b.add_edge(1 + i, 1 + (i + 1) % rim)?;
    }
    b.build()
}

/// The `rows × cols` grid with open boundary.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if either side is zero or the
/// grid has a single vertex.
pub fn grid2d(rows: usize, cols: usize) -> Result<Graph, GraphError> {
    if rows == 0 || cols == 0 || rows * cols < 2 {
        return Err(GraphError::invalid("grid2d requires rows*cols >= 2"));
    }
    let idx = |r: usize, c: usize| r * cols + c;
    let mut b = GraphBuilder::with_capacity(rows * cols, 2 * rows * cols)?;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(idx(r, c), idx(r, c + 1))?;
            }
            if r + 1 < rows {
                b.add_edge(idx(r, c), idx(r + 1, c))?;
            }
        }
    }
    b.build()
}

/// The `rows × cols` torus (grid with wrap-around), 4-regular when both
/// sides are at least 3.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] unless both sides are `>= 3`
/// (smaller sides would create loops or parallel edges).
pub fn torus2d(rows: usize, cols: usize) -> Result<Graph, GraphError> {
    if rows < 3 || cols < 3 {
        return Err(GraphError::invalid(
            "torus2d requires rows >= 3 and cols >= 3",
        ));
    }
    let idx = |r: usize, c: usize| r * cols + c;
    let mut b = GraphBuilder::with_capacity(rows * cols, 2 * rows * cols)?;
    for r in 0..rows {
        for c in 0..cols {
            b.add_edge(idx(r, c), idx(r, (c + 1) % cols))?;
            b.add_edge(idx(r, c), idx((r + 1) % rows, c))?;
        }
    }
    b.build()
}

/// The hypercube `Q_d` on `2^d` vertices.
///
/// `d`-regular and bipartite (so the non-lazy walk has `λ = 1`).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `d == 0` or `d >= 32`.
pub fn hypercube(d: u32) -> Result<Graph, GraphError> {
    if d == 0 {
        return Err(GraphError::invalid("hypercube requires d >= 1"));
    }
    if d >= 32 {
        return Err(GraphError::invalid("hypercube requires d < 32"));
    }
    let n = 1usize << d;
    let mut b = GraphBuilder::with_capacity(n, n * d as usize / 2)?;
    for v in 0..n {
        for bit in 0..d {
            let u = v ^ (1 << bit);
            if v < u {
                b.add_edge(v, u)?;
            }
        }
    }
    b.build()
}

/// The complete bipartite graph `K_{a,b}` with parts `0..a` and `a..a+b`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if either side is zero.
pub fn complete_bipartite(a: usize, b: usize) -> Result<Graph, GraphError> {
    if a == 0 || b == 0 {
        return Err(GraphError::invalid(
            "complete_bipartite requires a >= 1 and b >= 1",
        ));
    }
    let mut builder = GraphBuilder::with_capacity(a + b, a * b)?;
    for u in 0..a {
        for v in a..(a + b) {
            builder.add_edge(u, v)?;
        }
    }
    builder.build()
}

/// The complete binary tree on `n` vertices (heap indexing: children of `v`
/// are `2v+1` and `2v+2`).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n < 2`.
pub fn binary_tree(n: usize) -> Result<Graph, GraphError> {
    if n < 2 {
        return Err(GraphError::invalid("binary_tree requires n >= 2"));
    }
    let mut b = GraphBuilder::with_capacity(n, n - 1)?;
    for v in 1..n {
        b.add_edge((v - 1) / 2, v)?;
    }
    b.build()
}

/// The barbell graph: two copies of `K_h` joined by a path of `bridge`
/// intermediate vertices (`bridge = 0` joins the cliques by a single edge).
///
/// A classic low-conductance graph: `λ` close to 1, slow mixing.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `h < 2`.
pub fn barbell(h: usize, bridge: usize) -> Result<Graph, GraphError> {
    if h < 2 {
        return Err(GraphError::invalid("barbell requires clique size h >= 2"));
    }
    let n = 2 * h + bridge;
    let mut b = GraphBuilder::with_capacity(n, h * (h - 1) + bridge + 1)?;
    // Left clique: 0..h; right clique: h+bridge..n; bridge path between.
    for u in 0..h {
        for v in (u + 1)..h {
            b.add_edge(u, v)?;
        }
    }
    let right = h + bridge;
    for u in right..n {
        for v in (u + 1)..n {
            b.add_edge(u, v)?;
        }
    }
    // Path: (h-1) — h — h+1 — … — (h+bridge).
    let mut prev = h - 1;
    for v in h..=right {
        b.add_edge(prev, v)?;
        prev = v;
    }
    b.build()
}

/// The lollipop graph: a clique `K_h` with a path of `tail` extra vertices
/// hanging off vertex `h − 1`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `h < 2` or `tail == 0`.
pub fn lollipop(h: usize, tail: usize) -> Result<Graph, GraphError> {
    if h < 2 {
        return Err(GraphError::invalid("lollipop requires clique size h >= 2"));
    }
    if tail == 0 {
        return Err(GraphError::invalid("lollipop requires tail >= 1"));
    }
    let n = h + tail;
    let mut b = GraphBuilder::with_capacity(n, h * (h - 1) / 2 + tail)?;
    for u in 0..h {
        for v in (u + 1)..h {
            b.add_edge(u, v)?;
        }
    }
    for v in h..n {
        b.add_edge(v - 1, v)?;
    }
    b.build()
}

/// The double star: two hubs joined by an edge, with `left` leaves on hub 0
/// and `right` leaves on hub 1.
///
/// Hub degrees `left + 1` and `right + 1` versus leaf degree 1 give an
/// easily computed degree-weighted average, used in experiment E10.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if both `left` and `right` are
/// zero.
pub fn double_star(left: usize, right: usize) -> Result<Graph, GraphError> {
    if left == 0 && right == 0 {
        return Err(GraphError::invalid(
            "double_star requires at least one leaf",
        ));
    }
    let n = 2 + left + right;
    let mut b = GraphBuilder::with_capacity(n, 1 + left + right)?;
    b.add_edge(0, 1)?;
    for i in 0..left {
        b.add_edge(0, 2 + i)?;
    }
    for i in 0..right {
        b.add_edge(1, 2 + left + i)?;
    }
    b.build()
}

/// The circulant graph `C_n(S)`: vertex `v` is joined to `v ± s (mod n)`
/// for every stride `s ∈ S`.
///
/// Circulants are the workhorse spectral oracle: the walk eigenvalues are
/// exactly `(Σ_{s<n/2∈S} 2·cos(2πjs/n) + [n/2 ∈ S]·cos(πj)) / d` for
/// `j = 0..n` (see [`crate::generators`] callers in `div-spectral`).
/// `circulant(n, &[1])` is the cycle; `circulant(n, &[1..=n/2])` is `K_n`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n < 3`, `S` is empty,
/// contains 0, a stride `> n/2`, or a duplicate.
pub fn circulant(n: usize, strides: &[usize]) -> Result<Graph, GraphError> {
    if n < 3 {
        return Err(GraphError::invalid("circulant requires n >= 3"));
    }
    if strides.is_empty() {
        return Err(GraphError::invalid(
            "circulant requires at least one stride",
        ));
    }
    for (i, &s) in strides.iter().enumerate() {
        if s == 0 || s > n / 2 {
            return Err(GraphError::invalid(format!(
                "circulant stride {s} outside 1..={}",
                n / 2
            )));
        }
        if strides[..i].contains(&s) {
            return Err(GraphError::invalid(format!(
                "duplicate circulant stride {s}"
            )));
        }
    }
    // Edge {v, v + s} arises once per vertex v for each stride, and two
    // distinct strides s, t ≤ n/2 meet on one edge only when s + t = n.
    // So the only repeats come from the antipodal stride 2s = n, where
    // v and v + s name the same edge: take it from v < n/2 alone.
    let mut b = GraphBuilder::with_capacity(n, n * strides.len())?;
    for &s in strides {
        let sources = if 2 * s == n { n / 2 } else { n };
        for v in 0..sources {
            b.add_edge(v, (v + s) % n)?;
        }
    }
    b.build()
}

/// The complete multipartite graph with the given part sizes: vertices in
/// different parts are adjacent, vertices in the same part are not.
/// Parts are laid out consecutively.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if fewer than two parts are
/// given or any part is empty.
pub fn complete_multipartite(parts: &[usize]) -> Result<Graph, GraphError> {
    if parts.len() < 2 {
        return Err(GraphError::invalid(
            "complete_multipartite requires at least two parts",
        ));
    }
    if parts.contains(&0) {
        return Err(GraphError::invalid(
            "complete_multipartite parts must be non-empty",
        ));
    }
    let n: usize = parts.iter().sum();
    let mut part_of = Vec::with_capacity(n);
    for (i, &size) in parts.iter().enumerate() {
        part_of.extend(std::iter::repeat_n(i, size));
    }
    let mut b = GraphBuilder::new(n)?;
    for u in 0..n {
        for v in (u + 1)..n {
            if part_of[u] != part_of[v] {
                b.add_edge(u, v)?;
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;

    #[test]
    fn complete_counts_and_regularity() {
        for n in 1..=12 {
            let g = complete(n).unwrap();
            assert_eq!(g.num_vertices(), n);
            assert_eq!(g.num_edges(), n * (n - 1) / 2);
            if n > 1 {
                assert!(g.is_regular());
                assert_eq!(g.min_degree(), n - 1);
            }
        }
    }

    #[test]
    fn path_structure() {
        let g = path(6).unwrap();
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(5), 1);
        for v in 1..5 {
            assert_eq!(g.degree(v), 2);
        }
        assert!(algo::is_connected(&g));
        assert!(path(1).is_err());
    }

    #[test]
    fn cycle_is_2_regular() {
        let g = cycle(7).unwrap();
        assert_eq!(g.num_edges(), 7);
        assert!(g.is_regular());
        assert_eq!(g.min_degree(), 2);
        assert!(g.has_edge(6, 0));
        assert!(cycle(2).is_err());
    }

    #[test]
    fn star_degrees() {
        let g = star(10).unwrap();
        assert_eq!(g.degree(0), 9);
        for v in 1..10 {
            assert_eq!(g.degree(v), 1);
        }
        assert!(star(1).is_err());
    }

    #[test]
    fn wheel_degrees() {
        let g = wheel(8).unwrap(); // hub + rim of 7
        assert_eq!(g.degree(0), 7);
        for v in 1..8 {
            assert_eq!(g.degree(v), 3);
        }
        assert_eq!(g.num_edges(), 14);
        assert!(wheel(3).is_err());
    }

    #[test]
    fn grid_counts() {
        let g = grid2d(3, 4).unwrap();
        assert_eq!(g.num_vertices(), 12);
        // Horizontal: 3 rows * 3; vertical: 2 * 4.
        assert_eq!(g.num_edges(), 9 + 8);
        assert!(algo::is_connected(&g));
        assert!(grid2d(0, 5).is_err());
        assert!(grid2d(1, 1).is_err());
    }

    #[test]
    fn torus_is_4_regular() {
        let g = torus2d(3, 5).unwrap();
        assert!(g.is_regular());
        assert_eq!(g.min_degree(), 4);
        assert_eq!(g.num_edges(), 2 * 15);
        assert!(torus2d(2, 5).is_err());
    }

    #[test]
    fn hypercube_structure() {
        let g = hypercube(4).unwrap();
        assert_eq!(g.num_vertices(), 16);
        assert!(g.is_regular());
        assert_eq!(g.min_degree(), 4);
        assert_eq!(g.num_edges(), 32);
        assert!(algo::is_bipartite(&g));
        assert!(hypercube(0).is_err());
        assert!(hypercube(32).is_err());
    }

    #[test]
    fn complete_bipartite_structure() {
        let g = complete_bipartite(3, 4).unwrap();
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_edges(), 12);
        assert!(algo::is_bipartite(&g));
        for u in 0..3 {
            assert_eq!(g.degree(u), 4);
        }
        for v in 3..7 {
            assert_eq!(g.degree(v), 3);
        }
        assert!(complete_bipartite(0, 4).is_err());
    }

    #[test]
    fn binary_tree_structure() {
        let g = binary_tree(7).unwrap();
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 3);
        assert_eq!(g.degree(6), 1);
        assert!(algo::is_connected(&g));
    }

    #[test]
    fn barbell_structure() {
        let g = barbell(4, 2).unwrap();
        assert_eq!(g.num_vertices(), 10);
        // 2 * C(4,2) cliques + 3 path edges.
        assert_eq!(g.num_edges(), 12 + 3);
        assert!(algo::is_connected(&g));

        let g0 = barbell(3, 0).unwrap();
        assert_eq!(g0.num_vertices(), 6);
        assert_eq!(g0.num_edges(), 3 + 3 + 1);
        assert!(algo::is_connected(&g0));
        assert!(barbell(1, 1).is_err());
    }

    #[test]
    fn lollipop_structure() {
        let g = lollipop(4, 3).unwrap();
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_edges(), 6 + 3);
        assert_eq!(g.degree(6), 1);
        assert!(algo::is_connected(&g));
        assert!(lollipop(4, 0).is_err());
    }

    #[test]
    fn double_star_structure() {
        let g = double_star(3, 5).unwrap();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 9);
        assert_eq!(g.degree(0), 4);
        assert_eq!(g.degree(1), 6);
        assert!(algo::is_connected(&g));
        assert!(double_star(0, 0).is_err());
    }

    #[test]
    fn circulant_special_cases() {
        // Stride {1} is the cycle.
        assert_eq!(circulant(9, &[1]).unwrap(), cycle(9).unwrap());
        // All strides give the complete graph.
        assert_eq!(circulant(7, &[1, 2, 3]).unwrap(), complete(7).unwrap());
        assert_eq!(circulant(8, &[1, 2, 3, 4]).unwrap(), complete(8).unwrap());
        // Möbius–Kantor-style: n even with the antipodal stride is
        // (2|S|−1)-regular.
        let g = circulant(10, &[1, 5]).unwrap();
        assert!(g.is_regular());
        assert_eq!(g.min_degree(), 3);
        assert_eq!(g.num_edges(), 10 + 5);
        // Without the antipodal stride: 2|S|-regular.
        let h = circulant(11, &[2, 3]).unwrap();
        assert!(h.is_regular());
        assert_eq!(h.min_degree(), 4);
    }

    #[test]
    fn circulant_validation() {
        assert!(circulant(2, &[1]).is_err());
        assert!(circulant(8, &[]).is_err());
        assert!(circulant(8, &[0]).is_err());
        assert!(circulant(8, &[5]).is_err());
        assert!(circulant(8, &[2, 2]).is_err());
    }

    #[test]
    fn complete_multipartite_structure() {
        // K_{2,3} via the multipartite constructor.
        let g = complete_multipartite(&[2, 3]).unwrap();
        assert_eq!(g, complete_bipartite(2, 3).unwrap());
        // Turán-style K_{2,2,2} (the octahedron): 6 vertices, 12 edges,
        // 4-regular.
        let octa = complete_multipartite(&[2, 2, 2]).unwrap();
        assert_eq!(octa.num_edges(), 12);
        assert!(octa.is_regular());
        assert_eq!(octa.min_degree(), 4);
        assert!(!algo::is_bipartite(&octa));
        // All singleton parts: the complete graph.
        assert_eq!(
            complete_multipartite(&[1, 1, 1, 1]).unwrap(),
            complete(4).unwrap()
        );
        assert!(complete_multipartite(&[3]).is_err());
        assert!(complete_multipartite(&[2, 0]).is_err());
    }

    #[test]
    fn all_families_are_connected() {
        let graphs = vec![
            complete(9).unwrap(),
            path(9).unwrap(),
            cycle(9).unwrap(),
            star(9).unwrap(),
            wheel(9).unwrap(),
            grid2d(3, 3).unwrap(),
            torus2d(3, 3).unwrap(),
            hypercube(3).unwrap(),
            complete_bipartite(4, 5).unwrap(),
            binary_tree(9).unwrap(),
            barbell(3, 3).unwrap(),
            lollipop(4, 5).unwrap(),
            double_star(3, 4).unwrap(),
        ];
        for g in graphs {
            assert!(algo::is_connected(&g), "{g} should be connected");
        }
    }
}
