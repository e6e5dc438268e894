//! Property-based tests of the graph substrate.

use std::collections::HashSet;

use div_graph::{algo, generators, Graph, GraphError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: a vertex count and a list of candidate (possibly invalid)
/// edges over it.
fn edge_list() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..40).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..80);
        (Just(n), edges)
    })
}

/// Deduplicated canonical edge set without loops: the expected content of a
/// successfully built graph.
fn canonicalize(n: usize, edges: &[(usize, usize)]) -> HashSet<(usize, usize)> {
    edges
        .iter()
        .filter(|&&(u, v)| u != v && u < n && v < n)
        .map(|&(u, v)| if u < v { (u, v) } else { (v, u) })
        .collect()
}

/// The CSR arrays and canonical edge list of a built graph.
type Csr = (Vec<usize>, Vec<u32>, Vec<(usize, usize)>);

/// A sort-based reference for [`Graph::from_edges`]: each edge is checked
/// as `GraphBuilder::add_edge` checks it, the canonical edges are sorted
/// globally, the first repeat in sorted order is the reported duplicate,
/// and the adjacency lists are filled from the sorted edges.
fn reference_build(n: usize, edges: &[(usize, usize)]) -> Result<Csr, GraphError> {
    let mut canon = Vec::with_capacity(edges.len());
    for &(u, v) in edges {
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        for w in [u, v] {
            if w >= n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: w,
                    num_vertices: n,
                });
            }
        }
        canon.push((u.min(v), u.max(v)));
    }
    canon.sort_unstable();
    if let Some(w) = canon.windows(2).find(|w| w[0] == w[1]) {
        let (u, v) = w[0];
        return Err(GraphError::DuplicateEdge { u, v });
    }
    let mut lists = vec![Vec::new(); n];
    for &(u, v) in &canon {
        lists[u].push(v as u32);
        lists[v].push(u as u32);
    }
    let mut offsets = vec![0];
    let mut neighbors = Vec::new();
    for mut list in lists {
        list.sort_unstable();
        neighbors.extend(list);
        offsets.push(neighbors.len());
    }
    Ok((offsets, neighbors, canon))
}

/// Strategy: a vertex count and a builder input made from a simple edge
/// set by re-adding up to three of its edges, putting every edge in a
/// random orientation and the list in a random order, and inserting at
/// most one self loop or out-of-range endpoint at a random position.
fn scrambled_input() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (edge_list(), 0usize..4, any::<u64>(), 0u8..4).prop_map(|((n, raw), dups, seed, fault)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges: Vec<(usize, usize)> = canonicalize(n, &raw).into_iter().collect();
        edges.sort_unstable();
        if !edges.is_empty() {
            for _ in 0..dups {
                edges.push(edges[rng.gen_range(0..edges.len())]);
            }
        }
        for i in (1..edges.len()).rev() {
            edges.swap(i, rng.gen_range(0..=i));
        }
        for e in &mut edges {
            if rng.gen::<bool>() {
                *e = (e.1, e.0);
            }
        }
        // A quarter of the inputs get a self loop, a quarter an
        // out-of-range endpoint.
        let bad = match fault {
            0 => Some((n / 2, n / 2)),
            1 => Some((rng.gen_range(0..n), n + rng.gen_range(0..3))),
            _ => None,
        };
        if let Some(e) = bad {
            edges.insert(rng.gen_range(0..=edges.len()), e);
        }
        (n, edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The counting-sort builder agrees with the sort-based reference on
    /// scrambled input with injected duplicates, self loops and
    /// out-of-range endpoints: the same CSR arrays and edge list, or the
    /// same error — for duplicates, the lexicographically smallest one.
    #[test]
    fn build_matches_sort_based_reference((n, edges) in scrambled_input()) {
        let built = Graph::from_edges(n, edges.iter().copied()).map(|g| {
            let (offsets, neighbors) = g.csr();
            (offsets.to_vec(), neighbors.to_vec(), g.edges().collect::<Vec<_>>())
        });
        prop_assert_eq!(built, reference_build(n, &edges));
    }
}

proptest! {
    /// Building from a cleaned edge list succeeds and reproduces exactly
    /// that edge set, with consistent degrees.
    #[test]
    fn csr_well_formed((n, raw) in edge_list()) {
        let clean = canonicalize(n, &raw);
        let g = Graph::from_edges(n, clean.iter().copied()).unwrap();

        prop_assert_eq!(g.num_vertices(), n);
        prop_assert_eq!(g.num_edges(), clean.len());
        // Degree sum is 2m.
        let degree_sum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
        prop_assert_eq!(g.total_degree(), degree_sum);

        // Edge iterator reproduces the canonical set.
        let from_iter: HashSet<(usize, usize)> = g.edges().collect();
        prop_assert_eq!(&from_iter, &clean);

        // has_edge agrees with the set in both orientations; neighbor lists
        // are sorted and mutual.
        for v in g.vertices() {
            let nb: Vec<usize> = g.neighbors(v).collect();
            let mut sorted = nb.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(&nb, &sorted, "sorted, duplicate-free adjacency");
            for (i, &w) in nb.iter().enumerate() {
                prop_assert_eq!(g.neighbor(v, i), w);
                prop_assert!(g.has_edge(v, w));
                prop_assert!(g.has_edge(w, v));
                prop_assert!(g.neighbors(w).any(|x| x == v), "adjacency is mutual");
            }
        }
    }

    /// A duplicated edge (either orientation) is always rejected.
    #[test]
    fn duplicates_rejected((n, raw) in edge_list(), flip in any::<bool>()) {
        let clean: Vec<(usize, usize)> = canonicalize(n, &raw).into_iter().collect();
        prop_assume!(!clean.is_empty());
        let mut with_dup = clean.clone();
        let (u, v) = clean[0];
        with_dup.push(if flip { (v, u) } else { (u, v) });
        let err = Graph::from_edges(n, with_dup).unwrap_err();
        prop_assert_eq!(err, GraphError::DuplicateEdge { u, v });
    }

    /// Round-tripping a graph through its canonical edge list rebuilds an
    /// identical graph.
    #[test]
    fn edge_list_roundtrip((n, raw) in edge_list()) {
        let clean = canonicalize(n, &raw);
        let g = Graph::from_edges(n, clean).unwrap();
        let edges: Vec<(usize, usize)> = g.edges().collect();
        let g2 = Graph::from_edges(g.num_vertices(), edges).unwrap();
        prop_assert_eq!(g, g2);
    }

    /// Random regular graphs have exactly the requested degree everywhere.
    #[test]
    fn random_regular_degrees(seed in any::<u64>(), n in 4usize..60, d in 1usize..5) {
        prop_assume!(d < n && (n * d) % 2 == 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_regular(n, d, &mut rng).unwrap();
        for v in g.vertices() {
            prop_assert_eq!(g.degree(v), d);
        }
    }

    /// G(n, p) never produces loops or duplicate edges and respects bounds.
    #[test]
    fn gnp_is_simple(seed in any::<u64>(), n in 1usize..80, p in 0.0f64..1.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::gnp(n, p, &mut rng).unwrap();
        prop_assert_eq!(g.num_vertices(), n);
        prop_assert!(g.num_edges() <= n * n.saturating_sub(1) / 2);
        for v in g.vertices() {
            prop_assert!(!g.has_edge(v, v));
        }
    }

    /// BFS distances satisfy the triangle-ish property: adjacent vertices
    /// differ by at most 1, and distance 0 only at the source.
    #[test]
    fn bfs_distance_is_graph_metric(seed in any::<u64>(), n in 2usize..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = 2.0 * (n as f64).ln() / n as f64;
        let g = generators::gnp(n, p.min(1.0), &mut rng).unwrap();
        prop_assume!(algo::is_connected(&g));
        let dist = algo::bfs_distances(&g, 0);
        prop_assert_eq!(dist[0], 0);
        for (u, v) in g.edges() {
            let du = dist[u] as i64;
            let dv = dist[v] as i64;
            prop_assert!((du - dv).abs() <= 1, "edge ({u},{v}): {du} vs {dv}");
        }
        for (v, &d) in dist.iter().enumerate() {
            if v != 0 {
                prop_assert!(d >= 1);
            }
        }
    }

    /// Component labels are consistent: same component iff connected by an
    /// edge path; edges never cross components.
    #[test]
    fn components_respect_edges((n, raw) in edge_list()) {
        let clean = canonicalize(n, &raw);
        let g = Graph::from_edges(n, clean).unwrap();
        let (comp, k) = algo::connected_components(&g);
        prop_assert!(k >= 1);
        prop_assert!(comp.iter().all(|&c| c < k));
        for (u, v) in g.edges() {
            prop_assert_eq!(comp[u], comp[v]);
        }
        // k == 1 iff is_connected.
        prop_assert_eq!(k == 1, algo::is_connected(&g));
    }

    /// The double-sweep estimate never exceeds the exact diameter.
    #[test]
    fn double_sweep_lower_bounds_diameter(seed in any::<u64>(), n in 2usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = 2.5 * (n as f64).ln() / n as f64;
        let g = generators::gnp(n, p.min(1.0), &mut rng).unwrap();
        prop_assume!(algo::is_connected(&g));
        prop_assert!(algo::diameter_double_sweep(&g) <= algo::diameter(&g));
    }

    /// graph6 round-trips arbitrary simple graphs exactly.
    #[test]
    fn graph6_roundtrip((n, raw) in edge_list()) {
        let g = Graph::from_edges(n, canonicalize(n, &raw)).unwrap();
        let encoded = div_graph::graph6::encode(&g);
        prop_assert!(encoded.bytes().all(|b| (63..=126).contains(&b)));
        let decoded = div_graph::graph6::decode(&encoded).unwrap();
        prop_assert_eq!(g, decoded);
    }

    /// Complement is an involution and partitions the possible edges.
    #[test]
    fn complement_involution((n, raw) in edge_list()) {
        let g = Graph::from_edges(n, canonicalize(n, &raw)).unwrap();
        let c = div_graph::ops::complement(&g).unwrap();
        prop_assert_eq!(g.num_edges() + c.num_edges(), n * (n - 1) / 2);
        for u in 0..n {
            for v in (u + 1)..n {
                prop_assert!(g.has_edge(u, v) != c.has_edge(u, v));
            }
        }
        prop_assert_eq!(div_graph::ops::complement(&c).unwrap(), g);
    }

    /// Cartesian product: |V| and |E| compose; degrees add.
    #[test]
    fn cartesian_product_structure(seed in any::<u64>(), na in 2usize..8, nb in 2usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = generators::gnp(na, 0.5, &mut rng).unwrap();
        let b = generators::gnp(nb, 0.5, &mut rng).unwrap();
        let p = div_graph::ops::cartesian_product(&a, &b).unwrap();
        prop_assert_eq!(p.num_vertices(), na * nb);
        prop_assert_eq!(p.num_edges(), na * b.num_edges() + nb * a.num_edges());
        for u in 0..na {
            for v in 0..nb {
                prop_assert_eq!(p.degree(u * nb + v), a.degree(u) + b.degree(v));
            }
        }
    }

    /// Induced subgraphs keep exactly the internal edges.
    #[test]
    fn induced_subgraph_edges((n, raw) in edge_list(), mask_bits in any::<u64>()) {
        let g = Graph::from_edges(n, canonicalize(n, &raw)).unwrap();
        let keep: Vec<bool> = (0..n).map(|v| (mask_bits >> (v % 64)) & 1 == 1).collect();
        prop_assume!(keep.iter().any(|&b| b));
        let (s, ids) = div_graph::ops::induced_subgraph(&g, &keep).unwrap();
        let expected = g
            .edges()
            .filter(|&(u, v)| keep[u] && keep[v])
            .count();
        prop_assert_eq!(s.num_edges(), expected);
        for (u, v) in s.edges() {
            prop_assert!(g.has_edge(ids[u], ids[v]));
        }
    }
}
