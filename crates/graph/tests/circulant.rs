//! The circulant generator against a set-deduplicated reference.
//!
//! `generators::circulant` emits each edge exactly once by construction
//! (the antipodal stride `2s = n` is taken from `v < n/2` only); this
//! suite rebuilds every small circulant the slow way — all `v ± s`
//! pairs through a set — and requires the same graph.

use std::collections::BTreeSet;

use div_graph::{generators, Graph};

fn reference(n: usize, strides: &[usize]) -> Graph {
    let edges: BTreeSet<(usize, usize)> = (0..n)
        .flat_map(|v| {
            strides.iter().map(move |&s| {
                let w = (v + s) % n;
                (v.min(w), v.max(w))
            })
        })
        .collect();
    Graph::from_edges(n, edges).unwrap()
}

/// Every stride set of size 1 to 3 drawn from `1..=n/2`.
fn stride_sets(n: usize) -> Vec<Vec<usize>> {
    let h = n / 2;
    let mut sets = Vec::new();
    for a in 1..=h {
        sets.push(vec![a]);
        for b in a + 1..=h {
            sets.push(vec![a, b]);
            for c in b + 1..=h {
                sets.push(vec![a, b, c]);
            }
        }
    }
    sets
}

#[test]
fn circulant_matches_the_deduplicated_reference() {
    let mut antipodal = 0;
    for n in 3..=40 {
        for mut strides in stride_sets(n) {
            antipodal += strides.contains(&(n / 2)) as usize * (n % 2 == 0) as usize;
            let g = generators::circulant(n, &strides).unwrap();
            assert_eq!(g, reference(n, &strides), "n={n} strides={strides:?}");
            // Stride order is not significant.
            strides.reverse();
            assert_eq!(generators::circulant(n, &strides).unwrap(), g);
        }
    }
    assert!(antipodal > 0, "the antipodal stride must be exercised");
}

#[test]
fn circulant_errors_keep_their_messages() {
    let err =
        |n: usize, strides: &[usize]| generators::circulant(n, strides).unwrap_err().to_string();
    let prefix = "invalid generator parameter: ";
    assert_eq!(err(2, &[1]), format!("{prefix}circulant requires n >= 3"));
    assert_eq!(
        err(8, &[]),
        format!("{prefix}circulant requires at least one stride")
    );
    assert_eq!(
        err(8, &[0]),
        format!("{prefix}circulant stride 0 outside 1..=4")
    );
    assert_eq!(
        err(8, &[5]),
        format!("{prefix}circulant stride 5 outside 1..=4")
    );
    assert_eq!(
        err(8, &[2, 3, 2]),
        format!("{prefix}duplicate circulant stride 2")
    );
}
