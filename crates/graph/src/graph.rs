use crate::{GraphBuilder, GraphError};

/// An immutable undirected simple graph in compressed-sparse-row form.
///
/// The representation is chosen for the two sampling primitives used by the
/// asynchronous voting processes of the paper:
///
/// * **vertex process** — draw a vertex `v` uniformly, then a uniform
///   neighbour of `v`: [`Graph::degree`] and [`Graph::neighbor`] are `O(1)`;
/// * **edge process** — draw an edge uniformly, then a uniform endpoint:
///   [`Graph::edge`] is `O(1)` over the stored edge list.
///
/// Construct one with [`GraphBuilder`], [`Graph::from_edges`], or any of the
/// family constructors in [`crate::generators`].
///
/// # Examples
///
/// ```
/// use div_graph::Graph;
///
/// # fn main() -> Result<(), div_graph::GraphError> {
/// // A triangle with a pendant vertex: 0-1, 1-2, 2-0, 2-3.
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])?;
/// assert_eq!(g.num_vertices(), 4);
/// assert_eq!(g.num_edges(), 4);
/// assert_eq!(g.degree(2), 3);
/// assert_eq!(g.neighbors(3).collect::<Vec<_>>(), vec![2]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Graph {
    /// `offsets[v]..offsets[v + 1]` indexes `neighbors` for vertex `v`.
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency lists; length `2m`.
    neighbors: Vec<u32>,
    /// Canonical edge list with `u < v`, sorted; length `m`.
    edges: Vec<(u32, u32)>,
}

impl Graph {
    /// Builds a graph with `num_vertices` vertices from an edge iterator.
    ///
    /// This is shorthand for [`GraphBuilder`] with all edges added at once.
    ///
    /// # Errors
    ///
    /// Returns an error if `num_vertices` is zero, any endpoint is out of
    /// range, an edge is a self loop, or an edge appears twice (in either
    /// orientation).
    pub fn from_edges<I>(num_vertices: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut builder = GraphBuilder::new(num_vertices)?;
        for (u, v) in edges {
            builder.add_edge(u, v)?;
        }
        builder.build()
    }

    /// Internal constructor used by [`GraphBuilder`]; inputs must already be
    /// validated and canonicalised.
    pub(crate) fn from_parts(
        offsets: Vec<usize>,
        neighbors: Vec<u32>,
        edges: Vec<(u32, u32)>,
    ) -> Self {
        debug_assert_eq!(*offsets.last().unwrap(), neighbors.len());
        debug_assert_eq!(neighbors.len(), 2 * edges.len());
        Graph {
            offsets,
            neighbors,
            edges,
        }
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Degree `d(v)` of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.num_vertices()`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The `i`-th neighbour of `v` (neighbours are sorted ascending).
    ///
    /// This is the `O(1)` primitive behind "choose a uniform neighbour":
    /// draw `i` uniformly from `0..self.degree(v)`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.num_vertices()` or `i >= self.degree(v)`.
    #[inline]
    pub fn neighbor(&self, v: usize, i: usize) -> usize {
        let span = &self.neighbors[self.offsets[v]..self.offsets[v + 1]];
        span[i] as usize
    }

    /// The raw compressed-sparse-row arrays `(offsets, neighbors)`: the
    /// sorted neighbours of `v` are `neighbors[offsets[v]..offsets[v + 1]]`,
    /// `offsets` has length `n + 1` and `neighbors` length `2m`.
    ///
    /// Hot loops that address a run of vertices directly (for example
    /// `neighbors[offsets[a] + i·d + slot]` over constant-degree vertices
    /// `a..b`) read these instead of chasing [`Graph::neighbor`]'s two
    /// dependent loads.
    ///
    /// # Examples
    ///
    /// ```
    /// use div_graph::Graph;
    ///
    /// # fn main() -> Result<(), div_graph::GraphError> {
    /// let g = Graph::from_edges(3, [(0, 1), (1, 2)])?;
    /// let (offsets, neighbors) = g.csr();
    /// assert_eq!(offsets, &[0, 1, 3, 4]);
    /// assert_eq!(neighbors, &[1, 0, 2, 1]);
    /// # Ok(())
    /// # }
    /// ```
    #[inline]
    pub fn csr(&self) -> (&[usize], &[u32]) {
        (&self.offsets, &self.neighbors)
    }

    /// Iterator over the neighbours of `v` in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.num_vertices()`.
    pub fn neighbors(&self, v: usize) -> Neighbors<'_> {
        Neighbors {
            inner: self.neighbors[self.offsets[v]..self.offsets[v + 1]].iter(),
        }
    }

    /// The `e`-th edge as `(u, v)` with `u < v`.
    ///
    /// This is the `O(1)` primitive behind "choose a uniform edge": draw `e`
    /// uniformly from `0..self.num_edges()`.
    ///
    /// # Panics
    ///
    /// Panics if `e >= self.num_edges()`.
    #[inline]
    pub fn edge(&self, e: usize) -> (usize, usize) {
        let (u, v) = self.edges[e];
        (u as usize, v as usize)
    }

    /// Iterator over all edges `(u, v)` with `u < v`, in lexicographic
    /// order.
    pub fn edges(&self) -> Edges<'_> {
        Edges {
            inner: self.edges.iter(),
        }
    }

    /// Whether `{u, v}` is an edge of the graph (`O(log d(u))`).
    ///
    /// Returns `false` for out-of-range vertices and for `u == v`.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        if u == v || u >= self.num_vertices() || v >= self.num_vertices() {
            return false;
        }
        // Search the shorter adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors[self.offsets[a]..self.offsets[a + 1]]
            .binary_search(&(b as u32))
            .is_ok()
    }

    /// Sum of degrees, `2m`. Provided for readability at call sites that
    /// implement the stationary distribution `π_v = d(v)/2m`.
    #[inline]
    pub fn total_degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Minimum degree over all vertices.
    pub fn min_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.degree(v))
            .min()
            .expect("graph has at least one vertex")
    }

    /// Maximum degree over all vertices.
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.degree(v))
            .max()
            .expect("graph has at least one vertex")
    }

    /// Whether every vertex has the same degree.
    pub fn is_regular(&self) -> bool {
        self.min_degree() == self.max_degree()
    }

    /// Iterator over vertex ids `0..n`.
    pub fn vertices(&self) -> std::ops::Range<usize> {
        0..self.num_vertices()
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("num_vertices", &self.num_vertices())
            .field("num_edges", &self.num_edges())
            .field("min_degree", &self.min_degree())
            .field("max_degree", &self.max_degree())
            .finish()
    }
}

impl std::fmt::Display for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "graph with {} vertices and {} edges",
            self.num_vertices(),
            self.num_edges()
        )
    }
}

/// Iterator over the neighbours of a vertex; see [`Graph::neighbors`].
#[derive(Debug, Clone)]
pub struct Neighbors<'a> {
    inner: std::slice::Iter<'a, u32>,
}

impl Iterator for Neighbors<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        self.inner.next().map(|&v| v as usize)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

/// Iterator over the edges of a graph; see [`Graph::edges`].
#[derive(Debug, Clone)]
pub struct Edges<'a> {
    inner: std::slice::Iter<'a, (u32, u32)>,
}

impl Iterator for Edges<'_> {
    type Item = (usize, usize);

    #[inline]
    fn next(&mut self) -> Option<(usize, usize)> {
        self.inner.next().map(|&(u, v)| (u as usize, v as usize))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for Edges<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_pendant() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = triangle_plus_pendant();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.total_degree(), 8);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.min_degree(), 1);
        assert_eq!(g.max_degree(), 3);
        assert!(!g.is_regular());
    }

    #[test]
    fn neighbors_are_sorted_and_exact() {
        let g = triangle_plus_pendant();
        let n2: Vec<usize> = g.neighbors(2).collect();
        assert_eq!(n2, vec![0, 1, 3]);
        assert_eq!(g.neighbors(2).len(), 3);
        assert_eq!(g.neighbor(2, 0), 0);
        assert_eq!(g.neighbor(2, 2), 3);
    }

    #[test]
    fn edges_are_canonical_and_sorted() {
        let g = triangle_plus_pendant();
        let edges: Vec<(usize, usize)> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
        for (i, &(u, v)) in [(0, 1), (0, 2), (1, 2), (2, 3)].iter().enumerate() {
            assert_eq!(g.edge(i), (u, v));
        }
    }

    #[test]
    fn has_edge_both_orientations() {
        let g = triangle_plus_pendant();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(3, 2));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(0, 0));
        assert!(!g.has_edge(0, 99));
    }

    #[test]
    fn orientation_is_normalised_on_input() {
        let a = Graph::from_edges(3, [(0, 1), (2, 1)]).unwrap();
        let b = Graph::from_edges(3, [(1, 0), (1, 2)]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn single_vertex_graph() {
        let g = Graph::from_edges(1, std::iter::empty()).unwrap();
        assert_eq!(g.num_vertices(), 1);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.neighbors(0).count(), 0);
    }

    #[test]
    fn rejects_self_loop() {
        let err = Graph::from_edges(3, [(1, 1)]).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { vertex: 1 });
    }

    #[test]
    fn rejects_out_of_range() {
        let err = Graph::from_edges(3, [(0, 3)]).unwrap_err();
        assert_eq!(
            err,
            GraphError::VertexOutOfRange {
                vertex: 3,
                num_vertices: 3
            }
        );
    }

    #[test]
    fn rejects_duplicate_edge_either_orientation() {
        let err = Graph::from_edges(3, [(0, 1), (1, 0)]).unwrap_err();
        assert_eq!(err, GraphError::DuplicateEdge { u: 0, v: 1 });
    }

    #[test]
    fn rejects_empty_graph() {
        let err = Graph::from_edges(0, std::iter::empty()).unwrap_err();
        assert_eq!(err, GraphError::EmptyGraph);
    }

    #[test]
    fn debug_and_display_are_nonempty() {
        let g = triangle_plus_pendant();
        assert!(format!("{g:?}").contains("num_vertices"));
        assert_eq!(g.to_string(), "graph with 4 vertices and 4 edges");
    }

    #[test]
    fn graph_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Graph>();
    }
}
