use crate::{Graph, GraphError};

/// Incremental, validated construction of a [`Graph`].
///
/// The builder accepts edges in any orientation and any order; the final
/// [`GraphBuilder::build`] canonicalises them (endpoints sorted within an
/// edge, edges sorted lexicographically) and assembles the CSR arrays.
///
/// # Examples
///
/// ```
/// use div_graph::GraphBuilder;
///
/// # fn main() -> Result<(), div_graph::GraphError> {
/// let mut builder = GraphBuilder::new(3)?;
/// builder.add_edge(0, 1)?;
/// builder.add_edge(2, 1)?; // orientation does not matter
/// let g = builder.build()?;
/// assert_eq!(g.num_edges(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Starts building a graph on `num_vertices` vertices (ids
    /// `0..num_vertices`).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptyGraph`] if `num_vertices == 0`, and
    /// [`GraphError::InvalidParameter`] if `num_vertices` exceeds `u32`
    /// range (the internal vertex-id width).
    pub fn new(num_vertices: usize) -> Result<Self, GraphError> {
        if num_vertices == 0 {
            return Err(GraphError::EmptyGraph);
        }
        if num_vertices > u32::MAX as usize {
            return Err(GraphError::invalid(format!(
                "num_vertices {num_vertices} exceeds the supported maximum {}",
                u32::MAX
            )));
        }
        Ok(GraphBuilder {
            num_vertices,
            edges: Vec::new(),
        })
    }

    /// Like [`GraphBuilder::new`] but pre-allocates for `num_edges` edges.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GraphBuilder::new`].
    pub fn with_capacity(num_vertices: usize, num_edges: usize) -> Result<Self, GraphError> {
        let mut b = Self::new(num_vertices)?;
        b.edges.reserve(num_edges);
        Ok(b)
    }

    /// Number of vertices of the graph under construction.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges added so far (duplicates are only detected at
    /// [`GraphBuilder::build`] time).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] if `u == v` and
    /// [`GraphError::VertexOutOfRange`] if an endpoint is `>=` the number of
    /// vertices.  Duplicate detection is deferred to
    /// [`GraphBuilder::build`], which reports [`GraphError::DuplicateEdge`].
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<&mut Self, GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        for w in [u, v] {
            if w >= self.num_vertices {
                return Err(GraphError::VertexOutOfRange {
                    vertex: w,
                    num_vertices: self.num_vertices,
                });
            }
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a as u32, b as u32));
        Ok(self)
    }

    /// Finishes construction, validating simplicity and assembling the CSR
    /// arrays in `O(n + m + Σ_v d(v)·log d(v))` — linear in the graph for
    /// bounded degrees, with no global sort of the edges.
    ///
    /// The degrees are counted and prefix-summed into the CSR offsets; one
    /// pass then writes both endpoints of every edge into `neighbors`, and
    /// each adjacency list is sorted on its own.  A repeated edge `{u, v}`
    /// shows up as two equal entries `v` in `u`'s sorted list, so scanning
    /// the lists in vertex order for the first repeated entry above the
    /// list's own vertex finds the lexicographically smallest duplicate.
    /// The canonical edge list (`u < v`, sorted) is read back from the
    /// lists into the builder's own buffer.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DuplicateEdge`] naming the lexicographically
    /// smallest edge that was added more than once (in either orientation).
    pub fn build(self) -> Result<Graph, GraphError> {
        let GraphBuilder {
            num_vertices,
            mut edges,
        } = self;
        let mut offsets = vec![0usize; num_vertices + 1];
        for &(u, v) in &edges {
            offsets[u as usize] += 1;
            offsets[v as usize] += 1;
        }
        // Exclusive prefix sums: `offsets[w]` is where `w`'s list starts.
        let mut start = 0;
        for slot in &mut offsets[..num_vertices] {
            let degree = *slot;
            *slot = start;
            start += degree;
        }
        offsets[num_vertices] = start;
        // Fill each list using `offsets[w]` as its cursor; afterwards
        // `offsets[w]` holds the end of `w`'s list, i.e. the start of
        // `w + 1`'s, so one shift restores the offsets.
        let mut neighbors = vec![0u32; 2 * edges.len()];
        for &(u, v) in &edges {
            neighbors[offsets[u as usize]] = v;
            offsets[u as usize] += 1;
            neighbors[offsets[v as usize]] = u;
            offsets[v as usize] += 1;
        }
        offsets.copy_within(..num_vertices, 1);
        offsets[0] = 0;

        edges.clear();
        for u in 0..num_vertices {
            let list = &mut neighbors[offsets[u]..offsets[u + 1]];
            list.sort_unstable();
            let above = list.partition_point(|&w| (w as usize) < u);
            if let Some(pair) = list[above..].windows(2).find(|p| p[0] == p[1]) {
                return Err(GraphError::DuplicateEdge {
                    u,
                    v: pair[0] as usize,
                });
            }
            edges.extend(list[above..].iter().map(|&w| (u as u32, w)));
        }
        Ok(Graph::from_parts(offsets, neighbors, edges))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_counts_track_additions() {
        let mut b = GraphBuilder::new(4).unwrap();
        assert_eq!(b.num_vertices(), 4);
        assert_eq!(b.num_edges(), 0);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        assert_eq!(b.num_edges(), 2);
    }

    #[test]
    fn chained_adds() {
        let mut b = GraphBuilder::new(3).unwrap();
        b.add_edge(0, 1).unwrap().add_edge(1, 2).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn with_capacity_matches_new() {
        let a = GraphBuilder::with_capacity(5, 10).unwrap();
        assert_eq!(a.num_vertices(), 5);
        assert_eq!(a.num_edges(), 0);
    }

    #[test]
    fn duplicate_detected_at_build() {
        let mut b = GraphBuilder::new(3).unwrap();
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 0).unwrap(); // accepted here...
        let err = b.build().unwrap_err(); // ...rejected here
        assert_eq!(err, GraphError::DuplicateEdge { u: 0, v: 1 });
    }

    #[test]
    fn adjacency_lists_sorted_for_scrambled_input() {
        // Star centred at 3, edges supplied in scrambled orientations.
        let mut b = GraphBuilder::new(6).unwrap();
        for v in [5, 0, 4, 1, 2] {
            if v < 3 {
                b.add_edge(v, 3).unwrap();
            } else {
                b.add_edge(3, v).unwrap();
            }
        }
        let g = b.build().unwrap();
        assert_eq!(g.neighbors(3).collect::<Vec<_>>(), vec![0, 1, 2, 4, 5]);
        for v in [0, 1, 2, 4, 5] {
            assert_eq!(g.neighbors(v).collect::<Vec<_>>(), vec![3]);
        }
    }

    #[test]
    fn zero_vertices_rejected() {
        assert_eq!(GraphBuilder::new(0).unwrap_err(), GraphError::EmptyGraph);
    }
}
