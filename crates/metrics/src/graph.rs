//! Overlay graph analysis: connectivity and neighbourhood structure.
//!
//! Connectivity is one union-find pass, [`WccScratch::biggest_component`],
//! over a stream of edges: a per-round cluster snapshot feeds it the
//! overlay's edges straight from the views and stores nothing per edge.
//! Metrics that need adjacency (clustering, path length) run over an
//! [`UndirectedCsr`], a flat CSR (compressed sparse row) layout — one
//! offsets array, one neighbours array — built from the same stream.

/// Undirected adjacency over dense node indices in CSR form: direction
/// dropped, self-loops and duplicate edges removed, rows sorted.
///
/// ```
/// use nylon_metrics::graph::UndirectedCsr;
///
/// // A triangle is fully clustered; every pair is one hop apart.
/// let g = UndirectedCsr::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
/// assert!((g.clustering_coefficient() - 1.0).abs() < 1e-12);
/// assert_eq!(g.mean_path_length(3), Some(1.0));
/// ```
#[derive(Debug, Clone)]
pub struct UndirectedCsr {
    /// Row starts: `offsets[i]..offsets[i + 1]` indexes row `i` of
    /// `neighbors`. Length `n + 1`.
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
}

impl UndirectedCsr {
    /// Builds the adjacency of `n` nodes from a stream of directed edges.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a node `>= n`.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let mut pairs: Vec<(u32, u32)> = edges
            .into_iter()
            .filter(|&(a, b)| {
                assert!((a as usize) < n && (b as usize) < n, "edge ({a},{b}) out of range");
                a != b
            })
            .flat_map(|(a, b)| [(a, b), (b, a)])
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        let mut offsets = vec![0u32; n + 1];
        for &(a, _) in &pairs {
            offsets[a as usize + 1] += 1;
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        UndirectedCsr { offsets, neighbors: pairs.into_iter().map(|(_, b)| b).collect() }
    }

    /// Number of nodes.
    fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The (sorted) neighbours of node `i`.
    #[inline]
    fn row(&self, i: usize) -> &[u32] {
        &self.neighbors[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Average local clustering coefficient (Watts–Strogatz). Nodes with
    /// fewer than two neighbours contribute zero. A healthy peer-sampling
    /// overlay looks like a random graph: clustering near `degree / n`, far
    /// below a lattice's.
    pub fn clustering_coefficient(&self) -> f64 {
        let n = self.node_count();
        if n == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        for i in 0..n {
            let nbrs = self.row(i);
            let k = nbrs.len();
            if k < 2 {
                continue;
            }
            let mut links = 0usize;
            for (j, a) in nbrs.iter().enumerate() {
                let a_nbrs = self.row(*a as usize);
                for b in nbrs.iter().skip(j + 1) {
                    if a_nbrs.binary_search(b).is_ok() {
                        links += 1;
                    }
                }
            }
            total += 2.0 * links as f64 / (k * (k - 1)) as f64;
        }
        total / n as f64
    }

    /// Mean shortest-path length, estimated by BFS from up to `samples`
    /// evenly spaced sources. Unreachable pairs are skipped; returns `None`
    /// if no finite path exists.
    pub fn mean_path_length(&self, samples: usize) -> Option<f64> {
        let n = self.node_count();
        if n == 0 || samples == 0 {
            return None;
        }
        let step = (n / samples.min(n)).max(1);
        let mut sum = 0u64;
        let mut count = 0u64;
        let mut dist = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        for src in (0..n).step_by(step) {
            dist.iter_mut().for_each(|d| *d = u32::MAX);
            dist[src] = 0;
            queue.clear();
            queue.push_back(src as u32);
            while let Some(u) = queue.pop_front() {
                let du = dist[u as usize];
                for v in self.row(u as usize) {
                    if dist[*v as usize] == u32::MAX {
                        dist[*v as usize] = du + 1;
                        queue.push_back(*v);
                    }
                }
            }
            for (i, d) in dist.iter().enumerate() {
                if i != src && *d != u32::MAX {
                    sum += *d as u64;
                    count += 1;
                }
            }
        }
        (count > 0).then(|| sum as f64 / count as f64)
    }
}

/// Reusable union-find scratch (path halving, union by size) for the
/// weakly-connected-component queries: 8 bytes a node, nothing per edge.
///
/// ```
/// use nylon_metrics::graph::WccScratch;
///
/// // 0 - 1 - 2 and 3 - 4; node 2 is dead, so {0, 1} and {3, 4} tie.
/// let alive = [true, true, false, true, true];
/// let mut wcc = WccScratch::new();
/// assert_eq!(wcc.biggest_component(&alive, [(0, 1), (1, 2), (3, 4)]), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WccScratch {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl WccScratch {
    /// Empty scratch.
    pub fn new() -> Self {
        WccScratch::default()
    }

    /// Size of the biggest weakly-connected component among the nodes
    /// where `alive[i]` is true, over a stream of directed edges (direction,
    /// self-loops and duplicates do not matter; edges touching a dead node
    /// are skipped). Returns 0 when no node is alive. Nothing is stored per
    /// edge, and nothing is allocated once the scratch has grown to
    /// `alive.len()` nodes.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a node `>= alive.len()`.
    pub fn biggest_component(
        &mut self,
        alive: &[bool],
        edges: impl IntoIterator<Item = (u32, u32)>,
    ) -> usize {
        self.components(alive, edges).0
    }

    /// `(biggest, count)` of the alive components: every union that joins
    /// two trees removes one component from the alive count.
    fn components(
        &mut self,
        alive: &[bool],
        edges: impl IntoIterator<Item = (u32, u32)>,
    ) -> (usize, usize) {
        let n = alive.len();
        self.parent.clear();
        self.parent.extend(0..n as u32);
        self.size.clear();
        self.size.resize(n, 1);
        let mut count = alive.iter().filter(|a| **a).count();
        let mut biggest = count.min(1) as u32;
        for (a, b) in edges {
            if alive[a as usize] && alive[b as usize] {
                if let Some(size) = self.union(a, b) {
                    biggest = biggest.max(size);
                    count -= 1;
                }
            }
        }
        (biggest as usize, count)
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Joins the trees of `a` and `b`; the size of the joined tree, or
    /// `None` if they were one already.
    fn union(&mut self, a: u32, b: u32) -> Option<u32> {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return None;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
        Some(self.size[ra as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_graph() {
        let mut wcc = WccScratch::new();
        assert_eq!(wcc.components(&[], []), (0, 0));
        assert_eq!(UndirectedCsr::from_edges(0, []).node_count(), 0);
    }

    #[test]
    fn single_component() {
        let mut wcc = WccScratch::new();
        assert_eq!(wcc.components(&[true; 4], [(0, 1), (1, 2), (2, 3)]), (4, 1));
    }

    #[test]
    fn direction_is_ignored_for_wcc() {
        // Arrows all point at 0; still one weak component.
        assert_eq!(WccScratch::new().biggest_component(&[true; 3], [(1, 0), (2, 0)]), 3);
    }

    #[test]
    fn two_components() {
        // {0,1}, {2,3}, {4}
        assert_eq!(WccScratch::new().components(&[true; 5], [(0, 1), (2, 3)]), (2, 3));
    }

    #[test]
    fn dead_nodes_split_components() {
        // 0 - 1 - 2 chain; killing 1 splits it.
        let mut wcc = WccScratch::new();
        assert_eq!(wcc.components(&[true, false, true], [(0, 1), (1, 2)]), (1, 2));
    }

    #[test]
    fn components_count_alive_only() {
        let mut wcc = WccScratch::new();
        assert_eq!(wcc.components(&[true, true, false, false], [(0, 1)]), (2, 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        UndirectedCsr::from_edges(2, [(0, 5)]);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn edge_beyond_the_mask_panics() {
        WccScratch::new().biggest_component(&[true], [(0, 1)]);
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        let mut wcc = WccScratch::new();
        for _ in 0..3 {
            assert_eq!(wcc.biggest_component(&[true; 5], [(0, 1), (1, 2), (3, 4)]), 3);
            assert_eq!(wcc.biggest_component(&[true; 4], [(0, 1), (2, 3), (3, 2)]), 2);
        }
    }

    #[test]
    fn clustering_coefficient_triangle_vs_path() {
        // Triangle: fully clustered.
        let tri = UndirectedCsr::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        assert!((tri.clustering_coefficient() - 1.0).abs() < 1e-12);
        // Path: no triangles at all.
        let path = UndirectedCsr::from_edges(3, [(0, 1), (1, 2)]);
        assert_eq!(path.clustering_coefficient(), 0.0);
        // Empty graph: zero by convention.
        assert_eq!(UndirectedCsr::from_edges(0, []).clustering_coefficient(), 0.0);
    }

    #[test]
    fn clustering_ignores_direction_and_duplicates() {
        let g = UndirectedCsr::from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 0), (0, 2)]);
        assert!((g.clustering_coefficient() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn undirected_rows_are_sorted_and_deduped() {
        let adj = UndirectedCsr::from_edges(4, [(2, 0), (0, 2), (0, 1), (0, 1), (3, 0), (1, 1)]);
        assert_eq!(adj.row(0), &[1, 2, 3]);
        assert_eq!(adj.row(1), &[0], "self-loop and duplicate edges must vanish");
        assert_eq!(adj.row(2), &[0]);
        assert_eq!(adj.row(3), &[0]);
    }

    #[test]
    fn path_length_of_a_path_graph() {
        // 0-1-2-3: distances from all sources: mean of {1,2,3,1,1,2,2,1,1,3,2,1} = 5/3.
        let g = UndirectedCsr::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let mpl = g.mean_path_length(4).unwrap();
        assert!((mpl - 5.0 / 3.0).abs() < 1e-9, "got {mpl}");
    }

    #[test]
    fn path_length_skips_unreachable() {
        let g = UndirectedCsr::from_edges(4, [(0, 1)]);
        // Only the 0-1 pair is connected: mean distance 1.
        assert_eq!(g.mean_path_length(4), Some(1.0));
        let isolated = UndirectedCsr::from_edges(3, []);
        assert_eq!(isolated.mean_path_length(3), None);
    }

    #[test]
    fn path_length_sampling_is_close_to_exact() {
        // Ring of 40: exact mean distance is 10.2564 (n even: n^2/4/(n-1)).
        let n = 40;
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i as u32, ((i + 1) % n) as u32)).collect();
        let g = UndirectedCsr::from_edges(n, edges);
        let exact = g.mean_path_length(n).unwrap();
        let sampled = g.mean_path_length(8).unwrap();
        assert!((exact - sampled).abs() < 0.5, "exact {exact} vs sampled {sampled}");
    }

    /// Alive component sizes by breadth-first search over the undirected
    /// alive subgraph: the oracle the union-find stream is held to.
    fn bfs_component_sizes(alive: &[bool], edges: &[(u32, u32)]) -> Vec<usize> {
        let n = alive.len();
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            if alive[a as usize] && alive[b as usize] {
                adj[a as usize].push(b as usize);
                adj[b as usize].push(a as usize);
            }
        }
        let mut seen = vec![false; n];
        let mut sizes = Vec::new();
        for src in (0..n).filter(|&i| alive[i]) {
            if seen[src] {
                continue;
            }
            seen[src] = true;
            let mut queue = std::collections::VecDeque::from([src]);
            let mut size = 0;
            while let Some(u) = queue.pop_front() {
                size += 1;
                for &v in &adj[u] {
                    if !seen[v] {
                        seen[v] = true;
                        queue.push_back(v);
                    }
                }
            }
            sizes.push(size);
        }
        sizes
    }

    proptest! {
        /// The biggest component is never larger than the alive set, and a
        /// fully connected ring is always one component.
        #[test]
        fn prop_component_bounds(
            n in 1usize..60,
            extra in proptest::collection::vec((0u32..60, 0u32..60), 0..80),
        ) {
            let edges: Vec<(u32, u32)> = extra
                .into_iter()
                .filter(|(a, b)| (*a as usize) < n && (*b as usize) < n)
                .collect();
            let (big, comps) = WccScratch::new().components(&vec![true; n], edges);
            prop_assert!(big <= n);
            prop_assert!(big >= 1);
            // Sum over components equals n (checked via count bounds).
            prop_assert!(comps >= 1 && comps <= n);
        }

        /// The streamed union-find agrees with a BFS oracle on random edge
        /// lists with self-loops, duplicates and random alive masks, in
        /// either edge order, through a reused scratch, component count
        /// included.
        #[test]
        fn prop_stream_matches_bfs_oracle(
            n in 1usize..65,
            raw in proptest::collection::vec((0u32..64, 0u32..64), 0..160),
            mask in proptest::collection::vec(any::<bool>(), 64..65),
        ) {
            let mut edges: Vec<(u32, u32)> =
                raw.iter().map(|&(a, b)| (a % n as u32, b % n as u32)).collect();
            let repeats: Vec<(u32, u32)> =
                edges.iter().take(8).flat_map(|&(a, b)| [(a, a), (a, b), (b, a)]).collect();
            edges.extend(repeats);
            let alive = &mask[..n];
            let sizes = bfs_component_sizes(alive, &edges);
            let biggest = sizes.iter().copied().max().unwrap_or(0);
            let mut wcc = WccScratch::new();
            prop_assert_eq!(wcc.biggest_component(&[true; 64], []), 1);
            prop_assert_eq!(wcc.biggest_component(alive, edges.iter().copied()), biggest);
            prop_assert_eq!(wcc.biggest_component(alive, edges.iter().rev().copied()), biggest);
            prop_assert_eq!(wcc.components(alive, edges.iter().copied()), (biggest, sizes.len()));
        }

        /// A ring over n nodes is one component regardless of direction.
        #[test]
        fn prop_ring_is_connected(n in 2usize..100) {
            let edges: Vec<(u32, u32)> =
                (0..n).map(|i| (i as u32, ((i + 1) % n) as u32)).collect();
            prop_assert_eq!(WccScratch::new().biggest_component(&vec![true; n], edges), n);
        }
    }
}
