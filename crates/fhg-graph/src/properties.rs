//! Structural graph properties.
//!
//! Measurements used throughout the workspace: degree statistics for the
//! experiment tables, bipartiteness (the paper's two-village example),
//! connected components, degeneracy orderings (the greedy colouring bound),
//! triangle counting (triangle-free graphs admit better colourings, §5
//! footnote) and independent-set verification (every gathering's happy set
//! must be independent).
//!
//! Verification comes in three adjacency layouts — the flat
//! [`AdjacencyBitmap`], the cache-blocked [`BlockedAdjacency`] hybrid and
//! raw [`CsrGraph`](crate::CsrGraph) probes — and two granularities: one
//! set at a time, or a **batch of up to 64 sets at once** through a
//! bit-sliced [`MembershipTable`], where every adjacency row is loaded once
//! and answers the AND-any question for the whole batch via
//! [`crate::kernels::intersects_many`].

use crate::bitset::FixedBitSet;
use crate::csr::CsrGraph;
use crate::{Graph, NodeId};

/// Summary statistics of a degree sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree δ.
    pub min: usize,
    /// Maximum degree Δ.
    pub max: usize,
    /// Mean degree `2m/n`.
    pub mean: f64,
    /// Median degree.
    pub median: f64,
    /// Standard deviation of the degree sequence.
    pub std_dev: f64,
}

/// Computes [`DegreeStats`] for a graph.  Returns all-zero stats for the
/// empty graph.
pub fn degree_stats(g: &Graph) -> DegreeStats {
    let mut degrees = g.degrees();
    if degrees.is_empty() {
        return DegreeStats { min: 0, max: 0, mean: 0.0, median: 0.0, std_dev: 0.0 };
    }
    degrees.sort_unstable();
    let n = degrees.len();
    let min = degrees[0];
    let max = degrees[n - 1];
    let mean = degrees.iter().sum::<usize>() as f64 / n as f64;
    let median = if n % 2 == 1 {
        degrees[n / 2] as f64
    } else {
        (degrees[n / 2 - 1] + degrees[n / 2]) as f64 / 2.0
    };
    let var = degrees.iter().map(|&d| (d as f64 - mean).powi(2)).sum::<f64>() / n as f64;
    DegreeStats { min, max, mean, median, std_dev: var.sqrt() }
}

/// Connected components of a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// `component[u]` is the id of the component containing `u`.
    pub component: Vec<usize>,
    /// Number of nodes in each component, indexed by component id.
    pub sizes: Vec<usize>,
}

impl Components {
    /// Number of connected components.
    pub fn component_count(&self) -> usize {
        self.sizes.len()
    }

    /// Size of the largest component (0 for the empty graph).
    pub fn largest(&self) -> usize {
        self.sizes.iter().copied().max().unwrap_or(0)
    }
}

/// Computes connected components with an iterative BFS.
pub fn connected_components(g: &Graph) -> Components {
    let n = g.node_count();
    let mut component = vec![usize::MAX; n];
    let mut sizes = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if component[start] != usize::MAX {
            continue;
        }
        let id = sizes.len();
        let mut size = 0usize;
        component[start] = id;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            size += 1;
            for &v in g.neighbors(u) {
                if component[v] == usize::MAX {
                    component[v] = id;
                    queue.push_back(v);
                }
            }
        }
        sizes.push(size);
    }
    Components { component, sizes }
}

/// Attempts to 2-colour the graph; returns the side assignment if bipartite.
pub fn bipartition(g: &Graph) -> Option<Vec<u8>> {
    let n = g.node_count();
    let mut side = vec![u8::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if side[start] != u8::MAX {
            continue;
        }
        side[start] = 0;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if side[v] == u8::MAX {
                    side[v] = 1 - side[u];
                    queue.push_back(v);
                } else if side[v] == side[u] {
                    return None;
                }
            }
        }
    }
    Some(side)
}

/// Whether the graph is bipartite (contains no odd cycle).
pub fn is_bipartite(g: &Graph) -> bool {
    bipartition(g).is_some()
}

/// Degeneracy ordering and the graph's degeneracy.
///
/// Returned as `(ordering, degeneracy)` where `ordering` lists nodes in the
/// order produced by repeatedly removing a minimum-degree node.  Colouring
/// greedily in the *reverse* of this ordering uses at most `degeneracy + 1`
/// colours.
pub fn degeneracy_ordering(g: &Graph) -> (Vec<NodeId>, usize) {
    let n = g.node_count();
    if n == 0 {
        return (Vec::new(), 0);
    }
    let mut degree = g.degrees();
    let max_deg = *degree.iter().max().unwrap_or(&0);
    // Bucket queue over degrees.
    let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); max_deg + 1];
    for (u, &d) in degree.iter().enumerate() {
        buckets[d].push(u);
    }
    let mut removed = FixedBitSet::new(n);
    let mut ordering = Vec::with_capacity(n);
    let mut degeneracy = 0usize;
    let mut cursor = 0usize;
    for _ in 0..n {
        // Find the smallest non-empty bucket at or after `cursor`, falling
        // back to scanning from zero (degrees only decrease by one at a time,
        // so cursor-1 is a valid restart point).
        cursor = cursor.saturating_sub(1);
        while buckets[cursor].is_empty() {
            cursor += 1;
        }
        // Pop a node that is still current (lazy deletion).
        let u = loop {
            match buckets[cursor].pop() {
                Some(u) if !removed.contains(u) && degree[u] == cursor => break u,
                Some(_) => continue,
                None => {
                    cursor += 1;
                    while buckets[cursor].is_empty() {
                        cursor += 1;
                    }
                }
            }
        };
        removed.insert(u);
        degeneracy = degeneracy.max(cursor);
        ordering.push(u);
        for &v in g.neighbors(u) {
            if !removed.contains(v) {
                degree[v] -= 1;
                buckets[degree[v]].push(v);
            }
        }
    }
    (ordering, degeneracy)
}

/// Counts the triangles in the graph.
///
/// Uses the standard forward/degree-ordered algorithm which runs in
/// `O(m^{3/2})`.
pub fn triangle_count(g: &Graph) -> usize {
    let n = g.node_count();
    // Order nodes by (degree, id); orient each edge from lower to higher rank.
    let mut rank = vec![0usize; n];
    let mut order: Vec<NodeId> = (0..n).collect();
    order.sort_by_key(|&u| (g.degree(u), u));
    for (r, &u) in order.iter().enumerate() {
        rank[u] = r;
    }
    let mut forward: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for e in g.edges() {
        let (a, b) = if rank[e.u] < rank[e.v] { (e.u, e.v) } else { (e.v, e.u) };
        forward[a].push(b);
    }
    for list in &mut forward {
        list.sort_unstable();
    }
    let mut count = 0usize;
    for u in 0..n {
        for &v in &forward[u] {
            // Intersect forward[u] and forward[v].
            let (mut i, mut j) = (0, 0);
            let (fu, fv) = (&forward[u], &forward[v]);
            while i < fu.len() && j < fv.len() {
                match fu[i].cmp(&fv[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        count += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
    count
}

/// Dense adjacency rows packed 64 nodes per word, for word-wise independence
/// checks.
///
/// Row `u` is the neighbourhood `N(u)` as a bitmask, so "does any member of
/// `S` conflict with `u`" is one AND-scan of `⌈n/64⌉` words instead of a
/// per-neighbour probe.  Memory is `n²/8` bytes — callers should gate
/// construction on graph size (the schedule analysis uses it up to a few
/// thousand nodes and falls back to CSR scans beyond that).
#[derive(Debug, Clone)]
pub struct AdjacencyBitmap {
    rows: Vec<FixedBitSet>,
}

impl AdjacencyBitmap {
    /// Builds the dense rows from a graph.
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.node_count();
        let rows = (0..n)
            .map(|u| {
                let mut row = FixedBitSet::new(n);
                for &v in g.neighbors(u) {
                    row.insert(v);
                }
                row
            })
            .collect();
        AdjacencyBitmap { rows }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.rows.len()
    }

    /// The neighbourhood of `u` as a bit row.
    pub fn row(&self, u: NodeId) -> &FixedBitSet {
        &self.rows[u]
    }

    /// Whether `set` is an independent set, verified by ANDing every member's
    /// adjacency row against the set — the member walk runs on the
    /// set-bit-extraction kernel and each row probe on the fused AND-any
    /// kernel ([`crate::kernels`]), both with early exit on the first
    /// conflict.  Members `>= node_count()` make the set invalid (mirroring
    /// [`is_independent_set`]).
    pub fn is_independent(&self, set: &FixedBitSet) -> bool {
        crate::kernels::all_set_bits(set.as_words(), |u| {
            u < self.rows.len() && !self.rows[u].intersects(set)
        })
    }

    /// Batched independence: which classes of `table` contain an edge?
    /// Walks the batch **union** once; each member's adjacency row is loaded
    /// once and broadcast against all classes through
    /// [`crate::kernels::intersects_many`].  Bit `i` of the result is set
    /// iff class `i` is *not* independent (it contains an edge, or a member
    /// out of range).
    pub fn batch_violations(&self, table: &MembershipTable) -> u64 {
        let mut violations = table.invalid();
        crate::kernels::for_each_set_bit(table.union(), |u| {
            let hits = crate::kernels::intersects_many(self.rows[u].as_words(), table.lanes());
            violations |= hits & table.lane(u);
        });
        violations
    }
}

/// The number of classes a single [`MembershipTable`] fill can hold (one
/// lane bit per class).
pub const BATCH_WIDTH: usize = 64;

/// Side length, in bits, of one [`BlockedAdjacency`] tile (256×256 bits =
/// 8 KiB per tile, four words per row segment).
const TILE_BITS: usize = 256;

/// Words per tile row segment.
const TILE_WORDS: usize = TILE_BITS / 64;

/// Words per tile.
const TILE_AREA_WORDS: usize = TILE_BITS * TILE_WORDS;

/// Bit-sliced membership table: the transposed view of up to
/// [`BATCH_WIDTH`] class bitmaps that batched verification runs on.
///
/// After [`MembershipTable::fill`], bit `i` of lane `v` says node `v`
/// belongs to class `i`, [`MembershipTable::union`] holds the OR of all
/// class bitmaps (the nodes the batch touches at all) and
/// [`MembershipTable::invalid`] flags classes containing an out-of-range
/// member.  A checker then walks the union once: each member's adjacency
/// row, tested against the lane table with
/// [`crate::kernels::intersects_many`], yields the violating classes of
/// every edge it covers — the row is loaded once for the whole batch.
///
/// The buffers grow once to the graph's size and are re-used across fills
/// (clearing walks the previous union instead of memsetting the table), so
/// steady-state fills allocate nothing.
#[derive(Debug, Default)]
pub struct MembershipTable {
    /// `lanes[v]` bit `i` ⇔ node `v` ∈ class `i`.  Padded to a whole
    /// number of 256-lane tile blocks so blocked row segments can always
    /// take a full-width slice.
    lanes: Vec<u64>,
    /// OR of all class bitmaps, masked to the node range.
    union: Vec<u64>,
    /// Classes with a member `>= n` (always a violation).
    invalid: u64,
    /// Lanes in use for the current fill (`n` padded to a tile block).
    lanes_used: usize,
    /// Union words in use for the current fill.
    union_used: usize,
}

impl MembershipTable {
    /// An empty table; buffers are sized lazily by [`MembershipTable::fill`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Transposes `classes` (at most [`BATCH_WIDTH`] of them) into the lane
    /// table for a graph of `n` nodes.  Members `>= n` do not enter the
    /// table; their class is flagged in [`MembershipTable::invalid`]
    /// instead.  Steady-state fills allocate nothing once the buffers have
    /// grown to `n`.
    ///
    /// # Panics
    /// Panics if more than [`BATCH_WIDTH`] classes are passed.
    pub fn fill<'a>(&mut self, n: usize, classes: impl IntoIterator<Item = &'a FixedBitSet>) {
        // Clear the previous fill by re-walking its union — proportional to
        // the previous batch's members, not the graph.
        crate::kernels::for_each_set_bit(&self.union[..self.union_used], |v| self.lanes[v] = 0);
        self.union[..self.union_used].iter_mut().for_each(|w| *w = 0);
        self.invalid = 0;

        let words = n.div_ceil(64);
        self.lanes_used = n.div_ceil(TILE_BITS) * TILE_BITS;
        self.union_used = words;
        if self.lanes.len() < self.lanes_used {
            self.lanes.resize(self.lanes_used, 0);
        }
        if self.union.len() < words {
            self.union.resize(words, 0);
        }

        let last_mask = if n.is_multiple_of(64) { u64::MAX } else { (1u64 << (n % 64)) - 1 };
        for (i, set) in classes.into_iter().enumerate() {
            assert!(i < BATCH_WIDTH, "membership table holds at most {BATCH_WIDTH} classes");
            let bit = 1u64 << i;
            let cw = set.as_words();
            let in_range = cw.len().min(words);
            // Members beyond the node range: whole words past the range,
            // plus the tail bits of the last in-range word.
            let mut oob = cw[in_range..].iter().fold(0u64, |acc, &w| acc | w);
            if words > 0 && cw.len() >= words {
                oob |= cw[words - 1] & !last_mask;
            }
            if oob != 0 {
                self.invalid |= bit;
            }
            for (wi, &raw) in cw.iter().enumerate().take(in_range) {
                let mut word = raw;
                if wi == words - 1 {
                    word &= last_mask;
                }
                self.union[wi] |= word;
                let base = wi * 64;
                while word != 0 {
                    self.lanes[base + word.trailing_zeros() as usize] |= bit;
                    word &= word - 1;
                }
            }
        }
    }

    /// The lane table: `lanes()[v]` has bit `i` set iff node `v` belongs to
    /// class `i`.  Sized to the fill's node count padded to a whole tile
    /// block, as [`crate::kernels::intersects_many`] requires.
    pub fn lanes(&self) -> &[u64] {
        &self.lanes[..self.lanes_used]
    }

    /// One lane: the classes node `v` belongs to.
    pub fn lane(&self, v: NodeId) -> u64 {
        self.lanes[v]
    }

    /// The OR of all class bitmaps, masked to the node range — the nodes
    /// batched verification must walk at all.
    pub fn union(&self) -> &[u64] {
        &self.union[..self.union_used]
    }

    /// Classes containing a member `>= n` (bit `i` ⇔ class `i` invalid).
    pub fn invalid(&self) -> u64 {
        self.invalid
    }
}

/// Cache-blocked, degree-sorted hybrid adjacency: the dense layout for the
/// 4k–64k node range, where a flat [`AdjacencyBitmap`] would cost `n²/8`
/// bytes regardless of the edge count.
///
/// Nodes whose degree reaches the cutoff get **tiled rows**: their
/// neighbourhoods live in 256×256-bit tiles (8 KiB each), materialised only
/// where those rows actually have edges, so memory is bounded by the edges
/// of the dense nodes rather than `n²`.  The sparse remainder — nodes a
/// row-scan would be slower for than walking their few neighbours — probes
/// an internally-owned [`CsrGraph`].  The default cutoff is the break-even
/// point `max(64, n/64)`: a full row scan touches `n/64` words, so a node
/// wants the tiled form once its degree passes that.
///
/// Both granularities are served: [`BlockedAdjacency::is_independent`]
/// checks one set, [`BlockedAdjacency::batch_violations`] a whole
/// [`MembershipTable`] with each row segment broadcast against all classes.
#[derive(Debug, Clone)]
pub struct BlockedAdjacency {
    n: usize,
    /// Tile-blocks per side (`⌈n/256⌉`).
    nb: usize,
    /// Nodes with materialised tile rows.
    dense: FixedBitSet,
    /// `grid[rb * nb + cb]` is the arena tile index for block `(rb, cb)`,
    /// or `u32::MAX` if no dense row has an edge there.
    grid: Vec<u32>,
    /// Tile storage, [`TILE_AREA_WORDS`] words per tile: row `r` of a tile
    /// is the 4-word segment at `tile * TILE_AREA_WORDS + r * TILE_WORDS`.
    arena: Vec<u64>,
    /// All edges, probed for the sparse remainder.
    csr: CsrGraph,
}

impl BlockedAdjacency {
    /// Builds the hybrid with the break-even cutoff `max(64, n/64)`.
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.node_count();
        Self::with_cutoff(g, 64.max(n / 64))
    }

    /// Builds the hybrid with an explicit degree cutoff: nodes with
    /// `degree >= cutoff` get tiled rows (`0` tiles every non-isolated
    /// node, `usize::MAX` none — pure CSR probing).
    pub fn with_cutoff(g: &Graph, cutoff: usize) -> Self {
        let n = g.node_count();
        let nb = n.div_ceil(TILE_BITS);
        let mut dense = FixedBitSet::new(n);
        let mut grid = vec![u32::MAX; nb * nb];
        let mut arena = Vec::new();
        for u in 0..n {
            if g.degree(u) < cutoff {
                continue;
            }
            dense.insert(u);
            let row_base = (u / TILE_BITS) * nb;
            let seg = (u % TILE_BITS) * TILE_WORDS;
            for &v in g.neighbors(u) {
                let cell = row_base + v / TILE_BITS;
                let tile = if grid[cell] == u32::MAX {
                    let t = arena.len() / TILE_AREA_WORDS;
                    grid[cell] = t as u32;
                    arena.resize(arena.len() + TILE_AREA_WORDS, 0);
                    t
                } else {
                    grid[cell] as usize
                };
                arena[tile * TILE_AREA_WORDS + seg + (v % TILE_BITS) / 64] |= 1u64 << (v % 64);
            }
        }
        BlockedAdjacency { n, nb, dense, grid, arena, csr: CsrGraph::from_graph(g) }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of nodes with materialised tile rows.
    pub fn dense_node_count(&self) -> usize {
        self.dense.count()
    }

    /// The neighbours of `u`, ascending (from the owned CSR, whatever the
    /// node's tiling).
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        self.csr.neighbors(u)
    }

    /// Number of materialised tiles.
    pub fn tile_count(&self) -> usize {
        self.arena.len() / TILE_AREA_WORDS
    }

    /// Peak adjacency memory of this layout in bytes: tile arena + grid
    /// index + the CSR arrays for the sparse remainder.  The comparison
    /// point is the `n²/8` a flat bitmap would pin.
    pub fn memory_bytes(&self) -> usize {
        self.arena.len() * 8
            + self.grid.len() * 4
            + (self.csr.node_count() + 1) * 8
            + 2 * self.csr.edge_count() * 8
    }

    /// Whether the tiled row of dense node `u` intersects `set`.
    fn row_intersects(&self, u: NodeId, set: &FixedBitSet) -> bool {
        let words = set.as_words();
        let row_base = (u / TILE_BITS) * self.nb;
        let seg = (u % TILE_BITS) * TILE_WORDS;
        for (cb, &tile) in self.grid[row_base..row_base + self.nb].iter().enumerate() {
            if tile == u32::MAX {
                continue;
            }
            let start = tile as usize * TILE_AREA_WORDS + seg;
            let segment = &self.arena[start..start + TILE_WORDS];
            // `intersects` stops at the common prefix, which trims the last
            // block to the set's actual word count.
            if crate::kernels::intersects(segment, &words[(cb * TILE_WORDS).min(words.len())..]) {
                return true;
            }
        }
        false
    }

    /// Whether `set` is an independent set: dense members scan their tiled
    /// row segments, sparse members probe the CSR remainder, and members
    /// `>= node_count()` make the set invalid (mirroring
    /// [`is_independent_set`]).
    pub fn is_independent(&self, set: &FixedBitSet) -> bool {
        crate::kernels::all_set_bits(set.as_words(), |u| {
            if u >= self.n {
                return false;
            }
            if self.dense.contains(u) {
                !self.row_intersects(u, set)
            } else {
                !self.csr.neighbors(u).iter().any(|&v| set.contains(v))
            }
        })
    }

    /// Batched independence over a [`MembershipTable`]: bit `i` of the
    /// result is set iff class `i` is *not* independent.  Dense members
    /// broadcast each 4-word row segment against the matching 256-lane
    /// block of the table ([`crate::kernels::intersects_many`]); sparse
    /// members gather their neighbours' lanes.
    pub fn batch_violations(&self, table: &MembershipTable) -> u64 {
        let mut violations = table.invalid();
        let lanes = table.lanes();
        crate::kernels::for_each_set_bit(table.union(), |u| {
            let hits = if self.dense.contains(u) {
                let row_base = (u / TILE_BITS) * self.nb;
                let seg = (u % TILE_BITS) * TILE_WORDS;
                let mut acc = 0u64;
                for (cb, &tile) in self.grid[row_base..row_base + self.nb].iter().enumerate() {
                    if tile == u32::MAX {
                        continue;
                    }
                    let start = tile as usize * TILE_AREA_WORDS + seg;
                    acc |= crate::kernels::intersects_many(
                        &self.arena[start..start + TILE_WORDS],
                        &lanes[cb * TILE_BITS..(cb + 1) * TILE_BITS],
                    );
                }
                acc
            } else {
                crate::kernels::intersects_many_indexed(self.csr.neighbors(u), lanes)
            };
            violations |= hits & table.lane(u);
        });
        violations
    }
}

/// Whether `set` is an independent set of `g` (no two members adjacent).
pub fn is_independent_set(g: &Graph, set: &[NodeId]) -> bool {
    let mut members = FixedBitSet::new(g.node_count());
    for &u in set {
        if u >= g.node_count() {
            return false;
        }
        members.insert(u);
    }
    for &u in set {
        for &v in g.neighbors(u) {
            if members.contains(v) {
                return false;
            }
        }
    }
    true
}

/// Whether `set` is a *maximal* independent set (independent and no node can
/// be added).
pub fn is_maximal_independent_set(g: &Graph, set: &[NodeId]) -> bool {
    if !is_independent_set(g, set) {
        return false;
    }
    let mut members = FixedBitSet::new(g.node_count());
    for &u in set {
        members.insert(u);
    }
    for u in g.nodes() {
        if !members.contains(u) && g.neighbors(u).iter().all(|&v| !members.contains(v)) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::structured::{complete, complete_bipartite, cycle, grid, path, star};
    use crate::generators::{erdos_renyi, random_tree};
    use proptest::prelude::*;

    #[test]
    fn degree_stats_of_star() {
        let s = degree_stats(&star(5));
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert!((s.mean - 8.0 / 5.0).abs() < 1e-12);
        assert_eq!(s.median, 1.0);
        assert!(s.std_dev > 0.0);
    }

    #[test]
    fn degree_stats_empty_graph() {
        let s = degree_stats(&Graph::new(0));
        assert_eq!(s.max, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn degree_stats_median_even_count() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let s = degree_stats(&g);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn components_of_disconnected_graph() {
        let mut g = path(3);
        g.add_node();
        g.add_node();
        let extra = g.add_node();
        g.add_edge(4, extra).unwrap();
        let c = connected_components(&g);
        assert_eq!(c.component_count(), 3);
        assert_eq!(c.largest(), 3);
        assert_eq!(c.component[0], c.component[2]);
        assert_ne!(c.component[0], c.component[3]);
        assert_eq!(c.sizes.iter().sum::<usize>(), g.node_count());
    }

    #[test]
    fn components_empty_graph() {
        let c = connected_components(&Graph::new(0));
        assert_eq!(c.component_count(), 0);
        assert_eq!(c.largest(), 0);
    }

    #[test]
    fn bipartiteness_classics() {
        assert!(is_bipartite(&path(10)));
        assert!(is_bipartite(&cycle(10)));
        assert!(!is_bipartite(&cycle(9)));
        assert!(is_bipartite(&grid(4, 7)));
        assert!(is_bipartite(&complete_bipartite(3, 5)));
        assert!(!is_bipartite(&complete(3)));
        assert!(is_bipartite(&Graph::new(4)), "edgeless graph is bipartite");
    }

    #[test]
    fn bipartition_is_a_proper_2_colouring() {
        let g = grid(5, 6);
        let side = bipartition(&g).unwrap();
        for e in g.edges() {
            assert_ne!(side[e.u], side[e.v]);
        }
    }

    #[test]
    fn degeneracy_of_known_graphs() {
        assert_eq!(degeneracy_ordering(&complete(7)).1, 6);
        assert_eq!(degeneracy_ordering(&cycle(10)).1, 2);
        assert_eq!(degeneracy_ordering(&path(10)).1, 1);
        assert_eq!(degeneracy_ordering(&random_tree(100, 3)).1, 1);
        assert_eq!(degeneracy_ordering(&grid(5, 5)).1, 2);
        assert_eq!(degeneracy_ordering(&Graph::new(0)).1, 0);
        assert_eq!(degeneracy_ordering(&Graph::new(5)).1, 0);
    }

    #[test]
    fn degeneracy_ordering_is_a_permutation() {
        let g = erdos_renyi(80, 0.1, 4);
        let (order, _) = degeneracy_ordering(&g);
        let mut seen = [false; 80];
        for &u in &order {
            assert!(!seen[u]);
            seen[u] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn triangle_counts_of_known_graphs() {
        assert_eq!(triangle_count(&complete(4)), 4);
        assert_eq!(triangle_count(&complete(6)), 20);
        assert_eq!(triangle_count(&cycle(3)), 1);
        assert_eq!(triangle_count(&cycle(4)), 0);
        assert_eq!(triangle_count(&star(10)), 0);
        assert_eq!(triangle_count(&grid(4, 4)), 0);
        assert_eq!(triangle_count(&Graph::new(0)), 0);
    }

    #[test]
    fn independent_set_checks() {
        let g = cycle(5);
        assert!(is_independent_set(&g, &[0, 2]));
        assert!(is_independent_set(&g, &[]));
        assert!(!is_independent_set(&g, &[0, 1]));
        assert!(!is_independent_set(&g, &[0, 99]), "out-of-range member rejected");
        assert!(is_maximal_independent_set(&g, &[0, 2]));
        assert!(!is_maximal_independent_set(&g, &[0]));
        assert!(!is_maximal_independent_set(&g, &[0, 1]));
    }

    #[test]
    fn adjacency_bitmap_mirrors_neighbourhoods() {
        let g = cycle(5);
        let adj = AdjacencyBitmap::from_graph(&g);
        assert_eq!(adj.node_count(), 5);
        assert_eq!(adj.row(0).iter().collect::<Vec<_>>(), vec![1, 4]);
        assert_eq!(adj.row(3).iter().collect::<Vec<_>>(), vec![2, 4]);
    }

    #[test]
    fn blocked_adjacency_splits_by_degree() {
        // A star inside a larger sparse graph: the hub crosses any small
        // cutoff, the leaves do not.
        let mut g = star(40);
        for u in 1..39 {
            g.add_edge(u, u + 1).unwrap();
        }
        let blocked = BlockedAdjacency::with_cutoff(&g, 10);
        assert_eq!(blocked.node_count(), 40);
        assert_eq!(blocked.dense_node_count(), 1, "only the hub is dense");
        assert_eq!(blocked.tile_count(), 1, "one block covers 40 nodes");
        assert!(blocked.memory_bytes() > 0);

        let all_dense = BlockedAdjacency::with_cutoff(&g, 0);
        assert_eq!(all_dense.dense_node_count(), 40);
        let none_dense = BlockedAdjacency::with_cutoff(&g, usize::MAX);
        assert_eq!(none_dense.dense_node_count(), 0);
        assert_eq!(none_dense.tile_count(), 0, "pure CSR probing pins no tiles");

        let mut set = FixedBitSet::new(40);
        set.insert(0);
        set.insert(1);
        for adj in [&blocked, &all_dense, &none_dense] {
            assert!(!adj.is_independent(&set), "hub and a leaf are adjacent");
        }
        let mut odd = FixedBitSet::new(40);
        for u in (1..40).step_by(2) {
            odd.insert(u);
        }
        for adj in [&blocked, &all_dense, &none_dense] {
            assert!(adj.is_independent(&odd), "odd leaves avoid the hub and the leaf path");
        }
    }

    #[test]
    fn membership_table_flags_out_of_range_members() {
        // Classes live in a 70-node id space; the graph has 65 nodes, so
        // member 68 is out of range (and sits in the last, partial word).
        let g = cycle(65);
        let adj = AdjacencyBitmap::from_graph(&g);
        let mut ok = FixedBitSet::new(70);
        ok.insert(0);
        ok.insert(2);
        let mut oob = FixedBitSet::new(70);
        oob.insert(1);
        oob.insert(68);
        let mut table = MembershipTable::new();
        table.fill(65, [&ok, &oob]);
        assert_eq!(table.invalid(), 0b10);
        assert_eq!(adj.batch_violations(&table), 0b10, "oob class invalid, ok class clean");
        // Refill reuses the buffers and fully clears the previous batch.
        table.fill(65, [&ok]);
        assert_eq!(table.invalid(), 0);
        assert_eq!(adj.batch_violations(&table), 0);
        assert_eq!(table.lane(1), 0, "member of the dropped class cleared");
    }

    proptest! {
        /// The independence checkers — slice scan, dense word-wise bitmap,
        /// blocked hybrid at several cutoffs, CSR bit probes — agree on
        /// arbitrary subsets of random graphs.
        #[test]
        fn independence_checkers_agree(seed in 0u64..40, mask in 0u64..(1 << 20)) {
            let g = erdos_renyi(20, 0.2, seed);
            let adj = AdjacencyBitmap::from_graph(&g);
            let csr = crate::CsrGraph::from_graph(&g);
            let members: Vec<usize> = (0..20).filter(|u| mask & (1 << u) != 0).collect();
            let mut bits = FixedBitSet::new(20);
            for &u in &members {
                bits.insert(u);
            }
            let reference = is_independent_set(&g, &members);
            prop_assert_eq!(adj.is_independent(&bits), reference);
            prop_assert_eq!(csr.is_independent(&bits), reference);
            for cutoff in [0usize, 3, usize::MAX] {
                let blocked = BlockedAdjacency::with_cutoff(&g, cutoff);
                prop_assert_eq!(blocked.is_independent(&bits), reference, "cutoff {}", cutoff);
            }
        }

        /// Batched verification agrees bitwise with the per-set checkers on
        /// every layout: each class's violation bit matches its individual
        /// `is_independent` verdict.
        #[test]
        fn batch_violations_agree_with_per_set_checks(
            seed in 0u64..20,
            masks in prop::collection::vec(0u64..(1 << 30), 1..8),
        ) {
            // 30-bit masks over a 30-node graph that straddles no tile
            // boundary; a second run at 300 nodes crosses word boundaries.
            for n in [30usize, 300] {
                let g = erdos_renyi(n, 0.08, seed);
                let adj = AdjacencyBitmap::from_graph(&g);
                let csr = crate::CsrGraph::from_graph(&g);
                let classes: Vec<FixedBitSet> = masks
                    .iter()
                    .enumerate()
                    .map(|(i, &m)| {
                        let mut s = FixedBitSet::new(n);
                        for b in 0..30 {
                            if m & (1 << b) != 0 {
                                s.insert((b * (i + 7)) % n);
                            }
                        }
                        s
                    })
                    .collect();
                let mut table = MembershipTable::new();
                table.fill(n, classes.iter());
                let expected = classes.iter().enumerate().fold(0u64, |acc, (i, s)| {
                    if adj.is_independent(s) { acc } else { acc | (1 << i) }
                });
                prop_assert_eq!(adj.batch_violations(&table), expected);
                prop_assert_eq!(csr.batch_violations(&table), expected);
                for cutoff in [0usize, 2, usize::MAX] {
                    let blocked = BlockedAdjacency::with_cutoff(&g, cutoff);
                    prop_assert_eq!(
                        blocked.batch_violations(&table), expected, "cutoff {}", cutoff
                    );
                }
            }
        }

        #[test]
        fn degeneracy_is_at_most_max_degree(seed in 0u64..50) {
            let g = erdos_renyi(60, 0.08, seed);
            let (_, d) = degeneracy_ordering(&g);
            prop_assert!(d <= g.max_degree());
        }

        #[test]
        fn triangle_count_matches_brute_force(seed in 0u64..20) {
            let g = erdos_renyi(25, 0.25, seed);
            let mut brute = 0usize;
            for a in 0..25 {
                for b in (a + 1)..25 {
                    for c in (b + 1)..25 {
                        if g.has_edge(a, b) && g.has_edge(b, c) && g.has_edge(a, c) {
                            brute += 1;
                        }
                    }
                }
            }
            prop_assert_eq!(triangle_count(&g), brute);
        }

        #[test]
        fn component_sizes_partition_nodes(seed in 0u64..20) {
            let g = erdos_renyi(60, 0.02, seed);
            let c = connected_components(&g);
            prop_assert_eq!(c.sizes.iter().sum::<usize>(), 60);
            for e in g.edges() {
                prop_assert_eq!(c.component[e.u], c.component[e.v]);
            }
        }
    }
}
