//! Finite hypergraphs over a dense vertex universe.

use crate::error::HypergraphError;
use crate::index::HypergraphIndex;
use crate::vertex::Vertex;
use crate::vset::VertexSet;
use alloc::boxed::Box;
use alloc::string::{String, ToString};
use alloc::vec;
use alloc::vec::Vec;
use core::fmt;
use oncecell::OnceCell;

/// A finite hypergraph: a family of hyperedges (vertex sets) over the universe
/// `{0, …, num_vertices-1}`.
///
/// Following the paper, a hypergraph is *simple* if no hyperedge is contained in another
/// one; the hypergraph of an irredundant monotone DNF is always simple.  Edges keep the
/// order in which they were added — the deterministic tie-breaking rules of the
/// Boros–Makino decomposition ("lexicographically first edge", "smallest `i`") are
/// resolved against a canonically sorted copy where required, while plain input order is
/// used for child enumeration (documented in `qld-core`).
#[derive(serde::Serialize, serde::Deserialize)]
pub struct Hypergraph {
    num_vertices: usize,
    edges: Vec<VertexSet>,
    /// Lazily built query index (arena + incidence lists, see [`HypergraphIndex`]).
    /// Not part of the hypergraph's value: cloning, comparing, and hashing ignore it,
    /// and any mutation resets it.  Boxed so an unbuilt cache costs one pointer, not
    /// an inline index struct, in every `Hypergraph` move.
    index: OnceCell<Box<HypergraphIndex>>,
}

impl Clone for Hypergraph {
    /// Clones the edge family; the index cache is not carried over (clones are often
    /// mutated next, and the clone rebuilds it on first query if needed).
    fn clone(&self) -> Self {
        Hypergraph {
            num_vertices: self.num_vertices,
            edges: self.edges.clone(),
            index: OnceCell::new(),
        }
    }
}

impl PartialEq for Hypergraph {
    fn eq(&self, other: &Self) -> bool {
        self.num_vertices == other.num_vertices && self.edges == other.edges
    }
}

impl Eq for Hypergraph {}

impl core::hash::Hash for Hypergraph {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.num_vertices.hash(state);
        self.edges.hash(state);
    }
}

impl Hypergraph {
    /// Creates a hypergraph with no edges over `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Hypergraph {
            num_vertices,
            edges: Vec::new(),
            index: OnceCell::new(),
        }
    }

    /// Creates a hypergraph from explicit edges.
    ///
    /// Each edge must fit within the universe; edges are *not* deduplicated or minimized
    /// here (call [`Hypergraph::minimize`] for that).
    pub fn from_edges<I>(num_vertices: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = VertexSet>,
    {
        let mut hg = Hypergraph::new(num_vertices);
        for e in edges {
            hg.add_edge(e);
        }
        hg
    }

    /// Creates a hypergraph from edges given as index slices, e.g.
    /// `Hypergraph::from_index_edges(4, &[&[0, 1], &[2, 3]])`.
    pub fn from_index_edges(num_vertices: usize, edges: &[&[usize]]) -> Self {
        let mut hg = Hypergraph::new(num_vertices);
        for e in edges {
            hg.add_edge(VertexSet::from_indices(num_vertices, e.iter().copied()));
        }
        hg
    }

    /// Number of vertices in the universe.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of hyperedges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether the hypergraph has no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Total number of vertex occurrences across all edges (the "volume" `Σ|E|`).
    pub fn volume(&self) -> usize {
        self.edges.iter().map(|e| e.len()).sum()
    }

    /// The size in bits of the natural bitmap encoding of the hypergraph
    /// (`num_edges × num_vertices`), used as the input-size `n` of space bounds.
    pub fn encoding_bits(&self) -> usize {
        self.num_edges() * self.num_vertices.max(1)
    }

    /// The edges in insertion order.
    #[inline]
    pub fn edges(&self) -> &[VertexSet] {
        &self.edges
    }

    /// The `i`-th edge.
    #[inline]
    pub fn edge(&self, i: usize) -> &VertexSet {
        &self.edges[i]
    }

    /// Internal constructor for derived hypergraphs (restrictions, minimizations, …)
    /// whose edges are already over the right universe.
    fn from_edge_vec(num_vertices: usize, edges: Vec<VertexSet>) -> Self {
        Hypergraph {
            num_vertices,
            edges,
            index: OnceCell::new(),
        }
    }

    /// The lazily built [`HypergraphIndex`] of this edge family (arena of edge words,
    /// per-vertex incidence lists, cached edge sizes).  Built on first use and cached
    /// until the hypergraph is mutated; repeated-query hot paths (transversal checks,
    /// DNF evaluation, [`Hypergraph::edges_containing`]) all route through it.
    #[inline]
    pub fn index(&self) -> &HypergraphIndex {
        self.index
            .get_or_init(|| Box::new(HypergraphIndex::build(self.num_vertices, &self.edges)))
    }

    /// Ids of the edges containing vertex `v`, in input edge order (served by the
    /// cached [`HypergraphIndex`]).
    #[inline]
    pub fn edges_containing(&self, v: Vertex) -> &[u32] {
        self.index().edges_containing(v)
    }

    /// Adds an edge.  The universe grows automatically if the edge mentions a larger
    /// vertex than any seen so far, and every edge is kept grown to `num_vertices`.
    ///
    /// Cost: `O(words)` for the new edge; the `m` earlier edges are re-grown
    /// (`O(m · words)`) only when the universe actually grows, so building `m` edges
    /// over a known universe is linear.
    pub fn add_edge(&mut self, mut edge: VertexSet) {
        if let Some(max) = edge.max_vertex() {
            if max.index() >= self.num_vertices {
                self.num_vertices = max.index() + 1;
                for e in &mut self.edges {
                    e.grow(self.num_vertices);
                }
            }
        }
        edge.grow(self.num_vertices);
        self.edges.push(edge);
        self.index = OnceCell::new();
    }

    /// Whether `edge` occurs in the hypergraph (as a set).
    pub fn contains_edge(&self, edge: &VertexSet) -> bool {
        self.edges.iter().any(|e| e == edge)
    }

    /// The set of vertices that occur in at least one edge, `⋃ E`.
    pub fn support(&self) -> VertexSet {
        let mut s = VertexSet::empty(self.num_vertices);
        for e in &self.edges {
            s.union_with(e);
        }
        s
    }

    /// Whether some edge is the empty set.
    pub fn has_empty_edge(&self) -> bool {
        self.edges.iter().any(|e| e.is_empty())
    }

    /// Whether no hyperedge is contained in another (and there are no duplicates).
    ///
    /// This is the "simple hypergraph" / "irredundant DNF" condition of the paper.
    /// Same cost as [`Hypergraph::minimize`].
    pub fn is_simple(&self) -> bool {
        self.antichain().iter().all(|&kept| kept)
    }

    /// Validates simplicity, returning a typed error naming the offending pair.
    ///
    /// Cost: that of [`Hypergraph::is_simple`] when the family is simple.  On the
    /// error path an `O(m²)` row-major scan names the pair: the smallest `contained`
    /// index with some `container ≠ contained` and `E_contained ⊆ E_container`, and
    /// the smallest such `container`.
    pub fn check_simple(&self) -> Result<(), HypergraphError> {
        if self.is_simple() {
            return Ok(());
        }
        for (i, a) in self.edges.iter().enumerate() {
            for (j, b) in self.edges.iter().enumerate() {
                if i != j && a.is_subset(b) {
                    return Err(HypergraphError::NotSimple {
                        contained: i,
                        container: j,
                    });
                }
            }
        }
        Ok(())
    }

    /// Returns the *minimization* of the hypergraph: inclusion-minimal edges only, with
    /// duplicates removed, in first-occurrence order.  (`min(H)` in the literature.)
    ///
    /// Cost: one sort of the `m` edges by `(size, set)`, `O(m log m)` set comparisons,
    /// plus one subset test per pair of an edge and a kept edge of strictly smaller
    /// size.  A family with a single edge size (every `threshold(n, k)`, every
    /// matching) needs no subset test at all; the `O(m²)` worst case needs many
    /// interleaved sizes.
    pub fn minimize(&self) -> Hypergraph {
        let keep = self.antichain();
        let edges = self
            .edges
            .iter()
            .zip(&keep)
            .filter(|&(_, &kept)| kept)
            .map(|(e, _)| e.clone())
            .collect();
        Hypergraph::from_edge_vec(self.num_vertices, edges)
    }

    /// The antichain pass behind [`Hypergraph::minimize`] and [`Hypergraph::is_simple`]:
    /// `keep[i]` holds exactly when edge `i` is the first occurrence of an
    /// inclusion-minimal edge.
    ///
    /// Edges are visited by `(size, set, index)`.  An edge can only be a proper subset
    /// of a strictly larger edge, so each edge is tested against the kept edges of
    /// strictly smaller size only; duplicates are adjacent in the sort, where the
    /// first (lowest-index) occurrence leads.
    fn antichain(&self) -> Vec<bool> {
        let edges = &self.edges;
        // Sort keys `(size, members, index)`.  Members compare as their words with
        // trailing zero words trimmed: equal sets get equal keys whatever their
        // capacities, and any order consistent with equality will do.
        let mut order: Vec<(usize, &[u64], usize)> = edges
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let words = e.as_words();
                let used = words
                    .iter()
                    .rposition(|&w| w != 0)
                    .map_or(0, |last| last + 1);
                (e.len(), &words[..used], i)
            })
            .collect();
        order.sort_unstable();
        let mut keep = vec![false; edges.len()];
        // `order[..class]` holds the edges strictly smaller than the current one.
        let mut class = 0;
        for at in 0..order.len() {
            let (size, members, i) = order[at];
            if at > 0 {
                let (prev_size, prev_members, _) = order[at - 1];
                if prev_size != size {
                    class = at;
                } else if prev_members == members {
                    continue;
                }
            }
            keep[i] = !order[..class]
                .iter()
                .any(|&(_, _, k)| keep[k] && edges[k].is_subset(&edges[i]));
        }
        keep
    }

    /// Returns a copy with edges sorted lexicographically (a canonical form useful for
    /// comparisons in tests and the experiment harness).
    pub fn canonicalized(&self) -> Hypergraph {
        let mut edges = self.edges.clone();
        edges.sort();
        edges.dedup();
        Hypergraph::from_edge_vec(self.num_vertices, edges)
    }

    /// Set-equality of edge families (ignoring order and duplicates).
    pub fn same_edge_set(&self, other: &Hypergraph) -> bool {
        self.canonicalized().edges == other.canonicalized().edges
    }

    /// Whether `t` is a transversal: it meets every hyperedge.
    ///
    /// Note the standard convention: if the hypergraph has an empty edge, nothing is a
    /// transversal; if it has no edges at all, every set (including `∅`) is one.
    pub fn is_transversal(&self, t: &VertexSet) -> bool {
        self.index().is_transversal(t)
    }

    /// Whether `t` is a *minimal* transversal: a transversal such that removing any
    /// element destroys the property.
    pub fn is_minimal_transversal(&self, t: &VertexSet) -> bool {
        if !self.is_transversal(t) {
            return false;
        }
        for v in t.iter() {
            if self.is_transversal(&t.without(v)) {
                return false;
            }
        }
        true
    }

    /// Whether `t` is a *new transversal with respect to `h`* (Section 1 of the paper):
    /// a transversal of `self` that contains no hyperedge of `h` as a subset.
    pub fn is_new_transversal(&self, h: &Hypergraph, t: &VertexSet) -> bool {
        // "contains no edge of h" is exactly h's monotone DNF evaluating to false on t.
        self.is_transversal(t) && !h.index().evaluate_dnf(t)
    }

    /// Reduces a transversal `t` of `self` to a minimal transversal by greedily removing
    /// vertices (in increasing order) whose removal keeps `t` a transversal.
    ///
    /// Panics in debug builds if `t` is not a transversal to begin with.
    pub fn minimize_transversal(&self, t: &VertexSet) -> VertexSet {
        debug_assert!(self.is_transversal(t), "input is not a transversal");
        let mut current = t.clone();
        for v in t.iter() {
            let candidate = current.without(v);
            if self.is_transversal(&candidate) {
                current = candidate;
            }
        }
        current
    }

    /// The restriction `G_S = { E ∩ S | E ∈ G }` used by the decomposition (Section 2).
    ///
    /// Duplicates arising from the intersection are removed (the result is a family of
    /// sets); the result is *not* minimized, matching the paper's definition.
    pub fn restrict_intersections(&self, s: &VertexSet) -> Hypergraph {
        let mut out: Vec<VertexSet> = Vec::with_capacity(self.edges.len());
        for e in &self.edges {
            let r = e.intersection(s);
            if !out.contains(&r) {
                out.push(r);
            }
        }
        Hypergraph::from_edge_vec(self.num_vertices, out)
    }

    /// The restriction `H_S = { E ∈ H | E ⊆ S }` used by the decomposition (Section 2).
    pub fn restrict_subedges(&self, s: &VertexSet) -> Hypergraph {
        let edges = self
            .edges
            .iter()
            .filter(|e| e.is_subset(s))
            .cloned()
            .collect();
        Hypergraph::from_edge_vec(self.num_vertices, edges)
    }

    /// The complemented hypergraph `Hᶜ = { V − E | E ∈ H }` over the universe, as used
    /// by the frequent-itemset reduction (`IS⁻ = tr(IS⁺ᶜ)`).
    pub fn complement_edges(&self) -> Hypergraph {
        let edges = self
            .edges
            .iter()
            .map(|e| e.complement(self.num_vertices))
            .collect();
        Hypergraph::from_edge_vec(self.num_vertices, edges)
    }

    /// For every vertex, in how many edges it occurs.
    pub fn vertex_frequencies(&self) -> Vec<usize> {
        let mut freq = vec![0usize; self.num_vertices];
        for e in &self.edges {
            for v in e.iter() {
                freq[v.index()] += 1;
            }
        }
        freq
    }

    /// The vertices occurring in **more than** `threshold` edges (strict), as a set.
    /// With `threshold = num_edges / 2` (integer division) this is exactly the set
    /// `I_α` of "frequent vertices" from the `process` procedure.
    pub fn frequent_vertices(&self, threshold: usize) -> VertexSet {
        let freq = self.vertex_frequencies();
        let mut s = VertexSet::empty(self.num_vertices);
        for (i, &f) in freq.iter().enumerate() {
            if f > threshold {
                s.insert(Vertex::from(i));
            }
        }
        s
    }

    /// Whether every edge of `self` intersects every edge of `other` — the basic
    /// necessary condition for duality ("cross-intersection").
    pub fn cross_intersects(&self, other: &Hypergraph) -> bool {
        self.edges
            .iter()
            .all(|a| other.edges.iter().all(|b| a.intersects(b)))
    }

    /// Removes the edge at position `i` and returns it.
    pub fn remove_edge(&mut self, i: usize) -> VertexSet {
        self.index = OnceCell::new();
        self.edges.remove(i)
    }

    /// Maximum edge cardinality (0 for an edgeless hypergraph).
    pub fn max_edge_size(&self) -> usize {
        self.edges.iter().map(|e| e.len()).max().unwrap_or(0)
    }

    /// Minimum edge cardinality (0 for an edgeless hypergraph).
    pub fn min_edge_size(&self) -> usize {
        self.edges.iter().map(|e| e.len()).min().unwrap_or(0)
    }
}

impl fmt::Debug for Hypergraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hypergraph(n={}, [", self.num_vertices)?;
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e:?}")?;
        }
        write!(f, "])")
    }
}

impl fmt::Display for Hypergraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# n={} m={}", self.num_vertices, self.num_edges())?;
        for e in &self.edges {
            let idx: Vec<String> = e.iter().map(|v| v.0.to_string()).collect();
            writeln!(f, "{}", idx.join(" "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vset;

    fn triangle() -> Hypergraph {
        // Edges of the triangle graph K3 on vertices {0,1,2}.
        Hypergraph::from_index_edges(3, &[&[0, 1], &[1, 2], &[0, 2]])
    }

    #[test]
    fn basic_accessors() {
        let h = triangle();
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(h.num_edges(), 3);
        assert_eq!(h.volume(), 6);
        assert_eq!(h.encoding_bits(), 9);
        assert_eq!(h.max_edge_size(), 2);
        assert_eq!(h.min_edge_size(), 2);
        assert!(!h.is_empty());
        assert!(h.contains_edge(&vset![3; 0, 1]));
        assert!(!h.contains_edge(&vset![3; 0]));
        assert_eq!(h.support().to_indices(), vec![0, 1, 2]);
    }

    #[test]
    fn universe_grows_with_edges() {
        let mut h = Hypergraph::new(2);
        h.add_edge(vset![2; 0, 1]);
        h.add_edge(vset![6; 5]);
        assert_eq!(h.num_vertices(), 6);
        // first edge still valid and comparable
        assert!(h.edge(0).contains(Vertex::new(1)));
        assert!(h.is_simple());
    }

    #[test]
    fn simplicity() {
        let h = triangle();
        assert!(h.is_simple());
        assert!(h.check_simple().is_ok());
        let bad = Hypergraph::from_index_edges(3, &[&[0, 1], &[0, 1, 2]]);
        assert!(!bad.is_simple());
        let err = bad.check_simple().unwrap_err();
        match err {
            HypergraphError::NotSimple {
                contained,
                container,
            } => {
                assert_eq!((contained, container), (0, 1));
            }
            other => panic!("unexpected error {other:?}"),
        }
        // duplicates are not simple either
        let dup = Hypergraph::from_index_edges(3, &[&[0, 1], &[0, 1]]);
        assert!(!dup.is_simple());
    }

    #[test]
    fn minimization_keeps_minimal_edges() {
        let h = Hypergraph::from_index_edges(4, &[&[0, 1, 2], &[0, 1], &[2, 3], &[2, 3], &[1]]);
        let m = h.minimize();
        assert!(m.is_simple());
        assert!(m.contains_edge(&vset![4; 2, 3]));
        assert!(m.contains_edge(&vset![4; 1]));
        assert!(!m.contains_edge(&vset![4; 0, 1, 2]));
        // {0,1} is absorbed by {1}
        assert!(!m.contains_edge(&vset![4; 0, 1]));
        assert_eq!(m.num_edges(), 2);
    }

    /// The quadratic `minimize` the antichain pass replaced: the reference the
    /// property test below holds [`Hypergraph::minimize`] to.
    fn reference_minimize(h: &Hypergraph) -> Vec<VertexSet> {
        let mut keep: Vec<VertexSet> = Vec::new();
        'outer: for e in h.edges() {
            let mut i = 0;
            while i < keep.len() {
                if keep[i].is_subset(e) {
                    continue 'outer;
                }
                if e.is_subset(&keep[i]) {
                    keep.remove(i);
                } else {
                    i += 1;
                }
            }
            keep.push(e.clone());
        }
        keep
    }

    /// The row-major `check_simple` scan the antichain pass replaced.
    fn reference_check_simple(h: &Hypergraph) -> Result<(), HypergraphError> {
        for (i, a) in h.edges().iter().enumerate() {
            for (j, b) in h.edges().iter().enumerate() {
                if i != j && a.is_subset(b) {
                    return Err(HypergraphError::NotSimple {
                        contained: i,
                        container: j,
                    });
                }
            }
        }
        Ok(())
    }

    /// A family over `0..n` driven by `spec`: each word either repeats an earlier
    /// edge, shrinks or grows one (containments across sizes), or draws a fresh edge
    /// of 0–5 vertices (0 gives the empty edge).
    fn family_from_spec(n: usize, spec: &[u64]) -> Hypergraph {
        let mut edges: Vec<VertexSet> = Vec::new();
        for &w in spec {
            let pick = (w >> 8) as usize;
            let v = |salt: u64| Vertex::from((w.rotate_left(salt as u32 * 7) % n as u64) as usize);
            let e = match (w % 4, edges.is_empty()) {
                (0, false) => edges[pick % edges.len()].clone(),
                (1, false) => {
                    let base = &edges[pick % edges.len()];
                    base.iter()
                        .filter(|u| !(u.index() as u64 ^ w).is_multiple_of(3))
                        .collect()
                }
                (2, false) => edges[pick % edges.len()].with(v(1)).with(v(2)),
                _ => (0..(pick % 6) as u64).map(v).collect(),
            };
            edges.push(e);
        }
        Hypergraph::from_edges(n, edges)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn antichain_pass_matches_the_quadratic_reference(
            n in 1..=130usize,
            spec in proptest::collection::vec(0..u64::MAX, 0..=40usize),
        ) {
            let h = family_from_spec(n, &spec);
            let m = h.minimize();
            proptest::prop_assert_eq!(m.num_vertices(), h.num_vertices());
            proptest::prop_assert_eq!(m.edges(), &reference_minimize(&h)[..]);
            proptest::prop_assert_eq!(h.check_simple(), reference_check_simple(&h));
            proptest::prop_assert_eq!(h.is_simple(), reference_check_simple(&h).is_ok());
            proptest::prop_assert!(m.is_simple());
        }

        #[test]
        fn add_edge_keeps_every_edge_grown_to_the_universe(
            start in 0..=70usize,
            spec in proptest::collection::vec(0..130usize, 0..=24usize),
        ) {
            let mut h = Hypergraph::new(start);
            for (i, &top) in spec.iter().enumerate() {
                // Each edge is allocated for its own members only, never the universe.
                let members = [top, top / 2, (top / 3 + i % 2).min(top)];
                h.add_edge(VertexSet::from_indices(top + 1, members));
                for e in h.edges() {
                    proptest::prop_assert_eq!(e.capacity(), h.num_vertices());
                }
            }
        }
    }

    #[test]
    fn antichain_pass_covers_both_set_representations() {
        let inline = family_from_spec(40, &[3, 7 << 8 | 3, 1 << 8, 2, 5 << 8 | 1]);
        let spilled = family_from_spec(130, &[3, 7 << 8 | 3, 1 << 8, 2, 5 << 8 | 1]);
        assert!(inline.edges().iter().all(|e| e.as_bits().is_some()));
        assert!(spilled.edges().iter().all(|e| e.as_bits().is_none()));
        for h in [inline, spilled] {
            assert_eq!(h.minimize().edges(), &reference_minimize(&h)[..]);
            assert_eq!(h.check_simple(), reference_check_simple(&h));
        }
    }

    #[test]
    fn add_edge_regrows_earlier_edges_past_one_word() {
        let mut h = Hypergraph::new(3);
        h.add_edge(vset![2; 0, 1]);
        h.add_edge(vset![3; 2]);
        assert!(h.edges().iter().all(|e| e.capacity() == 3));
        // A later edge pushes the universe from one inline word to spilled words.
        h.add_edge(VertexSet::singleton(100, Vertex::new(99)));
        assert_eq!(h.num_vertices(), 100);
        for e in h.edges() {
            assert_eq!(e.capacity(), 100);
            assert!(e.as_bits().is_none(), "{e:?} must have spilled");
        }
        assert_eq!(h.edge(0).to_indices(), vec![0, 1]);
        // The index arena is built over the grown rows.
        assert_eq!(h.index().words_per_edge(), 2);
        assert_eq!(h.edges_containing(Vertex::new(99)), &[2]);
    }

    #[test]
    fn transversal_predicates() {
        let h = triangle();
        // vertex covers of the triangle: any 2 vertices
        assert!(h.is_transversal(&vset![3; 0, 1]));
        assert!(h.is_minimal_transversal(&vset![3; 0, 1]));
        assert!(h.is_transversal(&vset![3; 0, 1, 2]));
        assert!(!h.is_minimal_transversal(&vset![3; 0, 1, 2]));
        assert!(!h.is_transversal(&vset![3; 0]));
        // minimize a redundant transversal
        let m = h.minimize_transversal(&vset![3; 0, 1, 2]);
        assert!(h.is_minimal_transversal(&m));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn transversal_conventions_for_degenerate_hypergraphs() {
        let empty = Hypergraph::new(3); // no edges
        assert!(empty.is_transversal(&vset![3;]));
        assert!(empty.is_minimal_transversal(&vset![3;]));
        let with_empty_edge = Hypergraph::from_edges(3, [VertexSet::empty(3)]);
        assert!(!with_empty_edge.is_transversal(&vset![3; 0, 1, 2]));
    }

    #[test]
    fn new_transversal_definition() {
        let g = triangle();
        let h = Hypergraph::from_index_edges(3, &[&[0, 1]]);
        // {0,2} is a transversal of g and does not contain the single edge {0,1} of h
        assert!(g.is_new_transversal(&h, &vset![3; 0, 2]));
        // {0,1} contains an edge of h
        assert!(!g.is_new_transversal(&h, &vset![3; 0, 1]));
        // {0} is not a transversal of g
        assert!(!g.is_new_transversal(&h, &vset![3; 0]));
    }

    #[test]
    fn restrictions_match_paper_definitions() {
        let g = Hypergraph::from_index_edges(4, &[&[0, 1], &[2, 3], &[1, 2]]);
        let s = vset![4; 1, 2];
        let gs = g.restrict_intersections(&s);
        // {0,1}∩S = {1}, {2,3}∩S = {2}, {1,2}∩S = {1,2}
        assert!(gs.contains_edge(&vset![4; 1]));
        assert!(gs.contains_edge(&vset![4; 2]));
        assert!(gs.contains_edge(&vset![4; 1, 2]));
        assert_eq!(gs.num_edges(), 3);
        let hs = g.restrict_subedges(&s);
        assert_eq!(hs.num_edges(), 1);
        assert!(hs.contains_edge(&vset![4; 1, 2]));
        // duplicates collapse in restrict_intersections
        let g2 = Hypergraph::from_index_edges(4, &[&[0, 1], &[1, 3]]);
        let gs2 = g2.restrict_intersections(&vset![4; 1]);
        assert_eq!(gs2.num_edges(), 1);
    }

    #[test]
    fn complement_edges() {
        let h = Hypergraph::from_index_edges(4, &[&[0, 1], &[2]]);
        let c = h.complement_edges();
        assert!(c.contains_edge(&vset![4; 2, 3]));
        assert!(c.contains_edge(&vset![4; 0, 1, 3]));
    }

    #[test]
    fn frequencies_and_frequent_vertices() {
        let h = Hypergraph::from_index_edges(4, &[&[0, 1], &[0, 2], &[0, 3]]);
        assert_eq!(h.vertex_frequencies(), vec![3, 1, 1, 1]);
        // threshold |H|/2 = 1: vertices in more than 1 edge
        assert_eq!(h.frequent_vertices(h.num_edges() / 2).to_indices(), vec![0]);
    }

    #[test]
    fn cross_intersection() {
        let g = triangle();
        let tr = Hypergraph::from_index_edges(3, &[&[0, 1], &[1, 2], &[0, 2]]);
        assert!(g.cross_intersects(&tr));
        let not = Hypergraph::from_index_edges(3, &[&[0]]);
        assert!(!g.cross_intersects(&not)); // {0} misses edge {1,2}
    }

    #[test]
    fn canonical_and_equality() {
        let a = Hypergraph::from_index_edges(3, &[&[1, 2], &[0, 1]]);
        let b = Hypergraph::from_index_edges(3, &[&[0, 1], &[1, 2]]);
        assert!(a.same_edge_set(&b));
        assert_eq!(a.canonicalized().edges(), b.canonicalized().edges());
        let c = Hypergraph::from_index_edges(3, &[&[0, 1]]);
        assert!(!a.same_edge_set(&c));
    }

    #[test]
    fn display_round_trip_shape() {
        let h = triangle();
        let text = h.to_string();
        assert!(text.starts_with("# n=3 m=3"));
        assert_eq!(text.lines().count(), 4);
    }
}
