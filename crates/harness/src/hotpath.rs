//! Hot-path measurement kit for experiment E12 and the `e12_hotpath` bench.
//!
//! The PR that introduced the inline small-set `VertexSet` representation and the
//! `HypergraphIndex` needs an honest **before/after** comparison.  This module keeps a
//! faithful replica of the *pre-refactor* data layout — [`RefSet`], a vertex set that
//! always heap-allocates a `Vec<u64>` and runs `full`/`complement` as per-bit loops,
//! exactly like the seed implementation — plus the pre-refactor query paths (the
//! query-driven oracle wrapper, the edge-list transversal scan), and measures both
//! sides on the same workloads:
//!
//! * `oracle::classify` with the word-wise materialized fast path vs. the pre-refactor
//!   per-vertex query path ([`QueryDrivenOracle`] hides the bitmap, which is precisely
//!   what every oracle did before);
//! * transversal checks through the [`qld_hypergraph::HypergraphIndex`] arena vs. the
//!   heap edge-list scan;
//! * `minimize_transversal` (clone-per-step before, in-place word ops after);
//! * the `full` / `complement` / `lex_cmp` kernels themselves;
//! * `Hypergraph::minimize` (one sort plus subset tests against smaller kept edges)
//!   vs. the quadratic all-pairs pass it replaced ([`ref_minimize`]).
//!
//! Every measurement first cross-checks that baseline and optimized paths compute the
//! same answers, so a speedup can never come from a semantic drift.  Results are
//! reported as [`HotpathMetric`] rows; the bench serializes them into the JSON
//! trajectory file `target/e12_hotpath.json` (one JSON object per run).

use qld_core::oracle::{classify, MaterializedOracle, NodeClass, SAlphaOracle};
use qld_core::DualInstance;
use qld_hypergraph::{generators, Hypergraph, Vertex, VertexSet};
use qld_logspace::SpaceMeter;
use std::hint::black_box;
use std::time::Instant;

/// One before/after measurement.
#[derive(Debug, Clone)]
pub struct HotpathMetric {
    /// What was measured (e.g. `"classify"`, `"transversal-check"`).
    pub name: &'static str,
    /// Universe size of the workload (`n ≤ 64` inline, `n > 64` spilled).
    pub universe: usize,
    /// Mean nanoseconds per operation on the pre-refactor path.
    pub baseline_ns: f64,
    /// Mean nanoseconds per operation on the refactored path.
    pub optimized_ns: f64,
    /// Operations per timed iteration (for context in reports).
    pub ops_per_iter: usize,
}

impl HotpathMetric {
    /// Baseline-over-optimized throughput ratio (`> 1` means the refactor is faster).
    pub fn speedup(&self) -> f64 {
        if self.optimized_ns > 0.0 {
            self.baseline_ns / self.optimized_ns
        } else {
            f64::INFINITY
        }
    }

    /// One JSON object for the bench trajectory file.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"universe\":{},\"baseline_ns\":{:.1},\"optimized_ns\":{:.1},\"speedup\":{:.3}}}",
            self.name,
            self.universe,
            self.baseline_ns,
            self.optimized_ns,
            self.speedup()
        )
    }
}

// ---------------------------------------------------------------------------
// Faithful replica of the pre-refactor `VertexSet` (always-heap `Vec<u64>`,
// per-bit `full`/`complement`, per-element `lex_cmp`).
// ---------------------------------------------------------------------------

/// The seed repository's vertex-set layout: a heap vector of words, even for
/// single-word universes.
#[derive(Clone, PartialEq, Eq)]
pub struct RefSet {
    words: Vec<u64>,
    capacity: usize,
}

impl RefSet {
    /// Empty set, pre-refactor layout.
    pub fn empty(capacity: usize) -> Self {
        RefSet {
            words: vec![0; capacity.div_ceil(64).max(1)],
            capacity,
        }
    }

    /// The pre-refactor `full`: one `insert` per vertex.
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::empty(capacity);
        for i in 0..capacity {
            s.insert(i);
        }
        s
    }

    /// Copies a [`VertexSet`] into the pre-refactor layout.
    pub fn from_set(s: &VertexSet) -> Self {
        let mut out = Self::empty(s.capacity().max(1));
        for v in s.iter() {
            out.insert(v.index());
        }
        out
    }

    /// Member insertion.
    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        i < self.capacity && self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Word-wise intersection test (this one was already word-wise before).
    pub fn intersects(&self, other: &RefSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// The pre-refactor `complement`: one membership probe + insert per vertex.
    pub fn complement(&self, universe: usize) -> RefSet {
        let mut out = RefSet::empty(universe);
        for i in 0..universe {
            if !self.contains(i) {
                out.insert(i);
            }
        }
        out
    }

    /// The pre-refactor `without`: clone then remove.
    pub fn without(&self, i: usize) -> RefSet {
        let mut s = self.clone();
        s.words[i / 64] &= !(1 << (i % 64));
        s
    }

    /// The pre-refactor `lex_cmp`: walk both member sequences element by element.
    pub fn lex_cmp(&self, other: &RefSet) -> std::cmp::Ordering {
        let mut a = self.iter();
        let mut b = other.iter();
        loop {
            match (a.next(), b.next()) {
                (None, None) => return std::cmp::Ordering::Equal,
                (None, Some(_)) => return std::cmp::Ordering::Less,
                (Some(_), None) => return std::cmp::Ordering::Greater,
                (Some(x), Some(y)) => match x.cmp(&y) {
                    std::cmp::Ordering::Equal => continue,
                    ord => return ord,
                },
            }
        }
    }

    /// Members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

/// Pre-refactor transversal check: scan the heap edge list, one `intersects` per edge
/// over individually allocated sets.
pub fn ref_is_transversal(edges: &[RefSet], t: &RefSet) -> bool {
    edges.iter().all(|e| e.intersects(t))
}

/// Pre-refactor `minimize_transversal`: one full-set clone per removal probe.
pub fn ref_minimize_transversal(edges: &[RefSet], t: &RefSet) -> RefSet {
    let mut current = t.clone();
    for v in t.iter() {
        let candidate = current.without(v);
        if ref_is_transversal(edges, &candidate) {
            current = candidate;
        }
    }
    current
}

// ---------------------------------------------------------------------------
// Faithful replica of the pre-wide-word arena kernels: plain zip loops over
// the common word prefix, one full arena scan per probe, and no batched probe
// API at all — exactly the `HypergraphIndex` paths before the wide-word PR.
// The `words_per_edge ∈ {1, 2}` fast paths did not change in that PR, so the
// wide measurements run at 192/320/1024 vertices (3/5/16 words per edge),
// where only the generic path existed before.
// ---------------------------------------------------------------------------

/// Pre-wide-word `is_transversal` over a raw arena copy: per-row zip scan with
/// a per-word early exit, one full pass per probe.
pub fn ref_arena_is_transversal(arena: &[u64], wpe: usize, tw: &[u64]) -> bool {
    if tw.len() >= wpe {
        arena
            .chunks_exact(wpe)
            .all(|row| row.iter().zip(tw).any(|(a, b)| a & b != 0))
    } else {
        arena.chunks_exact(wpe).all(|row| {
            let common = row.len().min(tw.len());
            row[..common].iter().zip(tw).any(|(a, b)| a & b != 0)
        })
    }
}

/// Pre-wide-word `evaluate_dnf` over a raw arena copy: per-row zip subset scan,
/// one full pass per probe.
pub fn ref_arena_evaluate_dnf(arena: &[u64], wpe: usize, tw: &[u64]) -> bool {
    if tw.len() >= wpe {
        arena
            .chunks_exact(wpe)
            .any(|row| row.iter().zip(tw).all(|(a, b)| a & !b == 0))
    } else {
        arena.chunks_exact(wpe).any(|row| {
            let common = row.len().min(tw.len());
            row[..common].iter().zip(tw).all(|(a, b)| a & !b == 0)
                && row[common..].iter().all(|&a| a == 0)
        })
    }
}

/// An oracle adapter that hides the backing bitmap, forcing `classify` onto the
/// per-vertex query path — exactly what *every* oracle (including the materialized
/// one) did before this refactor.
pub struct QueryDrivenOracle<'a>(pub &'a dyn SAlphaOracle);

impl SAlphaOracle for QueryDrivenOracle<'_> {
    fn contains(&self, v: Vertex) -> bool {
        self.0.contains(v)
    }
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// A classify workload: a validated instance plus a deterministic family of node sets.
pub struct ClassifyWorkload {
    /// Instance the nodes are classified against.
    pub inst: DualInstance,
    /// The `S_α` sets to classify.
    pub sets: Vec<VertexSet>,
}

/// One step of the splitmix64 generator behind the deterministic workloads.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic pseudo-random subsets of `0..n` (splitmix-style), densities mixed.
fn sample_sets(n: usize, count: usize, seed: u64) -> Vec<VertexSet> {
    let mut state = seed;
    let mut next = move || splitmix(&mut state);
    (0..count)
        .map(|i| {
            let mut s = VertexSet::empty(n);
            for v in 0..n {
                // vary density across samples: keep roughly (i%3+1)/4 of the vertices
                if next() % 4 <= (i % 3) as u64 {
                    s.insert(Vertex::from(v));
                }
            }
            s
        })
        .collect()
}

/// The small-universe (`n ≤ 64`, inline representation) classify workload.
pub fn classify_workload_small() -> ClassifyWorkload {
    let li = generators::matching_instance(5); // n = 10, |G| ∨ |H| = 32
    let inst = DualInstance::new(li.g, li.h).unwrap().oriented().0;
    let n = inst.num_vertices();
    let mut sets = vec![VertexSet::full(n)];
    sets.extend(sample_sets(n, 40, 0xE12));
    ClassifyWorkload { inst, sets }
}

/// The spilled-universe (`n > 64`) classify workload.  `classify` is combinatorial on
/// any validated simple pair, so a random simple hypergraph against itself exercises
/// the same code paths at two words per set.
pub fn classify_workload_spilled() -> ClassifyWorkload {
    let g = generators::random_simple_hypergraph(80, 24, 3..=7, 0xE12);
    let inst = DualInstance::new(g.clone(), g).unwrap();
    let n = inst.num_vertices();
    let mut sets = vec![VertexSet::full(n)];
    sets.extend(sample_sets(n, 40, 0x5E12));
    ClassifyWorkload { inst, sets }
}

/// A transversal workload: a hypergraph plus candidate sets (identical content is also
/// mirrored into the pre-refactor layout by the measurement).
pub fn transversal_workload(n: usize, m: usize, seed: u64) -> (Hypergraph, Vec<VertexSet>) {
    let h = generators::random_simple_hypergraph(n, m, 2..=5, seed);
    (h, sample_sets(n, 60, seed ^ 0xABCD))
}

/// A wide-universe workload (`words_per_edge ≥ 3`): a larger hypergraph plus
/// probes mixing repaired transversals (the full-arena-scan regime the solver
/// loops live in), raw samples (early rejects), and edge supersets (so the
/// DNF/covers-edge side of `classify_many` has hits to verify).
pub fn wide_workload(n: usize, m: usize, seed: u64) -> (Hypergraph, Vec<VertexSet>) {
    let h = generators::random_simple_hypergraph(n, m, 3..=9, seed);
    let raw = sample_sets(n, 32, seed ^ 0xBEEF);
    let mut probes = repair_to_transversals(&h, &raw[..raw.len() / 2]);
    probes.extend_from_slice(&raw[raw.len() / 2..]);
    for (i, e) in h.edges().iter().take(4).enumerate() {
        let mut s = e.clone();
        for v in 0..n {
            if (v * 7 + i) % 13 == 0 {
                s.insert(Vertex::from(v));
            }
        }
        probes.push(s);
    }
    (h, probes)
}

/// A mixed-size family with redundancy, the input shape `minimize` exists for:
/// random edges of 2–8 vertices over `0..n`, every fifth edge a duplicate of an
/// earlier one and every seventh a superset of one.
pub fn mixed_family(n: usize, m: usize, seed: u64) -> Hypergraph {
    let mut state = seed;
    let mut edges: Vec<VertexSet> = Vec::with_capacity(m);
    for i in 0..m {
        let r = splitmix(&mut state);
        let pick = (r >> 16) as usize;
        let e = if i > 0 && i % 5 == 0 {
            edges[pick % i].clone()
        } else if i > 0 && i % 7 == 0 {
            edges[pick % i].with(Vertex::from((r >> 40) as usize % n))
        } else {
            let size = 2 + (r % 7) as usize;
            let mut e = VertexSet::empty(n);
            while e.len() < size {
                e.insert(Vertex::from(splitmix(&mut state) as usize % n));
            }
            e
        };
        edges.push(e);
    }
    Hypergraph::from_edges(n, edges)
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// Times `f`: after one warm-up call, runs four passes of `iters` iterations and
/// returns the **minimum** mean nanoseconds per iteration across passes (the minimum
/// is the standard robust estimator for short kernels on a noisy machine).
pub fn time_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let iters = iters.max(1);
    let mut best = f64::INFINITY;
    for _ in 0..4 {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// Measures `oracle::classify` on a workload: materialized word-wise fast path vs.
/// the pre-refactor query-driven path.  Panics if the two paths ever classify a node
/// differently.
pub fn measure_classify(w: &ClassifyWorkload, iters: usize) -> HotpathMetric {
    let meter = SpaceMeter::new();
    let oracles: Vec<MaterializedOracle> = w
        .sets
        .iter()
        .map(|s| MaterializedOracle::new(s.clone(), &meter))
        .collect();
    // Agreement check first: the fast path must not change any classification.
    for o in &oracles {
        let fast = classify(&w.inst, o, &meter);
        let slow = classify(&w.inst, &QueryDrivenOracle(o), &meter);
        assert_eq!(
            fast, slow,
            "materialized fast path changed a classification"
        );
    }
    let optimized_ns = time_ns(iters, || {
        for o in &oracles {
            black_box::<NodeClass>(classify(&w.inst, o, &meter));
        }
    });
    let baseline_ns = time_ns(iters, || {
        for o in &oracles {
            black_box::<NodeClass>(classify(&w.inst, &QueryDrivenOracle(o), &meter));
        }
    });
    HotpathMetric {
        name: "classify",
        universe: w.inst.num_vertices(),
        baseline_ns,
        optimized_ns,
        ops_per_iter: oracles.len(),
    }
}

/// Repairs each candidate into a transversal of `h` by greedily covering the edges it
/// misses.  Transversal candidates make the check scan every edge — the regime the
/// solver loops (`minimize_transversal`, `is_minimal_transversal`) actually live in —
/// where random subsets would mostly measure first-edge early exits.
pub fn repair_to_transversals(h: &Hypergraph, candidates: &[VertexSet]) -> Vec<VertexSet> {
    candidates
        .iter()
        .map(|t| {
            let mut t = t.clone();
            for e in h.edges() {
                if !e.intersects(&t) {
                    t.insert(
                        e.min_vertex()
                            .expect("simple hypergraphs have no empty edge"),
                    );
                }
            }
            t
        })
        .collect()
}

/// Measures transversal checks: indexed arena scan vs. the pre-refactor heap edge
/// list.  Half the candidates are repaired into full-scan transversals, half stay
/// early-exit rejections.  Panics if the two paths disagree on any candidate.
pub fn measure_transversal(h: &Hypergraph, raw: &[VertexSet], iters: usize) -> HotpathMetric {
    let mut candidates = repair_to_transversals(h, &raw[..raw.len() / 2]);
    candidates.extend_from_slice(&raw[raw.len() / 2..]);
    let candidates = &candidates;
    let ref_edges: Vec<RefSet> = h.edges().iter().map(RefSet::from_set).collect();
    let ref_candidates: Vec<RefSet> = candidates.iter().map(RefSet::from_set).collect();
    h.index(); // build outside the timed region: the index is cached across queries
    for (t, rt) in candidates.iter().zip(&ref_candidates) {
        assert_eq!(
            h.is_transversal(t),
            ref_is_transversal(&ref_edges, rt),
            "indexed transversal check disagrees with the reference"
        );
    }
    let optimized_ns = time_ns(iters, || {
        for t in candidates {
            black_box(h.is_transversal(t));
        }
    });
    let baseline_ns = time_ns(iters, || {
        for t in &ref_candidates {
            black_box(ref_is_transversal(&ref_edges, t));
        }
    });
    HotpathMetric {
        name: "transversal-check",
        universe: h.num_vertices(),
        baseline_ns,
        optimized_ns,
        ops_per_iter: candidates.len(),
    }
}

/// Measures `minimize_transversal`: in-place word ops vs. clone-per-step reference.
pub fn measure_minimize_transversal(
    h: &Hypergraph,
    candidates: &[VertexSet],
    iters: usize,
) -> HotpathMetric {
    let n = h.num_vertices();
    let transversals = repair_to_transversals(h, candidates);
    let ref_edges: Vec<RefSet> = h.edges().iter().map(RefSet::from_set).collect();
    let ref_transversals: Vec<RefSet> = transversals.iter().map(RefSet::from_set).collect();
    for (t, rt) in transversals.iter().zip(&ref_transversals) {
        let fast = h.minimize_transversal(t);
        let slow = ref_minimize_transversal(&ref_edges, rt);
        assert_eq!(
            fast.to_indices(),
            slow.iter().collect::<Vec<_>>(),
            "minimize_transversal disagrees with the reference"
        );
    }
    let optimized_ns = time_ns(iters, || {
        for t in &transversals {
            black_box(h.minimize_transversal(t));
        }
    });
    let baseline_ns = time_ns(iters, || {
        for t in &ref_transversals {
            black_box(ref_minimize_transversal(&ref_edges, t));
        }
    });
    HotpathMetric {
        name: "minimize-transversal",
        universe: n,
        baseline_ns,
        optimized_ns,
        ops_per_iter: transversals.len(),
    }
}

/// Flattens the cached index's edge rows into a standalone arena copy, so the
/// reference kernels scan the *same* layout and only the loop shape differs.
fn arena_copy(h: &Hypergraph) -> (Vec<u64>, usize) {
    let idx = h.index();
    let wpe = idx.words_per_edge();
    let mut arena = Vec::with_capacity(idx.num_edges() * wpe);
    for i in 0..idx.num_edges() {
        arena.extend_from_slice(idx.edge_words(i));
    }
    (arena, wpe)
}

/// Measures the batched wide-word transversal probe: one `transversal_many`
/// pass over the arena for the whole probe family vs. the pre-wide-word
/// one-full-scan-per-probe zip kernel on the same arena.  Panics if the
/// batched answers disagree with either the reference or the per-probe
/// optimized path.
pub fn measure_wide_transversal_batch(
    h: &Hypergraph,
    probes: &[VertexSet],
    iters: usize,
) -> HotpathMetric {
    let idx = h.index();
    let (arena, wpe) = arena_copy(h);
    let refs: Vec<&VertexSet> = probes.iter().collect();
    let batched = idx.transversal_many(&refs);
    for (t, &got) in probes.iter().zip(&batched) {
        assert_eq!(
            got,
            ref_arena_is_transversal(&arena, wpe, t.as_words()),
            "batched transversal probe disagrees with the pre-wide-word scan"
        );
        assert_eq!(
            got,
            h.is_transversal(t),
            "batched transversal probe disagrees with the per-probe path"
        );
    }
    let optimized_ns = time_ns(iters, || {
        black_box(idx.transversal_many(&refs));
    });
    let baseline_ns = time_ns(iters, || {
        for t in probes {
            black_box(ref_arena_is_transversal(&arena, wpe, t.as_words()));
        }
    });
    HotpathMetric {
        name: "wide-transversal-batch",
        universe: h.num_vertices(),
        baseline_ns,
        optimized_ns,
        ops_per_iter: probes.len(),
    }
}

/// Measures the batched wide-word joint classification: one `classify_many`
/// pass answering both monotone probes per candidate vs. the two separate
/// full-arena zip scans (`is_transversal` + `evaluate_dnf`) the pre-wide-word
/// call sites issued per candidate.  Panics on any disagreement.
pub fn measure_wide_classify_batch(
    h: &Hypergraph,
    probes: &[VertexSet],
    iters: usize,
) -> HotpathMetric {
    let idx = h.index();
    let (arena, wpe) = arena_copy(h);
    let refs: Vec<&VertexSet> = probes.iter().collect();
    let classes = idx.classify_many(&refs);
    assert!(
        classes.iter().any(|c| c.covers_edge),
        "wide classify workload never exercises the covers-edge side"
    );
    for (t, c) in probes.iter().zip(&classes) {
        assert_eq!(
            c.transversal,
            ref_arena_is_transversal(&arena, wpe, t.as_words()),
            "batched classification disagrees with the pre-wide-word transversal scan"
        );
        assert_eq!(
            c.covers_edge,
            ref_arena_evaluate_dnf(&arena, wpe, t.as_words()),
            "batched classification disagrees with the pre-wide-word DNF scan"
        );
    }
    let optimized_ns = time_ns(iters, || {
        black_box(idx.classify_many(&refs));
    });
    let baseline_ns = time_ns(iters, || {
        for t in probes {
            black_box(ref_arena_is_transversal(&arena, wpe, t.as_words()));
            black_box(ref_arena_evaluate_dnf(&arena, wpe, t.as_words()));
        }
    });
    HotpathMetric {
        name: "wide-classify-batch",
        universe: h.num_vertices(),
        baseline_ns,
        optimized_ns,
        ops_per_iter: probes.len(),
    }
}

/// Measures the `full`/`complement`/`lex_cmp` kernels: word-wise vs. per-bit loops.
pub fn measure_set_kernels(n: usize, iters: usize) -> HotpathMetric {
    let sets = sample_sets(n, 40, 0xCAFE ^ n as u64);
    let ref_sets: Vec<RefSet> = sets.iter().map(RefSet::from_set).collect();
    for (s, r) in sets.iter().zip(&ref_sets) {
        assert_eq!(
            s.complement(n).to_indices(),
            r.complement(n).iter().collect::<Vec<_>>()
        );
    }
    for (s, r) in sets.iter().zip(&ref_sets) {
        for (t, q) in sets.iter().zip(&ref_sets) {
            assert_eq!(s.lex_cmp(t), r.lex_cmp(q), "lex_cmp drift at n={n}");
        }
    }
    let optimized_ns = time_ns(iters, || {
        black_box(VertexSet::full(n));
        for s in &sets {
            black_box(s.complement(n));
        }
        for s in &sets {
            for t in &sets {
                black_box(s.lex_cmp(t));
            }
        }
    });
    let baseline_ns = time_ns(iters, || {
        black_box(RefSet::full(n));
        for s in &ref_sets {
            black_box(s.complement(n));
        }
        for s in &ref_sets {
            for t in &ref_sets {
                black_box(s.lex_cmp(t));
            }
        }
    });
    HotpathMetric {
        name: "set-kernels",
        universe: n,
        baseline_ns,
        optimized_ns,
        ops_per_iter: sets.len() * (sets.len() + 2),
    }
}

/// The quadratic `minimize` the antichain pass replaced: every edge is
/// subset-tested against every edge kept so far, in input order.
pub fn ref_minimize(edges: &[VertexSet]) -> Vec<VertexSet> {
    let mut keep: Vec<VertexSet> = Vec::new();
    'outer: for e in edges {
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

/// Measures `Hypergraph::minimize` against the quadratic reference pass.  Panics
/// unless both keep the same edges in the same order.
pub fn measure_family_minimize(h: &Hypergraph, iters: usize) -> HotpathMetric {
    assert_eq!(
        h.minimize().edges(),
        &ref_minimize(h.edges())[..],
        "minimize disagrees with the quadratic reference"
    );
    let optimized_ns = time_ns(iters, || {
        black_box(h.minimize());
    });
    let baseline_ns = time_ns(iters, || {
        black_box(ref_minimize(h.edges()));
    });
    HotpathMetric {
        name: "family-minimize",
        universe: h.num_vertices(),
        baseline_ns,
        optimized_ns,
        ops_per_iter: 1,
    }
}

/// Runs every E12 measurement at the given per-metric iteration count.
pub fn measure_all(iters: usize) -> Vec<HotpathMetric> {
    let small = classify_workload_small();
    let spilled = classify_workload_spilled();
    let (h_small, cand_small) = transversal_workload(48, 40, 0xE12A);
    let (h_spilled, cand_spilled) = transversal_workload(96, 40, 0xE12B);
    let (h_192, probes_192) = wide_workload(192, 2048, 0xE12C);
    let (h_320, probes_320) = wide_workload(320, 3072, 0xE12D);
    let (h_1024, probes_1024) = wide_workload(1024, 8192, 0xE12E);
    let wide_iters = iters.max(1) / 8 + 1;
    // `threshold(52,2)`'s G (|G| = 1326, the cold-solve benchmark's largest family),
    // a redundant mixed-size family in the spilled representation, and a 16-edge one
    // of the size the mining and key loops minimize over and over.
    let th_52 = generators::threshold_hypergraph(52, 2);
    let mixed = mixed_family(96, 1200, 0xE12F);
    let family_16 = mixed_family(16, 16, 0xE130);
    vec![
        measure_classify(&small, iters),
        measure_classify(&spilled, iters.max(1) / 4 + 1),
        measure_transversal(&h_small, &cand_small, iters),
        measure_transversal(&h_spilled, &cand_spilled, iters),
        measure_minimize_transversal(&h_small, &cand_small, iters.max(1) / 4 + 1),
        measure_set_kernels(48, iters),
        measure_set_kernels(160, iters),
        measure_wide_transversal_batch(&h_192, &probes_192, wide_iters),
        measure_wide_transversal_batch(&h_1024, &probes_1024, wide_iters),
        measure_wide_classify_batch(&h_320, &probes_320, wide_iters),
        measure_wide_classify_batch(&h_1024, &probes_1024, wide_iters),
        measure_family_minimize(&th_52, wide_iters),
        measure_family_minimize(&mixed, wide_iters),
        measure_family_minimize(&family_16, iters),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_paths_agree_with_optimized_paths() {
        // The measurement helpers assert agreement internally; a single fast
        // iteration exercises all of those checks.
        let metrics = measure_all(1);
        assert_eq!(metrics.len(), 14);
        for m in &metrics {
            assert!(m.baseline_ns >= 0.0 && m.optimized_ns >= 0.0);
            assert!(m.ops_per_iter > 0);
            let json = m.to_json();
            assert!(json.contains("\"speedup\""), "{json}");
        }
        // Inline, spilled, and wide (multi-word) universes are all represented.
        assert!(metrics.iter().any(|m| m.universe <= 64));
        assert!(metrics.iter().any(|m| m.universe > 64));
        assert!(metrics.iter().any(|m| m.universe >= 1024));
    }

    #[test]
    fn wide_reference_kernels_match_the_index_paths() {
        // Small wide instance so the exhaustive cross-check stays fast: every
        // probe must classify identically through the reference zip kernels,
        // the per-probe index paths, and both batched probes.
        let (h, probes) = wide_workload(192, 64, 0x51DE);
        let idx = h.index();
        let (arena, wpe) = arena_copy(&h);
        assert!(wpe >= 3, "wide workload must spill past two words");
        let refs: Vec<&VertexSet> = probes.iter().collect();
        let batched = idx.transversal_many(&refs);
        let classes = idx.classify_many(&refs);
        for ((t, &tv), c) in probes.iter().zip(&batched).zip(&classes) {
            assert_eq!(tv, ref_arena_is_transversal(&arena, wpe, t.as_words()));
            assert_eq!(tv, c.transversal);
            assert_eq!(
                c.covers_edge,
                ref_arena_evaluate_dnf(&arena, wpe, t.as_words())
            );
            assert_eq!(c.covers_edge, h.index().evaluate_dnf(t));
        }
        // Both answers occur in the workload, so the checks are not vacuous.
        assert!(batched.iter().any(|&b| b) && batched.iter().any(|&b| !b));
        assert!(classes.iter().any(|c| c.covers_edge));
    }
}
