//! Seeded workload generators.
//!
//! Every wire line the daemons receive comes from here, and the same seed
//! gives byte-identical lines.  Each generated instance carries what its
//! answer is checked against: `check` instances are dual by construction or
//! perturbed into non-duality (the verdict is known up front), and the other
//! kinds are compared with the direct sequential solver after the run.

use qld_datamining::BooleanRelation;
use qld_engine::Request;
use qld_hypergraph::generators::threshold_hypergraph;
use qld_hypergraph::transversal::minimal_transversals;
use qld_hypergraph::{Hypergraph, VertexSet};
use qld_keys::RelationInstance;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// SplitMix64: small, seedable, and independent of the workspace's `rand`
/// stand-in, so the workloads do not move when that shim changes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        let span = (hi - lo + 1) as u128;
        lo + ((self.next_u64() as u128 * span) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i);
            items.swap(i, j);
        }
    }
}

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotReask,
    ColdSolve,
}

impl Workload {
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "hot-reask" => Some(Workload::HotReask),
            "cold-solve" => Some(Workload::ColdSolve),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotReask => "hot-reask",
            Workload::ColdSolve => "cold-solve",
        }
    }
}

/// Result-cache capacity of the `hot-reask` daemon: below [`HOT_POOL`], so
/// the LRU evicts.
pub const HOT_CACHE_CAPACITY: usize = 96;
/// Distinct instances `hot-reask` draws from.
pub const HOT_POOL: usize = 256;
/// Zipf exponent of the `hot-reask` draw.
pub const HOT_ZIPF: f64 = 1.0;
/// Identical, edge-permuted copies per stampede of the front phase (asked
/// over both connections at once).
pub const BURST: usize = 4;

/// The payload of one request, kept as edge/row tokens so every ask can be
/// rendered in a fresh order.
#[derive(Debug, Clone)]
enum Body {
    Check {
        n: usize,
        g: Vec<String>,
        h: Vec<String>,
    },
    Enumerate {
        n: usize,
        g: Vec<String>,
        limit: usize,
    },
    Mine {
        n: usize,
        rows: Vec<String>,
        z: usize,
        full: bool,
    },
    Keys {
        rows: Vec<String>,
    },
}

/// One generated instance: the typed request (for the direct solver), the
/// verdict a `check` must give, and whether it is asked with `stream=true`.
#[derive(Debug, Clone)]
pub struct Spec {
    pub request: Request,
    /// `Some(dual)` for `check`: known by construction.
    pub dual: Option<bool>,
    pub stream: bool,
    body: Body,
}

/// One request as sent: its global sequence number (also its `id=` token),
/// the instance, and the wire line.
#[derive(Debug, Clone)]
pub struct Ask {
    pub seq: u64,
    pub spec: Arc<Spec>,
    pub line: String,
}

fn edge_token(edge: &[usize]) -> String {
    if edge.is_empty() {
        return ".".to_string();
    }
    edge.iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

fn family(n: usize, tokens: &mut [String], rng: &mut Rng) -> String {
    if tokens.is_empty() {
        return format!("n={n}:-");
    }
    rng.shuffle(tokens);
    format!("n={n}:{}", tokens.join(";"))
}

impl Spec {
    /// The wire line for one ask: edges (rows) in a fresh random order, so a
    /// re-ask reaches the same canonical key by a different text.
    pub fn render(&self, seq: u64, rng: &mut Rng) -> String {
        let mut line = match &self.body {
            Body::Check { n, g, h } => {
                let (mut g, mut h) = (g.clone(), h.clone());
                format!(
                    "check {} {}",
                    family(*n, &mut g, rng),
                    family(*n, &mut h, rng)
                )
            }
            Body::Enumerate { n, g, limit } => {
                let mut g = g.clone();
                format!("enumerate {} limit={limit}", family(*n, &mut g, rng))
            }
            Body::Mine { n, rows, z, full } => {
                let mut rows = rows.clone();
                let full = if *full { " full=true" } else { "" };
                format!("mine {} z={z}{full}", family(*n, &mut rows, rng))
            }
            Body::Keys { rows } => {
                let mut rows = rows.clone();
                rng.shuffle(&mut rows);
                format!("keys {}", rows.join(";"))
            }
        };
        line.push_str(&format!(" id={seq}"));
        if self.stream {
            line.push_str(" stream=true");
        }
        line
    }

    /// A fingerprint of the canonical instance: equal for every edge order
    /// of one instance, distinct (up to hash collisions) otherwise.  Cheaper
    /// than the engine's cache key because the generated families are already
    /// simple (minimal), so canonical form is just sorted edges.
    fn fingerprint(&self) -> u128 {
        let sorted = |v: &[String]| {
            let mut v = v.to_vec();
            v.sort();
            v.join(";")
        };
        let text = match &self.body {
            Body::Check { n, g, h } => format!("c{n}|{}|{}", sorted(g), sorted(h)),
            Body::Enumerate { n, g, limit } => format!("e{n}|{limit}|{}", sorted(g)),
            Body::Mine { n, rows, z, full } => format!("m{n}|{z}|{full}|{}", sorted(rows)),
            Body::Keys { rows } => format!("k|{}", sorted(rows)),
        };
        let a = fnv(text.as_bytes(), 0xcbf2_9ce4_8422_2325);
        let b = fnv(text.as_bytes(), 0x8422_2325_cbf2_9ce4);
        (u128::from(a) << 64) | u128::from(b)
    }
}

fn fnv(bytes: &[u8], basis: u64) -> u64 {
    bytes.iter().fold(basis, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn edges_of(h: &Hypergraph) -> Vec<Vec<usize>> {
    h.edges().iter().map(VertexSet::to_indices).collect()
}

/// A dual pair `(g, tr(g))` on `n` vertices, by family.
fn threshold_pair(n: usize, k: usize) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    (
        edges_of(&threshold_hypergraph(n, k)),
        edges_of(&threshold_hypergraph(n, n - k + 1)),
    )
}

fn matching_pair(k: usize) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let g = (0..k).map(|i| vec![2 * i, 2 * i + 1]).collect();
    let h = (0..1usize << k)
        .map(|mask| (0..k).map(|i| 2 * i + ((mask >> i) & 1)).collect())
        .collect();
    (g, h)
}

fn random_edges(rng: &mut Rng, n: usize, m: usize, lo: usize, hi: usize) -> Hypergraph {
    let edges = (0..m).map(|_| {
        let size = rng.range(lo, hi).min(n);
        let mut e = VertexSet::empty(n);
        while e.len() < size {
            e.insert(rng.range(0, n - 1).into());
        }
        e
    });
    Hypergraph::from_edges(n, edges.collect::<Vec<_>>()).minimize()
}

/// Largest dual a random pair may have: beyond it one `check` can take
/// seconds, and a single such instance would decide the run's tail.
const RANDOM_DUAL_MAX_EDGES: usize = 24;

fn random_pair(rng: &mut Rng, n: usize, m: usize, hi: usize) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    loop {
        let g = random_edges(rng, n, m, 2, hi);
        let h = minimal_transversals(&g);
        if h.num_edges() <= RANDOM_DUAL_MAX_EDGES {
            return (edges_of(&g), edges_of(&h));
        }
    }
}

/// A random injection of `n` vertices into a universe of `universe`: one
/// family then yields many distinct canonical instances.
fn relabelling(rng: &mut Rng, n: usize, universe: usize) -> Vec<usize> {
    assert!(
        n <= universe,
        "universe {universe} too small for {n} vertices"
    );
    let mut slots: Vec<usize> = (0..universe).collect();
    rng.shuffle(&mut slots);
    slots.truncate(n);
    slots
}

fn relabel(slots: &[usize], edges: &[Vec<usize>]) -> Vec<Vec<usize>> {
    edges
        .iter()
        .map(|e| {
            let mut mapped: Vec<usize> = e.iter().map(|&v| slots[v]).collect();
            mapped.sort_unstable();
            mapped
        })
        .collect()
}

fn hypergraph(n: usize, edges: &[Vec<usize>]) -> Hypergraph {
    Hypergraph::from_edges(
        n,
        edges
            .iter()
            .map(|e| VertexSet::from_indices(n, e.iter().copied()))
            .collect::<Vec<_>>(),
    )
}

/// A `check` spec from a dual pair on `n` vertices, relabelled into a
/// universe padded by 1–12 vertices (`attempt` widens it further when the
/// relabelling repeats an earlier instance), and unless `dual`, perturbed into
/// a non-dual instance by dropping one edge of `h` (which leaves a new
/// transversal of `g` as witness).
fn check_spec(
    rng: &mut Rng,
    n: usize,
    (g, h): (Vec<Vec<usize>>, Vec<Vec<usize>>),
    round: usize,
    attempt: usize,
    dual: bool,
) -> Spec {
    let universe = (n + 1 + (round * 5) % 12 + attempt).min(64.max(n));
    let slots = relabelling(rng, n, universe);
    let g = relabel(&slots, &g);
    let mut h = relabel(&slots, &h);
    let dual = dual || h.len() < 2;
    if !dual {
        let drop = rng.range(0, h.len() - 1);
        h.remove(drop);
    }
    let request = Request::DecideDuality {
        g: hypergraph(universe, &g),
        h: hypergraph(universe, &h),
    };
    Spec {
        request,
        dual: Some(dual),
        stream: false,
        body: Body::Check {
            n: universe,
            g: g.iter().map(|e| edge_token(e)).collect(),
            h: h.iter().map(|e| edge_token(e)).collect(),
        },
    }
}

fn enumerate_spec(rng: &mut Rng, n: usize, m: usize, limit: usize, stream: bool) -> Spec {
    let g = random_edges(rng, n, m, 2, 4);
    Spec {
        body: Body::Enumerate {
            n,
            g: edges_of(&g).iter().map(|e| edge_token(e)).collect(),
            limit,
        },
        request: Request::EnumerateTransversals {
            g,
            limit: Some(limit),
        },
        dual: None,
        stream,
    }
}

/// A random relation (each item in each row with probability 1/2) with the
/// frequency threshold at a quarter of its rows.
fn mine_spec(rng: &mut Rng, items: usize, rows: usize, full: bool) -> Spec {
    let rows: Vec<Vec<usize>> = (0..rows)
        .map(|_| (0..items).filter(|_| rng.chance(0.5)).collect())
        .collect();
    let z = (rows.len() / 4).max(1);
    let relation = BooleanRelation::from_rows(
        items,
        rows.iter()
            .map(|r| VertexSet::from_indices(items, r.iter().copied())),
    );
    let empty = Hypergraph::new(items);
    let request = if full {
        Request::MineBorders {
            relation,
            threshold: z,
            minimal_infrequent: empty.clone(),
            maximal_frequent: empty,
        }
    } else {
        Request::IdentifyItemsetBorders {
            relation,
            threshold: z,
            minimal_infrequent: empty.clone(),
            maximal_frequent: empty,
        }
    };
    Spec {
        request,
        dual: None,
        stream: false,
        body: Body::Mine {
            n: items,
            rows: rows.iter().map(|r| edge_token(r)).collect(),
            z,
            full,
        },
    }
}

fn keys_spec(rng: &mut Rng, attrs: usize, rows: usize) -> Spec {
    let table: Vec<Vec<u32>> = (0..rows)
        .map(|_| (0..attrs).map(|_| rng.range(0, 2) as u32).collect())
        .collect();
    Spec {
        body: Body::Keys {
            rows: table
                .iter()
                .map(|r| r.iter().map(u32::to_string).collect::<Vec<_>>().join(","))
                .collect(),
        },
        request: Request::FindMinimalKeys {
            instance: RelationInstance::from_rows(attrs, table),
        },
        dual: None,
        stream: false,
    }
}

/// One instance shape of a workload mix; ranges are inclusive.  A workload
/// is a fixed cycle of shapes, and the sizes within a shape step through
/// their ranges with the cycle count, so every seed gets the same mix of
/// kinds and sizes.  The seed chooses relabellings, random contents and edge
/// orders: runs with different seeds then differ by sampling, not by mix.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `check` on `threshold(n, k)` and its dual `threshold(n, n-k+1)`.
    Threshold { k: usize, n: (usize, usize) },
    /// `check` on the matching of `k` pairs and its `2^k`-edge dual.
    Matching { k: (usize, usize) },
    /// `check` on a random hypergraph (edges of 2–3 vertices) and its dual.
    RandomDual {
        n: (usize, usize),
        m: (usize, usize),
    },
    /// `enumerate limit=K` on a random hypergraph (edges of 2–4 vertices).
    Enumerate {
        n: (usize, usize),
        m: (usize, usize),
        limit: (usize, usize),
        stream: bool,
    },
    /// `mine` (one identification step, or `full=true`) on a random relation.
    Mine {
        items: (usize, usize),
        rows: (usize, usize),
        full: bool,
    },
    /// `keys` on a random table over a 3-value domain.
    Keys {
        attrs: (usize, usize),
        rows: (usize, usize),
    },
}

/// The `round`-th value of an inclusive range: steps through all of it,
/// the same for every seed.
fn step((lo, hi): (usize, usize), round: usize) -> usize {
    lo + (round * 97) % (hi - lo + 1)
}

impl Shape {
    /// An instance of this shape.  Checks alternate dual and perturbed
    /// rounds; `attempt` > 0 asks for another instance after a repeat.
    fn make(self, rng: &mut Rng, round: usize, attempt: usize) -> Spec {
        let dual = round.is_multiple_of(2);
        match self {
            Shape::Threshold { k, n } => {
                let n = step(n, round);
                check_spec(rng, n, threshold_pair(n, k), round, attempt, dual)
            }
            Shape::Matching { k } => {
                let k = step(k, round);
                check_spec(rng, 2 * k, matching_pair(k), round, attempt, dual)
            }
            Shape::RandomDual { n, m } => {
                let (n, m) = (step(n, round), step(m, round));
                let pair = random_pair(rng, n, m, 3);
                check_spec(rng, n, pair, round, attempt, dual)
            }
            Shape::Enumerate {
                n,
                m,
                limit,
                stream,
            } => {
                let (n, m, limit) = (step(n, round), step(m, round), step(limit, round));
                enumerate_spec(rng, n, m, limit, stream)
            }
            Shape::Mine { items, rows, full } => {
                mine_spec(rng, step(items, round), step(rows, round), full)
            }
            Shape::Keys { attrs, rows } => keys_spec(rng, step(attrs, round), step(rows, round)),
        }
    }
}

/// `hot-reask` pool ranks cycle through these: half `check` (up to ~700
/// edges, below the parallel threshold), a quarter `enumerate limit=K` (half
/// of those streamed), one-step `mine`, `keys`.
const HOT_MIX: [Shape; 8] = [
    Shape::Threshold { k: 2, n: (10, 36) },
    Shape::Mine {
        items: (8, 14),
        rows: (10, 30),
        full: false,
    },
    Shape::Matching { k: (4, 6) },
    Shape::Enumerate {
        n: (10, 16),
        m: (5, 10),
        limit: (4, 12),
        stream: false,
    },
    Shape::RandomDual {
        n: (8, 12),
        m: (4, 7),
    },
    Shape::Keys {
        attrs: (5, 7),
        rows: (8, 16),
    },
    Shape::Threshold { k: 3, n: (8, 12) },
    Shape::Enumerate {
        n: (10, 16),
        m: (5, 10),
        limit: (4, 12),
        stream: true,
    },
];

const SMALL_THRESHOLD: Shape = Shape::Threshold { k: 2, n: (4, 6) };
const SMALL_MATCHING: Shape = Shape::Matching { k: (2, 4) };
const MID_THRESHOLD: Shape = Shape::Threshold { k: 2, n: (12, 30) };
const MID_MATCHING: Shape = Shape::Matching { k: (5, 6) };
const MID_RANDOM: Shape = Shape::RandomDual {
    n: (10, 14),
    m: (5, 8),
};
/// Work `|V|·(|G|+|H|)` at least 41·820 > 32768: the daemon splits these.
const LARGE_THRESHOLD: Shape = Shape::Threshold { k: 2, n: (40, 52) };
const COLD_ENUMERATE: Shape = Shape::Enumerate {
    n: (12, 16),
    m: (6, 10),
    limit: (6, 16),
    stream: false,
};
const COLD_STREAM: Shape = Shape::Enumerate {
    n: (12, 16),
    m: (6, 10),
    limit: (6, 16),
    stream: true,
};
const COLD_MINE: Shape = Shape::Mine {
    items: (8, 10),
    rows: (12, 20),
    full: true,
};
const COLD_KEYS: Shape = Shape::Keys {
    attrs: (6, 8),
    rows: (10, 16),
};

/// `cold-solve` requests cycle through these 25: 15 `check` (5 with volume
/// at most 96, 7 mid, 3 above the parallel threshold), 5 `enumerate limit=K`
/// (2 streamed), 3 `mine full=true`, 2 `keys`.
const COLD_MIX: [Shape; 25] = [
    MID_THRESHOLD,
    SMALL_THRESHOLD,
    COLD_ENUMERATE,
    LARGE_THRESHOLD,
    MID_MATCHING,
    COLD_MINE,
    SMALL_MATCHING,
    COLD_STREAM,
    MID_RANDOM,
    COLD_KEYS,
    MID_THRESHOLD,
    Shape::RandomDual {
        n: (6, 9),
        m: (3, 3),
    },
    LARGE_THRESHOLD,
    COLD_ENUMERATE,
    MID_MATCHING,
    COLD_MINE,
    SMALL_THRESHOLD,
    COLD_STREAM,
    MID_THRESHOLD,
    COLD_ENUMERATE,
    LARGE_THRESHOLD,
    SMALL_MATCHING,
    MID_RANDOM,
    COLD_KEYS,
    COLD_MINE,
];

/// Stampedes of the front phase cycle through these: a quarter streamed
/// `enumerate`s, the rest cold requests of small and mid size.
const BURST_MIX: [Shape; 8] = [
    Shape::Threshold { k: 2, n: (12, 24) },
    COLD_STREAM,
    COLD_MINE,
    SMALL_MATCHING,
    MID_MATCHING,
    COLD_STREAM,
    Shape::Keys {
        attrs: (5, 6),
        rows: (8, 12),
    },
    Shape::RandomDual {
        n: (10, 12),
        m: (5, 7),
    },
];

/// Where a generator's instances come from.
enum Source {
    /// `hot-reask`: a fixed pool drawn Zipf-skewed (the CDF over ranks).
    Pool {
        specs: Vec<Arc<Spec>>,
        cdf: Vec<f64>,
    },
    /// `cold-solve`: a new instance per request.
    Fresh,
    /// The front phase: [`BURST`] consecutive copies of each new instance.
    Bursts,
}

/// The deterministic request stream of one run.  Request `i` of a seed is
/// always the same line, whichever connection ends up sending it.
pub struct Generator {
    source: Source,
    rng: Rng,
    seq: u64,
    /// Instances made so far: the position in the mix cycle.
    made: usize,
    /// Fingerprints issued so far, so no instance repeats.
    issued: HashSet<u128>,
    /// Copies of the current stampede not asked yet.
    pending: VecDeque<Ask>,
}

impl Generator {
    pub fn new(workload: Workload, seed: u64) -> Generator {
        let salt = workload as u64;
        let mut gen = Generator::with(Source::Fresh, seed.wrapping_mul(3).wrapping_add(salt));
        if workload == Workload::HotReask {
            let specs: Vec<Arc<Spec>> = (0..HOT_POOL).map(|_| gen.fresh(&HOT_MIX)).collect();
            let weights: Vec<f64> = (1..=HOT_POOL).map(|r| (r as f64).powf(-HOT_ZIPF)).collect();
            let total: f64 = weights.iter().sum();
            let cdf = weights
                .iter()
                .scan(0.0, |acc, w| {
                    *acc += w / total;
                    Some(*acc)
                })
                .collect();
            gen.source = Source::Pool { specs, cdf };
        }
        gen
    }

    /// The stampede stream of the front phase: each new instance is asked
    /// [`BURST`] times in a row, each copy in its own edge order, so the
    /// two connections of a closed loop ask copies of it at the same moment.
    pub fn bursts(seed: u64) -> Generator {
        Generator::with(Source::Bursts, seed.wrapping_mul(3).wrapping_add(2))
    }

    fn with(source: Source, seed: u64) -> Generator {
        Generator {
            source,
            rng: Rng::new(seed),
            seq: 0,
            made: 0,
            issued: HashSet::new(),
            pending: VecDeque::new(),
        }
    }

    /// The next instance of `mix`, never issued before by this generator.
    fn fresh(&mut self, mix: &[Shape]) -> Arc<Spec> {
        let (slot, round) = (self.made % mix.len(), self.made / mix.len());
        self.made += 1;
        for attempt in 0.. {
            let spec = mix[slot].make(&mut self.rng, round, attempt);
            if self.issued.insert(spec.fingerprint()) {
                return Arc::new(spec);
            }
        }
        unreachable!("an unbounded search returns")
    }

    /// The next request.
    pub fn next_ask(&mut self) -> Ask {
        if let Some(ask) = self.pending.pop_front() {
            return ask;
        }
        let spec = match &self.source {
            Source::Pool { specs, cdf } => {
                let u = self.rng.unit();
                let rank = cdf.partition_point(|&c| c < u).min(HOT_POOL - 1);
                Arc::clone(&specs[rank])
            }
            Source::Fresh => self.fresh(&COLD_MIX),
            Source::Bursts => {
                let spec = self.fresh(&BURST_MIX);
                for _ in 0..BURST {
                    let copy = self.ask(Arc::clone(&spec));
                    self.pending.push_back(copy);
                }
                return self.pending.pop_front().expect("a stampede has copies");
            }
        };
        self.ask(spec)
    }

    fn ask(&mut self, spec: Arc<Spec>) -> Ask {
        let seq = self.seq;
        self.seq += 1;
        let line = spec.render(seq, &mut self.rng);
        Ask { seq, spec, line }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qld_engine::cache::{CachedResult, QueryCache};
    use qld_engine::ops::ExecInfo;
    use qld_engine::{wire, Outcome, SizeThresholdPolicy, SolverPolicy};

    fn key(line: &str) -> String {
        wire::parse_request(line)
            .expect("generated lines parse")
            .cache_key()
    }

    #[test]
    fn same_seed_gives_byte_identical_lines() {
        for workload in [Workload::HotReask, Workload::ColdSolve] {
            let mut a = Generator::new(workload, 7);
            let mut b = Generator::new(workload, 7);
            for _ in 0..200 {
                assert_eq!(a.next_ask().line, b.next_ask().line);
            }
        }
        let mut a = Generator::bursts(7);
        let mut b = Generator::bursts(7);
        for _ in 0..200 {
            assert_eq!(a.next_ask().line, b.next_ask().line);
        }
        let mut c = Generator::new(Workload::ColdSolve, 8);
        let mut d = Generator::new(Workload::ColdSolve, 7);
        assert_ne!(c.next_ask().line, d.next_ask().line);
    }

    #[test]
    fn lines_parse_to_the_generated_request() {
        let mut gen = Generator::new(Workload::ColdSolve, 3);
        for _ in 0..100 {
            let ask = gen.next_ask();
            let parsed = wire::parse_request(&ask.line).expect("parses");
            assert_eq!(parsed.cache_key(), ask.spec.request.cache_key());
        }
    }

    #[test]
    fn hot_reask_hits_and_evicts_at_the_daemon_capacity() {
        let mut gen = Generator::new(Workload::HotReask, 11);
        let cache = QueryCache::with_capacity(HOT_CACHE_CAPACITY);
        let mut lines = HashSet::new();
        for _ in 0..4000 {
            let ask = gen.next_ask();
            lines.insert(ask.line.clone());
            let key = key(&ask.line);
            if cache.get(&key).is_none() {
                let result = CachedResult {
                    outcome: Ok(Outcome::Keys {
                        keys: Vec::new(),
                        duality_calls: 0,
                    }),
                    info: ExecInfo::default(),
                };
                cache.insert(key, result);
            }
        }
        let stats = cache.stats();
        let ratio = stats.hits as f64 / (stats.hits + stats.misses) as f64;
        // The recorded design point: about two thirds of lookups hit.
        assert!((0.55..0.85).contains(&ratio), "hit ratio {ratio}");
        assert!(stats.evictions > 0);
        // Re-asks are textually fresh: far more distinct lines than keys.
        assert!(lines.len() > 3 * HOT_POOL);
    }

    #[test]
    fn cold_solve_repeats_no_key_and_spans_both_thresholds() {
        let mut gen = Generator::new(Workload::ColdSolve, 5);
        let policy = SizeThresholdPolicy::default();
        let mut keys = HashSet::new();
        let (mut small, mut large_volume, mut below_split, mut above_split) = (0, 0, 0, 0);
        let (mut dual, mut non_dual) = (0, 0);
        for _ in 0..600 {
            let ask = gen.next_ask();
            assert!(keys.insert(key(&ask.line)), "repeated key at {}", ask.seq);
            if let Request::DecideDuality { g, h } = &ask.spec.request {
                if g.volume() + h.volume() <= policy.volume_threshold {
                    small += 1;
                } else {
                    large_volume += 1;
                }
                let work = ask.spec.request.local_work().expect("check has work");
                if work >= qld_engine::DEFAULT_PARALLEL_THRESHOLD {
                    above_split += 1;
                    if ask.spec.dual == Some(false) {
                        non_dual += 1;
                    } else {
                        dual += 1;
                    }
                } else {
                    below_split += 1;
                }
                let _ = policy.choose(g, h);
            }
        }
        assert!(small > 0 && large_volume > 0, "{small} / {large_volume}");
        assert!(
            below_split > 0 && above_split > 0,
            "{below_split} / {above_split}"
        );
        // Above-threshold non-dual instances stay in the mix.
        assert!(dual > 0 && non_dual > 0, "{dual} / {non_dual}");
    }

    #[test]
    fn stampede_copies_carry_identical_keys_and_stampedes_differ() {
        let mut gen = Generator::bursts(9);
        let mut stampedes = HashSet::new();
        let mut streamed = 0;
        for _ in 0..100 {
            let burst: Vec<Ask> = (0..BURST).map(|_| gen.next_ask()).collect();
            let first = key(&burst[0].line);
            for ask in &burst {
                assert_eq!(key(&ask.line), first);
            }
            // Copies are edge-permuted, not textually identical.
            assert!(burst.iter().any(|a| a.line != burst[0].line) || burst[0].line.len() < 40);
            assert!(stampedes.insert(first));
            streamed += usize::from(burst[0].spec.stream);
        }
        assert!(streamed > 0);
    }
}
