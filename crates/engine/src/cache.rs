//! The engine's result cache: bounded LRU with optional TTL expiry, and the
//! one record of whether a key is finished, in flight or absent.
//!
//! Keys are the canonical request encodings of [`crate::request::Request::cache_key`],
//! so syntactically different but semantically identical requests share one
//! entry: permuted or absorbed (non-minimal) edges for `check`/`enumerate`,
//! permuted edges and reordered relation rows for `mine`/`keys`.
//! The cache stores finished outcomes, not parsed inputs: repeated requests
//! skip the solver entirely.
//!
//! Eviction is **least-recently-used**: every hit refreshes an entry's
//! recency, and inserting a new key into a full cache removes the entry that
//! has gone longest without being touched (a generation-clock design — a
//! monotone tick per touch, with a `BTreeMap` recency index from tick to key
//! digest, so both the hit path and the eviction path are `O(log n)`).
//!
//! **Stored keys are packed.**  A canonical key spells its whole instance and
//! runs to kilobytes, so each entry keeps its key packed (`keypack`, about
//! 2.7x smaller) under a 64-bit digest of the plain key.  A lookup
//! compares the plain key against the one packed key filed under its
//! digest; a different key with the same digest (a digest collision) is a
//! miss, and storing it replaces the old entry.  An optional
//! TTL additionally expires entries a fixed duration after they were stored;
//! expired entries answer as misses and are removed on access.  All four
//! outcomes — hit, miss, eviction, expiration — are counted and exposed via
//! [`CacheStats`] (also available on the wire through the `stats` request,
//! see `docs/WIRE.md`).
//!
//! **Pending flights.**  Executions still running are kept in a second map
//! under the same mutex (see `engine/src/flight.rs`).  A key is hashed once,
//! at submission, into a `CacheKey` that carries its digest; both maps
//! file under that digest and confirm the key itself.  Submission asks one
//! question per job — `admit`: a finished entry (answered on the spot), a
//! running flight to join, or neither (queue the job).  The worker asks
//! `lookup`, which answers the same first two and otherwise leads a new
//! flight, catching entries and flights that appeared while the job waited.
//! A flight settles by leaving the pending map and, if it ran to its natural
//! end, entering the LRU map in the same critical section.  Pending keys are
//! invisible to [`QueryCache::get`], [`QueryCache::stats`], eviction and
//! snapshots, and a capacity-0 cache still coalesces.
//!
//! Every cacheable query is counted once: as a hit, or as a miss when it
//! joins or leads a flight.  A job queued at submission is counted by the
//! worker's `lookup`.

use crate::flight::{Consumer, Flight, FlightLease};
use crate::keypack;
use crate::lock_ignoring_poison;
use crate::ops::ExecInfo;
use crate::response::{EngineError, Outcome};
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A finished result as stored in the cache.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// The outcome (or rendered error) of the first execution.
    pub outcome: Result<Outcome, EngineError>,
    /// Telemetry of the first execution (solver name, peak bits, call count).
    pub info: ExecInfo,
}

/// Counters of a [`QueryCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Number of lookups answered from the cache.
    pub hits: u64,
    /// Number of lookups that missed (including expired entries).
    pub misses: u64,
    /// Number of entries currently stored.
    pub entries: u64,
    /// Number of live entries evicted to make room for new keys (LRU).
    pub evictions: u64,
    /// Number of entries removed because they outlived the TTL.
    pub expirations: u64,
    /// The maximum number of entries the cache will hold.
    pub capacity: u64,
}

/// Default bound on stored entries (see [`QueryCache::with_capacity`]).
pub const DEFAULT_CACHE_CAPACITY: usize = 65_536;

/// One stored entry: its packed key, the result, its recency tick and its
/// insertion time.  The result is `Arc`-shared with every hit (and with
/// snapshot exports), so replaying a hot streamed key never deep-copies the
/// stored chunk vectors.
#[derive(Debug)]
struct Entry {
    /// The canonical key, packed by [`keypack::pack`].
    key: Box<[u8]>,
    result: Arc<CachedResult>,
    /// Generation-clock value of the last touch; index into `recency`.
    tick: u64,
    /// When the entry was stored (TTL is measured from here; hits do not
    /// refresh it).
    stored_at: Instant,
}

/// The mutexed interior: the entries by key digest plus the recency index.
#[derive(Debug, Default)]
struct Inner {
    map: HashMap<u64, Entry>,
    /// Recency index: tick → key digest, ascending ticks are least recently
    /// used.
    recency: BTreeMap<u64, u64>,
    /// The generation clock; strictly increases on every touch.
    tick: u64,
    /// Executions in flight, by key digest, each with its plain key.  A
    /// natural end moves its key from here into `map`.
    flights: HashMap<u64, (Arc<str>, Arc<Flight>)>,
}

/// A canonical key with its digest, computed once at submission
/// ([`QueryCache::key`]) and carried with the job, so no lookup hashes the
/// key again under the cache mutex.
#[derive(Debug, Clone)]
pub(crate) struct CacheKey {
    pub(crate) digest: u64,
    pub(crate) text: Arc<str>,
}

/// A shared, thread-safe LRU map from canonical request keys to finished
/// results.
///
/// The cache is bounded: storing a new key into a full cache evicts the
/// least-recently-used entry (every [`QueryCache::get`] hit counts as a use).
/// With a TTL configured, entries older than the TTL answer as misses and are
/// dropped.  This keeps memory bounded on long-running daemon sessions while
/// letting hot keys survive arbitrary amounts of mostly-unique traffic.
#[derive(Debug)]
pub struct QueryCache {
    inner: Mutex<Inner>,
    /// The lane seeds of [`QueryCache::digest`], drawn at random per cache.
    seeds: [u64; 4],
    capacity: usize,
    ttl: Option<Duration>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    expirations: AtomicU64,
    /// Whether misses register joinable flights (`EngineConfig::coalesce`).
    coalesce: bool,
    /// Flights led (registered for joins) since construction.
    led: AtomicU64,
    /// Followers attached to a running flight since construction.
    coalesced: AtomicU64,
}

/// What [`QueryCache::admit`] found for a job at submission.
pub(crate) enum Admission {
    /// A finished result: answer the job now, off the pool.
    Hit(Arc<CachedResult>),
    /// The job's consumer attached to the key's running flight.
    Joined,
    /// Nothing finished or joinable: queue the job (the worker leads).
    Queue,
}

/// What [`QueryCache::lookup`] found for a worker's key.
pub(crate) enum Lookup {
    /// A finished result, and the consumer to replay it through.
    Hit(Arc<CachedResult>, Consumer),
    /// Nothing finished or joinable: the caller executes through this
    /// lease, which installs a natural end when it settles.
    Lead(FlightLease),
    /// The consumer attached to the key's running flight, which delivers
    /// its terminal.
    Joined,
}

impl Default for QueryCache {
    fn default() -> Self {
        QueryCache::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl QueryCache {
    /// An empty cache with the default entry bound and no TTL.
    pub fn new() -> Self {
        QueryCache::default()
    }

    /// An empty cache holding at most `capacity` entries, no TTL.
    pub fn with_capacity(capacity: usize) -> Self {
        QueryCache::with_limits(capacity, None)
    }

    /// An empty cache holding at most `capacity` entries whose entries expire
    /// `ttl` after insertion (when `ttl` is `Some`).
    pub fn with_limits(capacity: usize, ttl: Option<Duration>) -> Self {
        QueryCache {
            inner: Mutex::new(Inner::default()),
            seeds: {
                let random = RandomState::new();
                [0u8, 1, 2, 3].map(|lane| random.hash_one(lane))
            },
            capacity,
            ttl,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            expirations: AtomicU64::new(0),
            coalesce: true,
            led: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// Turns flight registration on or off (on by default).  Off, every
    /// miss leads a private flight nobody can join.
    pub(crate) fn coalescing(mut self, on: bool) -> Self {
        self.coalesce = on;
        self
    }

    /// Whether misses register joinable flights.
    pub(crate) fn coalesces(&self) -> bool {
        self.coalesce
    }

    /// Single-flight counters: `(flights_led, coalesced)`.
    pub(crate) fn coalesce_stats(&self) -> (u64, u64) {
        (
            self.led.load(Ordering::Relaxed),
            self.coalesced.load(Ordering::Relaxed),
        )
    }

    /// Whether `entry` has outlived the configured TTL.
    fn expired(&self, entry: &Entry) -> bool {
        self.ttl.is_some_and(|ttl| entry.stored_at.elapsed() >= ttl)
    }

    /// The 64-bit digest entries, flights and a session's parked duplicates
    /// are filed under.  Keys run to kilobytes and every request hashes one,
    /// so this is four seeded multiply-rotate lanes over 8-byte words rather
    /// than SipHash (a quarter of the time on a 2-vCPU x86-64 VM: 0.2 µs
    /// against 0.8 µs for a 1.7 KB key).  A collision, aimed or not, costs
    /// at most a miss, the eviction of the other key or a wait behind an
    /// unrelated request, never a wrong answer: every lookup confirms the
    /// key itself.  (Flooding distinct keys evicts just as well.)
    fn digest(&self, key: &str) -> u64 {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let mut lanes = self.seeds;
        lanes[0] ^= key.len() as u64;
        let mut mix = |block: &[u8]| {
            for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                let word = u64::from_le_bytes(word.try_into().expect("8-byte word"));
                *lane = (lane.rotate_left(5) ^ word).wrapping_mul(K);
            }
        };
        let mut blocks = key.as_bytes().chunks_exact(32);
        blocks.by_ref().for_each(&mut mix);
        let mut tail = [0u8; 32];
        tail[..blocks.remainder().len()].copy_from_slice(blocks.remainder());
        mix(&tail);
        lanes.iter().fold(0, |hash, &lane| {
            (hash.rotate_left(5) ^ lane).wrapping_mul(K)
        })
    }

    /// A canonical key hashed for filing: the one place a key is hashed on
    /// the request path.
    pub(crate) fn key(&self, text: String) -> CacheKey {
        CacheKey {
            digest: self.digest(&text),
            text: text.into(),
        }
    }

    /// Looks up a canonical key, counting the hit or miss.  A hit refreshes
    /// the entry's recency; an expired entry is removed and counts as a miss.
    /// The returned handle shares the stored result (no deep copy per hit).
    pub fn get(&self, key: &str) -> Option<Arc<CachedResult>> {
        let digest = self.digest(key);
        let hit = self.hit_locked(&mut lock_ignoring_poison(&self.inner), digest, key);
        if hit.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// The live entry for `key` (filed under `digest`), counted as a hit and
    /// touched.  An expired entry is removed and counted as an expiration;
    /// the caller counts the miss, if any.
    fn hit_locked(&self, inner: &mut Inner, digest: u64, key: &str) -> Option<Arc<CachedResult>> {
        let Inner {
            map, recency, tick, ..
        } = inner;
        let entry = map
            .get_mut(&digest)
            .filter(|entry| keypack::equals(&entry.key, key.as_bytes()))?;
        if self.expired(entry) {
            recency.remove(&entry.tick);
            map.remove(&digest);
            self.expirations.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        // Touch: move the entry to the most-recent end of the recency index.
        *tick += 1;
        recency.remove(&entry.tick);
        recency.insert(*tick, digest);
        entry.tick = *tick;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(&entry.result))
    }

    /// The running flight registered for `key`, if any.
    fn pending<'a>(inner: &'a Inner, key: &CacheKey) -> Option<&'a Arc<Flight>> {
        inner
            .flights
            .get(&key.digest)
            .filter(|(text, _)| *text == key.text)
            .map(|(_, flight)| flight)
    }

    /// Submission's one question about a key, in the critical section every
    /// cached job takes anyway: a finished entry (counted as a hit), else
    /// the key's running flight to join (a miss; `consumer` is only built
    /// here), else nothing — the job is queued and its worker counts it.
    pub(crate) fn admit(&self, key: &CacheKey, consumer: impl FnOnce() -> Consumer) -> Admission {
        let mut inner = lock_ignoring_poison(&self.inner);
        if let Some(hit) = self.hit_locked(&mut inner, key.digest, &key.text) {
            return Admission::Hit(hit);
        }
        if Self::pending(&inner, key).is_some_and(|flight| flight.attach(consumer()).is_ok()) {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            return Admission::Joined;
        }
        Admission::Queue
    }

    /// The worker's one question about a key: a finished result (counted as
    /// a hit), else the key's running flight to join, else a new flight for
    /// `consumer` to lead (both counted as misses).  With coalescing off the
    /// new flight is private and a natural end is still installed.
    pub(crate) fn lookup(self: &Arc<Self>, key: &CacheKey, consumer: Consumer) -> Lookup {
        let mut inner = lock_ignoring_poison(&self.inner);
        if let Some(hit) = self.hit_locked(&mut inner, key.digest, &key.text) {
            return Lookup::Hit(hit, consumer);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let consumer = match Self::pending(&inner, key) {
            Some(flight) => match flight.attach(consumer) {
                Ok(()) => {
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    return Lookup::Joined;
                }
                Err(consumer) => consumer,
            },
            None => consumer,
        };
        let flight = Flight::new(consumer, self.coalesce);
        if self.coalesce {
            // A flight that stopped early may still be registered while its
            // leader settles; it is replaced, and its lease removes by
            // identity.
            let pending = (Arc::clone(&key.text), Arc::clone(&flight));
            inner.flights.insert(key.digest, pending);
            self.led.fetch_add(1, Ordering::Relaxed);
        }
        Lookup::Lead(FlightLease::new(
            Some((Arc::clone(self), key.clone())),
            flight,
        ))
    }

    /// Retires `flight` from the pending map (if it is still the key's) and
    /// installs `result` — one critical section, so a lookup finds either
    /// the flight or the finished entry, never neither.
    pub(crate) fn settle(
        &self,
        key: &CacheKey,
        flight: &Arc<Flight>,
        result: Option<CachedResult>,
    ) {
        let filed = result.map(|result| (keypack::pack(key.text.as_bytes()), Arc::new(result)));
        let mut inner = lock_ignoring_poison(&self.inner);
        if inner
            .flights
            .get(&key.digest)
            .is_some_and(|(_, pending)| Arc::ptr_eq(pending, flight))
        {
            inner.flights.remove(&key.digest);
        }
        if let Some((packed, result)) = filed {
            self.insert_locked(&mut inner, (key.digest, packed), result, Instant::now());
        }
    }

    /// Stores a finished result under its canonical key, evicting the
    /// least-recently-used entry if the cache is full.  Re-inserting an
    /// existing key refreshes both its value and its recency.
    pub fn insert(&self, key: String, result: CachedResult) {
        self.insert_stored_at(&key, Arc::new(result), Instant::now());
    }

    /// [`QueryCache::insert`] with an explicit storage instant, so snapshot
    /// restoration can backdate entries and keep their TTL clocks running.
    fn insert_stored_at(&self, key: &str, result: Arc<CachedResult>, stored_at: Instant) {
        let filed = self.file(key);
        self.insert_locked(
            &mut lock_ignoring_poison(&self.inner),
            filed,
            result,
            stored_at,
        );
    }

    /// A key as the map files it: the digest of the plain key and the packed
    /// key.  Computed before taking the lock, since packing a kilobyte key
    /// takes microseconds.
    fn file(&self, key: &str) -> (u64, Box<[u8]>) {
        (self.digest(key), keypack::pack(key.as_bytes()))
    }

    /// [`QueryCache::insert`] under the caller's lock.
    fn insert_locked(
        &self,
        inner: &mut Inner,
        (digest, key): (u64, Box<[u8]>),
        result: Arc<CachedResult>,
        stored_at: Instant,
    ) {
        if self.capacity == 0 {
            return;
        }
        let Inner {
            map, recency, tick, ..
        } = inner;
        *tick += 1;
        if let Some(existing) = map.get_mut(&digest) {
            // The same key is refreshed; a different key with the same digest
            // takes the slot, which evicts the old entry.
            if existing.key != key {
                existing.key = key;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            recency.remove(&existing.tick);
            recency.insert(*tick, digest);
            existing.result = result;
            existing.tick = *tick;
            existing.stored_at = stored_at;
            return;
        }
        if map.len() >= self.capacity {
            // Evict the least-recently-used entry (the smallest tick).  If it
            // happens to be past its TTL this is an expiration, not a "real"
            // eviction of live data.
            if let Some((_, lru_digest)) = recency.pop_first() {
                match map.remove(&lru_digest) {
                    Some(v) if self.expired(&v) => self.expirations.fetch_add(1, Ordering::Relaxed),
                    _ => self.evictions.fetch_add(1, Ordering::Relaxed),
                };
            }
        }
        recency.insert(*tick, digest);
        map.insert(
            digest,
            Entry {
                key,
                result,
                tick: *tick,
                stored_at,
            },
        );
    }

    /// Current counters.  With a TTL configured, entries that have outlived it
    /// are swept first (counted as expirations), so `entries` reports live
    /// entries only — an idle daemon must not over-report its cache size just
    /// because nothing has touched the dead keys yet.
    pub fn stats(&self) -> CacheStats {
        let entries = {
            let mut inner = lock_ignoring_poison(&self.inner);
            if self.ttl.is_some() {
                let expired: Vec<u64> = inner
                    .map
                    .iter()
                    .filter(|(_, entry)| self.expired(entry))
                    .map(|(&digest, _)| digest)
                    .collect();
                for digest in expired {
                    if let Some(entry) = inner.map.remove(&digest) {
                        inner.recency.remove(&entry.tick);
                        self.expirations.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            inner.map.len() as u64
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            evictions: self.evictions.load(Ordering::Relaxed),
            expirations: self.expirations.load(Ordering::Relaxed),
            capacity: self.capacity as u64,
        }
    }

    /// The configured TTL, if any.
    pub fn ttl(&self) -> Option<Duration> {
        self.ttl
    }

    /// All live entries in least-recently-used → most-recently-used order,
    /// with their ages (time since storage).  Feeding these back through
    /// [`QueryCache::import_entry`] in order reproduces both the contents and
    /// the recency order of the cache — the basis of the snapshot format in
    /// [`crate::snapshot`].
    pub fn export_entries(&self) -> Vec<SnapshotEntry> {
        let inner = lock_ignoring_poison(&self.inner);
        inner
            .recency
            .values()
            .filter_map(|digest| {
                let entry = inner.map.get(digest)?;
                if self.expired(entry) {
                    return None;
                }
                Some(SnapshotEntry {
                    key: String::from_utf8(keypack::unpack(&entry.key))
                        .expect("keys are stored from `str`s"),
                    age: entry.stored_at.elapsed(),
                    result: Arc::clone(&entry.result),
                })
            })
            .collect()
    }

    /// Inserts a restored entry as if it had been stored `age` ago, so a
    /// configured TTL keeps counting down across the snapshot round trip.
    /// Entries already past the TTL (or whose age predates what [`Instant`]
    /// can represent) are dropped; returns whether the entry was admitted.
    pub fn import_entry(&self, entry: SnapshotEntry) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let stored_at = match self.ttl {
            // Without a TTL the age never matters again — don't let a large
            // age (long downtime) underflow the monotonic clock and lose the
            // entry.
            None => Instant::now(),
            Some(ttl) => {
                if entry.age >= ttl {
                    return false;
                }
                match Instant::now().checked_sub(entry.age) {
                    Some(stored_at) => stored_at,
                    None => return false,
                }
            }
        };
        self.insert_stored_at(&entry.key, entry.result, stored_at);
        true
    }
}

/// One exported cache entry: the canonical key, the result, and how long ago
/// it was stored (see [`QueryCache::export_entries`]).
#[derive(Debug, Clone)]
pub struct SnapshotEntry {
    /// The canonical request key.
    pub key: String,
    /// Time since the entry was stored (TTL clocks resume from here).
    pub age: Duration,
    /// The stored result (shared with the live cache entry on export).
    pub result: Arc<CachedResult>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Payload, PoolJob, ReplySender};
    use crate::response::{ErrorCode, Outcome, RequestStats};
    use crate::stream::{CancelToken, StopReason, StreamEvent};
    use std::sync::mpsc::{channel, Sender};

    fn entry() -> CachedResult {
        CachedResult {
            outcome: Ok(Outcome::Duality {
                dual: true,
                witness: None,
            }),
            info: ExecInfo::default(),
        }
    }

    #[test]
    fn hit_miss_accounting() {
        let cache = QueryCache::new();
        assert!(cache.get("k").is_none());
        cache.insert("k".into(), entry());
        assert!(cache.get("k").is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!((stats.evictions, stats.expirations), (0, 0));
    }

    #[test]
    fn full_cache_evicts_least_recently_used() {
        let cache = QueryCache::with_capacity(2);
        cache.insert("a".into(), entry());
        cache.insert("b".into(), entry());
        // Touch `a`, making `b` the LRU entry, then overflow.
        assert!(cache.get("a").is_some());
        cache.insert("c".into(), entry());
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get("a").is_some(), "recently used entry must survive");
        assert!(cache.get("c").is_some(), "new entry must be admitted");
        assert!(cache.get("b").is_none(), "LRU entry must have been evicted");
    }

    #[test]
    fn reinsert_refreshes_recency_without_growing() {
        let cache = QueryCache::with_capacity(2);
        cache.insert("a".into(), entry());
        cache.insert("b".into(), entry());
        cache.insert("a".into(), entry()); // refresh, not a new key
        assert_eq!(cache.stats().entries, 2);
        cache.insert("c".into(), entry()); // evicts `b`, the LRU
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_none());
        assert!(cache.get("c").is_some());
    }

    #[test]
    fn capacity_one_keeps_only_the_newest_key() {
        let cache = QueryCache::with_capacity(1);
        cache.insert("a".into(), entry());
        cache.insert("b".into(), entry());
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get("b").is_some());
        assert!(cache.get("a").is_none());
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let cache = QueryCache::with_capacity(0);
        cache.insert("a".into(), entry());
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.get("a").is_none());
    }

    #[test]
    fn ttl_expires_entries() {
        let cache = QueryCache::with_limits(8, Some(Duration::from_millis(20)));
        cache.insert("k".into(), entry());
        assert!(cache.get("k").is_some(), "fresh entry answers");
        std::thread::sleep(Duration::from_millis(30));
        assert!(cache.get("k").is_none(), "expired entry is a miss");
        let stats = cache.stats();
        assert_eq!(stats.expirations, 1);
        assert_eq!(stats.entries, 0);
        // Hits do not refresh the TTL: reinsert, touch, wait, gone.
        cache.insert("k".into(), entry());
        assert!(cache.get("k").is_some());
        std::thread::sleep(Duration::from_millis(30));
        assert!(cache.get("k").is_none());
    }

    #[test]
    fn stats_sweeps_expired_entries_instead_of_counting_them() {
        let cache = QueryCache::with_limits(8, Some(Duration::from_millis(20)));
        cache.insert("a".into(), entry());
        cache.insert("b".into(), entry());
        assert_eq!(cache.stats().entries, 2, "fresh entries count");
        std::thread::sleep(Duration::from_millis(30));
        // Nothing has touched the dead keys, yet `entries` must not report
        // them as live; the sweep books them as expirations.
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.expirations, 2);
        assert_eq!(stats.misses, 0, "sweeping is not a lookup");
        // The swept keys really are gone (this get is the first miss).
        assert!(cache.get("a").is_none());
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().expirations, 2, "no double counting");
    }

    #[test]
    fn export_import_round_trips_contents_and_recency() {
        let cache = QueryCache::with_capacity(3);
        cache.insert("a".into(), entry());
        cache.insert("b".into(), entry());
        cache.insert("c".into(), entry());
        assert!(cache.get("a").is_some()); // recency order now: b, c, a
        let exported = cache.export_entries();
        assert_eq!(
            exported.iter().map(|e| e.key.as_str()).collect::<Vec<_>>(),
            vec!["b", "c", "a"],
            "export is LRU → MRU"
        );

        let restored = QueryCache::with_capacity(3);
        for e in exported {
            assert!(restored.import_entry(e));
        }
        assert_eq!(restored.stats().entries, 3);
        // Importing in order reproduced the recency: inserting a fourth key
        // must evict `b`, the LRU of the original cache.
        restored.insert("d".into(), entry());
        assert!(restored.get("b").is_none());
        assert!(restored.get("a").is_some());
        assert!(restored.get("c").is_some());
        assert!(restored.get("d").is_some());
    }

    #[test]
    fn import_respects_ttl_ages() {
        let ttl = Duration::from_millis(50);
        let fresh = SnapshotEntry {
            key: "fresh".into(),
            age: Duration::from_millis(0),
            result: Arc::new(entry()),
        };
        let stale = SnapshotEntry {
            key: "stale".into(),
            age: Duration::from_millis(60),
            result: Arc::new(entry()),
        };
        let cache = QueryCache::with_limits(8, Some(ttl));
        assert!(cache.import_entry(fresh.clone()));
        assert!(
            !cache.import_entry(stale),
            "entries past the TTL are dropped"
        );
        assert_eq!(cache.stats().entries, 1);
        // An un-TTL'd cache admits any age.
        let no_ttl = QueryCache::with_capacity(8);
        assert!(no_ttl.import_entry(SnapshotEntry {
            key: "old".into(),
            age: Duration::from_millis(60),
            result: Arc::new(entry()),
        }));
        // The restored age keeps counting: an entry imported at half its TTL
        // expires half a TTL later.
        let half = SnapshotEntry {
            key: "half".into(),
            age: Duration::from_millis(30),
            result: Arc::new(entry()),
        };
        assert!(cache.import_entry(half));
        assert!(cache.get("half").is_some());
        std::thread::sleep(Duration::from_millis(30));
        assert!(cache.get("half").is_none(), "TTL survived the round trip");
        assert!(cache.get("fresh").is_some(), "importing preserves each age");
    }

    /// A one-shot consumer whose terminal arrives on `tx`.
    fn consumer(tx: &Sender<StreamEvent>) -> Consumer {
        let job = PoolJob {
            seq: 0,
            client_id: None,
            payload: Payload::Stats,
            stream: false,
            cancel: CancelToken::new(),
            max_items: None,
            reply: ReplySender::channel(tx.clone()),
            key: None,
        };
        Consumer::new(&job, "check")
    }

    /// Looks `key` up, expecting to lead its flight.
    fn lead(cache: &Arc<QueryCache>, key: &str, tx: &Sender<StreamEvent>) -> FlightLease {
        match cache.lookup(&cache.key(key.into()), consumer(tx)) {
            Lookup::Lead(lease) => lease,
            Lookup::Hit(..) => panic!("{key}: expected to lead, got a hit"),
            Lookup::Joined => panic!("{key}: expected to lead, joined"),
        }
    }

    fn joins(cache: &Arc<QueryCache>, key: &str, tx: &Sender<StreamEvent>) -> bool {
        matches!(
            cache.lookup(&cache.key(key.into()), consumer(tx)),
            Lookup::Joined
        )
    }

    fn settle(lease: FlightLease, halted: Option<StopReason>) {
        let stats = RequestStats::default();
        lease.finish(entry().outcome, halted, ExecInfo::default(), stats);
    }

    #[test]
    fn pending_key_is_invisible_to_get_stats_and_export() {
        let (tx, _rx) = channel();
        let cache = Arc::new(QueryCache::with_capacity(8));
        let lease = lead(&cache, "k", &tx);
        assert!(cache.get("k").is_none());
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.export_entries().is_empty());
        drop(lease);
    }

    #[test]
    fn capacity_one_never_evicts_a_pending_key() {
        let (tx, _rx) = channel();
        let cache = Arc::new(QueryCache::with_capacity(1));
        let lease = lead(&cache, "p", &tx);
        cache.insert("a".into(), entry());
        cache.insert("b".into(), entry());
        assert_eq!(cache.stats().evictions, 1, "only `a` was displaced");
        assert!(joins(&cache, "p", &tx), "the pending key survived");
        settle(lease, None);
        assert!(cache.get("p").is_some());
    }

    #[test]
    fn capacity_zero_still_coalesces() {
        let (tx, rx) = channel();
        let cache = Arc::new(QueryCache::with_capacity(0));
        let lease = lead(&cache, "k", &tx);
        assert!(joins(&cache, "k", &tx));
        assert_eq!(cache.coalesce_stats(), (1, 1));
        settle(lease, None);
        let Ok(StreamEvent::Done(follower)) = rx.try_recv() else {
            panic!("the follower was not answered");
        };
        assert_eq!(follower.outcome, entry().outcome);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn settled_natural_end_makes_the_next_lookup_a_hit() {
        let (tx, _rx) = channel();
        let cache = Arc::new(QueryCache::with_capacity(8));
        settle(lead(&cache, "k", &tx), None);
        let key = cache.key("k".into());
        assert!(matches!(cache.lookup(&key, consumer(&tx)), Lookup::Hit(..)));
        assert_eq!(cache.coalesce_stats(), (1, 0));
    }

    #[test]
    fn halted_settle_leaves_no_entry_and_the_next_lookup_leads() {
        let (tx, _rx) = channel();
        let cache = Arc::new(QueryCache::with_capacity(8));
        settle(lead(&cache, "k", &tx), Some(StopReason::Cancelled));
        assert_eq!(cache.stats().entries, 0);
        drop(lead(&cache, "k", &tx));
        assert_eq!(cache.coalesce_stats(), (2, 0));
    }

    #[test]
    fn dropped_lease_fails_followers_and_frees_the_key() {
        let (tx, rx) = channel();
        let cache = Arc::new(QueryCache::with_capacity(8));
        let lease = lead(&cache, "k", &tx);
        assert!(joins(&cache, "k", &tx));
        drop(lease);
        let Ok(StreamEvent::Done(follower)) = rx.try_recv() else {
            panic!("the follower was not answered");
        };
        assert_eq!(
            follower.outcome.map_err(|e| e.code),
            Err(ErrorCode::Internal)
        );
        assert_eq!(cache.stats().entries, 0);
        drop(lead(&cache, "k", &tx));
    }

    #[test]
    fn zero_capacity_rejects_imports() {
        let cache = QueryCache::with_capacity(0);
        assert!(!cache.import_entry(SnapshotEntry {
            key: "k".into(),
            age: Duration::ZERO,
            result: Arc::new(entry()),
        }));
        assert_eq!(cache.stats().entries, 0);
    }
}
