//! The concurrent query engine: a **persistent** sharded worker pool over the
//! solvers.
//!
//! The pool is spawned once, when the [`Engine`] is constructed, and every
//! session — a [`Engine::run_batch`] call, a [`Engine::serve`] loop, or any
//! number of concurrent socket connections (see [`crate::transport`]) —
//! multiplexes its requests onto the same workers through one shared
//! **bounded** job queue (submission blocks when all workers are busy and the
//! queue is full: backpressure, not unbounded buffering).  Each job carries a
//! reply channel back to the session that submitted it, so sessions never see
//! each other's responses.
//!
//! Results are deterministic: the engine only parallelizes *across* requests,
//! and every request is answered exactly as a direct single-threaded solver
//! call would answer it.  Response *ordering* is a per-session choice
//! ([`OrderMode`]): `input` order reorders responses into request order
//! through a bounded buffer, `arrival` order streams each response the moment
//! it completes so one slow request never head-of-line-blocks the rest.

use crate::cache::{Admission, CacheKey, CacheStats, CachedResult, Lookup, QueryCache};
use crate::fairness::UserBuckets;
use crate::flight::{Consumer, FlightLease};
use crate::ops;
use crate::policy::{
    exec_route, ExecRoute, FixedPolicy, SizeThresholdPolicy, SolverKind, SolverPolicy,
};
use crate::request::Request;
use crate::response::{EngineError, Outcome, RequestStats, Response};
use crate::stream::{CancelToken, ChunkFrame, StopReason, StreamEvent};
use crate::subtask::{EnginePool, SubtaskQueue};
use crate::wire::{self, OrderMode};
use qld_core::ParallelContext;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Engine construction parameters.
#[derive(Clone)]
pub struct EngineConfig {
    /// Number of worker threads (shards) in the persistent pool.
    pub workers: usize,
    /// Capacity of the bounded submission queue, shared by all sessions;
    /// submission blocks beyond it.
    pub queue_capacity: usize,
    /// Whether to cache results keyed by canonical request encodings.
    pub cache: bool,
    /// Maximum number of entries the LRU result cache holds.
    pub cache_capacity: usize,
    /// Optional time-to-live for cache entries (measured from insertion).
    pub cache_ttl: Option<Duration>,
    /// Solver routing policy applied to every duality call (unless a request
    /// carries a `solver=` override).
    pub policy: Arc<dyn SolverPolicy>,
    /// Optional cache snapshot path (`qld serve --cache-file`).  When set and
    /// the file exists, [`Engine::new`] restores the cache from it (a corrupt
    /// or version-mismatched snapshot restores nothing — the engine starts
    /// cold); [`Engine::save_cache_snapshot`] writes it back.
    pub cache_file: Option<PathBuf>,
    /// Intra-query parallelism threshold (`qld serve --parallel-threshold`),
    /// in work units `|V| · (|G| + |H|)`.  A duality call at least this large
    /// splits into work-stealing subtasks on the shared pool; smaller calls
    /// stay sequential (the split has real coordination cost).  `0` splits
    /// everything, `usize::MAX` effectively disables splitting.
    pub parallel_threshold: usize,
    /// In-process ("local") execution threshold (`qld serve
    /// --local-threshold`), in the same work units.  A one-shot `check`
    /// request strictly below it is answered synchronously on the submitting
    /// session's thread through the embedded solver — no pool round-trip, no
    /// cache lookup (and no cache-key render), no cancellation window.  `0`
    /// (the default) disables local execution: every request takes the pool
    /// path exactly as before.  See [`crate::ExecRoute`].
    pub local_threshold: usize,
    /// Single-flight request coalescing (`qld serve --no-coalesce` clears
    /// it): identical queries arriving while the first is still executing
    /// attach to that execution as followers instead of running the solver
    /// again (see `engine/src/flight.rs`).  Requires the cache (flights live
    /// in it, keyed on the canonical cache key); with `cache: false` every
    /// request executes individually regardless of this flag.
    pub coalesce: bool,
}

/// Default [`EngineConfig::parallel_threshold`]: roughly a 64-vertex instance
/// with 512 total edges.  Below that, one solver call is cheaper than the
/// scatter/join round-trip through the subtask queue.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 32_768;

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: thread::available_parallelism()
                .map_or(4, usize::from)
                .min(8),
            queue_capacity: 256,
            cache: true,
            cache_capacity: crate::cache::DEFAULT_CACHE_CAPACITY,
            cache_ttl: None,
            policy: Arc::new(SizeThresholdPolicy::default()),
            cache_file: None,
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
            local_threshold: 0,
            coalesce: true,
        }
    }
}

impl std::fmt::Debug for EngineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineConfig")
            .field("workers", &self.workers)
            .field("queue_capacity", &self.queue_capacity)
            .field("cache", &self.cache)
            .field("cache_capacity", &self.cache_capacity)
            .field("cache_ttl", &self.cache_ttl)
            .field("policy", &self.policy.name())
            .field("cache_file", &self.cache_file)
            .field("parallel_threshold", &self.parallel_threshold)
            .field("local_threshold", &self.local_threshold)
            .field("coalesce", &self.coalesce)
            .finish()
    }
}

/// Options of one serve session (one stdin/stdout loop or one socket
/// connection).
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Default response ordering; individual requests may override it with
    /// the `order=` wire keyword.
    pub order: OrderMode,
    /// Per-session in-flight quota (`qld serve --max-inflight`): a request
    /// arriving while this many of the session's requests are still
    /// unanswered is rejected at admission with a `quota` error instead of
    /// being queued.  `None` means no limit (the shared bounded job queue
    /// still backpressures).
    pub max_inflight: Option<usize>,
    /// Per-request item quota (`qld serve --max-items`): any single request
    /// of the session stops after yielding this many result items
    /// (transversals, border advancements), answering with its partial
    /// result marked `halted:"max-items"`, `complete:false`.  `None` means
    /// no limit.
    pub max_items: Option<u64>,
    /// Per-user token-bucket admission (`qld serve --user-rate`/
    /// `--user-burst`), shared across every session of the server so one
    /// user's flood of connections cannot starve another user.  Consulted
    /// only for requests carrying the `auth=` wire keyword; anonymous
    /// requests are never throttled.  `None` disables user fairness.
    pub user_quota: Option<Arc<UserBuckets>>,
    /// Hard cap, in bytes, on a readiness-loop session's buffered unsent
    /// output before the connection is treated as dead (cancelled and
    /// dropped).  A consumer that refuses to read an entire cap's worth of
    /// responses is indistinguishable from one that is gone.  `None` uses
    /// the 8 MiB default; ignored by the thread-per-session fallback, whose
    /// blocking writes self-limit.
    pub write_cap: Option<usize>,
}

/// Summary of one serve session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// Requests answered (including per-request errors).
    pub requests: u64,
    /// Requests that produced an error response.
    pub errors: u64,
}

/// Options of one [`Engine::run_streaming`] call.
#[derive(Debug, Clone, Default)]
pub struct StreamRunOptions {
    /// Correlation token echoed on every frame.
    pub client_id: Option<String>,
    /// Force a concrete solver for the request's duality calls.
    pub solver: Option<SolverKind>,
    /// Stop the job after this many yielded items (`halted:"max-items"`).
    pub max_items: Option<u64>,
}

/// A live streaming job: an iterator of its frames plus the cancellation
/// switch (see [`Engine::run_streaming`]).
#[derive(Debug)]
pub struct StreamHandle {
    cancel: CancelToken,
    events: Receiver<StreamEvent>,
}

impl StreamHandle {
    /// The job's cancellation token (cloneable; hand it to a Ctrl-C handler).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Blocks for the next frame; `None` once the terminal response has been
    /// consumed.
    pub fn next_event(&self) -> Option<StreamEvent> {
        self.events.recv().ok()
    }

    /// Blocks for the next frame with a timeout (`None` on timeout or end of
    /// stream — distinguish via a subsequent [`StreamHandle::next_event`]).
    pub fn next_event_timeout(&self, timeout: Duration) -> Option<StreamEvent> {
        self.events.recv_timeout(timeout).ok()
    }
}

impl Iterator for &StreamHandle {
    type Item = StreamEvent;
    fn next(&mut self) -> Option<StreamEvent> {
        self.next_event()
    }
}

/// What a worker should do for one job.
pub(crate) enum Payload {
    /// Execute a typed query, optionally forcing a concrete solver.
    Query {
        request: Request,
        solver: Option<SolverKind>,
    },
    /// Snapshot the engine counters (the `stats` wire request).
    Stats,
    /// Report a parse failure for this sequence slot.
    Malformed(String),
}

/// One unit of work travelling through the shared pool.  Fields are
/// `pub(crate)` for [`crate::flight::Consumer`], which takes a job's
/// identity and reply path without re-deriving them.
pub(crate) struct PoolJob {
    /// Sequence number within the submitting session.
    pub(crate) seq: u64,
    /// Client correlation token to echo back.
    pub(crate) client_id: Option<String>,
    pub(crate) payload: Payload,
    /// Whether the client asked for chunk-by-chunk streaming (`stream=`).
    pub(crate) stream: bool,
    /// Cooperative cancellation flag, observed at yield boundaries (and
    /// before the job starts — a job whose session vanished while it sat in
    /// the queue is dropped, not executed).
    pub(crate) cancel: CancelToken,
    /// The submitting session's per-request item quota (`--max-items`).
    pub(crate) max_items: Option<u64>,
    /// Where the executing worker sends chunk frames and the terminal
    /// response.
    pub(crate) reply: ReplySender,
    /// The canonical cache key and its digest, rendered and hashed once at
    /// submission ([`PoolLink::cache_key`]); `None` for control payloads or
    /// with the cache off.
    pub(crate) key: Option<CacheKey>,
}

/// Where a job's frames go: a delivery function supplied by the submitting
/// session's driver.  A blocking driver forwards into its own channel; the
/// readiness loop also pokes its waker after each delivery.
#[derive(Clone)]
pub(crate) struct ReplySender(Arc<dyn Fn(StreamEvent) -> bool + Send + Sync>);

impl ReplySender {
    /// A reply path through `deliver`, which returns `false` once the
    /// session has hung up.
    pub(crate) fn new(deliver: impl Fn(StreamEvent) -> bool + Send + Sync + 'static) -> Self {
        ReplySender(Arc::new(deliver))
    }

    /// A reply path straight into a channel.
    pub(crate) fn channel(tx: Sender<StreamEvent>) -> Self {
        ReplySender::new(move |event| tx.send(event).is_ok())
    }

    /// Delivers one event; `false` means the session hung up.
    pub(crate) fn send(&self, event: StreamEvent) -> bool {
        (self.0)(event)
    }
}

/// Live load counters shared by sessions and workers, reported by the
/// `stats` wire request (`inflight`/`sessions` fields) — the load signal a
/// fleet router's least-loaded shard policy reads.
#[derive(Debug, Default)]
pub(crate) struct EngineCounters {
    /// Jobs admitted to the pool (queued or running) and not yet answered.
    inflight: AtomicU64,
    /// Serve sessions currently open (a [`SessionMux`] driven by
    /// [`Engine::serve_with`] or by the readiness loop).
    sessions: AtomicU64,
    /// Transport connections currently open (accept/close boundary).
    connections: AtomicU64,
    /// Requests rejected by the per-user token bucket since startup.
    throttled: AtomicU64,
}

impl EngineCounters {
    /// Settles one pool-admitted job on the in-flight gauge.  Workers call
    /// it before sending a terminal response, or when the job attaches to a
    /// running flight (a follower occupies no pool slot).
    pub(crate) fn job_finished(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// RAII increment of the `connections` stats gauge: transports take one per
/// accepted connection and drop it at close, so `stats` reports live
/// connection counts however the session is served.
pub(crate) struct ConnectionGuard {
    counters: Arc<EngineCounters>,
}

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        self.counters.connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Read-only state shared with every worker thread.
struct WorkerCtx {
    policy: Arc<dyn SolverPolicy>,
    /// The result cache and flight registry (also reported by `stats` when
    /// caching is off; jobs then carry no key and never consult it).
    cache: Arc<QueryCache>,
    workers: usize,
    /// When the engine was constructed (`stats` uptime reporting).
    started: Instant,
    /// Whether a cache snapshot was restored at construction.
    cache_restored: bool,
    /// Live load counters (`stats` reporting; shared with the engine).
    counters: Arc<EngineCounters>,
    /// The engine-wide subtask queue (intra-query work stealing).
    subtasks: Arc<SubtaskQueue>,
    /// Work-unit floor above which a duality call splits into subtasks.
    parallel_threshold: usize,
}

/// The submission side of the worker pool, shared by every session.
pub(crate) struct PoolLink {
    job_tx: SyncSender<PoolJob>,
    /// Poked after each accepted job so parked workers wake for fresh jobs,
    /// not just for subtasks.
    subtasks: Arc<SubtaskQueue>,
    counters: Arc<EngineCounters>,
    /// The result cache and flight registry; `None` with the cache off.
    cache: Option<Arc<QueryCache>>,
}

impl PoolLink {
    /// The canonical cache key of a query payload — the request's cache key
    /// plus the `solver=` override suffix (an override changes which
    /// solver's telemetry the caller sees, so it gets its own entry).  The
    /// one place a key is rendered and hashed; `None` for control payloads
    /// or with the cache off.
    fn cache_key(&self, payload: &Payload) -> Option<CacheKey> {
        let cache = self.cache.as_ref()?;
        let Payload::Query { request, solver } = payload else {
            return None;
        };
        let mut key = request.cache_key();
        if let Some(kind) = solver {
            key.push_str(" solver=");
            key.push_str(kind.name());
        }
        Some(cache.key(key))
    }

    /// Whether identical requests share executions (cache and coalescing
    /// on).
    fn coalesces(&self) -> bool {
        self.cache.as_ref().is_some_and(|cache| cache.coalesces())
    }

    /// Hands one job to the engine; every job enters here.  A job whose
    /// cache key has a finished entry is answered right here, on the
    /// submitting thread: no pool slot, no `inflight` count, `worker` 0.  A
    /// job whose key matches an execution already in flight attaches to it
    /// as a follower and takes no pool slot.  Any other job joins the shared
    /// queue: when `blocking`, the call waits while the queue is full;
    /// otherwise a full queue hands the job back (`Some`) for a later retry.
    fn submit(&self, job: PoolJob, blocking: bool) -> Option<PoolJob> {
        if let (Some(cache), Some(key), Payload::Query { request, .. }) =
            (&self.cache, &job.key, &job.payload)
        {
            let started = Instant::now();
            let consumer = || Consumer::new(&job, request.kind());
            match cache.admit(key, consumer) {
                Admission::Hit(hit) => {
                    let response = hit_response(consumer(), &hit, started, 0);
                    job.reply.send(StreamEvent::Done(response));
                    return None;
                }
                Admission::Joined => return None,
                Admission::Queue => {}
            }
        }
        // Count before sending: a fast worker may settle the job first.
        self.counters.inflight.fetch_add(1, Ordering::Relaxed);
        let refused = if blocking {
            self.job_tx
                .send(job)
                .err()
                .map(|e| mpsc::TrySendError::Disconnected(e.0))
        } else {
            self.job_tx.try_send(job).err()
        };
        let Some(refused) = refused else {
            self.subtasks.notify_workers();
            return None;
        };
        self.counters.inflight.fetch_sub(1, Ordering::Relaxed);
        match refused {
            mpsc::TrySendError::Full(job) => Some(job),
            mpsc::TrySendError::Disconnected(_) => panic!("worker pool alive"),
        }
    }
}

/// The concurrent query engine.  Dropping it shuts the worker pool down
/// (outstanding jobs finish first).
pub struct Engine {
    config: EngineConfig,
    cache: Arc<QueryCache>,
    /// Entries restored from the configured cache snapshot at construction.
    cache_restored: u64,
    /// Why the configured snapshot failed to restore, if it did.
    cache_restore_error: Option<String>,
    /// `Some` for the engine's lifetime; taken in `Drop` to hang up the queue.
    pool: Option<Arc<PoolLink>>,
    handles: Vec<JoinHandle<()>>,
}

impl Engine {
    /// Builds an engine from a configuration, spawning its worker pool.
    ///
    /// With [`EngineConfig::cache_file`] set to an existing snapshot, the
    /// cache is restored from it before the first request runs; a corrupt,
    /// truncated, or version-mismatched snapshot restores nothing (see
    /// [`Engine::cache_restored`]) and the engine starts cold.
    pub fn new(config: EngineConfig) -> Self {
        // Coalescing is decided here, once: flights live in the cache, and
        // with the cache off no key is ever rendered, so nothing can join.
        let cache = Arc::new(
            QueryCache::with_limits(config.cache_capacity, config.cache_ttl)
                .coalescing(config.coalesce),
        );
        let mut cache_restored = 0;
        let mut cache_restore_error = None;
        if config.cache {
            if let Some(path) = &config.cache_file {
                match std::fs::File::open(path) {
                    Ok(file) => {
                        match crate::snapshot::read_snapshot(&cache, BufReader::new(file)) {
                            Ok(stats) => cache_restored = stats.restored,
                            Err(e) => {
                                cache_restore_error = Some(format!("{}: {e}", path.display()))
                            }
                        }
                    }
                    // No snapshot yet is the normal first boot, not an error.
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => cache_restore_error = Some(format!("{}: {e}", path.display())),
                }
            }
        }
        let workers = config.workers.max(1);
        let (job_tx, job_rx) = mpsc::sync_channel::<PoolJob>(config.queue_capacity.max(1));
        let job_rx = Arc::new(Mutex::new(job_rx));
        let counters = Arc::new(EngineCounters::default());
        let subtasks = Arc::new(SubtaskQueue::new());
        let ctx = Arc::new(WorkerCtx {
            policy: Arc::clone(&config.policy),
            cache: Arc::clone(&cache),
            workers,
            started: Instant::now(),
            cache_restored: cache_restored > 0,
            counters: Arc::clone(&counters),
            subtasks: Arc::clone(&subtasks),
            parallel_threshold: config.parallel_threshold,
        });
        let handles = (0..workers)
            .map(|worker_index| {
                let job_rx = Arc::clone(&job_rx);
                let ctx = Arc::clone(&ctx);
                thread::spawn(move || worker_loop(&ctx, &job_rx, worker_index))
            })
            .collect();
        let pool = Arc::new(PoolLink {
            job_tx,
            subtasks,
            counters,
            cache: config.cache.then(|| Arc::clone(&cache)),
        });
        Engine {
            config,
            cache,
            cache_restored,
            cache_restore_error,
            pool: Some(pool),
            handles,
        }
    }

    /// An engine with default configuration.
    pub fn with_defaults() -> Self {
        Engine::new(EngineConfig::default())
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Counters of the shared result cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Intra-query subtask counters since startup: `(spawned, stolen)`.
    /// `spawned` counts every subtask pushed to the shared queue; `stolen`
    /// counts the ones executed by a worker other than the one that spawned
    /// them (the rest ran inline on the owning worker at its join point).
    pub fn subtask_stats(&self) -> (u64, u64) {
        let subtasks = &self.pool().subtasks;
        (subtasks.spawned(), subtasks.stolen())
    }

    /// Single-flight counters since startup: `(flights_led, coalesced)`.
    /// `flights_led` counts executions that registered a flight (every
    /// coalescible cache miss); `coalesced` counts the duplicate requests
    /// that attached to one instead of executing — solver runs avoided.
    pub fn coalesce_stats(&self) -> (u64, u64) {
        self.cache.coalesce_stats()
    }

    /// How many entries [`Engine::new`] restored from the configured cache
    /// snapshot (0 when none was configured, found, or readable).
    pub fn cache_restored(&self) -> u64 {
        self.cache_restored
    }

    /// Why the configured cache snapshot failed to restore, if it did — a
    /// corrupt, truncated, version-mismatched, or unreadable file (a missing
    /// file is a normal first boot, not a failure).  The engine starts cold
    /// in that case; callers surface this so a configured warm start never
    /// fails silently.
    pub fn cache_restore_error(&self) -> Option<&str> {
        self.cache_restore_error.as_deref()
    }

    /// Writes the cache to a snapshot file at `path` (see [`crate::snapshot`]
    /// for the format), returning the number of entries written.  The file is
    /// staged under a process-unique `.tmp.<pid>` suffix and renamed into
    /// place, so a crash mid-write never leaves a truncated snapshot where
    /// the next start would look for one, concurrent savers (two daemons
    /// misconfigured onto one path) cannot interleave writes into each
    /// other's staging file — each rename installs a complete snapshot,
    /// last writer wins — and a failed write cleans its staging file up.
    pub fn save_cache_snapshot(&self, path: impl AsRef<Path>) -> std::io::Result<u64> {
        let path = path.as_ref();
        let mut staging = path.as_os_str().to_os_string();
        staging.push(format!(".tmp.{}", std::process::id()));
        let staging = PathBuf::from(staging);
        let result = (|| {
            let mut file = std::io::BufWriter::new(std::fs::File::create(&staging)?);
            let written = crate::snapshot::write_snapshot(&self.cache, &mut file)?;
            file.into_inner().map_err(|e| e.into_error())?.sync_all()?;
            std::fs::rename(&staging, path)?;
            Ok(written)
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&staging);
        }
        result
    }

    /// Writes the cache snapshot to [`EngineConfig::cache_file`], if one is
    /// configured; returns the number of entries written (`None` when no
    /// snapshot path is configured or caching is disabled).
    pub fn save_configured_cache_snapshot(&self) -> std::io::Result<Option<u64>> {
        match &self.config.cache_file {
            Some(path) if self.config.cache => self.save_cache_snapshot(path).map(Some),
            _ => Ok(None),
        }
    }

    /// The pool's submission side (alive for the engine's lifetime).
    fn pool(&self) -> &Arc<PoolLink> {
        self.pool.as_ref().expect("pool alive until drop")
    }

    /// Marks one transport connection open for `stats` reporting; the
    /// returned guard closes it.
    pub(crate) fn track_connection(&self) -> ConnectionGuard {
        let counters = &self.pool().counters;
        counters.connections.fetch_add(1, Ordering::Relaxed);
        ConnectionGuard {
            counters: Arc::clone(counters),
        }
    }

    /// Builds the state machine of one serve session, counted on the
    /// `sessions` gauge until it drops.  `reply` is the session's job-reply
    /// path; `blocking` selects how a full job queue is met (see
    /// [`SessionMux`]).
    pub(crate) fn session_mux(
        &self,
        options: &ServeOptions,
        reply: ReplySender,
        blocking: bool,
    ) -> SessionMux {
        let mut mux = self.mux(options, reply, blocking);
        mux.counted = true;
        self.pool()
            .counters
            .sessions
            .fetch_add(1, Ordering::Relaxed);
        mux
    }

    /// A session state machine that is not counted as a serve session.
    fn mux(&self, options: &ServeOptions, reply: ReplySender, blocking: bool) -> SessionMux {
        SessionMux {
            pool: Arc::clone(self.pool()),
            blocking,
            counted: false,
            reply,
            default_order: options.order,
            max_inflight: options.max_inflight,
            max_items: options.max_items,
            user_quota: options.user_quota.clone(),
            local_threshold: self.config.local_threshold,
            policy: Arc::clone(&self.config.policy),
            reorder_capacity: self.config.queue_capacity.max(1) * 4,
            seq: 0,
            ordered: 0,
            positions: HashMap::new(),
            inflight: HashMap::new(),
            waiting: HashMap::new(),
            backlog: VecDeque::new(),
            next_ordered: 0,
            pending: BTreeMap::new(),
            summary: ServeSummary::default(),
        }
    }

    /// Executes a batch of requests on the worker pool; `responses[i]` answers
    /// `requests[i]`.  Submission shares the bounded queue with any concurrent
    /// sessions.
    ///
    /// The batch is one arrival-ordered session: requests are submitted in
    /// order, and each terminal lands in the slot of its `id`.
    pub fn run_batch(&self, requests: Vec<Request>) -> Vec<Response> {
        let (reply_tx, reply_rx) = mpsc::channel::<StreamEvent>();
        let options = ServeOptions {
            order: OrderMode::Arrival,
            ..ServeOptions::default()
        };
        let mut mux = self.mux(&options, ReplySender::channel(reply_tx), true);
        let mut slots: Vec<Option<Response>> = Vec::new();
        slots.resize_with(requests.len(), || None);
        for request in requests {
            mux.submit(Submission::query(request), &mut slots);
        }
        while !mux.is_idle() {
            let event = reply_rx.recv().expect("the mux keeps its reply path open");
            mux.on_event(event, &mut slots);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("worker pool answered every request"))
            .collect()
    }

    /// Convenience wrapper for a single request.
    pub fn run_one(&self, request: Request) -> Response {
        self.run_batch(vec![request])
            .pop()
            .expect("one response for one request")
    }

    /// Submits one request in **streaming** mode: the returned handle yields
    /// [`StreamEvent::Chunk`] frames as the job produces items and ends with
    /// the [`StreamEvent::Done`] terminal response.  The handle's
    /// [`CancelToken`] stops the job cooperatively at its next yield
    /// boundary (the terminal response then carries the partial result,
    /// `halted:"cancelled"`); dropping the handle mid-stream cancels the
    /// same way, the first time the job tries to yield.
    ///
    /// A duplicate of an in-flight execution subscribes to its fan-out —
    /// already-produced chunks replay first, then live ones, all under this
    /// handle's own cancel/quota.
    pub fn run_streaming(&self, request: Request, options: StreamRunOptions) -> StreamHandle {
        let (reply_tx, reply_rx) = mpsc::channel::<StreamEvent>();
        let cancel = CancelToken::new();
        let pool = self.pool();
        let payload = Payload::Query {
            request,
            solver: options.solver,
        };
        let job = PoolJob {
            seq: 0,
            client_id: options.client_id,
            key: pool.cache_key(&payload),
            payload,
            stream: true,
            cancel: cancel.clone(),
            max_items: options.max_items,
            reply: ReplySender::channel(reply_tx),
        };
        // A blocking submit never hands the job back.
        pool.submit(job, true);
        StreamHandle {
            cancel,
            events: reply_rx,
        }
    }

    /// Streams wire-format request lines from `input` to JSON-lines responses
    /// on `output` in **input order** — shorthand for [`Engine::serve_with`]
    /// and [`ServeOptions::default`].
    pub fn serve<R: BufRead + Send, W: Write>(
        &self,
        input: R,
        output: &mut W,
    ) -> std::io::Result<ServeSummary> {
        self.serve_with(input, output, &ServeOptions::default())
    }

    /// Streams wire-format request lines from `input` and writes JSON-lines
    /// responses to `output`.  Blank lines and `#` comments are skipped.
    ///
    /// With `order: input` (the default) responses are written in request
    /// order — a bounded reorder buffer holds responses that finish early,
    /// and reading pauses while that buffer is full, so one slow head-of-line
    /// request cannot make the buffer grow with the stream.  With
    /// `order: arrival` every response is written the moment it completes,
    /// possibly out of order; the `id` (and echoed `id=` correlation token)
    /// tell the client which request it answers.  Individual requests can
    /// override the session default with the `order=` wire keyword: an
    /// `order=arrival` request in an `input`-ordered session is excluded from
    /// the ordered stream and emitted on completion, and an `order=input`
    /// request in an `arrival` session joins the ordered stream.
    ///
    /// Responses are written and flushed as soon as they are ready — a client
    /// that sends one request and waits for its answer gets it without
    /// closing the input.  Errors reading the input or writing the output
    /// abort the session (no further lines are read) and are returned;
    /// responses already written stay valid.
    pub fn serve_with<R: BufRead + Send, W: Write>(
        &self,
        input: R,
        output: &mut W,
        options: &ServeOptions,
    ) -> std::io::Result<ServeSummary> {
        match self.drive_session(input, output, options) {
            (_, Some(error)) => Err(error),
            (summary, None) => Ok(summary),
        }
    }

    /// The blocking session driver behind [`Engine::serve_with`]: one reader
    /// thread hands lines to this thread, which drives a [`SessionMux`] and
    /// writes what it releases.  Returns the session's tallies on every exit
    /// path, along with the I/O error that ended it, if any.
    pub(crate) fn drive_session<R: BufRead + Send, W: Write>(
        &self,
        input: R,
        output: &mut W,
        options: &ServeOptions,
    ) -> (ServeSummary, Option<std::io::Error>) {
        let (input_tx, inputs) = mpsc::channel::<SessionInput>();
        let (credit_tx, credits) = mpsc::sync_channel::<()>(READ_AHEAD);
        for _ in 0..READ_AHEAD {
            let _ = credit_tx.try_send(());
        }
        let events = input_tx.clone();
        let reply = ReplySender::new(move |event| {
            events.send(SessionInput::Event(Box::new(event))).is_ok()
        });
        let mut mux = self.session_mux(options, reply, true);
        let error = thread::scope(|scope| {
            scope.spawn(move || read_lines(input, input_tx, credits));
            drive(&mut mux, inputs, credit_tx, output)
        });
        (mux.summary(), error)
    }
}

/// Lines a blocking session's reader thread may read ahead of its driver.
const READ_AHEAD: usize = 8;

/// What wakes a blocking session driver.
enum SessionInput {
    /// One input line from the reader thread.
    Line(String),
    /// The input ended: EOF (`None`) or a read error.
    End(Option<std::io::Error>),
    /// A worker event for the session's mux (boxed: events are several
    /// times the size of the other variants).
    Event(Box<StreamEvent>),
}

/// Reports the end of a session's input when its reader stops, however it
/// stops — a panicking reader included, so the driver never waits on input
/// that will not come.
struct InputEnd {
    tx: Sender<SessionInput>,
    error: Option<std::io::Error>,
}

impl Drop for InputEnd {
    fn drop(&mut self) {
        let _ = self.tx.send(SessionInput::End(self.error.take()));
    }
}

/// The reader thread of a blocking session: reads one line per credit, so
/// reading pauses once the driver holds [`READ_AHEAD`] unconsumed lines.
fn read_lines<R: BufRead>(input: R, tx: Sender<SessionInput>, credits: Receiver<()>) {
    let mut end = InputEnd { tx, error: None };
    let mut lines = input.lines();
    while credits.recv().is_ok() {
        match lines.next() {
            Some(Ok(line)) => {
                if end.tx.send(SessionInput::Line(line)).is_err() {
                    return;
                }
            }
            Some(Err(e)) => {
                end.error = Some(e);
                return;
            }
            None => return,
        }
    }
}

/// The driving thread of a blocking session: feeds lines to the mux in
/// order, applies worker events, and writes whatever the mux releases.  A
/// line the mux stalls on (reorder buffer full) is retried after the next
/// worker event, and its credit is withheld until then.  Returns the I/O
/// error that ended the session, if any.
fn drive<W: Write>(
    mux: &mut SessionMux,
    inputs: Receiver<SessionInput>,
    credits: SyncSender<()>,
    output: &mut W,
) -> Option<std::io::Error> {
    let mut held: VecDeque<String> = VecDeque::new();
    let mut reading = true;
    let mut read_error = None;
    let mut out = Vec::new();
    while reading || !held.is_empty() || !mux.is_idle() {
        // The mux's reply path holds a sender, so this never disconnects.
        let Ok(input) = inputs.recv() else { break };
        match input {
            SessionInput::Line(line) => held.push_back(line),
            SessionInput::End(error) => {
                reading = false;
                read_error = error;
            }
            SessionInput::Event(event) => mux.on_event(*event, &mut out),
        }
        while let Some(line) = held.front() {
            if mux.feed_line(line, &mut out) == MuxFeed::Stalled {
                break;
            }
            held.pop_front();
            let _ = credits.try_send(());
        }
        if !out.is_empty() {
            if let Err(e) = output.write_all(&out).and_then(|()| output.flush()) {
                // The consumer is gone: stop the session's jobs instead of
                // computing results nobody will read.
                mux.abort();
                return Some(e);
            }
            out.clear();
        }
    }
    read_error.or_else(|| output.flush().err())
}

/// Whether [`SessionMux::feed_line`] consumed a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MuxFeed {
    /// The line was consumed: answered immediately, submitted to the pool,
    /// parked behind a same-session duplicate, or skipped (blank/comment).
    Progress,
    /// The line was **not** consumed: the session's reorder buffer is full,
    /// or jobs the full pool queue refused are still waiting.  Retry the
    /// same line once responses drain.
    Stalled,
}

/// One typed session request: the wire envelope plus the parsed command.
pub(crate) struct Submission {
    client_id: Option<String>,
    order: Option<OrderMode>,
    stream: bool,
    auth: Option<String>,
    solver: Option<SolverKind>,
    /// The command, or why the line did not parse (answered as a `parse`
    /// error in the line's sequence slot).
    command: Result<wire::Command, String>,
}

impl Submission {
    /// Parses one trimmed, non-blank wire line.
    fn parse(line: &str) -> Submission {
        match wire::parse_line(line) {
            Ok(parsed) => Submission {
                client_id: parsed.id,
                order: parsed.order,
                stream: parsed.stream,
                auth: parsed.auth,
                solver: parsed.solver,
                command: Ok(parsed.command),
            },
            Err(message) => Submission {
                client_id: wire::salvage_client_id(line),
                order: None,
                stream: false,
                auth: None,
                solver: None,
                command: Err(message),
            },
        }
    }

    /// A plain one-shot query with no envelope options (a batch element).
    fn query(request: Request) -> Submission {
        Submission {
            client_id: None,
            order: None,
            stream: false,
            auth: None,
            solver: None,
            command: Ok(wire::Command::Query(request)),
        }
    }
}

/// Where a session's frames leave its [`SessionMux`]: rendered JSON lines
/// for wire sessions, typed responses for batches.
pub(crate) trait MuxOutput {
    /// A chunk frame of a streamed request (always emitted on arrival).
    fn chunk(&mut self, frame: ChunkFrame);
    /// A terminal response, released in the session's emission order.
    fn response(&mut self, response: Response);
}

/// A wire session's output buffer: one JSON line per frame.
impl MuxOutput for Vec<u8> {
    fn chunk(&mut self, frame: ChunkFrame) {
        self.extend_from_slice(frame.to_json_line().as_bytes());
        self.push(b'\n');
    }

    fn response(&mut self, response: Response) {
        self.extend_from_slice(response.to_json_line().as_bytes());
        self.push(b'\n');
    }
}

/// A batch's answers: each terminal lands in the slot of its `id`, which is
/// the request's index in the batch.  Batch requests are one-shot, so no
/// chunk frames arrive.
impl MuxOutput for Vec<Option<Response>> {
    fn chunk(&mut self, _frame: ChunkFrame) {}

    fn response(&mut self, response: Response) {
        let slot = response.id as usize;
        self[slot] = Some(response);
    }
}

/// A request of the session that has not been answered yet.
struct InFlight {
    /// What a `cancel id=N` naming this request raises.
    cancel: CancelToken,
    /// The digest of its cache key, when duplicates park behind it.
    digest: Option<u64>,
}

/// One session: the engine's only implementation of session semantics,
/// driven by [`Engine::serve_with`] (a blocking reader thread),
/// [`Engine::run_batch`] (typed requests), and the epoll readiness loop
/// (`crate::readiness`).
///
/// It owns per-session sequence numbers, wire parsing, `cancel`, user-quota
/// and `--max-inflight` admission, the local route, the same-session
/// duplicate rule, pool submission (and through it the flight join), and
/// the bounded `order=input` reorder buffer.  Requests enter via
/// [`SessionMux::feed_line`] or [`SessionMux::submit`]; worker events via
/// [`SessionMux::on_event`]; everything that becomes emittable goes to a
/// [`MuxOutput`].
///
/// A **blocking** mux waits on a full job queue, like any thread that
/// submits work.  A non-blocking one (the readiness loop) keeps the refused
/// job in a backlog that [`SessionMux::pump`] retries, and stalls new lines
/// until the backlog drains.
///
/// **Same-session duplicates.**  A request whose cache key matches one of
/// the session's own requests still in flight waits here, parked, until
/// that request's terminal arrives.  It is then submitted, and answered at
/// submission from the cache if the entry is still there.  A parked request
/// takes no pool slot, but it counts toward `--max-inflight` and can be
/// cancelled.  Requests from different sessions still coalesce through the
/// cache's pending flights.
pub(crate) struct SessionMux {
    pool: Arc<PoolLink>,
    blocking: bool,
    /// Counted on the `sessions` gauge (serve sessions are, batches not).
    counted: bool,
    /// Reply path cloned into every job.
    reply: ReplySender,
    default_order: OrderMode,
    max_inflight: Option<usize>,
    max_items: Option<u64>,
    user_quota: Option<Arc<UserBuckets>>,
    /// [`EngineConfig::local_threshold`]: sub-threshold one-shot queries are
    /// answered inline instead of becoming pool jobs.
    local_threshold: usize,
    /// The engine's routing policy, for those inline answers.
    policy: Arc<dyn SolverPolicy>,
    reorder_capacity: usize,
    seq: u64,
    /// Next position in the ordered stream.
    ordered: u64,
    /// Ordered-stream position of each unanswered `order=input` request;
    /// a request absent here is emitted the moment it is answered.
    positions: HashMap<u64, u64>,
    inflight: HashMap<u64, InFlight>,
    /// Same-session duplicates parked per cache-key digest.  An entry exists
    /// while a request with that digest is submitted.
    waiting: HashMap<u64, VecDeque<PoolJob>>,
    /// Admitted jobs the full pool queue refused (non-blocking mode only).
    backlog: VecDeque<PoolJob>,
    next_ordered: u64,
    pending: BTreeMap<u64, Response>,
    summary: ServeSummary,
}

impl Drop for SessionMux {
    fn drop(&mut self) {
        if self.counted {
            self.pool.counters.sessions.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl SessionMux {
    /// Feeds one wire line (already split, not yet trimmed).
    pub(crate) fn feed_line(&mut self, line: &str, out: &mut impl MuxOutput) -> MuxFeed {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return MuxFeed::Progress;
        }
        self.submit(Submission::parse(trimmed), out)
    }

    /// Admits one typed request.  [`MuxFeed::Stalled`] means nothing was
    /// committed: submit the same request again after
    /// [`SessionMux::on_event`] or [`SessionMux::pump`] has made room.
    pub(crate) fn submit(&mut self, request: Submission, out: &mut impl MuxOutput) -> MuxFeed {
        let Submission {
            client_id,
            order,
            stream,
            auth,
            solver,
            command,
        } = request;
        let payload = match command {
            // Cancels resolve ahead of the backpressure below: a cancel may
            // be what unblocks a stuck head-of-line request.
            Ok(wire::Command::Cancel { target }) => {
                let cancelled = self.inflight.get(&target).map(|f| f.cancel.cancel());
                let outcome = Ok(Outcome::Cancel {
                    target,
                    cancelled: cancelled.is_some(),
                });
                let seq = self.next_seq();
                self.finish(control_response(seq, client_id, stream, outcome), out);
                return MuxFeed::Progress;
            }
            Ok(wire::Command::Query(request)) => Payload::Query { request, solver },
            Ok(wire::Command::Stats) => Payload::Stats,
            Err(message) => Payload::Malformed(message),
        };
        if self.pending.len() >= self.reorder_capacity || !self.backlog.is_empty() {
            return MuxFeed::Stalled;
        }
        let seq = self.next_seq();
        // Streamed requests always emit on arrival: holding an unbounded
        // number of chunks for in-order emission would defeat both the
        // latency and the memory point of streaming (see WIRE.md).
        if order.unwrap_or(self.default_order) == OrderMode::Input && !stream {
            self.positions.insert(seq, self.ordered);
            self.ordered += 1;
        }
        if let Some(message) = self.refusal(auth.as_deref(), &payload) {
            let outcome = Err(EngineError::quota(message));
            self.finish(control_response(seq, client_id, stream, outcome), out);
            return MuxFeed::Progress;
        }
        // Sub-threshold one-shot queries are answered inline (see
        // [`ExecRoute`]): no pool job, no in-flight registration.
        if let Payload::Query { request, solver } = &payload {
            if exec_route(request, stream, self.local_threshold) == ExecRoute::Local {
                let response = local_response(seq, client_id, request, *solver, &*self.policy);
                self.finish(response, out);
                return MuxFeed::Progress;
            }
        }
        let key = self.pool.cache_key(&payload);
        // Same-session duplicates park only where they could coalesce.  A
        // digest collision only makes a request wait for an unrelated one.
        let digest = key
            .as_ref()
            .filter(|_| self.pool.coalesces())
            .map(|key| key.digest);
        let cancel = CancelToken::new();
        self.inflight.insert(
            seq,
            InFlight {
                cancel: cancel.clone(),
                digest,
            },
        );
        let job = PoolJob {
            seq,
            client_id,
            payload,
            stream,
            cancel,
            max_items: self.max_items,
            reply: self.reply.clone(),
            key,
        };
        match digest.map(|digest| self.waiting.entry(digest)) {
            Some(Entry::Occupied(mut parked)) => parked.get_mut().push_back(job),
            Some(Entry::Vacant(slot)) => {
                slot.insert(VecDeque::new());
                self.dispatch(job);
            }
            None => self.dispatch(job),
        }
        MuxFeed::Progress
    }

    /// Why admission refuses a request, if it does: the user's token bucket
    /// is empty (authenticated queries only; control traffic and malformed
    /// lines are never throttled), or the session is at its `--max-inflight`
    /// quota.
    fn refusal(&self, auth: Option<&str>, payload: &Payload) -> Option<String> {
        if let (Some(quota), Some(user), Payload::Query { .. }) = (&self.user_quota, auth, payload)
        {
            if !quota.admit(user) {
                self.pool.counters.throttled.fetch_add(1, Ordering::Relaxed);
                return Some(format!(
                    "user `{user}` exceeded the admission rate ({} req/s, burst {})",
                    quota.rate_per_sec(),
                    quota.burst()
                ));
            }
        }
        match self.max_inflight {
            Some(limit) if self.inflight.len() >= limit => Some(format!(
                "session in-flight quota exceeded ({limit} request(s) already running)"
            )),
            _ => None,
        }
    }

    /// Applies one worker event, handing what becomes emittable to `out`.
    pub(crate) fn on_event(&mut self, event: StreamEvent, out: &mut impl MuxOutput) {
        match event {
            StreamEvent::Chunk(frame) => out.chunk(frame),
            StreamEvent::Done(response) => {
                if let Some(InFlight {
                    digest: Some(digest),
                    ..
                }) = self.inflight.remove(&response.id)
                {
                    self.release(digest);
                }
                self.finish(response, out);
            }
        }
    }

    /// Retries the jobs the full pool queue refused, oldest first; `true`
    /// once none are left.
    pub(crate) fn pump(&mut self) -> bool {
        while let Some(job) = self.backlog.pop_front() {
            if let Some(job) = self.pool.submit(job, self.blocking) {
                self.backlog.push_front(job);
                return false;
            }
        }
        true
    }

    /// Cancels every in-flight request (the session's consumer is gone).
    pub(crate) fn abort(&mut self) {
        for request in self.inflight.values() {
            request.cancel.cancel();
        }
    }

    /// Whether every submitted request has been answered and emitted.
    pub(crate) fn is_idle(&self) -> bool {
        self.inflight.is_empty() && self.pending.is_empty()
    }

    /// Requests answered (and error responses among them) so far.
    pub(crate) fn summary(&self) -> ServeSummary {
        self.summary
    }

    /// Consumes the next session sequence number.
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Submits a job to the pool, behind any backlog.
    fn dispatch(&mut self, job: PoolJob) {
        self.backlog.push_back(job);
        self.pump();
    }

    /// Passes a finished request's key on to the next parked duplicate.  The
    /// worker caches a result before it sends the terminal, so the duplicate
    /// is answered at submission unless the entry was evicted meanwhile.
    fn release(&mut self, digest: u64) {
        let Some(parked) = self.waiting.get_mut(&digest) else {
            return;
        };
        match parked.pop_front() {
            Some(next) => self.dispatch(next),
            None => {
                self.waiting.remove(&digest);
            }
        }
    }

    /// Routes one terminal response through the session's emission plan.
    fn finish(&mut self, response: Response, out: &mut impl MuxOutput) {
        self.summary.requests += 1;
        if !response.is_ok() {
            self.summary.errors += 1;
        }
        match self.positions.remove(&response.id) {
            None => out.response(response),
            Some(position) => {
                self.pending.insert(position, response);
                while let Some(next) = self.pending.remove(&self.next_ordered) {
                    out.response(next);
                    self.next_ordered += 1;
                }
            }
        }
    }
}

/// A response the session answers itself (cancel, quota rejection): no
/// worker, no solver telemetry.
fn control_response(
    seq: u64,
    client_id: Option<String>,
    stream: bool,
    outcome: Result<Outcome, EngineError>,
) -> Response {
    Response {
        id: seq,
        client_id,
        outcome,
        halted: None,
        chunks: stream.then_some(0),
        stats: RequestStats {
            solver: "-".to_string(),
            ..RequestStats::default()
        },
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Hang up the job queue; workers exit once it drains.
        self.pool.take();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// How long one worker holds the job-queue receiver per poll.  This bounds
/// how stale an idle worker's view of the *subtask* queue can get: a split
/// pushed while every idle worker is inside a poll is picked up within one
/// timeout (pushes also notify the subtask condvar, so parked non-holders
/// wake immediately — the timeout is the backstop for the lock holder).
const JOB_POLL: Duration = Duration::from_millis(2);
/// Answers a local-routed query inline on the calling (session) thread.
///
/// This is the in-process fast path of [`ExecRoute::Local`]: the same
/// execution pipeline as a pool worker ([`ops::execute`] through the
/// configured policy), minus everything scheduling-related — no job queue
/// round-trip, no cache lookup or insert (so the canonical cache key, a hex
/// render of every edge word, is never built), no cancellation window.  The
/// response payload is identical to what a pool worker would produce for the
/// same request; `worker` reports shard 0, like a single-worker pool.
///
/// Panics are contained exactly as on a worker: a misbehaving request
/// answers with an `internal` error instead of unwinding into the session.
fn local_response(
    seq: u64,
    client_id: Option<String>,
    request: &Request,
    solver_override: Option<SolverKind>,
    policy: &dyn SolverPolicy,
) -> Response {
    let started = Instant::now();
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        let fixed;
        let policy: &dyn SolverPolicy = match solver_override {
            Some(kind) => {
                fixed = FixedPolicy(kind);
                &fixed
            }
            None => policy,
        };
        ops::execute(request, policy)
    }));
    match attempt {
        Ok((outcome, info)) => Response {
            id: seq,
            client_id,
            outcome: outcome.map_err(EngineError::execute),
            halted: None,
            chunks: None,
            stats: RequestStats {
                micros: started.elapsed().as_micros(),
                peak_bits: info.peak_bits,
                solver: info.solver,
                duality_calls: info.duality_calls,
                cache_hit: false,
                worker: 0,
            },
        },
        Err(panic) => {
            let detail = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".to_string());
            Response {
                id: seq,
                client_id,
                outcome: Err(EngineError::internal(format!(
                    "local execution panicked answering the request: {detail}"
                ))),
                halted: None,
                chunks: None,
                stats: RequestStats {
                    micros: started.elapsed().as_micros(),
                    solver: "-".to_string(),
                    ..RequestStats::default()
                },
            }
        }
    }
}

/// The persistent worker body, until the engine hangs up the queue: steal
/// and run intra-query subtasks, then poll the job queue, then execute one
/// job, around again.
///
/// Subtasks are drained *first*: they subdivide queries the pool already
/// accepted, so finishing them beats starting new work — and an idle sibling
/// picking them up is the entire point of splitting.  Only one worker at a
/// time polls the shared job receiver (`try_lock`); the others park on the
/// subtask condvar so neither jobs nor subtasks are ever left waiting on a
/// busy loop.
fn worker_loop(ctx: &WorkerCtx, jobs: &Mutex<Receiver<PoolJob>>, worker_index: usize) {
    loop {
        ctx.subtasks.drain_steal();
        // A poisoned lock (another worker panicked mid-dequeue) is
        // recovered: losing one worker must not kill the pool.
        let polled = match jobs.try_lock() {
            Ok(receiver) => receiver.recv_timeout(JOB_POLL),
            Err(std::sync::TryLockError::Poisoned(poisoned)) => {
                poisoned.into_inner().recv_timeout(JOB_POLL)
            }
            Err(std::sync::TryLockError::WouldBlock) => {
                // Another worker is polling for jobs; park until a subtask
                // or a job submission pokes the condvar.
                ctx.subtasks.wait_for_work(JOB_POLL);
                continue;
            }
        };
        match polled {
            Ok(job) => {
                // `None` means the job attached to an identical in-flight
                // execution as a follower: the flight delivers its terminal.
                if let Some(response) = answer(ctx, worker_index, &job) {
                    // Settle the gauge before the terminal leaves, so a
                    // session holding all its answers has nothing in flight.
                    // A receiver that hung up (aborted session) just
                    // discards the answer.
                    ctx.counters.job_finished();
                    job.reply.send(StreamEvent::Done(response));
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// Executes one job on a worker, turning panics into `internal` errors so a
/// misbehaving request cannot take a pool thread down with it.  `None`
/// means the job joined an in-flight duplicate as a follower — the flight
/// owns its delivery, and the worker must not answer it.
fn answer(ctx: &WorkerCtx, worker_index: usize, job: &PoolJob) -> Option<Response> {
    let base_stats = || RequestStats {
        worker: worker_index,
        solver: "-".to_string(),
        ..RequestStats::default()
    };
    match &job.payload {
        Payload::Malformed(message) => Some(Response {
            id: job.seq,
            client_id: job.client_id.clone(),
            outcome: Err(EngineError::parse(message.clone())),
            halted: None,
            chunks: job.stream.then_some(0),
            stats: base_stats(),
        }),
        Payload::Stats => {
            let (flights, coalesced) = ctx.cache.coalesce_stats();
            Some(Response {
                id: job.seq,
                client_id: job.client_id.clone(),
                outcome: Ok(Outcome::Stats {
                    cache: ctx.cache.stats(),
                    workers: ctx.workers,
                    protocol: wire::PROTOCOL_VERSION,
                    uptime_ms: ctx.started.elapsed().as_millis() as u64,
                    cache_restored: ctx.cache_restored,
                    // The probe is itself an in-flight job: subtract it so an
                    // otherwise idle engine reports 0.
                    inflight: ctx
                        .counters
                        .inflight
                        .load(Ordering::Relaxed)
                        .saturating_sub(1),
                    sessions: ctx.counters.sessions.load(Ordering::Relaxed),
                    connections: ctx.counters.connections.load(Ordering::Relaxed),
                    throttled: ctx.counters.throttled.load(Ordering::Relaxed),
                    subtasks: ctx.subtasks.spawned(),
                    subtasks_stolen: ctx.subtasks.stolen(),
                    flights,
                    coalesced,
                }),
                halted: None,
                // Item-less kinds still honour the streamed framing contract:
                // zero chunks, then this response as the `done` frame.
                chunks: job.stream.then_some(0),
                stats: base_stats(),
            })
        }
        Payload::Query { request, solver } => {
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                process_one(job, request, *solver, worker_index, ctx)
            }));
            attempt.unwrap_or_else(|panic| {
                let detail = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".to_string());
                Some(Response {
                    id: job.seq,
                    client_id: job.client_id.clone(),
                    outcome: Err(EngineError::internal(format!(
                        "worker panicked answering the request: {detail}"
                    ))),
                    halted: None,
                    // The chunk count is unknown after a panic; mark the
                    // terminal frame of a streamed request anyway so the
                    // client knows the stream ended.
                    chunks: job.stream.then_some(0),
                    stats: base_stats(),
                })
            })
        }
    }
}

/// The terminal of a cache hit: the stored outcome replayed through the
/// request's own consumer (chunk by chunk for a streamed request, cut short
/// by its cancel or item quota), with the first execution's telemetry.
/// `micros` covers the lookup and the replay.  Submission (`worker` 0) and
/// the worker's lookup both answer hits here.
fn hit_response(
    mut consumer: Consumer,
    hit: &CachedResult,
    started: Instant,
    worker: usize,
) -> Response {
    let (outcome, halted) = consumer.replay(&hit.outcome);
    let stats = RequestStats {
        micros: started.elapsed().as_micros(),
        peak_bits: hit.info.peak_bits,
        solver: hit.info.solver.clone(),
        duality_calls: hit.info.duality_calls,
        cache_hit: true,
        worker,
    };
    consumer.response(outcome, halted, stats)
}

/// Executes one typed query on a worker: one cache lookup (a hit that
/// appeared while the job waited is answered by [`hit_response`]), then the
/// execution as its flight's leader, then the settle step.  `None` means
/// the job joined a running flight as a follower — the flight owns its
/// delivery and the worker moves on to the next job.
fn process_one(
    job: &PoolJob,
    request: &Request,
    solver_override: Option<SolverKind>,
    worker: usize,
    ctx: &WorkerCtx,
) -> Option<Response> {
    let started = Instant::now();
    let consumer = Consumer::new(job, request.kind());
    let mut lease = match &job.key {
        None => FlightLease::private(consumer),
        Some(key) => match ctx.cache.lookup(key, consumer) {
            Lookup::Hit(hit, consumer) => {
                return Some(hit_response(consumer, &hit, started, worker));
            }
            Lookup::Joined => {
                // A follower occupies no pool slot.
                ctx.counters.job_finished();
                return None;
            }
            Lookup::Lead(lease) => lease,
        },
    };
    let fixed;
    let policy: &dyn SolverPolicy = match solver_override {
        Some(kind) => {
            fixed = FixedPolicy(kind);
            &fixed
        }
        None => ctx.policy.as_ref(),
    };
    // Large duality calls may split into work-stealing subtasks on the
    // shared pool; the job's cancel token doubles as the split's
    // cancellation signal, so queued subtasks of a cancelled query are
    // skipped at the steal boundary.
    let parallel = ParallelContext::new(
        Arc::new(EnginePool::new(
            Arc::clone(&ctx.subtasks),
            job.cancel.clone(),
        )),
        ctx.parallel_threshold,
    );
    let execution = ops::execute_streaming_with(request, policy, Some(&parallel), &mut lease);
    let halted = execution.halt;
    let info = execution.info;
    let outcome = execution.outcome.map_err(|message| match halted {
        // A job stopped before it produced anything has no partial result to
        // answer with; the error code says why.
        Some(StopReason::Cancelled) => EngineError::cancelled(message),
        _ => EngineError::execute(message),
    });
    let stats = RequestStats {
        micros: started.elapsed().as_micros(),
        peak_bits: info.peak_bits,
        solver: info.solver.clone(),
        duality_calls: info.duality_calls,
        cache_hit: false,
        worker,
    };
    // Only results that ran to their natural end are cached: a halted job's
    // partial outcome depends on when the stop landed, which is not a
    // property of the request.
    Some(lease.finish(outcome, halted, info, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::Outcome;
    use qld_hypergraph::generators;
    use std::io::{BufReader, Read};
    use std::sync::atomic::AtomicBool;

    fn engine(workers: usize, cache: bool) -> Engine {
        Engine::new(EngineConfig {
            workers,
            queue_capacity: 4,
            cache,
            ..EngineConfig::default()
        })
    }

    /// An engine whose local (in-process) route takes every sub-threshold
    /// `check`, with the given threshold.
    fn engine_local(threshold: usize) -> Engine {
        Engine::new(EngineConfig {
            workers: 2,
            queue_capacity: 4,
            local_threshold: threshold,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn local_route_answers_identically_to_pool() {
        let pool = engine(2, true);
        let local = engine_local(usize::MAX);
        for k in 1..=4 {
            let li = generators::matching_instance(k);
            let request = Request::DecideDuality {
                g: li.g.clone(),
                h: li.h.clone(),
            };
            let a = pool.run_one(request.clone());
            let b = local.run_one(request);
            // The payload is byte-identical; only scheduling telemetry
            // (micros, worker shard) may differ.
            assert_eq!(a.outcome, b.outcome, "matching k={k}");
            assert_eq!(a.halted, b.halted);
            assert_eq!(a.chunks, b.chunks);
            assert_eq!(a.stats.solver, b.stats.solver);
            assert_eq!(a.stats.duality_calls, b.stats.duality_calls);
            assert_eq!(a.stats.peak_bits, b.stats.peak_bits);
        }
    }

    #[test]
    fn local_route_bypasses_the_cache() {
        let eng = engine_local(usize::MAX);
        let li = generators::matching_instance(2);
        let request = Request::DecideDuality { g: li.g, h: li.h };
        let first = eng.run_one(request.clone());
        let second = eng.run_one(request);
        // Local answers never consult or populate the cache.
        assert!(!first.stats.cache_hit);
        assert!(!second.stats.cache_hit);
        let stats = eng.cache_stats();
        assert_eq!(stats.entries, 0, "local answers are not cached");
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn local_route_respects_the_threshold() {
        // Threshold 1: every real instance is at least 1 work unit, so all
        // requests take the pool path and the cache fills as usual.
        let eng = engine_local(1);
        let li = generators::matching_instance(2);
        let request = Request::DecideDuality { g: li.g, h: li.h };
        let _ = eng.run_one(request.clone());
        let second = eng.run_one(request);
        assert!(
            second.stats.cache_hit,
            "above-threshold requests still pool"
        );
    }

    #[test]
    fn local_route_skips_streaming_and_mining_kinds() {
        // Streamed requests and non-`check` kinds never route local, even
        // with the threshold wide open.
        let li = generators::matching_instance(2);
        assert_eq!(
            exec_route(
                &Request::DecideDuality {
                    g: li.g.clone(),
                    h: li.h.clone()
                },
                true, // streamed
                usize::MAX,
            ),
            ExecRoute::Pool
        );
        assert_eq!(
            exec_route(
                &Request::EnumerateTransversals {
                    g: li.g.clone(),
                    limit: Some(1)
                },
                false,
                usize::MAX,
            ),
            ExecRoute::Pool
        );
        // And the disabled default keeps even tiny checks on the pool.
        assert_eq!(
            exec_route(&Request::DecideDuality { g: li.g, h: li.h }, false, 0,),
            ExecRoute::Pool
        );
    }

    #[test]
    fn serve_session_uses_local_route_inline() {
        let eng = engine_local(usize::MAX);
        let input = "check 0,1;2,3 0,2;0,3;1,2;1,3
check 0,1;2,3 0,2;0,3;1,2
";
        let mut out = Vec::new();
        let summary = eng.serve(input.as_bytes(), &mut out).unwrap();
        assert_eq!(summary.requests, 2);
        assert_eq!(summary.errors, 0);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains(r#""dual":true"#), "{}", lines[0]);
        assert!(lines[1].contains(r#""dual":false"#), "{}", lines[1]);
        // Inline answers never touch the cache.
        assert_eq!(eng.cache_stats().entries, 0);
    }

    #[test]
    fn batch_preserves_request_order() {
        let eng = engine(3, true);
        let requests: Vec<Request> = (1..=4)
            .map(|k| {
                let li = generators::matching_instance(k);
                Request::DecideDuality { g: li.g, h: li.h }
            })
            .collect();
        let responses = eng.run_batch(requests);
        assert_eq!(responses.len(), 4);
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert_eq!(
                r.outcome,
                Ok(Outcome::Duality {
                    dual: true,
                    witness: None
                })
            );
        }
    }

    #[test]
    fn identical_requests_hit_the_cache() {
        let eng = engine(2, true);
        let li = generators::matching_instance(2);
        let req = Request::DecideDuality { g: li.g, h: li.h };
        let responses = eng.run_batch(vec![req.clone(), req.clone(), req]);
        assert!(responses.iter().all(|r| r.is_ok()));
        let stats = eng.cache_stats();
        assert_eq!(stats.entries, 1);
        assert!(
            stats.hits >= 1,
            "expected at least one cache hit: {stats:?}"
        );
        // Cached responses are flagged and agree with the computed one.
        let computed: Vec<_> = responses.iter().filter(|r| !r.stats.cache_hit).collect();
        let hits: Vec<_> = responses.iter().filter(|r| r.stats.cache_hit).collect();
        assert!(!computed.is_empty());
        for h in hits {
            assert_eq!(h.outcome, computed[0].outcome);
        }
    }

    #[test]
    fn sessions_share_one_worker_pool() {
        // Two concurrent serve sessions against the same engine: both finish
        // and each sees only its own responses.
        let eng = Arc::new(engine(2, true));
        let mut threads = Vec::new();
        for session in 0..2 {
            let eng = Arc::clone(&eng);
            threads.push(thread::spawn(move || {
                let input: String = (0..8).map(|_| "check 0,1;2,3 0,2;0,3;1,2;1,3\n").collect();
                let mut out = Vec::new();
                let summary = eng.serve(input.as_bytes(), &mut out).unwrap();
                assert_eq!(summary.requests, 8, "session {session}");
                let text = String::from_utf8(out).unwrap();
                assert_eq!(text.lines().count(), 8, "session {session}");
                for (i, line) in text.lines().enumerate() {
                    assert!(line.starts_with(&format!("{{\"id\":{i},")), "{line}");
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn serve_emits_ordered_json_lines() {
        let eng = engine(4, true);
        let input = "\
# a comment, then a blank line

check 0,1;2,3 0,2;0,3;1,2;1,3
check 0,1;2,3 0,2;0,3;1,2
enumerate n=4:0,1;2,3 limit=2
bogus line
keys 1,2;1,3
";
        let mut out = Vec::new();
        let summary = eng.serve(input.as_bytes(), &mut out).unwrap();
        assert_eq!(summary.requests, 5);
        assert_eq!(summary.errors, 1);
        let lines: Vec<String> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        assert_eq!(lines.len(), 5);
        for (i, line) in lines.iter().enumerate() {
            assert!(
                line.starts_with(&format!("{{\"id\":{i},")),
                "line {i}: {line}"
            );
        }
        assert!(lines[0].contains("\"dual\":true"));
        assert!(lines[1].contains("\"dual\":false"));
        assert!(lines[2].contains("\"complete\":false") && lines[2].contains("\"count\":2"));
        assert!(lines[3].contains("\"ok\":false") && lines[3].contains("\"code\":\"parse\""));
        assert!(lines[4].contains("\"kind\":\"keys\""));
    }

    #[test]
    fn serve_answers_stats_and_echoes_client_ids() {
        let eng = engine(2, true);
        let input = "check 0,1;2,3 0,2;0,3;1,2;1,3 id=alpha\nstats id=beta\nfrobnicate id=gamma\n";
        let mut out = Vec::new();
        let summary = eng.serve(input.as_bytes(), &mut out).unwrap();
        assert_eq!(summary.requests, 3);
        assert_eq!(summary.errors, 1);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"client_id\":\"alpha\""));
        assert!(lines[1].contains("\"client_id\":\"beta\""));
        assert!(lines[1].contains("\"kind\":\"stats\""));
        assert!(lines[1].contains("\"capacity\":"));
        // Even a malformed line keeps its correlation token.
        assert!(lines[2].contains("\"client_id\":\"gamma\""));
        assert!(lines[2].contains("\"code\":\"parse\""));
    }

    /// Inline `.qld` wire rendering of a hypergraph's edges.
    fn edges_text(h: &qld_hypergraph::Hypergraph) -> String {
        h.edges()
            .iter()
            .map(|e| {
                e.to_indices()
                    .iter()
                    .map(usize::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect::<Vec<_>>()
            .join(";")
    }

    #[test]
    fn intra_query_splits_show_up_in_stats() {
        let eng = Engine::new(EngineConfig {
            workers: 2,
            cache: false,
            parallel_threshold: 0, // split every routed duality call
            ..EngineConfig::default()
        });
        let li = generators::matching_instance(3);
        // `stats` snapshots the counters when it executes, which may be while
        // the check is still running; send it only once the check's terminal
        // has been written, so the snapshot covers the whole split.
        let responded = Arc::new(AtomicBool::new(false));
        let reader = BufReader::new(LineAfterResponse {
            first: Some(format!(
                "check {} {} solver=quadlog\n",
                edges_text(&li.g),
                edges_text(&li.h)
            )),
            second: Some("stats\n".to_string()),
            responded: Arc::clone(&responded),
        });
        let mut writer = FlagWriter {
            responded,
            data: Vec::new(),
        };
        let summary = eng.serve(reader, &mut writer).unwrap();
        assert_eq!(summary.requests, 2);
        assert_eq!(summary.errors, 0);
        let text = String::from_utf8(writer.data).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"dual\":true"), "{}", lines[0]);
        let stats_line = lines[1];
        assert!(stats_line.contains("\"kind\":\"stats\""), "{stats_line}");
        let spawned = stats_line
            .split("\"subtasks\":")
            .nth(1)
            .and_then(|rest| {
                rest.chars()
                    .take_while(char::is_ascii_digit)
                    .collect::<String>()
                    .parse::<u64>()
                    .ok()
            })
            .expect("stats must carry a subtasks counter");
        assert!(
            spawned > 0,
            "a threshold-0 quadlog check must have split: {stats_line}"
        );
        assert!(stats_line.contains("\"subtasks_stolen\":"), "{stats_line}");
    }

    #[test]
    fn parallel_answers_are_identical_across_worker_counts() {
        // The determinism contract survives intra-query splitting: any worker
        // count, same outcomes — including the non-duality witness.
        let mut requests = Vec::new();
        for k in [3, 4] {
            let li = generators::matching_instance(k);
            requests.push(Request::DecideDuality {
                g: li.g.clone(),
                h: li.h.clone(),
            });
            let mut broken = li.h;
            broken.remove_edge(1);
            requests.push(Request::DecideDuality { g: li.g, h: broken });
        }
        let li = generators::matching_instance(4);
        requests.push(Request::EnumerateTransversals {
            g: li.g,
            limit: None,
        });
        let run = |workers: usize| {
            let eng = Engine::new(EngineConfig {
                workers,
                cache: false,
                parallel_threshold: 0,
                policy: Arc::new(FixedPolicy(SolverKind::QuadChain)),
                ..EngineConfig::default()
            });
            eng.run_batch(requests.clone())
        };
        let sequentialish = run(1);
        let parallel = run(4);
        assert_eq!(sequentialish.len(), parallel.len());
        for (a, b) in sequentialish.iter().zip(&parallel) {
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.halted, b.halted);
            // The metered solver telemetry is part of the contract too.
            assert_eq!(a.stats.peak_bits, b.stats.peak_bits);
            assert_eq!(a.stats.duality_calls, b.stats.duality_calls);
        }
    }

    #[test]
    fn cache_capacity_one_evicts_lru_under_load() {
        let eng = Engine::new(EngineConfig {
            workers: 1,
            cache: true,
            cache_capacity: 1,
            ..EngineConfig::default()
        });
        let a = generators::matching_instance(2);
        let b = generators::matching_instance(3);
        let req_a = Request::DecideDuality { g: a.g, h: a.h };
        let req_b = Request::DecideDuality { g: b.g, h: b.h };
        // a, b (evicts a), a (evicts b, recomputed), a (hit) — one at a
        // time, so each request sees the cache its predecessor left.
        let responses: Vec<Response> = [req_a.clone(), req_b, req_a.clone(), req_a]
            .into_iter()
            .map(|request| eng.run_one(request))
            .collect();
        assert!(responses.iter().all(|r| r.is_ok()));
        let stats = eng.cache_stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.hits, 1);
        assert!(responses[3].stats.cache_hit);
    }

    /// Submits a streamed `enumerate` of matching(3) straight through
    /// [`PoolLink::submit`] and returns the events delivered before the call
    /// returned.  The reply path raises the job's cancel token once
    /// `cancel_after` chunks went out.
    fn submit_streamed(
        eng: &Engine,
        max_items: Option<u64>,
        cancel_after: Option<u64>,
    ) -> Vec<StreamEvent> {
        let li = generators::matching_instance(3);
        let payload = Payload::Query {
            request: Request::EnumerateTransversals {
                g: li.g,
                limit: None,
            },
            solver: None,
        };
        let cancel = CancelToken::new();
        let (tx, rx) = mpsc::channel();
        let reply = {
            let cancel = cancel.clone();
            let chunks = AtomicU64::new(0);
            ReplySender::new(move |event| {
                let chunk = matches!(event, StreamEvent::Chunk(_));
                let delivered = tx.send(event).is_ok();
                if chunk && Some(chunks.fetch_add(1, Ordering::SeqCst) + 1) == cancel_after {
                    cancel.cancel();
                }
                delivered
            })
        };
        let pool = eng.pool();
        let job = PoolJob {
            seq: 0,
            client_id: None,
            key: pool.cache_key(&payload),
            payload,
            stream: true,
            cancel,
            max_items,
            reply,
        };
        assert!(pool.submit(job, true).is_none());
        rx.try_iter().collect()
    }

    #[test]
    fn streamed_hits_at_submission_truncate_like_a_worker_replay() {
        let eng = engine(1, true);
        let li = generators::matching_instance(3);
        let request = Request::EnumerateTransversals {
            g: li.g,
            limit: None,
        };
        let warm = eng.run_one(request);
        let Ok(Outcome::Transversals { transversals, .. }) = &warm.outcome else {
            panic!("{warm:?}");
        };
        for (max_items, cancel_after, halted) in [
            (Some(3), None, StopReason::ItemQuota),
            (None, Some(2), StopReason::Cancelled),
            (None, Some(1), StopReason::Cancelled),
        ] {
            let k = max_items.or(cancel_after).unwrap();
            // Every frame was delivered before `submit` returned: the hit
            // never waited for a worker.
            let events = submit_streamed(&eng, max_items, cancel_after);
            let (done, chunks) = events.split_last().expect("frames");
            let seqs: Vec<u64> = chunks
                .iter()
                .map(|event| match event {
                    StreamEvent::Chunk(frame) => frame.seq,
                    StreamEvent::Done(_) => panic!("one terminal, last"),
                })
                .collect();
            assert_eq!(seqs, (0..k).collect::<Vec<_>>());
            let StreamEvent::Done(done) = done else {
                panic!("the last frame is the terminal");
            };
            assert_eq!(done.chunks, Some(k));
            assert_eq!(done.halted, Some(halted));
            assert!(done.stats.cache_hit && done.stats.worker == 0);
            assert_eq!(
                done.outcome,
                Ok(Outcome::Transversals {
                    transversals: transversals[..k as usize].to_vec(),
                    complete: false,
                })
            );
        }
        assert_eq!(eng.cache_stats().hits, 3);
    }

    /// A reader that yields one request line, then holds the input open until
    /// it sees the response flag (set by [`FlagWriter`]) before reporting EOF.
    /// If `serve` only answered at EOF this would never observe the flag.
    struct GatedReader {
        sent_line: bool,
        responded: Arc<AtomicBool>,
        saw_response_before_eof: Arc<AtomicBool>,
    }

    impl Read for GatedReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.sent_line {
                self.sent_line = true;
                let line = b"check 0,1;2,3 0,2;0,3;1,2;1,3\n";
                buf[..line.len()].copy_from_slice(line);
                return Ok(line.len());
            }
            for _ in 0..1000 {
                if self.responded.load(Ordering::Relaxed) {
                    self.saw_response_before_eof.store(true, Ordering::Relaxed);
                    break;
                }
                thread::sleep(Duration::from_millis(5));
            }
            Ok(0)
        }
    }

    /// A reader that yields its `first` line, then holds the input until the
    /// response flag (set by [`FlagWriter`]) is up before yielding `second`,
    /// then reports EOF.
    struct LineAfterResponse {
        first: Option<String>,
        second: Option<String>,
        responded: Arc<AtomicBool>,
    }

    impl Read for LineAfterResponse {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let line = match self.first.take() {
                Some(line) => line,
                None => match self.second.take() {
                    Some(line) => {
                        for _ in 0..2000 {
                            if self.responded.load(Ordering::Relaxed) {
                                break;
                            }
                            thread::sleep(Duration::from_millis(5));
                        }
                        line
                    }
                    None => return Ok(0),
                },
            };
            buf[..line.len()].copy_from_slice(line.as_bytes());
            Ok(line.len())
        }
    }

    /// Sets a flag as soon as one full JSON line has been written.
    struct FlagWriter {
        responded: Arc<AtomicBool>,
        data: Vec<u8>,
    }

    impl Write for FlagWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.data.extend_from_slice(buf);
            if self.data.contains(&b'\n') {
                self.responded.store(true, Ordering::Relaxed);
            }
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn serve_streams_responses_before_input_eof() {
        let responded = Arc::new(AtomicBool::new(false));
        let saw = Arc::new(AtomicBool::new(false));
        let reader = BufReader::new(GatedReader {
            sent_line: false,
            responded: Arc::clone(&responded),
            saw_response_before_eof: Arc::clone(&saw),
        });
        let mut writer = FlagWriter {
            responded: Arc::clone(&responded),
            data: Vec::new(),
        };
        let summary = engine(2, true).serve(reader, &mut writer).unwrap();
        assert_eq!(summary.requests, 1);
        assert!(
            saw.load(Ordering::Relaxed),
            "response was not written until the input closed"
        );
        assert!(String::from_utf8(writer.data)
            .unwrap()
            .contains("\"dual\":true"));
    }

    /// A writer that fails every write.
    struct BrokenWriter;

    impl Write for BrokenWriter {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "broken pipe",
            ))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn serve_aborts_on_write_error() {
        let input: String = "check 0,1;2,3 0,2;0,3;1,2;1,3\n".repeat(64);
        let err = engine(2, false)
            .serve(input.as_bytes(), &mut BrokenWriter)
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
    }

    /// A reader that yields one good line and then an I/O error.
    struct FailingReader {
        sent_line: bool,
    }

    impl Read for FailingReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.sent_line {
                self.sent_line = true;
                let line = b"check 0,1;2,3 0,2;0,3;1,2;1,3\n";
                buf[..line.len()].copy_from_slice(line);
                return Ok(line.len());
            }
            Err(std::io::Error::other("disk on fire"))
        }
    }

    #[test]
    fn serve_propagates_read_errors() {
        let reader = BufReader::new(FailingReader { sent_line: false });
        let mut out = Vec::new();
        let err = engine(1, false).serve(reader, &mut out).unwrap_err();
        assert_eq!(err.to_string(), "disk on fire");
        // the request read before the failure was still answered
        assert!(String::from_utf8(out).unwrap().contains("\"dual\":true"));
    }

    #[test]
    fn queue_smaller_than_batch_still_completes() {
        let eng = Engine::new(EngineConfig {
            workers: 2,
            queue_capacity: 1,
            cache: false,
            ..EngineConfig::default()
        });
        let li = generators::matching_instance(2);
        let requests: Vec<Request> = (0..32)
            .map(|_| Request::DecideDuality {
                g: li.g.clone(),
                h: li.h.clone(),
            })
            .collect();
        let responses = eng.run_batch(requests);
        assert_eq!(responses.len(), 32);
        assert!(responses.iter().all(|r| r.is_ok()));
        // Cache disabled: no entries, and every response computed fresh.
        assert_eq!(eng.cache_stats().entries, 0);
        assert!(responses.iter().all(|r| !r.stats.cache_hit));
    }
}
