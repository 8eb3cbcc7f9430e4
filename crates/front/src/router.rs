//! The protocol-transparent proxy session.
//!
//! One [`Router::serve_session`] call handles one client connection: it reads
//! wire lines exactly like an engine serve session would (same blank-line and
//! comment skipping, so the client-visible `id` numbering is identical),
//! routes each line to a shard chosen by the [`ShardPolicy`], and relays the
//! shard's JSON frames back with only the `id` field rewritten from the
//! shard-session numbering to the client-session numbering.
//!
//! Per-request bookkeeping (`Route`) remembers which shard owns each
//! in-flight request so `cancel id=N` can be forwarded to the right shard
//! (with `N` rewritten to that shard's numbering), and so requests lost to a
//! dying shard can be retried once on a surviving shard — but only when no
//! chunk frame was relayed yet, because a partially streamed answer cannot be
//! restarted without duplicating chunks the client already consumed.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use qld_engine::wire::{self, Command, ParsedLine};
use qld_engine::{
    EngineError, Outcome, RequestStats, Response, ServeSummary, SessionStream, StopReason,
    UserBuckets,
};

use crate::coalesce::{
    follower_line, strip_leader_client_id, CoalesceSession, FrontFlights, FrontFollower,
};
use crate::fleet::Fleet;
use crate::lock_ignoring_poison as lock;
use crate::policy::{FleetView, ShardPolicy};

/// The fleet router: shared by every client session of a `qld front` daemon.
pub struct Router {
    fleet: Arc<Fleet>,
    policy: Arc<dyn ShardPolicy>,
    /// Whether a request lost to a dying shard is retried once on a
    /// surviving shard (`--no-retry` clears it).
    retry: bool,
    /// Per-user admission buckets, shared across every client session of
    /// the daemon: an `auth=<user>` flood is throttled at the router, before
    /// it ever reaches a shard.
    user_quota: Option<Arc<UserBuckets>>,
    session_tokens: AtomicU64,
    /// Router-level single-flight registry, shared by every client session:
    /// duplicate one-shot misses reach a shard exactly once (see
    /// [`crate::coalesce`]).
    flights: Arc<FrontFlights>,
}

impl Router {
    /// Builds a router over a running fleet.
    pub fn new(fleet: Arc<Fleet>, policy: Arc<dyn ShardPolicy>, retry: bool) -> Arc<Router> {
        Router::with_user_quota(fleet, policy, retry, None)
    }

    /// Builds a router that additionally enforces per-user admission: a
    /// query carrying `auth=<user>` is rejected with a `quota` error —
    /// synthesized locally, never forwarded — once the user's token bucket
    /// is empty.  Requests without `auth=` are never throttled.
    pub fn with_user_quota(
        fleet: Arc<Fleet>,
        policy: Arc<dyn ShardPolicy>,
        retry: bool,
        user_quota: Option<Arc<UserBuckets>>,
    ) -> Arc<Router> {
        Arc::new(Router {
            fleet,
            policy,
            retry,
            user_quota,
            session_tokens: AtomicU64::new(0),
            flights: Arc::new(FrontFlights::default()),
        })
    }

    /// The fleet this router serves.
    pub fn fleet(&self) -> &Arc<Fleet> {
        &self.fleet
    }

    /// Router-level coalescing counters `(flights_led, followers_enrolled)`,
    /// also spliced into relayed `stats` responses as the `front` object.
    pub fn coalesce_stats(&self) -> (u64, u64) {
        (self.flights.led(), self.flights.coalesced())
    }

    /// Serves one client connection to completion (mirrors
    /// `Engine::serve_with` semantics through the fleet).
    pub fn serve_session<S: SessionStream>(&self, stream: S) -> ServeSummary {
        let Ok(writer) = stream.try_clone_stream() else {
            return ServeSummary::default();
        };
        let core = Arc::new(Core {
            fleet: Arc::clone(&self.fleet),
            policy: Arc::clone(&self.policy),
            retry: self.retry,
            user_quota: self.user_quota.clone(),
            session: self.session_tokens.fetch_add(1, Ordering::Relaxed),
            client: Mutex::new(writer),
            abort: AtomicBool::new(false),
            routes: Mutex::new(HashMap::new()),
            upstreams: Mutex::new(HashMap::new()),
            readers: Mutex::new(Vec::new()),
            summary: Mutex::new(ServeSummary::default()),
            flights: Arc::clone(&self.flights),
            pending: Mutex::new(0),
            pending_cv: Condvar::new(),
        });
        let mut reader = BufReader::new(stream);
        let mut seq: u64 = 0;
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => {}
                Err(_) => {
                    core.abort.store(true, Ordering::Release);
                    break;
                }
            }
            if core.abort.load(Ordering::Acquire) {
                break;
            }
            let trimmed = line.trim();
            // Same skip rule as the engine's session: the client-visible
            // sequence numbering must be byte-identical through the router.
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            core.dispatch(seq, trimmed);
            seq += 1;
        }
        core.finish()
    }
}

/// Builds the per-connection handler closure for
/// [`qld_engine::run_session_loop`] / `SocketServer::run_with`.
pub fn session_handler<S: SessionStream>(
    router: Arc<Router>,
) -> impl Fn(S) -> ServeSummary + Send + Sync + 'static {
    move |stream| router.serve_session(stream)
}

/// Where one in-flight client request currently lives.
struct Route {
    /// Owning shard index.
    shard: usize,
    /// The request's sequence number within the shard session (`None` until
    /// the forwarding write completes).
    upstream_seq: Option<u64>,
    /// The original wire line, verbatim, for retry-on-reroute.
    raw: String,
    /// Correlation token to echo on synthesized responses.
    client_id: Option<String>,
    /// Whether the client asked for streamed framing.
    stream: bool,
    /// Chunk frames already relayed to the client; a non-zero count disables
    /// retry (the stream cannot restart without duplicating them).
    chunks_relayed: u64,
    /// Whether this request already used its one reroute.
    retried: bool,
    /// `Some(target)` when the line is a forwarded `cancel` (the target in
    /// client numbering, for the synthesized response if the shard dies).
    cancel_target: Option<u64>,
    /// `Some(key)` when this request leads a router-coalesced flight: its
    /// terminal frame settles the flight's followers, and losing it promotes
    /// one of them.
    flight: Option<String>,
    /// Whether this is a `stats` line: its terminal frame gets the router's
    /// own `front` counters spliced in before relay.
    is_stats: bool,
}

/// One live connection to a shard, shared by the session's writer (the
/// dispatch path) and its dedicated relay thread.
struct Upstream {
    shard: usize,
    writer: Mutex<UpstreamWriter>,
    /// Shard-session sequence number → client-session sequence number, for
    /// every request still awaiting its terminal frame.
    map: Mutex<HashMap<u64, u64>>,
}

struct UpstreamWriter {
    stream: UnixStream,
    /// Next sequence number the shard's session will assign: one per
    /// forwarded line, mirroring the engine's numbering exactly.
    seq: u64,
    broken: bool,
}

/// Per-client-session state shared with the relay threads.
struct Core<S: SessionStream> {
    fleet: Arc<Fleet>,
    policy: Arc<dyn ShardPolicy>,
    retry: bool,
    user_quota: Option<Arc<UserBuckets>>,
    session: u64,
    client: Mutex<S>,
    /// The client vanished mid-session: stop relaying, cancel shard work,
    /// no more retries or new upstreams.  A mere write-side close is NOT an
    /// abort: the client still waits for its in-flight answers, and those
    /// may legitimately need a retry on a surviving shard.
    abort: AtomicBool,
    routes: Mutex<HashMap<u64, Route>>,
    upstreams: Mutex<HashMap<usize, Arc<Upstream>>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    summary: Mutex<ServeSummary>,
    /// The daemon-wide single-flight registry (shared with every session).
    flights: Arc<FrontFlights>,
    /// Followers this session enrolled in other sessions' flights and has
    /// not yet had settled: teardown must wait for them, or a leader's
    /// delivery would race this session's closing client socket.
    pending: Mutex<u64>,
    pending_cv: Condvar,
}

impl<S: SessionStream> Core<S> {
    /// Routes one non-blank, non-comment client line.
    fn dispatch(self: &Arc<Self>, seq: u64, line: &str) {
        match wire::parse_line(line) {
            Ok(ParsedLine {
                command,
                id,
                solver,
                stream,
                auth,
                ..
            }) => match command {
                Command::Cancel { target } => self.forward_cancel(seq, line, target, stream),
                Command::Query(request) => {
                    if let Some(rejection) = self.admit_user(auth.as_deref()) {
                        // Throttled at the router: the shard never sees the
                        // line, but the rejection still consumes this `id`.
                        self.emit_response(Response {
                            id: seq,
                            client_id: id,
                            outcome: Err(rejection),
                            halted: None,
                            chunks: stream.then_some(0),
                            stats: control_stats(),
                        });
                        return;
                    }
                    // The affinity key is the engine's own canonical cache
                    // key (including the solver-override suffix the engine
                    // appends), so "same cache entry" implies "same shard".
                    let mut key = request.cache_key();
                    if let Some(kind) = solver {
                        key.push_str(" solver=");
                        key.push_str(kind.name());
                    }
                    if !stream {
                        // One-shot queries coalesce across sessions: the
                        // first miss leads, duplicates enroll as followers
                        // and never reach a shard.  Streamed queries pass
                        // through — the engine's on-shard fan-out dedups
                        // them (hash affinity lands duplicates together),
                        // and the router never buffers chunk history.
                        let lead = self.flights.lead_or_enroll(&key, || {
                            self.pending_inc();
                            FrontFollower {
                                session: Arc::clone(self) as Arc<dyn CoalesceSession>,
                                token: self.session,
                                seq,
                                client_id: id.clone(),
                                raw: line.to_string(),
                            }
                        });
                        if !lead {
                            return;
                        }
                        let flight = Some(key.clone());
                        self.forward(seq, line, &key, id, stream, None, flight);
                        return;
                    }
                    self.forward(seq, line, &key, id, stream, None, None);
                }
                Command::Stats => self.forward(seq, line, "stats", id, stream, None, None),
            },
            Err(_) => {
                // Forwarded verbatim: every shard produces the identical
                // parse-error response, so routing is arbitrary (hash the
                // raw line).  The engine treats malformed lines as
                // unstreamed regardless of envelope, so `stream: false`.
                let client_id = wire::salvage_client_id(line);
                self.forward(seq, line, line, client_id, false, None, None);
            }
        }
    }

    /// Checks the authenticated user (if any) against the router's admission
    /// buckets.  `None` means "forward the request"; `Some(err)` is the
    /// quota rejection to synthesize, mirroring the engine's own wording.
    fn admit_user(&self, auth: Option<&str>) -> Option<EngineError> {
        let quota = self.user_quota.as_ref()?;
        let user = auth?;
        if quota.admit(user) {
            return None;
        }
        Some(EngineError::quota(format!(
            "user `{user}` exceeded the admission rate ({} req/s, burst {})",
            quota.rate_per_sec(),
            quota.burst()
        )))
    }

    /// Picks a shard and forwards the line, trying a second shard when the
    /// first connect/write fails.  `reroute_from` marks this as the one
    /// retry of a request lost to a dying shard: that shard is excluded
    /// from the pick and the new route cannot retry again.  `flight` is the
    /// coalescing key when this line leads a router-level flight.
    #[allow(clippy::too_many_arguments)]
    fn forward(
        self: &Arc<Self>,
        seq: u64,
        line: &str,
        key: &str,
        client_id: Option<String>,
        stream: bool,
        reroute_from: Option<usize>,
        flight: Option<String>,
    ) {
        let retried = reroute_from.is_some();
        let mut excluded = reroute_from;
        for _attempt in 0..2 {
            let Some(shard) = self.choose(key, excluded) else {
                break;
            };
            lock(&self.routes).insert(
                seq,
                Route {
                    shard,
                    upstream_seq: None,
                    raw: line.to_string(),
                    client_id: client_id.clone(),
                    stream,
                    chunks_relayed: 0,
                    retried,
                    cancel_target: None,
                    flight: flight.clone(),
                    is_stats: key == "stats",
                },
            );
            match self.send_on(shard, seq, line) {
                Ok(useq) => {
                    if let Some(route) = lock(&self.routes).get_mut(&seq) {
                        route.upstream_seq = Some(useq);
                    }
                    return;
                }
                Err(_) => {
                    lock(&self.routes).remove(&seq);
                    excluded = Some(shard);
                }
            }
        }
        // Total failure: the flight's followers would wait forever, so they
        // get the same synthesized error as the leader.
        if let Some(key) = flight.as_deref() {
            self.fail_flight(key);
        }
        self.emit_response(Response {
            id: seq,
            client_id,
            outcome: Err(EngineError::internal(
                "no shard available to answer the request",
            )),
            halted: None,
            chunks: stream.then_some(0),
            stats: control_stats(),
        });
    }

    /// Settles every follower of a flight whose leader could not be
    /// forwarded at all, mirroring the leader's "no shard" error.
    fn fail_flight(&self, key: &str) {
        for follower in self.flights.take(key) {
            let line = Response {
                id: follower.seq,
                client_id: follower.client_id.clone(),
                outcome: Err(EngineError::internal(
                    "no shard available to answer the request",
                )),
                halted: None,
                chunks: None,
                stats: control_stats(),
            }
            .to_json_line();
            follower.session.deliver(&line, true);
        }
    }

    /// Forwards a `cancel id=N` line to the shard owning request `N`,
    /// rewriting the target into that shard's numbering.  When the target is
    /// unknown (never seen, already answered, or numbering not yet
    /// assigned), answers `cancelled:false` locally — the same response the
    /// engine gives for an unknown target.
    fn forward_cancel(self: &Arc<Self>, seq: u64, line: &str, target: u64, stream: bool) {
        let owner = lock(&self.routes)
            .get(&target)
            .and_then(|r| r.upstream_seq.map(|u| (r.shard, u)));
        if let Some((shard, target_useq)) = owner {
            let rewritten = rewrite_cancel_target(line, target_useq);
            lock(&self.routes).insert(
                seq,
                Route {
                    shard,
                    upstream_seq: None,
                    raw: rewritten.clone(),
                    client_id: None,
                    stream,
                    chunks_relayed: 0,
                    // A cancel is shard-local: rerouting it to another shard
                    // is meaningless, so it never retries.
                    retried: true,
                    cancel_target: Some(target),
                    flight: None,
                    is_stats: false,
                },
            );
            match self.send_on(shard, seq, &rewritten) {
                Ok(useq) => {
                    if let Some(route) = lock(&self.routes).get_mut(&seq) {
                        route.upstream_seq = Some(useq);
                    }
                    return;
                }
                Err(_) => {
                    lock(&self.routes).remove(&seq);
                }
            }
        }
        // Not routed to any shard — but it may be waiting as a coalesced
        // follower that never left this router.  Settling it locally is the
        // one cancel the shards cannot do.
        let cancelled = if let Some(follower) = self.flights.remove_follower(self.session, target) {
            let line = Response {
                id: follower.seq,
                client_id: follower.client_id.clone(),
                outcome: Err(EngineError::cancelled(
                    "request cancelled while coalesced behind an identical in-flight query",
                )),
                halted: Some(StopReason::Cancelled),
                chunks: None,
                stats: control_stats(),
            }
            .to_json_line();
            follower.session.deliver(&line, true);
            true
        } else {
            false
        };
        self.emit_response(Response {
            id: seq,
            client_id: None,
            outcome: Ok(Outcome::Cancel { target, cancelled }),
            halted: None,
            chunks: stream.then_some(0),
            stats: control_stats(),
        });
    }

    /// Applies the policy over a liveness snapshot (minus `exclude`).
    fn choose(&self, key: &str, exclude: Option<usize>) -> Option<usize> {
        let mut available = self.fleet.availability();
        if let Some(dead) = exclude {
            if let Some(slot) = available.get_mut(dead) {
                *slot = false;
            }
        }
        let load = self.fleet.loads();
        self.policy.choose(
            key,
            &FleetView {
                available: &available,
                load: &load,
                session: self.session,
            },
        )
    }

    /// Writes one line on the shard's session connection, registering the
    /// shard-sequence → client-sequence mapping *before* the write so the
    /// relay thread can never see an unmapped response.
    fn send_on(self: &Arc<Self>, shard: usize, seq: u64, line: &str) -> std::io::Result<u64> {
        for _attempt in 0..2 {
            let up = self.upstream_for(shard)?;
            let mut writer = lock(&up.writer);
            if writer.broken {
                drop(writer);
                self.remove_upstream(&up);
                continue;
            }
            let useq = writer.seq;
            lock(&up.map).insert(useq, seq);
            let mut framed = Vec::with_capacity(line.len() + 1);
            framed.extend_from_slice(line.as_bytes());
            framed.push(b'\n');
            match writer
                .stream
                .write_all(&framed)
                .and_then(|_| writer.stream.flush())
            {
                Ok(()) => {
                    writer.seq += 1;
                    return Ok(useq);
                }
                Err(err) => {
                    writer.broken = true;
                    lock(&up.map).remove(&useq);
                    return Err(err);
                }
            }
        }
        Err(std::io::Error::new(
            std::io::ErrorKind::BrokenPipe,
            format!("shard {shard} connection unusable"),
        ))
    }

    /// The session's connection to `shard`, creating it (and its relay
    /// thread) on first use.
    fn upstream_for(self: &Arc<Self>, shard: usize) -> std::io::Result<Arc<Upstream>> {
        if let Some(up) = lock(&self.upstreams).get(&shard) {
            return Ok(Arc::clone(up));
        }
        if self.abort.load(Ordering::Acquire) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "session is aborting",
            ));
        }
        let stream = self.fleet.connect(shard)?;
        let relay_stream = stream.try_clone()?;
        let up = Arc::new(Upstream {
            shard,
            writer: Mutex::new(UpstreamWriter {
                stream,
                seq: 0,
                broken: false,
            }),
            map: Mutex::new(HashMap::new()),
        });
        {
            let mut upstreams = lock(&self.upstreams);
            if let Some(existing) = upstreams.get(&shard) {
                // Raced with another thread; keep theirs, drop ours.
                return Ok(Arc::clone(existing));
            }
            upstreams.insert(shard, Arc::clone(&up));
        }
        let core = Arc::clone(self);
        let up_for_thread = Arc::clone(&up);
        let handle = std::thread::Builder::new()
            .name(format!("front-relay-{shard}"))
            .spawn(move || relay(core, up_for_thread, relay_stream))
            .expect("spawn relay thread");
        lock(&self.readers).push(handle);
        Ok(up)
    }

    fn remove_upstream(&self, up: &Arc<Upstream>) {
        let mut upstreams = lock(&self.upstreams);
        if let Some(current) = upstreams.get(&up.shard) {
            if Arc::ptr_eq(current, up) {
                upstreams.remove(&up.shard);
            }
        }
    }

    /// Settles every request still mapped on a dead upstream: retry once on
    /// a surviving shard (when allowed) or synthesize a terminal frame so
    /// the client is never left waiting.
    fn handle_upstream_down(self: &Arc<Self>, up: &Arc<Upstream>) {
        lock(&up.writer).broken = true;
        let mut lost: Vec<(u64, u64)> = lock(&up.map).drain().collect();
        if lost.is_empty() {
            return;
        }
        lost.sort_unstable(); // settle in original submission order
        for (_useq, seq) in lost {
            let Some(route) = lock(&self.routes).remove(&seq) else {
                continue;
            };
            let aborted = self.abort.load(Ordering::Acquire);
            if !aborted
                && self.retry
                && !route.retried
                && route.chunks_relayed == 0
                && route.cancel_target.is_none()
            {
                let raw = route.raw.clone();
                // A flight leader keeps its flight key through the retry, so
                // its terminal still settles the followers.
                let key = route.flight.clone().unwrap_or_else(|| raw.clone());
                self.forward(
                    seq,
                    &raw,
                    &key,
                    route.client_id.clone(),
                    route.stream,
                    Some(up.shard),
                    route.flight.clone(),
                );
            } else {
                // A leader lost with its retry spent does not kill the
                // flight: a live follower is promoted and re-forwards the
                // identical line under the same key.
                if let Some(key) = route.flight.as_deref() {
                    if let Some(next) = self.flights.promote(key) {
                        let session = Arc::clone(&next.session);
                        session.redispatch(next.seq, next.raw, key.to_string(), next.client_id);
                    }
                }
                self.emit_lost(seq, &route);
            }
        }
    }

    /// The terminal frame for a request that died with its shard.
    fn emit_lost(&self, seq: u64, route: &Route) {
        if self.abort.load(Ordering::Acquire) {
            return;
        }
        let outcome = match route.cancel_target {
            // The cancel's target died with the shard: it is certainly no
            // longer in flight, which is exactly `cancelled:false`.
            Some(target) => Ok(Outcome::Cancel {
                target,
                cancelled: false,
            }),
            None => Err(EngineError::internal(
                "shard connection lost before the request completed",
            )),
        };
        self.emit_response(Response {
            id: seq,
            client_id: route.client_id.clone(),
            outcome,
            halted: None,
            chunks: route.stream.then_some(route.chunks_relayed),
            stats: control_stats(),
        });
    }

    /// Writes a locally synthesized response to the client, with the same
    /// JSON rendering the engine uses.
    fn emit_response(&self, response: Response) {
        let is_error = response.outcome.is_err();
        if self.write_client(&response.to_json_line()).is_err() {
            self.abort_session();
            return;
        }
        self.tally(is_error);
    }

    fn write_client(&self, line: &str) -> std::io::Result<()> {
        let mut client = lock(&self.client);
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        client.write_all(&framed)?;
        client.flush()
    }

    fn tally(&self, error: bool) {
        let mut summary = lock(&self.summary);
        summary.requests += 1;
        if error {
            summary.errors += 1;
        }
    }

    /// The client vanished: stop everything, including the (blocked) main
    /// read loop, by half-closing the client socket's read side.
    fn abort_session(&self) {
        self.abort.store(true, Ordering::Release);
        let _ = lock(&self.client).shutdown_side(Shutdown::Read);
    }

    fn pending_inc(&self) {
        *lock(&self.pending) += 1;
    }

    fn pending_dec(&self) {
        let mut pending = lock(&self.pending);
        *pending = pending.saturating_sub(1);
        drop(pending);
        self.pending_cv.notify_all();
    }

    /// Blocks until every follower this session enrolled elsewhere has been
    /// settled (delivered, released, or promoted into a route of its own).
    /// The timeout re-checks `abort` so a vanished client never wedges
    /// teardown behind a slow leader.
    fn wait_pending(&self) {
        let mut pending = lock(&self.pending);
        while *pending > 0 && !self.abort.load(Ordering::Acquire) {
            pending = self
                .pending_cv
                .wait_timeout(pending, Duration::from_millis(100))
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .0;
        }
    }

    /// Session teardown: wait out coalesced followers riding other sessions'
    /// flights, half-close every upstream so the shards drain their
    /// in-flight work (or tear them down on abort, so the shards cancel
    /// it), then join the relay threads.
    fn finish(self: &Arc<Self>) -> ServeSummary {
        self.wait_pending();
        let aborted = self.abort.load(Ordering::Acquire);
        loop {
            let upstreams: Vec<Arc<Upstream>> = lock(&self.upstreams).values().cloned().collect();
            for up in &upstreams {
                let writer = lock(&up.writer);
                let _ = writer.stream.shutdown(if aborted {
                    Shutdown::Both
                } else {
                    // Clean EOF: the shard finishes and answers what is
                    // still in flight before closing, and the relay thread
                    // forwards those answers.
                    Shutdown::Write
                });
            }
            let handles: Vec<JoinHandle<()>> = lock(&self.readers).drain(..).collect();
            if handles.is_empty() {
                break;
            }
            for handle in handles {
                let _ = handle.join();
            }
            // A retry that raced teardown may have opened a fresh upstream;
            // loop to close and join it too.
        }
        // Half-close towards the client so it sees EOF now (the engine's
        // `serve_connection` does the same): the accept loop keeps its own
        // clone of the connection alive until the session is reaped, so
        // merely dropping our handles would leave the client waiting.
        let _ = lock(&self.client).shutdown_side(Shutdown::Write);
        *lock(&self.summary)
    }

    /// Settles a flight from its leader's terminal frame: every follower
    /// gets a byte-identical line modulo its own `id`/`client_id` envelope.
    /// A leader that was *cancelled* instead promotes a follower — the
    /// cancel belonged to the leader's client alone, and the followers
    /// still want the answer.
    fn settle_flight(
        self: &Arc<Self>,
        key: &str,
        leader_id: Option<&str>,
        rest: &str,
        frame: &str,
        error: bool,
    ) {
        if frame.contains("\"halted\":\"cancelled\"") {
            if let Some(next) = self.flights.promote(key) {
                let session = Arc::clone(&next.session);
                session.redispatch(next.seq, next.raw, key.to_string(), next.client_id);
            }
            return;
        }
        let followers = self.flights.take(key);
        if followers.is_empty() {
            return;
        }
        let stripped = strip_leader_client_id(rest, leader_id);
        for follower in followers {
            let line = follower_line(follower.seq, follower.client_id.as_deref(), stripped);
            follower.session.deliver(&line, error);
        }
    }
}

impl<S: SessionStream> CoalesceSession for Core<S> {
    fn is_aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    fn deliver(&self, line: &str, error: bool) {
        if !self.is_aborted() {
            if self.write_client(line).is_err() {
                self.abort_session();
            } else {
                self.tally(error);
            }
        }
        self.pending_dec();
    }

    fn release(&self) {
        self.pending_dec();
    }

    fn redispatch(self: Arc<Self>, seq: u64, raw: String, key: String, client_id: Option<String>) {
        self.forward(seq, &raw, &key, client_id, false, None, Some(key.clone()));
        // Decrement *after* forwarding: the route (and any fresh upstream)
        // now exists, so this session's teardown loop will drain it even if
        // the main read loop already hit EOF.
        self.pending_dec();
    }
}

/// The relay loop: reads the shard session's JSON frames, rewrites the `id`
/// prefix to client numbering, and forwards every byte after it untouched.
fn relay<S: SessionStream>(core: Arc<Core<S>>, up: Arc<Upstream>, stream: UnixStream) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let frame = line.trim_end();
        if frame.is_empty() {
            continue;
        }
        let Some((useq, rest)) = split_id_prefix(frame) else {
            continue;
        };
        let Some(seq) = lock(&up.map).get(&useq).copied() else {
            continue;
        };
        if is_chunk_frame(frame) {
            if let Some(route) = lock(&core.routes).get_mut(&seq) {
                route.chunks_relayed += 1;
            }
            if core.write_client(&format!("{{\"id\":{seq}{rest}")).is_err() {
                core.abort_session();
                break;
            }
            continue;
        }
        // Terminal frame: this request is settled on both sides.
        lock(&up.map).remove(&useq);
        let route = lock(&core.routes).remove(&seq);
        let error = frame.contains("\"ok\":false");
        core.tally(error);
        let remapped = if route.as_ref().is_some_and(|r| r.is_stats) {
            splice_front_stats(seq, rest, core.flights.led(), core.flights.coalesced())
        } else {
            format!("{{\"id\":{seq}{rest}")
        };
        let write_failed = core.write_client(&remapped).is_err();
        if write_failed {
            core.abort_session();
        }
        // Settle the flight even when our own client just vanished: the
        // followers belong to *other* sessions and still want the frame.
        if let Some(route) = route {
            if let Some(key) = route.flight.as_deref() {
                core.settle_flight(key, route.client_id.as_deref(), rest, frame, error);
            }
        }
        if write_failed {
            break;
        }
    }
    core.remove_upstream(&up);
    core.handle_upstream_down(&up);
}

/// Splits `{"id":<N>` off a frame, returning `N` and the remainder
/// (starting at the comma).  Every engine frame — responses and chunks alike
/// — renders the `id` field first precisely so the router can do this.
fn split_id_prefix(frame: &str) -> Option<(u64, &str)> {
    let rest = frame.strip_prefix("{\"id\":")?;
    let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    if digits == 0 {
        return None;
    }
    let id: u64 = rest[..digits].parse().ok()?;
    Some((id, &rest[digits..]))
}

fn is_chunk_frame(frame: &str) -> bool {
    frame.contains("\"frame\":\"chunk\"")
}

/// Splices the router's own coalescing counters into a relayed `stats`
/// terminal as a trailing `front` object, so one `stats` line reports both
/// the answering shard and the fleet front (see WIRE.md).
fn splice_front_stats(seq: u64, rest: &str, flights: u64, coalesced: u64) -> String {
    let line = format!("{{\"id\":{seq}{rest}");
    match line.strip_suffix('}') {
        Some(body) => {
            format!("{body},\"front\":{{\"flights\":{flights},\"coalesced\":{coalesced}}}}}")
        }
        None => line,
    }
}

/// Rebuilds a `cancel` line with its `id=` target pointing at `target`
/// (shard-session numbering), keeping every other envelope token verbatim.
fn rewrite_cancel_target(line: &str, target: u64) -> String {
    let mut tokens: Vec<&str> = line
        .split_whitespace()
        .filter(|token| !token.starts_with("id="))
        .collect();
    let rewritten_target = format!("id={target}");
    tokens.push(&rewritten_target);
    tokens.join(" ")
}

/// The stats the engine attaches to control responses (cancel acks, quota
/// rejections): zeroes with the placeholder solver name.
fn control_stats() -> RequestStats {
    RequestStats {
        solver: "-".to_string(),
        ..RequestStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_prefixes_split_and_everything_after_is_preserved() {
        let frame = r#"{"id":17,"client_id":"a","ok":true,"kind":"duality"}"#;
        let (id, rest) = split_id_prefix(frame).unwrap();
        assert_eq!(id, 17);
        assert_eq!(rest, r#","client_id":"a","ok":true,"kind":"duality"}"#);
        // Reassembly with a different id is exact.
        assert_eq!(
            format!("{{\"id\":{}{}", 3, rest),
            r#"{"id":3,"client_id":"a","ok":true,"kind":"duality"}"#
        );
        assert_eq!(split_id_prefix(r#"{"id":x}"#), None);
        assert_eq!(split_id_prefix("not json"), None);
    }

    #[test]
    fn chunk_frames_are_recognized() {
        assert!(is_chunk_frame(
            r#"{"id":0,"frame":"chunk","seq":0,"item":[1,2]}"#
        ));
        assert!(!is_chunk_frame(r#"{"id":0,"ok":true,"frame":"done"}"#));
    }

    #[test]
    fn cancel_rewrites_keep_the_envelope_and_replace_the_target() {
        assert_eq!(rewrite_cancel_target("cancel id=7", 42), "cancel id=42");
        assert_eq!(
            rewrite_cancel_target("cancel stream=true id=7", 3),
            "cancel stream=true id=3"
        );
        // Duplicate targets collapse into the single rewritten one (the
        // parser's last-wins rule makes the original ambiguity moot).
        assert_eq!(rewrite_cancel_target("cancel id=1 id=2", 9), "cancel id=9");
    }

    #[test]
    fn front_stats_are_spliced_before_the_closing_brace() {
        let rest = r#","ok":true,"kind":"stats","inflight":0}"#;
        assert_eq!(
            splice_front_stats(4, rest, 7, 19),
            r#"{"id":4,"ok":true,"kind":"stats","inflight":0,"front":{"flights":7,"coalesced":19}}"#
        );
    }
}
