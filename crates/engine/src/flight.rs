//! Executions and the requests that consume them: the per-request
//! [`Consumer`], and single-flight coalescing (at most one execution per
//! canonical cache key at any moment).
//!
//! Every query op is a pure function of its canonical cache key, and a
//! duality check costs up to quasi-polynomial work — yet the result cache
//! only helps *after* the first execution completes.  A hot-key stampede
//! (N identical requests arriving while the first is still running) would
//! execute the solver N times.  So every execution runs as a [`Flight`]: the
//! request that started it is the flight's **leader**, and every concurrent
//! duplicate becomes a **follower** that attaches to the flight instead of
//! executing.  [`QueryCache`] is the one record of a key's state — finished
//! (an entry), in flight (a pending flight) or absent — and the worker's
//! `QueryCache::lookup` answers a hit, leads a new flight or joins the
//! running one in one critical section.
//!
//! Each participant is a [`Consumer`] with its own request identity end to
//! end — own `id=` sequence number, own `client_id`, own cancellation token
//! and item quota — and its own framing state.  A streamed follower replays
//! the chunks the flight already produced (from the flight's buffer, with
//! its own per-request chunk `seq` numbering) and then receives live ones; a
//! one-shot follower just gets the terminal outcome, byte-identical to the
//! leader's modulo `id`/`client_id`.  The leader's terminal returns through
//! the worker like any job's.
//!
//! **Leader promotion:** a flight is not killed by its leader's cancellation
//! or disconnection.  The execution keeps running while *any* participant
//! still wants the result; a stopped leader merely detaches (its own
//! response is the partial it consumed, like any cancelled job) while the
//! flight runs on for the followers — and a naturally completed flight is
//! cached even if the original leader gave up along the way.
//!
//! **Settling** ([`FlightLease::finish`]) retires the pending flight and, for
//! a natural end, installs the result in the cache in one critical section,
//! then delivers the followers' terminals; the leader's terminal leaves
//! after that.  A duplicate therefore always finds either the flight or the
//! cache entry, and anything that waits for a terminal before re-asking
//! (the session's parked duplicates) is answered from the cache if the
//! entry is still there when it re-asks.
//!
//! Submission answers first: `PoolLink::submit`, the one place every job
//! enters the engine, asks `QueryCache::admit` — a finished entry is
//! replayed on the submitting thread, a running flight is joined before the
//! duplicate ever occupies a pool slot, and anything else is queued.  The
//! worker's lookup then catches entries and flights that appeared while
//! the job waited; only the worker leads.  Duplicates *within* one session
//! never get this far: the session parks them behind their leader (see
//! `SessionMux`).  Requests with the cache off, or with coalescing off, run
//! as private flights that nobody can join.  `qld front` adds a
//! router-level tier for one-shot duplicates across client sessions (see
//! `crates/front/src/coalesce.rs`).

use crate::cache::{CacheKey, CachedResult, QueryCache};
use crate::engine::{PoolJob, ReplySender};
use crate::lock_ignoring_poison;
use crate::ops::ExecInfo;
use crate::response::{EngineError, Outcome, RequestStats, Response};
use crate::stream::{
    CancelToken, ChunkFrame, ChunkPayload, ResultSink, SinkDirective, StopReason, StreamEvent,
    StreamItem, StreamProgress,
};
use std::sync::{Arc, Mutex};

/// One request's end of an execution: its identity, its reply path, and
/// how far it has consumed.  The only place a chunk frame is built and the
/// only place cancellation, the item quota and a vanished receiver are
/// checked.  On its own it is the sink of a cache-hit replay; inside a
/// [`Flight`] it is the leader or a follower.
pub(crate) struct Consumer {
    /// Sequence number within the request's own session.
    seq: u64,
    client_id: Option<String>,
    /// The request kind, for chunk framing.
    kind: &'static str,
    /// Whether the request asked for chunk-by-chunk streaming.
    stream: bool,
    cancel: CancelToken,
    max_items: Option<u64>,
    reply: ReplySender,
    /// Chunk frames actually delivered (own per-request `seq` numbering).
    emitted: u64,
    /// Result items consumed (delivered or not — the quota is about work).
    items: u64,
    /// The reply channel hung up mid-stream: treat as cancellation.
    receiver_gone: bool,
    /// Flight buffer entries consumed (a follower's replay position; a
    /// detached leader's detach point).
    pos: usize,
    /// Why a flight participant stopped consuming while the flight ran on.
    halt: Option<StopReason>,
}

impl Consumer {
    /// The consumer of `job`, a query of `kind`.
    pub(crate) fn new(job: &PoolJob, kind: &'static str) -> Consumer {
        Consumer {
            seq: job.seq,
            client_id: job.client_id.clone(),
            kind,
            stream: job.stream,
            cancel: job.cancel.clone(),
            max_items: job.max_items,
            reply: job.reply.clone(),
            emitted: 0,
            items: 0,
            receiver_gone: false,
            pos: 0,
            halt: None,
        }
    }

    /// The reason this consumer can consume no further, if any.
    fn stop_reason(&self) -> Option<StopReason> {
        if let Some(reason) = self.halt {
            return Some(reason);
        }
        if self.cancel.is_cancelled() || self.receiver_gone {
            return Some(StopReason::Cancelled);
        }
        if self.max_items.is_some_and(|quota| self.items >= quota) {
            return Some(StopReason::ItemQuota);
        }
        None
    }

    /// Records the current stop reason as the halt; whether there is one.
    fn halts(&mut self) -> bool {
        self.halt = self.stop_reason();
        self.halt.is_some()
    }

    /// Consumes one payload: an item counts against the quota, and the
    /// frame goes out when the request streams.
    fn take(&mut self, payload: ChunkPayload) {
        if matches!(payload, ChunkPayload::Item(_)) {
            self.items += 1;
        }
        if !self.stream || self.receiver_gone {
            return;
        }
        let frame = ChunkFrame {
            id: self.seq,
            client_id: self.client_id.clone(),
            seq: self.emitted,
            kind: self.kind,
            payload,
        };
        if self.reply.send(StreamEvent::Chunk(frame)) {
            self.emitted += 1;
        } else {
            self.receiver_gone = true;
        }
    }

    /// Consumes the flight buffer from this consumer's position, honouring
    /// its own cancel/quota at the same boundaries a cached replay would
    /// (checked before each item, re-checked after delivering it; progress
    /// checkpoints pass through unchecked).
    fn pump(&mut self, buffer: &[ChunkPayload]) {
        while self.halt.is_none() && self.pos < buffer.len() {
            let payload = &buffer[self.pos];
            let item = matches!(payload, ChunkPayload::Item(_));
            if item && self.halts() {
                return;
            }
            self.take(payload.clone());
            self.pos += 1;
            if item && self.halts() {
                return;
            }
        }
    }

    /// A terminal response for this request.
    pub(crate) fn response(
        &self,
        outcome: Result<Outcome, EngineError>,
        halted: Option<StopReason>,
        stats: RequestStats,
    ) -> Response {
        Response {
            id: self.seq,
            client_id: self.client_id.clone(),
            outcome,
            halted,
            chunks: self.stream.then_some(self.emitted),
            stats,
        }
    }

    /// This participant's terminal: the execution's outcome, or the partial
    /// prefix it consumed if it stopped while the flight ran on.
    fn terminal(
        &self,
        outcome: &Result<Outcome, EngineError>,
        halted: Option<StopReason>,
        stats: &RequestStats,
        buffer: &[ChunkPayload],
    ) -> Response {
        let (outcome, halted) = match self.halt {
            None => (outcome.clone(), halted),
            Some(reason) => (
                partial_outcome(self.kind, buffer, self.items, self.pos, reason),
                Some(reason),
            ),
        };
        self.response(outcome, halted, stats.clone())
    }

    /// Replays a cached outcome (a no-op for one-shot requests and item-less
    /// outcomes), truncating it if this consumer stops mid-way — a cancelled
    /// or quota-limited client sees the same prefix semantics whether the
    /// result was computed or replayed.
    ///
    /// The outcome is borrowed from the `Arc`-shared cache entry: a replay
    /// clones only the prefix the client actually receives.
    pub(crate) fn replay(
        &mut self,
        outcome: &Result<Outcome, EngineError>,
    ) -> (Result<Outcome, EngineError>, Option<StopReason>) {
        // The fast hit path: nothing to forward, nothing to count.
        if !self.stream && self.max_items.is_none() && !self.cancel.is_cancelled() {
            return (outcome.clone(), None);
        }
        match outcome {
            Ok(Outcome::Transversals {
                transversals,
                complete,
            }) => {
                let (replayed, halted) =
                    self.replay_items(transversals, |t| StreamItem::Transversal(t.clone()));
                let outcome = Ok(Outcome::Transversals {
                    transversals: transversals[..replayed].to_vec(),
                    complete: *complete && halted.is_none(),
                });
                (outcome, halted)
            }
            Ok(Outcome::FullBorders {
                maximal_frequent,
                minimal_infrequent,
                identification_calls,
                complete,
            }) => {
                let border = |maximal: bool| {
                    move |s: &Vec<usize>| StreamItem::BorderElement {
                        maximal,
                        itemset: s.clone(),
                    }
                };
                let (replayed_max, mut halted) = self.replay_items(maximal_frequent, border(true));
                let replayed_min = if halted.is_none() {
                    let (replayed, stop) = self.replay_items(minimal_infrequent, border(false));
                    halted = stop;
                    replayed
                } else {
                    0
                };
                let outcome = Ok(Outcome::FullBorders {
                    maximal_frequent: maximal_frequent[..replayed_max].to_vec(),
                    minimal_infrequent: minimal_infrequent[..replayed_min].to_vec(),
                    identification_calls: *identification_calls,
                    complete: *complete && halted.is_none(),
                });
                (outcome, halted)
            }
            other => (other.clone(), None),
        }
    }

    /// Replays one item list, returning how many items made it and whether
    /// (and why) the replay stopped.
    fn replay_items<T>(
        &mut self,
        items: &[T],
        to_item: impl Fn(&T) -> StreamItem,
    ) -> (usize, Option<StopReason>) {
        for (index, entry) in items.iter().enumerate() {
            if let SinkDirective::Stop(reason) = self.check() {
                return (index, Some(reason));
            }
            if let SinkDirective::Stop(reason) = self.item(to_item(entry)) {
                return (index + 1, Some(reason));
            }
        }
        (items.len(), None)
    }
}

/// A lone consumer is a solo sink: it forwards, counts and stops exactly
/// as its request asks.
impl ResultSink for Consumer {
    fn item(&mut self, item: StreamItem) -> SinkDirective {
        self.take(ChunkPayload::Item(item));
        self.check()
    }

    fn progress(&mut self, progress: StreamProgress) {
        self.take(ChunkPayload::Progress(progress));
    }

    fn check(&self) -> SinkDirective {
        match self.stop_reason() {
            Some(reason) => SinkDirective::Stop(reason),
            None => SinkDirective::Continue,
        }
    }
}

/// One execution and everyone consuming it.
pub(crate) struct Flight {
    /// Whether duplicates can attach (the flight is registered in the
    /// cache).  A private flight keeps no replay buffer.
    shared: bool,
    state: Mutex<FlightState>,
}

impl std::fmt::Debug for Flight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Flight")
            .field("shared", &self.shared)
            .finish_non_exhaustive()
    }
}

struct FlightState {
    /// Every chunk payload the execution produced, in order, regardless of
    /// whether the leader streamed: a follower enrolling at any point
    /// replays the identical sequence.
    buffer: Vec<ChunkPayload>,
    /// The request that started the execution.
    leader: Consumer,
    followers: Vec<Consumer>,
    /// No further joins: the execution has stopped (or is settling).
    completed: bool,
}

impl Flight {
    /// A flight led by `leader`; `shared` flights accept followers.
    pub(crate) fn new(leader: Consumer, shared: bool) -> Arc<Flight> {
        Arc::new(Flight {
            shared,
            state: Mutex::new(FlightState {
                buffer: Vec::new(),
                leader,
                followers: Vec::new(),
                completed: false,
            }),
        })
    }

    /// Attaches a follower, or hands it back if the execution has already
    /// stopped.
    pub(crate) fn attach(&self, follower: Consumer) -> Result<(), Consumer> {
        let mut state = lock_ignoring_poison(&self.state);
        if state.completed {
            return Err(follower);
        }
        state.followers.push(follower);
        Ok(())
    }
}

impl FlightState {
    /// The flight's directive at a yield boundary: it runs on while any
    /// consumer still wants the result.  A stopped leader with a live
    /// follower detaches (promotion) and consumes nothing further; once
    /// everyone has stopped, the flight stops with the reason of the last
    /// one standing.
    fn directive(&mut self) -> SinkDirective {
        let Some(reason) = self.leader.stop_reason() else {
            return SinkDirective::Continue;
        };
        if self.followers.iter().any(|f| f.stop_reason().is_none()) {
            if self.leader.halt.is_none() {
                self.leader.halt = Some(reason);
                self.leader.pos = self.buffer.len();
            }
            return SinkDirective::Continue;
        }
        self.completed = true;
        if self.leader.halt.is_none() {
            return SinkDirective::Stop(reason);
        }
        let last = self.followers.iter().rev().find_map(Consumer::stop_reason);
        SinkDirective::Stop(last.unwrap_or(reason))
    }

    /// Delivers every follower's terminal.  `outcome`/`halted`/`stats` are
    /// the execution's results; a follower that stopped early gets a
    /// partial built from the prefix it consumed instead.
    fn deliver(
        &mut self,
        outcome: &Result<Outcome, EngineError>,
        halted: Option<StopReason>,
        stats: &RequestStats,
    ) {
        self.completed = true;
        for mut follower in self.followers.drain(..) {
            follower.pump(&self.buffer);
            let response = follower.terminal(outcome, halted, stats, &self.buffer);
            follower.reply.send(StreamEvent::Done(response));
        }
    }
}

/// The leader's hold on its flight, and the sink the execution runs
/// through.  Settle it with [`FlightLease::finish`]; dropping it unsettled
/// (a panicking execution) fails the followers with an `internal` error and
/// frees the key, so nobody waits forever.
pub(crate) struct FlightLease {
    /// The cache and key the result settles into (`None` when the request
    /// is not cached).
    home: Option<(Arc<QueryCache>, CacheKey)>,
    flight: Arc<Flight>,
    settled: bool,
}

impl FlightLease {
    /// A lease on `flight`, settling into `home`.
    pub(crate) fn new(home: Option<(Arc<QueryCache>, CacheKey)>, flight: Arc<Flight>) -> Self {
        FlightLease {
            home,
            flight,
            settled: false,
        }
    }

    /// The lease of an uncached request: a private flight, nothing to
    /// install.
    pub(crate) fn private(leader: Consumer) -> Self {
        FlightLease::new(None, Flight::new(leader, false))
    }

    /// Settles the flight and returns the leader's terminal.  The cache
    /// step comes first: the pending flight is retired and a natural end
    /// (`halted` is `None`) is installed in one critical section.  Then
    /// every follower gets its terminal.  The leader answers with the
    /// execution's outcome unless it detached, in which case it answers
    /// with the partial it consumed.
    pub(crate) fn finish(
        mut self,
        outcome: Result<Outcome, EngineError>,
        halted: Option<StopReason>,
        info: ExecInfo,
        stats: RequestStats,
    ) -> Response {
        self.settled = true;
        if let Some((cache, key)) = self.home.take() {
            let result = halted.is_none().then(|| CachedResult {
                outcome: outcome.clone(),
                info,
            });
            cache.settle(&key, &self.flight, result);
        }
        let mut state = lock_ignoring_poison(&self.flight.state);
        state.deliver(&outcome, halted, &stats);
        state
            .leader
            .terminal(&outcome, halted, &stats, &state.buffer)
    }

    /// Records one payload, delivers it to every live consumer (leader
    /// first, so its frame order matches a solo run), and computes the
    /// flight's directive.  A private flight has only its leader and keeps
    /// no buffer.
    fn push(&mut self, payload: ChunkPayload) -> SinkDirective {
        let mut guard = lock_ignoring_poison(&self.flight.state);
        let state = &mut *guard;
        if !self.flight.shared {
            state.leader.take(payload);
        } else {
            if state.leader.halt.is_none() {
                state.leader.take(payload.clone());
            }
            state.buffer.push(payload);
            for follower in &mut state.followers {
                follower.pump(&state.buffer);
            }
        }
        state.directive()
    }
}

impl Drop for FlightLease {
    fn drop(&mut self) {
        if self.settled {
            return;
        }
        if let Some((cache, key)) = self.home.take() {
            cache.settle(&key, &self.flight, None);
        }
        let outcome = Err(EngineError::internal(
            "the coalesced leader execution failed; retry the request",
        ));
        let stats = RequestStats {
            solver: "-".to_string(),
            ..RequestStats::default()
        };
        lock_ignoring_poison(&self.flight.state).deliver(&outcome, None, &stats);
    }
}

/// The directive reported to the running op is the *flight's*, not the
/// leader's: the execution keeps going while any participant is still
/// consuming, which is what promotes a follower when the leader stops.
impl ResultSink for FlightLease {
    fn item(&mut self, item: StreamItem) -> SinkDirective {
        self.push(ChunkPayload::Item(item))
    }

    fn progress(&mut self, progress: StreamProgress) {
        // Progress checkpoints never stop an op; the directive is dropped.
        let _ = self.push(ChunkPayload::Progress(progress));
    }

    fn check(&self) -> SinkDirective {
        lock_ignoring_poison(&self.flight.state).directive()
    }
}

/// Builds the partial outcome for a participant that stopped after
/// consuming `items` result items (`pos` buffer entries), in the order it
/// consumed them — the same prefix semantics a cached replay gives a
/// cancelled or quota-limited client.
fn partial_outcome(
    kind: &str,
    buffer: &[ChunkPayload],
    items: u64,
    pos: usize,
    reason: StopReason,
) -> Result<Outcome, EngineError> {
    let taken: Vec<&StreamItem> = buffer
        .iter()
        .filter_map(|payload| match payload {
            ChunkPayload::Item(item) => Some(item),
            ChunkPayload::Progress(_) => None,
        })
        .take(items as usize)
        .collect();
    if taken.is_empty() && reason == StopReason::Cancelled {
        return Err(EngineError::cancelled(
            "request cancelled before its coalesced flight produced a result",
        ));
    }
    match kind {
        "enumerate" => Ok(Outcome::Transversals {
            transversals: taken
                .into_iter()
                .map(|item| match item {
                    StreamItem::Transversal(t) => t.clone(),
                    StreamItem::BorderElement { itemset, .. } => itemset.clone(),
                })
                .collect(),
            complete: false,
        }),
        "mine_full" => {
            let mut maximal_frequent = Vec::new();
            let mut minimal_infrequent = Vec::new();
            for item in taken {
                if let StreamItem::BorderElement { maximal, itemset } = item {
                    if *maximal {
                        maximal_frequent.push(itemset.clone());
                    } else {
                        minimal_infrequent.push(itemset.clone());
                    }
                }
            }
            // Telemetry from the last progress checkpoint the participant
            // consumed; items is the floor when none was.
            let identification_calls = buffer[..pos.min(buffer.len())]
                .iter()
                .rev()
                .find_map(|payload| match payload {
                    ChunkPayload::Progress(p) => Some(p.duality_calls),
                    ChunkPayload::Item(_) => None,
                })
                .unwrap_or(items);
            Ok(Outcome::FullBorders {
                maximal_frequent,
                minimal_infrequent,
                identification_calls,
                complete: false,
            })
        }
        // Item-less kinds (`check`, `mine`, `keys`, `stats`) have no partial
        // shape; mirror the solo error a stopped run answers with.
        _ => Err(match reason {
            StopReason::Cancelled => {
                EngineError::cancelled("request cancelled before its coalesced flight completed")
            }
            StopReason::ItemQuota => {
                EngineError::execute("request stopped by max-items before completing")
            }
        }),
    }
}
