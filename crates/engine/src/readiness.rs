//! The epoll readiness loop: every serve connection of a daemon multiplexed
//! onto **one** thread.
//!
//! Thread-per-session transport caps a daemon at a few thousand connections
//! (one stack, one scheduler slot each) and lets a single slow reader pin a
//! worker behind a blocking `write`.  This loop replaces that: connections
//! are non-blocking state machines ([`crate::engine::SessionMux`] plus a
//! read/write buffer pair), readiness comes from the raw-syscall `epoll`
//! shim, and solver work still runs on the engine's shared worker pool —
//! workers hand results back through each session's reply channel and poke
//! the loop's self-pipe waker.  A cache hit is answered on this thread, at
//! submission, and leaves in the same service pass that read its line.
//!
//! Backpressure is explicit at every boundary:
//!
//! * **input** — a session whose job submission would block (shared queue
//!   full: the refused job waits in the session's backlog) or whose reorder
//!   buffer is at capacity stops consuming buffered lines and drops its read
//!   interest; level-triggered epoll re-reports the socket once the session
//!   retries.
//! * **output** — response and chunk bytes accumulate in a per-session write
//!   buffer that drains opportunistically (one `write` syscall flushes every
//!   frame that is ready: chunk coalescing under slow consumers).  A session
//!   more than [`DEFAULT_WRITE_CAP`] bytes behind is treated as dead — its
//!   in-flight jobs are cancelled and the connection dropped — because a
//!   consumer that refuses to read an entire cap's worth of buffering is
//!   indistinguishable from one that is gone.
//!
//! On platforms without epoll (`Epoll::new()` returns `Unsupported`) the
//! transports fall back to the thread-per-session accept loop, whose
//! sessions run the same `SessionMux` through `Engine::serve_with`, so the
//! portable behaviour is unchanged.

use crate::engine::{Engine, MuxFeed, ReplySender, ServeOptions, SessionMux};
use crate::lock_ignoring_poison;
use crate::stream::StreamEvent;
use crate::transport::TransportSummary;
use epoll::{Epoll, Event, Interest};
use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Default hard cap on a session's buffered unsent output
/// ([`ServeOptions::write_cap`] overrides it).
pub(crate) const DEFAULT_WRITE_CAP: usize = 8 * 1024 * 1024;

/// Epoll token of the accept listener.
const LISTENER_TOKEN: u64 = 0;
/// Epoll token of the self-pipe waker's read end.
const WAKER_TOKEN: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_SESSION_TOKEN: u64 = 2;

/// Bytes read from one socket per service pass before yielding to the other
/// sessions (level-triggered epoll re-reports the remainder).
const READ_BURST: usize = 256 * 1024;

/// Give up after this many consecutive accept failures (mirrors the
/// thread-per-session loop's limit).
const MAX_CONSECUTIVE_ACCEPT_ERRORS: u32 = 100;

/// How long to sleep in the epoll wait while any session is stalled on the
/// shared job queue or its reorder buffer, so retries happen promptly.
const STALL_RETRY_MS: i32 = 5;

/// A listener the readiness loop can accept from without blocking.
pub(crate) trait ReadyListener: AsRawFd {
    /// The accepted connection type.
    type Stream: ReadyStream;
    /// Toggles O_NONBLOCK on the listening socket.
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()>;
    /// Accepts one pending connection.
    fn accept_stream(&self) -> io::Result<Self::Stream>;
}

/// A connection the readiness loop can service without blocking.
pub(crate) trait ReadyStream: Read + Write + AsRawFd {
    /// Toggles O_NONBLOCK on the connection.
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()>;
    /// Half-closes the connection.
    fn shutdown_side(&self, how: Shutdown) -> io::Result<()>;
}

impl ReadyListener for UnixListener {
    type Stream = UnixStream;
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        UnixListener::set_nonblocking(self, nonblocking)
    }
    fn accept_stream(&self) -> io::Result<UnixStream> {
        self.accept().map(|(stream, _)| stream)
    }
}

impl ReadyStream for UnixStream {
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        UnixStream::set_nonblocking(self, nonblocking)
    }
    fn shutdown_side(&self, how: Shutdown) -> io::Result<()> {
        UnixStream::shutdown(self, how)
    }
}

impl ReadyListener for TcpListener {
    type Stream = TcpStream;
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        TcpListener::set_nonblocking(self, nonblocking)
    }
    fn accept_stream(&self) -> io::Result<TcpStream> {
        self.accept().map(|(stream, _)| stream)
    }
}

impl ReadyStream for TcpStream {
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        TcpStream::set_nonblocking(self, nonblocking)
    }
    fn shutdown_side(&self, how: Shutdown) -> io::Result<()> {
        TcpStream::shutdown(self, how)
    }
}

/// Wakes the loop from worker threads: each delivered reply event records its
/// session's token in the dirty set and writes one byte down a non-blocking
/// self-pipe registered in the epoll set.  A full pipe is fine — a wakeup is
/// already pending.
struct LoopWaker {
    dirty: Mutex<HashSet<u64>>,
    pipe_tx: UnixStream,
}

impl LoopWaker {
    fn wake(&self, token: u64) {
        lock_ignoring_poison(&self.dirty).insert(token);
        let _ = (&self.pipe_tx).write(&[1]);
    }

    fn take_dirty(&self) -> HashSet<u64> {
        std::mem::take(&mut *lock_ignoring_poison(&self.dirty))
    }
}

/// One multiplexed connection: the socket, its session state machine, and
/// the read/write staging buffers.
struct Conn<S> {
    stream: S,
    mux: SessionMux,
    replies: Receiver<StreamEvent>,
    /// Holds the `connections` stats gauge up until the connection closes.
    _connection: crate::engine::ConnectionGuard,
    /// Bytes received but not yet consumed as complete lines.
    read_buf: Vec<u8>,
    /// Rendered response bytes not yet accepted by the socket.
    out: Vec<u8>,
    /// How much of `out` has been written.
    out_pos: usize,
    /// The interest set currently registered with epoll.
    interest: Interest,
    /// A buffered line could not be fed, or refused jobs still wait in the
    /// session's backlog (job queue or reorder buffer full).
    stalled: bool,
    /// No more input will be read (EOF, peer hangup, or server drain).
    read_closed: bool,
    /// The connection is broken: in-flight jobs cancelled, close ASAP.
    failed: bool,
    /// Hard cap on `out.len() - out_pos` before the session is declared dead.
    write_cap: usize,
}

/// What to do with a connection after a service pass.
#[derive(PartialEq, Eq)]
enum Verdict {
    Keep,
    Close,
}

impl<S: ReadyStream> Conn<S> {
    /// One full service pass: drain worker replies, read and feed input,
    /// drain again (cache hits answered while the lines were fed), flush
    /// output, then decide whether the connection stays.
    fn service(&mut self, can_read: bool) -> Verdict {
        self.drain_replies();
        if can_read && !self.read_closed && !self.failed && !self.stalled {
            self.fill_read_buf();
        }
        self.process_lines();
        self.drain_replies();
        self.flush();
        if !self.failed && self.unsent() > self.write_cap {
            // The consumer is not keeping up by an entire cap's worth of
            // output: treat it as dead so its jobs stop burning workers.
            self.fail();
        }
        if self.failed {
            return Verdict::Close;
        }
        if self.read_closed && !self.stalled && self.mux.is_idle() && self.unsent() == 0 {
            let _ = self.stream.shutdown_side(Shutdown::Write);
            return Verdict::Close;
        }
        Verdict::Keep
    }

    /// Applies every reply the session has received so far.
    fn drain_replies(&mut self) {
        while let Ok(event) = self.replies.try_recv() {
            self.mux.on_event(event, &mut self.out);
        }
    }

    /// Reads up to [`READ_BURST`] bytes without blocking.
    fn fill_read_buf(&mut self) {
        let mut chunk = [0u8; 16 * 1024];
        let mut taken = 0usize;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    break;
                }
                Ok(n) => {
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    taken += n;
                    if taken >= READ_BURST {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.fail();
                    break;
                }
            }
        }
    }

    /// Retries the session's backlog of refused jobs, then feeds every
    /// complete buffered line to the session state machine, stopping
    /// (without consuming) at a stall.  A backlog left afterwards counts as
    /// a stall, so the loop retries it promptly — including a job the full
    /// queue refused while its (consumed) line was being fed.
    fn process_lines(&mut self) {
        if self.failed {
            return;
        }
        self.stalled = !self.mux.pump();
        let mut start = 0usize;
        while let Some(offset) = self.read_buf[start..].iter().position(|&b| b == b'\n') {
            let end = start + offset;
            let mut line = &self.read_buf[start..end];
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            let Ok(text) = std::str::from_utf8(line) else {
                // The blocking path surfaces invalid UTF-8 as a session read
                // error; the equivalent here is failing the connection.
                self.fail();
                break;
            };
            if self.mux.feed_line(text, &mut self.out) == MuxFeed::Stalled {
                self.stalled = true;
                break;
            }
            start = end + 1;
        }
        if start > 0 {
            self.read_buf.drain(..start);
        }
        self.stalled |= !self.mux.pump();
    }

    /// Writes as much buffered output as the socket accepts right now.
    fn flush(&mut self) {
        while self.out_pos < self.out.len() && !self.failed {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    self.fail();
                    break;
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.fail();
                    break;
                }
            }
        }
        if self.out_pos >= self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
    }

    /// Bytes accepted into the write buffer but not yet onto the socket.
    fn unsent(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Marks the connection broken and cancels its in-flight jobs.
    fn fail(&mut self) {
        if !self.failed {
            self.failed = true;
            self.mux.abort();
        }
    }

    /// The interest set this connection needs right now: input only while the
    /// session can consume it, output only while bytes are waiting.
    fn wanted_interest(&self) -> Interest {
        Interest {
            readable: !self.read_closed && !self.stalled && !self.failed,
            writable: self.unsent() > 0,
        }
    }
}

/// Serves `listener` through an epoll readiness loop until `stop` trips and
/// every session drains.  Returns `Unsupported` (before accepting anything)
/// on platforms without epoll so callers can fall back to
/// [`crate::transport::run_session_loop`].
pub(crate) fn serve_ready<L: ReadyListener>(
    listener: &L,
    stop: &AtomicBool,
    engine: &Arc<Engine>,
    options: &ServeOptions,
) -> io::Result<TransportSummary> {
    let epoll = Epoll::new()?;
    listener.set_nonblocking(true)?;
    epoll.add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
    let (pipe_rx, pipe_tx) = UnixStream::pair()?;
    pipe_rx.set_nonblocking(true)?;
    pipe_tx.set_nonblocking(true)?;
    epoll.add(pipe_rx.as_raw_fd(), WAKER_TOKEN, Interest::READ)?;
    let waker = Arc::new(LoopWaker {
        dirty: Mutex::new(HashSet::new()),
        pipe_tx,
    });

    let write_cap = options.write_cap.unwrap_or(DEFAULT_WRITE_CAP);
    let mut sessions: HashMap<u64, Conn<L::Stream>> = HashMap::new();
    let mut next_token = FIRST_SESSION_TOKEN;
    let mut totals = TransportSummary::default();
    let mut events: Vec<Event> = Vec::new();
    let mut accept_errors = 0u32;
    let mut draining = false;

    loop {
        if !draining && stop.load(Ordering::SeqCst) {
            // Stop accepting and reading; in-flight requests finish and
            // flush, matching the thread-per-session drain semantics.  Every
            // session is serviced once right away so the ones that are
            // already idle close now instead of waiting on a readiness event
            // that will never come.
            draining = true;
            let _ = epoll.delete(listener.as_raw_fd());
            for token in sessions.keys().copied().collect::<Vec<_>>() {
                if let Some(conn) = sessions.get_mut(&token) {
                    conn.read_closed = true;
                }
                service_token(&epoll, &mut sessions, &mut totals, token, false);
            }
        }
        if draining && sessions.is_empty() {
            break;
        }

        let any_stalled = sessions.values().any(|c| c.stalled);
        let timeout_ms = if any_stalled { STALL_RETRY_MS } else { -1 };
        epoll.wait(&mut events, timeout_ms)?;

        // Which sessions need service this tick, and whether their socket
        // reported input readiness (hangups and errors are surfaced by
        // reading: buffered bytes first, then EOF or the error itself).
        let mut touched: HashMap<u64, bool> = HashMap::new();
        let mut accept_ready = false;
        let mut waker_ready = false;
        for event in &events {
            match event.token {
                LISTENER_TOKEN => accept_ready = true,
                WAKER_TOKEN => waker_ready = true,
                token => {
                    let can_read = event.readable || event.hangup || event.error;
                    *touched.entry(token).or_insert(false) |= can_read;
                }
            }
        }
        if waker_ready {
            let mut sink = [0u8; 256];
            while matches!((&pipe_rx).read(&mut sink), Ok(n) if n > 0) {}
        }
        for token in waker.take_dirty() {
            touched.entry(token).or_insert(false);
        }
        for (token, conn) in sessions.iter() {
            if conn.stalled {
                touched.entry(*token).or_insert(false);
            }
        }

        // Re-check the flag here: the wake-up connection a shutdown handle
        // makes right after raising `stop` must not be accepted and counted.
        if accept_ready && !draining && !stop.load(Ordering::SeqCst) {
            accept_burst(
                listener,
                &epoll,
                engine,
                options,
                &waker,
                write_cap,
                &mut sessions,
                &mut next_token,
                &mut totals,
                &mut accept_errors,
            )?;
        }

        for (token, can_read) in touched {
            service_token(&epoll, &mut sessions, &mut totals, token, can_read);
        }
    }
    Ok(totals)
}

/// Runs one service pass on a session (if it still exists), updates its epoll
/// interest set, and retires it — counters folded into `totals` — once it is
/// done or broken.
fn service_token<S: ReadyStream>(
    epoll: &Epoll,
    sessions: &mut HashMap<u64, Conn<S>>,
    totals: &mut TransportSummary,
    token: u64,
    can_read: bool,
) {
    let Some(conn) = sessions.get_mut(&token) else {
        return;
    };
    let mut close = conn.service(can_read) == Verdict::Close;
    if !close {
        let wanted = conn.wanted_interest();
        if wanted != conn.interest {
            if epoll.modify(conn.stream.as_raw_fd(), token, wanted).is_ok() {
                conn.interest = wanted;
            } else {
                conn.fail();
                close = true;
            }
        }
    }
    if close {
        let conn = sessions.remove(&token).expect("present above");
        let summary = conn.mux.summary();
        totals.requests += summary.requests;
        totals.errors += summary.errors;
        let _ = epoll.delete(conn.stream.as_raw_fd());
    }
}

/// Accepts every pending connection (the listener is level-triggered, so
/// stopping at `WouldBlock` is complete).
#[allow(clippy::too_many_arguments)]
fn accept_burst<L: ReadyListener>(
    listener: &L,
    epoll: &Epoll,
    engine: &Arc<Engine>,
    options: &ServeOptions,
    waker: &Arc<LoopWaker>,
    write_cap: usize,
    sessions: &mut HashMap<u64, Conn<L::Stream>>,
    next_token: &mut u64,
    totals: &mut TransportSummary,
    accept_errors: &mut u32,
) -> io::Result<()> {
    loop {
        let stream = match listener.accept_stream() {
            Ok(stream) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                *accept_errors += 1;
                if *accept_errors >= MAX_CONSECUTIVE_ACCEPT_ERRORS {
                    return Err(e);
                }
                // Back off briefly so an accept-error storm (EMFILE and
                // friends) does not spin the loop hot.
                std::thread::sleep(Duration::from_millis(1));
                break;
            }
        };
        *accept_errors = 0;
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let token = *next_token;
        *next_token += 1;
        let (reply_tx, reply_rx) = mpsc::channel::<StreamEvent>();
        let wake = Arc::clone(waker);
        let loop_thread = std::thread::current().id();
        let reply = ReplySender::new(move |event| {
            let delivered = reply_tx.send(event).is_ok();
            // A reply sent on the loop thread (a cache hit answered at
            // submission) is drained by the service pass that sent it.
            if delivered && std::thread::current().id() != loop_thread {
                wake.wake(token);
            }
            delivered
        });
        let mux = engine.session_mux(options, reply, false);
        if epoll
            .add(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            continue; // mux drop releases the session gauge
        }
        sessions.insert(
            token,
            Conn {
                stream,
                mux,
                replies: reply_rx,
                _connection: engine.track_connection(),
                read_buf: Vec::new(),
                out: Vec::new(),
                out_pos: 0,
                interest: Interest::READ,
                stalled: false,
                read_closed: false,
                failed: false,
                write_cap,
            },
        );
        totals.connections += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::engine::{Engine, EngineConfig, ServeOptions};
    use crate::policy::{SolverKind, SolverPolicy};
    use crate::transport::SocketServer;
    use crate::wire::{self, Command};
    use qld_hypergraph::Hypergraph;
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Holds every duality decision until opened (10 s at most).
    struct Gate {
        entered: AtomicU64,
        open: AtomicBool,
        /// Decisions that got through.
        left: AtomicU64,
    }

    impl Gate {
        fn new(open: bool) -> Arc<Gate> {
            Arc::new(Gate {
                entered: AtomicU64::new(0),
                open: AtomicBool::new(open),
                left: AtomicU64::new(0),
            })
        }

        /// Decisions held at the gate right now (`left` is read first, so
        /// the difference cannot underflow).
        fn held(&self) -> u64 {
            let left = self.left.load(Ordering::SeqCst);
            self.entered.load(Ordering::SeqCst) - left
        }
    }

    impl SolverPolicy for Gate {
        fn choose(&self, _g: &Hypergraph, _h: &Hypergraph) -> SolverKind {
            self.entered.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(10);
            while !self.open.load(Ordering::SeqCst) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            self.left.fetch_add(1, Ordering::SeqCst);
            SolverKind::BmTree
        }

        fn name(&self) -> &'static str {
            "gate"
        }
    }

    fn read_line(reader: &mut BufReader<UnixStream>) -> String {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    }

    #[test]
    fn a_job_refused_by_the_full_queue_is_retried() {
        let path = std::env::temp_dir().join(format!("qld-backlog-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let gate = Gate::new(false);
        let engine = Arc::new(Engine::new(EngineConfig {
            workers: 1,
            queue_capacity: 1,
            cache: false,
            policy: Arc::clone(&gate) as Arc<dyn SolverPolicy>,
            ..EngineConfig::default()
        }));
        let server = SocketServer::bind(&path).unwrap();
        let shutdown = server.shutdown_handle();
        let runner = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || server.run(&engine, ServeOptions::default()))
        };
        let check = "check 0,1;2,3 0,2;0,3;1,2;1,3\n";

        // Session A: one check holds the only worker, a second fills the
        // one-slot queue.  A cancel is answered by the session itself, so its
        // reply proves the line before it was submitted.
        let mut a = UnixStream::connect(&path).unwrap();
        a.write_all(check.as_bytes()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while gate.entered.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "the worker never started");
            std::thread::sleep(Duration::from_millis(1));
        }
        a.write_all(format!("{check}cancel id=99\n").as_bytes())
            .unwrap();
        let mut a_reader = BufReader::new(a.try_clone().unwrap());
        assert!(read_line(&mut a_reader).contains("\"kind\":\"cancel\""));

        // Session B: its `stats` meets the full queue and waits in the
        // session's backlog; nothing else of B's is in flight to wake it.
        let mut b = UnixStream::connect(&path).unwrap();
        b.write_all(b"stats\ncancel id=99\n").unwrap();
        b.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut b_reader = BufReader::new(b.try_clone().unwrap());
        assert!(read_line(&mut b_reader).contains("\"kind\":\"cancel\""));

        gate.open.store(true, Ordering::SeqCst);
        let stats = read_line(&mut b_reader);
        assert!(stats.contains("\"kind\":\"stats\""), "{stats:?}");
        for _ in 0..2 {
            assert!(read_line(&mut a_reader).contains("\"dual\":true"));
        }
        shutdown.shutdown();
        runner.join().unwrap().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_cached_key_is_answered_while_every_worker_is_held() {
        let path = std::env::temp_dir().join(format!("qld-held-hit-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let gate = Gate::new(true);
        let engine = Arc::new(Engine::new(EngineConfig {
            workers: 2,
            policy: Arc::clone(&gate) as Arc<dyn SolverPolicy>,
            ..EngineConfig::default()
        }));
        let server = SocketServer::bind(&path).unwrap();
        let shutdown = server.shutdown_handle();
        let runner = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || server.run(&engine, ServeOptions::default()))
        };

        // Warm the cache through one session while the gate is open.
        let mut a = UnixStream::connect(&path).unwrap();
        a.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut a_reader = BufReader::new(a.try_clone().unwrap());
        a.write_all(b"check 0,1;2,3 0,2;0,3;1,2;1,3\n").unwrap();
        let warm = read_line(&mut a_reader);
        assert!(warm.contains("\"cache_hit\":false"), "{warm}");

        // Hold both workers with two uncached checks from a second session.
        gate.open.store(false, Ordering::SeqCst);
        let mut b = UnixStream::connect(&path).unwrap();
        b.write_all(
            b"check 0,1;2,3;4,5 0,2,4;0,2,5;0,3,4;0,3,5;1,2,4;1,2,5;1,3,4;1,3,5\ncheck 0,1 0;1\n",
        )
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while gate.held() < 2 {
            assert!(Instant::now() < deadline, "the workers were never held");
            std::thread::sleep(Duration::from_millis(1));
        }
        let through = gate.left.load(Ordering::SeqCst);

        // A permuted spelling of the warm key, over the socket and through a
        // batch, is answered with no worker free.
        a.write_all(b"check 2,3;0,1 1,3;1,2;0,3;0,2 id=hot\n")
            .unwrap();
        let hot = read_line(&mut a_reader);
        assert!(hot.contains("\"client_id\":\"hot\""), "{hot}");
        assert!(hot.contains("\"dual\":true"), "{hot}");
        assert!(hot.contains("\"cache_hit\":true"), "{hot}");
        assert!(hot.contains("\"worker\":0"), "{hot}");
        let Ok(Command::Query(request)) =
            wire::parse_line("check 0,1;2,3 1,3;0,2;1,2;0,3").map(|parsed| parsed.command)
        else {
            panic!("the check parses");
        };
        let batch = engine.run_batch(vec![request]);
        assert!(
            batch[0].stats.cache_hit && batch[0].stats.worker == 0,
            "{batch:?}"
        );
        assert_eq!(gate.held(), 2, "both workers were still held");
        assert_eq!(gate.left.load(Ordering::SeqCst), through);

        gate.open.store(true, Ordering::SeqCst);
        b.shutdown(std::net::Shutdown::Write).unwrap();
        b.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let held: Vec<String> = BufReader::new(b).lines().map(Result::unwrap).collect();
        assert_eq!(held.len(), 2, "{held:?}");
        assert!(held.iter().all(|line| line.contains("\"cache_hit\":false")));
        drop(a);
        shutdown.shutdown();
        runner.join().unwrap().unwrap();
        let _ = std::fs::remove_file(&path);
    }
}
