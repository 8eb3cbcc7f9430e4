//! Stampede tests for the engine's single-flight coalescing layer: N
//! concurrent identical requests must execute the solver exactly once, with
//! every follower answered byte-identically to the leader (modulo its own
//! `id`/`client_id` envelope), both in-process and over the Unix-socket
//! transport — and a cancelled leader must detach without killing the
//! flight for its followers.
//!
//! Determinism: the tests gate the *execution* inside a custom
//! [`SolverPolicy`] (every duality decision — including each step of a
//! transversal enumeration — consults the policy), so the leader is provably
//! mid-flight while the duplicates join.  No sleeps are load-bearing; the
//! spin loops only bound how long a regression can hang the suite.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use qld_engine::{
    Engine, EngineConfig, Outcome, Request, SolverKind, SolverPolicy, StopReason, StreamEvent,
    StreamRunOptions,
};
use qld_hypergraph::{generators, Hypergraph};

/// A policy that counts how many times it is consulted and can hold the
/// calling execution at a chosen call number until the test releases it.
struct GatePolicy {
    calls: AtomicU64,
    /// Block the execution when `calls` reaches this value...
    gate_at: u64,
    /// ...until this flips to `true`.
    release: AtomicBool,
}

impl GatePolicy {
    fn new(gate_at: u64) -> Arc<GatePolicy> {
        Arc::new(GatePolicy {
            calls: AtomicU64::new(0),
            gate_at,
            release: AtomicBool::new(false),
        })
    }

    fn calls(&self) -> u64 {
        self.calls.load(Ordering::SeqCst)
    }

    fn release(&self) {
        self.release.store(true, Ordering::SeqCst);
    }
}

impl SolverPolicy for GatePolicy {
    fn choose(&self, _g: &Hypergraph, _h: &Hypergraph) -> SolverKind {
        let call = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
        if call == self.gate_at {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !self.release.load(Ordering::SeqCst) && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(1));
            }
        }
        SolverKind::BmTree
    }

    fn name(&self) -> &'static str {
        "gate"
    }
}

fn gated_engine(policy: &Arc<GatePolicy>, workers: usize) -> Engine {
    Engine::new(EngineConfig {
        workers,
        cache: true,
        policy: Arc::clone(policy) as Arc<dyn SolverPolicy>,
        ..EngineConfig::default()
    })
}

fn check_request() -> Request {
    let li = generators::matching_instance(3);
    Request::DecideDuality { g: li.g, h: li.h }
}

fn enumerate_request() -> Request {
    // matching(3) has exactly 2^3 = 8 minimal transversals, so a complete
    // enumeration makes 9 policy-routed duality calls (one per item plus
    // the final "dual" confirmation).
    let li = generators::matching_instance(3);
    Request::EnumerateTransversals {
        g: li.g,
        limit: None,
    }
}

/// Spins until `cond` holds (or panics after 10 s with `what`).
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn one_shot_stampede_executes_the_solver_once() {
    const K: usize = 8;
    let policy = GatePolicy::new(1); // hold the very first decision
    let eng = Arc::new(gated_engine(&policy, 2));

    let mut stampede = Vec::new();
    for _ in 0..K {
        let eng = Arc::clone(&eng);
        stampede.push(thread::spawn(move || eng.run_one(check_request())));
    }
    // Provably concurrent: the leader is parked inside its first duality
    // decision until every other request has attached to its flight.
    wait_until("all duplicates to join the flight", || {
        eng.coalesce_stats().1 >= (K - 1) as u64
    });
    policy.release();

    let responses: Vec<_> = stampede.into_iter().map(|t| t.join().unwrap()).collect();
    assert_eq!(policy.calls(), 1, "the solver must run exactly once");
    assert_eq!(eng.coalesce_stats(), (1, (K - 1) as u64));
    assert_eq!(eng.cache_stats().entries, 1);
    // Followers answer byte-identically to the leader: same outcome, same
    // telemetry, and (single-request sessions) even the same `id`.
    let lines: Vec<String> = responses.iter().map(|r| r.to_json_line()).collect();
    for line in &lines {
        assert_eq!(line, &lines[0], "stampede responses must not differ");
    }
    assert_eq!(
        responses[0].outcome,
        Ok(Outcome::Duality {
            dual: true,
            witness: None
        })
    );
    assert!(responses.iter().all(|r| !r.stats.cache_hit));
}

#[test]
fn streamed_stampede_fans_out_byte_identical_chunks() {
    const FOLLOWERS: usize = 4;
    // Hold the third duality decision: the leader has produced exactly two
    // chunks when the followers join, so they replay two buffered chunks and
    // then ride the live stream for the remaining six.
    let policy = GatePolicy::new(3);
    let eng = Arc::new(gated_engine(&policy, 2));

    let leader = eng.run_streaming(enumerate_request(), StreamRunOptions::default());
    let mut leader_events = Vec::new();
    for _ in 0..2 {
        match leader.next_event_timeout(Duration::from_secs(10)) {
            Some(event @ StreamEvent::Chunk(_)) => leader_events.push(event),
            other => panic!("expected a chunk frame, got {other:?}"),
        }
    }
    let followers: Vec<_> = (0..FOLLOWERS)
        .map(|i| {
            eng.run_streaming(
                enumerate_request(),
                StreamRunOptions {
                    client_id: Some(format!("f{i}")),
                    ..StreamRunOptions::default()
                },
            )
        })
        .collect();
    wait_until("followers to subscribe", || {
        eng.coalesce_stats().1 >= FOLLOWERS as u64
    });
    policy.release();

    leader_events.extend(&leader);
    let follower_events: Vec<Vec<StreamEvent>> =
        followers.iter().map(|f| f.into_iter().collect()).collect();

    assert_eq!(policy.calls(), 9, "one execution: 8 items + final dual");
    assert_eq!(eng.coalesce_stats(), (1, FOLLOWERS as u64));

    let items = |events: &[StreamEvent]| -> Vec<ChunkKey> {
        events
            .iter()
            .filter_map(|e| match e {
                StreamEvent::Chunk(frame) => Some((frame.seq, frame.to_json_line())),
                StreamEvent::Done(_) => None,
            })
            .collect()
    };
    type ChunkKey = (u64, String);
    let leader_chunks = items(&leader_events);
    assert_eq!(leader_chunks.len(), 8);
    for (i, (seq, _)) in leader_chunks.iter().enumerate() {
        assert_eq!(*seq, i as u64, "per-request chunk numbering");
    }
    for (f, events) in follower_events.iter().enumerate() {
        let chunks = items(events);
        // Byte-identical modulo the follower's own envelope: strip the
        // correlation token it asked for and the frames must match the
        // leader's exactly (same `id` here — single-request handles).
        let stripped: Vec<ChunkKey> = chunks
            .iter()
            .map(|(seq, line)| (*seq, line.replace(&format!(",\"client_id\":\"f{f}\""), "")))
            .collect();
        assert_eq!(stripped, leader_chunks, "follower {f} chunk stream");
        let Some(StreamEvent::Done(terminal)) = events.last() else {
            panic!("follower {f} stream did not end in a terminal");
        };
        assert_eq!(terminal.outcome, leader_terminal(&leader_events).outcome);
        assert_eq!(terminal.halted, None);
        assert_eq!(terminal.chunks, Some(8));
    }
    match &leader_terminal(&leader_events).outcome {
        Ok(Outcome::Transversals {
            transversals,
            complete,
        }) => {
            assert!(*complete);
            assert_eq!(transversals.len(), 8);
        }
        other => panic!("unexpected terminal outcome: {other:?}"),
    }
}

fn leader_terminal(events: &[StreamEvent]) -> &qld_engine::Response {
    match events.last() {
        Some(StreamEvent::Done(response)) => response,
        other => panic!("leader stream did not end in a terminal: {other:?}"),
    }
}

#[test]
fn cancelled_leader_detaches_and_followers_get_the_full_stream() {
    // Hold the third decision again: two chunks are out when the follower
    // joins and the leader is cancelled — mid-stream by construction.
    let policy = GatePolicy::new(3);
    let eng = Arc::new(gated_engine(&policy, 2));

    let leader = eng.run_streaming(enumerate_request(), StreamRunOptions::default());
    for _ in 0..2 {
        match leader.next_event_timeout(Duration::from_secs(10)) {
            Some(StreamEvent::Chunk(_)) => {}
            other => panic!("expected a chunk frame, got {other:?}"),
        }
    }
    let follower = eng.run_streaming(enumerate_request(), StreamRunOptions::default());
    wait_until("the follower to subscribe", || eng.coalesce_stats().1 >= 1);
    leader.cancel_token().cancel();
    policy.release();

    // The follower sees the whole stream: the flight outlived its leader.
    let follower_events: Vec<StreamEvent> = (&follower).into_iter().collect();
    let chunk_count = follower_events
        .iter()
        .filter(|e| matches!(e, StreamEvent::Chunk(_)))
        .count();
    assert_eq!(chunk_count, 8, "follower stream is complete");
    let Some(StreamEvent::Done(f_terminal)) = follower_events.last() else {
        panic!("follower stream did not end in a terminal");
    };
    assert_eq!(f_terminal.halted, None);
    match &f_terminal.outcome {
        Ok(Outcome::Transversals {
            transversals,
            complete,
        }) => {
            assert!(*complete);
            assert_eq!(transversals.len(), 8);
        }
        other => panic!("unexpected follower outcome: {other:?}"),
    }

    // The leader detached with the partial it had consumed.
    let leader_rest: Vec<StreamEvent> = (&leader).into_iter().collect();
    let Some(StreamEvent::Done(l_terminal)) = leader_rest.last() else {
        panic!("leader stream did not end in a terminal");
    };
    assert_eq!(l_terminal.halted, Some(StopReason::Cancelled));
    match &l_terminal.outcome {
        Ok(Outcome::Transversals {
            transversals,
            complete,
        }) => {
            assert!(!complete, "the leader's answer is a partial");
            assert!(
                transversals.len() < 8,
                "cancelled before the stream finished"
            );
        }
        other => panic!("unexpected leader outcome: {other:?}"),
    }
    // The flight ran to its natural end, so the result was cached even
    // though the original leader gave up along the way.
    assert_eq!(eng.cache_stats().entries, 1);
    assert_eq!(policy.calls(), 9, "still exactly one execution");
}

#[cfg(unix)]
#[test]
fn socket_stampede_coalesces_across_sessions() {
    use qld_engine::{ServeOptions, SocketServer};
    use std::io::{BufRead, BufReader, Write};

    const K: usize = 8;
    let path =
        std::env::temp_dir().join(format!("qld-coalesce-stampede-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let policy = GatePolicy::new(1);
    let eng = Arc::new(gated_engine(&policy, 2));
    let server = SocketServer::bind(&path).unwrap();
    let shutdown = server.shutdown_handle();
    let eng_ref = Arc::clone(&eng);
    let runner = thread::spawn(move || server.run(&eng_ref, ServeOptions::default()));

    let mut clients = Vec::new();
    for _ in 0..K {
        let path = path.clone();
        clients.push(thread::spawn(move || {
            let mut stream = std::os::unix::net::UnixStream::connect(&path).unwrap();
            stream
                .write_all(b"check 0,1;2,3;4,5 0,2,4;0,2,5;0,3,4;0,3,5;1,2,4;1,2,5;1,3,4;1,3,5\n")
                .unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let lines: Vec<String> = BufReader::new(stream).lines().map(|l| l.unwrap()).collect();
            assert_eq!(lines.len(), 1);
            lines.into_iter().next().unwrap()
        }));
    }
    wait_until("all sessions to join the flight", || {
        eng.coalesce_stats().1 >= (K - 1) as u64
    });
    policy.release();

    let lines: Vec<String> = clients.into_iter().map(|t| t.join().unwrap()).collect();
    assert_eq!(policy.calls(), 1, "one execution across {K} sessions");
    assert_eq!(eng.coalesce_stats(), (1, (K - 1) as u64));
    for line in &lines {
        // Every session numbered its one request 0, so the full lines —
        // telemetry included — are byte-identical.
        assert_eq!(line, &lines[0]);
        assert!(line.contains("\"dual\":true"), "{line}");
    }

    // The engine's own stats surface reports the flight ledger.
    let mut stream = std::os::unix::net::UnixStream::connect(&path).unwrap();
    stream.write_all(b"stats\n").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut stats_line = String::new();
    BufReader::new(stream).read_line(&mut stats_line).unwrap();
    assert!(stats_line.contains("\"flights\":1"), "{stats_line}");
    assert!(
        stats_line.contains(&format!("\"coalesced\":{}", K - 1)),
        "{stats_line}"
    );

    shutdown.shutdown();
    runner.join().unwrap().unwrap();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn no_coalesce_disables_the_flight_layer_but_keeps_the_cache() {
    let eng = Engine::new(EngineConfig {
        workers: 2,
        cache: true,
        coalesce: false,
        ..EngineConfig::default()
    });
    let first = eng.run_one(check_request());
    let second = eng.run_one(check_request());
    assert!(!first.stats.cache_hit);
    assert!(second.stats.cache_hit, "the cache still dedups in sequence");
    assert_eq!(eng.coalesce_stats(), (0, 0));

    // Cache off, coalescing on: flights are keyed on the cache key, so there
    // are none, and a duplicate of a running request executes too.
    let policy = GatePolicy::new(1);
    let eng = Arc::new(Engine::new(EngineConfig {
        workers: 2,
        cache: false,
        coalesce: true,
        policy: Arc::clone(&policy) as Arc<dyn SolverPolicy>,
        ..EngineConfig::default()
    }));
    let run = || {
        let eng = Arc::clone(&eng);
        thread::spawn(move || eng.run_one(check_request()))
    };
    let first = run();
    wait_until("the first execution to start", || policy.calls() >= 1);
    let second = run();
    wait_until("the duplicate to execute as well", || policy.calls() >= 2);
    policy.release();
    for handle in [first, second] {
        let response = handle.join().unwrap();
        assert!(response.is_ok() && !response.stats.cache_hit);
    }
    assert_eq!(policy.calls(), 2, "two executions");
    assert_eq!(eng.coalesce_stats(), (0, 0));
}

#[test]
fn every_cacheable_query_is_counted_once_in_a_mixed_session() {
    let eng = Engine::with_defaults();
    // Eight queries: five first asks (misses) and three same-session
    // duplicates (each parks behind its leader, then hits at submission).
    // `stats`, a malformed line and a `cancel` are not cacheable.
    let input = "\
check 0,1;2,3 0,2;0,3;1,2;1,3
check 2,3;0,1 1,3;1,2;0,3;0,2 id=dup
enumerate 0,1;2,3;4,5 stream=1
enumerate 4,5;0,1;2,3 stream=1 id=dup-stream
stats
frobnicate
cancel id=99
keys 1,2;1,3
keys 1,3;1,2 id=dup-keys
mine n=3:0,1;1,2;0,2 z=1
check 0,1;2,3 0,2;0,3;1,2;1,3 solver=bm-tree
";
    let mut out = Vec::new();
    let summary = eng.serve(input.as_bytes(), &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    assert_eq!(summary.requests, 11, "{text}");
    assert_eq!(summary.errors, 1, "{text}");
    for id in ["dup", "dup-stream", "dup-keys"] {
        let line = text
            .lines()
            .find(|line| {
                line.contains(&format!("\"client_id\":\"{id}\"")) && line.contains("\"stats\"")
            })
            .unwrap_or_else(|| panic!("no terminal for {id}: {text}"));
        assert!(line.contains("\"cache_hit\":true"), "{line}");
    }
    let stats = eng.cache_stats();
    assert_eq!((stats.hits, stats.misses), (3, 5), "{stats:?}");
}

#[test]
fn a_follower_joined_at_submission_counts_as_a_miss() {
    let policy = GatePolicy::new(1);
    let eng = Arc::new(gated_engine(&policy, 2));
    let run = || {
        let eng = Arc::clone(&eng);
        thread::spawn(move || eng.run_one(check_request()))
    };
    let leader = run();
    wait_until("the leader to execute", || policy.calls() >= 1);
    let follower = run();
    wait_until("the duplicate to join", || eng.coalesce_stats().1 == 1);
    policy.release();
    let (leader, follower) = (leader.join().unwrap(), follower.join().unwrap());
    assert_eq!(leader.outcome, follower.outcome);
    assert!(!leader.stats.cache_hit && !follower.stats.cache_hit);
    let stats = eng.cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, 2), "{stats:?}");
    // The entry the flight left answers the next ask at submission.
    let again = eng.run_one(check_request());
    assert!(again.stats.cache_hit && again.stats.worker == 0);
    assert_eq!(eng.cache_stats().hits, 1);
}
