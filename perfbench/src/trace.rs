//! The traced run: the workload again with the same seed, then spans around
//! the benchmark's own calls into each layer's public functions, plus the
//! counters the daemons expose through `stats`.
//!
//! Span trees, all kept in memory until the end:
//!
//! * `round_trip` (client send → terminal frame, from the traced daemon
//!   pass) with child `server` (the response's `stats.micros`, ending at the
//!   terminal frame);
//! * `request` (one in-process replay of the same wire line) with children,
//!   in order: `parse_line` → `cache_key` → `get` → on a miss `choose` +
//!   `execute.<kind>` → `insert` → `to_json_line`, on a cache owned by the
//!   benchmark at the daemon's capacity;
//! * `run_one` (the same request through an in-process `Engine`:
//!   `Engine::run_one`, or `Engine::run_streaming` for streamed requests);
//! * on `cold-solve`, the front phase: `qld front --shards 2` takes a closed
//!   loop of stampedes (each new instance asked four times in a row over the
//!   two connections, so copies meet in the router and on the shard) for a
//!   third of the window, then `front_round_trip` next to `shard_round_trip`:
//!   the same cached line through the router and straight to a shard.
//!
//! Accounting: the traced round trip is covered by `parse_line` +
//! `run_one` + `to_json_line`; what remains, the stated residual, is socket
//! I/O, readiness-loop wake-ups, the session's reply hand-off and queueing
//! behind the other connection's request, which no span from the benchmark's
//! side can see.

use crate::client::{self, Conn, Reply};
use crate::gen::{Generator, Workload};
use crate::json::Value;
use crate::procs::{Daemons, RunDir};
use crate::stats::{mean, Ratio, Trace};
use crate::{metric, run_pass, set_up, verify, Args, Metrics, CONNS};
use qld_engine::cache::{CachedResult, QueryCache};
use qld_engine::wire::{self, Command};
use qld_engine::{
    ops, Engine, EngineConfig, EngineError, Request, RequestStats, Response, SizeThresholdPolicy,
    SolverPolicy, StreamEvent, StreamRunOptions,
};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub struct Traced {
    pub metrics: Metrics,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// One line stating how the layer self times account for the round trip.
    pub accounting: String,
}

/// Cached lines the relay probe of the front phase asks both ways.
const RELAY_SAMPLE: usize = 100;

fn kind_span(request: &Request) -> &'static str {
    match request {
        Request::DecideDuality { .. } => "execute.check",
        Request::EnumerateTransversals { .. } => "execute.enumerate",
        Request::IdentifyItemsetBorders { .. } | Request::MineBorders { .. } => "execute.mine",
        Request::FindMinimalKeys { .. } => "execute.keys",
    }
}

/// Per sampled request: the measurements the accounting needs (µs).
struct Sampled {
    round_trip: f64,
    parse: f64,
    render: f64,
    execute: f64,
    run_one: f64,
}

pub fn traced_run(args: &Args, run_dir: &RunDir, e2e: &Metrics) -> Result<Traced, String> {
    let (mut setup, _) = set_up(args, &run_dir.sub("traced"))?;
    let pass = run_pass(args, &mut setup)?;
    let capacity = setup.cache_capacity;
    drop(setup);
    let verdict = verify::check_all(&pass.replies);
    for wrong in verdict.wrong.iter().take(10) {
        eprintln!("perfbench: WRONG ANSWER (traced pass): {wrong}");
    }
    let front = match args.workload {
        Workload::ColdSolve => Some(front_phase(args, run_dir)?),
        Workload::HotReask => None,
    };

    let mut trace = Trace::default();
    let mut m = Metrics::new();

    // Hop spans of the daemon pass: round trip with the server's own time.
    let mut server_us = Vec::new();
    let mut responses = Vec::new();
    for (r, &good) in pass.replies.iter().zip(&verdict.correct) {
        if !good {
            continue;
        }
        let (Some(done), Some(terminal)) = (r.done, r.frames.last()) else {
            continue;
        };
        let v = crate::json::parse(terminal)?;
        let micros = v.get("stats").and_then(|s| s.num("micros")).unwrap_or(0.0);
        let root = trace.push("round_trip", r.ask.seq, None, r.sent, done);
        let micros_ns = (micros * 1000.0) as u64;
        trace.push(
            "server",
            r.ask.seq,
            Some(root),
            done.saturating_sub(micros_ns),
            done,
        );
        server_us.push(micros);
        responses.push(v);
    }

    // In-process replay of the traced pass's lines, in sequence order, for
    // as long as the window lasted.
    let mut replies: Vec<&Reply> = pass
        .replies
        .iter()
        .zip(&verdict.correct)
        .filter(|(_, &good)| good)
        .map(|(r, _)| r)
        .collect();
    replies.sort_by_key(|r| r.ask.seq);
    let engine = Engine::new(EngineConfig {
        cache_capacity: capacity,
        ..EngineConfig::default()
    });
    let cache = QueryCache::with_capacity(capacity);
    let policy = SizeThresholdPolicy::default();
    let clock = Instant::now();
    let ns = || clock.elapsed().as_nanos() as u64;
    let budget = args.seconds * 1_000_000_000;
    let mut sampled = Vec::new();
    let mut first_item_us = Vec::new();
    let mut chunks = Vec::new();
    for r in &replies {
        if ns() > budget {
            break;
        }
        let seq = r.ask.seq;
        let s0 = ns();
        let parsed = wire::parse_line(&r.ask.line)?;
        let s1 = ns();
        let Command::Query(request) = parsed.command else {
            return Err("generated line is not a query".to_string());
        };
        let key = request.cache_key();
        let s2 = ns();
        let hit = cache.get(&key);
        let s3 = ns();
        let missed = hit.is_none();
        let (outcome, s4, s5, s6) = match hit {
            Some(hit) => (hit.outcome.clone(), s3, s3, s3),
            None => {
                if let Request::DecideDuality { g, h } = &request {
                    std::hint::black_box(policy.choose(g, h));
                }
                let s4 = ns();
                let (outcome, info) = ops::execute(&request, &policy);
                let s5 = ns();
                let outcome = outcome.map_err(EngineError::execute);
                cache.insert(
                    key,
                    CachedResult {
                        outcome: outcome.clone(),
                        info,
                    },
                );
                (outcome, s4, s5, ns())
            }
        };
        let response = Response {
            id: seq,
            client_id: Some(seq.to_string()),
            outcome,
            halted: None,
            chunks: None,
            stats: RequestStats::default(),
        };
        std::hint::black_box(response.to_json_line());
        let s7 = ns();
        let root = trace.push("request", seq, None, s0, s7);
        trace.push("parse_line", seq, Some(root), s0, s1);
        trace.push("cache_key", seq, Some(root), s1, s2);
        trace.push("get", seq, Some(root), s2, s3);
        if missed {
            trace.push("choose", seq, Some(root), s3, s4);
            trace.push(kind_span(&request), seq, Some(root), s4, s5);
            trace.push("insert", seq, Some(root), s5, s6);
        }
        trace.push("to_json_line", seq, Some(root), s6, s7);

        let h0 = ns();
        if r.ask.spec.stream {
            let handle = engine.run_streaming(request, StreamRunOptions::default());
            let mut count = 0u64;
            while let Some(event) = handle.next_event() {
                match event {
                    StreamEvent::Chunk(_) => {
                        if count == 0 {
                            first_item_us.push((ns() - h0) as f64 / 1000.0);
                        }
                        count += 1;
                    }
                    StreamEvent::Done(_) => break,
                }
            }
            chunks.push(count as f64);
        } else {
            std::hint::black_box(engine.run_one(request));
        }
        let h1 = ns();
        trace.push("run_one", seq, None, h0, h1);

        let us = |a: u64, b: u64| (b - a) as f64 / 1000.0;
        sampled.push(Sampled {
            round_trip: (r.done.expect("correct reply is done") - r.sent) as f64 / 1000.0,
            parse: us(s0, s1),
            render: us(s6, s7),
            execute: us(s4, s5),
            run_one: us(h0, h1),
        });
    }

    let self_us = trace.mean_self_us();
    let layer = |name: &str| self_us.get(name).copied().unwrap_or((0.0, 0));
    let put = |m: &mut Metrics, metric_name: &'static str, span: &str| {
        let (v, n) = layer(span);
        metric(
            m,
            metric_name,
            v,
            "us",
            format!("mean self time of {n} `{span}` spans"),
        );
    };
    put(&mut m, "wire.parse_us", "parse_line");
    put(&mut m, "request.cache_key_us", "cache_key");
    put(&mut m, "cache.get_us", "get");
    put(&mut m, "cache.insert_us", "insert");
    put(&mut m, "solver.check_us", "execute.check");
    put(&mut m, "solver.enumerate_us", "execute.enumerate");
    put(&mut m, "solver.mine_us", "execute.mine");
    put(&mut m, "solver.keys_us", "execute.keys");
    put(&mut m, "response.render_us", "to_json_line");
    put(&mut m, "engine.outside_us", "round_trip");

    metric(
        &mut m,
        "engine.server_us",
        mean(&server_us),
        "us",
        format!("mean stats.micros of {} responses", server_us.len()),
    );

    let n = sampled.len();
    let sum = |f: fn(&Sampled) -> f64| sampled.iter().map(f).sum::<f64>();
    let pool_hop = (sum(|s| s.run_one) - sum(|s| s.execute)) / n.max(1) as f64;
    metric(
        &mut m,
        "engine.pool_hop_us",
        pool_hop,
        "us",
        format!("mean run_one - execute over {n} replayed requests"),
    );
    let transport = (sum(|s| s.round_trip) - sum(|s| s.run_one)) / n.max(1) as f64;
    metric(
        &mut m,
        "transport.hop_us",
        transport,
        "us",
        format!("mean socket round trip - run_one over {n} requests"),
    );
    let share = Ratio::new(sum(|s| s.execute), sum(|s| s.round_trip));
    metric(
        &mut m,
        "solver.share",
        share.value(),
        "ratio",
        format!("solver self time {share} us of traced round trip"),
    );
    let per = |total: f64| total / n.max(1) as f64;
    let residual = sum(|s| s.round_trip - s.parse - s.run_one - s.render);
    let residual_share = Ratio::new(residual, sum(|s| s.round_trip));
    metric(
        &mut m,
        "trace.residual_us",
        per(residual),
        "us",
        format!("round trip not covered by the layer spans, {n} requests"),
    );
    metric(
        &mut m,
        "trace.residual_share",
        residual_share.value(),
        "ratio",
        format!("{residual_share} us"),
    );
    let accounting = format!(
        "accounting over {n} requests: mean round trip {:.1} us = parse_line {:.1} + run_one {:.1} + to_json_line {:.1} + residual {:.1} ({:.1}% of the round trip: socket I/O, readiness wake-ups, reply hand-off, and queueing behind the other connection's request, which the in-process replay does not see)",
        per(sum(|s| s.round_trip)),
        per(sum(|s| s.parse)),
        per(sum(|s| s.run_one)),
        per(sum(|s| s.render)),
        per(residual),
        100.0 * residual_share.value()
    );

    metric(
        &mut m,
        "stream.first_item_us",
        mean(&first_item_us),
        "us",
        format!("mean over {} in-process streams", first_item_us.len()),
    );
    metric(
        &mut m,
        "stream.chunks",
        mean(&chunks),
        "count",
        format!("mean chunks over {} streams", chunks.len()),
    );

    // Response-level solver facts from the daemon pass.
    let executed: Vec<&Value> = responses
        .iter()
        .filter(|v| v.get("stats").and_then(|s| s.flag("cache_hit")) == Some(false))
        .collect();
    let stat = |v: &Value, k: &str| v.get("stats").and_then(|s| s.num(k)).unwrap_or(0.0);
    let quad = executed
        .iter()
        .filter(|v| {
            v.get("stats")
                .and_then(|s| s.str("solver"))
                .is_some_and(|s| s.contains("quadlog"))
        })
        .count();
    let quad = Ratio::new(quad as f64, executed.len() as f64);
    metric(
        &mut m,
        "policy.quadchain_share",
        quad.value(),
        "ratio",
        format!("{quad} executed responses used quadlog-chain"),
    );
    let calls: Vec<f64> = executed.iter().map(|v| stat(v, "duality_calls")).collect();
    metric(
        &mut m,
        "solver.duality_calls",
        mean(&calls),
        "count",
        format!("mean per executed response, {} responses", calls.len()),
    );
    let peak = responses
        .iter()
        .map(|v| stat(v, "peak_bits"))
        .fold(0.0, f64::max);
    metric(
        &mut m,
        "solver.peak_bits_max",
        peak,
        "bits",
        format!("max over {} responses", responses.len()),
    );

    // Counters the daemon exposes through `stats`.
    let total = |k: &str| pass.stats.num(k).unwrap_or(0.0);
    let cache = |k: &str| {
        pass.stats
            .get("cache")
            .and_then(|c| c.num(k))
            .unwrap_or(0.0)
    };
    let hits = Ratio::new(cache("hits"), cache("hits") + cache("misses"));
    metric(
        &mut m,
        "cache.hit_ratio",
        hits.value(),
        "ratio",
        format!("{hits} lookups (daemon stats, warm-up included)"),
    );
    metric(
        &mut m,
        "cache.evictions",
        cache("evictions"),
        "count",
        "daemon stats",
    );
    let (spawned, stolen) = (total("subtasks"), total("subtasks_stolen"));
    metric(&mut m, "subtask.spawned", spawned, "count", "daemon stats");
    metric(&mut m, "subtask.stolen", stolen, "count", "daemon stats");
    let steal = Ratio::new(stolen, spawned);
    metric(
        &mut m,
        "subtask.steal_ratio",
        steal.value(),
        "ratio",
        format!("{steal} subtasks stolen"),
    );

    // Coalescing: on cold-solve every key is new, so the shard-tier figure
    // comes from the front phase's stampedes.
    let mut correct = verdict.wrong.is_empty();
    let mut attempted = pass.replies.len();
    let mut failed = verdict.failed;
    match &front {
        None => {
            let coalesced = Ratio::new(total("coalesced"), attempted as f64);
            metric(
                &mut m,
                "flight.coalesced_per_req",
                coalesced.value(),
                "ratio",
                format!(
                    "{coalesced} requests attached to a flight ({} flights)",
                    total("flights")
                ),
            );
            let off = "not on this workload's path";
            metric(&mut m, "front.coalesced_per_req", 0.0, "ratio", off);
            metric(&mut m, "front.relay_us", 0.0, "us", off);
        }
        Some(f) => {
            correct &= f.correct;
            attempted += f.attempted;
            failed += f.failed;
            let shards = Ratio::new(f.shard_coalesced, f.attempted as f64);
            metric(
                &mut m,
                "flight.coalesced_per_req",
                shards.value(),
                "ratio",
                format!("{shards} front-phase requests attached to a shard flight"),
            );
            let router = Ratio::new(f.front_coalesced, f.attempted as f64);
            metric(
                &mut m,
                "front.coalesced_per_req",
                router.value(),
                "ratio",
                format!("{router} front-phase requests coalesced at the router"),
            );
            metric(
                &mut m,
                "front.relay_us",
                f.relay_us,
                "us",
                f.relay_note.clone(),
            );
        }
    }

    let traced_p50 = crate::stats::median(
        &pass
            .replies
            .iter()
            .zip(&verdict.correct)
            .filter(|(_, &g)| g)
            .filter_map(|(r, _)| r.latency_ms())
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    let untraced_p50 = e2e.get("latency_p50_ms").map_or(0.0, |x| x.value);
    let overhead = Ratio::new(traced_p50 - untraced_p50, untraced_p50);
    metric(
        &mut m,
        "trace.overhead_frac",
        overhead.value(),
        "ratio",
        format!(
            "latency p50 traced {traced_p50:.4} ms vs untraced {untraced_p50:.4} ms: {overhead}"
        ),
    );

    Ok(Traced {
        metrics: m,
        correct,
        attempted,
        failed,
        accounting,
    })
}

/// What the front phase measured.
struct FrontPhase {
    correct: bool,
    attempted: usize,
    failed: usize,
    front_coalesced: f64,
    shard_coalesced: f64,
    relay_us: f64,
    relay_note: String,
}

/// The front phase of `cold-solve`'s traced run: `qld front --shards 2`
/// (default `hash` policy, 2 workers per shard) takes a closed loop of
/// stampedes over both connections for a third of the window; the answers
/// are checked like any others.
fn front_phase(args: &Args, run_dir: &RunDir) -> Result<FrontPhase, String> {
    let mut daemons = Daemons::front(&args.qld, &run_dir.sub("front"), 2)
        .map_err(|e| format!("cannot start qld front: {e}"))?;
    daemons.wait_ready(Duration::from_secs(30))?;
    let gen = Mutex::new(Generator::bursts(args.seed));
    let until = args.seconds * 1_000_000_000 / 3;
    let replies = client::closed_loop(&daemons.socket, &gen, CONNS, Instant::now(), until);
    let (relay_us, relay_note) = relay_probe(&replies, &daemons.socket, &daemons.shard_sockets[0])?;
    let stats = |socket: &Path| Conn::connect(socket).map_err(|e| e.to_string())?.stats();
    let front_coalesced = stats(&daemons.socket)?
        .get("front")
        .and_then(|f| f.num("coalesced"))
        .unwrap_or(0.0);
    let mut shard_coalesced = 0.0;
    for shard in &daemons.shard_sockets {
        shard_coalesced += stats(shard)?.num("coalesced").unwrap_or(0.0);
    }
    drop(daemons);
    let verdict = verify::check_all(&replies);
    for wrong in verdict.wrong.iter().take(10) {
        eprintln!("perfbench: WRONG ANSWER (front phase): {wrong}");
    }
    Ok(FrontPhase {
        correct: verdict.wrong.is_empty(),
        attempted: replies.len(),
        failed: verdict.failed,
        front_coalesced,
        shard_coalesced,
        relay_us,
        relay_note,
    })
}

/// The router's relay cost: the same cached line through `qld front` and
/// straight to a shard, alternating.  Each line is asked of the shard twice
/// first, so both sides answer from a cache.
fn relay_probe(replies: &[Reply], front: &Path, shard: &Path) -> Result<(f64, String), String> {
    let mut front_conn = Conn::connect(front).map_err(|e| format!("front: {e}"))?;
    let mut shard_conn = Conn::connect(shard).map_err(|e| format!("shard: {e}"))?;
    let mut seen = std::collections::HashSet::new();
    let mut via_front = Vec::new();
    let mut direct = Vec::new();
    let mut trace = Trace::default();
    let t0 = Instant::now();
    for r in replies
        .iter()
        .filter(|r| !r.ask.spec.stream && r.error.is_none())
    {
        if via_front.len() >= RELAY_SAMPLE {
            break;
        }
        if !seen.insert(std::sync::Arc::as_ptr(&r.ask.spec) as usize) {
            continue;
        }
        let line = &r.ask.line;
        shard_conn.ask(line).map_err(|e| e.to_string())?;
        let a = client::since(t0);
        shard_conn.ask(line).map_err(|e| e.to_string())?;
        let b = client::since(t0);
        front_conn.ask(line).map_err(|e| e.to_string())?;
        let c = client::since(t0);
        trace.push("shard_round_trip", r.ask.seq, None, a, b);
        trace.push("front_round_trip", r.ask.seq, None, b, c);
        direct.push((b - a) as f64 / 1000.0);
        via_front.push((c - b) as f64 / 1000.0);
    }
    let self_us = trace.mean_self_us();
    let get = |k: &str| self_us.get(k).map_or(0.0, |v| v.0);
    Ok((
        get("front_round_trip") - get("shard_round_trip"),
        format!(
            "front {:.1} us - direct shard {:.1} us, {} cached lines",
            mean(&via_front),
            mean(&direct),
            via_front.len()
        ),
    ))
}
