//! Property test for the engine's one session state machine: random
//! interleavings of requests, same-session duplicates, cross-session
//! duplicates, `cancel id=N` and cache eviction (capacity 1–3), over one or
//! two concurrent `serve_with` sessions on one engine.
//!
//! Checked on every case:
//! 1. every answer whose request was not a cancel target equals
//!    [`ops::execute`] under the engine's policy (compared on the rendered
//!    line, telemetry stripped);
//! 2. at quiescence the `inflight` gauge reads 0 and the cache holds at most
//!    its capacity;
//! 3. with a single session, `coalesced` stays 0 — a session's own
//!    duplicates wait for their leader and hit the cache instead.

use std::collections::HashSet;
use std::sync::Arc;
use std::thread;

use proptest::prelude::*;
use qld_engine::{
    ops, wire, Engine, EngineConfig, EngineError, OrderMode, Request, RequestStats, Response,
    ServeOptions,
};
use qld_hypergraph::generators;

/// The request pool the ops draw from: dual and non-dual checks of a few
/// sizes, plus full enumerations (no `limit`, so the answer does not depend
/// on which spelling ran first).
fn request_pool() -> Vec<Request> {
    let mut pool = Vec::new();
    for k in [2, 3, 4, 5] {
        let li = generators::matching_instance(k);
        let mut broken = li.h.clone();
        broken.remove_edge(0);
        pool.push(Request::DecideDuality {
            g: li.g.clone(),
            h: li.h,
        });
        pool.push(Request::DecideDuality {
            g: li.g.clone(),
            h: broken,
        });
        pool.push(Request::EnumerateTransversals {
            g: li.g,
            limit: None,
        });
    }
    pool
}

/// One wire line of a session script, with what its answer must be.
struct ScriptLine {
    text: String,
    /// The request it carries (`None` for a cancel).
    request: Option<Request>,
}

/// Per-session scripts built from the drawn ops.  Each op value encodes
/// `(session, kind, operand)`: kind 0 = fresh request, 1 = duplicate of the
/// session's last request, 2 = duplicate of the other session's last
/// request, 3 = `cancel id=N` of an earlier line of the session.
fn build_scripts(ops: &[usize], sessions: usize, pool: &[Request]) -> Vec<Vec<ScriptLine>> {
    let mut scripts: Vec<Vec<ScriptLine>> = (0..sessions).map(|_| Vec::new()).collect();
    let mut last: Vec<Option<usize>> = vec![None; sessions];
    for &op in ops {
        let session = (op / 64) % sessions;
        let operand = op / 4;
        let pick = match op % 4 {
            1 => last[session],
            2 => last[(session + 1) % sessions],
            3 => {
                let seqs = scripts[session].len();
                if seqs > 0 {
                    scripts[session].push(ScriptLine {
                        text: format!("cancel id={}", operand % seqs),
                        request: None,
                    });
                    continue;
                }
                None
            }
            _ => None,
        };
        let index = pick.unwrap_or(operand % pool.len());
        last[session] = Some(index);
        let seq = scripts[session].len();
        scripts[session].push(ScriptLine {
            text: format!("{} id=s{session}r{seq}", wire::render_request(&pool[index])),
            request: Some(pool[index].clone()),
        });
    }
    scripts
}

/// A rendered line without its trailing telemetry object.
fn strip_stats(line: &str) -> &str {
    line.split(",\"stats\":").next().unwrap_or(line)
}

/// The session's requests that some `cancel` line of the script names.
fn cancel_targets(script: &[ScriptLine]) -> HashSet<u64> {
    script
        .iter()
        .filter_map(|line| line.text.strip_prefix("cancel id="))
        .map(|target| target.parse().expect("numeric cancel target"))
        .collect()
}

/// The line `id` of a rendered response.
fn response_id(line: &str) -> u64 {
    line.strip_prefix("{\"id\":")
        .and_then(|rest| rest.split(',').next())
        .and_then(|id| id.parse().ok())
        .unwrap_or_else(|| panic!("no id in {line}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn session_interleavings_agree_with_the_direct_solver(
        capacity in 1usize..4,
        sessions in 1usize..3,
        ops in prop::collection::vec(0usize..256, 1usize..=24),
    ) {
        let pool = request_pool();
        let engine = Arc::new(Engine::new(EngineConfig {
            workers: 2,
            queue_capacity: 4,
            cache: true,
            cache_capacity: capacity,
            ..EngineConfig::default()
        }));
        let scripts = build_scripts(&ops, sessions, &pool);
        let outputs: Vec<String> = thread::scope(|scope| {
            let runs: Vec<_> = scripts
                .iter()
                .enumerate()
                .map(|(session, script)| {
                    let engine = Arc::clone(&engine);
                    let input: String = script.iter().map(|l| format!("{}\n", l.text)).collect();
                    scope.spawn(move || {
                        // The second session streams answers in arrival order.
                        let options = ServeOptions {
                            order: if session == 0 { OrderMode::Input } else { OrderMode::Arrival },
                            ..ServeOptions::default()
                        };
                        let mut out = Vec::new();
                        let summary = engine.serve_with(input.as_bytes(), &mut out, &options).unwrap();
                        (summary, String::from_utf8(out).unwrap())
                    })
                })
                .collect();
            runs.into_iter()
                .zip(&scripts)
                .map(|(run, script)| {
                    let (summary, text) = run.join().unwrap();
                    assert_eq!(summary.requests as usize, script.len(), "{text}");
                    text
                })
                .collect()
        });

        let policy = engine.config().policy.clone();
        for (session, (script, text)) in scripts.iter().zip(&outputs).enumerate() {
            let targets = cancel_targets(script);
            prop_assert_eq!(text.lines().count(), script.len());
            for line in text.lines() {
                let id = response_id(line);
                let Some(request) = &script[id as usize].request else {
                    prop_assert!(line.contains("\"kind\":\"cancel\""), "{line}");
                    continue;
                };
                if targets.contains(&id) {
                    continue;
                }
                let (outcome, _) = ops::execute(request, policy.as_ref());
                let expected = Response {
                    id,
                    client_id: Some(format!("s{session}r{id}")),
                    outcome: outcome.map_err(EngineError::execute),
                    halted: None,
                    chunks: None,
                    stats: RequestStats::default(),
                };
                let expected = expected.to_json_line();
                prop_assert_eq!(strip_stats(line), strip_stats(&expected));
            }
        }

        // Quiescence: every session has its answers, so nothing is left in
        // the pool and the cache respects its bound.
        let mut stats = Vec::new();
        engine.serve("stats\n".as_bytes(), &mut stats).unwrap();
        let stats = String::from_utf8(stats).unwrap();
        prop_assert!(stats.contains("\"inflight\":0"), "{stats}");
        prop_assert!(engine.cache_stats().entries as usize <= capacity);
        if sessions == 1 {
            prop_assert_eq!(engine.coalesce_stats().1, 0);
        }
    }
}
