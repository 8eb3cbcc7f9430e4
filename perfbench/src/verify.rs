//! Answer checking, outside the timed window.
//!
//! * `check` verdicts are compared with the verdict the generator built in
//!   (dual by construction, or perturbed), and every non-duality witness is
//!   confirmed with `verify_witness`.
//! * `enumerate`, `mine` and `keys` answers, and the reassembled chunks of
//!   streamed requests, are compared with the direct sequential
//!   `ops::execute` on the same instance (for `enumerate limit=K` and one
//!   `mine` step, which legitimately depend on edge order, the count and
//!   status are compared and each returned set is validated).
//!
//! Error responses and timeouts are failures; a wrong answer makes the run
//! incorrect.

use crate::client::Reply;
use crate::gen::Spec;
use crate::json::{self, Value};
use qld_core::{verify_witness, NonDualWitness};
use qld_engine::{ops, EngineError, Request, RequestStats, Response, SizeThresholdPolicy};
use qld_hypergraph::{Hypergraph, VertexSet};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread;

#[derive(Debug, Default)]
pub struct Verdict {
    /// Requests answered, and answered correctly.
    pub ok: usize,
    /// Error responses, timeouts and transport failures.
    pub failed: usize,
    /// Wrong answers, described.
    pub wrong: Vec<String>,
    /// Per reply: answered correctly.
    pub correct: Vec<bool>,
}

/// The direct sequential answer to each distinct instance among `replies`,
/// as the response JSON the engine would render.  Computed on two threads.
fn ground_truth(replies: &[Reply]) -> HashMap<usize, Value> {
    let mut distinct: HashMap<usize, Arc<Spec>> = HashMap::new();
    for r in replies {
        if r.ask.spec.dual.is_none() {
            distinct
                .entry(Arc::as_ptr(&r.ask.spec) as usize)
                .or_insert_with(|| Arc::clone(&r.ask.spec));
        }
    }
    let work: Mutex<Vec<(usize, Arc<Spec>)>> = Mutex::new(distinct.into_iter().collect());
    let out = Mutex::new(HashMap::new());
    thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let Some((key, spec)) = work.lock().expect("work lock").pop() else {
                    return;
                };
                let value = expected(&spec.request);
                out.lock().expect("truth lock").insert(key, value);
            });
        }
    });
    out.into_inner().expect("truth lock")
}

fn expected(request: &Request) -> Value {
    let (outcome, _) = ops::execute(request, &SizeThresholdPolicy::default());
    let response = Response {
        id: 0,
        client_id: None,
        outcome: outcome.map_err(EngineError::execute),
        halted: None,
        chunks: None,
        stats: RequestStats::default(),
    };
    json::parse(&response.to_json_line()).expect("engine renders valid JSON")
}

/// The fields that must equal the direct solver's.  Which `K` transversals
/// an `enumerate limit=K` returns, and which border element one `mine` step
/// finds, depend on the order the solver meets the edges in, and a re-ask in
/// another edge order shares the first ask's cache entry; so for those two
/// the direct answer fixes the count and status, and each returned set is
/// checked on its own (see [`check_sets`]).
fn answer_fields(kind: &str) -> &'static [&'static str] {
    match kind {
        "enumerate" => &["complete", "count"],
        "mine" => &["status"],
        "mine_full" => &["complete", "maximal_frequent", "minimal_infrequent"],
        "keys" => &["count", "keys"],
        _ => &[],
    }
}

/// `enumerate`: every returned set is a distinct minimal transversal of `g`.
/// `mine`: a reported new border element is maximal frequent (or minimal
/// infrequent) in the relation at the threshold.
fn check_sets(request: &Request, done: &Value) -> Result<(), String> {
    match request {
        Request::EnumerateTransversals { g, .. } => {
            let sets = done
                .get("transversals")
                .and_then(Value::matrix)
                .ok_or("no transversals")?;
            let mut seen = std::collections::HashSet::new();
            for t in sets {
                let set = VertexSet::from_indices(g.num_vertices(), t.iter().copied());
                if !g.is_minimal_transversal(&set) {
                    return Err(format!("{t:?} is not a minimal transversal"));
                }
                if !seen.insert(t) {
                    return Err("a transversal is listed twice".to_string());
                }
            }
            Ok(())
        }
        Request::IdentifyItemsetBorders {
            relation,
            threshold,
            ..
        } => {
            let Some(itemset) = done.get("itemset").and_then(Value::indices) else {
                return Ok(());
            };
            let set = VertexSet::from_indices(relation.num_items(), itemset.iter().copied());
            let valid = match done.str("new_border") {
                Some("maximal_frequent") => relation.is_maximal_frequent(&set, *threshold),
                Some("minimal_infrequent") => relation.is_minimal_infrequent(&set, *threshold),
                other => return Err(format!("unexpected new_border {other:?}")),
            };
            if valid {
                Ok(())
            } else {
                Err(format!(
                    "{itemset:?} is not a {:?} itemset",
                    done.str("new_border")
                ))
            }
        }
        _ => Ok(()),
    }
}

pub fn check_all(replies: &[Reply]) -> Verdict {
    let truth = ground_truth(replies);
    let mut verdict = Verdict::default();
    for r in replies {
        let outcome = check_one(r, &truth);
        let good = matches!(outcome, Check::Correct);
        match outcome {
            Check::Correct => verdict.ok += 1,
            Check::Failed => verdict.failed += 1,
            Check::Wrong(why) => verdict.wrong.push(format!(
                "request {} ({}): {why}",
                r.ask.seq,
                r.ask.line.chars().take(120).collect::<String>()
            )),
        }
        verdict.correct.push(good);
    }
    verdict
}

enum Check {
    Correct,
    Failed,
    Wrong(String),
}

fn check_one(r: &Reply, truth: &HashMap<usize, Value>) -> Check {
    if r.error.is_some() {
        return Check::Failed;
    }
    let Some(terminal) = r.frames.last() else {
        return Check::Failed;
    };
    let Ok(done) = json::parse(terminal) else {
        return Check::Wrong(format!("unparsable terminal frame `{terminal}`"));
    };
    if done.str("client_id") != Some(r.ask.seq.to_string().as_str()) {
        return Check::Wrong("terminal frame answers another request".to_string());
    }
    if done.flag("ok") != Some(true) {
        return Check::Failed;
    }
    let spec = &r.ask.spec;
    if let Some(dual) = spec.dual {
        return check_duality(&spec.request, dual, &done);
    }
    let Some(want) = truth.get(&(Arc::as_ptr(spec) as usize)) else {
        return Check::Wrong("no ground truth".to_string());
    };
    let kind = want.str("kind").unwrap_or("");
    if done.str("kind") != Some(kind) {
        return Check::Wrong(format!("kind {:?}, want {kind}", done.str("kind")));
    }
    for field in answer_fields(kind) {
        if done.get(field) != want.get(field) {
            return Check::Wrong(format!(
                "{field}: got {:?}, want {:?}",
                done.get(field),
                want.get(field)
            ));
        }
    }
    if let Err(why) = check_sets(&spec.request, &done) {
        return Check::Wrong(why);
    }
    if spec.stream {
        if let Err(why) = check_chunks(r, &done, kind) {
            return Check::Wrong(why);
        }
    }
    Check::Correct
}

fn check_duality(request: &Request, dual: bool, done: &Value) -> Check {
    let Request::DecideDuality { g, h } = request else {
        return Check::Wrong("verdict recorded for a non-check request".to_string());
    };
    if done.flag("dual") != Some(dual) {
        return Check::Wrong(format!("dual: got {:?}, want {dual}", done.flag("dual")));
    }
    if dual {
        return Check::Correct;
    }
    let Some(w) = done.get("witness").and_then(|w| witness(g, h, w)) else {
        return Check::Wrong("non-dual answer without a readable witness".to_string());
    };
    if verify_witness(g, h, &w) {
        Check::Correct
    } else {
        Check::Wrong(format!("witness {w} does not verify"))
    }
}

fn witness(g: &Hypergraph, h: &Hypergraph, w: &Value) -> Option<NonDualWitness> {
    let n = g.num_vertices().max(h.num_vertices());
    let set = |field: &str| {
        w.get(field)
            .and_then(Value::indices)
            .map(|v| VertexSet::from_indices(n, v))
    };
    match w.str("type")? {
        "new_transversal_of_g" => Some(NonDualWitness::NewTransversalOfG(set("transversal")?)),
        "new_transversal_of_h" => Some(NonDualWitness::NewTransversalOfH(set("transversal")?)),
        "disjoint_edges" => {
            let (ge, he) = (set("g_edge")?, set("h_edge")?);
            Some(NonDualWitness::DisjointEdges {
                g_index: g.edges().iter().position(|e| *e == ge)?,
                h_index: h.edges().iter().position(|e| *e == he)?,
            })
        }
        _ => None,
    }
}

/// A streamed answer: chunk `seq`s run 0..k, `k` is the terminal's `chunks`,
/// and the chunk items reassemble into the terminal's answer.
fn check_chunks(r: &Reply, done: &Value, kind: &str) -> Result<(), String> {
    let chunks = &r.frames[..r.frames.len() - 1];
    let mut items = Vec::new();
    let mut maximal = Vec::new();
    let mut minimal = Vec::new();
    for (i, frame) in chunks.iter().enumerate() {
        let c = json::parse(frame).map_err(|e| format!("chunk {i}: {e}"))?;
        if c.num("seq") != Some(i as f64) {
            return Err(format!("chunk {i} has seq {:?}", c.num("seq")));
        }
        let Some(item) = c.get("item") else { continue };
        if let Some(t) = item.get("transversal").and_then(Value::indices) {
            items.push(t);
        } else if let Some(s) = item.get("itemset").and_then(Value::indices) {
            if item.str("new_border") == Some("maximal_frequent") {
                maximal.push(s);
            } else {
                minimal.push(s);
            }
        }
    }
    if done.num("chunks") != Some(chunks.len() as f64) {
        return Err(format!(
            "{} chunks, terminal says {:?}",
            chunks.len(),
            done.num("chunks")
        ));
    }
    let sorted = |mut v: Vec<Vec<usize>>| {
        v.sort();
        v
    };
    let field = |f: &str| done.get(f).and_then(Value::matrix).map(sorted);
    let agree = match kind {
        "enumerate" => field("transversals") == Some(sorted(items)),
        "mine_full" => {
            field("maximal_frequent") == Some(sorted(maximal))
                && field("minimal_infrequent") == Some(sorted(minimal))
        }
        _ => true,
    };
    if agree {
        Ok(())
    } else {
        Err("reassembled chunks differ from the terminal answer".to_string())
    }
}
