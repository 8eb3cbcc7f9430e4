//! `qld-perfbench`: the end-to-end benchmark of the qld serving stack.
//!
//! ```text
//! bash perfbench/run.sh --workload hot-reask|cold-solve \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! One run sets the daemons up (five times; set-up time is the median),
//! drives the workload for `--seconds` against the real `qld` daemons,
//! checks every answer, and prints the end-to-end metrics.  With `--trace 1`
//! it then repeats the workload with the same seed, records spans around the
//! calls it makes into each layer, and prints the per-layer metrics instead.
//! The last line of standard output is the result object; everything before
//! it is the human-readable report and the run record.  See
//! `perfbench/BENCHMARK.md` for the workloads and what each metric should
//! move.

mod client;
mod gen;
mod json;
mod procs;
mod stats;
mod trace;
mod verify;

use client::Reply;
use gen::{Generator, Workload};
use procs::{Daemons, RunDir};
use stats::{median, percentile, Ratio};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Connections the load comes over.
pub const CONNS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Unmeasured closed-loop warm-up before the window.
const WARMUP: Duration = Duration::from_millis(1000);

/// The latency limit `within_limit_frac` counts against, per workload.
fn latency_limit_ms(w: Workload) -> f64 {
    match w {
        Workload::HotReask => 50.0,
        Workload::ColdSolve => 500.0,
    }
}

pub struct Args {
    qld: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut qld = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--qld" => qld = Some(PathBuf::from(value()?)),
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::from_name(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed: not a number")?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|_| "--seconds: not a number")?),
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        qld: qld.ok_or("--qld PATH is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(15),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((true, line)) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Ok((false, line)) => {
            println!("{line}");
            eprintln!("perfbench: WRONG ANSWERS — the run is invalid");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The daemon of one workload plus its request source.
pub struct Setup {
    pub daemons: Daemons,
    pub gen: Mutex<Generator>,
    /// Result-cache capacity the daemon runs with.
    pub cache_capacity: usize,
}

/// Generates the inputs, spawns the daemon and waits until the first
/// `stats` request is answered; returns the set-up and its duration.
pub fn set_up(args: &Args, dir: &Path) -> Result<(Setup, f64), String> {
    let started = Instant::now();
    let gen = Generator::new(args.workload, args.seed);
    let (daemons, cache_capacity) = match args.workload {
        Workload::HotReask => {
            let cap = gen::HOT_CACHE_CAPACITY.to_string();
            let d = Daemons::serve(&args.qld, dir, &["--cache-capacity", &cap]);
            (d, gen::HOT_CACHE_CAPACITY)
        }
        Workload::ColdSolve => (
            Daemons::serve(&args.qld, dir, &[]),
            qld_engine::cache::DEFAULT_CACHE_CAPACITY,
        ),
    };
    let mut daemons = daemons.map_err(|e| format!("cannot start qld: {e}"))?;
    daemons.wait_ready(Duration::from_secs(30))?;
    let elapsed = started.elapsed().as_secs_f64();
    Ok((
        Setup {
            daemons,
            gen: Mutex::new(gen),
            cache_capacity,
        },
        elapsed,
    ))
}

/// One pass of the workload against a live daemon.
pub struct Pass {
    pub replies: Vec<Reply>,
    /// Window length: start → last terminal frame, in seconds.
    pub window_s: f64,
    /// The daemon's `stats` after the window.
    pub stats: json::Value,
    pub rss_mib: f64,
}

pub fn run_pass(args: &Args, setup: &mut Setup) -> Result<Pass, String> {
    let socket = setup.daemons.socket.clone();
    // Warm up threads, allocator and (hot-reask) the cache before timing.
    let warm_t0 = Instant::now();
    client::closed_loop(
        &socket,
        &setup.gen,
        CONNS,
        warm_t0,
        WARMUP.as_nanos() as u64,
    );
    let t0 = Instant::now();
    let until = args.seconds * 1_000_000_000;
    let replies = client::closed_loop(&socket, &setup.gen, CONNS, t0, until);
    let end = replies.iter().filter_map(|r| r.done).max().unwrap_or(1);
    let mut conn = client::Conn::connect(&socket).map_err(|e| format!("stats connection: {e}"))?;
    Ok(Pass {
        replies,
        window_s: end as f64 / 1e9,
        stats: conn.stats()?,
        rss_mib: setup.daemons.peak_rss_mib(),
    })
}

/// A metric as printed: value, unit, and how many samples back it.
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

pub type Metrics = BTreeMap<&'static str, Metric>;

pub fn metric(
    map: &mut Metrics,
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: impl Into<String>,
) {
    map.insert(
        name,
        Metric {
            value,
            unit,
            note: note.into(),
        },
    );
}

/// At most this many slices of the window: the timing metrics are medians
/// over slices, so a stall of the shared machine moves one slice, not the
/// run's figure.
const SLICES: usize = 10;
/// Samples per slice needed to cut one more slice: for latencies enough for
/// a p99 with at least 10 samples beyond it, with margin for uneven slices.
const LATENCIES_PER_SLICE: usize = 1500;
const TTFI_PER_SLICE: usize = 500;

/// Groups `(sent, item)` samples into up to [`SLICES`] equal spans of the
/// window by send time, with `per_slice` samples per slice on average.
fn slices<T>(samples: Vec<(u64, T)>, span_ns: f64, per_slice: usize) -> Vec<Vec<T>> {
    let count = (samples.len() / per_slice).clamp(1, SLICES);
    let mut out: Vec<Vec<T>> = (0..count).map(|_| Vec::new()).collect();
    for (sent, item) in samples {
        out[((sent as f64 / span_ns * count as f64) as usize).min(count - 1)].push(item);
    }
    out
}

/// The median of per-slice values, and the values for the report.
fn sliced(values: Vec<f64>) -> Option<(f64, String)> {
    let parts: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    median(&values).map(|m| (m, format!("median over slices [{}]", parts.join(", "))))
}

/// The end-to-end metrics of one pass.
fn end_to_end(
    args: &Args,
    pass: &Pass,
    verdict: &verify::Verdict,
    setups: &[f64],
) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    let attempted = pass.replies.len();
    let limit = latency_limit_ms(args.workload);
    let span_ns = args.seconds as f64 * 1e9;
    // Correct answers by send time, and streamed ones' time to first item.
    let mut answers = Vec::new();
    let mut ttfi = Vec::new();
    for (r, &good) in pass.replies.iter().zip(&verdict.correct) {
        if good {
            answers.push((r.sent, r));
            ttfi.extend(r.ttfi_ms().map(|t| (r.sent, t)));
        }
    }
    let latency = |r: &Reply| {
        r.latency_ms()
            .expect("a correct reply has a terminal frame")
    };
    let within = answers.iter().filter(|(_, r)| latency(r) <= limit).count();
    let groups = slices(answers, span_ns, LATENCIES_PER_SLICE);
    let latencies: Vec<Vec<f64>> = groups
        .iter()
        .map(|g| g.iter().map(|r| latency(r)).collect())
        .collect();

    metric(
        &mut m,
        "setup_s",
        median(setups).unwrap_or(0.0),
        "s",
        format!("median of {} set-ups: {setups:.4?}", setups.len()),
    );
    // A slice's throughput: its answers over its first send → last answer.
    let rates = groups
        .iter()
        .filter_map(|g| {
            let first = g.iter().map(|r| r.sent).min()?;
            let last = g.iter().filter_map(|r| r.done).max()?;
            (last > first).then(|| g.len() as f64 / ((last - first) as f64 / 1e9))
        })
        .collect();
    let (rate, how) = sliced(rates).ok_or("no correct answers")?;
    let note = format!(
        "{how}; {} correct answers in {:.3} s",
        verdict.ok, pass.window_s
    );
    metric(&mut m, "throughput_rps", rate, "req/s", note);
    let (p50, how) =
        sliced(latencies.iter().filter_map(|l| median(l)).collect()).ok_or("no correct answers")?;
    metric(
        &mut m,
        "latency_p50_ms",
        p50,
        "ms",
        format!("{how}; {} samples", verdict.ok),
    );
    let (p99, how) = sliced(
        latencies
            .iter()
            .filter_map(|l| percentile(l, 99.0))
            .collect(),
    )
    .ok_or_else(|| {
        format!(
            "only {} latency samples: p99 needs at least 10 beyond it",
            verdict.ok
        )
    })?;
    metric(
        &mut m,
        "latency_p99_ms",
        p99,
        "ms",
        format!("{how}; {} samples", verdict.ok),
    );
    let ok = Ratio::new(verdict.ok as f64, attempted as f64);
    let failed = Ratio::new(verdict.failed as f64, attempted as f64);
    metric(
        &mut m,
        "ok_frac",
        ok.value(),
        "ratio",
        format!("{ok} attempted; failed_frac = {failed}"),
    );
    let w = Ratio::new(within as f64, attempted as f64);
    metric(
        &mut m,
        "within_limit_frac",
        w.value(),
        "ratio",
        format!("{w} attempted within {limit} ms"),
    );
    let streams = ttfi.len();
    let ttfi = slices(ttfi, span_ns, TTFI_PER_SLICE);
    let (t, how) = sliced(ttfi.iter().filter_map(|l| median(l)).collect())
        .ok_or("no streamed request produced a chunk")?;
    metric(
        &mut m,
        "ttfi_p50_ms",
        t,
        "ms",
        format!("{how}; {streams} samples"),
    );
    metric(
        &mut m,
        "daemon_rss_mb",
        pass.rss_mib,
        "MiB",
        "peak RSS (VmHWM) summed over daemon processes",
    );
    Ok(m)
}

/// Latency median and count per request kind, for the report.
fn by_kind(pass: &Pass, verdict: &verify::Verdict) -> String {
    let mut kinds: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (r, &good) in pass.replies.iter().zip(&verdict.correct) {
        if let (true, Some(lat)) = (good, r.latency_ms()) {
            let kind = r.ask.line.split_whitespace().next().unwrap_or("?");
            let kind = if r.ask.spec.stream { "stream" } else { kind };
            kinds.entry(kind).or_default().push(lat);
        }
    }
    let parts: Vec<String> = kinds
        .iter()
        .map(|(k, v)| {
            format!(
                "{k} p50 {:.3} ms mean {:.3} max {:.1} ({} samples)",
                median(v).unwrap_or(0.0),
                stats::mean(v),
                v.iter().copied().fold(0.0, f64::max),
                v.len()
            )
        })
        .collect();
    format!("latency by kind: {}", parts.join(", "))
}

fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout)".to_string())
}

fn print_report(title: &str, metrics: &Metrics) {
    println!("== {title}");
    for (name, m) in metrics {
        println!("  {name:<26} {:>14.4} {:<6} {}", m.value, m.unit, m.note);
    }
}

fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &Metrics,
) -> Result<String, String> {
    let mut body = Vec::new();
    for (name, m) in metrics {
        if !m.value.is_finite() {
            return Err(format!("{name} is not a number ({})", m.note));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

fn run(args: &Args) -> Result<(bool, String), String> {
    if !args.qld.is_file() {
        return Err(format!("no qld binary at {}", args.qld.display()));
    }
    let run_dir = RunDir::claim()?;
    let mut setups = Vec::new();
    let mut setup = None;
    for i in 0..SETUPS {
        // Stop the previous set-up first: an idle daemon still holds memory.
        drop(setup.take());
        let (s, secs) = set_up(args, &run_dir.sub(&format!("setup{i}")))?;
        setups.push(secs);
        // Earlier set-ups only time; the last one serves the run.
        setup = Some(s);
    }
    let mut setup = setup.expect("at least one set-up");
    let pass = run_pass(args, &mut setup)?;
    let flags = setup.daemons.flags.clone();
    drop(setup);
    let verdict = verify::check_all(&pass.replies);
    for wrong in verdict.wrong.iter().take(10) {
        eprintln!("perfbench: WRONG ANSWER: {wrong}");
    }
    println!("  {}", by_kind(&pass, &verdict));
    let e2e = end_to_end(args, &pass, &verdict, &setups)?;
    print_report(
        &format!("{} end-to-end (untraced)", args.workload.name()),
        &e2e,
    );
    let mut correct = verdict.wrong.is_empty();
    let mut attempted = pass.replies.len();
    let mut failed = verdict.failed;
    let reported = if args.trace {
        let traced = trace::traced_run(args, &run_dir, &e2e)?;
        correct &= traced.correct;
        attempted += traced.attempted;
        failed += traced.failed;
        print_report(
            &format!("{} per-layer (traced)", args.workload.name()),
            &traced.metrics,
        );
        println!("  {}", traced.accounting);
        traced.metrics
    } else {
        e2e
    };
    let samples: Vec<String> = reported
        .iter()
        .map(|(k, m)| format!("\"{k}\": \"{}\"", m.note.replace('"', "'")))
        .collect();
    println!(
        "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"git_rev\": \"{}\", \"daemon\": \"{}\", \"conns\": {CONNS}, \"attempted\": {}, \"completed\": {}, \"failed\": {}, \"latency_limit_ms\": {}, \"notes\": {{{}}}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
        git_revision(),
        flags,
        attempted,
        attempted - failed,
        failed,
        latency_limit_ms(args.workload),
        samples.join(", ")
    );
    Ok((correct, result_line(correct, attempted, failed, &reported)?))
}
