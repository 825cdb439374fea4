//! End-to-end PDR serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload read-fr|ingest-durable|adaptive-subs --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives a seeded workload through the real serving stack (`NetServer`
//! over a `ServeDriver`, engines from `EngineSpec`, loopback TCP) with a
//! closed-loop load generator speaking through `NetClient`, checks every
//! answer, and prints one JSON result as the last line of stdout. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` a
//! separate traced repeat reports the per-layer ledger. See
//! `perfbench/NOTES.md`.

mod load;
mod shadow;
mod stack;
mod stats;
mod trace;
mod traced;
mod workload;

use load::{NoHooks, OpKind, Repeat};
use pdr_core::Executor;
use stats::{median, num, quantile, string, Metrics};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Workload, FR_THREADS, POOL_WORKERS};

/// Setups per run at least (their median is `setup_s`)…
const MIN_SETUPS: usize = 5;
/// …and until they add up to this much, so a cheap setup is sampled
/// often enough for a steady median.
const MIN_SETUP_TIME: Duration = Duration::from_secs(2);
/// A p90 is reported only over at least this many samples.
const P90_MIN_SAMPLES: usize = 100;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The benchmark's package directory (results go under `out/`).
fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// FNV-1a over every file under `crates/`, the root manifests and this
/// package's sources: a digest of what ran, for checkouts without git
/// metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let root = package_dir().join("..");
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&package_dir().join("src"), &mut files);
    files.sort();
    let mut d = load::Digest::default();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            for chunk in bytes.chunks(8) {
                let mut w = [0u8; 8];
                w[..chunk.len()].copy_from_slice(chunk);
                d.add(u64::from_le_bytes(w));
            }
        }
    }
    format!("{:016x}", d.value())
}

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Host and build facts recorded with every result.
fn env_stamp(source: &str) -> String {
    let root = package_dir().join("..");
    let commit = if root.join(".git").exists() {
        let dir = root.to_string_lossy().to_string();
        command_line("git", &["-C", &dir, "rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
    } else {
        "none (not a git checkout)".into()
    };
    format!(
        "{{\"nproc\":{},\"available_parallelism\":{},\"pool_workers\":{},\"fr_threads\":{},\
         \"deadline_ms\":{},\"profile\":{},\"commit\":{},\"source_digest\":{}}}",
        command_line("nproc", &[]).unwrap_or_else(|| "null".into()),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        Executor::global().workers(),
        FR_THREADS,
        workload::DEADLINE.as_millis(),
        string(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        string(&commit),
        string(source)
    )
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time the hypervisor stole from this machine so far, in ms
/// (the `steal` column of `/proc/stat`, in clock ticks of 10 ms).
fn steal_ms() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|cpu| cpu.split_whitespace().nth(8))
                .and_then(|t| t.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks * 10.0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What every run reports besides its metrics.
struct Outcome {
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
    metrics: Metrics,
    detail: Vec<(&'static str, String)>,
}

/// Digest stored per (workload, seed, program source): a later run of
/// the same inputs on the same program must reproduce it.
fn check_stored_digest(w: &Workload, seed: u64, source: &str, digest: u64) -> Option<String> {
    let dir = package_dir().join("out").join("digests");
    let path = dir.join(format!("{}-seed{seed}-{source}.txt", w.name));
    let want = format!("{digest:016x}");
    match std::fs::read_to_string(&path) {
        Ok(stored) if stored.trim() == want => None,
        Ok(stored) => Some(format!(
            "answer digest {want} differs from {} stored by an earlier run of the same inputs",
            stored.trim()
        )),
        Err(_) => {
            let _ = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, &want));
            None
        }
    }
}

/// Latencies of `kind` across repeats, in ms.
fn latencies(reps: &[Repeat], kind: OpKind) -> Vec<f64> {
    reps.iter()
        .flat_map(|r| r.of(kind).map(|o| ms(o.latency)))
        .collect()
}

/// Key-balanced median: the mean over keys of each key's median. Every
/// workload mixes keys whose costs differ up to 1.5x in equal shares; a
/// pooled median of such a mix sits in the gap between the clusters and
/// jumps across it with noise, a mean of per-key medians does not.
fn key_balanced(by_key: &BTreeMap<String, f64>) -> f64 {
    by_key.values().sum::<f64>() / by_key.len().max(1) as f64
}

/// Median query latency per key (`engine:count:q_t`), in ms.
fn per_key_p50(reps: &[Repeat]) -> BTreeMap<String, f64> {
    let mut by_key: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for op in reps.iter().flat_map(|r| r.of(OpKind::Query)) {
        if let Some(k) = op.key {
            let name = format!("{}:{}:{}", k.engine, k.count, k.q_t);
            by_key.entry(name).or_default().push(ms(op.latency));
        }
    }
    by_key.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

fn p90_detail(values: &[f64]) -> String {
    if values.len() >= P90_MIN_SAMPLES {
        format!(
            "{{\"value\":{},\"samples\":{}}}",
            num(quantile(values, 0.9)),
            values.len()
        )
    } else {
        format!("{{\"value\":null,\"samples\":{}}}", values.len())
    }
}

/// The ingest workload's correctness reference: PA answers of the last
/// round must equal an in-process engine of the same spec fed the same
/// seeded traffic, rect for rect.
fn check_pa_reference(w: &Workload, v: &load::Verification) -> Vec<String> {
    if v.pa_answers.is_empty() {
        return Vec::new();
    }
    let mut shadow = match shadow::Shadow::new(w, false) {
        Ok(s) => s,
        Err(e) => return vec![e],
    };
    let mut tr = trace::Tracer::new();
    for _ in 0..workload::TICKS {
        shadow.tick(&mut tr);
    }
    let mut out = Vec::new();
    for (key, rects) in &v.pa_answers {
        match shadow.query(*key, &mut tr) {
            Ok(reference) if reference.regions.rects() == rects.as_slice() => {}
            Ok(reference) => out.push(format!(
                "served PA answer for {key:?} ({} rects) differs from the reference ({} rects)",
                rects.len(),
                reference.regions.len()
            )),
            Err(e) => out.push(e),
        }
    }
    out
}

/// `--trace 0`: whole repeats (fresh stack each) until the time budget
/// is spent, then the correctness pass on the last repeat's stack.
fn run_timed(w: &Workload, seed: u64, seconds: u64, source: &str) -> Result<Outcome, String> {
    let plan = w.plan(seed);
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let steal_before = steal_ms();
    // Set-ups are sampled before and after the repeats, so their median
    // spans the run instead of one moment of the host's load.
    let mut setups = Vec::new();
    while setups.iter().sum::<Duration>() < MIN_SETUP_TIME / 2 {
        setups.push(stack::build(w)?.setup);
    }
    let mut reps: Vec<Repeat> = Vec::new();
    let mut verification = None;
    let mut peak_rss = 0.0;
    let mut deadline_misses = 0u64;
    loop {
        let built = stack::build(w)?;
        let setup = built.setup;
        setups.push(setup);
        let stack = built.start()?;
        let rep_started = Instant::now();
        let (rep, mut conns) = load::run_repeat(w, &plan, &stack.addr, &mut NoHooks);
        // Start another repeat only if one more (set-up + plan) fits.
        let last = started.elapsed() + setup + rep_started.elapsed() > budget;
        if last {
            // Before the correctness pass: the oracle's ground-truth
            // sweep behind `check` is the benchmark's cost, not serving's.
            peak_rss = peak_rss_mb();
            verification = Some(load::verify(&plan, &mut conns[0], &rep.mirrors, false));
        }
        deadline_misses += rep.ops.iter().filter(|o| o.deadline_miss).count() as u64;
        drop(conns);
        stack.stop()?;
        reps.push(rep);
        if last {
            break;
        }
    }
    while setups.len() < MIN_SETUPS || setups.iter().sum::<Duration>() < MIN_SETUP_TIME {
        setups.push(stack::build(w)?.setup);
    }
    let v = verification.expect("the last repeat is verified");

    let mut mismatches: Vec<String> = Vec::new();
    let digest = reps[0].digest;
    for (i, r) in reps.iter().enumerate() {
        mismatches.extend(r.mismatches.iter().cloned());
        if r.digest != digest {
            mismatches.push(format!(
                "repeat {i} answer digest {:016x} != {digest:016x}",
                r.digest
            ));
        }
    }
    mismatches.extend(v.mismatches.iter().cloned());
    mismatches.extend(check_pa_reference(w, &v));
    mismatches.extend(check_stored_digest(w, seed, source, digest));

    let queries = latencies(&reps, OpKind::Query);
    let ticks = latencies(&reps, OpKind::Tick);
    let refresh: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.refresh.iter().map(|d| ms(*d)))
        .collect();
    let window: f64 = reps.iter().map(|r| r.window.as_secs_f64()).sum();
    let updates: u64 = reps
        .iter()
        .flat_map(|r| r.of(OpKind::Tick).map(|o| o.updates))
        .sum();
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum::<u64>() + v.attempted;
    let failed: u64 = reps.iter().map(|r| r.failed).sum::<u64>() + v.failed;

    let by_key = per_key_p50(&reps);
    let mut m = Metrics::default();
    m.put(
        "setup_s",
        median(&setups.iter().map(Duration::as_secs_f64).collect::<Vec<_>>()),
        "s",
    );
    m.put("query_p50_ms", key_balanced(&by_key), "ms");
    m.put("queries_per_s", queries.len() as f64 / window, "1/s");
    m.put("tick_p50_ms", median(&ticks), "ms");
    m.put(
        "updates_per_s",
        updates as f64 / (ticks.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    m.put("sub_refresh_p50_ms", median(&refresh), "ms");
    m.put("peak_rss_mb", peak_rss, "MiB");

    let detail = vec![
        ("repeats", reps.len().to_string()),
        ("ticks_per_repeat", workload::TICKS.to_string()),
        ("digest", string(&format!("{digest:016x}"))),
        ("query_samples", queries.len().to_string()),
        ("tick_samples", ticks.len().to_string()),
        (
            "query_p50_by_key_ms",
            format!(
                "{{{}}}",
                by_key
                    .iter()
                    .map(|(k, v)| format!("{}:{}", string(k), num(*v)))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
        ("query_p50_pooled_ms", num(median(&queries))),
        ("query_p90_ms", p90_detail(&queries)),
        ("tick_p90_ms", p90_detail(&ticks)),
        ("fail_ratio", num(failed as f64 / attempted.max(1) as f64)),
        ("deadline_misses", deadline_misses.to_string()),
        (
            "setups_s",
            format!(
                "[{}]",
                setups
                    .iter()
                    .map(|d| num(d.as_secs_f64()))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
        ("window_s", num(window)),
        ("steal_ms", num(steal_ms() - steal_before)),
        (
            "first_repeat_ticks",
            format!(
                "[{}]",
                reps[0]
                    .of(OpKind::Tick)
                    .map(|o| format!("[{},{}]", o.updates, num(ms(o.latency))))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
    ];
    Ok(Outcome {
        attempted,
        failed,
        mismatches,
        metrics: m,
        detail,
    })
}

fn exec_counters() -> [f64; 3] {
    let obs = Executor::global().obs_report();
    let c = |n: &str| obs.counter(n).unwrap_or(0) as f64;
    [c("tasks"), c("steals"), c("parked_us") / 1e3]
}

/// `--trace 1`: an untraced repeat (the tracing-overhead baseline), then
/// the traced repeat with the shadow replaying every layer between
/// rounds, then the correctness pass with paired check/query timing.
fn run_traced(w: &Workload, seed: u64, source: &str) -> Result<Outcome, String> {
    let plan = w.plan(seed);

    let stack = stack::build(w)?.start()?;
    let exec_before = exec_counters();
    let (untraced, conns) = load::run_repeat(w, &plan, &stack.addr, &mut NoHooks);
    let exec_after = exec_counters();
    drop(conns);
    stack.stop()?;
    let exec = [0, 1, 2].map(|i| exec_after[i] - exec_before[i]);

    let stack = stack::build(w)?.start()?;
    let mut traced = traced::Traced::new(w, &plan, &stack.addr)?;
    let (rep, mut conns) = load::run_repeat(w, &plan, &stack.addr, &mut traced);
    let v = load::verify(&plan, &mut conns[0], &rep.mirrors, true);
    drop(conns);
    let attempted = untraced.attempted + rep.attempted + v.attempted;
    let failed = untraced.failed + rep.failed + v.failed;
    let mut mismatches: Vec<String> = untraced.mismatches.clone();
    mismatches.extend(rep.mismatches.iter().cloned());
    mismatches.extend(v.mismatches.iter().cloned());
    if untraced.digest != rep.digest {
        mismatches.push(format!(
            "traced answer digest {:016x} != untraced {:016x}",
            rep.digest, untraced.digest
        ));
    }
    mismatches.extend(check_stored_digest(w, seed, source, rep.digest));
    let metrics = traced::per_layer(
        &traced,
        &traced::Extra {
            untraced: &untraced,
            traced: &rep,
            exec,
            check_extra_ms: v.check_extra_ms.clone(),
        },
    );
    let ledger = traced::ledger_json(&traced, &untraced);
    let spans = traced.tr.dump();
    drop(traced);
    stack.stop()?;

    let spans_path = package_dir()
        .join("out")
        .join(format!("{}-seed{seed}.spans", w.name));
    let _ = std::fs::create_dir_all(package_dir().join("out"))
        .and_then(|_| std::fs::write(&spans_path, spans));
    let detail = vec![
        ("digest", string(&format!("{:016x}", rep.digest))),
        ("ledger", ledger),
        (
            "traced_query_p50_ms",
            num(key_balanced(&per_key_p50(std::slice::from_ref(&rep)))),
        ),
        (
            "untraced_query_p50_ms",
            num(key_balanced(&per_key_p50(std::slice::from_ref(&untraced)))),
        ),
        (
            "layers",
            include_str!("../layers.json")
                .lines()
                .map(str::trim)
                .collect::<Vec<_>>()
                .join(" "),
        ),
    ];
    Ok(Outcome {
        attempted,
        failed,
        mismatches,
        metrics,
        detail,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    // Pinned before the executor's first use: the pool sizes itself
    // from this variable once per process.
    std::env::set_var(pdr_core::exec::POOL_WORKERS_ENV, POOL_WORKERS.to_string());
    let source = source_digest();
    let env = env_stamp(&source);
    let w = args.workload;
    let outcome = if args.trace {
        run_traced(&w, args.seed, &source)
    } else {
        run_timed(&w, args.seed, args.seconds, &source)
    };
    let o = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name);
            return ExitCode::FAILURE;
        }
    };
    for m in &o.mismatches {
        eprintln!("perfbench: {}: MISMATCH {m}", w.name);
    }
    let mut detail: Vec<String> = vec![
        format!("\"workload\":{}", string(w.name)),
        format!("\"seed\":{}", args.seed),
        format!("\"trace\":{}", args.trace),
        format!("\"env\":{env}"),
        format!(
            "\"mismatches\":[{}]",
            o.mismatches
                .iter()
                .map(|m| string(m))
                .collect::<Vec<_>>()
                .join(",")
        ),
    ];
    detail.extend(o.detail.iter().map(|(k, v)| format!("\"{k}\":{v}")));
    let detail = format!("{{{}}}", detail.join(","));
    let path = package_dir().join("out").join(format!(
        "{}-seed{}-trace{}.json",
        w.name,
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::create_dir_all(package_dir().join("out"))
        .and_then(|_| std::fs::write(&path, format!("{detail}\n")));
    println!("{detail}");
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        o.mismatches.is_empty(),
        o.attempted,
        o.failed,
        o.metrics.to_json()
    );
    ExitCode::SUCCESS
}
