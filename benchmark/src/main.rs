//! The repository benchmark.  See README.md for the workloads, the metrics
//! and what each per-layer metric should move.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload fleet-read --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a host line, one line per metric (name, value, unit, samples),
//! any failed check, and as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones and writes the spans to `.bench_out/`.

mod check;
mod run;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use run::{Measured, Pipeline, ENGINES, SETUP_REPS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

const USAGE: &str = "usage: fhg-benchmark --workload <fleet-read|churn-rw|offline-analyze> \
                     --seed <n> --seconds <s> --trace <0|1> [--tiny]";

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, tiny: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--tiny" => args.tiny = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The host and environment the numbers were measured on.
fn host_record(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let mut env: Vec<(String, String)> =
        std::env::vars().filter(|(k, _)| k.starts_with("FHG_")).collect();
    env.sort();
    let env =
        env.iter().map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))).collect::<Vec<_>>();
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"pool_threads\":{},\"kernel\":\"{:?}\",\"env\":{{{}}},\"commit\":{}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        rayon::current_num_threads(),
        fhg::graph::KernelMode::active(),
        env.join(","),
        json_str(&commit),
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `(name, value, unit, note)` for every end-to-end metric.
fn end_to_end(m: &Measured, peak_rss_mb: f64) -> Vec<(&'static str, f64, &'static str, String)> {
    let rounds = format!("interquartile mean of {} rounds", m.rounds);
    let (totals, _) = m.query_samples;
    let events = format!("{} events", m.events);
    vec![
        ("setup_s", m.setup_s, "s", format!("median of {SETUP_REPS} set-ups")),
        ("ready_s", m.ready_s, "s", rounds.clone()),
        ("query_p50_us", m.query_p50_us, "us", format!("{totals} query_totals samples")),
        ("batch_qps", m.batch_qps, "1/s", "interquartile mean of the slabs".into()),
        ("event_p50_us", m.event_p50_us, "us", events),
        (
            "events_per_s",
            m.events_per_s,
            "1/s",
            "interquartile mean of the 1024-event blocks".into(),
        ),
        ("recover_s", m.recover_s, "s", rounds),
        ("analyze_s", m.analyze_s, "s", "interquartile mean of the job batches".into()),
        ("peak_rss_mb", peak_rss_mb, "MiB", "VmHWM".into()),
    ]
}

/// `(name, value, unit, note)` for the figures printed as `info` lines
/// but kept out of the metrics: the tails, which on a shared host follow
/// the neighbours' load more than the program, and the closed-loop read
/// rate, the reciprocal of the mean read latency.
fn info(m: &Measured) -> Vec<(&'static str, f64, &'static str, String)> {
    let (totals, full) = m.query_samples;
    let reads = format!("{totals} query_totals samples");
    vec![
        ("query_qps", m.query_qps, "1/s", reads.clone()),
        ("query_p99_us", m.query_p99_us, "us", reads),
        ("full_query_p99_us", m.full_query_p99_us, "us", format!("{full} query samples")),
        ("event_p99_us", m.event_p99_us, "us", format!("{} events", m.events)),
    ]
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// `(name, value, unit)` for every per-layer metric of a traced run.
fn per_layer(p: &Pipeline) -> Vec<(&'static str, f64, &'static str)> {
    let busy = p.rec.tr.busy();
    let m = &p.rec.m;
    let get = |name: &str| busy.get(name).copied().unwrap_or_default();
    let ms = |name: &str| get(name).mean_ms();
    let report = m.recovery.clone().unwrap_or_default();
    let threads = rayon::current_num_threads() as f64;
    let ops: Vec<_> = busy.iter().filter(|(k, _)| k.starts_with("op.")).map(|(_, b)| *b).collect();
    let op_ns: u64 = ops.iter().map(|b| b.ns).sum();
    let op_self_ns: u64 = ops.iter().map(|b| b.self_ns).sum();
    let mut out = vec![
        ("schedulers.new_ms", ms("schedulers.new"), "ms"),
        ("serving.register_ms", ms("serving.register"), "ms"),
        ("serving.tenants_per_key", m.tenants_per_key, "ratio"),
        ("serving.build_pending_ms", ms("serving.build_pending"), "ms"),
        ("serving.build.classes", m.build_classes as f64, "count"),
        ("serving.build.attendance", m.build_attendance as f64, "count"),
        (
            "serving.build.ns_per_class",
            ratio(get("serving.build_pending").mean_ms() * 1e6, m.build_classes as f64),
            "ns",
        ),
        ("serving.query_totals_ms", ms("serving.query_totals"), "ms"),
        (
            "serving.query_totals.ns_per_node",
            ratio(get("serving.query_totals").ns as f64, m.totals_nodes as f64),
            "ns",
        ),
        ("serving.query_ms", ms("serving.query"), "ms"),
        ("serving.query_batch_ms", ms("serving.query_batch"), "ms"),
        ("serving.query_batch.efficiency", ratio(m.batch_qps, threads * m.query_qps), "ratio"),
        ("serving.hit_ratio", ratio(m.hits as f64, (m.hits + m.misses) as f64), "ratio"),
        ("dynamic.apply_event_ms", ms("dynamic.apply_event"), "ms"),
        ("dynamic.recolored_per_event", ratio(m.recolored as f64, m.events as f64), "count"),
        ("serving.patch_ms", ms("serving.patch"), "ms"),
        (
            "serving.patch.in_place_ratio",
            ratio(m.patched as f64, (m.patched + m.rebuilt) as f64),
            "ratio",
        ),
        ("serving.patch.lanes", ratio(m.lanes as f64, m.patched as f64), "count"),
        (
            "serving.patch.classes_verified",
            ratio(m.classes_verified as f64, m.patched as f64),
            "count",
        ),
        ("serving.audit_step_ms", ms("serving.audit_step"), "ms"),
        ("serving.audit.slots", ratio(m.audited as f64, m.audit_steps as f64), "count"),
        ("persist.wal_append_ms", ms("persist.wal_append"), "ms"),
        ("persist.wal_bytes_per_frame", m.wal_bytes_per_frame, "B"),
        ("persist.snapshot_ms", ms("persist.snapshot"), "ms"),
        ("persist.snapshot_bytes_per_tenant", m.snapshot_bytes_per_tenant, "B"),
        ("persist.recover_ms", ms("persist.recover"), "ms"),
        (
            "persist.recover.rehydrated_ratio",
            ratio(report.profiles_rehydrated as f64, report.slots_loaded as f64),
            "ratio",
        ),
        ("persist.recover.audited", report.audited as f64, "count"),
        ("persist.recover.frames_replayed", report.wal_frames_replayed as f64, "count"),
    ];
    for (slot, &(_, span, ms_name, ns_name)) in ENGINES.iter().enumerate() {
        out.push((ms_name, ms(span), "ms"));
        out.push((ns_name, ratio(m.engine_ns[slot] as f64, m.engine_holidays[slot] as f64), "ns"));
    }
    out.push(("trace.op_self_share", ratio(op_self_ns as f64, op_ns as f64), "ratio"));
    let (untraced, traced) = m.overhead.unwrap_or_default();
    out.push(("trace.overhead", ratio(traced, untraced), "ratio"));
    out
}

/// Failure counters that are zero on a healthy run: printed, and counted
/// in `failed`, but kept out of the metrics object.
fn failure_counters(m: &Measured) -> Vec<(&'static str, u64)> {
    vec![
        ("serving.audit.mismatches", m.audit_mismatches),
        ("persist.recover.quarantined", m.recover_quarantined),
    ]
}

/// Worker threads of the library's pool while the benchmark runs.  The
/// host gives the benchmark two vCPUs of a shared machine; with a second
/// worker, every parallel phase (`build_pending`, `query_batch`,
/// `recover`) ran at the speed of whichever vCPU the neighbours were
/// slowing, and those phases spread 0.2–0.3 of their median between runs
/// of the same code where the single-threaded ones spread about 0.1.
const POOL_THREADS: usize = 1;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workloads::spec(&args.workload, args.tiny) else {
        eprintln!("error: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    if fhg::core::failpoint::active() {
        eprintln!(
            "error: FHG_FAILPOINTS is armed; failpoints change the program being measured, \
             so the benchmark refuses to run"
        );
        return ExitCode::from(3);
    }
    match rayon::ThreadPoolBuilder::new().num_threads(POOL_THREADS).build() {
        Ok(pool) => pool.install(|| run(&args, &spec)),
        Err(e) => {
            eprintln!("error: cannot build the worker pool: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs one workload inside the installed pool and prints the result.
fn run(args: &Args, spec: &workloads::Spec) -> ExitCode {
    println!("host {}", host_record(args));

    let dir = PathBuf::from(".bench_tmp").join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        return ExitCode::from(1);
    }
    let mut pipeline = Pipeline::new(spec, args.seed, args.seconds, &dir, args.trace);
    pipeline.run();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_tmp");

    let peak_rss_mb = stats::peak_rss_mib().unwrap_or(0.0);
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let path = PathBuf::from(".bench_out").join(format!("trace-{}.tsv", args.workload));
        match pipeline.write_trace(&path) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        for (name, value, unit) in per_layer(&pipeline) {
            println!("layer {name} {value} {unit}");
            metrics.push((name, value, unit));
        }
    } else {
        for (name, value, unit, note) in end_to_end(&pipeline.rec.m, peak_rss_mb) {
            println!("metric {name} {value} {unit} {note}");
            metrics.push((name, value, unit));
        }
        for (name, value, unit, note) in info(&pipeline.rec.m) {
            println!("info {name} {value} {unit} {note}");
        }
    }
    for (name, value) in failure_counters(&pipeline.rec.m) {
        println!("counter {name} {value} count");
    }
    let (attempted, failed) = (pipeline.rec.attempted.max(1), pipeline.rec.fail.count);
    let fail_ratio = failed as f64 / attempted as f64;
    println!("metric op_fail_ratio {fail_ratio} ratio failed={failed} attempted={attempted}");

    let mut bad = Vec::new();
    for &(name, value, _) in &metrics {
        if !(value.is_finite() && value > 0.0) {
            bad.push(name);
        }
    }
    if !bad.is_empty() {
        eprintln!("error: metrics without a positive measured value: {}", bad.join(", "));
        return ExitCode::from(1);
    }
    let body = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{body}}}}}",
        failed == 0
    );
    ExitCode::SUCCESS
}
