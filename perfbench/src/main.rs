//! `lopc-perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload predict_open --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Each run sets up the system under test several times (reporting the
//! median set-up time), drives one seeded workload through the public API
//! for `--seconds`, checks every answer it can afford to, and prints one
//! JSON object as the last line of standard output:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set, measured with tracing off; with
//! `--trace 1` a separate traced run reports the per-layer set, timed from
//! outside around calls into each layer's public functions. A fuller
//! result (host and provenance block, every extra figure) goes to
//! `.bench_out/` together with the recorded spans.
//!
//! End-to-end metrics mean the same thing on every workload:
//!
//! | metric | predict_open | sweep_batch | sim_reproduce |
//! |---|---|---|---|
//! | `work_per_s` | requests/s at capacity (closed window) | scenarios/s | large-run events/s |
//! | `median_ms` | request p50 at capacity | batch p50 | figure-set regeneration |
//! | `tail_ms` | request p95 at capacity | batch p95 | slowest single figure |
//!
//! plus `setup_s` (median of nine set-ups, five before the measured phase
//! and four after it) and `peak_rss_mb`. Failed or wrong operations are
//! the `failed` count over `attempted`.
//!
//! `perfbench compare A.json B.json` compares two written results and
//! refuses results taken on different hosts. `perfbench --manifest`
//! prints the `BENCHMARK.json` this program implements.

mod framer;
mod gen;
mod host;
mod open;
mod replay;
mod rng;
mod serving;
mod sim;
mod stats;
mod sweep;
mod trace;

use host::Host;
use lopc_serve::json::{parse, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// Seconds one run measures.
const RUN_SECONDS: u64 = 30;

/// The workloads, each with the reason it exists.
const WORKLOADS: &[(&str, &str)] = &[
    (
        "predict_open",
        "open loop of exact single predicts: warm, fresh and General P=64 keys load reactor/http/json/codec/cache; General blocks the reactor",
    ),
    (
        "sweep_batch",
        "closed loop of nproc clients posting 128-lane W-sweeps, exact and tolerant: worker offload, solve_batch, interp cells; traced runs also route it over a 2-node cluster",
    ),
    (
        "sim_reproduce",
        "regenerate five paper figures (heap scheduler, small P) and one P=65536 all-to-all run (calendar queue): the simulator layers",
    ),
];

/// One metric of the manifest.
struct MetricDef {
    name: String,
    unit: &'static str,
    better: &'static str,
    bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

fn bounded(name: &str, unit: &'static str, better: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        bound: Some(bound),
        ..def(name, unit, better)
    }
}

fn end_to_end() -> Vec<MetricDef> {
    vec![
        bounded("setup_s", "s", "lower", 0.25),
        bounded("peak_rss_mb", "MB", "lower", 0.20),
        bounded("work_per_s", "1/s", "higher", 0.25),
        bounded("median_ms", "ms", "lower", 0.25),
        bounded("tail_ms", "ms", "lower", 0.25),
    ]
}

/// Request classes of the serving stages: single predicts on
/// `predict_open`, batches on the sweep workloads.
const CLASSES: [&str; 5] = ["warm", "miss", "general", "exact", "tolerant"];
/// Serving stages timed per class; self times, in ns per request (per
/// batch for batch classes, except `cache.*`, which are per lane).
const STAGES: [&str; 9] = [
    "http.parse_ns",
    "json.parse_ns",
    "codec.decode_ns",
    "serve.predict_ns",
    "codec.encode_ns",
    "http.write_ns",
    "server.handle_ns",
    "cache.key_ns",
    "cache.lookup_ns",
];
/// Experiments `sim_reproduce` regenerates.
const FIGURES: [&str; 5] = ["fig5_2", "tab5_err", "fig6_2", "general", "shared_mem"];

fn per_layer() -> Vec<MetricDef> {
    let mut out = Vec::new();
    for stage in STAGES {
        for class in CLASSES {
            out.push(def(format!("{stage}.{class}"), "ns", "lower"));
        }
    }
    for class in CLASSES {
        out.push(def(
            format!("server.reconcile_err_pct.{class}"),
            "%",
            "lower",
        ));
    }
    for class in &CLASSES[..3] {
        out.push(def(format!("client.rtt_ns.{class}"), "ns", "lower"));
        out.push(def(format!("reactor.transport_ns.{class}"), "ns", "lower"));
    }
    for (name, unit, better) in [
        ("cache.hit_rate", "ratio", "higher"),
        ("core.solve_ns", "ns", "lower"),
        ("core.solve_batch_ns_per_lane", "ns", "lower"),
        ("interp.solves_per_point", "ratio", "lower"),
        ("interp.predict_ns_per_lane", "ns", "lower"),
        ("interp.hit_share", "ratio", "higher"),
        ("interp.cells_built", "count", "lower"),
        ("interp.cells_prefetched", "count", "higher"),
        ("reactor.wakeups_per_request", "ratio", "lower"),
        ("reactor.events_per_wakeup", "ratio", "higher"),
        ("cluster.route_ns_per_lane", "ns", "lower"),
        ("cluster.wire_ns", "ns", "lower"),
        ("cluster.cells_shipped", "count", "higher"),
        ("cluster.cells_received", "count", "higher"),
        ("cluster.cells_rejected", "count", "lower"),
        ("cluster.forwarded", "count", "lower"),
    ] {
        out.push(def(name, unit, better));
    }
    for id in FIGURES {
        out.push(def(format!("sim.figure_s.{id}"), "s", "lower"));
    }
    for (name, unit, better) in [
        ("sim.events", "count", "higher"),
        ("sched.calendar_s", "s", "lower"),
        ("sched.heap_s", "s", "lower"),
        ("gen.late_p99_us", "us", "lower"),
        ("gen.backlog", "count", "lower"),
        ("open.p50_ms", "ms", "lower"),
        ("open.p95_ms", "ms", "lower"),
        ("open.p99_ms", "ms", "lower"),
        ("open.p999_ms", "ms", "lower"),
        ("batch.exact_p50_ms", "ms", "lower"),
        ("batch.tolerant_p50_ms", "ms", "lower"),
        ("error_share", "ratio", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ] {
        out.push(def(name, unit, better));
    }
    out
}

/// The `BENCHMARK.json` this program implements.
fn manifest() -> Json {
    let metric = |m: &MetricDef| {
        let mut kv = vec![
            ("name".to_string(), Json::Str(m.name.clone())),
            ("unit".to_string(), Json::Str(m.unit.into())),
            ("better".to_string(), Json::Str(m.better.into())),
        ];
        if let Some(b) = m.bound {
            kv.push(("bound".into(), Json::Num(b)));
        }
        Json::Object(kv)
    };
    let strs = |xs: &[&str]| Json::Array(xs.iter().map(|s| Json::Str(s.to_string())).collect());
    Json::Object(vec![
        (
            "command".into(),
            strs(&[
                "cargo",
                "run",
                "--offline",
                "--quiet",
                "--release",
                "--manifest-path",
                "perfbench/Cargo.toml",
                "--",
            ]),
        ),
        ("paths".into(), strs(&["perfbench"])),
        ("run_seconds".into(), Json::Num(RUN_SECONDS as f64)),
        (
            "workloads".into(),
            Json::Array(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::Object(vec![
                            ("name".into(), Json::Str(name.to_string())),
                            ("why".into(), Json::Str(why.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Json::Array(end_to_end().iter().map(metric).collect()),
        ),
        (
            "per_layer".into(),
            Json::Array(per_layer().iter().map(metric).collect()),
        ),
    ])
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (requests, batches, simulations, checks).
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Reasons the measurement itself is invalid (the generator fell
    /// behind, too few samples): such a run reports no numbers.
    pub invalid: Vec<String>,
    /// Failed named checks, for the report.
    pub failed_checks: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Count one named correctness check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failed_checks.push(name.into());
        }
    }

    /// Mark the run invalid.
    pub fn invalidate(&mut self, why: impl Into<String>) {
        self.invalid.push(why.into());
    }
}

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, RUN_SECONDS as f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    if !(seconds.is_finite() && seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn compare(a: &str, b: &str) -> Result<(), String> {
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (ja, jb) = (load(a)?, load(b)?);
    let host = |j: &Json, p: &str| {
        j.get("host")
            .and_then(Host::from_json)
            .ok_or(format!("{p}: no host block"))
    };
    if let Some(why) = host(&ja, a)?.incomparable(&host(&jb, b)?) {
        return Err(format!(
            "refusing to compare results from different hosts: {why}"
        ));
    }
    let metrics = |j: &Json| -> Vec<(String, f64)> {
        match j.get("metrics") {
            Some(Json::Object(kv)) => kv
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_num()?)))
                .collect(),
            _ => Vec::new(),
        }
    };
    let mb: BTreeMap<String, f64> = metrics(&jb).into_iter().collect();
    println!("{:<40} {:>14} {:>14} {:>8}", "metric", "A", "B", "B/A");
    for (k, va) in metrics(&ja) {
        if let Some(vb) = mb.get(&k) {
            println!("{k:<40} {va:>14.6} {vb:>14.6} {:>8.3}", vb / va);
        }
    }
    Ok(())
}

fn run(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "predict_open" => open::run(args),
        "sweep_batch" => sweep::run(args),
        "sim_reproduce" => sim::run(args),
        other => unreachable!("workload {other} was validated"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--manifest") => {
            println!("{}", manifest().to_pretty());
            return ExitCode::SUCCESS;
        }
        Some("compare") if argv.len() == 3 => {
            return match compare(&argv[1], &argv[2]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::from(2)
                }
            };
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().expect("working directory");
    let host = Host::probe(&root);
    let mut outcome = run(&args);
    if !outcome.invalid.is_empty() {
        eprintln!(
            "perfbench: invalid run, no numbers reported: {}",
            outcome.invalid.join("; ")
        );
        return ExitCode::from(3);
    }
    let defs = if args.trace {
        per_layer()
    } else {
        end_to_end()
    };
    if args.trace {
        outcome.set(
            "error_share",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
        );
        // A layer this workload does not exercise did no work: zero.
        for d in &defs {
            outcome.metrics.entry(d.name.clone()).or_insert(0.0);
        }
    }
    let mut metrics = Vec::new();
    for d in &defs {
        let Some(&value) = outcome.metrics.get(&d.name) else {
            eprintln!("perfbench: workload did not measure {}", d.name);
            return ExitCode::from(4);
        };
        metrics.push((
            d.name.clone(),
            Json::Object(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(d.unit.into())),
            ]),
        ));
        eprintln!("{:<40} {value:>16.6} {}", d.name, d.unit);
    }
    if !outcome.failed_checks.is_empty() {
        eprintln!("failed checks: {}", outcome.failed_checks.join("; "));
    }
    let correct = outcome.failed == 0;
    let result = Json::Object(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("metrics".into(), Json::Object(metrics)),
    ]);
    let mut full = vec![
        ("workload".to_string(), Json::Str(args.workload.clone())),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("host".into(), host.to_json()),
    ];
    if let Json::Object(kv) = &result {
        full.extend(kv.iter().cloned());
    }
    full.push((
        "all_measured".into(),
        Json::Object(
            outcome
                .metrics
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect(),
        ),
    ));
    let path = Path::new(OUT_DIR).join(format!(
        "{}-trace{}-seed{}.json",
        args.workload,
        u8::from(args.trace),
        args.seed
    ));
    if let Err(e) = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, Json::Object(full).to_pretty()))
    {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!("# host {}", host.to_json().to_compact());
    println!("{}", result.to_compact());
    ExitCode::SUCCESS
}

/// Where results and spans are written, relative to the checkout root.
pub const OUT_DIR: &str = ".bench_out";

/// Write a traced run's spans to `OUT_DIR/<workload>.spans.tsv`.
pub fn write_spans(tracer: &trace::Tracer, workload: &str) {
    let path = Path::new(OUT_DIR).join(format!("{workload}.spans.tsv"));
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| tracer.write_tsv(&path)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_program() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            parse(&text).expect("valid JSON"),
            manifest(),
            "regenerate with `perfbench --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn manifest_names_are_unique_and_well_formed() {
        let mut names = std::collections::HashSet::new();
        for d in end_to_end().iter().chain(per_layer().iter()) {
            assert!(names.insert(d.name.clone()), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        assert!(per_layer().len() <= 128);
        assert!(end_to_end().iter().all(|d| d.bound.unwrap() <= 0.25));
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload sim_reproduce --seed 9 --seconds 2 --trace 1",
        ))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (9, 2.0, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload sim_reproduce --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }
}
