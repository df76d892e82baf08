//! `sim_reproduce`: regenerate five of the paper's figures and tables
//! through `lopc_bench::run_experiment` (small P, where the simulator
//! picks the heap scheduler; replications spread over `nproc`), then run
//! one P=65 536 all-to-all simulation (calendar queue) until the run's
//! seconds are used, at least once.
//!
//! Checks: every regenerated LoPC comparison table stays within the
//! paper's 6 % accuracy band, the contention-free (LogP) table
//! under-predicts by at most 40 % (the paper reports 37 % at W=0), and
//! the large run's mean cycle time lies between the contention-free
//! `W + 2St + 2So` and the LoPC upper bound `W + 2St + 3.46So`.

use crate::serving::{setup_seconds, timed_setups, SETUPS_BEFORE};
use crate::stats::median;
use crate::{Args, Outcome, FIGURES};
use lopc_dist::ServiceTime;
use lopc_sim::{DestChooser, Scheduler, SimConfig, SimReport, StopCondition, ThreadSpec};
use std::time::Instant;

/// Processors of the large run.
const LARGE_P: usize = 65_536;
/// Cycles each thread completes in the large run.
const LARGE_CYCLES: u64 = 12;
const W: f64 = 512.0;
const ST: f64 = 25.0;
const SO: f64 = 200.0;

/// All-to-all machine of `p` nodes, each thread working `W` between
/// requests to a uniformly chosen other node.
fn all_to_all(p: usize, cycles: u64, seed: u64) -> SimConfig {
    SimConfig {
        p,
        net_latency: ST,
        request_handler: ServiceTime::exponential(SO),
        reply_handler: ServiceTime::exponential(SO),
        threads: vec![
            ThreadSpec {
                work: Some(ServiceTime::constant(W)),
                dest: DestChooser::UniformOther,
                hops: 1,
                fanout: 1,
            };
            p
        ],
        protocol_processor: false,
        latency_dist: None,
        stop: StopCondition::CyclesPerThread { n: cycles },
        seed,
    }
}

/// Regenerate one experiment and check its tables against the paper's
/// error bands.
fn figure(out: &mut Outcome, id: &str) -> f64 {
    let t = Instant::now();
    let result = lopc_bench::run_experiment(id, false);
    let secs = t.elapsed().as_secs_f64();
    let Some(result) = result else {
        out.check(format!("{id}: unknown experiment"), false);
        return secs;
    };
    out.check(
        format!("{id}: has comparison tables"),
        !result.tables.is_empty(),
    );
    for table in &result.tables {
        let worst = table.max_abs_err();
        if table.quantity.contains("LogP") {
            let under = table.rows.iter().all(|r| r.err() < 0.0);
            out.check(
                format!(
                    "{id}: {} under-predicts within 40 % (max {:.1} %)",
                    table.quantity,
                    worst * 100.0
                ),
                under && worst <= 0.40,
            );
        } else {
            out.check(
                format!(
                    "{id}: {} within 6 % (max {:.1} %)",
                    table.quantity,
                    worst * 100.0
                ),
                worst <= 0.06,
            );
        }
    }
    secs
}

fn check_large(out: &mut Outcome, report: &SimReport) {
    let r = report.aggregate.mean_r;
    let (lo, hi) = (W + 2.0 * ST + 2.0 * SO, W + 2.0 * ST + 3.46 * SO);
    out.check(
        format!("P={LARGE_P} mean R {r:.1} within [{lo}, {hi}]"),
        (lo..=hi).contains(&r),
    );
}

/// Time one large run.
fn large(out: &mut Outcome, seed: u64, scheduler: Option<Scheduler>) -> Option<(f64, SimReport)> {
    let cfg = all_to_all(LARGE_P, LARGE_CYCLES, seed);
    let t = Instant::now();
    let report = match scheduler {
        None => lopc_sim::run(&cfg),
        Some(s) => lopc_sim::run_with_scheduler(&cfg, s),
    };
    let secs = t.elapsed().as_secs_f64();
    match report {
        Ok(r) => {
            check_large(out, &r);
            Some((secs, r))
        }
        Err(e) => {
            out.check(format!("large run: {e}"), false);
            None
        }
    }
}

/// Run `sim_reproduce`.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    // Set-up: a two-cycle run of the large machine, which loads the
    // simulator's code and grows the allocator to the large run's size
    // before anything is timed.
    let warm = |seed| {
        lopc_sim::run(&all_to_all(LARGE_P, 2, seed))
            .map(drop)
            .map_err(|e| e.to_string())
    };
    let setup_times = match timed_setups(SETUPS_BEFORE, || warm(args.seed), drop) {
        Ok(((), times)) => times,
        Err(e) => {
            out.check(format!("set-up: {e}"), false);
            out.invalidate(e);
            return out;
        }
    };
    let mut figure_secs = Vec::new();
    for id in FIGURES {
        let secs = figure(&mut out, id);
        out.set(format!("sim.figure_s.{id}"), secs);
        figure_secs.push(secs);
    }
    if !args.trace {
        let mut rates = Vec::new();
        loop {
            if let Some((secs, r)) = large(&mut out, args.seed, None) {
                rates.push(r.events as f64 / secs);
            }
            if t0.elapsed().as_secs_f64() >= args.seconds || rates.is_empty() {
                break;
            }
        }
        match setup_seconds(setup_times, || warm(args.seed), drop) {
            Ok(s) => out.set("setup_s", s),
            Err(e) => out.check(format!("set-up: {e}"), false),
        }
        out.set("work_per_s", median(&rates));
        out.set("median_ms", figure_secs.iter().sum::<f64>() * 1e3);
        out.set(
            "tail_ms",
            figure_secs.iter().fold(0.0, |a: f64, &b| a.max(b)) * 1e3,
        );
        eprintln!("sim_reproduce: large-run events/s {rates:?}, figures {figure_secs:?} s");
    } else {
        // The large configuration under each pending-event queue. Nothing
        // is traced inside a simulation, so `trace.overhead_pct` stays 0.
        let calendar = large(&mut out, args.seed, Some(Scheduler::Calendar));
        let heap = large(&mut out, args.seed, Some(Scheduler::BinaryHeap));
        if let (Some((c, rc)), Some((h, rh))) = (calendar, heap) {
            out.check(
                "schedulers agree on the large run",
                rc.events == rh.events
                    && rc.aggregate.mean_r.to_bits() == rh.aggregate.mean_r.to_bits(),
            );
            out.set("sim.events", rc.events as f64);
            out.set("sched.calendar_s", c);
            out.set("sched.heap_s", h);
        }
    }
    out.set("peak_rss_mb", crate::host::peak_rss_mb());
    out
}
