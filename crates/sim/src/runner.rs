//! Run entry points: single runs, parallel independent replications, the
//! sequential-precision replication loop, and common-random-numbers paired
//! runs.

use crate::config::{ConfigError, SimConfig};
use crate::engine::Engine;
use crate::sched::Scheduler;
use crate::stats::SimReport;
use lopc_stats::{Confidence, PairedOutcome, StoppingRule, Summary};

/// One simulation run on the adaptive (`None`) or an explicit scheduler,
/// optionally recording the cycle trace.
fn run_single(
    cfg: &SimConfig,
    scheduler: Option<Scheduler>,
    traced: bool,
) -> Result<SimReport, ConfigError> {
    let engine = match scheduler {
        None => Engine::new(cfg.clone())?,
        Some(s) => Engine::with_scheduler(cfg.clone(), s)?,
    };
    let engine = if traced {
        engine.with_cycle_trace()
    } else {
        engine
    };
    Ok(engine.run_to_completion())
}

/// Run one simulation to completion with the adaptive default scheduler
/// (see [`Engine::new`]).
pub fn run(cfg: &SimConfig) -> Result<SimReport, ConfigError> {
    run_single(cfg, None, false)
}

/// Run one simulation with an explicit pending-event [`Scheduler`].
///
/// Every scheduler yields a bit-identical [`SimReport`] for the same
/// configuration and seed; this entry point exists for differential tests
/// and scheduler benchmarks.
pub fn run_with_scheduler(cfg: &SimConfig, scheduler: Scheduler) -> Result<SimReport, ConfigError> {
    run_single(cfg, Some(scheduler), false)
}

/// Run one simulation recording the per-cycle response-time series
/// ([`SimReport::cycle_trace`]) — the within-run input to
/// `lopc_stats::batch_means` for single-long-run confidence intervals where
/// 5+ replications are unaffordable. Identical to [`run`] in every other
/// respect (same seed → same report, trace or not).
pub fn run_traced(cfg: &SimConfig) -> Result<SimReport, ConfigError> {
    run_single(cfg, None, true)
}

/// Mean with a Student-t 95 % confidence half-width across replications.
///
/// Thin convenience view kept for chart/table call sites; the full interval
/// machinery (confidence levels, stopping rules, acceptance criteria) lives
/// in [`lopc_stats`] and is reachable through [`Replications::summary`].
#[derive(Clone, Copy, Debug)]
pub struct MeanCi {
    /// Mean over replications.
    pub mean: f64,
    /// 95 % Student-t half-width (infinite below two replications: one
    /// sample has no interval).
    pub half_width: f64,
}

impl MeanCi {
    fn from_samples(xs: &[f64]) -> Self {
        let s = Summary::from_samples(xs);
        MeanCi {
            mean: s.mean,
            half_width: s.half_width(Confidence::P95),
        }
    }
}

/// Results of several independent replications of the same configuration
/// (seeds `seed, seed+1, …`), run in parallel.
#[derive(Clone, Debug)]
pub struct Replications {
    /// One report per replication, in seed order.
    pub reports: Vec<SimReport>,
}

impl Replications {
    /// Per-replication samples of an arbitrary statistic, in seed order —
    /// the raw material for any interval estimate.
    pub fn samples<F: Fn(&SimReport) -> f64>(&self, f: F) -> Vec<f64> {
        self.reports.iter().map(f).collect()
    }

    /// Full [`Summary`] (mean, variance, t-based CIs at any level) of a
    /// statistic across replications.
    pub fn summary<F: Fn(&SimReport) -> f64>(&self, f: F) -> Summary {
        Summary::from_samples(&self.samples(f))
    }

    /// Mean cycle response time across replications, with a 95 % CI.
    pub fn mean_r(&self) -> MeanCi {
        MeanCi::from_samples(&self.samples(|r| r.aggregate.mean_r))
    }

    /// System throughput across replications, with a 95 % CI.
    pub fn throughput(&self) -> MeanCi {
        MeanCi::from_samples(&self.samples(|r| r.aggregate.throughput))
    }

    /// Mean of an arbitrary per-report statistic, with a 95 % CI.
    pub fn stat<F: Fn(&SimReport) -> f64>(&self, f: F) -> MeanCi {
        MeanCi::from_samples(&self.samples(f))
    }
}

/// Run replications for the index range `range` (seed `cfg.seed + i`),
/// distributed over scoped threads through the work-stealing claim queue.
///
/// The scheduler selection (`None` = adaptive/env default) never affects
/// results, only speed.
fn run_index_range(
    cfg: &SimConfig,
    range: std::ops::Range<usize>,
    scheduler: Option<Scheduler>,
) -> Vec<SimReport> {
    let count = range.len();
    let base = range.start;
    let run_one = |i: usize| {
        let mut c = cfg.clone();
        c.seed = cfg.seed.wrapping_add((base + i) as u64);
        // Config validated by the caller; the per-replication clone only
        // changes the seed.
        run_single(&c, scheduler, false).expect("validated config")
    };

    let threads = lopc_solver::steal::worker_count(count);
    let mut slots: Vec<Option<SimReport>> = Vec::with_capacity(count);
    slots.resize_with(count, || None);

    if threads <= 1 {
        for (i, slot) in slots.iter_mut().enumerate() {
            *slot = Some(run_one(i));
        }
    } else {
        let queue = lopc_solver::steal::WorkQueue::new(count);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for _ in 0..threads {
                let queue = &queue;
                let run_one = &run_one;
                handles.push(scope.spawn(move || {
                    // One claim per replication: each item is a whole
                    // simulation, so claiming overhead is negligible and
                    // single-index stealing gives the best balance.
                    let mut local = Vec::new();
                    while let Some(i) = queue.claim() {
                        local.push((i, run_one(i)));
                    }
                    local
                }));
            }
            for h in handles {
                for (i, report) in h.join().expect("replication worker panicked") {
                    slots[i] = Some(report);
                }
            }
        });
    }

    slots.into_iter().map(|s| s.expect("slot filled")).collect()
}

/// Run `reps` independent replications in parallel, varying only the seed.
///
/// Replication `i` runs with seed `cfg.seed + i`, so results are
/// reproducible and replication 0 matches a plain [`run`]. Replications are
/// distributed over std scoped threads through a work-stealing claim queue
/// ([`lopc_solver::steal::WorkQueue`]): an idle core always picks up the
/// next unclaimed replication, so unequal replication costs (different seeds
/// can simulate very different event counts) never serialize the batch the
/// way static chunking did. Each replication is one sequential run, so
/// results never depend on the machine's core count.
///
/// # Example
///
/// ```
/// use lopc_sim::{run_replications, SimConfig, StopCondition, ThreadSpec};
/// use lopc_dist::ServiceTime;
///
/// let cfg = SimConfig {
///     p: 2,
///     net_latency: 10.0,
///     request_handler: ServiceTime::constant(50.0),
///     reply_handler: ServiceTime::constant(50.0),
///     threads: vec![ThreadSpec::worker(ServiceTime::exponential(200.0)); 2],
///     protocol_processor: false,
///     latency_dist: None,
///     stop: StopCondition::CyclesPerThread { n: 10 },
///     seed: 7,
/// };
/// let reps = run_replications(&cfg, 4).unwrap();
/// assert_eq!(reps.reports.len(), 4);
/// let ci = reps.mean_r();
/// assert!(ci.mean > 0.0 && ci.half_width >= 0.0);
/// ```
pub fn run_replications(cfg: &SimConfig, reps: usize) -> Result<Replications, ConfigError> {
    run_replications_opt(cfg, reps, None)
}

/// [`run_replications`] with an explicit pending-event [`Scheduler`] — the
/// ROADMAP's "`Scheduler` knob": identical results (schedulers are
/// observationally equivalent), different speed.
pub fn run_replications_with(
    cfg: &SimConfig,
    reps: usize,
    scheduler: Scheduler,
) -> Result<Replications, ConfigError> {
    run_replications_opt(cfg, reps, Some(scheduler))
}

fn run_replications_opt(
    cfg: &SimConfig,
    reps: usize,
    scheduler: Option<Scheduler>,
) -> Result<Replications, ConfigError> {
    cfg.validate()?;
    Ok(Replications {
        reports: run_index_range(cfg, 0..reps, scheduler),
    })
}

/// Replicate until the confidence interval of `stat` satisfies the
/// sequential [`StoppingRule`], or its replication cap is reached.
///
/// Replication `i` always runs seed `cfg.seed + i` regardless of how the
/// sequential procedure batches its draws, so the set of simulations is a
/// deterministic function of `(cfg, rule)` — re-running reproduces it
/// bit-for-bit. All reports are kept: further statistics can be summarised
/// from the same runs via [`Replications::summary`].
///
/// Whether the precision target was actually reached (vs. the cap striking
/// first) can be recovered as `rule.satisfied_by(&reps.summary(stat))`;
/// interval-aware acceptance checks (`lopc_stats::check_match`) remain
/// honest either way, because an under-resolved interval is *wide*, never
/// misleadingly tight.
pub fn run_until_precision(
    cfg: &SimConfig,
    rule: &StoppingRule,
    stat: impl Fn(&SimReport) -> f64,
) -> Result<Replications, ConfigError> {
    cfg.validate()?;
    let mut reports: Vec<SimReport> = Vec::with_capacity(rule.min_reps);
    let outcome = lopc_stats::run_to_precision(rule, |range| {
        let batch = run_index_range(cfg, range, None);
        let samples: Vec<f64> = batch.iter().map(&stat).collect();
        reports.extend(batch);
        samples
    });
    debug_assert_eq!(outcome.samples.len(), reports.len());
    Ok(Replications { reports })
}

/// Run two configurations under **common random numbers**: `reps`
/// replications each, with replication `i` of both systems using the *same*
/// seed (`cfg_a.seed + i` and `cfg_b.seed + i`, which the caller should set
/// equal for full CRN effect).
///
/// Returns both replication sets in seed order, ready for
/// [`lopc_stats::paired_diff_summary`] on any pair of extracted statistics —
/// the variance-reduced way to compare two systems.
pub fn run_paired(
    cfg_a: &SimConfig,
    cfg_b: &SimConfig,
    reps: usize,
) -> Result<(Replications, Replications), ConfigError> {
    Ok((
        run_replications_opt(cfg_a, reps, None)?,
        run_replications_opt(cfg_b, reps, None)?,
    ))
}

/// [`run_paired`] under the sequential stopping rule for *paired*
/// comparisons: replicate both systems (CRN — replication `i` of each uses
/// seed `cfg.seed + i`) until the paired-t interval of
/// `stat(a) − stat(b)` excludes zero or meets the rule's precision target,
/// or the cap strikes (`outcome.decisive == false`).
///
/// Replication `i` always runs seed `cfg.seed + i` for both systems
/// regardless of batching, so the run set is a deterministic function of
/// `(cfg_a, cfg_b, rule)`. All reports are kept; further statistics can be
/// pulled from the same runs.
pub fn run_paired_until(
    cfg_a: &SimConfig,
    cfg_b: &SimConfig,
    rule: &StoppingRule,
    stat: impl Fn(&SimReport) -> f64,
) -> Result<(Replications, Replications, PairedOutcome), ConfigError> {
    cfg_a.validate()?;
    cfg_b.validate()?;
    let mut reports_a: Vec<SimReport> = Vec::with_capacity(rule.min_reps);
    let mut reports_b: Vec<SimReport> = Vec::with_capacity(rule.min_reps);
    let outcome = lopc_stats::run_paired_to_decision(rule, |range| {
        let batch_a = run_index_range(cfg_a, range.clone(), None);
        let batch_b = run_index_range(cfg_b, range, None);
        let pairs: Vec<(f64, f64)> = batch_a
            .iter()
            .zip(&batch_b)
            .map(|(a, b)| (stat(a), stat(b)))
            .collect();
        reports_a.extend(batch_a);
        reports_b.extend(batch_b);
        pairs
    });
    debug_assert_eq!(outcome.diffs.len(), reports_a.len());
    Ok((
        Replications { reports: reports_a },
        Replications { reports: reports_b },
        outcome,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{StopCondition, ThreadSpec};
    use lopc_dist::ServiceTime;

    fn cfg() -> SimConfig {
        SimConfig {
            p: 4,
            net_latency: 10.0,
            request_handler: ServiceTime::exponential(50.0),
            reply_handler: ServiceTime::exponential(50.0),
            threads: vec![ThreadSpec::worker(ServiceTime::exponential(300.0)); 4],
            protocol_processor: false,
            latency_dist: None,
            stop: StopCondition::Horizon {
                warmup: 5_000.0,
                end: 55_000.0,
            },
            seed: 100,
        }
    }

    #[test]
    fn run_smoke() {
        let report = run(&cfg()).unwrap();
        assert!(report.aggregate.total_cycles > 0);
        assert!(report.aggregate.mean_r > 0.0);
    }

    #[test]
    fn replications_are_seeded_independently() {
        let reps = run_replications(&cfg(), 4).unwrap();
        assert_eq!(reps.reports.len(), 4);
        let r0 = reps.reports[0].aggregate.mean_r;
        let r1 = reps.reports[1].aggregate.mean_r;
        assert_ne!(r0, r1, "different seeds must differ");
        // Replication 0 uses the base seed: identical to a plain run.
        let single = run(&cfg()).unwrap();
        assert_eq!(single.aggregate.mean_r, r0);
    }

    #[test]
    fn replications_parallel_matches_order() {
        // Two invocations must agree element-wise (deterministic seeding).
        let a = run_replications(&cfg(), 6).unwrap();
        let b = run_replications(&cfg(), 6).unwrap();
        for (x, y) in a.reports.iter().zip(&b.reports) {
            assert_eq!(x.aggregate.mean_r, y.aggregate.mean_r);
        }
    }

    #[test]
    fn scheduler_knob_changes_nothing_but_runs_both() {
        let cal = run_replications_with(&cfg(), 3, Scheduler::Calendar).unwrap();
        let heap = run_replications_with(&cfg(), 3, Scheduler::BinaryHeap).unwrap();
        for (x, y) in cal.reports.iter().zip(&heap.reports) {
            assert_eq!(x.aggregate.mean_r, y.aggregate.mean_r);
            assert_eq!(x.events, y.events);
        }
    }

    #[test]
    fn mean_ci_reduces_with_replications() {
        let reps = run_replications(&cfg(), 8).unwrap();
        let ci = reps.mean_r();
        assert!(ci.mean > 0.0);
        assert!(ci.half_width >= 0.0);
        assert!(ci.half_width < ci.mean, "CI should be informative");
    }

    #[test]
    fn samples_and_summary_are_consistent() {
        let reps = run_replications(&cfg(), 5).unwrap();
        let xs = reps.samples(|r| r.aggregate.mean_r);
        assert_eq!(xs.len(), 5);
        let s = reps.summary(|r| r.aggregate.mean_r);
        assert_eq!(s.n, 5);
        assert!((s.mean - xs.iter().sum::<f64>() / 5.0).abs() < 1e-12);
        // The MeanCi view is the P95 slice of the summary.
        let ci = reps.mean_r();
        assert_eq!(ci.mean, s.mean);
        assert_eq!(ci.half_width, s.half_width(Confidence::P95));
    }

    #[test]
    fn zero_replications_is_empty() {
        let reps = run_replications(&cfg(), 0).unwrap();
        assert!(reps.reports.is_empty());
    }

    #[test]
    fn invalid_config_rejected() {
        let mut c = cfg();
        c.p = 1;
        c.threads.truncate(1);
        assert!(run(&c).is_err());
        assert!(run_replications(&c, 2).is_err());
        assert!(run_until_precision(&c, &StoppingRule::default(), |r| r.aggregate.mean_r).is_err());
    }

    #[test]
    fn throughput_stat_accessor() {
        let reps = run_replications(&cfg(), 3).unwrap();
        let x = reps.throughput();
        let manual = reps.stat(|r| r.aggregate.throughput);
        assert_eq!(x.mean, manual.mean);
    }

    #[test]
    fn until_precision_is_prefix_of_fixed_replications() {
        // The sequential procedure must run seeds base, base+1, … — i.e. its
        // report list is a prefix of what a fixed-count run produces.
        let rule = StoppingRule::default()
            .with_rel_precision(0.20)
            .with_reps(3, 8);
        let seq = run_until_precision(&cfg(), &rule, |r| r.aggregate.mean_r).unwrap();
        assert!(seq.reports.len() >= 3 && seq.reports.len() <= 8);
        let fixed = run_replications(&cfg(), seq.reports.len()).unwrap();
        for (a, b) in seq.reports.iter().zip(&fixed.reports) {
            assert_eq!(a.aggregate.mean_r, b.aggregate.mean_r);
        }
    }

    #[test]
    fn until_precision_respects_cap() {
        // An impossible target stops at the cap instead of looping.
        let rule = StoppingRule::default()
            .with_rel_precision(1e-9)
            .with_reps(3, 6);
        let seq = run_until_precision(&cfg(), &rule, |r| r.aggregate.mean_r).unwrap();
        assert_eq!(seq.reports.len(), 6);
        assert!(!rule.satisfied_by(&seq.summary(|r| r.aggregate.mean_r)));
    }

    #[test]
    fn traced_run_matches_untraced_and_covers_all_cycles() {
        let plain = run(&cfg()).unwrap();
        let traced = run_traced(&cfg()).unwrap();
        // The trace changes nothing about the simulation itself.
        assert_eq!(plain.aggregate.mean_r, traced.aggregate.mean_r);
        assert_eq!(plain.events, traced.events);
        assert!(plain.cycle_trace.is_empty(), "plain runs carry no trace");
        // One entry per measured cycle, and their mean is the pooled mean.
        assert_eq!(
            traced.cycle_trace.len() as u64,
            traced.aggregate.total_cycles
        );
        let trace_mean = traced.cycle_trace.iter().sum::<f64>() / traced.cycle_trace.len() as f64;
        assert!((trace_mean - traced.aggregate.mean_r).abs() < 1e-9);
    }

    #[test]
    fn paired_until_decides_a_clear_difference_early() {
        let a = cfg();
        let mut b = cfg();
        // Much slower handlers: R difference is large and obvious.
        b.request_handler = ServiceTime::exponential(120.0);
        b.reply_handler = ServiceTime::exponential(120.0);
        let rule = StoppingRule::default().with_reps(4, 16);
        let (ra, rb, outcome) = run_paired_until(&b, &a, &rule, |r| r.aggregate.mean_r).unwrap();
        assert!(outcome.decisive);
        assert!(outcome.excludes_zero(rule.confidence));
        assert!(outcome.summary.mean > 0.0, "slower handlers raise R");
        assert_eq!(ra.reports.len(), rb.reports.len());
        assert_eq!(ra.reports.len(), outcome.diffs.len());
        // CRN: system A's replications equal the plain fixed-count ones.
        let plain = run_replications(&a, ra.reports.len()).unwrap();
        for (x, y) in rb.reports.iter().zip(&plain.reports) {
            assert_eq!(x.aggregate.mean_r, y.aggregate.mean_r);
        }
    }

    #[test]
    fn paired_until_identical_systems_is_undecided_at_cap_or_zero() {
        let a = cfg();
        let rule = StoppingRule::default().with_reps(3, 5);
        let (_, _, outcome) = run_paired_until(&a, &a, &rule, |r| r.aggregate.mean_r).unwrap();
        // Identical systems: every diff is exactly 0, so the zero-width
        // interval satisfies the precision target immediately.
        assert!(outcome.decisive);
        assert!(!outcome.excludes_zero(rule.confidence));
        assert_eq!(outcome.summary.mean, 0.0);
    }

    #[test]
    fn paired_runs_share_seeds() {
        let a = cfg();
        let mut b = cfg();
        b.request_handler = ServiceTime::exponential(60.0);
        let (ra, rb) = run_paired(&a, &b, 3).unwrap();
        assert_eq!(ra.reports.len(), 3);
        assert_eq!(rb.reports.len(), 3);
        // System A's replications are the plain ones.
        let plain = run_replications(&a, 3).unwrap();
        for (x, y) in ra.reports.iter().zip(&plain.reports) {
            assert_eq!(x.aggregate.mean_r, y.aggregate.mean_r);
        }
        // CRN makes the diff variance smaller than the raw variance.
        let d = lopc_stats::paired_diff_summary(
            &rb.samples(|r| r.aggregate.mean_r),
            &ra.samples(|r| r.aggregate.mean_r),
        );
        assert!(d.mean > 0.0, "slower handlers must raise R");
    }
}
