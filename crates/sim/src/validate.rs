//! The model-vs-simulator validation harness: replication-aware confidence
//! intervals instead of seed-pinned tolerance bands (DESIGN.md §8).
//!
//! A validation test states a *prediction* (from the analytic model), a
//! *measurement recipe* (a [`SimConfig`] plus a statistic extracted from each
//! [`SimReport`]), and an *acceptance criterion*
//! ([`lopc_stats::Acceptance`]). The harness then:
//!
//! 1. runs independent replications (seeds `base, base+1, …`) under the
//!    sequential stopping rule — more replications only when the confidence
//!    interval is still too wide, up to a hard cap;
//! 2. applies the acceptance criterion to the *interval*, never to a point
//!    sample, so a pass or fail is a statement about the estimated mean and
//!    cannot hinge on one lucky or unlucky seed;
//! 3. on failure, panics with the full statistical context (prediction,
//!    mean, CI, replication count, criterion).
//!
//! Because acceptance is interval-based, the suite passes for *any* base
//! seed; CI exercises that by exporting `LOPC_TEST_SEED_OFFSET` (added to
//! every config's seed by [`Validation::run`]) and `LOPC_TEST_SCHEDULER`
//! (forces one pending-event scheduler suite-wide — results are unchanged
//! by construction, so this catches scheduler-dependent regressions).
//!
//! # Example
//!
//! ```
//! use lopc_sim::validate::{assert_model_matches_sim, Validation};
//! use lopc_sim::{SimConfig, StopCondition, ThreadSpec};
//! use lopc_dist::ServiceTime;
//!
//! let cfg = SimConfig {
//!     p: 2,
//!     net_latency: 10.0,
//!     request_handler: ServiceTime::constant(50.0),
//!     reply_handler: ServiceTime::constant(50.0),
//!     threads: vec![ThreadSpec::worker(ServiceTime::constant(200.0)); 2],
//!     protocol_processor: false,
//!     latency_dist: None,
//!     stop: StopCondition::Horizon { warmup: 2_000.0, end: 20_000.0 },
//!     seed: 7,
//! };
//! // Two-node ping-pong with constant times is exactly W + 2St + 2So = 320.
//! assert_model_matches_sim(
//!     "ping-pong R",
//!     &cfg,
//!     320.0,
//!     |r| r.aggregate.mean_r,
//!     &Validation::equivalence(0.02),
//! );
//! ```

use std::sync::OnceLock;

use crate::config::{ConfigError, SimConfig};
use crate::runner::Replications;
use crate::sched::Scheduler;
use crate::stats::SimReport;
use lopc_stats::{check_match, Acceptance, MatchReport, StoppingRule, Summary};

/// Scheduler forced by `LOPC_TEST_SCHEDULER` (`calendar` / `heap`), if any.
///
/// Read once per process; the CI matrix uses it to run the whole tier-1
/// suite under each scheduler. An unrecognised value panics loudly rather
/// than silently testing the wrong thing.
pub fn env_scheduler() -> Option<Scheduler> {
    static CACHE: OnceLock<Option<Scheduler>> = OnceLock::new();
    *CACHE.get_or_init(|| match std::env::var("LOPC_TEST_SCHEDULER") {
        Err(_) => None,
        Ok(v) => match v.as_str() {
            "" | "auto" => None,
            "calendar" => Some(Scheduler::Calendar),
            "heap" => Some(Scheduler::BinaryHeap),
            other => panic!("LOPC_TEST_SCHEDULER must be calendar|heap|auto, got {other:?}"),
        },
    })
}

/// Seed offset from `LOPC_TEST_SEED_OFFSET` (0 when unset).
///
/// Validation tests add this to their base seeds so CI can prove the suite
/// passes for a seed nobody tuned for.
pub fn env_seed_offset() -> u64 {
    static CACHE: OnceLock<u64> = OnceLock::new();
    *CACHE.get_or_init(|| match std::env::var("LOPC_TEST_SEED_OFFSET") {
        Err(_) => 0,
        Ok(v) if v.is_empty() => 0,
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("LOPC_TEST_SEED_OFFSET must be a u64, got {v:?}")),
    })
}

/// A test's base seed shifted by the environment's seed offset.
///
/// Use for direct `run`/`run_replications` calls in tests; [`Validation::run`]
/// applies it automatically, so configs passed to the harness should carry
/// the *unshifted* base seed.
pub fn test_seed(base: u64) -> u64 {
    base.wrapping_add(env_seed_offset())
}

/// A complete validation recipe: stopping rule + acceptance criterion.
#[derive(Clone, Copy, Debug)]
pub struct Validation {
    /// When to stop replicating.
    pub rule: StoppingRule,
    /// How the prediction is compared against the replicated interval.
    pub acceptance: Acceptance,
}

impl Default for Validation {
    /// TOST equivalence at a 10 % relative margin — LoPC's "within a few
    /// percent" headline with quick-window headroom (DESIGN.md §8).
    fn default() -> Self {
        Validation::equivalence(0.10)
    }
}

impl Validation {
    /// Equivalence at a relative margin: the whole CI must lie within
    /// `prediction ± rel·|prediction|`.
    pub fn equivalence(rel: f64) -> Self {
        Validation {
            rule: StoppingRule::default(),
            acceptance: Acceptance::Equivalence { rel, abs: 0.0 },
        }
    }

    /// Equivalence at a purely absolute margin (for near-zero quantities
    /// such as utilisations).
    pub fn abs_equivalence(abs: f64) -> Self {
        Validation {
            rule: StoppingRule::default().with_abs_precision(abs / 2.0),
            acceptance: Acceptance::Equivalence { rel: 0.0, abs },
        }
    }

    /// The CI must contain the prediction (unbiasedness claim — use only
    /// where the model is exact, not merely close).
    pub fn ci_contains() -> Self {
        Validation {
            rule: StoppingRule::default(),
            acceptance: Acceptance::CiContains,
        }
    }

    /// Asymmetric band: the measurement may fall up to `below` under the
    /// prediction and up to `above` over it (both as fractions of the
    /// prediction) — for signed claims like "conservative by at most 5 %".
    pub fn band(below: f64, above: f64) -> Self {
        Validation {
            rule: StoppingRule::default(),
            acceptance: Acceptance::Band { below, above },
        }
    }

    /// Override the stopping rule.
    pub fn with_rule(mut self, rule: StoppingRule) -> Self {
        self.rule = rule;
        self
    }

    /// Run the recipe: replicate `cfg` (seed shifted by the environment
    /// offset) until the stopping rule is satisfied, then judge `prediction`
    /// against the interval of `stat`.
    ///
    /// Returns the verdict plus the replications so further statistics can
    /// be extracted from the *same* runs (response-time components, per-node
    /// values) without re-simulating.
    pub fn run(
        &self,
        cfg: &SimConfig,
        prediction: f64,
        stat: impl Fn(&SimReport) -> f64,
    ) -> Result<(MatchReport, Replications), ConfigError> {
        let mut shifted = cfg.clone();
        shifted.seed = test_seed(cfg.seed);
        let reps = crate::runner::run_until_precision(&shifted, &self.rule, &stat)?;
        let summary = reps.summary(&stat);
        Ok((
            check_match(prediction, &summary, self.rule.confidence, &self.acceptance),
            reps,
        ))
    }

    /// Judge a further statistic against the *same* replications returned by
    /// [`Validation::run`] (no new simulation).
    pub fn check_stat(
        &self,
        reps: &Replications,
        prediction: f64,
        stat: impl Fn(&SimReport) -> f64,
    ) -> MatchReport {
        let summary: Summary = reps.summary(stat);
        check_match(prediction, &summary, self.rule.confidence, &self.acceptance)
    }
}

/// Assert that the model's `prediction` matches the replicated simulator
/// measurement of `stat` under the validation recipe, panicking with full
/// statistical context otherwise.
///
/// This is the single entry point the integration suite uses for every
/// model-vs-sim claim; see the [module docs](self) for the protocol.
pub fn assert_model_matches_sim(
    label: &str,
    cfg: &SimConfig,
    prediction: f64,
    stat: impl Fn(&SimReport) -> f64,
    validation: &Validation,
) -> Replications {
    let (report, reps) = validation
        .run(cfg, prediction, stat)
        .unwrap_or_else(|e| panic!("{label}: invalid config: {e}"));
    assert!(
        report.passed,
        "{label}: model-vs-sim validation failed (seed base {}, offset {}): {report}",
        cfg.seed,
        env_seed_offset()
    );
    reps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{StopCondition, ThreadSpec};
    use lopc_dist::ServiceTime;

    /// Deterministic two-node ping-pong: every quantity is exact, so the
    /// harness must accept tight margins and reject wrong predictions.
    fn pingpong() -> SimConfig {
        SimConfig {
            p: 2,
            net_latency: 10.0,
            request_handler: ServiceTime::constant(50.0),
            reply_handler: ServiceTime::constant(50.0),
            threads: vec![ThreadSpec::worker(ServiceTime::constant(200.0)); 2],
            protocol_processor: false,
            latency_dist: None,
            stop: StopCondition::Horizon {
                warmup: 2_000.0,
                end: 20_000.0,
            },
            seed: 11,
        }
    }

    #[test]
    fn exact_prediction_passes_tight_equivalence() {
        // R = W + 2St + 2So = 200 + 20 + 100 = 320, deterministically.
        assert_model_matches_sim(
            "pingpong",
            &pingpong(),
            320.0,
            |r| r.aggregate.mean_r,
            &Validation::equivalence(0.01),
        );
    }

    #[test]
    #[should_panic(expected = "validation failed")]
    fn wrong_prediction_fails_with_context() {
        assert_model_matches_sim(
            "pingpong-wrong",
            &pingpong(),
            400.0,
            |r| r.aggregate.mean_r,
            &Validation::equivalence(0.05),
        );
    }

    #[test]
    fn ci_contains_on_exact_quantity() {
        // Deterministic measurement: the (zero-width) CI is exactly 320.
        let (report, reps) = Validation::ci_contains()
            .run(&pingpong(), 320.0, |r| r.aggregate.mean_r)
            .unwrap();
        assert!(report.passed, "{report}");
        // Deterministic across seeds: stopping rule exits at the pilot.
        assert_eq!(reps.reports.len(), StoppingRule::default().min_reps);
    }

    #[test]
    fn check_stat_reuses_replications() {
        let v = Validation::equivalence(0.01);
        let (report, reps) = v.run(&pingpong(), 320.0, |r| r.aggregate.mean_r).unwrap();
        assert!(report.passed);
        // Rw is exactly W = 200 on the same runs; no re-simulation.
        let rw = v.check_stat(&reps, 200.0, |r| r.aggregate.mean_rw);
        assert!(rw.passed, "{rw}");
        let wrong = v.check_stat(&reps, 150.0, |r| r.aggregate.mean_rw);
        assert!(!wrong.passed);
    }

    #[test]
    fn band_rejects_the_wrong_side() {
        // Measurement is exactly 320. A band allowing only over-measurement
        // rejects a prediction of 330 (measurement 3 % *below* it)...
        let v = Validation::band(0.0, 0.05);
        let (report, _) = v.run(&pingpong(), 330.0, |r| r.aggregate.mean_r).unwrap();
        assert!(!report.passed);
        // ...while one allowing 5 % shortfall accepts it.
        let v = Validation::band(0.05, 0.05);
        let (report, _) = v.run(&pingpong(), 330.0, |r| r.aggregate.mean_r).unwrap();
        assert!(report.passed, "{report}");
    }

    #[test]
    fn invalid_config_is_an_error_not_a_panic() {
        let mut cfg = pingpong();
        cfg.p = 1;
        cfg.threads.truncate(1);
        assert!(Validation::default()
            .run(&cfg, 1.0, |r| r.aggregate.mean_r)
            .is_err());
    }

    #[test]
    fn seed_offset_defaults_to_zero() {
        // The test environment does not set the variable; the offset is 0
        // and test_seed is the identity.
        assert_eq!(test_seed(42), 42 + env_seed_offset());
    }
}
