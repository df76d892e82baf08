//! Measurement machinery: streaming moments, time-weighted levels, and the
//! per-node / aggregate report consumed by the validation experiments.
//!
//! The quantities tracked mirror Table 4.1 of the thesis: per-cycle response
//! components `Rw`, `Rq`, `Ry`, `R`; per-node utilisations `Uq`, `Uy`; and
//! time-averaged handler queue lengths `Qq`, `Qy`.

use crate::config::Time;

/// Streaming mean/variance accumulator (Welford's algorithm).
#[derive(Clone, Debug, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / ((self.n - 1) as f64 * self.n as f64)).sqrt()
        }
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let d = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += d * n2 / n;
        self.m2 += other.m2 + d * d * n1 * n2 / n;
        self.n += other.n;
    }
}

/// Integrates a piecewise-constant level over time; yields the time average
/// (used for queue lengths and utilisations).
#[derive(Clone, Debug)]
pub struct TimeWeighted {
    level: f64,
    last_t: Time,
    start_t: Time,
    integral: f64,
}

impl TimeWeighted {
    /// Start integrating at time `t0` with level 0.
    pub fn new(t0: Time) -> Self {
        TimeWeighted {
            level: 0.0,
            last_t: t0,
            start_t: t0,
            integral: 0.0,
        }
    }

    /// Current level.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Advance to time `t` and change the level by `delta`.
    #[inline]
    pub fn add(&mut self, t: Time, delta: f64) {
        self.integral += self.level * (t - self.last_t);
        self.last_t = t;
        self.level += delta;
    }

    /// Advance to time `t` and set the level.
    #[inline]
    pub fn set(&mut self, t: Time, level: f64) {
        self.integral += self.level * (t - self.last_t);
        self.last_t = t;
        self.level = level;
    }

    /// Discard history: restart the integral at time `t`, keeping the level
    /// (called at the end of warmup).
    pub fn reset(&mut self, t: Time) {
        self.last_t = t;
        self.start_t = t;
        self.integral = 0.0;
    }

    /// Time average over `[start, t_end]`.
    pub fn average(&self, t_end: Time) -> f64 {
        let span = t_end - self.start_t;
        if span <= 0.0 {
            return 0.0;
        }
        (self.integral + self.level * (t_end - self.last_t)) / span
    }
}

/// Raw per-node statistics gathered by the engine.
#[derive(Clone, Debug)]
pub struct NodeStats {
    /// Response time per compute/request cycle (measured at the origin).
    pub r: Welford,
    /// Compute residence time per cycle (`Rw`).
    pub rw: Welford,
    /// Sum of request-handler responses per cycle (`Rq`, summed over hops).
    pub rq: Welford,
    /// Reply-handler response per cycle (`Ry`).
    pub ry: Welford,
    /// Per-visit request-handler response measured at *this* node as server.
    pub rq_at_server: Welford,
    /// Request handler count in system (queued + in service): time-avg = `Qq`.
    pub nq: TimeWeighted,
    /// Reply handler count in system: time-avg = `Qy`.
    pub ny: TimeWeighted,
    /// Request-handler busy level (0/1): time-avg = `Uq`.
    pub busy_req: TimeWeighted,
    /// Reply-handler busy level (0/1): time-avg = `Uy`.
    pub busy_rep: TimeWeighted,
    /// Compute busy level (0/1).
    pub busy_compute: TimeWeighted,
    /// Cycles completed in the measurement window.
    pub cycles: u64,
    /// Request handlers completed at this node in the window.
    pub requests_served: u64,
    /// Deepest message backlog observed (queued + in service), over the
    /// whole run — evidence for the §2 infinite-buffer assumption.
    pub max_depth: u64,
}

impl NodeStats {
    /// Fresh stats starting at time 0.
    pub fn new() -> Self {
        NodeStats {
            r: Welford::new(),
            rw: Welford::new(),
            rq: Welford::new(),
            ry: Welford::new(),
            rq_at_server: Welford::new(),
            nq: TimeWeighted::new(0.0),
            ny: TimeWeighted::new(0.0),
            busy_req: TimeWeighted::new(0.0),
            busy_rep: TimeWeighted::new(0.0),
            busy_compute: TimeWeighted::new(0.0),
            cycles: 0,
            requests_served: 0,
            max_depth: 0,
        }
    }

    /// Restart all time integrals at `t` (end of warmup).
    pub fn reset_time_averages(&mut self, t: Time) {
        self.nq.reset(t);
        self.ny.reset(t);
        self.busy_req.reset(t);
        self.busy_rep.reset(t);
        self.busy_compute.reset(t);
    }
}

impl Default for NodeStats {
    fn default() -> Self {
        Self::new()
    }
}

/// Summary of one node at the end of a run.
///
/// `PartialEq` compares every field bit-for-bit (`f64` equality, no
/// tolerance) — this is deliberate: the differential suites assert that
/// both schedulers reproduce *exactly* the same numbers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeSummary {
    /// Mean cycle response time `R` (0 if the node completed no cycles).
    pub mean_r: f64,
    /// Mean compute residence `Rw`.
    pub mean_rw: f64,
    /// Mean per-cycle request-handler response `Rq`.
    pub mean_rq: f64,
    /// Mean reply-handler response `Ry`.
    pub mean_ry: f64,
    /// Mean request-handler response measured at this node as a server.
    pub mean_rq_at_server: f64,
    /// Time-averaged request-handler population `Qq`.
    pub qq: f64,
    /// Time-averaged reply-handler population `Qy`.
    pub qy: f64,
    /// Utilisation by request handlers `Uq`.
    pub uq: f64,
    /// Utilisation by reply handlers `Uy`.
    pub uy: f64,
    /// Utilisation by computation.
    pub u_compute: f64,
    /// Cycles completed in the window.
    pub cycles: u64,
    /// Request handlers served in the window.
    pub requests_served: u64,
    /// Deepest message backlog observed at this node over the whole run.
    pub max_depth: u64,
}

/// Complete result of one simulation run.
///
/// `PartialEq` is exact (bit-for-bit on every float, including the full
/// cycle trace); see [`NodeSummary`].
#[derive(Clone, Debug, PartialEq)]
pub struct SimReport {
    /// Per-node summaries.
    pub nodes: Vec<NodeSummary>,
    /// Pooled cycle statistics across all active nodes.
    pub aggregate: Aggregate,
    /// Length of the measurement window (horizon mode) or total runtime
    /// (makespan mode).
    pub window: f64,
    /// Completion time of the last cycle (makespan mode; equals the end of
    /// the window in horizon mode).
    pub makespan: f64,
    /// Total events processed (performance diagnostics).
    pub events: u64,
    /// Per-cycle response times in completion order, pooled over nodes —
    /// recorded only when the run was started with
    /// [`Engine::with_cycle_trace`](crate::Engine::with_cycle_trace) (or
    /// [`run_traced`](crate::runner::run_traced)), empty otherwise. This is
    /// the within-run series `lopc_stats::batch_means` consumes to build a
    /// single-long-run CI where 5+ replications are unaffordable; successive
    /// entries are autocorrelated, so never feed them to a plain
    /// [`Summary`](lopc_stats::Summary) as if independent.
    pub cycle_trace: Vec<f64>,
}

/// Pooled statistics across nodes.
///
/// `PartialEq` is exact (bit-for-bit); see [`NodeSummary`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aggregate {
    /// Mean cycle response time `R`.
    pub mean_r: f64,
    /// Standard error of `mean_r`.
    pub r_std_err: f64,
    /// Mean compute residence `Rw`.
    pub mean_rw: f64,
    /// Mean per-cycle request response `Rq`.
    pub mean_rq: f64,
    /// Mean reply response `Ry`.
    pub mean_ry: f64,
    /// Mean request-handler utilisation over all nodes (`Uq`).
    pub mean_uq: f64,
    /// Mean reply-handler utilisation over all nodes (`Uy`).
    pub mean_uy: f64,
    /// Mean request population over all nodes (`Qq`).
    pub mean_qq: f64,
    /// Mean reply population over all nodes (`Qy`).
    pub mean_qy: f64,
    /// Total cycles completed in the window.
    pub total_cycles: u64,
    /// System throughput `X` = total cycles / window (cycles per unit time).
    pub throughput: f64,
}

impl SimReport {
    /// Throughput per node (X/P).
    pub fn throughput_per_node(&self) -> f64 {
        if self.nodes.is_empty() {
            0.0
        } else {
            self.aggregate.throughput / self.nodes.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn welford_empty_is_zero() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.std_err(), 0.0);
    }

    #[test]
    fn welford_merge_equals_pooled() {
        let mut a = Welford::new();
        let mut b = Welford::new();
        let mut pooled = Welford::new();
        for i in 0..100 {
            let x = (i as f64).sin() * 10.0;
            if i % 2 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
            pooled.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), pooled.count());
        assert!((a.mean() - pooled.mean()).abs() < 1e-9);
        assert!((a.variance() - pooled.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Welford::new();
        a.push(1.0);
        a.push(3.0);
        let before = a.mean();
        a.merge(&Welford::new());
        assert_eq!(a.mean(), before);

        let mut e = Welford::new();
        e.merge(&a);
        assert_eq!(e.mean(), before);
    }

    #[test]
    fn time_weighted_square_wave() {
        let mut tw = TimeWeighted::new(0.0);
        tw.set(0.0, 1.0);
        tw.set(5.0, 0.0); // level 1 for 5 units
        tw.set(10.0, 2.0); // level 0 for 5 units
                           // level 2 for 10 units -> integral = 5 + 0 + 20 = 25 over 20 units.
        assert!((tw.average(20.0) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_reset_discards_history() {
        let mut tw = TimeWeighted::new(0.0);
        tw.set(0.0, 10.0);
        tw.reset(100.0);
        // After reset only the ongoing level counts.
        assert!((tw.average(110.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_add_tracks_level() {
        let mut tw = TimeWeighted::new(0.0);
        tw.add(1.0, 1.0);
        tw.add(2.0, 1.0);
        assert_eq!(tw.level(), 2.0);
        tw.add(3.0, -2.0);
        assert_eq!(tw.level(), 0.0);
        // Integral: 0*1 + 1*1 + 2*1 = 3 over 4 units.
        assert!((tw.average(4.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_zero_span_is_zero() {
        let tw = TimeWeighted::new(5.0);
        assert_eq!(tw.average(5.0), 0.0);
    }
}
