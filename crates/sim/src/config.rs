//! Simulation configuration: the architectural and algorithmic parameters of
//! Chapter 2 and 3 of the thesis, in executable form.

use crate::routing::DestChooser;
use lopc_dist::ServiceTime;

/// Index of a processing node (0-based).
pub type NodeId = usize;

/// Upper bound on `p` (2²⁰ nodes): the engine packs the creating node's id
/// into the high bits of each event's 64-bit tie-break key (see DESIGN.md
/// §4), which leaves 20 bits for the node id and 44 bits for the per-node
/// creation counter.
pub const MAX_NODES: usize = 1 << 20;

/// Simulated time in cycles.
pub type Time = f64;

/// What one node's computation thread does.
#[derive(Clone, Debug)]
pub struct ThreadSpec {
    /// Work between requests (`W` in the model). `None` makes the node a
    /// pure server: its thread never computes and never issues requests
    /// (the §6 work-pile server role).
    pub work: Option<ServiceTime>,
    /// How the thread picks the destination of each request.
    pub dest: DestChooser,
    /// Handler visits per request: 1 is a plain request/reply; `h > 1`
    /// forwards the request `h−1` times before the final node replies
    /// (Appendix A multi-hop).
    pub hops: u32,
    /// Requests issued per cycle (fork-join fan-out): the thread sends
    /// `fanout` requests back-to-back and blocks until *all* replies have
    /// been handled. `1` is the blocking model of the thesis; larger values
    /// exercise the §7 "non-blocking communication" extension.
    pub fanout: u32,
}

impl ThreadSpec {
    /// Standard worker thread: `work` between requests, one hop, uniform
    /// random destination.
    pub fn worker(work: ServiceTime) -> Self {
        ThreadSpec {
            work: Some(work),
            dest: DestChooser::UniformOther,
            hops: 1,
            fanout: 1,
        }
    }

    /// Pure server thread (never computes, never requests).
    pub fn server() -> Self {
        ThreadSpec {
            work: None,
            dest: DestChooser::UniformOther,
            hops: 1,
            fanout: 1,
        }
    }

    /// True if this thread issues requests.
    pub fn is_active(&self) -> bool {
        self.work.is_some()
    }
}

/// When the simulation stops and what is measured.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StopCondition {
    /// Steady-state measurement: statistics cover cycles *starting* in
    /// `[warmup, end]` and time-averages over the same window; threads cycle
    /// indefinitely.
    Horizon {
        /// Start of the measurement window.
        warmup: Time,
        /// End of the simulation.
        end: Time,
    },
    /// Makespan measurement: every active thread performs exactly `n`
    /// compute/request cycles (the `n` of §3); the report's `makespan` is
    /// the completion time of the last cycle. All cycles are measured.
    CyclesPerThread {
        /// Cycles per active thread.
        n: u64,
    },
}

/// Full configuration of one simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of nodes (`P`).
    pub p: usize,
    /// Constant network latency (`St`/`L`); the interconnect is
    /// contention-free (§2).
    pub net_latency: f64,
    /// Service-time distribution of request handlers (mean `So`).
    pub request_handler: ServiceTime,
    /// Service-time distribution of reply handlers (mean `So`).
    pub reply_handler: ServiceTime,
    /// Per-node thread behaviour; must have length `p`.
    pub threads: Vec<ThreadSpec>,
    /// Run handlers on a dedicated per-node protocol processor instead of
    /// interrupting the CPU (§5.1 "Modeling Shared Memory").
    pub protocol_processor: bool,
    /// Optional per-message wire-time distribution. `None` means every
    /// message takes exactly `net_latency`; `Some(d)` samples each wire time
    /// from `d`, whose mean must equal `net_latency` (§5.2 argues that in a
    /// contention-free network only the average wire time matters — this
    /// knob lets the tests verify that claim).
    pub latency_dist: Option<ServiceTime>,
    /// Stop condition / measurement mode.
    pub stop: StopCondition,
    /// RNG seed; equal seeds give bit-identical runs — independent of the
    /// pending-event [`Scheduler`](crate::sched::Scheduler) and of how many
    /// threads [`run_replications`](crate::runner::run_replications) uses:
    /// every node draws from its own counter-split RNG stream derived from
    /// this seed.
    pub seed: u64,
}

/// Configuration validation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// Fewer than two nodes.
    TooFewNodes,
    /// More than [`MAX_NODES`] nodes (the event-key packing limit).
    TooManyNodes,
    /// `threads.len() != p`.
    ThreadCountMismatch,
    /// Negative or non-finite network latency.
    BadLatency,
    /// A thread has `hops == 0`.
    ZeroHops,
    /// A thread has `fanout == 0`.
    ZeroFanout,
    /// `latency_dist` mean does not match `net_latency`.
    LatencyMeanMismatch,
    /// A destination chooser references a node outside `0..p` or is empty.
    BadDestination,
    /// No thread ever issues a request.
    NoActiveThreads,
    /// Horizon `end <= warmup` or negative warmup.
    BadWindow,
    /// `CyclesPerThread` with `n == 0`.
    ZeroCycles,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            ConfigError::TooFewNodes => "at least 2 nodes are required",
            ConfigError::TooManyNodes => "at most 2^20 nodes are supported",
            ConfigError::ThreadCountMismatch => "threads.len() must equal p",
            ConfigError::BadLatency => "net_latency must be finite and >= 0",
            ConfigError::ZeroHops => "hops must be >= 1",
            ConfigError::ZeroFanout => "fanout must be >= 1",
            ConfigError::LatencyMeanMismatch => "latency_dist mean must equal net_latency",
            ConfigError::BadDestination => "destination chooser invalid or out of range",
            ConfigError::NoActiveThreads => "at least one thread must issue requests",
            ConfigError::BadWindow => "horizon requires 0 <= warmup < end",
            ConfigError::ZeroCycles => "cycles-per-thread must be >= 1",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ConfigError {}

impl SimConfig {
    /// Check structural validity; every runner entry point calls this.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.p < 2 {
            return Err(ConfigError::TooFewNodes);
        }
        if self.p > MAX_NODES {
            return Err(ConfigError::TooManyNodes);
        }
        if self.threads.len() != self.p {
            return Err(ConfigError::ThreadCountMismatch);
        }
        if !self.net_latency.is_finite() || self.net_latency < 0.0 {
            return Err(ConfigError::BadLatency);
        }
        if let Some(d) = &self.latency_dist {
            use lopc_dist::Distribution;
            let mean = d.mean();
            if (mean - self.net_latency).abs() > 1e-6 * self.net_latency.max(1.0) {
                return Err(ConfigError::LatencyMeanMismatch);
            }
        }
        let mut any_active = false;
        for (me, t) in self.threads.iter().enumerate() {
            if t.hops == 0 {
                return Err(ConfigError::ZeroHops);
            }
            if t.fanout == 0 {
                return Err(ConfigError::ZeroFanout);
            }
            if t.is_active() {
                any_active = true;
                if !t.dest.is_valid(me, self.p) {
                    return Err(ConfigError::BadDestination);
                }
            }
        }
        if !any_active {
            return Err(ConfigError::NoActiveThreads);
        }
        match self.stop {
            StopCondition::Horizon { warmup, end } => {
                if !(warmup >= 0.0 && end > warmup) {
                    return Err(ConfigError::BadWindow);
                }
            }
            StopCondition::CyclesPerThread { n } => {
                if n == 0 {
                    return Err(ConfigError::ZeroCycles);
                }
            }
        }
        Ok(())
    }

    /// Number of threads that issue requests.
    pub fn active_threads(&self) -> usize {
        self.threads.iter().filter(|t| t.is_active()).count()
    }

    /// Estimate of the steady-state pending-event population, used by the
    /// adaptive scheduler choice (`P × fanout` in the ROADMAP's shorthand).
    ///
    /// Each active thread keeps roughly `fanout` events in flight at any
    /// moment (its outstanding fork-join requests, or the compute-done event
    /// between cycles); pure servers add none of their own — their queued
    /// arrivals are already counted at the origin.
    pub fn pending_hint(&self) -> usize {
        self.threads
            .iter()
            .filter(|t| t.is_active())
            .map(|t| t.fanout as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lopc_dist::ServiceTime;

    fn base() -> SimConfig {
        SimConfig {
            p: 4,
            net_latency: 10.0,
            request_handler: ServiceTime::constant(100.0),
            reply_handler: ServiceTime::constant(100.0),
            threads: vec![ThreadSpec::worker(ServiceTime::constant(500.0)); 4],
            protocol_processor: false,
            latency_dist: None,
            stop: StopCondition::Horizon {
                warmup: 1_000.0,
                end: 10_000.0,
            },
            seed: 1,
        }
    }

    #[test]
    fn valid_config_passes() {
        assert_eq!(base().validate(), Ok(()));
    }

    #[test]
    fn too_few_nodes() {
        let mut c = base();
        c.p = 1;
        c.threads.truncate(1);
        assert_eq!(c.validate(), Err(ConfigError::TooFewNodes));
    }

    #[test]
    fn too_many_nodes_rejected() {
        let mut c = base();
        c.p = MAX_NODES + 1;
        // threads.len() is checked after p's range, so the mismatch does not
        // mask the packing limit.
        assert_eq!(c.validate(), Err(ConfigError::TooManyNodes));
    }

    #[test]
    fn thread_count_mismatch() {
        let mut c = base();
        c.threads.pop();
        assert_eq!(c.validate(), Err(ConfigError::ThreadCountMismatch));
    }

    #[test]
    fn negative_latency_rejected() {
        let mut c = base();
        c.net_latency = -1.0;
        assert_eq!(c.validate(), Err(ConfigError::BadLatency));
    }

    #[test]
    fn zero_hops_rejected() {
        let mut c = base();
        c.threads[0].hops = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroHops));
    }

    #[test]
    fn all_servers_rejected() {
        let mut c = base();
        for t in &mut c.threads {
            t.work = None;
        }
        assert_eq!(c.validate(), Err(ConfigError::NoActiveThreads));
    }

    #[test]
    fn bad_window_rejected() {
        let mut c = base();
        c.stop = StopCondition::Horizon {
            warmup: 10.0,
            end: 10.0,
        };
        assert_eq!(c.validate(), Err(ConfigError::BadWindow));
    }

    #[test]
    fn zero_fanout_rejected() {
        let mut c = base();
        c.threads[0].fanout = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroFanout));
    }

    #[test]
    fn latency_dist_mean_must_match() {
        let mut c = base();
        c.latency_dist = Some(ServiceTime::exponential(11.0));
        assert_eq!(c.validate(), Err(ConfigError::LatencyMeanMismatch));
        c.latency_dist = Some(ServiceTime::exponential(10.0));
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn zero_cycles_rejected() {
        let mut c = base();
        c.stop = StopCondition::CyclesPerThread { n: 0 };
        assert_eq!(c.validate(), Err(ConfigError::ZeroCycles));
    }

    #[test]
    fn out_of_range_destination_rejected() {
        let mut c = base();
        c.threads[0].dest = DestChooser::Fixed(99);
        assert_eq!(c.validate(), Err(ConfigError::BadDestination));
    }

    #[test]
    fn server_thread_is_inactive() {
        assert!(!ThreadSpec::server().is_active());
        assert!(ThreadSpec::worker(ServiceTime::constant(1.0)).is_active());
    }
}
