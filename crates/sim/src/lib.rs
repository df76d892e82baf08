//! Event-driven simulator of an Active-Message multiprocessor.
//!
//! This crate is the validation substrate for the LoPC model, reproducing the
//! architecture of Chapter 2 of the thesis:
//!
//! * `P` processing nodes on a **contention-free** interconnect with constant
//!   wire latency `St`;
//! * each node runs one **computation thread**; threads do `W` work, then
//!   issue a **blocking request** to another node and spin until the reply;
//! * an arriving message **interrupts** the running computation (preempt-
//!   resume) and runs an atomic, non-preemptible **handler** for a sampled
//!   service time with mean `So`;
//! * messages that arrive while a handler runs wait in an **infinite
//!   hardware FIFO**; when a handler finishes, queued messages run before the
//!   computation thread resumes;
//! * request handlers either **reply** to the originator or **forward** the
//!   request (multi-hop, Appendix A);
//! * the optional **protocol processor** variant (§5.1 "Modeling Shared
//!   Memory") runs all handlers on a per-node coprocessor so computation is
//!   never interrupted.
//!
//! The original thesis validated this style of simulator against the MIT
//! Alewife machine to within ~1 %; here the simulator plays the role of the
//! hardware (see DESIGN.md, substitutions).
//!
//! The pending-event set behind the loop is pluggable ([`sched`]): the
//! engine picks adaptively between an `O(1)`-amortized calendar queue
//! (large machines) and a binary heap (small ones, ≤ 32 pending events),
//! with both explicitly selectable ([`Scheduler`],
//! [`runner::run_with_scheduler`]) — every scheduler produces bit-identical
//! runs, so the choice is purely a speed matter. Independent replications
//! run in parallel with work stealing ([`run_replications`]), optionally
//! under a sequential-precision stopping rule ([`run_until_precision`]),
//! and the [`validate`] module turns replications plus a model prediction
//! into an interval-aware pass/fail verdict.
//!
//! # Example
//!
//! ```
//! use lopc_sim::{SimConfig, ThreadSpec, DestChooser, StopCondition, run};
//! use lopc_dist::ServiceTime;
//!
//! // 32-node homogeneous all-to-all pattern: W = 1000, So = 200, St = 25.
//! let cfg = SimConfig {
//!     p: 32,
//!     net_latency: 25.0,
//!     request_handler: ServiceTime::constant(200.0),
//!     reply_handler: ServiceTime::constant(200.0),
//!     threads: vec![
//!         ThreadSpec {
//!             work: Some(ServiceTime::constant(1000.0)),
//!             dest: DestChooser::UniformOther,
//!             hops: 1,
//!             fanout: 1,
//!         };
//!         32
//!     ],
//!     protocol_processor: false,
//!     latency_dist: None,
//!     stop: StopCondition::Horizon { warmup: 50_000.0, end: 250_000.0 },
//!     seed: 42,
//! };
//! let report = run(&cfg).unwrap();
//! let r = report.aggregate.mean_r;
//! // Response time must lie within the LoPC bounds W+2St+2So .. W+2St+3.46So.
//! assert!(r > 1450.0 && r < 1742.0, "R = {r}");
//! ```

pub mod config;
pub mod engine;
pub mod routing;
pub mod runner;
pub mod sched;
pub mod stats;
pub mod validate;

pub use config::{ConfigError, SimConfig, StopCondition, ThreadSpec};
pub use engine::{stream_seed, Engine};
pub use routing::DestChooser;
pub use runner::{
    run, run_paired, run_paired_until, run_replications, run_replications_with, run_traced,
    run_until_precision, run_with_scheduler, MeanCi, Replications,
};
pub use sched::{BinaryHeapQueue, CalendarQueue, EventQueue, Keyed, Scheduler};
pub use stats::{NodeSummary, SimReport, TimeWeighted, Welford};
pub use validate::{assert_model_matches_sim, Validation};
