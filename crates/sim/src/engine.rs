//! The discrete-event engine: nodes, messages, handlers, and the event loop.
//!
//! Semantics implemented (Chapter 2 of the thesis, and the model/simulator
//! contract recorded in DESIGN.md §5):
//!
//! * Sending a message is free; it arrives exactly `St` later (contention-
//!   free network).
//! * An arriving message **interrupts** a computing thread immediately
//!   (preempt-resume); remaining work is banked and resumed later.
//! * Handlers are **atomic**: arrivals during a handler wait in an infinite
//!   FIFO. When a handler completes, queued messages run **before** the
//!   computation thread resumes.
//! * A request handler either forwards the request (multi-hop) or sends the
//!   reply to the originator; a reply handler unblocks the local thread and
//!   ends the cycle.
//! * With `protocol_processor = true`, handlers run on a per-node coprocessor
//!   and never interrupt computation (§5.1 "Modeling Shared Memory").
//!
//! # Determinism
//!
//! A seed fixes the whole run (DESIGN.md §4):
//!
//! * **Per-node RNG streams.** Every node draws from its own
//!   [`SmallRng`], seeded by counter-based splitting ([`stream_seed`]) of
//!   the configuration seed.
//! * **Packed event keys.** Tie-breaking uses `(creating node, per-node
//!   creation counter)` packed into the 64-bit `seq`, so simultaneous
//!   events pop in the same order under every [`Scheduler`].
//! * **Drain-to-empty termination.** In makespan mode the loop runs until
//!   the queue is empty (the only events after the last cycle are stale,
//!   token-invalidated `ComputeDone`s).

use std::collections::VecDeque;

use crate::config::{ConfigError, NodeId, SimConfig, StopCondition, Time};
use crate::sched::{BinaryHeapQueue, CalendarQueue, EventQueue, Keyed, Scheduler};
use crate::stats::{Aggregate, NodeStats, NodeSummary, SimReport, Welford};
use lopc_dist::Distribution;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Bits of the event tie-break key holding the per-node creation counter;
/// the creating node's id occupies the bits above (hence
/// [`crate::config::MAX_NODES`] = 2^(64−44) = 2²⁰).
const CTR_BITS: u32 = 44;

/// Derive the seed of RNG stream `stream` from a master seed by
/// counter-based splitting: a Weyl step by the golden-ratio increment
/// followed by the SplitMix64 finalizer. Unlike drawing seeds sequentially
/// from one RNG, stream `k`'s seed depends only on `(master, k)`; node `k`
/// draws from stream `k`.
pub fn stream_seed(master: u64, stream: u64) -> u64 {
    let mut z = master.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Message kind: requests travel origin → server(s); the final server turns
/// the message into a reply back to the origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MsgKind {
    Request,
    Reply,
}

/// A message in flight or queued. Cycle-level bookkeeping lives on the
/// origin node (a fork-join cycle owns several messages at once); the
/// message itself carries only per-request state.
#[derive(Clone, Debug)]
struct Msg {
    kind: MsgKind,
    origin: NodeId,
    /// Handler visits remaining *after* the current one (multi-hop).
    hops_left: u32,
    /// Accumulated request-handler response time over all hops (`Rq`).
    rq_sum: f64,
    /// Arrival time at the node currently holding the message.
    arrived_at: Time,
}

/// CPU occupancy of a node.
#[derive(Clone, Copy, Debug)]
enum Cpu {
    Idle,
    /// Running a (non-preemptible) handler.
    Handler,
    /// Running the computation thread; completion is the event carrying
    /// `token`, invalidated by bumping the node's token on preemption.
    Compute {
        end: Time,
    },
}

/// Computation-thread state.
#[derive(Clone, Copy, Debug, PartialEq)]
enum ThreadState {
    /// Has `remaining` work to do but the CPU is busy with handlers.
    Ready { remaining: f64 },
    /// Currently computing (CPU is `Compute`).
    Running,
    /// Request outstanding; spinning (interruptible at zero cost).
    Blocked,
    /// Finished its cycle quota (makespan mode).
    Done,
    /// A pure server: never computes, never requests.
    Absent,
}

/// Per-node state.
#[derive(Debug)]
struct Node {
    cpu: Cpu,
    thread: ThreadState,
    fifo: VecDeque<Msg>,
    in_service: Option<Msg>,
    // Protocol-processor state (used only when cfg.protocol_processor).
    pp_busy: bool,
    pp_fifo: VecDeque<Msg>,
    pp_in_service: Option<Msg>,
    // Cycle bookkeeping.
    t_cycle_start: Time,
    /// When this cycle's requests were injected.
    t_sent: Time,
    /// Replies still outstanding in the current fork-join cycle.
    outstanding: u32,
    /// Accumulated request-handler response over the cycle's requests.
    cyc_rq: f64,
    /// Accumulated reply-handler response over the cycle's replies.
    cyc_ry: f64,
    cycles_done: u64,
    compute_token: u64,
    /// Round-robin cursor for deterministic destination choosers.
    rr: usize,
    /// This node's private RNG stream (see [`stream_seed`]).
    rng: SmallRng,
    /// Events created by this node so far (low half of their tie-break key).
    ctr: u64,
    /// Whether the lazy warmup reset has run (first event at `t >= warmup`).
    warmup_done: bool,
    stats: NodeStats,
}

impl Node {
    fn new(rng: SmallRng) -> Self {
        Node {
            cpu: Cpu::Idle,
            thread: ThreadState::Absent,
            fifo: VecDeque::new(),
            in_service: None,
            pp_busy: false,
            pp_fifo: VecDeque::new(),
            pp_in_service: None,
            t_cycle_start: 0.0,
            t_sent: 0.0,
            outstanding: 0,
            cyc_rq: 0.0,
            cyc_ry: 0.0,
            cycles_done: 0,
            compute_token: 0,
            rr: 0,
            rng,
            ctr: 0,
            warmup_done: false,
            stats: NodeStats::new(),
        }
    }
}

/// Event payload.
#[derive(Debug)]
enum EvKind {
    Arrive(Msg),
    HandlerDone,
    PpHandlerDone,
    ComputeDone { token: u64 },
}

/// A scheduled event; ordered by `(time, seq)` where `seq` packs
/// `(creating node, per-node creation counter)` — unique and FIFO per
/// creator.
#[derive(Debug)]
struct Ev {
    t: Time,
    seq: u64,
    node: NodeId,
    kind: EvKind,
}

impl Keyed for Ev {
    fn time(&self) -> Time {
        self.t
    }
    fn seq(&self) -> u64 {
        self.seq
    }
}

/// The engine's pending-event set: one of the [`Scheduler`] implementations,
/// dispatched by match so the hot loop pays no virtual-call cost.
enum PendingEvents {
    Calendar(CalendarQueue<Ev>),
    Heap(BinaryHeapQueue<Ev>),
}

impl PendingEvents {
    fn new(scheduler: Scheduler) -> Self {
        match scheduler {
            Scheduler::Calendar => PendingEvents::Calendar(CalendarQueue::new()),
            Scheduler::BinaryHeap => PendingEvents::Heap(BinaryHeapQueue::new()),
        }
    }

    fn kind(&self) -> Scheduler {
        match self {
            PendingEvents::Calendar(_) => Scheduler::Calendar,
            PendingEvents::Heap(_) => Scheduler::BinaryHeap,
        }
    }

    #[inline]
    fn push(&mut self, ev: Ev) {
        match self {
            PendingEvents::Calendar(q) => q.push(ev),
            PendingEvents::Heap(q) => q.push(ev),
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<Ev> {
        match self {
            PendingEvents::Calendar(q) => q.pop(),
            PendingEvents::Heap(q) => q.pop(),
        }
    }
}

/// Sample a message's wire time: constant `St`, or drawn from the node's
/// stream when a latency distribution is configured (same mean, §5.2).
#[inline]
fn wire_time(cfg: &SimConfig, rng: &mut SmallRng) -> f64 {
    match &cfg.latency_dist {
        None => cfg.net_latency,
        Some(d) => d.sample(rng),
    }
}

/// The sequential simulation engine. Construct with [`Engine::new`], then
/// call [`Engine::run_to_completion`] (or use the [`crate::run`]
/// convenience).
pub struct Engine {
    cfg: SimConfig,
    nodes: Vec<Node>,
    queue: PendingEvents,
    now: Time,
    events: u64,
    /// Cycles recorded only when they *start* at or after this time.
    warmup: Time,
    /// Horizon end (None in makespan mode).
    horizon_end: Option<Time>,
    /// Per-thread cycle quota (None in horizon mode).
    max_cycles: Option<u64>,
    makespan: Time,
    /// When `Some`, measured cycles append their response time here in
    /// completion order.
    trace: Option<Vec<f64>>,
}

impl Engine {
    /// Build an engine for a validated configuration, picking the
    /// pending-event scheduler adaptively from the configuration's
    /// steady-state event population ([`Scheduler::auto_for`] over
    /// [`SimConfig::pending_hint`]): the binary heap for small machines,
    /// the calendar queue for large ones.
    ///
    /// The choice never affects results — schedulers are observationally
    /// equivalent (enforced by the differential tests) — only speed. The
    /// `LOPC_TEST_SCHEDULER` environment variable (`calendar` / `heap`)
    /// overrides the adaptive choice for CI matrix runs; use
    /// [`Engine::with_scheduler`] to pin one programmatically.
    pub fn new(cfg: SimConfig) -> Result<Self, ConfigError> {
        let scheduler = crate::validate::env_scheduler()
            .unwrap_or_else(|| Scheduler::auto_for(cfg.pending_hint()));
        Self::with_scheduler(cfg, scheduler)
    }

    /// Build an engine with an explicit pending-event [`Scheduler`] and
    /// prime every active thread with its first work quantum.
    ///
    /// Both schedulers produce bit-identical simulations (the differential
    /// tests in `tests/differential.rs` enforce this); the binary heap is
    /// kept selectable as the reference for such cross-checks.
    pub fn with_scheduler(cfg: SimConfig, scheduler: Scheduler) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let (warmup, horizon_end, max_cycles) = match cfg.stop {
            StopCondition::Horizon { warmup, end } => (warmup, Some(end), None),
            StopCondition::CyclesPerThread { n } => (0.0, None, Some(n)),
        };
        let nodes = (0..cfg.p)
            .map(|k| Node::new(SmallRng::seed_from_u64(stream_seed(cfg.seed, k as u64))))
            .collect();
        let mut engine = Engine {
            cfg,
            nodes,
            queue: PendingEvents::new(scheduler),
            now: 0.0,
            events: 0,
            warmup,
            horizon_end,
            max_cycles,
            makespan: 0.0,
            trace: None,
        };
        for k in 0..engine.cfg.p {
            let Some(work) = &engine.cfg.threads[k].work else {
                continue;
            };
            let remaining = work.sample(&mut engine.nodes[k].rng);
            engine.nodes[k].thread = ThreadState::Ready { remaining };
            engine.start_compute(k);
        }
        Ok(engine)
    }

    /// Record the per-cycle response-time series: every measured cycle
    /// (pooled over nodes, in completion order) is appended to
    /// [`SimReport::cycle_trace`]. Off by default — the trace costs one
    /// entry of memory per cycle, which a long horizon turns into real
    /// footprint, so only runs that feed `lopc_stats::batch_means` ask for
    /// it.
    pub fn with_cycle_trace(mut self) -> Self {
        self.trace = Some(Vec::new());
        self
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Which pending-event scheduler this engine is running on (the adaptive
    /// choice of [`Engine::new`], or whatever [`Engine::with_scheduler`]
    /// pinned).
    pub fn scheduler(&self) -> Scheduler {
        self.queue.kind()
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Run until the stop condition is reached and produce the report.
    pub fn run_to_completion(mut self) -> SimReport {
        while let Some(ev) = self.queue.pop() {
            if self.horizon_end.is_some_and(|end| ev.t > end) {
                break;
            }
            self.dispatch(ev);
        }
        self.finalize_report()
    }

    /// Create an event on behalf of node `creator` (the node whose handler
    /// is running), keyed by `(creator, creator's counter)`.
    #[inline]
    fn schedule(&mut self, creator: NodeId, t: Time, node: NodeId, kind: EvKind) {
        let c = &mut self.nodes[creator];
        c.ctr += 1;
        debug_assert!(c.ctr < (1 << CTR_BITS));
        let seq = ((creator as u64) << CTR_BITS) | c.ctr;
        self.queue.push(Ev { t, seq, node, kind });
    }

    fn dispatch(&mut self, ev: Ev) {
        debug_assert!(ev.t >= self.now, "time went backwards");
        self.now = ev.t;
        self.events += 1;
        // Lazy warmup: the node's time-averages restart at exactly `warmup`
        // before its first post-warmup event — between its events the levels
        // are constant, so this equals an eager reset at `warmup`.
        let node = &mut self.nodes[ev.node];
        if !node.warmup_done && self.warmup > 0.0 && ev.t >= self.warmup {
            node.warmup_done = true;
            node.stats.reset_time_averages(self.warmup);
        }
        match ev.kind {
            EvKind::Arrive(msg) => self.on_arrive(ev.node, msg),
            EvKind::HandlerDone => self.on_handler_done(ev.node),
            EvKind::PpHandlerDone => self.on_pp_handler_done(ev.node),
            EvKind::ComputeDone { token } => self.on_compute_done(ev.node, token),
        }
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn on_arrive(&mut self, k: NodeId, mut msg: Msg) {
        msg.arrived_at = self.now;
        {
            let node = &mut self.nodes[k];
            match msg.kind {
                MsgKind::Request => node.stats.nq.add(self.now, 1.0),
                MsgKind::Reply => {
                    debug_assert_eq!(msg.origin, k, "reply must arrive at its origin");
                    node.stats.ny.add(self.now, 1.0);
                }
            }
            debug_assert!(
                node.stats.ny.level() <= self.cfg.threads[k].fanout as f64,
                "a node holds at most `fanout` replies"
            );
            let depth = node.stats.nq.level() + node.stats.ny.level();
            node.stats.max_depth = node.stats.max_depth.max(depth as u64);
        }

        if self.cfg.protocol_processor {
            if self.nodes[k].pp_busy {
                self.nodes[k].pp_fifo.push_back(msg);
            } else {
                self.start_pp_handler(k, msg);
            }
            return;
        }

        match self.nodes[k].cpu {
            Cpu::Idle => self.start_handler(k, msg),
            Cpu::Handler => self.nodes[k].fifo.push_back(msg),
            Cpu::Compute { end } => {
                // Preempt-resume: bank remaining work, invalidate the pending
                // completion event, run the handler now.
                let remaining = (end - self.now).max(0.0);
                let node = &mut self.nodes[k];
                node.compute_token += 1;
                node.thread = ThreadState::Ready { remaining };
                node.stats.busy_compute.set(self.now, 0.0);
                node.cpu = Cpu::Idle;
                self.start_handler(k, msg);
            }
        }
    }

    fn start_handler(&mut self, k: NodeId, msg: Msg) {
        debug_assert!(self.nodes[k].in_service.is_none());
        let service = match msg.kind {
            MsgKind::Request => self.cfg.request_handler.sample(&mut self.nodes[k].rng),
            MsgKind::Reply => self.cfg.reply_handler.sample(&mut self.nodes[k].rng),
        };
        {
            let node = &mut self.nodes[k];
            match msg.kind {
                MsgKind::Request => node.stats.busy_req.set(self.now, 1.0),
                MsgKind::Reply => node.stats.busy_rep.set(self.now, 1.0),
            }
            node.cpu = Cpu::Handler;
            node.in_service = Some(msg);
        }
        self.schedule(k, self.now + service, k, EvKind::HandlerDone);
    }

    fn start_pp_handler(&mut self, k: NodeId, msg: Msg) {
        debug_assert!(self.nodes[k].pp_in_service.is_none());
        let service = match msg.kind {
            MsgKind::Request => self.cfg.request_handler.sample(&mut self.nodes[k].rng),
            MsgKind::Reply => self.cfg.reply_handler.sample(&mut self.nodes[k].rng),
        };
        {
            let node = &mut self.nodes[k];
            match msg.kind {
                MsgKind::Request => node.stats.busy_req.set(self.now, 1.0),
                MsgKind::Reply => node.stats.busy_rep.set(self.now, 1.0),
            }
            node.pp_busy = true;
            node.pp_in_service = Some(msg);
        }
        self.schedule(k, self.now + service, k, EvKind::PpHandlerDone);
    }

    fn on_handler_done(&mut self, k: NodeId) {
        let msg = self.nodes[k]
            .in_service
            .take()
            .expect("HandlerDone with no handler in service");
        {
            let node = &mut self.nodes[k];
            node.cpu = Cpu::Idle;
            match msg.kind {
                MsgKind::Request => {
                    node.stats.busy_req.set(self.now, 0.0);
                    node.stats.nq.add(self.now, -1.0);
                }
                MsgKind::Reply => {
                    node.stats.busy_rep.set(self.now, 0.0);
                    node.stats.ny.add(self.now, -1.0);
                }
            }
        }
        self.complete_message(k, msg);

        // CPU dispatch: queued handlers run before the thread resumes (this
        // is the interference the BKT approximation charges to Rw).
        if let Some(next) = self.nodes[k].fifo.pop_front() {
            self.start_handler(k, next);
        } else if let ThreadState::Ready { .. } = self.nodes[k].thread {
            self.start_compute(k);
        }
    }

    fn on_pp_handler_done(&mut self, k: NodeId) {
        let msg = self.nodes[k]
            .pp_in_service
            .take()
            .expect("PpHandlerDone with no handler in service");
        {
            let node = &mut self.nodes[k];
            node.pp_busy = false;
            match msg.kind {
                MsgKind::Request => {
                    node.stats.busy_req.set(self.now, 0.0);
                    node.stats.nq.add(self.now, -1.0);
                }
                MsgKind::Reply => {
                    node.stats.busy_rep.set(self.now, 0.0);
                    node.stats.ny.add(self.now, -1.0);
                }
            }
        }
        self.complete_message(k, msg);

        // The CPU never ran the handler: start the thread only if it just
        // became ready and the CPU is idle.
        if let (Cpu::Idle, ThreadState::Ready { .. }) = (self.nodes[k].cpu, self.nodes[k].thread) {
            self.start_compute(k);
        }
        if let Some(next) = self.nodes[k].pp_fifo.pop_front() {
            self.start_pp_handler(k, next);
        }
    }

    /// Shared request/reply completion logic (CPU-handler and protocol-
    /// processor paths): forward, reply, or end the origin's cycle.
    fn complete_message(&mut self, k: NodeId, mut msg: Msg) {
        match msg.kind {
            MsgKind::Request => {
                let response = self.now - msg.arrived_at;
                msg.rq_sum += response;
                if msg.arrived_at >= self.warmup {
                    let node = &mut self.nodes[k];
                    node.stats.rq_at_server.push(response);
                    node.stats.requests_served += 1;
                }
                let wire = wire_time(&self.cfg, &mut self.nodes[k].rng);
                if msg.hops_left > 0 {
                    msg.hops_left -= 1;
                    // Forwarding hop: uniform over the other nodes, like the
                    // multi-hop patterns of Appendix A.
                    let node = &mut self.nodes[k];
                    let next = crate::routing::DestChooser::UniformOther.pick(
                        k,
                        self.cfg.p,
                        &mut node.rng,
                        &mut node.rr,
                    );
                    self.schedule(k, self.now + wire, next, EvKind::Arrive(msg));
                } else {
                    msg.kind = MsgKind::Reply;
                    let origin = msg.origin;
                    self.schedule(k, self.now + wire, origin, EvKind::Arrive(msg));
                }
            }
            MsgKind::Reply => {
                debug_assert_eq!(msg.origin, k);
                {
                    let node = &mut self.nodes[k];
                    debug_assert!(node.outstanding > 0, "unexpected reply");
                    node.cyc_rq += msg.rq_sum;
                    node.cyc_ry += self.now - msg.arrived_at;
                    node.outstanding -= 1;
                    if node.outstanding > 0 {
                        return; // fork-join: wait for the siblings
                    }
                }
                // Last reply of the cycle: record and start the next one.
                let (r, rw, cyc_rq, cyc_ry) = {
                    let node = &self.nodes[k];
                    (
                        self.now - node.t_cycle_start,
                        node.t_sent - node.t_cycle_start,
                        node.cyc_rq,
                        node.cyc_ry,
                    )
                };
                if self.nodes[k].t_cycle_start >= self.warmup {
                    let node = &mut self.nodes[k];
                    node.stats.r.push(r);
                    node.stats.rw.push(rw);
                    node.stats.rq.push(cyc_rq);
                    node.stats.ry.push(cyc_ry);
                    node.stats.cycles += 1;
                    if let Some(trace) = &mut self.trace {
                        trace.push(r);
                    }
                }
                self.nodes[k].cycles_done += 1;
                self.makespan = self.now;

                let quota_left = self
                    .max_cycles
                    .is_none_or(|n| self.nodes[k].cycles_done < n);
                if quota_left {
                    let w = self.cfg.threads[k]
                        .work
                        .as_ref()
                        .expect("reply arrived at a server node")
                        .sample(&mut self.nodes[k].rng);
                    let node = &mut self.nodes[k];
                    node.t_cycle_start = self.now;
                    node.thread = ThreadState::Ready { remaining: w };
                } else {
                    self.nodes[k].thread = ThreadState::Done;
                }
            }
        }
    }

    fn start_compute(&mut self, k: NodeId) {
        let remaining = match self.nodes[k].thread {
            ThreadState::Ready { remaining } => remaining,
            other => unreachable!("start_compute on thread in state {other:?}"),
        };
        debug_assert!(
            self.cfg.protocol_processor || self.nodes[k].fifo.is_empty(),
            "compute must not start with queued handlers"
        );
        let node = &mut self.nodes[k];
        node.compute_token += 1;
        let token = node.compute_token;
        node.thread = ThreadState::Running;
        node.cpu = Cpu::Compute {
            end: self.now + remaining,
        };
        node.stats.busy_compute.set(self.now, 1.0);
        self.schedule(k, self.now + remaining, k, EvKind::ComputeDone { token });
    }

    fn on_compute_done(&mut self, k: NodeId, token: u64) {
        if self.nodes[k].compute_token != token {
            return; // stale: the thread was preempted after scheduling this
        }
        debug_assert!(matches!(self.nodes[k].cpu, Cpu::Compute { .. }));
        debug_assert_eq!(self.nodes[k].thread, ThreadState::Running);
        {
            let node = &mut self.nodes[k];
            node.stats.busy_compute.set(self.now, 0.0);
            node.cpu = Cpu::Idle;
            node.thread = ThreadState::Blocked;
        }
        // Issue the cycle's blocking request(s); sending is free, each
        // message's wire time is St (or sampled).
        let spec = &self.cfg.threads[k];
        let hops = spec.hops;
        let fanout = spec.fanout;
        {
            let node = &mut self.nodes[k];
            node.t_sent = self.now;
            node.outstanding = fanout;
            node.cyc_rq = 0.0;
            node.cyc_ry = 0.0;
        }
        for _ in 0..fanout {
            let node = &mut self.nodes[k];
            let dst = self.cfg.threads[k]
                .dest
                .pick(k, self.cfg.p, &mut node.rng, &mut node.rr);
            debug_assert_ne!(dst, k, "requests must target another node");
            let msg = Msg {
                kind: MsgKind::Request,
                origin: k,
                hops_left: hops - 1,
                rq_sum: 0.0,
                arrived_at: 0.0,
            };
            let wire = wire_time(&self.cfg, &mut self.nodes[k].rng);
            self.schedule(k, self.now + wire, dst, EvKind::Arrive(msg));
        }
    }

    /// Assemble the [`SimReport`] of the finished run. Nodes are visited in
    /// id order, which fixes the Welford merge sequence and therefore every
    /// pooled statistic.
    fn finalize_report(mut self) -> SimReport {
        let (t_end, window) = match self.horizon_end {
            Some(end) => (end, end - self.warmup),
            None => (self.makespan, self.makespan),
        };

        // Nodes whose events all predate the warmup boundary (or that never
        // saw an event) missed the lazy reset; apply it now so their
        // time-averages cover the measurement window like everyone else's.
        if self.warmup > 0.0 {
            for node in self.nodes.iter_mut().filter(|n| !n.warmup_done) {
                node.warmup_done = true;
                node.stats.reset_time_averages(self.warmup);
            }
        }

        let mut nodes = Vec::with_capacity(self.nodes.len());
        let mut pooled_r = Welford::new();
        let mut pooled_rw = Welford::new();
        let mut pooled_rq = Welford::new();
        let mut pooled_ry = Welford::new();
        let mut total_cycles = 0u64;
        let mut sum_uq = 0.0;
        let mut sum_uy = 0.0;
        let mut sum_qq = 0.0;
        let mut sum_qy = 0.0;

        for node in &self.nodes {
            let s = &node.stats;
            let summary = NodeSummary {
                mean_r: s.r.mean(),
                mean_rw: s.rw.mean(),
                mean_rq: s.rq.mean(),
                mean_ry: s.ry.mean(),
                mean_rq_at_server: s.rq_at_server.mean(),
                qq: s.nq.average(t_end),
                qy: s.ny.average(t_end),
                uq: s.busy_req.average(t_end),
                uy: s.busy_rep.average(t_end),
                u_compute: s.busy_compute.average(t_end),
                cycles: s.cycles,
                requests_served: s.requests_served,
                max_depth: s.max_depth,
            };
            pooled_r.merge(&s.r);
            pooled_rw.merge(&s.rw);
            pooled_rq.merge(&s.rq);
            pooled_ry.merge(&s.ry);
            total_cycles += s.cycles;
            sum_uq += summary.uq;
            sum_uy += summary.uy;
            sum_qq += summary.qq;
            sum_qy += summary.qy;
            nodes.push(summary);
        }

        let p = nodes.len() as f64;
        let aggregate = Aggregate {
            mean_r: pooled_r.mean(),
            r_std_err: pooled_r.std_err(),
            mean_rw: pooled_rw.mean(),
            mean_rq: pooled_rq.mean(),
            mean_ry: pooled_ry.mean(),
            mean_uq: sum_uq / p,
            mean_uy: sum_uy / p,
            mean_qq: sum_qq / p,
            mean_qy: sum_qy / p,
            total_cycles,
            throughput: if window > 0.0 {
                total_cycles as f64 / window
            } else {
                0.0
            },
        };

        SimReport {
            nodes,
            aggregate,
            window,
            makespan: self.makespan,
            events: self.events,
            cycle_trace: self.trace.unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SimConfig, StopCondition, ThreadSpec};
    use crate::routing::DestChooser;
    use lopc_dist::ServiceTime;

    /// Two perfectly symmetric nodes with constant everything stay in
    /// lockstep: both block at the same instant, each serves the other's
    /// request while idle, and there is never any contention. The cycle time
    /// is then exactly `W + 2·St + 2·So`.
    #[test]
    fn two_node_pingpong_is_contention_free() {
        let (w, st, so) = (500.0, 25.0, 100.0);
        let cfg = SimConfig {
            p: 2,
            net_latency: st,
            request_handler: ServiceTime::constant(so),
            reply_handler: ServiceTime::constant(so),
            threads: vec![ThreadSpec::worker(ServiceTime::constant(w)); 2],
            protocol_processor: false,
            latency_dist: None,
            stop: StopCondition::CyclesPerThread { n: 50 },
            seed: 9,
        };
        let report = Engine::new(cfg).unwrap().run_to_completion();
        let expected = w + 2.0 * st + 2.0 * so;
        assert!(
            (report.aggregate.mean_r - expected).abs() < 1e-9,
            "R = {} != {expected}",
            report.aggregate.mean_r
        );
        assert_eq!(report.aggregate.total_cycles, 100);
        // Components are exact too.
        assert!((report.aggregate.mean_rw - w).abs() < 1e-9);
        assert!((report.aggregate.mean_rq - so).abs() < 1e-9);
        assert!((report.aggregate.mean_ry - so).abs() < 1e-9);
    }

    /// Makespan of the deterministic ping-pong is n·R exactly.
    #[test]
    fn pingpong_makespan_is_n_times_r() {
        let (w, st, so, n) = (300.0, 10.0, 50.0, 20u64);
        let cfg = SimConfig {
            p: 2,
            net_latency: st,
            request_handler: ServiceTime::constant(so),
            reply_handler: ServiceTime::constant(so),
            threads: vec![ThreadSpec::worker(ServiceTime::constant(w)); 2],
            protocol_processor: false,
            latency_dist: None,
            stop: StopCondition::CyclesPerThread { n },
            seed: 1,
        };
        let report = Engine::new(cfg).unwrap().run_to_completion();
        let r = w + 2.0 * st + 2.0 * so;
        assert!(
            (report.makespan - n as f64 * r).abs() < 1e-6,
            "makespan {} != {}",
            report.makespan,
            n as f64 * r
        );
    }

    /// Component identity: R = Rw + (h+1)·St + Rq + Ry for every measured
    /// cycle, so it must hold for the means.
    #[test]
    fn response_decomposition_identity() {
        let st = 25.0;
        let cfg = SimConfig {
            p: 8,
            net_latency: st,
            request_handler: ServiceTime::exponential(100.0),
            reply_handler: ServiceTime::exponential(100.0),
            threads: vec![ThreadSpec::worker(ServiceTime::exponential(400.0)); 8],
            protocol_processor: false,
            latency_dist: None,
            stop: StopCondition::Horizon {
                warmup: 20_000.0,
                end: 120_000.0,
            },
            seed: 77,
        };
        let report = Engine::new(cfg).unwrap().run_to_completion();
        let a = &report.aggregate;
        let recomposed = a.mean_rw + 2.0 * st + a.mean_rq + a.mean_ry;
        assert!(
            (a.mean_r - recomposed).abs() < 1e-6,
            "R {} != decomposition {recomposed}",
            a.mean_r
        );
    }

    /// Same seed, same report; different seed, (almost surely) different.
    #[test]
    fn determinism_by_seed() {
        let mk = |seed| {
            let cfg = SimConfig {
                p: 4,
                net_latency: 10.0,
                request_handler: ServiceTime::exponential(50.0),
                reply_handler: ServiceTime::exponential(50.0),
                threads: vec![ThreadSpec::worker(ServiceTime::exponential(200.0)); 4],
                protocol_processor: false,
                latency_dist: None,
                stop: StopCondition::Horizon {
                    warmup: 5_000.0,
                    end: 50_000.0,
                },
                seed,
            };
            Engine::new(cfg).unwrap().run_to_completion()
        };
        let a = mk(5);
        let b = mk(5);
        let c = mk(6);
        assert_eq!(a.aggregate.mean_r, b.aggregate.mean_r);
        assert_eq!(a.events, b.events);
        assert_ne!(a.aggregate.mean_r, c.aggregate.mean_r);
    }

    /// With a protocol processor the compute thread is never interrupted, so
    /// Rw == W exactly for constant work.
    #[test]
    fn protocol_processor_never_interrupts_compute() {
        let w = 300.0;
        let cfg = SimConfig {
            p: 8,
            net_latency: 10.0,
            request_handler: ServiceTime::exponential(150.0),
            reply_handler: ServiceTime::exponential(150.0),
            threads: vec![ThreadSpec::worker(ServiceTime::constant(w)); 8],
            protocol_processor: true,
            latency_dist: None,
            stop: StopCondition::Horizon {
                warmup: 20_000.0,
                end: 150_000.0,
            },
            seed: 3,
        };
        let report = Engine::new(cfg).unwrap().run_to_completion();
        assert!(
            (report.aggregate.mean_rw - w).abs() < 1e-9,
            "Rw = {} != W = {w}",
            report.aggregate.mean_rw
        );
        // But handlers still queue against each other: Rq > So on average.
        assert!(report.aggregate.mean_rq > 150.0);
    }

    /// Utilisations are probabilities.
    #[test]
    fn utilisations_bounded() {
        let cfg = SimConfig {
            p: 6,
            net_latency: 5.0,
            request_handler: ServiceTime::exponential(80.0),
            reply_handler: ServiceTime::exponential(80.0),
            threads: vec![ThreadSpec::worker(ServiceTime::exponential(100.0)); 6],
            protocol_processor: false,
            latency_dist: None,
            stop: StopCondition::Horizon {
                warmup: 10_000.0,
                end: 60_000.0,
            },
            seed: 12,
        };
        let report = Engine::new(cfg).unwrap().run_to_completion();
        for (i, n) in report.nodes.iter().enumerate() {
            assert!((0.0..=1.0 + 1e-9).contains(&n.uq), "uq[{i}] = {}", n.uq);
            assert!((0.0..=1.0 + 1e-9).contains(&n.uy), "uy[{i}] = {}", n.uy);
            assert!(
                n.uq + n.uy + n.u_compute <= 1.0 + 1e-9,
                "CPU over-committed at node {i}"
            );
        }
    }

    /// Multi-hop requests visit h handlers and pay (h+1) wire latencies.
    #[test]
    fn multihop_decomposition() {
        let st = 20.0;
        let hops = 3u32;
        let mut threads = vec![
            ThreadSpec {
                work: Some(ServiceTime::constant(500.0)),
                dest: DestChooser::UniformOther,
                hops,
                fanout: 1,
            };
            6
        ];
        threads[0].hops = hops;
        let cfg = SimConfig {
            p: 6,
            net_latency: st,
            request_handler: ServiceTime::constant(50.0),
            reply_handler: ServiceTime::constant(50.0),
            threads,
            protocol_processor: false,
            latency_dist: None,
            stop: StopCondition::Horizon {
                warmup: 10_000.0,
                end: 100_000.0,
            },
            seed: 21,
        };
        let report = Engine::new(cfg).unwrap().run_to_completion();
        let a = &report.aggregate;
        let recomposed = a.mean_rw + (hops as f64 + 1.0) * st + a.mean_rq + a.mean_ry;
        assert!(
            (a.mean_r - recomposed).abs() < 1e-6,
            "R {} != multihop decomposition {recomposed}",
            a.mean_r
        );
        // Rq spans h handler visits: at least h·So.
        assert!(a.mean_rq >= hops as f64 * 50.0 - 1e-9);
    }

    /// Pure servers never complete cycles; clients complete all of them.
    #[test]
    fn client_server_roles() {
        let mut threads = vec![ThreadSpec::server(); 6];
        for spec in threads.iter_mut().skip(2) {
            *spec = ThreadSpec {
                work: Some(ServiceTime::exponential(400.0)),
                dest: DestChooser::UniformAmong(vec![0, 1]),
                hops: 1,
                fanout: 1,
            };
        }
        let cfg = SimConfig {
            p: 6,
            net_latency: 10.0,
            request_handler: ServiceTime::exponential(131.0),
            reply_handler: ServiceTime::exponential(131.0),
            threads,
            protocol_processor: false,
            latency_dist: None,
            stop: StopCondition::Horizon {
                warmup: 20_000.0,
                end: 120_000.0,
            },
            seed: 8,
        };
        let report = Engine::new(cfg).unwrap().run_to_completion();
        assert_eq!(report.nodes[0].cycles, 0);
        assert_eq!(report.nodes[1].cycles, 0);
        for n in &report.nodes[2..] {
            assert!(n.cycles > 0);
        }
        // All requests land on the two servers.
        assert_eq!(
            report.nodes[2..]
                .iter()
                .map(|n| n.requests_served)
                .sum::<u64>(),
            0
        );
        assert!(report.nodes[0].requests_served > 0);
        assert!(report.nodes[1].requests_served > 0);
    }

    /// W = 0 (degenerate: thread re-requests instantly) must not wedge.
    #[test]
    fn zero_work_progresses() {
        let cfg = SimConfig {
            p: 4,
            net_latency: 10.0,
            request_handler: ServiceTime::constant(50.0),
            reply_handler: ServiceTime::constant(50.0),
            threads: vec![ThreadSpec::worker(ServiceTime::constant(0.0)); 4],
            protocol_processor: false,
            latency_dist: None,
            stop: StopCondition::Horizon {
                warmup: 5_000.0,
                end: 50_000.0,
            },
            seed: 4,
        };
        let report = Engine::new(cfg).unwrap().run_to_completion();
        assert!(report.aggregate.total_cycles > 100);
        // R >= 2St + 2So even with no work.
        assert!(report.aggregate.mean_r >= 2.0 * 10.0 + 2.0 * 50.0 - 1e-9);
    }

    /// `Engine::new` resolves the scheduler adaptively from `P × fanout`
    /// (unless `LOPC_TEST_SCHEDULER` overrides it, which plain `cargo test`
    /// does not set).
    #[test]
    fn engine_new_picks_scheduler_adaptively() {
        if crate::validate::env_scheduler().is_some() {
            return; // matrix run: the override wins by design
        }
        let worker = ThreadSpec::worker(ServiceTime::constant(100.0));
        let small = SimConfig {
            p: 8,
            net_latency: 10.0,
            request_handler: ServiceTime::constant(50.0),
            reply_handler: ServiceTime::constant(50.0),
            threads: vec![worker.clone(); 8],
            protocol_processor: false,
            latency_dist: None,
            stop: StopCondition::CyclesPerThread { n: 1 },
            seed: 1,
        };
        assert_eq!(small.pending_hint(), 8);
        assert_eq!(
            Engine::new(small.clone()).unwrap().scheduler(),
            Scheduler::BinaryHeap
        );

        let mut large = small.clone();
        large.p = 64;
        large.threads = vec![worker.clone(); 64];
        assert_eq!(large.pending_hint(), 64);
        assert_eq!(Engine::new(large).unwrap().scheduler(), Scheduler::Calendar);

        // Fanout counts: 8 nodes × fanout 5 = 40 pending crosses over.
        let mut fanned = small;
        for t in &mut fanned.threads {
            t.fanout = 5;
        }
        assert_eq!(fanned.pending_hint(), 40);
        assert_eq!(
            Engine::new(fanned).unwrap().scheduler(),
            Scheduler::Calendar
        );
    }

    /// Stream seeds are a pure function of `(master, stream)` — counter
    /// splitting, not sequential draws — pinned by golden values so the
    /// mapping (and with it every archived simulation result) cannot drift
    /// silently. See `stream_seed`.
    #[test]
    fn stream_seed_golden_pin() {
        // SplitMix64 finalizer over master + (stream+1)·golden-gamma.
        assert_eq!(stream_seed(0, 0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(stream_seed(42, 0), 0xBDD7_3226_2FEB_6E95);
        assert_eq!(stream_seed(42, 1), 0x28EF_E333_B266_F103);
    }

    /// Adjacent streams (and adjacent masters) decorrelate: every pair of
    /// seeds differs, and so do the first draws of the RNGs they seed.
    #[test]
    fn stream_seeds_are_independent() {
        use rand::Rng;
        let master = 42;
        let mut seeds = Vec::new();
        for k in 0..256u64 {
            seeds.push(stream_seed(master, k));
        }
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seeds.len(), "stream seeds must be distinct");

        // Neighbouring masters must not produce overlapping stream seeds
        // (replication i uses master seed+i).
        for k in 0..256u64 {
            assert_ne!(stream_seed(master, k), stream_seed(master + 1, k));
        }

        // And the streams themselves diverge from the first draw.
        let mut firsts: Vec<u64> = seeds
            .iter()
            .map(|&s| SmallRng::seed_from_u64(s).random::<u64>())
            .collect();
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), seeds.len(), "first draws must be distinct");
    }

    /// The event tie-break key packs (creator, counter): distinct creators
    /// and successive events at one creator never collide, and keys order
    /// lexicographically by (creator, counter) at equal times.
    #[test]
    fn packed_event_keys_are_unique_and_fifo_per_creator() {
        let key = |node: u64, ctr: u64| (node << CTR_BITS) | ctr;
        assert!(key(0, 1) < key(0, 2), "FIFO per creator");
        assert!(
            key(0, (1 << CTR_BITS) - 1) < key(1, 1),
            "creator-major order"
        );
        assert_ne!(key(3, 7), key(7, 3));
        // The packing accommodates MAX_NODES creators.
        let top = (crate::config::MAX_NODES - 1) as u64;
        assert_eq!(key(top, 1) >> CTR_BITS, top);
    }
}
