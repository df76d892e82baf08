//! `predict_open`: an open loop of exact single `POST /v1/predict`
//! requests from one generator thread on one pipelined keep-alive
//! connection, then a closed phase with a fixed in-flight window that
//! measures capacity.
//!
//! The generator never blocks: it busy-polls a non-blocking socket, sends
//! every request at its due time whether or not earlier ones were answered
//! (independent callers do not wait on each other), and times each
//! request from its due time, so a stall also counts against the requests
//! queued behind it.
//!
//! The bounded end-to-end metrics come from the closed phase: capacity,
//! and the p50 and p95 latency with the reactor saturated, where a
//! `General` body's head-of-line blocking shows in the p95. They are
//! medians over half-second windows, so a burst of host noise moves one
//! window, not the run's figure. The open phase's latencies, timed from
//! due times, are reported per layer (`open.*`): at 8 000 requests/s the
//! reactor idles between requests, and its p50 is then mostly the host's
//! wake-up latency, which drifted by a third between otherwise identical
//! runs on a shared two-core machine.

use crate::framer::ResponseFramer;
use crate::gen::{self, Kind, OpenStream};
use crate::replay::{Probes, Replay};
use crate::serving::{self, ratio, LayerCounters};
use crate::stats::{median, percentile, sorted};
use crate::{Args, Outcome};
use lopc_core::Prediction;
use lopc_serve::codec::{prediction_from_json, predictions_identical};
use lopc_serve::json::parse;
use lopc_serve::server::ServerHandle;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Offered rate of the open phase, requests per second.
const RATE: f64 = 8000.0;
/// More requests per second than one node answers on any machine this
/// runs on; sizes the capacity phase's buffers.
const MAX_RATE: f64 = 250_000.0;
/// In-flight window of the capacity phase and of the cache warm-up.
const WINDOW: usize = 128;
/// Share of the run spent in the open phase (the rest measures capacity).
const OPEN_SHARE: f64 = 0.5;
/// The tail the end-to-end metric reports: p99 and beyond also catch the
/// host's millisecond preemptions, and are reported per layer.
const TAIL: f64 = 0.95;
/// Latency windows: by due time in the open phase, by completion time in
/// the closed phase.
const OPEN_WINDOW_NS: u64 = 1_000_000_000;
const CLOSED_WINDOW_NS: u64 = 500_000_000;
/// A run whose generator sent one request in ten later than this after
/// its due time fell behind: the run is invalid, not slow. (A generator
/// that is merely preempted for a few milliseconds catches up at once;
/// one that cannot sustain the rate falls behind on most requests.)
const LATE_LIMIT_NS: f64 = 1e6;
/// Requests the traced run replays in process: at least enough for a
/// hundred `General` bodies, at most what keeps the span file small.
const REPLAY_MIN: u64 = 20_000;
const REPLAY_MAX: u64 = 25_000;
/// How long to wait for outstanding responses after a phase ends.
const DRAIN: Duration = Duration::from_secs(10);

/// Request bytes and library answers for the fixed keys.
struct Corpus {
    seed: u64,
    warm: Vec<Vec<u8>>,
    warm_expected: Vec<Prediction>,
    general: Vec<Vec<u8>>,
    general_expected: Vec<Prediction>,
}

impl Corpus {
    fn new(seed: u64) -> Corpus {
        let solve = |s| lopc_core::solve(&s).expect("generated keys solve");
        let warm = (0..gen::WARM_KEYS).map(|i| gen::warm_scenario(seed, i));
        let general = (0..gen::GENERALS).map(|j| gen::general_scenario(seed, j));
        Corpus {
            seed,
            warm: warm.clone().map(|s| gen::predict_request(&s)).collect(),
            warm_expected: warm.map(solve).collect(),
            general: general.clone().map(|s| gen::predict_request(&s)).collect(),
            general_expected: general.map(solve).collect(),
        }
    }

    fn request(&self, kind: Kind) -> std::borrow::Cow<'_, [u8]> {
        match kind {
            Kind::Warm(i) => self.warm[i].as_slice().into(),
            Kind::General(j) => self.general[j].as_slice().into(),
            Kind::Miss(k) => gen::predict_request(&gen::miss_scenario(self.seed, k)).into(),
        }
    }

    /// Every fixed key, warm ones first.
    fn fixed_kinds(&self) -> impl Iterator<Item = Kind> {
        (0..self.warm.len())
            .map(Kind::Warm)
            .chain((0..self.general.len()).map(Kind::General))
    }
}

/// Start a node and load every fixed key into its cache.
fn set_up(corpus: &Corpus) -> Result<ServerHandle, String> {
    let server = serving::start_node();
    let mut kinds = corpus.fixed_kinds();
    let mut source = || kinds.next().map(|k| (0, k));
    let warm = drive(
        server.addr(),
        corpus,
        &mut source,
        Mode::Closed,
        f64::INFINITY,
        false,
    );
    match warm.error {
        Some(e) => Err(format!("warm-up: {e}")),
        None if warm.failed > 0 => Err(format!("warm-up: {} wrong answers", warm.failed)),
        None => Ok(server),
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Send each request at its due time.
    Open,
    /// Keep `WINDOW` requests in flight.
    Closed,
}

struct Pending {
    due: u64,
    sent: u64,
    kind: Kind,
    end_byte: u64,
}

/// Latency quantiles kept for each window of a closed phase.
const WINDOW_QS: [f64; 2] = [0.5, TAIL];

/// One full window of a closed phase.
struct WindowSummary {
    completed: usize,
    /// Latency at each of [`WINDOW_QS`], ns, where enough samples lie
    /// beyond it.
    quantiles: [Option<f64>; 2],
}

/// What one phase observed.
#[derive(Default)]
struct Phase {
    /// Open phases: latency from due time, ns, with its window. The offered
    /// rate is fixed, so this grows with the phase's length only.
    latency: Vec<(u64, f64)>,
    /// Closed phases: a summary of each full window. Only the window in
    /// progress keeps its samples, so the generator's memory does not grow
    /// with the server's throughput, and `peak_rss_mb`, which counts both,
    /// does not rise when the server gets faster.
    closed: Vec<WindowSummary>,
    /// The closed window in progress: its index and its send-to-response
    /// times, ns.
    window: (u64, Vec<f64>),
    /// Open phases: send time minus due time, ns.
    late: Vec<f64>,
    /// Send-to-response time by class, ns (traced phases).
    rtt: Vec<(&'static str, f64)>,
    /// Most requests due but not yet fully written to the socket.
    backlog: u64,
    completed: u64,
    failed: u64,
    /// Fresh keys with a fingerprint of their answers, checked against the
    /// library after the run.
    misses: Vec<(u64, u64)>,
    error: Option<String>,
}

impl Phase {
    /// Record a closed-phase latency that completed in window `w`.
    fn record_closed(&mut self, w: u64, ns: f64) {
        if w != self.window.0 {
            self.close_window();
            self.window.0 = w;
        }
        self.window.1.push(ns);
    }

    /// Summarise the closed window in progress and empty it. The last
    /// window of a phase is partial and never summarised.
    fn close_window(&mut self) {
        let samples = &mut self.window.1;
        if samples.is_empty() {
            return;
        }
        samples.sort_by(f64::total_cmp);
        self.closed.push(WindowSummary {
            completed: samples.len(),
            quantiles: WINDOW_QS.map(|q| percentile(samples, q)),
        });
        samples.clear();
    }

    /// Median over windows of each window's `q`-percentile, in ms: by due
    /// time over an open phase, over a closed phase's full windows (where
    /// `q` is one of [`WINDOW_QS`]).
    fn windowed_ms(&self, mode: Mode, q: f64) -> Result<f64, String> {
        let per_window: Vec<f64> = match mode {
            Mode::Open => {
                let mut windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
                for &(w, ns) in &self.latency {
                    windows.entry(w).or_default().push(ns);
                }
                windows
                    .into_values()
                    .filter_map(|v| percentile(&sorted(v), q))
                    .collect()
            }
            Mode::Closed => {
                let i = WINDOW_QS
                    .iter()
                    .position(|&kept| kept == q)
                    .expect("closed windows keep this quantile");
                self.closed.iter().filter_map(|w| w.quantiles[i]).collect()
            }
        };
        if per_window.len() < 3 {
            return Err(format!("fewer than 3 windows support a p{}", q * 100.0));
        }
        Ok(median(&per_window) / 1e6)
    }

    /// Median completions per second over a closed phase's full windows.
    fn capacity(&self) -> f64 {
        let per_s: Vec<f64> = self
            .closed
            .iter()
            .map(|w| w.completed as f64 * 1e9 / CLOSED_WINDOW_NS as f64)
            .collect();
        median(&per_s)
    }
}

/// A fingerprint of every bit `predictions_identical` compares (NaNs
/// alike), so a fresh key's answer is kept in 8 bytes until it is checked.
fn fingerprint(p: &Prediction) -> u64 {
    let mut h = DefaultHasher::new();
    for x in [p.r, p.x, p.rw, p.rq, p.ry, p.contention] {
        let bits = if x.is_nan() { f64::NAN } else { x }.to_bits();
        bits.hash(&mut h);
    }
    p.ps.hash(&mut h);
    p.iterations.hash(&mut h);
    h.finish()
}

/// Drive one connection with requests from `source` (due time on the
/// source's clock, key) until `seconds` pass or the source runs dry.
fn drive(
    addr: SocketAddr,
    corpus: &Corpus,
    source: &mut dyn FnMut() -> Option<(u64, Kind)>,
    mode: Mode,
    seconds: f64,
    traced: bool,
) -> Phase {
    let mut ph = Phase::default();
    let sock = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            ph.error = Some(format!("connect: {e}"));
            return ph;
        }
    };
    if let Err(e) = sock
        .set_nodelay(true)
        .and_then(|()| sock.set_nonblocking(true))
    {
        ph.error = Some(format!("socket options: {e}"));
        return ph;
    }
    let mut sock = sock;
    let mut framer = ResponseFramer::default();
    let mut out: Vec<u8> = Vec::with_capacity(1 << 20);
    let mut out_pos = 0usize;
    let (mut appended, mut written) = (0u64, 0u64);
    let (mut appended_n, mut written_n, mut completed_n) = (0u64, 0u64, 0u64);
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut buf = vec![0u8; 64 * 1024];
    let end = if seconds.is_finite() {
        (seconds * 1e9) as u64
    } else {
        u64::MAX
    };
    let mut next = source();
    let base = next.map_or(0, |(due, _)| due);
    // Reserve for the most requests the phase can see, so no vector is
    // reallocated mid-run: peak memory then tracks the requests answered,
    // not where a capacity doubling happened to fall. Untouched reserved
    // pages are never resident.
    if seconds.is_finite() {
        let most = (seconds
            * if mode == Mode::Open {
                RATE * 1.1
            } else {
                MAX_RATE
            }) as usize;
        ph.misses.reserve(most / 8);
        if mode == Mode::Open {
            ph.latency.reserve(most);
            ph.late.reserve(most);
        } else {
            ph.window
                .1
                .reserve((MAX_RATE * CLOSED_WINDOW_NS as f64 / 1e9) as usize);
        }
    }
    let t0 = Instant::now();
    let now = || t0.elapsed().as_nanos() as u64;
    loop {
        let t = now();
        let sending = t < end && next.is_some();
        while let Some((due_at, kind)) = next.filter(|_| sending) {
            let due = match mode {
                Mode::Open if due_at - base <= t => due_at - base,
                Mode::Closed if pending.len() < WINDOW => t,
                _ => break,
            };
            let req = corpus.request(kind);
            out.extend_from_slice(&req);
            appended += req.len() as u64;
            appended_n += 1;
            if mode == Mode::Open {
                ph.late.push((t - due) as f64);
            }
            pending.push_back(Pending {
                due,
                sent: t,
                kind,
                end_byte: appended,
            });
            next = source();
        }
        if out_pos < out.len() {
            match sock.write(&out[out_pos..]) {
                Ok(n) => {
                    out_pos += n;
                    written += n as u64;
                }
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    ph.error = Some(format!("write: {e}"));
                    break;
                }
            }
            if out_pos == out.len() {
                out.clear();
                out_pos = 0;
            }
        }
        while written_n < appended_n
            && pending[(written_n - completed_n) as usize].end_byte <= written
        {
            written_n += 1;
        }
        ph.backlog = ph.backlog.max(appended_n - written_n);
        if !pending.is_empty() {
            match sock.read(&mut buf) {
                Ok(0) => {
                    ph.error = Some("server closed the connection".into());
                    break;
                }
                Ok(n) => framer.push(&buf[..n]),
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    ph.error = Some(format!("read: {e}"));
                    break;
                }
            }
            let done = now();
            loop {
                let frame = match framer.next_frame() {
                    Ok(Some(f)) => f,
                    Ok(None) => break,
                    Err(e) => {
                        ph.error = Some(e);
                        break;
                    }
                };
                let Some(p) = pending.pop_front() else {
                    ph.error = Some("response without a request".into());
                    break;
                };
                completed_n += 1;
                ph.completed += 1;
                match mode {
                    Mode::Open => ph
                        .latency
                        .push((p.due / OPEN_WINDOW_NS, (done - p.due) as f64)),
                    Mode::Closed => {
                        ph.record_closed(done / CLOSED_WINDOW_NS, (done - p.sent) as f64)
                    }
                }
                if traced {
                    ph.rtt.push((p.kind.class(), (done - p.sent) as f64));
                }
                let answer = (frame.status == 200)
                    .then(|| std::str::from_utf8(&frame.body).ok())
                    .flatten()
                    .and_then(|text| parse(text).ok())
                    .and_then(|doc| prediction_from_json(&doc).ok());
                let ok = match (answer, p.kind) {
                    (Some(a), Kind::Warm(i)) => predictions_identical(&a, &corpus.warm_expected[i]),
                    (Some(a), Kind::General(j)) => {
                        predictions_identical(&a, &corpus.general_expected[j])
                    }
                    (Some(a), Kind::Miss(k)) => {
                        ph.misses.push((k, fingerprint(&a)));
                        true
                    }
                    (None, _) => false,
                };
                if !ok {
                    ph.failed += 1;
                }
            }
            if ph.error.is_some() {
                break;
            }
        }
        if !sending && pending.is_empty() {
            break;
        }
        if t.saturating_sub(end) > DRAIN.as_nanos() as u64 {
            ph.error = Some(format!(
                "{} responses missing after the drain",
                pending.len()
            ));
            break;
        }
        std::hint::spin_loop();
    }
    ph.failed += pending.len() as u64;
    ph
}

/// Count a phase's operations, flag a generator that fell behind, and
/// return the p99 send lateness in ns.
fn account(out: &mut Outcome, ph: &Phase) -> f64 {
    out.attempted += ph.completed + ph.failed;
    out.failed += ph.failed;
    if let Some(e) = &ph.error {
        out.failed_checks.push(e.clone());
        out.failed += 1;
    }
    if ph.late.is_empty() {
        return 0.0;
    }
    let late = sorted(ph.late.clone());
    let late_p90 = percentile(&late, 0.90).unwrap_or(f64::INFINITY);
    if late_p90 > LATE_LIMIT_NS {
        out.invalidate(format!(
            "generator fell behind: p90 send lateness {:.0} us",
            late_p90 / 1e3
        ));
    }
    percentile(&late, 0.99).unwrap_or(f64::INFINITY)
}

fn verify_misses(out: &mut Outcome, seed: u64, phases: &[&Phase]) {
    let mut wrong = 0;
    let mut n = 0;
    for &(k, got) in phases.iter().flat_map(|p| &p.misses) {
        n += 1;
        let expected = lopc_core::solve(&gen::miss_scenario(seed, k));
        if !expected.is_ok_and(|e| fingerprint(&e) == got) {
            wrong += 1;
        }
    }
    out.failed += wrong;
    if wrong > 0 {
        out.failed_checks
            .push(format!("{wrong} of {n} fresh keys differ from the library"));
    }
}

/// The open phase's latency percentiles, timed from due times.
fn open_latency(out: &mut Outcome, open: &Phase) {
    let all = sorted(open.latency.iter().map(|&(_, ns)| ns).collect());
    for (name, q) in [
        ("open.p50_ms", 0.5),
        ("open.p95_ms", 0.95),
        ("open.p99_ms", 0.99),
        ("open.p999_ms", 0.999),
    ] {
        out.set(name, percentile(&all, q).map_or(0.0, |ns| ns / 1e6));
    }
}

/// Run `predict_open`.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = serving::generator_budget(1, 1) {
        out.invalidate(e);
        return out;
    }
    let corpus = Corpus::new(args.seed);
    let set_ups = serving::timed_setups(
        serving::SETUPS_BEFORE,
        || set_up(&corpus),
        ServerHandle::shutdown,
    );
    let (server, setup_times) = match set_ups {
        Ok(x) => x,
        Err(e) => {
            out.check(format!("set-up: {e}"), false);
            out.invalidate(e);
            return out;
        }
    };
    let addr = server.addr();
    let mut stream = OpenStream::new(args.seed, RATE);
    let mut source = || Some(stream.next_request());
    if !args.trace {
        let open = drive(
            addr,
            &corpus,
            &mut source,
            Mode::Open,
            args.seconds * OPEN_SHARE,
            false,
        );
        let closed = drive(
            addr,
            &corpus,
            &mut source,
            Mode::Closed,
            args.seconds * (1.0 - OPEN_SHARE),
            false,
        );
        let late = account(&mut out, &open);
        account(&mut out, &closed);
        verify_misses(&mut out, args.seed, &[&open, &closed]);
        out.set("work_per_s", closed.capacity());
        for (name, q) in [("median_ms", 0.5), ("tail_ms", TAIL)] {
            match closed.windowed_ms(Mode::Closed, q) {
                Ok(ms) => out.set(name, ms),
                Err(e) => out.invalidate(e),
            }
        }
        open_latency(&mut out, &open);
        out.set("gen.late_p99_us", late / 1e3);
        out.set("gen.backlog", open.backlog as f64);
    } else {
        traced(args, &mut out, &corpus, &server, &mut source);
    }
    server.shutdown();
    if !args.trace {
        match serving::setup_seconds(setup_times, || set_up(&corpus), ServerHandle::shutdown) {
            Ok(s) => out.set("setup_s", s),
            Err(e) => out.check(format!("set-up: {e}"), false),
        }
    }
    out.set("peak_rss_mb", crate::host::peak_rss_mb());
    out
}

/// The traced run: an untraced and a traced open phase (their p50s give
/// the tracing overhead), reactor counters over the traced phase, and an
/// in-process replay of the same request stream for the stage split.
fn traced(
    args: &Args,
    out: &mut Outcome,
    corpus: &Corpus,
    server: &ServerHandle,
    source: &mut dyn FnMut() -> Option<(u64, Kind)>,
) {
    let addr = server.addr();
    let third = args.seconds / 3.0;
    let plain = drive(addr, corpus, source, Mode::Open, third, false);
    let reactor_before = serving::reactor_counters(&[addr]);
    let layers_before = LayerCounters::of(&[server.service()]);
    let traced = drive(addr, corpus, source, Mode::Open, third, true);
    let layers = LayerCounters::of(&[server.service()]).since(&layers_before);
    let reactor_after = serving::reactor_counters(&[addr]);
    let late = account(out, &plain).max(account(out, &traced));
    out.set("gen.late_p99_us", late / 1e3);
    verify_misses(out, args.seed, &[&plain, &traced]);
    out.set("gen.backlog", plain.backlog.max(traced.backlog) as f64);
    if let (Ok(a), Ok(b)) = (
        plain.windowed_ms(Mode::Open, 0.5),
        traced.windowed_ms(Mode::Open, 0.5),
    ) {
        out.set("trace.overhead_pct", (b / a - 1.0) * 100.0);
    }
    open_latency(out, &traced);
    serving::reactor_metrics(out, reactor_before, reactor_after);
    out.set(
        "cache.hit_rate",
        ratio(layers.hits, layers.hits + layers.misses),
    );
    out.set(
        "interp.solves_per_point",
        ratio(layers.misses, traced.completed as f64),
    );

    // In-process replay of the same stream from its start.
    let mut replay = Replay::default();
    for kind in corpus.fixed_kinds() {
        if let Err(e) = replay.warm(&corpus.request(kind)) {
            out.check(format!("replay warm-up: {e}"), false);
            return;
        }
    }
    let mut replay_stream = OpenStream::new(args.seed, RATE);
    let t0 = Instant::now();
    let mut n = 0u64;
    while (t0.elapsed().as_secs_f64() < third && n < REPLAY_MAX) || n < REPLAY_MIN {
        let (_, kind) = replay_stream.next_request();
        let probes = Probes {
            solve: n.is_multiple_of(8),
            solve_batch: false,
        };
        n += 1;
        if let Err(e) = replay.request(kind.class(), &corpus.request(kind), probes) {
            out.check(format!("replay: {e}"), false);
            return;
        }
    }
    replay.report(out, &[("warm", 1), ("miss", 1), ("general", 1)]);
    for class in ["warm", "miss", "general"] {
        let rtt: Vec<f64> = traced
            .rtt
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|&(_, ns)| ns)
            .collect();
        let rtt = median(&rtt);
        out.set(format!("client.rtt_ns.{class}"), rtt);
        out.set(
            format!("reactor.transport_ns.{class}"),
            rtt - replay.handle_median_ns(class),
        );
    }
    crate::write_spans(&replay.tracer, &args.workload);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_windows_are_summarised_and_the_last_dropped() {
        let mut ph = Phase::default();
        for w in 0..4u64 {
            for i in 0..300 {
                ph.record_closed(w, (w * 1000 + i) as f64);
            }
        }
        // Window 3 is still in progress: only 0..=2 count.
        assert_eq!(ph.closed.len(), 3);
        assert_eq!(ph.capacity(), 300.0 * 1e9 / CLOSED_WINDOW_NS as f64);
        // Nearest-rank quantiles of window 1, the median window.
        assert_eq!(ph.windowed_ms(Mode::Closed, 0.5), Ok(1149.0 / 1e6));
        assert_eq!(ph.windowed_ms(Mode::Closed, TAIL), Ok(1284.0 / 1e6));
        assert_eq!((ph.window.0, ph.window.1.len()), (3, 300));
    }

    #[test]
    fn fingerprint_tells_apart_what_predictions_identical_does() {
        let p = lopc_core::solve(&gen::warm_scenario(1, 0)).expect("solves");
        let mut q = p;
        assert_eq!(fingerprint(&p), fingerprint(&q));
        q.r = f64::from_bits(p.r.to_bits() ^ 1);
        assert_ne!(fingerprint(&p), fingerprint(&q));
        let mut q = p;
        q.iterations += 1;
        assert_ne!(fingerprint(&p), fingerprint(&q));
        let (mut a, mut b) = (p, p);
        a.contention = f64::NAN;
        b.contention = -f64::NAN;
        assert!(predictions_identical(&a, &b));
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }
}
