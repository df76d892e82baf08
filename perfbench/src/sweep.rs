//! `sweep_batch`: a closed loop of `nproc` clients posting 128-lane
//! W-sweep batches, alternating exact and tolerant, three quarters from a
//! working set that fits the caches and one quarter over fresh regions.
//! A sweep tool waits for each reply before sending the next batch, so
//! this is a closed loop.
//!
//! The traced run also routes the same mix through one `ClusterClient`
//! over two in-process nodes, for the cluster layer's figures: ring
//! routing, pipelined fan-out and cell push/pull with re-verification.
//! (Routed through two nodes on two CPUs the mix's end-to-end figures
//! spread too widely between runs to hold a regression bound, so the
//! cluster is measured per layer only.)

use crate::gen::{self, Batch};
use crate::replay::{Probes, Replay};
use crate::serving::{self, ratio, LayerCounters};
use crate::stats::{mean, median, percentile, sorted};
use crate::{Args, Outcome};
use lopc_core::Prediction;
use lopc_serve::cluster::{scenario_hash, ClusterClient, HashRing, VNODES};
use lopc_serve::codec::predictions_identical;
use lopc_serve::interp::rel_resid;
use lopc_serve::server::ServerHandle;
use lopc_serve::{Client, Service};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The batch-latency tail the end-to-end metric reports.
const TAIL: f64 = 0.95;
/// Warm-region batches are checked against the library one in this
/// many; fresh ones always.
const CHECK_EVERY: u64 = 16;

/// Send one batch through a client and return its answers.
type Send<C> = dyn Fn(&mut C, &Batch) -> Result<Vec<Prediction>, String> + Sync;

/// One node through `Client::predict_batch_within`.
fn node_send(client: &mut Client, batch: &Batch) -> Result<Vec<Prediction>, String> {
    client
        .predict_batch_within(&batch.lanes, batch.max_rel_err())
        .map_err(|e| e.to_string())
}

/// The cluster through `ClusterClient::predict_batch_within`.
fn cluster_send(client: &mut &ClusterClient, batch: &Batch) -> Result<Vec<Prediction>, String> {
    client
        .predict_batch_within(&batch.lanes, batch.max_rel_err())
        .map_err(|e| e.to_string())
}

/// One answered batch.
struct Sample {
    latency_ns: f64,
    /// Completion time, whole seconds since the phase started.
    window: u32,
    tolerant: bool,
}

#[derive(Default)]
struct Phase {
    /// Answered batches. Their number grows with the server's throughput,
    /// so each is kept small: `peak_rss_mb` counts the benchmark's own
    /// memory too.
    samples: Vec<Sample>,
    /// Batches that failed or were answered wrongly: index and why.
    errors: Vec<(u64, String)>,
    elapsed_s: f64,
}

impl Phase {
    fn latencies(&self, class: Option<bool>) -> Vec<f64> {
        sorted(
            self.samples
                .iter()
                .filter(|s| class.is_none_or(|t| s.tolerant == t))
                .map(|s| s.latency_ns)
                .collect(),
        )
    }

    /// Batches sent, answered or not.
    fn batches(&self) -> usize {
        self.samples.len() + self.errors.len()
    }

    fn lanes_per_s(&self) -> f64 {
        (self.samples.len() * gen::LANES) as f64 / self.elapsed_s
    }

    /// Answered batches grouped by their one-second completion window,
    /// dropping the final partial window.
    fn windows(&self) -> Vec<Vec<f64>> {
        let mut w: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for s in &self.samples {
            w.entry(s.window).or_default().push(s.latency_ns);
        }
        let full = self.elapsed_s as u32;
        w.into_iter()
            .filter(|(k, _)| *k < full)
            .map(|(_, v)| v)
            .collect()
    }

    fn extend(&mut self, other: Phase) {
        self.samples.extend(other.samples);
        self.errors.extend(other.errors);
    }
}

/// `threads` clients each take the next batch of the shared stream until
/// `seconds` have passed.
fn closed_loop<C>(
    threads: usize,
    seconds: f64,
    seed: u64,
    next: &AtomicU64,
    connect: impl Fn() -> Result<C, String> + Sync,
    send: &Send<C>,
) -> Phase {
    let phase = Mutex::new(Phase::default());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut local = Phase::default();
                match connect() {
                    Ok(mut client) => {
                        while t0.elapsed().as_secs_f64() < seconds {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            let batch = gen::batch(seed, index);
                            let t = Instant::now();
                            let result = send(&mut client, &batch);
                            let latency_ns = t.elapsed().as_nanos() as f64;
                            let window = t0.elapsed().as_secs() as u32;
                            let check = matches!(batch.region, gen::Region::Fresh(_))
                                || index.is_multiple_of(CHECK_EVERY);
                            let error = match result {
                                Ok(a) if a.len() != gen::LANES => {
                                    Some(format!("{} answers for {} lanes", a.len(), gen::LANES))
                                }
                                Ok(a) if check && !answers_match(&batch, &a) => {
                                    Some("answers differ from the library".into())
                                }
                                Ok(_) => None,
                                Err(e) => Some(e),
                            };
                            match error {
                                None => local.samples.push(Sample {
                                    latency_ns,
                                    window,
                                    tolerant: batch.tolerant,
                                }),
                                Some(e) => local.errors.push((index, e)),
                            }
                        }
                    }
                    Err(e) => local.errors.push((0, e)),
                }
                phase
                    .lock()
                    .expect("no panics hold this lock")
                    .extend(local);
            });
        }
    });
    let mut phase = phase.into_inner().expect("no panics hold this lock");
    phase.elapsed_s = t0.elapsed().as_secs_f64();
    phase
}

/// Do a batch's answers match the library: exact lanes bit-identical,
/// tolerant lanes within the tolerance? Checked as each answer arrives,
/// so memory use does not grow with throughput.
fn answers_match(batch: &Batch, answers: &[Prediction]) -> bool {
    batch.lanes.iter().zip(answers).all(|(lane, got)| {
        lopc_core::solve(lane).is_ok_and(|exact| {
            if batch.tolerant {
                rel_resid(got, &exact) <= gen::TOLERANCE
            } else {
                predictions_identical(got, &exact)
            }
        })
    })
}

/// Count a phase's batches and its failures.
fn account(out: &mut Outcome, phase: &Phase) {
    out.attempted += phase.batches() as u64;
    out.failed += phase.errors.len() as u64;
    for (index, e) in &phase.errors {
        out.failed_checks.push(format!("batch {index}: {e}"));
    }
}

/// End-to-end metrics as medians over one-second windows — scenarios per
/// second, batch p50 and batch p95 — so a burst of host noise moves one
/// window, not the figure.
fn tail_metrics(out: &mut Outcome, phase: &Phase) {
    let windows = phase.windows();
    if windows.len() < 3 {
        out.invalidate(format!(
            "only {} complete one-second windows",
            windows.len()
        ));
        return;
    }
    let over_windows = |f: &dyn Fn(&Vec<f64>) -> Option<f64>| {
        median(&windows.iter().filter_map(f).collect::<Vec<_>>())
    };
    let tail = over_windows(&|w| percentile(&sorted(w.clone()), TAIL));
    if tail == 0.0 {
        out.invalidate(format!("no window supports a p{}", TAIL * 100.0));
    }
    out.set(
        "work_per_s",
        over_windows(&|w| Some((w.len() * gen::LANES) as f64)),
    );
    out.set("median_ms", over_windows(&|w| Some(median(w))) / 1e6);
    out.set("tail_ms", tail / 1e6);
    eprintln!(
        "{} batches, {:.0} scenarios/s overall, p50 exact {:.3} ms, tolerant {:.3} ms",
        phase.batches(),
        phase.lanes_per_s(),
        median(&phase.latencies(Some(false))) / 1e6,
        median(&phase.latencies(Some(true))) / 1e6,
    );
}

fn interp_counters(out: &mut Outcome, layers: &LayerCounters, phase: &Phase) {
    let lanes = (phase.batches() * gen::LANES) as f64;
    out.set(
        "cache.hit_rate",
        ratio(layers.hits, layers.hits + layers.misses),
    );
    out.set("interp.solves_per_point", ratio(layers.misses, lanes));
    out.set(
        "interp.hit_share",
        ratio(
            layers.interp_hits,
            layers.interp_hits + layers.interp_fallbacks,
        ),
    );
    out.set("interp.cells_built", layers.cells_built);
    out.set("interp.cells_prefetched", layers.cells_prefetched);
}

fn overhead(out: &mut Outcome, plain: &Phase, traced: &Phase) {
    out.set(
        "trace.overhead_pct",
        (median(&traced.latencies(None)) / median(&plain.latencies(None)) - 1.0) * 100.0,
    );
    out.set(
        "batch.exact_p50_ms",
        median(&plain.latencies(Some(false))) / 1e6,
    );
    out.set(
        "batch.tolerant_p50_ms",
        median(&plain.latencies(Some(true))) / 1e6,
    );
}

/// Run `sweep_batch`.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let threads = crate::host::nproc();
    if let Err(e) = serving::generator_budget(threads, threads) {
        out.invalidate(e);
        return out;
    }
    let seed = args.seed;
    let set_up = || -> Result<ServerHandle, String> {
        let server = serving::start_node();
        let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
        for b in gen::working_set(seed) {
            node_send(&mut client, &b)?;
        }
        Ok(server)
    };
    let (server, setup_times) =
        match serving::timed_setups(serving::SETUPS_BEFORE, &set_up, ServerHandle::shutdown) {
            Ok(x) => x,
            Err(e) => {
                out.check(format!("set-up: {e}"), false);
                out.invalidate(e);
                return out;
            }
        };
    let addr = server.addr();
    let connect = || Client::connect(addr).map_err(|e| e.to_string());
    let next = AtomicU64::new(0);
    if !args.trace {
        let phase = closed_loop(threads, args.seconds, seed, &next, connect, &node_send);
        account(&mut out, &phase);
        tail_metrics(&mut out, &phase);
    } else {
        let quarter = args.seconds / 4.0;
        let plain = closed_loop(threads, quarter, seed, &next, connect, &node_send);
        let before = LayerCounters::of(&[server.service()]);
        let reactor_before = serving::reactor_counters(&[addr]);
        let traced = closed_loop(threads, quarter, seed, &next, connect, &node_send);
        let reactor_after = serving::reactor_counters(&[addr]);
        let layers = LayerCounters::of(&[server.service()]).since(&before);
        account(&mut out, &plain);
        account(&mut out, &traced);
        overhead(&mut out, &plain, &traced);
        interp_counters(&mut out, &layers, &traced);
        serving::reactor_metrics(&mut out, reactor_before, reactor_after);
        replay_batches(&mut out, args, quarter);
        cluster_layers(&mut out, args, quarter);
    }
    server.shutdown();
    if !args.trace {
        match serving::setup_seconds(setup_times, &set_up, ServerHandle::shutdown) {
            Ok(s) => out.set("setup_s", s),
            Err(e) => out.check(format!("set-up: {e}"), false),
        }
    }
    out.set("peak_rss_mb", crate::host::peak_rss_mb());
    out
}

/// In-process replay of the batch stream for the stage split.
fn replay_batches(out: &mut Outcome, args: &Args, seconds: f64) {
    let mut replay = Replay::default();
    let request = |b: &Batch| gen::http_post("/v1/predict/batch", &b.body());
    for b in gen::working_set(args.seed) {
        if let Err(e) = replay.warm(&request(&b)) {
            out.check(format!("replay warm-up: {e}"), false);
            return;
        }
    }
    let t0 = Instant::now();
    let mut index = 0;
    while t0.elapsed().as_secs_f64() < seconds || index < 64 {
        let b = gen::batch(args.seed, index);
        let probes = Probes {
            solve: index % 4 < 2,
            solve_batch: !b.tolerant,
        };
        if let Err(e) = replay.request(b.class(), &request(&b), probes) {
            out.check(format!("replay: {e}"), false);
            return;
        }
        index += 1;
    }
    replay.report(out, &[("exact", gen::LANES), ("tolerant", gen::LANES)]);
    crate::write_spans(&replay.tracer, &args.workload);
}

/// The cluster layer: the same batch stream routed by one
/// `ClusterClient` thread over two nodes for half of `seconds`, then the
/// routing and wire split for the other half.
fn cluster_layers(out: &mut Outcome, args: &Args, seconds: f64) {
    if let Err(e) = serving::generator_budget(1, 2) {
        out.invalidate(e);
        return;
    }
    let nodes = serving::start_cluster(2);
    let services = || nodes.iter().map(ServerHandle::service).collect::<Vec<_>>();
    match ClusterClient::connect(nodes[0].addr()) {
        Err(e) => out.check(format!("cluster connect: {e}"), false),
        Ok(client) => {
            let warm = gen::working_set(args.seed)
                .iter()
                .try_for_each(|b| cluster_send(&mut &client, b).map(drop));
            if let Err(e) = warm {
                out.check(format!("cluster warm-up: {e}"), false);
            }
            let before = LayerCounters::of(&services());
            let next = AtomicU64::new(0);
            let routed = closed_loop(
                1,
                seconds / 2.0,
                args.seed,
                &next,
                || Ok(&client),
                &cluster_send,
            );
            let layers = LayerCounters::of(&services()).since(&before);
            account(out, &routed);
            out.set("cluster.cells_shipped", layers.cells_shipped);
            out.set("cluster.cells_received", layers.cells_received);
            out.set("cluster.cells_rejected", layers.cells_rejected);
            out.set("cluster.forwarded", layers.forwarded);
            route_and_wire(out, args, &client, &routed, seconds / 2.0);
        }
    }
    let total = LayerCounters::of(&services());
    out.check(
        format!("cluster rejected {} shipped cells", total.cells_rejected),
        total.cells_rejected == 0.0,
    );
    nodes.into_iter().for_each(ServerHandle::shutdown);
}

/// Routing cost per lane, and the wire share of a routed batch: its
/// latency minus routing minus the slower node's in-process handling of
/// its sub-batch.
fn route_and_wire(
    out: &mut Outcome,
    args: &Args,
    client: &ClusterClient,
    traced: &Phase,
    seconds: f64,
) {
    let members = client.members();
    let ring = HashRing::new(members.clone(), VNODES);
    let node_services: Vec<Service> = members.iter().map(|_| Service::new(16, 256)).collect();
    let sub_batches = |b: &Batch| -> Vec<String> {
        let mut parts: Vec<Batch> = (0..members.len())
            .map(|_| Batch {
                lanes: Vec::new(),
                ..b.clone()
            })
            .collect();
        for lane in &b.lanes {
            let owner = ring.owner(scenario_hash(lane)).unwrap_or(0);
            parts[owner].lanes.push(lane.clone());
        }
        parts.iter().map(Batch::body).collect()
    };
    let handle_max = |b: &Batch| -> f64 {
        sub_batches(b)
            .iter()
            .zip(&node_services)
            .map(|(body, svc)| {
                let t = Instant::now();
                black_box(svc.handle("POST", "/v1/predict/batch", body.as_bytes()));
                t.elapsed().as_nanos() as f64
            })
            .fold(0.0, f64::max)
    };
    for b in gen::working_set(args.seed) {
        handle_max(&b);
    }
    let (mut route, mut handle) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut index = 0;
    while t0.elapsed().as_secs_f64() < seconds || index < 64 {
        let b = gen::batch(args.seed, index);
        let t = Instant::now();
        for lane in &b.lanes {
            black_box(ring.owner(scenario_hash(lane)));
        }
        route.push(t.elapsed().as_nanos() as f64);
        handle.push(handle_max(&b));
        index += 1;
    }
    let rtt = mean(&traced.latencies(None));
    out.set(
        "cluster.route_ns_per_lane",
        mean(&route) / gen::LANES as f64,
    );
    out.set("cluster.wire_ns", rtt - mean(&route) - mean(&handle));
}
