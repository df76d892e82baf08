//! Shared pieces of the serving workloads: starting nodes, repeated
//! set-up, counter snapshots and the load generator's resource budget.

use crate::host::nproc;
use crate::Outcome;
use lopc_serve::json::Json;
use lopc_serve::server::{start, start_on, ServerConfig, ServerHandle};
use lopc_serve::{Client, Service};
use std::net::{SocketAddr, TcpListener};
use std::time::Instant;

/// Set-ups per run before the measured phase, and after it (end-to-end
/// runs only); the median of all of them is reported.
pub const SETUPS_BEFORE: usize = 5;
pub const SETUPS_AFTER: usize = 4;

/// One node with the default configuration.
pub fn start_node() -> ServerHandle {
    start(ServerConfig::default()).expect("start a node on an ephemeral port")
}

/// `n` nodes that know each other as cluster peers.
pub fn start_cluster(n: usize) -> Vec<ServerHandle> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port"))
        .collect();
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().expect("bound address").to_string())
        .collect();
    listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let peers = addrs
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, a)| a.clone())
                .collect();
            start_on(
                listener,
                ServerConfig {
                    peers,
                    advertise: Some(addrs[i].clone()),
                    ..ServerConfig::default()
                },
            )
            .expect("start a cluster node")
        })
        .collect()
}

/// Run `setup` `n` times, tearing down all but the last, and return the
/// last system with each set-up's time in seconds.
pub fn timed_setups<T>(
    n: usize,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        if let Some(system) = last.take() {
            teardown(system);
        }
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), times))
}

/// The reported set-up time: the median over the set-ups made before the
/// measured phase (`before`) and [`SETUPS_AFTER`] more made after it. A
/// host slowdown that lasts a few seconds then moves fewer than half of
/// them, where five set-ups in a row could all land inside it.
pub fn setup_seconds<T>(
    mut before: Vec<f64>,
    setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<f64, String> {
    let (last, after) = timed_setups(SETUPS_AFTER, setup, &mut teardown)?;
    teardown(last);
    before.extend(after);
    Ok(crate::stats::median(&before))
}

/// The load generator may use no more threads and no more simultaneous
/// connections than there are CPUs.
pub fn generator_budget(threads: usize, connections: usize) -> Result<(), String> {
    let n = nproc();
    if threads > n || connections > n {
        return Err(format!(
            "load generator needs {threads} threads and {connections} connections but nproc is {n}"
        ));
    }
    Ok(())
}

/// Reactor counters summed over nodes, read through `GET /metrics`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReactorCounters {
    /// Requests answered.
    pub requests: f64,
    /// `epoll_wait` returns.
    pub wakeups: f64,
    /// Events delivered.
    pub events: f64,
}

/// Read [`ReactorCounters`] from each node's `/metrics`.
pub fn reactor_counters(addrs: &[SocketAddr]) -> Result<ReactorCounters, String> {
    let mut sum = ReactorCounters::default();
    for &addr in addrs {
        let mut client = Client::connect(addr).map_err(|e| format!("metrics connect: {e}"))?;
        let doc = client.metrics().map_err(|e| format!("GET /metrics: {e}"))?;
        let num = |a: &str, b: &str| {
            doc.get(a)
                .and_then(|o| o.get(b))
                .and_then(Json::as_num)
                .ok_or(format!("/metrics lacks {a}.{b}"))
        };
        sum.requests += num("requests", "total")?;
        sum.wakeups += num("reactor", "wakeups_total")?;
        sum.events += num("reactor", "events_total")?;
    }
    Ok(sum)
}

/// Reactor wake-ups per request and events per wake-up between two
/// counter reads.
pub fn reactor_metrics(
    out: &mut Outcome,
    before: Result<ReactorCounters, String>,
    after: Result<ReactorCounters, String>,
) {
    match (before, after) {
        (Ok(a), Ok(b)) => {
            let wakeups = b.wakeups - a.wakeups;
            out.set(
                "reactor.wakeups_per_request",
                ratio(wakeups, b.requests - a.requests),
            );
            out.set(
                "reactor.events_per_wakeup",
                ratio(b.events - a.events, wakeups),
            );
        }
        (Err(e), _) | (_, Err(e)) => out.check(e, false),
    }
}

/// Cache, interpolation and cluster counters summed over services.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCounters {
    pub hits: f64,
    pub misses: f64,
    pub interp_hits: f64,
    pub interp_fallbacks: f64,
    pub cells_built: f64,
    pub cells_prefetched: f64,
    pub cells_received: f64,
    pub cells_rejected: f64,
    pub cells_shipped: f64,
    pub forwarded: f64,
}

impl LayerCounters {
    /// Snapshot of `services`.
    pub fn of(services: &[&Service]) -> LayerCounters {
        let mut c = LayerCounters::default();
        for s in services {
            let interp = s.interp();
            let cluster = s.cluster_counters();
            c.hits += s.cache().hits() as f64;
            c.misses += s.cache().misses() as f64;
            c.interp_hits += interp.interp_hits() as f64;
            c.interp_fallbacks += interp.interp_fallbacks() as f64;
            c.cells_built += interp.cells_built() as f64;
            c.cells_prefetched += interp.cells_prefetched() as f64;
            c.cells_received += cluster.cells_received as f64;
            c.cells_rejected += cluster.cells_rejected as f64;
            c.cells_shipped += cluster.cells_shipped as f64;
            c.forwarded += cluster
                .peers
                .iter()
                .map(|p| p.forwarded as f64)
                .sum::<f64>();
        }
        c
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &LayerCounters) -> LayerCounters {
        LayerCounters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            interp_hits: self.interp_hits - earlier.interp_hits,
            interp_fallbacks: self.interp_fallbacks - earlier.interp_fallbacks,
            cells_built: self.cells_built - earlier.cells_built,
            cells_prefetched: self.cells_prefetched - earlier.cells_prefetched,
            cells_received: self.cells_received - earlier.cells_received,
            cells_rejected: self.cells_rejected - earlier.cells_rejected,
            cells_shipped: self.cells_shipped - earlier.cells_shipped,
            forwarded: self.forwarded - earlier.forwarded,
        }
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}
