//! In-process replay of a request stream with spans around each layer.
//!
//! Every request is served twice, by two states that see the same stream
//! and so take the same cache and interpolation paths:
//!
//! * as the server does it — `RequestParser` push/poll, `Service::handle`,
//!   `write_response` into a `Vec` — under a `request` root span;
//! * decomposed into the stages `Service::handle` runs — `json::parse`,
//!   codec decode and validation, the cache/interpolation/solve layer
//!   (`InterpCache::predict` or `predict_batch`), and codec encode with
//!   `to_compact` — under a `stages` root span.
//!
//! The stage self times should add up to `server.handle`; how far they
//! miss is reported as `server.reconcile_err_pct`. Which side runs
//! first alternates per request, so neither side always finds the request
//! bytes warm in the CPU caches. Probes of single layers (`CacheKey::of`,
//! `SolutionCache::lookup`, `lopc_core::scenario::solve` and `solve_batch`)
//! run afterwards, outside both trees.

use crate::stats::median;
use crate::trace::Tracer;
use crate::Outcome;
use lopc_core::{Prediction, Scenario};
use lopc_serve::cache::{CacheKey, SolutionCache};
use lopc_serve::codec::{max_rel_err_from_json, prediction_to_json, scenario_from_json};
use lopc_serve::http::{write_response, RequestParser};
use lopc_serve::json::{parse, Json};
use lopc_serve::{InterpCache, Service};
use std::collections::HashMap;
use std::hint::black_box;

/// Cache geometry of the server's default configuration.
const SHARDS: usize = 16;
const PER_SHARD: usize = 256;

/// Stages that make up `server.handle`, in the order it runs them.
const HANDLE_STAGES: [&str; 4] = [
    "json.parse",
    "codec.decode",
    "serve.predict",
    "codec.encode",
];

/// A `server.reconcile_err_pct` above this is reported on standard error.
/// It is a property of the trace, not of the answers, so it never counts
/// as a failed operation: on a shared two-core host the gap moved between
/// 4 % and 17 % from run to run with every answer correct.
const RECONCILE_WARN_PCT: f64 = 10.0;

/// Which optional probes to run for one request.
#[derive(Clone, Copy, Default)]
pub struct Probes {
    /// Time `lopc_core::scenario::solve` on each closed-form lane.
    pub solve: bool,
    /// Time `lopc_core::scenario::solve_batch` on all lanes.
    pub solve_batch: bool,
}

/// The two replay states and the recorded spans.
pub struct Replay {
    service: Service,
    interp: InterpCache,
    parser: RequestParser,
    /// Spans recorded so far.
    pub tracer: Tracer,
    requests: u32,
}

impl Default for Replay {
    fn default() -> Self {
        Replay {
            service: Service::new(SHARDS, PER_SHARD),
            interp: InterpCache::new(SolutionCache::new(SHARDS, PER_SHARD), SHARDS, PER_SHARD),
            parser: RequestParser::new(),
            tracer: Tracer::default(),
            requests: 0,
        }
    }
}

fn handle_side(
    service: &Service,
    parser: &mut RequestParser,
    t: &mut Tracer,
    class: &'static str,
    id: u32,
    raw: &[u8],
) -> Result<(), String> {
    let root = t.open("request", class, id, None);
    let s = t.open("http.parse", class, id, Some(root));
    parser.push(raw);
    let req = parser
        .poll()
        .map_err(|e| e.to_string())?
        .ok_or("request did not frame")?;
    t.close(s);
    let s = t.open("server.handle", class, id, Some(root));
    let reply = service.handle(&req.method, &req.path, &req.body);
    t.close(s);
    let s = t.open("http.write", class, id, Some(root));
    let mut bytes = Vec::with_capacity(128 + reply.body.len());
    write_response(
        &mut bytes,
        reply.status,
        reply.content_type,
        &reply.body,
        req.keep_alive(),
    )
    .map_err(|e| e.to_string())?;
    black_box(&bytes);
    t.close(s);
    t.close(root);
    if reply.status != 200 {
        return Err(format!("status {}: {}", reply.status, reply.body));
    }
    Ok(())
}

fn stage_side(
    interp: &InterpCache,
    t: &mut Tracer,
    class: &'static str,
    id: u32,
    body: &[u8],
    batch: bool,
) -> Result<Vec<Scenario>, String> {
    let root = t.open("stages", class, id, None);
    let s = t.open("json.parse", class, id, Some(root));
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let doc = parse(text)?;
    t.close(s);
    let s = t.open("codec.decode", class, id, Some(root));
    let tol = max_rel_err_from_json(&doc).map_err(|e| e.to_string())?;
    let scenarios = if batch {
        doc.get("scenarios")
            .and_then(Json::as_array)
            .ok_or("batch without scenarios")?
            .iter()
            .map(|v| scenario_from_json(v).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?
    } else {
        vec![scenario_from_json(&doc).map_err(|e| e.to_string())?]
    };
    for sc in &scenarios {
        sc.validate().map_err(|e| e.to_string())?;
    }
    t.close(s);
    let s = t.open("serve.predict", class, id, Some(root));
    let predictions: Vec<Prediction> = if batch {
        interp
            .predict_batch(&scenarios, tol)
            .into_iter()
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?
    } else {
        vec![interp
            .predict(&scenarios[0], tol)
            .map_err(|e| e.to_string())?]
    };
    t.close(s);
    let s = t.open("codec.encode", class, id, Some(root));
    let text = if batch {
        Json::Object(vec![(
            "predictions".into(),
            Json::Array(predictions.iter().map(prediction_to_json).collect()),
        )])
        .to_compact()
    } else {
        prediction_to_json(&predictions[0]).to_compact()
    };
    black_box(text);
    t.close(s);
    t.close(root);
    Ok(scenarios)
}

impl Replay {
    fn serve(
        &mut self,
        class: &'static str,
        raw: &[u8],
        probes: Probes,
        traced: bool,
    ) -> Result<(), String> {
        let mut scratch = Tracer::default();
        let t = if traced {
            &mut self.tracer
        } else {
            &mut scratch
        };
        let id = self.requests;
        self.requests += 1;
        let body = &raw[crate::gen::body_offset(raw)..];
        let batch = raw.starts_with(b"POST /v1/predict/batch ");
        let scenarios = if id.is_multiple_of(2) {
            handle_side(&self.service, &mut self.parser, t, class, id, raw)?;
            stage_side(&self.interp, t, class, id, body, batch)?
        } else {
            let s = stage_side(&self.interp, t, class, id, body, batch)?;
            handle_side(&self.service, &mut self.parser, t, class, id, raw)?;
            s
        };
        if !traced {
            return Ok(());
        }
        let s = t.open("cache.key", class, id, None);
        for sc in &scenarios {
            black_box(CacheKey::of(sc));
        }
        t.close(s);
        let s = t.open("cache.lookup", class, id, None);
        for sc in &scenarios {
            black_box(self.interp.cache().lookup(sc));
        }
        t.close(s);
        if probes.solve {
            let s = t.open("core.solve", class, id, None);
            for sc in scenarios
                .iter()
                .filter(|s| !matches!(s, Scenario::General(_)))
            {
                black_box(lopc_core::solve(sc)).map_err(|e| e.to_string())?;
            }
            t.close(s);
        }
        if probes.solve_batch {
            let s = t.open("core.solve_batch", class, id, None);
            black_box(lopc_core::solve_batch(&scenarios));
            t.close(s);
        }
        Ok(())
    }

    /// Serve a request through both states without recording spans.
    pub fn warm(&mut self, raw: &[u8]) -> Result<(), String> {
        self.serve("warm-up", raw, Probes::default(), false)
    }

    /// Serve a request through both states, recording spans.
    pub fn request(
        &mut self,
        class: &'static str,
        raw: &[u8],
        probes: Probes,
    ) -> Result<(), String> {
        self.serve(class, raw, probes, true)
    }

    /// Median `server.handle` self time per class, in ns.
    pub fn handle_median_ns(&self, class: &str) -> f64 {
        self.tracer
            .by_layer()
            .get(&("server.handle", class))
            .map_or(0.0, |v| median(v))
    }

    /// Per-class stage metrics (median self times) and how far they
    /// reconcile: per request, the stage self times summed against that
    /// request's `server.handle`, compared as medians over the class so a
    /// preemption that lands in one span does not decide it. `lanes` is the
    /// lane count of a request of each class; `cache.*` are per lane.
    pub fn report(&self, out: &mut Outcome, classes: &[(&'static str, usize)]) {
        let layers = self.tracer.by_layer();
        let median_of = |name: &'static str, class: &'static str| {
            layers.get(&(name, class)).map_or(0.0, |v| median(v))
        };
        let mut stage_sum: HashMap<u32, f64> = HashMap::new();
        let mut handle: HashMap<u32, (&str, f64)> = HashMap::new();
        for (span, t) in self.tracer.spans().iter().zip(self.tracer.self_times()) {
            if span.name == "stages" || HANDLE_STAGES.contains(&span.name) {
                *stage_sum.entry(span.trace).or_default() += t as f64;
            } else if span.name == "server.handle" {
                handle.insert(span.trace, (span.class, t as f64));
            }
        }
        let mut solve_ns = Vec::new();
        for &(class, lanes) in classes {
            for (metric, span) in [
                ("http.parse_ns", "http.parse"),
                ("json.parse_ns", "json.parse"),
                ("codec.decode_ns", "codec.decode"),
                ("serve.predict_ns", "serve.predict"),
                ("codec.encode_ns", "codec.encode"),
                ("http.write_ns", "http.write"),
                ("server.handle_ns", "server.handle"),
            ] {
                out.set(format!("{metric}.{class}"), median_of(span, class));
            }
            let key = median_of("cache.key", class) / lanes as f64;
            let lookup = median_of("cache.lookup", class) / lanes as f64;
            out.set(format!("cache.key_ns.{class}"), key);
            out.set(format!("cache.lookup_ns.{class}"), (lookup - key).max(0.0));
            let (sums, handles): (Vec<f64>, Vec<f64>) = handle
                .iter()
                .filter(|(_, (c, _))| *c == class)
                .map(|(id, &(_, h))| (stage_sum.get(id).copied().unwrap_or(0.0), h))
                .unzip();
            let err_pct = if handles.is_empty() {
                0.0
            } else {
                (median(&sums) / median(&handles) - 1.0).abs() * 100.0
            };
            out.set(format!("server.reconcile_err_pct.{class}"), err_pct);
            if handles.len() >= 20 && err_pct > RECONCILE_WARN_PCT {
                eprintln!(
                    "perfbench: warning: stage self times are {err_pct:.1} % off server.handle ({class})"
                );
            }
            if let Some(v) = layers
                .get(&("core.solve", class))
                .filter(|_| class != "general")
            {
                solve_ns.extend(v.iter().map(|ns| ns / lanes as f64));
            }
        }
        out.set("core.solve_ns", median(&solve_ns));
        let per_lane = |span: &'static str, class: &'static str| {
            let lanes = classes.iter().find(|(c, _)| *c == class).map(|&(_, n)| n);
            lanes.map(|n| median_of(span, class) / n as f64)
        };
        if let Some(ns) = per_lane("core.solve_batch", "exact") {
            out.set("core.solve_batch_ns_per_lane", ns);
        }
        if let Some(ns) = per_lane("serve.predict", "tolerant") {
            out.set("interp.predict_ns_per_lane", ns);
        }
    }
}
