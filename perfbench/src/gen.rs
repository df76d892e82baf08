//! Seeded workload inputs.
//!
//! Every input is a pure function of the seed and its position in the
//! stream, so the same seed yields byte-identical request streams, and the
//! program under test receives only these generated requests.

use crate::rng::Rng;
use lopc_core::{GeneralModel, Machine, Scenario};
use lopc_serve::codec::{scenario_to_json, MAX_REL_ERR_FIELD};
use lopc_serve::json::Json;

/// Warm single-predict keys: half the server's 16 x 256-entry cache, so
/// the working set stays resident while fresh keys churn the rest.
pub const WARM_KEYS: usize = 2048;
/// Distinct `General` P=64 requests (each body is about 85 KB).
pub const GENERALS: usize = 8;
/// Share of single predicts that are `General` bodies.
pub const GENERAL_SHARE: f64 = 0.005;
/// Share of single predicts that carry a key never sent before.
pub const MISS_SHARE: f64 = 0.10;

/// Lanes per sweep batch.
pub const LANES: usize = 128;
/// Working-set sweep regions per batch class (exact, tolerant).
pub const WARM_REGIONS: usize = 8;
/// Tolerance of the tolerant batches.
pub const TOLERANCE: f64 = 1e-3;

const STREAM_OPEN: u64 = 1;
const STREAM_WARM: u64 = 2 << 40;
const STREAM_MISS: u64 = 3 << 40;
const STREAM_BATCH: u64 = 4 << 40;
const STREAM_REGION: u64 = 5 << 40;

fn pick<T: Copy>(rng: &mut Rng, xs: &[T]) -> T {
    xs[rng.below(xs.len() as u64) as usize]
}

const PS: [usize; 4] = [16, 32, 64, 128];
const STS: [f64; 4] = [10.0, 25.0, 50.0, 100.0];
const SOS: [f64; 4] = [50.0, 131.0, 200.0, 400.0];
const C2S: [f64; 2] = [0.0, 1.0];
/// Distinct (variant, machine) pairs.
const GRID: u64 = 4 * 4 * 4 * 4 * 2;
const _: () = assert!(
    (WARM_KEYS as u64).is_multiple_of(GRID),
    "warm keys cover the grid evenly"
);

/// A machine drawn from the seed.
fn random_machine(rng: &mut Rng) -> Machine {
    Machine::new(pick(rng, &PS), pick(rng, &STS), pick(rng, &SOS)).with_c2(pick(rng, &C2S))
}

/// Machine `i` of the grid, for variant `i % 4`: consecutive runs of
/// [`GRID`] indices pair every variant with every machine once.
fn grid_machine(i: u64) -> Machine {
    let digit = |radix: u64, n: usize| ((i / radix) % n as u64) as usize;
    Machine::new(PS[digit(4, 4)], STS[digit(16, 4)], SOS[digit(64, 4)]).with_c2(C2S[digit(256, 2)])
}

/// One of the four closed-form variants on `machine`.
fn closed_form(rng: &mut Rng, variant: u64, machine: Machine, w: f64) -> Scenario {
    let p = machine.p;
    match variant % 4 {
        0 => Scenario::AllToAll { machine, w },
        1 => Scenario::ClientServer {
            machine,
            w,
            ps: Some(1 + rng.below(p as u64 / 4) as usize),
        },
        2 => Scenario::ForkJoin {
            machine,
            w,
            k: 1 + rng.below(4) as u32,
        },
        _ => Scenario::SharedMemory { machine, w },
    }
}

/// Warm key `i` (`i < WARM_KEYS`): integer `W` in `[100, 6244)`, unique per
/// key, so no two keys share a cache entry. Variant and machine follow
/// the grid rather than the seed: solve times differ by a thousandfold
/// across them (a `SharedMemory` key with P=128 and C²=1 takes
/// milliseconds), and the set-up that solves every warm key must not
/// take longer on a seed that happened to draw more slow ones.
pub fn warm_scenario(seed: u64, i: usize) -> Scenario {
    let mut rng = Rng::stream(seed, STREAM_WARM | i as u64);
    let w = 100.0 + 3.0 * i as f64 + rng.below(3) as f64;
    closed_form(&mut rng, i as u64, grid_machine(i as u64), w)
}

/// Fresh key `k`: integer `W >= 7000`, above every warm key, unique per
/// `k` and exact under the cache's 6-significant-digit quantization.
pub fn miss_scenario(seed: u64, k: u64) -> Scenario {
    let mut rng = Rng::stream(seed, STREAM_MISS | k);
    let machine = random_machine(&mut rng);
    closed_form(&mut rng, k, machine, 7000.0 + k as f64)
}

/// `General` request `j`: the Appendix-A model of a homogeneous all-to-all
/// machine with P=64 (a dense 64 x 64 routing matrix).
pub fn general_scenario(seed: u64, j: usize) -> Scenario {
    let mut rng = Rng::stream(seed, STREAM_WARM | (1 << 32) | j as u64);
    let machine = Machine::new(64, pick(&mut rng, &[25.0, 50.0]), 200.0);
    Scenario::General(GeneralModel::homogeneous_all_to_all(
        machine,
        500.0 + 100.0 * j as f64,
    ))
}

/// The wire bytes of one `POST` with a JSON body.
pub fn http_post(path: &str, body: &str) -> Vec<u8> {
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// Offset of the body in a request produced by [`http_post`].
pub fn body_offset(request: &[u8]) -> usize {
    request
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("generated requests have a head")
        + 4
}

/// Exact single-predict request for `scenario`.
pub fn predict_request(scenario: &Scenario) -> Vec<u8> {
    http_post("/v1/predict", &scenario_to_json(scenario).to_compact())
}

/// Which key a single predict carries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// Working-set key `i`.
    Warm(usize),
    /// Fresh key `k`.
    Miss(u64),
    /// `General` request `j`.
    General(usize),
}

impl Kind {
    /// Class label used by the trace.
    pub fn class(&self) -> &'static str {
        match self {
            Kind::Warm(_) => "warm",
            Kind::Miss(_) => "miss",
            Kind::General(_) => "general",
        }
    }
}

/// The open-loop arrival stream: Poisson arrivals at `rate` per second,
/// each tagged with the key it carries.
pub struct OpenStream {
    rng: Rng,
    mean_gap_ns: f64,
    clock_ns: f64,
    misses: u64,
}

impl OpenStream {
    /// Stream for `seed` at `rate` requests per second.
    pub fn new(seed: u64, rate: f64) -> OpenStream {
        OpenStream {
            rng: Rng::stream(seed, STREAM_OPEN),
            mean_gap_ns: 1e9 / rate,
            clock_ns: 0.0,
            misses: 0,
        }
    }

    /// Next request: its due time (ns on the stream's own clock) and key.
    pub fn next_request(&mut self) -> (u64, Kind) {
        self.clock_ns += self.rng.exp(self.mean_gap_ns);
        let u = self.rng.unit();
        let kind = if u < GENERAL_SHARE {
            Kind::General(self.rng.below(GENERALS as u64) as usize)
        } else if u < GENERAL_SHARE + MISS_SHARE {
            self.misses += 1;
            Kind::Miss(self.misses - 1)
        } else {
            Kind::Warm(self.rng.below(WARM_KEYS as u64) as usize)
        };
        (self.clock_ns as u64, kind)
    }
}

/// Which region a sweep batch covers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Region {
    /// Working-set region `j < WARM_REGIONS`.
    Warm(usize),
    /// A region never requested before (unique per batch index).
    Fresh(u64),
}

/// One 128-lane W-sweep batch.
#[derive(Clone, Debug)]
pub struct Batch {
    /// `max_rel_err = TOLERANCE` instead of exact.
    pub tolerant: bool,
    /// Region swept.
    pub region: Region,
    /// The lanes.
    pub lanes: Vec<Scenario>,
}

impl Batch {
    /// Trace class label.
    pub fn class(&self) -> &'static str {
        if self.tolerant {
            "tolerant"
        } else {
            "exact"
        }
    }

    /// The request's tolerance.
    pub fn max_rel_err(&self) -> f64 {
        if self.tolerant {
            TOLERANCE
        } else {
            0.0
        }
    }

    /// `POST /v1/predict/batch` body, in the wire format the client uses.
    pub fn body(&self) -> String {
        let mut fields = vec![(
            "scenarios".to_string(),
            Json::Array(self.lanes.iter().map(scenario_to_json).collect()),
        )];
        if self.tolerant {
            fields.push((MAX_REL_ERR_FIELD.into(), Json::Num(TOLERANCE)));
        }
        Json::Object(fields).to_compact()
    }
}

/// Region shapes: `(St, So, C², first W, W step)`. `St`, `So` and `C²` sit
/// on the interpolation grid, so tolerant lanes fall in one-dimensional
/// cells. The shape fixes how many cells a sweep crosses, so it is not
/// left to the seed: a seed that drew only wide sweeps would measure a
/// costlier workload, not a slower program.
const SHAPES: [(f64, f64, f64, f64, f64); 8] = [
    (25.0, 200.0, 0.0, 500.0, 2.5),
    (10.0, 100.0, 1.0, 800.0, 5.0),
    (50.0, 400.0, 0.0, 1200.0, 7.5),
    (25.0, 100.0, 1.0, 600.0, 5.0),
    (10.0, 400.0, 1.0, 1000.0, 2.5),
    (50.0, 200.0, 0.0, 700.0, 7.5),
    (25.0, 400.0, 1.0, 900.0, 5.0),
    (10.0, 200.0, 0.0, 1500.0, 2.5),
];

/// A W-sweep over one region: all-to-all (even ids) or optimal-`ps`
/// client-server (odd ids) with the id's shape, starting up to 40 below or
/// above the shape's first `W` as the seed draws. `p` is the region's
/// identity: distinct regions never share a key or a cell.
fn region_lanes(seed: u64, region_id: u64, p: usize) -> Vec<Scenario> {
    let mut rng = Rng::stream(seed, STREAM_REGION | region_id);
    let (st, so, c2, first_w, dw) = SHAPES[(region_id / 2) as usize % SHAPES.len()];
    let machine = Machine::new(p, st, so).with_c2(c2);
    let w0 = first_w + 10.0 * (rng.below(9) as f64 - 4.0);
    (0..LANES)
        .map(|l| {
            let w = w0 + dw * l as f64;
            if region_id.is_multiple_of(2) {
                Scenario::AllToAll { machine, w }
            } else {
                Scenario::ClientServer {
                    machine,
                    w,
                    ps: None,
                }
            }
        })
        .collect()
}

/// Batch `index` of the sweep stream: even batches exact, odd tolerant;
/// one in four covers a fresh region, the rest revisit the working set.
pub fn batch(seed: u64, index: u64) -> Batch {
    let tolerant = index % 2 == 1;
    let mut rng = Rng::stream(seed, STREAM_BATCH | index);
    let region = if rng.below(4) == 0 {
        Region::Fresh(index)
    } else {
        Region::Warm(rng.below(WARM_REGIONS as u64) as usize)
    };
    let lanes = working_or_fresh(seed, tolerant, region);
    Batch {
        tolerant,
        region,
        lanes,
    }
}

fn working_or_fresh(seed: u64, tolerant: bool, region: Region) -> Vec<Scenario> {
    match region {
        Region::Warm(j) => {
            let id = j as u64 + if tolerant { WARM_REGIONS as u64 } else { 0 };
            region_lanes(seed, id, 16 + 2 * id as usize)
        }
        // Halving the index alternates the variant within each class.
        Region::Fresh(index) => region_lanes(seed, index / 2, 100 + index as usize),
    }
}

/// The working set: every warm region of both classes, as batches.
pub fn working_set(seed: u64) -> Vec<Batch> {
    (0..2 * WARM_REGIONS)
        .map(|n| {
            let tolerant = n >= WARM_REGIONS;
            let region = Region::Warm(n % WARM_REGIONS);
            Batch {
                tolerant,
                region,
                lanes: working_or_fresh(seed, tolerant, region),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open_stream_bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut s = OpenStream::new(seed, 8000.0);
        let mut out = Vec::new();
        for _ in 0..n {
            let (due, kind) = s.next_request();
            out.extend_from_slice(&due.to_le_bytes());
            let scenario = match kind {
                Kind::Warm(i) => warm_scenario(seed, i),
                Kind::Miss(k) => miss_scenario(seed, k),
                Kind::General(j) => general_scenario(seed, j),
            };
            out.extend(predict_request(&scenario));
        }
        out
    }

    fn batch_stream_bytes(seed: u64, n: u64) -> Vec<u8> {
        (0..n)
            .flat_map(|i| batch(seed, i).body().into_bytes())
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_request_streams() {
        assert_eq!(open_stream_bytes(11, 3000), open_stream_bytes(11, 3000));
        assert_ne!(open_stream_bytes(11, 3000), open_stream_bytes(12, 3000));
        assert_eq!(batch_stream_bytes(11, 40), batch_stream_bytes(11, 40));
        assert_ne!(batch_stream_bytes(11, 40), batch_stream_bytes(12, 40));
    }

    #[test]
    fn open_mix_matches_the_declared_shares() {
        let mut s = OpenStream::new(5, 8000.0);
        let n = 200_000;
        let (mut general, mut miss) = (0, 0);
        let mut last_due = 0;
        for _ in 0..n {
            let (due, kind) = s.next_request();
            assert!(due >= last_due);
            last_due = due;
            match kind {
                Kind::General(_) => general += 1,
                Kind::Miss(_) => miss += 1,
                Kind::Warm(_) => {}
            }
        }
        let share = |c: usize| c as f64 / n as f64;
        assert!((share(general) - GENERAL_SHARE).abs() < 0.001);
        assert!((share(miss) - MISS_SHARE).abs() < 0.005);
        // 8000 requests per second: 25 s of schedule.
        assert!((last_due as f64 / 1e9 - 25.0).abs() < 0.5);
    }

    #[test]
    fn keys_are_valid_and_distinct() {
        use lopc_serve::cache::CacheKey;
        use std::collections::HashSet;
        let mut keys = HashSet::new();
        for i in 0..WARM_KEYS {
            let s = warm_scenario(3, i);
            s.validate().expect("warm key validates");
            assert!(keys.insert(CacheKey::of(&s)), "warm key {i} repeats");
        }
        for k in 0..2000 {
            let s = miss_scenario(3, k);
            s.validate().expect("fresh key validates");
            assert!(keys.insert(CacheKey::of(&s)), "fresh key {k} repeats");
        }
        for j in 0..GENERALS {
            general_scenario(3, j)
                .validate()
                .expect("general validates");
        }
        let warm: Vec<Batch> = working_set(3);
        assert_eq!(warm.len(), 2 * WARM_REGIONS);
        for b in warm
            .iter()
            .chain((0..64).map(|i| batch(3, i)).collect::<Vec<_>>().iter())
        {
            assert_eq!(b.lanes.len(), LANES);
            for s in &b.lanes {
                s.validate().expect("lane validates");
            }
        }
    }
}
