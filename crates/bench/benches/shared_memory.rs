//! §5.1 shared-memory bench: regenerates the protocol-processor study, then
//! times the collapsed `SharedMemory` solve beside the dense Appendix A
//! oracle it replaced, in the same run.
//!
//! A bit-equality pre-flight gates the timing: every `Prediction` field and
//! the iteration count of `scenario::solve(&Scenario::SharedMemory{..})`
//! must equal the dense `GeneralModel::homogeneous_all_to_all(..)
//! .with_protocol_processor()` solve, or the bench panics before any number
//! is recorded.
//!
//! The two sides are timed in alternating rounds; each ratio is the median
//! of the per-round ratios, with its quartiles. Results go to the
//! `shared_mem` section of `BENCH_sim.json` (median ns per call, the
//! ratios, and the host block).

use criterion::{criterion_group, criterion_main, Criterion};
use lopc_bench::baseline::{self, Host, Section};
use lopc_bench::run_experiment;
use lopc_core::scenario::{solve, Scenario};
use lopc_core::{GeneralModel, Machine, Prediction};
use std::hint::black_box;
use std::time::{Duration, Instant};

const ROUNDS: usize = 15;

fn machine(p: usize) -> Machine {
    Machine::new(p, 25.0, 200.0).with_c2(0.0)
}

/// The dense solve, shaped as the shared-memory `Prediction`.
fn dense(machine: Machine, w: f64) -> Prediction {
    let sol = GeneralModel::homogeneous_all_to_all(machine, w)
        .with_protocol_processor()
        .solve()
        .expect("dense solve");
    Prediction {
        r: sol.r[0],
        x: sol.system_throughput(),
        rw: sol.rw[0],
        rq: sol.rq[0],
        ry: sol.ry[0],
        contention: sol.r[0] - machine.contention_free_response(w),
        ps: None,
        iterations: sol.iterations,
    }
}

fn collapsed(machine: Machine, w: f64) -> Prediction {
    solve(&Scenario::SharedMemory { machine, w }).expect("collapsed solve")
}

/// Calls of `f` that take at least 2 ms.
fn calibrate(f: &mut dyn FnMut()) -> u32 {
    let mut iters = 1u32;
    loop {
        let t = Instant::now();
        (0..iters).for_each(|_| f());
        if t.elapsed() >= Duration::from_millis(2) || iters >= 1 << 24 {
            return iters;
        }
        iters *= 4;
    }
}

/// Nanoseconds per call of `a` and of `b`, one sample each per round, the
/// two sides alternating.
fn paired_ns(mut a: impl FnMut(), mut b: impl FnMut()) -> (Vec<f64>, Vec<f64>) {
    let (na, nb) = (calibrate(&mut a), calibrate(&mut b));
    let time = |f: &mut dyn FnMut(), n: u32| {
        let t = Instant::now();
        (0..n).for_each(|_| f());
        t.elapsed().as_nanos() as f64 / n as f64
    };
    (0..ROUNDS)
        .map(|_| (time(&mut a, na), time(&mut b, nb)))
        .unzip()
}

/// `[q1, median, q3]` of `xs`.
fn quartiles(mut xs: Vec<f64>) -> [f64; 3] {
    xs.sort_by(f64::total_cmp);
    let at = |q: f64| xs[((xs.len() - 1) as f64 * q).round() as usize];
    [at(0.25), at(0.5), at(0.75)]
}

fn bench(c: &mut Criterion) {
    let result = run_experiment("shared_mem", true).unwrap();
    println!("\n[shared_mem] {}", result.notes.join("\n[shared_mem] "));

    // Bit-equality pre-flight: the collapse is the dense solve, or no
    // numbers.
    let mut checked = 0;
    for p in [2, 32, 128] {
        for c2 in [0.0, 1.0, 2.0] {
            for w in [0.0, 800.0, 7001.0] {
                let m = machine(p).with_c2(c2);
                let (got, want) = (collapsed(m, w), dense(m, w));
                let bits =
                    |q: &Prediction| [q.r, q.x, q.rw, q.rq, q.ry, q.contention].map(f64::to_bits);
                assert!(
                    bits(&got) == bits(&want) && got.iterations == want.iterations,
                    "P={p} C²={c2} W={w}: collapsed {got:?} != dense {want:?}"
                );
                checked += 1;
            }
        }
    }
    println!(
        "[shared_mem] bit-equality pre-flight: {checked} scenarios identical to the dense solve"
    );

    let mut g = c.benchmark_group("shared_mem");
    g.bench_function("message_passing_solve", |b| {
        b.iter(|| {
            let m = GeneralModel::homogeneous_all_to_all(black_box(machine(32)), 800.0);
            black_box(m.solve().unwrap().r[0])
        })
    });
    g.finish();

    let mut section = Section::new("shared_mem");
    for r in criterion::take_results() {
        section.entry(format!("{}/{}", r.group, r.id), r.ns_per_iter, None);
    }
    let mut record = |what: &str, p: usize, (dense_ns, collapsed_ns): (Vec<f64>, Vec<f64>)| {
        let ratios = dense_ns.iter().zip(&collapsed_ns).map(|(d, c)| d / c);
        let [q1, med, q3] = quartiles(ratios.collect());
        let (d, c) = (quartiles(dense_ns)[1], quartiles(collapsed_ns)[1]);
        println!(
            "[shared_mem] {what} P={p}: dense {:.2} us, collapsed {:.3} us, \
             dense/collapsed {med:.1}x (quartiles {q1:.1}-{q3:.1})",
            d / 1e3,
            c / 1e3
        );
        section.entry(format!("shared_mem/dense_{what}_p{p}"), d, None);
        section.entry(format!("shared_mem/collapsed_{what}_p{p}"), c, None);
        section.derived(format!("{what}_speedup_p{p}"), med);
        section.derived(format!("{what}_speedup_p{p}_q1"), q1);
        section.derived(format!("{what}_speedup_p{p}_q3"), q3);
    };
    for p in [32, 128] {
        let m = machine(p);
        let timed = paired_ns(
            || {
                black_box(dense(black_box(m), 800.0));
            },
            || {
                black_box(collapsed(black_box(m), 800.0));
            },
        );
        record("solve", p, timed);
    }
    let m = machine(128);
    let timed = paired_ns(
        || {
            let model =
                GeneralModel::homogeneous_all_to_all(black_box(m), 800.0).with_protocol_processor();
            black_box(model.validate()).unwrap();
        },
        || {
            let s = Scenario::SharedMemory {
                machine: black_box(m),
                w: 800.0,
            };
            black_box(s.validate()).unwrap();
        },
    );
    record("validate", 128, timed);

    section.host = Some(Host::detect());
    match baseline::update(&baseline::default_path(), section) {
        Ok(path) => println!("[shared_mem] baseline written to {}", path.display()),
        Err(e) => eprintln!("[shared_mem] could not write baseline: {e}"),
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
