//! Differential suite pinning the collapsed `SharedMemory` solve to the dense
//! Appendix A oracle it replaces: `GeneralModel::homogeneous_all_to_all(m,
//! w).with_protocol_processor()`, solved over the full `3P` state with its
//! `P × P` routing matrix.
//!
//! "Identical" is literal: every `Prediction` component is compared through
//! `to_bits`, iteration counts must match, and failing cases must fail with
//! the same error, `Display` and payload (`Debug`) alike — an exhausted
//! solve reports the dense `3P` iterate. The check runs through
//! `scenario::solve`, through `Scenario::validate`, and through
//! `solve_batch` with shared-memory lanes mixed among `General` and
//! `AllToAll` lanes.

use lopc_core::scenario::{solve, solve_batch, Scenario, SHARED_MEMORY_MAX_P};
use lopc_core::{GeneralModel, Machine, ModelError, Prediction};

const PS: [usize; 8] = [2, 3, 5, 16, 32, 64, 128, 257];
const STS: [f64; 4] = [0.0, 10.0, 25.0, 100.0];
const SOS: [f64; 4] = [0.0, 50.0, 131.0, 400.0];
const C2S: [f64; 6] = [0.0, 0.25, 0.5, 1.0, 2.0, 7.5];
const WS: [f64; 7] = [0.0, 1.0, 512.0, 7001.0, 1e6, -1.0, f64::NAN];

/// The dense solve, shaped as the shared-memory `Prediction`.
fn dense(machine: Machine, w: f64) -> Result<Prediction, ModelError> {
    let sol = GeneralModel::homogeneous_all_to_all(machine, w)
        .with_protocol_processor()
        .solve()?;
    Ok(Prediction {
        r: sol.r[0],
        x: sol.system_throughput(),
        rw: sol.rw[0],
        rq: sol.rq[0],
        ry: sol.ry[0],
        contention: sol.r[0] - machine.contention_free_response(w),
        ps: None,
        iterations: sol.iterations,
    })
}

/// Bitwise comparison; returns a description of the first divergence.
fn same(
    got: &Result<Prediction, ModelError>,
    want: &Result<Prediction, ModelError>,
) -> Result<(), String> {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            for (name, gv, wv) in [
                ("r", g.r, w.r),
                ("x", g.x, w.x),
                ("rw", g.rw, w.rw),
                ("rq", g.rq, w.rq),
                ("ry", g.ry, w.ry),
                ("contention", g.contention, w.contention),
            ] {
                if gv.to_bits() != wv.to_bits() {
                    return Err(format!("{name}: {gv:?} vs dense {wv:?}"));
                }
            }
            if (g.ps, g.iterations) != (w.ps, w.iterations) {
                return Err(format!(
                    "ps/iterations: {:?}/{} vs dense {:?}/{}",
                    g.ps, g.iterations, w.ps, w.iterations
                ));
            }
            Ok(())
        }
        (Err(g), Err(w))
            if g.to_string() == w.to_string() && format!("{g:?}") == format!("{w:?}") =>
        {
            Ok(())
        }
        (g, w) => Err(format!("{g:?} vs dense {w:?}")),
    }
}

fn grid_for(p: usize) -> Vec<(Machine, f64)> {
    let mut cases = Vec::new();
    for st in STS {
        for so in SOS {
            for c2 in C2S {
                for w in WS {
                    cases.push((Machine::new(p, st, so).with_c2(c2), w));
                }
            }
        }
    }
    cases
}

/// Validation, scalar solve, and a mixed batch over `cases`.
fn check(cases: &[(Machine, f64)]) {
    let oracle: Vec<_> = cases.iter().map(|&(m, w)| dense(m, w)).collect();

    for (&(machine, w), want) in cases.iter().zip(&oracle) {
        let s = Scenario::SharedMemory { machine, w };
        let dense_valid = GeneralModel::homogeneous_all_to_all(machine, w)
            .with_protocol_processor()
            .validate();
        assert_eq!(s.validate(), dense_valid, "validate {machine:?} W={w}");
        same(&solve(&s), want).unwrap_or_else(|e| panic!("solve {machine:?} W={w}: {e}"));
    }

    // Shared-memory lanes interleaved with dense General and root-find
    // AllToAll lanes.
    let mut lanes = Vec::new();
    for (i, &(machine, w)) in cases.iter().enumerate() {
        lanes.push(Scenario::SharedMemory { machine, w });
        if i % 3 == 0 {
            let small = Machine::new(4, machine.s_l, machine.s_o).with_c2(machine.c2);
            lanes.push(Scenario::General(
                GeneralModel::homogeneous_all_to_all(small, w).with_protocol_processor(),
            ));
        }
        if i % 3 == 1 {
            lanes.push(Scenario::AllToAll { machine, w });
        }
    }
    let batched = solve_batch(&lanes);
    let mut sm = oracle.iter();
    for (lane, (s, got)) in lanes.iter().zip(&batched).enumerate() {
        let want = match s {
            Scenario::SharedMemory { .. } => sm.next().unwrap().clone(),
            other => solve(other),
        };
        same(got, &want).unwrap_or_else(|e| panic!("batch lane {lane} {s:?}: {e}"));
    }
    assert!(sm.next().is_none());
}

// The grid is split by `P` so the test harness runs the pieces in parallel.

#[test]
fn collapse_matches_dense_up_to_p16() {
    PS[..4].iter().for_each(|&p| check(&grid_for(p)));
}

#[test]
fn collapse_matches_dense_at_p32_and_p64() {
    PS[4..6].iter().for_each(|&p| check(&grid_for(p)));
}

#[test]
fn collapse_matches_dense_at_p128() {
    check(&grid_for(PS[6]));
}

#[test]
fn collapse_matches_dense_at_p257() {
    check(&grid_for(PS[7]));
}

/// Magnitude extremes, including the NaN breakdown of a handler cost near
/// `f64::MAX` with a huge `C²` (the first NaN component and its iterate
/// must match too).
#[test]
fn collapse_matches_dense_at_extremes() {
    let mut cases = Vec::new();
    for p in [2, 3, 16] {
        for so in [1e-300, 1e-10, 1e150, 1e300] {
            for c2 in [0.0, 1e12] {
                for w in [1e-300, 1e300, f64::INFINITY] {
                    cases.push((Machine::new(p, 25.0, so).with_c2(c2), w));
                }
            }
        }
    }
    let breakdowns = cases
        .iter()
        .filter(|&&(m, w)| matches!(dense(m, w), Err(ModelError::Solver(_))))
        .count();
    assert!(breakdowns > 0, "the extremes must reach a solver failure");
    check(&cases);
}

/// `P` above the bound is an `InvalidParameter` from validation, the scalar
/// solve and the batch alike, answered without O(P) work.
#[test]
fn processor_count_is_bounded() {
    let ok = Machine::new(SHARED_MEMORY_MAX_P, 25.0, 200.0);
    assert_eq!(
        Scenario::SharedMemory {
            machine: ok,
            w: 1.0
        }
        .validate(),
        Ok(())
    );
    for p in [
        SHARED_MEMORY_MAX_P + 1,
        1_000_000_000,
        9_000_000_000_000_000,
    ] {
        let s = Scenario::SharedMemory {
            machine: Machine::new(p, 25.0, 200.0),
            w: 1.0,
        };
        let e = s.validate().unwrap_err();
        assert!(matches!(e, ModelError::InvalidParameter(_)), "P={p}: {e:?}");
        assert_eq!(solve(&s).unwrap_err(), e);
        assert_eq!(solve_batch(std::slice::from_ref(&s))[0], Err(e));
    }
}
