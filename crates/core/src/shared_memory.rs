//! The §5.1 shared-memory variant solved as the symmetric fixed point it is.
//!
//! [`Scenario::SharedMemory`](crate::Scenario::SharedMemory) is the
//! Appendix A model ([`GeneralModel`]) on a homogeneous all-to-all machine
//! with per-node protocol processors (`Rw = W`). Every node is identical:
//! the initial state is uniform and the map `F` sends a uniform state to a
//! uniform state, so each iterate of the dense `[rq[0..P] | ry[0..P] |
//! r[0..P]]` iteration is `P` copies of three scalars. This model iterates
//! those three scalars, `[rq, ry, r]`, at O(P) per iteration and O(1)
//! validation, instead of O(P²) work on a `P × P` routing matrix.
//!
//! It is **bit-identical** to the dense solve, iteration count and error
//! payloads included, because it replays the dense arithmetic term by term:
//!
//! * `λq` is the dense column sum `Σ_c V[c][k]·x_c` from `0.0`: `P − 1`
//!   sequential adds of `frac·x` (`frac = 1/(P−1)`), the diagonal's `0·x`
//!   contributing an exact `+0.0`;
//! * `R` is `W + St + Ry` followed by the `P − 1` routing adds of
//!   `frac·(St + Rq)`, in the dense order;
//! * `hops` (the initial state) and `Σx` (the reported throughput) are
//!   summed exactly as the dense `iter().sum()` sums them;
//! * the convergence residual is a max-norm, so three components give the
//!   value of all `3P`, and the first NaN component is found in the same
//!   `rq`, `ry`, `r` group order;
//! * an [`SolverError::Exhausted`] iterate is expanded back to `3P`.
//!
//! [`GeneralModel::homogeneous_all_to_all`]`(..).with_protocol_processor()`
//! remains the oracle: `tests/shared_memory_collapse.rs` pins the two bit
//! for bit across a parameter grid, through both the scalar and the batched
//! solve.

use crate::error::ModelError;
use crate::general::GeneralModel;
use crate::params::Machine;
use crate::scenario::Prediction;
use lopc_solver::{solve_damped, SolverError};

/// Largest processor count a shared-memory scenario accepts.
///
/// The solve is O(P) per iteration, so an unbounded `P` is unbounded work
/// for one request; `65 536` matches the largest machine the simulator
/// reproduces.
pub const MAX_P: usize = 65_536;

/// The collapsed shared-memory model: the three-scalar state `[rq, ry, r]`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SharedMemory {
    machine: Machine,
    w: f64,
}

/// `n` sequential additions of `term` onto `acc`, in the dense model's
/// summation order (its remaining terms are exact `+0.0`s).
fn add_n(mut acc: f64, term: f64, n: usize) -> f64 {
    for _ in 0..n {
        acc += term;
    }
    acc
}

/// `term` summed `n` times exactly as `[term; n].iter().sum()` sums it.
fn sum_n(term: f64, n: usize) -> f64 {
    std::iter::repeat_n(term, n).sum()
}

impl SharedMemory {
    pub(crate) fn new(machine: Machine, w: f64) -> Self {
        SharedMemory { machine, w }
    }

    /// The uniform visit fraction `1/(P−1)` of every off-diagonal entry.
    fn frac(&self) -> f64 {
        1.0 / (self.machine.p - 1) as f64
    }

    /// The dense model's checks, in its order, plus the `P` bound. O(1).
    pub(crate) fn validate(&self) -> Result<(), ModelError> {
        self.machine.validate()?;
        if self.machine.p > MAX_P {
            return Err(ModelError::InvalidParameter(
                "p must be <= 65536 for shared_memory",
            ));
        }
        if !self.w.is_finite() || self.w < 0.0 {
            return Err(ModelError::InvalidParameter("w must be finite and >= 0"));
        }
        Ok(())
    }

    /// Entry checks plus the contention-free initial state `[rq, ry, r]`.
    pub(crate) fn initial_state(&self) -> Result<Vec<f64>, ModelError> {
        self.validate()?;
        let so = self.machine.s_o;
        let st = self.machine.s_l;
        let hops = sum_n(self.frac(), self.machine.p - 1);
        let init_r = self.w + hops * (st + so) + st + so;
        if init_r <= 0.0 {
            return Err(ModelError::Degenerate("zero-cost cycle"));
        }
        Ok(vec![so.max(1e-12), so.max(1e-12), init_r])
    }

    /// One application of the Appendix A map at the uniform state.
    pub(crate) fn apply_f(&self, state: &[f64], out: &mut [f64]) {
        let p = self.machine.p;
        let so = self.machine.s_o;
        let st = self.machine.s_l;
        let beta = self.machine.beta();
        let eps = 1e-9;
        let frac = self.frac();
        let (rq, ry, r) = (state[0], state[1], state[2]);

        let x = 1.0 / r.max(eps);
        let lq = if x > 0.0 {
            add_n(0.0, frac * x, p - 1)
        } else {
            0.0
        };
        let uq = so * lq;
        let uy = so * x;
        let qq = rq * lq;
        let qy = ry * x;
        out[0] = so * (1.0 + qq + qy + beta * (uq + uy));
        out[1] = so * (1.0 + qq + beta * uq);
        out[2] = add_n(self.w + st + ry, frac * (st + rq), p - 1);
    }

    /// The prediction at a converged state.
    pub(crate) fn decompose(&self, state: &[f64], iterations: usize) -> Prediction {
        let r = state[2];
        Prediction {
            r,
            x: sum_n(1.0 / r, self.machine.p),
            rw: self.w,
            rq: state[0],
            ry: state[1],
            contention: r - self.machine.contention_free_response(self.w),
            ps: None,
            iterations,
        }
    }

    /// The dense solve's error for a collapsed solver error: an exhausted
    /// iterate is expanded back to the `3P` layout.
    pub(crate) fn expand_error(&self, e: SolverError) -> ModelError {
        ModelError::Solver(match e {
            SolverError::Exhausted {
                x,
                iterations,
                residual,
                contracting,
            } => {
                let p = self.machine.p;
                SolverError::Exhausted {
                    x: x.iter().flat_map(|&v| std::iter::repeat_n(v, p)).collect(),
                    iterations,
                    residual,
                    contracting,
                }
            }
            other => other,
        })
    }

    /// Solve to the fixed point.
    pub(crate) fn solve(&self) -> Result<Prediction, ModelError> {
        let x0 = self.initial_state()?;
        solve_damped(
            x0,
            |state, out| self.apply_f(state, out),
            &GeneralModel::fixed_point_options(),
        )
        .map(|conv| self.decompose(&conv.x, conv.iterations))
        .map_err(|e| self.expand_error(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lopc_solver::FixedPointOptions;

    /// Cut both solves off after a few iterations: the collapsed iterate,
    /// expanded, is the dense iterate, residual and contraction flag
    /// included.
    #[test]
    fn exhausted_iterate_expands_to_the_dense_one() {
        let opts = FixedPointOptions {
            max_iter: 5,
            ..GeneralModel::fixed_point_options()
        };
        for p in [2, 7, 33] {
            let m = Machine::new(p, 25.0, 200.0).with_c2(2.0);
            let dense = GeneralModel::homogeneous_all_to_all(m, 300.0).with_protocol_processor();
            let sm = SharedMemory::new(m, 300.0);
            let want = solve_damped(
                dense.initial_state().unwrap(),
                |s, o| dense.apply_f(s, o),
                &opts,
            )
            .unwrap_err();
            let got = solve_damped(sm.initial_state().unwrap(), |s, o| sm.apply_f(s, o), &opts)
                .unwrap_err();
            let got = sm.expand_error(got);
            assert!(matches!(want, SolverError::Exhausted { .. }));
            assert_eq!(
                format!("{got:?}"),
                format!("{:?}", ModelError::Solver(want))
            );
        }
    }
}
