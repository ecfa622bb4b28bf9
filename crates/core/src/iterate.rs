//! Iteration phase: HOOI-style ALS evaluated entirely through the slice
//! SVDs.
//!
//! Per sweep, for a tensor with internal shape `(I₁, I₂, I₃, …, I_N)`,
//! slice rank `k` and target ranks `J`:
//!
//! * mode 1: stack `W_l = U_lΣ_l (V_lᵀA⁽²⁾)` → tensor `(I₁, J₂, I₃, …)`,
//!   contract trailing factors, take leading J₁ left singular vectors;
//! * mode 2: symmetric with `Z_l = (A⁽¹⁾ᵀU_lΣ_l) V_lᵀ` stacked as
//!   `(J₁, I₂, I₃, …)`;
//! * modes ≥ 3: work on the small projected tensor
//!   `P_l = A⁽¹⁾ᵀX_lA⁽²⁾ ∈ R^{J₁×J₂}`;
//! * core: `P ×₃ A⁽³⁾ᵀ ⋯ ×_N A⁽ᴺ⁾ᵀ`.
//!
//! No step touches anything of size `I₁·I₂`, which is the source of
//! D-Tucker's speed: the per-sweep cost is `O(L·(I₁+I₂)·k·J)` instead of
//! HOOI's `O(L·I₁·I₂·J)`.

use crate::config::DTuckerConfig;
use crate::error::Result;
use crate::init::projected_tensor_threaded;
use crate::slices::SlicedTensor;
use crate::trace::ConvergenceTrace;
use dtucker_linalg::gemm::{matmul, t_matmul};
use dtucker_linalg::matrix::Matrix;
use dtucker_linalg::pool;
use dtucker_linalg::svd::leading_left_singular_vectors;
use dtucker_tensor::dense::DenseTensor;
use dtucker_tensor::ttm::ttm_t;
use dtucker_tensor::unfold::unfold;

/// Output of the iteration phase (internal mode order).
#[derive(Debug, Clone)]
pub struct IterationOutput {
    /// Updated factor matrices.
    pub factors: Vec<Matrix>,
    /// Final core tensor.
    pub core: DenseTensor,
    /// Convergence record.
    pub trace: ConvergenceTrace,
}

/// Owned ALS state between sweeps — everything the iteration phase needs to
/// continue, and therefore everything a HOOI checkpoint must persist.
///
/// Each sweep is a deterministic function of `(factors, trace)` and the
/// compressed tensor, so resuming from a state snapshot reproduces the
/// uninterrupted run **bit for bit** (the trace carries the previous fits
/// the stopping rule compares against).
#[derive(Debug, Clone)]
pub struct SweepState {
    /// Completed sweeps so far (the next sweep executed is `sweep`).
    pub sweep: usize,
    /// Factor matrices in internal mode order.
    pub factors: Vec<Matrix>,
    /// Convergence record of the completed sweeps.
    pub trace: ConvergenceTrace,
}

impl SweepState {
    /// State before the first sweep.
    pub fn fresh(factors: Vec<Matrix>) -> Self {
        SweepState {
            sweep: 0,
            factors,
            trace: ConvergenceTrace::default(),
        }
    }
}

/// Borrowed view of the state after one sweep, handed to checkpoint hooks.
#[derive(Debug)]
pub struct SweepSnapshot<'a> {
    /// Completed sweeps (1-based: the snapshot after the first sweep has
    /// `sweep == 1`).
    pub sweep: usize,
    /// Current factors in internal mode order.
    pub factors: &'a [Matrix],
    /// Convergence record so far.
    pub trace: &'a ConvergenceTrace,
    /// Whether the stopping rule fired on this sweep.
    pub done: bool,
}

/// Per-sweep checkpoint hook. Returning an error aborts the iteration
/// (which is also how the kill/resume tests simulate dying mid-run).
pub type SweepHook<'h> = dyn FnMut(SweepSnapshot<'_>) -> Result<()> + 'h;

/// Runs ALS sweeps starting from `factors` until the fit stalls or
/// `cfg.max_iters` is reached. `ranks` are in internal order.
pub fn iterate(
    st: &SlicedTensor,
    ranks: &[usize],
    factors: Vec<Matrix>,
    cfg: &DTuckerConfig,
) -> Result<IterationOutput> {
    iterate_from(st, ranks, SweepState::fresh(factors), cfg, &mut |_| Ok(()))
}

/// [`iterate`] with an explicit starting state and a per-sweep hook —
/// the checkpoint/resume entry point. Continuing from a snapshot produced
/// by a previous (killed) run yields the exact factors the uninterrupted
/// run would have produced.
pub fn iterate_from(
    st: &SlicedTensor,
    ranks: &[usize],
    state: SweepState,
    cfg: &DTuckerConfig,
    on_sweep: &mut SweepHook<'_>,
) -> Result<IterationOutput> {
    let n_modes = st.shape().len();
    let SweepState {
        sweep: start,
        mut factors,
        mut trace,
    } = state;
    debug_assert_eq!(factors.len(), n_modes);
    let norm_x = st.norm_x_sq().max(f64::MIN_POSITIVE);
    let threads = pool::resolve_threads(cfg.threads);
    let mut core: Option<DenseTensor> = None;

    for sweep in start..cfg.max_iters {
        // A resumed trace may already be converged (the checkpoint was
        // written at the final sweep); running more sweeps would diverge
        // from what the uninterrupted run produced.
        if trace.converged {
            break;
        }
        update_mode1(st, &mut factors, ranks[0], threads)?;
        update_mode2(st, &mut factors, ranks[1], threads)?;
        // Small projected tensor shared by all trailing updates + the core.
        let p = projected_tensor_threaded(st, &factors[0], &factors[1], threads)?;
        for mode in 2..n_modes {
            update_trailing_mode(&p, &mut factors, mode, ranks[mode])?;
        }
        let mut g = p;
        for mode in 2..n_modes {
            g = ttm_t(&g, &factors[mode], mode)?;
        }
        let fit = (norm_x - g.fro_norm_sq()).max(0.0).sqrt() / norm_x.sqrt();
        let done = trace.record(fit, cfg.tolerance);
        core = Some(g);
        on_sweep(SweepSnapshot {
            sweep: sweep + 1,
            factors: &factors,
            trace: &trace,
            done,
        })?;
        if done {
            break;
        }
    }
    // A resumed state may already sit at (or past) the sweep budget; the
    // loop then never runs, and the core is recomputed from the factors.
    let core = match core {
        Some(g) => g,
        None => compute_core(st, &factors, threads)?,
    };
    Ok(IterationOutput {
        factors,
        core,
        trace,
    })
}

/// Core tensor `X ×₁ A⁽¹⁾ᵀ ⋯ ×_N A⁽ᴺ⁾ᵀ` for a fixed set of factors,
/// evaluated through the slices.
fn compute_core(st: &SlicedTensor, factors: &[Matrix], threads: usize) -> Result<DenseTensor> {
    let mut g = projected_tensor_threaded(st, &factors[0], &factors[1], threads)?;
    for mode in 2..st.shape().len() {
        g = ttm_t(&g, &factors[mode], mode)?;
    }
    Ok(g)
}

/// Mode-1 update: `A⁽¹⁾ ← J₁` leading left singular vectors of the mode-1
/// unfolding of `X ×₂ A⁽²⁾ᵀ ⋯ ×_N A⁽ᴺ⁾ᵀ`, evaluated through the slices.
/// The per-slice products fan out across the shared pool; each slice is
/// computed independently, so results match the serial order exactly.
fn update_mode1(
    st: &SlicedTensor,
    factors: &mut [Matrix],
    j1: usize,
    threads: usize,
) -> Result<()> {
    let shape = st.shape();
    let a2 = &factors[1];
    let mut w_shape = vec![shape[0], a2.cols()];
    w_shape.extend_from_slice(&shape[2..]);
    let slices = pool::parallel_map(st.num_slices(), threads.min(st.num_slices()), |l| {
        // U_lΣ_l (V_lᵀ A2): (I₁×k)(k×J₂).
        let sl = &st.slices()[l];
        let vta = t_matmul(&sl.v, a2);
        matmul(&sl.us(), &vta)
    });
    let mut w = DenseTensor::from_frontal_slices(&w_shape, &slices)?;
    for mode in 2..shape.len() {
        w = ttm_t(&w, &factors[mode], mode)?;
    }
    factors[0] = leading_left_singular_vectors(&unfold(&w, 0)?, j1)?;
    Ok(())
}

/// Mode-2 update, symmetric to [`update_mode1`].
fn update_mode2(
    st: &SlicedTensor,
    factors: &mut [Matrix],
    j2: usize,
    threads: usize,
) -> Result<()> {
    let shape = st.shape();
    let a1 = &factors[0];
    let mut z_shape = vec![a1.cols(), shape[1]];
    z_shape.extend_from_slice(&shape[2..]);
    let slices = pool::parallel_map(st.num_slices(), threads.min(st.num_slices()), |l| {
        // (A1ᵀ U_lΣ_l) V_lᵀ: (J₁×k)(k×I₂).
        let sl = &st.slices()[l];
        let atu = t_matmul(a1, &sl.us());
        dtucker_linalg::gemm::matmul_t(&atu, &sl.v)
    });
    let mut z = DenseTensor::from_frontal_slices(&z_shape, &slices)?;
    for mode in 2..shape.len() {
        z = ttm_t(&z, &factors[mode], mode)?;
    }
    factors[1] = leading_left_singular_vectors(&unfold(&z, 1)?, j2)?;
    Ok(())
}

/// Trailing-mode update on the small projected tensor `P` (shape
/// `(J₁, J₂, I₃, …, I_N)`).
fn update_trailing_mode(
    p: &DenseTensor,
    factors: &mut [Matrix],
    mode: usize,
    j: usize,
) -> Result<()> {
    let n_modes = p.order();
    let mut y = p.clone();
    for m in 2..n_modes {
        if m != mode {
            y = ttm_t(&y, &factors[m], m)?;
        }
    }
    factors[mode] = leading_left_singular_vectors(&unfold(&y, mode)?, j)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DTuckerConfig;
    use crate::init::initialize_threaded;
    use crate::tucker::TuckerDecomp;
    use dtucker_tensor::random::low_rank_plus_noise;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(
        shape: &[usize],
        ranks: &[usize],
        noise: f64,
        seed: u64,
    ) -> (DenseTensor, SlicedTensor, DTuckerConfig) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = low_rank_plus_noise(shape, ranks, noise, &mut rng).unwrap();
        let cfg = DTuckerConfig::new(ranks).with_seed(seed);
        let st = SlicedTensor::compress(&x, &cfg).unwrap();
        (x, st, cfg)
    }

    #[test]
    fn iterate_converges_on_noiseless_input() {
        let (x, st, cfg) = setup(&[20, 15, 10], &[3, 3, 3], 0.0, 1);
        let init = initialize_threaded(&st, &[3, 3, 3], 1).unwrap();
        let out = iterate(&st, &[3, 3, 3], init.factors, &cfg).unwrap();
        assert!(
            out.trace.converged,
            "should converge well before 100 sweeps"
        );
        assert!(out.trace.iterations() < 20);
        let d = TuckerDecomp {
            core: out.core,
            factors: out.factors,
        };
        assert!(d.relative_error_sq(&x).unwrap() < 1e-9);
    }

    #[test]
    fn iterate_improves_or_maintains_fit() {
        let (_, st, cfg) = setup(&[25, 20, 12], &[3, 3, 3], 0.2, 2);
        let init = initialize_threaded(&st, &[3, 3, 3], 1).unwrap();
        let out = iterate(&st, &[3, 3, 3], init.factors, &cfg).unwrap();
        let fits = &out.trace.sweep_fits;
        assert!(!fits.is_empty());
        // The fit (residual indicator) should be non-increasing up to noise.
        for w in fits.windows(2) {
            assert!(w[1] <= w[0] + 1e-6, "fit increased: {:?}", fits);
        }
    }

    #[test]
    fn iterate_factors_stay_orthonormal() {
        let (_, st, cfg) = setup(&[18, 14, 9], &[4, 3, 2], 0.1, 3);
        let init = initialize_threaded(&st, &[4, 3, 2], 1).unwrap();
        let out = iterate(&st, &[4, 3, 2], init.factors, &cfg).unwrap();
        for f in &out.factors {
            assert!(f.has_orthonormal_cols(1e-7));
        }
        assert_eq!(out.core.shape(), &[4, 3, 2]);
    }

    #[test]
    fn iterate_order4() {
        let (x, st, cfg) = setup(&[12, 10, 5, 4], &[2, 2, 2, 2], 0.0, 4);
        let init = initialize_threaded(&st, &[2, 2, 2, 2], 1).unwrap();
        let out = iterate(&st, &[2, 2, 2, 2], init.factors, &cfg).unwrap();
        let d = TuckerDecomp {
            core: out.core,
            factors: out.factors,
        };
        assert!(d.relative_error_sq(&x).unwrap() < 1e-9);
    }

    #[test]
    fn iterate_matches_error_estimate() {
        let (x, st, cfg) = setup(&[20, 16, 10], &[3, 3, 3], 0.05, 5);
        let init = initialize_threaded(&st, &[3, 3, 3], 1).unwrap();
        let out = iterate(&st, &[3, 3, 3], init.factors, &cfg).unwrap();
        let d = TuckerDecomp {
            core: out.core,
            factors: out.factors,
        };
        let exact = d.relative_error_sq(&x).unwrap();
        let est = d.projection_error_sq(x.fro_norm_sq());
        // The cheap estimate should track the exact error closely (the
        // compression is nearly lossless at this noise level).
        assert!(
            (exact - est).abs() < 5e-3,
            "exact {exact} vs estimate {est}"
        );
    }

    #[test]
    fn iterate_from_random_start_still_converges() {
        let (x, st, cfg) = setup(&[20, 15, 10], &[3, 3, 3], 0.0, 6);
        let mut rng = StdRng::seed_from_u64(99);
        let factors: Vec<Matrix> = st
            .shape()
            .iter()
            .zip([3usize, 3, 3].iter())
            .map(|(&i, &j)| {
                dtucker_linalg::qr::orthonormalize(&dtucker_linalg::random::gaussian_matrix(
                    i, j, &mut rng,
                ))
            })
            .collect();
        let out = iterate(&st, &[3, 3, 3], factors, &cfg).unwrap();
        let d = TuckerDecomp {
            core: out.core,
            factors: out.factors,
        };
        assert!(d.relative_error_sq(&x).unwrap() < 1e-8);
    }
}
