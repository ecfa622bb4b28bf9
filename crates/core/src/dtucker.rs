//! The D-Tucker front door: approximation → initialization → iteration.

use crate::config::DTuckerConfig;
use crate::error::{CoreError, Result};
use crate::init::initialize_threaded;
use crate::iterate::{iterate_from, SweepHook, SweepState};
use crate::profile::PhaseProfile;
use crate::slices::SlicedTensor;
use crate::trace::ConvergenceTrace;
use crate::tucker::TuckerDecomp;
use dtucker_linalg::matrix::Matrix;
use dtucker_linalg::qr::orthonormalize;
use dtucker_linalg::random::gaussian_matrix;
use dtucker_tensor::dense::DenseTensor;
use dtucker_tensor::unfold::{inverse_permutation, permute};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// How the iteration phase is seeded (ablation hook for the convergence
/// experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitStrategy {
    /// The paper's SVD-based initialization phase.
    DTucker,
    /// Random orthonormal factors (what vanilla HOOI starts from).
    Random,
}

/// Result of a full D-Tucker run.
#[derive(Debug, Clone)]
pub struct DTuckerOutput {
    /// The decomposition, with factors in the **original** mode order.
    pub decomposition: TuckerDecomp,
    /// Convergence record of the iteration phase.
    pub trace: ConvergenceTrace,
    /// Wall-clock time of the phases `approximation` (absent when a
    /// pre-compressed tensor was supplied), `initialization` and
    /// `iteration`.
    pub timings: PhaseProfile,
    /// The compressed representation (reusable for further runs at other
    /// ranks ≤ slice rank, and for memory accounting).
    pub sliced: SlicedTensor,
}

/// Where the iteration phase starts: a fresh initialization, or a
/// [`SweepState`] restored from a checkpoint.
enum Start {
    Init(InitStrategy),
    Resume(SweepState),
}

/// A [`DTuckerOutput`] before the compressed tensor is attached.
type Run = (TuckerDecomp, ConvergenceTrace, PhaseProfile);

fn attach((decomposition, trace, timings): Run, sliced: SlicedTensor) -> DTuckerOutput {
    DTuckerOutput {
        decomposition,
        trace,
        timings,
        sliced,
    }
}

/// The D-Tucker solver.
///
/// ```
/// use dtucker_core::{DTucker, DTuckerConfig};
/// use dtucker_tensor::random::low_rank_plus_noise;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let x = low_rank_plus_noise(&[30, 25, 10], &[3, 3, 3], 0.01, &mut rng).unwrap();
/// let out = DTucker::new(DTuckerConfig::uniform(3, 3)).decompose(&x).unwrap();
/// assert!(out.decomposition.relative_error_sq(&x).unwrap() < 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct DTucker {
    cfg: DTuckerConfig,
}

impl DTucker {
    /// Creates a solver with the given configuration.
    pub fn new(cfg: DTuckerConfig) -> Self {
        DTucker { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &DTuckerConfig {
        &self.cfg
    }

    /// Runs all three phases on a dense tensor.
    pub fn decompose(&self, x: &DenseTensor) -> Result<DTuckerOutput> {
        self.decompose_with_init(x, InitStrategy::DTucker)
    }

    /// Runs all three phases with an explicit initialization strategy.
    pub fn decompose_with_init(
        &self,
        x: &DenseTensor,
        strategy: InitStrategy,
    ) -> Result<DTuckerOutput> {
        self.cfg.validate(x.shape())?;
        if !x.is_finite() {
            return Err(CoreError::InvalidConfig {
                details: "input tensor contains non-finite entries".into(),
            });
        }
        self.compress_then_run(|| SlicedTensor::compress(x, &self.cfg), strategy)
    }

    /// Runs all three phases on a **sparse** tensor (the lineage's
    /// future-work extension): the approximation phase compresses slices
    /// through CSR products in `O(nnz·k)`; the rest of the pipeline is
    /// identical to the dense path.
    pub fn decompose_sparse(&self, x: &dtucker_tensor::SparseTensor) -> Result<DTuckerOutput> {
        self.cfg.validate(x.shape())?;
        self.compress_then_run(
            || SlicedTensor::compress_sparse(x, &self.cfg),
            InitStrategy::DTucker,
        )
    }

    /// Runs initialization and iteration on a pre-compressed tensor (no
    /// `approximation` phase is recorded). The output holds a clone of
    /// `sliced`.
    pub fn decompose_sliced(&self, sliced: &SlicedTensor) -> Result<DTuckerOutput> {
        self.decompose_sliced_resumable(sliced, None, &mut |_| Ok(()))
    }

    /// Checkpointable variant of [`Self::decompose_sliced`]: the iteration
    /// phase starts from `resume` (a [`SweepState`] restored from a
    /// checkpoint) when given, skipping the initialization phase, and
    /// `on_sweep` runs after every completed sweep (a checkpoint writer, or
    /// a hook that errors to simulate a crash). Resuming a killed run
    /// produces factors **bit-identical** to the uninterrupted run.
    pub fn decompose_sliced_resumable(
        &self,
        sliced: &SlicedTensor,
        resume: Option<SweepState>,
        on_sweep: &mut SweepHook<'_>,
    ) -> Result<DTuckerOutput> {
        let start = match resume {
            Some(state) => Start::Resume(state),
            None => Start::Init(InitStrategy::DTucker),
        };
        let run = self.run(sliced, start, None, on_sweep)?;
        Ok(attach(run, sliced.clone()))
    }

    /// Times the approximation phase `compress`, runs the other two phases
    /// on its result, and moves the compressed tensor into the output.
    fn compress_then_run(
        &self,
        compress: impl FnOnce() -> Result<SlicedTensor>,
        strategy: InitStrategy,
    ) -> Result<DTuckerOutput> {
        let t = Instant::now();
        let sliced = compress()?;
        let approximation = Some(t.elapsed());
        let start = Start::Init(strategy);
        let run = self.run(&sliced, start, approximation, &mut |_| Ok(()))?;
        Ok(attach(run, sliced))
    }

    /// The one initialization → iteration → reorder body behind every
    /// entry point. Returns the decomposition in the original mode order
    /// and a profile of `approximation` (when given), `initialization` and
    /// `iteration`, built after the sweeps so it adds nothing to the peak
    /// heap.
    fn run(
        &self,
        sliced: &SlicedTensor,
        start: Start,
        approximation: Option<Duration>,
        on_sweep: &mut SweepHook<'_>,
    ) -> Result<Run> {
        let perm = sliced.perm();
        let ranks = internal_ranks(&self.cfg, perm);

        let t = Instant::now();
        let state = match start {
            Start::Init(InitStrategy::DTucker) => {
                SweepState::fresh(initialize_threaded(sliced, &ranks, self.cfg.threads)?.factors)
            }
            Start::Init(InitStrategy::Random) => {
                let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0xD7CE);
                SweepState::fresh(
                    sliced
                        .shape()
                        .iter()
                        .zip(ranks.iter())
                        .map(|(&i, &j)| orthonormalize(&gaussian_matrix(i, j, &mut rng)))
                        .collect(),
                )
            }
            Start::Resume(state) => {
                check_resume_shapes(&state, sliced.shape(), &ranks)?;
                state
            }
        };
        let initialization = t.elapsed();

        let t = Instant::now();
        let it = iterate_from(sliced, &ranks, state, &self.cfg, on_sweep)?;
        let iteration = t.elapsed();

        let decomposition = to_original_order(perm, it.factors, &it.core)?;
        let mut timings = PhaseProfile::new();
        if let Some(d) = approximation {
            timings.record("approximation", d);
        }
        timings.record("initialization", initialization);
        timings.record("iteration", iteration);
        Ok((decomposition, it.trace, timings))
    }
}

/// Rejects a resume state whose factors do not fit the compressed tensor
/// (`shape` and `ranks` in internal order).
fn check_resume_shapes(state: &SweepState, shape: &[usize], ranks: &[usize]) -> Result<()> {
    let want: Vec<(usize, usize)> = shape.iter().copied().zip(ranks.iter().copied()).collect();
    let got: Vec<(usize, usize)> = state.factors.iter().map(Matrix::shape).collect();
    if got != want {
        return Err(CoreError::InvalidConfig {
            details: format!("resume factors are {got:?}, expected {want:?}"),
        });
    }
    Ok(())
}

/// Automatic rank selection: finds the smallest uniform rank `J ≤ max_rank`
/// whose decomposition meets `target_error_sq` (relative squared error,
/// estimated via `‖X‖² − ‖G‖²`), compressing the tensor **once** with a
/// slice rank generous enough for `max_rank` and re-running only the cheap
/// initialization/iteration phases per candidate.
///
/// Returns the chosen output and rank; when even `max_rank` misses the
/// target, the `max_rank` result is returned (check its error).
pub fn decompose_to_target_error(
    x: &DenseTensor,
    max_rank: usize,
    target_error_sq: f64,
    base_cfg: &DTuckerConfig,
) -> Result<(DTuckerOutput, usize)> {
    if max_rank == 0 {
        return Err(CoreError::InvalidConfig {
            details: "max_rank must be ≥ 1".into(),
        });
    }
    let clamp = |j: usize| -> Vec<usize> { x.shape().iter().map(|&i| j.min(i)).collect() };
    // Compress once, sized for the largest candidate.
    let mut cfg = base_cfg.clone();
    cfg.ranks = clamp(max_rank);
    cfg.slice_rank = Some(
        base_cfg
            .slice_rank
            .unwrap_or(max_rank + base_cfg.oversample)
            .max(max_rank + base_cfg.oversample),
    );
    cfg.validate(x.shape())?;
    let sliced = SlicedTensor::compress(x, &cfg)?;
    let norm_x_sq = x.fro_norm_sq();

    // Doubling search: 1, 2, 4, … then max_rank.
    let mut j = 1usize;
    loop {
        let rank = j.min(max_rank);
        let mut cj = cfg.clone();
        cj.ranks = clamp(rank);
        let start = Start::Init(InitStrategy::DTucker);
        let run = DTucker::new(cj).run(&sliced, start, None, &mut |_| Ok(()))?;
        if rank == max_rank || run.0.projection_error_sq(norm_x_sq) <= target_error_sq {
            return Ok((attach(run, sliced), rank));
        }
        j *= 2;
    }
}

/// Target ranks in the compressed tensor's internal mode order.
pub(crate) fn internal_ranks(cfg: &DTuckerConfig, perm: &[usize]) -> Vec<usize> {
    perm.iter().map(|&p| cfg.ranks[p]).collect()
}

/// Maps internal-order factors and core back to the original mode order.
pub(crate) fn to_original_order(
    perm: &[usize],
    factors_int: Vec<Matrix>,
    core_int: &DenseTensor,
) -> Result<TuckerDecomp> {
    let mut factors: Vec<Matrix> = vec![Matrix::zeros(0, 0); perm.len()];
    for (p, f) in factors_int.into_iter().enumerate() {
        factors[perm[p]] = f;
    }
    let core = permute(core_int, &inverse_permutation(perm))?;
    Ok(TuckerDecomp { core, factors })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtucker_tensor::random::low_rank_plus_noise;

    fn noisy(shape: &[usize], ranks: &[usize], noise: f64, seed: u64) -> DenseTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        low_rank_plus_noise(shape, ranks, noise, &mut rng).unwrap()
    }

    #[test]
    fn end_to_end_exact_recovery() {
        let x = noisy(&[25, 20, 12], &[3, 3, 3], 0.0, 1);
        let out = DTucker::new(DTuckerConfig::uniform(3, 3))
            .decompose(&x)
            .unwrap();
        assert!(out.decomposition.relative_error_sq(&x).unwrap() < 1e-9);
        assert!(out.decomposition.factors_orthonormal(1e-7));
        assert_eq!(out.decomposition.ranks(), &[3, 3, 3]);
        assert_eq!(out.decomposition.full_shape(), vec![25, 20, 12]);
    }

    #[test]
    fn end_to_end_noisy_close_to_optimal() {
        let noise = 0.1f64;
        let x = noisy(&[40, 30, 15], &[5, 5, 5], noise, 2);
        let out = DTucker::new(DTuckerConfig::uniform(5, 3).with_seed(3))
            .decompose(&x)
            .unwrap();
        let err = out.decomposition.relative_error_sq(&x).unwrap();
        let optimal = noise * noise / (1.0 + noise * noise);
        assert!(
            err < 1.5 * optimal + 1e-4,
            "error {err} vs optimal {optimal}"
        );
    }

    #[test]
    fn mode_reordering_is_transparent() {
        // Smallest mode first: D-Tucker must permute internally and return
        // factors in the original order anyway.
        let x = noisy(&[6, 30, 22], &[2, 4, 3], 0.0, 4);
        let out = DTucker::new(DTuckerConfig::new(&[2, 4, 3]))
            .decompose(&x)
            .unwrap();
        let d = &out.decomposition;
        assert_eq!(d.factors[0].shape(), (6, 2));
        assert_eq!(d.factors[1].shape(), (30, 4));
        assert_eq!(d.factors[2].shape(), (22, 3));
        assert_eq!(d.core.shape(), &[2, 4, 3]);
        assert!(d.relative_error_sq(&x).unwrap() < 1e-9);
    }

    #[test]
    fn order4_end_to_end() {
        let x = noisy(&[12, 10, 6, 5], &[2, 2, 2, 2], 0.02, 5);
        let out = DTucker::new(DTuckerConfig::uniform(2, 4).with_seed(6))
            .decompose(&x)
            .unwrap();
        let err = out.decomposition.relative_error_sq(&x).unwrap();
        assert!(err < 0.01, "error {err}");
    }

    #[test]
    fn decompose_sliced_reuses_compression() {
        let x = noisy(&[20, 18, 10], &[3, 3, 3], 0.05, 7);
        let cfg = DTuckerConfig::uniform(3, 3).with_seed(8);
        let sliced = crate::slices::SlicedTensor::compress(&x, &cfg).unwrap();
        let out = DTucker::new(cfg).decompose_sliced(&sliced).unwrap();
        assert_eq!(out.timings.get("approximation"), None);
        assert!(out.timings.get("initialization") > Some(Duration::ZERO));
        assert!(out.decomposition.relative_error_sq(&x).unwrap() < 0.05);
    }

    #[test]
    fn dtucker_init_converges_faster_than_random() {
        let x = noisy(&[30, 24, 14], &[4, 4, 4], 0.05, 9);
        let solver = DTucker::new(DTuckerConfig::uniform(4, 3).with_seed(10));
        let smart = solver
            .decompose_with_init(&x, InitStrategy::DTucker)
            .unwrap();
        let random = solver
            .decompose_with_init(&x, InitStrategy::Random)
            .unwrap();
        assert!(
            smart.trace.iterations() <= random.trace.iterations(),
            "smart {} sweeps vs random {}",
            smart.trace.iterations(),
            random.trace.iterations()
        );
    }

    #[test]
    fn validates_config() {
        let x = noisy(&[10, 10, 10], &[2, 2, 2], 0.0, 11);
        assert!(DTucker::new(DTuckerConfig::uniform(2, 2))
            .decompose(&x)
            .is_err());
        assert!(DTucker::new(DTuckerConfig::uniform(11, 3))
            .decompose(&x)
            .is_err());
    }

    #[test]
    fn sparse_decomposition_recovers_sampled_tensor() {
        use dtucker_tensor::SparseTensor;
        // A genuinely sparse low-rank tensor: sample 30% of a low-rank
        // tensor's entries (rescaled), then decompose through the sparse
        // path. The rescaled sample is an unbiased but noisy estimator, so
        // accuracy is judged against the sample itself.
        let x = noisy(&[24, 20, 12], &[3, 3, 3], 0.0, 30);
        let mut rng = StdRng::seed_from_u64(31);
        let sx = SparseTensor::sample_from_dense(&x, 0.3, &mut rng).unwrap();
        let dense_of_sample = sx.to_dense().unwrap();
        let out = DTucker::new(DTuckerConfig::uniform(3, 3).with_seed(32))
            .decompose_sparse(&sx)
            .unwrap();
        let err = out
            .decomposition
            .relative_error_sq(&dense_of_sample)
            .unwrap();
        // A 30% Bernoulli sample of a low-rank tensor is mostly "low rank +
        // masking noise"; rank-3 should explain a good chunk of it.
        assert!(err < 0.9, "error {err}");
        assert!(out.decomposition.factors_orthonormal(1e-6));
        // Full-density sparse input must match the dense result closely.
        let full = SparseTensor::sample_from_dense(&x, 1.0, &mut rng).unwrap();
        let sparse_out = DTucker::new(DTuckerConfig::uniform(3, 3).with_seed(33))
            .decompose_sparse(&full)
            .unwrap();
        let dense_out = DTucker::new(DTuckerConfig::uniform(3, 3).with_seed(33))
            .decompose(&x)
            .unwrap();
        let es = sparse_out.decomposition.relative_error_sq(&x).unwrap();
        let ed = dense_out.decomposition.relative_error_sq(&x).unwrap();
        assert!((es - ed).abs() < 1e-6, "sparse {es} vs dense {ed}");
    }

    #[test]
    fn rejects_non_finite_input() {
        let mut x = noisy(&[8, 8, 8], &[2, 2, 2], 0.0, 20);
        x.set(&[1, 2, 3], f64::NAN);
        let err = DTucker::new(DTuckerConfig::uniform(2, 3)).decompose(&x);
        assert!(matches!(
            err,
            Err(crate::error::CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn target_error_rank_search() {
        // Exactly rank-4 tensor: the search should stop at J=4, not at
        // max_rank.
        let x = noisy(&[24, 20, 16], &[4, 4, 4], 0.0, 21);
        let base = DTuckerConfig::uniform(1, 3).with_seed(22);
        let (out, rank) = decompose_to_target_error(&x, 10, 1e-6, &base).unwrap();
        assert_eq!(rank, 4);
        assert!(out.decomposition.relative_error_sq(&x).unwrap() < 1e-6);

        // An unreachable target returns the max_rank attempt.
        let (out, rank) = decompose_to_target_error(&x, 2, 1e-12, &base).unwrap();
        assert_eq!(rank, 2);
        assert!(out.decomposition.relative_error_sq(&x).unwrap() > 1e-12);

        assert!(decompose_to_target_error(&x, 0, 0.1, &base).is_err());
    }

    #[test]
    fn killed_run_resumes_bit_identical() {
        let x = noisy(&[22, 18, 9], &[3, 3, 3], 0.05, 40);
        let mut cfg = DTuckerConfig::uniform(3, 3).with_seed(41);
        // Zero tolerance: exactly max_iters sweeps, so there is always a
        // mid-run point to interrupt at.
        cfg.tolerance = 0.0;
        cfg.max_iters = 6;
        let sliced = crate::slices::SlicedTensor::compress(&x, &cfg).unwrap();
        let solver = DTucker::new(cfg);

        let baseline = solver
            .decompose_sliced_resumable(&sliced, None, &mut |_| Ok(()))
            .unwrap();
        assert!(baseline.trace.iterations() >= 3, "need sweeps to interrupt");

        // "Crash" after sweep 2, keeping the last snapshot as a checkpoint.
        let mut saved: Option<SweepState> = None;
        let killed = solver.decompose_sliced_resumable(&sliced, None, &mut |snap| {
            saved = Some(SweepState {
                sweep: snap.sweep,
                factors: snap.factors.to_vec(),
                trace: snap.trace.clone(),
            });
            if snap.sweep == 2 {
                return Err(crate::error::CoreError::InvalidConfig {
                    details: "simulated crash".into(),
                });
            }
            Ok(())
        });
        assert!(killed.is_err());
        let state = saved.unwrap();
        assert_eq!(state.sweep, 2);

        let resumed = solver
            .decompose_sliced_resumable(&sliced, Some(state), &mut |_| Ok(()))
            .unwrap();
        assert_eq!(
            resumed.trace.iterations(),
            baseline.trace.iterations(),
            "resume must follow the same convergence path"
        );
        for (a, b) in resumed
            .decomposition
            .factors
            .iter()
            .zip(baseline.decomposition.factors.iter())
        {
            assert_eq!(a, b, "resumed factors must be bit-identical");
        }
        assert_eq!(
            resumed.decomposition.core.as_slice(),
            baseline.decomposition.core.as_slice()
        );

        // A resume state already past max_iters still yields a usable
        // output (core recomputed from the factors). The state stores
        // factors in internal order.
        let done_state = SweepState {
            sweep: baseline.trace.iterations(),
            factors: sliced
                .perm()
                .iter()
                .map(|&p| baseline.decomposition.factors[p].clone())
                .collect(),
            trace: baseline.trace.clone(),
        };
        let mut c2 = solver.config().clone();
        c2.max_iters = done_state.sweep.max(1);
        let finished = DTucker::new(c2)
            .decompose_sliced_resumable(&sliced, Some(done_state), &mut |_| Ok(()))
            .unwrap();
        for (a, b) in finished
            .decomposition
            .factors
            .iter()
            .zip(baseline.decomposition.factors.iter())
        {
            assert_eq!(a, b);
        }

        // Shape validation on resume.
        let bad = SweepState::fresh(vec![Matrix::zeros(2, 2); 3]);
        assert!(solver
            .decompose_sliced_resumable(&sliced, Some(bad), &mut |_| Ok(()))
            .is_err());
    }

    /// Every bit of a decomposition and its trace, for exact comparison.
    fn output_bits(out: &DTuckerOutput) -> (Vec<u64>, Vec<u64>, bool) {
        let d = &out.decomposition;
        let mut bits: Vec<u64> = d.core.as_slice().iter().map(|v| v.to_bits()).collect();
        for f in &d.factors {
            bits.extend(f.as_slice().iter().map(|v| v.to_bits()));
        }
        let fits = out.trace.sweep_fits.iter().map(|v| v.to_bits()).collect();
        (bits, fits, out.trace.converged)
    }

    #[test]
    fn entry_points_agree_bit_for_bit() {
        // Shapes whose largest modes do not lead, so the internal mode
        // permutation and the reorder back are exercised.
        for (shape, ranks) in [
            (&[8, 22, 18][..], &[2, 3, 3][..]),
            (&[6, 12, 5, 10][..], &[2, 3, 2, 2][..]),
        ] {
            let x = noisy(shape, ranks, 0.05, 50);
            for threads in [1, 2] {
                let cfg = DTuckerConfig::new(ranks)
                    .with_seed(51)
                    .with_threads(threads);
                let solver = DTucker::new(cfg.clone());
                let full = solver.decompose(&x).unwrap();
                let sliced = SlicedTensor::compress(&x, &cfg).unwrap();
                let pre = solver.decompose_sliced(&sliced).unwrap();
                let resumable = solver
                    .decompose_sliced_resumable(&sliced, None, &mut |_| Ok(()))
                    .unwrap();
                let want = output_bits(&full);
                assert!(!want.1.is_empty());
                assert_eq!(output_bits(&pre), want, "{shape:?} at {threads} threads");
                assert_eq!(
                    output_bits(&resumable),
                    want,
                    "{shape:?} at {threads} threads"
                );

                let phases = |out: &DTuckerOutput| -> Vec<String> {
                    out.timings
                        .phases()
                        .map(|(n, _, _)| n.to_string())
                        .collect()
                };
                assert_eq!(
                    phases(&full),
                    ["approximation", "initialization", "iteration"]
                );
                assert_eq!(phases(&pre), ["initialization", "iteration"]);
            }
        }
    }

    #[test]
    fn timings_populated() {
        let x = noisy(&[15, 12, 8], &[2, 2, 2], 0.0, 12);
        let out = DTucker::new(DTuckerConfig::uniform(2, 3))
            .decompose(&x)
            .unwrap();
        assert!(out.timings.total() > Duration::ZERO);
        assert!(out.timings.get("approximation") > Some(Duration::ZERO));
        assert!(out.trace.iterations() >= 1);
        assert!(out.sliced.num_slices() > 0);
    }
}
