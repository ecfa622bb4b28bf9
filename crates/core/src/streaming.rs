//! Streaming extension (the paper's future-work direction, published later
//! as D-TuckerO): maintain a Tucker decomposition of a tensor that grows
//! along its last (temporal) mode.
//!
//! New data arrives as blocks `ΔX ∈ R^{I₁×…×I_{N−1}×Δt}`. Each block is
//! compressed into slice SVDs and appended to the [`SlicedTensor`]; the
//! factors are then refreshed with a handful of warm-started ALS sweeps —
//! the non-temporal factors barely move, so a small `refresh_iters` (default
//! 5) recovers batch-level accuracy at a fraction of the cost of
//! recomputing from scratch.

use crate::config::DTuckerConfig;
use crate::dtucker::{internal_ranks, to_original_order};
use crate::error::{CoreError, Result};
use crate::init::initialize_threaded;
use crate::iterate::iterate;
use crate::slices::SlicedTensor;
use crate::source::SliceSource;
use crate::trace::ConvergenceTrace;
use crate::tucker::TuckerDecomp;
use dtucker_linalg::matrix::Matrix;
use dtucker_tensor::dense::DenseTensor;

/// Incremental D-Tucker over a temporally growing tensor.
#[derive(Debug, Clone)]
pub struct DTuckerStream {
    cfg: DTuckerConfig,
    /// ALS sweeps per append (warm-started).
    refresh_iters: usize,
    sliced: SlicedTensor,
    /// Current factors in internal order.
    factors_int: Vec<Matrix>,
    /// Current core in internal order.
    core_int: DenseTensor,
    /// Trace of the most recent refresh.
    last_trace: ConvergenceTrace,
}

impl DTuckerStream {
    /// Builds the initial decomposition from the first chunk of data.
    ///
    /// The temporal mode must be the **last** mode of `x`.
    pub fn new(x: &DenseTensor, cfg: DTuckerConfig) -> Result<Self> {
        cfg.validate(x.shape())?;
        let sliced = SlicedTensor::compress_keep_last(x, &cfg)?;
        let ranks_int = internal_ranks(&cfg, sliced.perm());
        let init = initialize_threaded(&sliced, &ranks_int, cfg.threads)?;
        let out = iterate(&sliced, &ranks_int, init.factors, &cfg)?;
        Ok(DTuckerStream {
            cfg,
            refresh_iters: 5,
            sliced,
            factors_int: out.factors,
            core_int: out.core,
            last_trace: out.trace,
        })
    }

    /// Sets the number of warm-started sweeps per append.
    pub fn with_refresh_iters(mut self, iters: usize) -> Self {
        self.refresh_iters = iters.max(1);
        self
    }

    /// Appends a block along the temporal mode and refreshes the
    /// decomposition.
    pub fn append(&mut self, block: &DenseTensor) -> Result<()> {
        let n = block.order();
        if n != self.sliced.shape().len() {
            return Err(CoreError::InvalidConfig {
                details: format!("block order {n} does not match stream order"),
            });
        }
        self.sliced.append_block(block, &self.cfg)?;
        self.refresh()
    }

    /// Appends a block arriving through a [`SliceSource`] (an on-disk or
    /// generated block that never needs to exist as one `DenseTensor`) and
    /// refreshes the decomposition. The source must use the stream's mode
    /// permutation and match its non-temporal shape.
    pub fn append_source(&mut self, src: &mut dyn SliceSource) -> Result<()> {
        self.sliced.append_source(src, &self.cfg)?;
        self.refresh()
    }

    /// Warm-started factor refresh after an append: keep the non-temporal
    /// factors and zero-pad the temporal factor to the new row count. The
    /// first ALS sweep's mode-N update recomputes the whole temporal factor
    /// from the (barely moved) non-temporal ones, so no re-initialization
    /// pass over the history is needed.
    fn refresh(&mut self) -> Result<()> {
        let ranks_int = internal_ranks(&self.cfg, self.sliced.perm());
        let temporal = self.factors_int.len() - 1;
        let mut factors = std::mem::take(&mut self.factors_int);
        let new_rows = *self
            .sliced
            .shape()
            .last()
            .ok_or_else(|| CoreError::Internal {
                details: "streaming state has an empty shape".into(),
            })?;
        let old = &factors[temporal];
        let mut grown = Matrix::zeros(new_rows, old.cols());
        for r in 0..old.rows().min(new_rows) {
            grown.row_mut(r).copy_from_slice(old.row(r));
        }
        factors[temporal] = grown;

        let mut cfg = self.cfg.clone();
        cfg.max_iters = self.refresh_iters;
        let out = iterate(&self.sliced, &ranks_int, factors, &cfg)?;
        self.factors_int = out.factors;
        self.core_int = out.core;
        self.last_trace = out.trace;
        Ok(())
    }

    /// The current decomposition, with factors in the original mode order.
    pub fn decomposition(&self) -> Result<TuckerDecomp> {
        to_original_order(self.sliced.perm(), self.factors_int.clone(), &self.core_int)
    }

    /// The compressed representation accumulated so far.
    pub fn sliced(&self) -> &SlicedTensor {
        &self.sliced
    }

    /// Length of the temporal mode seen so far.
    pub fn timesteps(&self) -> usize {
        self.sliced.shape().last().copied().unwrap_or(0)
    }

    /// Trace of the most recent refresh.
    pub fn last_trace(&self) -> &ConvergenceTrace {
        &self.last_trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtucker::DTucker;
    use dtucker_tensor::random::low_rank_plus_noise;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn growing_tensor(t_total: usize, seed: u64) -> DenseTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        low_rank_plus_noise(&[24, 18, t_total], &[3, 3, 3], 0.05, &mut rng).unwrap()
    }

    #[test]
    fn stream_matches_batch_accuracy() {
        let x = growing_tensor(30, 1);
        let cfg = DTuckerConfig::uniform(3, 3).with_seed(2);

        // Batch reference.
        let batch = DTucker::new(cfg.clone()).decompose(&x).unwrap();
        let batch_err = batch.decomposition.relative_error_sq(&x).unwrap();

        // Streaming: first 10 steps, then 4 appends of 5.
        let mut stream = DTuckerStream::new(&x.subtensor_last(0, 10).unwrap(), cfg).unwrap();
        for start in (10..30).step_by(5) {
            stream
                .append(&x.subtensor_last(start, start + 5).unwrap())
                .unwrap();
        }
        assert_eq!(stream.timesteps(), 30);
        let d = stream.decomposition().unwrap();
        let stream_err = d.relative_error_sq(&x).unwrap();
        assert!(
            stream_err < batch_err * 1.5 + 5e-3,
            "stream {stream_err} vs batch {batch_err}"
        );
    }

    #[test]
    fn stream_decomposition_shapes_track_growth() {
        let x = growing_tensor(12, 3);
        let cfg = DTuckerConfig::uniform(2, 3).with_seed(4);
        let mut stream = DTuckerStream::new(&x.subtensor_last(0, 6).unwrap(), cfg).unwrap();
        assert_eq!(stream.timesteps(), 6);
        stream.append(&x.subtensor_last(6, 12).unwrap()).unwrap();
        assert_eq!(stream.timesteps(), 12);
        let d = stream.decomposition().unwrap();
        assert_eq!(d.full_shape(), vec![24, 18, 12]);
        assert!(d.factors_orthonormal(1e-7));
    }

    #[test]
    fn append_validates_block() {
        let x = growing_tensor(10, 5);
        let cfg = DTuckerConfig::uniform(2, 3).with_seed(6);
        let mut stream = DTuckerStream::new(&x.subtensor_last(0, 5).unwrap(), cfg).unwrap();
        let bad = DenseTensor::zeros(&[24, 17, 2]).unwrap();
        assert!(stream.append(&bad).is_err());
        let bad_order = DenseTensor::zeros(&[24, 18]).unwrap();
        assert!(stream.append(&bad_order).is_err());
    }

    #[test]
    fn refresh_iters_builder() {
        let x = growing_tensor(8, 7);
        let cfg = DTuckerConfig::uniform(2, 3).with_seed(8);
        let stream = DTuckerStream::new(&x, cfg).unwrap().with_refresh_iters(0);
        assert_eq!(stream.refresh_iters, 1);
        assert!(stream.last_trace().iterations() >= 1);
    }
}
