//! The decomposition stage: in-memory or out-of-core D-Tucker, untraced
//! for the end-to-end figures and traced call by call for the layers.

use dtucker::core::init::initialize_threaded;
use dtucker::core::iterate::iterate;
use dtucker::linalg::Matrix;
use dtucker::tensor::unfold::{descending_mode_order, inverse_permutation, permute};
use dtucker::{
    DTucker, DTuckerConfig, DenseTensor, DtenSliceSource, InMemorySource, SliceSource,
    SlicedTensor, TuckerDecomp,
};
use std::path::Path;
use std::time::{Duration, Instant};

/// Uniform Tucker rank of every workload.
pub const RANK: usize = 10;
/// Tolerance of the factor-orthonormality gate.
pub const ORTHO_TOL: f64 = 1e-8;

/// Where the decomposition reads its input from.
#[derive(Clone, Copy)]
pub enum Input<'a> {
    /// A resident tensor, through `DTucker::decompose`.
    InMemory(&'a DenseTensor),
    /// A `.dten` file, through `DtenSliceSource` and `compress_source`.
    Dten(&'a Path),
}

/// The single-threaded configuration every workload decomposes with.
pub fn config(order: usize) -> DTuckerConfig {
    DTuckerConfig::uniform(RANK, order).with_threads(1)
}

/// One untraced decomposition: its result, wall time and heap peak.
pub struct Run {
    /// The decomposition, modes in original order.
    pub decomp: TuckerDecomp,
    /// ALS sweeps run.
    pub sweeps: usize,
    /// Bytes of the compressed slices.
    pub compressed_bytes: usize,
    /// Wall time from input to decomposition.
    pub secs: f64,
    /// Peak heap above the pre-call baseline, bytes.
    pub peak_bytes: usize,
}

/// Runs D-Tucker once on `input` without tracing.
pub fn decompose(input: Input, order: usize) -> dtucker::core::Result<Run> {
    let cfg = config(order);
    let t0 = Instant::now();
    let (out, peak_bytes) = crate::ALLOC.peak_during(|| match input {
        Input::InMemory(x) => DTucker::new(cfg.clone()).decompose(x),
        Input::Dten(path) => {
            let mut src = DtenSliceSource::open(path).map_err(store_err)?;
            let sliced = SlicedTensor::compress_source(&mut src, &cfg)?;
            DTucker::new(cfg.clone()).decompose_sliced(&sliced)
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    let out = out?;
    Ok(Run {
        sweeps: out.trace.iterations(),
        compressed_bytes: out.sliced.memory_bytes(),
        decomp: out.decomposition,
        secs,
        peak_bytes,
    })
}

fn store_err(e: dtucker::store::StoreError) -> dtucker::core::CoreError {
    dtucker::core::CoreError::InvalidConfig {
        details: e.to_string(),
    }
}

/// A [`SliceSource`] that times and counts every call into the one it
/// wraps. `fro_norm_sq` counts as busy time: an out-of-core source streams
/// the whole file for it.
pub struct TimedSource {
    inner: Box<dyn SliceSource>,
    /// Time spent inside the wrapped source.
    pub busy: Duration,
    /// Slices loaded.
    pub slices: u64,
    /// Bytes of slices loaded.
    pub bytes: u64,
}

impl TimedSource {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: impl SliceSource + 'static) -> Self {
        TimedSource {
            inner: Box::new(inner),
            busy: Duration::ZERO,
            slices: 0,
            bytes: 0,
        }
    }

    fn timed<T>(&mut self, n: usize, f: impl FnOnce(&mut dyn SliceSource) -> T) -> T {
        let t0 = Instant::now();
        let out = f(self.inner.as_mut());
        self.busy += t0.elapsed();
        self.slices += n as u64;
        self.bytes += (n * self.inner.slice_bytes()) as u64;
        out
    }

    /// Loads every slice the way the compressor does (in chunks of
    /// `chunk`), discarding them, then reads the norm.
    pub fn drain(&mut self, chunk: usize) -> dtucker::core::Result<()> {
        let num = self.num_slices();
        let mut l = 0;
        while l < num {
            let end = (l + chunk).min(num);
            std::hint::black_box(self.load_slices(l, end)?);
            l = end;
        }
        self.fro_norm_sq().map(|_| ())
    }
}

impl SliceSource for TimedSource {
    fn shape(&self) -> &[usize] {
        self.inner.shape()
    }

    fn perm(&self) -> &[usize] {
        self.inner.perm()
    }

    fn num_slices(&self) -> usize {
        self.inner.num_slices()
    }

    fn load_slice(&mut self, l: usize) -> dtucker::core::Result<Matrix> {
        self.timed(1, |s| s.load_slice(l))
    }

    fn load_slices(&mut self, start: usize, end: usize) -> dtucker::core::Result<Vec<Matrix>> {
        self.timed(end.saturating_sub(start), |s| s.load_slices(start, end))
    }

    fn fro_norm_sq(&mut self) -> dtucker::core::Result<f64> {
        self.timed(0, |s| s.fro_norm_sq())
    }

    fn slice_bytes(&self) -> usize {
        self.inner.slice_bytes()
    }
}

/// Layer timings of one traced decomposition.
pub struct Traced {
    /// The decomposition (bit-identical to the untraced one).
    pub decomp: TuckerDecomp,
    /// Source construction.
    pub open_s: f64,
    /// `SlicedTensor::compress_source`, source open included.
    pub approx_s: f64,
    /// `init::initialize_threaded`.
    pub init_s: f64,
    /// `iterate::iterate`.
    pub iter_s: f64,
    /// Wall time of the whole traced decomposition.
    pub total_s: f64,
    /// Source busy time, slices and bytes.
    pub source: (Duration, u64, u64),
}

/// Runs the same pipeline as [`decompose`], calling each phase's public
/// function directly and timing it.
pub fn decompose_traced(input: Input, order: usize) -> dtucker::core::Result<Traced> {
    let cfg = config(order);
    let t0 = Instant::now();
    let (sliced, source) = match input {
        Input::InMemory(x) => {
            let src = InMemorySource::with_perm(x, &descending_mode_order(x.shape()))?;
            let open = t0.elapsed();
            let mut src = TimedSource::new(src);
            let sliced = SlicedTensor::compress_source(&mut src, &cfg)?;
            (sliced, (open, src))
        }
        Input::Dten(path) => {
            let src = DtenSliceSource::open(path).map_err(store_err)?;
            let open = t0.elapsed();
            let mut src = TimedSource::new(src);
            let sliced = SlicedTensor::compress_source(&mut src, &cfg)?;
            (sliced, (open, src))
        }
    };
    let approx_s = t0.elapsed().as_secs_f64();
    let perm = sliced.perm().to_vec();
    let ranks: Vec<usize> = perm.iter().map(|&p| cfg.ranks[p]).collect();
    let t1 = Instant::now();
    let init = initialize_threaded(&sliced, &ranks, cfg.threads)?;
    let init_s = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let it = iterate(&sliced, &ranks, init.factors, &cfg)?;
    let iter_s = t2.elapsed().as_secs_f64();
    let mut factors = vec![Matrix::zeros(0, 0); perm.len()];
    for (p, f) in it.factors.into_iter().enumerate() {
        factors[perm[p]] = f;
    }
    let core = permute(&it.core, &inverse_permutation(&perm))?;
    let total_s = t0.elapsed().as_secs_f64();
    let (open, src) = source;
    Ok(Traced {
        decomp: TuckerDecomp { core, factors },
        open_s: open.as_secs_f64(),
        approx_s,
        init_s,
        iter_s,
        total_s,
        source: (src.busy, src.slices, src.bytes),
    })
}
