//! Kernel-level timings at the shapes a workload's approximation phase
//! issues: one frontal slice `I₁ × I₂`, sketch width `l = k + oversample`.

use crate::report::Report;
use crate::stats::median;
use dtucker::linalg::gemm::matmul;
use dtucker::linalg::qr::orthonormalize;
use dtucker::linalg::random::gaussian_matrix;
use dtucker::linalg::rsvd::{rsvd, RsvdConfig};
use dtucker::linalg::svd::svd;
use dtucker::linalg::Matrix;
use dtucker::DTuckerConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median seconds per call of `f`, calling it for about `budget` (at least
/// five times).
fn time_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Times the rSVD pieces on `slices` (sampled from the workload's source)
/// and a square 256³ GEMM for the machine's reference rate.
pub fn linalg_layers(
    slices: &[Matrix],
    cfg: &DTuckerConfig,
    seed: u64,
    rep: &mut Report,
) -> dtucker::linalg::Result<()> {
    let budget = Duration::from_millis(300);
    let (m, n) = slices[0].shape();
    let k = cfg
        .effective_slice_rank(cfg.ranks[0], cfg.ranks[1])
        .min(m)
        .min(n);
    let l = (k + cfg.oversample).min(m.min(n));
    let rcfg = RsvdConfig {
        rank: k,
        oversample: cfg.oversample,
        power_iters: cfg.power_iters,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut i = 0;
    let mut failed = Ok(());
    let rsvd_s = time_per_call(budget, || {
        if let Err(e) = black_box(rsvd(&slices[i % slices.len()], rcfg, &mut rng)) {
            failed = Err(e);
        }
        i += 1;
    });
    failed?;
    rep.put("linalg.rsvd_ms", rsvd_s * 1e3, "ms");

    // The sketch Y = X·Ω (m×n by n×l), then Householder on the m×l result.
    let omega = gaussian_matrix(n, l, &mut rng);
    let gemm_s = time_per_call(budget, || {
        black_box(matmul(&slices[0], &omega));
    });
    rep.put(
        "linalg.gemm_sketch_gflops",
        2.0 * (m * n * l) as f64 / gemm_s / 1e9,
        "GFLOP/s",
    );
    let y = matmul(&slices[0], &omega);
    let qr_s = time_per_call(budget, || {
        black_box(orthonormalize(&y));
    });
    // Householder QR (2ml² − ⅔l³) plus forming the explicit Q (same again).
    let (mf, lf) = (m as f64, l as f64);
    let qr_flops = 2.0 * (2.0 * mf * lf * lf - 2.0 / 3.0 * lf * lf * lf);
    rep.put("linalg.orthonormalize_us", qr_s * 1e6, "us");
    rep.put(
        "linalg.orthonormalize_gflops",
        qr_flops / qr_s / 1e9,
        "GFLOP/s",
    );

    // The small SVD of B = Qᵀ X (l × n).
    let b = gaussian_matrix(l, n, &mut rng);
    svd(&b)?;
    let svd_s = time_per_call(budget, || {
        let _ = black_box(svd(&b));
    });
    rep.put("linalg.svd_small_us", svd_s * 1e6, "us");

    let a = gaussian_matrix(256, 256, &mut rng);
    let peak_s = time_per_call(budget, || {
        black_box(matmul(&a, &a));
    });
    rep.put(
        "linalg.gemm_peak_gflops",
        2.0 * 256f64.powi(3) / peak_s / 1e9,
        "GFLOP/s",
    );
    Ok(())
}
