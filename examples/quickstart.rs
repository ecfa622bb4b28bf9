//! Quickstart: decompose a dense tensor with D-Tucker in a few lines.
//!
//! Run with: `cargo run --release --example quickstart`

use dtucker::{DTucker, DTuckerConfig};
use dtucker_tensor::random::low_rank_plus_noise;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. Get a dense tensor. Here: a 120×100×80 tensor that is approximately
    //    rank-(5,5,5) with 5% noise (≈ 7.7 MB of f64s).
    let mut rng = StdRng::seed_from_u64(42);
    let x = low_rank_plus_noise(&[120, 100, 80], &[5, 5, 5], 0.05, &mut rng)
        .expect("tensor generation");
    println!(
        "input: {:?} ({} elements, ‖X‖ = {:.2})",
        x.shape(),
        x.numel(),
        x.fro_norm()
    );

    // 2. Configure D-Tucker: target multilinear rank (5,5,5), defaults for
    //    everything else (oversampling 5, 1 power iteration, tol 1e-4).
    let config = DTuckerConfig::uniform(5, 3).with_seed(0);
    let solver = DTucker::new(config);

    // 3. Decompose.
    let out = solver.decompose(&x).expect("decomposition");

    // 4. Inspect the result.
    let d = &out.decomposition;
    println!("core shape: {:?}", d.core.shape());
    for (n, f) in d.factors.iter().enumerate() {
        println!(
            "factor {n}: {:?}, orthonormal: {}",
            f.shape(),
            f.has_orthonormal_cols(1e-8)
        );
    }
    println!(
        "relative error ‖X−X̂‖²/‖X‖² = {:.5}",
        d.relative_error_sq(&x).expect("error evaluation")
    );
    println!(
        "{} sweeps{}; phases:\n{}",
        out.trace.iterations(),
        if out.trace.converged {
            ", converged"
        } else {
            ""
        },
        out.timings.report()
    );
    println!(
        "compressed representation: {:.1}x smaller than the raw tensor",
        out.sliced.compression_ratio()
    );

    // 5. The compressed slices can be reused to decompose at another rank
    //    without touching the raw tensor again.
    let smaller = DTucker::new(DTuckerConfig::uniform(3, 3))
        .decompose_sliced(&out.sliced)
        .expect("re-decomposition");
    println!(
        "rank-3 re-run from the same compression: error {:.5} in {:.3}s (no approximation phase)",
        smaller
            .decomposition
            .relative_error_sq(&x)
            .expect("error evaluation"),
        smaller.timings.total().as_secs_f64()
    );
}
