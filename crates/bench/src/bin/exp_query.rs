//! Experiment E11 — factored range queries against a stored artifact.
//!
//! Decomposes a dataset, persists the decomposition as a `.dts` artifact,
//! and serves batches of random hyper-rectangle queries through
//! `dtucker-query` at several range sizes — from single elements up to
//! the full tensor — comparing against the naive baseline (materialize
//! the whole reconstruction, then slice). Each batch runs twice through
//! one engine: cold (empty partial-contraction cache) and warm (the same
//! queries again), so the cache-hit payoff is measured directly. Raw
//! numbers go to `BENCH_query.json` at the repo root.
//!
//! Usage: `cargo run -p dtucker-bench --release --bin exp_query --
//!         [--scale ci|bench|paper] [--rank J] [--seed S] [--dataset NAME]
//!         [--queries Q] [--cache-mb MB] [--json PATH]`

use dtucker_bench::{bench_record, time, usize_array, write_record, Args, Table};
use dtucker_core::{DTucker, DTuckerConfig};
use dtucker_data::{generate, parse_scale, Dataset, Scale};
use dtucker_query::{QueryEngine, Range};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

struct Measurement {
    label: &'static str,
    extents: Vec<usize>,
    numel: usize,
    queries: usize,
    cold_avg: Duration,
    warm_avg: Duration,
    naive_avg: Duration,
    hit_rate: f64,
    max_err: f64,
}

/// Mode extents covering `frac` of each mode (at least one index).
fn extents_for(shape: &[usize], frac: f64) -> Vec<usize> {
    shape
        .iter()
        .map(|&d| (((d as f64) * frac).round() as usize).clamp(1, d))
        .collect()
}

/// `n` random ranges with the given extents, placed by a deterministic rng.
fn random_ranges(shape: &[usize], extents: &[usize], n: usize, rng: &mut StdRng) -> Vec<Range> {
    (0..n)
        .map(|_| {
            Range::new(
                shape
                    .iter()
                    .zip(extents)
                    .map(|(&d, &e)| {
                        let lo = rng.gen_range(0..=d - e);
                        (lo, lo + e)
                    })
                    .collect(),
            )
        })
        .collect()
}

fn main() {
    let args = Args::capture();
    let scale = args
        .get("scale")
        .map(|s| parse_scale(s).expect("bad --scale"))
        .unwrap_or(Scale::Ci);
    let rank: usize = args.get_or("rank", 5);
    let seed: u64 = args.get_or("seed", 0);
    let queries: usize = args.get_or("queries", 16);
    let cache_mb: usize = args.get_or("cache-mb", 64);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json_path = args.get("json").unwrap_or("BENCH_query.json").to_string();
    let ds = args
        .get("dataset")
        .map(|n| Dataset::parse(n).expect("unknown --dataset"))
        .unwrap_or(Dataset::Boats);

    let x = generate(ds, scale, seed).expect("dataset generation failed");
    let rank = rank.min(*x.shape().iter().min().expect("non-empty shape"));
    let cfg = DTuckerConfig::uniform(rank, x.order()).with_seed(seed);
    let d = DTucker::new(cfg)
        .decompose(&x)
        .expect("decomposition failed")
        .decomposition;
    let shape = d.full_shape();
    let dense_bytes = x.numel() * 8;

    // Serve from a stored artifact — the whole point of the subsystem.
    let dir = std::env::temp_dir().join(format!("dtucker_query_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let artifact = dir.join("decomp.dts");
    dtucker_store::write_decomposition(&artifact, &d).expect("writing artifact");

    println!(
        "## E11: factored queries on '{}' ({shape:?}, {:.1} MB dense, ranks {:?})",
        ds.name(),
        dense_bytes as f64 / 1e6,
        d.ranks()
    );

    // Naive baseline: materialize the full reconstruction. Every naive
    // range query pays this plus the slice copy.
    let (full, naive_recon) = time(|| d.reconstruct().expect("naive reconstruction"));
    println!(
        "(naive full reconstruction: {:.4}s, model {:.2} MB; {queries} queries per size, cache {cache_mb} MB)\n",
        naive_recon.as_secs_f64(),
        d.memory_bytes() as f64 / 1e6
    );

    let sizes: [(&'static str, f64); 5] = [
        ("element", 0.0),
        ("1%", 0.01),
        ("10%", 0.10),
        ("50%", 0.50),
        ("full", 1.0),
    ];
    let mut table = Table::new(&[
        "range", "numel", "cold_ms", "warm_ms", "naive_ms", "speedup", "hit_rate",
    ])
    .with_csv("e11_query");
    let mut runs: Vec<Measurement> = Vec::new();

    for (label, frac) in sizes {
        let extents = extents_for(&shape, frac);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x517c_c1b7_2722_0a95);
        let ranges = random_ranges(&shape, &extents, queries, &mut rng);

        let mut engine = QueryEngine::open_with_cache_bytes(&artifact, cache_mb << 20)
            .expect("opening artifact");
        let (cold_results, cold_total) = time(|| engine.query_batch(&ranges).expect("cold batch"));
        let stats_cold = engine.cache_stats();
        let (_, warm_total) = time(|| engine.query_batch(&ranges).expect("warm batch"));
        let stats = engine.cache_stats();
        let warm_probes = (stats.hits + stats.misses) - (stats_cold.hits + stats_cold.misses);
        let warm_hits = stats.hits - stats_cold.hits;
        let hit_rate = if warm_probes == 0 {
            0.0
        } else {
            warm_hits as f64 / warm_probes as f64
        };

        // Naive: reconstruct-then-slice, per query (reconstruction is not
        // amortizable without keeping the dense tensor resident).
        let (naive_slice, slice_t) =
            time(|| full.subtensor(ranges[0].bounds()).expect("naive slice"));
        let naive_avg = naive_recon + slice_t;

        // Spot-check the served values against the naive slice.
        let max_err = cold_results[0]
            .as_slice()
            .iter()
            .zip(naive_slice.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            max_err < 1e-8 * (1.0 + full.max_abs()),
            "engine diverged from naive reconstruction: {max_err}"
        );

        let cold_avg = cold_total / queries as u32;
        let warm_avg = warm_total / queries as u32;
        table.row(&[
            label.into(),
            extents.iter().product::<usize>().to_string(),
            format!("{:.4}", cold_avg.as_secs_f64() * 1e3),
            format!("{:.4}", warm_avg.as_secs_f64() * 1e3),
            format!("{:.4}", naive_avg.as_secs_f64() * 1e3),
            format!(
                "{:.1}x",
                naive_avg.as_secs_f64() / cold_avg.as_secs_f64().max(1e-12)
            ),
            format!("{:.2}", hit_rate),
        ]);
        runs.push(Measurement {
            label,
            extents,
            numel: ranges[0].numel(),
            queries,
            cold_avg,
            warm_avg,
            naive_avg,
            hit_rate,
            max_err,
        });
    }
    table.print();

    write_json(
        &json_path,
        ds.name(),
        &shape,
        d.ranks(),
        seed,
        cores,
        cache_mb,
        naive_recon,
        &runs,
    );
    println!("\nWrote {json_path}");
    println!("Expected shape: small-range latency orders of magnitude below the naive");
    println!("reconstruct-then-slice baseline, warm repeats cheaper than cold via the");
    println!("partial-contraction cache, converging toward naive cost at full range.");
    std::fs::remove_dir_all(&dir).ok();

    // The paper-level claim this experiment pins: serving a small range
    // from the factors beats materializing the full tensor.
    let smallest = &runs[0];
    assert!(
        smallest.cold_avg < naive_recon,
        "element queries ({:?}) should beat a full reconstruction ({:?})",
        smallest.cold_avg,
        naive_recon
    );
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &str,
    dataset: &str,
    shape: &[usize],
    ranks: &[usize],
    seed: u64,
    cores: usize,
    cache_mb: usize,
    naive_recon: Duration,
    runs: &[Measurement],
) {
    let mut w = bench_record("e11_query", dataset, shape);
    w.key("ranks");
    usize_array(&mut w, ranks);
    w.key("seed");
    w.number_u64(seed);
    w.key("hardware_threads");
    w.number_u64(cores as u64);
    w.key("cache_mb");
    w.number_u64(cache_mb as u64);
    w.key("naive_reconstruct_s");
    w.number_f64(naive_recon.as_secs_f64());
    w.key("runs");
    w.begin_array();
    for m in runs {
        w.begin_object();
        w.key("range");
        w.string(m.label);
        w.key("extents");
        usize_array(&mut w, &m.extents);
        w.key("numel");
        w.number_u64(m.numel as u64);
        w.key("queries");
        w.number_u64(m.queries as u64);
        w.key("cold_avg_s");
        w.number_f64(m.cold_avg.as_secs_f64());
        w.key("warm_avg_s");
        w.number_f64(m.warm_avg.as_secs_f64());
        w.key("naive_avg_s");
        w.number_f64(m.naive_avg.as_secs_f64());
        w.key("speedup_cold");
        w.number_f64(m.naive_avg.as_secs_f64() / m.cold_avg.as_secs_f64().max(1e-12));
        w.key("cache_hit_rate");
        w.number_f64(m.hit_rate);
        w.key("max_abs_err");
        w.number_f64(m.max_err);
        w.end_object();
    }
    w.end_array();
    write_record(w, path);
}
