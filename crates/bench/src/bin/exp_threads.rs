//! Experiment E9 — thread scaling of the **whole** D-Tucker pipeline.
//!
//! All three phases fan their per-slice work out over the shared worker
//! pool (`dtucker_linalg::pool`), so this sweep times approximation,
//! initialization, and iteration separately at each thread count, checks
//! that the final decomposition is bit-identical to the serial run, and
//! writes the raw numbers to `BENCH_threads.json` at the repo root.
//!
//! Usage: `cargo run -p dtucker-bench --release --bin exp_threads --
//!         [--scale ci|bench|paper] [--rank J] [--seed S] [--dataset NAME]
//!         [--max-threads T] [--json PATH]`

use dtucker_bench::{bench_record, secs, write_record, Args, Table};
use dtucker_core::{DTucker, DTuckerConfig, PhaseProfile, SlicedTensor};
use dtucker_data::{generate, parse_scale, Dataset, Scale};
use std::time::Duration;

struct Measurement {
    threads: usize,
    timings: PhaseProfile,
    identical: bool,
}

impl Measurement {
    fn phase(&self, name: &str) -> Duration {
        self.timings.get(name).unwrap_or_default()
    }
}

fn main() {
    let args = Args::capture();
    let scale = args
        .get("scale")
        .map(|s| parse_scale(s).expect("bad --scale"))
        .unwrap_or(Scale::Ci);
    let rank: usize = args.get_or("rank", 5);
    let seed: u64 = args.get_or("seed", 0);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let max_threads: usize = args.get_or("max-threads", cores.max(4));
    let json_path = args.get("json").unwrap_or("BENCH_threads.json").to_string();
    let ds = args
        .get("dataset")
        .map(|n| Dataset::parse(n).expect("unknown --dataset"))
        .unwrap_or(Dataset::Boats);

    let x = generate(ds, scale, seed).expect("dataset generation failed");
    let rank = rank.min(*x.shape().iter().min().expect("non-empty shape"));
    println!(
        "## E9: full-pipeline thread scaling on '{}' ({:?}, {} hardware threads)",
        ds.name(),
        x.shape(),
        cores
    );
    println!("(rank {rank}, seed {seed}; per-slice seeds make results thread-count independent)\n");

    let mut table = Table::new(&[
        "threads",
        "approx_s",
        "init_s",
        "iter_s",
        "total_s",
        "speedup",
        "identical",
    ])
    .with_csv("e9_threads");

    // Untimed warm-up: fault in the dataset pages and JIT the CPU up to
    // speed so the serial baseline isn't inflated by first-touch costs.
    {
        let cfg = DTuckerConfig::uniform(rank, x.order()).with_seed(seed);
        let _ = SlicedTensor::compress(&x, &cfg).expect("warm-up compression");
    }

    let mut runs: Vec<Measurement> = Vec::new();
    let mut serial_bits: Option<Vec<u64>> = None;
    let mut t = 1usize;
    while t <= max_threads.max(1) {
        let cfg = DTuckerConfig::uniform(rank, x.order())
            .with_seed(seed)
            .with_threads(t);
        let out = DTucker::new(cfg).decompose(&x).expect("decomposition");
        let d = &out.decomposition;
        let mut bits: Vec<u64> = d.core.as_slice().iter().map(|v| v.to_bits()).collect();
        for f in &d.factors {
            bits.extend(f.as_slice().iter().map(|v| v.to_bits()));
        }
        let identical = match &serial_bits {
            Some(b0) => *b0 == bits,
            None => {
                serial_bits = Some(bits);
                true
            }
        };
        runs.push(Measurement {
            threads: t,
            timings: out.timings,
            identical,
        });
        t *= 2;
    }

    let total0 = runs[0].timings.total();
    for m in &runs {
        table.row(&[
            m.threads.to_string(),
            secs(m.phase("approximation")),
            secs(m.phase("initialization")),
            secs(m.phase("iteration")),
            secs(m.timings.total()),
            format!(
                "{:.2}x",
                total0.as_secs_f64() / m.timings.total().as_secs_f64().max(1e-9)
            ),
            m.identical.to_string(),
        ]);
    }
    table.print();

    write_json(&json_path, ds.name(), x.shape(), rank, seed, cores, &runs);
    println!("\nWrote {json_path}");
    println!("Expected shape: near-linear speedup until the core count is exhausted,");
    println!("with a bit-identical decomposition at every thread count.");
}

fn write_json(
    path: &str,
    dataset: &str,
    shape: &[usize],
    rank: usize,
    seed: u64,
    cores: usize,
    runs: &[Measurement],
) {
    let total0 = runs[0].timings.total().as_secs_f64();
    let mut w = bench_record("e9_threads", dataset, shape);
    w.key("rank");
    w.number_u64(rank as u64);
    w.key("seed");
    w.number_u64(seed);
    w.key("hardware_threads");
    w.number_u64(cores as u64);
    w.key("runs");
    w.begin_array();
    for m in runs {
        let tot = m.timings.total().as_secs_f64();
        w.begin_object();
        w.key("threads");
        w.number_u64(m.threads as u64);
        w.key("approx_s");
        w.number_f64(m.phase("approximation").as_secs_f64());
        w.key("init_s");
        w.number_f64(m.phase("initialization").as_secs_f64());
        w.key("iter_s");
        w.number_f64(m.phase("iteration").as_secs_f64());
        w.key("total_s");
        w.number_f64(tot);
        w.key("speedup");
        w.number_f64(total0 / tot.max(1e-9));
        w.key("identical_to_serial");
        w.boolean(m.identical);
        w.end_object();
    }
    w.end_array();
    write_record(w, path);
}
