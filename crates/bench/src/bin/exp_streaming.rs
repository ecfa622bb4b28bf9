//! Experiment E7 — streaming extension (D-TuckerO-style): per-append update
//! time and accuracy of `DTuckerStream` vs recomputing D-Tucker from
//! scratch at every step.
//!
//! Raw numbers also go to `BENCH_streaming.json` at the repo root, in the
//! same top-level schema as `BENCH_threads.json`.
//!
//! Usage: `cargo run -p dtucker-bench --release --bin exp_streaming --
//!         [--scale ci|bench|paper] [--rank J] [--seed S] [--steps K]
//!         [--json PATH]`

use dtucker_bench::{bench_record, secs, time, write_record, Args, Table};
use dtucker_core::{DTucker, DTuckerConfig, DTuckerStream};
use dtucker_data::{generate, parse_scale, Dataset, Scale};

struct Measurement {
    append: usize,
    timesteps: usize,
    stream_update_s: f64,
    stream_err: f64,
    batch_recompute_s: f64,
    batch_err: f64,
}

fn main() {
    let args = Args::capture();
    let scale = args
        .get("scale")
        .map(|s| parse_scale(s).expect("bad --scale"))
        .unwrap_or(Scale::Ci);
    let rank: usize = args.get_or("rank", 4);
    let seed: u64 = args.get_or("seed", 0);
    let steps: usize = args.get_or("steps", 5);
    let ds = args
        .get("dataset")
        .map(|n| Dataset::parse(n).expect("unknown --dataset"))
        .unwrap_or(Dataset::Traffic);
    let json_path = args
        .get("json")
        .unwrap_or("BENCH_streaming.json")
        .to_string();

    let x = generate(ds, scale, seed).expect("dataset generation failed");
    let rank = rank.min(*x.shape().iter().min().expect("non-empty shape"));
    let t_total = *x.shape().last().unwrap();
    let t0 = t_total / 2;
    let block = ((t_total - t0) / steps).max(1);

    println!(
        "## E7: streaming appends on '{}' (shape {:?})",
        ds.name(),
        x.shape()
    );
    println!("(start with {t0} timesteps, then {steps} appends of {block}; rank {rank})\n");

    let cfg = DTuckerConfig::uniform(rank, x.order()).with_seed(seed);
    let head = x.subtensor_last(0, t0).expect("subtensor");
    let (stream, init_time) =
        time(|| DTuckerStream::new(&head, cfg.clone()).expect("stream init failed"));
    let mut stream = stream;
    println!("initial build on {t0} steps: {} s\n", secs(init_time));

    let mut table = Table::new(&[
        "append",
        "timesteps",
        "stream_update_s",
        "stream_err",
        "batch_recompute_s",
        "batch_err",
        "speedup",
    ])
    .with_csv("e7_streaming");

    let mut runs: Vec<Measurement> = Vec::new();
    let mut t_end = t0;
    for a in 0..steps {
        let next = (t_end + block).min(t_total);
        if next == t_end {
            break;
        }
        let blk = x.subtensor_last(t_end, next).expect("subtensor");
        let (_, update_time) = time(|| stream.append(&blk).expect("append failed"));
        t_end = next;

        let seen = x.subtensor_last(0, t_end).expect("subtensor");
        let stream_err = stream
            .decomposition()
            .expect("decomposition")
            .relative_error_sq(&seen)
            .expect("error eval");

        // Batch reference: full D-Tucker on everything seen so far.
        let (batch, batch_time) = time(|| DTucker::new(cfg.clone()).decompose(&seen));
        let batch = batch.expect("batch run failed");
        let batch_err = batch
            .decomposition
            .relative_error_sq(&seen)
            .expect("error eval");

        table.row(&[
            (a + 1).to_string(),
            t_end.to_string(),
            secs(update_time),
            format!("{stream_err:.4}"),
            secs(batch_time),
            format!("{batch_err:.4}"),
            format!(
                "{:.1}x",
                batch_time.as_secs_f64() / update_time.as_secs_f64().max(1e-9)
            ),
        ]);
        runs.push(Measurement {
            append: a + 1,
            timesteps: t_end,
            stream_update_s: update_time.as_secs_f64(),
            stream_err,
            batch_recompute_s: batch_time.as_secs_f64(),
            batch_err,
        });
    }
    table.print();

    write_json(&json_path, ds.name(), x.shape(), rank, seed, &runs);
    println!("\nWrote {json_path}");
    println!("Expected shape: streaming updates cost a small fraction of a batch");
    println!("recompute (only the new slices are compressed + a few warm sweeps) at");
    println!("near-identical error.");
}

fn write_json(
    path: &str,
    dataset: &str,
    shape: &[usize],
    rank: usize,
    seed: u64,
    runs: &[Measurement],
) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut w = bench_record("e7_streaming", dataset, shape);
    w.key("rank");
    w.number_u64(rank as u64);
    w.key("seed");
    w.number_u64(seed);
    w.key("hardware_threads");
    w.number_u64(cores as u64);
    w.key("runs");
    w.begin_array();
    for m in runs {
        w.begin_object();
        w.key("append");
        w.number_u64(m.append as u64);
        w.key("timesteps");
        w.number_u64(m.timesteps as u64);
        w.key("stream_update_s");
        w.number_f64(m.stream_update_s);
        w.key("stream_err");
        w.number_f64(m.stream_err);
        w.key("batch_recompute_s");
        w.number_f64(m.batch_recompute_s);
        w.key("batch_err");
        w.number_f64(m.batch_err);
        w.key("speedup");
        w.number_f64(m.batch_recompute_s / m.stream_update_s.max(1e-9));
        w.end_object();
    }
    w.end_array();
    write_record(w, path);
}
