//! # dtucker-bench
//!
//! Experiment harness regenerating the D-Tucker evaluation. Each binary in
//! `src/bin/` reproduces one table/figure (see `DESIGN.md` §4 for the
//! index); this library holds the shared runner, timing, and table-printing
//! plumbing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dtucker_baselines::{
    hooi, hosvd, mach, rtd, st_hosvd, tucker_ts, tucker_ttmts, HooiConfig, MachConfig, RtdConfig,
    TuckerTsConfig,
};
use dtucker_core::error::Result;
use dtucker_core::tucker::TuckerDecomp;
use dtucker_core::{DTucker, DTuckerConfig, SliceSvdKind};
use dtucker_serve::JsonWriter;
use dtucker_tensor::dense::DenseTensor;
use std::time::{Duration, Instant};

/// Times a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// The methods the experiments compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// D-Tucker (randomized slice SVDs).
    DTucker,
    /// D-Tucker ablation: exact slice SVDs.
    DTuckerExact,
    /// Tucker-ALS (HOOI) on the raw tensor.
    Hooi,
    /// Truncated HOSVD.
    Hosvd,
    /// Sequentially truncated HOSVD.
    StHosvd,
    /// MACH sampling + ALS.
    Mach,
    /// Randomized Tucker decomposition.
    Rtd,
    /// Tucker-ts (TensorSketch least squares).
    TuckerTs,
    /// Tucker-ttmts (TensorSketch TTM).
    TuckerTtmts,
}

impl Method {
    /// The comparison set used in the trade-off experiment (matches the
    /// paper's competitor list).
    pub const COMPARISON: [Method; 7] = [
        Method::DTucker,
        Method::Hooi,
        Method::StHosvd,
        Method::Mach,
        Method::Rtd,
        Method::TuckerTs,
        Method::TuckerTtmts,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Method::DTucker => "D-Tucker",
            Method::DTuckerExact => "D-Tucker(exact)",
            Method::Hooi => "Tucker-ALS",
            Method::Hosvd => "HOSVD",
            Method::StHosvd => "ST-HOSVD",
            Method::Mach => "MACH",
            Method::Rtd => "RTD",
            Method::TuckerTs => "Tucker-ts",
            Method::TuckerTtmts => "Tucker-ttmts",
        }
    }
}

/// Result of one method run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Which method ran.
    pub method: Method,
    /// Wall-clock time of the full run (preprocessing + iterations).
    pub elapsed: Duration,
    /// Relative squared reconstruction error against the input.
    pub error_sq: f64,
    /// ALS sweeps performed (1 for one-shot methods).
    pub iterations: usize,
    /// The decomposition (for downstream inspection).
    pub decomposition: TuckerDecomp,
}

/// Runs a method with uniform rank `j` and the paper's default protocol
/// (≤100 sweeps exact methods / ≤50 sketched, tol 1e-4, single thread).
pub fn run_method(method: Method, x: &DenseTensor, j: usize, seed: u64) -> Result<RunResult> {
    let n = x.order();
    let ranks = vec![j; n];
    let (output, elapsed) = match method {
        Method::DTucker => {
            let cfg = DTuckerConfig::uniform(j, n).with_seed(seed);
            let (out, el) = time(|| DTucker::new(cfg).decompose(x));
            let out = out?;
            ((out.decomposition, out.trace.iterations()), el)
        }
        Method::DTuckerExact => {
            let mut cfg = DTuckerConfig::uniform(j, n).with_seed(seed);
            cfg.slice_svd = SliceSvdKind::Exact;
            let (out, el) = time(|| DTucker::new(cfg).decompose(x));
            let out = out?;
            ((out.decomposition, out.trace.iterations()), el)
        }
        Method::Hooi => {
            let mut cfg = HooiConfig::new(&ranks);
            cfg.seed = seed;
            let (out, el) = time(|| hooi(x, &cfg));
            let out = out?;
            ((out.decomposition, out.trace.iterations()), el)
        }
        Method::Hosvd => {
            let (out, el) = time(|| hosvd(x, &ranks));
            let out = out?;
            ((out.decomposition, out.trace.iterations()), el)
        }
        Method::StHosvd => {
            let (out, el) = time(|| st_hosvd(x, &ranks));
            let out = out?;
            ((out.decomposition, out.trace.iterations()), el)
        }
        Method::Mach => {
            let mut cfg = MachConfig::new(&ranks);
            cfg.seed = seed;
            let (out, el) = time(|| mach(x, &cfg));
            let out = out?;
            ((out.decomposition, out.trace.iterations()), el)
        }
        Method::Rtd => {
            let mut cfg = RtdConfig::new(&ranks);
            cfg.seed = seed;
            let (out, el) = time(|| rtd(x, &cfg));
            let out = out?;
            ((out.decomposition, out.trace.iterations()), el)
        }
        Method::TuckerTs => {
            let mut cfg = TuckerTsConfig::new(&ranks);
            cfg.seed = seed;
            let (out, el) = time(|| tucker_ts(x, &cfg));
            let out = out?;
            ((out.decomposition, out.trace.iterations()), el)
        }
        Method::TuckerTtmts => {
            let mut cfg = TuckerTsConfig::new(&ranks);
            cfg.seed = seed;
            let (out, el) = time(|| tucker_ttmts(x, &cfg));
            let out = out?;
            ((out.decomposition, out.trace.iterations()), el)
        }
    };
    let (decomposition, iterations) = output;
    let error_sq = decomposition.relative_error_sq(x)?;
    Ok(RunResult {
        method,
        elapsed,
        error_sq,
        iterations,
        decomposition,
    })
}

/// Estimated dominant flop count of a sketched (Tucker-ts / Tucker-ttmts)
/// run: the core-update Gram product `2·m₂·(ΠJ)²` per sweep.
pub fn sketched_cost_estimate(j: usize, n_modes: usize, k_factor: usize, sweeps: usize) -> f64 {
    let p: f64 = (j as f64).powi(n_modes as i32);
    let m2 = ((k_factor as f64 * p) as usize)
        .next_power_of_two()
        .min(1 << 20) as f64;
    2.0 * m2 * p * p * (sweeps as f64 + 1.0)
}

/// Flop budget above which a method is reported as out-of-time ("o.o.t."),
/// mirroring the paper's markers for runs exceeding its wall-clock budget.
/// ~1e12 flops is a few minutes on the scalar kernels of this repo.
pub const OOT_FLOP_BUDGET: f64 = 1e12;

/// True when running `method` at rank `j` on `x` would exceed the
/// out-of-time budget (only the sketched methods have a super-linear
/// dependence on `J^N` that can explode).
pub fn likely_oot(method: Method, x: &DenseTensor, j: usize) -> bool {
    match method {
        Method::TuckerTs | Method::TuckerTtmts => {
            let cfg = TuckerTsConfig::new(&vec![j; x.order()]);
            sketched_cost_estimate(j, x.order(), cfg.k_factor, cfg.max_iters) > OOT_FLOP_BUDGET
        }
        _ => false,
    }
}

/// Minimal command-line option reader: `--key value` pairs.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments.
    pub fn capture() -> Self {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// From an explicit vector (tests).
    pub fn from_vec(raw: Vec<String>) -> Self {
        Args { raw }
    }

    /// Value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        let flag = format!("--{key}");
        self.raw
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.raw.get(i + 1))
            .map(String::as_str)
    }

    /// Value of `--key` parsed, or a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

/// Plain-text table printer (markdown-ish, aligned) that also mirrors rows
/// into a CSV file under `results/` when a path is given.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    csv_path: Option<std::path::PathBuf>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            csv_path: None,
        }
    }

    /// Also mirror the table into `results/<name>.csv`.
    pub fn with_csv(mut self, name: &str) -> Self {
        let dir = std::path::Path::new("results");
        std::fs::create_dir_all(dir).ok();
        self.csv_path = Some(dir.join(format!("{name}.csv")));
        self
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Prints the aligned table and writes the CSV mirror.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let parts: Vec<String> = cells
                .iter()
                .zip(widths.iter())
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            format!("| {} |", parts.join(" | "))
        };
        println!("{}", line(&self.headers));
        let sep: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        println!("{}", line(&sep));
        for row in &self.rows {
            println!("{}", line(row));
        }
        if let Some(path) = &self.csv_path {
            let mut out = String::new();
            out.push_str(&self.headers.join(","));
            out.push('\n');
            for row in &self.rows {
                out.push_str(&row.join(","));
                out.push('\n');
            }
            if let Err(e) = dtucker_core::fsutil::atomic_write_str(path, &out) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("(csv mirrored to {})", path.display());
            }
        }
    }
}

/// Opens a `BENCH_*.json` record with the fields every experiment shares
/// (`experiment`, `dataset`, `shape`). The caller adds its own fields and
/// hands the writer to [`write_record`].
pub fn bench_record(experiment: &str, dataset: &str, shape: &[usize]) -> JsonWriter {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("experiment");
    w.string(experiment);
    w.key("dataset");
    w.string(dataset);
    w.key("shape");
    usize_array(&mut w, shape);
    w
}

/// Writes `v` as a JSON array of integers.
pub fn usize_array(w: &mut JsonWriter, v: &[usize]) {
    w.begin_array();
    for &d in v {
        w.number_u64(d as u64);
    }
    w.end_array();
}

/// Closes a record opened by [`bench_record`] and writes it atomically to
/// `path`. Panics if the file cannot be written: the record is the point
/// of the run.
pub fn write_record(mut w: JsonWriter, path: &str) {
    w.end_object();
    let mut s = w.finish();
    s.push('\n');
    dtucker_core::fsutil::atomic_write_str(path, &s)
        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
}

/// Formats a duration in seconds with 3 decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Formats bytes human-readably.
pub fn human_bytes(b: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    format!("{v:.1} {}", UNITS[u])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtucker_tensor::random::low_rank_plus_noise;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn run_every_method_small() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = low_rank_plus_noise(&[16, 14, 10], &[2, 2, 2], 0.05, &mut rng).unwrap();
        for m in [
            Method::DTucker,
            Method::DTuckerExact,
            Method::Hooi,
            Method::Hosvd,
            Method::StHosvd,
            Method::Mach,
            Method::Rtd,
            Method::TuckerTs,
            Method::TuckerTtmts,
        ] {
            let r = run_method(m, &x, 2, 7).unwrap();
            assert!(r.error_sq.is_finite(), "{}", m.name());
            // MACH keeps 10% of a tiny tensor here, so its error is large by
            // design; everything else should approximate well.
            let bound = if m == Method::Mach { 20.0 } else { 1.0 };
            assert!(r.error_sq < bound, "{} error {}", m.name(), r.error_sq);
            assert!(r.iterations >= 1);
        }
    }

    #[test]
    fn args_parsing() {
        let a = Args::from_vec(vec![
            "--scale".into(),
            "ci".into(),
            "--seed".into(),
            "9".into(),
        ]);
        assert_eq!(a.get("scale"), Some("ci"));
        assert_eq!(a.get_or("seed", 0u64), 9);
        assert_eq!(a.get_or("rank", 5usize), 5);
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(human_bytes(512), "512.0 B");
        assert_eq!(human_bytes(2048), "2.0 KiB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.0 MiB");
    }

    #[test]
    fn table_rows_align() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(&["1".into(), "2".into()]);
        t.print(); // smoke: must not panic
        assert_eq!(t.rows.len(), 1);
    }
}
