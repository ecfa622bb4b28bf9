//! Chunked on-disk slice sourcing over `.dten` tensor files.
//!
//! [`DtenSliceSource`] implements [`SliceSource`] directly against the
//! file: the tensor's f64 payload is stored in Fortran order over the
//! **original** modes, and each chunk of frontal slices of the **permuted**
//! view is gathered with positioned reads by
//! [`PermutedSlices::gather`] — the same strategy the in-memory source
//! uses, so the slices of a chunk that overlap on disk share each read.
//! Only the header, the slices of one chunk, one reused read buffer, and
//! the norm cache are ever resident, so the approximation phase runs in
//! `O(I₁·I₂·chunk)` memory regardless of the tensor size. Line spans
//! beyond [`MAX_SPAN_BYTES`] are read element by element.

use crate::error::{Result, StoreError};
use dtucker_core::source::SliceSource;
use dtucker_core::Result as CoreResult;
use dtucker_linalg::matrix::Matrix;
use dtucker_linalg::norms::FroNormAccumulator;
use dtucker_tensor::io::{header_len, read_header};
use dtucker_tensor::permuted::{ElementRuns, PermutedSlices};
use dtucker_tensor::unfold::descending_mode_order;
use std::fs::File;
use std::path::{Path, PathBuf};

/// Largest single gather read the span strategy may issue (16 MiB). Spans
/// beyond this fall back to per-element reads instead of ballooning memory.
pub const MAX_SPAN_BYTES: usize = 16 << 20;

/// [`SliceSource`] that reads frontal slices of a (virtually) permuted
/// tensor straight from a `.dten` file.
#[derive(Debug)]
pub struct DtenSliceSource {
    path: PathBuf,
    /// Where each permuted slice lives in the file's Fortran payload.
    view: PermutedSlices,
    runs: FileRuns,
    norm_cache: Option<f64>,
}

/// The payload of an open `.dten` file as [`ElementRuns`]: positioned reads
/// into one reused buffer.
#[derive(Debug)]
struct FileRuns {
    file: File,
    /// Byte offset of the f64 payload.
    data_offset: u64,
    /// Raw bytes of the last read.
    raw: Vec<u8>,
    /// Decoded values of the last read.
    vals: Vec<f64>,
}

impl ElementRuns for FileRuns {
    type Error = StoreError;

    fn run(&mut self, offset: usize, len: usize) -> Result<&[f64]> {
        self.raw.resize(len * 8, 0);
        let byte = self.data_offset + offset as u64 * 8;
        read_exact_at(&mut self.file, &mut self.raw, byte)?;
        self.vals.clear();
        self.vals.extend(
            self.raw
                .chunks_exact(8)
                .map(|b| f64::from_le_bytes(crate::format::arr8(b))),
        );
        Ok(&self.vals)
    }

    fn max_run(&self) -> usize {
        MAX_SPAN_BYTES / 8
    }
}

impl DtenSliceSource {
    /// Opens a `.dten` file with the paper's default mode reordering (two
    /// largest modes first).
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let shape = Self::peek_shape(path.as_ref())?;
        Self::open_with_perm(path, &descending_mode_order(&shape))
    }

    /// Opens a `.dten` file with an explicit permutation (`perm[p]` =
    /// original mode served at internal position `p`).
    pub fn open_with_perm(path: impl AsRef<Path>, perm: &[usize]) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path)?;
        let orig = read_header(&mut file)?;
        let order = orig.len();
        if order < 2 {
            return Err(StoreError::Format(format!(
                "{}: slice sourcing needs order >= 2, file is order {order}",
                path.display()
            )));
        }
        let view =
            PermutedSlices::new(&orig, perm).map_err(|e| StoreError::Mismatch(e.to_string()))?;
        // Validate the payload length once so later reads can't run off the
        // end of a truncated file.
        let data_offset = header_len(order);
        let expected = orig
            .iter()
            .try_fold(8u64, |n, &d| n.checked_mul(d as u64))
            .and_then(|bytes| bytes.checked_add(data_offset))
            .ok_or_else(|| {
                StoreError::Format(format!("{}: shape {orig:?} overflows", path.display()))
            })?;
        let actual = file.metadata()?.len();
        if actual != expected {
            return Err(StoreError::Format(format!(
                "{}: file is {actual} bytes, header promises {expected}",
                path.display()
            )));
        }
        Ok(DtenSliceSource {
            path,
            view,
            runs: FileRuns {
                file,
                data_offset,
                raw: Vec::new(),
                vals: Vec::new(),
            },
            norm_cache: None,
        })
    }

    /// Reads just the shape from a `.dten` header.
    pub fn peek_shape(path: impl AsRef<Path>) -> Result<Vec<usize>> {
        let mut f = File::open(path)?;
        Ok(read_header(&mut f)?)
    }

    /// The file backing this source.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn stream_norm(&mut self) -> Result<f64> {
        // Feed the payload in file (= original Fortran) order, exactly the
        // order `DenseTensor::fro_norm_sq` walks, so the result is
        // bit-identical to the in-memory norm.
        const BLOCK: usize = 1 << 15;
        let numel: usize = self.view.shape().iter().product();
        let mut acc = FroNormAccumulator::new();
        let mut done = 0;
        while done < numel {
            let take = (numel - done).min(BLOCK);
            acc.push_slice(self.runs.run(done, take)?);
            done += take;
        }
        Ok(acc.norm_sq())
    }
}

fn to_core_err(e: StoreError) -> dtucker_core::CoreError {
    dtucker_core::CoreError::Tensor(dtucker_tensor::TensorError::Io(e.to_string()))
}

impl SliceSource for DtenSliceSource {
    fn shape(&self) -> &[usize] {
        self.view.shape()
    }

    fn perm(&self) -> &[usize] {
        self.view.perm()
    }

    fn load_slice(&mut self, l: usize) -> CoreResult<Matrix> {
        self.view.gather_one(&mut self.runs, l).map_err(to_core_err)
    }

    /// Loads a chunk, sharing each line read among the chunk's slices
    /// whose spans overlap on disk.
    fn load_slices(&mut self, start: usize, end: usize) -> CoreResult<Vec<Matrix>> {
        self.view
            .gather(&mut self.runs, start, end)
            .map_err(to_core_err)
    }

    fn fro_norm_sq(&mut self) -> CoreResult<f64> {
        if let Some(n) = self.norm_cache {
            return Ok(n);
        }
        let n = self.stream_norm().map_err(to_core_err)?;
        self.norm_cache = Some(n);
        Ok(n)
    }
}

/// Positioned read of exactly `buf.len()` bytes at `offset`.
#[cfg(unix)]
fn read_exact_at(file: &mut File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

/// Positioned read of exactly `buf.len()` bytes at `offset`.
#[cfg(not(unix))]
fn read_exact_at(file: &mut File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtucker_core::source::InMemorySource;
    use dtucker_tensor::dense::DenseTensor;
    use dtucker_tensor::io::save;
    use dtucker_tensor::random::low_rank_plus_noise;
    use dtucker_tensor::unfold::permute;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tmpfile(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dtucker_store_source_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Every permutation of `0..n`, in lexicographic order.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for p in permutations(n - 1) {
            for pos in 0..n {
                let mut q = p.clone();
                q.insert(pos, n - 1);
                out.push(q);
            }
        }
        out.sort();
        out
    }

    /// Loads every slice of `src` in chunks of `chunk` and checks each
    /// against the materialized permutation.
    fn check_chunks(src: &mut dyn SliceSource, internal: &DenseTensor, chunk: usize, what: &str) {
        let num = src.num_slices();
        let mut l0 = 0;
        while l0 < num {
            let l1 = (l0 + chunk).min(num);
            let got = src.load_slices(l0, l1).unwrap();
            assert_eq!(got.len(), l1 - l0);
            for (i, m) in got.iter().enumerate() {
                let want = internal.frontal_slice(l0 + i).unwrap();
                assert_eq!(*m, want, "{what}: slice {} (chunk {chunk})", l0 + i);
            }
            l0 = l1;
        }
    }

    fn check_all_slices(x: &DenseTensor, perm: &[usize], name: &str) {
        let path = tmpfile(name);
        save(x, &path).unwrap();
        let mut src = DtenSliceSource::open_with_perm(&path, perm).unwrap();
        let mut mem = InMemorySource::borrowed(x, perm).unwrap();
        let internal = permute(x, perm).unwrap();
        assert_eq!(src.shape(), internal.shape());
        assert_eq!(src.num_slices(), internal.num_frontal_slices());
        for l in 0..src.num_slices() {
            let got = src.load_slice(l).unwrap();
            let want = internal.frontal_slice(l).unwrap();
            assert_eq!(got, want, "slice {l} of {name} perm {perm:?}");
        }
        let num = src.num_slices();
        for chunk in [1, 2, 3, num] {
            let what = format!("{name} perm {perm:?}");
            check_chunks(&mut src, &internal, chunk, &format!("on-disk {what}"));
            check_chunks(&mut mem, &internal, chunk, &format!("in-memory {what}"));
        }
        assert!(src.load_slices(0, num + 1).is_err());
        assert_eq!(
            src.fro_norm_sq().unwrap().to_bits(),
            x.fro_norm_sq().to_bits(),
            "norm of {name}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_permutation_matches_in_memory() {
        let mut rng = StdRng::seed_from_u64(1);
        // Every permutation of orders 2–4 exercises every gather strategy
        // (contiguous, row lines, column lines, grouped spans) with the
        // whole-slice, single-slice and ragged chunkings.
        for shape in [vec![6usize, 9], vec![7, 5, 4], vec![5, 4, 3, 2]] {
            let ranks = vec![2; shape.len()];
            let x = low_rank_plus_noise(&shape, &ranks, 0.2, &mut rng).unwrap();
            for perm in permutations(shape.len()) {
                check_all_slices(&x, &perm, &format!("p{}.dten", shape.len()));
            }
        }
    }

    #[test]
    fn default_open_uses_descending_order() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = low_rank_plus_noise(&[4, 9, 6], &[2, 2, 2], 0.0, &mut rng).unwrap();
        let path = tmpfile("desc.dten");
        save(&x, &path).unwrap();
        let src = DtenSliceSource::open(&path).unwrap();
        assert_eq!(src.shape(), &[9, 6, 4]);
        assert_eq!(src.perm(), &[1, 2, 0]);
        assert_eq!(src.original_shape(), vec![4, 9, 6]);
        assert_eq!(DtenSliceSource::peek_shape(&path).unwrap(), vec![4, 9, 6]);
        assert_eq!(src.path(), path.as_path());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = low_rank_plus_noise(&[4, 5, 3], &[2, 2, 2], 0.0, &mut rng).unwrap();
        let path = tmpfile("bad.dten");
        save(&x, &path).unwrap();
        // Bad permutations.
        assert!(DtenSliceSource::open_with_perm(&path, &[0, 1]).is_err());
        assert!(DtenSliceSource::open_with_perm(&path, &[0, 0, 1]).is_err());
        assert!(DtenSliceSource::open_with_perm(&path, &[0, 1, 3]).is_err());
        // Truncated file.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 8]).unwrap();
        assert!(matches!(
            DtenSliceSource::open(&path),
            Err(StoreError::Format(_))
        ));
        // Missing file.
        assert!(matches!(
            DtenSliceSource::open(tmpfile("missing.dten")),
            Err(StoreError::Io(_))
        ));
        // Out-of-range slice.
        std::fs::write(&path, &bytes).unwrap();
        let mut src = DtenSliceSource::open(&path).unwrap();
        assert!(src.load_slice(99).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_shape_whose_size_overflows() {
        // A 28-byte file whose dims [2^62, 4] hold 2^64 elements: an
        // unchecked product wraps to 0 and passes the length check.
        let path = tmpfile("overflow.dten");
        let mut bytes = b"DTEN".to_vec();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&(1u64 << 62).to_le_bytes());
        bytes.extend_from_slice(&4u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            DtenSliceSource::open_with_perm(&path, &[0, 1]),
            Err(StoreError::Tensor(dtucker_tensor::TensorError::Format(_)))
        ));
        std::fs::remove_file(&path).ok();
    }
}
