//! Frontal slices of a virtually permuted tensor.
//!
//! D-Tucker reorders the modes so the two largest lead, then works one
//! frontal slice at a time. [`PermutedSlices`] maps each slice of
//! `permute(x, perm)` onto the **unpermuted** Fortran storage of `x`, and
//! [`PermutedSlices::gather`] copies a range of such slices out of any
//! storage that can hand out contiguous runs of elements
//! ([`ElementRuns`]): a resident buffer or a file. The permutation is never
//! materialized, and the read strategy lives here once for every storage.

use crate::dense::gather_strided;
use crate::error::{Result, TensorError};
use crate::unfold::check_permutation;
use dtucker_linalg::matrix::Matrix;

/// Storage of a tensor's elements in Fortran order that can lend out one
/// contiguous run at a time.
pub trait ElementRuns {
    /// Error of a failed read.
    type Error: From<TensorError>;

    /// The `len` elements starting at element `offset`. The slice may
    /// borrow a buffer that the next call overwrites.
    fn run(&mut self, offset: usize, len: usize) -> std::result::Result<&[f64], Self::Error>;

    /// Longest run worth requesting in one call, in elements. Line spans
    /// beyond it are gathered element by element (bounded buffers for
    /// file-backed storage); a resident buffer has no limit.
    fn max_run(&self) -> usize {
        usize::MAX
    }
}

/// A resident buffer lends runs by borrowing them.
impl ElementRuns for &[f64] {
    type Error = TensorError;

    fn run(&mut self, offset: usize, len: usize) -> Result<&[f64]> {
        self.get(offset..offset + len)
            .ok_or_else(|| TensorError::ShapeMismatch {
                op: "element run",
                details: format!(
                    "run {offset}..{} past {} elements",
                    offset + len,
                    self.len()
                ),
            })
    }
}

/// Frontal-slice geometry of the permuted tensor `permute(x, perm)` over
/// the **unpermuted** Fortran storage of `x`.
///
/// Entry `(r, c)` of permuted frontal slice `l` lives at element offset
/// `base(l) + r·s0 + c·s1` of `x`'s data, where `s0` and `s1` are the
/// storage strides of the two leading permuted modes and `base(l)` sums
/// the trailing modes' indices times their strides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PermutedSlices {
    /// Shape in the permuted order.
    shape: Vec<usize>,
    /// Permuted position → original mode.
    perm: Vec<usize>,
    /// Fortran strides of the original shape, by original mode.
    strides: Vec<usize>,
}

impl PermutedSlices {
    /// Geometry of `permute(x, perm)` for a tensor `x` of (original) shape
    /// `shape`. Needs order ≥ 2, no zero dimension and a valid
    /// permutation.
    pub fn new(shape: &[usize], perm: &[usize]) -> Result<Self> {
        let n = shape.len();
        check_permutation("permuted slices", perm, n)?;
        if n < 2 {
            return Err(TensorError::InvalidMode { mode: 1, order: n });
        }
        if shape.contains(&0) {
            return Err(TensorError::ShapeMismatch {
                op: "permuted slices",
                details: format!("zero dimension in {shape:?}"),
            });
        }
        let mut strides = vec![1usize; n];
        for m in 1..n {
            strides[m] = strides[m - 1] * shape[m - 1];
        }
        Ok(PermutedSlices {
            shape: perm.iter().map(|&p| shape[p]).collect(),
            perm: perm.to_vec(),
            strides,
        })
    }

    /// Shape in the permuted order.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Permutation: position `p` holds original mode `perm()[p]`.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Number of frontal slices `I₃⋯I_N` of the permuted tensor.
    pub fn num_slices(&self) -> usize {
        self.shape[2..].iter().product()
    }

    /// Storage strides `(s0, s1)` of a slice's row and column index.
    fn strides(&self) -> (usize, usize) {
        (self.strides[self.perm[0]], self.strides[self.perm[1]])
    }

    /// Storage offset of entry `(0, 0)` of frontal slice `l` (slices in
    /// Fortran order over the trailing permuted modes).
    fn slice_base(&self, l: usize) -> usize {
        let mut base = 0usize;
        let mut rem = l;
        for (&dim, &mode) in self.shape.iter().zip(&self.perm).skip(2) {
            base += (rem % dim) * self.strides[mode];
            rem /= dim;
        }
        base
    }

    /// Gathers frontal slice `l` alone (see [`gather`](Self::gather)).
    pub fn gather_one<R: ElementRuns>(
        &self,
        storage: &mut R,
        l: usize,
    ) -> std::result::Result<Matrix, R::Error> {
        let mut one = self.gather(storage, l, l + 1)?;
        one.pop().ok_or_else(|| {
            TensorError::ShapeMismatch {
                op: "gather slices",
                details: format!("slice {l} produced no matrix"),
            }
            .into()
        })
    }

    /// Gathers frontal slices `start..end` of the permuted tensor from
    /// `storage` as `I₁ × I₂` row-major matrices, with as few runs as the
    /// strides allow:
    ///
    /// * a contiguous slice (`s0 = 1`, `s1 = I₁`) is one run, transposed
    ///   into row-major;
    /// * otherwise the slice is read by *lines* — columns (elements `s0`
    ///   apart) when `s0 ≤ s1`, else rows (`s1` apart) — one bounding span
    ///   per line. Slices whose spans overlap share each line's run: the
    ///   union is requested once and scattered into every slice of the
    ///   group, as long as it is no longer than the group's separate spans
    ///   together (and [`ElementRuns::max_run`]). A leading mode with a
    ///   stride above one thus costs no extra reads per slice;
    /// * a line span beyond `max_run` is gathered element by element.
    pub fn gather<R: ElementRuns>(
        &self,
        storage: &mut R,
        start: usize,
        end: usize,
    ) -> std::result::Result<Vec<Matrix>, R::Error> {
        let num = self.num_slices();
        if start > end || end > num {
            return Err(TensorError::ShapeMismatch {
                op: "gather slices",
                details: format!("slices {start}..{end} out of range (have {num})"),
            }
            .into());
        }
        let (i1, i2) = (self.shape[0], self.shape[1]);
        let (s0, s1) = self.strides();
        let bases: Vec<usize> = (start..end).map(|l| self.slice_base(l)).collect();
        if s0 == 1 && s1 == i1 {
            let mut out = Vec::with_capacity(bases.len());
            for &base in &bases {
                let block = storage.run(base, i1 * i2)?;
                out.push(gather_strided(block, 0, 1, i1, i1, i2)?);
            }
            return Ok(out);
        }
        let mut mats: Vec<Matrix> = bases.iter().map(|_| Matrix::zeros(i1, i2)).collect();
        let by_cols = s0 <= s1;
        let (len, step, lines, line_step) = if by_cols {
            (i1, s0, i2, s1)
        } else {
            (i2, s1, i1, s0)
        };
        let span = (len - 1) * step + 1;
        let max_run = storage.max_run();
        if span > max_run {
            for (m, &base) in mats.iter_mut().zip(&bases) {
                for r in 0..i1 {
                    for c in 0..i2 {
                        let v = storage.run(base + r * s0 + c * s1, 1)?;
                        m.set(r, c, v[0]);
                    }
                }
            }
            return Ok(mats);
        }
        let mut order: Vec<usize> = (0..bases.len()).collect();
        order.sort_by_key(|&j| bases[j]);
        let mut g = 0;
        while g < order.len() {
            let lo = bases[order[g]];
            let mut h = g + 1;
            while h < order.len() {
                let width = bases[order[h]] - lo + span;
                if width > (h - g + 1) * span || width > max_run {
                    break;
                }
                h += 1;
            }
            let width = bases[order[h - 1]] - lo + span;
            for k in 0..lines {
                let run = storage.run(lo + k * line_step, width)?;
                for &j in &order[g..h] {
                    let line = &run[bases[j] - lo..];
                    let m = &mut mats[j];
                    if !by_cols && step == 1 {
                        m.row_mut(k).copy_from_slice(&line[..len]);
                    } else {
                        for e in 0..len {
                            let v = line[e * step];
                            if by_cols {
                                m.set(e, k, v);
                            } else {
                                m.set(k, e, v);
                            }
                        }
                    }
                }
            }
            g = h;
        }
        Ok(mats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseTensor;
    use crate::unfold::permute;

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

    /// Resident storage with a small `max_run`, to drive the
    /// element-by-element fallback.
    struct Capped<'a>(&'a [f64], usize);

    impl ElementRuns for Capped<'_> {
        type Error = TensorError;

        fn run(&mut self, offset: usize, len: usize) -> Result<&[f64]> {
            self.0.run(offset, len)
        }

        fn max_run(&self) -> usize {
            self.1
        }
    }

    #[test]
    fn gather_matches_permute_for_every_permutation_and_chunk() {
        for shape in [vec![4usize, 5], vec![3, 4, 2], vec![3, 2, 4, 2]] {
            let x = DenseTensor::from_fn(&shape, |idx| {
                idx.iter().fold(0.0, |acc, &i| acc * 10.0 + i as f64)
            })
            .unwrap();
            for perm in permutations(shape.len()) {
                let view = PermutedSlices::new(&shape, &perm).unwrap();
                let y = permute(&x, &perm).unwrap();
                assert_eq!(view.shape(), y.shape());
                assert_eq!(view.perm(), perm.as_slice());
                let num = view.num_slices();
                assert_eq!(num, y.num_frontal_slices());
                for chunk in [1, 2, 3, num] {
                    for cap in [usize::MAX, 2] {
                        let mut l0 = 0;
                        while l0 < num {
                            let l1 = (l0 + chunk).min(num);
                            let got = view.gather(&mut Capped(x.as_slice(), cap), l0, l1).unwrap();
                            for (i, m) in got.iter().enumerate() {
                                assert_eq!(
                                    *m,
                                    y.frontal_slice(l0 + i).unwrap(),
                                    "shape {shape:?} perm {perm:?} slice {} chunk {chunk} cap {cap}",
                                    l0 + i
                                );
                            }
                            l0 = l1;
                        }
                    }
                }
                assert!(view.gather(&mut x.as_slice(), 0, num + 1).is_err());
            }
        }
    }

    #[test]
    fn permuted_slices_validate() {
        assert!(PermutedSlices::new(&[3, 4], &[0]).is_err());
        assert!(PermutedSlices::new(&[3, 4], &[1, 1]).is_err());
        assert!(PermutedSlices::new(&[3], &[0]).is_err());
        assert!(PermutedSlices::new(&[3, 0, 2], &[0, 1, 2]).is_err());
        // Storage shorter than the geometry promises.
        let view = PermutedSlices::new(&[3, 4, 2], &[1, 0, 2]).unwrap();
        let short = [0.0; 10];
        assert!(view.gather(&mut &short[..], 0, 1).is_err());
    }
}
