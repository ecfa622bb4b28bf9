//! Bit-identity of the row-oriented QR, the column-contiguous Jacobi SVD
//! and the blocked norm accumulation against the straightforward loops
//! they replaced.
//!
//! The `oracle` module keeps the textbook formulations — Householder
//! reflectors applied one column at a time through `get`/`set`, Jacobi
//! rotations on row-major storage — exactly as the library used to run
//! them. The fast kernels promise the same floating-point operations in the
//! same order, so every output must match **bit for bit**, not merely to a
//! tolerance.

// The oracles keep the replaced index loops as they were, matching the
// allowance the library crate itself makes.
#![allow(clippy::needless_range_loop)]

use dtucker_linalg::gemm::matmul;
use dtucker_linalg::norms::{fro_norm, FroNormAccumulator};
use dtucker_linalg::qr::{orthonormalize, qr_thin};
use dtucker_linalg::random::gaussian_matrix;
use dtucker_linalg::svd::svd;
use dtucker_linalg::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod oracle {
    use dtucker_linalg::gemm::matmul;
    use dtucker_linalg::norms;
    use dtucker_linalg::svd::Svd;
    use dtucker_linalg::Matrix;

    /// Column-at-a-time Householder thin QR.
    pub fn qr_thin(a: &Matrix) -> (Matrix, Matrix) {
        let (m, n) = a.shape();
        let t = m.min(n);
        let mut work = a.clone();
        let mut vs: Vec<Vec<f64>> = Vec::with_capacity(t);
        let mut betas: Vec<f64> = Vec::with_capacity(t);
        for k in 0..t {
            let mut v: Vec<f64> = (k..m).map(|r| work.get(r, k)).collect();
            let normx = norms::fro_norm(&v);
            if normx == 0.0 {
                vs.push(v);
                betas.push(0.0);
                continue;
            }
            let alpha = if v[0] >= 0.0 { -normx } else { normx };
            v[0] -= alpha;
            let vnorm_sq = norms::norm_sq(&v);
            let beta = if vnorm_sq == 0.0 { 0.0 } else { 2.0 / vnorm_sq };
            if beta != 0.0 {
                for c in k..n {
                    let mut dot = 0.0;
                    for (i, &vi) in v.iter().enumerate() {
                        dot += vi * work.get(k + i, c);
                    }
                    let s = beta * dot;
                    for (i, &vi) in v.iter().enumerate() {
                        let cur = work.get(k + i, c);
                        work.set(k + i, c, cur - s * vi);
                    }
                }
            }
            work.set(k, k, alpha);
            for r in (k + 1)..m {
                work.set(r, k, 0.0);
            }
            vs.push(v);
            betas.push(beta);
        }
        let mut r = Matrix::zeros(t, n);
        for i in 0..t {
            for j in i..n {
                r.set(i, j, work.get(i, j));
            }
        }
        let mut q = Matrix::zeros(m, t);
        for i in 0..t {
            q.set(i, i, 1.0);
        }
        for k in (0..t).rev() {
            let beta = betas[k];
            if beta == 0.0 {
                continue;
            }
            let v = &vs[k];
            for c in 0..t {
                let mut dot = 0.0;
                for (i, &vi) in v.iter().enumerate() {
                    dot += vi * q.get(k + i, c);
                }
                let s = beta * dot;
                for (i, &vi) in v.iter().enumerate() {
                    let cur = q.get(k + i, c);
                    q.set(k + i, c, cur - s * vi);
                }
            }
        }
        (q, r)
    }

    /// One-sided Jacobi on row-major storage (`m ≥ n`, finite input).
    fn jacobi_svd(a: &Matrix) -> Option<Svd> {
        let (m, n) = a.shape();
        let mut b = a.clone();
        let mut v = Matrix::identity(n);
        let eps = f64::EPSILON;
        let fro = a.fro_norm();
        let floor = eps * fro * fro / (n.max(1) as f64);
        let mut converged = false;
        for _sweep in 0..60 {
            let mut rotated = false;
            for p in 0..n {
                for q in (p + 1)..n {
                    let (mut app, mut aqq, mut apq) = (0.0f64, 0.0f64, 0.0f64);
                    for r in 0..m {
                        let bp = b.get(r, p);
                        let bq = b.get(r, q);
                        app += bp * bp;
                        aqq += bq * bq;
                        apq += bp * bq;
                    }
                    if apq.abs() <= eps * (app * aqq).sqrt() || apq.abs() <= floor {
                        continue;
                    }
                    rotated = true;
                    let zeta = (aqq - app) / (2.0 * apq);
                    let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = c * t;
                    for r in 0..m {
                        let bp = b.get(r, p);
                        let bq = b.get(r, q);
                        b.set(r, p, c * bp - s * bq);
                        b.set(r, q, s * bp + c * bq);
                    }
                    for r in 0..n {
                        let vp = v.get(r, p);
                        let vq = v.get(r, q);
                        v.set(r, p, c * vp - s * vq);
                        v.set(r, q, s * vp + c * vq);
                    }
                }
            }
            if !rotated {
                converged = true;
                break;
            }
        }
        if !converged {
            return None;
        }
        let s: Vec<f64> = (0..n).map(|j| norms::fro_norm(&b.col(j))).collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| s[j].partial_cmp(&s[i]).unwrap_or(std::cmp::Ordering::Equal));
        let mut u = Matrix::zeros(m, n);
        let mut vperm = Matrix::zeros(n, n);
        let smax = order.first().map_or(0.0, |&i| s[i]);
        let tiny = smax * f64::EPSILON * (m.max(n) as f64);
        let mut new_s = vec![0.0; n];
        for (dst, &src) in order.iter().enumerate() {
            new_s[dst] = s[src];
            let col = b.col(src);
            if s[src] > tiny && s[src] > 0.0 {
                let inv = 1.0 / s[src];
                for r in 0..m {
                    u.set(r, dst, col[r] * inv);
                }
            }
            for r in 0..n {
                vperm.set(r, dst, v.get(r, src));
            }
        }
        complete_orthonormal_cols(&mut u, &new_s, tiny);
        Some(Svd {
            u,
            s: new_s,
            v: vperm,
        })
    }

    fn complete_orthonormal_cols(u: &mut Matrix, s: &[f64], tiny: f64) {
        let (m, n) = u.shape();
        for j in 0..n {
            if s[j] > tiny && s[j] > 0.0 {
                continue;
            }
            'candidates: for cand in 0..m {
                let mut col = vec![0.0; m];
                col[cand] = 1.0;
                for other in 0..n {
                    if other == j {
                        continue;
                    }
                    let oc = u.col(other);
                    let proj = norms::dot(&col, &oc);
                    norms::axpy(-proj, &oc, &mut col);
                }
                let nrm = norms::fro_norm(&col);
                if nrm > 1e-6 {
                    norms::scale(&mut col, 1.0 / nrm);
                    u.set_col(j, &col);
                    break 'candidates;
                }
            }
        }
    }

    /// `svd(a)` built from the oracle kernels.
    pub fn svd_jacobi(a: &Matrix) -> Option<Svd> {
        let (m, n) = a.shape();
        if m < n {
            let t = svd_jacobi(&a.transpose())?;
            return Some(Svd {
                u: t.v,
                s: t.s,
                v: t.u,
            });
        }
        if m > n {
            let (q, r) = qr_thin(a);
            let inner = jacobi_svd(&r)?;
            return Some(Svd {
                u: matmul(&q, &inner.u),
                s: inner.s,
                v: inner.v,
            });
        }
        jacobi_svd(a)
    }
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn same_bits(got: &Matrix, want: &Matrix) -> bool {
    got.shape() == want.shape() && bits(got) == bits(want)
}

/// Asserts the fast QR, `orthonormalize` and Jacobi SVD equal the oracles.
fn check(a: &Matrix) {
    let fast = qr_thin(a);
    let (q, r) = oracle::qr_thin(a);
    assert!(same_bits(&fast.q, &q), "Q differs for {:?}", a.shape());
    assert!(same_bits(&fast.r, &r), "R differs for {:?}", a.shape());
    assert!(same_bits(&orthonormalize(a), &q));
    if a.rows() == 0 || a.cols() == 0 {
        return;
    }
    let want = oracle::svd_jacobi(a).expect("oracle Jacobi converges");
    let got = svd(a).expect("Jacobi converges");
    assert!(same_bits(&got.u, &want.u), "U differs for {:?}", a.shape());
    assert!(same_bits(&got.v, &want.v), "V differs for {:?}", a.shape());
    let (gs, ws): (Vec<u64>, Vec<u64>) = (
        got.s.iter().map(|x| x.to_bits()).collect(),
        want.s.iter().map(|x| x.to_bits()).collect(),
    );
    assert_eq!(gs, ws, "singular values differ for {:?}", a.shape());
}

/// Kinds of input the strategy draws: dense, some all-zero columns, a
/// repeated column (rank-deficient), and an integer-valued matrix whose
/// sums hit exact ties.
fn matrix(rows: usize, cols: usize, kind: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = gaussian_matrix(rows, cols, &mut rng);
    match kind {
        1 => {
            for c in (0..cols).step_by(2) {
                a.set_col(c, &vec![0.0; rows]);
            }
        }
        2 if cols > 1 => {
            let first = a.col(0);
            a.set_col(cols - 1, &first);
        }
        3 => a = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-3i32..=3) as f64),
        _ => {}
    }
    a
}

/// Element values that stress the scaled accumulation: zeros of both
/// signs, growing and shrinking magnitudes, and (rarely) NaN or ±∞.
fn stress_vector(len: usize, seed: u64, non_finite: bool) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|i| match rng.gen_range(0..40) {
            0 => 0.0,
            1 => -0.0,
            2 if non_finite => f64::NAN,
            3 if non_finite => f64::NEG_INFINITY,
            4 => rng.gen_range(-1e200..1e200),
            _ => rng.gen_range(-1.0..1.0) * (1.0 + i as f64 / 16.0),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn blocked_norm_matches_elementwise(
        (len, seed, non_finite, split) in (0usize..300, any::<u64>(), any::<bool>(), 0usize..300)
    ) {
        let v = stress_vector(len, seed, non_finite);
        let mut one = FroNormAccumulator::new();
        for &x in &v {
            one.push(x);
        }
        let mut blocked = FroNormAccumulator::new();
        let (a, b) = v.split_at(split.min(len));
        blocked.push_slice(a);
        blocked.push_slice(b);
        prop_assert_eq!(blocked.norm().to_bits(), one.norm().to_bits());
        prop_assert_eq!(fro_norm(&v).to_bits(), one.norm().to_bits());
    }

    #[test]
    fn kernels_match_oracles_bit_for_bit(
        (rows, cols, kind, seed) in (1usize..=24, 1usize..=24, 0usize..4, any::<u64>())
    ) {
        check(&matrix(rows, cols, kind, seed));
    }
}

#[test]
fn edge_shapes_match_oracles() {
    // 1×1, square, wide, tall, all-zero, empty.
    check(&Matrix::from_vec(1, 1, vec![-2.5]).unwrap());
    check(&Matrix::from_vec(1, 1, vec![0.0]).unwrap());
    check(&matrix(9, 9, 0, 1));
    check(&matrix(4, 11, 0, 2));
    check(&matrix(11, 4, 1, 3));
    check(&Matrix::zeros(6, 3));
    check(&Matrix::zeros(5, 0));
    check(&Matrix::zeros(0, 4));
}

#[test]
fn rank_deficient_matches_oracle() {
    let base = matrix(30, 3, 0, 4);
    let a = base.hcat(&base).unwrap();
    check(&a);
    // Rank one.
    let u = matrix(40, 1, 0, 5);
    let v = matrix(1, 12, 0, 6);
    check(&matmul(&u, &v));
}

#[test]
fn rsvd_sketch_shape_matches_oracle() {
    // The shapes a 700×320 slice's rSVD issues at rank 15, oversample 5:
    // the 700×20 sketch, its 320×20 transpose-side basis, and the 20×320
    // projected matrix whose small SVD runs through a 320×20 QR.
    check(&matrix(700, 20, 0, 7));
    check(&matrix(320, 20, 0, 8));
    check(&matrix(20, 320, 0, 9));
}

#[test]
fn non_finite_input_matches_oracle_qr() {
    let mut a = matrix(12, 5, 0, 10);
    a.set(3, 2, f64::NAN);
    let fast = qr_thin(&a);
    let (q, r) = oracle::qr_thin(&a);
    assert!(same_bits(&fast.q, &q));
    assert!(same_bits(&fast.r, &r));
    let mut b = matrix(10, 4, 0, 11);
    b.set(7, 0, f64::INFINITY);
    let fast = qr_thin(&b);
    let (q, r) = oracle::qr_thin(&b);
    assert!(same_bits(&fast.q, &q));
    assert!(same_bits(&fast.r, &r));
}
