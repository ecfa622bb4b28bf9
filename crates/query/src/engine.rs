//! The query engine: factored range reconstruction with planning,
//! caching, and per-phase profiling.

use crate::cache::{CacheStats, ContractionCache};
use crate::error::{QueryError, Result};
use crate::plan::{plan, QueryPlan};
use crate::range::Range;
use dtucker_core::{PhaseProfile, TuckerDecomp};
use dtucker_linalg::Matrix;
use dtucker_store::ArtifactStore;
use dtucker_tensor::ttm::{ttm, ttm_rows};
use dtucker_tensor::DenseTensor;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Default partial-contraction cache budget (64 MiB).
pub const DEFAULT_CACHE_BYTES: usize = 64 << 20;

/// Serves element/fiber/slice/range reconstruction queries — and
/// aggregates — against a Tucker decomposition, never materializing more
/// than the requested box.
///
/// Every query runs through three phases, timed into a shared
/// [`PhaseProfile`]:
///
/// 1. **plan** — pick the contraction order minimizing simulated FLOPs;
/// 2. **cache** — probe the LRU cache for the longest already-computed
///    prefix of that plan;
/// 3. **contract** — execute the remaining steps on the worker pool,
///    caching every new prefix.
///
/// Identical queries produce bit-identical results regardless of cache
/// state: the plan is deterministic, cache keys encode the contraction
/// *order*, and a cached intermediate is exactly the tensor the engine
/// would have recomputed.
#[derive(Debug)]
pub struct QueryEngine {
    decomp: Arc<TuckerDecomp>,
    shape: Vec<usize>,
    cache: ContractionCache,
    profile: PhaseProfile,
}

impl QueryEngine {
    /// An engine over an in-memory decomposition with the default cache
    /// budget.
    pub fn new(decomp: TuckerDecomp) -> Result<Self> {
        Self::with_cache_bytes(decomp, DEFAULT_CACHE_BYTES)
    }

    /// An engine with an explicit cache budget (0 disables caching).
    pub fn with_cache_bytes(decomp: TuckerDecomp, cache_bytes: usize) -> Result<Self> {
        Self::from_shared(Arc::new(decomp), cache_bytes)
    }

    /// An engine over a decomposition shared with other engines (the
    /// factors and core are reference-counted, never copied per engine —
    /// this is what lets [`SharedQueryEngine`](crate::SharedQueryEngine)
    /// keep one model in memory across many per-worker cache shards).
    pub fn from_shared(decomp: Arc<TuckerDecomp>, cache_bytes: usize) -> Result<Self> {
        decomp.validate()?;
        let shape = decomp.full_shape();
        Ok(QueryEngine {
            decomp,
            shape,
            cache: ContractionCache::new(cache_bytes),
            profile: PhaseProfile::new(),
        })
    }

    /// Loads a decomposition artifact (`.dts`) from an explicit path.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_with_cache_bytes(path, DEFAULT_CACHE_BYTES)
    }

    /// Loads a decomposition artifact with an explicit cache budget.
    pub fn open_with_cache_bytes(path: impl AsRef<Path>, cache_bytes: usize) -> Result<Self> {
        Self::with_cache_bytes(dtucker_store::read_decomposition(path)?, cache_bytes)
    }

    /// Loads a named decomposition from an [`ArtifactStore`].
    pub fn from_store(store: &ArtifactStore, name: &str) -> Result<Self> {
        Self::new(store.load_decomposition(name)?)
    }

    /// Shape of the tensor the decomposition approximates.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Multilinear ranks of the decomposition.
    pub fn ranks(&self) -> &[usize] {
        self.decomp.ranks()
    }

    /// The decomposition being served.
    pub fn decomp(&self) -> &TuckerDecomp {
        &self.decomp
    }

    /// Cache counter snapshot. Each query probes plan prefixes
    /// longest-first until one hits, so a cold order-`N` query records up
    /// to `N` misses and a fully warm one records a single hit.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Bytes of tensor payload currently held by the partial-contraction
    /// cache.
    pub fn cache_used_bytes(&self) -> usize {
        self.cache.used_bytes()
    }

    /// The cache's configured byte budget (0 means caching is disabled).
    pub fn cache_budget_bytes(&self) -> usize {
        self.cache.budget_bytes()
    }

    /// Number of partial contractions currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Accumulated per-phase timings (`plan` / `cache` / `contract`).
    pub fn profile(&self) -> &PhaseProfile {
        &self.profile
    }

    /// Resets the per-phase timings (cache contents and counters stay).
    pub fn reset_profile(&mut self) {
        self.profile = PhaseProfile::new();
    }

    /// Reconstructs the hyper-rectangle `range` of the approximated
    /// tensor. The result's shape is the range's extents in original mode
    /// order.
    pub fn query(&mut self, range: &Range) -> Result<DenseTensor> {
        range.validate_for(&self.shape)?;
        let t0 = Instant::now();
        let plan = plan(self.decomp.ranks(), range);
        self.profile.record("plan", t0.elapsed());
        self.execute(&plan)
    }

    /// Reconstructs a single element.
    pub fn element(&mut self, index: &[usize]) -> Result<f64> {
        let t = self.query(&Range::element(index))?;
        Ok(t.as_slice()[0])
    }

    /// Reconstructs the mode-`mode` fiber through `at` (a vector of
    /// length `shape[mode]`).
    pub fn fiber(&mut self, mode: usize, at: &[usize]) -> Result<Vec<f64>> {
        if mode >= self.shape.len() {
            return Err(QueryError::InvalidRange {
                details: format!(
                    "mode {mode} out of range for an order-{} tensor",
                    self.shape.len()
                ),
            });
        }
        if at.len() != self.shape.len() {
            return Err(QueryError::InvalidRange {
                details: format!(
                    "fiber anchor has {} indices but the tensor has {} modes",
                    at.len(),
                    self.shape.len()
                ),
            });
        }
        let t = self.query(&Range::fiber(&self.shape, mode, at))?;
        Ok(t.as_slice().to_vec())
    }

    /// Reconstructs the slice `mode = index` (result keeps the pinned mode
    /// with extent 1).
    pub fn slice(&mut self, mode: usize, index: usize) -> Result<DenseTensor> {
        if mode >= self.shape.len() {
            return Err(QueryError::InvalidRange {
                details: format!(
                    "mode {mode} out of range for an order-{} tensor",
                    self.shape.len()
                ),
            });
        }
        self.query(&Range::slice(&self.shape, mode, index))
    }

    /// Sum of the elements in `range`, computed **without** materializing
    /// the range: each mode is contracted with the ones-vector image
    /// `1ᵀ·A⁽ⁿ⁾[lo..hi, :]` (a `1×Jₙ` row), so the cost depends only on
    /// the ranks and factor heights — not on how many elements the range
    /// covers.
    pub fn sum(&mut self, range: &Range) -> Result<f64> {
        range.validate_for(&self.shape)?;
        let t0 = Instant::now();
        let mut cur = self.decomp.core.clone();
        for (mode, &(lo, hi)) in range.bounds().iter().enumerate() {
            let f = self.decomp.factor(mode)?;
            let mut s = vec![0.0; f.cols()];
            for r in lo..hi {
                for (j, &v) in f.row(r).iter().enumerate() {
                    s[j] += v;
                }
            }
            let ones_image = Matrix::from_vec(1, f.cols(), s)?;
            cur = ttm(&cur, &ones_image, mode)?;
        }
        self.profile.record("contract", t0.elapsed());
        Ok(cur.as_slice()[0])
    }

    /// Mean of the elements in `range` (same factored path as [`sum`]).
    ///
    /// [`sum`]: QueryEngine::sum
    pub fn mean(&mut self, range: &Range) -> Result<f64> {
        Ok(self.sum(range)? / range.numel() as f64)
    }

    /// Frobenius norm of the elements in `range`. Unlike [`sum`], the
    /// squares do not factor through the modes, so this materializes the
    /// range (still never the full tensor).
    ///
    /// [`sum`]: QueryEngine::sum
    pub fn fro_norm(&mut self, range: &Range) -> Result<f64> {
        Ok(self.query(range)?.fro_norm())
    }

    /// Answers a batch of range queries, reordering execution so queries
    /// sharing a contraction prefix run back-to-back and hit the cache.
    /// Results come back in the caller's order, each bit-identical to the
    /// corresponding [`query`] call.
    ///
    /// [`query`]: QueryEngine::query
    pub fn query_batch(&mut self, ranges: &[Range]) -> Result<Vec<DenseTensor>> {
        for r in ranges {
            r.validate_for(&self.shape)?;
        }
        let t0 = Instant::now();
        let plans: Vec<QueryPlan> = ranges
            .iter()
            .map(|r| plan(self.decomp.ranks(), r))
            .collect();
        let mut order: Vec<usize> = (0..ranges.len()).collect();
        order.sort_by(|&a, &b| {
            let ka = plans[a].prefix_key(plans[a].steps.len());
            let kb = plans[b].prefix_key(plans[b].steps.len());
            ka.cmp(&kb).then(a.cmp(&b))
        });
        self.profile.record("plan", t0.elapsed());
        let mut out: Vec<Option<DenseTensor>> = vec![None; ranges.len()];
        for i in order {
            out[i] = Some(self.execute(&plans[i])?);
        }
        out.into_iter()
            .map(|t| {
                t.ok_or_else(|| QueryError::Internal("batch execution left a slot unfilled".into()))
            })
            .collect()
    }

    /// Runs a plan: longest-cached-prefix lookup, then the remaining
    /// contractions, caching each new prefix.
    fn execute(&mut self, plan: &QueryPlan) -> Result<DenseTensor> {
        let n = plan.steps.len();
        let t0 = Instant::now();
        let mut resumed = None;
        let mut start = 0;
        for k in (1..=n).rev() {
            if let Some(t) = self.cache.get(&plan.prefix_key(k)) {
                resumed = Some(t);
                start = k;
                break;
            }
        }
        self.profile.record("cache", t0.elapsed());

        let t0 = Instant::now();
        let mut cur = resumed.unwrap_or_else(|| self.decomp.core.clone());
        for (k, step) in plan.steps.iter().enumerate().skip(start) {
            let f = self.decomp.factor(step.mode)?;
            cur = ttm_rows(&cur, f, step.rows.0, step.rows.1, step.mode)?;
            self.cache.insert(plan.prefix_key(k + 1), &cur);
        }
        self.profile.record("contract", t0.elapsed());
        Ok(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtucker_tensor::random::random_tucker;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine(seed: u64) -> (QueryEngine, DenseTensor) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_tucker(&[9, 7, 6], &[3, 2, 4], &mut rng).unwrap();
        let d = TuckerDecomp {
            core: m.core,
            factors: m.factors,
        };
        let full = d.reconstruct().unwrap();
        (QueryEngine::new(d).unwrap(), full)
    }

    fn assert_close(a: &DenseTensor, b: &DenseTensor) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn range_query_matches_naive_slicing() {
        let (mut e, full) = engine(1);
        for bounds in [
            vec![(0, 9), (0, 7), (0, 6)],
            vec![(2, 5), (1, 2), (0, 6)],
            vec![(8, 9), (6, 7), (5, 6)],
            vec![(0, 1), (0, 7), (3, 4)],
        ] {
            let r = Range::new(bounds.clone());
            let got = e.query(&r).unwrap();
            let want = full.subtensor(&bounds).unwrap();
            assert_close(&got, &want);
        }
    }

    #[test]
    fn element_fiber_slice_helpers() {
        let (mut e, full) = engine(2);
        assert!((e.element(&[3, 4, 5]).unwrap() - full.get(&[3, 4, 5])).abs() < 1e-9);
        let fiber = e.fiber(1, &[2, 0, 3]).unwrap();
        assert_eq!(fiber.len(), 7);
        for (j, v) in fiber.iter().enumerate() {
            assert!((v - full.get(&[2, j, 3])).abs() < 1e-9);
        }
        let slice = e.slice(2, 4).unwrap();
        assert_eq!(slice.shape(), &[9, 7, 1]);
        for i in 0..9 {
            for j in 0..7 {
                assert!((slice.get(&[i, j, 0]) - full.get(&[i, j, 4])).abs() < 1e-9);
            }
        }
        assert!(e.element(&[9, 0, 0]).is_err());
        assert!(e.fiber(3, &[0, 0, 0]).is_err());
        assert!(e.fiber(0, &[0, 0]).is_err());
        assert!(e.slice(5, 0).is_err());
        assert!(e.slice(0, 9).is_err());
    }

    #[test]
    fn aggregates_match_naive() {
        let (mut e, full) = engine(3);
        let bounds = vec![(1, 6), (0, 7), (2, 5)];
        let r = Range::new(bounds.clone());
        let sub = full.subtensor(&bounds).unwrap();
        let naive_sum: f64 = sub.as_slice().iter().sum();
        assert!((e.sum(&r).unwrap() - naive_sum).abs() < 1e-8);
        assert!((e.mean(&r).unwrap() - naive_sum / sub.numel() as f64).abs() < 1e-8);
        assert!((e.fro_norm(&r).unwrap() - sub.fro_norm()).abs() < 1e-8);
    }

    #[test]
    fn cache_hits_are_bit_identical() {
        let (mut e, _) = engine(4);
        let r = Range::new(vec![(2, 3), (1, 3), (0, 2)]);
        let cold = e.query(&r).unwrap();
        let stats0 = e.cache_stats();
        assert!(stats0.insertions > 0);
        let warm = e.query(&r).unwrap();
        let stats1 = e.cache_stats();
        assert!(stats1.hits > stats0.hits, "second query must hit");
        assert_eq!(cold.shape(), warm.shape());
        for (a, b) in cold.as_slice().iter().zip(warm.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // A prefix-sharing query (same first contractions, wider tail):
        // both plans contract mode 0 then mode 2 first, so the second
        // query resumes from the cached two-step prefix.
        let r2 = Range::new(vec![(2, 3), (1, 6), (0, 2)]);
        let hits_before = e.cache_stats().hits;
        let _ = e.query(&r2).unwrap();
        assert!(e.cache_stats().hits > hits_before);
    }

    #[test]
    fn disabled_cache_still_correct() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = random_tucker(&[8, 6, 5], &[2, 3, 2], &mut rng).unwrap();
        let d = TuckerDecomp {
            core: m.core,
            factors: m.factors,
        };
        let full = d.reconstruct().unwrap();
        let mut e = QueryEngine::with_cache_bytes(d, 0).unwrap();
        let r = Range::new(vec![(1, 4), (0, 6), (2, 3)]);
        let got = e.query(&r).unwrap();
        assert_close(&got, &full.subtensor(r.bounds()).unwrap());
        assert_eq!(e.cache_stats().hits, 0);
        assert_eq!(e.cache_stats().insertions, 0);
    }

    #[test]
    fn batch_matches_individual_queries() {
        let (mut e, full) = engine(6);
        let ranges = vec![
            Range::new(vec![(0, 2), (0, 7), (0, 6)]),
            Range::new(vec![(4, 5), (2, 3), (1, 2)]),
            Range::new(vec![(0, 2), (0, 7), (2, 4)]),
            Range::new(vec![(4, 5), (2, 3), (1, 2)]),
        ];
        let out = e.query_batch(&ranges).unwrap();
        assert_eq!(out.len(), ranges.len());
        for (r, got) in ranges.iter().zip(&out) {
            assert_close(got, &full.subtensor(r.bounds()).unwrap());
        }
        // Duplicate queries in one batch are served from cache.
        assert!(e.cache_stats().hits > 0);
    }

    #[test]
    fn invalid_ranges_are_typed_errors() {
        let (mut e, _) = engine(7);
        for bad in [
            Range::new(vec![(0, 9), (0, 7)]),
            Range::new(vec![(0, 10), (0, 7), (0, 6)]),
            Range::new(vec![(3, 3), (0, 7), (0, 6)]),
        ] {
            assert!(matches!(
                e.query(&bad),
                Err(QueryError::InvalidRange { .. })
            ));
            assert!(e.sum(&bad).is_err());
            assert!(e.query_batch(std::slice::from_ref(&bad)).is_err());
        }
    }

    #[test]
    fn profile_records_phases() {
        let (mut e, _) = engine(8);
        let _ = e.query(&Range::new(vec![(0, 9), (0, 7), (0, 6)])).unwrap();
        let p = e.profile();
        assert!(p.count("plan") >= 1);
        assert!(p.count("cache") >= 1);
        assert!(p.count("contract") >= 1);
        e.reset_profile();
        assert_eq!(e.profile().count("plan"), 0);
    }

    #[test]
    fn open_from_artifact() {
        let dir = std::env::temp_dir().join(format!("dtucker_query_open_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let m = random_tucker(&[6, 5, 4], &[2, 2, 2], &mut rng).unwrap();
        let d = TuckerDecomp {
            core: m.core,
            factors: m.factors,
        };
        let full = d.reconstruct().unwrap();
        let path = store.save_decomposition("d", &d).unwrap();

        let mut by_path = QueryEngine::open(&path).unwrap();
        let mut by_name = QueryEngine::from_store(&store, "d").unwrap();
        assert_eq!(by_path.shape(), &[6, 5, 4]);
        assert_eq!(by_name.ranks(), &[2, 2, 2]);
        let v = by_path.element(&[1, 2, 3]).unwrap();
        assert!((v - full.get(&[1, 2, 3])).abs() < 1e-9);
        assert_eq!(v.to_bits(), by_name.element(&[1, 2, 3]).unwrap().to_bits());
        assert!(QueryEngine::open(dir.join("missing.dts")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
