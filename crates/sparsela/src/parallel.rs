//! Shared-memory parallel kernels (the "OpenMP" half of the paper's
//! MPI+OpenMP configurations), built on the persistent
//! [`KernelPool`](densela::pool::KernelPool).
//!
//! The paper's hybrid minikab runs give each MPI rank a team of threads
//! that cooperate on the rank's rows. [`Team`] is that team: its pool is
//! spawned once (like an OpenMP thread team pinned for the lifetime of the
//! rank), every kernel is one generation-counted dispatch, each lane owns a
//! disjoint output range, and reductions combine per-lane partials *in lane
//! order* on the calling thread — deterministic for a fixed thread count.
//!
//! On top of the plain kernels the team carries the three rewrites the
//! optimised-HPCG story needs (paper Table III): multicolour symmetric
//! Gauss–Seidel fanned colour-by-colour across the pool, slice-parallel
//! SELL-C-σ SpMV, and fused CG kernels ([`Team::spmv_dot`],
//! [`Team::axpy_dot`], [`Team::xpby`]) that cut a full vector re-read per
//! CG iteration each.

use crate::cg::residual_sub_work;
use crate::coloring::{self, Coloring};
use crate::csr::CsrMatrix;
use crate::ell::SellMatrix;
use crate::partition::RowPartition;
use densela::pool::{KernelPool, SharedSlice};
use densela::Work;
use std::sync::Arc;

const F64B: u64 = 8;

/// Default serial cutover, in kernel inner-loop operations (vector
/// elements for the streaming kernels, stored nonzeros for the SpMV
/// family). Below this a pool dispatch costs more than it buys: the
/// `BENCH_kernels.json` small-kernel rows (48³ dot/axpy, the 16³ CG)
/// ran 0.81–0.83x *slower* pooled than serial before the cutover, and
/// the crossover sits near 2.5e5 ops on the benched host. Kernels at or
/// above the cutover keep the pooled path and its amortised-spawn win.
pub const DEFAULT_SERIAL_CUTOVER_OPS: usize = 262_144;

/// A persistent thread team for shared-memory kernels.
///
/// Cloning is cheap and shares the same pool (ranks hand the team to
/// helpers without respawning threads). `threads == 1` is the serial
/// fallback: no OS threads exist and every kernel runs inline. Kernels
/// smaller than the team's serial cutover (see
/// [`DEFAULT_SERIAL_CUTOVER_OPS`]) also run inline — identical results,
/// no dispatch overhead.
#[derive(Debug, Clone)]
pub struct Team {
    pool: Arc<KernelPool>,
    serial_cutover_ops: usize,
}

impl Team {
    /// A team of `threads` workers (1 = serial fallback) with the default
    /// small-kernel serial cutover. Spawns the worker threads immediately;
    /// they live until the last clone drops.
    pub fn new(threads: usize) -> Self {
        Self::with_serial_cutover(threads, DEFAULT_SERIAL_CUTOVER_OPS)
    }

    /// A team with an explicit serial cutover in kernel ops; `0` disables
    /// the cutover so every large-enough-to-partition kernel takes the
    /// pooled path (what the parity suite and pool-behaviour tests use to
    /// exercise the dispatch machinery on small fixtures).
    pub fn with_serial_cutover(threads: usize, serial_cutover_ops: usize) -> Self {
        assert!(threads >= 1, "a team needs at least one thread");
        Team {
            pool: Arc::new(KernelPool::new(threads)),
            serial_cutover_ops,
        }
    }

    /// A team sized to the machine (`available_parallelism`).
    pub fn with_available_parallelism() -> Self {
        Self::new(densela::pool::available_parallelism())
    }

    /// Workers in the team.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The team's serial cutover, in kernel ops (0 = disabled).
    pub fn serial_cutover_ops(&self) -> usize {
        self.serial_cutover_ops
    }

    /// The underlying pool (for callers composing their own jobs).
    pub fn pool(&self) -> &KernelPool {
        &self.pool
    }

    /// Whether a kernel of `ops` inner-loop operations should run
    /// serially: one thread, too little work to partition, or below the
    /// team's serial cutover.
    fn serial(&self, ops: usize) -> bool {
        self.threads() == 1 || ops < 2 * self.threads() || ops < self.serial_cutover_ops
    }

    /// Whether a vector kernel over `n` elements takes the pooled parallel
    /// path (as opposed to the inline serial fallback — one thread, too few
    /// elements, or below the serial cutover). A test seam: parity suites
    /// size their inputs (or disable the cutover) so this holds, then check
    /// the pool's dispatch counter actually advanced.
    pub fn would_parallelize(&self, n: usize) -> bool {
        !self.serial(n)
    }

    /// Row partition for a pooled kernel over `n` rows, reporting each
    /// lane's share to the ambient recorder — the per-dispatch imbalance
    /// histogram, in rows (the team's simulated work unit).
    fn partition(&self, n: usize) -> RowPartition {
        let part = RowPartition::new(n, self.threads());
        if obs::enabled() {
            for lane in 0..self.threads() {
                obs::observe("pool.lane_rows", part.count(lane) as f64);
            }
        }
        part
    }

    /// Chunk-aligned lane partition for the elementwise streaming kernels:
    /// interior boundaries land on [`densela::block::CHUNK`] multiples, so
    /// every lane's fixed-width inner loop sees whole chunks and the only
    /// scalar tail is the global one at `n`. Elementwise outputs depend on
    /// one index each, so shifting a boundary never changes a bit. Lanes
    /// past the returned ranges (possible when `n` has fewer chunks than
    /// lanes) simply idle. Reports lane shares like [`Team::partition`].
    fn aligned_partition(&self, n: usize) -> Vec<(usize, usize)> {
        let ranges = densela::block::aligned_ranges(n, self.threads(), densela::block::CHUNK);
        if obs::enabled() {
            for lane in 0..self.threads() {
                let rows = ranges.get(lane).map(|&(lo, hi)| hi - lo).unwrap_or(0);
                obs::observe("pool.lane_rows", rows as f64);
            }
        }
        ranges
    }

    /// Parallel SpMV `y = A x`: rows are block-partitioned over the team;
    /// every lane writes only its own range of `y`. Row results are
    /// bit-identical to [`CsrMatrix::spmv`].
    pub fn spmv(&self, a: &CsrMatrix, x: &[f64], y: &mut [f64]) -> Work {
        assert_eq!(x.len(), a.cols(), "spmv: x length mismatch");
        assert_eq!(y.len(), a.rows(), "spmv: y length mismatch");
        if self.serial(a.nnz()) {
            return a.spmv(x, y);
        }
        let part = self.partition(a.rows());
        let out = SharedSlice::new(y);
        self.pool.run(|lane| {
            let (lo, hi) = part.range(lane);
            // SAFETY: lanes own disjoint row ranges of `y`.
            let ys = unsafe { out.range_mut(lo, hi) };
            for (i, yr) in ys.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (c, v) in a.row(lo + i) {
                    acc += v * x[c];
                }
                *yr = acc;
            }
        });
        a.spmv_work()
    }

    /// Fused SpMV + dot: `y = A p`, returning `p · y` as well. Saves the
    /// separate reduction pass over both vectors (the `p·Ap` step of CG).
    /// The extra work over a plain SpMV is 2n flops and no extra traffic —
    /// `p[r]` and `y[r]` are already in registers when the row finishes.
    pub fn spmv_dot(&self, a: &CsrMatrix, p: &[f64], y: &mut [f64]) -> (f64, Work) {
        assert_eq!(p.len(), a.cols(), "spmv_dot: p length mismatch");
        assert_eq!(y.len(), a.rows(), "spmv_dot: y length mismatch");
        assert_eq!(a.rows(), a.cols(), "spmv_dot needs a square matrix");
        let n = a.rows();
        let extra = Work::new(2 * n as u64, 0, 0);
        if self.serial(a.nnz()) {
            let w = a.spmv(p, y);
            let mut acc = 0.0;
            for r in 0..n {
                acc += p[r] * y[r];
            }
            return (acc, w + extra);
        }
        let t = self.threads();
        let part = self.partition(n);
        let mut partials = vec![0.0f64; t];
        let parts = SharedSlice::new(&mut partials);
        let out = SharedSlice::new(y);
        self.pool.run(|lane| {
            let (lo, hi) = part.range(lane);
            // SAFETY: lanes own disjoint row ranges of `y` and lane-private
            // partial slots.
            let ys = unsafe { out.range_mut(lo, hi) };
            let mut dot = 0.0;
            for (i, yr) in ys.iter_mut().enumerate() {
                let r = lo + i;
                let mut acc = 0.0;
                for (c, v) in a.row(r) {
                    acc += v * p[c];
                }
                *yr = acc;
                dot += p[r] * acc;
            }
            unsafe { parts.set(lane, dot) };
        });
        (partials.iter().sum(), a.spmv_work() + extra)
    }

    /// Parallel dot product. Per-lane partials are combined in lane order
    /// on the calling thread, so the result is deterministic for a fixed
    /// thread count (and equals the serial sum up to reassociation).
    pub fn dot(&self, x: &[f64], y: &[f64]) -> (f64, Work) {
        assert_eq!(x.len(), y.len(), "dot: length mismatch");
        if self.serial(x.len()) {
            return densela::vecops::dot(x, y);
        }
        let t = self.threads();
        let part = self.partition(x.len());
        let mut partials = vec![0.0f64; t];
        let parts = SharedSlice::new(&mut partials);
        self.pool.run(|lane| {
            let (lo, hi) = part.range(lane);
            let mut acc = 0.0;
            for i in lo..hi {
                acc += x[i] * y[i];
            }
            // SAFETY: lane-private slot.
            unsafe { parts.set(lane, acc) };
        });
        let n = x.len() as u64;
        (partials.iter().sum(), Work::new(2 * n, 16 * n, 0))
    }

    /// Parallel squared 2-norm (one-operand dot, streamed once).
    pub fn norm2_sq(&self, x: &[f64]) -> (f64, Work) {
        if self.serial(x.len()) {
            return densela::vecops::norm2_sq(x);
        }
        let t = self.threads();
        let part = self.partition(x.len());
        let mut partials = vec![0.0f64; t];
        let parts = SharedSlice::new(&mut partials);
        self.pool.run(|lane| {
            let (lo, hi) = part.range(lane);
            let mut acc = 0.0;
            for i in lo..hi {
                acc += x[i] * x[i];
            }
            // SAFETY: lane-private slot.
            unsafe { parts.set(lane, acc) };
        });
        let n = x.len() as u64;
        (partials.iter().sum(), Work::new(2 * n, 8 * n, 0))
    }

    /// Parallel AXPY `y += alpha x`. Bit-identical to the serial kernel.
    /// Lane ranges are chunk-aligned and each lane runs the fixed-width
    /// chunked kernel, so only the global tail falls back to scalar code.
    pub fn axpy(&self, alpha: f64, x: &[f64], y: &mut [f64]) -> Work {
        assert_eq!(x.len(), y.len(), "axpy: length mismatch");
        if self.serial(x.len()) {
            return densela::vecops::axpy_chunked(alpha, x, y);
        }
        let ranges = self.aligned_partition(x.len());
        let out = SharedSlice::new(y);
        self.pool.run(|lane| {
            let Some(&(lo, hi)) = ranges.get(lane) else {
                return;
            };
            // SAFETY: lanes own disjoint ranges of `y`.
            let ys = unsafe { out.range_mut(lo, hi) };
            densela::vecops::axpy_chunked(alpha, &x[lo..hi], ys);
        });
        let n = x.len() as u64;
        Work::new(2 * n, 16 * n, 8 * n)
    }

    /// Fused AXPY + squared norm: `y += alpha x`, returning `y · y` of the
    /// updated vector (the `r -= alpha Ap; rr = r·r` step of CG in one
    /// pass). Saves re-reading `y` for the reduction: 4n flops on 16n read
    /// + 8n written, versus 24n read for the unfused pair.
    pub fn axpy_dot(&self, alpha: f64, x: &[f64], y: &mut [f64]) -> (f64, Work) {
        assert_eq!(x.len(), y.len(), "axpy_dot: length mismatch");
        let n = x.len() as u64;
        let work = Work::new(4 * n, 16 * n, 8 * n);
        if self.serial(x.len()) {
            let mut acc = 0.0;
            for (a, b) in x.iter().zip(y.iter_mut()) {
                *b += alpha * a;
                acc += *b * *b;
            }
            return (acc, work);
        }
        let t = self.threads();
        let part = self.partition(x.len());
        let mut partials = vec![0.0f64; t];
        let parts = SharedSlice::new(&mut partials);
        let out = SharedSlice::new(y);
        self.pool.run(|lane| {
            let (lo, hi) = part.range(lane);
            // SAFETY: disjoint ranges of `y`; lane-private partial slots.
            let ys = unsafe { out.range_mut(lo, hi) };
            let mut acc = 0.0;
            for (i, yv) in ys.iter_mut().enumerate() {
                *yv += alpha * x[lo + i];
                acc += *yv * *yv;
            }
            unsafe { parts.set(lane, acc) };
        });
        (partials.iter().sum(), work)
    }

    /// Parallel `p = r + beta p` (the CG search-direction update).
    /// Chunk-aligned lane ranges + the fixed-width chunked kernel per
    /// lane, like [`Team::axpy`]; bit-identical to the scalar loop.
    pub fn xpby(&self, r: &[f64], beta: f64, p: &mut [f64]) -> Work {
        assert_eq!(r.len(), p.len(), "xpby: length mismatch");
        if self.serial(r.len()) {
            return densela::vecops::xpby_chunked(r, beta, p);
        }
        let ranges = self.aligned_partition(r.len());
        let out = SharedSlice::new(p);
        self.pool.run(|lane| {
            let Some(&(lo, hi)) = ranges.get(lane) else {
                return;
            };
            // SAFETY: lanes own disjoint ranges of `p`.
            let ps = unsafe { out.range_mut(lo, hi) };
            densela::vecops::xpby_chunked(&r[lo..hi], beta, ps);
        });
        let n = r.len() as u64;
        Work::new(2 * n, 16 * n, 8 * n)
    }

    /// Parallel multicolour symmetric Gauss–Seidel sweep: each colour
    /// group's rows are mutually independent, so one group is one pool
    /// dispatch; the forward-then-backward colour order of the serial
    /// [`coloring::mc_symgs_sweep`] is preserved and the result is
    /// bit-identical to it (row results depend only on rows of *other*
    /// colours, which no lane is writing).
    pub fn mc_symgs_sweep(
        &self,
        a: &CsrMatrix,
        coloring: &Coloring,
        b: &[f64],
        x: &mut [f64],
    ) -> Work {
        assert_eq!(a.rows(), a.cols());
        assert_eq!(b.len(), a.rows());
        assert_eq!(x.len(), a.rows());
        if self.threads() == 1 {
            // The cache-blocked serial sweep is bit-identical to the naive
            // one and faster (diagonal gathered once, slice row access).
            return coloring::mc_symgs_sweep_blocked(a, coloring, b, x);
        }
        debug_assert!(coloring.is_valid_for(a), "invalid colouring");
        let t = self.threads();
        let groups = coloring.groups();
        // Gather the diagonal once per sweep instead of re-scanning every
        // row's entries in both directions (same value, so bit-identity
        // with the serial sweep is preserved).
        let diag: Vec<f64> = (0..a.rows()).map(|r| a.diag(r)).collect();
        let xs = SharedSlice::new(x);
        // SAFETY (both closures): within one colour group, each row is
        // written by exactly one lane, and off-diagonal reads only touch
        // rows of other colours — which nothing writes during this group.
        let relax_row = |r: usize| {
            let d = diag[r];
            if d == 0.0 {
                return;
            }
            let mut acc = b[r];
            let (cols, vals) = a.row_parts(r);
            for (cc, v) in cols.iter().zip(vals) {
                let c = *cc as usize;
                if c != r {
                    acc -= v * unsafe { xs.get(c) };
                }
            }
            unsafe { xs.set(r, acc / d) };
        };
        // Gate each colour group on its share of the matrix's nonzeros —
        // a group's relaxation cost scales with nnz, not row count.
        let nnz_per_row = a.nnz() / a.rows().max(1);
        let relax_group = |rows: &[usize]| {
            if rows.len() < 2 * t || self.serial(rows.len().saturating_mul(nnz_per_row.max(1))) {
                for &r in rows {
                    relax_row(r);
                }
            } else {
                let part = self.partition(rows.len());
                self.pool.run(|lane| {
                    let (lo, hi) = part.range(lane);
                    for &r in &rows[lo..hi] {
                        relax_row(r);
                    }
                });
            }
        };
        for g in &groups {
            relax_group(g);
        }
        for g in groups.iter().rev() {
            relax_group(g);
        }
        coloring::mc_symgs_work(a)
    }

    /// Slice-parallel SELL-C-σ SpMV: slices (groups of C rows) are
    /// block-partitioned over the team at slice granularity. Each slice
    /// writes a disjoint set of output rows (through the σ-permutation),
    /// and per-row arithmetic is identical to [`SellMatrix::spmv`], so the
    /// result is bit-identical.
    ///
    /// The serial cutover gates on *slice row-ops* — [`SellMatrix::stored`]
    /// counts padded entries too, which cost vector-unit work just like
    /// real non-zeros — and both the serial fallback and the pooled lanes
    /// run the unrolled chunked kernel
    /// ([`SellMatrix::spmv_slices_chunked`]), so SELL never pays the
    /// dispatch machinery for work the padding already made cheap.
    pub fn sell_spmv(&self, m: &SellMatrix, x: &[f64], y: &mut [f64]) -> Work {
        assert_eq!(x.len(), m.cols(), "sell_spmv: x length mismatch");
        assert_eq!(y.len(), m.rows(), "sell_spmv: y length mismatch");
        let ns = m.num_slices();
        if self.serial(m.stored()) || ns < self.threads() {
            return m.spmv_chunked(x, y);
        }
        let part = self.partition(ns);
        let out = SharedSlice::new(y);
        self.pool.run(|lane| {
            let (lo, hi) = part.range(lane);
            // SAFETY: slices own disjoint row sets; `spmv_slices_chunked`
            // writes only rows of slices `lo..hi`.
            unsafe { m.spmv_slices_chunked(lo, hi, x, &out) };
        });
        m.spmv_work()
    }

    /// Parallel CG on an SPD matrix; identical mathematics to
    /// [`crate::cg::cg_solve`] but running on the persistent pool with the
    /// fused kernels (one SpMV+dot, one AXPY, one AXPY+norm and one
    /// search-direction update per iteration — threads are spawned once for
    /// the whole solve, not per kernel call). Returns (iterations, relative
    /// residual, work).
    ///
    /// Work accounting: the prologue is counted exactly like the serial
    /// solver (including the `r = b - A x` subtraction pass the old team
    /// solver forgot); per-iteration work is counted for the *fused*
    /// kernels, which genuinely move fewer bytes than the serial sequence.
    pub fn cg_solve(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        x: &mut [f64],
        max_iter: usize,
        rtol: f64,
    ) -> (usize, f64, Work) {
        let n = b.len();
        assert_eq!(x.len(), n);
        let mut work = Work::ZERO;
        let (bnorm_sq, w) = self.norm2_sq(b);
        work += w;
        let bnorm = bnorm_sq.sqrt();
        if bnorm == 0.0 {
            x.fill(0.0);
            return (0, 0.0, work);
        }
        let mut r = vec![0.0; n];
        work += self.spmv(a, x, &mut r);
        for i in 0..n {
            r[i] = b[i] - r[i];
        }
        work += residual_sub_work(n);
        let p_vec = r.clone();
        work += Work::new(0, n as u64 * F64B, n as u64 * F64B); // the p = r copy
        let mut p = p_vec;
        let (mut rr, w) = self.dot(&r, &r);
        work += w;
        let mut ap = vec![0.0; n];
        let mut iters = 0;
        let mut rel = rr.sqrt() / bnorm;
        while iters < max_iter && rel > rtol {
            iters += 1;
            let (pap, w) = self.spmv_dot(a, &p, &mut ap);
            work += w;
            if pap <= 0.0 {
                break;
            }
            let alpha = rr / pap;
            work += self.axpy(alpha, &p, x);
            let (rr_new, w) = self.axpy_dot(-alpha, &ap, &mut r);
            work += w;
            let beta = rr_new / rr;
            rr = rr_new;
            rel = rr.sqrt() / bnorm;
            work += self.xpby(&r, beta, &mut p);
        }
        (iters, rel, work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{poisson7, stencil27, structural3d};

    /// A team with the serial cutover disabled: these tests exercise the
    /// pool dispatch machinery on fixtures far below the default cutover.
    fn pooled(threads: usize) -> Team {
        Team::with_serial_cutover(threads, 0)
    }

    #[test]
    fn parallel_spmv_matches_serial() {
        let a = stencil27(10, 9, 8);
        let x: Vec<f64> = (0..a.cols()).map(|i| (i as f64 * 0.17).sin()).collect();
        let mut y_serial = vec![0.0; a.rows()];
        a.spmv(&x, &mut y_serial);
        for threads in [2usize, 3, 4, 7] {
            let team = pooled(threads);
            let mut y_par = vec![0.0; a.rows()];
            team.spmv(&a, &x, &mut y_par);
            assert_eq!(y_serial, y_par, "{threads} threads");
        }
    }

    #[test]
    fn pooled_kernels_record_lane_imbalance_histogram() {
        let rec = std::sync::Arc::new(obs::MemRecorder::new());
        obs::with_recorder(rec.clone(), || {
            // 10 rows over 4 lanes: 3/3/2/2.
            let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
            pooled(4).dot(&x, &x);
        });
        let h = rec.histogram("pool.lane_rows").unwrap();
        assert_eq!(h.count, 4, "one observation per lane");
        assert_eq!(h.sum, 10.0, "lane shares cover every row");
        assert_eq!(rec.counter("pool.dispatches"), Some(1));
    }

    #[test]
    fn parallel_dot_matches_serial_to_roundoff() {
        let x: Vec<f64> = (0..10_001).map(|i| (i as f64 * 0.01).cos()).collect();
        let y: Vec<f64> = x.iter().map(|v| v * 1.5 - 0.25).collect();
        let (serial, _) = densela::vecops::dot(&x, &y);
        for threads in [2usize, 5, 8] {
            let (par, _) = pooled(threads).dot(&x, &y);
            assert!(
                (par - serial).abs() < 1e-9 * (1.0 + serial.abs()),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn parallel_axpy_matches_serial() {
        let x: Vec<f64> = (0..5_000).map(|i| i as f64).collect();
        let mut y1: Vec<f64> = x.iter().map(|v| -v).collect();
        let mut y2 = y1.clone();
        densela::vecops::axpy(0.5, &x, &mut y1);
        pooled(4).axpy(0.5, &x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn one_team_runs_many_kernels_without_respawning() {
        // The point of the pool: a long kernel sequence on one team. This
        // also exercises dispatch-after-dispatch reuse of the job slot.
        let team = pooled(4);
        let a = stencil27(8, 8, 8);
        let x: Vec<f64> = (0..a.cols()).map(|i| (i as f64 * 0.05).sin()).collect();
        let mut y = vec![0.0; a.rows()];
        let mut acc = vec![0.0; a.rows()];
        for _ in 0..50 {
            team.spmv(&a, &x, &mut y);
            team.axpy(0.01, &y, &mut acc);
            let (d, _) = team.dot(&acc, &y);
            assert!(d.is_finite());
        }
    }

    #[test]
    fn fused_axpy_dot_matches_unfused() {
        let x: Vec<f64> = (0..4_001).map(|i| (i as f64 * 0.13).sin()).collect();
        let y0: Vec<f64> = x.iter().map(|v| 0.7 - v).collect();
        for threads in [1usize, 4] {
            let team = pooled(threads);
            let mut y_fused = y0.clone();
            let (rr_fused, _) = team.axpy_dot(-0.3, &x, &mut y_fused);
            let mut y_ref = y0.clone();
            densela::vecops::axpy(-0.3, &x, &mut y_ref);
            assert_eq!(
                y_ref, y_fused,
                "{threads} threads: updated vector must be bit-equal"
            );
            let (rr_ref, _) = team.norm2_sq(&y_ref);
            assert_eq!(rr_ref.to_bits(), rr_fused.to_bits(), "{threads} threads");
        }
    }

    #[test]
    fn fused_spmv_dot_matches_unfused() {
        let a = stencil27(7, 6, 5);
        let p: Vec<f64> = (0..a.cols())
            .map(|i| ((i * 13) % 17) as f64 - 8.0)
            .collect();
        for threads in [1usize, 4] {
            let team = pooled(threads);
            let mut ap_fused = vec![0.0; a.rows()];
            let (pap_fused, _) = team.spmv_dot(&a, &p, &mut ap_fused);
            let mut ap_ref = vec![0.0; a.rows()];
            a.spmv(&p, &mut ap_ref);
            assert_eq!(ap_ref, ap_fused, "{threads} threads");
            let (pap_ref, _) = team.dot(&p, &ap_ref);
            assert!(
                (pap_ref - pap_fused).abs() <= 1e-9 * (1.0 + pap_ref.abs()),
                "{threads} threads: {pap_ref} vs {pap_fused}"
            );
        }
    }

    #[test]
    fn pooled_mc_symgs_is_bit_identical_to_serial() {
        let a = stencil27(6, 6, 6);
        let coloring = Coloring::stencil8(6, 6, 6);
        let b: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.31).cos()).collect();
        let mut x_serial = vec![0.0; a.rows()];
        let mut w_serial = Work::ZERO;
        for _ in 0..3 {
            w_serial += coloring::mc_symgs_sweep(&a, &coloring, &b, &mut x_serial);
        }
        for threads in [2usize, 4, 7] {
            let team = pooled(threads);
            let mut x_par = vec![0.0; a.rows()];
            let mut w_par = Work::ZERO;
            for _ in 0..3 {
                w_par += team.mc_symgs_sweep(&a, &coloring, &b, &mut x_par);
            }
            assert_eq!(x_serial, x_par, "{threads} threads");
            assert_eq!(w_serial, w_par, "{threads} threads: work models must agree");
        }
    }

    #[test]
    fn pooled_sell_spmv_is_bit_identical_to_serial() {
        for (a, c, sigma) in [
            (stencil27(8, 7, 6), 8, 32),
            (poisson7(6, 6, 6), 4, 16),
            (structural3d(3, 3, 3), 8, 8),
        ] {
            let sell = SellMatrix::from_csr(&a, c, sigma);
            let x: Vec<f64> = (0..a.cols()).map(|i| (i as f64 * 0.21).sin()).collect();
            let mut y_serial = vec![0.0; a.rows()];
            sell.spmv(&x, &mut y_serial);
            for threads in [2usize, 3, 5] {
                let team = pooled(threads);
                let mut y_par = vec![0.0; a.rows()];
                let w = team.sell_spmv(&sell, &x, &mut y_par);
                assert_eq!(y_serial, y_par, "{threads} threads (c={c}, sigma={sigma})");
                assert_eq!(w, sell.spmv_work());
            }
        }
    }

    #[test]
    fn parallel_cg_converges_like_serial() {
        let a = poisson7(6, 6, 6);
        let x_true: Vec<f64> = (0..a.rows()).map(|i| ((i % 9) as f64) - 4.0).collect();
        let mut b = vec![0.0; a.rows()];
        a.spmv(&x_true, &mut b);
        for threads in [1usize, 4] {
            let mut x = vec![0.0; a.rows()];
            let (iters, rel, work) = pooled(threads).cg_solve(&a, &b, &mut x, 400, 1e-10);
            assert!(
                rel <= 1e-10,
                "{threads} threads: rel {rel} after {iters} iters"
            );
            assert!(work.flops > 0);
            for (got, want) in x.iter().zip(&x_true) {
                assert!((got - want).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn parallel_cg_on_structural_matrix() {
        // The minikab shape: structural matrix, hybrid rank = a Team.
        let a = structural3d(3, 3, 3);
        let b: Vec<f64> = (0..a.rows()).map(|i| ((i * 3) % 7) as f64 - 3.0).collect();
        let mut x = vec![0.0; a.rows()];
        let (_, rel, _) = pooled(4).cg_solve(&a, &b, &mut x, 600, 1e-9);
        assert!(rel <= 1e-9, "rel {rel}");
    }

    #[test]
    fn pooled_cg_is_deterministic_across_runs() {
        // In-order partial reductions: two runs on the same team width
        // produce bit-identical iterates.
        let a = structural3d(3, 3, 3);
        let b: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.37).sin()).collect();
        let solve = || {
            let mut x = vec![0.0; a.rows()];
            let (iters, rel, work) = pooled(4).cg_solve(&a, &b, &mut x, 200, 1e-10);
            (x, iters, rel, work)
        };
        let (x1, i1, rel1, w1) = solve();
        let (x2, i2, rel2, w2) = solve();
        assert_eq!(i1, i2);
        assert_eq!(rel1.to_bits(), rel2.to_bits());
        assert_eq!(w1, w2);
        for (u, v) in x1.iter().zip(&x2) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn tiny_inputs_fall_back_to_serial() {
        let a = poisson7(2, 1, 1);
        let x = vec![1.0, 2.0];
        let mut y = vec![0.0; 2];
        Team::new(8).spmv(&a, &x, &mut y);
        let mut y2 = vec![0.0; 2];
        a.spmv(&x, &mut y2);
        assert_eq!(y, y2);
    }

    #[test]
    fn default_cutover_serialises_small_kernels_without_changing_results() {
        // The BENCH_kernels regression fix: a 48³-sized dot (1.1e5 elements,
        // below the 2.6e5-op cutover) must not pay a pool dispatch on a
        // default team, while a cutover-disabled team still dispatches.
        let n = 110_592;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
        let default_team = Team::new(4);
        assert_eq!(
            default_team.serial_cutover_ops(),
            DEFAULT_SERIAL_CUTOVER_OPS
        );
        assert!(!default_team.would_parallelize(n));
        let before = default_team.pool().dispatches();
        let (d_serial, _) = default_team.dot(&x, &x);
        assert_eq!(default_team.pool().dispatches(), before, "no dispatch");
        let bench_team = pooled(4);
        assert!(bench_team.would_parallelize(n));
        let before = bench_team.pool().dispatches();
        let (d_pooled, _) = bench_team.dot(&x, &x);
        assert_eq!(bench_team.pool().dispatches(), before + 1);
        // Lane-ordered reduction vs serial: equal to roundoff.
        assert!((d_serial - d_pooled).abs() <= 1e-9 * (1.0 + d_serial.abs()));
        // Above the cutover the default team parallelises again.
        assert!(default_team.would_parallelize(DEFAULT_SERIAL_CUTOVER_OPS));
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = Team::new(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::gen::poisson7;
    use proptest::prelude::*;

    fn pooled(threads: usize) -> Team {
        Team::with_serial_cutover(threads, 0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn pooled_spmv_bit_identical_across_sizes_and_widths(
            nx in 1usize..7, ny in 1usize..7, nz in 1usize..7,
            threads in 1usize..7,
            seed in 0u64..1000,
        ) {
            let a = poisson7(nx, ny, nz);
            let x: Vec<f64> = (0..a.cols())
                .map(|i| ((i as u64).wrapping_mul(seed + 1) % 1000) as f64 * 0.001 - 0.5)
                .collect();
            let mut y_serial = vec![0.0; a.rows()];
            a.spmv(&x, &mut y_serial);
            let mut y_par = vec![0.0; a.rows()];
            pooled(threads).spmv(&a, &x, &mut y_par);
            prop_assert_eq!(y_serial, y_par);
        }

        #[test]
        fn pooled_axpy_bit_identical(
            n in 1usize..3000,
            threads in 1usize..7,
            alpha in -4.0f64..4.0,
        ) {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin()).collect();
            let mut y1: Vec<f64> = (0..n).map(|i| (i as f64 * 0.07).cos()).collect();
            let mut y2 = y1.clone();
            densela::vecops::axpy(alpha, &x, &mut y1);
            pooled(threads).axpy(alpha, &x, &mut y2);
            prop_assert_eq!(y1, y2);
        }

        #[test]
        fn pooled_dot_deterministic_and_close_to_serial(
            n in 1usize..4000,
            threads in 1usize..7,
        ) {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.013).sin()).collect();
            let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.029).cos()).collect();
            let team = pooled(threads);
            let (d1, _) = team.dot(&x, &y);
            let (d2, _) = team.dot(&x, &y);
            // Deterministic: identical dispatches give identical bits.
            prop_assert_eq!(d1.to_bits(), d2.to_bits());
            let (serial, _) = densela::vecops::dot(&x, &y);
            prop_assert!((d1 - serial).abs() <= 1e-10 * (1.0 + serial.abs()),
                "{} vs {}", d1, serial);
        }

        #[test]
        fn pooled_mc_symgs_bit_identical(
            nx in 2usize..6, ny in 2usize..6, nz in 2usize..6,
            threads in 1usize..7,
        ) {
            let a = poisson7(nx, ny, nz);
            let coloring = Coloring::greedy(&a);
            let b: Vec<f64> = (0..a.rows()).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
            let mut x_serial = vec![0.0; a.rows()];
            coloring::mc_symgs_sweep(&a, &coloring, &b, &mut x_serial);
            let mut x_par = vec![0.0; a.rows()];
            pooled(threads).mc_symgs_sweep(&a, &coloring, &b, &mut x_par);
            prop_assert_eq!(x_serial, x_par);
        }

        #[test]
        fn pooled_sell_spmv_bit_identical(
            nx in 1usize..6, ny in 1usize..6, nz in 1usize..6,
            threads in 1usize..7,
            c_pick in 0usize..3,
        ) {
            let a = poisson7(nx, ny, nz);
            let c = [1usize, 4, 8][c_pick];
            let sell = SellMatrix::from_csr(&a, c, c * 4);
            let x: Vec<f64> = (0..a.cols()).map(|i| (i as f64 * 0.3).sin()).collect();
            let mut y_serial = vec![0.0; a.rows()];
            sell.spmv(&x, &mut y_serial);
            let mut y_par = vec![0.0; a.rows()];
            pooled(threads).sell_spmv(&sell, &x, &mut y_par);
            prop_assert_eq!(y_serial, y_par);
        }
    }
}
