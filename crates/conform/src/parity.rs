//! Kernel parity at scale: serial vs persistent-pool execution at forced
//! thread counts.
//!
//! The kernel runtime promises that row-partitioned kernels (CSR SpMV,
//! SELL-C-σ SpMV, multicolour SymGS, AXPY) are **bit-identical** to their
//! serial forms at any thread count, and that reductions (dot, fused
//! SpMV+dot, AXPY+norm) are deterministic for a fixed thread count —
//! reassociated relative to serial, but exactly repeatable. This suite
//! pins teams to 2, 4 and 8 configured threads regardless of how many
//! cores the host has and holds the runtime to both promises, checking the
//! pool's dispatch counter to prove the parallel path actually ran.

use a64fx_core::Table;
use sparsela::coloring::{mc_symgs_sweep, Coloring};
use sparsela::ell::SellMatrix;
use sparsela::gen::stencil27;
use sparsela::{cg_solve, CsrMatrix, Team};

/// Thread counts exercised — configured counts, not host parallelism.
pub const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// Thread counts for the blocked-kernel parity section: the data-level
/// optimisations must be invisible at the serial fallback (1) and on the
/// pooled paths (2, 4) alike.
pub const BLOCKED_THREAD_COUNTS: [usize; 3] = [1, 2, 4];

const GRID: (usize, usize, usize) = (12, 12, 12);
const CG_MAX_ITER: usize = 500;
const CG_RTOL: f64 = 1e-8;

fn problem() -> (CsrMatrix, Vec<f64>, Vec<f64>) {
    let (nx, ny, nz) = GRID;
    let a = stencil27(nx, ny, nz);
    let x: Vec<f64> = (0..a.cols()).map(|i| (i as f64 * 0.173).sin()).collect();
    let mut b = vec![0.0; a.rows()];
    a.spmv(&x, &mut b); // b = A·(known vector): CG has an exact target
    (a, x, b)
}

struct Checker {
    table: Table,
    failures: Vec<String>,
}

impl Checker {
    fn record(&mut self, check: &str, threads: usize, result: Result<String, String>) {
        let (cell, failed) = match &result {
            Ok(ok) => (format!("pass ({ok})"), false),
            Err(e) => (format!("FAIL: {e}"), true),
        };
        self.table
            .push_row(vec![check.to_string(), threads.to_string(), cell]);
        if failed {
            self.failures.push(format!(
                "{check} @ {threads} threads: {}",
                result.unwrap_err()
            ));
        }
    }
}

fn bitwise_eq(a: &[f64], b: &[f64]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("length {} vs {}", a.len(), b.len()));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x.to_bits() != y.to_bits() {
            return Err(format!("first divergence at [{i}]: {x:e} vs {y:e}"));
        }
    }
    Ok(())
}

/// Run the full parity suite; returns the report table and failures.
pub fn run() -> (Table, Vec<String>) {
    let (a, x, b) = problem();
    let n = a.rows();
    let mut chk = Checker {
        table: Table::new(
            "PARITY",
            "Kernel parity: serial vs pooled Team at configured thread counts",
            &["Check", "Threads", "Result"],
        ),
        failures: Vec::new(),
    };

    // Serial baselines.
    let mut y_serial = vec![0.0; n];
    a.spmv(&x, &mut y_serial);
    let sell = SellMatrix::from_csr(&a, 8, 32);
    let mut y_sell_serial = vec![0.0; n];
    sell.spmv(&x, &mut y_sell_serial);
    let coloring = Coloring::stencil8(GRID.0, GRID.1, GRID.2);
    let mut gs_serial = vec![0.0; n];
    mc_symgs_sweep(&a, &coloring, &b, &mut gs_serial);
    let serial_cg = {
        let mut xs = vec![0.0; n];
        cg_solve(&a, &b, &mut xs, CG_MAX_ITER, CG_RTOL)
    };

    for t in THREAD_COUNTS {
        // Cutover disabled: the suite's fixture sits below the default
        // small-kernel serial cutover, and the promises under test are the
        // pooled paths' — which serial fallback would vacuously satisfy.
        let team = Team::with_serial_cutover(t, 0);
        if !team.would_parallelize(n) {
            chk.record(
                "problem size takes the parallel path",
                t,
                Err(format!("{n} rows would run serially")),
            );
            continue;
        }

        // CSR SpMV bit-identical to serial.
        let mut y = vec![0.0; n];
        let before = team.pool().dispatches();
        team.spmv(&a, &x, &mut y);
        chk.record(
            "CSR SpMV pooled == serial (bitwise)",
            t,
            bitwise_eq(&y_serial, &y).map(|()| "bit-identical".into()),
        );

        // SELL-C-sigma SpMV bit-identical to its serial kernel.
        let mut ys = vec![0.0; n];
        team.sell_spmv(&sell, &x, &mut ys);
        chk.record(
            "SELL-C-sigma SpMV pooled == serial (bitwise)",
            t,
            bitwise_eq(&y_sell_serial, &ys).map(|()| "bit-identical".into()),
        );

        // Multicolour SymGS bit-identical to the serial sweep.
        let mut gs = vec![0.0; n];
        team.mc_symgs_sweep(&a, &coloring, &b, &mut gs);
        chk.record(
            "MC-SymGS pooled == serial (bitwise)",
            t,
            bitwise_eq(&gs_serial, &gs).map(|()| "bit-identical".into()),
        );

        // Fused kernels agree with their unfused counterparts bitwise on
        // the vector output, and reductions repeat exactly.
        let mut yf = vec![0.0; n];
        let (pap1, _) = team.spmv_dot(&a, &x, &mut yf);
        chk.record(
            "fused SpMV+dot vector == plain SpMV (bitwise)",
            t,
            bitwise_eq(&y_serial, &yf).map(|()| "bit-identical".into()),
        );
        let mut yf2 = vec![0.0; n];
        let (pap2, _) = team.spmv_dot(&a, &x, &mut yf2);
        chk.record(
            "fused SpMV+dot reduction repeats exactly",
            t,
            if pap1.to_bits() == pap2.to_bits() {
                Ok(format!("{pap1:.6e} both runs"))
            } else {
                Err(format!("{pap1:e} vs {pap2:e}"))
            },
        );
        let mut ax_serial = b.clone();
        for (o, v) in ax_serial.iter_mut().zip(&x) {
            *o += 2.5 * v;
        }
        let mut ax = b.clone();
        team.axpy(2.5, &x, &mut ax);
        chk.record(
            "AXPY pooled == serial (bitwise)",
            t,
            bitwise_eq(&ax_serial, &ax).map(|()| "bit-identical".into()),
        );
        let (d1, _) = team.dot(&x, &b);
        let (d2, _) = team.dot(&x, &b);
        chk.record(
            "dot reduction repeats exactly",
            t,
            if d1.to_bits() == d2.to_bits() {
                Ok(format!("{d1:.6e} both runs"))
            } else {
                Err(format!("{d1:e} vs {d2:e}"))
            },
        );

        // The pooled path genuinely ran: the dispatch counter advanced.
        let after = team.pool().dispatches();
        chk.record(
            "pool dispatch counter advanced",
            t,
            if after > before {
                Ok(format!("{} dispatches", after - before))
            } else {
                Err(format!("counter stuck at {after}"))
            },
        );

        // Pooled CG: converges like serial and repeats bit-identically.
        let mut x1 = vec![0.0; n];
        let (it1, rel1, _) = team.cg_solve(&a, &b, &mut x1, CG_MAX_ITER, CG_RTOL);
        let mut x2 = vec![0.0; n];
        let (it2, rel2, _) = team.cg_solve(&a, &b, &mut x2, CG_MAX_ITER, CG_RTOL);
        chk.record(
            "pooled CG repeat run bit-identical",
            t,
            if it1 == it2 && rel1.to_bits() == rel2.to_bits() {
                bitwise_eq(&x1, &x2).map(|()| format!("{it1} iters, rel {rel1:.2e}"))
            } else {
                Err(format!("iters {it1} vs {it2}, rel {rel1:e} vs {rel2:e}"))
            },
        );
        chk.record(
            "pooled CG converges like serial",
            t,
            if rel1 <= CG_RTOL && it1.abs_diff(serial_cg.iterations) <= 3 {
                Ok(format!("{it1} iters vs serial {}", serial_cg.iterations))
            } else {
                Err(format!(
                    "rel {rel1:e}, {it1} iters vs serial {} ({})",
                    serial_cg.iterations, serial_cg.rel_residual
                ))
            },
        );
    }

    blocked_section(&mut chk, &a, &x, &b, &coloring, &sell, &y_sell_serial);

    chk.table.note(format!(
        "{}x{}x{} 27-point stencil ({n} rows); serial CG: {} iterations to rel {:.2e}",
        GRID.0, GRID.1, GRID.2, serial_cg.iterations, serial_cg.rel_residual
    ));
    chk.table
        .note("thread counts are configured on the team, not taken from the host's core count");
    chk.table.note(
        "blocked section: every data-level-optimised kernel vs its naive reference \
         (bitwise, or the documented ulp bound for chunked reductions) at 1/2/4 threads",
    );
    (chk.table, chk.failures)
}

/// The blocked-kernel parity section: every data-level-optimised kernel
/// (register-tiled GEMM, the packed Nekbone batch, tiled tensor
/// contractions, chunked SELL SpMV, the cache-blocked MC-SymGS sweep, the
/// tile-gathered 3-D FFT, and the chunk-aligned elementwise Team kernels)
/// against its naive reference. Elementwise and reordering-free kernels
/// must be bit-identical; the chunked reductions must sit inside their
/// documented ulp bound. Thread-dependent paths run at every
/// [`BLOCKED_THREAD_COUNTS`] entry, including the serial fallback.
#[allow(clippy::too_many_arguments)]
fn blocked_section(
    chk: &mut Checker,
    a: &CsrMatrix,
    x: &[f64],
    b: &[f64],
    coloring: &Coloring,
    sell: &SellMatrix,
    y_sell_serial: &[f64],
) {
    let n = a.rows();

    // Serial-only blocked kernels: thread-independent, checked once across
    // several tile shapes (recorded under "1 thread").
    {
        use densela::gemm;
        let (m, nn, k) = (17, 9, 13);
        let am: Vec<f64> = (0..m * k).map(|i| (i as f64 * 0.31).sin()).collect();
        let bm: Vec<f64> = (0..k * nn).map(|i| (i as f64 * 0.07).cos()).collect();
        let mut ok = Ok("bit-identical across tiles {1,3,8,16}".to_string());
        for (mr, nr) in [(1, 1), (3, 3), (8, 4), (16, 16)] {
            let mut c_ref: Vec<f64> = (0..m * nn).map(|i| i as f64 * 0.5 - 3.0).collect();
            let mut c_blk = c_ref.clone();
            gemm::gemm(m, nn, k, 1.3, &am, &bm, -0.7, &mut c_ref);
            gemm::gemm_blocked_with(m, nn, k, 1.3, &am, &bm, -0.7, &mut c_blk, mr, nr);
            if let Err(e) = bitwise_eq(&c_ref, &c_blk) {
                ok = Err(format!("tile {mr}x{nr}: {e}"));
            }
        }
        chk.record("blocked GEMM == naive (bitwise)", 1, ok);

        const P: usize = 9;
        const NEL: usize = 7;
        let ab: Vec<f64> = (0..P * P).map(|i| (i as f64 * 0.11).sin()).collect();
        let bb: Vec<f64> = (0..NEL * P * P).map(|i| (i as f64 * 0.05).cos()).collect();
        let mut c_ref = vec![0.25; NEL * P * P];
        let mut c_blk = c_ref.clone();
        gemm::small_gemm_batch_ref(P, P, P, 2.0, &ab, &bb, 0.5, &mut c_ref);
        gemm::small_gemm_batch(P, P, P, 2.0, &ab, &bb, 0.5, &mut c_blk);
        chk.record(
            "packed GEMM batch == per-element naive (bitwise)",
            1,
            bitwise_eq(&c_ref, &c_blk).map(|()| "bit-identical".into()),
        );
    }
    {
        use densela::tensor;
        const P: usize = 9;
        let d = densela::DMatrix::from_fn(P, P, |r, c| ((r * P + c) as f64 * 0.023).sin());
        let u: Vec<f64> = (0..P * P * P).map(|i| (i as f64 * 0.017).cos()).collect();
        let mut o_ref = vec![0.0; P * P * P];
        let mut o_blk = vec![0.0; P * P * P];
        let mut ok = Ok("3 axes x tiles {1,3,8,16}".to_string());
        type Naive = fn(&densela::DMatrix, usize, &[f64], &mut [f64]) -> densela::Work;
        type Tiled = fn(&densela::DMatrix, usize, &[f64], &mut [f64], usize) -> densela::Work;
        for (axis, naive, tiled) in [
            (
                0,
                tensor::apply_dim0 as Naive,
                tensor::apply_dim0_with as Tiled,
            ),
            (
                1,
                tensor::apply_dim1 as Naive,
                tensor::apply_dim1_with as Tiled,
            ),
            (
                2,
                tensor::apply_dim2 as Naive,
                tensor::apply_dim2_with as Tiled,
            ),
        ] {
            naive(&d, P, &u, &mut o_ref);
            for tile in [1usize, 3, 8, 16] {
                tiled(&d, P, &u, &mut o_blk, tile);
                if let Err(e) = bitwise_eq(&o_ref, &o_blk) {
                    ok = Err(format!("axis {axis} tile {tile}: {e}"));
                }
            }
        }
        chk.record("tiled tensor contractions == naive (bitwise)", 1, ok);
    }
    {
        const NF: usize = 8;
        let mk = || -> Vec<fftsim::Complex64> {
            (0..NF * NF * NF)
                .map(|i| fftsim::Complex64::new((i as f64 * 0.13).sin(), (i as f64 * 0.29).cos()))
                .collect()
        };
        let mut d_ref = mk();
        let mut d_blk = mk();
        fftsim::fft3_inplace(NF, &mut d_ref);
        fftsim::fft3d::fft3_inplace_blocked(NF, &mut d_blk);
        let cmp = |p: &[fftsim::Complex64], q: &[fftsim::Complex64]| -> Result<(), String> {
            for (i, (u, v)) in p.iter().zip(q).enumerate() {
                if u.re.to_bits() != v.re.to_bits() || u.im.to_bits() != v.im.to_bits() {
                    return Err(format!("first divergence at [{i}]"));
                }
            }
            Ok(())
        };
        let fwd = cmp(&d_ref, &d_blk);
        fftsim::fft3d::ifft3_inplace(NF, &mut d_ref);
        fftsim::fft3d::ifft3_inplace_blocked(NF, &mut d_blk);
        chk.record(
            "blocked 3-D FFT == naive (bitwise, fwd+inv)",
            1,
            fwd.and_then(|()| cmp(&d_ref, &d_blk))
                .map(|()| "bit-identical".into()),
        );
    }
    {
        // Chunked reductions: inside the documented ulp bound, and exactly
        // repeatable.
        let (d_ref, _) = densela::vecops::dot(x, b);
        let (d_chk, _) = densela::vecops::dot_chunked(x, b);
        let mag: f64 = x.iter().zip(b).map(|(p, q)| (p * q).abs()).sum();
        chk.record(
            "chunked dot within documented ulp bound",
            1,
            if (d_ref - d_chk).abs() <= 1e-12 * (1.0 + mag) {
                Ok(format!("|delta| = {:.2e}", (d_ref - d_chk).abs()))
            } else {
                Err(format!("{d_ref:e} vs {d_chk:e}"))
            },
        );
    }

    // Thread-dependent blocked paths: serial fallback and pooled lanes
    // must all reproduce the naive serial kernels.
    let mut gs_ref = vec![0.0; n];
    mc_symgs_sweep(a, coloring, b, &mut gs_ref);
    for t in BLOCKED_THREAD_COUNTS {
        let team = Team::with_serial_cutover(t, 0);

        let mut ys = vec![0.0; n];
        team.sell_spmv(sell, x, &mut ys);
        chk.record(
            "chunked SELL SpMV == naive SELL (bitwise)",
            t,
            bitwise_eq(y_sell_serial, &ys).map(|()| "bit-identical".into()),
        );

        let mut gs = vec![0.0; n];
        team.mc_symgs_sweep(a, coloring, b, &mut gs);
        chk.record(
            "blocked MC-SymGS == naive sweep (bitwise)",
            t,
            bitwise_eq(&gs_ref, &gs).map(|()| "bit-identical".into()),
        );

        let mut ax_ref = b.to_vec();
        for (o, v) in ax_ref.iter_mut().zip(x) {
            *o += -1.75 * v;
        }
        let mut ax = b.to_vec();
        team.axpy(-1.75, x, &mut ax);
        chk.record(
            "chunk-aligned AXPY == scalar (bitwise)",
            t,
            bitwise_eq(&ax_ref, &ax).map(|()| "bit-identical".into()),
        );

        let mut p_ref = b.to_vec();
        for (pv, rv) in p_ref.iter_mut().zip(x) {
            *pv = rv + 0.6 * *pv;
        }
        let mut p = b.to_vec();
        team.xpby(x, 0.6, &mut p);
        chk.record(
            "chunk-aligned XPBY == scalar (bitwise)",
            t,
            bitwise_eq(&p_ref, &p).map(|()| "bit-identical".into()),
        );
    }

    // The serial-vs-blocked sweep itself (no team): tiles of several sizes.
    {
        let mut ok = Ok("tiles {1,3,8,16,512}".to_string());
        for tile in [1usize, 3, 8, 16, 512] {
            let mut gs = vec![0.0; n];
            sparsela::coloring::mc_symgs_sweep_blocked_with(a, coloring, b, &mut gs, tile);
            if let Err(e) = bitwise_eq(&gs_ref, &gs) {
                ok = Err(format!("tile {tile}: {e}"));
            }
        }
        chk.record(
            "cache-blocked MC-SymGS == naive across tiles (bitwise)",
            1,
            ok,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_suite_is_clean() {
        let (table, failures) = run();
        assert!(failures.is_empty(), "{}", failures.join("\n"));
        // Every thread count contributed rows.
        for t in THREAD_COUNTS {
            assert!(
                table.rows.iter().any(|r| r[1] == t.to_string()),
                "no rows for {t} threads"
            );
        }
    }
}
