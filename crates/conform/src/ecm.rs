//! ECM-pricing conformance: the hierarchy-aware backend must refine the
//! flat roofline, never contradict it.
//!
//! Three obligations, all pinned here (the E1 *values* themselves are
//! pinned by the golden suite, `goldens/e1.json`):
//!
//! 1. **Differential sweep.** For every system, every access pattern's
//!    representative kernel class, and forced 1/2/4 threads, the ECM price
//!    of a memory-bound kernel must (a) never exceed the flat price — the
//!    calibrated roofline is the model's upper envelope — (b) agree with
//!    flat within a small tolerance once the working set dwarfs the last
//!    cache level, and (c) diverge in the predicted direction — ECM
//!    strictly cheaper — while the working set is L1-resident.
//! 2. **Determinism.** E1 rendered twice must be byte-identical.
//! 3. **Default-invariance.** E1 is built from explicit backends, so
//!    running it under either run pricing (`--pricing` /
//!    `A64FX_PRICING`) must not move a byte of it — the guarantee that
//!    keeps every pre-existing golden stable under the flat default.

use a64fx_apps::KernelClass;
use a64fx_core::costmodel::{Executor, JobLayout, PricingBackend};
use a64fx_core::experiments::ecm::e1;
use a64fx_core::runner::RunConfig;
use a64fx_core::Table;
use archsim::{paper_toolchain, system, SystemId};
use densela::Work;

/// Thread counts the differential sweep forces per rank.
pub const FORCED_THREADS: [u32; 3] = [1, 2, 4];

/// L1-resident working set (bytes): the divergence regime.
pub const SMALL_WS: u64 = 32 * 1024;

/// Memory-resident working set (bytes): the convergence regime.
pub const LARGE_WS: u64 = 512 * 1024 * 1024;

/// Maximum allowed ECM/flat ratio at [`SMALL_WS`] — ECM must undercut
/// flat by at least this margin while the kernel lives in L1.
pub const DIVERGENCE_MAX: f64 = 0.9;

/// Maximum allowed |1 − ECM/flat| at [`LARGE_WS`].
pub const CONVERGENCE_TOL: f64 = 0.05;

/// The sweep's synthetic kernel: one traversal of the working set with no
/// flops at all, so the flat-vs-ECM differential isolates the *memory*
/// term — the only part the two backends price differently. (E1's
/// published kernel carries flops; some classes' calibrated flop ceilings
/// would mask the memory gap at L1-resident sizes.)
pub fn sweep_kernel(ws_bytes: u64) -> Work {
    Work::new(0, ws_bytes, 0)
}

/// One representative kernel class per access pattern: gather, strided,
/// streaming.
pub const SWEEP_CLASSES: [KernelClass; 3] = [
    KernelClass::SpMV,
    KernelClass::StencilFD,
    KernelClass::VectorOp,
];

/// Run the ECM suite: the flat-vs-ECM differential sweep, then the E1
/// determinism and default-invariance checks. Returns the report table
/// and any failures.
pub fn run() -> (Table, Vec<String>) {
    let mut table = Table::new(
        "ECM",
        "ECM pricing: flat-vs-ECM differential sweep at forced 1/2/4 \
         threads, then E1 determinism and pricing-default invariance",
        &["Check", "Case", "Cells", "Verdict"],
    );
    let mut failures = Vec::new();

    // 1. Differential sweep: envelope, convergence, divergence.
    let mut cells = 0usize;
    let mut bad = 0usize;
    for sys in SystemId::all() {
        let spec = system(sys);
        let tc = paper_toolchain(sys, "hpcg").unwrap();
        let flat = Executor::with_pricing(&spec, &tc, PricingBackend::Flat);
        let ecm = Executor::with_pricing(&spec, &tc, PricingBackend::Ecm);
        for threads in FORCED_THREADS {
            let layout = JobLayout {
                ranks: 1,
                ranks_per_node: 1,
                threads_per_rank: threads,
            };
            for class in SWEEP_CLASSES {
                for ws in [SMALL_WS, LARGE_WS] {
                    cells += 1;
                    let work = sweep_kernel(ws);
                    let t_flat = flat.kernel_time_us(layout, class, work, ws);
                    let t_ecm = ecm.kernel_time_us(layout, class, work, ws);
                    let ratio = t_ecm / t_flat;
                    let mut complain = |why: &str| {
                        bad += 1;
                        failures.push(format!(
                            "{} / {class:?} / {threads} threads / ws {ws}: {why} \
                             (flat {t_flat:.3}us, ecm {t_ecm:.3}us, ratio {ratio:.3})",
                            spec.name
                        ));
                    };
                    if !(t_ecm.is_finite() && t_flat.is_finite() && t_flat > 0.0) {
                        complain("non-finite price");
                        continue;
                    }
                    if ratio > 1.0 + 1e-12 {
                        complain("ECM exceeds the flat envelope");
                    }
                    if ws == LARGE_WS && (1.0 - ratio).abs() > CONVERGENCE_TOL {
                        complain("ECM must converge to flat at memory-resident ws");
                    }
                    if ws == SMALL_WS && ratio >= DIVERGENCE_MAX {
                        complain("ECM must undercut flat at L1-resident ws");
                    }
                }
            }
        }
    }
    table.push_row(vec![
        "differential".to_string(),
        format!(
            "{} systems x {} classes x {} thread counts x 2 working sets",
            SystemId::all().len(),
            SWEEP_CLASSES.len(),
            FORCED_THREADS.len()
        ),
        cells.to_string(),
        if bad == 0 {
            "within bands".to_string()
        } else {
            format!("{bad} VIOLATIONS")
        },
    ]);

    // 2. E1 double-run determinism.
    let first = e1().render();
    let second = e1().render();
    let deterministic = first == second;
    if !deterministic {
        failures.push("E1 double run drifted: renders differ".to_string());
    }
    table.push_row(vec![
        "determinism".to_string(),
        "E1 rendered twice".to_string(),
        "2".to_string(),
        if deterministic {
            "byte-identical".to_string()
        } else {
            "DRIFTED".to_string()
        },
    ]);

    // 3. Default-invariance: the run's pricing backend must not move a
    // byte of E1 (it is built from explicit backends).
    let under = |pricing| {
        RunConfig {
            pricing,
            ..RunConfig::default()
        }
        .scope(|| e1().render())
    };
    let under_ecm = under(PricingBackend::Ecm);
    let under_flat = under(PricingBackend::Flat);
    let invariant = under_ecm == first && under_flat == first;
    if !invariant {
        failures.push(
            "E1 changed under the installed pricing default — explicit \
             backends must shield it"
                .to_string(),
        );
    }
    table.push_row(vec![
        "default-invariance".to_string(),
        "E1 under installed flat/ecm defaults".to_string(),
        "2".to_string(),
        if invariant {
            "byte-identical".to_string()
        } else {
            "LEAKED".to_string()
        },
    ]);

    table.note(
        "The flat backend is the reference: ECM may only refine prices \
         downward, collapsing onto flat once the working set spills the \
         hierarchy. E1's values are pinned by the golden suite.",
    );
    (table, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecm_suite_passes() {
        let (table, failures) = run();
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(table.rows.len(), 3);
        assert_eq!(table.rows[0][3], "within bands", "{:?}", table.rows[0]);
        assert_eq!(table.rows[1][3], "byte-identical");
        assert_eq!(table.rows[2][3], "byte-identical");
    }

    #[test]
    fn sweep_classes_cover_every_access_pattern() {
        let patterns: Vec<_> = SWEEP_CLASSES.iter().map(|c| c.access_pattern()).collect();
        for p in archsim::AccessPattern::all() {
            assert!(patterns.contains(&p), "{p:?} not covered by the sweep");
        }
    }
}
