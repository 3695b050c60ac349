//! E1 — flat roofline vs cache-hierarchy ECM pricing across the memory
//! hierarchy (beyond the paper's tables).
//!
//! The paper's flat roofline prices every kernel as if its whole byte
//! stream came from main memory. E1 sweeps a synthetic SpMV-class kernel's
//! working set from L1-resident (32 KiB) through L2 (A64FX: 8 MiB/CMG) and
//! out to memory on every system, pricing each point under both backends.
//! The two models must agree once the working set spills past the last
//! cache level — the ECM memory boundary runs at the same calibrated
//! bandwidth the flat model uses — and diverge in a predicted direction
//! (ECM cheaper) while the working set still fits in cache.
//!
//! The table is built from two *explicit* executors
//! ([`Executor::with_pricing`]), so its output is independent of the
//! run's `--pricing` / `A64FX_PRICING` setting: running E1 under
//! either default is byte-identical, which CI pins by diffing
//! `repro --exp-json e1` across double runs.

use a64fx_apps::KernelClass;
use archsim::{paper_toolchain, system, SystemId};
use densela::Work;

use crate::costmodel::{Executor, JobLayout, PricingBackend};
use crate::report::Table;

/// The E1 working-set sweep, bytes per rank: L1-resident through
/// memory-resident on every system in the registry.
pub const E1_SWEEP: [u64; 6] = [
    32 * 1024,
    256 * 1024,
    2 * 1024 * 1024,
    16 * 1024 * 1024,
    64 * 1024 * 1024,
    512 * 1024 * 1024,
];

/// The synthetic kernel E1 prices: SpMV-class (gather access pattern),
/// one full traversal of the working set at 0.25 flop/byte — memory-bound
/// on every system, so the memory term decides the price.
pub fn e1_kernel(ws_bytes: u64) -> Work {
    Work::new(ws_bytes / 4, ws_bytes, 0)
}

/// E1 — per-kernel time under flat and ECM pricing as the working set
/// crosses each cache boundary. One rank, one thread per system.
pub fn e1() -> Table {
    let mut t = Table::new(
        "E1",
        "beyond the paper: flat roofline vs ECM pricing — synthetic SpMV \
         sweep across the cache hierarchy, one rank, one thread",
        &["system", "ws", "flat (us)", "ecm (us)", "ecm/flat"],
    );
    let layout = JobLayout {
        ranks: 1,
        ranks_per_node: 1,
        threads_per_rank: 1,
    };
    for sys in SystemId::all() {
        let spec = system(sys);
        let tc = paper_toolchain(sys, "hpcg").unwrap();
        let flat = Executor::with_pricing(&spec, &tc, PricingBackend::Flat);
        let ecm = Executor::with_pricing(&spec, &tc, PricingBackend::Ecm);
        for ws in E1_SWEEP {
            let work = e1_kernel(ws);
            let t_flat = flat.kernel_time_us(layout, KernelClass::SpMV, work, ws);
            let t_ecm = ecm.kernel_time_us(layout, KernelClass::SpMV, work, ws);
            t.push_row(vec![
                spec.name.to_string(),
                format!("{}KiB", ws / 1024),
                format!("{t_flat:.3}"),
                format!("{t_ecm:.3}"),
                format!("{:.3}", t_ecm / t_flat),
            ]);
        }
    }
    t.note(
        "ECM converges to the flat roofline from below as the working set \
         spills the last cache level; in-cache points are cheaper. Built \
         from explicit backends, so --pricing/A64FX_PRICING cannot change \
         this table.",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_renders_and_is_deterministic() {
        let a = e1();
        let b = e1();
        assert_eq!(a.rows.len(), SystemId::all().len() * E1_SWEEP.len());
        assert_eq!(a.render(), b.render(), "E1 must be reproducible");
    }

    #[test]
    fn e1_is_invariant_under_the_run_pricing() {
        // The acceptance check in miniature: running under ECM pricing
        // must not move a single byte of this table.
        let under_flat = e1();
        let under_ecm = crate::runner::RunConfig {
            pricing: PricingBackend::Ecm,
            ..Default::default()
        }
        .scope(e1);
        assert_eq!(under_flat.rows, under_ecm.rows);
    }

    #[test]
    fn e1_ecm_never_exceeds_flat_and_converges_at_the_top() {
        let t = e1();
        for chunk in t.rows.chunks(E1_SWEEP.len()) {
            for row in chunk {
                let ratio: f64 = row[4].parse().unwrap();
                assert!(
                    ratio <= 1.0 + 1e-9,
                    "{} {}: ECM must not exceed flat (ratio {ratio})",
                    row[0],
                    row[1]
                );
            }
            // Largest working set: the stream spills every cache, so the
            // two models must agree to within a few percent.
            let last: f64 = chunk.last().unwrap()[4].parse().unwrap();
            assert!(
                last > 0.95,
                "{}: ECM must converge to flat at 512 MiB (ratio {last})",
                chunk[0][0]
            );
            // Smallest working set: L1-resident, so ECM must undercut
            // memory-bandwidth pricing (gather latency keeps the gap
            // smaller on low-latency DDR systems like ARCHER: 0.83).
            let first: f64 = chunk[0][4].parse().unwrap();
            assert!(
                first < 0.85,
                "{}: ECM must undercut flat at 32 KiB (ratio {first})",
                chunk[0][0]
            );
        }
    }
}
