//! T10 — OpenSBLI Taylor–Green vortex runtimes (paper Table X).

use a64fx_apps::opensbli::OpensbliConfig;
use archsim::{paper_toolchain, system, SystemId};

use crate::costmodel::{Executor, JobLayout};
use crate::paper;
use crate::report::{pair, Table};
use crate::tracecache;

/// Simulated OpenSBLI total runtime (seconds) on `nodes` fully populated
/// nodes of `sys`.
pub fn opensbli_runtime_s(sys: SystemId, nodes: u32) -> f64 {
    let spec = system(sys);
    let tc = paper_toolchain(sys, "opensbli").expect("system ran opensbli");
    let ex = Executor::new(&spec, &tc);
    let layout = JobLayout::mpi_full(nodes, &spec);
    let t = tracecache::opensbli(OpensbliConfig::paper(), layout.ranks);
    ex.run(&t, layout).runtime_s
}

/// T10 — runtime at 1/2/4/8 nodes.
pub fn table10() -> Table {
    let mut t = Table::new(
        "T10",
        "OpenSBLI TGV 64^3 total runtime in seconds (paper Table X; paper / simulated)",
        &["System", "1 node", "2 nodes", "4 nodes", "8 nodes"],
    );
    for (sys, p_row) in paper::TABLE10_OPENSBLI {
        let mut row = vec![sys.name().to_string()];
        for (i, nodes) in [1u32, 2, 4, 8].iter().enumerate() {
            row.push(pair(p_row[i], opensbli_runtime_s(sys, *nodes)));
        }
        t.push_row(row);
    }
    t.note("Paper shape: the A64FX is ~3x slower than Fulhame/NGIO on one node — instruction-fetch-bound generated stencil kernels.");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t10_a64fx_is_slowest_by_2_to_4x() {
        let a = opensbli_runtime_s(SystemId::A64fx, 1);
        for sys in [SystemId::Cirrus, SystemId::Ngio, SystemId::Fulhame] {
            let o = opensbli_runtime_s(sys, 1);
            assert!(a > o, "{sys:?} must beat the A64FX: {a} vs {o}");
        }
        let f = opensbli_runtime_s(SystemId::Fulhame, 1);
        let ratio = a / f;
        assert!(ratio > 2.0 && ratio < 4.5, "paper: ~3x; simulated {ratio}");
    }

    #[test]
    fn t10_ngio_and_fulhame_similar() {
        // Paper: "EPCC NGIO and Fulhame systems present very similar
        // performance" (1.18 vs 1.17 s).
        let n = opensbli_runtime_s(SystemId::Ngio, 1);
        let f = opensbli_runtime_s(SystemId::Fulhame, 1);
        let rel = (n - f).abs() / n.min(f);
        assert!(rel < 0.25, "NGIO {n} vs Fulhame {f}");
    }

    #[test]
    fn t10_strong_scaling_reduces_runtime() {
        for (sys, _) in paper::TABLE10_OPENSBLI {
            let mut prev = f64::INFINITY;
            for nodes in [1u32, 2, 4, 8] {
                let s = opensbli_runtime_s(sys, nodes);
                assert!(s < prev, "{sys:?} at {nodes} nodes: {s} vs {prev}");
                prev = s;
            }
        }
    }

    #[test]
    fn t10_scaling_sublinear_at_8_nodes() {
        // 64^3 over 8 nodes is tiny per rank: efficiency must drop, as the
        // paper's runtimes show (A64FX 3.44 -> 0.69 is 5x on 8 nodes).
        let s1 = opensbli_runtime_s(SystemId::A64fx, 1);
        let s8 = opensbli_runtime_s(SystemId::A64fx, 8);
        let speedup = s1 / s8;
        assert!(speedup > 3.0 && speedup < 8.0, "speedup {speedup}");
    }

    #[test]
    fn table_renders() {
        assert_eq!(table10().rows.len(), 4);
    }
}
