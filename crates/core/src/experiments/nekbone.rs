//! T6/F3/T7 — Nekbone experiments (paper Table VI, Figure 3, Table VII).

use a64fx_apps::nekbone::NekboneConfig;
use archsim::{paper_toolchain, system, SystemId};

use crate::costmodel::{Executor, JobLayout};
use crate::paper;
use crate::report::{pair, Table};
use crate::tracecache;

/// Simulated Nekbone GFLOP/s with `ranks` MPI-only ranks over `nodes`
/// nodes, optionally with fast-math flags.
pub fn nekbone_gflops(sys: SystemId, nodes: u32, ranks: u32, fastmath: bool) -> f64 {
    let spec = system(sys);
    let tc = paper_toolchain(sys, "nekbone")
        .expect("system ran nekbone")
        .with_fastmath(fastmath);
    let ex = Executor::new(&spec, &tc);
    let layout = JobLayout {
        ranks,
        ranks_per_node: ranks.div_ceil(nodes),
        threads_per_rank: 1,
    };
    let t = tracecache::nekbone(NekboneConfig::paper(), ranks);
    ex.run(&t, layout).gflops
}

/// Nekbone GFLOP/s with the system's *paper* toolchain as-is (the A64FX
/// build used `-Kfast`; the others did not — Table II).
pub fn nekbone_gflops_default(sys: SystemId, nodes: u32, ranks: u32) -> f64 {
    let spec = system(sys);
    let tc = paper_toolchain(sys, "nekbone").expect("system ran nekbone");
    let ex = Executor::new(&spec, &tc);
    let layout = JobLayout {
        ranks,
        ranks_per_node: ranks.div_ceil(nodes),
        threads_per_rank: 1,
    };
    let t = tracecache::nekbone(NekboneConfig::paper(), ranks);
    ex.run(&t, layout).gflops
}

/// T6 — full-node Nekbone GFLOP/s, plain and fast-math.
pub fn table6() -> Table {
    let mut t = Table::new(
        "T6",
        "Nekbone node GFLOP/s (paper Table VI; paper / simulated)",
        &[
            "System",
            "Cores",
            "GFLOP/s",
            "Ratio to A64FX",
            "GFLOP/s fast math",
            "fm Ratio to A64FX",
        ],
    );
    let a64fx_plain = nekbone_gflops(SystemId::A64fx, 1, 48, false);
    let a64fx_fast = nekbone_gflops(SystemId::A64fx, 1, 48, true);
    for (sys, cores, p_plain, p_fast) in paper::TABLE6_NEKBONE_NODE {
        let plain = nekbone_gflops(sys, 1, cores, false);
        let fast = nekbone_gflops(sys, 1, cores, true);
        t.push_row(vec![
            sys.name().to_string(),
            cores.to_string(),
            pair(p_plain, plain),
            format!("{:.2}", plain / a64fx_plain),
            pair(p_fast, fast),
            format!("{:.2}", fast / a64fx_fast),
        ]);
    }
    t.note("Paper: -Kfast is transformative on the A64FX (x1.78) and nearly neutral-to-harmful elsewhere.");
    t.note("At ~312 GFLOP/s with fast math, the A64FX is competitive with a V100 (~300) per the paper.");
    t
}

/// F3 — single-node scaling over core counts (one MPI rank per core).
pub fn figure3() -> Table {
    let mut t = Table::new(
        "F3",
        "Nekbone single-node scaling, MFLOP/s by active cores (paper Figure 3)",
        &["Cores", "A64FX", "EPCC NGIO", "Fulhame", "ARCHER"],
    );
    let counts = [1u32, 2, 4, 8, 12, 16, 24, 32, 48, 64];
    for &c in &counts {
        let mut row = vec![c.to_string()];
        for sys in [
            SystemId::A64fx,
            SystemId::Ngio,
            SystemId::Fulhame,
            SystemId::Archer,
        ] {
            let max = system(sys).node.cores();
            row.push(if c <= max {
                format!("{:.0}", 1000.0 * nekbone_gflops_default(sys, 1, c))
            } else {
                "-".to_string()
            });
        }
        t.push_row(row);
    }
    t.note("Paper: the Arm parts (A64FX, ThunderX2) keep scaling at high core counts; the Intel parts flatten once bandwidth saturates.");
    t
}

/// Parallel efficiency of `sys` at `nodes` nodes (weak scaling, fully
/// populated): PE = GFLOP/s(n) / (n × GFLOP/s(1)).
pub fn nekbone_pe(sys: SystemId, nodes: u32) -> f64 {
    let cores = system(sys).node.cores();
    let g1 = nekbone_gflops_default(sys, 1, cores);
    let gn = nekbone_gflops_default(sys, nodes, nodes * cores);
    gn / (f64::from(nodes) * g1)
}

/// T7 — inter-node parallel efficiency at 2/4/8/16 nodes.
pub fn table7() -> Table {
    let mut t = Table::new(
        "T7",
        "Nekbone inter-node parallel efficiency (paper Table VII; paper / simulated)",
        &["Node count", "A64FX PE", "Fulhame PE", "ARCHER PE"],
    );
    for (i, nodes) in [2u32, 4, 8, 16].iter().enumerate() {
        let mut row = vec![nodes.to_string()];
        for (sys, p_row) in paper::TABLE7_NEKBONE_PE {
            row.push(pair(p_row[i], nekbone_pe(sys, *nodes)));
        }
        t.push_row(row);
    }
    t.note("Paper: all three systems hold PE >= 0.96 to 16 nodes; Fulhame's non-blocking EDR fat tree edges ahead.");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t6_a64fx_wins_with_and_without_fastmath() {
        let a_plain = nekbone_gflops(SystemId::A64fx, 1, 48, false);
        let a_fast = nekbone_gflops(SystemId::A64fx, 1, 48, true);
        for (sys, cores, _, _) in paper::TABLE6_NEKBONE_NODE.iter().skip(1) {
            assert!(
                a_plain > nekbone_gflops(*sys, 1, *cores, false),
                "{sys:?} plain"
            );
            assert!(
                a_fast > nekbone_gflops(*sys, 1, *cores, true),
                "{sys:?} fast"
            );
        }
    }

    #[test]
    fn t6_fastmath_hurts_ngio_helps_a64fx() {
        // Table VI's oddest datapoint: Intel fast-math *lowered* NGIO.
        let plain = nekbone_gflops(SystemId::Ngio, 1, 48, false);
        let fast = nekbone_gflops(SystemId::Ngio, 1, 48, true);
        assert!(fast < plain, "NGIO: {plain} -> {fast}");
        let ap = nekbone_gflops(SystemId::A64fx, 1, 48, false);
        let af = nekbone_gflops(SystemId::A64fx, 1, 48, true);
        assert!(af / ap > 1.5, "A64FX fast-math gain {}", af / ap);
    }

    #[test]
    fn f3_intel_flattens_arm_scales() {
        // Scaling from half cores to full cores: Arm parts gain more.
        let a_half = nekbone_gflops_default(SystemId::A64fx, 1, 24);
        let a_full = nekbone_gflops_default(SystemId::A64fx, 1, 48);
        let n_half = nekbone_gflops_default(SystemId::Ngio, 1, 24);
        let n_full = nekbone_gflops_default(SystemId::Ngio, 1, 48);
        let arm_gain = a_full / a_half;
        let intel_gain = n_full / n_half;
        assert!(
            arm_gain > intel_gain,
            "A64FX doubling gain {arm_gain} vs NGIO {intel_gain}"
        );
    }

    #[test]
    fn t7_parallel_efficiency_high_everywhere() {
        for (sys, _) in paper::TABLE7_NEKBONE_PE {
            for nodes in [2u32, 4, 8, 16] {
                let pe = nekbone_pe(sys, nodes);
                assert!(
                    pe > 0.90 && pe <= 1.001,
                    "{sys:?} at {nodes} nodes: PE {pe}"
                );
            }
        }
    }

    #[test]
    fn tables_render() {
        assert_eq!(table6().rows.len(), 4);
        assert!(figure3().rows.len() >= 8);
        assert_eq!(table7().rows.len(), 4);
    }
}
