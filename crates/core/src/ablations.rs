//! Ablation studies over the model's design choices.
//!
//! The paper explains its results through a handful of mechanisms: HBM2
//! bandwidth, interconnect topology, process placement, block decomposition
//! granularity and fast-math compilation. Each ablation here removes or
//! sweeps one mechanism and shows how the headline results move — evidence
//! that the reproduction's behaviour comes from the mechanism, not from a
//! fitted constant.

use a64fx_apps::{cosa, hpcg, minikab, nekbone};
use archsim::{paper_toolchain, system, InterconnectKind, SystemId};
use netsim::Network;
use simmpi::{Placement, PlacementPolicy, World};

use crate::costmodel::{Executor, JobLayout};
use crate::report::Table;
use crate::tracecache;

/// Sweep the A64FX's sustained memory bandwidth: what if it had DDR4
/// instead of HBM2? HPCG and Nekbone collapse; OpenSBLI barely moves
/// (it is front-end bound).
pub fn bandwidth_sweep() -> Table {
    let mut t = Table::new(
        "A1",
        "Ablation: A64FX sustained bandwidth sweep (fraction of HBM2) vs single-node results",
        &[
            "BW fraction",
            "HPCG GFLOP/s",
            "Nekbone GFLOP/s (fast math)",
            "equivalent",
        ],
    );
    let spec = system(SystemId::A64fx);
    for frac in [0.125, 0.25, 0.5, 1.0] {
        let tc_hpcg = paper_toolchain(SystemId::A64fx, "hpcg").unwrap();
        let tc_nek = paper_toolchain(SystemId::A64fx, "nekbone").unwrap();
        let calib = crate::Calibration {
            mem_scale: frac,
            ..Default::default()
        };
        let layout = JobLayout::mpi_full(1, &spec);
        let h = Executor::with_calibration(&spec, &tc_hpcg, calib).run(
            &tracecache::hpcg(hpcg::HpcgConfig::paper(), layout.ranks),
            layout,
        );
        let n = Executor::with_calibration(&spec, &tc_nek, calib).run(
            &tracecache::nekbone(nekbone::NekboneConfig::paper(), layout.ranks),
            layout,
        );
        let label = match frac {
            f if f <= 0.13 => "~DDR4 dual-socket class",
            f if f <= 0.26 => "~Cascade Lake class",
            f if f <= 0.51 => "half HBM2",
            _ => "full HBM2 (paper)",
        };
        t.push_row(vec![
            format!("{frac:.3}"),
            format!("{:.2}", h.gflops),
            format!("{:.2}", n.gflops),
            label.to_string(),
        ]);
    }
    t.note("With DDR-class bandwidth the A64FX loses its entire HPCG lead: the paper's headline is a memory-system result.");
    t
}

/// Swap the A64FX's TofuD for the other interconnects and rerun 8-node
/// HPCG: the result barely moves, supporting the paper's finding that
/// "there is no significant overhead from the network hardware" at these
/// scales.
pub fn topology_swap() -> Table {
    let mut t = Table::new(
        "A2",
        "Ablation: interconnect swap under 8-node A64FX HPCG",
        &["Interconnect", "GFLOP/s", "vs TofuD"],
    );
    let spec = system(SystemId::A64fx);
    let tc = paper_toolchain(SystemId::A64fx, "hpcg").unwrap();
    let layout = JobLayout::mpi_full(8, &spec);
    let trace = tracecache::hpcg(hpcg::HpcgConfig::paper(), layout.ranks);
    let mut baseline = 0.0;
    for kind in [
        InterconnectKind::TofuD,
        InterconnectKind::Aries,
        InterconnectKind::FdrInfiniband,
        InterconnectKind::EdrInfiniband,
        InterconnectKind::OmniPath,
    ] {
        let mut spec2 = spec.clone();
        spec2.interconnect = kind;
        let r = Executor::new(&spec2, &tc).run(&trace, layout);
        if kind == InterconnectKind::TofuD {
            baseline = r.gflops;
        }
        t.push_row(vec![
            kind.name().to_string(),
            format!("{:.2}", r.gflops),
            format!("{:+.1}%", 100.0 * (r.gflops / baseline - 1.0)),
        ]);
    }
    t.note("HPCG at 8 nodes is compute/bandwidth dominated; swapping fabrics moves the result by low single digits.");
    t
}

/// COSA block-count sweep at 16 A64FX nodes (768 ranks): decomposition
/// granularity drives the load-balance cliff the paper describes.
pub fn cosa_block_sweep() -> Table {
    let mut t = Table::new(
        "A3",
        "Ablation: COSA block count vs 16-node A64FX runtime (768 ranks)",
        &["Blocks", "Max blocks/rank", "Idle ranks", "Runtime s"],
    );
    let spec = system(SystemId::A64fx);
    let tc = paper_toolchain(SystemId::A64fx, "cosa").unwrap();
    let layout = JobLayout::mpi_full(16, &spec);
    for (gx, gy) in [(20usize, 20usize), (48, 16), (40, 20), (48, 32), (64, 48)] {
        // Keep total cells roughly constant: shrink blocks as their count
        // grows. 768 blocks = exactly one per rank.
        let blocks = gx * gy;
        let edge = ((3_690_218.0 / blocks as f64).sqrt()).round() as usize;
        let cfg = cosa::CosaConfig {
            blocks,
            block_grid: (gx, gy),
            block_edge: edge.max(4),
            harmonics: 4,
            iterations: 100,
        };
        let part = sparsela::partition::BlockPartition::new(cfg.blocks, 768);
        let trace = tracecache::cosa(cfg, layout.ranks);
        let r = Executor::new(&spec, &tc).run(&trace, layout);
        t.push_row(vec![
            cfg.blocks.to_string(),
            part.max_blocks().to_string(),
            (768usize.saturating_sub(part.active_ranks())).to_string(),
            format!("{:.2}", r.runtime_s),
        ]);
    }
    t.note("768 blocks (1 per rank) is the sweet spot; 800 leaves 32 double-loaded stragglers — the paper's exact situation.");
    t
}

/// Placement-policy ablation for the half-populated minikab run the paper's
/// Figure 1 tops out at (48 single-thread ranks on 2 A64FX nodes):
/// round-robin pinning (the paper's set-up) spreads 6 ranks over each CMG;
/// packed placement crams 12 into each of the first two CMGs and leaves the
/// other two idle, cutting the per-rank bandwidth share.
pub fn placement_policy() -> Table {
    let mut t = Table::new(
        "A4",
        "Ablation: rank placement policy for 48 single-thread minikab ranks on 2 A64FX nodes",
        &["Policy", "Runtime s", "Slowdown"],
    );
    let spec = system(SystemId::A64fx);
    let tc = paper_toolchain(SystemId::A64fx, "minikab").unwrap();
    let cfg = minikab::MinikabConfig::paper();
    let trace = tracecache::minikab(cfg, 48);
    let mut base = 0.0;
    for (name, policy) in [
        (
            "round-robin CMGs (paper pinning)",
            PlacementPolicy::RoundRobinDomain,
        ),
        ("packed (CMGs 0-1 only)", PlacementPolicy::Packed),
    ] {
        let placement = Placement::new(48, 24, 1, &spec.node, policy).unwrap();
        let net = Network::new(spec.interconnect, 2);
        let mut world = World::new(net, placement);
        // Price the trace manually with the chosen placement.
        let ex = Executor::new(&spec, &tc);
        ex.replay(&trace, &mut world);
        let r = world.elapsed_s();
        if base == 0.0 {
            base = r;
        }
        t.push_row(vec![
            name.to_string(),
            format!("{r:.2}"),
            format!("{:.2}x", r / base),
        ]);
    }
    t.note("Thread pinning matters: packing ranks into one CMG starves them of bandwidth, which is why the paper pins.");
    t
}

/// Fast-math ablation across systems for Nekbone — Table VI's compiler-flag
/// sensitivity as a standalone study.
pub fn fastmath_sweep() -> Table {
    let mut t = Table::new(
        "A5",
        "Ablation: fast-math flags on/off, Nekbone full node",
        &["System", "plain GFLOP/s", "fast-math GFLOP/s", "gain"],
    );
    for sys in [
        SystemId::A64fx,
        SystemId::Ngio,
        SystemId::Fulhame,
        SystemId::Archer,
    ] {
        let cores = system(sys).node.cores();
        let plain = crate::experiments::nekbone::nekbone_gflops(sys, 1, cores, false);
        let fast = crate::experiments::nekbone::nekbone_gflops(sys, 1, cores, true);
        t.push_row(vec![
            sys.name().to_string(),
            format!("{plain:.2}"),
            format!("{fast:.2}"),
            format!("{:+.1}%", 100.0 * (fast / plain - 1.0)),
        ]);
    }
    t.note("Only the Fujitsu compiler on the A64FX converts re-association into real throughput; Intel's fast-math hurts.");
    t
}

/// Run every ablation.
pub fn run_all() -> Vec<Table> {
    vec![
        bandwidth_sweep(),
        topology_swap(),
        cosa_block_sweep(),
        placement_policy(),
        fastmath_sweep(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_sweep_is_monotone() {
        let t = bandwidth_sweep();
        assert_eq!(t.rows.len(), 4);
        let vals: Vec<f64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert!(
            vals.windows(2).all(|w| w[0] <= w[1]),
            "HPCG must rise with bandwidth: {vals:?}"
        );
        // At DDR-class bandwidth the A64FX loses its HPCG crown (paper value
        // for optimised NGIO: 37.61).
        assert!(vals[0] < 26.0, "DDR-class A64FX HPCG: {}", vals[0]);
    }

    #[test]
    fn topology_swap_is_small_effect() {
        let t = topology_swap();
        for row in &t.rows {
            let pct: f64 = row[2].trim_end_matches('%').parse().unwrap();
            assert!(pct.abs() < 10.0, "topology effect should be small: {row:?}");
        }
    }

    #[test]
    fn cosa_sweep_shows_imbalance_cliff() {
        let t = cosa_block_sweep();
        let runtimes: Vec<f64> = t.rows.iter().map(|r| r[3].parse().unwrap()).collect();
        let max_blocks: Vec<u32> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        // The ~768-block row has one block per rank (perfect balance) and
        // must beat the ~800-block row (32 double-loaded stragglers).
        assert_eq!(max_blocks[1], 1, "second row should be perfectly balanced");
        assert!(max_blocks[2] >= 2, "third row should have stragglers");
        assert!(
            runtimes[1] < runtimes[2],
            "balance beats stragglers: {runtimes:?}"
        );
        // Very coarse decomposition (400 blocks on 768 ranks) wastes half
        // the machine.
        assert!(
            runtimes[0] > 1.5 * runtimes[1],
            "coarse blocks waste ranks: {runtimes:?}"
        );
    }

    #[test]
    fn placement_policy_penalises_packing() {
        let t = placement_policy();
        let rr: f64 = t.rows[0][1].parse().unwrap();
        let packed: f64 = t.rows[1][1].parse().unwrap();
        assert!(
            packed > 1.2 * rr,
            "packed placement must starve bandwidth: {rr} vs {packed}"
        );
    }

    #[test]
    fn fastmath_sweep_matches_table6_directions() {
        let t = fastmath_sweep();
        let gain = |sys: &str| -> f64 {
            let row = t.rows.iter().find(|r| r[0] == sys).unwrap();
            row[3].trim_end_matches('%').parse().unwrap()
        };
        assert!(gain("A64FX") > 50.0);
        assert!(gain("EPCC NGIO") < 0.0);
        assert!(gain("Fulhame") > 0.0 && gain("Fulhame") < 20.0);
    }
}
