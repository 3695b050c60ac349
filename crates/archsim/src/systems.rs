//! The five benchmarked systems, encoded from Table I / Table II of the
//! paper plus published sustained-bandwidth measurements.
//!
//! Sustained STREAM-triad bandwidths (GB/s/node) and their sources:
//!
//! * **A64FX**: ~840 (Fujitsu/RIKEN measurements of HBM2 across 4 CMGs,
//!   ~210 GB/s per CMG out of the 256 GB/s peak).
//! * **ARCHER**: ~90 (Cray XC30, 2× 4-channel DDR3-1866; measured triad on
//!   E5-2697v2 nodes is ~45 GB/s per socket).
//! * **Cirrus**: ~120 (Broadwell 2× 4-channel DDR4-2400).
//! * **EPCC NGIO**: ~205 (Cascade Lake 2× 6-channel DDR4-2933).
//! * **Fulhame**: ~244 (ThunderX2 2× 8-channel DDR4-2666; the paper itself
//!   quotes "in excess of 240 GB/s per dual-socket node").

use crate::interconnect::InterconnectKind;
use crate::memory::{CacheLevel, MemoryDomain, MemoryKind, MemorySystem};
use crate::node::Node;
use crate::processor::{Processor, SmtMode};
use crate::toolchain::{Toolchain, ToolchainFamily};
use crate::vector::VectorUnit;

/// Identifier for one of the five benchmarked systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SystemId {
    /// The Fujitsu A64FX early-access system (48 nodes, TofuD).
    A64fx,
    /// ARCHER, the Cray XC30 UK national service.
    Archer,
    /// Cirrus, the SGI ICE XA UK Tier-2 service.
    Cirrus,
    /// EPCC NGIO, the Fujitsu-built Cascade Lake system.
    Ngio,
    /// Fulhame, the HPE Apollo 70 ThunderX2 Catalyst system.
    Fulhame,
}

impl SystemId {
    /// All five systems in the paper's presentation order.
    pub fn all() -> [SystemId; 5] {
        [
            SystemId::A64fx,
            SystemId::Archer,
            SystemId::Cirrus,
            SystemId::Ngio,
            SystemId::Fulhame,
        ]
    }

    /// Display name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            SystemId::A64fx => "A64FX",
            SystemId::Archer => "ARCHER",
            SystemId::Cirrus => "Cirrus",
            SystemId::Ngio => "EPCC NGIO",
            SystemId::Fulhame => "Fulhame",
        }
    }
}

/// A complete system description: node architecture, interconnect and size.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSpec {
    /// Which system this is.
    pub id: SystemId,
    /// Display name.
    pub name: String,
    /// Node architecture.
    pub node: Node,
    /// Interconnect family.
    pub interconnect: InterconnectKind,
    /// Number of compute nodes available in the benchmarked installation
    /// (the A64FX test system had 48; the others are larger — we cap at what
    /// the paper used).
    pub total_nodes: u32,
    /// Cores required to saturate one memory domain's sustained bandwidth.
    pub bw_saturation_cores: u32,
    /// Typical node power under HPC load, watts (processor TDP + memory +
    /// node overheads). Used by the power-efficiency extension study; the
    /// paper's introduction cites the A64FX's Green500 lead.
    pub node_power_watts: f64,
}

impl SystemSpec {
    /// Interconnect link parameters for this system.
    pub fn link(&self) -> crate::interconnect::LinkParams {
        self.interconnect.default_link()
    }
}

/// Names of all systems, in paper order.
pub fn system_names() -> Vec<&'static str> {
    SystemId::all().iter().map(|s| s.name()).collect()
}

/// Build the specification of one of the five systems.
pub fn system(id: SystemId) -> SystemSpec {
    match id {
        SystemId::A64fx => a64fx(),
        SystemId::Archer => archer(),
        SystemId::Cirrus => cirrus(),
        SystemId::Ngio => ngio(),
        SystemId::Fulhame => fulhame(),
    }
}

fn a64fx() -> SystemSpec {
    let proc = Processor {
        name: "Fujitsu A64FX".into(),
        microarch: "SVE".into(),
        clock_ghz: 2.2,
        cores: 48,
        smt: SmtMode::Off,
        vector: VectorUnit::sve_512(2.2),
        // Narrow OoO window relative to big x86 cores; the paper's OpenSBLI
        // profiling saw instruction fetch waits and L2 pressure.
        ooo_window: 128,
    };
    let memory = MemorySystem::uniform(
        MemoryDomain {
            kind: MemoryKind::Hbm2,
            capacity_gib: 8.0,
            peak_bw_gbs: 256.0,
            sustained_bw_gbs: 210.0,
            latency_ns: 121.0,
            cores: 12,
        },
        4,
        vec![
            CacheLevel {
                level: 1,
                capacity_kib: 64,
                line_bytes: 256,
                shared_by_cores: 1,
            },
            CacheLevel {
                level: 2,
                capacity_kib: 8 * 1024,
                line_bytes: 256,
                shared_by_cores: 12,
            },
        ],
    );
    SystemSpec {
        id: SystemId::A64fx,
        name: "A64FX".into(),
        node: Node {
            sockets: 1,
            processor: proc,
            memory,
        },
        interconnect: InterconnectKind::TofuD,
        total_nodes: 48,
        bw_saturation_cores: 9,
        node_power_watts: 170.0,
    }
}

fn archer() -> SystemSpec {
    let proc = Processor {
        name: "Intel Xeon E5-2697 v2".into(),
        microarch: "Ivy Bridge".into(),
        clock_ghz: 2.7,
        cores: 12,
        smt: SmtMode::Smt2,
        vector: VectorUnit::avx_256_no_fma(2.7),
        ooo_window: 168,
    };
    let memory = MemorySystem::uniform(
        MemoryDomain {
            kind: MemoryKind::Ddr3,
            capacity_gib: 32.0,
            peak_bw_gbs: 59.7,
            sustained_bw_gbs: 45.0,
            latency_ns: 85.0,
            cores: 12,
        },
        2,
        vec![
            CacheLevel {
                level: 1,
                capacity_kib: 32,
                line_bytes: 64,
                shared_by_cores: 1,
            },
            CacheLevel {
                level: 2,
                capacity_kib: 256,
                line_bytes: 64,
                shared_by_cores: 1,
            },
            CacheLevel {
                level: 3,
                capacity_kib: 30 * 1024,
                line_bytes: 64,
                shared_by_cores: 12,
            },
        ],
    );
    SystemSpec {
        id: SystemId::Archer,
        name: "ARCHER".into(),
        node: Node {
            sockets: 2,
            processor: proc,
            memory,
        },
        interconnect: InterconnectKind::Aries,
        total_nodes: 4920,
        bw_saturation_cores: 5,
        node_power_watts: 305.0,
    }
}

fn cirrus() -> SystemSpec {
    let proc = Processor {
        name: "Intel Xeon E5-2695".into(),
        microarch: "Broadwell".into(),
        clock_ghz: 2.1,
        cores: 18,
        smt: SmtMode::Smt2,
        vector: VectorUnit::avx2_256(2.1),
        ooo_window: 192,
    };
    let memory = MemorySystem::uniform(
        MemoryDomain {
            kind: MemoryKind::Ddr4,
            capacity_gib: 128.0,
            peak_bw_gbs: 76.8,
            sustained_bw_gbs: 60.0,
            latency_ns: 88.0,
            cores: 18,
        },
        2,
        vec![
            CacheLevel {
                level: 1,
                capacity_kib: 32,
                line_bytes: 64,
                shared_by_cores: 1,
            },
            CacheLevel {
                level: 2,
                capacity_kib: 256,
                line_bytes: 64,
                shared_by_cores: 1,
            },
            CacheLevel {
                level: 3,
                capacity_kib: 45 * 1024,
                line_bytes: 64,
                shared_by_cores: 18,
            },
        ],
    );
    SystemSpec {
        id: SystemId::Cirrus,
        name: "Cirrus".into(),
        node: Node {
            sockets: 2,
            processor: proc,
            memory,
        },
        interconnect: InterconnectKind::FdrInfiniband,
        total_nodes: 280,
        bw_saturation_cores: 6,
        node_power_watts: 310.0,
    }
}

fn ngio() -> SystemSpec {
    // Table I gives 2662.4 GFLOP/s for the node, implying a 1.733 GHz
    // AVX-512 all-core clock on the 8260M (base 2.4 GHz).
    let avx_clock = 2662.4 / (48.0 * 32.0);
    let proc = Processor {
        name: "Intel Xeon Platinum 8260M".into(),
        microarch: "Cascade Lake".into(),
        clock_ghz: 2.4,
        cores: 24,
        smt: SmtMode::Smt2,
        vector: VectorUnit::avx512(avx_clock),
        ooo_window: 224,
    };
    let memory = MemorySystem::uniform(
        MemoryDomain {
            kind: MemoryKind::Ddr4,
            capacity_gib: 96.0,
            peak_bw_gbs: 140.8,
            sustained_bw_gbs: 102.0,
            latency_ns: 81.0,
            cores: 24,
        },
        2,
        vec![
            CacheLevel {
                level: 1,
                capacity_kib: 32,
                line_bytes: 64,
                shared_by_cores: 1,
            },
            CacheLevel {
                level: 2,
                capacity_kib: 1024,
                line_bytes: 64,
                shared_by_cores: 1,
            },
            CacheLevel {
                level: 3,
                capacity_kib: 36 * 1024,
                line_bytes: 64,
                shared_by_cores: 24,
            },
        ],
    );
    SystemSpec {
        id: SystemId::Ngio,
        name: "EPCC NGIO".into(),
        node: Node {
            sockets: 2,
            processor: proc,
            memory,
        },
        interconnect: InterconnectKind::OmniPath,
        total_nodes: 64,
        bw_saturation_cores: 10,
        node_power_watts: 385.0,
    }
}

fn fulhame() -> SystemSpec {
    let proc = Processor {
        name: "Marvell ThunderX2".into(),
        microarch: "ARMv8".into(),
        clock_ghz: 2.2,
        cores: 32,
        smt: SmtMode::Smt4,
        vector: VectorUnit::neon_128(2.2),
        ooo_window: 180,
    };
    let memory = MemorySystem::uniform(
        MemoryDomain {
            kind: MemoryKind::Ddr4,
            capacity_gib: 128.0,
            peak_bw_gbs: 170.6,
            sustained_bw_gbs: 122.0,
            latency_ns: 92.0,
            cores: 32,
        },
        2,
        vec![
            CacheLevel {
                level: 1,
                capacity_kib: 32,
                line_bytes: 64,
                shared_by_cores: 1,
            },
            CacheLevel {
                level: 2,
                capacity_kib: 256,
                line_bytes: 64,
                shared_by_cores: 1,
            },
            CacheLevel {
                level: 3,
                capacity_kib: 32 * 1024,
                line_bytes: 64,
                shared_by_cores: 32,
            },
        ],
    );
    SystemSpec {
        id: SystemId::Fulhame,
        name: "Fulhame".into(),
        node: Node {
            sockets: 2,
            processor: proc,
            memory,
        },
        interconnect: InterconnectKind::EdrInfiniband,
        total_nodes: 64,
        // The ThunderX2's single-core memory bandwidth is weak (~7 GB/s of
        // the socket's 122): many cores are needed to saturate DDR4.
        bw_saturation_cores: 18,
        node_power_watts: 400.0,
    }
}

/// The toolchain the paper used for a given (system, application) pair,
/// transcribed from Table II. `app` is one of `"hpcg"`, `"minikab"`,
/// `"nekbone"`, `"castep"`, `"cosa"`, `"opensbli"`. Returns `None` where the
/// paper did not run that combination (e.g. OpenSBLI on the A64FX used the
/// system OPS stack but Table II lists no entry; HPCG was not run on some
/// systems' optimised variants).
pub fn paper_toolchain(sys: SystemId, app: &str) -> Option<Toolchain> {
    use SystemId::*;
    use ToolchainFamily::*;
    let t = |fam, ver: &str, flags: &str, libs: &str| {
        Some(Toolchain::for_family(fam, ver, flags, libs))
    };
    match (sys, app) {
        (A64fx, "hpcg") => t(Fujitsu, "Fujitsu 1.2.24", "-Nnoclang -O3 -Kfast", "Fujitsu MPI"),
        (Archer, "hpcg") => t(Intel, "Intel 17", "-O3", "Cray MPI"),
        (Cirrus, "hpcg") => t(Intel, "Intel 17", "-O3 -cxx=icpc -qopt-zmm-usage=high", "HPE MPI"),
        (Ngio, "hpcg") => t(Intel, "Intel 19", "-O3 -cxx=icpc -xCore-AVX512 -qopt-zmm-usage=high", "Intel MPI"),
        (Fulhame, "hpcg") => t(Gnu, "GCC 8.2", "-O3 -ffast-math -funroll-loops -std=c++11 -ffp-contract=fast -mcpu=native", "OpenMPI"),

        (A64fx, "minikab") => t(
            Fujitsu,
            "Fujitsu 1.2.25",
            "-O3 -Kopenmp -Kfast -KA64FX -KSVE -KARMV8_3_A -Kassume=noshortloop -Kassume=memory_bandwidth",
            "Fujitsu MPI",
        ),
        (Ngio, "minikab") => t(Intel, "Intel 19", "-O3 -warn all", "Intel MPI library"),
        (Fulhame, "minikab") => t(ArmClang, "Arm Clang 20", "-O3 -armpl -mcpu=native -fopenmp", "OpenMPI + ArmPL"),

        (A64fx, "nekbone") => t(
            Fujitsu,
            "Fujitsu 1.2.24",
            "-CcdRR8 -Cpp -Fixed -O3 -Kfast -KA64FX -KSVE -KARMV8_3_A",
            "Fujitsu MPI",
        ),
        (Archer, "nekbone") => t(Gnu, "GCC 6.3", "-fdefault-real-8 -O3", "Cray MPICH2 7.5.5"),
        (Ngio, "nekbone") => t(Intel, "Intel 19.03", "-fdefault-real-8 -O3", "Intel MPI 19.3"),
        (Fulhame, "nekbone") => t(Gnu, "GNU 8.2", "-fdefault-real-8 -O3", "OpenMPI 4.0.2"),

        (A64fx, "castep") => t(Fujitsu, "Fujitsu 1.2.24", "-O3", "Fujitsu MPI + SSL2 + FFTW 3.3.3"),
        (Archer, "castep") => t(Gnu, "GCC 6.2", "-fconvert=big-endian -O3 -funroll-loops", "Cray MPICH2 + MKL + FFTW"),
        (Cirrus, "castep") => t(Intel, "Intel 17", "-O3 -xHost", "SGI MPT 2.16 + MKL + FFTW 3.3.5"),
        (Ngio, "castep") => t(Intel, "Intel 17", "-O3 -xHost", "Intel MPI 17.4 + MKL + FFTW 3.3.3"),
        (Fulhame, "castep") => t(Gnu, "GCC 8.2", "-fconvert=big-endian -O3 -funroll-loops", "HPE MPT 2.20 + ArmPL 19 + FFTW 3.3.8"),

        (A64fx, "cosa") => t(Fujitsu, "Fujitsu 1.2.24", "-X9 -O3 -Kfast -KA64FX -KSVE", "Fujitsu MPI + SSL2 + FFTW 3.3.3"),
        (Archer, "cosa") => t(Gnu, "GNU 7.2", "-O3 -ftree-vectorize -fdefault-real-8", "Cray MPI 7.5.5 + LibSci"),
        (Cirrus, "cosa") => t(Gnu, "GNU 8.2", "-O3 -ftree-vectorize -fdefault-real-8", "SGI MPT 2.16 + MKL"),
        (Ngio, "cosa") => t(Intel, "Intel 18", "-O3 -ftree-vectorize -fdefault-real-8", "Intel MPI + MKL 18"),
        (Fulhame, "cosa") => t(Gnu, "GNU 8.2", "-O3 -ftree-vectorize -fdefault-real-8", "HPE MPT 2.20 + ArmPL 19"),

        // Table II lists OpenSBLI builds for four systems; the A64FX entry is
        // absent from the table but the system ran with the Fujitsu stack.
        (A64fx, "opensbli") => t(Fujitsu, "Fujitsu 1.2.24", "-O3", "Fujitsu MPI + HDF5"),
        (Archer, "opensbli") => t(Cray, "Cray CCE 8.5.8", "-O3 -hgnu", "Cray MPICH2 7.5.2 + HDF5 1.10.0.1"),
        (Cirrus, "opensbli") => t(Intel, "Intel 17.0.2", "-O3 -ipo -restrict -fno-alias", "SGI MPT 2.16 + HDF5 1.10.1"),
        (Ngio, "opensbli") => t(Intel, "Intel 17.4", "-O3 -ipo -restrict -fno-alias", "Intel MPI 17.4 + HDF5 1.10.1"),
        (Fulhame, "opensbli") => t(ArmClang, "Arm Clang 19.0.0", "-O3 -std=c99 -fPIC -Wall", "OpenMPI 4.0.0 + HDF5 1.10.4"),

        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_five_systems_build() {
        for id in SystemId::all() {
            let s = system(id);
            assert_eq!(s.id, id);
            assert!(s.node.cores() > 0);
            assert!(s.node.peak_dp_gflops() > 0.0);
            assert!(s.node.sustained_bw_gbs() > 0.0);
            assert!(s.total_nodes >= 16, "paper scales to 16 nodes on {id:?}");
        }
    }

    #[test]
    fn paper_interconnects() {
        assert_eq!(
            system(SystemId::A64fx).interconnect,
            InterconnectKind::TofuD
        );
        assert_eq!(
            system(SystemId::Archer).interconnect,
            InterconnectKind::Aries
        );
        assert_eq!(
            system(SystemId::Cirrus).interconnect,
            InterconnectKind::FdrInfiniband
        );
        assert_eq!(
            system(SystemId::Ngio).interconnect,
            InterconnectKind::OmniPath
        );
        assert_eq!(
            system(SystemId::Fulhame).interconnect,
            InterconnectKind::EdrInfiniband
        );
    }

    #[test]
    fn a64fx_is_single_socket_four_cmg() {
        let s = system(SystemId::A64fx);
        assert_eq!(s.node.sockets, 1);
        assert_eq!(s.node.memory.num_domains(), 4);
        assert_eq!(s.node.cores_per_domain(), 12);
    }

    #[test]
    fn fulhame_bandwidth_exceeds_240() {
        // The paper: "measured STREAM triad memory bandwidth in excess of
        // 240 GB/s per dual-socket node".
        assert!(system(SystemId::Fulhame).node.sustained_bw_gbs() > 240.0);
    }

    #[test]
    fn toolchains_cover_paper_table2() {
        // Every (system, app) pair the paper benchmarked has a toolchain.
        let runs = [
            (
                "hpcg",
                vec![
                    SystemId::A64fx,
                    SystemId::Archer,
                    SystemId::Cirrus,
                    SystemId::Ngio,
                    SystemId::Fulhame,
                ],
            ),
            (
                "minikab",
                vec![SystemId::A64fx, SystemId::Ngio, SystemId::Fulhame],
            ),
            (
                "nekbone",
                vec![
                    SystemId::A64fx,
                    SystemId::Archer,
                    SystemId::Ngio,
                    SystemId::Fulhame,
                ],
            ),
            (
                "castep",
                vec![
                    SystemId::A64fx,
                    SystemId::Archer,
                    SystemId::Cirrus,
                    SystemId::Ngio,
                    SystemId::Fulhame,
                ],
            ),
            (
                "cosa",
                vec![
                    SystemId::A64fx,
                    SystemId::Archer,
                    SystemId::Cirrus,
                    SystemId::Ngio,
                    SystemId::Fulhame,
                ],
            ),
            (
                "opensbli",
                vec![
                    SystemId::A64fx,
                    SystemId::Archer,
                    SystemId::Cirrus,
                    SystemId::Ngio,
                    SystemId::Fulhame,
                ],
            ),
        ];
        for (app, systems) in runs {
            for sys in systems {
                assert!(
                    paper_toolchain(sys, app).is_some(),
                    "missing toolchain for {sys:?}/{app}"
                );
            }
        }
        assert!(paper_toolchain(SystemId::Archer, "minikab").is_none());
    }

    #[test]
    fn a64fx_toolchains_use_fastmath_where_paper_did() {
        assert!(
            paper_toolchain(SystemId::A64fx, "nekbone")
                .unwrap()
                .fastmath
        );
        assert!(paper_toolchain(SystemId::A64fx, "hpcg").unwrap().fastmath);
        assert!(!paper_toolchain(SystemId::A64fx, "castep").unwrap().fastmath);
        assert!(!paper_toolchain(SystemId::Ngio, "nekbone").unwrap().fastmath);
    }

    #[test]
    fn spec_clone_equality() {
        let s = system(SystemId::A64fx);
        assert_eq!(s, s.clone());
    }
}
