//! Processor (socket/package) models.

use crate::vector::VectorUnit;

/// Simultaneous multithreading capability (Table I "Threads per core").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SmtMode {
    /// One hardware thread per core (A64FX).
    Off,
    /// Up to two threads per core (Intel HyperThreading).
    Smt2,
    /// Up to four threads per core (ThunderX2).
    Smt4,
}

impl SmtMode {
    /// Maximum hardware threads per core.
    pub fn max_threads(&self) -> u32 {
        match self {
            SmtMode::Off => 1,
            SmtMode::Smt2 => 2,
            SmtMode::Smt4 => 4,
        }
    }
}

/// A processor package: cores, clock, vector capability.
#[derive(Debug, Clone, PartialEq)]
pub struct Processor {
    /// Marketing / model name, e.g. "Fujitsu A64FX".
    pub name: String,
    /// Microarchitecture, e.g. "SVE", "Ivy Bridge".
    pub microarch: String,
    /// Nominal core clock in GHz (Table I).
    pub clock_ghz: f64,
    /// User-visible cores per package (the A64FX 13th assistant core per CMG
    /// is reserved for the OS and excluded, as in the paper).
    pub cores: u32,
    /// SMT capability.
    pub smt: SmtMode,
    /// Vector unit description.
    pub vector: VectorUnit,
    /// Out-of-order instruction window size class, used by the cost model to
    /// derate irregular/instruction-fetch-bound kernels (the A64FX has a
    /// comparatively narrow front end, which the paper's OpenSBLI profiling
    /// observed as instruction fetch waits).
    pub ooo_window: u32,
}

impl Processor {
    /// Peak double-precision GFLOP/s of the whole package.
    pub fn peak_dp_gflops(&self) -> f64 {
        f64::from(self.cores) * self.vector.dp_gflops_per_core()
    }

    /// Peak double-precision GFLOP/s of one core.
    pub fn peak_dp_gflops_per_core(&self) -> f64 {
        self.vector.dp_gflops_per_core()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a64fx_package_peak() {
        let p = Processor {
            name: "Fujitsu A64FX".into(),
            microarch: "SVE".into(),
            clock_ghz: 2.2,
            cores: 48,
            smt: SmtMode::Off,
            vector: VectorUnit::sve_512(2.2),
            ooo_window: 128,
        };
        assert!((p.peak_dp_gflops() - 3379.2).abs() < 1e-9);
        assert_eq!(p.smt.max_threads(), 1);
    }

    #[test]
    fn smt_thread_counts() {
        assert_eq!(SmtMode::Off.max_threads(), 1);
        assert_eq!(SmtMode::Smt2.max_threads(), 2);
        assert_eq!(SmtMode::Smt4.max_threads(), 4);
    }
}
