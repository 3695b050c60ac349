//! Roofline model primitives.
//!
//! `time(flops, bytes) = max(flops / F, bytes / B)` where `F` is the
//! achievable flop rate and `B` the achievable memory bandwidth for the
//! executing resource set. The crossover arithmetic intensity `F / B`
//! separates memory-bound from compute-bound kernels. The A64FX's HBM2 pushes
//! its crossover far to the left of the x86 systems', which is the core
//! mechanism behind the paper's HPCG/Nekbone results.

/// An achievable-performance envelope: flop ceiling + bandwidth ceiling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    /// Achievable flop rate in GFLOP/s for the resource set.
    pub gflops: f64,
    /// Achievable memory bandwidth in GB/s for the resource set.
    pub bw_gbs: f64,
}

/// A point on (or under) the roofline: a kernel with measured work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RooflinePoint {
    /// Floating-point operations performed.
    pub flops: f64,
    /// Bytes moved to/from memory.
    pub bytes: f64,
}

impl RooflinePoint {
    /// Arithmetic intensity in flops/byte. Returns `f64::INFINITY` for a
    /// kernel that moves no data.
    pub fn arithmetic_intensity(&self) -> f64 {
        if self.bytes == 0.0 {
            f64::INFINITY
        } else {
            self.flops / self.bytes
        }
    }
}

impl Roofline {
    /// Construct a roofline envelope.
    pub fn new(gflops: f64, bw_gbs: f64) -> Self {
        assert!(
            gflops > 0.0 && bw_gbs > 0.0,
            "roofline ceilings must be positive"
        );
        Roofline { gflops, bw_gbs }
    }

    /// The arithmetic intensity (flops/byte) at which the kernel transitions
    /// from memory-bound to compute-bound.
    pub fn ridge_intensity(&self) -> f64 {
        self.gflops / self.bw_gbs
    }

    /// Execution time in seconds for a kernel performing `point.flops` flops
    /// and moving `point.bytes` bytes: the max of the flop-bound and
    /// bandwidth-bound times (no overlap slack — both resources are assumed
    /// perfectly overlapped, which is the classic roofline assumption).
    pub fn time_s(&self, point: RooflinePoint) -> f64 {
        let t_flop = point.flops / (self.gflops * 1e9);
        let t_mem = point.bytes / (self.bw_gbs * 1e9);
        t_flop.max(t_mem)
    }

    /// Achieved GFLOP/s for the kernel under this envelope.
    pub fn achieved_gflops(&self, point: RooflinePoint) -> f64 {
        let t = self.time_s(point);
        if t == 0.0 {
            0.0
        } else {
            point.flops / t / 1e9
        }
    }

    /// Whether the kernel is memory-bound under this envelope.
    pub fn memory_bound(&self, point: RooflinePoint) -> bool {
        point.arithmetic_intensity() < self.ridge_intensity()
    }

    /// Scale both ceilings, e.g. to derive a per-rank share of a node.
    pub fn scaled(&self, flop_factor: f64, bw_factor: f64) -> Self {
        Roofline::new(self.gflops * flop_factor, self.bw_gbs * bw_factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_bound_kernel_time_set_by_bandwidth() {
        let r = Roofline::new(1000.0, 100.0); // ridge at 10 flops/byte
        let p = RooflinePoint {
            flops: 1e9,
            bytes: 4e9,
        }; // AI = 0.25
        assert!(r.memory_bound(p));
        assert!((r.time_s(p) - 4e9 / 100e9).abs() < 1e-12);
        // Achieved flops = AI * BW = 0.25 * 100 = 25 GFLOP/s.
        assert!((r.achieved_gflops(p) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn compute_bound_kernel_time_set_by_flops() {
        let r = Roofline::new(1000.0, 100.0);
        let p = RooflinePoint {
            flops: 100e9,
            bytes: 1e9,
        }; // AI = 100
        assert!(!r.memory_bound(p));
        assert!((r.time_s(p) - 0.1).abs() < 1e-12);
        assert!((r.achieved_gflops(p) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn ridge_is_ratio() {
        let r = Roofline::new(3379.2, 840.0);
        assert!((r.ridge_intensity() - 3379.2 / 840.0).abs() < 1e-12);
    }

    #[test]
    fn zero_byte_kernel_is_compute_bound() {
        let r = Roofline::new(10.0, 10.0);
        let p = RooflinePoint {
            flops: 1e9,
            bytes: 0.0,
        };
        assert_eq!(p.arithmetic_intensity(), f64::INFINITY);
        assert!(!r.memory_bound(p));
    }

    #[test]
    #[should_panic]
    fn non_positive_ceilings_rejected() {
        let _ = Roofline::new(0.0, 1.0);
    }

    #[test]
    fn scaled_shares_resources() {
        let r = Roofline::new(100.0, 50.0).scaled(0.5, 0.25);
        assert!((r.gflops - 50.0).abs() < 1e-12);
        assert!((r.bw_gbs - 12.5).abs() < 1e-12);
    }
}
