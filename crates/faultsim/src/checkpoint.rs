//! Checkpoint/restart cost model.
//!
//! Coordinated application-level checkpointing: every `every_iters`
//! iterations the job barriers and writes its state (per-rank bytes,
//! serialised through a shared per-node I/O bandwidth). After a node crash
//! the job restarts, pays a fixed restart cost, and replays everything
//! since the last checkpoint. The model also carries Young's classical
//! approximation for the optimal checkpoint interval, used by the
//! resilience experiment to pick a defensible interval per MTBF point.

/// A coordinated checkpoint/restart model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointModel {
    /// Checkpoint every this many iterations (0 = never checkpoint).
    pub every_iters: u32,
    /// Sustained per-node checkpoint-write bandwidth, GB/s (filesystem or
    /// burst-buffer share of one node).
    pub io_gbs_per_node: f64,
    /// Fixed cost of one restart (re-queue, relaunch, state reload), s.
    pub restart_s: f64,
}

impl CheckpointModel {
    /// No checkpointing: crashes lose the whole run.
    pub fn disabled() -> Self {
        CheckpointModel {
            every_iters: 0,
            io_gbs_per_node: 1.0,
            restart_s: 0.0,
        }
    }

    /// Whether checkpoints are taken at all.
    pub fn enabled(&self) -> bool {
        self.every_iters > 0
    }

    /// Wall time of one checkpoint write, microseconds: every rank's state
    /// drains through its node's I/O bandwidth share.
    pub fn write_us(&self, bytes_per_rank: u64, ranks_per_node: u32) -> f64 {
        assert!(ranks_per_node >= 1);
        let node_bytes = bytes_per_rank.saturating_mul(u64::from(ranks_per_node));
        node_bytes as f64 / (self.io_gbs_per_node * 1e3)
    }

    /// Young's approximation of the optimal checkpoint *period* (seconds
    /// of work between checkpoints): `sqrt(2 · write_cost · MTBF)`.
    /// Returns infinity when failures never happen.
    pub fn youngs_period_s(write_s: f64, mtbf_s: f64) -> f64 {
        if !mtbf_s.is_finite() {
            return f64::INFINITY;
        }
        (2.0 * write_s * mtbf_s).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_cost_scales_with_state_and_packing() {
        let m = CheckpointModel {
            every_iters: 5,
            io_gbs_per_node: 2.0,
            restart_s: 10.0,
        };
        // 1 GB per rank, 4 ranks/node at 2 GB/s: 2 s.
        let us = m.write_us(1 << 30, 4);
        assert!((us - 4.0 * (1u64 << 30) as f64 / 2e3).abs() < 1.0);
        // Twice the ranks per node: twice the wall time.
        assert!((m.write_us(1 << 30, 8) - 2.0 * us).abs() < 1.0);
    }

    #[test]
    fn disabled_model_never_checkpoints() {
        assert!(!CheckpointModel::disabled().enabled());
        assert!(CheckpointModel {
            every_iters: 3,
            ..CheckpointModel::disabled()
        }
        .enabled());
    }

    #[test]
    fn youngs_period_behaves() {
        assert!(CheckpointModel::youngs_period_s(1.0, f64::INFINITY).is_infinite());
        let t = CheckpointModel::youngs_period_s(2.0, 100.0);
        assert!((t - 20.0).abs() < 1e-12);
        // Rarer failures: longer period.
        assert!(CheckpointModel::youngs_period_s(2.0, 10_000.0) > t);
    }
}
