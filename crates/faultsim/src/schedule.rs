//! Seeded, deterministic fault schedules.
//!
//! A [`FaultSchedule`] is a pure function of `(seed, system, nranks)` (plus
//! the node count and the rates in [`FaultConfig`]): the same key always
//! yields the identical event list, per-rank straggler multipliers and
//! per-node memory derates, on every platform, with no `std` randomness.
//! Consumers — `netsim` link delivery, `simmpi::World`, the resilient
//! executor — only *read* schedules, so a simulation under faults is as
//! repeatable as one without.
//!
//! Four fault families, mirroring what the paper's authors actually hit on
//! the early-access A64FX and Fulhame systems:
//!
//! * **node crashes** — a Poisson process over the job's nodes; a crash
//!   kills every rank on the node at that instant.
//! * **link flaps** — windows during which one node's NIC runs derated
//!   (routing around a flapping link costs bandwidth).
//! * **straggler jitter** — a fraction of ranks computes at a multiplier
//!   `> 1` for the whole job (per-core manufacturing/thermal variability).
//! * **memory-pressure derate** — a fraction of nodes sustains only part
//!   of its nominal memory bandwidth (a neighbour job, a leaking daemon).

use crate::rng::SplitMix64;
use archsim::SystemId;

/// Stream labels (see [`SplitMix64::stream`]): one substream per family.
const STREAM_CRASH: u64 = 1;
const STREAM_FLAP: u64 = 2;
const STREAM_STRAGGLER: u64 = 3;
const STREAM_MEMORY: u64 = 4;

/// Rates and magnitudes of the injected faults. All rates are per the
/// *simulated* job, in simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Schedule seed. Same seed ⇒ same schedule (given system and ranks).
    pub seed: u64,
    /// Mean time between node crashes *per node*, seconds.
    /// `f64::INFINITY` disables crashes.
    pub node_mtbf_s: f64,
    /// Mean time between link-flap windows per node, seconds.
    /// `f64::INFINITY` disables flaps.
    pub link_flap_mtbf_s: f64,
    /// Duration of one link-flap window, seconds.
    pub link_flap_duration_s: f64,
    /// Bandwidth factor in `(0, 1]` a flapped node's NIC sustains.
    pub link_degrade_factor: f64,
    /// Probability any single message attempt is lost and must be retried.
    pub msg_drop_prob: f64,
    /// Fraction of ranks that are stragglers.
    pub straggler_frac: f64,
    /// Worst-case straggler compute multiplier (sampled in
    /// `[1, straggler_slowdown_max]`).
    pub straggler_slowdown_max: f64,
    /// Fraction of nodes under memory pressure.
    pub mem_derate_frac: f64,
    /// Worst-case memory-bandwidth factor for a derated node (sampled in
    /// `[mem_derate_floor, 1]`).
    pub mem_derate_floor: f64,
    /// Schedule horizon, seconds of simulated job time: crash/flap events
    /// are generated out to this point.
    pub horizon_s: f64,
}

impl FaultConfig {
    /// The default: no faults at all. Every rate is off, so the generated
    /// schedule is empty and installing it changes nothing.
    pub fn disabled() -> Self {
        FaultConfig {
            seed: 0,
            node_mtbf_s: f64::INFINITY,
            link_flap_mtbf_s: f64::INFINITY,
            link_flap_duration_s: 0.0,
            link_degrade_factor: 1.0,
            msg_drop_prob: 0.0,
            straggler_frac: 0.0,
            straggler_slowdown_max: 1.0,
            mem_derate_frac: 0.0,
            mem_derate_floor: 1.0,
            horizon_s: 0.0,
        }
    }

    /// An "immature early-access machine" profile scaled to a node MTBF:
    /// crashes at `node_mtbf_s`, occasional flaps, mild stragglers and
    /// memory pressure, the lot seeded by `seed`.
    pub fn early_access(seed: u64, node_mtbf_s: f64, horizon_s: f64) -> Self {
        FaultConfig {
            seed,
            node_mtbf_s,
            link_flap_mtbf_s: node_mtbf_s / 2.0,
            link_flap_duration_s: horizon_s / 20.0,
            link_degrade_factor: 0.5,
            msg_drop_prob: 1e-3,
            straggler_frac: 0.05,
            straggler_slowdown_max: 1.15,
            mem_derate_frac: 0.1,
            mem_derate_floor: 0.8,
            horizon_s,
        }
    }

    /// Whether this configuration can inject anything at all.
    pub fn is_disabled(&self) -> bool {
        self.node_mtbf_s.is_infinite()
            && self.link_flap_mtbf_s.is_infinite()
            && self.msg_drop_prob == 0.0
            && self.straggler_frac == 0.0
            && self.mem_derate_frac == 0.0
    }
}

/// One scheduled fault event, timestamped in simulated microseconds.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Node `node` crashes at `at_us`; every rank on it is lost.
    NodeCrash {
        /// Node index within the job.
        node: usize,
        /// Crash instant, microseconds.
        at_us: f64,
    },
    /// Node `node`'s NIC is derated to `factor` of nominal bandwidth over
    /// `[from_us, until_us)`.
    LinkDegrade {
        /// Node index within the job.
        node: usize,
        /// Window start, microseconds.
        from_us: f64,
        /// Window end, microseconds.
        until_us: f64,
        /// Bandwidth factor in `(0, 1]`.
        factor: f64,
    },
}

impl FaultEvent {
    /// The event's timestamp (window start for degradations).
    pub fn at_us(&self) -> f64 {
        match self {
            FaultEvent::NodeCrash { at_us, .. } => *at_us,
            FaultEvent::LinkDegrade { from_us, .. } => *from_us,
        }
    }
}

/// A fully materialised fault schedule for one job.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    /// The configuration the schedule was generated from.
    pub config: FaultConfig,
    /// The system the schedule was keyed to.
    pub system: SystemId,
    /// Ranks in the job the schedule was keyed to.
    pub nranks: u32,
    /// Nodes in the job.
    pub nodes: usize,
    /// Timed events (crashes, degradation windows), sorted by time.
    pub events: Vec<FaultEvent>,
    /// Per-rank compute-time multiplier, `>= 1` (1 = nominal).
    pub straggler_mult: Vec<f64>,
    /// Per-node memory-bandwidth factor in `(0, 1]` (1 = nominal).
    pub mem_derate: Vec<f64>,
}

/// Mix the schedule key into a single stream seed. This is the seeding
/// contract documented in EXPERIMENTS.md: the base seed, the system's
/// stable index and the rank count are hashed together, so schedules for
/// different systems or job sizes are unrelated even at the same seed.
fn key_seed(seed: u64, system: SystemId, nranks: u32) -> u64 {
    let sys = SystemId::all()
        .iter()
        .position(|&s| s == system)
        .expect("every system is enumerable") as u64;
    seed ^ (sys.wrapping_mul(0xD6E8_FEB8_6659_FD93)) ^ (u64::from(nranks) << 32)
}

impl FaultSchedule {
    /// The empty schedule: installing it anywhere is a no-op.
    pub fn none(system: SystemId, nranks: u32, nodes: usize) -> Self {
        FaultSchedule {
            config: FaultConfig::disabled(),
            system,
            nranks,
            nodes,
            events: Vec::new(),
            straggler_mult: vec![1.0; nranks as usize],
            mem_derate: vec![1.0; nodes],
        }
    }

    /// Generate the schedule for `(cfg.seed, system, nranks)` on a job of
    /// `nodes` nodes. Pure and deterministic: identical arguments always
    /// produce an identical schedule.
    pub fn generate(cfg: &FaultConfig, system: SystemId, nranks: u32, nodes: usize) -> Self {
        assert!(nodes >= 1, "a job occupies at least one node");
        assert!(nranks >= 1, "a job has at least one rank");
        if cfg.is_disabled() {
            return FaultSchedule {
                config: *cfg,
                ..FaultSchedule::none(system, nranks, nodes)
            };
        }
        let key = key_seed(cfg.seed, system, nranks);
        let horizon_us = cfg.horizon_s * 1e6;
        let mut events = Vec::new();

        // Node crashes: one Poisson arrival process per node.
        if cfg.node_mtbf_s.is_finite() && cfg.node_mtbf_s > 0.0 {
            let mut rng = SplitMix64::stream(key, STREAM_CRASH);
            for node in 0..nodes {
                // One crash per node at most: the node is dead afterwards.
                let at_us = rng.exp(cfg.node_mtbf_s) * 1e6;
                if at_us < horizon_us {
                    events.push(FaultEvent::NodeCrash { node, at_us });
                }
            }
        }

        // Link flaps: repeated derate windows per node.
        if cfg.link_flap_mtbf_s.is_finite() && cfg.link_flap_mtbf_s > 0.0 {
            let mut rng = SplitMix64::stream(key, STREAM_FLAP);
            for node in 0..nodes {
                let mut t_us = rng.exp(cfg.link_flap_mtbf_s) * 1e6;
                while t_us < horizon_us {
                    let dur_us = cfg.link_flap_duration_s * 1e6;
                    events.push(FaultEvent::LinkDegrade {
                        node,
                        from_us: t_us,
                        until_us: t_us + dur_us,
                        factor: cfg.link_degrade_factor,
                    });
                    t_us += dur_us + rng.exp(cfg.link_flap_mtbf_s) * 1e6;
                }
            }
        }

        // Sort by time; ties broken by the (stable) generation order above.
        events.sort_by(|a, b| a.at_us().total_cmp(&b.at_us()));

        // Straggler multipliers: per-rank, fixed for the job.
        let mut straggler_mult = vec![1.0; nranks as usize];
        if cfg.straggler_frac > 0.0 {
            let mut rng = SplitMix64::stream(key, STREAM_STRAGGLER);
            for m in &mut straggler_mult {
                if rng.next_f64() < cfg.straggler_frac {
                    *m = rng.range_f64(1.0, cfg.straggler_slowdown_max.max(1.0));
                }
            }
        }

        // Memory-pressure derates: per-node, fixed for the job.
        let mut mem_derate = vec![1.0; nodes];
        if cfg.mem_derate_frac > 0.0 {
            let mut rng = SplitMix64::stream(key, STREAM_MEMORY);
            for d in &mut mem_derate {
                if rng.next_f64() < cfg.mem_derate_frac {
                    *d = rng.range_f64(cfg.mem_derate_floor.clamp(0.01, 1.0), 1.0);
                }
            }
        }

        FaultSchedule {
            config: *cfg,
            system,
            nranks,
            nodes,
            events,
            straggler_mult,
            mem_derate,
        }
    }

    /// Whether the schedule injects nothing (no events, all multipliers
    /// nominal, no message drops).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
            && self.config.msg_drop_prob == 0.0
            && self.straggler_mult.iter().all(|&m| m == 1.0)
            && self.mem_derate.iter().all(|&d| d == 1.0)
    }

    /// Crash times in microseconds per node (`None` = the node survives).
    pub fn crash_times_us(&self) -> Vec<Option<f64>> {
        let mut out = vec![None; self.nodes];
        for e in &self.events {
            if let FaultEvent::NodeCrash { node, at_us } = e {
                let slot = &mut out[*node];
                if slot.is_none_or(|t| *at_us < t) {
                    *slot = Some(*at_us);
                }
            }
        }
        out
    }

    /// The NIC bandwidth factor of `node` at time `at_us` (1 = nominal):
    /// the minimum over all degradation windows covering that instant.
    pub fn link_factor(&self, node: usize, at_us: f64) -> f64 {
        let mut f: f64 = 1.0;
        for e in &self.events {
            if let FaultEvent::LinkDegrade {
                node: n,
                from_us,
                until_us,
                factor,
            } = e
            {
                if *n == node && (*from_us..*until_us).contains(&at_us) {
                    f = f.min(*factor);
                }
            }
        }
        f
    }

    /// A compact human-readable summary ("3 crashes, 5 flap windows, ...").
    pub fn summary(&self) -> String {
        let crashes = self
            .events
            .iter()
            .filter(|e| matches!(e, FaultEvent::NodeCrash { .. }))
            .count();
        let flaps = self.events.len() - crashes;
        let stragglers = self.straggler_mult.iter().filter(|&&m| m > 1.0).count();
        let derated = self.mem_derate.iter().filter(|&&d| d < 1.0).count();
        format!(
            "{crashes} crash(es), {flaps} flap window(s), {stragglers} straggler rank(s), {derated} derated node(s)"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harsh(seed: u64) -> FaultConfig {
        FaultConfig::early_access(seed, 30.0, 60.0)
    }

    #[test]
    fn same_key_same_schedule() {
        let a = FaultSchedule::generate(&harsh(1), SystemId::A64fx, 96, 2);
        let b = FaultSchedule::generate(&harsh(1), SystemId::A64fx, 96, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_different_schedule() {
        let a = FaultSchedule::generate(&harsh(1), SystemId::A64fx, 96, 2);
        let b = FaultSchedule::generate(&harsh(2), SystemId::A64fx, 96, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn different_system_or_ranks_different_schedule() {
        let a = FaultSchedule::generate(&harsh(1), SystemId::A64fx, 96, 2);
        let b = FaultSchedule::generate(&harsh(1), SystemId::Fulhame, 96, 2);
        let c = FaultSchedule::generate(&harsh(1), SystemId::A64fx, 48, 2);
        assert_ne!(a.events, b.events);
        assert_ne!(a.nranks, c.nranks);
        assert!(a.events != c.events || a.straggler_mult != c.straggler_mult);
    }

    #[test]
    fn disabled_config_generates_empty_schedule() {
        let s = FaultSchedule::generate(&FaultConfig::disabled(), SystemId::Archer, 24, 1);
        assert!(s.is_empty());
        assert!(s.events.is_empty());
        assert!(s.straggler_mult.iter().all(|&m| m == 1.0));
        assert!(s.mem_derate.iter().all(|&d| d == 1.0));
        assert!(FaultSchedule::none(SystemId::Archer, 24, 1).is_empty());
    }

    #[test]
    fn events_sorted_and_within_horizon() {
        let s = FaultSchedule::generate(&harsh(7), SystemId::Ngio, 160, 4);
        let horizon_us = s.config.horizon_s * 1e6;
        let mut last = 0.0;
        for e in &s.events {
            assert!(e.at_us() >= last, "events must be time-sorted");
            assert!(e.at_us() < horizon_us);
            last = e.at_us();
        }
    }

    #[test]
    fn crash_times_and_link_factor_lookups() {
        let mut s = FaultSchedule::none(SystemId::A64fx, 4, 2);
        s.events = vec![
            FaultEvent::LinkDegrade {
                node: 0,
                from_us: 10.0,
                until_us: 20.0,
                factor: 0.5,
            },
            FaultEvent::NodeCrash {
                node: 1,
                at_us: 15.0,
            },
        ];
        let crash = s.crash_times_us();
        assert_eq!(crash[0], None);
        assert_eq!(crash[1], Some(15.0));
        assert_eq!(s.link_factor(0, 5.0), 1.0);
        assert_eq!(s.link_factor(0, 15.0), 0.5);
        assert_eq!(s.link_factor(0, 20.0), 1.0, "window end is exclusive");
        assert_eq!(s.link_factor(1, 15.0), 1.0);
        assert!(s.summary().contains("1 crash"));
    }

    #[test]
    fn multipliers_bounded() {
        let s = FaultSchedule::generate(&harsh(3), SystemId::Cirrus, 500, 14);
        for &m in &s.straggler_mult {
            assert!((1.0..=1.15).contains(&m), "multiplier {m}");
        }
        for &d in &s.mem_derate {
            assert!((0.8..=1.0).contains(&d), "derate {d}");
        }
    }

    #[test]
    fn higher_mtbf_means_fewer_crashes() {
        let count = |mtbf: f64| {
            let cfg = FaultConfig {
                node_mtbf_s: mtbf,
                ..FaultConfig::early_access(5, mtbf, 120.0)
            };
            let s = FaultSchedule::generate(&cfg, SystemId::Fulhame, 256, 64);
            s.events
                .iter()
                .filter(|e| matches!(e, FaultEvent::NodeCrash { .. }))
                .count()
        };
        assert!(
            count(10.0) > count(10_000.0),
            "rarer failures with higher MTBF"
        );
    }
}
