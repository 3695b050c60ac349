//! The execution cost model: replay an application trace on a simulated
//! system.
//!
//! Compute phases are priced with a per-kernel-class roofline:
//!
//! ```text
//! t = max( flops / (threads · core_peak · eff_f(class) · fastmath · omp),
//!          bytes / (bw_share · eff_m(class)) )
//! ```
//!
//! where `bw_share` is the rank's share of its memory domain's sustained
//! bandwidth (CMG-aware on the A64FX, saturation-aware for low core counts)
//! and the efficiencies come from [`crate::calibration`]. Communication
//! phases are handed to `simmpi`, so multi-node behaviour — scaling,
//! parallel efficiency, load imbalance, collectives — *emerges* from the
//! network simulation rather than being calibrated.

use a64fx_apps::trace::{Phase, Trace, WorkDist};
use a64fx_apps::KernelClass;
use archsim::{EcmModel, SystemId, SystemSpec, Toolchain};
use densela::Work;
use simmpi::{Placement, PlacementPolicy, World};
use std::collections::HashMap;

use crate::calibration::Calibration;

/// Which backend prices the memory side of compute phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PricingBackend {
    /// The flat per-kernel-class roofline (the default; reference
    /// semantics — byte-identical to every pre-ECM release).
    Flat,
    /// The cache-hierarchy ECM model ([`archsim::ecm`]): per-level
    /// transfer volumes from each phase's working-set size, per-pattern
    /// hardware-prefetch effectiveness, calibrated memory boundary.
    Ecm,
}

impl PricingBackend {
    /// Parse a backend name: `"flat"` or `"ecm"`. Whitespace is trimmed;
    /// matching is case-insensitive.
    ///
    /// # Errors
    /// Returns a human-readable reason when the value is unrecognised.
    pub fn parse(raw: &str) -> Result<PricingBackend, String> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "flat" => Ok(PricingBackend::Flat),
            "ecm" => Ok(PricingBackend::Ecm),
            _ => Err(format!(
                "unrecognised pricing backend {raw:?}: expected \"flat\" or \"ecm\""
            )),
        }
    }
}

impl std::fmt::Display for PricingBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PricingBackend::Flat => write!(f, "flat"),
            PricingBackend::Ecm => write!(f, "ecm"),
        }
    }
}

/// The pricing backend of the current thread's
/// [`RunConfig`](crate::runner::RunConfig) scope (flat outside any
/// scope); [`Executor::new`] prices with it.
pub fn default_pricing() -> PricingBackend {
    crate::runner::RunConfig::current().pricing
}

/// How a job is laid out: ranks, ranks per node, threads per rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobLayout {
    /// Total MPI ranks.
    pub ranks: u32,
    /// Ranks per node.
    pub ranks_per_node: u32,
    /// OpenMP threads (cores) per rank.
    pub threads_per_rank: u32,
}

impl JobLayout {
    /// MPI-only, fully-populated nodes.
    pub fn mpi_full(nodes: u32, spec: &SystemSpec) -> Self {
        let c = spec.node.cores();
        JobLayout {
            ranks: nodes * c,
            ranks_per_node: c,
            threads_per_rank: 1,
        }
    }

    /// One rank per memory domain, threads filling the domain.
    pub fn per_domain(nodes: u32, spec: &SystemSpec) -> Self {
        let d = spec.node.memory.num_domains() as u32;
        JobLayout {
            ranks: nodes * d,
            ranks_per_node: d,
            threads_per_rank: spec.node.cores() / d,
        }
    }

    /// Nodes this layout occupies.
    pub fn nodes(&self) -> u32 {
        self.ranks.div_ceil(self.ranks_per_node)
    }

    /// Cores in use.
    pub fn cores(&self) -> u32 {
        self.ranks * self.threads_per_rank
    }
}

/// The outcome of replaying a trace.
#[derive(Debug, Clone)]
pub struct ExecutionResult {
    /// Wall-clock runtime, seconds.
    pub runtime_s: f64,
    /// GFLOP/s over the trace's figure-of-merit flops (0 if none).
    pub gflops: f64,
    /// Seconds spent in compute on the critical path (max rank).
    pub compute_s: f64,
    /// Seconds of wait/communication on rank 0 (diagnostic).
    pub comm_wait_s: f64,
    /// Rank-0 compute seconds by kernel class — the per-phase profile the
    /// paper's profiling discussion (Fig. 1 caption, §VII.C) motivates.
    pub class_profile_s: Vec<(KernelClass, f64)>,
}

impl ExecutionResult {
    /// Fraction of rank-0 compute time spent in `class`.
    pub fn class_share(&self, class: KernelClass) -> f64 {
        let total: f64 = self.class_profile_s.iter().map(|(_, t)| t).sum();
        if total == 0.0 {
            return 0.0;
        }
        self.class_profile_s
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, t)| t / total)
            .unwrap_or(0.0)
    }
}

/// A trace priced for one (system, toolchain, calibration, placement):
/// every compute phase carries its per-rank durations, computed once by
/// [`Executor::price`] and reused across iterations.
///
/// Pricing is iteration-invariant — the roofline in
/// [`Executor`] reads only static world state (placement geometry,
/// bandwidth shares, installed memory derates), never the virtual
/// clocks — so replaying a priced trace is bit-identical to re-pricing
/// every iteration: the same `f64` durations are accumulated in the same
/// order. Straggler stretching and dead-rank skipping still happen
/// inside [`World::compute`], so a priced trace stays valid across fault
/// injection and ULFM shrink (price *after* [`World::install_faults`] so
/// memory derates are seen).
pub struct PricedTrace<'t> {
    prologue: Vec<PricedPhase<'t>>,
    body: Vec<PricedPhase<'t>>,
}

/// One phase plus, for compute phases, its per-rank priced durations (µs).
struct PricedPhase<'t> {
    phase: &'t Phase,
    times: Option<Vec<f64>>,
}

/// Replays traces on one simulated system with one toolchain.
pub struct Executor<'a> {
    spec: &'a SystemSpec,
    toolchain: &'a Toolchain,
    calib: Calibration,
    pricing: PricingBackend,
    ecm: EcmModel,
}

impl<'a> Executor<'a> {
    /// Create an executor for a system/toolchain pair with the default
    /// calibration and the current scope's pricing backend
    /// ([`default_pricing`]).
    pub fn new(spec: &'a SystemSpec, toolchain: &'a Toolchain) -> Self {
        Executor::with_pricing(spec, toolchain, default_pricing())
    }

    /// Create with an explicit pricing backend, independent of the
    /// current scope — the constructor E1 and the differential conform
    /// suite use so flat and ECM executors can coexist.
    pub fn with_pricing(
        spec: &'a SystemSpec,
        toolchain: &'a Toolchain,
        pricing: PricingBackend,
    ) -> Self {
        Executor {
            spec,
            toolchain,
            calib: Calibration::default(),
            pricing,
            ecm: EcmModel::for_system(&spec.node.memory, spec.node.processor.clock_ghz),
        }
    }

    /// Create with an explicit calibration (ablations) and the current
    /// scope's pricing backend.
    pub fn with_calibration(
        spec: &'a SystemSpec,
        toolchain: &'a Toolchain,
        calib: Calibration,
    ) -> Self {
        Executor {
            spec,
            toolchain,
            calib,
            pricing: default_pricing(),
            ecm: EcmModel::for_system(&spec.node.memory, spec.node.processor.clock_ghz),
        }
    }

    /// The system this executor prices.
    pub fn system(&self) -> SystemId {
        self.spec.id
    }

    /// The pricing backend this executor was built with.
    pub fn pricing(&self) -> PricingBackend {
        self.pricing
    }

    /// Replay `trace` under `layout`; returns the priced result.
    ///
    /// # Panics
    /// Panics if the layout is inconsistent with the trace's rank count or
    /// oversubscribes the node.
    pub fn run(&self, trace: &Trace, layout: JobLayout) -> ExecutionResult {
        let mut world = self.build_world(trace, layout);

        let priced = self.price(trace, &world);
        let mut compute_us = vec![0.0f64; layout.ranks as usize];
        let mut profile: HashMap<KernelClass, f64> = HashMap::new();
        self.replay_priced_phases(&priced.prologue, &mut world, &mut compute_us, &mut profile);
        for _ in 0..trace.iterations {
            self.replay_priced_phases(&priced.body, &mut world, &mut compute_us, &mut profile);
        }

        let runtime_s = world.elapsed_s();
        let gflops = if trace.fom_flops > 0.0 && runtime_s > 0.0 {
            trace.fom_flops / runtime_s / 1e9
        } else {
            0.0
        };
        let compute_s = compute_us.iter().copied().fold(0.0, f64::max) / 1e6;
        let mut class_profile_s: Vec<(KernelClass, f64)> =
            profile.into_iter().map(|(c, us)| (c, us / 1e6)).collect();
        class_profile_s.sort_by(|a, b| b.1.total_cmp(&a.1));
        ExecutionResult {
            runtime_s,
            gflops,
            compute_s,
            comm_wait_s: world.wait_us(0) / 1e6,
            class_profile_s,
        }
    }

    /// Build the simulated world [`Executor::run`] would replay `trace`
    /// onto — the entry point for callers (the resilient executor) that
    /// need to interleave their own events with the replay.
    ///
    /// # Panics
    /// Panics if the layout is inconsistent with the trace's rank count or
    /// oversubscribes the node.
    pub fn build_world(&self, trace: &Trace, layout: JobLayout) -> World {
        assert_eq!(
            trace.ranks, layout.ranks,
            "trace built for a different rank count"
        );
        let placement = Placement::new(
            layout.ranks,
            layout.ranks_per_node,
            layout.threads_per_rank,
            &self.spec.node,
            PlacementPolicy::RoundRobinDomain,
        )
        .expect("invalid layout");
        World::for_system(self.spec, placement)
    }

    /// Replay a full trace (prologue + all iterations) onto an existing
    /// world — the entry point for ablations that build their own
    /// `Placement`/`Network`.
    pub fn replay(&self, trace: &Trace, world: &mut World) {
        let priced = self.price(trace, world);
        let mut compute_us = vec![0.0f64; world.ranks() as usize];
        let mut sink = HashMap::new();
        self.replay_priced_phases(&priced.prologue, world, &mut compute_us, &mut sink);
        for _ in 0..trace.iterations {
            self.replay_priced_phases(&priced.body, world, &mut compute_us, &mut sink);
        }
    }

    /// Price every compute phase of `trace` against `world`, once. The
    /// world must be the one the priced trace will be replayed onto (in
    /// particular, price *after* [`World::install_faults`]).
    pub fn price<'t>(&self, trace: &'t Trace, world: &World) -> PricedTrace<'t> {
        PricedTrace {
            prologue: self.price_phases(&trace.prologue, world),
            body: self.price_phases(&trace.body, world),
        }
    }

    fn price_phases<'t>(&self, phases: &'t [Phase], world: &World) -> Vec<PricedPhase<'t>> {
        phases
            .iter()
            .map(|phase| {
                let times = match phase {
                    Phase::Compute {
                        class,
                        work,
                        ws_bytes,
                    } => {
                        let n = world.ranks();
                        let mut times = Vec::with_capacity(n as usize);
                        for r in 0..n {
                            times.push(self.compute_time_us(world, r, *class, work, *ws_bytes));
                        }
                        Some(times)
                    }
                    _ => None,
                };
                PricedPhase { phase, times }
            })
            .collect()
    }

    /// Replay only the trace's prologue onto `world`.
    pub fn replay_prologue(&self, trace: &Trace, world: &mut World) {
        let priced = self.price_phases(&trace.prologue, world);
        let mut compute_us = vec![0.0f64; world.ranks() as usize];
        let mut sink = HashMap::new();
        self.replay_priced_phases(&priced, world, &mut compute_us, &mut sink);
    }

    /// Replay one iteration of the trace's body onto `world`.
    pub fn replay_iteration(&self, trace: &Trace, world: &mut World) {
        let priced = self.price_phases(&trace.body, world);
        let mut compute_us = vec![0.0f64; world.ranks() as usize];
        let mut sink = HashMap::new();
        self.replay_priced_phases(&priced, world, &mut compute_us, &mut sink);
    }

    /// Replay the priced trace's prologue onto `world` — the pre-priced
    /// counterpart of [`Executor::replay_prologue`] for callers (the
    /// resilient executor) that replay the same body many times.
    pub fn replay_priced_prologue(&self, priced: &PricedTrace<'_>, world: &mut World) {
        let mut compute_us = vec![0.0f64; world.ranks() as usize];
        let mut sink = HashMap::new();
        self.replay_priced_phases(&priced.prologue, world, &mut compute_us, &mut sink);
    }

    /// Replay one iteration of the priced trace's body onto `world`.
    pub fn replay_priced_iteration(&self, priced: &PricedTrace<'_>, world: &mut World) {
        let mut compute_us = vec![0.0f64; world.ranks() as usize];
        let mut sink = HashMap::new();
        self.replay_priced_phases(&priced.body, world, &mut compute_us, &mut sink);
    }

    fn replay_priced_phases(
        &self,
        phases: &[PricedPhase<'_>],
        world: &mut World,
        compute_us: &mut [f64],
        profile: &mut HashMap<KernelClass, f64>,
    ) {
        let trace_spans = obs::enabled();
        for pp in phases {
            let before = if trace_spans { world.now_us(0) } else { 0.0 };
            match pp.phase {
                Phase::Compute { class, .. } => {
                    let times = pp.times.as_deref().expect("compute phases are priced");
                    for (r, &us) in times.iter().enumerate() {
                        compute_us[r] += us;
                    }
                    *profile.entry(*class).or_insert(0.0) += times[0];
                    world.compute_all(times);
                }
                Phase::Allreduce { bytes } => world.allreduce(*bytes),
                Phase::Halo { pairs } => world.halo_exchange(pairs),
                Phase::Alltoall { bytes_per_pair } => world.alltoall(*bytes_per_pair),
                Phase::Allgather { bytes } => world.allgather(*bytes),
                Phase::Barrier => world.barrier(),
                Phase::Overhead { us } => world.compute_uniform(*us),
            }
            if trace_spans {
                // Rank-0 view of the phase — the same interval and label
                // the per-iteration timeline reports.
                obs::add("app.phases", 1);
                obs::span(
                    "app.phase",
                    &pp.phase.label(),
                    before,
                    world.now_us(0) - before,
                    &[("phase", obs::AttrValue::Str(pp.phase.kind()))],
                );
            }
        }
    }

    /// Price one kernel under `layout` without building a full trace —
    /// the seam the E1 sweep, the `ecm` conform suite, and
    /// `bench_json --ecm` share.
    ///
    /// # Panics
    /// Panics if the layout oversubscribes the node.
    pub fn kernel_time_us(
        &self,
        layout: JobLayout,
        class: KernelClass,
        work: Work,
        ws_bytes: u64,
    ) -> f64 {
        let placement = Placement::new(
            layout.ranks,
            layout.ranks_per_node,
            layout.threads_per_rank,
            &self.spec.node,
            PlacementPolicy::RoundRobinDomain,
        )
        .expect("invalid layout");
        let world = World::for_system(self.spec, placement);
        self.compute_time_us(&world, 0, class, &WorkDist::Uniform(work), ws_bytes)
    }

    /// Price one rank's share of a compute phase, microseconds.
    fn compute_time_us(
        &self,
        world: &World,
        rank: u32,
        class: a64fx_apps::KernelClass,
        work: &WorkDist,
        ws_bytes: u64,
    ) -> f64 {
        let w = work.of_rank(rank as usize);
        if w.flops == 0 && w.bytes() == 0 {
            return 0.0;
        }
        let threads = world.placement().threads_per_rank();
        let sys = self.spec.id;

        // Flop ceiling, GFLOP/s.
        let mut flop_gflops = f64::from(threads)
            * self.spec.node.processor.peak_dp_gflops_per_core()
            * self.calib.flop_eff(sys, class);
        if self.toolchain.fastmath && Calibration::fastmath_applies(class) {
            flop_gflops *= self.calib.fastmath_factor(sys, self.toolchain);
        }
        flop_gflops *= Calibration::omp_efficiency(threads);
        if threads > self.spec.node.cores_per_domain() {
            flop_gflops *= Calibration::NUMA_SPAN_PENALTY;
        }

        // Bandwidth ceiling, GB/s.
        let bw_share =
            world.rank_bw_share_gbs(rank, &self.spec.node, self.spec.bw_saturation_cores);
        let bw = bw_share * self.calib.mem_eff(sys, class);

        let t_flop_us = w.flops as f64 / (flop_gflops * 1e3);
        let t_mem_us = match self.pricing {
            // Reference path: kept operation-for-operation identical so
            // flat output stays byte-stable across releases.
            PricingBackend::Flat => w.bytes() as f64 / (bw * 1e3),
            // ECM path replaces only the memory term; the flop ceiling is
            // hierarchy-independent. The memory boundary is priced at the
            // same calibrated bandwidth the flat model uses, so ECM
            // converges to flat from below as the working set spills.
            PricingBackend::Ecm => self.ecm.mem_time_us(
                w.bytes() as f64,
                ws_bytes,
                class.access_pattern(),
                threads,
                bw,
            ),
        };
        t_flop_us.max(t_mem_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a64fx_apps::{hpcg, nekbone};
    use archsim::{paper_toolchain, system};

    fn exec_for(id: SystemId, app: &str) -> (SystemSpec, Toolchain) {
        let spec = system(id);
        let tc = paper_toolchain(id, app).unwrap();
        (spec, tc)
    }

    #[test]
    fn hpcg_single_node_runs_and_reports_gflops() {
        let (spec, tc) = exec_for(SystemId::A64fx, "hpcg");
        let ex = Executor::new(&spec, &tc);
        let t = hpcg::trace(hpcg::HpcgConfig::paper(), 48);
        let r = ex.run(&t, JobLayout::mpi_full(1, &spec));
        assert!(r.runtime_s > 0.0);
        assert!(r.gflops > 1.0 && r.gflops < 500.0, "gflops {}", r.gflops);
    }

    #[test]
    fn more_nodes_more_hpcg_gflops() {
        let (spec, tc) = exec_for(SystemId::A64fx, "hpcg");
        let ex = Executor::new(&spec, &tc);
        let r1 = ex.run(
            &hpcg::trace(hpcg::HpcgConfig::paper(), 48),
            JobLayout::mpi_full(1, &spec),
        );
        let r4 = ex.run(
            &hpcg::trace(hpcg::HpcgConfig::paper(), 192),
            JobLayout::mpi_full(4, &spec),
        );
        assert!(
            r4.gflops > 3.0 * r1.gflops,
            "weak scaling: {} vs {}",
            r4.gflops,
            r1.gflops
        );
    }

    #[test]
    fn fastmath_speeds_up_nekbone_on_a64fx() {
        let spec = system(SystemId::A64fx);
        let tc = paper_toolchain(SystemId::A64fx, "nekbone").unwrap();
        let no_fm = tc.with_fastmath(false);
        let t = nekbone::trace(nekbone::NekboneConfig::paper(), 48);
        let layout = JobLayout::mpi_full(1, &spec);
        let fast = Executor::new(&spec, &tc).run(&t, layout);
        let slow = Executor::new(&spec, &no_fm).run(&t, layout);
        assert!(
            fast.gflops > 1.5 * slow.gflops,
            "paper: -Kfast nearly doubles Nekbone: {} vs {}",
            fast.gflops,
            slow.gflops
        );
    }

    #[test]
    #[should_panic(expected = "different rank count")]
    fn mismatched_layout_rejected() {
        let (spec, tc) = exec_for(SystemId::A64fx, "hpcg");
        let ex = Executor::new(&spec, &tc);
        let t = hpcg::trace(hpcg::HpcgConfig::paper(), 48);
        let bad = JobLayout {
            ranks: 96,
            ranks_per_node: 48,
            threads_per_rank: 1,
        };
        ex.run(&t, bad);
    }

    #[test]
    fn priced_replay_matches_unpriced_bitwise() {
        let (spec, tc) = exec_for(SystemId::A64fx, "hpcg");
        let ex = Executor::new(&spec, &tc);
        let t = hpcg::trace(
            hpcg::HpcgConfig {
                local: (16, 16, 16),
                mg_levels: 3,
                iterations: 5,
            },
            48,
        );
        let layout = JobLayout::mpi_full(1, &spec);
        let mut plain = ex.build_world(&t, layout);
        ex.replay_prologue(&t, &mut plain);
        for _ in 0..t.iterations {
            ex.replay_iteration(&t, &mut plain);
        }
        let mut priced_world = ex.build_world(&t, layout);
        let priced = ex.price(&t, &priced_world);
        ex.replay_priced_prologue(&priced, &mut priced_world);
        for _ in 0..t.iterations {
            ex.replay_priced_iteration(&priced, &mut priced_world);
        }
        assert_eq!(
            plain.elapsed_us().to_bits(),
            priced_world.elapsed_us().to_bits(),
            "pricing once must not move a single bit"
        );
        // run() prices internally and must agree too.
        let r = ex.run(&t, layout);
        assert_eq!(r.runtime_s.to_bits(), priced_world.elapsed_s().to_bits());
    }

    #[test]
    fn compute_dominates_single_node_hpcg() {
        let (spec, tc) = exec_for(SystemId::Ngio, "hpcg");
        let ex = Executor::new(&spec, &tc);
        let t = hpcg::trace(hpcg::HpcgConfig::paper(), 48);
        let r = ex.run(&t, JobLayout::mpi_full(1, &spec));
        assert!(
            r.compute_s > 0.5 * r.runtime_s,
            "single node is compute/bandwidth dominated"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use a64fx_apps::hpcg;
    use archsim::{paper_toolchain, system};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn more_bandwidth_never_slower(sys_idx in 0usize..5, scale in 1.0f64..3.0) {
            let id = SystemId::all()[sys_idx];
            let spec = system(id);
            let tc = paper_toolchain(id, "hpcg").unwrap();
            let layout = JobLayout::mpi_full(1, &spec);
            let trace = hpcg::trace(hpcg::HpcgConfig { local: (16, 16, 16), mg_levels: 3, iterations: 5 }, layout.ranks);
            let base = Executor::new(&spec, &tc).run(&trace, layout);
            let calib = Calibration { mem_scale: scale, ..Default::default() };
            let boosted = Executor::with_calibration(&spec, &tc, calib).run(&trace, layout);
            prop_assert!(boosted.runtime_s <= base.runtime_s + 1e-12);
        }

        #[test]
        fn more_iterations_take_longer(iters in 1u32..20) {
            let spec = system(SystemId::A64fx);
            let tc = paper_toolchain(SystemId::A64fx, "hpcg").unwrap();
            let layout = JobLayout::mpi_full(1, &spec);
            let small = hpcg::HpcgConfig { local: (16, 16, 16), mg_levels: 3, iterations: iters };
            let bigger = hpcg::HpcgConfig { iterations: iters + 1, ..small };
            let t1 = Executor::new(&spec, &tc).run(&hpcg::trace(small, layout.ranks), layout);
            let t2 = Executor::new(&spec, &tc).run(&hpcg::trace(bigger, layout.ranks), layout);
            prop_assert!(t2.runtime_s > t1.runtime_s);
        }

        #[test]
        fn weak_scaling_never_reduces_total_gflops(nodes in 1u32..6) {
            let spec = system(SystemId::Fulhame);
            let tc = paper_toolchain(SystemId::Fulhame, "hpcg").unwrap();
            let cfg = hpcg::HpcgConfig { local: (16, 16, 16), mg_levels: 3, iterations: 5 };
            let l1 = JobLayout::mpi_full(nodes, &spec);
            let l2 = JobLayout::mpi_full(nodes + 1, &spec);
            let g1 = Executor::new(&spec, &tc).run(&hpcg::trace(cfg, l1.ranks), l1).gflops;
            let g2 = Executor::new(&spec, &tc).run(&hpcg::trace(cfg, l2.ranks), l2).gflops;
            prop_assert!(g2 > g1, "weak scaling must add throughput: {} -> {}", g1, g2);
        }
    }
}
