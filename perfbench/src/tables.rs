//! `paper_tables`: regenerate the paper's tables, cold, the way `repro`
//! does; and the job-grid probe that splits their host time by layer.

use std::hint::black_box;
use std::sync::Arc;

use a64fx_apps::cosa::CosaConfig;
use a64fx_apps::hpcg::HpcgConfig;
use a64fx_apps::minikab::MinikabConfig;
use a64fx_apps::nekbone::NekboneConfig;
use a64fx_apps::opensbli::OpensbliConfig;
use a64fx_apps::Trace;
use a64fx_core::experiments::{ExperimentEntry, REGISTRY};
use a64fx_core::{paper, tracecache, Calibration, Executor, JobLayout, Table};
use archsim::{paper_toolchain, system, SystemId};

use crate::checks::{Checks, Goldens};
use crate::span::{self, span, Layer};
use crate::stats::SplitMix64;
use crate::{timed, Round, Workload};

/// The experiments the workload regenerates: every registry entry but D1,
/// whose DES sweep is the `des_fugaku` workload.
pub fn experiments() -> Vec<ExperimentEntry> {
    REGISTRY.iter().copied().filter(|e| e.0 != "d1").collect()
}

/// The `paper_tables` workload.
pub struct PaperTables {
    order: Vec<ExperimentEntry>,
    grid: Vec<Job>,
    rendered_for_probe: Vec<Table>,
}

impl PaperTables {
    /// The experiments in a seeded order.
    pub fn new(seed: u64) -> Self {
        let mut order = experiments();
        SplitMix64::new(seed, "paper_tables.order").shuffle(&mut order);
        let mut grid = job_grid();
        SplitMix64::new(seed, "paper_tables.grid").shuffle(&mut grid);
        PaperTables {
            order,
            grid,
            rendered_for_probe: Vec::new(),
        }
    }
}

impl Workload for PaperTables {
    /// Each table with its rendered length.
    type Out = Vec<(Table, usize)>;

    /// One cold regeneration: clear the trace cache, run and render every
    /// table.
    fn iteration(&mut self) -> Self::Out {
        tracecache::clear();
        self.order
            .iter()
            .map(|(_, _, generate)| {
                let t = generate();
                let text = black_box(t.render());
                (t, text.len())
            })
            .collect()
    }

    /// Each table against its golden. The first checked tables are kept
    /// for the probe's report layer.
    fn check(&mut self, out: &Self::Out, goldens: &Goldens, checks: &mut Checks) {
        for (t, _) in out {
            goldens.check(t, checks);
        }
        if self.rendered_for_probe.is_empty() {
            self.rendered_for_probe = out.iter().map(|(t, _)| t.clone()).collect();
        }
    }

    /// The job-grid probe, untraced then traced, each from a cold cache.
    /// The untraced side runs the grid through `Executor::run`; the traced
    /// side drives the same jobs through the layers' public calls, and each
    /// job's simulated runtime must match bit for bit.
    fn round(&mut self, _goldens: &Goldens, checks: &mut Checks) -> Round {
        tracecache::clear();
        let (reference, untraced_s) = timed(|| {
            let runtimes: Vec<f64> = self.grid.iter().map(Job::run).collect();
            for t in &self.rendered_for_probe {
                black_box(t.render());
            }
            runtimes
        });

        tracecache::clear();
        let cache0 = tracecache::stats();
        let coll0 = simmpi::collcache::stats();
        span::start();
        let ((probes, report_bytes), traced_s) = timed(|| {
            let probes: Vec<Replay> = self.grid.iter().map(Job::probe).collect();
            let bytes: usize = self
                .rendered_for_probe
                .iter()
                .map(|t| span(Layer::Render, || black_box(t.render())).len())
                .sum();
            (probes, bytes)
        });
        let profile = span::finish();
        let cache = tracecache::stats();
        let coll = simmpi::collcache::stats();

        for ((job, p), want) in self.grid.iter().zip(&probes).zip(&reference) {
            checks.op(p.runtime_s.to_bits() == want.to_bits(), || {
                format!(
                    "{job:?}: probe runtime {} != Executor::run {want}",
                    p.runtime_s
                )
            });
        }
        let hits = (cache.hits - cache0.hits) as f64;
        let misses = (cache.misses - cache0.misses) as f64;
        let coll_hits = (coll.hits - coll0.hits) as f64;
        let coll_misses = (coll.misses - coll0.misses) as f64;
        let sum = |f: fn(&Replay) -> u64| probes.iter().map(f).sum::<u64>() as f64;
        let metrics = vec![
            ("apps.trace.calls", profile.calls(Layer::AppsTrace) as f64),
            ("apps.trace.busy_s", profile.busy_s(Layer::AppsTrace)),
            ("tracecache.hits", hits),
            ("tracecache.misses", misses),
            ("tracecache.hit_ratio", hits / (hits + misses).max(1.0)),
            ("tracecache.fetch.busy_s", profile.busy_s(Layer::CacheFetch)),
            (
                "tracecache.resident_bytes",
                tracecache::resident_bytes() as f64,
            ),
            ("costmodel.price.calls", profile.calls(Layer::Price) as f64),
            ("costmodel.price.phases", sum(|p| p.priced_phases)),
            ("costmodel.price.busy_s", profile.busy_s(Layer::Price)),
            ("simmpi.world.busy_s", profile.busy_s(Layer::World)),
            ("simmpi.replay.phases", sum(|p| p.replayed_phases)),
            ("simmpi.replay.busy_s", profile.busy_s(Layer::Replay)),
            ("simmpi.collcache.hits", coll_hits),
            ("simmpi.collcache.misses", coll_misses),
            (
                "simmpi.collcache.hit_ratio",
                coll_hits / (coll_hits + coll_misses).max(1.0),
            ),
            ("report.render.busy_s", profile.busy_s(Layer::Render)),
            ("report.bytes", report_bytes as f64),
        ];
        Round {
            untraced_s,
            traced_s,
            profile,
            metrics,
        }
    }
}

/// The application a grid job runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum App {
    /// HPCG, with or without the vendor-optimised kernels.
    Hpcg {
        /// Price the optimised kernel variants.
        optimised: bool,
    },
    /// minikab.
    Minikab,
    /// Nekbone.
    Nekbone,
    /// COSA.
    Cosa,
    /// OpenSBLI.
    Opensbli,
}

impl App {
    fn toolchain_key(self) -> &'static str {
        match self {
            App::Hpcg { .. } => "hpcg",
            App::Minikab => "minikab",
            App::Nekbone => "nekbone",
            App::Cosa => "cosa",
            App::Opensbli => "opensbli",
        }
    }

    /// The paper-configuration trace for `ranks` ranks, through the trace
    /// cache, timing the fetch and (on a miss) the build.
    fn trace(self, ranks: u32) -> Arc<Trace> {
        fn build<T>(f: impl FnOnce() -> T) -> T {
            span(Layer::AppsTrace, f)
        }
        span(Layer::CacheFetch, || match self {
            App::Hpcg { .. } => {
                let cfg = HpcgConfig::paper();
                tracecache::fetch(&cfg, ranks, || {
                    build(|| a64fx_apps::hpcg::trace(cfg, ranks))
                })
            }
            App::Minikab => {
                let cfg = MinikabConfig::paper();
                tracecache::fetch(&cfg, ranks, || {
                    build(|| a64fx_apps::minikab::trace(cfg, ranks))
                })
            }
            App::Nekbone => {
                let cfg = NekboneConfig::paper();
                tracecache::fetch(&cfg, ranks, || {
                    build(|| a64fx_apps::nekbone::trace(cfg, ranks))
                })
            }
            App::Cosa => {
                let cfg = CosaConfig::paper();
                tracecache::fetch(&cfg, ranks, || {
                    build(|| a64fx_apps::cosa::trace(cfg, ranks))
                })
            }
            App::Opensbli => {
                let cfg = OpensbliConfig::paper();
                tracecache::fetch(&cfg, ranks, || {
                    build(|| a64fx_apps::opensbli::trace(cfg, ranks))
                })
            }
        })
    }
}

/// One simulated job of a paper table: an app on a system under a layout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// The table the job belongs to.
    pub table: &'static str,
    /// The application.
    pub app: App,
    /// The simulated system.
    pub sys: SystemId,
    /// Ranks, ranks per node and threads per rank.
    pub layout: JobLayout,
}

/// What the traced probe of one job produced.
pub struct Replay {
    /// Simulated runtime, seconds.
    pub runtime_s: f64,
    /// Phases priced (prologue plus one body).
    pub priced_phases: u64,
    /// Phases replayed (prologue plus every iteration's body).
    pub replayed_phases: u64,
}

impl Job {
    fn with_executor<T>(&self, f: impl FnOnce(&Executor) -> T) -> T {
        let spec = system(self.sys);
        let tc = paper_toolchain(self.sys, self.app.toolchain_key())
            .expect("every grid job names a system that ran its app");
        let ex = match self.app {
            App::Hpcg { optimised } => Executor::with_calibration(
                &spec,
                &tc,
                Calibration {
                    hpcg_optimised: optimised,
                    ..Calibration::default()
                },
            ),
            _ => Executor::new(&spec, &tc),
        };
        f(&ex)
    }

    /// Simulated runtime through `Executor::run`.
    pub fn run(&self) -> f64 {
        let trace = self.app.trace(self.layout.ranks);
        self.with_executor(|ex| ex.run(&trace, self.layout).runtime_s)
    }

    /// The same job through `build_world`, `price` and the priced replay
    /// entry points, each timed as its layer.
    pub fn probe(&self) -> Replay {
        let trace = self.app.trace(self.layout.ranks);
        self.with_executor(|ex| {
            let mut world = span(Layer::World, || ex.build_world(&trace, self.layout));
            let priced = span(Layer::Price, || ex.price(&trace, &world));
            span(Layer::Replay, || {
                ex.replay_priced_prologue(&priced, &mut world);
                for _ in 0..trace.iterations {
                    ex.replay_priced_iteration(&priced, &mut world);
                }
            });
            let body = trace.body.len() as u64;
            let prologue = trace.prologue.len() as u64;
            Replay {
                runtime_s: world.elapsed_s(),
                priced_phases: prologue + body,
                replayed_phases: prologue + body * u64::from(trace.iterations),
            }
        })
    }
}

/// The jobs behind T3/T4 (HPCG), F2 (minikab), T7 (Nekbone), F4 (COSA)
/// and T10 (OpenSBLI), with the layouts those tables use, repeats
/// included, so the trace cache sees the tables' own reuse.
pub fn job_grid() -> Vec<Job> {
    let mut jobs = Vec::new();
    let full = |table, app, sys, nodes| Job {
        table,
        app,
        sys,
        layout: JobLayout::mpi_full(nodes, &system(sys)),
    };
    for (sys, optimised, _, _) in paper::TABLE3_HPCG_SINGLE_NODE {
        jobs.push(full("t3", App::Hpcg { optimised }, sys, 1));
    }
    for sys in [SystemId::A64fx, SystemId::Ngio, SystemId::Fulhame] {
        jobs.push(full("t3", App::Hpcg { optimised: false }, sys, 1));
    }
    for (sys, _) in paper::TABLE4_HPCG_MULTI_NODE {
        let optimised = matches!(sys, SystemId::Ngio | SystemId::Fulhame);
        for nodes in [1, 2, 4, 8] {
            jobs.push(full("t4", App::Hpcg { optimised }, sys, nodes));
        }
    }
    let layout = |ranks: u32, nodes: u32, threads| JobLayout {
        ranks,
        ranks_per_node: ranks.div_ceil(nodes),
        threads_per_rank: threads,
    };
    for nodes in [2, 4, 6, 8] {
        jobs.push(Job {
            table: "f2",
            app: App::Minikab,
            sys: SystemId::A64fx,
            layout: layout(4 * nodes, nodes, 12),
        });
    }
    for nodes in 1..=6 {
        jobs.push(Job {
            table: "f2",
            app: App::Minikab,
            sys: SystemId::Fulhame,
            layout: layout(64 * nodes, nodes, 1),
        });
    }
    for nodes in [2, 4, 8, 16] {
        for (sys, _) in paper::TABLE7_NEKBONE_PE {
            let cores = system(sys).node.cores();
            for (n, ranks) in [(1, cores), (nodes, nodes * cores)] {
                jobs.push(Job {
                    table: "t7",
                    app: App::Nekbone,
                    sys,
                    layout: layout(ranks, n, 1),
                });
            }
        }
    }
    let cosa_bytes = CosaConfig::paper().memory_bytes() as f64;
    for nodes in [1, 2, 4, 8, 16] {
        for sys in [
            SystemId::A64fx,
            SystemId::Archer,
            SystemId::Cirrus,
            SystemId::Ngio,
            SystemId::Fulhame,
        ] {
            let usable =
                f64::from(nodes) * system(sys).node.memory_gib() * 0.9 * (1u64 << 30) as f64;
            if cosa_bytes <= usable {
                jobs.push(full("f4", App::Cosa, sys, nodes));
            }
        }
    }
    for (sys, _) in paper::TABLE10_OPENSBLI {
        for nodes in [1, 2, 4, 8] {
            jobs.push(full("t10", App::Opensbli, sys, nodes));
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_probe_reproduces_executor_run_bit_for_bit() {
        let grid = job_grid();
        for table in ["t3", "t4", "f2", "t7", "f4", "t10"] {
            assert!(grid.iter().any(|j| j.table == table), "{table} has jobs");
        }
        span::start();
        let probes: Vec<Replay> = grid.iter().map(Job::probe).collect();
        let profile = span::finish();
        for (job, p) in grid.iter().zip(&probes) {
            let want = job.run();
            assert_eq!(p.runtime_s.to_bits(), want.to_bits(), "{job:?}");
            assert!(p.replayed_phases >= p.priced_phases);
        }
        assert_eq!(profile.calls(Layer::Price), grid.len() as u64);
        assert_eq!(profile.calls(Layer::Replay), grid.len() as u64);
    }

    #[test]
    fn a_wrong_table_raises_failed_frac_above_zero() {
        let goldens = Goldens::load().unwrap();
        let mut w = PaperTables::new(5);
        let mut checks = Checks::default();
        let out = w.iteration();
        let n = out.len() as u64;
        w.check(&out, &goldens, &mut checks);
        assert_eq!((checks.attempted, checks.failed), (n, 0));

        let mut out = w.iteration();
        out[0].0.rows[0][1] = "not the golden cell".to_string();
        w.check(&out, &goldens, &mut checks);
        assert_eq!((checks.attempted, checks.failed), (2 * n, 1));
        assert!(checks.failed_frac() > 0.0);
    }

    #[test]
    fn paper_tables_cover_every_experiment_but_d1() {
        let ids: Vec<&str> = experiments().iter().map(|e| e.0).collect();
        assert_eq!(ids.len(), REGISTRY.len() - 1);
        assert!(!ids.contains(&"d1"));
    }
}
