//! `solvers`: real time-to-solution of the application proxies — the only
//! workload whose work runs in `sparsela`, `densela` and `fftsim`.

use std::hint::black_box;

use a64fx_apps::castep::PlaneWaveSolver;
use a64fx_apps::nekbone::ElementChain;
use a64fx_apps::opensbli::{OpensbliConfig, TgvSolver};
use densela::tensor::AxScratch;
use densela::Work;
use sparsela::cg::{cg_matfree, CgResult};
use sparsela::coloring::Coloring;
use sparsela::ell::SellMatrix;
use sparsela::mg::MgHierarchy;
use sparsela::{CsrMatrix, Team};

use crate::checks::{Checks, Goldens};
use crate::span::{self, span, Layer};
use crate::stats::SplitMix64;
use crate::{timed, Round, Workload};

/// Reference HPCG grid edge: 4096 rows, a few hundred KiB of CSR, inside
/// one core's L2.
pub const REF_GRID: usize = 16;
/// Optimised HPCG grid edge: 110592 rows, about 36 MB of CSR, far beyond L2.
pub const OPT_GRID: usize = 48;
/// Nekbone chain elements.
pub const NEK_ELEMENTS: usize = 8;
/// GLL points per direction of each Nekbone element.
pub const NEK_POINTS: usize = 8;
/// CASTEP proxy FFT grid edge.
pub const CASTEP_GRID: usize = 16;
/// CASTEP proxy bands.
pub const CASTEP_BANDS: usize = 16;
/// OpenSBLI Taylor–Green grid edge.
pub const TGV_GRID: usize = 16;
/// OpenSBLI steps per iteration.
pub const TGV_STEPS: usize = 2;
/// Relative residual every CG solve must reach.
pub const CG_RTOL: f64 = 1e-8;
/// Iteration cap of the preconditioned (HPCG) solves.
pub const CG_MAX_ITER: usize = 500;
/// Iteration cap of the unpreconditioned Nekbone solve, which needs several
/// hundred iterations at this tolerance.
pub const NEK_MAX_ITER: usize = 4000;

/// The solvers, in the order an iteration runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    HpcgRef,
    HpcgOpt,
    Nekbone,
    Castep,
    Opensbli,
}

/// What one iteration produced, checked after timing.
#[derive(Debug)]
pub struct Outcome {
    kind: Kind,
    ok: bool,
    detail: String,
    work: Work,
    iterations: usize,
}

/// Host-side kernel counts of one traced pass.
#[derive(Debug, Default)]
struct KernelCounts {
    spmv_bytes: u64,
    work: Work,
    cg_iterations: usize,
}

/// The `solvers` workload's inputs and solver state.
pub struct Solvers {
    order: Vec<Kind>,
    mg: MgHierarchy,
    ref_b: Vec<f64>,
    opt_a: CsrMatrix,
    opt_sell: SellMatrix,
    opt_coloring: Coloring,
    opt_b: Vec<f64>,
    opt_x: Vec<f64>,
    team: Team,
    chain: ElementChain,
    nek_scratch: AxScratch,
    nek_b: Vec<f64>,
    castep: PlaneWaveSolver,
    castep_energy: f64,
    tgv: TgvSolver,
    tgv_mass0: f64,
    tgv_energy: f64,
}

/// `b = A·x` for a seeded `x` with entries in `[0.5, 1.5)`.
fn rhs_of(a: &CsrMatrix, rng: &mut SplitMix64) -> Vec<f64> {
    let x: Vec<f64> = (0..a.rows()).map(|_| rng.range(0.5, 1.5)).collect();
    let mut b = vec![0.0; a.rows()];
    a.spmv(&x, &mut b);
    b
}

impl Solvers {
    /// Build every operator, hierarchy and solver state, and the seeded
    /// right-hand sides, on a pooled team of `threads` threads.
    pub fn new(seed: u64, threads: usize) -> Self {
        let mut order = vec![
            Kind::HpcgRef,
            Kind::HpcgOpt,
            Kind::Nekbone,
            Kind::Castep,
            Kind::Opensbli,
        ];
        SplitMix64::new(seed, "solvers.order").shuffle(&mut order);
        let mut rng = SplitMix64::new(seed, "solvers.rhs");

        let mg = MgHierarchy::new(REF_GRID, REF_GRID, REF_GRID, 4);
        let ref_b = rhs_of(mg.fine_operator(), &mut rng);

        let opt_a = sparsela::gen::stencil27(OPT_GRID, OPT_GRID, OPT_GRID);
        let opt_sell = SellMatrix::from_csr(&opt_a, 8, 32);
        let opt_coloring = Coloring::stencil8(OPT_GRID, OPT_GRID, OPT_GRID);
        let opt_b = rhs_of(&opt_a, &mut rng);

        let chain = ElementChain::new(NEK_ELEMENTS, NEK_POINTS);
        let mut nek_b: Vec<f64> = (0..chain.global_dofs())
            .map(|_| rng.range(0.5, 1.5))
            .collect();
        chain.mask(&mut nek_b);

        let castep = PlaneWaveSolver::new(CASTEP_GRID, CASTEP_BANDS);
        let castep_energy = castep.energy();
        let tgv = TgvSolver::new(OpensbliConfig {
            grid: TGV_GRID,
            ..OpensbliConfig::paper()
        });
        Solvers {
            order,
            mg,
            ref_b,
            opt_x: vec![0.0; opt_a.rows()],
            opt_a,
            opt_sell,
            opt_coloring,
            opt_b,
            team: Team::new(threads),
            chain,
            nek_scratch: AxScratch::new(NEK_POINTS),
            nek_b,
            castep,
            castep_energy,
            tgv_mass0: tgv.total_mass(),
            tgv_energy: tgv.kinetic_energy(),
            tgv,
        }
    }

    fn pass(&mut self, counts: &mut KernelCounts) -> Vec<Outcome> {
        let order = self.order.clone();
        let out: Vec<Outcome> = order.into_iter().map(|k| self.solve(k, counts)).collect();
        for o in &out {
            counts.work += o.work;
            counts.cg_iterations += o.iterations;
        }
        out
    }

    fn solve(&mut self, kind: Kind, counts: &mut KernelCounts) -> Outcome {
        let spmv_bytes = &mut counts.spmv_bytes;
        let mut spmv = |w: Work| {
            *spmv_bytes += w.bytes_read + w.bytes_written;
            w
        };
        match kind {
            Kind::HpcgRef => {
                let a = self.mg.fine_operator();
                let mut x = vec![0.0; a.rows()];
                let res = span(Layer::CgVector, || {
                    cg_matfree(
                        |p, out| span(Layer::Spmv, || spmv(a.spmv(p, out))),
                        &self.ref_b,
                        &mut x,
                        CG_MAX_ITER,
                        CG_RTOL,
                        Some(|r: &[f64], z: &mut [f64]| {
                            span(Layer::Precond, || self.mg.vcycle(r, z))
                        }),
                    )
                });
                cg_outcome(kind, &res)
            }
            Kind::HpcgOpt => {
                let (res, x) = opt_hpcg(self, &self.team, &mut spmv);
                self.opt_x = x;
                cg_outcome(kind, &res)
            }
            Kind::Nekbone => {
                let mut x = vec![0.0; self.nek_b.len()];
                let (chain, scratch) = (&self.chain, &mut self.nek_scratch);
                let res = span(Layer::CgVector, || {
                    cg_matfree(
                        |p, out| span(Layer::Tensor, || chain.apply(p, out, scratch)),
                        &self.nek_b,
                        &mut x,
                        NEK_MAX_ITER,
                        CG_RTOL,
                        None::<fn(&[f64], &mut [f64]) -> Work>,
                    )
                });
                cg_outcome(kind, &res)
            }
            Kind::Castep => {
                let work = span(Layer::CastepScf, || self.castep.scf_cycle(0.05));
                let energy = span(Layer::CastepEnergy, || self.castep.energy());
                // The descent is variational: the energy never rises.
                let prev = std::mem::replace(&mut self.castep_energy, energy);
                Outcome {
                    kind,
                    ok: energy.is_finite() && energy <= prev + 1e-9 * prev.abs(),
                    detail: format!("energy {prev} -> {energy}"),
                    work,
                    iterations: 0,
                }
            }
            Kind::Opensbli => {
                let cfg = OpensbliConfig::paper();
                for _ in 0..TGV_STEPS {
                    span(Layer::OpensbliStep, || self.tgv.step(cfg.dt));
                }
                // Viscous decay of a conserved flow: mass stays put, the
                // kinetic energy falls, the density stays positive.
                let mass = self.tgv.total_mass();
                let energy = self.tgv.kinetic_energy();
                let prev = std::mem::replace(&mut self.tgv_energy, energy);
                let drift = (mass - self.tgv_mass0).abs() / self.tgv_mass0;
                Outcome {
                    kind,
                    ok: drift < 1e-10 && energy < prev && self.tgv.min_density() > 0.0,
                    detail: format!("mass drift {drift:e}, kinetic energy {prev} -> {energy}"),
                    work: Work::ZERO,
                    iterations: 0,
                }
            }
        }
    }
}

impl Workload for Solvers {
    /// One outcome per solver, in run order.
    type Out = Vec<Outcome>;

    /// One pass over every solver.
    fn iteration(&mut self) -> Self::Out {
        self.pass(&mut KernelCounts::default())
    }

    /// Each solver reaching its tolerance, as one operation each.
    fn check(&mut self, out: &Self::Out, _goldens: &Goldens, checks: &mut Checks) {
        for o in out {
            checks.op(o.ok, || format!("{:?}: {}", o.kind, o.detail));
        }
    }

    fn rate(&self, out: &Self::Out, wall_s: f64) -> Option<(&'static str, f64)> {
        Some(("gflops", flops(out) as f64 / wall_s / 1e9))
    }

    /// The optimised HPCG solve on a one-thread team must reproduce the
    /// pooled team's last solution bit for bit.
    fn finish(&mut self, checks: &mut Checks) {
        let serial = Team::new(1);
        let (res, x) = opt_hpcg(self, &serial, &mut |w| w);
        let same = x.len() == self.opt_x.len()
            && x.iter()
                .zip(&self.opt_x)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        checks.op(same && res.converged, || {
            format!(
                "optimised HPCG on {} threads differs from serial (converged {})",
                self.team.threads(),
                res.converged
            )
        });
    }

    /// Untraced pass, then the traced pass with every kernel call timed.
    fn round(&mut self, goldens: &Goldens, checks: &mut Checks) -> Round {
        let (plain, untraced_s) = timed(|| self.iteration());
        let flops = flops(&plain);
        self.check(&plain, goldens, checks);

        let dispatches0 = self.team.pool().dispatches();
        let mut counts = KernelCounts::default();
        span::start();
        let (out, traced_s) = timed(|| self.pass(&mut counts));
        let profile = span::finish();
        let dispatches = self.team.pool().dispatches() - dispatches0;
        self.check(&out, goldens, checks);

        let bytes = counts.work.bytes_read + counts.work.bytes_written;
        let energy_s = profile.busy_s(Layer::CastepEnergy);
        let metrics = vec![
            ("sparsela.spmv.calls", profile.calls(Layer::Spmv) as f64),
            ("sparsela.spmv.busy_s", profile.busy_s(Layer::Spmv)),
            (
                "sparsela.spmv.gbytes_per_s",
                counts.spmv_bytes as f64 / profile.busy_s(Layer::Spmv) / 1e9,
            ),
            ("sparsela.precond.busy_s", profile.busy_s(Layer::Precond)),
            ("sparsela.cg.iterations", counts.cg_iterations as f64),
            ("sparsela.cg.vector.busy_s", profile.busy_s(Layer::CgVector)),
            ("densela.pool.dispatches", dispatches as f64),
            ("densela.tensor.busy_s", profile.busy_s(Layer::Tensor)),
            ("castep.apply_h.busy_s", energy_s),
            (
                "castep.orthonormalise.busy_s",
                (profile.busy_s(Layer::CastepScf) - energy_s).max(0.0),
            ),
            ("opensbli.step.busy_s", profile.busy_s(Layer::OpensbliStep)),
            ("solvers.flops", counts.work.flops as f64),
            ("solvers.bytes", bytes as f64),
            (
                "solvers.ops_per_byte",
                counts.work.flops as f64 / bytes as f64,
            ),
            ("gflops", flops as f64 / untraced_s / 1e9),
        ];
        Round {
            untraced_s,
            traced_s,
            profile,
            metrics,
        }
    }
}

/// Flops counted by the solvers of `out`.
pub fn flops(out: &[Outcome]) -> u64 {
    out.iter().map(|o| o.work.flops).sum()
}

/// Optimised HPCG: SELL-8 SpMV and multicolour SymGS on `team`.
fn opt_hpcg(s: &Solvers, team: &Team, spmv: &mut impl FnMut(Work) -> Work) -> (CgResult, Vec<f64>) {
    let mut x = vec![0.0; s.opt_b.len()];
    let res = span(Layer::CgVector, || {
        cg_matfree(
            |p, out| span(Layer::Spmv, || spmv(team.sell_spmv(&s.opt_sell, p, out))),
            &s.opt_b,
            &mut x,
            CG_MAX_ITER,
            CG_RTOL,
            Some(|r: &[f64], z: &mut [f64]| {
                span(Layer::Precond, || {
                    z.fill(0.0);
                    team.mc_symgs_sweep(&s.opt_a, &s.opt_coloring, r, z)
                })
            }),
        )
    });
    (res, black_box(x))
}

fn cg_outcome(kind: Kind, res: &CgResult) -> Outcome {
    Outcome {
        kind,
        ok: res.converged && res.rel_residual <= CG_RTOL,
        detail: format!(
            "{} iterations, relative residual {:e}",
            res.iterations, res.rel_residual
        ),
        work: res.work,
        iterations: res.iterations,
    }
}
