//! # sparsela — sparse linear algebra substrate
//!
//! Real, executing sparse kernels for the paper's solver-shaped benchmarks:
//!
//! * [`csr`] — compressed sparse row matrices and SpMV (the dominant kernel
//!   of HPCG and minikab).
//! * [`gen`] — matrix generators: the HPCG 27-point stencil operator, a
//!   synthetic block-banded structural-FEM matrix with the shape of
//!   minikab's proprietary `Benchmark1` (9,573,984 DoF / 696,096,138 nnz at
//!   full scale), and simple Poisson operators for tests.
//! * [`symgs`] — symmetric Gauss–Seidel sweeps (HPCG's smoother).
//! * [`ell`] — SELL-C-σ / ELLPACK storage with vector-friendly SpMV, and
//! * [`coloring`] — multi-colour Gauss–Seidel: together, the actual kernel
//!   rewrites behind the paper's vendor-optimised HPCG variants.
//! * [`cg`] — conjugate gradient and preconditioned CG with work accounting
//!   and per-iteration callbacks.
//! * [`mg`] — the HPCG-style geometric multigrid V-cycle preconditioner
//!   (coarsening by 2 in each dimension, SymGS smoothing).
//! * [`parallel`] — shared-memory thread-team kernels on the persistent
//!   [`densela::pool::KernelPool`]: the OpenMP half of the paper's
//!   MPI+OpenMP configurations, including parallel multicolour SymGS,
//!   slice-parallel SELL-C-σ SpMV, and fused CG kernels.
//! * [`partition`] — domain decomposition: 3-D block partitions with halo
//!   accounting (HPCG, OpenSBLI) and 1-D row partitions (minikab).

#![warn(missing_docs)]
// Kernels index several arrays with one loop counter; iterator rewrites
// obscure the stride arithmetic the Work models are written against.
#![allow(clippy::needless_range_loop)]

pub mod cg;
pub mod coloring;
pub mod csr;
pub mod ell;
pub mod gen;
pub mod mg;
pub mod parallel;
pub mod partition;
pub mod symgs;

pub use cg::{cg_solve, pcg_solve, CgResult};
pub use csr::CsrMatrix;
pub use densela::pool::{KernelPool, SharedSlice};
pub use parallel::Team;
pub use partition::{Block3d, Partition3d, RowPartition};
