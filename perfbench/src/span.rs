//! Host-time spans recorded from the benchmark around calls into the
//! program's layers.
//!
//! Nothing inside the program is instrumented: every span wraps a call the
//! benchmark itself makes into a layer's public API (or a closure it hands
//! to one, such as the SpMV passed to `cg_matfree`). Spans nest, and each
//! layer is charged its *self* time — its span's duration minus the part
//! covered by child spans — so the layer times of one pass add up to the
//! time the pass spent inside any span, and the rest of the pass's wall is
//! unattributed.
//!
//! Recording is per thread and off by default; with it off, [`span`] is one
//! thread-local read and a direct call.

use std::cell::RefCell;
use std::time::Instant;

/// A layer the benchmark times calls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `a64fx_apps::*::trace` — trace construction.
    AppsTrace,
    /// `a64fx_core::tracecache::fetch` (self time: lookup and insert).
    CacheFetch,
    /// `Executor::price`.
    Price,
    /// `Executor::build_world`.
    World,
    /// `Executor::replay_priced_{prologue,iteration}`.
    Replay,
    /// `Table::render`.
    Render,
    /// `simmpi::allreduce_time_us` (closed-form collective model).
    Analytic,
    /// `simmpi::desval::allreduce_des_stats` (event-driven engine).
    Des,
    /// SpMV closures handed to `cg_matfree`.
    Spmv,
    /// Preconditioner closures handed to `cg_matfree`.
    Precond,
    /// `sparsela::cg::cg_matfree` (self time: the CG vector updates).
    CgVector,
    /// `ElementChain::apply` — Nekbone's GLL tensor-product operator.
    Tensor,
    /// `PlaneWaveSolver::scf_cycle`.
    CastepScf,
    /// `PlaneWaveSolver::energy` — one `apply_h` and one dot per band.
    CastepEnergy,
    /// `TgvSolver::step`.
    OpensbliStep,
    /// Experiments run under an ambient `obs::MemRecorder`.
    ObsRecord,
    /// `MemRecorder::{chrome_trace_json, metrics_json}`.
    ObsExport,
}

impl Layer {
    const COUNT: usize = Layer::ObsExport as usize + 1;

    fn index(self) -> usize {
        self as usize
    }
}

/// Self time and call count per layer, for one recorded interval.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    busy_s: [f64; Layer::COUNT],
    calls: [u64; Layer::COUNT],
}

impl Profile {
    /// Seconds `layer` was busy, excluding its child spans.
    pub fn busy_s(&self, layer: Layer) -> f64 {
        self.busy_s[layer.index()]
    }

    /// Spans recorded for `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer.index()]
    }

    /// Seconds covered by any span: the sum of all self times.
    pub fn attributed_s(&self) -> f64 {
        self.busy_s.iter().sum()
    }
}

struct Frame {
    layer: Layer,
    start: Instant,
    child_s: f64,
}

#[derive(Default)]
struct Recording {
    on: bool,
    stack: Vec<Frame>,
    profile: Profile,
}

thread_local! {
    static REC: RefCell<Recording> = RefCell::new(Recording::default());
}

/// Start recording on this thread, discarding anything recorded before.
pub fn start() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = true;
        r.stack.clear();
        r.profile = Profile::default();
    });
}

/// Stop recording on this thread and return what was recorded.
///
/// # Panics
/// Panics if called from inside a span.
pub fn finish() -> Profile {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.stack.is_empty(), "finish() inside an open span");
        r.on = false;
        std::mem::take(&mut r.profile)
    })
}

/// Run `f`, charging its duration to `layer` when recording is on.
pub fn span<T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    let on = REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.on {
            r.stack.push(Frame {
                layer,
                start: Instant::now(),
                child_s: 0.0,
            });
        }
        r.on
    });
    if !on {
        return f();
    }
    let out = f();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let frame = r.stack.pop().expect("span frame pushed above");
        debug_assert_eq!(frame.layer, layer);
        let dur = frame.start.elapsed().as_secs_f64();
        let i = layer.index();
        r.profile.busy_s[i] += dur - frame.child_s;
        r.profile.calls[i] += 1;
        if let Some(parent) = r.stack.last_mut() {
            parent.child_s += dur;
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_charge_self_time_and_add_up() {
        start();
        let wall = Instant::now();
        span(Layer::CacheFetch, || {
            span(Layer::AppsTrace, || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        let wall = wall.elapsed().as_secs_f64();
        let p = finish();
        assert_eq!(p.calls(Layer::CacheFetch), 1);
        assert_eq!(p.calls(Layer::AppsTrace), 1);
        assert!(p.busy_s(Layer::AppsTrace) >= 0.02);
        assert!(p.busy_s(Layer::CacheFetch) >= 0.01);
        assert!(p.busy_s(Layer::CacheFetch) < p.busy_s(Layer::AppsTrace));
        assert!(p.attributed_s() <= wall);
    }

    #[test]
    fn spans_record_nothing_when_off() {
        let _ = finish();
        assert_eq!(span(Layer::Des, || 7), 7);
        start();
        let p = finish();
        assert_eq!(p.calls(Layer::Des), 0);
    }
}
