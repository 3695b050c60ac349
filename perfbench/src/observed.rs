//! `observed`: T3, F2 and R1 recorded under an ambient `obs::MemRecorder`
//! and exported, as `repro --trace-out/--metrics-out` does.

use std::hint::black_box;
use std::sync::Arc;

use a64fx_core::experiments::{ExperimentEntry, REGISTRY};
use a64fx_core::{tracecache, Table};
use obs::MemRecorder;

use crate::checks::{Checks, Goldens};
use crate::span::{self, span, Layer};
use crate::{timed, Round, Workload};

/// The recorded experiments.
pub const IDS: [&str; 3] = ["t3", "f2", "r1"];

/// One recorded experiment's table and record volume.
pub struct Recorded {
    table: Table,
    spans: u64,
    metric_points: u64,
    export_bytes: usize,
}

/// The `observed` workload: the experiments in paper order, and their
/// unrecorded renders to compare against. The order is fixed: it decides
/// which recordings' buffers the allocator can reuse, and so the peak
/// memory this workload reports.
pub struct Observed {
    order: Vec<ExperimentEntry>,
    unrecorded: Vec<String>,
}

impl Observed {
    /// Run each experiment once, unrecorded, for the byte-identity check.
    pub fn set_up() -> Self {
        let order: Vec<ExperimentEntry> = IDS
            .iter()
            .map(|id| {
                *REGISTRY
                    .iter()
                    .find(|e| e.0 == *id)
                    .expect("recorded experiments are registered")
            })
            .collect();
        let unrecorded = unrecorded(&order).iter().map(Table::render).collect();
        Observed { order, unrecorded }
    }
}

impl Workload for Observed {
    /// One record per experiment, in run order.
    type Out = Vec<Recorded>;

    /// Set-up's unrecorded reference run is the warm-up.
    fn warm_up(&mut self) -> Option<Self::Out> {
        None
    }

    /// Record every experiment from a cold trace cache and export its
    /// Chrome trace and metrics snapshot.
    fn iteration(&mut self) -> Self::Out {
        tracecache::clear();
        self.order
            .iter()
            .map(|(id, _, generate)| {
                let rec = Arc::new(MemRecorder::new());
                let table = span(Layer::ObsRecord, || {
                    obs::with_recorder(rec.clone(), generate)
                });
                let export_bytes = span(Layer::ObsExport, || {
                    let trace = black_box(rec.chrome_trace_json());
                    let metrics = black_box(rec.metrics_json(&[("experiment", id.to_string())]));
                    trace.len() + metrics.len()
                });
                let totals = rec.totals();
                Recorded {
                    table,
                    spans: totals.spans,
                    metric_points: totals.metric_points,
                    export_bytes,
                }
            })
            .collect()
    }

    /// Each recorded table renders byte-identical to its unrecorded run and
    /// matches its golden.
    fn check(&mut self, out: &Self::Out, goldens: &Goldens, checks: &mut Checks) {
        for (r, want) in out.iter().zip(&self.unrecorded) {
            let got = r.table.render();
            checks.op(got == *want, || {
                format!("{}: recorded render differs from unrecorded", r.table.id)
            });
            goldens.check(&r.table, checks);
        }
    }

    /// Untraced iteration, traced iteration, then the same experiments
    /// unrecorded for the recorder's overhead ratio.
    fn round(&mut self, goldens: &Goldens, checks: &mut Checks) -> Round {
        let (plain, untraced_s) = timed(|| self.iteration());
        self.check(&plain, goldens, checks);
        drop(plain);
        span::start();
        let (out, traced_s) = timed(|| self.iteration());
        let profile = span::finish();
        self.check(&out, goldens, checks);
        let (_, unrecorded_s) = timed(|| unrecorded(&self.order));

        let sum = |f: fn(&Recorded) -> u64| out.iter().map(f).sum::<u64>() as f64;
        let record_s = profile.busy_s(Layer::ObsRecord);
        let metrics = vec![
            ("obs.spans", sum(|r| r.spans)),
            ("obs.metric_points", sum(|r| r.metric_points)),
            ("obs.record.busy_s", record_s),
            ("obs.overhead_ratio", record_s / unrecorded_s),
            ("obs.export.busy_s", profile.busy_s(Layer::ObsExport)),
            ("obs.export.bytes", sum(|r| r.export_bytes as u64)),
        ];
        Round {
            untraced_s,
            traced_s,
            profile,
            metrics,
        }
    }
}

/// The experiments of `order`, unrecorded, from a cold trace cache.
fn unrecorded(order: &[ExperimentEntry]) -> Vec<Table> {
    tracecache::clear();
    order.iter().map(|(_, _, generate)| generate()).collect()
}
