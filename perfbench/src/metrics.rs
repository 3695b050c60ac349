//! The metrics the benchmark reports, and the result line it prints.
//!
//! These lists and `BENCHMARK.json` at the repository root must name the
//! same metrics with the same units; a test holds them together.

use crate::checks::Checks;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 3] = [
    ("wall_norm_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 55] = [
    // Table layers (the job-grid probe behind paper_tables).
    ("apps.trace.calls", "count"),
    ("apps.trace.busy_s", "s"),
    ("tracecache.hits", "count"),
    ("tracecache.misses", "count"),
    ("tracecache.hit_ratio", "ratio"),
    ("tracecache.fetch.busy_s", "s"),
    ("tracecache.resident_bytes", "bytes"),
    ("costmodel.price.calls", "count"),
    ("costmodel.price.phases", "count"),
    ("costmodel.price.busy_s", "s"),
    ("simmpi.world.busy_s", "s"),
    ("simmpi.replay.phases", "count"),
    ("simmpi.replay.busy_s", "s"),
    ("simmpi.collcache.hits", "count"),
    ("simmpi.collcache.misses", "count"),
    ("simmpi.collcache.hit_ratio", "ratio"),
    ("report.render.busy_s", "s"),
    ("report.bytes", "bytes"),
    // The event-driven network simulation (des_fugaku).
    ("netsim.topology.busy_s", "s"),
    ("simmpi.analytic.busy_s", "s"),
    ("netsim.des.events", "count"),
    ("netsim.des.windows", "count"),
    ("netsim.des.busy_s", "s"),
    ("netsim.des.events_per_s.n1024", "events/s"),
    ("netsim.des.events_per_s.n8192", "events/s"),
    ("netsim.des.events_per_s.n131072", "events/s"),
    ("netsim.des.sharded2_vs_serial.n131072", "ratio"),
    ("sim_events_per_s", "events/s"),
    // Kernels (solvers).
    ("sparsela.spmv.calls", "count"),
    ("sparsela.spmv.busy_s", "s"),
    ("sparsela.spmv.gbytes_per_s", "GB/s"),
    ("sparsela.precond.busy_s", "s"),
    ("sparsela.cg.iterations", "count"),
    ("sparsela.cg.vector.busy_s", "s"),
    ("densela.pool.dispatches", "count"),
    ("densela.tensor.busy_s", "s"),
    ("castep.apply_h.busy_s", "s"),
    ("castep.orthonormalise.busy_s", "s"),
    ("opensbli.step.busy_s", "s"),
    ("solvers.flops", "flop"),
    ("solvers.bytes", "bytes"),
    ("solvers.ops_per_byte", "flop/byte"),
    ("solvers.flop_frac", "ratio"),
    ("gflops", "GFLOP/s"),
    ("host.triad_gbs", "GB/s"),
    ("host.fma_gflops", "GFLOP/s"),
    // The recorder (observed).
    ("obs.spans", "count"),
    ("obs.metric_points", "count"),
    ("obs.record.busy_s", "s"),
    ("obs.overhead_ratio", "ratio"),
    ("obs.export.busy_s", "s"),
    ("obs.export.bytes", "bytes"),
    // The traced run itself, for the named workload.
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_s", "s"),
    ("failed_frac", "ratio"),
];

/// The unit of metric `name`.
///
/// # Panics
/// Panics on a name neither list declares: every reported metric must be
/// declared.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// The last line of output: the checks' tally and `metrics`, as JSON.
///
/// # Errors
/// Refuses a value that is not a finite number.
pub fn result_line(checks: &Checks, metrics: &[(&str, f64)]) -> Result<String, String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for (name, value) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            unit(name)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use conform::json::{self, Value};

    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .expect("BENCHMARK.json lists metrics")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn every_reported_metric_is_declared_in_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse_file(&path).unwrap();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn result_line_is_json_and_refuses_non_finite_values() {
        let mut checks = Checks::default();
        checks.op(true, String::new);
        let line = result_line(&checks, &[("wall_norm_s", 0.5), ("setup_s", 1.25)]).unwrap();
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("attempted").and_then(Value::as_f64), Some(1.0));
        let wall = doc
            .get("metrics")
            .and_then(|m| m.get("wall_norm_s"))
            .unwrap();
        assert_eq!(wall.get("unit").and_then(Value::as_str), Some("s"));
        assert!(result_line(&checks, &[("wall_norm_s", f64::NAN)]).is_err());
    }
}
