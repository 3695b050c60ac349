//! `obsctl` — offline analysis of the simulator's observability artefacts.
//!
//! Three subcommands, all pure functions of their input files:
//!
//! * `obsctl diff <baseline.json> <candidate.json> [--threshold <pct>]
//!   [--warn-values]` — the CI perf gate. Compares two `BENCH_*.json`
//!   documents metric by metric under a relative threshold (default 25%).
//!   Exit codes: 0 clean, 1 value regression (suppressed by
//!   `--warn-values` for hosts whose timings are untrustworthy), 2 shape
//!   drift (a metric appeared/vanished/renamed — never suppressed), 3
//!   config mismatch (the two files were measured under different
//!   DES/pricing/thread configurations and are not comparable), 4
//!   unreadable or malformed input.
//!
//! * `obsctl attrib <trace.json> [--json]` — critical-path attribution of
//!   a Chrome trace written by `repro --trace-out`. Replays the trace's
//!   complete (`"ph": "X"`) events through a fresh recorder and runs the
//!   same [`obs::Analysis`] the simulator uses in-process, so the offline
//!   view is byte-identical to `repro --attrib-out` for the same run.
//!   Prints a category breakdown and the dominant chain; `--json` prints
//!   the raw analysis document instead.
//!
//! * `obsctl prom <metrics.json>` — re-serialise a metrics snapshot
//!   (`repro --metrics-out`) in the Prometheus text exposition format,
//!   for pasting into anything that speaks it.

use std::process::ExitCode;

use a64fx_bench::obsdiff;
use obs::json::{self, Value};

const USAGE: &str = "usage:
  obsctl diff <baseline.json> <candidate.json> [--threshold <pct>] [--warn-values]
  obsctl attrib <trace.json> [--json]
  obsctl prom <metrics.json>";

fn fail(msg: &str) -> ExitCode {
    eprintln!("obsctl: {msg}");
    ExitCode::from(4)
}

fn load(path: &str) -> Result<Value, String> {
    json::parse_file(std::path::Path::new(path))
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut threshold = obsdiff::DEFAULT_THRESHOLD_PCT;
    let mut warn_values = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) if t >= 0.0 => threshold = t,
                _ => return fail("--threshold needs a non-negative percentage"),
            },
            "--warn-values" => warn_values = true,
            p if !p.starts_with("--") => paths.push(p.to_string()),
            other => return fail(&format!("unknown diff flag '{other}'\n{USAGE}")),
        }
    }
    let [old, new] = paths.as_slice() else {
        return fail(&format!("diff takes exactly two files\n{USAGE}"));
    };
    let (old, new) = match (load(old), load(new)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => return fail(&e),
    };
    let report = obsdiff::diff_docs(&old, &new, threshold);
    print!("{}", report.render(warn_values));
    ExitCode::from(report.exit_code(warn_values) as u8)
}

/// Rebuild an analysis from a Chrome trace: replay every complete event
/// through a fresh `MemRecorder` in file order (string attributes
/// included — the `phase` attribute drives classification), then analyse.
fn analysis_from_trace(doc: &Value) -> Result<obs::Analysis, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("no \"traceEvents\" array — not a Chrome trace (use `repro --trace-out`)")?;
    use obs::Recorder;
    let rec = obs::MemRecorder::new();
    for ev in events {
        if ev.get("ph").and_then(Value::as_str) != Some("X") {
            continue;
        }
        let cat = ev.get("cat").and_then(Value::as_str).unwrap_or("");
        let name = ev.get("name").and_then(Value::as_str).unwrap_or("");
        let ts = ev.get("ts").and_then(Value::as_f64).unwrap_or(0.0);
        let dur = ev.get("dur").and_then(Value::as_f64).unwrap_or(0.0);
        let mut attrs: Vec<(&str, obs::AttrValue)> = Vec::new();
        if let Some(Value::Obj(pairs)) = ev.get("args") {
            for (k, v) in pairs {
                match v {
                    Value::Str(s) => attrs.push((k, obs::AttrValue::Str(s))),
                    Value::Num(n) => attrs.push((k, obs::AttrValue::F64(*n))),
                    _ => {}
                }
            }
        }
        rec.span(cat, name, ts, dur, &attrs);
    }
    Ok(rec.analyze())
}

fn cmd_attrib(args: &[String]) -> ExitCode {
    let as_json = args.iter().any(|a| a == "--json");
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [path] = paths.as_slice() else {
        return fail(&format!("attrib takes exactly one trace file\n{USAGE}"));
    };
    let doc = match load(path) {
        Ok(d) => d,
        Err(e) => return fail(&e),
    };
    let a = match analysis_from_trace(&doc) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    if as_json {
        print!("{}", a.to_json(&[]));
        return ExitCode::SUCCESS;
    }
    println!(
        "critical-path attribution: {} spans, {} segments, end-to-end {:.1} us",
        a.spans_considered,
        a.segments,
        a.end_to_end_us()
    );
    println!("{:>14}  {:>12}  {:>6}", "category", "us", "share");
    for c in obs::Category::ALL {
        println!(
            "{:>14}  {:>12.1}  {:>5.1}%",
            c.name(),
            a.total(c),
            a.share_pct(c)
        );
    }
    println!(
        "critical path {:.1} us ({:.1}% of end-to-end), dominant category: {}",
        a.path_us(),
        a.share_pct_of(a.path_us()),
        a.dominant().name()
    );
    for n in a.chain.iter().take(8) {
        println!(
            "  {:>5.1}%  {}:{} ({} spans, {:.1} us)",
            a.share_pct_of(n.us),
            n.category.name(),
            n.label,
            n.count,
            n.us
        );
    }
    ExitCode::SUCCESS
}

/// Rebuild a [`obs::Registry`] from a parsed metrics snapshot (plain or
/// extended — the percentile fields are recomputable and ignored).
fn registry_from_snapshot(doc: &Value) -> Result<obs::Registry, String> {
    let mut reg = obs::Registry::new();
    let section = |name: &str| -> Result<Vec<(String, Value)>, String> {
        match doc.get(name) {
            Some(Value::Obj(pairs)) => Ok(pairs.clone()),
            _ => Err(format!(
                "no \"{name}\" object — not a metrics snapshot (use `repro --metrics-out`)"
            )),
        }
    };
    for (k, v) in section("counters")? {
        let n = v
            .as_f64()
            .ok_or_else(|| format!("counter {k} is not a number"))?;
        reg.add(&k, n as u64);
    }
    for (k, v) in section("gauges")? {
        let n = v
            .as_f64()
            .ok_or_else(|| format!("gauge {k} is not a number"))?;
        reg.gauge_max(&k, n);
    }
    for (k, v) in section("histograms")? {
        let count = v
            .get("count")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("histogram {k} has no count"))? as u64;
        let sum = v
            .get("sum")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("histogram {k} has no sum"))?;
        let mut h = obs::Histogram {
            count,
            sum,
            ..Default::default()
        };
        if let Some(Value::Obj(buckets)) = v.get("buckets") {
            for (idx, c) in buckets {
                let i: usize = idx
                    .parse()
                    .map_err(|_| format!("histogram {k}: bad bucket index '{idx}'"))?;
                if i >= h.buckets.len() {
                    return Err(format!("histogram {k}: bucket index {i} out of range"));
                }
                h.buckets[i] = c.as_f64().unwrap_or(0.0) as u64;
            }
        }
        reg.insert_histogram(&k, h);
    }
    Ok(reg)
}

fn cmd_prom(args: &[String]) -> ExitCode {
    let [path] = args else {
        return fail(&format!("prom takes exactly one metrics file\n{USAGE}"));
    };
    let doc = match load(path) {
        Ok(d) => d,
        Err(e) => return fail(&e),
    };
    match registry_from_snapshot(&doc) {
        Ok(reg) => {
            print!("{}", reg.render_prometheus());
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "diff" => cmd_diff(rest),
        Some((cmd, rest)) if cmd == "attrib" => cmd_attrib(rest),
        Some((cmd, rest)) if cmd == "prom" => cmd_prom(rest),
        _ => fail(USAGE),
    }
}
