//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run configuration and human-readable metric lines, then, as
//! the last line, one JSON object with the checks' tally and the metrics.
//! Exits 1 if any check failed and 2 on a usage or configuration error.
//! An untraced run re-runs this executable with `--part 1` for each of its
//! parts; a part prints only its raw samples, for the parent to read.

use std::process::ExitCode;

use perfbench::{metrics, run, run_part, RunConfig, WorkloadId};

const USAGE: &str = "usage: perfbench --workload <paper_tables|des_fugaku|solvers|observed> \
                     --seed <n> --seconds <s> --trace <0|1> [--part 1]";

/// The pinned configuration, and whether this process is one part of an
/// untraced run.
fn parse() -> Result<(RunConfig, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut part = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(WorkloadId::parse(value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("seconds in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--part" if value == "1" => part = true,
            _ => return Err(format!("unknown flag {flag} {value}")),
        }
    }
    let need = |name: &str| format!("missing {name}");
    let cfg = RunConfig::pin(
        workload.ok_or_else(|| need("--workload"))?,
        seed.ok_or_else(|| need("--seed"))?,
        seconds.ok_or_else(|| need("--seconds"))?,
        trace.ok_or_else(|| need("--trace"))?,
    )?;
    if part && cfg.trace {
        return Err("--part 1 is for untraced runs only".to_string());
    }
    Ok((cfg, part))
}

fn main() -> ExitCode {
    let (cfg, part) = match parse() {
        Ok(parsed) => parsed,
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if part {
        return match run_part(&cfg) {
            Ok(p) => {
                for line in p.to_lines() {
                    println!("{line}");
                }
                ExitCode::SUCCESS
            }
            Err(why) => {
                eprintln!("perfbench: {why}");
                ExitCode::from(2)
            }
        };
    }
    let report = match run(&cfg) {
        Ok(r) => r,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    let line = match metrics::result_line(&report.checks, &report.metrics) {
        Ok(line) => line,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    println!("config {}", cfg.to_json());
    for n in &report.notes {
        println!("# {n}");
    }
    for l in &report.lines {
        println!("{l}");
    }
    for why in &report.checks.reasons {
        eprintln!("perfbench: check failed: {why}");
    }
    println!("{line}");
    if report.checks.failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
