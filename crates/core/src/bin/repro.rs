//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro --all            # every experiment, in paper order (isolated: a
//!                        #   panicking/hung experiment prints a FAILED row
//!                        #   and repro exits nonzero after the rest finish)
//! repro --exp t3         # one experiment (t1, t3, t4, t5, f1, f2, t6,
//!                        #   f3, t7, t8, f4, f5, t9, t10, r1, d1)
//! repro --exp-json r1    # one experiment as JSON (CI reproducibility diffs)
//! repro --markdown       # --all, rendered as markdown (EXPERIMENTS.md body)
//! repro --list           # list experiment ids
//! repro --ablations      # design-choice ablation sweeps
//! repro --extensions     # power/roofline/profile extension studies
//! repro --timeline hpcg a64fx   # one iteration, phase by phase
//! repro --autotune 2            # layout search per system
//! repro --chaos 42              # seeded campaign chaos self-test
//! ```
//!
//! Campaign flags (for `--all`):
//!
//! * `--journal <path>` appends every completed experiment to a
//!   checksummed write-ahead journal (one fsynced JSONL record each); a
//!   `SIGKILL` at any byte leaves a valid prefix.
//! * `--resume` replays the journal's durable records and runs only the
//!   rest — output is byte-identical to an uninterrupted run.
//! * `--retries <n>` re-runs failed experiments up to n extra times
//!   (`--retry-backoff-ms <ms>` paces the attempts; results are
//!   backoff-invariant).
//! * `--exp-json-out <path>` writes every table's JSON as one merged
//!   deterministic document (what CI byte-diffs across kill/resume).
//! * `--kill-after <n>` stops the campaign after n durable journal
//!   records and exits 9 — the crash-injection hook CI uses to prove
//!   resume correctness (each record is fsynced before it counts, so
//!   this is equivalent to a SIGKILL landing after the nth append).
//!
//! Run settings (anywhere on the command line) are resolved once into
//! one `runner::RunConfig`: the flag wins, then its environment variable
//! (invalid values warn on stderr and are ignored), then the default.
//! That config is passed to the runner and the campaign, which install it
//! on every experiment thread, and is installed around the single-run
//! modes — nothing is set process-wide.
//!
//! * `--threads N` / `A64FX_REPRO_THREADS` bounds the experiment
//!   runner's worker team (default `available_parallelism`).
//! * `--deadline-secs <n>` / `A64FX_DEADLINE_SECS` sets the
//!   per-experiment wall-clock deadline (default 600 seconds).
//! * `--des-backend serial|sharded<N>` / `A64FX_DES_BACKEND` selects the
//!   discrete-event engine for DES-routed experiments (e.g. D1; default
//!   `serial`). Serial and sharded runs are byte-identical — the sharded
//!   engine only changes wall-clock time at scale.
//! * `--pricing flat|ecm` / `A64FX_PRICING` selects the kernel-pricing
//!   backend for compute phases (default `flat`, byte-identical to every
//!   pre-ECM release). `ecm` routes the memory side of each kernel
//!   through the cache-hierarchy ECM model (`archsim::ecm`).
//! * `--no-cache` / `A64FX_TRACE_CACHE=off` (`on`/`off`, `1`/`0`,
//!   `true`/`false`, `yes`/`no`) turns the trace cache
//!   (`a64fx_core::tracecache`) off. Reports are byte-identical either
//!   way — the cache only skips rebuilding identical app traces.
//!   `A64FX_TRACE_CACHE_DIR=<dir>` also persists built traces there and
//!   reloads them in later runs.
//!
//! `--trace-out <file>`, `--metrics-out <file>` and `--attrib-out <file>`
//! (anywhere on the command line) record the run with an
//! [`obs::MemRecorder`] and write a Chrome Trace Event JSON (load it in
//! `chrome://tracing` or Perfetto), a deterministic metrics snapshot
//! (with histogram percentiles), and a critical-path attribution document
//! (see `obs::analyze`) respectively. They apply to the single-run modes
//! `--exp`, `--exp-json` and `--timeline`; all files are byte-identical
//! across repeated runs of the same command.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use a64fx_apps::{castep, cosa, hpcg, minikab, nekbone, opensbli};
use a64fx_core::campaign::{self, CampaignConfig, CampaignEnd, RetryPolicy};
use a64fx_core::costmodel::{JobLayout, PricingBackend};
use a64fx_core::runner::{self, RunConfig};
use a64fx_core::{ablations, autotune, chaos, experiments, extensions, timeline, tracecache};
use archsim::{paper_toolchain, system, SystemId};

fn usage() -> ! {
    eprintln!(
        "usage: repro [--threads <n>] [--des-backend serial|sharded<n>] [--pricing flat|ecm] [--no-cache] [--deadline-secs <n>] [--trace-out <file>] [--metrics-out <file>] [--attrib-out <file>] [--journal <path>] [--resume] [--retries <n>] [--retry-backoff-ms <ms>] [--exp-json-out <path>] [--kill-after <n>] [--all | --exp <id> | --exp-json <id> | --markdown | --list | --ablations | --extensions | --timeline <app> <system> | --autotune <nodes> | --chaos <seed>]"
    );
    std::process::exit(2);
}

/// Strip `<flag> <path>` out of `args` (wherever it appears), returning
/// the path if the flag was given.
fn take_out_path(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    let Some(path) = args.get(i + 1).cloned() else {
        eprintln!("{flag} needs a file path");
        std::process::exit(2);
    };
    args.drain(i..=i + 1);
    Some(path)
}

/// Recording sink behind `--trace-out` / `--metrics-out` /
/// `--attrib-out`: one in-memory recorder for the run, flushed to the
/// requested files at the end.
struct ObsSink {
    rec: Arc<obs::MemRecorder>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    attrib_out: Option<String>,
}

impl ObsSink {
    /// Strip the output flags from `args`; `Some` if any was given.
    fn take(args: &mut Vec<String>) -> Option<Self> {
        let trace_out = take_out_path(args, "--trace-out");
        let metrics_out = take_out_path(args, "--metrics-out");
        let attrib_out = take_out_path(args, "--attrib-out");
        if trace_out.is_none() && metrics_out.is_none() && attrib_out.is_none() {
            return None;
        }
        Some(Self {
            rec: Arc::new(obs::MemRecorder::new()),
            trace_out,
            metrics_out,
            attrib_out,
        })
    }

    fn recorder(&self) -> Arc<obs::MemRecorder> {
        self.rec.clone()
    }

    /// Write the requested output files; `meta` is embedded in the
    /// metrics snapshot so a reader knows what produced it.
    fn flush(&self, meta: &[(&str, String)]) {
        if let Some(path) = &self.trace_out {
            if let Err(why) = std::fs::write(path, self.rec.chrome_trace_json()) {
                eprintln!("--trace-out {path}: {why}");
                std::process::exit(1);
            }
            // Flamegraph-style rollup on stderr: instant feedback without
            // opening the trace in Perfetto (stdout stays diffable JSON).
            eprintln!("{}", self.rec.rollup());
        }
        if let Some(path) = &self.metrics_out {
            if let Err(why) = std::fs::write(path, self.rec.metrics_json_ext(meta)) {
                eprintln!("--metrics-out {path}: {why}");
                std::process::exit(1);
            }
        }
        if let Some(path) = &self.attrib_out {
            if let Err(why) = std::fs::write(path, self.rec.analyze().to_json(meta)) {
                eprintln!("--attrib-out {path}: {why}");
                std::process::exit(1);
            }
        }
    }
}

/// Strip `<flag> <value>` out of `args` (wherever it appears), returning
/// the value read through `parse` if the flag was given. A missing or
/// invalid value exits 2 (`<flag> needs <needs>` / `<flag>: <why>`).
fn take_parsed<T>(
    args: &mut Vec<String>,
    flag: &str,
    needs: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    let v = match args.get(i + 1).map(|raw| parse(raw)) {
        Some(Ok(v)) => v,
        Some(Err(why)) => {
            eprintln!("{flag}: {why}");
            std::process::exit(2);
        }
        None => {
            eprintln!("{flag} needs {needs}");
            std::process::exit(2);
        }
    };
    args.drain(i..=i + 1);
    Some(v)
}

/// Strip a bare `flag` out of `args` (wherever it appears); whether it
/// was given.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

/// Strip `<flag> <n>` out of `args` (wherever it appears), returning the
/// parsed non-negative integer if the flag was given.
fn take_u64(args: &mut Vec<String>, flag: &str) -> Option<u64> {
    let i = args.iter().position(|a| a == flag)?;
    let v = match args.get(i + 1).map(|raw| raw.parse::<u64>()) {
        Some(Ok(v)) => v,
        _ => {
            eprintln!("{flag} needs a non-negative integer");
            std::process::exit(2);
        }
    };
    args.drain(i..=i + 1);
    Some(v)
}

/// Campaign flags for `--all`: journal path, resume, retry policy, the
/// merged-JSON output path, and the crash-injection hook.
struct CampaignFlags {
    journal: Option<PathBuf>,
    resume: bool,
    retry: RetryPolicy,
    exp_json_out: Option<PathBuf>,
    kill_after: Option<u64>,
}

impl CampaignFlags {
    fn take(args: &mut Vec<String>) -> Self {
        let journal = take_out_path(args, "--journal").map(PathBuf::from);
        let resume = take_flag(args, "--resume");
        let retries = take_u64(args, "--retries").unwrap_or(0);
        let backoff_ms = take_u64(args, "--retry-backoff-ms").unwrap_or(0);
        let exp_json_out = take_out_path(args, "--exp-json-out").map(PathBuf::from);
        let kill_after = take_u64(args, "--kill-after");
        if resume && journal.is_none() {
            eprintln!("--resume needs --journal <path>");
            std::process::exit(2);
        }
        if kill_after == Some(0) {
            eprintln!("--kill-after needs at least 1 record");
            std::process::exit(2);
        }
        if kill_after.is_some() && journal.is_none() {
            eprintln!("--kill-after needs --journal <path>");
            std::process::exit(2);
        }
        CampaignFlags {
            journal,
            resume,
            retry: RetryPolicy::with_retries(
                u32::try_from(retries).unwrap_or(u32::MAX),
                Duration::from_millis(backoff_ms),
            ),
            exp_json_out,
            kill_after,
        }
    }

    fn given(&self) -> bool {
        self.journal.is_some()
            || self.resume
            || self.retry.max_attempts > 1
            || self.exp_json_out.is_some()
            || self.kill_after.is_some()
    }
}

/// Run one experiment under the hardened runner with `run` and the sink's
/// recorder installed on the worker thread, then flush the sink's output
/// files.
fn run_observed(id: &str, run: &RunConfig, sink: &ObsSink) -> runner::ExperimentOutcome {
    let id = id.to_ascii_lowercase();
    if !experiments::all_ids().contains(&id.as_str()) {
        eprintln!("unknown experiment '{id}'; try --list");
        std::process::exit(1);
    }
    let body_id = id.clone();
    let outcome = runner::run_isolated_observed(&id, run, sink.recorder(), move || {
        experiments::run_one(&body_id).expect("id validated above")
    });
    sink.flush(&[("experiment", id)]);
    outcome
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let no_cache = take_flag(&mut args, "--no-cache");
    let parse_deadline = |raw: &str| runner::parse_deadline_secs(raw).map(Duration::from_secs);
    let run = RunConfig::resolve(
        take_parsed(
            &mut args,
            "--threads",
            "a positive integer",
            runner::parse_threads,
        ),
        take_parsed(
            &mut args,
            "--deadline-secs",
            "a positive integer of seconds",
            parse_deadline,
        ),
        take_parsed(
            &mut args,
            "--des-backend",
            "'serial' or 'sharded<N>'",
            netsim::DesBackend::parse,
        ),
        take_parsed(
            &mut args,
            "--pricing",
            "'flat' or 'ecm'",
            PricingBackend::parse,
        ),
        no_cache.then_some(false),
    );
    let sink = ObsSink::take(&mut args);
    let cflags = CampaignFlags::take(&mut args);
    if sink.is_some()
        && !matches!(
            args.first().map(String::as_str),
            Some("--exp" | "--exp-json" | "--timeline")
        )
    {
        eprintln!(
            "--trace-out/--metrics-out/--attrib-out apply to --exp, --exp-json and --timeline"
        );
        std::process::exit(2);
    }
    if cflags.given() && !matches!(args.first().map(String::as_str), Some("--all") | None) {
        eprintln!("--journal/--resume/--retries/--exp-json-out/--kill-after apply to --all");
        std::process::exit(2);
    }
    run.scope(|| dispatch(&args, &run, sink.as_ref(), &cflags));
}

/// Run the mode `args` selects under `run`, which the caller has
/// installed as this thread's scope.
fn dispatch(args: &[String], run: &RunConfig, sink: Option<&ObsSink>, cflags: &CampaignFlags) {
    match args.first().map(String::as_str) {
        Some("--all") | None => {
            let cfg = CampaignConfig {
                run: run.clone(),
                retry: cflags.retry,
                stop_after_records: cflags.kill_after,
            };
            let result =
                match campaign::run_campaign(&cfg, cflags.journal.as_deref(), cflags.resume) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("campaign journal error: {e}");
                        std::process::exit(1);
                    }
                };
            for w in &result.warnings {
                eprintln!("warning: {w}");
            }
            if result.end == CampaignEnd::Killed {
                // The crash-injection hook: every journal record is
                // already fsynced, so exiting here is indistinguishable
                // from a SIGKILL landing after the last append.
                eprintln!(
                    "killed after {} durable record(s) (--kill-after)",
                    result.outcomes.len()
                );
                std::process::exit(9);
            }
            for o in &result.outcomes {
                println!("{}", o.render);
            }
            if let Some(path) = &cflags.exp_json_out {
                let merged = campaign::merged_json(&result.outcomes);
                if let Err(e) = std::fs::write(path, merged) {
                    eprintln!("--exp-json-out {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
            let failed = result.failed();
            if failed > 0 {
                eprintln!("{failed} experiment(s) FAILED");
                std::process::exit(1);
            }
        }
        Some("--chaos") => {
            let seed: u64 = match args.get(1).map(|s| s.parse()) {
                Some(Ok(s)) => s,
                _ => {
                    eprintln!("--chaos needs a numeric seed");
                    std::process::exit(2);
                }
            };
            let (table, failures) = chaos::run_chaos(seed);
            println!("{}", table.render());
            if !failures.is_empty() {
                for f in &failures {
                    eprintln!("chaos FAILED: {f}");
                }
                std::process::exit(1);
            }
        }
        Some("--markdown") => {
            for t in experiments::run_all() {
                println!("{}", t.render_markdown());
            }
        }
        Some("--exp") => {
            let id = args.get(1).unwrap_or_else(|| usage());
            match sink {
                Some(s) => {
                    let o = run_observed(id, run, s);
                    println!("{}", o.render());
                    if o.failed() {
                        std::process::exit(1);
                    }
                }
                None => match experiments::run_one(id) {
                    Some(t) => println!("{}", t.render()),
                    None => {
                        eprintln!("unknown experiment '{id}'; try --list");
                        std::process::exit(1);
                    }
                },
            }
        }
        Some("--exp-json") => {
            let id = args.get(1).unwrap_or_else(|| usage());
            match sink {
                Some(s) => {
                    let o = run_observed(id, run, s);
                    match &o.result {
                        Ok(t) => println!("{}", t.to_json(&[])),
                        Err(_) => {
                            eprint!("{}", o.render());
                            std::process::exit(1);
                        }
                    }
                }
                None => match experiments::run_one(id) {
                    Some(t) => println!("{}", t.to_json(&[])),
                    None => {
                        eprintln!("unknown experiment '{id}'; try --list");
                        std::process::exit(1);
                    }
                },
            }
        }
        Some("--ablations") => {
            for t in ablations::run_all() {
                println!("{}", t.render());
            }
        }
        Some("--extensions") => {
            for t in extensions::run_all() {
                println!("{}", t.render());
            }
        }
        Some("--autotune") => {
            // repro --autotune [nodes]
            let nodes: u32 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(2);
            for sys in [SystemId::A64fx, SystemId::Ngio, SystemId::Fulhame] {
                let ranking = autotune::tune_minikab(sys, nodes);
                if !ranking.is_empty() {
                    println!(
                        "{}",
                        autotune::tune_table("minikab", sys, nodes, &ranking).render()
                    );
                }
            }
        }
        Some("--timeline") => {
            // repro --timeline <app> <system>
            let app = args.get(1).map(String::as_str).unwrap_or("hpcg");
            let sys_name = args.get(2).map(String::as_str).unwrap_or("a64fx");
            let sys = match sys_name.to_ascii_lowercase().as_str() {
                "a64fx" => SystemId::A64fx,
                "archer" => SystemId::Archer,
                "cirrus" => SystemId::Cirrus,
                "ngio" => SystemId::Ngio,
                "fulhame" => SystemId::Fulhame,
                other => {
                    eprintln!("unknown system '{other}'");
                    std::process::exit(1);
                }
            };
            let spec = system(sys);
            let layout = JobLayout::mpi_full(1, &spec);
            let trace = match app {
                "hpcg" => tracecache::hpcg(hpcg::HpcgConfig::paper(), layout.ranks),
                "minikab" => tracecache::minikab(minikab::MinikabConfig::paper(), layout.ranks),
                "nekbone" => tracecache::nekbone(nekbone::NekboneConfig::paper(), layout.ranks),
                "cosa" => tracecache::cosa(cosa::CosaConfig::paper(), layout.ranks),
                "castep" => tracecache::castep(castep::CastepConfig::paper(), layout.ranks),
                "opensbli" => tracecache::opensbli(opensbli::OpensbliConfig::paper(), layout.ranks),
                other => {
                    eprintln!("unknown app '{other}'");
                    std::process::exit(1);
                }
            };
            let Some(tc) = paper_toolchain(sys, app) else {
                eprintln!("the paper did not run {app} on {sys_name}");
                std::process::exit(1);
            };
            let entries = match sink {
                Some(s) => {
                    let entries = obs::with_recorder(s.recorder(), || {
                        timeline::iteration_timeline(&spec, &tc, &trace, layout)
                    });
                    s.flush(&[
                        ("app", app.to_string()),
                        ("system", sys_name.to_ascii_lowercase()),
                    ]);
                    entries
                }
                None => timeline::iteration_timeline(&spec, &tc, &trace, layout),
            };
            let title = format!(
                "{app} on one {} node: one iteration, phase by phase",
                spec.name
            );
            println!("{}", timeline::timeline_table(&title, &entries).render());
        }
        Some("--list") => {
            for id in experiments::all_ids() {
                println!("{id}");
            }
        }
        _ => usage(),
    }
}
