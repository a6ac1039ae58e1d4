//! `hbold-bench`: the perf ledger's one command.
//!
//! Builds the release `hbold-server`, pins itself (and so every child) to
//! one CPU, generates the fixture from `--seed`, and then runs
//!
//! * the **end-to-end lane** — per workload: five replicated set-ups, then a
//!   fixed number of closed-loop ops in three rounds interleaved across the
//!   workloads — and/or
//! * the **per-layer lane** — a shorter untraced phase for the client and
//!   server counters, one traced pass, round-trip probes, and the in-process
//!   timings of every crate's public entry points,
//!
//! with a sampler thread measuring the machine's speed throughout, so that
//! every time is reported at reference speed (see `calib`). It checks every
//! answer and prints every metric by name and unit: one
//! `metric<TAB>workload<TAB>name<TAB>value<TAB>unit<TAB>note` line each (what
//! the `aa` tool reads), then one JSON object as the last line.
//!
//! See `benchmark/README.md` for the measurement protocol and the catalogue.

mod calib;
mod declaration;
mod fixture;
mod http;
mod layers;
mod proc;
mod runner;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use calib::Sampler;
use fixture::{Fixture, Sizes};
use hbold_sparql::json::JsonValue;
use proc::ScratchDir;
use runner::{Run, ROUNDS, SETUP_REPLICAS};
use stats::Metric;
use workloads::Env;

const USAGE: &str = "\
usage: hbold-bench [--workload NAME|all] [--seed N] [--seconds N] [--trace 0|1] [--smoke]

  --workload  extract_pass | browse_pages | update_stream | cold_restart | all (default)
  --seed      draws the dataset and the update streams (default 7)
  --seconds   sizes the timed phase: ops = seconds x the workload's nominal rate,
              a fixed count (default 15; 2 with --smoke)
  --trace     0: end-to-end lane only; 1: per-layer lane only; absent: both
  --smoke     tiny fixture, one set-up per workload, all checks on: for local use";

/// `--seconds` when the flag is absent, and under `--smoke`.
const DEFAULT_SECONDS: u64 = 15;
const SMOKE_SECONDS: u64 = 2;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    end_to_end: bool,
    layers: bool,
    smoke: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 7,
        seconds: 0,
        end_to_end: true,
        layers: true,
        smoke: false,
    };
    let mut argv = argv.skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed expects a number")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or("--seconds expects a number from 1 to 600")?
            }
            "--trace" => match value()?.as_str() {
                "0" => args.layers = false,
                "1" => args.end_to_end = false,
                _ => return Err("--trace expects 0 or 1".into()),
            },
            "--smoke" => args.smoke = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds == 0 {
        args.seconds = if args.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        };
    }
    Ok(args)
}

/// The directory build outputs and everything a run leaves behind go to:
/// `$CARGO_TARGET_DIR` when the caller set one, else `benchmark/target`.
fn target_dir() -> Result<PathBuf, String> {
    let dir = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => Path::new(env!("CARGO_MANIFEST_DIR")).join("target"),
    };
    if dir.is_absolute() {
        return Ok(dir);
    }
    std::env::current_dir()
        .map(|cwd| cwd.join(dir))
        .map_err(|e| format!("no working directory: {e}"))
}

/// Builds the release `hbold-server` from the repository's own manifest (so
/// its profile settings are the ones users get) and returns the binary.
fn build_server(target: &Path) -> Result<PathBuf, String> {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("the benchmark has no parent directory")?
        .join("Cargo.toml");
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["--bin", "hbold-server", "--manifest-path"])
        .arg(&manifest)
        .env("CARGO_TARGET_DIR", target)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err("building hbold-server failed".into());
    }
    Ok(target.join("release").join("hbold-server"))
}

/// Compares what a single-workload run is about to print with what
/// `BENCHMARK.json` declares for the lanes that ran: the same names with the
/// same units, no more and no fewer. The driver would refuse the run
/// anyway; this says which name is at fault.
fn check_declaration(args: &Args, metrics: &[(String, Metric)]) -> Result<(), String> {
    let doc = declaration::load()?;
    let mut declared = BTreeSet::new();
    for (list, ran) in [("end_to_end", args.end_to_end), ("per_layer", args.layers)] {
        let entries = doc.get(list).and_then(JsonValue::as_array).unwrap_or(&[]);
        for entry in entries.iter().filter(|_| ran) {
            let field = |key| entry.get(key).and_then(JsonValue::as_str).unwrap_or("");
            declared.insert((field("name").to_string(), field("unit").to_string()));
        }
    }
    let printed: BTreeSet<(String, String)> = metrics
        .iter()
        .map(|(_, m)| (m.name.to_string(), m.unit.to_string()))
        .collect();
    let differing: Vec<_> = declared.symmetric_difference(&printed).collect();
    if differing.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "printed metrics and BENCHMARK.json disagree on {differing:?}"
        ))
    }
}

/// Everything a finished invocation reports.
struct Report {
    attempted: usize,
    failed: usize,
    /// `(workload column, metric)`.
    metrics: Vec<(String, Metric)>,
}

fn run(args: &Args) -> Result<Report, String> {
    let target = target_dir()?;
    let server_bin = build_server(&target)?;

    let others = proc::other_servers();
    if !others.is_empty() {
        println!(
            "# WARNING: hbold-server already running on this host (pids {others:?}); readings will be disturbed"
        );
    }
    // One CPU for the load generator and every server it starts: on a small
    // shared VM, client and server on different vCPUs pay two idle wake-ups
    // per request, and an unpinned server shards queries across contended
    // vCPUs — both slower and three times noisier than sharing one CPU.
    let allowed = proc::allowed_cpus();
    match allowed.last() {
        Some(&cpu) if proc::set_affinity(&[cpu]) => println!("# pinned to cpu {cpu}"),
        _ => println!("# WARNING: cannot pin to one CPU; running unpinned"),
    }

    let scratch = ScratchDir::create(target.join(format!("hbold-bench-{}", std::process::id())))?;
    let sizes = if args.smoke {
        Sizes::SMOKE
    } else {
        Sizes::FULL
    };
    let fixture = Fixture::generate(args.seed, sizes, scratch.path())?;
    println!(
        "# seed {} -> {} quads, {} classes, {} typed subjects, {} bytes of N-Triples, generated in {:.3} s",
        args.seed,
        fixture.truth.quads,
        fixture.truth.class_sizes.len(),
        fixture.truth.typed_subjects,
        fixture.nt_bytes,
        fixture.gen_s
    );
    let env = Env {
        server_bin,
        scratch: scratch.path().to_path_buf(),
        fixture: &fixture,
        seed: args.seed,
    };
    let sampler = Sampler::start();

    let mut runs: Vec<Run> = workloads::all()
        .into_iter()
        .filter(|w| args.workload == "all" || args.workload == w.name())
        .map(Run::new)
        .collect();
    if runs.is_empty() {
        return Err(format!("unknown workload {:?}\n{USAGE}", args.workload));
    }

    // Set everything up first (an idle server costs nothing), then time.
    let replicas = if args.end_to_end && !args.smoke {
        SETUP_REPLICAS
    } else {
        1
    };
    for run in &mut runs {
        run.set_up(&env, &sampler, replicas)?;
    }
    let rounds = if args.end_to_end { ROUNDS } else { 1 };
    for _ in 0..rounds {
        for run in &mut runs {
            let ops = run.ops_per_round(args.seconds);
            run.timed_round(&env, &sampler, ops, args.layers)?;
        }
    }
    if args.layers {
        for run in &mut runs {
            let ops = (run.ops_per_round(args.seconds) / 4).max(3);
            run.traced_pass(&env, &sampler, ops);
            run.probe_round_trips(&env, &sampler)?;
        }
    }
    for run in &mut runs {
        run.finish(&env);
    }

    let mut report = Report {
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for run in &mut runs {
        let name = run.workload.name();
        report.attempted += run.attempted;
        report.failed += run.failed;
        if args.end_to_end {
            for metric in run.end_to_end_metrics() {
                report.metrics.push((name.to_string(), metric));
            }
        }
        if args.layers {
            for metric in run.layer_metrics(&fixture, &sampler) {
                report.metrics.push((name.to_string(), metric));
            }
            if let Some(tracer) = run.traced.as_ref().and_then(|t| t.probe.tracer.as_ref()) {
                let path = target.join(format!("trace-{name}.json"));
                std::fs::write(&path, tracer.to_json(name))
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                println!("# spans of the traced pass: {}", path.display());
            }
        }
    }
    drop(runs); // stops every server before the in-process lane starts

    if args.layers {
        let lane = layers::run(&env, &sampler, &allowed)?;
        report
            .metrics
            .extend(lane.into_iter().map(|m| ("layers".to_string(), m)));
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("{message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("hbold-bench: {message}");
            return ExitCode::from(2);
        }
    };

    let several = args.workload == "all";
    let correct = report.failed == 0;
    if !several && correct {
        if let Err(message) = check_declaration(&args, &report.metrics) {
            eprintln!("hbold-bench: {message}");
            return ExitCode::from(2);
        }
    }
    let mut json = Vec::new();
    for (workload, metric) in &report.metrics {
        if !metric.value.is_finite() {
            eprintln!("hbold-bench: {workload} {} is not a number", metric.name);
            return ExitCode::from(2);
        }
        println!(
            "metric\t{workload}\t{}\t{}\t{}\t{}",
            metric.name, metric.value, metric.unit, metric.note
        );
        let name = if several && workload != "layers" {
            format!("{workload}.{}", metric.name)
        } else {
            metric.name.to_string()
        };
        json.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.value, metric.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        report.attempted,
        report.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
