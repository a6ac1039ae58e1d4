//! `aa`: compares two sets of `hbold-bench` runs.
//!
//! ```text
//! aa [--aa] A.log B.log
//! ```
//!
//! Each file holds the standard output of one or more `hbold-bench` runs,
//! concatenated (`hbold-bench ... >> A.log`); only the `metric<TAB>...` lines
//! are read. For every workload × end-to-end metric the tool prints both
//! medians, their relative difference and the metric's bound from
//! `BENCHMARK.json`, as a Markdown table, and exits non-zero if B is worse
//! than A by more than the bound.
//!
//! With `--aa` the two sets are runs of the *same* code: the difference must
//! stay within half the bound in either direction, and every exact count of
//! the per-layer lane must be identical in all runs of both sets.

#[path = "../declaration.rs"]
mod declaration;
#[allow(dead_code)] // the metric record is the other program's
#[path = "../stats.rs"]
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

use hbold_sparql::json::JsonValue;
use stats::median;

/// `(workload, metric) → values`, one per run.
type Readings = BTreeMap<(String, String), Vec<f64>>;

/// Per-layer metrics whose values are counts that must repeat exactly.
fn is_exact_count(name: &str) -> bool {
    name.contains("_bytes_")
        || name.starts_with("server.metrics.")
        || name == "sparql.rows_scanned_per_result"
        || name == "client.requests_per_op"
}

fn read_log(path: &str) -> Result<Readings, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut readings = Readings::new();
    for line in text.lines() {
        let fields: Vec<&str> = line.split('\t').collect();
        if let ["metric", workload, name, value, ..] = fields[..] {
            let value: f64 = value
                .parse()
                .map_err(|_| format!("{path}: bad value in {line:?}"))?;
            readings
                .entry((workload.to_string(), name.to_string()))
                .or_default()
                .push(value);
        }
    }
    if readings.is_empty() {
        return Err(format!("{path}: no metric lines"));
    }
    Ok(readings)
}

/// `metric → (bound, lower is better)` from `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, (f64, bool)>, String> {
    let doc = declaration::load()?;
    let mut out = BTreeMap::new();
    for metric in doc
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
    {
        let field = |key: &str| metric.get(key).and_then(JsonValue::as_str);
        let (Some(name), Some(bound)) = (
            field("name"),
            metric.get("bound").and_then(JsonValue::as_f64),
        ) else {
            return Err("an end_to_end entry lacks a name or a bound".into());
        };
        out.insert(name.to_string(), (bound, field("better") != Some("higher")));
    }
    Ok(out)
}

fn compare(same_code: bool, a: &Readings, b: &Readings) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut ok = true;
    println!("| workload | metric | A median (n) | B median (n) | B vs A | bound | |");
    println!("|---|---|---|---|---|---|---|");
    for ((workload, name), a_values) in a {
        let Some(&(bound, lower_is_better)) = bounds.get(name) else {
            continue;
        };
        let Some(b_values) = b.get(&(workload.clone(), name.clone())) else {
            return Err(format!("B has no {workload} {name}"));
        };
        let (a_median, b_median) = (median(a_values), median(b_values));
        let difference = (b_median - a_median) / a_median;
        let worse = if lower_is_better {
            difference
        } else {
            -difference
        };
        let pass = if same_code {
            difference.abs() <= bound / 2.0
        } else {
            worse <= bound
        };
        ok &= pass;
        println!(
            "| {workload} | {name} | {a_median:.4} ({}) | {b_median:.4} ({}) | {:+.2} % | {:.1} % | {} |",
            a_values.len(),
            b_values.len(),
            difference * 100.0,
            bound * 100.0,
            if pass { "ok" } else { "**FAIL**" }
        );
    }
    if same_code {
        let mut drifting = Vec::new();
        for (key, a_values) in a.iter().filter(|((_, name), _)| is_exact_count(name)) {
            let all = a_values.iter().chain(b.get(key).into_iter().flatten());
            if all.clone().any(|v| *v != a_values[0]) {
                drifting.push(format!("{} {}", key.0, key.1));
            }
        }
        println!();
        if drifting.is_empty() {
            println!("Every exact per-layer count is identical in all runs of both sets.");
        } else {
            ok = false;
            println!(
                "**FAIL**: counts that differ between runs: {}",
                drifting.join(", ")
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let same_code = args.first().is_some_and(|a| a == "--aa");
    if same_code {
        args.remove(0);
    }
    let [a, b] = &args[..] else {
        eprintln!("usage: aa [--aa] A.log B.log");
        return ExitCode::from(2);
    };
    match read_log(a)
        .and_then(|a| Ok((a, read_log(b)?)))
        .and_then(|(a, b)| compare(same_code, &a, &b))
    {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("aa: {message}");
            ExitCode::from(2)
        }
    }
}
