//! `exp_report` — regenerates every table / figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! exp_report              # run every experiment (E1–E11) at default scale
//! exp_report e1 e9        # run only the listed experiments
//! exp_report executor     # the executor's overhead on one extraction pass
//! exp_report --quick      # smaller workloads (used by CI / smoke tests)
//! exp_report --figures-dir target/figures   # also write the SVG figures
//! ```
//!
//! The output is the set of tables recorded in `EXPERIMENTS.md`.

use std::path::PathBuf;

use hbold_bench::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let figures_dir: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--figures-dir")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);
    let figures_value_index = args
        .iter()
        .position(|a| a == "--figures-dir")
        .map(|i| i + 1);
    let selected: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && Some(*i) != figures_value_index)
        .map(|(_, a)| a.to_lowercase())
        .collect();
    let wants = |id: &str| selected.is_empty() || selected.iter().any(|s| s == id);

    println!("H-BOLD reproduction — experiment report");
    println!("=======================================");
    println!("(quick mode: {quick})\n");

    if wants("e1") {
        run_e1(quick);
    }
    if wants("e2") {
        run_e2();
    }
    if wants("e3") {
        run_e3();
    }
    if wants("e4") || wants("e5") || wants("e6") || wants("e7") {
        run_layouts(figures_dir.as_deref());
    }
    if wants("e8") {
        run_e8(quick);
    }
    if wants("e9") {
        run_e9(quick);
    }
    if wants("e10") {
        run_e10(quick);
    }
    if wants("e11") {
        run_e11();
    }
    if wants("executor") {
        run_executor(quick);
    }
}

fn run_e1(quick: bool) {
    let (endpoints, repeats) = if quick { (10, 3) } else { (40, 5) };
    println!("E1  — Cluster Schema delivery: on-the-fly vs stored (paper §3.2)");
    println!("     {endpoints} endpoints, {repeats} requests each\n");
    let result = e1_cluster_latency(endpoints, repeats);
    println!(
        "     {:<10} {:>12} {:>12} {:>12}",
        "classes", "on-the-fly", "stored", "reduction"
    );
    for row in &result.rows {
        println!(
            "     {:<10} {:>10.2}ms {:>10.3}ms {:>11.1}%",
            row.classes,
            row.on_the_fly.as_secs_f64() * 1e3,
            row.stored.as_secs_f64() * 1e3,
            row.reduction_pct()
        );
    }
    println!(
        "\n     median reduction: {:.1}%   endpoints with ≥35% reduction: {:.0}%   (paper: 35% on half of the endpoints)\n",
        result.median_reduction_pct(),
        100.0 * result.fraction_with_reduction_at_least(35.0)
    );
}

fn run_e2() {
    println!("E2  — Endpoint discovery by crawling open-data portals (paper §3.3)");
    let result = e2_crawl_funnel(610, 110);
    for (portal, discovered) in &result.discovered_per_portal {
        println!("     {portal:<28} discovered {discovered:>4} SPARQL endpoints");
    }
    println!(
        "     listed endpoints: {} -> {}   (+{} new; paper: 610 -> 680, +70)",
        result.listed_before, result.listed_after, result.newly_listed
    );
    println!(
        "     indexed endpoints: {} -> {}  (+{} new; paper: 110 -> 130, +20)\n",
        result.indexed_before,
        result.indexed_after,
        result.indexed_after - result.indexed_before
    );
}

fn run_e3() {
    println!("E3  — Interactive exploration of the Scholarly LD (paper Figure 2)");
    println!(
        "     {:<38} {:>8} {:>12}",
        "action", "classes", "% instances"
    );
    for step in e3_exploration_trace() {
        println!(
            "     {:<38} {:>8} {:>11.1}%",
            step.action, step.visible_nodes, step.coverage_pct
        );
    }
    println!();
}

fn run_layouts(figures_dir: Option<&std::path::Path>) {
    println!("E4–E7 — Visualization layouts over the Scholarly LD (paper Figures 4–7)");
    println!(
        "     {:<28} {:<24} {:>8} {:>8} {:>7} {:>10}",
        "figure", "layout", "clusters", "classes", "edges", "compute"
    );
    for figure in e4_to_e7_layout_figures() {
        println!(
            "     {:<28} {:<24} {:>8} {:>8} {:>7} {:>8.2}ms",
            figure.figure,
            figure.layout,
            figure.clusters,
            figure.classes,
            figure.edges,
            figure.compute_time.as_secs_f64() * 1e3
        );
        if let Some(dir) = figures_dir {
            if std::fs::create_dir_all(dir).is_ok() {
                let path = dir.join(format!("{}.svg", figure.layout));
                if std::fs::write(&path, &figure.svg).is_ok() {
                    println!("         wrote {}", path.display());
                }
            }
        }
    }
    println!();
}

fn run_e8(quick: bool) {
    let sizes: &[usize] = if quick {
        &[10, 25, 50]
    } else {
        &[10, 25, 50, 100, 200]
    };
    println!("E8  — Pipeline scaling with dataset size (paper §5: 130 Big LD)");
    println!(
        "     {:<10} {:>10} {:>9} {:>14} {:>10} {:>12}",
        "classes", "triples", "queries", "extraction", "summary", "clustering"
    );
    for row in e8_pipeline_scaling(sizes, if quick { 30 } else { 60 }) {
        println!(
            "     {:<10} {:>10} {:>9} {:>12.1}ms {:>8.2}ms {:>10.2}ms",
            row.classes,
            row.triples,
            row.queries,
            row.extraction.as_secs_f64() * 1e3,
            row.summary.as_secs_f64() * 1e3,
            row.clustering.as_secs_f64() * 1e3
        );
    }
    println!();
}

fn run_e9(quick: bool) {
    let (endpoints, days) = if quick { (8, 14) } else { (20, 30) };
    println!("E9  — Refresh policy: weekly-with-daily-retry vs naive daily (paper §3.1)");
    println!("     {endpoints} endpoints over {days} virtual days\n");
    let result = e9_refresh_policy(endpoints, days);
    let print = |name: &str, stats: &hbold::SchedulerStats| {
        println!(
            "     {:<22} runs {:>5}   skipped {:>5}   failed {:>4}   indexed {:>3}   mean staleness {:>5.2} days",
            name,
            stats.extraction_runs,
            stats.skipped_fresh,
            stats.failed_runs,
            stats.endpoints_indexed,
            stats.mean_staleness_days
        );
    };
    print("weekly + daily retry", &result.weekly);
    print("naive daily", &result.daily);
    let saved = 100.0
        * (1.0 - result.weekly.extraction_runs as f64 / result.daily.extraction_runs.max(1) as f64);
    println!("     extraction runs saved by the paper's policy: {saved:.0}%\n");
}

fn run_e10(quick: bool) {
    let sizes: &[usize] = if quick {
        &[20, 60]
    } else {
        &[20, 60, 150, 300]
    };
    println!("E10 — Community detection quality on schema graphs (ablation, cf. [15])");
    println!(
        "     {:<10} {:<20} {:>12} {:>10} {:>10}",
        "classes", "algorithm", "modularity", "clusters", "time"
    );
    for row in e10_community_quality(sizes) {
        println!(
            "     {:<10} {:<20} {:>12.3} {:>10} {:>8.2}ms",
            row.classes,
            row.algorithm,
            row.modularity,
            row.clusters,
            row.time.as_secs_f64() * 1e3
        );
    }
    println!();
}

fn run_e11() {
    println!(
        "E11 — Index-extraction pattern strategies across endpoint implementations (paper §2.1)"
    );
    println!(
        "     {:<16} {:>18} {:>10} {:>11} {:>16}",
        "implementation", "chain succeeds", "queries", "fallbacks", "aggregate-only"
    );
    for row in e11_extraction_strategies(20, 1_500) {
        println!(
            "     {:<16} {:>18} {:>10} {:>11} {:>16}",
            row.implementation,
            if row.with_fallbacks_ok { "yes" } else { "NO" },
            row.with_fallbacks_queries,
            row.fallbacks_taken,
            if row.aggregate_only_ok {
                "succeeds"
            } else {
                "fails"
            }
        );
    }
    println!();
}

fn run_executor(quick: bool) {
    // The perf ledger's fixture sizes (40 classes, 20 000 instances).
    let (classes, instances, passes) = if quick {
        (12, 1_500, 5)
    } else {
        (40, 20_000, 25)
    };
    let split = executor_split(classes, instances, 7, passes);
    println!(
        "Executor — one in-process extraction pass by query class ({} quads, fastest of {passes})",
        split.quads
    );
    println!("     {:<16} {:>8} {:>10}", "class", "queries", "time");
    for (class, queries, time) in &split.classes {
        println!("     {class:<16} {queries:>8} {:>8.3}ms", ms(*time));
    }
    println!("     {:<16} {:>8} {:>8.3}ms", "pass", "", ms(split.pass));
    println!(
        "     raw nested-scan floor: property {:.3}ms, link {:.3}ms",
        ms(split.property_floor),
        ms(split.link_floor)
    );
    println!();
}

fn ms(time: std::time::Duration) -> f64 {
    time.as_secs_f64() * 1e3
}
