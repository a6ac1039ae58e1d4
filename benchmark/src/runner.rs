//! One workload's progress through the lanes: replicated set-ups, rounds of
//! timed ops, the traced pass, the round-trip probes, and the metrics they
//! add up to.

use std::time::Instant;

use crate::calib::{Interval, Reading, Sampler};
use crate::fixture::Fixture;
use crate::http;
use crate::stats::{median, quantile, Metric};
use crate::trace::Tracer;
use crate::workloads::{Counters, Env, Footprint, Probe, Workload};

/// Set-ups per workload in the end-to-end lane; `setup_s` is their median.
pub const SETUP_REPLICAS: usize = 5;
/// Timed rounds; with several workloads the rounds interleave them, so a
/// slow minute on the host is spread over all of them.
pub const ROUNDS: usize = 3;
/// Ops run for about this long between two readings of the server's CPU time.
const BLOCK_SECONDS: f64 = 2.0;
/// Round trips per probe of the server's fixed per-request cost.
const PROBE_ROUND_TRIPS: usize = 300;

/// A time metric: the median of the calibrated readings, the median of the
/// raw ones and the sample count in the note.
fn time_metric(name: &'static str, readings: &[Reading], unit: &'static str) -> Metric {
    let mut metric = Reading::median_of(readings).metric(name, unit);
    metric.note.push_str(&format!(", n={}", readings.len()));
    metric
}

/// One pass of ops (untraced or traced) and what it measured.
#[derive(Default)]
pub struct Pass {
    pub probe: Probe,
    op_ms: Vec<Reading>,
    /// Per-op sums, each op's share converted with that op's own factor.
    wait_ms: Reading,
    decode_ms: Reading,
    /// From the first op's start to the last op's end, blocks included.
    span: Option<Interval>,
}

impl Pass {
    /// Runs one op and books its readings; `Err` is a failed op.
    fn op(
        &mut self,
        workload: &mut dyn Workload,
        env: &Env<'_>,
        sampler: &Sampler,
    ) -> Result<(), String> {
        let (wait_before, decode_before) = (self.probe.wait_ns, self.probe.decode_ns);
        let took = workload.op(env, &mut self.probe)?;
        let op_ms = sampler.reading(took.ms(), took);
        self.op_ms.push(op_ms);
        // The op's parts share the op's factor.
        let share = |ns: u64| op_ms.scaled(ns as f64 / 1e6 / op_ms.raw);
        self.wait_ms += share(self.probe.wait_ns - wait_before);
        self.decode_ms += share(self.probe.decode_ns - decode_before);
        self.span = Some(Interval {
            start: self.span.map_or(took.start, |span| span.start),
            end: took.end,
        });
        Ok(())
    }
}

/// One workload's progress through the lanes.
pub struct Run {
    pub workload: Box<dyn Workload>,
    setup_s: Vec<Reading>,
    pub attempted: usize,
    pub failed: usize,
    untraced: Pass,
    pub traced: Option<Pass>,
    /// Server CPU time over all blocks of ops, each block's share converted
    /// with the speed of the machine during that block.
    server_cpu_ms: Reading,
    /// Ops attempted in those blocks.
    timed_ops: usize,
    peak_rss_mb: f64,
    /// `/metrics` deltas over the untraced ops (per-layer lane only).
    counters: Counters,
    footprint: Option<Footprint>,
    health_us: Option<Reading>,
    ask_us: Option<Reading>,
}

impl Run {
    pub fn new(workload: Box<dyn Workload>) -> Run {
        Run {
            workload,
            setup_s: Vec::new(),
            attempted: 0,
            failed: 0,
            untraced: Pass::default(),
            traced: None,
            server_cpu_ms: Reading::default(),
            timed_ops: 0,
            peak_rss_mb: 0.0,
            counters: Counters::default(),
            footprint: None,
            health_us: None,
            ask_us: None,
        }
    }

    fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("{}: FAILED: {error}", self.workload.name());
        }
    }

    /// Ops per timed round: a fixed count, the same on every run with the
    /// same `--seconds`.
    pub fn ops_per_round(&self, seconds: u64) -> usize {
        let total = seconds as f64 * self.workload.nominal_ops_per_s();
        ((total / ROUNDS as f64).round() as usize).max(1)
    }

    pub fn set_up(
        &mut self,
        env: &Env<'_>,
        sampler: &Sampler,
        replicas: usize,
    ) -> Result<(), String> {
        for _ in 0..replicas {
            let start = Instant::now();
            self.workload
                .set_up(env)
                .map_err(|e| format!("{} set-up: {e}", self.workload.name()))?;
            let took = Interval::since(start);
            self.setup_s.push(sampler.reading(took.ms() / 1e3, took));
        }
        Ok(())
    }

    /// One stint of untraced ops. The server's CPU time is read between
    /// blocks of about [`BLOCK_SECONDS`], so that each block's CPU time can
    /// be converted with the speed of the machine during that block.
    pub fn timed_round(
        &mut self,
        env: &Env<'_>,
        sampler: &Sampler,
        ops: usize,
        count: bool,
    ) -> Result<(), String> {
        let block = ((BLOCK_SECONDS * self.workload.nominal_ops_per_s()).ceil() as usize).max(1);
        let counters_before = count.then(|| self.workload.counters()).transpose()?;
        let mut done = 0;
        while done < ops {
            let in_block = block.min(ops - done);
            let usage_before = self.workload.usage()?;
            let start = Instant::now();
            for _ in 0..in_block {
                self.attempted += 1;
                if let Err(error) = self.untraced.op(self.workload.as_mut(), env, sampler) {
                    self.fail(error);
                }
            }
            let took = Interval::since(start);
            let usage = self.workload.usage()?;
            let cpu_ms = (usage.cpu_s - usage_before.cpu_s) * 1e3;
            self.server_cpu_ms += sampler.reading(cpu_ms, took);
            self.timed_ops += in_block;
            self.peak_rss_mb = usage.peak_rss_mb;
            done += in_block;
        }
        if let Some(before) = counters_before {
            let after = self.workload.counters()?;
            self.counters.add_delta(&before, &after);
        }
        Ok(())
    }

    /// The traced pass: the same ops with `?trace=1` on every query and
    /// spans recorded around every request.
    pub fn traced_pass(&mut self, env: &Env<'_>, sampler: &Sampler, ops: usize) {
        let mut pass = Pass {
            probe: Probe {
                tracer: Some(Tracer::new()),
                ..Probe::default()
            },
            ..Pass::default()
        };
        for _ in 0..ops {
            self.attempted += 1;
            if let Err(error) = pass.op(self.workload.as_mut(), env, sampler) {
                self.fail(format!("traced: {error}"));
            }
        }
        self.traced = Some(pass);
    }

    /// Median round trips of `GET /health` and of an `ASK` that matches
    /// nothing: the fixed cost every request pays before any engine work.
    pub fn probe_round_trips(&mut self, env: &Env<'_>, sampler: &Sampler) -> Result<(), String> {
        let addr = self.workload.probe_addr(env)?;
        let mut client =
            http::Client::connect(&addr).map_err(|e| format!("probe connection: {e}"))?;
        let ask = b"ASK { <http://bench.hbold.example/no> <http://bench.hbold.example/such> <http://bench.hbold.example/quad> }";
        let (mut health_us, mut ask_us) = (Vec::new(), Vec::new());
        let start = Instant::now();
        for _ in 0..PROBE_ROUND_TRIPS {
            let health = client
                .request("GET", "/health", "*/*", None)
                .map_err(|e| format!("GET /health: {e}"))?;
            let asked = client
                .request(
                    "POST",
                    "/sparql",
                    "application/sparql-results+json",
                    Some(("application/sparql-query", ask)),
                )
                .map_err(|e| format!("ASK: {e}"))?;
            if health.status != 200 || asked.body != b"{\"head\":{},\"boolean\":false}" {
                return Err("a round-trip probe got an unexpected answer".into());
            }
            health_us.push((health.done - health.started).as_secs_f64() * 1e6);
            ask_us.push((asked.done - asked.started).as_secs_f64() * 1e6);
        }
        // Single round trips are shorter than the sampler's period: the
        // whole loop shares one factor.
        let took = Interval::since(start);
        self.health_us = Some(sampler.reading(median(&health_us), took));
        self.ask_us = Some(sampler.reading(median(&ask_us), took));
        Ok(())
    }

    pub fn finish(&mut self, env: &Env<'_>) {
        match self.workload.finish(env) {
            Ok(footprint) => self.footprint = Some(footprint),
            Err(error) => self.fail(format!("final check: {error}")),
        }
    }

    pub fn end_to_end_metrics(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        if !self.setup_s.is_empty() {
            out.push(time_metric("setup_s", &self.setup_s, "s"));
        }
        if !self.untraced.op_ms.is_empty() {
            out.push(time_metric("op_p50_ms", &self.untraced.op_ms, "ms"));
            // Every attempted op cost the server CPU, failed ones included.
            let ops = self.timed_ops as f64;
            out.push(
                self.server_cpu_ms
                    .scaled(1.0 / ops)
                    .metric("server_cpu_ms_per_op", "ms"),
            );
        }
        out.push(Metric::new("peak_rss_mb", self.peak_rss_mb, "MB"));
        if let Some(footprint) = self.footprint {
            out.push(
                Metric::new(
                    "disk_bytes_per_quad",
                    footprint.disk_bytes as f64 / footprint.quads as f64,
                    "bytes/quad",
                )
                .note(format!(
                    "{} bytes, {} quads",
                    footprint.disk_bytes, footprint.quads
                )),
            );
        }
        out
    }

    pub fn layer_metrics(&self, fixture: &Fixture, sampler: &Sampler) -> Vec<Metric> {
        let mut out = Vec::new();
        let pass = &self.untraced;
        let ops = pass.op_ms.len().max(1) as f64;
        if !pass.op_ms.is_empty() {
            let raw: Vec<f64> = pass.op_ms.iter().map(|r| r.raw).collect();
            let at_reference: Vec<f64> = pass.op_ms.iter().map(|r| r.calibrated).collect();
            let n = format!("n={}", raw.len());
            out.push(Metric::new("client.op_raw_p50_ms", median(&raw), "ms").note(&n));
            out.push(
                Metric::new("client.op_p95_ms", quantile(&at_reference, 0.95), "ms")
                    .note(format!("raw {:.4} ms, {n}", quantile(&raw, 0.95))),
            );
            out.push(
                Metric::new(
                    "client.ops_per_s",
                    1e3 * ops / at_reference.iter().sum::<f64>(),
                    "1/s",
                )
                .note(format!(
                    "raw {:.4} 1/s",
                    1e3 * ops / raw.iter().sum::<f64>()
                )),
            );
        }
        out.push(
            pass.wait_ms
                .scaled(1.0 / ops)
                .metric("client.server_wait_ms_per_op", "ms"),
        );
        out.push(
            pass.decode_ms
                .scaled(1.0 / ops)
                .metric("client.decode_ms_per_op", "ms"),
        );
        out.push(Metric::new(
            "client.requests_per_op",
            pass.probe.requests as f64 / ops,
            "count",
        ));
        out.push(Metric::new(
            "client.response_bytes_per_op",
            pass.probe.response_bytes as f64 / ops,
            "bytes",
        ));

        if let Some(span) = pass.span {
            let (p50, iqr, n) = sampler.summary(span);
            out.push(Metric::new("bench.calib_slice_p50_us", p50, "us").note(format!("n={n}")));
            out.push(Metric::new("bench.calib_slice_iqr_share", iqr, "share"));
        }
        out.push(Metric::new("bench.fixture_gen_s", fixture.gen_s, "s"));

        if let Some(traced) = &self.traced {
            if !traced.op_ms.is_empty() && !pass.op_ms.is_empty() {
                out.push(Metric::new(
                    "bench.trace_overhead_share",
                    Reading::median_of(&traced.op_ms).calibrated
                        / Reading::median_of(&pass.op_ms).calibrated,
                    "share",
                ));
            }
            let traced_ops = traced.op_ms.len().max(1) as f64;
            let phases = traced
                .probe
                .tracer
                .as_ref()
                .map(|t| t.server)
                .unwrap_or_default();
            // The server reports the phases as sums, so they share the
            // factor of the whole traced pass.
            if let Some(span) = traced.span {
                for (name, ns) in [
                    ("server.trace.parse_ms_per_op", phases.parse_ns),
                    ("server.trace.plan_ms_per_op", phases.plan_ns),
                    ("server.trace.execute_ms_per_op", phases.execute_ns),
                ] {
                    let raw = ns as f64 / 1e6 / traced_ops;
                    out.push(sampler.reading(raw, span).metric(name, "ms"));
                }
            }
            let engine_ns = phases.parse_ns + phases.plan_ns + phases.execute_ns;
            if traced.probe.wait_ns > 0 {
                out.push(Metric::new(
                    "server.outside_engine_share",
                    1.0 - engine_ns as f64 / traced.probe.wait_ns as f64,
                    "share",
                ));
            }
        }
        for (name, reading) in [
            ("server.health_roundtrip_us", self.health_us),
            ("server.ask_roundtrip_us", self.ask_us),
        ] {
            if let Some(reading) = reading {
                out.push(reading.metric(name, "us"));
            }
        }
        let lookups = self.counters.plan_hits + self.counters.plan_misses;
        out.push(Metric::new(
            "server.metrics.plan_cache_hit_share",
            if lookups > 0.0 {
                self.counters.plan_hits / lookups
            } else {
                0.0
            },
            "share",
        ));
        out.push(Metric::new(
            "server.metrics.wal_appends_per_op",
            self.counters.wal_appends / ops,
            "count",
        ));
        out.push(Metric::new(
            "server.metrics.wal_fsyncs_per_op",
            self.counters.wal_fsyncs / ops,
            "count",
        ));
        out.push(Metric::new(
            "server.metrics.checkpoints",
            self.counters.checkpoints,
            "count",
        ));
        let boots: Vec<Reading> = self
            .workload
            .boots()
            .iter()
            .map(|boot| sampler.reading(boot.ms(), *boot))
            .collect();
        if !boots.is_empty() {
            out.push(time_metric("server.boot_to_listen_ms", &boots, "ms"));
        }
        out
    }
}
