//! Turns a run's samples into the metrics `BENCHMARK.json` names, the
//! result line, and the run record.
//!
//! Every end-to-end metric is host wall-clock time, a rate derived from
//! it, or a size. Figures from the cost models (`ApplyReport.load_us`,
//! `stall_us`) appear only as per-layer `model.*` metrics, with the unit
//! `model_us`.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::host;
use crate::run::{self, Outcome, Rec, OP_WINDOWS, QUIET_BURSTS, QUIET_OPS};
use crate::stats::{self, percentile, Pct};
use crate::trace;

/// End-to-end metrics (untraced runs), with units. The whole-run
/// percentiles are in the run record, with their sample counts.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("fwd_pps", "1/s"),
    ("burst_p50_us", "us"),
    ("op_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Layers whose self time per operation the traced run reports.
pub const LAYERS: &[&str] = &[
    "cm", "pm", "fast", "sharded", "ccm", "ctl", "rp4c", "dfa", "fleet",
];

/// Per-layer metrics (traced runs), with units. Workloads that never call
/// into a layer report 0 for its metrics; the run record lists them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cm.inject_ns_per_pkt", "ns"),
    ("pm.burst_ns_per_pkt", "ns"),
    ("pm.parse_drops", "count"),
    ("pm.action_drops", "count"),
    ("pm.held_during_drain", "count"),
    ("tm.no_route_drops", "count"),
    ("tm.tail_drops", "count"),
    ("fast.compile_us", "us"),
    ("fast.compiled_share", "ratio"),
    ("sm.mem_accesses_per_pkt", "count"),
    ("sm.entry_write_us", "us"),
    ("ccm.apply_us", "us"),
    ("ccm.rollback_us", "us"),
    ("sharded.busy_ns_per_pkt", "ns"),
    ("sharded.overhead_ns_per_pkt", "ns"),
    ("sharded.publish_us", "us"),
    ("sharded.barriers_per_op", "count"),
    ("sharded.imbalance", "ratio"),
    ("rp4c.compile_us.c1", "us"),
    ("rp4c.compile_us.c2", "us"),
    ("rp4c.compile_us.c3", "us"),
    ("dfa.facts_us", "us"),
    ("cover.enumerate_ms", "ms"),
    ("cover.replay_ms", "ms"),
    ("cover.witnesses", "count"),
    ("fleet.rpc_rtt_us", "us"),
    ("fleet.rollout_ms", "ms"),
    ("fleet.failback_ms", "ms"),
    ("fleet.retries", "count"),
    ("model.load_us", "model_us"),
    ("model.stall_us", "model_us"),
    ("host.steal_pct", "%"),
    ("host.cpu_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("trace.spans", "count"),
    ("self_us_per_op.cm", "us"),
    ("self_us_per_op.pm", "us"),
    ("self_us_per_op.fast", "us"),
    ("self_us_per_op.sharded", "us"),
    ("self_us_per_op.ccm", "us"),
    ("self_us_per_op.ctl", "us"),
    ("self_us_per_op.rp4c", "us"),
    ("self_us_per_op.dfa", "us"),
    ("self_us_per_op.fleet", "us"),
    ("self_us_per_op.unattributed", "us"),
];

/// Spans written per traced run at most.
const SPAN_FILE_LIMIT: usize = 20_000;

/// Latency samples per metric written per run at most.
const SAMPLE_FILE_LIMIT: usize = 100_000;

/// Metrics and record of one run.
pub struct Report {
    workload: String,
    seed: u64,
    trace: bool,
    metrics: Vec<(&'static str, &'static str, f64)>,
    correct: bool,
    attempted: u64,
    failed: u64,
    record: String,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn pct_json(p: Option<Pct>) -> String {
    match p {
        Some(p) => format!(
            "{{\"value\":{},\"n\":{},\"beyond\":{}}}",
            finite(p.value),
            p.n,
            p.beyond
        ),
        None => "null".into(),
    }
}

/// JSON has no NaN or infinity; a metric that cannot be formed reads 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// End-to-end metrics, in [`END_TO_END`] order. The timings are medians,
/// of the quietest short window where the device runs on one thread (see
/// [`run::quiet_p50`]); `fwd_pps` is the packet rate at that burst time.
/// The whole-run percentiles and the mean rate (all packets over all
/// burst time) are in the run record.
fn end_to_end(o: &Outcome, r: &Rec) -> Vec<f64> {
    let burst_us = run::quiet_p50(r, "burst_us", QUIET_BURSTS, o.one_thread);
    let pkts_per_burst = ratio(r.sum("burst_pkts"), r.samples("burst_us").len() as f64);
    vec![
        o.setup_s(),
        ratio(pkts_per_burst, burst_us / 1e6),
        burst_us,
        run::quiet_p50(r, "op_us", QUIET_OPS, o.one_thread),
        o.peak_rss_mb,
    ]
}

fn per_layer(o: &Outcome, t: &Rec) -> Vec<f64> {
    let spans = o.tracer.spans();
    let by_layer = trace::layer_self_ns(spans);
    let self_ns = |l: &str| by_layer.get(l).map_or(0.0, |x| x.0 as f64);
    let ops = o.traced_ops.max(1) as f64;
    let med = |k: &str| stats::median(t.samples(k));
    let plain_op = stats::median(o.plain.samples("op_us"));
    let traced_op = stats::median(t.samples("op_us"));
    let busy = t.sum("sharded.busy_ns");
    let mut v = vec![
        ratio(self_ns("cm"), t.sum("cm.pkts")),
        ratio(self_ns("pm"), t.sum("pm.pkts")),
        t.sum("pm.parse_drops"),
        t.sum("pm.action_drops"),
        t.sum("pm.held_during_drain"),
        t.sum("tm.no_route_drops"),
        t.sum("tm.tail_drops"),
        med("fast.compile_us"),
        ratio(t.sum("fast.compiled_bursts"), t.sum("fast.bursts")),
        ratio(t.sum("sm.mem_accesses"), t.sum("sm.pkts")),
        med("sm.entry_write_us"),
        med("ccm.apply_us"),
        med("ccm.rollback_us"),
        ratio(busy, t.sum("sharded.pkts")),
        ratio(t.sum("sharded.wall_ns") - busy, t.sum("sharded.pkts")),
        if t.samples("sharded.first_burst_us").is_empty() {
            0.0
        } else {
            med("sharded.first_burst_us") - med("burst_us")
        },
        ratio(t.sum("sharded.barriers"), t.sum("sharded.ops")),
        ratio(busy, t.sum("sharded.mean_busy_ns")),
        med("rp4c.compile_us.c1"),
        med("rp4c.compile_us.c2"),
        med("rp4c.compile_us.c3"),
        med("dfa.facts_us"),
        med("cover.enumerate_ms"),
        med("cover.replay_ms"),
        med("cover.witnesses"),
        med("fleet.rpc_rtt_us"),
        med("fleet.rollout_ms"),
        med("fleet.failback_ms"),
        t.sum("fleet.retries"),
        stats::mean(t.samples("model.load_us")),
        stats::mean(t.samples("model.stall_us")),
        o.steal_pct,
        o.cpu_s,
        100.0 * ratio(traced_op - plain_op, plain_op),
        100.0 * trace::unattributed_share(spans),
        spans.len() as f64,
    ];
    for l in LAYERS {
        v.push(self_ns(l) / 1e3 / ops);
    }
    v.push(self_ns(trace::OP) / 1e3 / ops);
    v
}

impl Report {
    /// Computes the metrics and record of `o`.
    pub fn new(workload: &str, seed: u64, trace: bool, o: &Outcome) -> Self {
        let metrics: Vec<_> = match (&o.traced, trace) {
            (Some(t), true) => PER_LAYER
                .iter()
                .zip(per_layer(o, t))
                .map(|(&(n, u), v)| (n, u, finite(v)))
                .collect(),
            _ => END_TO_END
                .iter()
                .zip(end_to_end(o, &o.plain))
                .map(|(&(n, u), v)| (n, u, finite(v)))
                .collect(),
        };
        let window = o.traced.as_ref().unwrap_or(&o.plain);
        let mut rec = String::new();
        let _ = write!(
            rec,
            "{{\"workload\":{},\"seed\":{seed},\"trace\":{trace},\"nproc\":{},\"setup_s\":{:?}",
            json_str(workload),
            host::nproc(),
            o.setups
        );
        for (name, key, q) in [
            ("burst_p50_us", "burst_us", 50.0),
            ("burst_p90_us", "burst_us", 90.0),
            ("burst_p99_us", "burst_us", 99.0),
            ("op_p50_us", "op_us", 50.0),
            ("op_p90_us", "op_us", 90.0),
            ("op_p99_us", "op_us", 99.0),
        ] {
            let _ = write!(
                rec,
                ",{}:{}",
                json_str(name),
                pct_json(percentile(o.plain.samples(key), q))
            );
        }
        let timeline: Vec<String> = o
            .plain
            .samples(OP_WINDOWS)
            .iter()
            .map(|v| format!("{v:.1}"))
            .collect();
        let _ = write!(rec, ",\"op_p50_us_by_window\":[{}]", timeline.join(","));
        rec.push_str(",\"samples\":{");
        for (i, (k, n)) in window.counts().enumerate() {
            let _ = write!(rec, "{}{}:{n}", if i > 0 { "," } else { "" }, json_str(k));
        }
        let t = &o.tally;
        let _ = write!(
            rec,
            "}},\"fwd_pps_mean\":{},\"steal_pct\":{},\"cpu_s\":{},\"attempted\":{},\"failed\":{},\"error_rate\":{}",
            finite(ratio(o.plain.sum("burst_pkts"), o.plain.sum("burst_s"))),
            finite(o.steal_pct),
            finite(o.cpu_s),
            t.attempted,
            t.failed,
            ratio(t.failed as f64, t.attempted as f64)
        );
        rec.push_str(",\"known_defects\":{");
        for (i, (k, n)) in t.known.iter().enumerate() {
            let _ = write!(rec, "{}{}:{n}", if i > 0 { "," } else { "" }, json_str(k));
        }
        rec.push_str("},\"unexpected\":[");
        for (i, u) in t.unexpected.iter().enumerate() {
            let _ = write!(rec, "{}{}", if i > 0 { "," } else { "" }, json_str(u));
        }
        rec.push(']');
        if let Some(tr) = &o.traced {
            let plain_op = stats::median(o.plain.samples("op_us"));
            let traced_op = stats::median(tr.samples("op_us"));
            let _ = write!(
                rec,
                ",\"untraced_op_p50_us\":{},\"traced_op_p50_us\":{},\"trace_overhead_us\":{}",
                finite(plain_op),
                finite(traced_op),
                finite(traced_op - plain_op)
            );
        }
        rec.push('}');
        Report {
            workload: workload.to_string(),
            seed,
            trace,
            metrics,
            correct: t.correct(),
            attempted: t.attempted.max(1),
            failed: t.failed,
            record: rec,
        }
    }

    /// The run record as one JSON object.
    pub fn record_json(&self) -> &str {
        &self.record
    }

    /// The result line: correctness, operation counts and metrics.
    pub fn result_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, (n, u, v)) in self.metrics.iter().enumerate() {
            let _ = write!(
                s,
                "{}{}:{{\"value\":{v},\"unit\":{}}}",
                if i > 0 { "," } else { "" },
                json_str(n),
                json_str(u)
            );
        }
        s.push_str("}}");
        s
    }

    /// Writes the record (and a traced run's spans and per-layer metrics)
    /// under `devbench/out/`.
    pub fn write_files(&self, o: &Outcome) -> std::io::Result<()> {
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
        std::fs::create_dir_all(&dir)?;
        let stem = format!(
            "{}-seed{}-trace{}",
            self.workload,
            self.seed,
            u8::from(self.trace)
        );
        let mut body = self.record.clone();
        body.push('\n');
        body.push_str(&self.result_json());
        body.push('\n');
        std::fs::write(dir.join(format!("{stem}.json")), body)?;
        // Raw latency samples of the untraced window, in issue order.
        let mut raw = String::new();
        for key in ["burst_us", "op_us"] {
            let v: Vec<String> = o
                .plain
                .samples(key)
                .iter()
                .take(SAMPLE_FILE_LIMIT)
                .map(|x| format!("{x:.1}"))
                .collect();
            let _ = writeln!(raw, "{{\"{key}\":[{}]}}", v.join(","));
        }
        std::fs::write(dir.join(format!("{stem}-samples.jsonl")), raw)?;
        if self.trace {
            std::fs::write(
                dir.join(format!("{stem}-spans.jsonl")),
                o.tracer.to_jsonl(SPAN_FILE_LIMIT),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly these metrics,
    /// in this order, with these units.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside devbench/");
        let listed: Vec<(String, String)> = json
            .lines()
            .filter_map(|l| {
                let name = l.split("\"name\": \"").nth(1)?.split('"').next()?;
                let unit = l.split("\"unit\": \"").nth(1)?.split('"').next()?;
                Some((name.to_string(), unit.to_string()))
            })
            .collect();
        let ours: Vec<(String, String)> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, ours);
    }
}
