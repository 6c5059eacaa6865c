//! Device-side helpers shared by the workloads: one traced burst through
//! an `IpbmSwitch`, and the device counters a window folds into its record.

use std::time::Instant;

use rp4::ipbm::{IpbmSwitch, SwitchReport};
use rp4::netpkt::Packet;

use crate::run::Rec;
use crate::trace::Tracer;

/// One burst through a single-core switch: inject, an explicit
/// `ensure_compiled` (the same call `run_batch_into` makes first, split out
/// so compilation shows as its own span), then the batched run-to-
/// completion drain, which hands the transmitted packets back in `out`.
/// Returns the burst's wall-clock time in seconds.
pub fn ipbm_burst(
    sw: &mut IpbmSwitch,
    pkts: Vec<Packet>,
    out: &mut Vec<Packet>,
    tr: &mut Tracer,
    rec: &mut Rec,
) -> f64 {
    let n = pkts.len() as f64;
    let dirty = !sw.pm.has_compiled();
    let t = Instant::now();
    let g = tr.enter("cm", "inject");
    for p in pkts {
        sw.cm.inject(p);
    }
    tr.exit(g);
    let tc = Instant::now();
    let g = tr.enter("fast", "ensure_compiled");
    sw.pm.ensure_compiled(&sw.linkage, &sw.sm);
    tr.exit(g);
    let compile = tc.elapsed().as_secs_f64();
    let g = tr.enter("pm", "run_batch_into");
    sw.run_batch_into(out);
    tr.exit(g);
    let secs = t.elapsed().as_secs_f64();
    rec.add("cm.pkts", n);
    rec.add("pm.pkts", n);
    rec.add("fast.bursts", 1.0);
    if sw.pm.has_compiled() {
        rec.add("fast.compiled_bursts", 1.0);
    }
    if dirty {
        rec.push("fast.compile_us", compile * 1e6);
    }
    secs
}

/// Device counters folded into a window's record as deltas.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    parse_drops: u64,
    action_drops: u64,
    held_during_drain: u64,
    no_route_drops: u64,
    tail_drops: u64,
    mem_accesses: u64,
    received: u64,
}

impl Counters {
    /// Reads the counters of a switch report.
    pub fn of(r: &SwitchReport) -> Self {
        Counters {
            parse_drops: r.pipeline.parse_drops,
            action_drops: r.pipeline.action_drops,
            held_during_drain: r.pipeline.held_during_drain,
            no_route_drops: r.tm.no_route_drops,
            tail_drops: r.tm.tail_drops,
            mem_accesses: r.mem_accesses,
            received: r.pipeline.received,
        }
    }

    /// Adds the growth since `earlier` to `rec`.
    pub fn fold_delta(&self, earlier: &Counters, rec: &mut Rec) {
        let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
        rec.add("pm.parse_drops", d(self.parse_drops, earlier.parse_drops));
        rec.add(
            "pm.action_drops",
            d(self.action_drops, earlier.action_drops),
        );
        rec.add(
            "pm.held_during_drain",
            d(self.held_during_drain, earlier.held_during_drain),
        );
        rec.add(
            "tm.no_route_drops",
            d(self.no_route_drops, earlier.no_route_drops),
        );
        rec.add("tm.tail_drops", d(self.tail_drops, earlier.tail_drops));
        rec.add(
            "sm.mem_accesses",
            d(self.mem_accesses, earlier.mem_accesses),
        );
        rec.add("sm.pkts", d(self.received, earlier.received));
    }
}

/// Records one burst for the end-to-end forwarding metrics.
pub fn record_burst(rec: &mut Rec, pkts: usize, secs: f64) {
    rec.push("burst_us", secs * 1e6);
    rec.add("burst_pkts", pkts as f64);
    rec.add("burst_s", secs);
}
