//! `insitu-trial`: the paper's headline operation — an in-situ update
//! (t_C + t_L), a live trial, and a failback. One sample is one cycle over
//! C1-ECMP, C2-SRv6 and C3-FlowProbe on an `Rp4Flow<IpbmSwitch>`; for each
//! use case: checkpoint, `run_script` the load script (plus the ECMP
//! members for C1), one burst, `rollback`, one burst. rp4c compile,
//! structural apply and a full fast-path recompile dominate; per-packet
//! work is small.
//!
//! Checks: the trial burst forwards every packet (C1: IPv4 over the four
//! ECMP members on ports 2–5, IPv6 on port 3; C2 and C3 as routed), and the
//! burst after failback is byte-identical to the same burst before the
//! trial. A C1 failback recreates the `nexthop` table empty, so that burst
//! loses every packet: each lost packet counts as a failure of the known
//! defect `c1_failback_nexthop_empty`, and the lost entries are re-added
//! through the public write path, untimed, so later cycles do the same
//! work.

use std::time::Instant;

use rp4::controller::{programs, Rp4Flow};
use rp4::core::control::{ControlMsg, Device};
use rp4::ipbm::IpbmSwitch;
use rp4::netpkt::Packet;

use crate::dev::{self, Counters};
use crate::net::{self, Dst, Fib, Sizes, Traffic};
use crate::run::{Cx, Rec, Workload};
use crate::trace::BENCH;
use crate::workloads::l3::populated_switch;

/// Name of the known C1 failback defect in the run record.
pub const C1_FAILBACK_LOSS: &str = "c1_failback_nexthop_empty";

/// Per-use-case rp4c compile metric names.
const COMPILE_KEYS: [&str; 3] = [
    "rp4c.compile_us.c1",
    "rp4c.compile_us.c2",
    "rp4c.compile_us.c3",
];

/// Decomposed update/failback repetitions per use case in a traced run.
const PROBE_REPS: usize = 5;

/// The workload's state.
pub struct InsituTrial {
    flow: Rp4Flow<IpbmSwitch>,
    fib: Fib,
    /// The burst every trial replays.
    pkts: Vec<Packet>,
    /// Its output before any trial.
    before: Vec<Packet>,
    /// The population's `nexthop` entries (what a C1 failback loses).
    nexthops: Vec<ControlMsg>,
    out: Vec<Packet>,
    base: Counters,
}

/// Packets of `a` equal to `b`'s at the same position: same bytes, same
/// egress port.
pub fn matching(a: &[Packet], b: &[Packet]) -> usize {
    a.iter()
        .zip(b)
        .filter(|(x, y)| x.data == y.data && x.meta.egress_port == y.meta.egress_port)
        .count()
}

/// Byte-identical output.
pub fn same_output(a: &[Packet], b: &[Packet]) -> bool {
    a.len() == b.len() && matching(a, b) == a.len()
}

/// Packets of a C1 trial burst that did not leave on an ECMP member port
/// (IPv4: ports 2–5; IPv6: its single member on port 3).
pub fn ecmp_misses(sent: usize, out: &[Packet]) -> usize {
    let good = out
        .iter()
        .filter(|p| match (net::dst_of(p), p.meta.egress_port) {
            (Some(Dst::V4(_)), Some(port)) => (2..=5).contains(&port),
            (Some(Dst::V6), Some(port)) => port == 3,
            _ => false,
        })
        .count();
    sent.saturating_sub(good)
}

impl InsituTrial {
    /// One burst of the trial packets. Every trial burst follows a
    /// structural change, so each one includes the epoch's recompile.
    fn burst(&mut self, cx: &mut Cx) -> f64 {
        self.out.clear();
        let g = cx.tr.enter(BENCH, "copy_input");
        let pkts = self.pkts.clone();
        cx.tr.exit(g);
        let secs = dev::ipbm_burst(&mut self.flow.device, pkts, &mut self.out, cx.tr, cx.rec);
        dev::record_burst(cx.rec, self.pkts.len(), secs);
        secs
    }

    /// `ensure_compiled` on the dirty epoch a structural change left.
    fn compile(&mut self, cx: &mut Cx) {
        let sw = &mut self.flow.device;
        let t = Instant::now();
        let g = cx.tr.enter("fast", "ensure_compiled");
        sw.pm.ensure_compiled(&sw.linkage, &sw.sm);
        cx.tr.exit(g);
        cx.rec
            .push("fast.compile_us", t.elapsed().as_secs_f64() * 1e6);
    }

    /// Re-adds the `nexthop` entries a C1 failback lost, when it lost them.
    /// Returns whether it had to.
    fn repair_nexthops(&mut self) -> Result<bool, String> {
        let lost = self
            .flow
            .device
            .sm
            .table("nexthop")
            .is_some_and(|t| t.table.is_empty());
        if lost {
            self.flow
                .device
                .apply(&self.nexthops)
                .map_err(|e| format!("re-adding nexthop entries: {e}"))?;
        }
        Ok(lost)
    }
}

impl Workload for InsituTrial {
    const ONE_THREAD: bool = true;

    fn setup(sizes: Sizes, seed: u64) -> Result<Self, String> {
        let mut flow = populated_switch(sizes)?;
        let nexthops: Vec<ControlMsg> = net::population_msgs(&flow.apis, 0)?
            .into_iter()
            .filter(|m| matches!(m, ControlMsg::AddEntry { table, .. } if table == "nexthop"))
            .collect();
        let pkts = Traffic::min_size(seed, sizes.flows).burst(sizes.burst);
        for p in pkts.iter().cloned() {
            flow.device.inject(p);
        }
        let mut before = Vec::new();
        flow.device.run_batch_into(&mut before);
        let fib = Fib::standard(sizes.routes);
        if net::check_ports(&fib, sizes.burst, &before) != 0 {
            return Err("the pre-trial burst does not forward as routed".into());
        }
        Ok(InsituTrial {
            base: Counters::of(&flow.device.report()),
            flow,
            fib,
            pkts,
            before,
            nexthops,
            out: Vec::new(),
        })
    }

    fn step(&mut self, cx: &mut Cx) -> Result<(), String> {
        let n = self.pkts.len();
        let mut cycle_s = 0.0;
        let op = cx.tr.begin_op("trial");
        for (case, (name, _, script, _)) in programs::use_cases().into_iter().enumerate() {
            let t = Instant::now();
            let g = cx.tr.enter("ctl", "checkpoint");
            let cp = self.flow.checkpoint();
            cx.tr.exit(g);
            let g = cx.tr.enter("ctl", "run_script");
            let mut loaded = self.flow.run_script(script, &programs::bundled_sources);
            if case == 0 {
                loaded = loaded.and_then(|mut o| {
                    let m = self.flow.run_script(
                        &rp4::demo::ecmp_population_script(),
                        &programs::bundled_sources,
                    )?;
                    o.report.merge(&m.report);
                    Ok(o)
                });
            }
            cx.tr.exit(g);
            let update_s = t.elapsed().as_secs_f64();
            let outcome = loaded.map_err(|e| format!("{name}: load script failed: {e}"))?;
            cx.tally.ops(1);
            cycle_s += update_s;
            cx.rec.push("model.load_us", outcome.report.load_us);
            cx.rec.push("model.stall_us", outcome.report.stall_us);

            cycle_s += self.burst(cx);
            cx.tally.ops(n);
            let g = cx.tr.enter(BENCH, "routes");
            let miss = if case == 0 {
                ecmp_misses(n, &self.out)
            } else {
                net::check_ports(&self.fib, n, &self.out)
            };
            cx.tr.exit(g);
            if miss > 0 {
                cx.tally.unexpected(
                    miss,
                    format!("{name}: trial burst lost or misrouted {miss} of {n}"),
                );
            }

            let t = Instant::now();
            let g = cx.tr.enter("ctl", "rollback");
            let back = self.flow.rollback(&cp);
            cx.tr.exit(g);
            cycle_s += t.elapsed().as_secs_f64();
            back.map_err(|e| format!("{name}: rollback failed: {e}"))?;
            cx.tally.ops(1);

            cycle_s += self.burst(cx);
            cx.tally.ops(n);
            let g = cx.tr.enter(BENCH, "failback_output");
            let lost = n - matching(&self.out, &self.before).min(n);
            let repaired = if lost > 0 {
                self.repair_nexthops()
            } else {
                Ok(false)
            };
            cx.tr.exit(g);
            if lost > 0 {
                if repaired? {
                    cx.tally.known_failure(C1_FAILBACK_LOSS, lost);
                } else {
                    cx.tally.unexpected(
                        lost,
                        format!("{name}: output after failback differs from before the trial"),
                    );
                }
            }
        }
        cx.tr.exit(op);
        cx.rec.push("op_us", cycle_s * 1e6);
        Ok(())
    }

    fn probes(&mut self, cx: &mut Cx) -> Result<(), String> {
        // The update and failback split into their layers' public calls:
        // rp4c plans, the device applies, rp4-dfa derives facts. This is
        // what `run_script` and `rollback` do in one call each.
        for _ in 0..PROBE_REPS {
            for (case, (name, _, script, _)) in programs::use_cases().into_iter().enumerate() {
                let (design, program, apis) = (
                    self.flow.design.clone(),
                    self.flow.program.clone(),
                    self.flow.apis.clone(),
                );
                let t = Instant::now();
                let plan = cx
                    .tr
                    .span("rp4c", "plan_script", || {
                        self.flow.plan_script(script, &programs::bundled_sources)
                    })
                    .map_err(|e| format!("{name}: planning failed: {e}"))?;
                cx.rec
                    .push(COMPILE_KEYS[case], t.elapsed().as_secs_f64() * 1e6);

                let t = Instant::now();
                let g = cx.tr.enter("ccm", "apply");
                let r = self.flow.device.apply(&plan.msgs);
                cx.tr.exit(g);
                cx.rec.push("ccm.apply_us", t.elapsed().as_secs_f64() * 1e6);
                r.map_err(|e| format!("{name}: structural apply failed: {e}"))?;

                let t = Instant::now();
                let facts = cx.tr.span("dfa", "design_facts", || {
                    rp4::rp4_dfa::design_facts(&plan.design)
                });
                cx.rec.push("dfa.facts_us", t.elapsed().as_secs_f64() * 1e6);
                self.flow
                    .device
                    .install_facts((!facts.is_empty()).then_some(facts));
                self.compile(cx);

                let msgs = rp4::rp4c::design_diff(&plan.design, &design);
                let t = Instant::now();
                let g = cx.tr.enter("ccm", "apply");
                let r = self.flow.device.apply(&msgs);
                cx.tr.exit(g);
                cx.rec
                    .push("ccm.rollback_us", t.elapsed().as_secs_f64() * 1e6);
                r.map_err(|e| format!("{name}: failback apply failed: {e}"))?;
                let facts = rp4::rp4_dfa::design_facts(&design);
                self.flow
                    .device
                    .install_facts((!facts.is_empty()).then_some(facts));
                (self.flow.design, self.flow.program, self.flow.apis) = (design, program, apis);
                self.repair_nexthops()?;
                self.compile(cx);
                self.out.clear();
                for p in self.pkts.iter().cloned() {
                    self.flow.device.inject(p);
                }
                self.flow.device.run_batch_into(&mut self.out);
                if !same_output(&self.out, &self.before) {
                    cx.tally.unexpected(
                        self.pkts.len(),
                        format!("{name}: decomposed failback changed the output"),
                    );
                }
            }
        }
        Ok(())
    }

    fn finish(&mut self, rec: &mut Rec) -> Result<(), String> {
        let now = Counters::of(&self.flow.device.report());
        now.fold_delta(&self.base, rec);
        self.base = now;
        Ok(())
    }
}
