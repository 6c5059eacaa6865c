//! `fleet-rollout`: the whole rollout path — rp4-cover corpus enumeration
//! and replay, wire RPCs, and staged applies to devices. A
//! `FleetController` drives two devices, each a `ShardedSwitch` with one
//! shard, holding the standard population. One sample is one cycle: plan
//! C1 with `plan_script` on a controller-side `Rp4Flow`, `rolling_update`,
//! populate the ECMP members with `apply_all`, one `traffic` burst per
//! device, a failback `rolling_update` of `design_diff(new, old)`, and one
//! burst per device.
//!
//! A rollout onto devices that hold the standard population fails today
//! with `CanaryDiverged` (the witness corpus expects a `port_map` miss
//! where the device hits). Each `rolling_update` is tried directly; a
//! divergence counts as one failed operation of the known defect
//! `canary_diverged_on_populated_fleet`, and the cycle then follows the
//! fleet tests' procedure, still timed: tear down the entries, retry, and
//! repopulate the entries valid under the new design.
//!
//! Checks: every device's output equals the controller-side reference
//! switch's for the same burst, the output matches the routes (C1: the
//! ECMP member ports), and `FleetController::fingerprint` is equal across
//! devices after every rollout.
//!
//! The process runs on one CPU. A cycle is a chain of thousands of
//! blocking handoffs between the controller, the agents and the shard
//! workers, which use about one CPU between them; on a small virtual
//! machine each handoff to an idle vCPU waits for the hypervisor to run
//! it, and that wait, not the rollout path, then sets the cycle time.

use std::time::Instant;

use ipsa_fleet::{FleetConfig, FleetController, FleetError, FleetUpdate, RolloutReport};
use rp4::controller::{programs, Rp4Flow};
use rp4::core::control::{ControlMsg, Device};
use rp4::core::facts::ProgramFacts;
use rp4::core::template::CompiledDesign;
use rp4::ipbm::{IpbmConfig, IpbmSwitch, ShardedSwitch};
use rp4::netpkt::Packet;
use rp4::rp4_cover::replay::{replay_corpus, teardown_of, ReplayMode};
use rp4::rp4_cover::{cover_design, CoverOptions};

use crate::dev::{self, Counters};
use crate::host;
use crate::net::{self, Fib, Sizes, Traffic};
use crate::run::{Cx, Rec, Scratch, Workload};
use crate::trace::BENCH;
use crate::workloads::trial::{ecmp_misses, matching, C1_FAILBACK_LOSS};

/// Devices in the fleet.
const DEVICES: usize = 2;

/// Name of the known canary defect in the run record.
const CANARY_DIVERGED: &str = "canary_diverged_on_populated_fleet";

/// Probe repetitions in a traced run.
const PROBE_REPS: usize = 3;

/// The workload's state.
pub struct FleetRollout {
    fc: FleetController,
    names: Vec<String>,
    /// Controller-side flow: plans updates and, applying every change the
    /// devices take, serves as the reference switch.
    mirror: Rp4Flow<IpbmSwitch>,
    base_facts: Option<ProgramFacts>,
    /// The standard population.
    population: Vec<ControlMsg>,
    /// Entries the devices hold now.
    on_device: Vec<ControlMsg>,
    fib: Fib,
    pkts: Vec<Packet>,
    /// The last C1 design (cover probes).
    c1: Option<(CompiledDesign, Option<ProgramFacts>)>,
    /// Device counters at the start of the window, per device.
    base: Vec<Counters>,
}

fn facts_of(design: &CompiledDesign) -> Option<ProgramFacts> {
    let f = rp4::rp4_dfa::design_facts(design);
    (!f.is_empty()).then_some(f)
}

fn table_of(m: &ControlMsg) -> Option<&str> {
    match m {
        ControlMsg::AddEntry { table, .. } | ControlMsg::DelEntry { table, .. } => Some(table),
        _ => None,
    }
}

fn same_entry(a: &ControlMsg, b: &ControlMsg) -> bool {
    match (a, b) {
        (
            ControlMsg::AddEntry {
                table: ta,
                entry: ea,
            },
            ControlMsg::AddEntry {
                table: tb,
                entry: eb,
            },
        ) => ta == tb && ea.key == eb.key,
        _ => false,
    }
}

impl FleetRollout {
    /// Send attempts over every link so far.
    fn attempts(&self) -> u64 {
        self.names
            .iter()
            .filter_map(|d| self.fc.link_stats(d))
            .map(|s| s.attempts)
            .sum()
    }

    /// Retries of a call that issues `rpcs` RPCs: attempts beyond them.
    /// Only calls with a known RPC count are accounted (a rollout's count
    /// depends on the witness corpus).
    fn count_retries(&self, rec: &mut Rec, before: u64, rpcs: usize) {
        let extra = self.attempts().saturating_sub(before + rpcs as u64);
        rec.add("fleet.retries", extra as f64);
    }

    /// Applies an entry batch to every device, then to the reference
    /// switch. Returns the seconds the fleet call took.
    fn apply_all(&mut self, cx: &mut Cx, msgs: &[ControlMsg]) -> Result<f64, String> {
        let sent = self.attempts();
        let t = Instant::now();
        let g = cx.tr.enter("fleet", "apply_all");
        let r = self.fc.apply_all(msgs);
        cx.tr.exit(g);
        let secs = t.elapsed().as_secs_f64();
        r.map_err(|e| format!("apply_all: {e}"))?;
        self.count_retries(cx.rec, sent, DEVICES);
        let g = cx.tr.enter(BENCH, "reference_apply");
        let r = self.mirror.device.apply(msgs);
        cx.tr.exit(g);
        r.map_err(|e| format!("reference switch refused a batch the fleet took: {e}"))?;
        Ok(secs)
    }

    /// One `rolling_update` and the seconds it took.
    fn rolling_update(
        &mut self,
        cx: &mut Cx,
        upd: &FleetUpdate,
    ) -> (Result<RolloutReport, FleetError>, f64) {
        cx.tally.ops(1);
        let t = Instant::now();
        let g = cx.tr.enter("fleet", "rolling_update");
        let r = self.fc.rolling_update(upd);
        cx.tr.exit(g);
        (r, t.elapsed().as_secs_f64())
    }

    /// One rollout: tried directly; on a canary divergence the fleet
    /// tests' procedure (tear down, retry, repopulate the entries valid
    /// under the new design). Returns the seconds spent on the device path.
    fn rollout(&mut self, cx: &mut Cx, upd: &FleetUpdate) -> Result<f64, String> {
        let (first, mut secs) = self.rolling_update(cx, upd);
        let report = match first {
            Ok(r) => {
                self.on_device
                    .retain(|m| table_of(m).is_some_and(|t| upd.design.tables.contains_key(t)));
                self.mirror_structure(cx, upd)?;
                r
            }
            Err(FleetError::CanaryDiverged { .. }) => {
                cx.tally.known_failure(CANARY_DIVERGED, 1);
                let down = teardown_of(&self.on_device);
                secs += self.apply_all(cx, &down)?;
                let (retry, s) = self.rolling_update(cx, upd);
                secs += s;
                let r = retry.map_err(|e| format!("rollout retry on empty tables failed: {e}"))?;
                // The reference takes the structural change before the
                // repopulation, in the devices' order.
                self.mirror_structure(cx, upd)?;
                let valid: Vec<ControlMsg> = self
                    .population
                    .iter()
                    .filter(|m| table_of(m).is_some_and(|t| upd.design.tables.contains_key(t)))
                    .cloned()
                    .collect();
                secs += self.apply_all(cx, &valid)?;
                self.on_device = valid;
                r
            }
            Err(e) => return Err(format!("rollout failed: {e}")),
        };
        self.check_rollout(cx, report.updated.len())?;
        Ok(secs)
    }

    fn mirror_structure(&mut self, cx: &mut Cx, upd: &FleetUpdate) -> Result<(), String> {
        let g = cx.tr.enter(BENCH, "reference_apply");
        let r = self.mirror.device.apply(&upd.msgs);
        self.mirror.device.install_facts(upd.facts.clone());
        cx.tr.exit(g);
        r.map_err(|e| format!("reference switch refused the rollout batch: {e}"))?;
        Ok(())
    }

    /// Post-rollout checks: every device updated, equal fingerprints
    /// fleet-wide.
    fn check_rollout(&mut self, cx: &mut Cx, updated: usize) -> Result<(), String> {
        if updated != DEVICES {
            cx.tally
                .unexpected(1, format!("rollout updated {updated} of {DEVICES} devices"));
        }
        let g = cx.tr.enter(BENCH, "fingerprint");
        let fps: Result<Vec<String>, _> =
            self.names.iter().map(|d| self.fc.fingerprint(d)).collect();
        cx.tr.exit(g);
        let fps = fps.map_err(|e| format!("fingerprint: {e}"))?;
        if fps.iter().any(|f| *f != fps[0]) {
            cx.tally
                .unexpected(1, "device fingerprints differ after a rollout".into());
        }
        Ok(())
    }

    /// Every device's counters, read over the Stats RPC.
    fn counters(&mut self) -> Result<Vec<Counters>, String> {
        let names = self.names.clone();
        names
            .iter()
            .map(|d| {
                self.fc
                    .stats(d)
                    .map(|s| Counters::of(&s.report))
                    .map_err(|e| format!("stats {d}: {e}"))
            })
            .collect()
    }

    /// Records entries the devices now hold (replacing same-key entries).
    fn note_added(&mut self, msgs: &[ControlMsg]) {
        for m in msgs {
            self.on_device.retain(|o| !same_entry(o, m));
            self.on_device.push(m.clone());
        }
    }

    /// One `traffic` burst per device; each output must equal the
    /// reference switch's. `ecmp` selects the C1 port check. Returns the
    /// timed seconds.
    fn traffic(&mut self, cx: &mut Cx, ecmp: bool) -> Result<f64, String> {
        let n = self.pkts.len();
        let g = cx.tr.enter(BENCH, "reference_burst");
        for p in self.pkts.iter().cloned() {
            self.mirror.device.inject(p);
        }
        let mut want = Vec::new();
        self.mirror.device.run_batch_into(&mut want);
        cx.tr.exit(g);
        let nexthops_lost = self.nexthops_lost();
        let mut secs = 0.0;
        for d in self.names.clone() {
            let g = cx.tr.enter(BENCH, "copy_input");
            let pkts = self.pkts.clone();
            cx.tr.exit(g);
            let sent = self.attempts();
            let t = Instant::now();
            let g = cx.tr.enter("fleet", "traffic");
            let out = self.fc.traffic(&d, pkts);
            cx.tr.exit(g);
            let s = t.elapsed().as_secs_f64();
            self.count_retries(cx.rec, sent, 1);
            secs += s;
            let out = out.map_err(|e| format!("traffic on {d}: {e}"))?;
            dev::record_burst(cx.rec, n, s);
            cx.tally.ops(n);
            let miss = if ecmp {
                ecmp_misses(n, &out)
            } else {
                net::check_ports(&self.fib, n, &out)
            };
            let diverged = n - matching(&out, &want).min(n);
            if miss > 0 && nexthops_lost && diverged == 0 {
                cx.tally.known_failure(C1_FAILBACK_LOSS, miss);
            } else if miss > 0 || diverged > 0 {
                cx.tally.unexpected(
                    miss.max(diverged),
                    format!("{d}: {miss} packets off-route, {diverged} differ from the reference"),
                );
            }
        }
        Ok(secs)
    }

    /// True when the reference's `nexthop` table is empty: the signature of
    /// the known C1 failback defect (the devices match the reference).
    fn nexthops_lost(&self) -> bool {
        self.mirror
            .device
            .sm
            .table("nexthop")
            .is_some_and(|t| t.table.is_empty())
    }
}

impl Workload for FleetRollout {
    const ONE_THREAD: bool = false;

    fn setup(sizes: Sizes, seed: u64) -> Result<Self, String> {
        // Before any thread is spawned: they inherit the affinity.
        host::pin_to_first_cpu()?;
        let (c, target) = net::base_compilation()?;
        let population = net::population_msgs(&c.apis, sizes.routes)?;
        let base_facts = facts_of(&c.design);
        let mut fc = FleetController::new(FleetConfig::default());
        let mut names = Vec::new();
        for i in 0..DEVICES {
            let dev =
                ShardedSwitch::try_new(IpbmConfig::default(), 1).map_err(|e| e.to_string())?;
            let name = format!("d{i}");
            fc.add_device(&name, dev);
            names.push(name);
        }
        fc.install(&c.design, base_facts.clone())
            .map_err(|e| format!("fleet install: {e}"))?;
        fc.apply_all(&population)
            .map_err(|e| format!("fleet population: {e}"))?;
        let sw = IpbmSwitch::try_new(IpbmConfig::default()).map_err(|e| e.to_string())?;
        let (mut mirror, _) = Rp4Flow::install(sw, c, target).map_err(|e| e.to_string())?;
        mirror
            .device
            .apply(&population)
            .map_err(|e| e.to_string())?;
        let mut w = FleetRollout {
            fc,
            names,
            mirror,
            base_facts,
            on_device: population.clone(),
            population,
            fib: Fib::standard(sizes.routes),
            pkts: Traffic::min_size(seed, sizes.flows).burst(sizes.burst),
            c1: None,
            base: Vec::new(),
        };
        // Warm: both devices forward as the reference does.
        let mut warm = Scratch::new();
        w.traffic(&mut warm.cx(), false)?;
        if !warm.tally.correct() {
            return Err(format!(
                "warm-up traffic fails: {:?}",
                warm.tally.unexpected
            ));
        }
        w.base = w.counters()?;
        Ok(w)
    }

    fn step(&mut self, cx: &mut Cx) -> Result<(), String> {
        let op = cx.tr.begin_op("rollout");
        let (base_design, base_program, base_apis) = (
            self.mirror.design.clone(),
            self.mirror.program.clone(),
            self.mirror.apis.clone(),
        );

        // Plan C1 on the controller side.
        let t = Instant::now();
        let plan = cx
            .tr
            .span("rp4c", "plan_script", || {
                self.mirror
                    .plan_script(programs::ECMP_SCRIPT, &programs::bundled_sources)
            })
            .map_err(|e| format!("planning C1: {e}"))?;
        let facts = cx.tr.span("dfa", "design_facts", || facts_of(&plan.design));
        let members = net::script_msgs(&plan.apis, &rp4::demo::ecmp_population_script())?;
        let mut cycle_s = t.elapsed().as_secs_f64();
        let upd = FleetUpdate {
            msgs: plan.msgs.clone(),
            design: plan.design.clone(),
            facts: facts.clone(),
            canary: None,
        };

        let rollout_s = self.rollout(cx, &upd)?;
        cycle_s += rollout_s;
        cx.rec.push("fleet.rollout_ms", rollout_s * 1e3);
        (self.mirror.design, self.mirror.program, self.mirror.apis) =
            (plan.design.clone(), plan.program, plan.apis);
        self.c1 = Some((plan.design.clone(), facts));

        cycle_s += self.apply_all(cx, &members)?;
        self.note_added(&members);
        cycle_s += self.traffic(cx, true)?;

        // Failback to the base design.
        let t = Instant::now();
        let back = FleetUpdate {
            msgs: cx.tr.span("rp4c", "design_diff", || {
                rp4::rp4c::design_diff(&plan.design, &base_design)
            }),
            design: base_design,
            facts: self.base_facts.clone(),
            canary: None,
        };
        cycle_s += t.elapsed().as_secs_f64();
        let failback_s = self.rollout(cx, &back)?;
        cycle_s += failback_s;
        cx.rec.push("fleet.failback_ms", failback_s * 1e3);
        // The controller-side view follows (its device already took the
        // failback batch).
        (self.mirror.design, self.mirror.program, self.mirror.apis) =
            (back.design, base_program, base_apis);
        cycle_s += self.traffic(cx, false)?;
        cx.tr.exit(op);
        cx.rec.push("op_us", cycle_s * 1e6);

        // A failback that recreated `nexthop` empty lost its entries (the
        // known C1 failback defect): re-add them untimed.
        if self.nexthops_lost() {
            let nexthops: Vec<ControlMsg> = self
                .population
                .iter()
                .filter(|m| table_of(m) == Some("nexthop"))
                .cloned()
                .collect();
            self.apply_all(cx, &nexthops)?;
            self.note_added(&nexthops);
        }
        Ok(())
    }

    fn finish(&mut self, rec: &mut Rec) -> Result<(), String> {
        let now = self.counters()?;
        for (n, b) in now.iter().zip(&self.base) {
            n.fold_delta(b, rec);
        }
        self.base = now;
        Ok(())
    }

    fn probes(&mut self, cx: &mut Cx) -> Result<(), String> {
        for d in self.names.clone() {
            for _ in 0..20 {
                let t = Instant::now();
                let g = cx.tr.enter("fleet", "hello");
                let r = self.fc.hello(&d);
                cx.tr.exit(g);
                cx.rec
                    .push("fleet.rpc_rtt_us", t.elapsed().as_secs_f64() * 1e6);
                r.map_err(|e| format!("hello {d}: {e}"))?;
            }
        }
        // The rollout's oracle phase on its own: enumerate the C1 design's
        // witness corpus and replay it on a local switch.
        let Some((design, facts)) = self.c1.clone() else {
            return Ok(());
        };
        for _ in 0..PROBE_REPS {
            let t = Instant::now();
            let g = cx.tr.enter("cover", "cover_design");
            let cov = cover_design(&design, facts.as_ref(), None, &CoverOptions::default());
            cx.tr.exit(g);
            cx.rec
                .push("cover.enumerate_ms", t.elapsed().as_secs_f64() * 1e3);
            let mut oracle =
                IpbmSwitch::try_new(IpbmConfig::default()).map_err(|e| e.to_string())?;
            oracle.install(&design).map_err(|e| e.to_string())?;
            let t = Instant::now();
            let g = cx.tr.enter("cover", "replay_corpus");
            let r = replay_corpus(&mut oracle, &cov, ReplayMode::Run);
            cx.tr.exit(g);
            cx.rec
                .push("cover.replay_ms", t.elapsed().as_secs_f64() * 1e3);
            r.map_err(|e| format!("corpus replay: {e}"))?;
            cx.rec.push("cover.witnesses", cov.covered() as f64);
        }
        Ok(())
    }
}
