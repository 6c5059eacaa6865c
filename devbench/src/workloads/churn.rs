//! `sharded-churn`: route writes beside forwarding on the deployed
//! runtime. A `ShardedSwitch` with 2 shards forwards IMIX bursts; each
//! round issues one single-entry `Device::apply` (AddEntry or DelEntry on
//! prefixes the traffic never hits; every 8th write flips a live /24's
//! next hop between 7 and 9), then one burst whose egress ports must
//! reflect the write, then three steady bursts. The write path covers the
//! journal, epoch invalidation, recompile and publish to every shard;
//! every burst pays dispatch, barrier and fold.

use std::time::Instant;

use rp4::controller::Rp4Flow;
use rp4::core::control::{ControlMsg, Device};
use rp4::ipbm::sm::StorageModule;
use rp4::ipbm::{IpbmConfig, ShardedSwitch};
use rp4::netpkt::Packet;

use crate::dev::{self, Counters};
use crate::net::{self, Fib, Rng, Sizes, Traffic, NH_A, NH_B};
use crate::run::{Cx, Rec, Scratch, Workload};

/// Worker shards of the device.
const SHARDS: usize = 2;
/// Steady bursts after the write's first burst, per round.
const STEADY: usize = 3;
/// Every `FLIP_EVERY`-th write flips the live route.
const FLIP_EVERY: u64 = 8;
/// The live /24 the flips rewrite: 10.1.0.0/24 carries the heaviest flows.
const FLIP_PREFIX: u32 = 0x0a01_0000;

/// The workload's state.
pub struct ShardedChurn {
    flow: Rp4Flow<ShardedSwitch>,
    traffic: Traffic,
    fib: Fib,
    rng: Rng,
    slots: u32,
    present: Vec<bool>,
    writes: u64,
    burst: usize,
    base: Counters,
    /// A copy of the master's storage module taking the same writes, to
    /// price the bare O(entry) table write (traced runs only).
    sm_copy: Option<StorageModule>,
}

/// `10.99.s.0/24`: a churn prefix no generated flow reaches.
fn churn_prefix(slot: u32) -> u32 {
    0x0a63_0000 + (slot << 8)
}

impl ShardedChurn {
    /// One burst through the shards. Records busy, overhead and barrier
    /// figures; returns the wall-clock time and the emitted packets.
    fn burst(&mut self, cx: &mut Cx, pkts: Vec<Packet>) -> (f64, Vec<Packet>) {
        let dev = &mut self.flow.device;
        let busy0: Vec<u64> = dev.shard_busy_ns().to_vec();
        let t = Instant::now();
        let g = cx.tr.enter("cm", "inject");
        for p in pkts {
            dev.inject(p);
        }
        cx.tr.exit(g);
        let g = cx.tr.enter("sharded", "run_batch");
        let out = dev.run_batch();
        cx.tr.exit(g);
        let secs = t.elapsed().as_secs_f64();
        let deltas: Vec<f64> = dev
            .shard_busy_ns()
            .iter()
            .enumerate()
            .map(|(i, &b)| b.saturating_sub(busy0.get(i).copied().unwrap_or(0)) as f64)
            .collect();
        let max = deltas.iter().copied().fold(0.0, f64::max);
        let n = self.burst as f64;
        cx.rec.add("cm.pkts", n);
        cx.rec.add("sharded.pkts", n);
        cx.rec.add("sharded.busy_ns", max);
        cx.rec
            .add("sharded.mean_busy_ns", crate::stats::mean(&deltas));
        cx.rec.add("sharded.wall_ns", secs * 1e9);
        cx.rec.add("fast.bursts", 1.0);
        if dev.on_compiled_path() {
            cx.rec.add("fast.compiled_bursts", 1.0);
        }
        (secs, out)
    }

    fn check(&self, cx: &mut Cx, out: &[Packet], what: &str) {
        cx.tally.ops(self.burst);
        let miss = net::check_ports(&self.fib, self.burst, out);
        if miss > 0 {
            cx.tally.unexpected(
                miss,
                format!("{what}: {miss} of {} packets lost or misrouted", self.burst),
            );
        }
    }

    /// The next write: the control message and the route change it makes.
    fn next_write(&mut self) -> (ControlMsg, u32, Option<u128>) {
        self.writes += 1;
        if self.writes.is_multiple_of(FLIP_EVERY) {
            let nh = if self.fib.get(FLIP_PREFIX) == Some(NH_B) {
                NH_A
            } else {
                NH_B
            };
            let entry = net::route_entry(FLIP_PREFIX, nh);
            return (
                ControlMsg::AddEntry {
                    table: "ipv4_lpm".into(),
                    entry,
                },
                FLIP_PREFIX,
                Some(nh),
            );
        }
        let slot = self.rng.below(u64::from(self.slots)) as u32;
        let prefix = churn_prefix(slot);
        let present = &mut self.present[slot as usize];
        *present = !*present;
        if *present {
            let entry = net::route_entry(prefix, NH_A);
            (
                ControlMsg::AddEntry {
                    table: "ipv4_lpm".into(),
                    entry,
                },
                prefix,
                Some(NH_A),
            )
        } else {
            (
                ControlMsg::DelEntry {
                    table: "ipv4_lpm".into(),
                    key: net::route_key(prefix),
                },
                prefix,
                None,
            )
        }
    }
}

impl Workload for ShardedChurn {
    const ONE_THREAD: bool = false;

    fn setup(sizes: Sizes, seed: u64) -> Result<Self, String> {
        let (c, target) = net::base_compilation()?;
        let dev =
            ShardedSwitch::try_new(IpbmConfig::default(), SHARDS).map_err(|e| e.to_string())?;
        let (mut flow, _) = Rp4Flow::install(dev, c, target).map_err(|e| e.to_string())?;
        let msgs = net::population_msgs(&flow.apis, sizes.routes)?;
        flow.device.apply(&msgs).map_err(|e| e.to_string())?;
        let base = Counters::of(&flow.device.report());
        let mut w = ShardedChurn {
            flow,
            traffic: Traffic::imix(seed, sizes.flows),
            fib: Fib::standard(sizes.routes),
            rng: Rng::new(seed),
            slots: sizes.churn_slots,
            present: vec![false; sizes.churn_slots as usize],
            writes: 0,
            burst: sizes.burst,
            base,
            sm_copy: None,
        };
        // Warm: publish the epoch to the shards and compile.
        let mut warm = Scratch::new();
        let mut cx = warm.cx();
        for _ in 0..2 {
            let pkts = w.traffic.burst(w.burst);
            let (_, out) = w.burst(&mut cx, pkts);
            w.check(&mut cx, &out, "warm-up");
        }
        if !warm.tally.correct() {
            return Err(format!("warm-up bursts fail: {:?}", warm.tally.unexpected));
        }
        w.base = Counters::of(&w.flow.device.report());
        Ok(w)
    }

    fn step(&mut self, cx: &mut Cx) -> Result<(), String> {
        if cx.tr.on() && self.sm_copy.is_none() {
            self.sm_copy = Some(self.flow.device.master.sm.clone());
        }
        let (msg, prefix, nh) = self.next_write();
        let pkts = self.traffic.burst(self.burst);
        let barriers0 = self.flow.device.barriers();
        let op = cx.tr.begin_op("write");
        let t = Instant::now();
        let g = cx.tr.enter("ccm", "apply");
        let applied = self.flow.device.apply(std::slice::from_ref(&msg));
        cx.tr.exit(g);
        let apply_s = t.elapsed().as_secs_f64();
        let (burst_s, out) = self.burst(cx, pkts);
        let visible_s = t.elapsed().as_secs_f64();
        cx.tr.exit(op);
        cx.tally.ops(1);
        match applied {
            Ok(r) => {
                cx.rec.push("model.load_us", r.load_us);
                cx.rec.push("model.stall_us", r.stall_us);
                self.fib.set(prefix, nh);
            }
            Err(e) => cx.tally.unexpected(1, format!("route write refused: {e}")),
        }
        cx.rec.push("op_us", visible_s * 1e6);
        cx.rec.push("ccm.apply_us", apply_s * 1e6);
        cx.rec.push("sharded.first_burst_us", burst_s * 1e6);
        self.check(cx, &out, "first burst after a write");

        for _ in 0..STEADY {
            let pkts = self.traffic.burst(self.burst);
            let op = cx.tr.begin_op("burst");
            let (secs, out) = self.burst(cx, pkts);
            cx.tr.exit(op);
            dev::record_burst(cx.rec, self.burst, secs);
            self.check(cx, &out, "steady burst");
        }
        cx.rec.add(
            "sharded.barriers",
            (self.flow.device.barriers() - barriers0) as f64,
        );
        cx.rec.add("sharded.ops", 1.0);

        if let Some(sm) = self.sm_copy.as_mut() {
            // The same write on a copy of the storage module: the floor a
            // table write costs without journal, recompile or publish.
            let t = Instant::now();
            let r = match msg {
                ControlMsg::AddEntry { table, entry } => sm.insert_entry(&table, entry),
                ControlMsg::DelEntry { table, key } => sm.delete_entry(&table, &key),
                _ => Ok(0),
            };
            cx.rec
                .push("sm.entry_write_us", t.elapsed().as_secs_f64() * 1e6);
            r.map_err(|e| format!("storage-module copy refused a write the device took: {e}"))?;
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
