//! `l3-forward`: bare per-packet cost at the smallest frame. One
//! `IpbmSwitch`, 256-packet bursts of 64-byte frames (inject →
//! `run_batch_into` → collect), no control writes. Every control-plane
//! layer is idle, so a write-path change must leave it unchanged.

use std::time::Instant;

use rp4::controller::Rp4Flow;
use rp4::core::control::Device;
use rp4::ipbm::{IpbmConfig, IpbmSwitch};
use rp4::netpkt::Packet;

use crate::dev::{self, Counters};
use crate::net::{self, Fib, Sizes, Traffic};
use crate::run::{Cx, Rec, Workload};

/// The workload's state.
pub struct L3Forward {
    flow: Rp4Flow<IpbmSwitch>,
    traffic: Traffic,
    fib: Fib,
    burst: usize,
    out: Vec<Packet>,
    base: Counters,
}

/// Installs the base program on a fresh switch and loads the population in
/// one batch.
pub fn populated_switch(sizes: Sizes) -> Result<Rp4Flow<IpbmSwitch>, String> {
    let (c, target) = net::base_compilation()?;
    let sw = IpbmSwitch::try_new(IpbmConfig::default()).map_err(|e| e.to_string())?;
    let (mut flow, _) = Rp4Flow::install(sw, c, target).map_err(|e| e.to_string())?;
    let msgs = net::population_msgs(&flow.apis, sizes.routes)?;
    flow.device.apply(&msgs).map_err(|e| e.to_string())?;
    Ok(flow)
}

impl Workload for L3Forward {
    const ONE_THREAD: bool = true;

    fn setup(sizes: Sizes, seed: u64) -> Result<Self, String> {
        let flow = populated_switch(sizes)?;
        let base = Counters::of(&flow.device.report());
        let mut w = L3Forward {
            flow,
            traffic: Traffic::min_size(seed, sizes.flows),
            fib: Fib::standard(sizes.routes),
            burst: sizes.burst,
            out: Vec::with_capacity(sizes.burst),
            base,
        };
        // Warm: the first burst compiles the epoch.
        let pkts = w.traffic.burst(w.burst);
        let sw = &mut w.flow.device;
        for p in pkts {
            sw.inject(p);
        }
        sw.run_batch_into(&mut w.out);
        if net::check_ports(&w.fib, w.burst, &w.out) != 0 {
            return Err("warm-up burst does not forward as routed".into());
        }
        w.out.clear();
        w.base = Counters::of(&w.flow.device.report());
        Ok(w)
    }

    fn step(&mut self, cx: &mut Cx) -> Result<(), String> {
        let pkts = self.traffic.burst(self.burst);
        let op = cx.tr.begin_op("burst");
        let secs = dev::ipbm_burst(&mut self.flow.device, pkts, &mut self.out, cx.tr, cx.rec);
        cx.tr.exit(op);
        dev::record_burst(cx.rec, self.burst, secs);
        cx.rec.push("op_us", secs * 1e6);
        cx.tally.ops(self.burst);
        let miss = net::check_ports(&self.fib, self.burst, &self.out);
        if miss > 0 {
            cx.tally.unexpected(
                miss,
                format!("{miss} of {} packets lost or misrouted", self.burst),
            );
        }
        self.out.clear();
        Ok(())
    }

    fn probes(&mut self, cx: &mut Cx) -> Result<(), String> {
        // `ensure_compiled` on a dirty epoch: the full fast-path compile.
        let sw = &mut self.flow.device;
        for _ in 0..20 {
            sw.pm.invalidate_compiled();
            let t = Instant::now();
            let g = cx.tr.enter("fast", "ensure_compiled");
            sw.pm.ensure_compiled(&sw.linkage, &sw.sm);
            cx.tr.exit(g);
            cx.rec
                .push("fast.compile_us", t.elapsed().as_secs_f64() * 1e6);
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
