//! Shared fixtures: the program, its population, the traffic, and the
//! reference model every workload checks device output against.
//!
//! Population: the standard base population (`rp4::demo`) plus `routes`
//! /24 routes `10.1.0.0/24 + i·256` towards next hop 7. The traffic hits
//! the 16 /24s under 10.1.0.0/20 (IPv4 flow `i` goes to 10.1.(i>>8).(i&255)),
//! so next hop 7 egresses on port 2, next hop 9 on port 3, and every IPv6
//! flow on port 3.

use std::collections::HashMap;

use rp4::controller::table_api::{build_entry, build_key, find_api};
use rp4::controller::{parse_script, programs, ScriptCmd};
use rp4::core::control::ControlMsg;
use rp4::core::table::{ActionCall, KeyMatch, TableEntry};
use rp4::netpkt::traffic::TrafficGen;
use rp4::netpkt::Packet;
use rp4::rp4c::{full_compile, Compilation, CompilerTarget, TableApi};

/// Workload sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// /24 routes installed in `ipv4_lpm` (its capacity is 2048).
    pub routes: usize,
    /// Distinct flows in the traffic.
    pub flows: u32,
    /// Packets per burst.
    pub burst: usize,
    /// Prefixes the route churn adds and deletes (never hit by traffic).
    pub churn_slots: u32,
}

/// The measured sizes: ~1,850 routes leave room for 128 churn prefixes
/// under the table's cap of 2,048.
pub const FULL: Sizes = Sizes {
    routes: 1_850,
    flows: 4_096,
    burst: 256,
    churn_slots: 128,
};

/// Sizes for the benchmark's own tests.
#[cfg(test)]
pub const TINY: Sizes = Sizes {
    routes: 64,
    flows: 256,
    burst: 32,
    churn_slots: 16,
};

/// Next hop of the routes the benchmark installs (port 2).
pub const NH_A: u128 = 7;
/// The other next hop a route flip switches to (port 3).
pub const NH_B: u128 = 9;

/// Compiles the bundled base program for the ipbm target.
pub fn base_compilation() -> Result<(Compilation, CompilerTarget), String> {
    let prog = rp4::rp4_lang::parse(programs::BASE_RP4).map_err(|e| e.to_string())?;
    let target = CompilerTarget::ipbm();
    let c = full_compile(&prog, &target).map_err(|e| e.to_string())?;
    Ok((c, target))
}

/// The table-entry lines of `script` as control messages, validated against
/// `apis` (the controller's table API).
pub fn script_msgs(apis: &[TableApi], script: &str) -> Result<Vec<ControlMsg>, String> {
    let mut msgs = Vec::new();
    for cmd in parse_script(script).map_err(|e| e.to_string())? {
        match cmd {
            ScriptCmd::TableAdd {
                table,
                action,
                keys,
                args,
                priority,
            } => {
                let api = find_api(apis, &table).map_err(|e| e.msg)?;
                let entry = build_entry(api, &action, &keys, &args, priority).map_err(|e| e.msg)?;
                msgs.push(ControlMsg::AddEntry { table, entry });
            }
            ScriptCmd::TableDel { table, keys } => {
                let api = find_api(apis, &table).map_err(|e| e.msg)?;
                let key = build_key(api, &keys).map_err(|e| e.msg)?;
                msgs.push(ControlMsg::DelEntry { table, key });
            }
            other => return Err(format!("not a table operation: {other:?}")),
        }
    }
    Ok(msgs)
}

/// Key of the /24 route `prefix` (network address) in `ipv4_lpm` (VRF 1).
pub fn route_key(prefix: u32) -> Vec<KeyMatch> {
    vec![
        KeyMatch::Exact(1),
        KeyMatch::Lpm {
            value: u128::from(prefix),
            prefix_len: 24,
        },
    ]
}

/// The entry routing /24 `prefix` to `nh`.
pub fn route_entry(prefix: u32, nh: u128) -> TableEntry {
    TableEntry {
        key: route_key(prefix),
        priority: 0,
        action: ActionCall::new("set_nexthop", vec![nh]),
        counter: 0,
    }
}

/// Network address of the benchmark's `i`-th installed /24 route.
pub fn route_prefix(i: usize) -> u32 {
    0x0a01_0000 + ((i as u32) << 8)
}

/// The standard population plus `routes` /24 routes, as one batch.
pub fn population_msgs(apis: &[TableApi], routes: usize) -> Result<Vec<ControlMsg>, String> {
    let mut msgs = script_msgs(apis, &rp4::demo::base_population_script())?;
    msgs.extend((0..routes).map(|i| ControlMsg::AddEntry {
        table: "ipv4_lpm".into(),
        entry: route_entry(route_prefix(i), NH_A),
    }));
    Ok(msgs)
}

/// Control-plane view of the installed IPv4 routes the traffic can hit.
#[derive(Debug, Clone)]
pub struct Fib {
    /// Next hop per /24 network address (the 10.1.0.0/16 route covers
    /// the rest with next hop 7).
    nh: HashMap<u32, u128>,
}

impl Fib {
    /// The routes [`population_msgs`] installs.
    pub fn standard(routes: usize) -> Self {
        Fib {
            nh: (0..routes).map(|i| (route_prefix(i), NH_A)).collect(),
        }
    }

    /// Records a route write.
    pub fn set(&mut self, prefix: u32, nh: Option<u128>) {
        match nh {
            Some(nh) => self.nh.insert(prefix, nh),
            None => self.nh.remove(&prefix),
        };
    }

    /// Next hop of `prefix`, if installed.
    pub fn get(&self, prefix: u32) -> Option<u128> {
        self.nh.get(&prefix).copied()
    }

    /// Expected egress port of a packet to `dst`.
    pub fn port(&self, dst: Dst) -> u16 {
        match dst {
            Dst::V6 => 3,
            Dst::V4(a) => match self.nh.get(&(a & 0xffff_ff00)).copied().unwrap_or(NH_A) {
                NH_B => 3,
                _ => 2,
            },
        }
    }
}

/// The destination of a generated packet, read from its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dst {
    /// IPv4 destination address.
    V4(u32),
    /// Any IPv6 destination (all IPv6 flows share one route).
    V6,
}

/// Reads the destination of an Ethernet/IP frame.
pub fn dst_of(p: &Packet) -> Option<Dst> {
    let d = &p.data;
    match d.get(12..14)? {
        [0x08, 0x00] => {
            let b = d.get(30..34)?;
            Some(Dst::V4(u32::from_be_bytes([b[0], b[1], b[2], b[3]])))
        }
        [0x86, 0xdd] => Some(Dst::V6),
        _ => None,
    }
}

/// Counts the packets of `out` that `fib` does not explain: every input
/// must come out once, on the port its route names. Returns the number of
/// misses (lost or misrouted packets).
pub fn check_ports(fib: &Fib, sent: usize, out: &[Packet]) -> usize {
    let good = out
        .iter()
        .filter(|p| match (dst_of(p), p.meta.egress_port) {
            (Some(d), Some(port)) => fib.port(d) == port,
            _ => false,
        })
        .count();
    sent.saturating_sub(good)
}

/// The benchmark's traffic: Zipf 1.1 over `flows` flows, 20 % IPv6.
pub struct Traffic {
    gen: TrafficGen,
}

impl Traffic {
    /// Minimum-size frames (64-byte IPv4 frames).
    pub fn min_size(seed: u64, flows: u32) -> Self {
        let mut gen = TrafficGen::new(seed)
            .with_v6_percent(20)
            .with_flows(flows)
            .with_zipf(1.1);
        // 64-byte frame = 14 (eth) + 20 (ipv4) + 8 (udp) + 22.
        gen.payload_len = 22;
        Traffic { gen }
    }

    /// IMIX frame sizes (64/594/1518 bytes in 7:4:1).
    pub fn imix(seed: u64, flows: u32) -> Self {
        Traffic {
            gen: TrafficGen::new(seed)
                .with_v6_percent(20)
                .with_flows(flows)
                .with_zipf(1.1)
                .with_imix(),
        }
    }

    /// The next `n` packets.
    pub fn burst(&mut self, n: usize) -> Vec<Packet> {
        self.gen
            .scaled_batch(n)
            .into_iter()
            .map(|(p, _)| p)
            .collect()
    }
}

/// SplitMix64: the benchmark's own seeded choices (churn order).
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// Next value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_traffic_is_routable_and_classified() {
        let mut t = Traffic::min_size(3, 4096);
        let fib = Fib::standard(FULL.routes);
        for p in t.burst(512) {
            let d = dst_of(&p).expect("generated frames are IP");
            if let Dst::V4(a) = d {
                assert_eq!(a >> 20, 0x0a0, "inside 10.1.0.0/20: {a:#x}");
                assert_eq!(fib.port(d), 2);
            }
            assert!(p.data.len() >= 64);
        }
    }

    #[test]
    fn population_fits_and_flip_moves_port() {
        let (c, _) = base_compilation().unwrap();
        let msgs = population_msgs(&c.apis, FULL.routes).unwrap();
        assert!(msgs.len() > FULL.routes);
        let mut fib = Fib::standard(FULL.routes);
        let a = Dst::V4(0x0a01_0005);
        fib.set(0x0a01_0000, Some(NH_B));
        assert_eq!(fib.port(a), 3);
        fib.set(0x0a01_0000, None);
        assert_eq!(fib.port(a), 2, "the /16 route covers a deleted /24");
    }
}
