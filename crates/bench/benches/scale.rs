//! E10 — production-scale tables and traffic.
//!
//! Three series, written to `BENCH_scale.json` at the workspace root:
//!
//! * **fib** — the core `Table` layer at FIB scale: bulk-loading a
//!   1M-route LPM table (smoke: 100k), lookup rate against the loaded
//!   table via the borrowed-key `match_single` probe, and delete+reinsert
//!   churn throughput. Before the indexed delete/live-count work, bulk
//!   load was O(n²) (every insert re-scanned the slab twice: once for
//!   `len`, once for replace detection) and took minutes; the gate here is
//!   seconds.
//! * **forwarding** — the full behavioral model under production-shaped
//!   traffic: Zipf flow popularity, IMIX frame sizes, and a control plane
//!   churning FIB entries between traffic chunks, reported against the
//!   churn-free rate on the same device.
//! * **ingress** — batched run-to-completion (`run_batch_into`: one
//!   compiled-path/scratch checkout for the whole drain) against the
//!   unbatched interpreter ingress (`Device::run`) over identical traffic
//!   on a shallow single-stage L3 device where loop overhead is a
//!   measurable fraction of packet cost. CI runs this in smoke mode and
//!   gates on batched >= unbatched.

use ipbm::{IpbmConfig, IpbmSwitch};
use ipsa_bench::{emit, ipsa_sw_flow, populate_rp4_flow, render_table};
use ipsa_controller::Rp4Flow;
use ipsa_core::action::{ActionDef, Primitive};
use ipsa_core::control::{ControlMsg, Device};
use ipsa_core::pipeline_cfg::SelectorConfig;
use ipsa_core::predicate::Predicate;
use ipsa_core::table::{ActionCall, KeyField, KeyMatch, MatchKind, Table, TableDef, TableEntry};
use ipsa_core::template::{MatcherBranch, TspTemplate};
use ipsa_core::value::{LValueRef, ValueRef};
use ipsa_netpkt::packet::Packet;
use ipsa_netpkt::traffic::TrafficGen;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::Serialize;
use std::time::Instant;

/// Series A: the core table layer at FIB scale.
#[derive(Debug, Serialize)]
struct FibSeries {
    routes: usize,
    load_s: f64,
    load_routes_per_s: f64,
    lookups: usize,
    lookup_pps: f64,
    churn_ops: usize,
    churn_ops_per_s: f64,
}

/// Series B: the behavioral model under production-shaped traffic.
#[derive(Debug, Serialize)]
struct ForwardingSeries {
    packets: usize,
    flows: u32,
    zipf_skew: f64,
    /// Table-entry control ops applied between traffic chunks.
    churn_ops: usize,
    steady_pps: f64,
    under_churn_pps: f64,
    /// under-churn rate over steady rate.
    churn_ratio: f64,
}

/// Series C: batched run-to-completion vs the unbatched interpreter
/// ingress.
#[derive(Debug, Serialize)]
struct IngressSeries {
    packets: usize,
    /// `Device::run()`: the unbatched per-packet interpreter ingress.
    unbatched_pps: f64,
    batched_pps: f64,
    /// Speedup of batched over the unbatched ingress, computed from the
    /// fastest chunk on each side (robust to host jitter; see
    /// `ingress_series`). CI gates on this.
    ratio: f64,
}

/// Machine-readable artifact for CI and EXPERIMENTS.md.
#[derive(Debug, Serialize)]
struct ScaleJson {
    smoke: bool,
    fib: FibSeries,
    forwarding: ForwardingSeries,
    ingress: IngressSeries,
}

/// A FIB-shaped LPM table definition sized for `routes` entries.
fn fib_def(routes: usize) -> TableDef {
    TableDef {
        name: "fib".into(),
        key: vec![KeyField {
            source: ValueRef::field("ipv4", "dst_addr"),
            bits: 32,
            kind: MatchKind::Lpm,
        }],
        size: routes,
        actions: vec!["set_nexthop".into()],
        default_action: ActionCall::no_action(),
        with_counters: false,
    }
}

fn lpm_entry(value: u32, prefix_len: usize, nh: u128) -> TableEntry {
    TableEntry {
        key: vec![KeyMatch::Lpm {
            value: value as u128,
            prefix_len,
        }],
        priority: 0,
        action: ActionCall::new("set_nexthop", vec![nh]),
        counter: 0,
    }
}

/// Series A: load `routes` LPM entries (a production-like /16 + /24 + /32
/// length mix), then measure lookup and churn rates against the loaded
/// table.
fn fib_series(routes: usize, smoke: bool) -> FibSeries {
    // ~1% /16, ~9% /32, the rest /24 — BGP-table-shaped enough to keep
    // several prefix lengths live in the per-length index.
    let r16 = (routes / 100).min(60_000);
    let r32 = routes / 10;
    let r24 = routes - r16 - r32;

    let mut t = Table::new(fib_def(routes)).expect("fib table");
    let start = Instant::now();
    for j in 0..r24 {
        t.insert(lpm_entry(0x0a00_0000 + ((j as u32) << 8), 24, 7))
            .expect("/24 route");
    }
    for j in 0..r32 {
        t.insert(lpm_entry(0xc000_0000 | j as u32, 32, 7))
            .expect("/32 route");
    }
    for j in 0..r16 {
        t.insert(lpm_entry((j as u32) << 16, 16, 7)).expect("/16");
    }
    let load_s = start.elapsed().as_secs_f64();
    assert_eq!(t.len(), routes, "every route must be live");

    // Lookup rate: random dst addresses inside the /24 space, through the
    // borrowed-key single-field probe (the compiled fast path's shape).
    let lookups = if smoke { 200_000 } else { 2_000_000 };
    let mut rng = StdRng::seed_from_u64(42);
    let mut hits = 0usize;
    let start = Instant::now();
    for _ in 0..lookups {
        let dst =
            (0x0a00_0000 + (rng.random_range(0..r24 as u32) << 8)) | rng.random_range(0..256u32);
        t.begin_lookup();
        if t.match_single(Some(dst as u128)).is_some() {
            hits += 1;
        }
    }
    let lookup_s = start.elapsed().as_secs_f64();
    assert_eq!(hits, lookups, "every /24-space lookup must hit");

    // Churn: delete + reinsert random /24 routes (the FIB update pattern).
    let pairs = if smoke { 20_000 } else { 200_000 };
    let start = Instant::now();
    for _ in 0..pairs {
        let j = rng.random_range(0..r24 as u32);
        let key = [KeyMatch::Lpm {
            value: (0x0a00_0000 + (j << 8)) as u128,
            prefix_len: 24,
        }];
        t.delete(&key).expect("route live");
        t.insert(lpm_entry(0x0a00_0000 + (j << 8), 24, 8))
            .expect("reinsert");
    }
    let churn_s = start.elapsed().as_secs_f64();
    assert_eq!(t.len(), routes, "churn must be live-count neutral");

    FibSeries {
        routes,
        load_s,
        load_routes_per_s: routes as f64 / load_s,
        lookups,
        lookup_pps: lookups as f64 / lookup_s,
        churn_ops: pairs * 2,
        churn_ops_per_s: (pairs * 2) as f64 / churn_s,
    }
}

/// A populated base-L3 flow (50 /24 routes: covers every generated flow).
fn l3_flow() -> Rp4Flow<IpbmSwitch> {
    let mut flow = ipsa_sw_flow();
    populate_rp4_flow(&mut flow, 50);
    flow
}

/// One AddEntry/DelEntry churn wave against `ipv4_lpm`, on prefixes the
/// traffic never hits (10.99.x.0/24), so the forwarding behavior is
/// unchanged while the table indices absorb the update stream.
fn churn_wave(sw: &mut IpbmSwitch, wave: usize, per_wave: usize) -> usize {
    let mut msgs = Vec::with_capacity(per_wave);
    for k in 0..per_wave {
        let slot = ((wave * per_wave + k) % 128) as u32;
        let key = vec![
            KeyMatch::Exact(1),
            KeyMatch::Lpm {
                value: (0x0a63_0000 + (slot << 8)) as u128,
                prefix_len: 24,
            },
        ];
        if wave.is_multiple_of(2) {
            msgs.push(ControlMsg::AddEntry {
                table: "ipv4_lpm".into(),
                entry: TableEntry {
                    key,
                    priority: 0,
                    action: ActionCall::new("set_nexthop", vec![7]),
                    counter: 0,
                },
            });
        } else {
            msgs.push(ControlMsg::DelEntry {
                table: "ipv4_lpm".into(),
                key,
            });
        }
    }
    let n = msgs.len();
    // Deletes of not-yet-added slots are expected on early odd waves.
    let _ = sw.apply(&msgs);
    n
}

/// Series B: production-shaped traffic (Zipf flows, IMIX sizes) through
/// the compiled path, steady vs with control-plane churn between chunks.
fn forwarding_series(packets: usize) -> ForwardingSeries {
    const FLOWS: u32 = 4_096;
    const SKEW: f64 = 1.1;
    const CHURN_PER_WAVE: usize = 16;
    let chunk = (packets / 20).max(1);

    let mut flow = l3_flow();
    let sw = &mut flow.device;
    let mut gen = TrafficGen::new(17)
        .with_v6_percent(20)
        .with_flows(FLOWS)
        .with_zipf(SKEW)
        .with_imix();

    // Warm: compile the epoch and touch every buffer.
    for (p, _) in gen.scaled_batch(256) {
        sw.inject(p);
    }
    let mut out = Vec::new();
    sw.run_batch_into(&mut out);
    assert!(!out.is_empty(), "warm traffic must forward");

    let mut run_phase = |sw: &mut IpbmSwitch, churn: bool| -> (usize, f64, usize) {
        let (mut emitted, mut secs, mut churn_ops) = (0usize, 0.0f64, 0usize);
        let mut sent = 0usize;
        let mut wave = 0usize;
        while sent < packets {
            let n = chunk.min(packets - sent);
            if churn {
                // The churn is part of the measured regime: the timed
                // window covers apply + forwarding, as a real device
                // interleaves them.
                let t = Instant::now();
                churn_ops += churn_wave(sw, wave, CHURN_PER_WAVE);
                secs += t.elapsed().as_secs_f64();
                wave += 1;
            }
            for (p, _) in gen.scaled_batch(n) {
                sw.inject(p);
            }
            let t = Instant::now();
            out.clear();
            emitted += sw.run_batch_into(&mut out);
            secs += t.elapsed().as_secs_f64();
            sent += n;
        }
        (emitted, secs, churn_ops)
    };

    let (steady_emitted, steady_s, _) = run_phase(sw, false);
    let (churn_emitted, churn_s, churn_ops) = run_phase(sw, true);
    assert!(steady_emitted > 0 && churn_emitted > 0);
    assert!(sw.pm.has_compiled(), "bench must run the compiled path");

    let steady_pps = steady_emitted as f64 / steady_s;
    let under_churn_pps = churn_emitted as f64 / churn_s;
    ForwardingSeries {
        packets,
        flows: FLOWS,
        zipf_skew: SKEW,
        churn_ops,
        steady_pps,
        under_churn_pps,
        churn_ratio: under_churn_pps / steady_pps,
    }
}

/// A minimal single-stage L3 device: parse ipv4, one LPM lookup, set a
/// nexthop, decrement the TTL, forward. The ingress series runs on this
/// shape deliberately: what batching removes is *per-packet loop
/// overhead*, and on a deep multi-table pipeline that overhead is ~1% of
/// packet cost — unmeasurable on a shared host. A shallow stage is where
/// per-packet overhead matters, and it is also the realistic deployment
/// shape for an in-situ reprogrammable edge function.
fn light_l3() -> IpbmSwitch {
    let mut sw = IpbmSwitch::new(IpbmConfig::default());
    let msgs = vec![
        ControlMsg::Drain,
        ControlMsg::RegisterHeader(ipsa_netpkt::protocols::ethernet()),
        ControlMsg::RegisterHeader(ipsa_netpkt::protocols::ipv4()),
        ControlMsg::RegisterHeader(ipsa_netpkt::protocols::udp()),
        ControlMsg::SetFirstHeader("ethernet".into()),
        ControlMsg::DefineMetadata(vec![("nexthop".into(), 16)]),
        ControlMsg::DefineAction(ActionDef {
            name: "route".into(),
            params: vec![("nh".into(), 16), ("port".into(), 16)],
            body: vec![
                Primitive::Set {
                    dst: LValueRef::Meta("nexthop".into()),
                    src: ValueRef::Param(0),
                },
                Primitive::DecTtlV4,
                Primitive::Forward {
                    port: ValueRef::Param(1),
                },
            ],
        }),
        ControlMsg::CreateTable {
            def: TableDef {
                name: "fib".into(),
                key: vec![KeyField {
                    source: ValueRef::field("ipv4", "dst_addr"),
                    bits: 32,
                    kind: MatchKind::Lpm,
                }],
                size: 64,
                actions: vec!["route".into()],
                default_action: ActionCall::no_action(),
                with_counters: false,
            },
            blocks: vec![0],
        },
        ControlMsg::WriteTemplate {
            slot: 0,
            template: TspTemplate {
                stage_name: "l3".into(),
                func: "base".into(),
                parse: vec!["ipv4".into()],
                branches: vec![MatcherBranch {
                    pred: Predicate::IsValid("ipv4".into()),
                    table: Some("fib".into()),
                }],
                executor: vec![(1, ActionCall::new("route", vec![]))],
                default_action: ActionCall::no_action(),
            },
        },
        ControlMsg::ConnectCrossbar {
            slot: 0,
            blocks: vec![0],
        },
        ControlMsg::SetSelector(SelectorConfig::split(32, 1, 0).unwrap()),
        ControlMsg::Resume,
        ControlMsg::AddEntry {
            table: "fib".into(),
            entry: TableEntry {
                key: vec![KeyMatch::Lpm {
                    value: 0x0a00_0000,
                    prefix_len: 8,
                }],
                priority: 0,
                action: ActionCall::new("route", vec![9, 4]),
                counter: 0,
            },
        },
    ];
    sw.apply(&msgs).expect("light l3 design applies");
    sw
}

/// Series C: batched run-to-completion against the unbatched interpreter
/// ingress, over identical traffic in fine-grained rotating chunks (host-
/// load drift and episodic CPU throttling land on every side equally).
/// The headline ratio compares the FASTEST chunk on each side: scheduler
/// noise on a shared host is one-sided — interruptions only ever add
/// time — so the minimum over many same-sized windows converges to each
/// path's true cost where a mean or median still carries ±3% jitter.
fn ingress_series(packets: usize) -> IngressSeries {
    let mut batched = light_l3();
    let mut unbatched = light_l3();
    // v4-only: the light device routes 10.0.0.0/8, which covers every
    // generated v4 flow.
    let gen = || TrafficGen::new(17).with_v6_percent(0).with_flows(64);
    let (mut gen_a, mut gen_b) = (gen(), gen());
    let mut out = Vec::new();

    // Each chunk is cheap (sub-millisecond), so even smoke mode can
    // afford enough rounds for the minima to converge.
    const CHUNK: usize = 500;
    let rounds = (packets / CHUNK).max(48);
    let measure_a = |a: &mut IpbmSwitch, gen: &mut TrafficGen, out: &mut Vec<Packet>| {
        for p in gen.batch(CHUNK) {
            a.inject(p);
        }
        let t = Instant::now();
        out.clear();
        let n = a.run_batch_into(out);
        (n, t.elapsed().as_secs_f64())
    };
    let measure_b = |b: &mut IpbmSwitch, gen: &mut TrafficGen| {
        for p in gen.batch(CHUNK) {
            b.inject(p);
        }
        let t = Instant::now();
        let n = b.run().len();
        (n, t.elapsed().as_secs_f64())
    };

    // Warm both devices (compile epochs, grow every buffer) unmeasured.
    for _ in 0..4 {
        measure_a(&mut batched, &mut gen_a, &mut out);
        measure_b(&mut unbatched, &mut gen_b);
    }

    let mut total = [0.0f64; 2];
    let mut min = [f64::INFINITY; 2];
    let mut emitted = 0usize;
    for i in 0..rounds {
        // Alternate which side runs first within the round.
        let mut res = [(0usize, 0.0f64); 2];
        for k in 0..2 {
            match (i + k) % 2 {
                0 => res[0] = measure_a(&mut batched, &mut gen_a, &mut out),
                _ => res[1] = measure_b(&mut unbatched, &mut gen_b),
            }
        }
        let [(na, ta), (nb, tb)] = res;
        assert!(
            na > 0 && na == nb,
            "both ingress paths must emit identically"
        );
        emitted += na;
        for (slot, t) in [ta, tb].into_iter().enumerate() {
            total[slot] += t;
            min[slot] = min[slot].min(t);
        }
    }

    IngressSeries {
        packets: rounds * CHUNK,
        unbatched_pps: emitted as f64 / total[1],
        batched_pps: emitted as f64 / total[0],
        // Same packet count on both sides: time ratios are speedups.
        ratio: min[1] / min[0],
    }
}

fn main() {
    let smoke = std::env::var("IPSA_BENCH_SMOKE").is_ok();
    let routes = if smoke { 100_000 } else { 1_000_000 };
    let packets = if smoke { 4_000 } else { 30_000 };

    let fib = fib_series(routes, smoke);
    let forwarding = forwarding_series(packets);
    let ingress = ingress_series(packets);

    let rows = vec![
        vec![
            "fib".into(),
            format!("{} routes", fib.routes),
            format!(
                "load {:.2}s ({:.0}k routes/s)",
                fib.load_s,
                fib.load_routes_per_s / 1e3
            ),
            format!("lookup {:.0} kpps", fib.lookup_pps / 1e3),
            format!("churn {:.0}k ops/s", fib.churn_ops_per_s / 1e3),
        ],
        vec![
            "forwarding".into(),
            format!(
                "{} flows, zipf {:.1}, IMIX",
                forwarding.flows, forwarding.zipf_skew
            ),
            format!("steady {:.0} kpps", forwarding.steady_pps / 1e3),
            format!("churn {:.0} kpps", forwarding.under_churn_pps / 1e3),
            format!("ratio {:.2}", forwarding.churn_ratio),
        ],
        vec![
            "ingress".into(),
            format!("{} pkts", ingress.packets),
            format!("unbatched {:.0} kpps", ingress.unbatched_pps / 1e3),
            format!("batched {:.0} kpps", ingress.batched_pps / 1e3),
            format!("{:.2}x vs unbatched", ingress.ratio),
        ],
    ];
    let out = render_table(
        "Production scale — FIB-scale tables, Zipf/IMIX traffic, batched ingress",
        &["series", "scale", "", "", ""],
        &rows,
    );

    let json = ScaleJson {
        smoke,
        fib,
        forwarding,
        ingress,
    };
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_scale.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&json).expect("json serializes"),
    )
    .expect("BENCH_scale.json written");
    println!("[written to {}]", path.display());

    emit("scale", &out);

    // Gates. The load bound is the headline fix: the pre-index bulk load
    // was O(n²) and took minutes at this scale.
    assert!(
        json.fib.load_s < 60.0,
        "FIB load took {:.1}s — scale regression (O(n²) load was minutes)",
        json.fib.load_s
    );
    assert!(
        json.ingress.ratio >= 1.0,
        "batched ingress must not be slower than the unbatched per-packet \
         ingress (got {:.2}x)",
        json.ingress.ratio
    );
}
