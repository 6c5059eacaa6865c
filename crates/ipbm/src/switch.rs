//! ipbm — the assembled IPSA behavioral-model switch.
//!
//! Wires the four modules together (CM, PM, CCM, SM; Sec. 4.1) behind the
//! [`Device`] trait the controller programs against.

use ipsa_core::control::{full_install_msgs, ApplyReport, ControlMsg, Device};
use ipsa_core::crossbar::Crossbar;
use ipsa_core::error::CoreError;
use ipsa_core::template::CompiledDesign;
use ipsa_core::timing::CostModel;
use ipsa_netpkt::linkage::HeaderLinkage;
use ipsa_netpkt::packet::Packet;
use serde::Serialize;

use crate::ccm;
use crate::cm::{CommModule, PortStats};
use crate::pm::{PipelineModule, PipelineStats, TmStats};
use crate::resilience::{ApplyJournal, FaultPlan};
use crate::sm::StorageModule;
use crate::tsp::SlotStats;

/// An open staged control-plane transaction: one [`ApplyJournal`]
/// accumulating pre-images across every batch applied since
/// [`IpbmSwitch::begin_staged`], plus the dataflow facts installed at that
/// point (structural batches clear facts as they apply; a revert must put
/// them back so the device is observably unchanged).
///
/// This is the device half of a two-phase fleet rollout: the controller
/// stages the update everywhere, verifies the canary, and only then commits
/// — any divergence or mid-rollout failure reverts each device to the exact
/// bytes it held when the transaction opened.
pub(crate) struct StagedTxn {
    journal: ApplyJournal,
    facts: Option<ipsa_core::facts::ProgramFacts>,
    /// Batches applied under this transaction (observability only).
    batches: u64,
}

impl std::fmt::Debug for StagedTxn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StagedTxn")
            .field("batches", &self.batches)
            .finish_non_exhaustive()
    }
}

/// Construction parameters for an ipbm instance.
#[derive(Debug, Clone)]
pub struct IpbmConfig {
    /// Switch ports.
    pub ports: usize,
    /// Physical TSP slots.
    pub slots: usize,
    /// SRAM blocks in the pool.
    pub sram_blocks: usize,
    /// TCAM blocks in the pool.
    pub tcam_blocks: usize,
    /// Crossbar clusters (0/1 = full crossbar).
    pub clusters: usize,
    /// TSP↔memory bus width, bits.
    pub bus_bits: usize,
    /// Control-channel cost model.
    pub cost: CostModel,
}

impl Default for IpbmConfig {
    fn default() -> Self {
        IpbmConfig {
            ports: 8,
            slots: 32,
            sram_blocks: 64,
            tcam_blocks: 16,
            clusters: 0,
            bus_bits: 128,
            cost: CostModel::software(),
        }
    }
}

impl IpbmConfig {
    /// Rejects configurations no switch can be built from. Part of the
    /// silent-clamp sweep: constructors used to quietly rewrite zero
    /// ports/slots to 1 instead of telling the caller.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.ports == 0 {
            return Err(CoreError::Config(
                "switch needs at least one port (ports=0)".into(),
            ));
        }
        if self.slots == 0 {
            return Err(CoreError::Config(
                "switch needs at least one TSP slot (slots=0)".into(),
            ));
        }
        Ok(())
    }
}

/// Aggregated observability snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct SwitchReport {
    /// Pipeline counters.
    pub pipeline: PipelineStats,
    /// Traffic-Manager counters.
    pub tm: TmStats,
    /// Per-port counters.
    pub ports: Vec<PortStats>,
    /// Per-slot counters (programmed slots only, with their stage names).
    pub slots: Vec<(usize, String, SlotStats)>,
    /// Memory accesses performed by table lookups.
    pub mem_accesses: u64,
    /// Active TSPs (power model input).
    pub active_tsps: usize,
    /// Fast-path compilations that failed, each one an interpreter
    /// fallback (see [`PipelineModule::compile_path`]).
    pub compile_failures: u64,
    /// Text of the most recent compilation failure.
    pub last_compile_error: Option<String>,
}

/// The IPSA behavioral-model software switch.
#[derive(Debug)]
pub struct IpbmSwitch {
    /// Communication module (ports).
    pub cm: CommModule,
    /// Pipeline module (TSPs + TM + selector + crossbar).
    pub pm: PipelineModule,
    /// Storage module (pool + tables + actions).
    pub sm: StorageModule,
    /// Header registry and parse graph (runtime-mutable).
    pub linkage: HeaderLinkage,
    /// Control-channel cost model.
    pub cost: CostModel,
    /// Test-only fault-injection plan (None in production).
    faults: Option<FaultPlan>,
    /// Open staged transaction, if any (see [`IpbmSwitch::begin_staged`]).
    staged: Option<StagedTxn>,
    name: String,
}

impl IpbmSwitch {
    /// Builds a switch from a configuration.
    ///
    /// # Panics
    /// On an invalid configuration (zero ports or slots); use
    /// [`IpbmSwitch::try_new`] to handle that as an error.
    pub fn new(cfg: IpbmConfig) -> Self {
        Self::try_new(cfg).expect("invalid IpbmConfig")
    }

    /// Builds a switch from a configuration, rejecting unusable ones
    /// (zero ports or slots) with [`CoreError::Config`].
    pub fn try_new(cfg: IpbmConfig) -> Result<Self, CoreError> {
        cfg.validate()?;
        let crossbar = if cfg.clusters > 1 {
            Crossbar::clustered(cfg.slots, cfg.sram_blocks + cfg.tcam_blocks, cfg.clusters)
        } else {
            Crossbar::full()
        };
        Ok(IpbmSwitch {
            cm: CommModule::new(cfg.ports),
            pm: PipelineModule::new(cfg.slots, cfg.ports, crossbar)?,
            sm: StorageModule::new(cfg.sram_blocks, cfg.tcam_blocks, cfg.bus_bits),
            linkage: HeaderLinkage::new(),
            cost: cfg.cost,
            faults: None,
            staged: None,
            name: "ipbm".to_string(),
        })
    }

    /// Installs a deterministic fault-injection plan (test-only surface);
    /// `fail_msg_at` makes control batches fail — and roll back — at an
    /// exact message index.
    #[doc(hidden)]
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Removes any installed fault plan.
    #[doc(hidden)]
    pub fn clear_fault_plan(&mut self) {
        self.faults = None;
    }

    /// Installs a complete compiled design (initial load).
    pub fn install(&mut self, design: &CompiledDesign) -> Result<ApplyReport, CoreError> {
        self.apply(&full_install_msgs(design))
    }

    /// Opens a staged control-plane transaction. Every subsequent
    /// [`Device::apply`] batch journals its pre-images into one shared
    /// [`ApplyJournal`] (each component captured at most once, at its
    /// earliest touch), so [`IpbmSwitch::revert_staged`] rewinds *all*
    /// batches applied since this call byte-identically — the device half
    /// of a fleet-wide two-phase rollout. A batch that fails mid-apply
    /// aborts the whole transaction (the journal is replayed immediately
    /// and the transaction closes), because a half-staged device can be
    /// neither committed nor trusted to stay staged.
    ///
    /// Errors with [`CoreError::Config`] if a transaction is already open:
    /// nesting would silently merge rollback horizons.
    pub fn begin_staged(&mut self) -> Result<(), CoreError> {
        if self.staged.is_some() {
            return Err(CoreError::Config(
                "staged transaction already open (commit or revert it first)".into(),
            ));
        }
        self.staged = Some(StagedTxn {
            journal: ApplyJournal::default(),
            facts: self.pm.facts().cloned(),
            batches: 0,
        });
        Ok(())
    }

    /// True while a staged transaction is open.
    pub fn staged_open(&self) -> bool {
        self.staged.is_some()
    }

    /// Batches applied under the open staged transaction (0 when none).
    pub fn staged_batches(&self) -> u64 {
        self.staged.as_ref().map_or(0, |t| t.batches)
    }

    /// Commits the open staged transaction: the journal is discarded and
    /// every batch applied since [`IpbmSwitch::begin_staged`] becomes
    /// permanent. Errors with [`CoreError::Config`] if none is open.
    pub fn commit_staged(&mut self) -> Result<(), CoreError> {
        match self.staged.take() {
            Some(_) => Ok(()),
            None => Err(CoreError::Config(
                "no staged transaction open to commit".into(),
            )),
        }
    }

    /// Reverts the open staged transaction: every pre-image captured since
    /// [`IpbmSwitch::begin_staged`] is restored newest-first, the facts
    /// installed at open time are reinstated, and a new control-plane epoch
    /// opens (the reverted state must recompile and republish). The device
    /// is left byte-identical to the moment the transaction opened. Errors
    /// with [`CoreError::Config`] if none is open.
    pub fn revert_staged(&mut self) -> Result<(), CoreError> {
        let Some(txn) = self.staged.take() else {
            return Err(CoreError::Config(
                "no staged transaction open to revert".into(),
            ));
        };
        txn.journal
            .rollback(&mut self.pm, &mut self.sm, &mut self.linkage);
        // set_facts re-opens the epoch whether or not facts were installed
        // — the pre-image state needs a fresh compile either way.
        self.pm.set_facts(txn.facts);
        Ok(())
    }

    /// Observability snapshot.
    pub fn report(&self) -> SwitchReport {
        SwitchReport {
            pipeline: self.pm.stats,
            tm: self.pm.tm.stats,
            ports: self.cm.port_stats(),
            slots: self
                .pm
                .slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| {
                    s.template
                        .as_ref()
                        .map(|t| (i, t.stage_name.clone(), s.stats))
                })
                .collect(),
            mem_accesses: self.sm.mem_accesses,
            active_tsps: self.pm.active_tsps(),
            compile_failures: self.pm.compile_failures,
            last_compile_error: self.pm.last_compile_error.clone(),
        }
    }

    /// Processes exactly one pending packet through the interpreter.
    /// Returns whether a packet was emitted (it lands on the CM's tx side;
    /// fetch it with [`CommModule::collect_tx`]); `Ok(false)` when idle,
    /// draining, or the packet was dropped; `Err` carries the packet's
    /// device error.
    pub fn step(&mut self) -> Result<bool, CoreError> {
        self.drain(false, 1)
    }

    /// Batched run-to-completion ingress: drains the RX rings through the
    /// compiled fast path, then drains the TX rings into the caller-owned
    /// `out`. Returns how many packets were handed back. The epoch check
    /// and the compiled-path/scratch checkout happen once per drain.
    /// With a [`PacketArena`](ipsa_netpkt::arena::PacketArena) recycling
    /// the packets handed back through `out`, the whole
    /// inject→process→collect loop is allocation-free in steady state
    /// (`tests/alloc_free.rs`).
    pub fn run_batch_into(&mut self, out: &mut Vec<Packet>) -> usize {
        // Resolve-once / run-many: build (or reuse) the compiled fast path
        // for this control-plane epoch. If compilation fails, the drain
        // interprets each packet.
        self.pm.ensure_compiled(&self.linkage, &self.sm);
        self.drain_all(true);
        self.cm.tx_burst(out)
    }

    /// Drains every pending packet (until the rings empty or a structural
    /// update starts draining the pipeline). Per-packet errors surface as
    /// drops, traced by a debug assertion in debug builds: the data plane
    /// must not wedge on one bad packet.
    fn drain_all(&mut self, compiled: bool) {
        while let Err(e) = self.drain(compiled, usize::MAX) {
            debug_assert!(false, "pipeline error: {e}");
            let _ = e;
        }
    }

    /// The switch's one ring→pipeline→ring loop: runs up to `limit`
    /// pending packets in arrival order through one
    /// [`BurstRunner`](crate::pm::BurstRunner) — the compiled fast path
    /// when `compiled` and one is installed, the interpreter otherwise —
    /// and transmits each emitted packet. Packets flow ring→pipeline→ring
    /// directly: measurement showed even one intermediate staging buffer
    /// costs ~2-3% at these rates. The loop stops early while the pipeline
    /// is draining, and at the first device error, which it returns (the
    /// offending packet is consumed). Otherwise returns whether the last
    /// packet run was emitted.
    fn drain(&mut self, compiled: bool, limit: usize) -> Result<bool, CoreError> {
        let mut runner = self.pm.runner(compiled);
        let mut emitted = false;
        for _ in 0..limit {
            if runner.draining() {
                break;
            }
            let Some(pkt) = self.cm.next_rx() else {
                break;
            };
            emitted = match runner.run(&self.linkage, &mut self.sm, pkt)? {
                Some(p) => {
                    self.cm.transmit(p);
                    true
                }
                None => false,
            };
        }
        Ok(emitted)
    }
}

/// Classifies one per-packet pipeline result the way real hardware does:
/// malformed traffic (e.g. truncated mid-header) is a parse drop, not a
/// device fault — switches discard runts. Any other error propagates.
/// Shared by the single-core drain loop and the sharded workers so both
/// planes count drops identically.
#[inline]
pub(crate) fn classify_packet_result(
    r: Result<Option<Packet>, CoreError>,
    stats: &mut PipelineStats,
) -> Result<Option<Packet>, CoreError> {
    match r {
        Err(CoreError::Packet(ipsa_netpkt::packet::PacketError::Truncated { .. })) => {
            stats.parse_drops += 1;
            Ok(None)
        }
        other => other,
    }
}

impl Device for IpbmSwitch {
    fn name(&self) -> &str {
        &self.name
    }

    fn apply(&mut self, msgs: &[ControlMsg]) -> Result<ApplyReport, CoreError> {
        let Some(txn) = self.staged.as_mut() else {
            return ccm::apply_msgs_with_faults(
                &mut self.pm,
                &mut self.sm,
                &mut self.linkage,
                &self.cost,
                msgs,
                self.faults.as_ref(),
            );
        };
        // Staged mode: pre-images accumulate in the transaction's journal.
        // A mid-batch failure aborts the *whole* transaction — the journal
        // rewinds every batch applied since `begin_staged`, not just this
        // one, and the facts installed at open time come back with it.
        match ccm::apply_msgs_journaled(
            &mut self.pm,
            &mut self.sm,
            &mut self.linkage,
            &self.cost,
            msgs,
            self.faults.as_ref(),
            &mut txn.journal,
        ) {
            Ok(report) => {
                txn.batches += 1;
                Ok(report)
            }
            Err((index, cause)) => {
                let txn = self.staged.take().expect("staged txn is open");
                txn.journal
                    .rollback(&mut self.pm, &mut self.sm, &mut self.linkage);
                self.pm.set_facts(txn.facts);
                Err(CoreError::RolledBack {
                    index,
                    cause: Box::new(cause),
                })
            }
        }
    }

    fn install_facts(&mut self, facts: Option<ipsa_core::facts::ProgramFacts>) {
        self.pm.set_facts(facts);
    }

    fn inject(&mut self, packet: Packet) {
        if self.pm.draining {
            self.pm.stats.held_during_drain += 1;
        }
        self.cm.inject(packet);
    }

    fn run(&mut self) -> Vec<Packet> {
        // The interpreter reference: the compiled path is withheld.
        self.drain_all(false);
        self.cm.collect_tx()
    }

    fn run_batch(&mut self) -> Vec<Packet> {
        let mut out = Vec::new();
        self.run_batch_into(&mut out);
        out
    }

    fn pending(&self) -> usize {
        self.cm.rx_pending()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsa_core::pipeline_cfg::SelectorConfig;
    use ipsa_core::table::{ActionCall, KeyField, MatchKind, TableDef, TableEntry};
    use ipsa_core::template::{MatcherBranch, TspTemplate};
    use ipsa_core::value::ValueRef;
    use ipsa_netpkt::builder::{ipv4_udp_packet, Ipv4UdpSpec};

    /// Builds a one-stage L3 switch via control messages only.
    fn minimal_switch() -> IpbmSwitch {
        let mut sw = IpbmSwitch::new(IpbmConfig::default());
        let msgs = vec![
            ControlMsg::Drain,
            ControlMsg::RegisterHeader(ipsa_netpkt::protocols::ethernet()),
            ControlMsg::RegisterHeader(ipsa_netpkt::protocols::ipv4()),
            ControlMsg::RegisterHeader(ipsa_netpkt::protocols::udp()),
            ControlMsg::SetFirstHeader("ethernet".into()),
            ControlMsg::DefineAction(ipsa_core::action::ActionDef {
                name: "fwd".into(),
                params: vec![("port".into(), 16)],
                body: vec![ipsa_core::action::Primitive::Forward {
                    port: ValueRef::Param(0),
                }],
            }),
            ControlMsg::CreateTable {
                def: TableDef {
                    name: "route".into(),
                    key: vec![KeyField {
                        source: ValueRef::field("ipv4", "dst_addr"),
                        bits: 32,
                        kind: MatchKind::Lpm,
                    }],
                    size: 64,
                    actions: vec!["fwd".into()],
                    default_action: ActionCall::no_action(),
                    with_counters: false,
                },
                blocks: vec![0],
            },
            ControlMsg::WriteTemplate {
                slot: 0,
                template: TspTemplate {
                    stage_name: "route_s".into(),
                    func: "base".into(),
                    parse: vec!["ipv4".into()],
                    branches: vec![MatcherBranch {
                        pred: ipsa_core::predicate::Predicate::IsValid("ipv4".into()),
                        table: Some("route".into()),
                    }],
                    executor: vec![(1, ActionCall::new("fwd", vec![]))],
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
                table: "route".into(),
                entry: TableEntry {
                    key: vec![ipsa_core::table::KeyMatch::Lpm {
                        value: 0x0a000000,
                        prefix_len: 8,
                    }],
                    priority: 0,
                    action: ActionCall::new("fwd", vec![4]),
                    counter: 0,
                },
            },
        ];
        sw.apply(&msgs).unwrap();
        sw
    }

    #[test]
    fn try_new_rejects_zero_ports_and_slots() {
        // Regression: zero ports/slots used to be silently clamped to 1
        // deeper in the constructor chain.
        let cfg = IpbmConfig {
            ports: 0,
            ..Default::default()
        };
        assert!(matches!(
            IpbmSwitch::try_new(cfg),
            Err(CoreError::Config(_))
        ));
        let cfg = IpbmConfig {
            slots: 0,
            ..Default::default()
        };
        assert!(matches!(
            IpbmSwitch::try_new(cfg),
            Err(CoreError::Config(_))
        ));
        assert!(IpbmSwitch::try_new(IpbmConfig::default()).is_ok());
    }

    #[test]
    fn forwards_matching_traffic() {
        let mut sw = minimal_switch();
        sw.inject(ipv4_udp_packet(&Ipv4UdpSpec {
            dst_ip: 0x0a010101,
            ..Default::default()
        }));
        sw.inject(ipv4_udp_packet(&Ipv4UdpSpec {
            dst_ip: 0x0b010101, // unrouted
            ..Default::default()
        }));
        let out = sw.run();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].meta.egress_port, Some(4));
        let rep = sw.report();
        assert_eq!(rep.pipeline.received, 2);
        assert_eq!(rep.pipeline.emitted, 1);
        assert_eq!(rep.tm.no_route_drops, 1);
        assert_eq!(rep.ports[4].tx, 1);
        assert!(rep.mem_accesses >= 2);
        assert_eq!(rep.active_tsps, 1);
    }

    #[test]
    fn draining_holds_traffic() {
        let mut sw = minimal_switch();
        sw.apply(&[ControlMsg::Drain]).unwrap();
        sw.inject(ipv4_udp_packet(&Ipv4UdpSpec {
            dst_ip: 0x0a010101,
            ..Default::default()
        }));
        assert!(sw.run().is_empty());
        assert_eq!(sw.pending(), 1);
        assert_eq!(sw.report().pipeline.held_during_drain, 1);
        sw.apply(&[ControlMsg::Resume]).unwrap();
        assert_eq!(sw.run().len(), 1);
        assert_eq!(sw.report().pipeline.held_during_drain, 1);
    }

    #[test]
    fn step_matches_run() {
        let mut stepped = minimal_switch();
        let mut reference = minimal_switch();
        let routed = ipv4_udp_packet(&Ipv4UdpSpec {
            dst_ip: 0x0a010101,
            ..Default::default()
        });
        // Cut mid-IPv4 header: the parser drops it as a runt.
        let truncated = Packet::new(routed.data[..20].to_vec(), 0);
        let unrouted = ipv4_udp_packet(&Ipv4UdpSpec {
            dst_ip: 0x0b010101,
            ..Default::default()
        });
        let wave = [routed.clone(), truncated, unrouted, routed];
        for sw in [&mut stepped, &mut reference] {
            for p in &wave {
                sw.inject(p.clone());
            }
        }
        let mut emitted = Vec::new();
        for _ in &wave {
            emitted.push(stepped.step().unwrap());
        }
        assert_eq!(emitted, [true, false, false, true]);
        assert!(!stepped.step().unwrap(), "idle switch emits nothing");
        assert_eq!(stepped.cm.collect_tx(), reference.run());
        let (a, b) = (stepped.report(), reference.report());
        assert_eq!(a.pipeline, b.pipeline);
        assert_eq!(a.pipeline.parse_drops, 1);
        assert_eq!(a.tm, b.tm);
        assert_eq!(stepped.sm.mem_accesses, reference.sm.mem_accesses);
    }

    #[test]
    fn configured_port_count_reaches_the_tm() {
        // Regression: `IpbmConfig { ports: 16 }` used to get a TM with the
        // default 8 queues, aliasing egress ports modulo 8.
        let mut sw = IpbmSwitch::new(IpbmConfig {
            ports: 16,
            ..Default::default()
        });
        let mut a = ipv4_udp_packet(&Ipv4UdpSpec::default());
        a.meta.egress_port = Some(12);
        let mut b = ipv4_udp_packet(&Ipv4UdpSpec::default());
        b.meta.egress_port = Some(4);
        sw.pm.tm.enqueue(a);
        sw.pm.tm.enqueue(b);
        assert_eq!(sw.pm.tm.port_depth(12), 1);
        assert_eq!(sw.pm.tm.port_depth(4), 1);
    }

    #[test]
    fn batch_path_matches_interpreter_on_minimal_switch() {
        let mut interp = minimal_switch();
        let mut fast = minimal_switch();
        let specs = [0x0a010101u32, 0x0b010101, 0x0a020304];
        for sw in [&mut interp, &mut fast] {
            for dst in specs {
                sw.inject(ipv4_udp_packet(&Ipv4UdpSpec {
                    dst_ip: dst,
                    ..Default::default()
                }));
            }
        }
        let out_i = interp.run();
        let out_f = fast.run_batch();
        assert!(fast.pm.has_compiled());
        assert_eq!(out_i, out_f);
        assert_eq!(interp.report().pipeline, fast.report().pipeline);
        assert_eq!(interp.report().tm, fast.report().tm);
        assert_eq!(interp.sm.mem_accesses, fast.sm.mem_accesses);
    }

    #[test]
    fn burst_batch_matches_per_packet_batch() {
        // The interpreter reference (`run`) against the compiled drain.
        let mut per_pkt = minimal_switch();
        let mut burst = minimal_switch();
        // More than two RX_BURSTs, with drops interleaved.
        let inject_wave = |sw: &mut IpbmSwitch, salt: u32| {
            for i in 0..150u32 {
                let dst = if i % 3 == 0 {
                    0x0b01_0101 // unrouted -> no-route drop
                } else {
                    0x0a01_0000 + i + salt
                };
                sw.inject(ipv4_udp_packet(&Ipv4UdpSpec {
                    dst_ip: dst,
                    ..Default::default()
                }));
            }
        };
        inject_wave(&mut per_pkt, 0);
        inject_wave(&mut burst, 0);
        let out_a = per_pkt.run();
        let mut out_b = Vec::new();
        assert_eq!(burst.run_batch_into(&mut out_b), out_a.len());
        assert_eq!(out_a, out_b);
        assert_eq!(per_pkt.report().pipeline, burst.report().pipeline);
        assert_eq!(per_pkt.report().tm, burst.report().tm);

        // Second wave through the same reused output buffer.
        inject_wave(&mut per_pkt, 1000);
        inject_wave(&mut burst, 1000);
        let out_a2 = per_pkt.run();
        out_b.clear();
        assert_eq!(burst.run_batch_into(&mut out_b), out_a2.len());
        assert_eq!(out_a2, out_b);
        assert!(burst.pm.has_compiled());
        assert_eq!(per_pkt.report().pipeline, burst.report().pipeline);
    }

    #[test]
    fn control_write_invalidates_compiled_path() {
        let mut sw = minimal_switch();
        sw.inject(ipv4_udp_packet(&Ipv4UdpSpec {
            dst_ip: 0x0a010101,
            ..Default::default()
        }));
        sw.run_batch();
        assert!(sw.pm.has_compiled());
        let epoch = sw.pm.epoch();
        sw.apply(&[ControlMsg::AddEntry {
            table: "route".into(),
            entry: TableEntry {
                key: vec![ipsa_core::table::KeyMatch::Lpm {
                    value: 0x0b000000,
                    prefix_len: 8,
                }],
                priority: 0,
                action: ActionCall::new("fwd", vec![7]),
                counter: 0,
            },
        }])
        .unwrap();
        assert!(!sw.pm.has_compiled());
        assert!(sw.pm.epoch() > epoch);
        // The rebuilt path sees the new route.
        sw.inject(ipv4_udp_packet(&Ipv4UdpSpec {
            dst_ip: 0x0b010101,
            ..Default::default()
        }));
        let out = sw.run_batch();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].meta.egress_port, Some(7));
    }

    #[test]
    fn install_from_empty_design_is_clean() {
        let mut sw = IpbmSwitch::new(IpbmConfig::default());
        let design = CompiledDesign::empty("blank", 32);
        let r = sw.install(&design).unwrap();
        assert!(r.msgs > 0);
        assert_eq!(sw.report().active_tsps, 0);
    }

    /// Digest of every control-plane component, minus the epoch counter
    /// (a revert legitimately opens a new epoch over identical bytes).
    fn state_digest(sw: &IpbmSwitch) -> String {
        format!(
            "{};{};{:?};{:?};{:?};{}",
            serde_json::to_string(&sw.pm.slots.iter().map(|s| &s.template).collect::<Vec<_>>())
                .unwrap(),
            serde_json::to_string(&sw.pm.selector).unwrap(),
            sw.pm.draining,
            sw.sm.metadata,
            sw.sm.table_names(),
            serde_json::to_string(&sw.sm.pool).unwrap(),
        )
    }

    #[test]
    fn staged_revert_rewinds_every_batch() {
        let mut sw = minimal_switch();
        let before = state_digest(&sw);
        sw.begin_staged().unwrap();
        assert!(sw.staged_open());
        // Two separate batches under one transaction: an entry add, then a
        // structural change (new template in a fresh slot).
        sw.apply(&[ControlMsg::AddEntry {
            table: "route".into(),
            entry: TableEntry {
                key: vec![ipsa_core::table::KeyMatch::Lpm {
                    value: 0x0b000000,
                    prefix_len: 8,
                }],
                priority: 0,
                action: ActionCall::new("fwd", vec![5]),
                counter: 0,
            },
        }])
        .unwrap();
        sw.apply(&[ControlMsg::WriteTemplate {
            slot: 1,
            template: TspTemplate::passthrough("staged_p"),
        }])
        .unwrap();
        assert_eq!(sw.staged_batches(), 2);
        assert_ne!(state_digest(&sw), before);
        sw.revert_staged().unwrap();
        assert!(!sw.staged_open());
        assert_eq!(state_digest(&sw), before, "revert must be byte-identical");
        // The reverted design still forwards.
        sw.inject(ipv4_udp_packet(&Ipv4UdpSpec {
            dst_ip: 0x0a010101,
            ..Default::default()
        }));
        assert_eq!(sw.run().len(), 1);
    }

    #[test]
    fn staged_commit_keeps_every_batch() {
        let mut sw = minimal_switch();
        sw.begin_staged().unwrap();
        sw.apply(&[ControlMsg::AddEntry {
            table: "route".into(),
            entry: TableEntry {
                key: vec![ipsa_core::table::KeyMatch::Lpm {
                    value: 0x0b000000,
                    prefix_len: 8,
                }],
                priority: 0,
                action: ActionCall::new("fwd", vec![5]),
                counter: 0,
            },
        }])
        .unwrap();
        sw.commit_staged().unwrap();
        assert!(!sw.staged_open());
        sw.inject(ipv4_udp_packet(&Ipv4UdpSpec {
            dst_ip: 0x0b010101,
            ..Default::default()
        }));
        let out = sw.run();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].meta.egress_port, Some(5));
        // Committed means no longer revertible.
        assert!(sw.revert_staged().is_err());
    }

    #[test]
    fn staged_midbatch_failure_aborts_whole_txn() {
        let mut sw = minimal_switch();
        let before = state_digest(&sw);
        sw.begin_staged().unwrap();
        sw.apply(&[ControlMsg::WriteTemplate {
            slot: 1,
            template: TspTemplate::passthrough("staged_p"),
        }])
        .unwrap();
        // Second batch fails on its second message: the abort must rewind
        // the first batch too, not just this one.
        let err = sw
            .apply(&[
                ControlMsg::DefineMetadata(vec![("mx".into(), 8)]),
                ControlMsg::DestroyTable("ghost".into()),
            ])
            .unwrap_err();
        assert!(matches!(err, CoreError::RolledBack { index: 1, .. }));
        assert!(!sw.staged_open(), "failed batch closes the transaction");
        assert_eq!(state_digest(&sw), before);
    }

    #[test]
    fn staged_nesting_and_empty_ops_are_errors() {
        let mut sw = minimal_switch();
        assert!(sw.commit_staged().is_err());
        assert!(sw.revert_staged().is_err());
        sw.begin_staged().unwrap();
        assert!(sw.begin_staged().is_err());
        sw.commit_staged().unwrap();
    }
}
