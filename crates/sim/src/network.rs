//! The cycle-level network simulation engine.
//!
//! [`Network`] executes a [`NetworkSpec`]: input-buffered virtual-channel
//! routers with route computation, virtual-cut-through output-VC allocation,
//! round-robin switch allocation, credit-based flow control, latency-accurate
//! channels, and network interfaces with optional injection bypass.
//!
//! The engine also supports the runtime controls Adapt-NoC needs: atomic
//! routing-table swaps, structural reconfiguration by spec diffing (with
//! quiescence checks so no flit is ever dropped), per-router configuration
//! stalls (`T_s`), router power gating with wake-up latency, and per-router
//! VC usage masks (for the OSCAR baseline's dynamic VC allocation).

use crate::arbiter::MAX_PORTS;
use crate::bitset::BitSet;
use crate::config::SimConfig;
use crate::events::{EventCounts, StaticCycles};
use crate::flit::{Flit, Packet, LA_NONE, NO_PACKET};
use crate::health::{channel_label, GuardMode, HealthCounts, InvariantKind, InvariantViolation};
use crate::ids::{ChannelId, NodeId, PortId, RouterId, Vnet};
use crate::json::Value;
use crate::packets::PacketTable;
use crate::routing::RoutingTables;
use crate::soa::{self, VcLanes};
use crate::spec::{ChannelKey, ChannelKind, NetworkSpec, SpecError};
use crate::stage::{StageScratch, StageSink, StageView};
use crate::stats::{Delivered, EpochReport, NetStats};
use crate::telem::{SimTelemetry, Stage};
use crate::wire::WireRing;
use adaptnoc_telemetry::{Registry, TelemetryMode};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Errors from building or reconfiguring a [`Network`].
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkError {
    /// The spec failed validation.
    Spec(SpecError),
    /// The simulator configuration failed validation.
    Config(String),
    /// Spec and config disagree (e.g. table vnet count).
    Mismatch(String),
    /// The spec's shape exceeds what the simulator holds (a router above
    /// 32 ports, an injection port above 8 NIs), or a reconfiguration
    /// would change an immutable shape property.
    Shape(String),
    /// A channel slated for removal still carries traffic.
    ChannelBusy(ChannelKey),
    /// A router slated for power-off or port change still buffers flits.
    RouterBusy(RouterId),
    /// An NI slated for reattachment is mid-packet.
    NiBusy(NodeId),
    /// A packet was injected for a node with no NI.
    NoSuchNode(NodeId),
    /// A fault operation named a channel the network does not have.
    NoSuchChannel(ChannelKey),
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::Spec(e) => write!(f, "invalid network spec: {e}"),
            NetworkError::Config(m) => write!(f, "invalid sim config: {m}"),
            NetworkError::Mismatch(m) => write!(f, "spec/config mismatch: {m}"),
            NetworkError::Shape(m) => write!(f, "reconfiguration shape change: {m}"),
            NetworkError::ChannelBusy(k) => write!(
                f,
                "channel {}:{} -> {}:{} not quiescent",
                k.src.router, k.src.port, k.dst.router, k.dst.port
            ),
            NetworkError::RouterBusy(r) => write!(f, "router {r} not quiescent"),
            NetworkError::NiBusy(n) => write!(f, "network interface of {n} mid-packet"),
            NetworkError::NoSuchNode(n) => write!(f, "no network interface for node {n}"),
            NetworkError::NoSuchChannel(k) => write!(
                f,
                "no channel {}:{} -> {}:{}",
                k.src.router, k.src.port, k.dst.router, k.dst.port
            ),
        }
    }
}

impl std::error::Error for NetworkError {}

impl From<SpecError> for NetworkError {
    fn from(e: SpecError) -> Self {
        NetworkError::Spec(e)
    }
}

/// Per-router power, configuration and fast-skip state. Everything per
/// port or per VC — wiring, arbiter pointers, buffers, credits — lives in
/// [`VcLanes`] (`Network::lanes`), so a router owns no heap data.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RouterRt {
    pub(crate) active: bool,
    pub(crate) sleeping: bool,
    /// Permanently failed (fault injection): force-slept, excluded from all
    /// stages, never wakes. Survives reconfiguration.
    pub(crate) failed: bool,
    pub(crate) wake_at: u64,
    /// Router stalls all stages until this cycle (the `T_s` setup window).
    pub(crate) config_until: u64,
    pub(crate) vc_split: Option<u8>,
    /// Buffered flit count (fast skip).
    pub(crate) flits: u32,
    /// Ports that are wired (channel or NI); for static power.
    pub(crate) ports_on: u16,
    /// Bitmask of output ports whose channel is faulted (hot-loop cache of
    /// the per-channel `faulted` flags; see `refresh_faulted_out`).
    pub(crate) faulted_out: u32,
}

#[derive(Debug, Clone)]
pub(crate) struct ChannelRt {
    pub(crate) spec: crate::spec::ChannelSpec,
    /// Flits on the wire, oldest first (`Flit::ready_at` = arrival
    /// cycle): this channel's ring in `Network::wires`.
    pub(crate) wire: WireRing,
    /// A faulted channel accepts no new flits (VA and SA skip it).
    pub(crate) faulted: bool,
}

/// Recomputes one router's precomputed VA candidate masks (its
/// per-vnet slice of `Network::va_cand`) from its OSCAR `vc_mask` slice
/// and dateline `vc_split`. Runs at construction and whenever either
/// input changes (`set_vc_mask`, reconfiguration) — i.e. at spec/reconfig
/// time, never on the hot path. Ejection candidates skip the dateline
/// split (consuming a packet cannot close a ring cycle).
fn recompute_va_cand(
    vc_mask: &[u8],
    va_cand: &mut [[u8; 3]],
    vc_split: Option<u8>,
    vcs_per_vnet: u8,
) {
    let full = ((1u16 << vcs_per_vnet) - 1) as u8;
    for (cand, &mask) in va_cand.iter_mut().zip(vc_mask) {
        let m = mask & full;
        *cand = match vc_split {
            None => [m, m, m],
            Some(k) => {
                let lo = ((1u16 << k) - 1) as u8;
                [m & lo, m & !lo, m]
            }
        };
    }
}

/// Recomputes every router's `faulted_out` bitmask from the per-channel
/// fault flags (called whenever a fault flag flips or channels are rewired).
fn refresh_faulted_out(routers: &mut [RouterRt], channels: &[ChannelRt]) {
    for r in routers.iter_mut() {
        r.faulted_out = 0;
    }
    for c in channels {
        if c.faulted {
            routers[c.spec.src.router.index()].faulted_out |= 1 << c.spec.src.port.index();
        }
    }
}

/// Most NIs one injection port serves: the injection arbiter's
/// candidate arrays hold this many (the builders' cmesh concentration
/// puts 4 on a port).
const MAX_PORT_NIS: usize = 8;

/// Refuses a spec whose injection ports carry more than [`MAX_PORT_NIS`]
/// NIs each. `lanes` gives the global port index; it must have the spec's
/// port counts.
fn check_port_nis(spec: &NetworkSpec, lanes: &VcLanes) -> Result<(), NetworkError> {
    let mut count = vec![0usize; lanes.port_router.len()];
    for n in &spec.nis {
        let gp = lanes.gp(n.router.index(), n.port.index());
        count[gp] += 1;
        if count[gp] > MAX_PORT_NIS {
            return Err(NetworkError::Shape(format!(
                "{}:{} carries more than {MAX_PORT_NIS} NIs",
                n.router, n.port
            )));
        }
    }
    Ok(())
}

/// Refuses more VCs than a VC buffer's ring field can name
/// ([`soa::MAX_VCS`]).
fn check_vc_count(port_counts: &[usize], total_vcs: usize) -> Result<(), NetworkError> {
    let vcs = port_counts.iter().sum::<usize>() * total_vcs;
    if vcs > soa::MAX_VCS {
        return Err(NetworkError::Shape(format!(
            "{vcs} VCs, at most {} fit the ring pool's ids",
            soa::MAX_VCS
        )));
    }
    Ok(())
}

/// Folds an epoch window into a run total. The total keeps the buffer
/// capacity it was built with, the network's at construction, where
/// [`NetStats::accumulate`] would take the larger of the two.
fn fold_stats(total: &mut NetStats, window: &NetStats) {
    let capacity = total.buffer_capacity;
    total.accumulate(window);
    total.buffer_capacity = capacity;
}

/// Lays the channels' wire rings out back to back in channel order, each
/// with `cap(channel)` slots, and returns the arena they index (see
/// [`crate::wire`]).
fn layout_wires(channels: &mut [ChannelRt], cap: impl Fn(usize) -> usize) -> Vec<Flit> {
    let mut base = 0;
    for (ci, c) in channels.iter_mut().enumerate() {
        let n = cap(ci);
        c.wire = WireRing::new(base, n);
        base += n;
    }
    vec![soa::filler(); base]
}

/// A packet mid-serialization into the router: flits are synthesized on
/// demand from the packet's table handle ([`Flit::new`] is pure), so
/// streaming holds no per-packet heap allocation.
#[derive(Debug, Clone)]
struct NiStream {
    /// Target input VC (global index within the port).
    vc: u8,
    /// The packet's slot in `Network::packets`.
    pkt: u32,
    /// Packet length in flits.
    len: u8,
    /// Flits already injected (< `len`).
    sent: u8,
}

impl NiStream {
    fn remaining(&self) -> u64 {
        (self.len - self.sent) as u64
    }
}

#[derive(Debug, Clone)]
struct NiRt {
    spec: crate::spec::NiSpec,
    source_q: VecDeque<Packet>,
    /// The packet currently streaming into the router, if any.
    cur: Option<NiStream>,
    /// While paused the NI queues packets but injects nothing (used by the
    /// drain phase of cmesh reconfigurations).
    paused: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct StaticProfile {
    mesh_link_mm: f64,
    adapt_link_mm: f64,
    conc_link_mm: f64,
    interchip_link_mm: f64,
}

/// The cycle-level network simulator.
///
/// # Examples
///
/// ```
/// use adaptnoc_sim::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Two routers connected by a pair of channels, one node on each.
/// let mut spec = NetworkSpec::new(2, 2, 2);
/// let a = PortRef::new(RouterId(0), PortId(0));
/// let b = PortRef::new(RouterId(1), PortId(1));
/// spec.add_channel(mesh_channel(a, b));
/// spec.add_channel(mesh_channel(b, a));
/// spec.add_ni(NiSpec::local(NodeId(0), RouterId(0), LOCAL_PORT));
/// spec.add_ni(NiSpec::local(NodeId(1), RouterId(1), LOCAL_PORT));
/// for v in 0..2 {
///     spec.tables.set(Vnet(v), RouterId(0), NodeId(0), LOCAL_PORT);
///     spec.tables.set(Vnet(v), RouterId(0), NodeId(1), PortId(0));
///     spec.tables.set(Vnet(v), RouterId(1), NodeId(1), LOCAL_PORT);
///     spec.tables.set(Vnet(v), RouterId(1), NodeId(0), PortId(1));
/// }
/// let mut net = Network::new(spec, SimConfig::baseline())?;
/// net.inject(Packet::request(1, NodeId(0), NodeId(1), 0))?;
/// let mut delivered = Vec::new();
/// for _ in 0..50 {
///     net.step();
///     delivered.extend_from_slice(net.delivered());
/// }
/// assert_eq!(delivered.len(), 1);
/// assert_eq!(delivered[0].hops, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    cfg: SimConfig,
    /// The live spec, shared behind an `Arc` so reconfiguration controllers
    /// can hand the network a prebuilt spec without deep-copying it.
    spec: Arc<NetworkSpec>,
    now: u64,
    routers: Vec<RouterRt>,
    /// Flat per-VC state (buffers, credits, routes, allocations); see
    /// [`crate::soa`] for the index scheme.
    lanes: VcLanes,
    /// Per-(router, vnet) usable-VC bitmask (OSCAR dynamic VC
    /// allocation), index `router * vnets + vnet`.
    vc_mask: Vec<u8>,
    /// Per-(router, vnet) precomputed VA candidate masks, indexed like
    /// `vc_mask`, each `[class 0, class != 0, ejection]`: the OSCAR mask
    /// intersected with the router's dateline `vc_split` rule for each
    /// requester kind, so the hot-loop output-VC pick is pure mask
    /// arithmetic. Recomputed by [`recompute_va_cand`] whenever the mask
    /// or split changes.
    va_cand: Vec<[u8; 3]>,
    /// One slot per packet with flits inside the network; flits carry
    /// handles into it (see [`crate::packets`]).
    packets: PacketTable,
    channels: Vec<ChannelRt>,
    /// The wire arena: every channel's ring of in-flight flits (see
    /// [`crate::wire`]), laid out in channel order.
    wires: Vec<Flit>,
    nis: Vec<NiRt>,
    node_ni: Vec<Option<usize>>,
    /// The most recent step's deliveries; each step clears it first.
    delivered: Vec<Delivered>,
    /// Statistics of the current epoch window; [`take_epoch`](Self::take_epoch)
    /// folds them into `stats_total`, like the three pairs below.
    stats: NetStats,
    stats_total: NetStats,
    events: EventCounts,
    events_total: EventCounts,
    statics: StaticCycles,
    statics_total: StaticCycles,
    profile: StaticProfile,
    occupied_flits: u64,
    queued_packets: u64,
    buffer_capacity: u64,
    pending_credits: Vec<(ChannelId, u8)>,
    unroutable: u64,
    router_forwarded: Vec<u64>,
    router_occupancy_sum: Vec<u64>,
    channel_flits: Vec<u64>,
    /// Reusable router-stage sink and scratch (avoid per-cycle allocs).
    sink: StageSink,
    stage_scratch: StageScratch,
    /// Double buffer for `pending_credits` (avoids a per-cycle alloc).
    credits_scratch: Vec<(ChannelId, u8)>,
    tracer: Option<crate::trace::TraceBuffer>,
    /// Fault state by channel identity; survives reconfiguration (flags are
    /// re-applied to kept channels when the spec is swapped).
    faulted_keys: HashSet<ChannelKey>,
    /// Channels with flits on the wire, by channel index. Like the two
    /// sets below it is exact at every cycle boundary: every site that
    /// fills a component sets its bit and every site that empties one
    /// clears it (checked by the Worklist guard).
    busy_channels: BitSet,
    /// Routers with buffered flits, by router index.
    busy_routers: BitSet,
    /// Sleeping, unfailed routers with a finite wake deadline, by router
    /// index.
    pending_wakes: BitSet,
    /// Injection ports whose NIs hold queued or mid-stream packets, by
    /// global port index (`VcLanes::gp`).
    active_inj: BitSet,
    /// Flits currently on wires (O(1) `in_flight`).
    wire_flits: u64,
    /// Flits of packets mid-stream inside NIs (O(1) `in_flight`).
    ni_stream_flits: u64,
    /// Static-power on/off/port counts need recomputing (power state or
    /// wiring changed since last cycle).
    statics_dirty: bool,
    static_on: u64,
    static_off: u64,
    static_ports_on: u64,
    /// Invariant-guard mode (see [`crate::health`]).
    guard_mode: GuardMode,
    /// Guard counters for the current epoch window.
    health: HealthCounts,
    /// Guard counters accumulated across past epochs.
    health_total: HealthCounts,
    /// Violations from the most recent guard sweep that found any.
    last_violations: Vec<InvariantViolation>,
    /// Write generation of the state [`check_invariants`](Self::check_invariants)
    /// reads. `step` bumps it unless it starts with `busy_routers`,
    /// `busy_channels`, `active_inj`, `pending_wakes` and
    /// `pending_credits` all empty — such a step writes nothing the sweep
    /// reads. Every other `&mut self` method bumps it on entry, except the
    /// observation-only ones: `take_epoch`, `count_rl_inference`,
    /// `count_dropped`, `set_tracer`, `tracer_mut`, `set_telemetry_mode`
    /// and `telemetry_mut`. A new method that writes guard-read state must
    /// bump it too (the `guard_memo` unit test lists every method).
    guard_gen: u64,
    /// The `guard_gen` of the last sweep that came back clean: a due
    /// `Sampled` check at that generation reuses the clean verdict
    /// instead of sweeping unchanged state again.
    guard_clean: Option<u64>,
    /// Guard sweeps actually run (a reused verdict is not one).
    #[cfg(test)]
    sweeps: u64,
    /// Telemetry harness; `None` under [`TelemetryMode::Off`], so disabled
    /// telemetry costs one branch per instrumentation site (see
    /// [`crate::telem`]).
    telem: Option<Box<SimTelemetry>>,
}

impl Network {
    /// Builds a network from a validated spec and configuration.
    ///
    /// The run-time modes come from the environment: `ADAPTNOC_GUARDS`
    /// (default `sampled:1024`) and `ADAPTNOC_TELEMETRY` (default `off`),
    /// both in the [`Cadence`](adaptnoc_telemetry::Cadence) grammar.
    /// [`set_guard_mode`](Self::set_guard_mode) and
    /// [`set_telemetry_mode`](Self::set_telemetry_mode) override them
    /// afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] if the spec or configuration is invalid,
    /// they disagree (vnet counts, VC-split out of range) or the spec
    /// exceeds the port and NI masks or 2^24 VCs ([`NetworkError::Shape`]), or
    /// [`NetworkError::Config`] naming the variable if either mode
    /// variable is set but malformed.
    pub fn new(spec: NetworkSpec, cfg: SimConfig) -> Result<Self, NetworkError> {
        cfg.validate().map_err(NetworkError::Config)?;
        let guard_mode = GuardMode::from_env("ADAPTNOC_GUARDS", GuardMode::Sampled(1024))
            .map_err(NetworkError::Config)?;
        let telemetry_mode = TelemetryMode::from_env("ADAPTNOC_TELEMETRY", TelemetryMode::Off)
            .map_err(NetworkError::Config)?;
        spec.validate()?;
        if spec.tables.vnets() != cfg.vnets as usize {
            return Err(NetworkError::Mismatch(format!(
                "tables cover {} vnets, config has {}",
                spec.tables.vnets(),
                cfg.vnets
            )));
        }
        for (i, r) in spec.routers.iter().enumerate() {
            if r.n_ports as usize > MAX_PORTS {
                return Err(NetworkError::Shape(format!(
                    "router {i} has {} ports, at most {MAX_PORTS} fit the port masks",
                    r.n_ports
                )));
            }
            if let Some(k) = r.vc_split {
                if k == 0 || k >= cfg.vcs_per_vnet {
                    return Err(NetworkError::Mismatch(format!(
                        "router {i} vc_split {k} out of range for {} VCs/vnet",
                        cfg.vcs_per_vnet
                    )));
                }
            }
        }

        let total_vcs = cfg.total_vcs();
        let port_counts: Vec<usize> = spec.routers.iter().map(|r| r.n_ports as usize).collect();
        check_vc_count(&port_counts, total_vcs)?;
        let mut lanes = VcLanes::new(&port_counts, total_vcs, cfg.vc_depth as usize);
        check_port_nis(&spec, &lanes)?;
        lanes.wire(&spec);
        let routers: Vec<RouterRt> = spec
            .routers
            .iter()
            .map(|r| RouterRt {
                active: r.active,
                sleeping: false,
                failed: false,
                wake_at: 0,
                config_until: 0,
                vc_split: r.vc_split,
                flits: 0,
                ports_on: 0,
                faulted_out: 0,
            })
            .collect();
        let vnets = cfg.vnets as usize;
        let vc_mask = vec![u8::MAX; routers.len() * vnets];
        let mut va_cand = vec![[0; 3]; routers.len() * vnets];
        for (ri, r) in routers.iter().enumerate() {
            let at = ri * vnets..(ri + 1) * vnets;
            recompute_va_cand(
                &vc_mask[at.clone()],
                &mut va_cand[at],
                r.vc_split,
                cfg.vcs_per_vnet,
            );
        }

        let mut channels: Vec<ChannelRt> = spec
            .channels
            .iter()
            .map(|c| ChannelRt {
                spec: *c,
                wire: WireRing::default(),
                faulted: false,
            })
            .collect();
        let wires = layout_wires(&mut channels, |ci| spec.channels[ci].latency as usize);

        let mut node_ni = vec![None; spec.num_nodes];
        let nis: Vec<NiRt> = spec
            .nis
            .iter()
            .map(|n| NiRt {
                spec: *n,
                source_q: VecDeque::new(),
                cur: None,
                paused: false,
            })
            .collect();
        for (i, n) in spec.nis.iter().enumerate() {
            node_ni[n.node.index()] = Some(i);
        }

        let telem = telemetry_mode
            .is_active()
            .then(|| Box::new(SimTelemetry::new(telemetry_mode)));
        let worklists = (channels.len(), routers.len(), lanes.port_router.len());
        let mut net = Network {
            cfg,
            spec: Arc::new(spec),
            now: 0,
            routers,
            lanes,
            vc_mask,
            va_cand,
            packets: PacketTable::default(),
            channels,
            wires,
            nis,
            node_ni,
            delivered: Vec::new(),
            stats: NetStats::default(),
            stats_total: NetStats::default(),
            events: EventCounts::default(),
            events_total: EventCounts::default(),
            statics: StaticCycles::default(),
            statics_total: StaticCycles::default(),
            profile: StaticProfile::default(),
            occupied_flits: 0,
            queued_packets: 0,
            buffer_capacity: 0,
            pending_credits: Vec::new(),
            unroutable: 0,
            router_forwarded: Vec::new(),
            router_occupancy_sum: Vec::new(),
            channel_flits: Vec::new(),
            sink: StageSink::default(),
            stage_scratch: StageScratch::default(),
            credits_scratch: Vec::new(),
            tracer: None,
            faulted_keys: HashSet::new(),
            busy_channels: BitSet::new(worklists.0),
            busy_routers: BitSet::new(worklists.1),
            pending_wakes: BitSet::new(worklists.1),
            active_inj: BitSet::new(worklists.2),
            wire_flits: 0,
            ni_stream_flits: 0,
            statics_dirty: true,
            static_on: 0,
            static_off: 0,
            static_ports_on: 0,
            guard_mode,
            health: HealthCounts::default(),
            health_total: HealthCounts::default(),
            last_violations: Vec::new(),
            guard_gen: 0,
            guard_clean: None,
            #[cfg(test)]
            sweeps: 0,
            telem,
        };
        net.router_forwarded = vec![0; net.routers.len()];
        net.router_occupancy_sum = vec![0; net.routers.len()];
        net.channel_flits = vec![0; net.channels.len()];
        net.recompute_static_profile();
        net.buffer_capacity = net.compute_buffer_capacity();
        net.stats.buffer_capacity = net.buffer_capacity;
        net.stats_total.buffer_capacity = net.buffer_capacity;
        Ok(net)
    }

    fn compute_buffer_capacity(&self) -> u64 {
        let active = (0..self.routers.len()).filter(|&ri| self.routers[ri].active);
        let ports: u64 = active.map(|ri| self.lanes.n_ports(ri) as u64).sum();
        ports * self.cfg.port_buffer_flits() as u64
    }

    fn recompute_static_profile(&mut self) {
        let mut p = StaticProfile::default();
        for c in &self.spec.channels {
            let mm = c.length_mm as f64;
            match c.kind {
                ChannelKind::Mesh | ChannelKind::Express => p.mesh_link_mm += mm,
                ChannelKind::Adaptable | ChannelKind::AdaptableReversed => p.adapt_link_mm += mm,
                ChannelKind::Concentration => p.conc_link_mm += mm,
                ChannelKind::InterChip => p.interchip_link_mm += mm,
            }
        }
        for ni in &self.spec.nis {
            if ni.concentration {
                p.conc_link_mm += ni.link_mm as f64;
            }
        }
        self.profile = p;
        // Per-router wired-port counts: a port with an NI ejects too.
        let lanes = &self.lanes;
        for (ri, r) in self.routers.iter_mut().enumerate() {
            let gp0 = lanes.gp(ri, 0);
            let wired = (0..lanes.n_ports(ri)).filter(|&pi| {
                lanes.feeder[gp0 + pi].is_some()
                    || lanes.out_channel[gp0 + pi].is_some()
                    || lanes.eject_out[ri] & (1 << pi) != 0
            });
            r.ports_on = if r.active { wired.count() as u16 } else { 0 };
        }
        self.statics_dirty = true;
    }

    /// Current simulation cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The current network spec.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Number of packets that hit a missing routing entry (should stay 0 in
    /// a correct configuration; exposed for tests and assertions).
    pub fn unroutable_events(&self) -> u64 {
        self.unroutable
    }

    /// Hands a packet to the source node's network interface. The packet's
    /// `created_at` is stamped with the current cycle.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::NoSuchNode`] if the source has no NI.
    pub fn inject(&mut self, mut packet: Packet) -> Result<(), NetworkError> {
        self.guard_gen += 1;
        let ni = self
            .node_ni
            .get(packet.src.index())
            .copied()
            .flatten()
            .ok_or(NetworkError::NoSuchNode(packet.src))?;
        packet.created_at = self.now;
        self.nis[ni].source_q.push_back(packet);
        self.queued_packets += 1;
        self.stats.packets_offered += 1;
        self.sync_inj_port(ni);
        Ok(())
    }

    /// Sets or clears the bit of the injection port an NI feeds in the
    /// injection set, by whether the port's NIs have work.
    fn sync_inj_port(&mut self, ni_id: usize) {
        let spec = self.nis[ni_id].spec;
        let gp = self.lanes.gp(spec.router.index(), spec.port.index());
        if self.port_has_ni_work(gp) {
            self.active_inj.insert(gp);
        } else {
            self.active_inj.remove(gp);
        }
    }

    /// Whether any NI on injection port `gp` holds queued or mid-stream
    /// packets.
    fn port_has_ni_work(&self, gp: usize) -> bool {
        self.lanes.port_nis(gp).iter().any(|&ni| {
            let n = &self.nis[ni as usize];
            n.cur.is_some() || !n.source_q.is_empty()
        })
    }

    /// The packets delivered by the most recent step, in ejection order.
    /// The next step replaces them: a caller that wants history keeps its
    /// own copy, and one that only counts reads [`totals`](Self::totals).
    pub fn delivered(&self) -> &[Delivered] {
        &self.delivered
    }

    /// Total flits currently inside the network (buffers + channels), plus
    /// packets waiting in NI source queues. Zero means fully drained.
    /// O(1): maintained incrementally by the step and purge paths.
    pub fn in_flight(&self) -> u64 {
        self.occupied_flits + self.wire_flits + self.ni_stream_flits + self.queued_packets
    }

    /// Recounts `in_flight` from first principles (O(channels + NIs));
    /// exposed so equivalence tests can validate the incremental counters.
    pub fn in_flight_recount(&self) -> u64 {
        let channel_flits: u64 = self.channels.iter().map(|c| c.wire.len() as u64).sum();
        let ni_flits: u64 = self
            .nis
            .iter()
            .map(|n| n.cur.as_ref().map_or(0, NiStream::remaining))
            .sum();
        self.occupied_flits + channel_flits + ni_flits + self.queued_packets
    }

    /// Replaces the routing tables atomically.
    ///
    /// # Panics
    ///
    /// Panics if the table dimensions do not match the network.
    pub fn install_tables(&mut self, tables: RoutingTables) {
        self.guard_gen += 1;
        assert_eq!(tables.vnets(), self.cfg.vnets as usize, "vnet count");
        assert_eq!(tables.routers(), self.routers.len(), "router count");
        assert_eq!(tables.nodes(), self.spec.num_nodes, "node count");
        Arc::make_mut(&mut self.spec).tables = tables;
        self.invalidate_lookahead();
    }

    /// Clears the lookahead port carried by every flit in flight — buffered
    /// (every router holding flits is in the busy-router set) or on a wire
    /// (likewise the busy-channel set) — so each head walks the tables at
    /// its next RC. Called whenever the routing tables change.
    fn invalidate_lookahead(&mut self) {
        for ri in self.busy_routers.iter() {
            self.lanes.clear_lookahead(ri);
        }
        for ci in self.busy_channels.iter() {
            let (a, b) = self.channels[ci].wire.as_mut_slices(&mut self.wires);
            for f in a.iter_mut().chain(b) {
                f.la_port = LA_NONE;
            }
        }
    }

    /// Stalls a router's RC/VA/SA stages for `cycles` cycles, modeling the
    /// `T_s` connection-setup window during which the routing table is
    /// unavailable (Sec. IV-A).
    pub fn begin_router_config(&mut self, router: RouterId, cycles: u64) {
        self.guard_gen += 1;
        let r = &mut self.routers[router.index()];
        r.config_until = r.config_until.max(self.now + cycles);
    }

    /// Sets the usable-VC bitmask for a router and vnet (OSCAR dynamic VC
    /// allocation). Bit `i` allows VC `i` of the vnet. At least one VC must
    /// remain usable.
    ///
    /// # Panics
    ///
    /// Panics if the mask would disable all VCs of the vnet.
    pub fn set_vc_mask(&mut self, router: RouterId, vnet: Vnet, mask: u8) {
        self.guard_gen += 1;
        let usable = (0..self.cfg.vcs_per_vnet).any(|v| mask & (1 << v) != 0);
        assert!(usable, "vc mask must keep at least one VC usable");
        let vnets = self.cfg.vnets as usize;
        let at = router.index() * vnets..(router.index() + 1) * vnets;
        self.vc_mask[at.start + vnet.index()] = mask;
        let split = self.routers[router.index()].vc_split;
        recompute_va_cand(
            &self.vc_mask[at.clone()],
            &mut self.va_cand[at],
            split,
            self.cfg.vcs_per_vnet,
        );
    }

    /// Attempts to power-gate a router (FTBY_PG). Fails if the router still
    /// buffers flits or holds output-VC allocations.
    pub fn try_sleep_router(&mut self, router: RouterId) -> bool {
        self.guard_gen += 1;
        let ri = router.index();
        let gv_lo = self.lanes.gv(ri, 0, 0);
        let gv_hi = gv_lo + self.lanes.n_ports(ri) * self.cfg.total_vcs();
        let r = &mut self.routers[ri];
        if !r.active || r.sleeping {
            return false;
        }
        if r.flits > 0 || self.lanes.alloc[gv_lo..gv_hi].iter().any(|a| a.is_some()) {
            return false;
        }
        r.sleeping = true;
        r.wake_at = u64::MAX;
        self.statics_dirty = true;
        true
    }

    /// Whether the router is currently power-gated.
    pub fn is_sleeping(&self, router: RouterId) -> bool {
        self.routers[router.index()].sleeping
    }

    /// Begins waking a sleeping router; it resumes after the configured
    /// wake-up latency.
    pub fn wake_router(&mut self, router: RouterId) {
        self.guard_gen += 1;
        let wake_latency = self.cfg.wake_latency as u64;
        let now = self.now;
        let r = &mut self.routers[router.index()];
        if r.sleeping && !r.failed {
            r.wake_at = r.wake_at.min(now + wake_latency);
            self.pending_wakes.insert(router.index());
        }
    }

    /// Number of flits buffered in a router.
    pub fn router_flits(&self, router: RouterId) -> u32 {
        self.routers[router.index()].flits
    }

    /// Pauses or resumes a node's NI. A paused NI still accepts and queues
    /// packets (and finishes the packet it is mid-way through) but starts no
    /// new injection — the drain mechanism for reconfigurations that move
    /// NI attachments (Sec. II-C1).
    ///
    /// # Panics
    ///
    /// Panics if the node has no NI.
    pub fn set_ni_paused(&mut self, node: NodeId, paused: bool) {
        self.guard_gen += 1;
        let idx = self.node_ni[node.index()].expect("node has no NI");
        self.nis[idx].paused = paused;
    }

    /// Whether a node's NI is idle (not mid-packet).
    ///
    /// # Panics
    ///
    /// Panics if the node has no NI.
    pub fn ni_idle(&self, node: NodeId) -> bool {
        let idx = self.node_ni[node.index()].expect("node has no NI");
        self.nis[idx].cur.is_none()
    }

    /// Packets waiting in a node's NI source queue.
    ///
    /// # Panics
    ///
    /// Panics if the node has no NI.
    pub fn ni_queue_len(&self, node: NodeId) -> usize {
        let idx = self.node_ni[node.index()].expect("node has no NI");
        self.nis[idx].source_q.len()
    }

    /// Whether a channel (identified by endpoints) and its surrounding state
    /// are quiescent: nothing in flight on the wire, no upstream packet
    /// mid-stream across it, and the downstream input VCs it feeds are empty.
    /// This is the precondition for removing the channel during
    /// reconfiguration.
    pub fn channel_quiescent(&self, key: ChannelKey) -> bool {
        let Some(idx) = self.channels.iter().position(|c| c.spec.key() == key) else {
            return true; // not present: trivially quiescent
        };
        if !self.channels[idx].wire.is_empty() {
            return false;
        }
        let total_vcs = self.cfg.total_vcs();
        let up_gv = self
            .lanes
            .gv(key.src.router.index(), key.src.port.index(), 0);
        if self.lanes.alloc[up_gv..up_gv + total_vcs]
            .iter()
            .any(|a| a.is_some())
        {
            return false;
        }
        let down_gv = self
            .lanes
            .gv(key.dst.router.index(), key.dst.port.index(), 0);
        self.lanes.bufs[down_gv..down_gv + total_vcs]
            .iter()
            .all(|b| b.len() == 0)
    }

    /// Takes the statistics, events, and static-power accumulators gathered
    /// since the previous call (or construction), resetting the epoch window.
    pub fn take_epoch(&mut self) -> EpochReport {
        let mut stats = std::mem::take(&mut self.stats);
        stats.buffer_capacity = self.buffer_capacity;
        self.stats.buffer_capacity = self.buffer_capacity;
        fold_stats(&mut self.stats_total, &stats);
        let events = self.events.take();
        let static_cycles = self.statics.take();
        self.events_total.accumulate(&events);
        self.statics_total.accumulate(&static_cycles);
        for v in self.router_forwarded.iter_mut() {
            *v = 0;
        }
        for v in self.router_occupancy_sum.iter_mut() {
            *v = 0;
        }
        for v in self.channel_flits.iter_mut() {
            *v = 0;
        }
        let mut health = self.health.take();
        health.sample_interval = self.guard_mode.interval();
        self.health_total.accumulate(&health);
        let report = EpochReport {
            stats,
            events,
            static_cycles,
            health,
        };
        let in_flight = self.in_flight();
        if let Some(t) = self.telem.as_mut() {
            t.flush_epoch(&report, in_flight);
        }
        report
    }

    /// Per-router flits forwarded in the current epoch window (reset by
    /// [`take_epoch`](Self::take_epoch)); used to build per-subNoC RL state.
    pub fn router_forwarded_epoch(&self) -> &[u64] {
        &self.router_forwarded
    }

    /// Per-router sum over cycles of buffered flits in the current epoch
    /// window (reset by [`take_epoch`](Self::take_epoch)).
    pub fn router_occupancy_epoch(&self) -> &[u64] {
        &self.router_occupancy_sum
    }

    /// Per-channel flit traversals in the current epoch window (reset by
    /// [`take_epoch`](Self::take_epoch)); index-aligned with
    /// [`spec().channels`](Self::spec). The link-heat view of congestion.
    pub fn channel_flits_epoch(&self) -> &[u64] {
        &self.channel_flits
    }

    /// Records one RL (DQN) inference in the event counters (the RL
    /// controller hardware is part of the NoC power envelope).
    pub fn count_rl_inference(&mut self) {
        self.events.rl_inferences += 1;
    }

    /// Attaches a packet tracer (see [`crate::trace`]). Pass `None` to
    /// disable tracing.
    pub fn set_tracer(&mut self, tracer: Option<crate::trace::TraceBuffer>) {
        self.tracer = tracer;
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&crate::trace::TraceBuffer> {
        self.tracer.as_ref()
    }

    /// Replaces the telemetry harness with a fresh one collecting under
    /// `mode` ([`TelemetryMode::Off`] detaches it entirely). Discards any
    /// metrics collected so far; snapshot the registry first if you need
    /// them. Telemetry is observation-only, so switching modes never
    /// changes simulation behaviour (pinned by the
    /// `telemetry_equivalence` test suite).
    pub fn set_telemetry_mode(&mut self, mode: TelemetryMode) {
        self.telem = mode.is_active().then(|| Box::new(SimTelemetry::new(mode)));
    }

    /// The resolved telemetry mode ([`TelemetryMode::Off`] when no
    /// harness is attached).
    pub fn telemetry_mode(&self) -> TelemetryMode {
        self.telem.as_ref().map_or(TelemetryMode::Off, |t| t.mode())
    }

    /// The telemetry registry, if telemetry is active. Use with the
    /// exporters in [`adaptnoc_telemetry::export`].
    pub fn telemetry(&self) -> Option<&Registry> {
        self.telem.as_ref().map(|t| t.registry())
    }

    /// Mutable telemetry registry access: the fault, guard and RL layers
    /// use this to intern and record their own metrics into the same
    /// registry the simulator flushes epochs into.
    pub fn telemetry_mut(&mut self) -> Option<&mut Registry> {
        self.telem.as_mut().map(|t| t.registry_mut())
    }

    /// Cumulative statistics since construction (not reset by
    /// [`take_epoch`](Self::take_epoch)).
    pub fn totals(&self) -> EpochReport {
        let mut stats = self.stats_total.clone();
        fold_stats(&mut stats, &self.stats);
        let mut events = self.events_total;
        events.accumulate(&self.events);
        let mut static_cycles = self.statics_total;
        static_cycles.accumulate(&self.statics);
        let mut health = self.health_total;
        health.accumulate(&self.health);
        health.sample_interval = health.sample_interval.max(self.guard_mode.interval());
        EpochReport {
            stats,
            events,
            static_cycles,
            health,
        }
    }

    /// Advances the simulation by one cycle.
    pub fn step(&mut self) {
        // A step that starts with every worklist and the credit-return
        // list empty moves nothing: it writes no state the guard sweep
        // reads, so a clean verdict stays valid across it.
        let idle = self.busy_routers.is_empty()
            && self.busy_channels.is_empty()
            && self.active_inj.is_empty()
            && self.pending_wakes.is_empty()
            && self.pending_credits.is_empty();
        if !idle {
            self.guard_gen += 1;
        }
        self.now += 1;
        let now = self.now;
        self.delivered.clear();

        // Telemetry sampling state for this cycle. `timed` means the
        // wall-clock stage spans are taken this cycle (every cycle under
        // Strict, every n-th under Sampled(n)); counters, gauges,
        // histograms and events are exact in every active mode.
        let timed = self.telem.as_ref().is_some_and(|t| t.timed_cycle(now));

        self.step_wake(now);
        self.step_credits();
        self.step_deliver(now, timed);
        self.step_inject(now, timed);

        // Router stages: RC + VA + SA (span-timed internally when `timed`,
        // split into RC+VA and SA+ST components).
        self.router_stage(now, timed);

        self.step_finish(now);
    }

    /// Wakes routers whose wake-up latency elapsed. The pending-wake set
    /// holds exactly the sleeping, unfailed routers with a finite deadline
    /// (`fail_router` and `reconfigure` remove the routers they take out
    /// of that state), so a member leaves it when it wakes.
    fn step_wake(&mut self, now: u64) {
        let mut dirty = false;
        let routers = &mut self.routers;
        self.pending_wakes.retain(|ri| {
            let r = &mut routers[ri];
            let wake = now >= r.wake_at;
            if wake {
                r.sleeping = false;
                r.wake_at = 0;
                dirty = true;
            }
            !wake
        });
        if dirty {
            self.statics_dirty = true;
        }
    }

    /// Applies credits scheduled last cycle. The drained list is kept as a
    /// double buffer (`credits_scratch`) so no cycle allocates.
    fn step_credits(&mut self) {
        let mut pending = std::mem::replace(
            &mut self.pending_credits,
            std::mem::take(&mut self.credits_scratch),
        );
        for (ch, vc) in pending.drain(..) {
            let spec = self.channels[ch.index()].spec;
            let sri = spec.src.router.index();
            let gp = self.lanes.gp(sri, spec.src.port.index());
            let gv = gp * self.lanes.total_vcs + vc as usize;
            let c = &mut self.lanes.credits[gv];
            debug_assert!(*c < self.cfg.vc_depth, "credit overflow");
            *c = (*c + 1).min(self.cfg.vc_depth);
            // The credit left zero: clear its bit in the port-level
            // zero-credit mask and wake the one input VC (if any) parked
            // on it — this runs before the router stage, so the wake lands
            // the same cycle the scan would have seen the fresh credit.
            if self.lanes.credit_zero[gp] & (1 << vc) != 0 {
                self.lanes.credit_zero[gp] &= !(1 << vc);
                if let Some((pi, vi)) = self.lanes.alloc[gv] {
                    let in_gp = self.lanes.gp(sri, pi as usize);
                    self.lanes.scan[in_gp] |= 1 << vi;
                }
            }
        }
        self.credits_scratch = pending;
    }

    /// Channel deliveries. Cross-channel order is immaterial (each channel
    /// feeds exactly one input port and all shared-counter updates
    /// commute), but the busy set is still walked in ascending index order,
    /// as a scan of every channel would; a wire it empties leaves the set.
    fn step_deliver(&mut self, now: u64, timed: bool) {
        let t0 = if timed {
            Some(std::time::Instant::now())
        } else {
            None
        };
        if !self.busy_channels.is_empty() {
            let mut busy = std::mem::take(&mut self.busy_channels);
            busy.retain(|ci| {
                self.deliver_channel(ci, now);
                !self.channels[ci].wire.is_empty()
            });
            self.busy_channels = busy;
        }
        if let (Some(t0), Some(t)) = (t0, self.telem.as_mut()) {
            t.record_stage_ns(Stage::Link, t0.elapsed().as_nanos() as u64);
        }
    }

    /// NI injection (one flit per local port per cycle).
    fn step_inject(&mut self, now: u64, timed: bool) {
        let t0 = if timed {
            Some(std::time::Instant::now())
        } else {
            None
        };
        self.inject_stage(now);
        if let (Some(t0), Some(t)) = (t0, self.telem.as_mut()) {
            t.record_stage_ns(Stage::NiInject, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Per-cycle statistics, static-power accumulation, and guards.
    fn step_finish(&mut self, now: u64) {
        self.stats.cycles += 1;
        self.stats.buffer_occupancy_sum += self.occupied_flits;
        self.stats.injection_queue_sum += self.queued_packets;

        // Routers with zero flits contribute nothing, so the busy set
        // suffices. The walk also drops the routers this cycle's router
        // stage drained, which leaves the set exact again.
        let (routers, occupancy) = (&self.routers, &mut self.router_occupancy_sum);
        self.busy_routers.retain(|ri| {
            occupancy[ri] += routers[ri].flits as u64;
            routers[ri].flits > 0
        });

        // Static on/off/port counts only change on power/wiring transitions;
        // recompute lazily.
        if self.statics_dirty {
            let mut on = 0u64;
            let mut off = 0u64;
            let mut ports_on = 0u64;
            for r in &self.routers {
                if r.active && !r.sleeping && !r.failed {
                    on += 1;
                    ports_on += r.ports_on as u64;
                } else {
                    off += 1;
                }
            }
            self.static_on = on;
            self.static_off = off;
            self.static_ports_on = ports_on;
            self.statics_dirty = false;
        }
        let s = &mut self.statics;
        s.cycles += 1;
        s.router_on_cycles += self.static_on;
        s.router_off_cycles += self.static_off;
        s.port_on_cycles += self.static_ports_on;
        s.mesh_link_mm_cycles += self.profile.mesh_link_mm;
        s.adapt_link_mm_cycles += self.profile.adapt_link_mm;
        s.conc_link_mm_cycles += self.profile.conc_link_mm;
        s.interchip_link_mm_cycles += self.profile.interchip_link_mm;

        // 6. Invariant guards (see `crate::health`): strict mode sweeps
        // every cycle, sampled mode on a deterministic cycle-keyed cadence.
        // A due sampled check on state unchanged since the last clean
        // sweep (`guard_gen`) counts, and reuses that verdict: the sweep
        // is a pure function of the state it reads.
        match self.guard_mode {
            GuardMode::Off => {}
            GuardMode::Strict => self.run_guard_check(),
            GuardMode::Sampled(n) if n != 0 && now.is_multiple_of(n as u64) => {
                if self.guard_clean == Some(self.guard_gen) {
                    self.health.checks += 1;
                } else {
                    self.run_guard_check();
                }
            }
            GuardMode::Sampled(_) => {}
        }
    }

    /// Delivers every flit whose wire latency elapsed on one channel.
    fn deliver_channel(&mut self, ci: usize, now: u64) {
        let ready = |f: &Flit| soa::ready_reached(f.ready_at, now);
        while let Some(mut flit) = self.channels[ci].wire.pop_if(&self.wires, ready) {
            self.wire_flits -= 1;
            let dst = self.channels[ci].spec.dst;
            flit.ready_at = soa::ready_lo(now + self.cfg.router_latency as u64);
            let ri = dst.router.index();
            let router = &mut self.routers[ri];
            if router.sleeping && !router.failed {
                // Arrival triggers wake-up (drowsy buffers still latch).
                router.wake_at = router.wake_at.min(now + self.cfg.wake_latency as u64);
                self.pending_wakes.insert(ri);
            }
            let vc = flit.assigned_vc as usize;
            let gp = self.lanes.gp(ri, dst.port.index());
            self.lanes
                .push_back(gp * self.cfg.total_vcs() + vc, flit, now);
            self.lanes.occ[gp] |= 1 << vc;
            self.lanes.scan[gp] |= 1 << vc;
            router.flits += 1;
            self.busy_routers.insert(ri);
            self.occupied_flits += 1;
            self.events.buffer_writes += 1;
        }
    }

    /// Runs `cycles` steps. Only the final cycle's deliveries remain
    /// visible through [`delivered`](Self::delivered).
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    fn inject_stage(&mut self, now: u64) {
        // Ports whose NIs hold no packets grant nothing and leave the
        // round-robin pointer untouched, so skipping them is
        // state-equivalent to visiting every port. The set is walked in
        // ascending global-port, i.e. (router, port), order, as such a
        // scan would; a port whose NIs run out of work leaves it.
        if self.active_inj.is_empty() {
            return;
        }
        let mut act = std::mem::take(&mut self.active_inj);
        act.retain(|gp| {
            self.inject_port(gp, now);
            self.port_has_ni_work(gp)
        });
        self.active_inj = act;
    }

    /// Runs injection port `gp`: round-robin among its NIs, at most one
    /// flit per cycle. Routers that are inactive or failed accept nothing.
    fn inject_port(&mut self, gp: usize, now: u64) {
        let (ri, pi) = self.lanes.port_of(gp);
        if !self.routers[ri].active || self.routers[ri].failed {
            return;
        }
        // Which NIs can send a flit this cycle (`check_port_nis` bounds
        // their number).
        let mut ready = [false; MAX_PORT_NIS];
        let nis = self.lanes.port_nis(gp);
        for (k, &ni) in nis.iter().enumerate() {
            ready[k] = self.ni_can_send(ni as usize, ri, pi);
        }
        let n = nis.len();
        if let Some(k) = self.lanes.inj_rr[gp].grant(&ready[..n]) {
            let ni = self.lanes.port_nis(gp)[k] as usize;
            self.ni_send(ni, ri, pi, now);
        }
    }

    fn ni_can_send(&self, ni_id: usize, ri: usize, pi: usize) -> bool {
        let ni = &self.nis[ni_id];
        if ni.paused && ni.cur.is_none() {
            return false;
        }
        if let Some(cur) = &ni.cur {
            if cur.remaining() == 0 {
                return false;
            }
            let gv = self.lanes.gv(ri, pi, cur.vc as usize);
            return self.lanes.buf_len(gv) < self.cfg.vc_depth as usize;
        }
        let Some(pkt) = ni.source_q.front() else {
            return false;
        };
        self.pick_injection_vc(ri, pi, pkt.vnet).is_some()
    }

    fn pick_injection_vc(&self, ri: usize, pi: usize, vnet: Vnet) -> Option<u8> {
        let mask = self.vc_mask[ri * self.cfg.vnets as usize + vnet.index()];
        let gp = self.lanes.gp(ri, pi);
        for (off, gvc) in self.cfg.vnet_vcs(vnet).enumerate() {
            if mask & (1 << off) == 0 {
                continue;
            }
            let gv = gp * self.cfg.total_vcs() + gvc;
            if self.lanes.buf_len(gv) == 0
                && self.lanes.route(gv).is_none()
                && !self.lanes.ni_lock[gv]
            {
                return Some(gvc as u8);
            }
        }
        None
    }

    fn ni_send(&mut self, ni_id: usize, ri: usize, pi: usize, now: u64) {
        // Start a new packet if idle.
        if self.nis[ni_id].cur.is_none() {
            let pkt = self.nis[ni_id].source_q.front().copied();
            let Some(pkt) = pkt else { return };
            let Some(vc) = self.pick_injection_vc(ri, pi, pkt.vnet) else {
                return;
            };
            let _ = self.nis[ni_id].source_q.pop_front(); // front() was Some
            self.queued_packets -= 1;
            self.ni_stream_flits += pkt.len as u64;
            let gv = self.lanes.gv(ri, pi, vc as usize);
            self.lanes.ni_lock[gv] = true;
            // The network owns the packet from here until its tail is
            // ejected or it is purged.
            self.nis[ni_id].cur = Some(NiStream {
                vc,
                pkt: self.packets.alloc(pkt),
                len: pkt.len,
                sent: 0,
            });
        }

        // Synthesize the next flit straight from the handle — no staging
        // buffer, no allocation.
        let (vc, mut flit) = {
            let Some(cur) = self.nis[ni_id].cur.as_mut() else {
                return; // set just above; defensive
            };
            if cur.remaining() == 0 {
                return;
            }
            let f = Flit::new(cur.pkt, cur.sent, cur.len);
            cur.sent += 1;
            (cur.vc, f)
        };
        self.ni_stream_flits -= 1;
        if self.routers[ri].sleeping {
            let wake = now + self.cfg.wake_latency as u64;
            let r = &mut self.routers[ri];
            r.wake_at = r.wake_at.min(wake);
            self.pending_wakes.insert(ri);
        }
        let gp = self.lanes.gp(ri, pi);
        let gv = gp * self.cfg.total_vcs() + vc as usize;
        debug_assert!(self.lanes.buf_len(gv) < self.cfg.vc_depth as usize);
        // Injection bypass: skip the router pipeline delay when the VC is
        // empty (Sec. II-A1: "bypass link at the virtual channels of input
        // port at the NI").
        let bypass = self.cfg.injection_bypass && self.lanes.buf_len(gv) == 0;
        flit.ready_at = soa::ready_lo(if bypass {
            now
        } else {
            now + self.cfg.router_latency as u64
        });
        flit.assigned_vc = vc;
        // Every flit overwrites it, so a delivered packet reports the
        // cycle its *tail* entered the source router.
        self.packets.set_injected_at(flit.pkt, now);
        if flit.pos.is_head() {
            let pkt = self.packets.packet(flit.pkt);
            // First-hop lookahead: resolve the output port at the source
            // router here, so RC at that router is a pre-resolved load.
            flit.la_port = match self
                .spec
                .tables
                .lookup(pkt.vnet, RouterId(ri as u16), pkt.dst)
            {
                Some(p) => p.0,
                None => LA_NONE,
            };
            if let Some(t) = self.tracer.as_mut() {
                t.record(crate::trace::TraceEvent::Injected {
                    packet: pkt.id,
                    cycle: now,
                    src: pkt.src,
                    dst: pkt.dst,
                });
            }
        }
        let is_tail = flit.pos.is_tail();
        self.lanes.push_back(gv, flit, now);
        self.lanes.occ[gp] |= 1 << vc;
        self.lanes.scan[gp] |= 1 << vc;
        self.routers[ri].flits += 1;
        self.busy_routers.insert(ri);
        self.occupied_flits += 1;
        self.events.buffer_writes += 1;
        self.events.ni_injections += 1;
        if bypass {
            self.events.bypass_injections += 1;
        }
        if self.nis[ni_id].spec.concentration {
            self.events.mux_traversals += 1;
        }
        if is_tail {
            self.lanes.ni_lock[gv] = false;
            self.nis[ni_id].cur = None;
        }
    }

    /// Applies the router stage's deferred side effects (see
    /// [`StageSink`]) in walk order and empties the sink for the next
    /// cycle.
    fn apply_stage_sink(&mut self, sink: &mut StageSink) {
        self.events.accumulate(&sink.events);
        sink.events = EventCounts::default();
        self.stats.flits_forwarded += sink.flits_forwarded;
        sink.flits_forwarded = 0;
        self.unroutable += sink.unroutable;
        sink.unroutable = 0;
        self.occupied_flits -= sink.removed;
        sink.removed = 0;
        self.wire_flits += sink.wire_pushed;
        sink.wire_pushed = 0;
        self.pending_credits.append(&mut sink.pending_credits);
        for ci in sink.busy_channels.drain(..) {
            self.busy_channels.insert(ci);
        }
        // The tracer applies its filter and capacity limit here, so the
        // buffered-events detour preserves `dropped` counts exactly.
        if let Some(t) = self.tracer.as_mut() {
            for ev in sink.trace.drain(..) {
                t.record(ev);
            }
        } else {
            sink.trace.clear();
        }
        for e in sink.ejected.drain(..) {
            let left = self.packets.flit_left(e.pkt);
            debug_assert_eq!(left == 0, e.tail, "live-flit count out of step");
            if !e.tail {
                continue;
            }
            let (packet, injected_at) = self.packets.free(e.pkt);
            let d = Delivered {
                packet,
                injected_at,
                ejected_at: self.now,
                hops: e.hops,
            };
            self.stats.record(&d);
            if let Some(t) = self.telem.as_mut() {
                t.on_delivered(&d);
            }
            self.delivered.push(d);
        }
    }

    /// The router stage (RC + VA + SA + ST) over the busy routers,
    /// ascending, through a [`StageView`] of the whole network, followed
    /// by applying its [`StageSink`].
    fn router_stage(&mut self, now: u64, timed: bool) {
        if self.busy_routers.is_empty() {
            // No router holds a flit: skip the view and the sink entirely
            // so the idle fast path stays a handful of branch tests. The
            // zero-valued spans keep per-stage sample counts identical to a
            // loaded cycle's.
            if timed {
                if let Some(t) = self.telem.as_mut() {
                    t.record_stage_ns(Stage::RcVa, 0);
                    t.record_stage_ns(Stage::SaSt, 0);
                    t.record_stage_ns(Stage::Merge, 0);
                }
            }
            return;
        }
        self.sink.trace_on = self.tracer.is_some();
        // The busy set names exactly the routers with buffered flits, and
        // allocation only drains flits, so no router joins it mid-stage.
        let (rc_va_ns, sa_st_ns) = StageView {
            routers: &mut self.routers,
            va_cand: &self.va_cand,
            vnets: self.cfg.vnets as usize,
            occ: &mut self.lanes.occ,
            scan: &mut self.lanes.scan,
            va_rr: &mut self.lanes.va_rr,
            sa_rr: &mut self.lanes.sa_rr,
            lane: &mut self.lanes.lane,
            va_meta: &mut self.lanes.va_meta,
            owner: &mut self.lanes.owner,
            credits: &mut self.lanes.credits,
            alloc: &mut self.lanes.alloc,
            alloc_mask: &mut self.lanes.alloc_mask,
            credit_zero: &mut self.lanes.credit_zero,
            bufs: &mut self.lanes.bufs,
            slots: &self.lanes.slots,
            free_rings: &mut self.lanes.free_rings,
            router_forwarded: &mut self.router_forwarded,
            channels: &mut self.channels,
            wires: &mut self.wires,
            channel_flits: &mut self.channel_flits,
            spec: &self.spec,
            packets: self.packets.slots(),
            port_base: &self.lanes.port_base,
            out_channel: &self.lanes.out_channel,
            feeder: &self.lanes.feeder,
            eject_out: &self.lanes.eject_out,
            total_vcs: self.lanes.total_vcs,
            vcs_per_vnet: self.cfg.vcs_per_vnet as usize,
            depth: self.lanes.depth,
        }
        .run(
            &self.busy_routers,
            now,
            timed,
            &mut self.sink,
            &mut self.stage_scratch,
        );

        let t0 = timed.then(std::time::Instant::now);
        let mut sink = std::mem::take(&mut self.sink);
        self.apply_stage_sink(&mut sink);
        self.sink = sink;
        if let (Some(t0), Some(t)) = (t0, self.telem.as_mut()) {
            t.record_stage_ns(Stage::RcVa, rc_va_ns);
            t.record_stage_ns(Stage::SaSt, sa_st_ns);
            t.record_stage_ns(Stage::Merge, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Structurally reconfigures the network to `new_spec`, preserving all
    /// in-flight traffic.
    ///
    /// Channels present in both specs (same endpoints) keep their in-flight
    /// flits and credit state. Channels being removed must be
    /// [quiescent](Self::channel_quiescent); routers being powered off must
    /// hold no flits; NIs being reattached must not be mid-packet (their
    /// source queues are preserved).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] if the new spec is invalid, changes the
    /// router/node shape, or a quiescence precondition fails.
    pub fn reconfigure(&mut self, new_spec: NetworkSpec) -> Result<(), NetworkError> {
        self.reconfigure_shared(Arc::new(new_spec))
    }

    /// [`reconfigure`](Self::reconfigure) with a shared spec: the network
    /// keeps a reference to `new_spec` instead of copying it, so a
    /// controller that prebuilt the target spec pays O(1) to install it.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] if the new spec is invalid, changes the
    /// router/node shape, puts more NIs on a port than the injection
    /// arbiter serves, or a quiescence precondition fails. A refused
    /// reconfiguration leaves the network untouched.
    pub fn reconfigure_shared(&mut self, new_spec: Arc<NetworkSpec>) -> Result<(), NetworkError> {
        self.guard_gen += 1;
        new_spec.validate()?;
        if new_spec.routers.len() != self.routers.len() {
            return Err(NetworkError::Shape("router count changed".into()));
        }
        if new_spec.num_nodes != self.spec.num_nodes {
            return Err(NetworkError::Shape("node count changed".into()));
        }
        if new_spec.tables.vnets() != self.cfg.vnets as usize {
            return Err(NetworkError::Mismatch("vnet count changed".into()));
        }
        for (i, (old, new)) in self
            .spec
            .routers
            .iter()
            .zip(new_spec.routers.iter())
            .enumerate()
        {
            if old.n_ports != new.n_ports {
                return Err(NetworkError::Shape(format!(
                    "router {i} port count changed"
                )));
            }
            if let Some(k) = new.vc_split {
                if k == 0 || k >= self.cfg.vcs_per_vnet {
                    return Err(NetworkError::Mismatch(format!(
                        "router {i} vc_split {k} out of range"
                    )));
                }
            }
        }

        let old_keys: HashMap<ChannelKey, ChannelId> = self
            .spec
            .channels
            .iter()
            .enumerate()
            .map(|(i, c)| (c.key(), ChannelId(i as u32)))
            .collect();
        let new_keys: HashMap<ChannelKey, ()> =
            new_spec.channels.iter().map(|c| (c.key(), ())).collect();

        // Quiescence checks for removed channels.
        for c in &self.spec.channels {
            if !new_keys.contains_key(&c.key()) && !self.channel_quiescent(c.key()) {
                return Err(NetworkError::ChannelBusy(c.key()));
            }
        }
        // Routers being powered off must be empty.
        for (i, (old, new)) in self
            .spec
            .routers
            .iter()
            .zip(new_spec.routers.iter())
            .enumerate()
        {
            if old.active && !new.active && self.routers[i].flits > 0 {
                return Err(NetworkError::RouterBusy(RouterId(i as u16)));
            }
        }
        check_port_nis(&new_spec, &self.lanes)?;
        // NIs being moved must be idle mid-packet.
        for new_ni in &new_spec.nis {
            if let Some(idx) = self.node_ni[new_ni.node.index()] {
                let old = &self.nis[idx];
                let moved = old.spec.router != new_ni.router || old.spec.port != new_ni.port;
                if moved && old.cur.is_some() {
                    return Err(NetworkError::NiBusy(new_ni.node));
                }
            }
        }

        // ---- Commit point: rebuild runtime structures. ----
        // Credit state is recomputed exactly from wire + buffer occupancy
        // below, so in-flight credit returns (which would double-count)
        // are dropped.
        self.pending_credits.clear();
        let total_vcs = self.cfg.total_vcs();
        let depth = self.cfg.vc_depth;

        // New channels and a new wire arena in new-spec order, carrying
        // over the in-flight flits of kept channels in FIFO order. A kept
        // wire's flits were sent under latencies up to its old capacity,
        // and a wire never holds more flits than the latency its oldest
        // flit was sent under (see `crate::wire`), so a kept ring keeps
        // at least its old capacity even when the new latency is lower.
        let mut new_channels: Vec<ChannelRt> = new_spec
            .channels
            .iter()
            .map(|c| ChannelRt {
                spec: *c,
                wire: WireRing::default(),
                faulted: self.faulted_keys.contains(&c.key()),
            })
            .collect();
        let kept: Vec<Option<WireRing>> = new_spec
            .channels
            .iter()
            .map(|c| {
                old_keys
                    .get(&c.key())
                    .map(|old| self.channels[old.index()].wire)
            })
            .collect();
        let mut new_wires = layout_wires(&mut new_channels, |ci| {
            let latency = new_spec.channels[ci].latency as usize;
            kept[ci].map_or(latency, |old| latency.max(old.cap()))
        });
        for (c, old) in new_channels.iter_mut().zip(&kept) {
            for &f in old.iter().flat_map(|old| old.iter(&self.wires)) {
                c.wire.push(&mut new_wires, f);
            }
        }

        // Rebuild routers (keeping input buffers in place). Every
        // round-robin pointer lives in the lane arrays keyed by global port,
        // and port counts are immutable, so all of them survive unchanged.
        let vnets = self.cfg.vnets as usize;
        for (ri, r) in self.routers.iter_mut().enumerate() {
            let rs = &new_spec.routers[ri];
            r.active = rs.active;
            r.vc_split = rs.vc_split;
            let at = ri * vnets..(ri + 1) * vnets;
            let (mask, cand) = (&self.vc_mask[at.clone()], &mut self.va_cand[at]);
            recompute_va_cand(mask, cand, r.vc_split, self.cfg.vcs_per_vnet);
            if !rs.active {
                r.sleeping = false;
                r.wake_at = 0;
                self.pending_wakes.remove(ri);
            }
        }
        // Output-side lane state is rebuilt from scratch: full credits, no
        // allocations (both restored below from surviving occupancy).
        self.lanes.credits.fill(depth);
        self.lanes.alloc.fill(None);
        self.lanes.alloc_mask.fill(0);

        // Rewire the ports, then recompute every credit from what survived.
        self.lanes.wire(&new_spec);
        self.lanes.recompute_credits(&new_channels, &new_wires);
        refresh_faulted_out(&mut self.routers, &new_channels);

        // Mid-stream allocations: any input VC with an out_vc still set must
        // re-own its output VC at the (possibly rebuilt) output port, and the
        // route must still exist. Quiescence checks above guarantee this only
        // happens across kept channels.
        for gp in 0..self.lanes.port_router.len() {
            let (ri, pi) = self.lanes.port_of(gp);
            for vi in 0..total_vcs {
                let gv = gp * total_vcs + vi;
                if let (Some(po), Some(gvc)) = (self.lanes.route(gv), self.lanes.out_vc(gv)) {
                    let out_gp = self.lanes.gp(ri, po.index());
                    let ejects = self.lanes.eject_out[ri] & (1 << po.index()) != 0;
                    if self.lanes.out_channel[out_gp].is_some() || ejects {
                        self.lanes.alloc[out_gp * total_vcs + gvc as usize] =
                            Some((pi as u8, vi as u8));
                        self.lanes.alloc_mask[out_gp] |= 1 << gvc;
                    } else {
                        // The connection vanished mid-packet: only
                        // possible if quiescence was bypassed; clear the
                        // stale route so the packet re-routes.
                        self.lanes.clear_alloc(gv);
                        self.lanes.owner[gv] = NO_PACKET;
                    }
                }
            }
        }

        // Reattach NIs (preserving source queues). The drain state is held
        // in flat slots indexed by node id — the node count is invariant
        // across reconfiguration (checked above) — giving deterministic
        // iteration order by construction and keeping the reconfig path off
        // the allocator's hash maps.
        type NiDrainState = (VecDeque<Packet>, Option<NiStream>, bool);
        let mut old_ni: Vec<Option<NiDrainState>> = (0..new_spec.num_nodes).map(|_| None).collect();
        for ni in self.nis.drain(..) {
            old_ni[ni.spec.node.index()] = Some((ni.source_q, ni.cur, ni.paused));
        }
        self.node_ni = vec![None; new_spec.num_nodes];
        for (i, n) in new_spec.nis.iter().enumerate() {
            let (source_q, cur, paused) = old_ni[n.node.index()].take().unwrap_or_default();
            self.nis.push(NiRt {
                spec: *n,
                source_q,
                cur,
                paused,
            });
            self.node_ni[n.node.index()] = Some(i);
        }

        self.spec = new_spec;
        self.channels = new_channels;
        self.wires = new_wires;
        self.channel_flits = vec![0; self.channels.len()];
        // Channel indices changed: rebuild the wire set and counters.
        self.busy_channels = BitSet::new(self.channels.len());
        self.wire_flits = 0;
        for (ci, c) in self.channels.iter().enumerate() {
            self.wire_flits += c.wire.len() as u64;
            if !c.wire.is_empty() {
                self.busy_channels.insert(ci);
            }
        }
        // The routing tables changed with the spec.
        self.invalidate_lookahead();
        // NI attachments may have moved ports: rebuild the injection set.
        self.ni_stream_flits = 0;
        self.active_inj.clear();
        for ni_id in 0..self.nis.len() {
            let n = &self.nis[ni_id];
            self.ni_stream_flits += n.cur.as_ref().map_or(0, NiStream::remaining);
            self.sync_inj_port(ni_id);
        }
        self.recompute_static_profile();
        self.buffer_capacity = self.compute_buffer_capacity();
        self.stats.buffer_capacity = self.buffer_capacity;
        Ok(())
    }

    // ---- Fault injection & recovery ----------------------------------

    fn channel_index(&self, key: ChannelKey) -> Option<usize> {
        self.channels.iter().position(|c| c.spec.key() == key)
    }

    /// Whether the channel with the given endpoints is marked faulted.
    pub fn channel_faulted(&self, key: ChannelKey) -> bool {
        self.faulted_keys.contains(&key)
    }

    /// Whether the router has permanently failed.
    pub fn router_failed(&self, router: RouterId) -> bool {
        self.routers[router.index()].failed
    }

    /// Marks a channel faulted (`true`) or healed (`false`).
    ///
    /// A faulted channel accepts no new flits: VC and switch allocation
    /// skip it, so upstream traffic routed across it stalls in place (and
    /// waits out a transient fault). Everything already committed to the
    /// channel — flits on the wire plus every packet holding an output-VC
    /// allocation across it — is NACKed: all of the packet's flits are
    /// purged from the network and the packets are returned, oldest id
    /// first, for the caller's retry policy. Purged packets
    /// count as [`NetStats::nacks`]. The fault flag survives
    /// [`reconfigure`](Self::reconfigure) (keyed by channel endpoints).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::NoSuchChannel`] if no channel has these
    /// endpoints.
    pub fn set_channel_fault(
        &mut self,
        key: ChannelKey,
        faulted: bool,
    ) -> Result<Vec<Packet>, NetworkError> {
        self.guard_gen += 1;
        let idx = self
            .channel_index(key)
            .ok_or(NetworkError::NoSuchChannel(key))?;
        if !faulted {
            self.faulted_keys.remove(&key);
            self.channels[idx].faulted = false;
            refresh_faulted_out(&mut self.routers, &self.channels);
            return Ok(Vec::new());
        }
        if !self.faulted_keys.insert(key) {
            return Ok(Vec::new()); // already faulted
        }
        self.channels[idx].faulted = true;
        self.routers[key.src.router.index()].faulted_out |= 1 << key.src.port.index();
        let mut doomed = Vec::new();
        for f in self.channels[idx].wire.iter(&self.wires) {
            self.packets.doom(&mut doomed, f.pkt);
        }
        // Packets holding an allocation across the channel may have flits
        // spread over the wire and the upstream router; NACK them whole.
        let src = key.src;
        let sri = src.router.index();
        let up_gv = self.lanes.gv(sri, src.port.index(), 0);
        let total_vcs = self.cfg.total_vcs();
        for v in 0..total_vcs {
            if let Some((pi, vi)) = self.lanes.alloc[up_gv + v] {
                let owner = self.lanes.owner[self.lanes.gv(sri, pi as usize, vi as usize)];
                self.packets.doom(&mut doomed, owner);
            }
        }
        Ok(self.purge_packets(doomed))
    }

    /// Dooms (see [`PacketTable::doom`]) every packet with a flit buffered
    /// in VC `gv`, and the lane's owner, whose flits may all be elsewhere.
    fn doom_vc(&mut self, doomed: &mut Vec<u32>, gv: usize) {
        for k in 0..self.lanes.buf_len(gv) {
            self.packets.doom(doomed, self.lanes.flit_at(gv, k).pkt);
        }
        self.packets.doom(doomed, self.lanes.owner[gv]);
    }

    /// Permanently fails a router: it is force-slept (it never wakes and
    /// its static power counts as off), injection through it stops, and
    /// every packet with flits buffered inside it, in flight on a wire
    /// into it, or mid-stream from one of its NIs is NACKed and returned
    /// (oldest id first). Channels touching the router are *not* faulted
    /// here — callers decide (a fault controller typically faults them
    /// all so neighbours stop routing toward the dead router).
    pub fn fail_router(&mut self, router: RouterId) -> Vec<Packet> {
        self.guard_gen += 1;
        let ri = router.index();
        if self.routers[ri].failed {
            return Vec::new();
        }
        self.routers[ri].failed = true;
        self.routers[ri].sleeping = true;
        self.routers[ri].wake_at = u64::MAX;
        self.pending_wakes.remove(ri);
        self.statics_dirty = true;
        let mut doomed = Vec::new();
        let gv_lo = self.lanes.gv(ri, 0, 0);
        let gv_hi = gv_lo + self.lanes.n_ports(ri) * self.cfg.total_vcs();
        for gv in gv_lo..gv_hi {
            self.doom_vc(&mut doomed, gv);
        }
        for c in self.channels.iter().filter(|c| c.spec.dst.router == router) {
            for f in c.wire.iter(&self.wires) {
                self.packets.doom(&mut doomed, f.pkt);
            }
        }
        for ni in self.nis.iter().filter(|ni| ni.spec.router == router) {
            if let Some(cur) = &ni.cur {
                self.packets.doom(&mut doomed, cur.pkt);
            }
        }
        self.purge_packets(doomed)
    }

    /// NACKs every packet that can no longer make progress: packets whose
    /// allocated route leads into a faulted channel, and head flits whose
    /// routing lookup fails (destination disconnected under the current
    /// tables). Returns the purged packets, oldest id first.
    ///
    /// A fault controller calls this each cycle while a permanent-fault
    /// reconfiguration drains, so traffic already committed toward a dead
    /// link cannot wedge the drain. It must *not* be called for transient
    /// faults — there, upstream packets simply wait for the link to heal.
    pub fn purge_blocked(&mut self) -> Vec<Packet> {
        self.guard_gen += 1;
        let mut doomed = Vec::new();
        let total_vcs = self.cfg.total_vcs();
        for gp in 0..self.lanes.port_router.len() {
            let ri = self.lanes.port_router[gp] as usize;
            for gv in gp * total_vcs..(gp + 1) * total_vcs {
                let Some(front) = self.lanes.front(gv) else {
                    continue;
                };
                let blocked = match self.lanes.route(gv) {
                    Some(po) => self.lanes.out_channel[self.lanes.gp(ri, po.index())]
                        .is_some_and(|ch| self.channels[ch.index()].faulted),
                    None => {
                        let pkt = self.packets.packet(front.pkt);
                        front.pos.is_head()
                            && self
                                .spec
                                .tables
                                .lookup(pkt.vnet, RouterId(ri as u16), pkt.dst)
                                .is_none()
                    }
                };
                if blocked {
                    self.doom_vc(&mut doomed, gv);
                }
            }
        }
        self.purge_packets(doomed)
    }

    /// Removes every flit of each packet in `doomed` (table handles, each
    /// marked in the table by [`PacketTable::doom`]) from the network —
    /// wires, router buffers, NI mid-stream state — releases the
    /// allocations those packets held, recomputes all channel credits from
    /// the surviving occupancy, frees the slots and returns the packets
    /// ordered by `(id, handle)`: oldest id first. Each counts as a NACK.
    fn purge_packets(&mut self, mut doomed: Vec<u32>) -> Vec<Packet> {
        if doomed.is_empty() {
            return Vec::new();
        }
        let now = self.now;
        let packets = &self.packets;

        // Wires.
        for (ci, c) in self.channels.iter_mut().enumerate() {
            let removed = c
                .wire
                .retain(&mut self.wires, |f| !packets.is_marked(f.pkt));
            self.wire_flits -= removed as u64;
            if c.wire.is_empty() {
                self.busy_channels.remove(ci);
            }
        }

        // Router input buffers and the allocations the packets held.
        let total_vcs = self.cfg.total_vcs();
        let mut keep: Vec<Flit> = Vec::new();
        for ri in 0..self.routers.len() {
            for pi in 0..self.lanes.n_ports(ri) {
                let gp = self.lanes.gp(ri, pi);
                for vi in 0..total_vcs {
                    let gv = gp * total_vcs + vi;
                    let owner = self.lanes.owner[gv];
                    if owner != NO_PACKET && packets.is_marked(owner) {
                        let (route, out_vc) = (self.lanes.route(gv), self.lanes.out_vc(gv));
                        self.lanes.clear_alloc(gv);
                        self.lanes.owner[gv] = NO_PACKET;
                        if let (Some(po), Some(gvc)) = (route, out_vc) {
                            let out_gv = self.lanes.gv(ri, po.index(), gvc as usize);
                            let out_gp = self.lanes.gp(ri, po.index());
                            self.lanes.alloc[out_gv] = None;
                            self.lanes.alloc_mask[out_gp] &= !(1 << gvc);
                        }
                    }
                    let len = self.lanes.buf_len(gv);
                    if (0..len).any(|k| packets.is_marked(self.lanes.flit_at(gv, k).pkt)) {
                        keep.clear();
                        keep.extend(
                            (0..len)
                                .map(|k| *self.lanes.flit_at(gv, k))
                                .filter(|f| !packets.is_marked(f.pkt)),
                        );
                        self.lanes.clear_buf(gv);
                        for &f in &keep {
                            self.lanes.push_back(gv, f, now);
                        }
                        let removed = (len - keep.len()) as u32;
                        self.routers[ri].flits -= removed;
                        self.occupied_flits -= removed as u64;
                        if keep.is_empty() {
                            self.lanes.occ[gp] &= !(1 << vi);
                        }
                    }
                }
            }
            if self.routers[ri].flits == 0 {
                self.busy_routers.remove(ri);
            }
        }

        // NI mid-stream state.
        for ni in self.nis.iter_mut() {
            if let Some(cur) = ni.cur.take_if(|cur| packets.is_marked(cur.pkt)) {
                self.ni_stream_flits -= cur.remaining();
                let gv = self.lanes.gv(
                    ni.spec.router.index(),
                    ni.spec.port.index(),
                    cur.vc as usize,
                );
                self.lanes.ni_lock[gv] = false;
            }
        }

        // Pending returns would double-count against the exact recompute.
        self.pending_credits.clear();
        self.lanes.recompute_credits(&self.channels, &self.wires);

        doomed.sort_unstable_by_key(|&h| (packets.packet(h).id, h));
        // A port whose NIs streamed only doomed packets may be out of work.
        for ni_id in 0..self.nis.len() {
            self.sync_inj_port(ni_id);
        }
        let packets: Vec<Packet> = doomed.iter().map(|&h| self.packets.free(h).0).collect();
        self.stats.nacks += packets.len() as u64;
        if let Some(t) = self.tracer.as_mut() {
            for p in &packets {
                t.record(crate::trace::TraceEvent::Nacked {
                    packet: p.id,
                    cycle: now,
                });
            }
        }
        packets
    }

    /// Re-hands a NACKed packet to its source NI. Unlike
    /// [`inject`](Self::inject) the packet keeps its original
    /// `created_at` and is *not* counted as newly offered, so a fully
    /// recovered run still reports a delivery ratio of 1.0; it does count
    /// as a retry.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::NoSuchNode`] if the source has no NI.
    pub fn inject_retry(&mut self, packet: Packet, attempt: u32) -> Result<(), NetworkError> {
        self.guard_gen += 1;
        let ni = self
            .node_ni
            .get(packet.src.index())
            .copied()
            .flatten()
            .ok_or(NetworkError::NoSuchNode(packet.src))?;
        if let Some(t) = self.tracer.as_mut() {
            t.record(crate::trace::TraceEvent::Retried {
                packet: packet.id,
                cycle: self.now,
                attempt,
            });
        }
        self.nis[ni].source_q.push_back(packet);
        self.queued_packets += 1;
        self.stats.retries += 1;
        self.sync_inj_port(ni);
        Ok(())
    }

    /// Records a packet dropped by the retry policy (budget exhausted or
    /// destination permanently disconnected).
    pub fn count_dropped(&mut self, packet: u64) {
        self.stats.drops += 1;
        if let Some(t) = self.tracer.as_mut() {
            t.record(crate::trace::TraceEvent::Dropped {
                packet,
                cycle: self.now,
            });
        }
    }

    /// Empties a node's NI source queue (used when the node's router
    /// failed permanently), returning the removed packets in queue order.
    /// Nodes without an NI yield an empty vec.
    pub fn purge_ni_queue(&mut self, node: NodeId) -> Vec<Packet> {
        self.guard_gen += 1;
        let Some(idx) = self.node_ni.get(node.index()).copied().flatten() else {
            return Vec::new();
        };
        let drained: Vec<Packet> = self.nis[idx].source_q.drain(..).collect();
        self.queued_packets -= drained.len() as u64;
        self.sync_inj_port(idx);
        drained
    }

    /// Mutable access to the attached tracer; fault controllers record
    /// [`crate::trace::TraceEvent::FaultInjected`] through this.
    pub fn tracer_mut(&mut self) -> Option<&mut crate::trace::TraceBuffer> {
        self.tracer.as_mut()
    }

    // ------------------------------------------------------------------
    // Runtime health: invariant guards, stall introspection, snapshots
    // (see `crate::health`).
    // ------------------------------------------------------------------

    /// The invariant-guard mode this network runs with (`ADAPTNOC_GUARDS`
    /// at construction unless [`set_guard_mode`](Self::set_guard_mode)
    /// changed it since).
    pub fn guard_mode(&self) -> GuardMode {
        self.guard_mode
    }

    /// Overrides the guard mode. Tests use this to force [`GuardMode::Strict`]
    /// or — for deliberate-corruption tests — to pin a non-panicking mode
    /// regardless of the `ADAPTNOC_GUARDS` environment.
    pub fn set_guard_mode(&mut self, mode: GuardMode) {
        self.guard_gen += 1;
        self.guard_mode = mode;
    }

    /// Violations found by the most recent guard sweep that found any
    /// (empty while the network has always checked clean).
    pub fn guard_violations(&self) -> &[InvariantViolation] {
        &self.last_violations
    }

    /// The live spec behind its shared handle (cheap clone; reconfiguration
    /// controllers snapshot this as a rollback target).
    pub fn spec_shared(&self) -> Arc<NetworkSpec> {
        Arc::clone(&self.spec)
    }

    /// Heap bytes behind everything that scales with buffering or traffic:
    /// Σ capacity × element size over the VC lane arrays and ring pool, the
    /// packet table, the wire arena and NI source queues, the delivery
    /// buffer, the per-router structs and per-(router, vnet) masks and the
    /// worklist sets, plus the spec's routing tables. Not counted:
    /// allocator overhead, the flat per-channel/per-NI arrays, the spec's
    /// own vectors, statistics and step scratch (nothing there is per VC or
    /// per flit).
    /// Deterministic, so tests can bound the footprint without reading RSS.
    pub fn heap_bytes(&self) -> usize {
        use soa::vec_bytes as v;
        let queued: usize = self.nis.iter().map(|n| n.source_q.capacity()).sum();
        self.lanes.heap_bytes()
            + self.packets.heap_bytes()
            + v(&self.delivered)
            + v(&self.wires)
            + queued * size_of::<Packet>()
            + v(&self.routers)
            + v(&self.vc_mask)
            + v(&self.va_cand)
            + self.busy_routers.heap_bytes()
            + self.busy_channels.heap_bytes()
            + self.active_inj.heap_bytes()
            + self.pending_wakes.heap_bytes()
            + self.spec.tables.heap_bytes()
    }

    /// Channels currently carrying flits on the wire, with their occupancy.
    pub fn channel_backlogs(&self) -> Vec<(ChannelKey, usize)> {
        self.channels
            .iter()
            .filter(|c| !c.wire.is_empty())
            .map(|c| (c.spec.key(), c.wire.len()))
            .collect()
    }

    /// NIs holding undelivered packets (queued or mid-stream), with their
    /// packet counts.
    pub(crate) fn ni_backlogs(&self) -> Vec<(NodeId, usize)> {
        self.nis
            .iter()
            .filter_map(|n| {
                let count = n.source_q.len() + usize::from(n.cur.is_some());
                (count > 0).then_some((n.spec.node, count))
            })
            .collect()
    }

    /// `(id, created_at)` of the oldest packet still in the network
    /// (buffers, wires, or NI queues), ties broken by lowest id. `None`
    /// when fully drained.
    pub(crate) fn oldest_in_flight(&self) -> Option<(u64, u64)> {
        let mut best: Option<(u64, u64)> = None;
        let mut consider = |created: u64, id: u64| match best {
            Some((bc, bi)) if (bc, bi) <= (created, id) => {}
            _ => best = Some((created, id)),
        };
        // Packets with flits in buffers, on wires or mid-stream are
        // exactly the table's live slots.
        for (_, slot) in self.packets.iter_live() {
            consider(slot.pkt.created_at, slot.pkt.id);
        }
        for p in self.nis.iter().flat_map(|n| &n.source_q) {
            consider(p.created_at, p.id);
        }
        best.map(|(created, id)| (id, created))
    }

    /// A structural JSON snapshot of the non-quiet parts of the network:
    /// routers holding flits or in a non-nominal power state, channels with
    /// wire traffic or faults, and NIs with pending packets. The flight
    /// recorder embeds this in post-mortem dumps.
    pub fn snapshot(&self) -> Value {
        let mut routers = Vec::new();
        for (ri, r) in self.routers.iter().enumerate() {
            if r.flits == 0 && r.active && !r.sleeping && !r.failed {
                continue;
            }
            routers.push(Value::Object(vec![
                ("router".into(), Value::Number(ri as f64)),
                ("flits".into(), Value::Number(r.flits as f64)),
                ("active".into(), Value::Bool(r.active)),
                ("sleeping".into(), Value::Bool(r.sleeping)),
                ("failed".into(), Value::Bool(r.failed)),
            ]));
        }
        let mut channels = Vec::new();
        for c in &self.channels {
            if c.wire.is_empty() && !c.faulted {
                continue;
            }
            channels.push(Value::Object(vec![
                (
                    "channel".into(),
                    Value::String(channel_label(&c.spec.key())),
                ),
                ("flits".into(), Value::Number(c.wire.len() as f64)),
                ("faulted".into(), Value::Bool(c.faulted)),
            ]));
        }
        let mut nis = Vec::new();
        for n in &self.nis {
            if n.source_q.is_empty() && n.cur.is_none() && !n.paused {
                continue;
            }
            nis.push(Value::Object(vec![
                ("node".into(), Value::Number(n.spec.node.index() as f64)),
                ("queued".into(), Value::Number(n.source_q.len() as f64)),
                ("streaming".into(), Value::Bool(n.cur.is_some())),
                ("paused".into(), Value::Bool(n.paused)),
            ]));
        }
        Value::Object(vec![
            ("cycle".into(), Value::Number(self.now as f64)),
            ("in_flight".into(), Value::Number(self.in_flight() as f64)),
            (
                "buffered_flits".into(),
                Value::Number(self.occupied_flits as f64),
            ),
            ("wire_flits".into(), Value::Number(self.wire_flits as f64)),
            (
                "queued_packets".into(),
                Value::Number(self.queued_packets as f64),
            ),
            ("routers".into(), Value::Array(routers)),
            ("channels".into(), Value::Array(channels)),
            ("nis".into(), Value::Array(nis)),
        ])
    }

    /// Deliberately leaks one upstream credit on `key`/`vc` — a corruption
    /// hook for tests that must see the credit-conservation guard trip.
    /// Never called by the simulator itself.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::NoSuchChannel`] if the channel is absent.
    ///
    /// # Panics
    ///
    /// Panics if `vc` is out of range for the configuration.
    pub fn chaos_leak_credit(&mut self, key: ChannelKey, vc: u8) -> Result<(), NetworkError> {
        self.guard_gen += 1;
        let ch = self
            .channels
            .iter()
            .position(|c| c.spec.key() == key)
            .ok_or(NetworkError::NoSuchChannel(key))?;
        let src = self.channels[ch].spec.src;
        let gv = self
            .lanes
            .gv(src.router.index(), src.port.index(), vc as usize);
        let c = &mut self.lanes.credits[gv];
        *c = c.saturating_sub(1);
        if *c == 0 {
            self.lanes.credit_zero[gv / self.lanes.total_vcs] |= 1 << (gv % self.lanes.total_vcs);
        }
        Ok(())
    }

    /// One guard sweep: count it, collect violations, remember a clean
    /// verdict's generation (`guard_clean`), record violations as trace
    /// events, and either panic (strict mode) or retain them for
    /// [`guard_violations`](Self::guard_violations).
    fn run_guard_check(&mut self) {
        self.health.checks += 1;
        #[cfg(test)]
        {
            self.sweeps += 1;
        }
        let violations = self.check_invariants();
        self.guard_clean = violations.is_empty().then_some(self.guard_gen);
        if violations.is_empty() {
            return;
        }
        self.health.violations += violations.len() as u64;
        if let Some(t) = self.tracer.as_mut() {
            for v in &violations {
                t.record(crate::trace::TraceEvent::GuardViolation {
                    cycle: self.now,
                    detail: v.to_string(),
                });
            }
        }
        let now = self.now;
        if let Some(t) = self.telem.as_mut() {
            let reg = t.registry_mut();
            for v in &violations {
                reg.event(
                    "guard.violation",
                    now,
                    &[("kind", &v.kind.to_string()), ("detail", &v.detail)],
                );
            }
        }
        if self.guard_mode == GuardMode::Strict {
            let joined = violations
                .iter()
                .map(InvariantViolation::to_string)
                .collect::<Vec<_>>()
                .join("\n  ");
            panic!("invariant violation(s) at cycle {}:\n  {joined}", self.now);
        }
        self.last_violations = violations;
    }

    /// Sweeps every invariant family once and returns the violations found
    /// (empty in a healthy network). Read-only and callable at any cycle
    /// boundary; the in-step guards use it, and tests may call it directly.
    pub fn check_invariants(&self) -> Vec<InvariantViolation> {
        let mut out = Vec::new();
        let depth = self.cfg.vc_depth as usize;
        let total_vcs = self.cfg.total_vcs();

        // Flit conservation and buffer-occupancy summaries: the incremental
        // counters must agree with a from-scratch recount.
        let mut buffered = 0u64;
        // Alongside the recount: every flit must name a live packet slot,
        // and every live slot count exactly the flits it still has inside
        // (so a drained network has an empty table).
        let mut audit = self.packets.audit();
        for (ri, r) in self.routers.iter().enumerate() {
            let mut router_flits = 0u32;
            for pi in 0..self.lanes.n_ports(ri) {
                let gp = self.lanes.gp(ri, pi);
                for vi in 0..total_vcs {
                    let gv = gp * total_vcs + vi;
                    let len = self.lanes.buf_len(gv);
                    // A ring outside the pool is `ring_faults`' to report.
                    if self.lanes.ring_in_pool(gv) {
                        for k in 0..len.min(depth) {
                            audit.flits(self.lanes.flit_at(gv, k).pkt, 1);
                        }
                    }
                    router_flits += len as u32;
                    if len > depth {
                        out.push(InvariantViolation::new(
                            InvariantKind::BufferOccupancy,
                            format!("R{ri}:p{pi} vc{vi} holds {len} flits, depth {depth}"),
                        ));
                    }
                    let bit = self.lanes.occ[gp] & (1 << vi) != 0;
                    if bit == (len == 0) {
                        out.push(InvariantViolation::new(
                            InvariantKind::BufferOccupancy,
                            format!("R{ri}:p{pi} vc{vi} occ bit {bit} with {len} buffered flits"),
                        ));
                    }
                }
            }
            if router_flits != r.flits {
                out.push(InvariantViolation::new(
                    InvariantKind::FlitConservation,
                    format!(
                        "R{ri} caches {} flits but its buffers hold {router_flits}",
                        r.flits
                    ),
                ));
            }
            buffered += router_flits as u64;
        }
        // Ring ownership: each non-empty VC holds a pool ring of its own.
        for detail in self.lanes.ring_faults() {
            out.push(InvariantViolation::new(
                InvariantKind::BufferOccupancy,
                detail,
            ));
        }
        if buffered != self.occupied_flits {
            out.push(InvariantViolation::new(
                InvariantKind::FlitConservation,
                format!(
                    "network caches {} buffered flits, buffers hold {buffered}",
                    self.occupied_flits
                ),
            ));
        }
        let mut wire = 0u64;
        for c in self.channels.iter().filter(|c| !c.wire.is_empty()) {
            wire += c.wire.len() as u64;
            c.wire.iter(&self.wires).for_each(|f| audit.flits(f.pkt, 1));
        }
        if wire != self.wire_flits {
            out.push(InvariantViolation::new(
                InvariantKind::FlitConservation,
                format!(
                    "network caches {} wire flits, channels hold {wire}",
                    self.wire_flits
                ),
            ));
        }
        let mut stream = 0u64;
        for cur in self.nis.iter().filter_map(|n| n.cur.as_ref()) {
            audit.flits(cur.pkt, cur.remaining() as u32);
            stream += cur.remaining();
        }
        if stream != self.ni_stream_flits {
            out.push(InvariantViolation::new(
                InvariantKind::FlitConservation,
                format!(
                    "network caches {} NI stream flits, NIs hold {stream}",
                    self.ni_stream_flits
                ),
            ));
        }
        let queued: u64 = self.nis.iter().map(|n| n.source_q.len() as u64).sum();
        if queued != self.queued_packets {
            out.push(InvariantViolation::new(
                InvariantKind::FlitConservation,
                format!(
                    "network caches {} queued packets, NI queues hold {queued}",
                    self.queued_packets
                ),
            ));
        }
        let table = audit.finish().into_iter();
        out.extend(table.map(|d| InvariantViolation::new(InvariantKind::FlitConservation, d)));

        // Credit conservation per (channel, VC): upstream credits plus flits
        // on the wire, in the downstream buffer, and in pending credit
        // returns must equal the VC depth. Ports shared with NIs have no
        // credit loop and are exempt. The pending returns are bucketed by
        // (channel, VC) once, so the sweep is linear in the load.
        let mut pending = vec![0u32; self.channels.len() * total_vcs];
        for &(ch, vc) in &self.pending_credits {
            pending[ch.index() * total_vcs + vc as usize] += 1;
        }
        for (ci, c) in self.channels.iter().enumerate() {
            let dst = c.spec.dst;
            let down_gp = self.lanes.gp(dst.router.index(), dst.port.index());
            if !self.lanes.port_nis(down_gp).is_empty() {
                continue;
            }
            let up_gv = self
                .lanes
                .gv(c.spec.src.router.index(), c.spec.src.port.index(), 0);
            let down_gv = down_gp * total_vcs;
            // VC counts are bounded by the `u32` VC bitmasks.
            let mut wire_occ = [0u32; 32];
            for f in c.wire.iter(&self.wires) {
                wire_occ[f.assigned_vc as usize] += 1;
            }
            let pending = &pending[ci * total_vcs..(ci + 1) * total_vcs];
            for v in 0..total_vcs {
                let down_len = self.lanes.buf_len(down_gv + v) as u32;
                let sum =
                    self.lanes.credits[up_gv + v] as u32 + wire_occ[v] + down_len + pending[v];
                if sum != depth as u32 {
                    out.push(InvariantViolation::new(
                        InvariantKind::CreditConservation,
                        format!(
                            "{} vc{v}: credits {} + wire {} + downstream {} + pending {} != depth {depth}",
                            channel_label(&c.spec.key()),
                            self.lanes.credits[up_gv + v],
                            wire_occ[v],
                            down_len,
                            pending[v]
                        ),
                    ));
                }
            }
        }

        // Fault isolation: per-channel flags mirror the registry, and a
        // faulted channel never carries traffic.
        for c in &self.channels {
            let registered = self.faulted_keys.contains(&c.spec.key());
            if c.faulted != registered {
                out.push(InvariantViolation::new(
                    InvariantKind::FaultIsolation,
                    format!(
                        "{} fault flag {} disagrees with registry {registered}",
                        channel_label(&c.spec.key()),
                        c.faulted
                    ),
                ));
            }
            if c.faulted && !c.wire.is_empty() {
                out.push(InvariantViolation::new(
                    InvariantKind::FaultIsolation,
                    format!(
                        "faulted channel {} carries {} flits",
                        channel_label(&c.spec.key()),
                        c.wire.len()
                    ),
                ));
            }
        }
        // The per-router faulted-output bitmask (hot-loop cache) must agree
        // with the per-channel flags.
        let mut expected_mask = vec![0u32; self.routers.len()];
        for c in &self.channels {
            if c.faulted {
                expected_mask[c.spec.src.router.index()] |= 1 << c.spec.src.port.index();
            }
        }
        for (ri, r) in self.routers.iter().enumerate() {
            if r.faulted_out != expected_mask[ri] {
                out.push(InvariantViolation::new(
                    InvariantKind::FaultIsolation,
                    format!(
                        "R{ri} faulted-out mask {:#x} disagrees with channel flags {:#x}",
                        r.faulted_out, expected_mask[ri]
                    ),
                ));
            }
        }

        // Power gating and VC-allocation cross-links.
        for (ri, r) in self.routers.iter().enumerate() {
            if r.failed && !r.sleeping {
                out.push(InvariantViolation::new(
                    InvariantKind::PowerGating,
                    format!("R{ri} failed but not powered down"),
                ));
            }
            let dark = r.sleeping || r.failed;
            for po in 0..self.lanes.n_ports(ri) {
                let out_gv0 = self.lanes.gv(ri, po, 0);
                // The VA candidate-mask fast path keys off `alloc_mask`; a
                // desync from the `alloc` slots would silently grant or
                // withhold VCs.
                let gp = self.lanes.gp(ri, po);
                let expect: u32 = (0..total_vcs)
                    .filter(|&gvc| self.lanes.alloc[out_gv0 + gvc].is_some())
                    .fold(0, |m, gvc| m | 1 << gvc);
                if self.lanes.alloc_mask[gp] != expect {
                    out.push(InvariantViolation::new(
                        InvariantKind::Allocation,
                        format!(
                            "R{ri} output p{po} alloc_mask {:#x} disagrees with alloc slots {expect:#x}",
                            self.lanes.alloc_mask[gp]
                        ),
                    ));
                }
                // Same contract for the zero-credit fast-path mask.
                let expect_zero: u32 = (0..total_vcs)
                    .filter(|&gvc| self.lanes.credits[out_gv0 + gvc] == 0)
                    .fold(0, |m, gvc| m | 1 << gvc);
                if self.lanes.credit_zero[gp] != expect_zero {
                    out.push(InvariantViolation::new(
                        InvariantKind::Allocation,
                        format!(
                            "R{ri} output p{po} credit_zero {:#x} disagrees with credits {expect_zero:#x}",
                            self.lanes.credit_zero[gp]
                        ),
                    ));
                }
                for gvc in 0..total_vcs {
                    let Some((pi, vi)) = self.lanes.alloc[out_gv0 + gvc] else {
                        continue;
                    };
                    if dark {
                        out.push(InvariantViolation::new(
                            InvariantKind::PowerGating,
                            format!("R{ri} is dark but output p{po} vc{gvc} is allocated"),
                        ));
                    }
                    let in_gv = self.lanes.gv(ri, pi as usize, vi as usize);
                    if self.lanes.out_vc(in_gv) != Some(gvc as u8)
                        || self.lanes.route(in_gv) != Some(PortId(po as u8))
                        || self.lanes.owner[in_gv] == NO_PACKET
                    {
                        out.push(InvariantViolation::new(
                            InvariantKind::Allocation,
                            format!(
                                "R{ri} output p{po} vc{gvc} allocated to p{pi}/vc{vi}, which \
                                 holds route {:?} out_vc {:?} owner {:?}",
                                self.lanes.route(in_gv),
                                self.lanes.out_vc(in_gv),
                                self.lanes.owner[in_gv]
                            ),
                        ));
                    }
                }
            }
            for pi in 0..self.lanes.n_ports(ri) {
                let in_gp = self.lanes.gp(ri, pi);
                let gv0 = in_gp * total_vcs;
                for vi in 0..total_vcs {
                    let gv = gv0 + vi;
                    if self.lanes.route(gv).is_some() && self.lanes.owner[gv] == NO_PACKET {
                        out.push(InvariantViolation::new(
                            InvariantKind::Allocation,
                            format!("R{ri}:p{pi} vc{vi} routed without an owner"),
                        ));
                    }
                    if let Some(gvc) = self.lanes.out_vc(gv) {
                        let Some(po) = self.lanes.route(gv) else {
                            out.push(InvariantViolation::new(
                                InvariantKind::Allocation,
                                format!("R{ri}:p{pi} vc{vi} holds out_vc {gvc} without a route"),
                            ));
                            continue;
                        };
                        let back = self.lanes.alloc[self.lanes.gv(ri, po.index(), gvc as usize)];
                        if back != Some((pi as u8, vi as u8)) {
                            out.push(InvariantViolation::new(
                                InvariantKind::Allocation,
                                format!(
                                    "R{ri}:p{pi} vc{vi} claims output {po} vc{gvc}, whose \
                                     allocation is {back:?}"
                                ),
                            ));
                        }
                    }
                    if self.lanes.ni_lock[gv] {
                        let held = self.lanes.port_nis(in_gp).iter().any(
                            |&ni| matches!(&self.nis[ni as usize].cur, Some(c) if c.vc as usize == vi),
                        );
                        if !held {
                            out.push(InvariantViolation::new(
                                InvariantKind::NiLock,
                                format!("R{ri}:p{pi} vc{vi} locked with no NI streaming into it"),
                            ));
                        }
                    }
                    // A VC parked off the scan mask must be exactly a
                    // credit-blocked streaming VC: allocated, and its
                    // (non-ejection) output VC out of credits. Anything
                    // else must stay visited or the scan would stall it.
                    let parked = self.lanes.occ[in_gp] & !self.lanes.scan[in_gp] & (1 << vi) != 0;
                    if parked {
                        let blocked = match (self.lanes.route(gv), self.lanes.out_vc(gv)) {
                            (Some(po), Some(gvc)) => {
                                let out_gp = self.lanes.gp(ri, po.index());
                                self.lanes.eject_out[ri] & (1 << po.index()) == 0
                                    && self.lanes.credit_zero[out_gp] & (1 << gvc) != 0
                            }
                            _ => false,
                        };
                        if !blocked {
                            out.push(InvariantViolation::new(
                                InvariantKind::Allocation,
                                format!(
                                    "R{ri}:p{pi} vc{vi} parked off the scan mask but not \
                                     credit-blocked (route {:?} out_vc {:?})",
                                    self.lanes.route(gv),
                                    self.lanes.out_vc(gv)
                                ),
                            ));
                        }
                    }
                }
            }
        }
        for n in &self.nis {
            if let Some(cur) = &n.cur {
                let gv = self
                    .lanes
                    .gv(n.spec.router.index(), n.spec.port.index(), cur.vc as usize);
                if !self.lanes.ni_lock[gv] {
                    out.push(InvariantViolation::new(
                        InvariantKind::NiLock,
                        format!(
                            "NI of {} streams into vc{} without holding the lock",
                            n.spec.node, cur.vc
                        ),
                    ));
                }
            }
        }

        // Worklists: a set bit means exactly that the router buffers
        // flits, the wire carries flits, the injection port's NIs have
        // work, the router sleeps (unfailed) with a finite wake deadline.
        // Every site that empties one clears its bit before the
        // cycle ends (the router stage's drained routers leave in
        // `step_finish`), so there are no stale bits to allow for.
        let routers = self.routers.iter().map(|r| r.flits > 0);
        check_set_is_exact(&mut out, "router", &self.busy_routers, routers);
        let wires = self.channels.iter().map(|c| !c.wire.is_empty());
        check_set_is_exact(&mut out, "channel", &self.busy_channels, wires);
        let ports = (0..self.lanes.port_router.len()).map(|gp| self.port_has_ni_work(gp));
        check_set_is_exact(&mut out, "injection port", &self.active_inj, ports);
        let wakes = self
            .routers
            .iter()
            .map(|r| r.sleeping && !r.failed && r.wake_at != u64::MAX);
        check_set_is_exact(&mut out, "wake-pending router", &self.pending_wakes, wakes);

        out
    }
}

/// The Worklist guard for one set: member `i` must be exactly the `i`-th
/// component `busy` calls busy, and the set's count must match.
fn check_set_is_exact(
    out: &mut Vec<InvariantViolation>,
    what: &str,
    set: &BitSet,
    busy: impl Iterator<Item = bool>,
) {
    let mut members = 0;
    for (i, busy) in busy.enumerate() {
        let listed = set.contains(i);
        members += usize::from(listed);
        if listed != busy {
            let state = if busy { "busy" } else { "idle" };
            let detail = format!("{what} {i} is {state} but listed {listed}");
            out.push(InvariantViolation::new(InvariantKind::Worklist, detail));
        }
    }
    if members != set.len() {
        let detail = format!("{what} set counts {} members, names {members}", set.len());
        out.push(InvariantViolation::new(InvariantKind::Worklist, detail));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::LOCAL_PORT;
    use crate::spec::{mesh_channel, NiSpec, PortRef};

    /// A 1xN row of routers, bidirectionally chained, one node per router.
    fn row_spec(n: usize) -> NetworkSpec {
        mesh_spec(n, 1)
    }

    /// A W x H XY-routed mesh, one node per router. Ports: 0 = east,
    /// 1 = west, 2 = north (y+1), 3 = south.
    fn mesh_spec(w: usize, h: usize) -> NetworkSpec {
        let n = w * h;
        let mut s = mesh_wiring(w, h);
        for v in 0..2u8 {
            for r in 0..n {
                for d in 0..n {
                    let port = if d == r {
                        LOCAL_PORT
                    } else if d % w != r % w {
                        PortId(if d % w > r % w { 0 } else { 1 })
                    } else {
                        PortId(if d > r { 2 } else { 3 })
                    };
                    s.tables
                        .set(Vnet(v), RouterId(r as u16), NodeId(d as u16), port);
                }
            }
        }
        s
    }

    /// [`mesh_spec`]'s channels and NIs with empty routing tables: enough
    /// for a network that never carries a packet.
    fn mesh_wiring(w: usize, h: usize) -> NetworkSpec {
        let n = w * h;
        let mut s = NetworkSpec::new(n, n, 2);
        let at = |r: usize, p: u8| PortRef::new(RouterId(r as u16), PortId(p));
        for r in 0..n {
            if r % w + 1 < w {
                s.add_channel(mesh_channel(at(r, 0), at(r + 1, 1)));
                s.add_channel(mesh_channel(at(r + 1, 1), at(r, 0)));
            }
            if r + w < n {
                for (a, b) in [(at(r, 2), at(r + w, 3)), (at(r + w, 3), at(r, 2))] {
                    let mut c = mesh_channel(a, b);
                    c.dim_y = true;
                    s.add_channel(c);
                }
            }
            s.add_ni(NiSpec::local(
                NodeId(r as u16),
                RouterId(r as u16),
                LOCAL_PORT,
            ));
        }
        s
    }

    fn net(n: usize) -> Network {
        Network::new(row_spec(n), SimConfig::baseline()).unwrap()
    }

    /// Steps `cycles` times and returns every cycle's deliveries.
    fn run_collect(net: &mut Network, cycles: u64) -> Vec<Delivered> {
        let mut out = Vec::new();
        for _ in 0..cycles {
            net.step();
            out.extend_from_slice(net.delivered());
        }
        out
    }

    /// Packets delivered since construction.
    fn packets(net: &Network) -> u64 {
        net.totals().stats.packets
    }

    #[test]
    fn single_packet_delivery_and_latency() {
        let mut net = net(4);
        net.inject(Packet::request(1, NodeId(0), NodeId(3), 7))
            .unwrap();
        let d = run_collect(&mut net, 60);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].packet.id, 1);
        assert_eq!(d[0].packet.tag, 7);
        assert_eq!(d[0].hops, 3);
        // Zero-load: 3 hops * (Tr + Tl) + final router Tr + injection.
        assert!(
            d[0].network_latency() >= 9,
            "latency {}",
            d[0].network_latency()
        );
        assert!(
            d[0].network_latency() <= 16,
            "latency {}",
            d[0].network_latency()
        );
        assert_eq!(net.in_flight(), 0);
        assert_eq!(net.unroutable_events(), 0);
    }

    #[test]
    fn self_delivery_zero_hops() {
        let mut net = net(2);
        net.inject(Packet::request(1, NodeId(0), NodeId(0), 0))
            .unwrap();
        let d = run_collect(&mut net, 20);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].hops, 0);
    }

    #[test]
    fn multiflit_packet_arrives_intact() {
        let mut net = net(3);
        net.inject(Packet::reply(9, NodeId(0), NodeId(2), 5))
            .unwrap();
        let d = run_collect(&mut net, 60);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].packet.len, crate::config::DATA_PACKET_FLITS);
        assert_eq!(d[0].packet.kind, crate::flit::PacketKind::Reply);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn many_packets_all_delivered_exactly_once() {
        let mut net = net(5);
        let mut id = 0u64;
        for src in 0..5u16 {
            for dst in 0..5u16 {
                if src == dst {
                    continue;
                }
                id += 1;
                net.inject(Packet::request(id, NodeId(src), NodeId(dst), 0))
                    .unwrap();
            }
        }
        let d = run_collect(&mut net, 500);
        assert_eq!(d.len(), id as usize);
        let mut ids: Vec<u64> = d.iter().map(|x| x.packet.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), id as usize);
        assert_eq!(net.in_flight(), 0);
        assert_eq!(net.unroutable_events(), 0);
    }

    #[test]
    fn bypass_reduces_injection_latency() {
        let base = {
            let mut n = Network::new(row_spec(2), SimConfig::baseline()).unwrap();
            n.inject(Packet::request(1, NodeId(0), NodeId(1), 0))
                .unwrap();
            run_collect(&mut n, 40)[0].network_latency()
        };
        let bypass = {
            let mut cfg = SimConfig::baseline();
            cfg.injection_bypass = true;
            let mut n = Network::new(row_spec(2), cfg).unwrap();
            n.inject(Packet::request(1, NodeId(0), NodeId(1), 0))
                .unwrap();
            let d = run_collect(&mut n, 40);
            assert!(n.totals().events.bypass_injections > 0);
            d[0].network_latency()
        };
        assert!(bypass < base, "bypass {bypass} should beat base {base}");
    }

    #[test]
    fn credits_are_conserved() {
        let mut net = net(4);
        for i in 0..20 {
            net.inject(Packet::reply(i, NodeId(0), NodeId(3), 0))
                .unwrap();
        }
        net.run(1000);
        assert_eq!(net.in_flight(), 0);
        // After drain, every output port's credits must be back at depth.
        let depth = net.cfg.vc_depth;
        let total_vcs = net.cfg.total_vcs();
        for gp in 0..net.lanes.port_router.len() {
            let gv0 = gp * total_vcs;
            if net.lanes.out_channel[gp].is_some() {
                for &c in &net.lanes.credits[gv0..gv0 + total_vcs] {
                    assert_eq!(c, depth);
                }
            }
            for a in &net.lanes.alloc[gv0..gv0 + total_vcs] {
                assert!(a.is_none());
            }
        }
    }

    #[test]
    fn contention_is_fair_and_lossless() {
        // Nodes 0 and 1 both hammer node 3 through the shared row.
        let mut net = net(4);
        let mut id = 0;
        for _ in 0..50 {
            id += 1;
            net.inject(Packet::request(id, NodeId(0), NodeId(3), 0))
                .unwrap();
            id += 1;
            net.inject(Packet::request(id, NodeId(1), NodeId(3), 0))
                .unwrap();
        }
        net.run(2000);
        assert_eq!(packets(&net), 100);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn epoch_report_resets_window() {
        let mut net = net(3);
        net.inject(Packet::request(1, NodeId(0), NodeId(2), 0))
            .unwrap();
        net.run(50);
        let e1 = net.take_epoch();
        assert_eq!(e1.stats.packets, 1);
        assert_eq!(e1.stats.cycles, 50);
        assert!(e1.events.buffer_writes > 0);
        net.run(10);
        let e2 = net.take_epoch();
        assert_eq!(e2.stats.packets, 0);
        assert_eq!(e2.stats.cycles, 10);
        // Totals keep accumulating.
        assert_eq!(net.totals().stats.packets, 1);
        assert_eq!(net.totals().stats.cycles, 60);
    }

    #[test]
    fn totals_fold_every_window_and_keep_the_construction_capacity() {
        // R2 has no channel or NI; powering it on grows the buffers.
        let spec = |r2_on: bool| {
            let mut s = NetworkSpec::new(3, 2, 2);
            s.channels = mesh_wiring(2, 1).channels;
            s.routers[2].active = r2_on;
            for n in 0..2 {
                s.add_ni(NiSpec::local(NodeId(n), RouterId(n), LOCAL_PORT));
            }
            let routes = [(0, 0, LOCAL_PORT), (0, 1, PortId(0))];
            let routes = routes
                .into_iter()
                .chain([(1, 1, LOCAL_PORT), (1, 0, PortId(1))]);
            for (r, d, port) in routes {
                for v in 0..2 {
                    s.tables.set(Vnet(v), RouterId(r), NodeId(d), port);
                }
            }
            s
        };
        let mut net = Network::new(spec(false), SimConfig::baseline()).unwrap();
        let built = net.totals().stats.buffer_capacity;
        let mut sum = NetStats::default();
        for (id, on) in [(1, true), (2, false), (3, true)] {
            net.inject(Packet::reply(id, NodeId(0), NodeId(1), 0))
                .unwrap();
            net.run(40);
            net.reconfigure(spec(on)).unwrap();
            let before = net.totals();
            let window = net.take_epoch();
            assert_eq!(net.totals(), before, "taking an epoch moves nothing");
            sum.accumulate(&window.stats);
        }
        let totals = net.totals().stats;
        assert_eq!(totals.packets, 3);
        assert!(sum.buffer_capacity > built);
        assert_eq!(totals.buffer_capacity, built);
        sum.buffer_capacity = built;
        assert_eq!(totals, sum);
    }

    #[test]
    fn static_cycles_track_router_counts() {
        let mut net = net(3);
        net.run(10);
        let e = net.take_epoch();
        assert_eq!(e.static_cycles.cycles, 10);
        assert_eq!(e.static_cycles.router_on_cycles, 30);
        assert_eq!(e.static_cycles.router_off_cycles, 0);
        assert!(e.static_cycles.mesh_link_mm_cycles > 0.0);
    }

    #[test]
    fn sleeping_router_stalls_and_wakes_on_arrival() {
        let mut net = net(3);
        assert!(net.try_sleep_router(RouterId(1)));
        assert!(net.is_sleeping(RouterId(1)));
        net.inject(Packet::request(1, NodeId(0), NodeId(2), 0))
            .unwrap();
        let d = run_collect(&mut net, 200);
        assert_eq!(d.len(), 1);
        assert!(!net.is_sleeping(RouterId(1)), "arrival should wake router");
        // Wake-up penalty should be visible vs a fully-on network.
        let mut net2 = net2_helper();
        net2.inject(Packet::request(1, NodeId(0), NodeId(2), 0))
            .unwrap();
        let d2 = run_collect(&mut net2, 200);
        assert!(d[0].network_latency() > d2[0].network_latency());
    }

    fn net2_helper() -> Network {
        Network::new(row_spec(3), SimConfig::baseline()).unwrap()
    }

    #[test]
    fn sleep_refused_when_flits_buffered() {
        let mut net = net(3);
        net.inject(Packet::reply(1, NodeId(0), NodeId(2), 0))
            .unwrap();
        net.run(4);
        // Router 0 or 1 should be holding flits now.
        let holding: Vec<u16> = (0..3u16)
            .filter(|&r| net.router_flits(RouterId(r)) > 0)
            .collect();
        assert!(!holding.is_empty());
        for r in holding {
            assert!(!net.try_sleep_router(RouterId(r)));
        }
    }

    #[test]
    fn wake_set_wakes_on_the_deadline_and_drops_failed_routers() {
        let mut net = net(3);
        net.set_guard_mode(GuardMode::Strict);
        let latency = net.cfg.wake_latency as u64;
        assert!(net.try_sleep_router(RouterId(1)));
        assert!(!net.pending_wakes.contains(1), "no deadline, no member");
        net.wake_router(RouterId(1));
        assert!(net.pending_wakes.contains(1));
        net.run(latency - 1);
        assert!(net.is_sleeping(RouterId(1)), "woke before its deadline");
        net.step();
        assert!(!net.is_sleeping(RouterId(1)), "missed its deadline");
        assert!(net.pending_wakes.is_empty());

        assert!(net.try_sleep_router(RouterId(2)));
        net.wake_router(RouterId(2));
        assert!(net.pending_wakes.contains(2));
        net.fail_router(RouterId(2));
        assert!(net.pending_wakes.is_empty(), "a failed router left the set");
        net.wake_router(RouterId(2));
        net.run(latency + 1);
        assert!(net.pending_wakes.is_empty() && net.is_sleeping(RouterId(2)));
        assert!(net.check_invariants().is_empty());
        assert_eq!(net.totals().health.violations, 0);
    }

    #[test]
    fn router_config_stall_delays_traffic() {
        let mut net = net(3);
        net.begin_router_config(RouterId(1), 50);
        net.inject(Packet::request(1, NodeId(0), NodeId(2), 0))
            .unwrap();
        net.run(40);
        assert_eq!(packets(&net), 0, "stalled router should hold traffic");
        net.run(60);
        assert_eq!(packets(&net), 1);
    }

    #[test]
    fn vc_mask_restricts_injection() {
        let mut net = net(2);
        // Restrict request vnet at router 0 to VC 0 only.
        net.set_vc_mask(RouterId(0), Vnet::REQUEST, 0b001);
        for i in 0..10 {
            net.inject(Packet::request(i, NodeId(0), NodeId(1), 0))
                .unwrap();
        }
        net.run(300);
        assert_eq!(packets(&net), 10);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one VC")]
    fn vc_mask_cannot_disable_all() {
        let mut net = net(2);
        net.set_vc_mask(RouterId(0), Vnet::REQUEST, 0);
    }

    #[test]
    fn inject_unknown_node_errors() {
        let mut net = net(2);
        let stray = Packet::request(1, NodeId(9), NodeId(0), 0);
        let err = Err(NetworkError::NoSuchNode(NodeId(9)));
        assert_eq!(net.inject(stray), err);
        assert_eq!(net.inject_retry(stray, 1), err);
        assert_eq!(net.in_flight(), 0);
        let t = net.totals().stats;
        assert_eq!((t.packets_offered, t.retries), (0, 0), "nothing was queued");
    }

    #[test]
    fn install_tables_reroutes_future_packets() {
        let mut net = net(3);
        // Break the route 0 -> 2, then restore it.
        let mut broken = net.spec().tables.clone();
        broken.clear(Vnet::REQUEST, RouterId(0), NodeId(2));
        net.install_tables(broken);
        net.inject(Packet::request(1, NodeId(0), NodeId(2), 0))
            .unwrap();
        net.run(30);
        assert!(net.unroutable_events() > 0);
        assert_eq!(packets(&net), 0);
        let fixed = row_spec(3).tables;
        net.install_tables(fixed);
        net.run(30);
        assert_eq!(packets(&net), 1);
    }

    #[test]
    fn reconfigure_identity_is_noop() {
        let mut net = net(4);
        net.inject(Packet::request(1, NodeId(0), NodeId(3), 0))
            .unwrap();
        net.run(3);
        let spec = net.spec().clone();
        net.reconfigure(spec).unwrap();
        net.run(60);
        assert_eq!(packets(&net), 1);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn reconfigure_add_express_link_shortens_path() {
        let mut net = net(4);
        net.inject(Packet::request(1, NodeId(0), NodeId(3), 0))
            .unwrap();
        let base_hops = run_collect(&mut net, 100)[0].hops;
        assert_eq!(base_hops, 3);

        // Add an express channel R0 -> R3 on spare ports (2 = north used as
        // express here) and route through it.
        let mut spec = net.spec().clone();
        spec.add_channel(crate::spec::ChannelSpec {
            src: PortRef::new(RouterId(0), PortId(2)),
            dst: PortRef::new(RouterId(3), PortId(2)),
            latency: 1,
            length_mm: 3.0,
            dateline: false,
            dim_y: false,
            kind: ChannelKind::Adaptable,
        });
        spec.tables
            .set(Vnet::REQUEST, RouterId(0), NodeId(3), PortId(2));
        net.reconfigure(spec).unwrap();
        net.inject(Packet::request(2, NodeId(0), NodeId(3), 0))
            .unwrap();
        let d = run_collect(&mut net, 100);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].hops, 1, "express link should bypass routers");
        assert!(net.totals().events.mux_traversals > 0);
    }

    #[test]
    fn reconfigure_remove_busy_channel_rejected() {
        let mut net = net(4);
        // Saturate with traffic, then try to remove a middle channel.
        for i in 0..20 {
            net.inject(Packet::reply(i, NodeId(0), NodeId(3), 0))
                .unwrap();
        }
        net.run(6);
        let mut spec = net.spec().clone();
        // Remove channel R1->R2 (east out of router 1) and reroute via
        // nothing (break route so validation passes with cleared entries).
        let key = spec
            .channels
            .iter()
            .position(|c| {
                c.src == PortRef::new(RouterId(1), PortId(0))
                    && c.dst == PortRef::new(RouterId(2), PortId(1))
            })
            .unwrap();
        spec.channels.remove(key);
        for v in 0..2u8 {
            spec.tables.clear(Vnet(v), RouterId(0), NodeId(2));
            spec.tables.clear(Vnet(v), RouterId(0), NodeId(3));
            spec.tables.clear(Vnet(v), RouterId(1), NodeId(2));
            spec.tables.clear(Vnet(v), RouterId(1), NodeId(3));
        }
        let err = net.reconfigure(spec);
        assert!(
            matches!(err, Err(NetworkError::ChannelBusy(_))),
            "got {err:?}"
        );
    }

    #[test]
    fn reconfigure_preserves_source_queues() {
        let mut net = net(3);
        for i in 0..5 {
            net.inject(Packet::request(i, NodeId(0), NodeId(2), 0))
                .unwrap();
        }
        // Immediately reconfigure (identity) before anything injects.
        let spec = net.spec().clone();
        net.reconfigure(spec).unwrap();
        net.run(200);
        assert_eq!(packets(&net), 5);
    }

    #[test]
    fn reconfigure_refuses_to_move_an_ni_mid_packet_only() {
        // The spec of `row_spec(3)` with `node`'s NI moved to port 2.
        let moved = |node: u16| {
            let mut spec = row_spec(3);
            spec.nis[node as usize].port = PortId(2);
            for v in 0..2u8 {
                spec.tables
                    .set(Vnet(v), RouterId(node), NodeId(node), PortId(2));
            }
            spec
        };
        let mut net = net(3);
        let long = Packet {
            len: 8,
            ..Packet::reply(1, NodeId(0), NodeId(2), 0)
        };
        net.inject(long).unwrap();
        net.run(2);
        assert!(!net.ni_idle(NodeId(0)) && net.ni_idle(NodeId(2)));
        // Node 0 is streaming its packet: its NI stays where it is.
        let err = net.reconfigure(moved(0));
        assert!(
            matches!(err, Err(NetworkError::NiBusy(NodeId(0)))),
            "got {err:?}"
        );
        // Moving an idle NI, or none, is fine while node 0 streams.
        net.reconfigure(moved(2)).unwrap();
        net.reconfigure(row_spec(3)).unwrap();
        net.run(100);
        assert_eq!(packets(&net), 1);
    }

    #[test]
    fn reconfigure_rejects_shape_changes() {
        let mut net = net(3);
        let bad = row_spec(4);
        assert!(matches!(net.reconfigure(bad), Err(NetworkError::Shape(_))));
    }

    /// Routes every node along a row of routers: east (port 0) or west
    /// (port 1) to its NI's router, then out of the NI's port.
    fn route_row(s: &mut NetworkSpec) {
        for ni in s.nis.clone() {
            for r in 0..s.routers.len() {
                let port = match r.cmp(&ni.router.index()) {
                    std::cmp::Ordering::Less => PortId(0),
                    std::cmp::Ordering::Greater => PortId(1),
                    std::cmp::Ordering::Equal => ni.port,
                };
                for v in 0..2u8 {
                    s.tables.set(Vnet(v), RouterId(r as u16), ni.node, port);
                }
            }
        }
    }

    /// A row of `routers` routers plus the channel `extra` (`(router,
    /// port)` to `(router, port)`), with node `k`'s NI at `at[k]` =
    /// `(router, port, concentrated)`, every node routed by [`route_row`].
    fn row_with(routers: usize, extra: [(u16, u8); 2], at: &[(u16, u8, bool)]) -> NetworkSpec {
        let mut s = NetworkSpec::new(routers, at.len(), 2);
        s.channels = mesh_wiring(routers, 1).channels;
        let [a, b] = extra.map(|(r, p)| PortRef::new(RouterId(r), PortId(p)));
        s.add_channel(mesh_channel(a, b));
        for (k, &(r, p, conc)) in at.iter().enumerate() {
            let (node, router, port) = (NodeId(k as u16), RouterId(r), PortId(p));
            s.add_ni(if conc {
                NiSpec::concentrated(node, router, port, 1.0)
            } else {
                NiSpec::local(node, router, port)
            });
        }
        route_row(&mut s);
        s
    }

    /// Asserts the network's port wiring is what a brute-force walk of its
    /// spec derives, port by port.
    fn assert_wiring_matches_spec(net: &Network) {
        let (spec, l) = (net.spec(), &net.lanes);
        for (ri, r) in spec.routers.iter().enumerate() {
            let mut eject = 0u32;
            for pi in 0..r.n_ports as usize {
                let at = PortRef::new(RouterId(ri as u16), PortId(pi as u8));
                let id = |i: usize| ChannelId(i as u32);
                let out = spec.channels.iter().position(|c| c.src == at).map(id);
                let feeder = spec.channels.iter().position(|c| c.dst == at).map(id);
                let nis: Vec<u32> = (0..spec.nis.len() as u32)
                    .filter(|&i| {
                        PortRef::new(spec.nis[i as usize].router, spec.nis[i as usize].port) == at
                    })
                    .collect();
                if !nis.is_empty() {
                    eject |= 1 << pi;
                }
                let gp = l.gp(ri, pi);
                let got = (l.out_channel[gp], l.feeder[gp], l.port_nis(gp));
                assert_eq!(got, (out, feeder, &nis[..]), "R{ri}:p{pi}");
            }
            assert_eq!(l.eject_out[ri], eject, "R{ri} ejection ports");
        }
        assert_eq!(
            (l.ni_base.len(), l.port_nis.len()),
            (l.port_router.len() + 1, spec.nis.len())
        );
    }

    #[test]
    fn wiring_matches_the_spec_across_a_reconfigure_sequence() {
        let (local, north, south) = (LOCAL_PORT.0, 2, 3);
        // Nodes 3 and 4 share R3's local port.
        let mut at = vec![
            (0, local, false),
            (1, local, false),
            (2, local, false),
            (3, local, true),
            (3, local, true),
        ];
        let mut net = Network::new(
            row_with(4, [(0, north), (2, south)], &at),
            SimConfig::baseline(),
        )
        .unwrap();
        assert_wiring_matches_spec(&net);
        // Node 4 sends alone, moving the shared port's pointer off its start.
        net.inject(Packet::request(1, NodeId(4), NodeId(0), 0))
            .unwrap();
        net.run(100);
        let shared = net.lanes.gp(3, LOCAL_PORT.index());
        let rr = net.lanes.inj_rr[shared].clone();
        assert_ne!(rr, crate::arbiter::RoundRobin::new());

        // Remove the extra channel and add its reverse.
        let extra = [(2, south), (0, north)];
        net.reconfigure(row_with(4, extra, &at)).unwrap();
        assert_wiring_matches_spec(&net);
        // Move node 1's idle NI to R1's north port.
        at[1] = (1, north, false);
        net.reconfigure(row_with(4, extra, &at)).unwrap();
        assert_wiring_matches_spec(&net);
        // Put four concentrated NIs on R3's local port.
        at[1] = (3, local, true);
        at[2] = (3, local, true);
        net.reconfigure(row_with(4, extra, &at)).unwrap();
        assert_wiring_matches_spec(&net);
        assert_eq!(net.lanes.port_nis(shared), [1, 2, 3, 4]);
        assert_eq!(net.lanes.inj_rr[shared], rr, "pointer of a surviving port");

        // Every node still reaches every other.
        let mut id = 1;
        for src in 0..5 {
            for dst in 0..5 {
                id += 1;
                net.inject(Packet::request(id, NodeId(src), NodeId(dst), 0))
                    .unwrap();
            }
        }
        net.run(500);
        assert_eq!((packets(&net), net.in_flight()), (26, 0));
        assert_eq!(net.check_invariants(), []);
    }

    #[test]
    fn limit_refuses_a_router_above_32_ports() {
        // Node 0's NI on the last port of a 32-port router still works.
        let at = [(0, 31, false), (1, LOCAL_PORT.0, false)];
        let mut spec = row_with(2, [(0, 2), (1, 3)], &at);
        spec.routers[0].n_ports = 32;
        let mut net = Network::new(spec.clone(), SimConfig::baseline()).unwrap();
        net.inject(Packet::request(1, NodeId(0), NodeId(1), 0))
            .unwrap();
        net.inject(Packet::request(2, NodeId(1), NodeId(0), 0))
            .unwrap();
        net.run(100);
        assert_eq!(packets(&net), 2);
        // A 40-port router does not fit the `u32` port masks.
        spec.routers[0].n_ports = 40;
        let err = Network::new(spec, SimConfig::baseline()).map(|_| ());
        assert!(matches!(err, Err(NetworkError::Shape(_))), "got {err:?}");
    }

    #[test]
    fn limit_refuses_more_vcs_than_the_masks_hold() {
        for (vnets, vcs_per_vnet) in [(2, 20), (2, 9), (5, 8)] {
            let cfg = SimConfig {
                vnets,
                vcs_per_vnet,
                ..SimConfig::baseline()
            };
            let mut spec = NetworkSpec::new(1, 1, vnets as usize);
            spec.add_ni(NiSpec::local(NodeId(0), RouterId(0), LOCAL_PORT));
            for v in 0..vnets {
                spec.tables.set(Vnet(v), RouterId(0), NodeId(0), LOCAL_PORT);
            }
            let err = Network::new(spec, cfg).map(|_| ());
            assert!(
                matches!(err, Err(NetworkError::Config(_))),
                "{vnets}x{vcs_per_vnet}: {err:?}"
            );
        }
    }

    #[test]
    fn limit_refuses_vc_depth_above_15_and_vcs_past_the_ring_ids() {
        // Depth 15 fills the buffer's 4-bit length field and still carries
        // every flit; 16 is refused.
        let deep = SimConfig {
            vc_depth: 15,
            ..SimConfig::baseline()
        };
        let mut net = Network::new(row_spec(4), deep.clone()).unwrap();
        net.set_guard_mode(GuardMode::Strict);
        for i in 0..60 {
            net.inject(Packet::reply(i, NodeId(0), NodeId(3), 0))
                .unwrap();
        }
        net.run(2_000);
        assert_eq!(packets(&net), 60);
        let too_deep = SimConfig {
            vc_depth: 16,
            ..deep
        };
        let err = Network::new(row_spec(4), too_deep).map(|_| ());
        assert!(matches!(err, Err(NetworkError::Config(_))), "got {err:?}");
        // 2^24 VCs fit the ring ids, one port more does not.
        let ports = |n| vec![32; n];
        assert!(check_vc_count(&ports(soa::MAX_VCS / 32 / 32), 32).is_ok());
        let mut over = ports(soa::MAX_VCS / 32 / 32);
        over.push(1);
        let err = check_vc_count(&over, 32);
        assert!(matches!(err, Err(NetworkError::Shape(_))), "got {err:?}");
    }

    #[test]
    fn limit_refuses_more_than_8_nis_on_one_port() {
        // Node `k < 10` on R0's local port (`on_local` of them) or north
        // port, node 10 on R1.
        let spec = |on_local: usize| {
            let mut at: Vec<(u16, u8, bool)> = (0..10)
                .map(|k| (0, if k < on_local { LOCAL_PORT.0 } else { 2 }, true))
                .collect();
            at.push((1, LOCAL_PORT.0, false));
            row_with(2, [(1, 2), (0, 3)], &at)
        };
        let err = Network::new(spec(10), SimConfig::baseline()).map(|_| ());
        assert!(matches!(err, Err(NetworkError::Shape(_))), "got {err:?}");

        // Eight fit, and all of them are served; a reconfiguration to ten is
        // refused before it changes anything.
        let mut net = Network::new(spec(8), SimConfig::baseline()).unwrap();
        for k in 0..10 {
            net.inject(Packet::request(k, NodeId(k as u16), NodeId(10), 0))
                .unwrap();
        }
        net.run(3);
        let before = net.spec_shared();
        let err = net.reconfigure(spec(10));
        assert!(matches!(err, Err(NetworkError::Shape(_))), "got {err:?}");
        assert!(Arc::ptr_eq(&before, &net.spec_shared()));
        net.run(2000);
        assert_eq!((packets(&net), net.in_flight()), (10, 0));
        assert_eq!(net.check_invariants(), []);
    }

    #[test]
    fn concentration_shared_port_arbitrates_fairly() {
        // Two nodes share router 0's local port; both send to node 2.
        let mut s = NetworkSpec::new(2, 3, 2);
        let r0e = PortRef::new(RouterId(0), PortId(0));
        let r1w = PortRef::new(RouterId(1), PortId(1));
        s.add_channel(mesh_channel(r0e, r1w));
        s.add_channel(mesh_channel(r1w, r0e));
        s.add_ni(NiSpec::local(NodeId(0), RouterId(0), LOCAL_PORT));
        s.add_ni(NiSpec::concentrated(
            NodeId(1),
            RouterId(0),
            LOCAL_PORT,
            1.0,
        ));
        s.add_ni(NiSpec::local(NodeId(2), RouterId(1), LOCAL_PORT));
        for v in 0..2u8 {
            s.tables.set(Vnet(v), RouterId(0), NodeId(0), LOCAL_PORT);
            s.tables.set(Vnet(v), RouterId(0), NodeId(1), LOCAL_PORT);
            s.tables.set(Vnet(v), RouterId(0), NodeId(2), PortId(0));
            s.tables.set(Vnet(v), RouterId(1), NodeId(2), LOCAL_PORT);
            s.tables.set(Vnet(v), RouterId(1), NodeId(0), PortId(1));
            s.tables.set(Vnet(v), RouterId(1), NodeId(1), PortId(1));
        }
        let mut net = Network::new(s, SimConfig::baseline()).unwrap();
        let mut id = 0;
        for _ in 0..25 {
            id += 1;
            net.inject(Packet::request(id, NodeId(0), NodeId(2), 0))
                .unwrap();
            id += 1;
            net.inject(Packet::request(id, NodeId(1), NodeId(2), 0))
                .unwrap();
        }
        net.run(1000);
        assert_eq!(packets(&net), 50);
        assert!(
            net.totals().events.mux_traversals > 0,
            "concentration counts mux events"
        );
    }

    #[test]
    fn dateline_switches_vc_class() {
        // Two routers with a dateline channel between them; verify traffic
        // still flows (class-1 VCs exist thanks to vc_split).
        let mut s = row_spec(2);
        s.channels[0].dateline = true;
        for r in s.routers.iter_mut() {
            r.vc_split = Some(1); // VC0 = class 0, VC1.. = class 1
        }
        let mut net = Network::new(s, SimConfig::baseline()).unwrap();
        for i in 0..10 {
            net.inject(Packet::request(i, NodeId(0), NodeId(1), 0))
                .unwrap();
        }
        net.run(300);
        assert_eq!(packets(&net), 10);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn queuing_latency_grows_under_overload() {
        let mut net = net(2);
        for i in 0..200 {
            net.inject(Packet::reply(i, NodeId(0), NodeId(1), 0))
                .unwrap();
        }
        let d = run_collect(&mut net, 4000);
        assert_eq!(d.len(), 200);
        // Later packets should have queued far longer than early ones.
        let early = d[..10].iter().map(|x| x.queuing_latency()).max().unwrap();
        let late = d[190..].iter().map(|x| x.queuing_latency()).min().unwrap();
        assert!(late > early, "late {late} early {early}");
    }

    fn key_between(net: &Network, src: RouterId, dst: RouterId) -> ChannelKey {
        net.spec()
            .channels
            .iter()
            .find(|c| c.src.router == src && c.dst.router == dst)
            .map(|c| c.key())
            .expect("row spec has this channel")
    }

    #[test]
    fn transient_link_fault_stalls_then_delivers() {
        let mut net = net(4);
        for i in 1..=6 {
            net.inject(Packet::reply(i, NodeId(0), NodeId(3), 0))
                .unwrap();
        }
        net.run(5);
        let key = key_between(&net, RouterId(1), RouterId(2));
        let nacked = net.set_channel_fault(key, true).unwrap();
        assert!(net.channel_faulted(key));
        // While the link is down, nothing crosses it; upstream traffic waits.
        net.run(100);
        assert_eq!(packets(&net), 0);
        assert!(net.in_flight() > 0);
        // Heal, re-inject the NACKed packets, and everything arrives.
        net.set_channel_fault(key, false).unwrap();
        assert!(!net.channel_faulted(key));
        for (a, p) in nacked.into_iter().enumerate() {
            net.inject_retry(p, a as u32 + 1).unwrap();
        }
        net.run(800);
        assert_eq!(packets(&net), 6);
        assert_eq!(net.in_flight(), 0);
        let t = net.totals().stats;
        assert_eq!(t.nacks, t.retries);
        assert_eq!(t.drops, 0);
        assert!((t.delivery_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn link_fault_nacks_whole_packets() {
        let mut net = net(3);
        // Multi-flit packets so some are mid-stream across the link.
        for i in 1..=4 {
            net.inject(Packet::reply(i, NodeId(0), NodeId(2), 0))
                .unwrap();
        }
        net.run(12);
        let key = key_between(&net, RouterId(0), RouterId(1));
        let nacked = net.set_channel_fault(key, true).unwrap();
        // Every NACKed packet comes back whole and exactly once.
        let mut ids: Vec<u64> = nacked.iter().map(|p| p.id).collect();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n);
        for p in &nacked {
            assert_eq!(p.len, crate::config::DATA_PACKET_FLITS);
            assert_eq!(p.src, NodeId(0));
        }
        // Faulting again is idempotent.
        assert_eq!(net.set_channel_fault(key, true).unwrap().len(), 0);
        // Flit conservation: remaining in-flight + delivered + NACKed
        // accounts for everything offered.
        net.run(400);
        let delivered = packets(&net) as usize;
        let undeliverable = net.in_flight() > 0; // packets stuck behind the dead link
        assert!(delivered + n <= 4 + n);
        assert!(undeliverable || delivered + n >= 4);
    }

    #[test]
    fn failed_router_purges_and_goes_dark() {
        let mut net = net(4);
        for i in 1..=8 {
            net.inject(Packet::reply(i, NodeId(0), NodeId(3), 0))
                .unwrap();
        }
        net.run(10);
        let nacked = net.fail_router(RouterId(2));
        assert!(net.router_failed(RouterId(2)));
        assert!(net.is_sleeping(RouterId(2)));
        assert_eq!(net.router_flits(RouterId(2)), 0);
        // It never wakes, even if asked.
        net.wake_router(RouterId(2));
        net.run(50);
        assert!(net.is_sleeping(RouterId(2)));
        // Repeat fail is a no-op.
        assert_eq!(net.fail_router(RouterId(2)).len(), 0);
        let _ = nacked;
    }

    #[test]
    fn purge_blocked_reaps_traffic_stuck_at_dead_link() {
        let mut net = net(4);
        for i in 1..=10 {
            net.inject(Packet::reply(i, NodeId(0), NodeId(3), 0))
                .unwrap();
        }
        net.run(8);
        let key = key_between(&net, RouterId(2), RouterId(3));
        let mut nacked = net.set_channel_fault(key, true).unwrap();
        // Let upstream traffic pile up against the fault, then reap it.
        let mut guard = 0;
        while net.in_flight() > 0 {
            net.step();
            nacked.extend(net.purge_blocked());
            // Packets still queued at the source NI can't make progress
            // either once everything routed is reaped.
            if net.in_flight() == net.ni_queue_len(NodeId(0)) as u64 {
                nacked.extend(net.purge_ni_queue(NodeId(0)));
            }
            guard += 1;
            assert!(guard < 2_000, "purge_blocked failed to drain");
        }
        let delivered = packets(&net) as usize;
        let mut ids: Vec<u64> = nacked.iter().map(|p| p.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            delivered + ids.len(),
            10,
            "every packet delivered or NACKed"
        );
        // All channels are quiescent after the reap.
        for c in net.spec().channels.clone() {
            assert!(net.channel_quiescent(c.key()));
        }
    }

    #[test]
    fn fault_flag_survives_reconfigure() {
        let mut net = net(3);
        let key = key_between(&net, RouterId(0), RouterId(1));
        net.set_channel_fault(key, true).unwrap();
        net.reconfigure(row_spec(3)).unwrap();
        assert!(net.channel_faulted(key));
        // The flag still blocks traffic after the swap.
        net.inject(Packet::request(1, NodeId(0), NodeId(2), 0))
            .unwrap();
        net.run(100);
        assert_eq!(packets(&net), 0);
        net.set_channel_fault(key, false).unwrap();
        net.run(100);
        assert_eq!(packets(&net), 1);
    }

    #[test]
    fn fault_on_unknown_channel_errors() {
        let mut net = net(2);
        let bogus = ChannelKey {
            src: PortRef::new(RouterId(0), PortId(7)),
            dst: PortRef::new(RouterId(1), PortId(7)),
        };
        assert_eq!(
            net.set_channel_fault(bogus, true),
            Err(NetworkError::NoSuchChannel(bogus))
        );
    }

    #[test]
    fn retry_preserves_delivery_ratio_accounting() {
        let mut net = net(2);
        net.inject(Packet::request(1, NodeId(0), NodeId(1), 0))
            .unwrap();
        net.run(3);
        let key = key_between(&net, RouterId(0), RouterId(1));
        let nacked = net.set_channel_fault(key, true).unwrap();
        net.set_channel_fault(key, false).unwrap();
        for p in nacked {
            net.inject_retry(p, 1).unwrap();
        }
        net.run(100);
        let t = net.totals().stats;
        assert_eq!(t.packets_offered, 1, "retries are not newly offered");
        assert_eq!(t.packets, 1);
        net.count_dropped(99);
        assert_eq!(net.totals().stats.drops, 1);
    }

    #[test]
    fn injected_at_is_the_cycle_the_tail_entered_the_source_router() {
        let mut net = net(3);
        // Hold router 0 so the 8-flit packet fills its depth-4 VC and the
        // NI has to wait behind it: the tail goes in long after the head.
        net.begin_router_config(RouterId(0), 20);
        let long = Packet {
            len: 8,
            ..Packet::reply(1, NodeId(0), NodeId(2), 0)
        };
        net.inject(long).unwrap();
        let (mut head_at, mut tail_at, mut d) = (None, None, Vec::new());
        for _ in 0..200 {
            net.step();
            d.extend_from_slice(net.delivered());
            let streaming = !net.ni_idle(NodeId(0));
            if head_at.is_none() && streaming {
                head_at = Some(net.now());
            } else if head_at.is_some() && tail_at.is_none() && !streaming {
                tail_at = Some(net.now());
            }
        }
        let (head_at, tail_at) = (head_at.unwrap(), tail_at.unwrap());
        assert!(tail_at > head_at + 20, "head {head_at}, tail {tail_at}");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].injected_at, tail_at);
        assert_eq!(d[0].network_latency(), d[0].ejected_at - tail_at);
    }

    #[test]
    fn purge_takes_the_packet_in_the_failed_router_and_spares_its_id_twin() {
        let mut net = net(4);
        net.set_guard_mode(GuardMode::Strict);
        // Two sources picked the same id; tags tell the packets apart.
        net.inject(Packet::request(7, NodeId(0), NodeId(1), 100))
            .unwrap();
        net.inject(Packet::request(7, NodeId(3), NodeId(2), 200))
            .unwrap();
        net.step();
        assert_eq!(net.router_flits(RouterId(0)), 1);
        assert_eq!(net.router_flits(RouterId(3)), 1);
        let nacked = net.fail_router(RouterId(0));
        assert_eq!(nacked.len(), 1, "exactly one NACK");
        assert_eq!((nacked[0].src, nacked[0].tag), (NodeId(0), 100));
        let d = run_collect(&mut net, 60);
        assert_eq!(d.len(), 1, "the twin is delivered");
        assert_eq!((d[0].packet.src, d[0].packet.tag), (NodeId(3), 200));
        let t = net.totals().stats;
        assert_eq!(t.packets_offered, t.packets + t.nacks);
        assert_eq!(net.in_flight(), 0);
        assert_eq!(net.packets.live(), 0);
    }

    #[test]
    fn purged_packets_come_back_ordered_by_id() {
        let mut net = net(4);
        // Hold three packets in router 0, ids out of injection (hence
        // handle) order.
        net.begin_router_config(RouterId(0), 50);
        for id in [9, 5, 7] {
            net.inject(Packet::request(id, NodeId(0), NodeId(3), 0))
                .unwrap();
        }
        net.run(4);
        let ids: Vec<u64> = net.fail_router(RouterId(0)).iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![5, 7, 9]);
    }

    #[test]
    fn packet_table_holds_exactly_the_packets_inside_the_network() {
        let mut net = net(4);
        net.set_guard_mode(GuardMode::Strict);
        for i in 0..30 {
            net.inject(Packet::reply(i, NodeId(0), NodeId(3), 0))
                .unwrap();
        }
        // Source queues hold packets by value: no slot until streaming.
        assert_eq!(net.packets.live(), 0);
        net.run(12);
        let live = net.packets.live();
        assert!(live > 0 && live < 30, "{live} slots for 30 offered packets");
        // Handles are recycled: the table never outgrows what fits inside.
        net.run(1000);
        assert_eq!(packets(&net), 30);
        assert_eq!(net.packets.live(), 0, "table empty after a full drain");
        assert!(net.packets.slots().len() < 30);
        assert!(net.check_invariants().is_empty());
        // A slot without flits (or a flit without a slot) trips the guard.
        net.packets
            .alloc(Packet::request(99, NodeId(0), NodeId(1), 0));
        let v = net.check_invariants();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].kind, InvariantKind::FlitConservation);
    }

    #[test]
    fn a_run_across_the_32_bit_cycle_wrap_matches_the_same_run_from_zero() {
        // Flits keep only the low 32 bits of `ready_at`; buffers and wires
        // are loaded while `now` crosses 2^32.
        let run = |start: u64| {
            let mut net = net(4);
            net.now = start;
            net.set_guard_mode(GuardMode::Strict);
            let (mut id, mut d) = (0, Vec::new());
            for round in 0..40u16 {
                for src in 0..4u16 {
                    let dst = (src + 1 + round % 3) % 4;
                    id += 1;
                    let p = if (round + src) % 2 == 0 {
                        Packet::reply(id, NodeId(src), NodeId(dst), 0)
                    } else {
                        Packet::request(id, NodeId(src), NodeId(dst), 0)
                    };
                    net.inject(p).unwrap();
                }
                d.extend(run_collect(&mut net, 1));
            }
            assert!(net.in_flight() > 0, "still loaded after the wrap");
            d.extend(run_collect(&mut net, 600));
            assert_eq!(net.in_flight(), 0);
            assert_eq!(d.len(), 160);
            d.into_iter()
                .map(|d| {
                    let since = |c: u64| c - start;
                    (
                        d.packet.id,
                        since(d.packet.created_at),
                        since(d.injected_at),
                        since(d.ejected_at),
                        d.hops,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(0), run((1 << 32) - 20));
    }

    #[test]
    fn heap_bytes_is_deterministic_and_the_ring_pool_grows_only_with_occupancy() {
        let a = net(4);
        let b = net(4);
        assert_eq!(a.heap_bytes(), b.heap_bytes());
        assert_eq!(
            a.lanes.slots.capacity(),
            0,
            "a fresh network holds no rings"
        );
        // Less than the 4 routers x 5 ports x 6 VCs x depth 4 flits of
        // 16 bytes a fixed slab would hold.
        assert!(a.heap_bytes() < 4 * 5 * 6 * 4 * 16, "{}", a.heap_bytes());
        assert_eq!(a.packets.heap_bytes(), 0, "no table pre-sizing");

        let mut net = net(4);
        net.set_guard_mode(GuardMode::Strict);
        for i in 0..40 {
            net.inject(Packet::reply(
                i,
                NodeId(i as u16 % 4),
                NodeId(3 - i as u16 % 4),
                0,
            ))
            .unwrap();
        }
        // A held ring holds a flit, and within a step the flits inside the
        // network are at most those there at its start plus one injected
        // per NI: the pool is bounded by the peak of that sum.
        let depth = net.cfg.vc_depth as usize;
        let nis = net.nis.len() as u64;
        let mut bound = 0;
        for _ in 0..400 {
            bound = bound.max(net.occupied_flits + net.wire_flits + nis);
            net.step();
            assert!((net.lanes.slots.len() / depth) as u64 <= bound);
        }
        assert_eq!(packets(&net), 40);
        // Drained, every ring is free again and the pool keeps its size.
        let rings = net.lanes.slots.len() / depth;
        assert!(rings > 1);
        assert_eq!(net.lanes.free_rings.len(), rings);
    }

    #[test]
    fn a_ring_both_held_and_free_trips_the_occupancy_guard() {
        let mut net = net(4);
        net.set_guard_mode(GuardMode::Strict);
        for i in 0..8 {
            net.inject(Packet::reply(i, NodeId(0), NodeId(3), 0))
                .unwrap();
        }
        net.run(6);
        let gv = (0..net.lanes.bufs.len())
            .find(|&gv| net.lanes.buf_len(gv) > 0)
            .expect("a loaded VC");
        assert!(net.check_invariants().is_empty());
        net.lanes.free_held_ring(gv);
        let v = net.check_invariants();
        assert!(
            !v.is_empty() && v.iter().all(|v| v.kind == InvariantKind::BufferOccupancy),
            "{v:?}"
        );
        assert!(
            v.iter()
                .any(|v| v.detail.contains("on the free list but held")),
            "{v:?}"
        );
    }

    #[test]
    fn a_ten_times_longer_run_holds_the_same_heap() {
        // Deliveries are one cycle's output, not a log: once light uniform
        // open-loop traffic has warmed every buffer up, running on adds no
        // heap at all.
        let mut net = Network::new(mesh_spec(4, 4), SimConfig::baseline()).unwrap();
        let mut rng = crate::rng::Rng::seed_from_u64(29);
        let mut id = 0;
        let mut run = |net: &mut Network, cycles: u64| {
            for _ in 0..cycles {
                for src in 0..16 {
                    if rng.random_bool(0.02) {
                        id += 1;
                        let dst = NodeId(rng.random_below(16) as u16);
                        let p = if rng.random_bool(0.5) {
                            Packet::reply(id, NodeId(src), dst, 0)
                        } else {
                            Packet::request(id, NodeId(src), dst, 0)
                        };
                        net.inject(p).unwrap();
                    }
                }
                net.step();
                assert!(net.delivered().len() <= net.spec().nis.len());
            }
        };
        run(&mut net, 2_000);
        run(&mut net, 1_000);
        let after_n = net.heap_bytes();
        run(&mut net, 10_000);
        assert_eq!(net.heap_bytes(), after_n);
        assert!(packets(&net) > 3_000, "{} packets", packets(&net));
    }

    /// A `&mut self` method of [`Network`] by name, whether it writes
    /// state the guard sweep reads, and a call of it on a 3x3 mesh.
    type MutCall = (&'static str, bool, fn(&mut Network));

    fn first_key(net: &Network) -> ChannelKey {
        net.spec().channels[0].key()
    }

    /// Every `&mut self` method except `step` and `run`: the state
    /// writers, then the observation-only methods.
    fn mut_calls() -> Vec<MutCall> {
        vec![
            ("inject", true, |n| {
                n.inject(Packet::request(1, NodeId(0), NodeId(5), 0))
                    .unwrap()
            }),
            ("install_tables", true, |n| {
                let tables = n.spec().tables.clone();
                n.install_tables(tables);
            }),
            ("begin_router_config", true, |n| {
                n.begin_router_config(RouterId(1), 10)
            }),
            ("set_vc_mask", true, |n| {
                n.set_vc_mask(RouterId(1), Vnet::REQUEST, 0b01)
            }),
            ("try_sleep_router", true, |n| {
                assert!(n.try_sleep_router(RouterId(1)))
            }),
            ("wake_router", true, |n| n.wake_router(RouterId(1))),
            ("set_ni_paused", true, |n| n.set_ni_paused(NodeId(0), true)),
            ("reconfigure", true, |n| {
                let spec = n.spec().clone();
                n.reconfigure(spec).unwrap();
            }),
            ("reconfigure_shared", true, |n| {
                let spec = n.spec_shared();
                n.reconfigure_shared(spec).unwrap();
            }),
            ("set_channel_fault", true, |n| {
                let key = first_key(n);
                n.set_channel_fault(key, true).unwrap();
            }),
            ("fail_router", true, |n| {
                n.fail_router(RouterId(1));
            }),
            ("purge_blocked", true, |n| {
                n.purge_blocked();
            }),
            ("inject_retry", true, |n| {
                n.inject_retry(Packet::request(1, NodeId(0), NodeId(5), 0), 1)
                    .unwrap()
            }),
            ("purge_ni_queue", true, |n| {
                n.purge_ni_queue(NodeId(0));
            }),
            ("set_guard_mode", true, |n| {
                n.set_guard_mode(GuardMode::Sampled(64))
            }),
            ("chaos_leak_credit", true, |n| {
                let key = first_key(n);
                n.chaos_leak_credit(key, 0).unwrap();
            }),
            ("take_epoch", false, |n| {
                n.take_epoch();
            }),
            ("count_rl_inference", false, |n| n.count_rl_inference()),
            ("count_dropped", false, |n| n.count_dropped(7)),
            ("set_tracer", false, |n| {
                n.set_tracer(Some(crate::trace::TraceBuffer::new(
                    64,
                    crate::trace::TraceFilter::All,
                )))
            }),
            ("tracer_mut", false, |n| {
                let _ = n.tracer_mut();
            }),
            ("set_telemetry_mode", false, |n| {
                n.set_telemetry_mode(TelemetryMode::Sampled(8))
            }),
            ("telemetry_mut", false, |n| {
                let _ = n.telemetry_mut();
            }),
        ]
    }

    /// On an idle `Sampled(64)` network whose last sweep was clean, each
    /// state-writing method forces the next due sample to sweep, and each
    /// observation-only method lets it reuse the clean verdict. The check
    /// count is the same either way.
    #[test]
    fn guard_memo_resweeps_after_every_state_write_and_only_then() {
        for (name, writes, call) in mut_calls() {
            let mut net = Network::new(mesh_spec(3, 3), SimConfig::baseline()).unwrap();
            net.set_guard_mode(GuardMode::Sampled(64));
            net.run(128);
            let checks = net.totals().health.checks;
            assert_eq!(
                (checks, net.sweeps),
                (2, 1),
                "{name}: idle reuses the sweep"
            );
            call(&mut net);
            // Straight after the call: a writer already invalidated the
            // verdict, before any step could.
            let reusable = net.guard_clean == Some(net.guard_gen);
            assert_eq!(reusable, !writes, "{name}");
            net.run(64);
            assert_eq!(net.sweeps, 1 + u64::from(writes), "{name}");
            assert_eq!(net.totals().health.checks, 3, "{name}");
        }
    }

    /// The table above names every `&mut self` method of `Network`, so a
    /// new one has to declare whether it writes guard-read state.
    #[test]
    fn guard_memo_table_names_every_mut_method() {
        let mut declared: Vec<&str> = mut_calls().iter().map(|c| c.0).collect();
        declared.extend(["step", "run"]);
        declared.sort_unstable();
        let mut found: Vec<&str> = include_str!("network.rs")
            .split("    pub fn ")
            .skip(1)
            .filter_map(|f| {
                let (name, args) = f.split_once('(')?;
                args.trim_start().starts_with("&mut self").then_some(name)
            })
            .collect();
        found.sort_unstable();
        assert_eq!(declared, found);
    }

    /// An idle 64x64 chip under `Sampled(1024)` counts ten due checks
    /// over 10 240 cycles from one real sweep; `Strict` still sweeps every
    /// cycle.
    #[test]
    fn idle_chip_reuses_one_clean_sweep_and_strict_sweeps_every_cycle() {
        let mut net = Network::new(mesh_wiring(64, 64), SimConfig::baseline()).unwrap();
        net.set_guard_mode(GuardMode::Sampled(1024));
        net.run(10_240);
        let h = net.totals().health;
        assert_eq!((h.checks, h.violations, net.sweeps), (10, 0, 1));
        net.set_guard_mode(GuardMode::Strict);
        net.run(4);
        assert_eq!((net.totals().health.checks, net.sweeps), (14, 5));
    }

    /// A two-router row whose channels all take `latency` cycles.
    fn slow_row(latency: u8) -> NetworkSpec {
        let mut s = row_spec(2);
        for c in s.channels.iter_mut() {
            c.latency = latency;
        }
        s
    }

    /// `(packet handle, flit seq)` of every flit on channel `ci`'s wire,
    /// oldest first.
    fn wire_flits(net: &Network, ci: usize) -> Vec<(u32, u8)> {
        let wire = net.channels[ci].wire;
        wire.iter(&net.wires).map(|f| (f.pkt, f.seq)).collect()
    }

    /// A kept channel with flits on its wire survives a reconfiguration
    /// that lowers its latency below the number of flits carried or
    /// raises it above, both while the wire is still filling (a lower
    /// latency then queues new flits behind carried ones sent slower)
    /// and once its ring has wrapped: the flits keep their FIFO order,
    /// every packet delivers, and the strict guards never fire.
    #[test]
    fn reconfigure_carries_a_loaded_wire_across_latency_changes() {
        for (new_latency, settle) in [(2u8, 0), (9, 0), (2, 3), (9, 3)] {
            let case = format!("latency 6 -> {new_latency}, settle {settle}");
            let mut net = Network::new(slow_row(6), SimConfig::baseline()).unwrap();
            net.set_guard_mode(GuardMode::Strict);
            for id in 1..=6 {
                net.inject(Packet::reply(id, NodeId(0), NodeId(1), 0))
                    .unwrap();
            }
            let ci = net
                .spec()
                .channels
                .iter()
                .position(|c| c.src.router == RouterId(0));
            let ci = ci.expect("row has an eastbound channel");
            while wire_flits(&net, ci).len() < 4 {
                net.step();
                assert!(net.now() < 40, "the wire never filled");
            }
            net.run(settle);
            let wrapped = !net.channels[ci].wire.as_slices(&net.wires).1.is_empty();
            assert_eq!(wrapped, settle > 0, "{case}");
            let carried = wire_flits(&net, ci);
            assert!(
                carried.len() > 2 && carried.len() < 9,
                "{case}: {carried:?}"
            );
            net.reconfigure(slow_row(new_latency)).unwrap();
            assert_eq!(wire_flits(&net, ci), carried, "{case}");
            assert!(net.check_invariants().is_empty(), "{case}");
            let delivered = run_collect(&mut net, 200);
            assert_eq!(delivered.len(), 6, "{case}");
            assert_eq!(net.in_flight(), 0, "{case}");
            assert_eq!(net.totals().health.violations, 0, "{case}");
        }
    }

    /// `purge_blocked` on a wire ring that has wrapped removes exactly the
    /// doomed packets' flits and keeps the rest in order.
    #[test]
    fn purge_blocked_compacts_a_wrapped_wire_ring() {
        let mut spec = row_spec(3);
        for c in spec.channels.iter_mut() {
            c.latency = 3;
        }
        let mut net = Network::new(spec, SimConfig::baseline()).unwrap();
        net.set_guard_mode(GuardMode::Strict);
        let ci = net
            .spec()
            .channels
            .iter()
            .position(|c| c.src.router == RouterId(0))
            .unwrap();
        // Two streams share the R0 -> R1 wire: to node 1 and on to node 2.
        for id in 1..=40 {
            let dst = NodeId(1 + (id % 2) as u16);
            net.inject(Packet::reply(id, NodeId(0), dst, 0)).unwrap();
        }
        net.run(6);
        // R1 loses its route to node 2: heads bound there are stranded.
        let mut tables = net.spec().tables.clone();
        for v in 0..2 {
            tables.clear(Vnet(v), RouterId(1), NodeId(2));
        }
        net.install_tables(tables);
        for _ in 0..60 {
            net.step();
            let (_, wrapped) = net.channels[ci].wire.as_slices(&net.wires);
            if wrapped.is_empty() {
                continue;
            }
            let mut probe = net.clone();
            let nacked = probe.purge_blocked();
            let before = wire_flits(&net, ci);
            let after = wire_flits(&probe, ci);
            if after.len() == before.len() {
                continue;
            }
            let dead: Vec<u32> = before
                .iter()
                .filter(|&&(h, _)| nacked.iter().any(|p| p.id == net.packets.packet(h).id))
                .map(|&(h, _)| h)
                .collect();
            let expect: Vec<(u32, u8)> = before
                .iter()
                .copied()
                .filter(|(h, _)| !dead.contains(h))
                .collect();
            assert_eq!(after, expect);
            assert!(probe.check_invariants().is_empty());
            assert_eq!(probe.in_flight(), probe.in_flight_recount());
            return;
        }
        panic!("never purged a flit from a wrapped wire ring");
    }

    /// The wire arena holds exactly `latency` flit slots per channel and
    /// the flat masks one entry per (router, vnet), with no slack, and
    /// `heap_bytes` counts the arena exactly: lengthening one wire by two
    /// cycles adds exactly two flits' worth of bytes.
    #[test]
    fn heap_bytes_counts_the_wire_arena_and_flat_masks_exactly() {
        let base = Network::new(row_spec(3), SimConfig::baseline()).unwrap();
        let slots: usize = base
            .spec()
            .channels
            .iter()
            .map(|c| c.latency as usize)
            .sum();
        assert_eq!(base.wires.capacity(), slots);
        let masks = base.routers.len() * base.cfg.vnets as usize;
        assert_eq!(
            (base.vc_mask.capacity(), base.va_cand.capacity()),
            (masks, masks)
        );
        // Port wiring is flat too: per-port channels and injection
        // pointers, the NI CSR list and per-router ejection masks.
        let (l, ports) = (&base.lanes, base.lanes.port_router.len());
        let wiring = [
            l.out_channel.capacity(),
            l.feeder.capacity(),
            l.inj_rr.capacity(),
            l.ni_base.capacity(),
            l.port_nis.capacity(),
            l.eject_out.capacity(),
        ];
        let nis = base.spec().nis.len();
        assert_eq!(wiring, [ports, ports, ports, ports + 1, nis, 3]);
        let mut spec = row_spec(3);
        spec.channels[0].latency += 2;
        let longer = Network::new(spec, SimConfig::baseline()).unwrap();
        assert_eq!(
            longer.heap_bytes() - base.heap_bytes(),
            2 * size_of::<Flit>()
        );
    }

    #[test]
    fn network_error_display_nonempty() {
        let errs: Vec<NetworkError> = vec![
            NetworkError::Config("x".into()),
            NetworkError::Mismatch("y".into()),
            NetworkError::Shape("z".into()),
            NetworkError::ChannelBusy(ChannelKey {
                src: PortRef::new(RouterId(0), PortId(0)),
                dst: PortRef::new(RouterId(1), PortId(1)),
            }),
            NetworkError::RouterBusy(RouterId(0)),
            NetworkError::NiBusy(NodeId(0)),
            NetworkError::NoSuchNode(NodeId(0)),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
