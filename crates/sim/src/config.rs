//! Global simulator configuration.
//!
//! The values here mirror the simulation setup in Sec. IV-A of the paper:
//! virtual-cut-through buffer organization, 256-bit links, a 2-cycle router
//! (`T_r`) for all designs except Flattened Butterfly (3 cycles), 1-cycle mesh
//! links (`T_l`), and per-design VC counts chosen to keep buffer area equal.
//!
//! Only paper parameters live here. How strictly the invariant guards run
//! and how much telemetry is collected are supervision choices, not
//! simulation parameters: `Network::new` reads them from `ADAPTNOC_GUARDS`
//! and `ADAPTNOC_TELEMETRY` (see [`Cadence`](adaptnoc_telemetry::Cadence)).

use crate::ids::Vnet;

/// Number of flits in a data (reply) packet: a 64-byte cache line over
/// 256-bit links is 2 flits, and a whole packet fits in one 4-flit VC
/// (the virtual-cut-through property).
pub const DATA_PACKET_FLITS: u8 = 2;

/// Number of flits in a request or coherence control packet.
pub const CONTROL_PACKET_FLITS: u8 = 1;

/// The simulation parameters of Sec. IV-A.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of virtual networks (2: request + reply).
    pub vnets: u8,
    /// Virtual channels per virtual network.
    ///
    /// The paper keeps buffer area constant across designs: 3 VCs/vnet for
    /// baseline, OSCAR and Shortcut; 2 for Adapt-NoC; 4 for Flattened
    /// Butterfly.
    pub vcs_per_vnet: u8,
    /// Buffer depth of each VC in flits (4 in the paper; at most 15).
    pub vc_depth: u8,
    /// Router pipeline latency `T_r` in cycles (2, or 3 for FTBY).
    pub router_latency: u8,
    /// Wake-up latency in cycles for a power-gated router (used by FTBY_PG;
    /// 14 cycles following Hu et al. \\[43\\] as in the paper's `T_s`).
    pub wake_latency: u16,
    /// Whether network interfaces use the Adapt-NoC injection-VC bypass,
    /// which lets a flit skip the injection buffering delay when its VC is
    /// empty (Sec. II-A1).
    pub injection_bypass: bool,
    /// Link width in bits (256 in the paper). Only used by the power model.
    pub link_width_bits: u16,
}

impl SimConfig {
    /// Configuration of the baseline mesh / OSCAR / Shortcut designs:
    /// 3 VCs per vnet, 4-flit VCs, 2-cycle routers.
    pub fn baseline() -> Self {
        SimConfig {
            vnets: 2,
            vcs_per_vnet: 3,
            vc_depth: 4,
            router_latency: 2,
            wake_latency: 14,
            injection_bypass: false,
            link_width_bits: 256,
        }
    }

    /// Configuration of Adapt-NoC: 2 VCs per vnet (area kept equal to the
    /// baseline by trading buffers for muxes), injection bypass enabled.
    pub fn adapt_noc() -> Self {
        SimConfig {
            vcs_per_vnet: 2,
            injection_bypass: true,
            ..Self::baseline()
        }
    }

    /// Configuration of the Flattened Butterfly: 4 VCs per vnet and a
    /// 3-cycle router pipeline (`T_r` = 3) due to the high radix.
    pub fn flattened_butterfly() -> Self {
        SimConfig {
            vcs_per_vnet: 4,
            router_latency: 3,
            ..Self::baseline()
        }
    }

    /// Total number of VCs on each input port (`vnets * vcs_per_vnet`).
    pub fn total_vcs(&self) -> usize {
        self.vnets as usize * self.vcs_per_vnet as usize
    }

    /// The range of global VC indices belonging to `vnet`.
    pub(crate) fn vnet_vcs(&self, vnet: Vnet) -> std::ops::Range<usize> {
        let start = vnet.0 as usize * self.vcs_per_vnet as usize;
        start..start + self.vcs_per_vnet as usize
    }

    /// Buffer slots on one input port (all VCs).
    pub fn port_buffer_flits(&self) -> usize {
        self.total_vcs() * self.vc_depth as usize
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message if any field is zero or out of range. VC counts
    /// are bounded by the simulator's VC masks: at most 8 VCs per vnet
    /// (`u8` per-vnet masks) and 32 per port (`u32` per-port masks). A VC
    /// holds at most 15 flits (its buffer's 4-bit length and head fields).
    pub fn validate(&self) -> Result<(), String> {
        if self.vnets == 0 {
            return Err("vnets must be >= 1".into());
        }
        if self.vcs_per_vnet == 0 {
            return Err("vcs_per_vnet must be >= 1".into());
        }
        if self.vcs_per_vnet > 8 {
            return Err(format!("vcs_per_vnet {} exceeds 8", self.vcs_per_vnet));
        }
        if self.total_vcs() > 32 {
            return Err(format!(
                "{} VCs per port (vnets x vcs_per_vnet) exceed 32",
                self.total_vcs()
            ));
        }
        if self.vc_depth == 0 {
            return Err("vc_depth must be >= 1".into());
        }
        if self.vc_depth > 15 {
            return Err(format!("vc_depth {} exceeds 15", self.vc_depth));
        }
        if self.router_latency == 0 {
            return Err("router_latency must be >= 1".into());
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_parameters() {
        let b = SimConfig::baseline();
        assert_eq!((b.vnets, b.vcs_per_vnet, b.vc_depth), (2, 3, 4));
        assert_eq!(b.router_latency, 2);
        assert!(!b.injection_bypass);

        let a = SimConfig::adapt_noc();
        assert_eq!(a.vcs_per_vnet, 2);
        assert!(a.injection_bypass);
        assert_eq!(a.router_latency, 2);

        let f = SimConfig::flattened_butterfly();
        assert_eq!(f.vcs_per_vnet, 4);
        assert_eq!(f.router_latency, 3);
    }

    #[test]
    fn vc_indexing_is_dense_and_disjoint() {
        let c = SimConfig::baseline();
        assert_eq!(c.total_vcs(), 6);
        assert_eq!(c.vnet_vcs(Vnet::REQUEST), 0..3);
        assert_eq!(c.vnet_vcs(Vnet::REPLY), 3..6);
    }

    #[test]
    fn buffer_area_equalization() {
        // Baseline: 3 VCs x 4 flits x 2 vnets = 24 flits/port.
        assert_eq!(SimConfig::baseline().port_buffer_flits(), 24);
        // Adapt-NoC trades a VC for mux/link logic: 16 flits/port.
        assert_eq!(SimConfig::adapt_noc().port_buffer_flits(), 16);
        // FTBY uses more VCs per port (but fewer routers).
        assert_eq!(SimConfig::flattened_butterfly().port_buffer_flits(), 32);
    }

    #[test]
    fn validation_rejects_zeroes() {
        let mut c = SimConfig::baseline();
        c.vnets = 0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::baseline();
        c.vcs_per_vnet = 0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::baseline();
        c.vc_depth = 0;
        assert!(c.validate().is_err());
        c.vc_depth = 16;
        assert!(c.validate().is_err());
        c.vc_depth = 15;
        assert!(c.validate().is_ok());
        let mut c = SimConfig::baseline();
        c.router_latency = 0;
        assert!(c.validate().is_err());
        assert!(SimConfig::baseline().validate().is_ok());
    }
}
