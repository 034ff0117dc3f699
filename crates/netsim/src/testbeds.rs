//! Reconstructions of the network configurations used in the paper.
//!
//! Each [`Testbed`] is a small [`Topology`] with the hosts that matter to a
//! Visapult campaign: the DPSS data source, the back-end compute nodes, and
//! the viewer workstation.  The link parameters come straight from the paper:
//!
//! * **NTON** — dedicated OC-12 (622 Mbps) between LBL (Berkeley) and SNL-CA
//!   (Livermore), low latency; the paper measured 433 Mbps of application
//!   goodput (~70 % utilization) in the April 2000 campaign (§4.2) and
//!   250 Mbps with the earlier SC99 implementation (§4.1).
//! * **ESnet** — OC-12 backbone between LBL and ANL but *shared* production
//!   traffic; `iperf` measured ~100 Mbps and Visapult's striped loads
//!   sustained ~128 Mbps (§4.4.2).
//! * **SciNet / SC99 show floor** — 1000BT shared with the rest of the
//!   exhibition; 150 Mbps achieved (§4.1).
//! * **LAN** — the Sun E4500 ("diesel") experiment of §4.3: gigabit ethernet
//!   to the LBL DPSS, but the 336 MHz UltraSPARC-II host could only sink
//!   ~85–90 Mbps of aggregate TCP payload, giving L ≈ 15 s per 160 MB frame.

use crate::link::{Link, LinkKind};
use crate::tcp::{TcpConfig, TcpModel};
use crate::time::SimDuration;
use crate::topology::{NodeId, Route, Topology};
use crate::units::Bandwidth;
use serde::{Deserialize, Serialize};

/// Which of the paper's network configurations a [`Testbed`] reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TestbedKind {
    /// LBL DPSS → SNL-CA CPlant over dedicated NTON OC-12 (§4.2, §4.4.1).
    NtonCplant,
    /// LBL DPSS → ANL SMP over shared ESnet (§4.4.2).
    EsnetAnlSmp,
    /// LBL DPSS → Sun E4500 over local gigabit ethernet (§4.3).
    LanSmp,
    /// SC99: LBL DPSS → CPlant over NTON, early implementation (§4.1).
    Sc99Cplant,
    /// SC99: LBL DPSS → LBL booth cluster over shared SciNet (§4.1).
    Sc99Booth,
    /// Hypothetical dedicated OC-192 path (§5 future-work target).
    FutureOc192,
}

/// A reconstructed network testbed with the hosts a campaign needs.
#[derive(Debug, Clone)]
pub struct Testbed {
    /// Human-readable name.
    pub name: String,
    /// Which configuration this is.
    pub kind: TestbedKind,
    /// The underlying network graph.
    pub topology: Topology,
    /// Host holding the DPSS cache (the data source).
    pub dpss_host: NodeId,
    /// One entry per back-end processing element.  For an SMP these all refer
    /// to the same host (a single shared NIC); for a cluster each PE has its
    /// own node and NIC.
    pub backend_hosts: Vec<NodeId>,
    /// The viewer workstation.
    pub viewer_host: NodeId,
    /// TCP stack parameters used on this testbed.
    pub tcp_config: TcpConfig,
}

impl Testbed {
    /// Route from the DPSS to back-end PE `pe`.
    pub fn data_route(&self, pe: usize) -> Route {
        self.topology
            .route(self.dpss_host, self.backend_hosts[pe % self.backend_hosts.len()])
            .expect("testbed topologies are connected")
    }

    /// Route from back-end PE `pe` to the viewer.
    pub fn viewer_route(&self, pe: usize) -> Route {
        self.topology
            .route(self.backend_hosts[pe % self.backend_hosts.len()], self.viewer_host)
            .expect("testbed topologies are connected")
    }

    /// TCP model of the DPSS → back-end path for PE `pe`, with the given
    /// number of striped client streams.
    pub fn data_tcp_model(&self, pe: usize, streams: u32) -> TcpModel {
        let route = self.data_route(pe);
        let links: Vec<&Link> = self.topology.route_links(&route).collect();
        TcpModel::from_path(links, self.tcp_config, streams)
    }

    /// TCP model of the back-end → viewer path for PE `pe`.
    pub fn viewer_tcp_model(&self, pe: usize, streams: u32) -> TcpModel {
        let route = self.viewer_route(pe);
        let links: Vec<&Link> = self.topology.route_links(&route).collect();
        TcpModel::from_path(links, self.tcp_config, streams)
    }

    /// Bottleneck bandwidth of the DPSS → back-end path (for PE 0).
    pub fn data_bottleneck(&self) -> Bandwidth {
        let route = self.data_route(0);
        self.topology.route_bottleneck(&route)
    }

    /// §4.2 / §4.4.1: LBL DPSS to the SNL-CA CPlant cluster over dedicated
    /// NTON OC-12; each cluster node has its own external NIC, the viewer is
    /// back at LBL over ESnet.
    pub fn nton_cplant(nodes: usize) -> Testbed {
        let mut t = Topology::new();
        let dpss = t.add_node("lbl-dpss");
        let lbl_edge = t.add_node("lbl-edge");
        let nton_pop = t.add_node("nton-oakland-pop");
        let snl_edge = t.add_node("snl-edge");
        let viewer = t.add_node("snl-viewer");

        t.add_link(
            dpss,
            lbl_edge,
            Link::new(
                "LBL DPSS gigE uplink",
                LinkKind::Lan,
                Bandwidth::gige(),
                SimDuration::from_micros(150),
            ),
        );
        t.add_link(
            lbl_edge,
            nton_pop,
            Link::new(
                "LBL OC-12 to NTON POP",
                LinkKind::DedicatedWan,
                Bandwidth::oc12(),
                SimDuration::from_micros(600),
            ),
        );
        t.add_link(
            nton_pop,
            snl_edge,
            Link::new(
                "NTON OC-48 Oakland-Livermore",
                LinkKind::DedicatedWan,
                Bandwidth::oc48(),
                SimDuration::from_micros(900),
            ),
        );
        // The viewer sits next to the cluster at SNL-CA in the April 2000 campaign.
        t.add_link(
            snl_edge,
            viewer,
            Link::new(
                "SNL viewer 100BT",
                LinkKind::Lan,
                Bandwidth::fast_ethernet(),
                SimDuration::from_micros(200),
            ),
        );

        let mut backend_hosts = Vec::with_capacity(nodes);
        for i in 0..nodes.max(1) {
            let node = t.add_node(format!("cplant-node-{i}"));
            t.add_link(
                snl_edge,
                node,
                Link::new(
                    format!("cplant node {i} external gigE"),
                    LinkKind::Lan,
                    Bandwidth::gige(),
                    SimDuration::from_micros(120),
                ),
            );
            backend_hosts.push(node);
        }

        Testbed {
            name: format!("NTON: LBL DPSS -> CPlant ({} nodes)", nodes.max(1)),
            kind: TestbedKind::NtonCplant,
            topology: t,
            dpss_host: dpss,
            backend_hosts,
            viewer_host: viewer,
            tcp_config: TcpConfig::wan_tuned(),
        }
    }

    /// §4.4.2: LBL DPSS to the ANL SGI Onyx2 SMP over shared ESnet.  The SMP
    /// has a single gigE NIC shared by all PEs; the viewer is back at LBL.
    pub fn esnet_anl_smp(pes: usize) -> Testbed {
        let mut t = Topology::new();
        let dpss = t.add_node("lbl-dpss");
        let lbl_edge = t.add_node("lbl-edge");
        let esnet = t.add_node("esnet-backbone");
        let anl_edge = t.add_node("anl-edge");
        let smp = t.add_node("anl-onyx2");
        let viewer = t.add_node("lbl-viewer");

        t.add_link(
            dpss,
            lbl_edge,
            Link::new(
                "LBL DPSS gigE uplink",
                LinkKind::Lan,
                Bandwidth::gige(),
                SimDuration::from_micros(150),
            ),
        );
        // Shared production OC-12: only ~27% of the line rate is left for any
        // one application (≈170 Mbps raw share).  After circa-2000 WAN TCP
        // efficiency (~75%) this yields the ~128 Mbps the paper's striped
        // loads sustain, while a single untuned iperf stream sees ~100 Mbps.
        t.add_link(
            lbl_edge,
            esnet,
            Link::new(
                "ESnet OC-12 LBL segment (shared)",
                LinkKind::SharedWan,
                Bandwidth::oc12(),
                SimDuration::from_millis(12),
            )
            .with_background_load(0.72),
        );
        t.add_link(
            esnet,
            anl_edge,
            Link::new(
                "ESnet OC-12 ANL segment (shared)",
                LinkKind::SharedWan,
                Bandwidth::oc12(),
                SimDuration::from_millis(13),
            )
            .with_background_load(0.65),
        );
        t.add_link(
            anl_edge,
            smp,
            Link::new(
                "Onyx2 shared gigE NIC",
                LinkKind::Lan,
                Bandwidth::gige(),
                SimDuration::from_micros(200),
            ),
        );
        t.add_link(
            lbl_edge,
            viewer,
            Link::new(
                "LBL viewer 100BT",
                LinkKind::Lan,
                Bandwidth::fast_ethernet(),
                SimDuration::from_micros(200),
            ),
        );

        Testbed {
            name: format!("ESnet: LBL DPSS -> ANL Onyx2 SMP ({} PEs)", pes.max(1)),
            kind: TestbedKind::EsnetAnlSmp,
            topology: t,
            dpss_host: dpss,
            backend_hosts: vec![smp; pes.max(1)],
            viewer_host: viewer,
            tcp_config: TcpConfig::wan_tuned(),
        }
    }

    /// §4.3: the Sun E4500 "diesel" SMP on the LBL LAN.  The host's gigabit
    /// NIC is CPU-limited to ~90 Mbps of aggregate TCP payload (the 336 MHz
    /// UltraSPARC-II processors cannot drive the wire faster while also
    /// rendering), which is what yields the paper's L ≈ 15 s per 160 MB frame.
    pub fn lan_smp(pes: usize) -> Testbed {
        let mut t = Topology::new();
        let dpss = t.add_node("lbl-dpss");
        let lan = t.add_node("lbl-lan-switch");
        let smp = t.add_node("e4500-diesel");
        let viewer = t.add_node("lbl-viewer");

        t.add_link(
            dpss,
            lan,
            Link::new(
                "DPSS gigE",
                LinkKind::Lan,
                Bandwidth::gige(),
                SimDuration::from_micros(100),
            ),
        );
        t.add_link(
            lan,
            smp,
            Link::new(
                "E4500 gigE (host CPU-limited)",
                LinkKind::Lan,
                Bandwidth::from_mbps(92.0),
                SimDuration::from_micros(100),
            ),
        );
        t.add_link(
            lan,
            viewer,
            Link::new(
                "viewer 100BT",
                LinkKind::Lan,
                Bandwidth::fast_ethernet(),
                SimDuration::from_micros(100),
            ),
        );

        Testbed {
            name: format!("LAN: LBL DPSS -> Sun E4500 ({} PEs)", pes.max(1)),
            kind: TestbedKind::LanSmp,
            topology: t,
            dpss_host: dpss,
            backend_hosts: vec![smp; pes.max(1)],
            viewer_host: viewer,
            tcp_config: TcpConfig::wan_tuned(),
        }
    }

    /// §4.1 (SC99): LBL DPSS to CPlant over NTON, with the pre-optimization
    /// Visapult data staging.  The network is the same as
    /// [`Testbed::nton_cplant`]; the lower achieved throughput (250 Mbps vs
    /// 433 Mbps) is an application-efficiency effect applied by the campaign
    /// driver, not a property of the network.
    pub fn sc99_cplant(nodes: usize) -> Testbed {
        let mut tb = Self::nton_cplant(nodes);
        tb.name = format!("SC99: LBL DPSS -> CPlant over NTON ({} nodes)", nodes.max(1));
        tb.kind = TestbedKind::Sc99Cplant;
        tb
    }

    /// §4.1 (SC99): LBL DPSS to the 8-node Alpha Linux cluster in the LBL
    /// booth on the show floor, crossing the shared SciNet network.
    pub fn sc99_booth(nodes: usize) -> Testbed {
        let mut t = Topology::new();
        let dpss = t.add_node("lbl-dpss");
        let lbl_edge = t.add_node("lbl-edge");
        let nton_pop = t.add_node("nton-oakland-pop");
        let scinet = t.add_node("scinet-core");
        let booth_sw = t.add_node("lbl-booth-switch");
        let viewer = t.add_node("immersadesk");

        t.add_link(
            dpss,
            lbl_edge,
            Link::new(
                "LBL DPSS gigE uplink",
                LinkKind::Lan,
                Bandwidth::gige(),
                SimDuration::from_micros(150),
            ),
        );
        t.add_link(
            lbl_edge,
            nton_pop,
            Link::new(
                "LBL OC-12 to NTON POP",
                LinkKind::DedicatedWan,
                Bandwidth::oc12(),
                SimDuration::from_micros(600),
            ),
        );
        // Portland show floor reached over OC-48 NTON then the shared SciNet
        // 1000BT fabric; sharing with the rest of the exhibition leaves
        // roughly 150-170 Mbps for the Visapult session.
        t.add_link(
            nton_pop,
            scinet,
            Link::new(
                "NTON OC-48 Oakland-Portland",
                LinkKind::DedicatedWan,
                Bandwidth::oc48(),
                SimDuration::from_millis(5),
            ),
        );
        t.add_link(
            scinet,
            booth_sw,
            Link::new(
                "SciNet 1000BT (shared show floor)",
                LinkKind::SharedWan,
                Bandwidth::gige(),
                SimDuration::from_micros(400),
            )
            .with_background_load(0.83),
        );
        t.add_link(
            booth_sw,
            viewer,
            Link::new(
                "booth ImmersaDesk 100BT",
                LinkKind::Lan,
                Bandwidth::fast_ethernet(),
                SimDuration::from_micros(150),
            ),
        );

        let mut backend_hosts = Vec::new();
        for i in 0..nodes.max(1) {
            let node = t.add_node(format!("babel-node-{i}"));
            t.add_link(
                booth_sw,
                node,
                Link::new(
                    format!("babel node {i} 1000BT"),
                    LinkKind::Lan,
                    Bandwidth::gige(),
                    SimDuration::from_micros(100),
                ),
            );
            backend_hosts.push(node);
        }

        Testbed {
            name: format!(
                "SC99: LBL DPSS -> LBL booth cluster over SciNet ({} nodes)",
                nodes.max(1)
            ),
            kind: TestbedKind::Sc99Booth,
            topology: t,
            dpss_host: dpss,
            backend_hosts,
            viewer_host: viewer,
            tcp_config: TcpConfig::wan_tuned(),
        }
    }

    /// §5: the hypothetical dedicated OC-192 path the paper says would be
    /// needed to reach five timesteps per second.
    pub fn future_oc192(nodes: usize) -> Testbed {
        let mut t = Topology::new();
        let dpss = t.add_node("lbl-dpss");
        let edge = t.add_node("lbl-edge");
        let remote = t.add_node("remote-edge");
        let viewer = t.add_node("remote-viewer");

        t.add_link(
            dpss,
            edge,
            Link::new(
                "DPSS 10gigE uplink",
                LinkKind::Lan,
                Bandwidth::from_gbps(10.0),
                SimDuration::from_micros(100),
            ),
        );
        t.add_link(
            edge,
            remote,
            Link::new(
                "dedicated OC-192",
                LinkKind::DedicatedWan,
                Bandwidth::oc192(),
                SimDuration::from_millis(2),
            ),
        );
        t.add_link(
            remote,
            viewer,
            Link::new(
                "viewer gigE",
                LinkKind::Lan,
                Bandwidth::gige(),
                SimDuration::from_micros(150),
            ),
        );

        let mut backend_hosts = Vec::new();
        for i in 0..nodes.max(1) {
            let node = t.add_node(format!("future-node-{i}"));
            t.add_link(
                remote,
                node,
                Link::new(
                    format!("future node {i} 10gigE"),
                    LinkKind::Lan,
                    Bandwidth::from_gbps(10.0),
                    SimDuration::from_micros(100),
                ),
            );
            backend_hosts.push(node);
        }

        Testbed {
            name: format!("Future: dedicated OC-192 ({} nodes)", nodes.max(1)),
            kind: TestbedKind::FutureOc192,
            topology: t,
            dpss_host: dpss,
            backend_hosts,
            viewer_host: viewer,
            tcp_config: TcpConfig::wan_tuned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::DataSize;

    #[test]
    fn nton_bottleneck_is_oc12() {
        let tb = Testbed::nton_cplant(8);
        let bn = tb.data_bottleneck().mbps();
        assert!(bn > 550.0 && bn < 625.0, "got {bn}");
        assert_eq!(tb.backend_hosts.len(), 8);
    }

    #[test]
    fn esnet_raw_share_is_about_170_mbps() {
        // The raw per-application share of the shared OC-12; application-level
        // goodput after WAN TCP efficiency lands near the paper's ~128 Mbps.
        let tb = Testbed::esnet_anl_smp(8);
        let bn = tb.data_bottleneck().mbps();
        assert!(bn > 150.0 && bn < 190.0, "got {bn}");
    }

    #[test]
    fn lan_smp_host_limited_to_about_90_mbps() {
        let tb = Testbed::lan_smp(8);
        let bn = tb.data_bottleneck().mbps();
        assert!(bn > 80.0 && bn < 95.0, "got {bn}");
    }

    #[test]
    fn scinet_leaves_about_150_mbps() {
        let tb = Testbed::sc99_booth(8);
        let bn = tb.data_bottleneck().mbps();
        assert!(bn > 130.0 && bn < 180.0, "got {bn}");
    }

    #[test]
    fn oc192_supports_five_steps_per_second_in_principle() {
        // 160 MB * 5 per second = 6.4 Gbps; OC-192 (9.6 Gbps) can carry it.
        let tb = Testbed::future_oc192(16);
        let needed = DataSize::from_mb(160).bits() as f64 * 5.0 / 1e9;
        assert!(tb.data_bottleneck().bps() / 1e9 > needed);
    }

    #[test]
    fn all_testbeds_have_connected_routes() {
        for tb in [
            Testbed::nton_cplant(4),
            Testbed::esnet_anl_smp(4),
            Testbed::lan_smp(4),
            Testbed::sc99_cplant(4),
            Testbed::sc99_booth(4),
            Testbed::future_oc192(4),
        ] {
            for pe in 0..tb.backend_hosts.len() {
                assert!(!tb.data_route(pe).links.is_empty(), "{}: pe{} data route", tb.name, pe);
                assert!(
                    !tb.viewer_route(pe).links.is_empty(),
                    "{}: pe{} viewer route",
                    tb.name,
                    pe
                );
            }
            // TCP models can be built for every PE.
            let m = tb.data_tcp_model(0, 4);
            assert!(m.bottleneck.mbps() > 0.0);
        }
    }

    #[test]
    fn esnet_rtt_much_higher_than_nton() {
        let nton = Testbed::nton_cplant(1);
        let esnet = Testbed::esnet_anl_smp(1);
        let nton_rtt = nton.data_tcp_model(0, 1).rtt;
        let esnet_rtt = esnet.data_tcp_model(0, 1).rtt;
        assert!(esnet_rtt.as_secs_f64() > 5.0 * nton_rtt.as_secs_f64());
    }

    #[test]
    fn smp_testbeds_share_one_backend_host() {
        let tb = Testbed::esnet_anl_smp(8);
        assert!(tb.backend_hosts.iter().all(|h| *h == tb.backend_hosts[0]));
        let cluster = Testbed::nton_cplant(8);
        let unique: std::collections::HashSet<_> = cluster.backend_hosts.iter().collect();
        assert_eq!(unique.len(), 8);
    }
}
