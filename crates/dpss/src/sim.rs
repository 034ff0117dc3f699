//! Virtual-time DPSS performance model.
//!
//! The paper's headline DPSS numbers — "Current performance results are 980
//! Mbps across a LAN and 570 Mbps across a WAN" (§2) and "A four-server DPSS
//! ... can thus deliver throughput of over 150 megabytes per second by
//! providing parallel access to 15-20 disks" (§3.5) — are consequences of
//! three cascaded bottlenecks: aggregate disk bandwidth, aggregate server NIC
//! bandwidth, and the TCP path between the cache and the client.  This model
//! composes those three with the [`netsim`] TCP model and is what the E1/E11
//! benchmarks sweep.

use crate::block::StripeLayout;
use crate::disk::DiskModel;
use netsim::{Bandwidth, DataSize, SimDuration, TcpModel};

/// Performance model of one DPSS deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct DpssSimModel {
    /// Striping layout (servers × disks).
    pub layout: StripeLayout,
    /// Per-disk performance.
    pub disk: DiskModel,
    /// Per-server network interface bandwidth.
    pub server_nic: Bandwidth,
    /// Request overhead at the master (logical→physical lookup round trip).
    pub master_latency: SimDuration,
}

impl DpssSimModel {
    /// The four-server, 16-disk, gigabit-NIC deployment of §3.5.
    pub fn four_server_2000() -> Self {
        DpssSimModel {
            layout: StripeLayout::four_server(),
            disk: DiskModel::commodity_2000(),
            server_nic: Bandwidth::gige(),
            master_latency: SimDuration::from_millis(2),
        }
    }

    /// A deployment with an explicit number of servers and disks per server.
    pub fn with_servers(servers: usize, disks_per_server: usize) -> Self {
        DpssSimModel {
            layout: StripeLayout::new(64 * 1024, servers, disks_per_server),
            disk: DiskModel::commodity_2000(),
            server_nic: Bandwidth::gige(),
            master_latency: SimDuration::from_millis(2),
        }
    }

    /// Aggregate sequential disk bandwidth of the whole cluster.
    pub fn aggregate_disk_bandwidth(&self) -> Bandwidth {
        let per_disk = self
            .disk
            .effective_throughput(DataSize::from_bytes(self.layout.block_size), true);
        per_disk.scale(self.layout.total_disks() as f64)
    }

    /// Aggregate server NIC bandwidth.
    pub fn aggregate_nic_bandwidth(&self) -> Bandwidth {
        self.server_nic.scale(self.layout.servers as f64)
    }

    /// The rate at which the cache itself (disks + server NICs) can serve
    /// data, before considering the network path to the client.
    pub fn serve_rate(&self) -> Bandwidth {
        self.aggregate_disk_bandwidth().min(self.aggregate_nic_bandwidth())
    }

    /// The throughput a client behind `path` sees in steady state: the
    /// minimum of what the cache can serve and what the (striped) TCP path
    /// can carry.
    pub fn delivered_throughput(&self, path: &TcpModel) -> Bandwidth {
        self.serve_rate().min(path.steady_throughput())
    }

    /// Modeled time for a client behind `path` to read `size` bytes, with the
    /// TCP windows cold (first request of a session).
    pub fn read_time(&self, size: DataSize, path: &TcpModel) -> SimDuration {
        self.read_time_inner(size, path, false)
    }

    /// Modeled time with the TCP windows already open (steady streaming).
    pub fn read_time_warm(&self, size: DataSize, path: &TcpModel) -> SimDuration {
        self.read_time_inner(size, path, true)
    }

    fn read_time_inner(&self, size: DataSize, path: &TcpModel, warm: bool) -> SimDuration {
        // Network time from the TCP model.
        let net = if warm {
            path.transfer_time_warm(size)
        } else {
            path.transfer_time(size)
        };
        // Cache-side time: disks and server NICs stream concurrently with the
        // network, so the end-to-end time is governed by the slowest stage.
        let cache = self.serve_rate().time_to_send(size);
        self.master_latency + net.max(cache)
    }

    /// A row of the E1 table: (servers, disks, serve rate, LAN delivery, WAN
    /// delivery) for a given pair of network paths.
    pub fn throughput_row(&self, lan: &TcpModel, wan: &TcpModel) -> DpssThroughputRow {
        DpssThroughputRow {
            servers: self.layout.servers,
            disks: self.layout.total_disks(),
            serve_rate: self.serve_rate(),
            lan_delivered: self.delivered_throughput(lan),
            wan_delivered: self.delivered_throughput(wan),
        }
    }
}

/// One row of the DPSS throughput table (experiment E1).
#[derive(Debug, Clone, PartialEq)]
pub struct DpssThroughputRow {
    /// Number of servers.
    pub servers: usize,
    /// Total disks.
    pub disks: usize,
    /// What the cache can serve (disk/NIC limited).
    pub serve_rate: Bandwidth,
    /// Steady throughput to a LAN client.
    pub lan_delivered: Bandwidth,
    /// Steady throughput to a WAN client.
    pub wan_delivered: Bandwidth,
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{Link, LinkKind, TcpConfig};

    fn lan_path() -> TcpModel {
        let links = vec![Link::new(
            "client gigE",
            LinkKind::Lan,
            Bandwidth::gige(),
            SimDuration::from_micros(150),
        )];
        TcpModel::from_path(&links, TcpConfig::wan_tuned(), 4)
    }

    fn wan_path() -> TcpModel {
        let links = vec![Link::new(
            "NTON OC-12",
            LinkKind::DedicatedWan,
            Bandwidth::oc12(),
            SimDuration::from_millis(2),
        )];
        TcpModel::from_path(&links, TcpConfig::wan_tuned(), 4)
    }

    #[test]
    fn four_server_cache_serves_over_150_mb_per_sec() {
        let m = DpssSimModel::four_server_2000();
        assert!(
            m.serve_rate().mbytes_per_sec() > 150.0,
            "got {}",
            m.serve_rate().mbytes_per_sec()
        );
    }

    #[test]
    fn lan_delivery_is_near_the_papers_980_mbps() {
        let m = DpssSimModel::four_server_2000();
        let lan = m.delivered_throughput(&lan_path()).mbps();
        assert!(lan > 900.0 && lan <= 1000.0, "got {lan}");
    }

    #[test]
    fn wan_delivery_is_near_the_papers_570_mbps() {
        let m = DpssSimModel::four_server_2000();
        let wan = m.delivered_throughput(&wan_path()).mbps();
        assert!(wan > 500.0 && wan < 625.0, "got {wan}");
    }

    #[test]
    fn throughput_scales_with_servers_until_the_path_saturates() {
        let wan = wan_path();
        let mut last = Bandwidth::ZERO;
        let mut deliveries = Vec::new();
        for servers in [1usize, 2, 4, 8] {
            let m = DpssSimModel::with_servers(servers, 4);
            let d = m.delivered_throughput(&wan);
            assert!(d >= last, "throughput should be monotone in servers");
            deliveries.push(d.mbps());
            last = d;
        }
        // One server (4 commodity disks ≈ 315 Mbps) cannot fill the OC-12;
        // four servers can, and eight add nothing because the WAN is the
        // bottleneck — the same saturation the paper sees with CPlant nodes.
        assert!(deliveries[0] < 400.0);
        assert!((deliveries[3] - deliveries[2]).abs() < 1.0);
    }

    #[test]
    fn read_time_warm_is_faster_than_cold() {
        let m = DpssSimModel::four_server_2000();
        let size = DataSize::from_mb(160);
        let wan = wan_path();
        assert!(m.read_time_warm(size, &wan) < m.read_time(size, &wan));
    }

    #[test]
    fn read_time_accounts_for_cache_side_limit() {
        // A one-server cache behind a fat LAN pipe is disk-limited.
        let m = DpssSimModel::with_servers(1, 2);
        let lan = lan_path();
        let t = m.read_time_warm(DataSize::from_mb(100), &lan).as_secs_f64();
        let disk_limit = m.serve_rate().time_to_send(DataSize::from_mb(100)).as_secs_f64();
        assert!((t - disk_limit - 0.002).abs() < 0.5, "t={t} disk_limit={disk_limit}");
    }

    #[test]
    fn throughput_row_is_consistent() {
        let m = DpssSimModel::four_server_2000();
        let row = m.throughput_row(&lan_path(), &wan_path());
        assert_eq!(row.servers, 4);
        assert_eq!(row.disks, 20);
        assert!(row.lan_delivered.bps() <= row.serve_rate.bps() + 1.0);
        assert!(row.wan_delivered.bps() <= row.lan_delivered.bps() + 1.0);
    }
}
