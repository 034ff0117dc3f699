//! A round-based TCP throughput model.
//!
//! The Visapult/DPSS measurements are dominated by TCP behaviour over
//! long-fat networks: slow start means the first timestep of a run transfers
//! slower than later ones (paper Figure 17, "after the first time step's
//! worth of data was loaded and the TCP window fully opened ..."), default
//! receiver windows limit a single stream far below the OC-12 line rate, and
//! the DPSS client works around that by striping several sockets in parallel.
//!
//! This module models those effects with a per-RTT-round simulation: every
//! round each stream's congestion window grows (doubling during slow start,
//! one MSS per RTT afterwards), the amount transferred is limited by the
//! minimum of the congestion window, the receiver window, and the stream's
//! fair share of the bottleneck's bandwidth-delay product.  It is not a
//! packet-level simulator — loss is modelled only through the configured
//! slow-start threshold — but it reproduces the ramp shape and the striping
//! benefit that the paper relies on.

use crate::link::Link;
use crate::time::SimDuration;
use crate::units::{Bandwidth, DataSize};

/// Static TCP parameters for one connection (or one stripe of a striped
/// connection).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpConfig {
    /// Maximum segment size in bytes.
    pub mss: u32,
    /// Initial congestion window, in segments.
    pub initial_cwnd_segments: u32,
    /// Slow-start threshold, in bytes.  Above this the window grows linearly.
    pub ssthresh: u64,
    /// Receiver (socket-buffer) window in bytes.  Untuned circa-2000 stacks
    /// defaulted to 64 KB; the DPSS used large tuned buffers.
    pub receiver_window: u64,
    /// Fixed per-request protocol handshake cost charged once per transfer
    /// (connection reuse means this is small for DPSS block streams).
    pub request_overhead: SimDuration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            initial_cwnd_segments: 2,
            ssthresh: 512 * 1024,
            receiver_window: 1 << 20, // 1 MB tuned buffers
            request_overhead: SimDuration::from_micros(500),
        }
    }
}

impl TcpConfig {
    /// An untuned circa-2000 stack: 64 KB receiver window.
    pub fn untuned() -> Self {
        TcpConfig {
            receiver_window: 64 * 1024,
            ssthresh: 64 * 1024,
            ..Default::default()
        }
    }

    /// A stack tuned for high bandwidth-delay-product paths (large windows),
    /// as used by the DPSS and Visapult striped sockets.
    pub fn wan_tuned() -> Self {
        TcpConfig {
            receiver_window: 4 << 20,
            ssthresh: 2 << 20,
            ..Default::default()
        }
    }

    /// Initial congestion window in bytes.
    pub fn initial_cwnd_bytes(&self) -> u64 {
        u64::from(self.initial_cwnd_segments) * u64::from(self.mss)
    }
}

/// One sample of cumulative progress during a modelled transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelinePoint {
    /// Elapsed time since the transfer began.
    pub elapsed: SimDuration,
    /// Cumulative payload bytes delivered by this time.
    pub delivered: DataSize,
}

/// The result of modelling one (possibly striped) transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferTimeline {
    /// Total payload size requested.
    pub total: DataSize,
    /// Time from request to last byte delivered.
    pub duration: SimDuration,
    /// Progress samples, one per RTT round (plus the final partial round).
    pub points: Vec<TimelinePoint>,
    /// Average goodput over the whole transfer.
    pub average_throughput: Bandwidth,
    /// Goodput once the window has fully opened (last full round).
    pub steady_throughput: Bandwidth,
    /// Number of RTT rounds spent in slow start.
    pub slow_start_rounds: u32,
}

/// A TCP throughput model over a fixed network path.
#[derive(Debug, Clone, PartialEq)]
pub struct TcpModel {
    /// Round-trip time of the path.
    pub rtt: SimDuration,
    /// Bottleneck bandwidth available to this session (already discounted
    /// for background traffic and protocol overhead).
    pub bottleneck: Bandwidth,
    /// Per-stream TCP parameters.
    pub config: TcpConfig,
    /// Number of parallel striped streams sharing the path.
    pub streams: u32,
}

impl TcpModel {
    /// Model a path consisting of the given links in sequence: the RTT is the
    /// sum of per-hop RTTs and the bottleneck is the minimum available
    /// bandwidth.
    pub fn from_path<'a>(links: impl IntoIterator<Item = &'a Link>, config: TcpConfig, streams: u32) -> Self {
        let mut rtt = SimDuration::ZERO;
        let mut bottleneck = Bandwidth::from_gbps(10_000.0);
        let mut any = false;
        for l in links {
            any = true;
            rtt += l.rtt();
            bottleneck = bottleneck.min(l.available_bandwidth());
        }
        if !any {
            bottleneck = Bandwidth::gige();
        }
        // A path always has some minimal protocol round-trip even on loopback.
        if rtt.is_zero() {
            rtt = SimDuration::from_micros(100);
        }
        TcpModel {
            rtt,
            bottleneck,
            config,
            streams: streams.max(1),
        }
    }

    /// Construct directly from RTT and bottleneck bandwidth.
    pub fn new(rtt: SimDuration, bottleneck: Bandwidth, config: TcpConfig, streams: u32) -> Self {
        TcpModel {
            rtt: if rtt.is_zero() {
                SimDuration::from_micros(100)
            } else {
                rtt
            },
            bottleneck,
            config,
            streams: streams.max(1),
        }
    }

    /// Bytes the whole session may have in flight per RTT, limited by the
    /// path's bandwidth-delay product.
    fn path_bdp_bytes(&self) -> f64 {
        self.bottleneck.bps() * self.rtt.as_secs_f64() / 8.0
    }

    /// The steady-state goodput the session converges to: each stream is
    /// limited by its receiver window over the RTT, and the aggregate is
    /// limited by the bottleneck bandwidth.
    pub fn steady_throughput(&self) -> Bandwidth {
        let per_stream_window_bps =
            (self.config.receiver_window as f64 * 8.0 / self.rtt.as_secs_f64()) * f64::from(self.streams);
        Bandwidth::from_bps(per_stream_window_bps).min(self.bottleneck)
    }

    /// Model a transfer of `total` bytes, with per-round progress samples.
    ///
    /// The window state is assumed cold (first transfer of a connection).
    /// For warm connections use [`TcpModel::transfer_warm`].
    pub fn transfer(&self, total: DataSize) -> TransferTimeline {
        self.transfer_with_initial_window(total, self.config.initial_cwnd_bytes())
    }

    /// Model a transfer on connections whose windows are already fully open
    /// (all timesteps after the first, once the pipeline is streaming).
    pub fn transfer_warm(&self, total: DataSize) -> TransferTimeline {
        self.transfer_with_initial_window(total, self.config.receiver_window)
    }

    fn transfer_with_initial_window(&self, total: DataSize, initial_cwnd: u64) -> TransferTimeline {
        let total_bytes = total.bytes();
        let mss = f64::from(self.config.mss);
        let streams = f64::from(self.streams);
        // Per-stream share of the path BDP: a stream can never usefully have
        // more than this in flight per round.
        let per_stream_bdp = (self.path_bdp_bytes() / streams).max(mss);

        let mut cwnd = (initial_cwnd as f64).max(mss);
        let mut delivered: f64 = 0.0;
        let mut elapsed = self.config.request_overhead + self.rtt; // request + first data RTT begins
        let mut points = Vec::new();
        let mut slow_start_rounds = 0u32;
        let mut last_round_bytes = 0.0_f64;
        let rwnd = self.config.receiver_window as f64;
        let ssthresh = self.config.ssthresh as f64;

        points.push(TimelinePoint {
            elapsed: self.config.request_overhead,
            delivered: DataSize::ZERO,
        });

        // Safety valve: even a 1-byte window moves data, so this terminates,
        // but cap rounds to avoid pathological configs spinning forever.
        let max_rounds = 1_000_000;
        let mut round = 0;
        while delivered < total_bytes as f64 && round < max_rounds {
            round += 1;
            // Effective per-stream window this round.
            let window = cwnd.min(rwnd).min(per_stream_bdp);
            let round_bytes = (window * streams).min(total_bytes as f64 - delivered);
            delivered += round_bytes;
            last_round_bytes = window * streams;

            // Time for this round: one RTT, but if the aggregate window is
            // close to the BDP the limiting factor is serialization at the
            // bottleneck, not the round trip.
            let serialization = SimDuration::from_secs_f64(round_bytes * 8.0 / self.bottleneck.bps());
            let round_time = if window * streams >= self.path_bdp_bytes() * 0.95 {
                serialization.max(self.rtt)
            } else {
                self.rtt.max(serialization)
            };
            elapsed += if delivered >= total_bytes as f64 && round_bytes < window * streams {
                // Final partial round: only the serialization + half RTT tail.
                SimDuration::from_secs_f64(round_bytes * 8.0 / self.bottleneck.bps()).max(SimDuration::from_nanos(1))
                    + SimDuration::from_nanos(self.rtt.as_nanos() / 2)
            } else {
                round_time
            };

            // Window growth.
            if cwnd < ssthresh {
                slow_start_rounds += 1;
                cwnd = (cwnd * 2.0).min(rwnd.max(mss));
            } else {
                cwnd = (cwnd + mss).min(rwnd.max(mss));
            }

            points.push(TimelinePoint {
                elapsed,
                delivered: DataSize::from_bytes(delivered.min(total_bytes as f64) as u64),
            });
        }

        let duration = elapsed;
        let average_throughput = total.rate_over(duration);
        let steady_throughput = if last_round_bytes > 0.0 {
            Bandwidth::from_bps(last_round_bytes * 8.0 / self.rtt.as_secs_f64()).min(self.bottleneck)
        } else {
            Bandwidth::ZERO
        };

        TransferTimeline {
            total,
            duration,
            points,
            average_throughput,
            steady_throughput,
            slow_start_rounds,
        }
    }

    /// Convenience: just the duration of a cold transfer.
    pub fn transfer_time(&self, total: DataSize) -> SimDuration {
        self.transfer(total).duration
    }

    /// Convenience: just the duration of a warm transfer.
    pub fn transfer_time_warm(&self, total: DataSize) -> SimDuration {
        self.transfer_warm(total).duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{Link, LinkKind};

    fn nton_path() -> Vec<Link> {
        vec![Link::new(
            "NTON OC-12",
            LinkKind::DedicatedWan,
            Bandwidth::oc12(),
            SimDuration::from_millis(2),
        )]
    }

    fn esnet_path() -> Vec<Link> {
        vec![Link::new(
            "ESnet shared OC-12",
            LinkKind::SharedWan,
            Bandwidth::oc12(),
            SimDuration::from_millis(25),
        )
        .with_background_load(0.8)]
    }

    #[test]
    fn steady_throughput_respects_bottleneck() {
        let path = nton_path();
        let m = TcpModel::from_path(&path, TcpConfig::wan_tuned(), 8);
        assert!(m.steady_throughput().mbps() <= Bandwidth::oc12().mbps());
        assert!(m.steady_throughput().mbps() > 400.0);
    }

    #[test]
    fn untuned_single_stream_is_window_limited_on_wan() {
        // 64 KB window over 50 ms RTT: ~10.5 Mbps, nowhere near OC-12.
        let m = TcpModel::new(
            SimDuration::from_millis(50),
            Bandwidth::oc12().scale(0.97),
            TcpConfig::untuned(),
            1,
        );
        let tput = m.steady_throughput().mbps();
        assert!(tput < 12.0, "got {tput}");
    }

    #[test]
    fn striping_multiplies_window_limited_throughput() {
        let single = TcpModel::new(
            SimDuration::from_millis(50),
            Bandwidth::oc12().scale(0.97),
            TcpConfig::untuned(),
            1,
        );
        let striped = TcpModel::new(
            SimDuration::from_millis(50),
            Bandwidth::oc12().scale(0.97),
            TcpConfig::untuned(),
            16,
        );
        let ratio = striped.steady_throughput().bps() / single.steady_throughput().bps();
        assert!(ratio > 10.0, "striping should overcome window limits, ratio={ratio}");
    }

    #[test]
    fn cold_transfer_slower_than_warm() {
        let path = esnet_path();
        let m = TcpModel::from_path(&path, TcpConfig::wan_tuned(), 4);
        let size = DataSize::from_mb(160);
        let cold = m.transfer_time(size);
        let warm = m.transfer_time_warm(size);
        assert!(cold > warm, "cold {cold} should exceed warm {warm}");
    }

    #[test]
    fn timeline_is_monotonic_and_complete() {
        let path = nton_path();
        let m = TcpModel::from_path(&path, TcpConfig::wan_tuned(), 8);
        let tl = m.transfer(DataSize::from_mb(160));
        assert_eq!(tl.points.last().unwrap().delivered, DataSize::from_mb(160));
        for w in tl.points.windows(2) {
            assert!(w[1].elapsed >= w[0].elapsed);
            assert!(w[1].delivered >= w[0].delivered);
        }
        assert!(tl.slow_start_rounds > 0);
    }

    #[test]
    fn nton_160mb_transfer_is_a_few_seconds() {
        // Paper Fig. 10: 160 MB over NTON loaded in ~3 s (≈433 Mbps) with
        // parallel streams from 4 PEs.  The path-level model with 8 stripes
        // should land in the 2–4 second range.
        let path = nton_path();
        let m = TcpModel::from_path(&path, TcpConfig::wan_tuned(), 8);
        let t = m.transfer_time(DataSize::from_mb(160)).as_secs_f64();
        assert!(t > 1.5 && t < 5.0, "expected a few seconds, got {t}");
    }

    #[test]
    fn esnet_160mb_transfer_is_about_ten_seconds() {
        // Paper Fig. 16: ~10 s per 160 MB frame over ESnet (~128 Mbps).
        let path = esnet_path();
        let m = TcpModel::from_path(&path, TcpConfig::wan_tuned(), 8);
        let t = m.transfer_time_warm(DataSize::from_mb(160)).as_secs_f64();
        assert!(t > 6.0 && t < 16.0, "expected ~10 s, got {t}");
    }

    #[test]
    fn empty_path_gets_defaults() {
        let m = TcpModel::from_path(std::iter::empty(), TcpConfig::default(), 1);
        assert!(m.bottleneck.mbps() > 0.0);
        assert!(!m.rtt.is_zero());
    }

    #[test]
    fn zero_streams_clamped_to_one() {
        let m = TcpModel::new(SimDuration::from_millis(1), Bandwidth::gige(), TcpConfig::default(), 0);
        assert_eq!(m.streams, 1);
    }
}
