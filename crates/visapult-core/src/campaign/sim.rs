//! Virtual-time campaigns: replaying the paper's field tests against models.
//!
//! A [`SimCampaignConfig`] names a network testbed reconstruction
//! ([`netsim::Testbed`]), a compute-platform model
//! ([`crate::platform::ComputePlatform`]), a pipeline configuration and an
//! execution mode.  Exactly one place builds one:
//! `ResolvedScenario::stage_sim_config`, per scenario stage (the paper's own
//! runs come through `ScenarioSpec::paper_sim_config`, a one-stage
//! `paper_virtual` scenario).
//!
//! [`SimCampaignConfig::model`] computes, per timestep, the data loading time
//! (bounded by the WAN path, the per-PE ingest ceiling and the DPSS serve
//! rate, with TCP slow-start on the first frame and CPU-contention inflation
//! in overlapped mode), the render time (from the platform's per-PE sample
//! rate) and the payload send time, then schedules the frames exactly as the
//! serial or overlapped (Appendix B) control flow would and emits the
//! corresponding NetLogger events on a virtual clock.
//!
//! The output is an event log structurally identical to what a real campaign
//! produces, so the same NLV lifeline plots and phase analysis apply — this
//! is how the benchmark harness regenerates Figures 10 and 12–17 and the
//! quantitative claims of §4 and §5.

use crate::config::{ExecutionMode, PipelineConfig};
use crate::error::VisapultError;
use crate::platform::ComputePlatform;
use crate::transport::TcpTuning;
use dpss::DpssSimModel;
use netlogger::{tags, Collector, EventLog, FieldValue, ProfileAnalysis};
use netsim::{Bandwidth, DataSize, LinkKind, TcpModel, Testbed};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fraction of the nominal WAN bottleneck a circa-2000 application actually
/// realized for bulk TCP data movement (SONET/ATM/IP framing, TCP behaviour
/// and per-block request overheads folded together).  Calibrated against the
/// paper's "433 Mbps ≈ 70 % of the OC-12" observation in §4.2.
pub const DEFAULT_WAN_EFFICIENCY: f64 = 0.75;

/// The striped back-end -> viewer transport, as the virtual-time path models
/// it: the same stripe count and TCP tuning the real link paces itself by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTransportModel {
    /// Parallel stripes per PE link.
    pub stripes: u32,
    /// TCP stack the stripes model.
    pub tuning: TcpTuning,
}

/// Configuration of one virtual-time campaign.
#[derive(Debug, Clone)]
pub struct SimCampaignConfig {
    /// Campaign name used in reports.
    pub name: String,
    /// The reconstructed network configuration.
    pub testbed: Testbed,
    /// The back-end compute platform.
    pub platform: ComputePlatform,
    /// The pipeline (dataset, PEs, timesteps, mode, render settings).
    pub pipeline: PipelineConfig,
    /// The DPSS deployment serving the data.
    pub dpss: DpssSimModel,
    /// Striped viewer-link transport model (`None` keeps the legacy
    /// raw-bottleneck send model, preserving the calibrated figure numbers).
    pub transport: Option<SimTransportModel>,
    /// Application-level efficiency multiplier on the achieved load rate
    /// (1.0 after the §4.2 streamlining, ≈0.56 for the SC99-era staging).
    pub app_efficiency: f64,
    /// WAN protocol efficiency (see [`DEFAULT_WAN_EFFICIENCY`]).
    pub wan_efficiency: f64,
    /// Seed for load-time jitter in overlapped mode.
    pub jitter_seed: u64,
}

/// Timing of one frame through the back end, in seconds from campaign start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameTiming {
    /// Frame number.
    pub frame: usize,
    /// Data loading interval.
    pub load_start: f64,
    /// End of data loading.
    pub load_end: f64,
    /// Start of rendering.
    pub render_start: f64,
    /// End of rendering.
    pub render_end: f64,
    /// End of heavy-payload transmission.
    pub send_end: f64,
}

impl FrameTiming {
    /// Load duration.
    pub fn load_time(&self) -> f64 {
        self.load_end - self.load_start
    }

    /// Render duration.
    pub fn render_time(&self) -> f64 {
        self.render_end - self.render_start
    }

    /// Send duration.
    pub fn send_time(&self) -> f64 {
        self.send_end - self.render_end
    }
}

/// Results of a virtual-time campaign.
#[derive(Debug, Clone)]
pub struct SimCampaignReport {
    /// Campaign name.
    pub name: String,
    /// Execution mode.
    pub mode: ExecutionMode,
    /// Number of back-end PEs.
    pub pes: usize,
    /// Per-frame schedule.
    pub frames: Vec<FrameTiming>,
    /// End-to-end time for all frames, seconds.
    pub total_time: f64,
    /// Mean per-frame load time (excluding the cold first frame), seconds.
    pub mean_load_time: f64,
    /// Mean per-frame render time, seconds.
    pub mean_render_time: f64,
    /// Mean per-frame send time, seconds.
    pub mean_send_time: f64,
    /// Mean aggregate load throughput (warm frames), Mbps.
    pub mean_load_throughput_mbps: f64,
    /// NetLogger event log equivalent to the paper's NLV input.
    pub log: EventLog,
}

impl SimCampaignReport {
    /// Phase analysis of the emitted event log.
    pub fn analysis(&self) -> ProfileAnalysis {
        ProfileAnalysis::from_log(&self.log)
    }

    /// Seconds per timestep in steady state (the §5 playback metric).
    pub fn seconds_per_timestep(&self) -> f64 {
        if self.frames.len() <= 1 {
            return self.total_time;
        }
        // Steady-state cadence: ignore the first frame's cold start.
        (self.total_time - self.frames[0].send_end) / (self.frames.len() - 1) as f64
    }
}

impl SimCampaignConfig {
    /// The effective aggregate rate at which the back end can pull one frame
    /// of data out of the cache: the minimum of the WAN path (discounted for
    /// circa-2000 protocol efficiency), the per-PE ingest ceilings, and the
    /// DPSS serve rate — all divided by the application-efficiency factor.
    pub fn aggregate_load_rate(&self) -> Bandwidth {
        let route = self.testbed.data_route(0);
        let crosses_wan = self
            .testbed
            .topology
            .route_links(&route)
            .any(|l| matches!(l.kind, LinkKind::DedicatedWan | LinkKind::SharedWan));
        let mut path = self.testbed.topology.route_bottleneck(&route);
        if crosses_wan {
            path = path.scale(self.wan_efficiency);
        }
        let cap = self.platform.aggregate_load_cap(self.pipeline.pes);
        let serve = self.dpss.serve_rate();
        path.min(cap).min(serve).scale(self.app_efficiency)
    }

    /// Warm-path per-frame load time, before overlap penalties and jitter.
    fn warm_load_time(&self) -> f64 {
        let frame_bytes = self.pipeline.dataset.bytes_per_timestep();
        let route = self.testbed.data_route(0);
        let rtt = self.testbed.topology.route_rtt(&route).as_secs_f64();
        frame_bytes.bits() as f64 / self.aggregate_load_rate().bps() + rtt
    }

    /// Ratio of cold (first-frame, slow-start) to warm load time on this
    /// path, from the per-PE TCP model.
    fn cold_start_factor(&self) -> f64 {
        let slab = DataSize::from_bytes(self.pipeline.bytes_per_pe_per_step());
        let model = self.testbed.data_tcp_model(0, self.pipeline.streams_per_pe);
        let cold = model.transfer_time(slab).as_secs_f64();
        let warm = model.transfer_time_warm(slab).as_secs_f64();
        (cold / warm).max(1.0)
    }

    /// Per-frame render time from the platform model.
    fn render_time(&self) -> f64 {
        self.platform
            .render_time(self.pipeline.cells_per_pe(), &self.pipeline.render)
    }

    /// Per-frame heavy-payload send time over the back-end → viewer path.
    /// With a striped transport model the achievable rate is the striped TCP
    /// session's steady goodput (untuned single stripes are window-limited,
    /// striping lifts the ceiling); without one, the raw path bottleneck.
    fn send_time(&self) -> f64 {
        let per_pe = self.pipeline.viewer_payload_bytes_per_pe();
        let total = DataSize::from_bytes(per_pe * self.pipeline.pes as u64);
        let route = self.testbed.viewer_route(0);
        let rtt = self.testbed.topology.route_rtt(&route).as_secs_f64();
        let rate = match &self.transport {
            None => self.testbed.topology.route_bottleneck(&route),
            Some(t) => {
                let links: Vec<_> = self.testbed.topology.route_links(&route).collect();
                TcpModel::from_path(links, t.tuning.tcp_config(), t.stripes).steady_throughput()
            }
        };
        total.bits() as f64 / rate.bps() + rtt
    }
}

impl SimCampaignConfig {
    /// Run the calibrated stage model to completion on a fresh virtual-time
    /// collector and return the per-frame schedule, summary statistics and
    /// the emitted event log.
    ///
    /// This is the supported entry point for *raw model access* — figure
    /// binaries and analyses that need the [`FrameTiming`] schedule itself,
    /// on a config from `ScenarioSpec::paper_sim_config`.
    /// Whole campaigns should be driven through the
    /// [`crate::pipeline::Pipeline`] builder instead, where this model is
    /// the virtual-time [`crate::pipeline::RenderFarm`].
    pub fn model(&self) -> Result<SimCampaignReport, VisapultError> {
        let mut collector = Collector::virtual_time();
        let mut report = model_stage(self, &collector)?;
        report.log = collector.snapshot();
        Ok(report)
    }
}

/// The calibrated stage model itself: compute the per-frame schedule and
/// emit the NetLogger events the real pipeline would have produced into
/// `collector` (the virtual-time render farm passes the pipeline's shared
/// per-stage collector; [`SimCampaignConfig::model`] passes its own).  The
/// returned report carries an empty log — the events live in the collector.
pub(crate) fn model_stage(
    config: &SimCampaignConfig,
    collector: &Collector,
) -> Result<SimCampaignReport, VisapultError> {
    config.pipeline.validate().map_err(VisapultError::Config)?;
    let n = config.pipeline.timesteps;
    let pes = config.pipeline.pes;
    let overlapped = config.pipeline.mode == ExecutionMode::Overlapped;
    let mut rng = StdRng::seed_from_u64(config.jitter_seed);

    // Per-frame load times: warm rate, cold first frame, overlap contention
    // penalty and jitter.
    let warm = config.warm_load_time();
    let cold_factor = config.cold_start_factor();
    let overlap_mult = config.platform.overlap_multiplier(overlapped);
    let jitter = if overlapped {
        config.platform.overlap_load_jitter
    } else {
        0.01
    };
    let load_times: Vec<f64> = (0..n)
        .map(|f| {
            let base = if f == 0 { warm * cold_factor } else { warm };
            let wobble = 1.0 + rng.gen_range(-1.0f64..1.0) * jitter;
            base * overlap_mult * wobble.max(0.2)
        })
        .collect();
    let render = config.render_time();
    let send = config.send_time();

    // Schedule frames according to the execution mode.
    let mut frames = Vec::with_capacity(n);
    match config.pipeline.mode {
        ExecutionMode::Serial => {
            let mut t = 0.0;
            for (f, load) in load_times.iter().enumerate() {
                let load_start = t;
                let load_end = load_start + load;
                let render_start = load_end;
                let render_end = render_start + render;
                let send_end = render_end + send;
                frames.push(FrameTiming {
                    frame: f,
                    load_start,
                    load_end,
                    render_start,
                    render_end,
                    send_end,
                });
                t = send_end;
            }
        }
        ExecutionMode::Overlapped => {
            // Appendix B control flow: load f+1 overlaps render/send of f.
            let mut load_start = vec![0.0; n];
            let mut load_end = vec![0.0; n];
            load_end[0] = load_times[0];
            let mut prev_send_end = 0.0;
            for f in 0..n {
                let render_start = load_end[f].max(prev_send_end);
                let render_end = render_start + render;
                let send_end = render_end + send;
                if f + 1 < n {
                    load_start[f + 1] = render_start;
                    load_end[f + 1] = load_start[f + 1] + load_times[f + 1];
                }
                frames.push(FrameTiming {
                    frame: f,
                    load_start: load_start[f],
                    load_end: load_end[f],
                    render_start,
                    render_end,
                    send_end,
                });
                prev_send_end = send_end;
            }
        }
    }
    let total_time = frames.last().map(|f| f.send_end).unwrap_or(0.0);

    // Emit the NetLogger events the real pipeline would have produced.
    let frame_bytes = config.pipeline.dataset.bytes_per_timestep().bytes();
    let slab_bytes = config.pipeline.bytes_per_pe_per_step();
    let mut pe_stagger_rng = StdRng::seed_from_u64(config.jitter_seed ^ 0x5eed);
    for pe in 0..pes {
        let host = config
            .testbed
            .topology
            .node_name(config.testbed.backend_hosts[pe % config.testbed.backend_hosts.len()])
            .to_string();
        let be = collector.logger(host, format!("backend-worker-{pe}"));
        let viewer = collector.logger("viewer-desktop", format!("viewer-worker-{pe}"));
        for ft in &frames {
            // Individual PEs finish loading at slightly different times (the
            // staggering visible in Figure 15); the frame-level load_end is
            // the maximum across PEs, so stagger strictly earlier.
            let stagger = if overlapped {
                pe_stagger_rng.gen_range(0.0..jitter.max(0.005)) * ft.load_time()
            } else {
                pe_stagger_rng.gen_range(0.0..0.01) * ft.load_time()
            };
            let fields = |bytes: Option<u64>| {
                let mut v: Vec<(String, FieldValue)> = vec![
                    (tags::FIELD_FRAME.to_string(), FieldValue::Int(ft.frame as i64)),
                    (tags::FIELD_RANK.to_string(), FieldValue::Int(pe as i64)),
                ];
                if let Some(b) = bytes {
                    v.push((tags::FIELD_BYTES.to_string(), FieldValue::Int(b as i64)));
                }
                v
            };
            be.log_at(ft.load_start, tags::BE_FRAME_START, fields(None));
            be.log_at(ft.load_start, tags::BE_LOAD_START, fields(None));
            be.log_at(
                (ft.load_end - stagger).max(ft.load_start),
                tags::BE_LOAD_END,
                fields(Some(slab_bytes)),
            );
            be.log_at(ft.render_start, tags::BE_RENDER_START, fields(None));
            be.log_at(ft.render_end, tags::BE_RENDER_END, fields(None));
            be.log_at(ft.render_end, tags::BE_HEAVY_SEND, fields(None));
            be.log_at(ft.send_end, tags::BE_HEAVY_END, fields(None));
            be.log_at(ft.send_end, tags::BE_FRAME_END, fields(None));

            viewer.log_at(ft.render_end, tags::V_FRAME_START, fields(None));
            viewer.log_at(ft.render_end, tags::V_LIGHTPAYLOAD_START, fields(None));
            viewer.log_at(ft.render_end, tags::V_LIGHTPAYLOAD_END, fields(None));
            viewer.log_at(ft.render_end, tags::V_HEAVYPAYLOAD_START, fields(None));
            viewer.log_at(ft.send_end, tags::V_HEAVYPAYLOAD_END, fields(None));
            viewer.log_at(ft.send_end, tags::V_FRAME_END, fields(None));
        }
    }
    // Summary statistics (warm frames only for load/throughput).
    let warm_frames: Vec<&FrameTiming> = frames.iter().skip(1).collect();
    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let load_samples: Vec<f64> = if warm_frames.is_empty() {
        frames.iter().map(|f| f.load_time()).collect()
    } else {
        warm_frames.iter().map(|f| f.load_time()).collect()
    };
    let mean_load_time = mean(&load_samples);
    let mean_render_time = mean(&frames.iter().map(|f| f.render_time()).collect::<Vec<_>>());
    let mean_send_time = mean(&frames.iter().map(|f| f.send_time()).collect::<Vec<_>>());
    let mean_load_throughput_mbps = if mean_load_time > 0.0 {
        frame_bytes as f64 * 8.0 / mean_load_time / 1e6
    } else {
        0.0
    };

    Ok(SimCampaignReport {
        name: config.name.clone(),
        mode: config.pipeline.mode,
        pes,
        frames,
        total_time,
        mean_load_time,
        mean_render_time,
        mean_send_time,
        mean_load_throughput_mbps,
        log: EventLog::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioSpec;
    use netsim::TestbedKind;

    #[test]
    fn fig10_nton_profile_shape() {
        // Fig. 10: 4 PEs, serial, NTON: 160 MB loaded in ~3 s (~433 Mbps,
        // ~70% of OC-12), rendering 8-9 s.
        let config = ScenarioSpec::paper_sim_config(TestbedKind::NtonCplant, 4, 5, ExecutionMode::Serial).unwrap();
        let report = config.model().unwrap();
        assert!(
            report.mean_load_time > 2.4 && report.mean_load_time < 3.6,
            "load {}",
            report.mean_load_time
        );
        assert!(
            report.mean_load_throughput_mbps > 380.0 && report.mean_load_throughput_mbps < 480.0,
            "throughput {}",
            report.mean_load_throughput_mbps
        );
        assert!(
            report.mean_render_time > 7.0 && report.mean_render_time < 10.0,
            "render {}",
            report.mean_render_time
        );
        // Utilization ~70% of the OC-12.
        let utilization = report.mean_load_throughput_mbps / 622.0;
        assert!(utilization > 0.6 && utilization < 0.8, "utilization {utilization}");
    }

    #[test]
    fn fig12_13_lan_serial_vs_overlapped_totals() {
        // §4.3: ten timesteps, serial ≈265 s, overlapped ≈169 s, L≈15, R≈12.
        let serial = ScenarioSpec::paper_sim_config(TestbedKind::LanSmp, 8, 10, ExecutionMode::Serial)
            .unwrap()
            .model()
            .unwrap();
        let overlapped = ScenarioSpec::paper_sim_config(TestbedKind::LanSmp, 8, 10, ExecutionMode::Overlapped)
            .unwrap()
            .model()
            .unwrap();
        assert!(
            serial.total_time > 240.0 && serial.total_time < 295.0,
            "serial total {}",
            serial.total_time
        );
        assert!(
            overlapped.total_time > 150.0 && overlapped.total_time < 195.0,
            "overlapped total {}",
            overlapped.total_time
        );
        assert!(serial.mean_load_time > 13.0 && serial.mean_load_time < 17.0);
        assert!(serial.mean_render_time > 10.5 && serial.mean_render_time < 13.5);
        let speedup = serial.total_time / overlapped.total_time;
        assert!(speedup > 1.35 && speedup < 1.9, "speedup {speedup}");
    }

    #[test]
    fn fig14_adding_nodes_does_not_speed_loading_but_halves_rendering() {
        let four = ScenarioSpec::paper_sim_config(TestbedKind::NtonCplant, 4, 5, ExecutionMode::Serial)
            .unwrap()
            .model()
            .unwrap();
        let eight = ScenarioSpec::paper_sim_config(TestbedKind::NtonCplant, 8, 5, ExecutionMode::Serial)
            .unwrap()
            .model()
            .unwrap();
        let load_ratio = eight.mean_load_time / four.mean_load_time;
        assert!(load_ratio > 0.85 && load_ratio < 1.1, "load ratio {load_ratio}");
        let render_ratio = four.mean_render_time / eight.mean_render_time;
        assert!((render_ratio - 2.0).abs() < 0.2, "render ratio {render_ratio}");
    }

    #[test]
    fn fig15_overlapped_cluster_loads_are_slower_and_more_variable() {
        let serial = ScenarioSpec::paper_sim_config(TestbedKind::NtonCplant, 8, 8, ExecutionMode::Serial)
            .unwrap()
            .model()
            .unwrap();
        let overlapped = ScenarioSpec::paper_sim_config(TestbedKind::NtonCplant, 8, 8, ExecutionMode::Overlapped)
            .unwrap()
            .model()
            .unwrap();
        assert!(
            overlapped.mean_load_time > serial.mean_load_time,
            "overlapped load {} vs serial {}",
            overlapped.mean_load_time,
            serial.mean_load_time
        );
        // Variability: coefficient of variation of warm-frame load times.
        let cv = |frames: &[FrameTiming]| {
            let times: Vec<f64> = frames.iter().skip(1).map(|f| f.load_time()).collect();
            let mean = times.iter().sum::<f64>() / times.len() as f64;
            let var = times.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / times.len() as f64;
            var.sqrt() / mean
        };
        assert!(cv(&overlapped.frames) > cv(&serial.frames));
        // Despite that, the overlapped run still finishes sooner.
        assert!(overlapped.total_time < serial.total_time);
    }

    #[test]
    fn fig16_17_esnet_profile_shape() {
        // §4.4.2: ~10 s to move 160 MB over ESnet (~128 Mbps), first frame
        // slower until the TCP window opens; overlapped loads slightly higher.
        let serial = ScenarioSpec::paper_sim_config(TestbedKind::EsnetAnlSmp, 8, 6, ExecutionMode::Serial)
            .unwrap()
            .model()
            .unwrap();
        assert!(
            serial.mean_load_time > 8.0 && serial.mean_load_time < 12.5,
            "load {}",
            serial.mean_load_time
        );
        assert!(
            serial.mean_load_throughput_mbps > 100.0 && serial.mean_load_throughput_mbps < 160.0,
            "throughput {}",
            serial.mean_load_throughput_mbps
        );
        // Cold first frame.
        assert!(serial.frames[0].load_time() > serial.frames[1].load_time() * 1.05);

        let overlapped = ScenarioSpec::paper_sim_config(TestbedKind::EsnetAnlSmp, 8, 6, ExecutionMode::Overlapped)
            .unwrap()
            .model()
            .unwrap();
        assert!(overlapped.mean_load_time >= serial.mean_load_time * 0.98);
        // On the SMP the penalty is small compared with the cluster's.
        let smp_penalty = overlapped.mean_load_time / serial.mean_load_time;
        assert!(smp_penalty < 1.12, "penalty {smp_penalty}");
        // Loading dominates on ESnet, so overlapping buys little relative to
        // the LAN case — but still helps.
        assert!(overlapped.total_time < serial.total_time);
    }

    #[test]
    fn sc99_throughputs_match_the_paper() {
        let cplant = ScenarioSpec::paper_sim_config(TestbedKind::Sc99Cplant, 4, 4, ExecutionMode::Serial)
            .unwrap()
            .model()
            .unwrap();
        assert!(
            cplant.mean_load_throughput_mbps > 210.0 && cplant.mean_load_throughput_mbps < 290.0,
            "NTON SC99 throughput {}",
            cplant.mean_load_throughput_mbps
        );
        let booth = ScenarioSpec::paper_sim_config(TestbedKind::Sc99Booth, 8, 4, ExecutionMode::Serial)
            .unwrap()
            .model()
            .unwrap();
        assert!(
            booth.mean_load_throughput_mbps > 120.0 && booth.mean_load_throughput_mbps < 180.0,
            "SciNet SC99 throughput {}",
            booth.mean_load_throughput_mbps
        );
        assert!(cplant.mean_load_throughput_mbps > booth.mean_load_throughput_mbps);
    }

    #[test]
    fn playback_cadence_matches_section5() {
        // §5: a new timestep every ~3 s over NTON, every ~10 s over ESnet.
        let nton = ScenarioSpec::paper_sim_config(TestbedKind::NtonCplant, 8, 6, ExecutionMode::Overlapped)
            .unwrap()
            .model()
            .unwrap();
        let esnet = ScenarioSpec::paper_sim_config(TestbedKind::EsnetAnlSmp, 8, 6, ExecutionMode::Overlapped)
            .unwrap()
            .model()
            .unwrap();
        // Overlapped steady-state cadence is governed by max(L, R) + send.
        assert!(
            nton.seconds_per_timestep() > 2.0 && nton.seconds_per_timestep() < 6.5,
            "NTON cadence {}",
            nton.seconds_per_timestep()
        );
        assert!(
            esnet.seconds_per_timestep() > 8.0 && esnet.seconds_per_timestep() < 14.0,
            "ESnet cadence {}",
            esnet.seconds_per_timestep()
        );
        assert!(esnet.seconds_per_timestep() > nton.seconds_per_timestep() * 2.0);
    }

    #[test]
    fn oc192_supports_much_faster_playback() {
        let future = ScenarioSpec::paper_sim_config(TestbedKind::FutureOc192, 16, 6, ExecutionMode::Overlapped)
            .unwrap()
            .model()
            .unwrap();
        let nton = ScenarioSpec::paper_sim_config(TestbedKind::NtonCplant, 8, 6, ExecutionMode::Overlapped)
            .unwrap()
            .model()
            .unwrap();
        assert!(future.mean_load_time < nton.mean_load_time * 0.6);
    }

    #[test]
    fn emitted_log_supports_the_standard_analysis() {
        let config = ScenarioSpec::paper_sim_config(TestbedKind::NtonCplant, 4, 3, ExecutionMode::Serial).unwrap();
        let report = config.model().unwrap();
        let analysis = report.analysis();
        assert_eq!(analysis.frames.len(), 3);
        // Frame-level bytes = sum of per-PE slab bytes = one timestep.
        assert_eq!(
            analysis.frames[0].bytes_loaded,
            config.pipeline.dataset.bytes_per_timestep().bytes()
        );
        // The analysis load time agrees with the schedule within jitter.
        assert!((analysis.frames[1].load_time - report.frames[1].load_time()).abs() < 0.5);
        // Lifeline plot renders.
        let plot = netlogger::LifelinePlot::new(&report.log, netlogger::NlvOptions::default());
        assert!(plot.render().contains("BE_LOAD_END"));
    }

    #[test]
    fn striped_transport_model_shapes_the_send_phase() {
        // With the transport modeled, an untuned single-stripe viewer link is
        // window-limited over the ESnet RTT; eight stripes lift the ceiling —
        // the striping effect, visible in virtual time.
        let base = ScenarioSpec::paper_sim_config(TestbedKind::EsnetAnlSmp, 4, 3, ExecutionMode::Serial).unwrap();
        let mut single = base.clone();
        single.transport = Some(SimTransportModel {
            stripes: 1,
            tuning: TcpTuning::Untuned,
        });
        let mut striped = base.clone();
        striped.transport = Some(SimTransportModel {
            stripes: 8,
            tuning: TcpTuning::Untuned,
        });
        let s1 = single.model().unwrap();
        let s8 = striped.model().unwrap();
        assert!(
            s1.mean_send_time > 2.0 * s8.mean_send_time,
            "1 stripe {} vs 8 stripes {}",
            s1.mean_send_time,
            s8.mean_send_time
        );
        // No transport model keeps the legacy raw-bottleneck send model (the
        // calibrated figure numbers depend on it).
        let legacy = base.model().unwrap();
        assert!(legacy.mean_send_time <= s8.mean_send_time);
    }

    #[test]
    fn invalid_pipeline_is_rejected() {
        let mut config = ScenarioSpec::paper_sim_config(TestbedKind::NtonCplant, 4, 3, ExecutionMode::Serial).unwrap();
        config.pipeline.timesteps = 10_000;
        assert!(config.model().is_err());
    }
}
