//! Integration tests of the distributed substrates working together: the
//! striped DPSS client feeding the renderer, HPSS staging feeding a campaign,
//! and the virtual-time campaigns agreeing with the analytic model and with
//! each other across modes.

use visapult::core::{ExecutionMode, OverlapModel, ScenarioSpec};
use visapult::dpss::{DatasetDescriptor, DpssClient, DpssCluster, HpssArchive, StripeLayout};
use visapult::netsim::{Bandwidth, TestbedKind};
use visapult::scenegraph::IbravrModel;
use visapult::volren::{
    combustion_series_bytes, render_view, Axis, RenderSettings, TransferFunction, ViewOrientation, Volume,
};

#[test]
fn striped_dpss_feeds_the_volume_renderer() {
    // Stage synthetic data on three servers, read a slab back through the
    // striped client (one worker per server), and render it: the image must
    // match the one rendered straight from the generator.
    let descriptor = DatasetDescriptor::small_combustion(2);
    let cluster = DpssCluster::new(StripeLayout::new(32 * 1024, 3, 2));
    cluster.register_dataset(descriptor.clone());
    let bytes = combustion_series_bytes(descriptor.dims, descriptor.timesteps, 5);
    DpssClient::new(cluster.clone(), "stager")
        .write_at(&descriptor.name, 0, &bytes)
        .unwrap();

    let client = DpssClient::new(cluster, "backend");
    assert_eq!(client.threads_per_request(), 3);
    let (offset, len) = descriptor.z_slab_range(1, 1, 4);
    assert!(len > 2 * 32 * 1024, "the slab must span blocks on every server");
    let slab_bytes = client.read_range(&descriptor.name, offset, len).unwrap();

    let (x, y, _) = descriptor.dims;
    let nz = len as usize / (x * y * 4);
    let from_cache = Volume::from_le_bytes((x, y, nz), &slab_bytes);
    let direct = Volume::from_le_bytes((x, y, nz), &bytes[offset as usize..(offset + len) as usize]);
    assert_eq!(from_cache, direct);

    let tf = TransferFunction::combustion_default();
    let settings = RenderSettings::with_size(32, 32);
    let a = visapult::volren::render_region(&from_cache, Axis::Z, &tf, (0.0, 1.5), &settings);
    let b = visapult::volren::render_region(&direct, Axis::Z, &tf, (0.0, 1.5), &settings);
    assert_eq!(a.mean_abs_diff(&b), 0.0);
}

#[test]
fn hpss_staging_then_ibravr_display() {
    // The full data lifecycle: archive -> cache -> slab render -> IBR display.
    let descriptor = DatasetDescriptor::small_combustion(2);
    let cluster = DpssCluster::four_server();
    let client = DpssClient::new(cluster.clone(), "stager");
    let content = combustion_series_bytes(descriptor.dims, descriptor.timesteps, 13);

    let mut archive = HpssArchive::new();
    archive.archive(descriptor.clone());
    let staging = archive
        .stage_to_dpss(&descriptor.name, &client, &content, Bandwidth::from_mbps(980.0))
        .unwrap();
    assert!(staging.hpss_time > staging.dpss_time, "the cache must beat the archive");

    // Read the full first timestep back and display it through IBRAVR.
    let reader = DpssClient::new(cluster, "viewer-backend");
    let step_bytes = descriptor.bytes_per_timestep().bytes() as usize;
    let mut buf = vec![0u8; step_bytes];
    reader.read_at(&descriptor.name, 0, &mut buf).unwrap();
    let volume = Volume::from_le_bytes(descriptor.dims, &buf);

    let tf = TransferFunction::combustion_default();
    let settings = RenderSettings::with_size(48, 48);
    let model = IbravrModel::from_volume(&volume, Axis::Z, 4, &tf, &settings);
    let composite = model.composite(&ViewOrientation::new(6.0, 3.0), 48, 48);
    assert!(composite.coverage() > 0.05);
    let truth = render_view(&volume, &ViewOrientation::new(6.0, 3.0), &tf, &settings);
    assert!(truth.coverage() > 0.05);
}

#[test]
fn sim_campaigns_track_the_analytic_model() {
    // The virtual-time scheduler must agree with the closed-form §4.3 model
    // when fed the same L and R (up to the cold start, jitter and send time).
    for mode in ExecutionMode::ALL {
        let config = ScenarioSpec::paper_sim_config(TestbedKind::LanSmp, 8, 10, mode).unwrap();
        let report = config.model().unwrap();
        let model = OverlapModel::new(report.mean_load_time, report.mean_render_time);
        let predicted = match mode {
            ExecutionMode::Serial => model.serial_time(10),
            ExecutionMode::Overlapped => model.overlapped_time(10),
        };
        let relative_error = (report.total_time - predicted).abs() / predicted;
        assert!(
            relative_error < 0.15,
            "{} total {:.1}s vs analytic {:.1}s (err {:.2})",
            report.name,
            report.total_time,
            predicted,
            relative_error
        );
    }
}

#[test]
fn overlap_speedup_shrinks_when_loading_dominates() {
    // On the LAN, L and R are balanced and overlapping pays ~1.5x; on ESnet,
    // loading dominates so the speedup is smaller — the trend the paper
    // predicts from the Ts/To analysis.
    let speedup = |kind: TestbedKind| {
        let total = |mode| {
            let config = ScenarioSpec::paper_sim_config(kind, 8, 8, mode).unwrap();
            config.model().unwrap().total_time
        };
        total(ExecutionMode::Serial) / total(ExecutionMode::Overlapped)
    };
    let lan = speedup(TestbedKind::LanSmp);
    let esnet = speedup(TestbedKind::EsnetAnlSmp);
    assert!(
        lan > esnet,
        "LAN speedup {lan:.2} should exceed ESnet speedup {esnet:.2}"
    );
    assert!(lan > 1.3 && lan < 2.0);
    assert!(esnet > 1.0);
}

#[test]
fn viewer_payload_scales_quadratically_not_cubically() {
    // Double the volume resolution: raw data grows 8x, the IBR imagery the
    // viewer needs grows only with its own texture resolution.
    let tf = TransferFunction::combustion_default();
    let settings = RenderSettings::with_size(64, 64);
    let small = visapult::volren::combustion_jet((32, 32, 32), 0.5, 3);
    let big = visapult::volren::combustion_jet((64, 64, 64), 0.5, 3);
    let small_model = IbravrModel::from_volume(&small, Axis::Z, 4, &tf, &settings);
    let big_model = IbravrModel::from_volume(&big, Axis::Z, 4, &tf, &settings);
    assert_eq!(small_model.payload_bytes(), big_model.payload_bytes());
    assert_eq!(big.len(), small.len() * 8);
}
