//! The "render remote" and "render local" baselines of §2.
//!
//! The introduction frames Visapult against two traditional strategies:
//!
//! * **Render remote** — images are created next to the data and shipped to
//!   the desktop.  Interactivity then requires full-frame-rate image
//!   delivery: "1K by 1K, RGBA images at 30fps requires a sustained transfer
//!   rate of 960 Mbps" (footnote 3).
//! * **Render local** — raw (sub)data is shipped to the desktop and rendered
//!   there, which moves `O(n³)` bytes per timestep over the WAN and is bound
//!   by local storage and graphics capacity.
//! * **Visapult** — the back end moves the `O(n³)` data over the *fast*
//!   data-cache link, and only `O(n²)` of texture crosses the link to the
//!   viewer, whose interactivity no longer depends on the network at all.
//!
//! The functions here quantify those bandwidth demands for experiment E10.

use dpss::DatasetDescriptor;
use netsim::{Bandwidth, DataSize};

/// Which end-to-end strategy is being costed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VisualizationStrategy {
    /// Full images rendered remotely and streamed to the desktop.
    RenderRemote,
    /// Raw data shipped to the desktop and rendered locally.
    RenderLocal,
    /// The Visapult pipeline: remote parallel rendering, IBR textures to the viewer.
    Visapult,
}

/// Bandwidth requirement of one strategy for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyBandwidth {
    /// The strategy.
    pub strategy: VisualizationStrategy,
    /// Bandwidth required on the link to the *user's desktop* to sustain the
    /// target rate.
    pub desktop_link: Bandwidth,
    /// Bandwidth required between the data source and the rendering resource.
    pub data_link: Bandwidth,
    /// Whether desktop interactivity (rotation at display rate) depends on
    /// the WAN being fast enough.
    pub interactivity_depends_on_wan: bool,
}

/// Footnote 3: bandwidth to ship `width × height` RGBA frames at `fps`.
pub fn image_stream_bandwidth(width: usize, height: usize, fps: f64) -> Bandwidth {
    Bandwidth::from_bps((width * height * 4) as f64 * 8.0 * fps)
}

/// Bandwidth to ship raw timesteps of `dataset` at `steps_per_sec`.
pub fn raw_data_bandwidth(dataset: &DatasetDescriptor, steps_per_sec: f64) -> Bandwidth {
    Bandwidth::from_bps(dataset.bytes_per_timestep().bits() as f64 * steps_per_sec)
}

/// Bandwidth of the Visapult viewer link: one texture per PE plus geometry,
/// per timestep.
pub fn visapult_viewer_bandwidth(
    pes: usize,
    texture_width: usize,
    texture_height: usize,
    geometry_bytes_per_pe: u64,
    steps_per_sec: f64,
) -> Bandwidth {
    let per_step = (texture_width * texture_height * 4) as u64 * pes as u64 + geometry_bytes_per_pe * pes as u64;
    Bandwidth::from_bps(DataSize::from_bytes(per_step).bits() as f64 * steps_per_sec)
}

/// Cost out all three strategies for a workload: a dataset played back at
/// `steps_per_sec`, displayed at `display_width × display_height` and
/// `display_fps` for interaction, with the Visapult back end using `pes` PEs
/// producing `texture_size²` textures.
pub fn compare_strategies(
    dataset: &DatasetDescriptor,
    steps_per_sec: f64,
    display_width: usize,
    display_height: usize,
    display_fps: f64,
    pes: usize,
    texture_size: usize,
) -> Vec<StrategyBandwidth> {
    let image_stream = image_stream_bandwidth(display_width, display_height, display_fps);
    let raw = raw_data_bandwidth(dataset, steps_per_sec);
    let viewer = visapult_viewer_bandwidth(pes, texture_size, texture_size, 50_000, steps_per_sec);
    vec![
        StrategyBandwidth {
            strategy: VisualizationStrategy::RenderRemote,
            // Every displayed frame crosses the WAN, whether or not the data changed.
            desktop_link: image_stream,
            data_link: raw,
            interactivity_depends_on_wan: true,
        },
        StrategyBandwidth {
            strategy: VisualizationStrategy::RenderLocal,
            // The raw data itself crosses the WAN to the desktop.
            desktop_link: raw,
            data_link: raw,
            interactivity_depends_on_wan: true,
        },
        StrategyBandwidth {
            strategy: VisualizationStrategy::Visapult,
            // Only textures cross to the viewer; interaction is local.
            desktop_link: viewer,
            data_link: raw,
            interactivity_depends_on_wan: false,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footnote_three_number_is_reproduced() {
        // "1K by 1K, RGBA images at 30fps requires a sustained transfer rate
        // of 960Mbps."
        let bw = image_stream_bandwidth(1024, 1024, 30.0);
        assert!(
            (bw.mbps() - 1006.6).abs() < 1.0 || (bw.mbps() - 960.0).abs() < 50.0,
            "got {} Mbps",
            bw.mbps()
        );
        // With the paper's looser "1K = 1000" arithmetic it is exactly 960.
        let loose = image_stream_bandwidth(1000, 1000, 30.0);
        assert!((loose.mbps() - 960.0).abs() < 1e-6);
    }

    #[test]
    fn raw_data_rate_for_five_steps_per_second_needs_oc192() {
        // §5: five timesteps per second of the 160 MB dataset needs about
        // fifteen times the OC-12, i.e. roughly an OC-192.
        let d = DatasetDescriptor::paper_combustion();
        let bw = raw_data_bandwidth(&d, 5.0);
        let oc12 = Bandwidth::oc12();
        let ratio = bw.bps() / oc12.bps();
        assert!(ratio > 10.0 && ratio < 16.0, "ratio {ratio}");
        assert!(bw.bps() < Bandwidth::oc192().bps());
    }

    #[test]
    fn visapult_viewer_link_is_orders_of_magnitude_smaller_than_raw() {
        let d = DatasetDescriptor::paper_combustion();
        let rows = compare_strategies(&d, 1.0, 1024, 1024, 30.0, 8, 512);
        let raw = rows
            .iter()
            .find(|r| r.strategy == VisualizationStrategy::RenderLocal)
            .unwrap()
            .desktop_link;
        let visapult = rows
            .iter()
            .find(|r| r.strategy == VisualizationStrategy::Visapult)
            .unwrap()
            .desktop_link;
        assert!(raw.bps() / visapult.bps() > 10.0, "raw {raw} vs visapult {visapult}");
    }

    #[test]
    fn only_visapult_decouples_interactivity_from_the_wan() {
        let d = DatasetDescriptor::paper_combustion();
        let rows = compare_strategies(&d, 1.0, 1024, 1024, 30.0, 8, 512);
        for r in &rows {
            match r.strategy {
                VisualizationStrategy::Visapult => assert!(!r.interactivity_depends_on_wan),
                _ => assert!(r.interactivity_depends_on_wan),
            }
        }
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn viewer_bandwidth_scales_with_texture_size_not_volume_size() {
        let small_vol = DatasetDescriptor::new("small", (128, 128, 128), 4, 10);
        let big_vol = DatasetDescriptor::new("big", (512, 512, 512), 4, 10);
        // Same texture size -> same viewer bandwidth, despite 64x more data.
        let a = visapult_viewer_bandwidth(8, 512, 512, 50_000, 1.0);
        let b = visapult_viewer_bandwidth(8, 512, 512, 50_000, 1.0);
        assert_eq!(a, b);
        // Raw bandwidth differs by ~64x.
        let ratio = raw_data_bandwidth(&big_vol, 1.0).bps() / raw_data_bandwidth(&small_vol, 1.0).bps();
        assert!((ratio - 64.0).abs() < 1.0);
    }
}
