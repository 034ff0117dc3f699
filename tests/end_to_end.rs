//! Cross-crate integration tests: the full pipeline from the DPSS cache
//! through the parallel back end to the viewer's composited image, driven
//! the one way there is to drive it — `Pipeline::builder` over a spec.

use std::sync::{Arc, Mutex};
use visapult::core::{
    CampaignReport, FabricLinks, FarmRun, Pipeline, RenderFarm, ScenarioSpec, StageContext, ThreadFarm, ViewerReport,
    VisapultError,
};
use visapult::netlogger::{tags, Collector, LifelinePlot, NlvOptions, ProfileAnalysis};

/// A laptop-scale real-path spec over the 80×32×32 combustion grid: `extra`
/// appends the `[real]`, `[cache]` and `[[stages]]` tables a test needs.
fn spec(pes: usize, timesteps: usize, execution: &str, extra: &str) -> ScenarioSpec {
    ScenarioSpec::from_toml_str(&format!(
        r#"
[scenario]
name = "end-to-end"
seed = 42
path = "real"

[testbed]
kind = "lan-smp"

[pipeline]
pes = {pes}
timesteps = {timesteps}
execution = "{execution}"

[dataset]
dims = [80, 32, 32]
{extra}"#
    ))
    .unwrap()
}

const DPSS: &str = "[real]\nuse_dpss = true\n";
const SYNTHETIC: &str = "[real]\nuse_dpss = false\n";

/// The real farm, keeping each stage's viewer report: the report carries the
/// composite's hash, the viewer carries the composite.
struct KeepViewer(Arc<Mutex<Vec<ViewerReport>>>);

impl RenderFarm for KeepViewer {
    fn run_stage(
        &self,
        ctx: &StageContext<'_>,
        links: FabricLinks,
        collector: &Collector,
    ) -> Result<FarmRun, VisapultError> {
        let run = ThreadFarm.run_stage(ctx, links, collector)?;
        self.0.lock().unwrap().extend(run.viewer.clone());
        Ok(run)
    }
}

fn run(spec: ScenarioSpec) -> (CampaignReport, Vec<ViewerReport>) {
    let viewers = Arc::new(Mutex::new(Vec::new()));
    let report = Pipeline::builder(spec)
        .render_farm(Box::new(KeepViewer(Arc::clone(&viewers))))
        .build()
        .unwrap()
        .run()
        .unwrap();
    let viewers = std::mem::take(&mut *viewers.lock().unwrap());
    (report, viewers)
}

#[test]
fn dpss_backed_campaign_end_to_end() {
    let (report, viewers) = run(spec(4, 3, "serial", DPSS));
    let metrics = &report.stages[0].metrics;

    // Every PE delivered every frame to the viewer, cleanly.
    assert_eq!(metrics.frames_rendered, 3);
    assert_eq!(metrics.frames_received, 4 * 3);
    assert!(viewers[0].errors.is_empty(), "{:?}", viewers[0].errors);
    // The viewer actually drew something.
    assert!(viewers[0].final_image.coverage() > 0.01);
    // The amount of data crossing the viewer link is much smaller than the
    // raw data moved out of the cache (the O(n^3) -> O(n^2) reduction).
    assert!(report.data_reduction_factor() > 1.5);
    // The whole dataset was read exactly once.
    assert_eq!(metrics.bytes_loaded, 80 * 32 * 32 * 4 * 3);

    // The log covers both ends of the pipeline.
    assert!(report.log.with_tag(tags::BE_LOAD_END).count() >= 12);
    assert!(report.log.with_tag(tags::V_HEAVYPAYLOAD_END).count() >= 12);
    // The striped transport carried every frame and reported per-stripe
    // telemetry into the same log.
    let transport = &metrics.transport;
    assert_eq!(transport.frames, 4 * 3);
    assert_eq!(transport.stripe_count(), 4);
    assert!(transport.per_stripe.iter().all(|s| s.chunks > 0));
    assert_eq!(transport.bytes, metrics.wire_bytes);
    assert_eq!(report.log.with_tag(tags::TRANSPORT_STATS).count(), 1);
    assert_eq!(report.log.with_tag(tags::TRANSPORT_STRIPE).count(), 4);
}

#[test]
fn overlapped_and_serial_campaigns_produce_identical_images() {
    let (serial, _) = run(spec(2, 3, "serial", SYNTHETIC));
    let (overlapped, _) = run(spec(2, 3, "overlapped", SYNTHETIC));
    let (serial, overlapped) = (&serial.stages[0].metrics, &overlapped.stages[0].metrics);
    assert_eq!(serial.frames_received, overlapped.frames_received);
    assert_ne!(serial.image_hash, 0, "the real path rendered");
    assert_eq!(
        serial.image_hash, overlapped.image_hash,
        "pipelining must not change a single composited byte"
    );
}

#[test]
fn shaped_dpss_link_slows_loading_but_not_correctness() {
    // Shape each DPSS server stream to ~1 MB/s so the load phase visibly
    // dominates, the way a WAN-limited campaign behaves.
    let (fast, _) = run(spec(2, 2, "serial", DPSS));
    let (slow, _) = run(spec(2, 2, "serial", &format!("{DPSS}stream_rate_mbps = 8.0\n")));
    let (fast, slow) = (&fast.stages[0].metrics, &slow.stages[0].metrics);
    assert_eq!(fast.frames_received, slow.frames_received);
    assert!(
        slow.mean_load_time > fast.mean_load_time && slow.mean_load_time > 0.01,
        "shaping should slow the load phase (fast {:.4}s, slow {:.4}s)",
        fast.mean_load_time,
        slow.mean_load_time
    );
    assert_eq!(fast.image_hash, slow.image_hash);
}

#[test]
fn a_replayed_stage_hits_the_warm_cache_and_draws_the_same_pixels() {
    // One DPSS deployment and one block cache per scenario: the second stage
    // re-reads the timesteps the first one staged into the cache.
    let stages = "[cache]\ncapacity_blocks = 512\nshards = 4\n\n\
                  [[stages]]\nname = \"cold\"\nshare = 50.0\n\n\
                  [[stages]]\nname = \"warm\"\nshare = 50.0\n";
    let (report, _) = run(spec(2, 4, "serial", &format!("{DPSS}\n{stages}")));
    let (cold, warm) = (&report.stages[0].metrics, &report.stages[1].metrics);
    assert!(cold.cache.misses > 0, "cold stage fills the cache");
    // The 80×32×32 slabs straddle block boundaries, so adjacent PEs race
    // for the shared boundary block; single-flight turns the loser's
    // fetch into a hit even on the cold stage.
    assert!(cold.cache.hits < cold.cache.misses);
    assert_eq!(warm.cache.misses, 0, "warm stage must not refetch");
    assert_eq!(
        warm.cache.hits,
        cold.cache.hits + cold.cache.misses,
        "every access of the replay hits"
    );
    assert_eq!(report.log.with_tag(tags::DPSS_CACHE_STATS).count(), 2, "one per stage");
    // Same pixels either way: the cache is transparent.
    assert_eq!(cold.image_hash, warm.image_hash);
}

#[test]
fn netlogger_profile_covers_both_ends_and_renders_a_lifeline() {
    let (report, _) = run(spec(3, 2, "overlapped", SYNTHETIC));
    // Backend and viewer events for every (PE, frame).
    assert_eq!(report.log.with_tag(tags::BE_LOAD_END).count(), 6);
    assert_eq!(report.log.with_tag(tags::BE_RENDER_END).count(), 6);
    assert_eq!(report.log.with_tag(tags::V_HEAVYPAYLOAD_END).count(), 6);
    // The standard analysis reconstructs per-frame phases.
    let analysis = ProfileAnalysis::from_log(&report.log);
    assert_eq!(analysis.frames.len(), 2);
    assert!(analysis
        .frames
        .iter()
        .all(|f| f.load_time >= 0.0 && f.render_time > 0.0));
    // The NLV lifeline plot renders with data on the expected rows.
    let plot = LifelinePlot::new(&report.log, NlvOptions::default());
    let counts = plot.row_counts();
    let loads = counts.iter().find(|(t, _)| t == tags::BE_LOAD_END).unwrap();
    assert_eq!(loads.1, 6);
}

#[test]
fn single_pe_campaign_works() {
    let (report, viewers) = run(spec(1, 2, "overlapped", SYNTHETIC));
    assert_eq!(report.frames_received(), 2);
    assert!(viewers[0].final_image.coverage() > 0.0);
}
