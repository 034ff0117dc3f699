//! Public-API snapshot: the `visapult-core` root re-export list is pinned
//! here, so surface changes are deliberate and reviewed.
//!
//! The test parses the `pub use` statements of `visapult-core`'s `lib.rs`
//! and compares the re-exported leaf names against a checked-in snapshot.
//! If you add, remove or rename a root re-export, update `EXPECTED` in the
//! same commit — the diff review *is* the API review.

/// Every name re-exported at the `visapult_core` crate root, sorted.
const EXPECTED: &[&str] = &[
    "AsyncPlane",
    "CacheReport",
    "CacheSpec",
    "CampaignReport",
    "Clock",
    "ComputePlatform",
    "DataSource",
    "DpssDataSource",
    "ExecutionMode",
    "ExecutionPath",
    "Fabric",
    "FabricLinks",
    "FanoutPlane",
    "FarmRun",
    "FrameAssembler",
    "FrameChunk",
    "FramePayload",
    "FrameSegments",
    "HeavyPayload",
    "LightPayload",
    "ModelFarm",
    "ModeledFabric",
    "OverlapModel",
    "PathCapabilities",
    "PhaseMeans",
    "Pipeline",
    "PipelineBuilder",
    "PipelineConfig",
    "PlaneKind",
    "PlaneSession",
    "PlatformSpec",
    "QualityTier",
    "RealDataPath",
    "RealDpssEnv",
    "RejectReason",
    "RenderFarm",
    "ReplayPlane",
    "ResolvedTelemetry",
    "ScenarioSpec",
    "ServiceConfig",
    "ServicePlan",
    "ServicePlane",
    "ServiceReport",
    "ServiceRunReport",
    "ServiceStats",
    "ServiceTableSpec",
    "SessionArrivalSpec",
    "SessionBroker",
    "SessionDelivery",
    "SessionEvent",
    "SessionSpec",
    "SimCampaignConfig",
    "SimCampaignReport",
    "SimTransportModel",
    "StageArtifacts",
    "StageContext",
    "StageReport",
    "StageSpec",
    "StrategyBandwidth",
    "StripeReceiver",
    "StripeSender",
    "StripedFabric",
    "SyntheticSource",
    "TcpTuning",
    "TelemetryReport",
    "TelemetrySpec",
    "ThreadFarm",
    "TransportConfig",
    "TransportError",
    "TransportReport",
    "TransportSpec",
    "TransportStats",
    "Viewer",
    "ViewerError",
    "ViewerReport",
    "VirtualClock",
    "VisapultError",
    "VisualizationStrategy",
    "WallClock",
    "drain_frames",
    "plan_chunks",
    "run_scenario",
    "striped_link",
];

/// Extract the leaf names of every root-level `pub use` in a lib.rs source.
fn re_exported_names(lib_rs: &str) -> Vec<String> {
    // Strip comments so commented-out exports don't count.
    let mut src = String::new();
    for line in lib_rs.lines() {
        let code = match line.find("//") {
            Some(i) => &line[..i],
            None => line,
        };
        src.push_str(code);
        src.push('\n');
    }

    let mut names = Vec::new();
    let mut rest = src.as_str();
    while let Some(i) = rest.find("pub use ") {
        rest = &rest[i + "pub use ".len()..];
        let end = rest.find(';').expect("pub use terminates");
        let stmt = &rest[..end];
        rest = &rest[end + 1..];
        // `path::{A, B, C}` or `path::Leaf`.
        let items = match stmt.find('{') {
            Some(b) => stmt[b + 1..stmt.rfind('}').unwrap()].to_string(),
            None => stmt.rsplit("::").next().unwrap_or(stmt).trim().to_string(),
        };
        for item in items.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            // Handle `X as Y` renames: the public name is Y.
            let public = match item.split(" as ").nth(1) {
                Some(renamed) => renamed.trim(),
                None => item,
            };
            names.push(public.to_string());
        }
    }
    names.sort_unstable();
    names.dedup();
    names
}

#[test]
fn core_root_re_exports_are_pinned() {
    let lib_rs = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/crates/visapult-core/src/lib.rs"));
    let actual = re_exported_names(lib_rs);
    let expected: Vec<String> = EXPECTED.iter().map(|s| s.to_string()).collect();
    assert!(
        expected.windows(2).all(|w| w[0] < w[1]),
        "keep EXPECTED sorted and duplicate-free"
    );
    let added: Vec<&String> = actual.iter().filter(|n| !expected.contains(n)).collect();
    let removed: Vec<&String> = expected.iter().filter(|n| !actual.contains(n)).collect();
    assert!(
        added.is_empty() && removed.is_empty(),
        "visapult-core root surface changed.\n  added: {added:?}\n  removed: {removed:?}\n\
         If intentional, update EXPECTED in tests/api_surface.rs in the same commit."
    );
}

#[test]
fn pinned_symbols_resolve() {
    // A compile-time spot check that the snapshot isn't fiction: touch the
    // load-bearing names through the facade crate.
    fn object_safe(
        caps: &visapult::core::PathCapabilities,
    ) -> (&dyn visapult::core::Clock, &dyn visapult::core::Fabric) {
        (caps.clock.as_ref(), caps.fabric.as_ref())
    }
    let real = visapult::core::PathCapabilities::real();
    let (clock, _) = object_safe(&real);
    assert!(!clock.is_virtual());
    let virt = visapult::core::PathCapabilities::virtual_time();
    assert!(virt.clock.is_virtual());
    let _: fn(&visapult::core::ScenarioSpec) -> Result<visapult::core::CampaignReport, visapult::core::VisapultError> =
        visapult::core::run_scenario;
}
