//! The scenario engine's unit tests, spanning spec parsing, resolution,
//! execution on both paths, and fingerprint coverage.

use super::*;
use crate::campaign::sim::SimTransportModel;
use crate::config::ExecutionMode;
use crate::error::VisapultError;
use crate::service::QualityTier;
use crate::transport::TcpTuning;
use dpss::CacheStats;
use netlogger::tags;
use netsim::TestbedKind;

fn minimal_spec(path: ExecutionPath) -> ScenarioSpec {
    ScenarioSpec {
        scenario: ScenarioMeta {
            name: "unit".to_string(),
            description: None,
            seed: 11,
            path,
        },
        testbed: TestbedSpec {
            kind: TestbedKind::LanSmp,
            platform: None,
        },
        pipeline: PipelineSpec {
            pes: 2,
            timesteps: 2,
            execution: ExecutionMode::Serial,
            streams_per_pe: None,
        },
        dataset: None,
        render: None,
        real: None,
        sim: None,
        transport: None,
        cache: None,
        service: None,
        stages: None,
        telemetry: None,
    }
}

#[test]
fn spec_round_trips_through_toml() {
    let mut spec = minimal_spec(ExecutionPath::VirtualTime);
    spec.scenario.description = Some("round trip".to_string());
    spec.dataset = Some(DatasetSpec {
        dims: Some((48, 32, 32)),
        name: None,
    });
    spec.service = Some(ServiceTableSpec {
        max_sessions: Some(8),
        link_capacity_units: None,
        render_slots: Some(2),
        queue_depth: None,
        arrivals: Some(vec![SessionArrivalSpec {
            stage: "b".to_string(),
            sessions: 3,
            viewpoints: Some(2),
            tier: Some(QualityTier::Preview),
            tuning: Some(TcpTuning::Untuned),
            stripes: None,
            join_spread_percent: Some(25.0),
            dwell_frames: Some(1),
        }]),
        workers: None,
    });
    spec.stages = Some(vec![
        StageSpec {
            name: "a".to_string(),
            share: 50.0,
            execution: Some(ExecutionMode::Serial),
            stripes: None,
        },
        StageSpec {
            name: "b".to_string(),
            share: 50.0,
            execution: Some(ExecutionMode::Overlapped),
            stripes: None,
        },
    ]);
    let text = spec.to_toml_string().unwrap();
    let back = ScenarioSpec::from_toml_str(&text).unwrap();
    assert_eq!(back, spec, "TOML:\n{text}");
}

#[test]
fn kebab_case_enums_parse() {
    let doc = r#"
[scenario]
name = "kebab"
seed = 1
path = "virtual-time"

[testbed]
kind = "nton-cplant"

[pipeline]
pes = 4
timesteps = 3
execution = "overlapped"
"#;
    let spec = ScenarioSpec::from_toml_str(doc).unwrap();
    assert_eq!(spec.scenario.path, ExecutionPath::VirtualTime);
    assert_eq!(spec.testbed.kind, TestbedKind::NtonCplant);
    assert_eq!(spec.pipeline.execution, ExecutionMode::Overlapped);
}

#[test]
fn unknown_testbed_is_rejected() {
    let doc = r#"
[scenario]
name = "bad"
seed = 1
path = "virtual-time"

[testbed]
kind = "carrier-pigeon"

[pipeline]
pes = 4
timesteps = 3
execution = "serial"
"#;
    let err = ScenarioSpec::from_toml_str(doc).unwrap_err();
    assert!(err.to_string().contains("carrier-pigeon"), "{err}");
}

#[test]
fn zero_pes_is_rejected() {
    let mut spec = minimal_spec(ExecutionPath::VirtualTime);
    spec.pipeline.pes = 0;
    assert!(matches!(spec.resolve(), Err(VisapultError::Config(_))));
}

#[test]
fn out_of_range_efficiencies_are_rejected() {
    for eff in [0.0, -0.5, 1.5, f64::NAN] {
        let mut spec = minimal_spec(ExecutionPath::VirtualTime);
        spec.sim = Some(SimPathSpec {
            app_efficiency: Some(eff),
            wan_efficiency: None,
        });
        let err = spec.resolve().unwrap_err();
        assert!(err.to_string().contains("app_efficiency"), "eff {eff}: {err}");
    }
    let mut spec = minimal_spec(ExecutionPath::Real);
    spec.real = Some(RealPathSpec {
        use_dpss: None,
        stream_rate_mbps: Some(0.0),
        emulate_wan: None,
        viewer_image: None,
    });
    assert!(spec.resolve().unwrap_err().to_string().contains("stream_rate_mbps"));
}

#[test]
fn stage_shares_must_sum_to_100() {
    let mut spec = minimal_spec(ExecutionPath::VirtualTime);
    spec.pipeline.timesteps = 10;
    spec.stages = Some(vec![
        StageSpec {
            name: "a".to_string(),
            share: 60.0,
            execution: None,
            stripes: None,
        },
        StageSpec {
            name: "b".to_string(),
            share: 60.0,
            execution: None,
            stripes: None,
        },
    ]);
    let err = spec.resolve().unwrap_err();
    assert!(err.to_string().contains("sum to 100"), "{err}");
}

#[test]
fn stage_split_is_exact_with_last_stage_absorbing_drift() {
    let mut spec = minimal_spec(ExecutionPath::VirtualTime);
    spec.pipeline.timesteps = 7;
    spec.stages = Some(vec![
        StageSpec {
            name: "a".to_string(),
            share: 33.0,
            execution: None,
            stripes: None,
        },
        StageSpec {
            name: "b".to_string(),
            share: 33.0,
            execution: None,
            stripes: None,
        },
        StageSpec {
            name: "c".to_string(),
            share: 34.0,
            execution: None,
            stripes: None,
        },
    ]);
    let resolved = spec.resolve().unwrap();
    let steps: Vec<usize> = resolved.stages.iter().map(|s| s.timesteps).collect();
    assert_eq!(steps.iter().sum::<usize>(), 7);
    assert_eq!(steps, vec![2, 3, 2]);
}

#[test]
fn virtual_time_runs_are_bit_identical() {
    let spec = minimal_spec(ExecutionPath::VirtualTime);
    let a = run_scenario(&spec).unwrap();
    let b = run_scenario(&spec).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.replay_fingerprint(), b.replay_fingerprint());
    let c = run_scenario(&spec.clone().with_seed(99)).unwrap();
    assert_ne!(a.replay_fingerprint(), c.replay_fingerprint());
}

#[test]
fn real_and_virtual_paths_agree_on_shape() {
    let spec = minimal_spec(ExecutionPath::Real);
    let real = run_scenario(&spec).unwrap();
    let sim = run_scenario(&spec.clone().with_path(ExecutionPath::VirtualTime)).unwrap();
    assert_eq!(real.frames_received(), sim.frames_received());
    assert_eq!(real.stages.len(), sim.stages.len());
    assert_eq!(real.bytes_loaded(), sim.bytes_loaded());
    assert!(real.data_reduction_factor() > 1.0);
    // Both logs cover the same backend phases for the same frames.
    use netlogger::tags;
    for tag in [tags::BE_LOAD_END, tags::BE_RENDER_END] {
        assert_eq!(
            real.log.with_tag(tag).count(),
            sim.log.with_tag(tag).count(),
            "tag {tag}"
        );
    }
}

#[test]
fn staged_mix_merges_logs_on_one_axis() {
    let mut spec = minimal_spec(ExecutionPath::VirtualTime);
    spec.pipeline.timesteps = 4;
    spec.stages = Some(vec![
        StageSpec {
            name: "serial-probe".to_string(),
            share: 50.0,
            execution: Some(ExecutionMode::Serial),
            stripes: None,
        },
        StageSpec {
            name: "overlapped-sustained".to_string(),
            share: 50.0,
            execution: Some(ExecutionMode::Overlapped),
            stripes: None,
        },
    ]);
    let report = run_scenario(&spec).unwrap();
    assert_eq!(report.stages.len(), 2);
    assert_eq!(report.stages[0].mode, ExecutionMode::Serial);
    assert_eq!(report.stages[1].mode, ExecutionMode::Overlapped);
    // The merged log is monotone and spans both stages.
    let times: Vec<f64> = report.log.events().iter().map(|e| e.timestamp).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
    let stage0_end = report.stages[0].metrics.total_time;
    assert!(
        report.log.end_time() > stage0_end,
        "second stage events must land after the first"
    );
    assert!(report.to_table().contains("overlapped-sustained"));
}

fn cached_spec(path: ExecutionPath) -> ScenarioSpec {
    let mut spec = minimal_spec(path);
    // Block-aligned slabs: 64×64×32 floats = 8 blocks/timestep, 2 blocks
    // per slab at 4 PEs, so hit/miss counts are exact in both paths.
    spec.dataset = Some(DatasetSpec {
        dims: Some((64, 64, 32)),
        name: None,
    });
    spec.pipeline.pes = 4;
    spec.pipeline.timesteps = 6;
    spec.cache = Some(CacheSpec {
        capacity_blocks: Some(64),
        shards: Some(4),
    });
    spec.stages = Some(vec![
        StageSpec {
            name: "first-pass".to_string(),
            share: 50.0,
            execution: None,
            stripes: None,
        },
        StageSpec {
            name: "replay".to_string(),
            share: 50.0,
            execution: None,
            stripes: None,
        },
    ]);
    spec
}

#[test]
fn real_and_sim_report_identical_cache_telemetry() {
    let real = run_scenario(&cached_spec(ExecutionPath::Real)).unwrap();
    let sim = run_scenario(&cached_spec(ExecutionPath::VirtualTime)).unwrap();
    let (rc, sc) = (real.cache.unwrap(), sim.cache.unwrap());
    assert_eq!(rc, sc, "cache telemetry must match across paths");
    // Stage 1 is all misses (cold), stage 2 all hits (same frames replayed
    // against the persistent environment): 3 steps × 8 blocks each way.
    assert_eq!(rc.totals.misses, 24);
    assert_eq!(rc.totals.hits, 24);
    assert_eq!(rc.totals.evictions, 0);
    assert!(real.cache_hit_rate() > 0.49 && real.cache_hit_rate() < 0.51);
    for (r, s) in real.stages.iter().zip(&sim.stages) {
        assert_eq!(r.metrics.cache, s.metrics.cache, "stage {}", r.name);
    }
    // Both logs carry the per-stage cache summary events.
    assert_eq!(real.log.with_tag(tags::DPSS_CACHE_STATS).count(), 2);
    assert_eq!(sim.log.with_tag(tags::DPSS_CACHE_STATS).count(), 2);
}

#[test]
fn fingerprint_covers_cache_config_and_telemetry() {
    let base = run_scenario(&cached_spec(ExecutionPath::VirtualTime)).unwrap();
    // Same spec, same fingerprint.
    let again = run_scenario(&cached_spec(ExecutionPath::VirtualTime)).unwrap();
    assert_eq!(base.replay_fingerprint(), again.replay_fingerprint());
    // Shrinking the cache (evictions appear) changes the fingerprint.
    let mut small = cached_spec(ExecutionPath::VirtualTime);
    small.cache = Some(CacheSpec {
        capacity_blocks: Some(4),
        shards: Some(1),
    });
    let evicting = run_scenario(&small).unwrap();
    assert_ne!(base.replay_fingerprint(), evicting.replay_fingerprint());
    assert!(evicting.cache.unwrap().totals.evictions > 0);
    // Even a capacity change that leaves the counters identical is a
    // fingerprint change (the config itself is covered).
    let mut bigger = cached_spec(ExecutionPath::VirtualTime);
    bigger.cache = Some(CacheSpec {
        capacity_blocks: Some(128),
        shards: Some(4),
    });
    let bigger_report = run_scenario(&bigger).unwrap();
    assert_eq!(
        bigger_report.cache.unwrap().totals,
        base.cache.unwrap().totals,
        "64 blocks already hold the working set"
    );
    assert_ne!(base.replay_fingerprint(), bigger_report.replay_fingerprint());
}

#[test]
fn uncached_scenarios_report_no_cache_section() {
    let report = run_scenario(&minimal_spec(ExecutionPath::VirtualTime)).unwrap();
    assert!(report.cache.is_none());
    assert_eq!(report.cache_hit_rate(), 0.0);
    assert!(report.stages.iter().all(|s| s.metrics.cache == CacheStats::default()));
}

#[test]
fn invalid_cache_specs_are_rejected() {
    for (cap, shards) in [(Some(0), None), (None, Some(0))] {
        let mut spec = minimal_spec(ExecutionPath::VirtualTime);
        spec.cache = Some(CacheSpec {
            capacity_blocks: cap,
            shards,
        });
        let err = spec.resolve().unwrap_err();
        assert!(err.to_string().contains("cache"), "{err}");
    }
    // A cache on a synthetic (no-DPSS) data path would silently never
    // take effect; reject it up front.
    let mut spec = minimal_spec(ExecutionPath::Real);
    spec.real = Some(RealPathSpec {
        use_dpss: Some(false),
        stream_rate_mbps: None,
        emulate_wan: None,
        viewer_image: None,
    });
    spec.cache = Some(CacheSpec {
        capacity_blocks: None,
        shards: None,
    });
    let err = spec.resolve().unwrap_err();
    assert!(err.to_string().contains("use_dpss"), "{err}");
}

#[test]
fn transport_table_parses_resolves_and_paces() {
    let doc = r#"
[scenario]
name = "striped"
seed = 3
path = "real"

[testbed]
kind = "esnet-anl-smp"

[pipeline]
pes = 2
timesteps = 2
execution = "serial"

[transport]
stripes = 8
chunk_kb = 4
queue_depth = 16
tcp = "untuned"
emulate_wan = true
"#;
    let spec = ScenarioSpec::from_toml_str(doc).unwrap();
    let resolved = spec.resolve().unwrap();
    assert_eq!(resolved.transport.stripes, 8);
    assert_eq!(resolved.transport.chunk_bytes, 4 * 1024);
    assert_eq!(resolved.transport.queue_depth, 16);
    assert_eq!(resolved.transport.tuning, TcpTuning::Untuned);
    assert!(resolved.transport_explicit);
    let config = resolved.stage_transport_config(&resolved.stages[0]);
    assert!(config.is_paced(), "emulate_wan derives a pacing rate");
    // The pacing rate comes from the striped TCP session model: untuned
    // single-stripe is an order of magnitude slower than 8 stripes.
    let single = resolved.viewer_tcp_model(1).steady_throughput().mbps();
    let striped = resolved.viewer_tcp_model(8).steady_throughput().mbps();
    assert!(
        striped > 5.0 * single,
        "striping must lift the ceiling: {single} vs {striped}"
    );
    // The sim path inherits the same model.
    let sim = resolved.stage_sim_config(&resolved.stages[0], 0);
    assert_eq!(
        sim.transport,
        Some(SimTransportModel {
            stripes: 8,
            tuning: TcpTuning::Untuned
        })
    );
}

#[test]
fn default_transport_is_four_unshaped_wan_tuned_stripes() {
    let resolved = minimal_spec(ExecutionPath::Real).resolve().unwrap();
    assert_eq!(resolved.transport.stripes, 4);
    assert!(!resolved.transport_explicit);
    let config = resolved.stage_transport_config(&resolved.stages[0]);
    assert!(!config.is_paced());
    // Without an explicit table the sim send phase keeps the calibrated
    // legacy model.
    assert!(resolved.stage_sim_config(&resolved.stages[0], 0).transport.is_none());
}

#[test]
fn invalid_transport_specs_are_rejected() {
    for (stripes, chunk_kb, queue_depth) in [
        (Some(0u32), None, None),
        (Some(65), None, None),
        (None, Some(0usize), None),
        (None, None, Some(0usize)),
    ] {
        let mut spec = minimal_spec(ExecutionPath::VirtualTime);
        spec.transport = Some(TransportSpec {
            stripes,
            chunk_kb,
            queue_depth,
            tcp: None,
            emulate_wan: None,
        });
        let err = spec.resolve().unwrap_err();
        assert!(err.to_string().contains("transport"), "{err}");
    }
    // A stage asking for zero stripes is rejected too.
    let mut spec = minimal_spec(ExecutionPath::VirtualTime);
    spec.stages = Some(vec![StageSpec {
        name: "zero".to_string(),
        share: 100.0,
        execution: None,
        stripes: Some(0),
    }]);
    assert!(spec.resolve().unwrap_err().to_string().contains("stripes"));
}

fn striped_spec(path: ExecutionPath) -> ScenarioSpec {
    let mut spec = minimal_spec(path);
    spec.pipeline.timesteps = 4;
    spec.transport = Some(TransportSpec {
        stripes: Some(8),
        chunk_kb: Some(1),
        queue_depth: None,
        tcp: None,
        emulate_wan: None,
    });
    spec.stages = Some(vec![
        StageSpec {
            name: "stripe-1".to_string(),
            share: 50.0,
            execution: None,
            stripes: Some(1),
        },
        StageSpec {
            name: "stripe-8".to_string(),
            share: 50.0,
            execution: None,
            stripes: None, // inherits the table's 8
        },
    ]);
    spec
}

#[test]
fn stage_stripe_overrides_sweep_the_link_on_both_paths() {
    let real = run_scenario(&striped_spec(ExecutionPath::Real)).unwrap();
    let sim = run_scenario(&striped_spec(ExecutionPath::VirtualTime)).unwrap();
    for report in [&real, &sim] {
        assert_eq!(report.stages[0].metrics.transport.stripe_count(), 1);
        assert_eq!(report.stages[1].metrics.transport.stripe_count(), 8);
        // Every stripe of the 8-stripe stage carried chunks (1 KB chunks
        // against a 16 KB texture guarantee > 8 chunks per frame).
        assert!(report.stages[1]
            .metrics
            .transport
            .per_stripe
            .iter()
            .all(|s| s.chunks > 0));
        assert_eq!(report.transport.config.stripes, 8);
        assert_eq!(
            report.transport.totals.frames,
            report.stages.iter().map(|s| s.metrics.transport.frames).sum::<u64>()
        );
        // Both logs carry per-link and per-stripe telemetry events.
        assert_eq!(report.log.with_tag(tags::TRANSPORT_STATS).count(), 2);
        assert_eq!(report.log.with_tag(tags::TRANSPORT_STRIPE).count(), 1 + 8);
    }
    // Structurally identical per-stage telemetry across the paths.
    for (r, s) in real.stages.iter().zip(&sim.stages) {
        assert_eq!(
            r.metrics.transport.stripe_count(),
            s.metrics.transport.stripe_count(),
            "stage {}",
            r.name
        );
        assert_eq!(r.metrics.transport.frames, s.metrics.transport.frames);
    }
}

#[test]
fn fingerprint_covers_transport_config_and_striping() {
    for path in ExecutionPath::ALL {
        let fp = |s: &ScenarioSpec| run_scenario(s).unwrap().replay_fingerprint();
        let base = striped_spec(path);
        assert_eq!(fp(&base), fp(&base), "{} fingerprint unstable", path.label());
        // A different stage stripe count restripes the same bytes.
        let mut restriped = base.clone();
        restriped.stages.as_mut().unwrap()[0].stripes = Some(2);
        assert_ne!(
            fp(&base),
            fp(&restriped),
            "{} fingerprint misses striping",
            path.label()
        );
        // A queue-depth change moves no bytes and changes no counters —
        // the config itself is covered.
        let mut deeper = base.clone();
        deeper.transport.as_mut().unwrap().queue_depth = Some(64);
        assert_ne!(fp(&base), fp(&deeper), "{} fingerprint misses the config", path.label());
    }
}

#[test]
fn service_table_parses_and_resolves_with_session_schedules() {
    let doc = r#"
[scenario]
name = "svc"
seed = 5
path = "real"

[testbed]
kind = "esnet-anl-smp"

[pipeline]
pes = 2
timesteps = 8
execution = "serial"

[service]
max_sessions = 16
link_capacity_units = 32
render_slots = 2
queue_depth = 8

[[service.arrivals]]
stage = "crowd"
sessions = 4
viewpoints = 2
tier = "preview"
join_spread_percent = 100.0
dwell_frames = 2

[[stages]]
name = "warmup"
share = 50.0

[[stages]]
name = "crowd"
share = 50.0
"#;
    let spec = ScenarioSpec::from_toml_str(doc).unwrap();
    let resolved = spec.resolve().unwrap();
    let svc = resolved.service.as_ref().expect("service resolves");
    assert_eq!(svc.config.max_sessions, 16);
    assert_eq!(svc.config.link_capacity_units, 32);
    assert_eq!(svc.config.render_slots, 2);
    assert!(svc.config.farm_egress_mbps.unwrap() > 0.0);
    assert!(svc.by_stage[0].is_empty(), "no arrivals in the warmup stage");
    let crowd = &svc.by_stage[1];
    assert_eq!(crowd.len(), 4);
    // Joins staggered across the 4-frame stage, viewpoints round-robin,
    // two-frame dwell, per-session pacing from the testbed model.
    assert_eq!(crowd.iter().map(|s| s.join_frame).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    assert_eq!(crowd.iter().map(|s| s.viewpoint).collect::<Vec<_>>(), vec![0, 1, 0, 1]);
    assert_eq!(crowd[0].leave_frame, Some(2));
    assert_eq!(crowd[3].leave_frame, None, "join 3 + dwell 2 runs past the stage");
    assert!(crowd.iter().all(|s| s.tier == QualityTier::Preview));
    assert!(crowd.iter().all(|s| s.pace_rate_mbps.unwrap() > 0.0));
    // The stage's service plan carries the schedule; the warmup stage has
    // an empty schedule but the same capacity.
    let plan = resolved.stage_service_plan(1).expect("service plan");
    assert_eq!(plan.sessions.len(), 4);
    assert_eq!(plan.config, svc.config);
}

#[test]
fn invalid_service_specs_are_rejected() {
    let base = || {
        let mut spec = minimal_spec(ExecutionPath::VirtualTime);
        spec.service = Some(ServiceTableSpec {
            max_sessions: None,
            link_capacity_units: None,
            render_slots: None,
            queue_depth: None,
            arrivals: None,
            workers: None,
        });
        spec
    };
    // Zero capacities.
    let mut spec = base();
    spec.service.as_mut().unwrap().render_slots = Some(0);
    assert!(spec.resolve().unwrap_err().to_string().contains("service"));
    // Unknown stage name.
    let mut spec = base();
    spec.service.as_mut().unwrap().arrivals = Some(vec![SessionArrivalSpec {
        stage: "nonexistent".to_string(),
        sessions: 1,
        viewpoints: None,
        tier: None,
        tuning: None,
        stripes: None,
        join_spread_percent: None,
        dwell_frames: None,
    }]);
    assert!(spec.resolve().unwrap_err().to_string().contains("unknown stage"));
    // Zero sessions, bad spread, zero dwell.
    for mutate in [
        (|a: &mut SessionArrivalSpec| a.sessions = 0) as fn(&mut SessionArrivalSpec),
        |a| a.join_spread_percent = Some(150.0),
        |a| a.dwell_frames = Some(0),
    ] {
        let mut spec = base();
        let mut arrival = SessionArrivalSpec {
            stage: "full".to_string(),
            sessions: 1,
            viewpoints: None,
            tier: None,
            tuning: None,
            stripes: None,
            join_spread_percent: None,
            dwell_frames: None,
        };
        mutate(&mut arrival);
        spec.service.as_mut().unwrap().arrivals = Some(vec![arrival]);
        assert!(spec.resolve().is_err());
    }
}

#[test]
fn a_caller_supplied_farm_that_delegates_to_the_thread_farm_matches_the_default_builder() {
    use crate::pipeline::{FabricLinks, FarmRun, Pipeline, RenderFarm, StageContext, ThreadFarm};

    // What a timing decorator does: wrap `ThreadFarm`.
    struct Delegating;
    impl RenderFarm for Delegating {
        fn run_stage(
            &self,
            ctx: &StageContext<'_>,
            links: FabricLinks,
            collector: &netlogger::Collector,
        ) -> Result<FarmRun, VisapultError> {
            ThreadFarm.run_stage(ctx, links, collector)
        }
    }

    let spec = minimal_spec(ExecutionPath::Real);
    let default = run_scenario(&spec).unwrap();
    let swapped = Pipeline::builder(spec)
        .render_farm(Box::new(Delegating))
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_ne!(default.stages[0].metrics.image_hash, 0, "the real path rendered");
    assert_eq!(
        default.stages[0].metrics.image_hash,
        swapped.stages[0].metrics.image_hash
    );
    assert_eq!(default.replay_fingerprint(), swapped.replay_fingerprint());
}

fn service_spec(path: ExecutionPath) -> ScenarioSpec {
    let mut spec = minimal_spec(path);
    spec.pipeline.timesteps = 4;
    spec.service = Some(ServiceTableSpec {
        max_sessions: Some(8),
        // 5 units: two previews (1 each) fit; a late interactive (4)
        // forces one eviction — churn on both paths.
        link_capacity_units: Some(5),
        render_slots: Some(2),
        queue_depth: Some(64),
        arrivals: Some(vec![
            SessionArrivalSpec {
                stage: "full".to_string(),
                sessions: 2,
                viewpoints: Some(2),
                tier: Some(QualityTier::Preview),
                tuning: None,
                stripes: None,
                join_spread_percent: None,
                dwell_frames: None,
            },
            SessionArrivalSpec {
                stage: "full".to_string(),
                sessions: 1,
                viewpoints: None,
                tier: Some(QualityTier::Interactive),
                tuning: None,
                stripes: None,
                join_spread_percent: Some(100.0),
                dwell_frames: None,
            },
        ]),
        workers: None,
    });
    spec
}

#[test]
fn service_lifecycle_telemetry_is_identical_across_paths() {
    let real = run_scenario(&service_spec(ExecutionPath::Real)).unwrap();
    let sim = run_scenario(&service_spec(ExecutionPath::VirtualTime)).unwrap();
    for report in [&real, &sim] {
        let s = &report.service.as_ref().unwrap().totals;
        assert_eq!(s.sessions_offered, 3);
        assert_eq!(s.sessions_admitted, 3);
        assert_eq!(s.sessions_evicted, 1, "the interactive arrival evicts a preview");
        assert!(s.renders_performed < s.render_requests, "viewpoints are shared");
        // Lifecycle events land in the log under the NL.service tags.
        assert_eq!(report.log.with_tag(tags::SERVICE_JOIN).count(), 3);
        assert_eq!(report.log.with_tag(tags::SERVICE_EVICT).count(), 1);
        assert_eq!(report.log.with_tag(tags::SERVICE_STATS).count(), 1);
    }
    // The deterministic lifecycle half matches across paths exactly (the
    // fan-out byte counters differ: real geometry vs modeled allowance).
    let (r, s) = (
        &real.service.as_ref().unwrap().totals,
        &sim.service.as_ref().unwrap().totals,
    );
    assert_eq!(
        (r.sessions_admitted, r.sessions_rejected, r.sessions_evicted),
        (s.sessions_admitted, s.sessions_rejected, s.sessions_evicted)
    );
    assert_eq!(
        (r.render_requests, r.renders_performed, r.peak_live_sessions),
        (s.render_requests, s.renders_performed, s.peak_live_sessions)
    );
    assert_eq!(r.flow_limited_sessions, s.flow_limited_sessions);
    for (rs, ss) in real.stages.iter().zip(&sim.stages) {
        assert_eq!(
            rs.metrics.service.render_requests, ss.metrics.service.render_requests,
            "stage {}",
            rs.name
        );
    }
}

#[test]
fn fingerprint_covers_service_config_and_lifecycle() {
    for path in ExecutionPath::ALL {
        let fp = |s: &ScenarioSpec| run_scenario(s).unwrap().replay_fingerprint();
        let base = service_spec(path);
        assert_eq!(fp(&base), fp(&base), "{} fingerprint unstable", path.label());
        // More capacity: the eviction disappears, the fingerprint moves.
        let mut roomy = base.clone();
        roomy.service.as_mut().unwrap().link_capacity_units = Some(64);
        assert_ne!(fp(&base), fp(&roomy), "{} fingerprint misses admission", path.label());
        // A queue-depth change moves no session and changes no counter —
        // the capacity config itself is covered.
        let mut deeper = base.clone();
        deeper.service.as_mut().unwrap().queue_depth = Some(128);
        assert_ne!(fp(&base), fp(&deeper), "{} fingerprint misses the config", path.label());
        // Dropping the service table entirely is a different campaign.
        let mut none = base.clone();
        none.service = None;
        assert_ne!(fp(&base), fp(&none));
    }
}

#[test]
fn service_workers_knob_parses_and_validates() {
    let doc = r#"
[scenario]
name = "svc-async"
seed = 5
path = "real"

[testbed]
kind = "esnet-anl-smp"

[pipeline]
pes = 2
timesteps = 4
execution = "serial"

[service]
max_sessions = 4
# The retired plane selector: files that still carry it must keep loading.
plane = "async"
workers = 3

[[stages]]
name = "full"
share = 100.0
"#;
    let spec = ScenarioSpec::from_toml_str(doc).unwrap();
    let svc_table = spec.service.as_ref().unwrap();
    assert_eq!(svc_table.workers, Some(3));
    let resolved = spec.resolve().unwrap();
    let svc = resolved.service.as_ref().unwrap();
    assert_eq!(svc.workers, Some(3));
    let plan = resolved.stage_service_plan(0).expect("service plan");
    assert_eq!(plan.workers, Some(3));
    // A zero pool is a config error.
    let mut zero = spec.clone();
    zero.service.as_mut().unwrap().workers = Some(0);
    let err = zero.resolve().unwrap_err().to_string();
    assert!(err.contains("positive"), "got: {err}");
}

#[test]
fn worker_pool_size_moves_neither_fingerprint_nor_deterministic_stats() {
    // The workers knob sizes the plane's pool; it is scheduling only.  Same
    // spec, same seed, same fingerprint, same deterministic stats — on the
    // real path where the plane actually runs, and on the virtual path where
    // the replay ignores it.
    for path in ExecutionPath::ALL {
        let default_pool = run_scenario(&service_spec(path)).unwrap();
        let mut spec = service_spec(path);
        spec.service.as_mut().unwrap().workers = Some(2);
        let two_workers = run_scenario(&spec).unwrap();
        assert_eq!(
            default_pool.replay_fingerprint(),
            two_workers.replay_fingerprint(),
            "{} workers knob moved the fingerprint",
            path.label()
        );
        let (t, a) = (
            &default_pool.service.as_ref().unwrap().totals,
            &two_workers.service.as_ref().unwrap().totals,
        );
        assert_eq!(
            (
                t.sessions_offered,
                t.sessions_admitted,
                t.sessions_rejected,
                t.sessions_evicted
            ),
            (
                a.sessions_offered,
                a.sessions_admitted,
                a.sessions_rejected,
                a.sessions_evicted
            ),
            "{} lifecycle drifted across pool sizes",
            path.label()
        );
        assert_eq!(
            (
                t.render_requests,
                t.renders_performed,
                t.peak_live_sessions,
                t.flow_limited_sessions
            ),
            (
                a.render_requests,
                a.renders_performed,
                a.peak_live_sessions,
                a.flow_limited_sessions
            ),
            "{} shared-render accounting drifted across pool sizes",
            path.label()
        );
    }
}

#[test]
fn bundled_scenarios_parse_and_resolve() {
    for name in ScenarioSpec::bundled_names() {
        let spec = ScenarioSpec::bundled(name).unwrap();
        let resolved = spec.resolve().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!resolved.stages.is_empty(), "{name}");
    }
    assert!(ScenarioSpec::bundled("missing").is_err());
}

#[test]
fn a_paper_scenario_runs_the_model_the_figure_bins_read() {
    // `run_scenario` on a paper-scale spec and `paper_sim_config(..).model()`
    // are one model, and it keeps §4.3's L ≈ 15 s and R ≈ 12 s on the E4500.
    let spec = ScenarioSpec::paper_virtual(TestbedKind::LanSmp, 8, 10, Vec::new());
    let report = run_scenario(&spec).unwrap();
    let m = &report.stages[0].metrics;
    let config = ScenarioSpec::paper_sim_config(TestbedKind::LanSmp, 8, 10, ExecutionMode::Serial).unwrap();
    let model = config.model().unwrap();
    assert_eq!(
        (m.total_time, m.mean_load_time, m.mean_render_time, m.mean_send_time),
        (
            model.total_time,
            model.mean_load_time,
            model.mean_render_time,
            model.mean_send_time
        )
    );
    // The paper's dataset: 160 MB a timestep, ≈21 MB per PE over 8 PEs.
    assert!((config.pipeline.bytes_per_pe_per_step() as f64 / 1e6 - 20.97).abs() < 0.1);
    assert_eq!(config.pipeline.cells_per_pe(), 640 * 256 * 256 / 8);
    assert!(
        m.mean_load_time > 13.0 && m.mean_load_time < 17.0,
        "L {}",
        m.mean_load_time
    );
    assert!(
        m.mean_render_time > 10.5 && m.mean_render_time < 13.5,
        "R {}",
        m.mean_render_time
    );
}
