//! Integration tests of the declarative scenario engine: every bundled TOML
//! scenario must execute on both execution paths, deterministically.

use visapult::core::{run_scenario, ExecutionPath, ScenarioSpec};

/// Load every spec from the `scenarios/` directory on disk (the same files
/// compiled in via `ScenarioSpec::bundled`).
fn scenario_files() -> Vec<(String, ScenarioSpec)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let mut specs = Vec::new();
    for entry in std::fs::read_dir(dir).expect("scenarios/ exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) == Some("toml") {
            let name = path.file_stem().unwrap().to_string_lossy().to_string();
            specs.push((
                name.clone(),
                ScenarioSpec::load(&path).unwrap_or_else(|e| panic!("{name}: {e}")),
            ));
        }
    }
    specs.sort_by(|a, b| a.0.cmp(&b.0));
    specs
}

#[test]
fn the_six_bundled_scenarios_are_on_disk_and_compiled_in() {
    let files = scenario_files();
    assert_eq!(files.len(), 6, "expected exactly the 6 bundled scenarios");
    let mut bundled = ScenarioSpec::bundled_names();
    bundled.sort_unstable();
    let from_disk: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(from_disk, bundled);
    // Compiled-in copies match the files on disk.
    for (name, spec) in &files {
        assert_eq!(
            &ScenarioSpec::bundled(name).unwrap(),
            spec,
            "{name} drifted from scenarios/{name}.toml"
        );
    }
}

#[test]
fn every_bundled_scenario_runs_on_both_paths_with_identical_same_seed_reports() {
    for (name, spec) in scenario_files() {
        for path in ExecutionPath::ALL {
            let spec = spec.clone().with_path(path);
            let first = run_scenario(&spec).unwrap_or_else(|e| panic!("{name} [{}]: {e}", path.label()));
            let second = run_scenario(&spec).unwrap_or_else(|e| panic!("{name} [{}]: {e}", path.label()));

            // Same seed, same spec => same deterministic content.
            assert_eq!(
                first.replay_fingerprint(),
                second.replay_fingerprint(),
                "{name} [{}] is not replay-deterministic",
                path.label()
            );
            // Virtual time is bit-identical down to every event timestamp.
            if path == ExecutionPath::VirtualTime {
                assert_eq!(first, second, "{name} virtual-time replay diverged");
            }
            // Sanity: the pipeline actually ran.
            let expected_frames = spec.pipeline.timesteps * spec.pipeline.pes;
            assert_eq!(first.frames_received(), expected_frames, "{name} [{}]", path.label());
            assert!(first.total_time() > 0.0);
            assert!(!first.log.is_empty());
        }
    }
}

#[test]
fn real_and_virtual_reports_for_one_scenario_are_structurally_interchangeable() {
    let spec = ScenarioSpec::bundled("combustion_corridor_oc12").unwrap();
    let real = run_scenario(&spec.clone().with_path(ExecutionPath::Real)).unwrap();
    let sim = run_scenario(&spec.with_path(ExecutionPath::VirtualTime)).unwrap();

    // Same staged structure from the same spec.
    assert_eq!(real.stages.len(), sim.stages.len());
    for (r, s) in real.stages.iter().zip(&sim.stages) {
        assert_eq!(r.name, s.name);
        assert_eq!(r.mode, s.mode);
        assert_eq!(r.timesteps, s.timesteps);
        assert_eq!(r.pes, s.pes);
        assert_eq!(r.metrics.frames_received, s.metrics.frames_received);
        assert_eq!(r.metrics.bytes_loaded, s.metrics.bytes_loaded);
    }
    // The real path produced pixels; the virtual path produced a schedule.
    assert!(real.stages.iter().all(|s| s.metrics.image_hash != 0));
    assert!(sim.stages.iter().all(|s| s.metrics.image_hash == 0));
    // Both produce analyzable logs with the same backend coverage.
    use visapult::netlogger::tags;
    assert_eq!(
        real.log.with_tag(tags::BE_LOAD_END).count(),
        sim.log.with_tag(tags::BE_LOAD_END).count()
    );
}

#[test]
fn cache_stress_reports_identical_nonzero_hit_rates_on_both_paths() {
    let spec = ScenarioSpec::bundled("cache_stress").unwrap();
    let real = run_scenario(&spec.clone().with_path(ExecutionPath::Real)).unwrap();
    let sim = run_scenario(&spec.clone().with_path(ExecutionPath::VirtualTime)).unwrap();

    // The cold-fill stage misses, the two playback stages hit: a strictly
    // positive hit rate, identical between the live sharded cache and the
    // virtual-time replay of the same block access sequence.
    let (rc, sc) = (real.cache.expect("real cache"), sim.cache.expect("sim cache"));
    assert!(real.cache_hit_rate() > 0.0, "playback must hit the cache");
    assert_eq!(rc, sc, "real and sim cache telemetry diverged");
    assert_eq!(rc.totals.misses, 24, "cold-fill pulls 3 steps x 8 blocks");
    assert_eq!(rc.totals.hits, 48, "two playback passes re-read them");
    assert!((real.cache_hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    for (r, s) in real.stages.iter().zip(&sim.stages) {
        assert_eq!(r.metrics.cache, s.metrics.cache, "stage {}", r.name);
    }

    // The cache telemetry is covered by each path's replay fingerprint:
    // rerunning reproduces it, and changing only the cache capacity (which
    // leaves every frame count untouched) changes it.
    for path in ExecutionPath::ALL {
        let fp = |s: &ScenarioSpec| run_scenario(s).unwrap().replay_fingerprint();
        let base = spec.clone().with_path(path);
        assert_eq!(fp(&base), fp(&base), "{} fingerprint unstable", path.label());
        let mut resized = base.clone();
        resized.cache.as_mut().unwrap().capacity_blocks = Some(32);
        assert_ne!(
            fp(&base),
            fp(&resized),
            "{} fingerprint misses cache config",
            path.label()
        );
    }
}

#[test]
fn scenario_seed_changes_the_replay_fingerprint() {
    let spec = ScenarioSpec::bundled("quickstart_lan")
        .unwrap()
        .with_path(ExecutionPath::VirtualTime);
    let a = run_scenario(&spec).unwrap();
    let b = run_scenario(&spec.clone().with_seed(spec.scenario.seed + 1)).unwrap();
    assert_ne!(a.replay_fingerprint(), b.replay_fingerprint());
}

#[test]
fn spec_toml_round_trip_preserves_bundled_scenarios() {
    for (name, spec) in scenario_files() {
        let text = spec.to_toml_string().unwrap();
        let back = ScenarioSpec::from_toml_str(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(back, spec, "{name} did not round-trip:\n{text}");
    }
}

/// Every key path a `Value` tree sets, table arrays flattened
/// (`stages.share`, not `stages.0.share`).
fn key_paths(value: &serde::Value, prefix: &str, out: &mut std::collections::BTreeSet<String>) {
    use serde::Value;
    match value {
        Value::Null => {}
        Value::Map(entries) => {
            for (key, v) in entries {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                key_paths(v, &path, out);
            }
        }
        Value::Seq(items) if items.iter().any(|i| matches!(i, Value::Map(_))) => {
            for item in items {
                key_paths(item, prefix, out);
            }
        }
        _ => {
            out.insert(prefix.to_string());
        }
    }
}

/// Knobs nothing under `scenarios/` or the ledger's `workloads/` sets, each
/// with the one caller that keeps it alive.  A knob with no traffic and no
/// entry here fails the census below; so does an entry that gained traffic.
const DRIVEN_ONLY_BY: [(&str, &str); 3] = [
    (
        "real.stream_rate_mbps",
        "tests/end_to_end.rs::shaped_dpss_link_slows_loading_but_not_correctness",
    ),
    (
        "service.arrivals.tuning",
        "tests/service.rs::service_layer_leaves_the_primary_composite_untouched",
    ),
    (
        "service.arrivals.stripes",
        "tests/service.rs::service_layer_leaves_the_primary_composite_untouched",
    ),
];

/// Keys a scenario or workload file spells out that no spec knob reads, each
/// with why it may stay.  A key the spec does not know is silently ignored
/// when the file loads, so a stray one runs as if it were absent; any key
/// with no knob and no entry here fails the census below, and so does an
/// entry that became a knob or left every file.
const IGNORED_KEYS: [(&str, &str); 1] = [(
    "service.plane",
    "crates/visapult-bench/src/bin/ledger/workloads/exhibit_floor.toml, frozen with the benchmark: \
     drop it with the benchmark's next revision",
)];

#[test]
fn every_spec_knob_has_traffic_or_a_named_driver() {
    use serde::Serialize;
    use std::collections::BTreeSet;
    use visapult::core::campaign::scenario::{
        CacheSpec, DatasetSpec, PipelineSpec, PlatformSpec, RealPathSpec, RenderSpec, ScenarioMeta, ServiceTableSpec,
        SessionArrivalSpec, SimPathSpec, StageSpec, TelemetrySpec, TestbedSpec, TransportSpec,
    };
    use visapult::core::{ExecutionMode, QualityTier, TcpTuning};
    use visapult::netsim::TestbedKind;

    // Every settable value, set.  No `..` anywhere: a new field does not
    // compile until it is listed here, and then it needs traffic below.
    let everything = ScenarioSpec {
        scenario: ScenarioMeta {
            name: "census".to_string(),
            description: Some("every knob set".to_string()),
            seed: 1,
            path: ExecutionPath::VirtualTime,
        },
        testbed: TestbedSpec {
            kind: TestbedKind::LanSmp,
            platform: Some(PlatformSpec::E4500),
        },
        pipeline: PipelineSpec {
            pes: 2,
            timesteps: 2,
            execution: ExecutionMode::Serial,
            streams_per_pe: Some(4),
        },
        dataset: Some(DatasetSpec {
            dims: Some((32, 32, 32)),
            name: Some("census".to_string()),
        }),
        render: Some(RenderSpec { image: Some((64, 64)) }),
        real: Some(RealPathSpec {
            use_dpss: Some(true),
            stream_rate_mbps: Some(100.0),
            emulate_wan: Some(false),
            viewer_image: Some((192, 192)),
        }),
        sim: Some(SimPathSpec {
            app_efficiency: Some(1.0),
            wan_efficiency: Some(0.75),
        }),
        transport: Some(TransportSpec {
            stripes: Some(4),
            chunk_kb: Some(8),
            queue_depth: Some(32),
            tcp: Some(TcpTuning::WanTuned),
            emulate_wan: Some(false),
        }),
        cache: Some(CacheSpec {
            capacity_blocks: Some(64),
            shards: Some(2),
        }),
        service: Some(ServiceTableSpec {
            max_sessions: Some(8),
            link_capacity_units: Some(64),
            render_slots: Some(2),
            queue_depth: Some(16),
            workers: Some(2),
            arrivals: Some(vec![SessionArrivalSpec {
                stage: "full".to_string(),
                sessions: 2,
                viewpoints: Some(1),
                tier: Some(QualityTier::Standard),
                tuning: Some(TcpTuning::WanTuned),
                stripes: Some(2),
                join_spread_percent: Some(0.0),
                dwell_frames: Some(1),
            }]),
        }),
        stages: Some(vec![StageSpec {
            name: "full".to_string(),
            share: 100.0,
            execution: Some(ExecutionMode::Serial),
            stripes: Some(2),
        }]),
        telemetry: Some(TelemetrySpec {
            enable: Some(true),
            sample_every: Some(1),
            snapshot_frames: Some(0),
        }),
    };
    everything.resolve().expect("the census spec is a valid scenario");
    let mut knobs = BTreeSet::new();
    key_paths(&everything.serialize(), "", &mut knobs);

    // What actually runs: the bundled scenarios and the benchmark's
    // workloads, as written (parsed as documents, so a key counts only if a
    // file spells it out).
    let mut traffic = BTreeSet::new();
    let root = env!("CARGO_MANIFEST_DIR");
    for dir in ["scenarios", "crates/visapult-bench/src/bin/ledger/workloads"] {
        let mut files = 0;
        for entry in std::fs::read_dir(format!("{root}/{dir}")).unwrap_or_else(|e| panic!("{dir}: {e}")) {
            let path = entry.unwrap().path();
            if path.extension().and_then(|e| e.to_str()) != Some("toml") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let doc = toml::parse_document(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            key_paths(&doc, "", &mut traffic);
            files += 1;
        }
        assert!(files > 0, "{dir} holds no .toml file");
    }

    let excused: BTreeSet<String> = DRIVEN_ONLY_BY.iter().map(|(k, _)| k.to_string()).collect();
    let idle: Vec<&String> = knobs.difference(&traffic).filter(|k| !excused.contains(*k)).collect();
    assert!(
        idle.is_empty(),
        "no scenario or workload sets {idle:?}: give each traffic, delete it, or name its one driver in DRIVEN_ONLY_BY"
    );
    let stale: Vec<&String> = excused
        .iter()
        .filter(|k| traffic.contains(*k) || !knobs.contains(*k))
        .collect();
    assert!(
        stale.is_empty(),
        "DRIVEN_ONLY_BY entries {stale:?} now have traffic (or no longer exist): drop them"
    );

    // The other direction: every key a file spells out is a knob.
    let ignored: BTreeSet<String> = IGNORED_KEYS.iter().map(|(k, _)| k.to_string()).collect();
    let unknown: Vec<&String> = traffic.difference(&knobs).filter(|k| !ignored.contains(*k)).collect();
    assert!(
        unknown.is_empty(),
        "{unknown:?} are set by a scenario or workload but read by no spec knob, so they are silently ignored: \
         delete them"
    );
    let stale: Vec<&String> = ignored
        .iter()
        .filter(|k| knobs.contains(*k) || !traffic.contains(*k))
        .collect();
    assert!(
        stale.is_empty(),
        "IGNORED_KEYS entries {stale:?} are knobs now (or no file sets them): drop them"
    );
}

/// What keeps a `visapult-bench` program alive.
enum Driver {
    /// A `ci.yml` step runs it and fails on its verdict.
    Ci,
    /// A `ci.yml` step runs it and `compare_baselines` gates the committed
    /// baseline it writes.
    Baseline(&'static str),
    /// `BENCHMARK.json`'s command builds and runs it.
    Benchmark,
    /// Nothing runs it: CI only compiles it.
    CompiledOnly,
}

/// Every program under `crates/visapult-bench/{src/bin,benches,examples}/`,
/// its driver, and what it stands for (the paper artefact it regenerates, or
/// why it stays with nothing running it).  A program with no entry fails the
/// census below (drive it or delete it); so does an entry whose program or
/// driver is gone.
const DRIVEN_BY: [(&str, &str, Driver, &str); 17] = [
    (
        "src/bin",
        "compare_baselines",
        Driver::Ci,
        "the committed-baseline gate",
    ),
    ("src/bin", "fig6_ibravr_artifacts", Driver::Ci, "Fig. 6, §3.3"),
    ("src/bin", "fig10_ntoncplant_profile", Driver::Ci, "Fig. 10"),
    ("src/bin", "fig11_overlap_model", Driver::Ci, "Fig. 11, §4.3"),
    ("src/bin", "fig12_13_serial_vs_overlap_lan", Driver::Ci, "Figs. 12 & 13"),
    ("src/bin", "fig14_15_cplant_nton", Driver::Ci, "Figs. 14 & 15"),
    ("src/bin", "fig16_17_smp_esnet", Driver::Ci, "Figs. 16 & 17"),
    ("src/bin", "fig_dpss_throughput", Driver::Ci, "§2, §3.5 DPSS rates"),
    ("src/bin", "sc99_throughput", Driver::Ci, "§4.1 SC99 rates"),
    ("src/bin", "tbl_playback_time", Driver::Ci, "§5 playback table"),
    ("src/bin", "tbl_strategy_bandwidth", Driver::Ci, "§2 strategy table"),
    ("src/bin", "ledger", Driver::Benchmark, "the repo's benchmark"),
    (
        "benches",
        "cache",
        Driver::Baseline("BENCH_cache.json"),
        "block-cache read path",
    ),
    (
        "benches",
        "service",
        Driver::Baseline("BENCH_service.json"),
        "fan-out plane, 10k floor, telemetry overhead",
    ),
    (
        "benches",
        "transport",
        Driver::Baseline("BENCH_transport.json"),
        "striped link and reassembly",
    ),
    (
        "benches",
        "volren",
        Driver::Baseline("BENCH_volren.json"),
        "render kernel",
    ),
    (
        "examples",
        "telemetry_tour",
        Driver::CompiledOnly,
        "EXPERIMENTS.md's walk through the [telemetry] table; the only caller of render_metrics_table",
    ),
];

#[test]
fn every_bench_crate_program_has_a_named_driver() {
    use std::collections::BTreeSet;
    let root = env!("CARGO_MANIFEST_DIR");
    let read = |file: &str| std::fs::read_to_string(format!("{root}/{file}")).unwrap_or_else(|e| panic!("{file}: {e}"));
    let ci = read(".github/workflows/ci.yml");
    let benchmark = read("BENCHMARK.json");

    let mut on_disk = BTreeSet::new();
    for dir in ["src/bin", "benches", "examples"] {
        let path = format!("{root}/crates/visapult-bench/{dir}");
        for entry in std::fs::read_dir(&path).unwrap_or_else(|e| panic!("{path}: {e}")) {
            let file = entry.unwrap().path();
            // A `.rs` file is a program; so is a directory holding a `main.rs`.
            if file.extension().and_then(|e| e.to_str()) == Some("rs") || file.join("main.rs").exists() {
                on_disk.insert((dir, file.file_stem().unwrap().to_string_lossy().to_string()));
            }
        }
    }
    let listed: BTreeSet<(&str, String)> = DRIVEN_BY.iter().map(|(d, n, ..)| (*d, n.to_string())).collect();
    assert_eq!(listed.len(), DRIVEN_BY.len(), "DRIVEN_BY names a program twice");
    let undriven: Vec<_> = on_disk.difference(&listed).collect();
    assert!(
        undriven.is_empty(),
        "{undriven:?}: nothing is named as running these — gate them in ci.yml, or delete them"
    );
    let stale: Vec<_> = listed.difference(&on_disk).collect();
    assert!(
        stale.is_empty(),
        "DRIVEN_BY entries {stale:?} name no program: drop them"
    );

    for (dir, name, driver, what) in DRIVEN_BY {
        let run_by_ci = if dir == "benches" {
            ci.contains(&format!("--bench {name}"))
        } else {
            ci.contains(name)
        };
        match driver {
            Driver::Ci => assert!(run_by_ci, "ci.yml no longer runs {name} ({what})"),
            Driver::Baseline(file) => {
                assert!(run_by_ci, "ci.yml no longer runs the {name} bench ({what})");
                assert!(
                    std::path::Path::new(&format!("{root}/{file}")).exists(),
                    "{file} is not committed"
                );
            }
            Driver::Benchmark => assert!(
                benchmark.contains(&format!("{dir}/{name}")),
                "BENCHMARK.json no longer names {dir}/{name} ({what})"
            ),
            Driver::CompiledOnly => assert!(
                !run_by_ci,
                "ci.yml runs {name} now: make that step its driver (it was kept as: {what})"
            ),
        }
    }
}
