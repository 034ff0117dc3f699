//! The six workloads: a TOML spec each (under `workloads/`), why it exists,
//! and what its cache must do.  The program under test only ever sees the
//! spec generated here from the seed.

use visapult_core::{ExecutionPath, ScenarioSpec};

/// The seed the pinned fingerprints below were recorded at.
pub const DEFAULT_SEED: u64 = 11;

/// What the block cache must do over a workload's stages, exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheShape {
    /// No `[cache]` table: the report carries no cache section.
    Absent,
    /// The first stage misses on every block of the staged dataset, every
    /// later stage hits on every block, nothing is ever evicted.
    FillThenHit,
    /// The sequential scan defeats LRU: every stage misses on every block.
    NeverHit,
}

pub struct Workload {
    pub name: &'static str,
    /// One line, identical to the entry in `BENCHMARK.json`.
    pub why: &'static str,
    toml: &'static str,
    /// Written over `[cache] capacity_blocks`: how `playback_thrash` differs
    /// from `playback_warm`, whose spec it shares.
    capacity_blocks: Option<usize>,
    pub cache: CacheShape,
    /// Real-path `replay_fingerprint()` at [`DEFAULT_SEED`].  A change here
    /// means the program's deterministic output changed, not its speed.
    pub fingerprint: u64,
}

/// `playback_thrash`'s cache: a third of the working set `playback_warm`'s
/// spec stages (see `workloads/playback_warm.toml`), so a sequential scan
/// evicts every block before its next use.
const THRASH_CAPACITY_BLOCKS: usize = 128;

pub const ALL: [Workload; 6] = [
    Workload {
        name: "corridor_stream",
        why: "Cold overlapped streaming, every timestep new, no cache: volren does nearly all the work; cache, service and chunking almost none",
        toml: include_str!("workloads/corridor_stream.toml"),
        capacity_blocks: None,
        cache: CacheShape::Absent,
        fingerprint: 0xdd15_a1d8_2c2b_8198,
    },
    Workload {
        name: "playback_warm",
        why: "Stage once, replay many (paper 3.5): serial mode puts load on the critical path and after the first pass every block read is a cache hit",
        toml: include_str!("workloads/playback_warm.toml"),
        capacity_blocks: None,
        cache: CacheShape::FillThenHit,
        fingerprint: 0xf2a0_352e_0182_7a01,
    },
    Workload {
        name: "playback_thrash",
        why: "Same spec, cache smaller than the working set: the sequential scan defeats LRU, so every read takes the miss, fetch, insert, evict path",
        toml: include_str!("workloads/playback_warm.toml"),
        capacity_blocks: Some(THRASH_CAPACITY_BLOCKS),
        cache: CacheShape::NeverHit,
        fingerprint: 0x9c6b_cbf5_6500_01a6,
    },
    Workload {
        name: "wan_wire",
        why: "1 MB frames in 1 KB chunks over 8 stripes into a large viewer window: transport, reassembly and the progressive compositor carry the frame",
        toml: include_str!("workloads/wan_wire.toml"),
        capacity_blocks: None,
        cache: CacheShape::Absent,
        fingerprint: 0xf6b3_2ffa_6090_aba2,
    },
    Workload {
        name: "exhibit_floor",
        why: "2000 sessions over 4 viewpoints on the async plane with 2 workers: broker, multicast, exec and per-session reassembly; render is negligible",
        toml: include_str!("workloads/exhibit_floor.toml"),
        capacity_blocks: None,
        cache: CacheShape::Absent,
        fingerprint: 0x4628_391b_d8a4_380e,
    },
    Workload {
        name: "briefing_room",
        why: "8 sessions on the default thread-per-session plane, the path every bundled scenario uses: where a small-N regression from merging planes shows",
        toml: include_str!("workloads/briefing_room.toml"),
        capacity_blocks: None,
        cache: CacheShape::Absent,
        fingerprint: 0x2128_6e78_664a_78ae,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

impl Workload {
    /// The generated input: the workload's spec on the real path with the
    /// run's seed written over `scenario.seed`.
    pub fn spec(&self, seed: u64) -> ScenarioSpec {
        let mut spec = ScenarioSpec::from_toml_str(self.toml)
            .expect("bundled workload specs parse (pinned by the in-crate tests)")
            .with_seed(seed)
            .with_path(ExecutionPath::Real);
        spec.scenario.name = self.name.to_string();
        if let Some(blocks) = self.capacity_blocks {
            let cache = spec.cache.as_mut().expect("a capacity is written over a [cache] table");
            cache.capacity_blocks = Some(blocks);
        }
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_spec_parses_and_resolves() {
        for w in &ALL {
            let spec = w.spec(DEFAULT_SEED);
            assert_eq!(spec.scenario.name, w.name);
            let resolved = spec.resolve().unwrap_or_else(|e| panic!("{}: {e}", w.name));
            // Sized for two cores, and never paced: wall time is the
            // program's own CPU, not a model constant.
            assert_eq!((resolved.pes, resolved.streams_per_pe), (2, 2), "{}", w.name);
            assert!(!resolved.transport_emulate_wan, "{}", w.name);
            assert_eq!(resolved.cache.is_some(), w.cache != CacheShape::Absent, "{}", w.name);
        }
    }
}
