//! The names this benchmark defines.  `BENCHMARK.json` lists exactly these
//! (an in-crate test holds the two together); later issues cite them verbatim.

use crate::rep::Rep;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// The metric's value in one repetition.
    pub of: fn(&Rep) -> f64,
    /// Share of the parent's median by which the metric may get worse before
    /// a change counts as a regression.  README.md records the quartile
    /// spread observed next to each.
    pub bound: f64,
}

/// What a user of the system sees; the identical set on every workload, all
/// lower-is-better.  The fifth, `failed_share`, reads 0, and a
/// `BENCHMARK.json` `end_to_end` entry carries only a bound relative to the
/// parent's median: it is listed first in [`PER_LAYER`], under its own name,
/// with the absolute [`FAILED_SHARE_BOUND`].
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        of: |r| r.setup_s,
        bound: 0.25,
    },
    EndToEnd {
        name: "frame_ms",
        unit: "ms/timestep",
        of: |r| r.frame_ms,
        bound: 0.25,
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        of: |r| r.run_s,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_frame",
        unit: "ms/timestep",
        of: |r| r.cpu_ms_per_frame,
        bound: 0.25,
    },
];

/// `failed_share` may not exceed this, in absolute terms.  The gate is
/// stricter still: one failed operation already fails the run.
pub const FAILED_SHARE_BOUND: f64 = 0.001;

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// `failed_share` (see [`END_TO_END`]), then the single-layer metrics (layer =
/// module name), from the decorator spans of the real repetitions, the layer
/// probes, and the run's own counters.  The layer metrics carry no bound.
pub const PER_LAYER: [PerLayer; 68] = [
    lower("failed_share", "ratio"),
    lower("pipeline.open_ms", "ms"),
    lower("pipeline.splice_ms", "ms"),
    lower("pipeline.farm_ms_per_frame", "ms/timestep"),
    lower("pipeline.plane_finish_ms_per_frame", "ms/timestep"),
    lower("pipeline.collect_ms", "ms"),
    lower("pipeline.reduce_s", "s"),
    higher("pipeline.stage_call_share", "ratio"),
    higher("dpss.stage_mbytes_per_s", "MB/s"),
    lower("dpss.read_range_ms", "ms"),
    higher("dpss.read_range_mbytes_per_s", "MB/s"),
    lower("dpss.cache_hit_read_ms", "ms"),
    lower("dpss.cache_miss_read_ms", "ms"),
    higher("dpss.cache_hits", "count"),
    lower("dpss.cache_misses", "count"),
    lower("dpss.cache_evictions", "count"),
    higher("dpss.cache_hit_rate", "ratio"),
    lower("dpss.est_share", "ratio"),
    lower("data_source.load_slab_ms", "ms"),
    lower("data_source.decode_share", "ratio"),
    lower("data_source.est_share", "ratio"),
    lower("volren.render_region_ms", "ms"),
    lower("volren.samples_per_slab", "count"),
    lower("volren.ns_per_sample", "ns"),
    lower("volren.amr_ms", "ms"),
    lower("volren.to_rgba8_ms", "ms"),
    lower("volren.est_share", "ratio"),
    lower("protocol.encode_us", "us"),
    lower("protocol.decode_us", "us"),
    lower("protocol.wire_bytes_per_frame", "bytes"),
    lower("protocol.est_share", "ratio"),
    lower("transport.send_frame_us", "us"),
    lower("transport.reassemble_us", "us"),
    lower("transport.chunks_per_frame", "count"),
    higher("transport.roundtrip_mbytes_per_s", "MB/s"),
    lower("transport.reassembly_copies", "count"),
    lower("transport.out_of_order_chunks", "count"),
    lower("transport.est_share", "ratio"),
    lower("viewer.composite_ms_per_frame", "ms/timestep"),
    lower("viewer.partial_updates", "count"),
    lower("viewer.errors", "count"),
    lower("viewer.est_share", "ratio"),
    lower("scenegraph.raster_ms", "ms"),
    lower("scenegraph.ibravr_composite_ms", "ms"),
    lower("service.admission_us_per_event", "us"),
    lower("service.plane_us_per_session_frame", "us"),
    higher("service.shared_render_hit_rate", "ratio"),
    higher("service.frames_completed", "count"),
    lower("service.frames_skipped", "count"),
    lower("service.chunks_dropped", "count"),
    lower("service.wave_us_p50", "us"),
    lower("service.wave_us_p99", "us"),
    lower("service.queue_depth_high_water", "count"),
    lower("service.est_share", "ratio"),
    lower("exec.polls", "count"),
    lower("exec.poll_ns_per_poll", "ns"),
    lower("exec.parks", "count"),
    lower("exec.wakes", "count"),
    lower("exec.wakes_per_poll", "ratio"),
    lower("exec.run_queue_high_water", "count"),
    lower("parcomm.barrier_us", "us"),
    lower("netlogger.events_per_frame", "count"),
    lower("netlogger.analysis_ms", "ms"),
    lower("process.peak_rss_mb", "MB"),
    lower("process.threads_peak", "count"),
    lower("process.cpu_util", "ratio"),
    higher("probe.explained_share", "ratio"),
    lower("trace.overhead_percent", "%"),
];

/// The probed layers whose `<layer>.est_share` adds up to
/// `probe.explained_share`.
pub const EST_SHARE_LAYERS: [&str; 7] = [
    "dpss",
    "data_source",
    "volren",
    "protocol",
    "transport",
    "viewer",
    "service",
];

/// A workload whose probes explain less of its CPU than this is flagged by
/// name (README.md says what the probes miss there).
pub const EXPLAINED_FLOOR: f64 = 0.75;
