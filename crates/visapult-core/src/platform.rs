//! Compute-platform models for the virtual-time campaigns.
//!
//! The paper runs the back end on four machines: the SNL-CA CPlant
//! Linux/Alpha cluster, the LBL-booth Babel Alpha cluster, a sixteen-way SGI
//! Onyx2 SMP at ANL, and an eight-way 336 MHz Sun E4500 on the LBL LAN.  None
//! of them exist any more, so a [`ComputePlatform`] captures the three
//! properties the results actually depend on:
//!
//! * how fast one PE volume-renders (voxel samples per second),
//! * how fast one PE can ingest data from the network (TCP/interrupt/format
//!   conversion cost on a circa-2000 CPU), and
//! * whether the overlapped reader thread has its own CPU (SMP with spare
//!   processors) or contends with the renderer (cluster nodes with a single
//!   CPU) — the effect discussed at the end of §4.4.1/§4.4.2.
//!
//! The numbers are calibrated from the paper's own measurements (see the
//! doc comments on each constructor and EXPERIMENTS.md).

use netsim::Bandwidth;
use volren::RenderSettings;

/// A back-end compute platform model.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputePlatform {
    /// Human-readable name.
    pub name: String,
    /// Maximum number of PEs the machine can host.
    pub max_pes: usize,
    /// Voxel samples rendered per second per PE.
    pub samples_per_sec_per_pe: f64,
    /// Per-PE data-ingest ceiling (TCP + copy + format conversion on one CPU).
    pub per_pe_load_cap: Bandwidth,
    /// True when the overlapped reader thread gets its own CPU (large SMPs);
    /// false when it shares the PE's single CPU (cluster nodes).
    pub dedicated_reader_cpu: bool,
    /// Multiplier applied to load times in overlapped mode when the reader
    /// shares a CPU with the renderer.
    pub overlap_load_penalty: f64,
    /// Coefficient of variation of overlapped load times (the staggering the
    /// paper observes in Figure 15).
    pub overlap_load_jitter: f64,
}

impl ComputePlatform {
    /// The SNL-CA CPlant Linux/Alpha cluster (§4.2, §4.4.1).  Calibrated so
    /// that 4 PEs render a 160 MB timestep in ≈8.5 s (Fig. 10) and 4 PEs
    /// ingest at ≈430 Mbps aggregate; single CPU per node, so overlapped
    /// loads pay a contention penalty and stagger (Fig. 15).
    pub fn cplant() -> Self {
        ComputePlatform {
            name: "CPlant Linux/Alpha cluster".to_string(),
            max_pes: 32,
            samples_per_sec_per_pe: 1.25e6,
            per_pe_load_cap: Bandwidth::from_mbps(110.0),
            dedicated_reader_cpu: false,
            overlap_load_penalty: 1.18,
            overlap_load_jitter: 0.15,
        }
    }

    /// The sixteen-processor SGI Onyx2 SMP at ANL (§4.4.2).  With twice as
    /// many CPUs as PEs the reader threads map onto their own processors, so
    /// overlapped loads are only slightly slower than serial ones.
    pub fn onyx2_smp() -> Self {
        ComputePlatform {
            name: "SGI Onyx2 16-way SMP".to_string(),
            max_pes: 16,
            samples_per_sec_per_pe: 6.5e5,
            per_pe_load_cap: Bandwidth::from_mbps(110.0),
            dedicated_reader_cpu: true,
            overlap_load_penalty: 1.05,
            overlap_load_jitter: 0.04,
        }
    }

    /// The eight-processor, 336 MHz UltraSPARC-II Sun E4500 ("diesel") used
    /// for the LAN serial/overlapped comparison of §4.3 (L ≈ 15 s, R ≈ 12 s
    /// per 160 MB timestep with 8 PEs).
    pub fn e4500() -> Self {
        ComputePlatform {
            name: "Sun E4500 8-way SMP".to_string(),
            max_pes: 8,
            samples_per_sec_per_pe: 4.4e5,
            per_pe_load_cap: Bandwidth::from_mbps(90.0),
            dedicated_reader_cpu: true,
            overlap_load_penalty: 1.04,
            overlap_load_jitter: 0.05,
        }
    }

    /// The Cray T3E at NERSC used for the combustion back end at SC99 (§4.1).
    pub fn t3e() -> Self {
        ComputePlatform {
            name: "Cray T3E".to_string(),
            max_pes: 64,
            samples_per_sec_per_pe: 9.0e5,
            per_pe_load_cap: Bandwidth::from_mbps(90.0),
            dedicated_reader_cpu: false,
            overlap_load_penalty: 1.15,
            overlap_load_jitter: 0.12,
        }
    }

    /// The eight-node Alpha Linux "Babel" cluster in the LBL booth at SC99.
    pub fn babel_cluster() -> Self {
        ComputePlatform {
            name: "Babel 8-node Alpha cluster".to_string(),
            max_pes: 8,
            samples_per_sec_per_pe: 1.0e6,
            per_pe_load_cap: Bandwidth::from_mbps(100.0),
            dedicated_reader_cpu: false,
            overlap_load_penalty: 1.18,
            overlap_load_jitter: 0.15,
        }
    }

    /// Per-PE render time (seconds) for a region of `cells` voxels at the
    /// given settings (the ray-march step determines samples per voxel).
    pub fn render_time(&self, cells: usize, settings: &RenderSettings) -> f64 {
        let samples = volren::render_cost_samples(cells, settings) as f64;
        samples / self.samples_per_sec_per_pe
    }

    /// Aggregate ingest ceiling for `pes` PEs.
    pub fn aggregate_load_cap(&self, pes: usize) -> Bandwidth {
        self.per_pe_load_cap.scale(pes.min(self.max_pes) as f64)
    }

    /// The load-time multiplier for the given execution-mode contention
    /// situation: 1.0 for serial, the platform's penalty when overlapped on
    /// shared CPUs, and a small penalty when overlapped with dedicated CPUs.
    pub fn overlap_multiplier(&self, overlapped: bool) -> f64 {
        if !overlapped {
            1.0
        } else {
            self.overlap_load_penalty
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cplant_renders_a_quarter_timestep_in_about_eight_seconds() {
        // Fig. 10: four CPlant PEs took 8-9 s to render a 640x256x256 step.
        let p = ComputePlatform::cplant();
        let cells_per_pe = 640 * 256 * 256 / 4;
        let r = p.render_time(cells_per_pe, &RenderSettings::default());
        assert!(r > 7.0 && r < 10.0, "got {r}");
    }

    #[test]
    fn e4500_renders_an_eighth_timestep_in_about_twelve_seconds() {
        // §4.3: R ≈ 12 s with eight PEs.
        let p = ComputePlatform::e4500();
        let cells_per_pe = 640 * 256 * 256 / 8;
        let r = p.render_time(cells_per_pe, &RenderSettings::default());
        assert!(r > 10.5 && r < 13.5, "got {r}");
    }

    #[test]
    fn render_time_halves_when_pes_double() {
        // Fig. 14: "rendering time has been reduced to approximately half the
        // time required when using four processors" — linear speedup from the
        // domain decomposition.
        let p = ComputePlatform::cplant();
        let settings = RenderSettings::default();
        let four = p.render_time(640 * 256 * 256 / 4, &settings);
        let eight = p.render_time(640 * 256 * 256 / 8, &settings);
        assert!((four / eight - 2.0).abs() < 0.01);
    }

    #[test]
    fn four_cplant_pes_ingest_about_430_mbps() {
        let p = ComputePlatform::cplant();
        let agg = p.aggregate_load_cap(4).mbps();
        assert!(agg > 400.0 && agg < 470.0, "got {agg}");
    }

    #[test]
    fn cluster_pays_an_overlap_penalty_smp_mostly_does_not() {
        let cluster = ComputePlatform::cplant();
        let smp = ComputePlatform::onyx2_smp();
        assert!(cluster.overlap_multiplier(true) > smp.overlap_multiplier(true));
        assert_eq!(cluster.overlap_multiplier(false), 1.0);
        assert!(!cluster.dedicated_reader_cpu);
        assert!(smp.dedicated_reader_cpu);
    }

    #[test]
    fn aggregate_cap_saturates_at_max_pes() {
        let p = ComputePlatform::e4500();
        assert_eq!(p.aggregate_load_cap(8).mbps(), p.aggregate_load_cap(100).mbps());
    }
}
