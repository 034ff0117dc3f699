//! Pipeline configuration shared by the real and virtual-time campaigns.

use dpss::DatasetDescriptor;
use serde::{Deserialize, Serialize};
use volren::{RenderSettings, TransferFunction};

/// Whether each back-end PE loads and renders serially or overlapped
/// (pipelined with a detached reader thread), the central comparison of §4.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// Load frame N, then render frame N, then load frame N+1, …
    Serial,
    /// Load frame N+1 on the reader thread while rendering frame N.
    Overlapped,
}

impl ExecutionMode {
    /// Both modes, for sweeps.
    pub const ALL: [ExecutionMode; 2] = [ExecutionMode::Serial, ExecutionMode::Overlapped];

    /// Short lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ExecutionMode::Serial => "serial",
            ExecutionMode::Overlapped => "overlapped",
        }
    }
}

/// Configuration of one Visapult pipeline run (independent of whether it is
/// executed for real or simulated in virtual time).
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// The dataset to visualize.
    pub dataset: DatasetDescriptor,
    /// Number of back-end processing elements (= number of Z slabs).
    pub pes: usize,
    /// Number of timesteps to process (clamped to the dataset's count).
    pub timesteps: usize,
    /// Serial or overlapped load/render in each PE.
    pub mode: ExecutionMode,
    /// Per-PE texture rendering settings.
    pub render: RenderSettings,
    /// Transfer function used by every PE.
    pub transfer: TransferFunction,
    /// Number of striped DPSS client streams per PE.
    pub streams_per_pe: u32,
    /// Global scalar range used to classify samples, shared by every PE so
    /// that independently rendered slabs composite consistently.
    pub value_range: (f32, f32),
}

impl PipelineConfig {
    /// A small configuration suitable for laptop-scale real-mode runs.
    pub fn small(pes: usize, timesteps: usize, mode: ExecutionMode) -> Self {
        PipelineConfig {
            dataset: DatasetDescriptor::small_combustion(timesteps),
            pes: pes.max(1),
            timesteps: timesteps.max(1),
            mode,
            render: RenderSettings::with_size(64, 64),
            transfer: TransferFunction::combustion_default(),
            streams_per_pe: 4,
            value_range: (0.0, 1.5),
        }
    }

    /// Validate internal consistency; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.pes == 0 {
            return Err("pipeline needs at least one PE".to_string());
        }
        if self.timesteps == 0 {
            return Err("pipeline needs at least one timestep".to_string());
        }
        if self.timesteps > self.dataset.timesteps {
            return Err(format!(
                "requested {} timesteps but the dataset has only {}",
                self.timesteps, self.dataset.timesteps
            ));
        }
        let z_planes = self.dataset.dims.2;
        if self.pes > z_planes {
            return Err(format!("cannot cut {z_planes} Z planes into {} slabs", self.pes));
        }
        Ok(())
    }

    /// Bytes each PE loads per timestep (slab share of a timestep).
    pub fn bytes_per_pe_per_step(&self) -> u64 {
        self.dataset.bytes_per_timestep().bytes() / self.pes as u64
    }

    /// Voxels each PE renders per timestep.
    pub fn cells_per_pe(&self) -> usize {
        self.dataset.values_per_timestep() / self.pes
    }

    /// Modelled bytes one PE ships to the viewer per timestep: the RGBA8
    /// texture plus a fixed allowance for the light payload and AMR grid
    /// geometry.  Shared by the virtual-time send-time model and the
    /// scenario report so the two can never diverge.
    pub fn viewer_payload_bytes_per_pe(&self) -> u64 {
        (self.render.image_width * self.render.image_height * 4 + 50_000) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_config_is_valid() {
        let c = PipelineConfig::small(4, 3, ExecutionMode::Serial);
        assert!(c.validate().is_ok());
        assert_eq!(c.mode.label(), "serial");
        assert_eq!(
            c.bytes_per_pe_per_step() * c.pes as u64,
            c.dataset.bytes_per_timestep().bytes()
        );
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = PipelineConfig::small(4, 3, ExecutionMode::Serial);
        c.pes = 0;
        assert!(c.validate().is_err());

        let mut c = PipelineConfig::small(4, 3, ExecutionMode::Serial);
        c.timesteps = 100;
        assert!(c.validate().is_err());

        let mut c = PipelineConfig::small(4, 3, ExecutionMode::Serial);
        c.pes = 1000; // more slabs than Z planes
        assert!(c.validate().is_err());
    }

    #[test]
    fn execution_modes_enumerate() {
        assert_eq!(ExecutionMode::ALL.len(), 2);
        assert_eq!(ExecutionMode::Overlapped.label(), "overlapped");
    }
}
