//! Deterministic synthetic scientific datasets.
//!
//! The paper's data came from NERSC production runs: "a reactive chemistry
//! combustion simulation" on a 640×256×256 grid and "a cosmology hydrodynamic
//! simulation".  Neither dataset is available, so these generators produce
//! volumes with the same qualitative structure — a turbulent jet/flame for
//! combustion, clustered halos for cosmology — deterministically from a seed,
//! at any resolution and timestep, so the full pipeline (DPSS staging,
//! slab-decomposed loads, rendering, IBRAVR display) is exercised on data of
//! the right shape and size.
//!
//! The combustion jet is defined by a per-voxel formula (kept verbatim as the
//! test oracle) and computed by one row kernel, `JetTables`: terms of the
//! formula that depend on `x` only, on `(y, z)` only or on `t` only are
//! tabulated, and because the jet depends on `(y, z)` only through `r²`, the
//! X-row of each distinct `r²` is evaluated once and copied into every other
//! row that shares it — 17–25 % of rows on the benchmark's grids, 8 % at the
//! paper's 640×256×256.  The contract is bit identity with the formula:
//! every `f32` operation, `sin` and `exp` keeps its operands and their order,
//! and rows are matched on `r2.to_bits()`.  [`combustion_jet`],
//! [`CombustionSeries`] (slabs and staged bytes, shareable across threads —
//! it spawns none itself) and [`combustion_series_bytes`] all run that
//! kernel.

use crate::volume::{extend_le_bytes, Volume};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::f32::consts::TAU;
use std::ops::Range;

/// Sinusoidal "turbulence" modes modulating the jet.
const MODES: usize = 6;

/// Everything about the jet at one X station that no other coordinate enters.
struct Column {
    /// Normalized X of the voxel centre.
    xf: f32,
    /// `2.0 * width * width`, the divisor of the Gaussian core.
    core_denom: f32,
    /// `kx * xf * TAU` per mode.
    phase_x: [f32; MODES],
}

/// One distinct radius of the Y/Z cross-section.
struct Radius {
    r2: f32,
    /// `kr * r2.sqrt() * TAU` per mode.
    phase_r: [f32; MODES],
}

/// The time-independent half of the jet for one `(dims, seed)`.
///
/// The jet is a function of `(x, r², t)` alone, so an X-row is determined by
/// its `r2` bits and `t`.  The tables hold every sub-expression of the
/// per-voxel formula that depends on `x` only or on `(y, z)` only, evaluated
/// with the formula's own operand order, plus the map from each `(y, z)` row
/// to its distinct `r2` — keyed on `r2.to_bits()`, never on an assumed mirror
/// symmetry, so grids whose mirror rows round differently stay exact.
struct JetTables {
    dims: (usize, usize, usize),
    amp: [f32; MODES],
    phase: [f32; MODES],
    freq: [f32; MODES],
    columns: Vec<Column>,
    radii: Vec<Radius>,
    /// Index into `radii` of row `z * ny + y`.
    row_radius: Vec<usize>,
}

impl JetTables {
    fn new(dims: (usize, usize, usize), seed: u64) -> Self {
        let (nx, ny, nz) = dims;
        let mut rng = StdRng::seed_from_u64(seed);
        // Random wave numbers and phases; smooth, deterministic, and cheap.
        // The draw order (k_x, k_r, phase, amplitude, time frequency per
        // mode) is part of the dataset's definition.
        let (mut kx, mut kr) = ([0.0f32; MODES], [0.0f32; MODES]);
        let (mut amp, mut phase, mut freq) = ([0.0f32; MODES], [0.0f32; MODES], [0.0f32; MODES]);
        for m in 0..MODES {
            kx[m] = rng.gen_range(1.0..5.0);
            kr[m] = rng.gen_range(1.0..6.0);
            phase[m] = rng.gen_range(0.0..TAU);
            amp[m] = rng.gen_range(0.04..0.14);
            freq[m] = rng.gen_range(0.5..3.0);
        }

        let columns = (0..nx)
            .map(|x| {
                let xf = (x as f32 + 0.5) / nx as f32;
                // Jet core: Gaussian in radius, widening downstream.
                let width = 0.05 + 0.18 * xf;
                Column {
                    xf,
                    core_denom: 2.0 * width * width,
                    phase_x: kx.map(|kx| kx * xf * TAU),
                }
            })
            .collect();

        let mut radii = Vec::new();
        let mut row_radius = Vec::with_capacity(ny * nz);
        let mut seen = HashMap::new();
        for z in 0..nz {
            let zf = (z as f32 + 0.5) / nz as f32 - 0.5;
            for y in 0..ny {
                let yf = (y as f32 + 0.5) / ny as f32 - 0.5;
                let r2 = yf * yf + zf * zf;
                row_radius.push(*seen.entry(r2.to_bits()).or_insert_with(|| {
                    let r = r2.sqrt();
                    radii.push(Radius {
                        r2,
                        phase_r: kr.map(|kr| kr * r * TAU),
                    });
                    radii.len() - 1
                }));
            }
        }

        JetTables {
            dims,
            amp,
            phase,
            freq,
            columns,
            radii,
            row_radius,
        }
    }

    /// Write Z planes `z_range` at `time` into `out` (X-fastest) and return
    /// how many X-rows were evaluated: one per distinct `r2` in the range —
    /// every other row is a copy of the first row that shares its `r2` bits.
    fn fill(&self, z_range: Range<usize>, time: f32, out: &mut [f32]) -> usize {
        let (nx, ny, nz) = self.dims;
        assert!(z_range.end <= nz, "Z range {z_range:?} exceeds {nz} planes");
        assert_eq!(out.len(), nx * ny * z_range.len(), "output must hold the Z range");

        let t = time.clamp(0.0, 1.0);
        // Flame front: a sigmoid along x that has advanced to `front`
        // (normalized).
        let front = 0.2 + 0.75 * t;
        let frontal: Vec<f32> = self
            .columns
            .iter()
            .map(|c| 1.0 / (1.0 + ((c.xf - front) * 18.0).exp()))
            .collect();
        let phase_t = self.freq.map(|freq| freq * t * TAU);

        // Where in `out` each radius was first evaluated during this call.
        let mut first_row: Vec<Option<usize>> = vec![None; self.radii.len()];
        let mut evaluated = 0;
        let rows = &self.row_radius[z_range.start * ny..z_range.end * ny];
        for (row, &radius) in rows.iter().enumerate() {
            let start = row * nx;
            match first_row[radius] {
                Some(source) => out.copy_within(source * nx..(source + 1) * nx, start),
                None => {
                    first_row[radius] = Some(row);
                    self.evaluate_row(&self.radii[radius], &frontal, &phase_t, &mut out[start..start + nx]);
                    evaluated += 1;
                }
            }
        }
        evaluated
    }

    /// One X-row of the jet.  Each `f32` operation, `sin` and `exp` sees the
    /// operands, in the order, the per-voxel formula gives it (kept as
    /// `combustion_jet_oracle` under `cfg(test)`); that is what makes the
    /// output bit-identical to it.
    fn evaluate_row(&self, radius: &Radius, frontal: &[f32], phase_t: &[f32; MODES], out: &mut [f32]) {
        for ((value, column), frontal) in out.iter_mut().zip(&self.columns).zip(frontal) {
            let core = (-radius.r2 / column.core_denom).exp();
            // Turbulent modulation, summed from 0.0 in mode order.
            let turb = (0..MODES).fold(0.0, |turb, m| {
                turb + self.amp[m] * (column.phase_x[m] + radius.phase_r[m] + self.phase[m] + phase_t[m]).sin()
            });
            *value = (core * frontal * (1.0 + turb)).max(0.0);
        }
    }

    fn slab(&self, z_range: Range<usize>, time: f32) -> Volume {
        let mut slab = Volume::zeros((self.dims.0, self.dims.1, z_range.len()));
        self.fill(z_range, time, slab.data_mut());
        slab
    }
}

/// Generate one timestep of a synthetic combustion (reacting jet) dataset.
///
/// * `dims` — grid size (x, y, z); the jet flows along +X.
/// * `time` — normalized simulation time in `[0, 1]`; the flame front
///   advances along X and the turbulence phase evolves with it.
/// * `seed` — deterministic seed for the turbulence modes.
pub fn combustion_jet(dims: (usize, usize, usize), time: f32, seed: u64) -> Volume {
    JetTables::new(dims, seed).slab(0..dims.2, time)
}

/// A time series of the combustion dataset: timestep `t` of `timesteps` is
/// [`combustion_jet`] at normalized time `t / (timesteps - 1)`.  The jet's
/// time-independent tables are built once here and shared by every timestep
/// and slab generated from it, from any number of threads.
pub struct CombustionSeries {
    tables: JetTables,
    timesteps: usize,
}

impl CombustionSeries {
    /// The series of `timesteps` volumes of size `dims` for `seed`.
    pub fn new(dims: (usize, usize, usize), timesteps: usize, seed: u64) -> Self {
        CombustionSeries {
            tables: JetTables::new(dims, seed),
            timesteps,
        }
    }

    /// Normalized simulation time of `timestep`.
    fn time(&self, timestep: usize) -> f32 {
        if self.timesteps <= 1 {
            0.0
        } else {
            timestep as f32 / (self.timesteps - 1) as f32
        }
    }

    /// Z planes `z_range` of `timestep`: equal to
    /// `combustion_jet(..).subvolume((0, 0, z_range.start), ..)` without
    /// generating the planes outside the range.
    pub fn slab(&self, timestep: usize, z_range: Range<usize>) -> Volume {
        self.tables.slab(z_range, self.time(timestep))
    }

    /// Overwrite `bytes` with the little-endian bytes of `timestep` (what is
    /// staged onto the DPSS).  `values` is scratch for the samples; a caller
    /// generating many timesteps passes the same two buffers each time.
    pub fn timestep_le_bytes(&self, timestep: usize, values: &mut Vec<f32>, bytes: &mut Vec<u8>) {
        let (nx, ny, nz) = self.tables.dims;
        values.resize(nx * ny * nz, 0.0);
        self.tables.fill(0..nz, self.time(timestep), values);
        bytes.clear();
        extend_le_bytes(bytes, values);
    }
}

/// Generate a synthetic cosmology density field: a collection of clustered
/// halos with power-law profiles on a low background.
pub fn cosmology_density(dims: (usize, usize, usize), seed: u64) -> Volume {
    let (nx, ny, nz) = dims;
    let mut rng = StdRng::seed_from_u64(seed);
    let halo_count = 24;
    let halos: Vec<([f32; 3], f32, f32)> = (0..halo_count)
        .map(|_| {
            (
                [
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..1.0),
                ],
                rng.gen_range(0.02f32..0.08), // core radius
                rng.gen_range(0.3f32..1.0),   // mass scale
            )
        })
        .collect();

    let mut v = Volume::zeros(dims);
    for z in 0..nz {
        let zf = (z as f32 + 0.5) / nz as f32;
        for y in 0..ny {
            let yf = (y as f32 + 0.5) / ny as f32;
            for x in 0..nx {
                let xf = (x as f32 + 0.5) / nx as f32;
                let mut density = 0.002; // background
                for (pos, rc, mass) in &halos {
                    let dx = xf - pos[0];
                    let dy = yf - pos[1];
                    let dz = zf - pos[2];
                    let r = (dx * dx + dy * dy + dz * dz).sqrt().max(1e-3);
                    // NFW-like profile truncated at small radius.
                    density += mass * rc / (r * (1.0 + r / rc).powi(2)) * 0.05;
                }
                v.set(x, y, z, density);
            }
        }
    }
    v
}

/// Generate the byte stream for a whole time series of the combustion
/// dataset (the content staged onto the DPSS by examples and tests).
pub fn combustion_series_bytes(dims: (usize, usize, usize), timesteps: usize, seed: u64) -> Vec<u8> {
    let series = CombustionSeries::new(dims, timesteps, seed);
    let mut values = vec![0.0; dims.0 * dims.1 * dims.2];
    let mut out = Vec::with_capacity(values.len() * 4 * timesteps);
    for t in 0..timesteps {
        series.tables.fill(0..dims.2, series.time(t), &mut values);
        extend_le_bytes(&mut out, &values);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The oracle: `combustion_jet` as it was before the row kernel, one
    /// voxel at a time, kept verbatim.  The kernel must reproduce it bit for
    /// bit.
    fn combustion_jet_oracle(dims: (usize, usize, usize), time: f32, seed: u64) -> Volume {
        let (nx, ny, nz) = dims;
        let mut rng = StdRng::seed_from_u64(seed);
        // A handful of sinusoidal "turbulence" modes with random wave numbers and
        // phases; smooth, deterministic, and cheap.
        let modes: Vec<(f32, f32, f32, f32, f32)> = (0..6)
            .map(|_| {
                (
                    rng.gen_range(1.0..5.0),                   // k_x
                    rng.gen_range(1.0..6.0),                   // k_r
                    rng.gen_range(0.0..std::f32::consts::TAU), // phase
                    rng.gen_range(0.04..0.14),                 // amplitude
                    rng.gen_range(0.5..3.0),                   // time frequency
                )
            })
            .collect();

        let t = time.clamp(0.0, 1.0);
        let front = 0.2 + 0.75 * t; // flame front position along x (normalized)
        let mut v = Volume::zeros(dims);
        for z in 0..nz {
            let zf = (z as f32 + 0.5) / nz as f32 - 0.5;
            for y in 0..ny {
                let yf = (y as f32 + 0.5) / ny as f32 - 0.5;
                let r2 = yf * yf + zf * zf;
                for x in 0..nx {
                    let xf = (x as f32 + 0.5) / nx as f32;
                    // Jet core: Gaussian in radius, widening downstream.
                    let width = 0.05 + 0.18 * xf;
                    let core = (-r2 / (2.0 * width * width)).exp();
                    // Flame front: a sigmoid along x that has advanced to `front`.
                    let frontal = 1.0 / (1.0 + ((xf - front) * 18.0).exp());
                    // Turbulent modulation.
                    let mut turb = 0.0;
                    for (kx, kr, phase, amp, freq) in &modes {
                        turb += amp
                            * (kx * xf * std::f32::consts::TAU
                                + kr * (r2.sqrt()) * std::f32::consts::TAU
                                + phase
                                + freq * t * std::f32::consts::TAU)
                                .sin();
                    }
                    let value = (core * frontal * (1.0 + turb)).max(0.0);
                    v.set(x, y, z, value);
                }
            }
        }
        v
    }

    /// Distinct `r2` bit patterns over Z planes `z_range` of a grid, from the
    /// formula's own expressions.
    fn distinct_r2(dims: (usize, usize, usize), z_range: Range<usize>) -> usize {
        let (_, ny, nz) = dims;
        let mut seen = std::collections::BTreeSet::new();
        for z in z_range {
            let zf = (z as f32 + 0.5) / nz as f32 - 0.5;
            for y in 0..ny {
                let yf = (y as f32 + 0.5) / ny as f32 - 0.5;
                seen.insert((yf * yf + zf * zf).to_bits());
            }
        }
        seen.len()
    }

    fn assert_same_bits(kernel: &Volume, oracle: &Volume, what: &str) {
        assert_eq!(kernel.dims(), oracle.dims(), "{what}");
        for (i, (k, o)) in kernel.data().iter().zip(oracle.data()).enumerate() {
            assert_eq!(k.to_bits(), o.to_bits(), "{what}: sample {i} is {k}, oracle {o}");
        }
    }

    /// The benchmark's five grids, the laptop-scale default, and shapes with
    /// odd extents (mirror rows that round differently), `ny != nz`, and a
    /// single row.
    const GRIDS: [(usize, usize, usize); 10] = [
        (128, 128, 64),
        (128, 128, 16),
        (64, 64, 8),
        (64, 64, 4),
        (32, 32, 16),
        (80, 32, 32),
        (17, 13, 7),
        (40, 30, 10),
        (33, 65, 9),
        (5, 1, 1),
    ];

    #[test]
    fn kernel_is_bit_identical_to_the_per_voxel_oracle_on_the_fixed_grids() {
        for dims in GRIDS {
            for seed in [11, 23, 99] {
                // 1/11 is a series time; 1.7 and -0.2 exercise the clamp.
                for time in [0.0, 0.3, 1.0 / 11.0, 1.0, 1.7, -0.2] {
                    assert_same_bits(
                        &combustion_jet(dims, time, seed),
                        &combustion_jet_oracle(dims, time, seed),
                        &format!("{dims:?} seed {seed} time {time}"),
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn a_slab_is_bit_identical_to_the_oracles_subvolume(
            dims in (1usize..41, 1usize..41, 1usize..41),
            cut in (0usize..40, 0usize..40),
            time in -0.5f32..1.5,
            seed in 0u64..1000,
        ) {
            let z_start = cut.0 % dims.2;
            let z_len = 1 + cut.1 % (dims.2 - z_start);
            let slab = JetTables::new(dims, seed).slab(z_start..z_start + z_len, time);
            assert_same_bits(
                &slab,
                &combustion_jet_oracle(dims, time, seed).subvolume((0, 0, z_start), (dims.0, dims.1, z_len)),
                &format!("{dims:?} planes {z_start}+{z_len} time {time} seed {seed}"),
            );
        }
    }

    #[test]
    fn series_bytes_are_the_oracles_timesteps_concatenated() {
        for (dims, timesteps, seed) in [((40, 30, 10), 5, 23), ((17, 13, 7), 1, 11), ((80, 32, 32), 3, 99)] {
            let mut expected = Vec::new();
            for t in 0..timesteps {
                let time = if timesteps <= 1 {
                    0.0
                } else {
                    t as f32 / (timesteps - 1) as f32
                };
                expected.extend(combustion_jet_oracle(dims, time, seed).to_le_bytes());
            }
            assert!(
                combustion_series_bytes(dims, timesteps, seed) == expected,
                "{dims:?} × {timesteps} seed {seed}"
            );

            // The stager's entry point writes the same bytes one timestep at
            // a time, through buffers it reuses.
            let series = CombustionSeries::new(dims, timesteps, seed);
            let step = dims.0 * dims.1 * dims.2 * 4;
            let (mut values, mut bytes) = (Vec::new(), Vec::new());
            for t in (0..timesteps).rev() {
                series.timestep_le_bytes(t, &mut values, &mut bytes);
                assert!(bytes == expected[t * step..(t + 1) * step], "timestep {t} of {dims:?}");
            }
        }
    }

    #[test]
    fn one_row_is_evaluated_per_distinct_radius() {
        // The saving the kernel exists for: 1404 of 8192 rows at
        // `corridor_stream`'s grid, 512 of 2048 at the playbacks'.
        for (dims, expected) in [
            ((128, 128, 64), 1404),
            ((128, 128, 16), 512),
            ((33, 65, 9), 0),
            ((5, 1, 1), 1),
        ] {
            let tables = JetTables::new(dims, 11);
            let mut out = vec![0.0; dims.0 * dims.1 * dims.2];
            let evaluated = tables.fill(0..dims.2, 0.5, &mut out);
            assert_eq!(evaluated, distinct_r2(dims, 0..dims.2), "{dims:?}");
            if expected != 0 {
                assert_eq!(evaluated, expected, "{dims:?}");
            }
            assert!(evaluated <= dims.1 * dims.2);
        }
        // A slab dedupes within its own planes.
        let tables = JetTables::new((32, 32, 32), 11);
        let mut out = vec![0.0; 32 * 32 * 8];
        assert_eq!(tables.fill(8..16, 0.5, &mut out), distinct_r2((32, 32, 32), 8..16));
    }

    #[test]
    fn combustion_is_deterministic_per_seed() {
        let a = combustion_jet((16, 12, 12), 0.3, 42);
        let b = combustion_jet((16, 12, 12), 0.3, 42);
        let c = combustion_jet((16, 12, 12), 0.3, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn jet_is_concentrated_on_the_axis() {
        let v = combustion_jet((32, 16, 16), 0.5, 1);
        // Centre of the Y/Z cross-section has more mass than the corner.
        let axis_mean: f32 = (0..32).map(|x| v.get(x, 8, 8)).sum::<f32>() / 32.0;
        let corner_mean: f32 = (0..32).map(|x| v.get(x, 0, 0)).sum::<f32>() / 32.0;
        assert!(
            axis_mean > corner_mean * 3.0,
            "axis {axis_mean} vs corner {corner_mean}"
        );
    }

    #[test]
    fn flame_front_advances_with_time() {
        let early = combustion_jet((64, 12, 12), 0.1, 5);
        let late = combustion_jet((64, 12, 12), 0.9, 5);
        // At a station downstream (x = 48), the late timestep has burned
        // through (higher values) compared to the early one.
        let early_downstream: f32 = (0..12)
            .flat_map(|y| (0..12).map(move |z| (y, z)))
            .map(|(y, z)| early.get(48, y, z))
            .sum();
        let late_downstream: f32 = (0..12)
            .flat_map(|y| (0..12).map(move |z| (y, z)))
            .map(|(y, z)| late.get(48, y, z))
            .sum();
        assert!(
            late_downstream > early_downstream,
            "late {late_downstream} vs early {early_downstream}"
        );
    }

    #[test]
    fn values_are_finite_and_nonnegative() {
        let v = combustion_jet((20, 20, 20), 0.7, 9);
        assert!(v.data().iter().all(|x| x.is_finite() && *x >= 0.0));
        let c = cosmology_density((20, 20, 20), 9);
        assert!(c.data().iter().all(|x| x.is_finite() && *x > 0.0));
    }

    #[test]
    fn cosmology_is_clustered() {
        let v = cosmology_density((24, 24, 24), 11);
        let (min, max) = v.value_range();
        // Halos produce a large dynamic range over the background.
        assert!(max / min > 20.0, "range {min}..{max}");
    }

    #[test]
    fn series_bytes_have_the_right_size_and_vary_over_time() {
        let dims = (16, 8, 8);
        let bytes = combustion_series_bytes(dims, 3, 2);
        assert_eq!(bytes.len(), 16 * 8 * 8 * 4 * 3);
        let step = 16 * 8 * 8 * 4;
        assert_ne!(&bytes[..step], &bytes[step..2 * step], "timesteps should differ");
    }
}
