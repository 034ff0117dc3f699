//! Image-based-rendering-assisted volume rendering (IBRAVR).
//!
//! §3.3: "The source volume is subdivided into some number of slabs, each of
//! which is volume rendered.  The resulting images, along with geometric
//! information derived from the original volume, are used as the source data
//! for an IBR rendering engine." — the per-frame, incremental rendering uses
//! "the precomputed imagery as two dimensional textures which are
//! texture-mapped onto geometry derived from the geometry of the slab
//! decomposition, then rendered in depth order."
//!
//! [`IbravrModel`] holds that precomputed imagery plus slab geometry, turns
//! it into scene-graph nodes, composites it from arbitrary views with the
//! software rasterizer, and measures the off-axis artifact error of Figure 6
//! against a ground-truth volume rendering.

use crate::node::{Quad3, SceneNode};
use crate::raster::{RasterSettings, Rasterizer};
use volren::{
    decompose, render_region, render_view, Axis, RenderSettings, RgbaImage, TransferFunction, ViewOrientation, Volume,
};

/// One slab's worth of IBR source imagery.
#[derive(Debug, Clone, PartialEq)]
pub struct SlabImage {
    /// Index of the slab along the decomposition axis (0 = lowest coordinate).
    pub slab_index: usize,
    /// The rendered slab texture.
    pub image: RgbaImage,
    /// Centre of the slab along the decomposition axis, in voxel coordinates.
    pub center_along_axis: f32,
    /// Optional per-texel depth offsets (the quad-mesh extension of \[14\]);
    /// `None` renders the slab as a flat quad.
    pub depth_offsets: Option<Vec<f32>>,
}

/// The viewer-side IBRAVR model: slab imagery plus the geometry to hang it on.
#[derive(Debug, Clone, PartialEq)]
pub struct IbravrModel {
    /// The axis the slabs are perpendicular to.
    pub axis: Axis,
    /// Dimensions of the source volume in voxels.
    pub volume_dims: (usize, usize, usize),
    /// The slabs, in slab-index order.
    pub slabs: Vec<SlabImage>,
}

impl IbravrModel {
    /// An empty model for a volume of the given dimensions.
    pub fn new(axis: Axis, volume_dims: (usize, usize, usize)) -> Self {
        IbravrModel {
            axis,
            volume_dims,
            slabs: Vec::new(),
        }
    }

    /// Render every slab of `volume` along `axis` and build the model — the
    /// single-process equivalent of what the parallel back end produces one
    /// slab per PE, cut by the same `volren::slab_planes` rule.  Panics if
    /// `slabs` exceeds the planes along `axis` (a slab would be empty).
    pub fn from_volume(
        volume: &Volume,
        axis: Axis,
        slabs: usize,
        transfer: &TransferFunction,
        settings: &RenderSettings,
    ) -> Self {
        let dims = volume.dims();
        let regions = decompose(dims, slabs, axis);
        let range = volume.value_range();
        let mut model = IbravrModel::new(axis, dims);
        for (i, region) in regions.iter().enumerate() {
            let sub = volume.subvolume(region.origin, region.dims);
            let image = render_region(&sub, axis, transfer, range, settings);
            let (origin, size) = match axis {
                Axis::X => (region.origin.0, region.dims.0),
                Axis::Y => (region.origin.1, region.dims.1),
                Axis::Z => (region.origin.2, region.dims.2),
            };
            model.slabs.push(SlabImage {
                slab_index: i,
                image,
                center_along_axis: origin as f32 + size as f32 / 2.0 - 0.5,
                depth_offsets: None,
            });
        }
        model
    }

    /// Number of slabs.
    pub fn slab_count(&self) -> usize {
        self.slabs.len()
    }

    /// Total bytes of IBR source imagery — the viewer-side "object database"
    /// that is O(n²) in the volume resolution.
    pub fn payload_bytes(&self) -> u64 {
        self.slabs.iter().map(|s| s.image.byte_len() as u64).sum()
    }

    /// The quad a slab's texture is mapped onto: perpendicular to the
    /// decomposition axis, centred on the volume, at the slab's position.
    pub fn slab_quad(&self, slab: &SlabImage) -> Quad3 {
        let (nx, ny, nz) = (
            self.volume_dims.0 as f32,
            self.volume_dims.1 as f32,
            self.volume_dims.2 as f32,
        );
        let center_xyz = [(nx - 1.0) / 2.0, (ny - 1.0) / 2.0, (nz - 1.0) / 2.0];
        match self.axis {
            Axis::X => Quad3::axis_aligned(
                0,
                [slab.center_along_axis, center_xyz[1], center_xyz[2]],
                ny / 2.0,
                nz / 2.0,
            ),
            Axis::Y => Quad3::axis_aligned(
                1,
                [center_xyz[0], slab.center_along_axis, center_xyz[2]],
                nx / 2.0,
                nz / 2.0,
            ),
            Axis::Z => Quad3::axis_aligned(
                2,
                [center_xyz[0], center_xyz[1], slab.center_along_axis],
                nx / 2.0,
                ny / 2.0,
            ),
        }
    }

    /// Convert the model into scene-graph nodes (one textured quad per slab,
    /// or a quad mesh when depth offsets are present).
    pub fn to_scene_nodes(&self) -> Vec<SceneNode> {
        self.slabs
            .iter()
            .map(|s| {
                let quad = self.slab_quad(s);
                match &s.depth_offsets {
                    Some(offsets) => {
                        let side = (offsets.len() as f32).sqrt().round() as usize;
                        SceneNode::QuadMesh {
                            image: s.image.clone().into(),
                            quad,
                            offsets: offsets.clone(),
                            mesh_dims: (side.max(1), side.max(1)),
                        }
                    }
                    None => SceneNode::TextureQuad {
                        image: s.image.clone().into(),
                        quad,
                    },
                }
            })
            .collect()
    }

    /// Composite the slab imagery from a view orientation using the software
    /// rasterizer (depth-sorted alpha blending of the textured quads).
    pub fn composite(&self, view: &ViewOrientation, width: usize, height: usize) -> RgbaImage {
        let nodes = self.to_scene_nodes();
        let raster = Rasterizer::new(view, RasterSettings::framing_volume(self.volume_dims, width, height));
        raster.render(&nodes)
    }

    /// The axis the model *should* use for the given view (the viewer
    /// transmits this to the back end; §3.3's axis-switching remedy).
    pub fn preferred_axis(view: &ViewOrientation) -> Axis {
        view.best_axis()
    }

    /// Whether the model's slabs need to be re-rendered along a different
    /// axis to stay inside the artifact-free cone for this view.
    pub fn needs_axis_switch(&self, view: &ViewOrientation) -> bool {
        Self::preferred_axis(view) != self.axis
    }

    /// Measure the IBRAVR artifact error for a view: mean absolute pixel
    /// difference between the IBR composite and a ground-truth volume
    /// rendering of the same volume from the same view (Figure 6 /
    /// experiment E8).
    pub fn artifact_error(
        &self,
        volume: &Volume,
        view: &ViewOrientation,
        transfer: &TransferFunction,
        settings: &RenderSettings,
    ) -> f32 {
        let truth = render_view(volume, view, transfer, settings);
        let approx = self.composite(view, settings.image_width, settings.image_height);
        truth.mean_abs_diff(&approx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volren::combustion_jet;

    fn model_and_volume() -> (IbravrModel, Volume, TransferFunction, RenderSettings) {
        let volume = combustion_jet((32, 24, 24), 0.5, 11);
        let tf = TransferFunction::combustion_default();
        let settings = RenderSettings::with_size(48, 48);
        let model = IbravrModel::from_volume(&volume, Axis::Z, 4, &tf, &settings);
        (model, volume, tf, settings)
    }

    #[test]
    fn model_has_one_slab_per_partition() {
        let (model, ..) = model_and_volume();
        assert_eq!(model.slab_count(), 4);
        // Slab centres are ordered and inside the volume.
        for w in model.slabs.windows(2) {
            assert!(w[1].center_along_axis > w[0].center_along_axis);
        }
        assert!(model.slabs.iter().all(|s| s.center_along_axis < 24.0));
    }

    #[test]
    fn payload_is_quadratic_not_cubic() {
        let (model, volume, ..) = model_and_volume();
        let viewer_bytes = model.payload_bytes();
        let raw_bytes = volume.len() as u64 * 4;
        // 4 slabs of 48x48 RGBA floats-as-bytes is far smaller than the raw volume.
        assert!(viewer_bytes < raw_bytes, "viewer {viewer_bytes} raw {raw_bytes}");
    }

    #[test]
    fn scene_nodes_are_texture_quads_on_the_axis() {
        let (model, ..) = model_and_volume();
        let nodes = model.to_scene_nodes();
        assert_eq!(nodes.len(), 4);
        for node in &nodes {
            match node {
                SceneNode::TextureQuad { quad, .. } => {
                    // Z-aligned quads have zero extent in Z.
                    assert_eq!(quad.u[2], 0.0);
                    assert_eq!(quad.v[2], 0.0);
                }
                other => panic!("expected TextureQuad, got {other:?}"),
            }
        }
    }

    #[test]
    fn axis_aligned_composite_roughly_matches_ground_truth() {
        let (model, volume, tf, settings) = model_and_volume();
        let err = model.artifact_error(&volume, &ViewOrientation::axis_aligned(), &tf, &settings);
        assert!(err < 0.08, "axis-aligned IBRAVR error too large: {err}");
    }

    #[test]
    fn artifacts_grow_off_axis() {
        // The Figure 6 phenomenon: high fidelity near the axis, visible
        // artifacts as the model rotates away from it.
        let (model, volume, tf, settings) = model_and_volume();
        let on_axis = model.artifact_error(&volume, &ViewOrientation::axis_aligned(), &tf, &settings);
        let off_axis = model.artifact_error(&volume, &ViewOrientation::new(35.0, 0.0), &tf, &settings);
        assert!(
            off_axis > on_axis,
            "off-axis error {off_axis} should exceed on-axis error {on_axis}"
        );
    }

    #[test]
    fn axis_switching_triggers_past_45_degrees() {
        let (model, ..) = model_and_volume();
        assert!(!model.needs_axis_switch(&ViewOrientation::axis_aligned()));
        assert!(!model.needs_axis_switch(&ViewOrientation::new(30.0, 0.0)));
        assert!(model.needs_axis_switch(&ViewOrientation::new(60.0, 0.0)));
        assert_eq!(IbravrModel::preferred_axis(&ViewOrientation::new(60.0, 0.0)), Axis::X);
    }

    #[test]
    fn composite_is_fast_relative_to_volume_rendering() {
        // The whole point of IBR: compositing textures is much cheaper than
        // re-rendering the volume.  Compare rough wall-clock.
        let (model, volume, tf, settings) = model_and_volume();
        let view = ViewOrientation::new(10.0, 5.0);
        let t0 = std::time::Instant::now();
        for _ in 0..3 {
            let _ = model.composite(&view, settings.image_width, settings.image_height);
        }
        let ibr = t0.elapsed();
        let t1 = std::time::Instant::now();
        for _ in 0..3 {
            let _ = render_view(&volume, &view, &tf, &settings);
        }
        let full = t1.elapsed();
        assert!(
            full > ibr,
            "IBR compositing ({ibr:?}) should beat volume rendering ({full:?})"
        );
    }

    #[test]
    fn quad_mesh_variant_is_produced_when_offsets_present() {
        let (mut model, ..) = model_and_volume();
        model.slabs[0].depth_offsets = Some(vec![0.0; 16]);
        let nodes = model.to_scene_nodes();
        assert!(matches!(nodes[0], SceneNode::QuadMesh { .. }));
        assert!(matches!(nodes[1], SceneNode::TextureQuad { .. }));
    }
}
