//! View orientations and best-axis selection.
//!
//! §3.3: "On a per-frame basis, the Visapult viewer computes the best view
//! axis, and transmits this information to the back end.  The back end uses
//! this information in order to select from either X-, Y-, or Z-axis aligned
//! data slabs for use in volume rendering."

/// A principal axis of the volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// The X axis.
    X,
    /// The Y axis.
    Y,
    /// The Z axis.
    Z,
}

impl Axis {
    /// All three axes.
    pub const ALL: [Axis; 3] = [Axis::X, Axis::Y, Axis::Z];

    /// Index into an (x, y, z) tuple.
    pub fn index(self) -> usize {
        match self {
            Axis::X => 0,
            Axis::Y => 1,
            Axis::Z => 2,
        }
    }

    /// Unit vector along the axis.
    pub fn unit(self) -> [f64; 3] {
        match self {
            Axis::X => [1.0, 0.0, 0.0],
            Axis::Y => [0.0, 1.0, 0.0],
            Axis::Z => [0.0, 0.0, 1.0],
        }
    }
}

/// A view orientation given as yaw (rotation about +Y) and pitch (rotation
/// about +X), in degrees.  Yaw = pitch = 0 looks down the −Z axis, the
/// canonical axis-aligned IBRAVR view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewOrientation {
    /// Rotation about the Y axis, degrees.
    pub yaw_deg: f64,
    /// Rotation about the X axis, degrees.
    pub pitch_deg: f64,
}

impl ViewOrientation {
    /// The canonical axis-aligned view (down −Z).
    pub fn axis_aligned() -> Self {
        ViewOrientation {
            yaw_deg: 0.0,
            pitch_deg: 0.0,
        }
    }

    /// A view rotated `yaw`/`pitch` degrees from the canonical one.
    pub fn new(yaw_deg: f64, pitch_deg: f64) -> Self {
        ViewOrientation { yaw_deg, pitch_deg }
    }

    /// The (unnormalized, toward-the-scene) view direction.
    pub fn view_direction(&self) -> [f64; 3] {
        let yaw = self.yaw_deg.to_radians();
        let pitch = self.pitch_deg.to_radians();
        // Start from (0,0,-1); rotate about X by pitch, then about Y by yaw.
        let (dx, dy, dz) = (0.0, 0.0, -1.0f64);
        // Pitch about X.
        let (dy, dz) = (dy * pitch.cos() - dz * pitch.sin(), dy * pitch.sin() + dz * pitch.cos());
        // Yaw about Y.
        let (dx, dz) = (dx * yaw.cos() + dz * yaw.sin(), -dx * yaw.sin() + dz * yaw.cos());
        [dx, dy, dz]
    }

    /// The axis most closely aligned with the view direction — the axis the
    /// viewer asks the back end to slab along.
    pub fn best_axis(&self) -> Axis {
        let d = self.view_direction();
        let ax = d[0].abs();
        let ay = d[1].abs();
        let az = d[2].abs();
        if az >= ax && az >= ay {
            Axis::Z
        } else if ay >= ax {
            Axis::Y
        } else {
            Axis::X
        }
    }

    /// Angle (degrees) between the view direction and the nearest principal
    /// axis: the off-axis angle that controls IBRAVR artifact severity
    /// (paper: artifact-free within a cone of about sixteen degrees).
    pub fn off_axis_angle(&self) -> f64 {
        let d = self.view_direction();
        let norm = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
        let best = self.best_axis().unit();
        let dot = (d[0] * best[0] + d[1] * best[1] + d[2] * best[2]).abs() / norm;
        dot.clamp(-1.0, 1.0).acos().to_degrees()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_view_is_z_aligned() {
        let v = ViewOrientation::axis_aligned();
        assert_eq!(v.best_axis(), Axis::Z);
        assert!(v.off_axis_angle() < 1e-9);
        let d = v.view_direction();
        assert!((d[2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn ninety_degree_yaw_switches_to_x() {
        let v = ViewOrientation::new(90.0, 0.0);
        assert_eq!(v.best_axis(), Axis::X);
        assert!(v.off_axis_angle() < 1e-6);
    }

    #[test]
    fn ninety_degree_pitch_switches_to_y() {
        let v = ViewOrientation::new(0.0, 90.0);
        assert_eq!(v.best_axis(), Axis::Y);
        assert!(v.off_axis_angle() < 1e-6);
    }

    #[test]
    fn off_axis_angle_grows_then_wraps_at_45_degrees() {
        let a10 = ViewOrientation::new(10.0, 0.0).off_axis_angle();
        let a30 = ViewOrientation::new(30.0, 0.0).off_axis_angle();
        let a44 = ViewOrientation::new(44.0, 0.0).off_axis_angle();
        assert!((a10 - 10.0).abs() < 1e-6);
        assert!((a30 - 30.0).abs() < 1e-6);
        assert!(a30 > a10);
        // Beyond 45° the nearest axis changes, so the off-axis angle falls
        // again — this is exactly the axis-switching remedy of §3.3.
        let a60 = ViewOrientation::new(60.0, 0.0).off_axis_angle();
        assert!((a60 - 30.0).abs() < 1e-6);
        assert!(a44 > a60);
    }

    #[test]
    fn sixteen_degree_cone_stays_on_one_axis() {
        for yaw in [-16.0, -8.0, 0.0, 8.0, 16.0] {
            let v = ViewOrientation::new(yaw, 0.0);
            assert_eq!(v.best_axis(), Axis::Z);
            assert!(v.off_axis_angle() <= 16.0 + 1e-9);
        }
    }

    #[test]
    fn axis_helpers() {
        assert_eq!(Axis::X.index(), 0);
        assert_eq!(Axis::Y.index(), 1);
        assert_eq!(Axis::Z.index(), 2);
        assert_eq!(Axis::ALL.len(), 3);
        assert_eq!(Axis::Z.unit(), [0.0, 0.0, 1.0]);
    }
}
