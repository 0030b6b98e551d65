//! Time-harmonic plane-wave source description.

use em_field::Axis;

/// A uniform transverse source sheet at one z plane, driving the chosen
/// electric polarization each time step (the steady forcing of the
/// time-harmonic iteration; the PML absorbs both outgoing directions).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SourceSpec {
    pub z_plane: usize,
    /// Real drive amplitude (the sheet has unit phase).
    pub amplitude: f64,
    /// `Axis::X` or `Axis::Y`.
    pub polarization: Axis,
}

impl SourceSpec {
    pub fn x_polarized(z_plane: usize, amplitude: f64) -> Self {
        SourceSpec {
            z_plane,
            amplitude,
            polarization: Axis::X,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_defaults() {
        let s = SourceSpec::x_polarized(10, 1.5);
        assert_eq!(s.z_plane, 10);
        assert_eq!(s.polarization, Axis::X);
        assert_eq!(s.amplitude, 1.5);
    }
}
