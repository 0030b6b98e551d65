//! The twelve split-field components and their dependency metadata.
//!
//! Naming convention (paper Fig. 3): `Fab` is the split part of vector
//! component `a` of field `F` that is *sourced by* component `b` of the
//! other field. The finite-difference derivative runs along the third axis
//! `d` with `{a, b, d} = {x, y, z}`, and the sign of the curl term is the
//! Levi-Civita symbol `eps(a, d, b)`.
//!
//! The paper's red bracket labels are reproduced exactly by
//! [`Component::deriv_axis`] + [`Component::offset_dir`]:
//! `Hyx [z-], Hyz [x-], Hzx [y-], Hzy [x-], Hxy [z-], Hxz [y-]` and
//! `Eyx [z+], Eyz [x+], Ezx [y+], Ezy [x+], Exy [z+], Exz [y+]`.

/// Spatial axis. `X` is the fast/contiguous dimension, `Y` the diamond
/// tiling dimension, `Z` the wavefront dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Axis {
    X,
    Y,
    Z,
}

impl Axis {
    pub const ALL: [Axis; 3] = [Axis::X, Axis::Y, Axis::Z];

    /// The remaining axis given two distinct axes.
    pub fn third(a: Axis, b: Axis) -> Axis {
        assert_ne!(a, b, "axes must be distinct");
        *Axis::ALL
            .iter()
            .find(|&&c| c != a && c != b)
            .expect("exactly one axis remains")
    }

    /// Levi-Civita symbol eps(a, b, c): +1 for cyclic (x,y,z), -1 for
    /// anti-cyclic, 0 with repeats.
    pub fn levi_civita(a: Axis, b: Axis, c: Axis) -> i32 {
        use Axis::*;
        match (a, b, c) {
            (X, Y, Z) | (Y, Z, X) | (Z, X, Y) => 1,
            (X, Z, Y) | (Z, Y, X) | (Y, X, Z) => -1,
            _ => 0,
        }
    }

    pub fn index(self) -> usize {
        match self {
            Axis::X => 0,
            Axis::Y => 1,
            Axis::Z => 2,
        }
    }
}

/// Which of the two coupled fields a component belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FieldKind {
    /// Electric field, updated second in each time step, reads H at `+1`
    /// offsets (forward difference on the staggered grid).
    E,
    /// Magnetic field, updated first in each time step, reads E at `-1`
    /// offsets (backward difference).
    H,
}

impl FieldKind {
    pub fn other(self) -> FieldKind {
        match self {
            FieldKind::E => FieldKind::H,
            FieldKind::H => FieldKind::E,
        }
    }

    /// Offset direction of the neighbor read: +1 for E, -1 for H.
    pub fn offset_dir(self) -> isize {
        match self {
            FieldKind::E => 1,
            FieldKind::H => -1,
        }
    }
}

/// A *total* (unsplit) vector component such as `E_x = Exy + Exz`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TotalComponent {
    pub kind: FieldKind,
    pub axis: Axis,
}

impl TotalComponent {
    /// The two split parts whose sum is this total component.
    pub fn splits(self) -> [Component; 2] {
        let mut out = [Component::Exy; 2];
        let mut n = 0;
        for c in Component::ALL {
            if c.field_kind() == self.kind && c.axis() == self.axis {
                out[n] = c;
                n += 1;
            }
        }
        assert_eq!(n, 2, "every total component has exactly two split parts");
        out
    }
}

/// The four domain-sized source arrays. Only the four components whose
/// derivative runs along z carry a source term (the plane-wave drive is
/// vertical), yielding the paper's 4*3 + 8*2 = 28 coefficient arrays.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SourceArray {
    SrcHx,
    SrcHy,
    SrcEx,
    SrcEy,
}

impl SourceArray {
    pub const ALL: [SourceArray; 4] = [
        SourceArray::SrcHx,
        SourceArray::SrcHy,
        SourceArray::SrcEx,
        SourceArray::SrcEy,
    ];

    /// Position in [`Self::ALL`]: the discriminant.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One of the twelve split-field components.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Component {
    Exy,
    Exz,
    Eyx,
    Eyz,
    Ezx,
    Ezy,
    Hxy,
    Hxz,
    Hyx,
    Hyz,
    Hzx,
    Hzy,
}

impl Component {
    pub const ALL: [Component; 12] = [
        Component::Exy,
        Component::Exz,
        Component::Eyx,
        Component::Eyz,
        Component::Ezx,
        Component::Ezy,
        Component::Hxy,
        Component::Hxz,
        Component::Hyx,
        Component::Hyz,
        Component::Hzx,
        Component::Hzy,
    ];

    /// The six electric split components, in update order.
    pub const E_ALL: [Component; 6] = [
        Component::Exy,
        Component::Exz,
        Component::Eyx,
        Component::Eyz,
        Component::Ezx,
        Component::Ezy,
    ];

    /// The six magnetic split components, in update order.
    pub const H_ALL: [Component; 6] = [
        Component::Hxy,
        Component::Hxz,
        Component::Hyx,
        Component::Hyz,
        Component::Hzx,
        Component::Hzy,
    ];

    pub fn of(kind: FieldKind) -> [Component; 6] {
        match kind {
            FieldKind::E => Self::E_ALL,
            FieldKind::H => Self::H_ALL,
        }
    }

    /// Stable dense index 0..12 (E components first): the discriminant,
    /// which is the position in [`Self::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn field_kind(self) -> FieldKind {
        use Component::*;
        match self {
            Exy | Exz | Eyx | Eyz | Ezx | Ezy => FieldKind::E,
            _ => FieldKind::H,
        }
    }

    /// First subscript: the vector component this array contributes to.
    pub fn axis(self) -> Axis {
        use Component::*;
        match self {
            Exy | Exz | Hxy | Hxz => Axis::X,
            Eyx | Eyz | Hyx | Hyz => Axis::Y,
            Ezx | Ezy | Hzx | Hzy => Axis::Z,
        }
    }

    /// Second subscript: the source component of the *other* field.
    pub fn src_axis(self) -> Axis {
        use Component::*;
        match self {
            Eyx | Ezx | Hyx | Hzx => Axis::X,
            Exy | Ezy | Hxy | Hzy => Axis::Y,
            Exz | Eyz | Hxz | Hyz => Axis::Z,
        }
    }

    /// The finite-difference axis: the third axis besides `axis` and
    /// `src_axis`. Determines the stencil offset direction of this update.
    pub fn deriv_axis(self) -> Axis {
        Axis::third(self.axis(), self.src_axis())
    }

    /// Offset direction of the neighbor read along `deriv_axis`:
    /// -1 for H components (backward), +1 for E (forward).
    pub fn offset_dir(self) -> isize {
        self.field_kind().offset_dir()
    }

    /// Curl sign eps(axis, deriv_axis, src_axis) applied to the difference
    /// term; see Listings 1-2 of the paper for the two H conventions this
    /// reproduces.
    pub fn curl_sign(self) -> f64 {
        Axis::levi_civita(self.axis(), self.deriv_axis(), self.src_axis()) as f64
    }

    /// The total component this update reads: the opposite field's
    /// `src_axis` component (both split parts are summed in the kernel).
    pub fn source_total(self) -> TotalComponent {
        TotalComponent {
            kind: self.field_kind().other(),
            axis: self.src_axis(),
        }
    }

    /// The two arrays read by this update (e.g. `Hyx` reads `Exy` and `Exz`).
    pub fn source_splits(self) -> [Component; 2] {
        self.source_total().splits()
    }

    /// The source array added by this update, if any. Exactly the four
    /// z-derivative components carry one (paper Listing 1 vs Listing 2).
    pub fn source_array(self) -> Option<SourceArray> {
        if self.deriv_axis() != Axis::Z {
            return None;
        }
        Some(match (self.field_kind(), self.axis()) {
            (FieldKind::H, Axis::X) => SourceArray::SrcHx,
            (FieldKind::H, Axis::Y) => SourceArray::SrcHy,
            (FieldKind::E, Axis::X) => SourceArray::SrcEx,
            (FieldKind::E, Axis::Y) => SourceArray::SrcEy,
            _ => unreachable!("z-axis components never have a z derivative"),
        })
    }

    /// Number of coefficient arrays this update reads (Listing 1: 3 with
    /// the source, Listing 2: 2 without).
    pub fn coeff_arrays(self) -> usize {
        if self.source_array().is_some() {
            3
        } else {
            2
        }
    }

    /// Floating-point operations performed per cell by this update:
    /// 22 for Listing-1-type updates (with source), 20 for Listing-2-type.
    pub fn flops(self) -> usize {
        if self.source_array().is_some() {
            22
        } else {
            20
        }
    }

    pub fn name(self) -> &'static str {
        use Component::*;
        match self {
            Exy => "Exy",
            Exz => "Exz",
            Eyx => "Eyx",
            Eyz => "Eyz",
            Ezx => "Ezx",
            Ezy => "Ezy",
            Hxy => "Hxy",
            Hxz => "Hxz",
            Hyx => "Hyx",
            Hyz => "Hyz",
            Hzx => "Hzx",
            Hzy => "Hzy",
        }
    }
}

impl std::fmt::Display for Component {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_components_six_per_field() {
        assert_eq!(Component::ALL.len(), 12);
        assert_eq!(
            Component::E_ALL
                .iter()
                .filter(|c| c.field_kind() == FieldKind::E)
                .count(),
            6
        );
        assert_eq!(
            Component::H_ALL
                .iter()
                .filter(|c| c.field_kind() == FieldKind::H)
                .count(),
            6
        );
    }

    #[test]
    fn indices_are_dense_and_stable() {
        // `index()` is the discriminant cast; the tables indexed by it
        // are laid out in `ALL` order, E first.
        for (i, c) in Component::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, s) in SourceArray::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        assert_eq!(Component::ALL[..6], Component::E_ALL);
        assert_eq!(Component::ALL[6..], Component::H_ALL);
    }

    #[test]
    fn paper_fig3_offset_labels() {
        use Axis::*;
        use Component::*;
        // H components: Hyx [z-], Hyz [x-], Hzx [y-], Hzy [x-], Hxy [z-], Hxz [y-]
        let h_expect = [(Hyx, Z), (Hyz, X), (Hzx, Y), (Hzy, X), (Hxy, Z), (Hxz, Y)];
        for (c, ax) in h_expect {
            assert_eq!(c.deriv_axis(), ax, "{c}");
            assert_eq!(c.offset_dir(), -1, "{c}");
        }
        // E components: Eyx [z+], Eyz [x+], Ezx [y+], Ezy [x+], Exy [z+], Exz [y+]
        let e_expect = [(Eyx, Z), (Eyz, X), (Ezx, Y), (Ezy, X), (Exy, Z), (Exz, Y)];
        for (c, ax) in e_expect {
            assert_eq!(c.deriv_axis(), ax, "{c}");
            assert_eq!(c.offset_dir(), 1, "{c}");
        }
    }

    #[test]
    fn source_splits_sum_to_total_component() {
        use Component::*;
        // Hyx reads E_x = Exy + Exz (Listing 1).
        assert_eq!(Hyx.source_splits(), [Exy, Exz]);
        // Hzx also reads E_x (Listing 2).
        assert_eq!(Hzx.source_splits(), [Exy, Exz]);
        // Exy reads H_y = Hyx + Hyz.
        assert_eq!(Exy.source_splits(), [Hyx, Hyz]);
        for c in Component::ALL {
            let [s1, s2] = c.source_splits();
            assert_eq!(s1.field_kind(), c.field_kind().other());
            assert_eq!(s2.field_kind(), c.field_kind().other());
            assert_eq!(s1.axis(), c.src_axis());
            assert_eq!(s2.axis(), c.src_axis());
            assert_ne!(s1, s2);
        }
    }

    #[test]
    fn each_x_halo_of_a_kind_has_one_reading_component() {
        // Periodic-x MWD lets the x-derivative component's update write
        // the source halo it reads: that needs exactly two such
        // components per kind, reading distinct source totals.
        for kind in [FieldKind::E, FieldKind::H] {
            let along_x: Vec<_> = Component::of(kind)
                .into_iter()
                .filter(|c| c.deriv_axis() == Axis::X)
                .collect();
            assert_eq!(along_x.len(), 2, "{kind:?}");
            assert_ne!(along_x[0].source_total(), along_x[1].source_total());
        }
    }

    #[test]
    fn exactly_four_components_have_sources() {
        use Component::*;
        let with_src: Vec<_> = Component::ALL
            .iter()
            .filter(|c| c.source_array().is_some())
            .collect();
        assert_eq!(with_src.len(), 4);
        assert_eq!(Hyx.source_array(), Some(SourceArray::SrcHy));
        assert_eq!(Hxy.source_array(), Some(SourceArray::SrcHx));
        assert_eq!(Eyx.source_array(), Some(SourceArray::SrcEy));
        assert_eq!(Exy.source_array(), Some(SourceArray::SrcEx));
    }

    #[test]
    fn coefficient_array_count_matches_paper() {
        // Sec. III: 4*3 + 8*2 = 28 domain-sized coefficient arrays.
        let total: usize = Component::ALL.iter().map(|c| c.coeff_arrays()).sum();
        assert_eq!(total, 28);
    }

    #[test]
    fn flop_count_matches_paper() {
        // Sec. III-A: 4*22 + 8*20 = 248 flops per lattice-site update.
        let total: usize = Component::ALL.iter().map(|c| c.flops()).sum();
        assert_eq!(total, 248);
    }

    #[test]
    fn curl_signs_match_listings() {
        use Component::*;
        // Listing 1 (Hyx): update subtracts c*(center - neighbor) => sign +1.
        assert_eq!(Hyx.curl_sign(), 1.0);
        // Listing 2 (Hzx): update subtracts c*(neighbor - center) => sign -1
        // under the same (center - neighbor) difference convention.
        assert_eq!(Hzx.curl_sign(), -1.0);
        // Every sign is +-1, never 0 (axes always distinct).
        for c in Component::ALL {
            assert!(c.curl_sign().abs() == 1.0, "{c}");
        }
        // Curl structure: the two split parts of the same total component
        // carry opposite signs with derivative axes swapped.
        for kind in [FieldKind::E, FieldKind::H] {
            for axis in Axis::ALL {
                let [a, b] = TotalComponent { kind, axis }.splits();
                assert_eq!(a.curl_sign() * b.curl_sign(), -1.0, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn levi_civita_table() {
        use Axis::*;
        assert_eq!(Axis::levi_civita(X, Y, Z), 1);
        assert_eq!(Axis::levi_civita(Z, X, Y), 1);
        assert_eq!(Axis::levi_civita(Y, X, Z), -1);
        assert_eq!(Axis::levi_civita(X, X, Z), 0);
    }

    #[test]
    fn third_axis_is_the_remaining_one() {
        use Axis::*;
        assert_eq!(Axis::third(X, Y), Z);
        assert_eq!(Axis::third(Z, X), Y);
        assert_eq!(Axis::third(Y, Z), X);
    }

    #[test]
    #[should_panic(expected = "axes must be distinct")]
    fn third_axis_rejects_equal() {
        let _ = Axis::third(Axis::X, Axis::X);
    }
}
