//! SIMD row kernels with runtime ISA dispatch.
//!
//! The THIIM cell update is an independent, fixed-order mul/add sequence
//! per cell — no reductions, no horizontal operations. On the split
//! re/im layout every operand of a row is unit-stride, so the update
//! maps onto vector lanes as N independent copies of the scalar
//! computation. Because every kernel below performs *exactly* the same
//! IEEE-754 operations in *exactly* the same order per cell (no FMA
//! contraction, no reassociation), the SIMD paths are bit-for-bit
//! identical to the scalar path — which is what lets the existing
//! bitwise naive-vs-engines oracle keep pinning every engine on every
//! instruction set (`tests/simd_parity.rs` proves it property-wise).
//!
//! Dispatch happens once per process via [`active_isa`]
//! (`is_x86_feature_detected!`, overridable with the `MWD_SIMD`
//! environment variable) and is carried on [`crate::RawGrid`], so the
//! per-row cost is a single predictable branch.

use std::sync::OnceLock;

use crate::raw::CoeffRows;

/// Widest vector width in doubles any dispatched path uses (AVX-512,
/// one cache line). Defined as [`em_field::LANE_F64`] — the same unit
/// `Array3C` rounds its plane stride to — so lane-aligned offsets from a
/// plane base stay aligned by construction. Engines that chunk the x
/// dimension align chunk boundaries to this so whole chunks execute
/// without scalar tails.
pub const LANE_WIDTH: usize = em_field::LANE_F64;

/// Chunk width of the portable scalar fallback: grouped lanes that LLVM
/// can auto-vectorize on any target while keeping per-lane bit-parity.
const SCALAR_CHUNK: usize = 4;

/// Instruction set of the row kernels, in increasing capability order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// Portable chunked-lane scalar code (any target).
    Scalar,
    /// 256-bit AVX2, 4 doubles per lane group.
    Avx2,
    /// 512-bit AVX-512F, 8 doubles per lane group.
    Avx512,
}

impl Isa {
    /// Doubles processed per vector iteration.
    pub fn lanes(self) -> usize {
        match self {
            Isa::Scalar => 1,
            Isa::Avx2 => 4,
            Isa::Avx512 => 8,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    fn parse(s: &str) -> Option<Isa> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Isa::Scalar),
            "avx2" => Some(Isa::Avx2),
            "avx512" | "avx512f" => Some(Isa::Avx512),
            _ => None,
        }
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Best instruction set this CPU supports, probed once.
pub fn detected_isa() -> Isa {
    static DETECTED: OnceLock<Isa> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                Isa::Avx512
            } else if std::arch::is_x86_feature_detected!("avx2") {
                Isa::Avx2
            } else {
                Isa::Scalar
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Isa::Scalar
        }
    })
}

/// The instruction set new [`crate::RawGrid`]s dispatch to: the detected
/// one, optionally *lowered* by the `MWD_SIMD` environment variable
/// (`scalar` / `avx2` / `avx512`). A request the CPU cannot satisfy is
/// clamped down to the detected level; unknown values are ignored.
pub fn active_isa() -> Isa {
    static ACTIVE: OnceLock<Isa> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let detected = detected_isa();
        match std::env::var("MWD_SIMD").ok().and_then(|v| Isa::parse(&v)) {
            Some(requested) => requested.min(detected),
            None => detected,
        }
    })
}

/// A rectangular span of one component update: `nz * ny` x-rows of `n`
/// cells each. The field pointers are advanced to the span origin
/// `(x0, y0, z0)` in the *re* plane; the im plane of each lives at
/// `+ im` doubles, row `(yi, zi)` at `+ yi*y_stride + zi*z_stride`.
/// `s1n`/`s2n` are the stencil-shifted views of the two source-split
/// arrays. The coefficient operands are row tables ([`CoeffRows`])
/// advanced to the same origin: row `(yi, zi)` is index entry
/// `yi + zi*rows_per_plane`. Kernels take whole spans (not single rows)
/// so the ISA dispatch, pointer setup and function-call overhead are
/// amortized over the full loop nest — with short rows that overhead
/// otherwise rivals the arithmetic.
pub(crate) struct Span {
    pub dst: *mut f64,
    pub t: CoeffRows,
    pub c: CoeffRows,
    /// [`CoeffRows::NONE`] iff the kernel is monomorphized with
    /// `HAS_SRC = false`.
    pub src: CoeffRows,
    pub s1c: *const f64,
    pub s1n: *const f64,
    pub s2c: *const f64,
    pub s2n: *const f64,
    /// f64 distance from re plane to im plane (shared by all fields).
    pub im: usize,
    /// Cells per x-row.
    pub n: usize,
    /// Rows along y.
    pub ny: usize,
    /// Planes along z.
    pub nz: usize,
    /// f64 distance between consecutive y rows.
    pub y_stride: usize,
    /// f64 distance between consecutive z planes.
    pub z_stride: usize,
    /// Coefficient row-index entries between consecutive z planes.
    pub rows_per_plane: usize,
}

/// One x-row of a [`Span`], every operand resolved to the row's first
/// cell — the coefficient rows through their tables, once, outside the
/// x loop.
struct Row {
    dst: *mut f64,
    s1c: *const f64,
    s1n: *const f64,
    s2c: *const f64,
    s2n: *const f64,
    /// re -> im distance of the five field operands.
    im: usize,
    t: *const f64,
    t_im: usize,
    c: *const f64,
    c_im: usize,
    /// Null iff `HAS_SRC = false`.
    src: *const f64,
    src_im: usize,
}

impl Span {
    /// # Safety
    /// `yi < ny`, `zi < nz`; pointers per the `RawGrid` contract.
    #[inline(always)]
    unsafe fn row<const HAS_SRC: bool>(&self, yi: usize, zi: usize) -> Row {
        let o = zi * self.z_stride + yi * self.y_stride;
        let r = zi * self.rows_per_plane + yi;
        Row {
            dst: self.dst.add(o),
            s1c: self.s1c.add(o),
            s1n: self.s1n.add(o),
            s2c: self.s2c.add(o),
            s2n: self.s2n.add(o),
            im: self.im,
            t: self.t.row(r),
            t_im: self.t.im,
            c: self.c.row(r),
            c_im: self.c.im,
            src: if HAS_SRC {
                self.src.row(r)
            } else {
                std::ptr::null()
            },
            src_im: self.src.im,
        }
    }
}

/// The scalar cell update at cell `i` of a row: the paper's Listing 1/2
/// body on split planes. Every other kernel in this module reproduces
/// exactly this operation order per lane.
///
/// # Safety
/// `i` in-row, and the `Row` pointers must satisfy the `RawGrid`
/// contract.
#[inline(always)]
unsafe fn cell<const NEG: bool, const HAS_SRC: bool>(r: &Row, i: usize) -> (f64, f64) {
    let j = r.im + i;
    // D = center - neighbor, summed over the two split parts
    // (left-to-right: ((s1c - s1n) + s2c) - s2n, as in the C code).
    let d_re = *r.s1c.add(i) - *r.s1n.add(i) + *r.s2c.add(i) - *r.s2n.add(i);
    let d_im = *r.s1c.add(j) - *r.s1n.add(j) + *r.s2c.add(j) - *r.s2n.add(j);

    let dr = *r.dst.add(i);
    let di = *r.dst.add(j);
    let tr = *r.t.add(i);
    let ti = *r.t.add(r.t_im + i);
    let cr = *r.c.add(i);
    let ci = *r.c.add(r.c_im + i);

    // dst*t (complex), plus optional source.
    let mut re = dr * tr - di * ti;
    let mut imv = dr * ti + di * tr;
    if HAS_SRC {
        re += *r.src.add(i);
        imv += *r.src.add(r.src_im + i);
    }
    // -+ c*D (complex), sign chosen at compile time.
    if NEG {
        // curl sign -1: dst += c*D
        re += cr * d_re - ci * d_im;
        imv += cr * d_im + ci * d_re;
    } else {
        // curl sign +1: dst -= c*D  (Listing 1 form)
        re -= cr * d_re - ci * d_im;
        imv -= cr * d_im + ci * d_re;
    }
    (re, imv)
}

/// Scalar cells `[start, n)` of a row: lanes grouped in chunks of
/// [`SCALAR_CHUNK`] with all loads preceding all stores, which
/// auto-vectorizes on any target. Also the tail handler of the wide
/// paths.
///
/// # Safety
/// `start <= n`, `n` the span's row length; pointers per the `RawGrid`
/// contract.
#[inline(always)]
unsafe fn scalar_row_from<const NEG: bool, const HAS_SRC: bool>(r: &Row, n: usize, start: usize) {
    let mut i = start;
    while i + SCALAR_CHUNK <= n {
        let mut re = [0.0f64; SCALAR_CHUNK];
        let mut imv = [0.0f64; SCALAR_CHUNK];
        for l in 0..SCALAR_CHUNK {
            (re[l], imv[l]) = cell::<NEG, HAS_SRC>(r, i + l);
        }
        for l in 0..SCALAR_CHUNK {
            *r.dst.add(i + l) = re[l];
            *r.dst.add(r.im + i + l) = imv[l];
        }
        i += SCALAR_CHUNK;
    }
    while i < n {
        let (re, imv) = cell::<NEG, HAS_SRC>(r, i);
        *r.dst.add(i) = re;
        *r.dst.add(r.im + i) = imv;
        i += 1;
    }
}

/// Portable span kernel: the chunked-lane scalar rows over the nest.
///
/// # Safety
/// `Span` pointers per the `RawGrid` contract.
unsafe fn span_scalar<const NEG: bool, const HAS_SRC: bool>(s: &Span) {
    for zi in 0..s.nz {
        for yi in 0..s.ny {
            scalar_row_from::<NEG, HAS_SRC>(&s.row::<HAS_SRC>(yi, zi), s.n, 0);
        }
    }
}

/// Generate a `target_feature`-gated vector span kernel from the
/// intrinsic names of one register width. The row body is a
/// lane-parallel transcription of [`cell`] with identical operation
/// order (loads, two complex multiplies, optional source add, signed
/// curl update) and NO fused multiply-add, so each lane computes the
/// scalar bits; ragged row ends fall back to [`scalar_row_from`].
#[cfg(target_arch = "x86_64")]
macro_rules! vector_span_kernel {
    ($name:ident, $feature:literal, $lanes:expr, $load:ident, $store:ident,
     $add:ident, $sub:ident, $mul:ident) => {
        /// # Safety
        /// Caller must ensure the CPU supports the gated feature and the
        /// `Span` pointers satisfy the `RawGrid` contract.
        #[target_feature(enable = $feature)]
        unsafe fn $name<const NEG: bool, const HAS_SRC: bool>(s: &Span) {
            use std::arch::x86_64::*;
            const L: usize = $lanes;
            for zi in 0..s.nz {
                for yi in 0..s.ny {
                    let r = s.row::<HAS_SRC>(yi, zi);
                    let mut i = 0usize;
                    while i + L <= s.n {
                        let j = r.im + i;
                        let d_re = $sub(
                            $add(
                                $sub($load(r.s1c.add(i)), $load(r.s1n.add(i))),
                                $load(r.s2c.add(i)),
                            ),
                            $load(r.s2n.add(i)),
                        );
                        let d_im = $sub(
                            $add(
                                $sub($load(r.s1c.add(j)), $load(r.s1n.add(j))),
                                $load(r.s2c.add(j)),
                            ),
                            $load(r.s2n.add(j)),
                        );

                        let dr = $load(r.dst.add(i).cast_const());
                        let di = $load(r.dst.add(j).cast_const());
                        let tr = $load(r.t.add(i));
                        let ti = $load(r.t.add(r.t_im + i));
                        let cr = $load(r.c.add(i));
                        let ci = $load(r.c.add(r.c_im + i));

                        let mut re = $sub($mul(dr, tr), $mul(di, ti));
                        let mut imv = $add($mul(dr, ti), $mul(di, tr));
                        if HAS_SRC {
                            re = $add(re, $load(r.src.add(i)));
                            imv = $add(imv, $load(r.src.add(r.src_im + i)));
                        }
                        let cd_re = $sub($mul(cr, d_re), $mul(ci, d_im));
                        let cd_im = $add($mul(cr, d_im), $mul(ci, d_re));
                        if NEG {
                            re = $add(re, cd_re);
                            imv = $add(imv, cd_im);
                        } else {
                            re = $sub(re, cd_re);
                            imv = $sub(imv, cd_im);
                        }
                        $store(r.dst.add(i), re);
                        $store(r.dst.add(j), imv);
                        i += L;
                    }
                    scalar_row_from::<NEG, HAS_SRC>(&r, s.n, i);
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
vector_span_kernel!(
    span_avx2,
    "avx2",
    4,
    _mm256_loadu_pd,
    _mm256_storeu_pd,
    _mm256_add_pd,
    _mm256_sub_pd,
    _mm256_mul_pd
);

#[cfg(target_arch = "x86_64")]
vector_span_kernel!(
    span_avx512,
    "avx512f",
    8,
    _mm512_loadu_pd,
    _mm512_storeu_pd,
    _mm512_add_pd,
    _mm512_sub_pd,
    _mm512_mul_pd
);

/// Update one span through the selected instruction set.
///
/// # Safety
/// `Span` pointers per the `RawGrid` contract; `isa` must not exceed
/// what the CPU supports (guaranteed when it comes from [`active_isa`]
/// or is clamped by it).
#[inline]
pub(crate) unsafe fn span_update<const NEG: bool, const HAS_SRC: bool>(isa: Isa, s: &Span) {
    match isa {
        Isa::Scalar => span_scalar::<NEG, HAS_SRC>(s),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => span_avx2::<NEG, HAS_SRC>(s),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => span_avx512::<NEG, HAS_SRC>(s),
        #[cfg(not(target_arch = "x86_64"))]
        _ => span_scalar::<NEG, HAS_SRC>(s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isa_ordering_and_lanes() {
        assert!(Isa::Scalar < Isa::Avx2 && Isa::Avx2 < Isa::Avx512);
        assert_eq!(Isa::Scalar.lanes(), 1);
        assert_eq!(Isa::Avx2.lanes(), 4);
        assert_eq!(Isa::Avx512.lanes(), 8);
        assert_eq!(Isa::Avx512.lanes(), LANE_WIDTH);
    }

    #[test]
    fn parse_accepts_known_names() {
        assert_eq!(Isa::parse("scalar"), Some(Isa::Scalar));
        assert_eq!(Isa::parse(" AVX2 "), Some(Isa::Avx2));
        assert_eq!(Isa::parse("avx512f"), Some(Isa::Avx512));
        assert_eq!(Isa::parse("neon"), None);
    }

    #[test]
    fn active_isa_never_exceeds_detected() {
        assert!(active_isa() <= detected_isa());
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Isa::Avx2.to_string(), "avx2");
    }
}
