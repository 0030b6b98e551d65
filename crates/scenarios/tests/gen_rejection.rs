//! Rejection coverage for the generative subsystem: bad inputs are
//! *errors with a message naming the offence*, never panics.
//!
//! Three layers are exercised: degenerate `GenParams` ranges (refused
//! before any drawing happens), hand-corrupted generated specs fed back
//! through full validation (zero-thickness layers and friends), and
//! malformed TOML (errors carry the 1-based line number). A fuzz run
//! that would step nothing is refused too.

use em_scenarios::gen::{generate, run_fuzz, Family, FuzzOptions, GenParams, LAMBDA_BAND_NM};
use em_scenarios::spec::{ScenarioSpec, SceneDecl};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Inverted integer ranges are refused with a "degenerate" message
    /// naming the field, for every integer-range field.
    #[test]
    fn inverted_ranges_are_degenerate_errors(
        field_pick in 0usize..5,
        lo in 2usize..40,
        gap in 1usize..10,
    ) {
        let hi = lo - 1 - (gap - 1).min(lo - 1); // strictly below lo
        let base = GenParams::default();
        let (p, name) = match field_pick {
            0 => (GenParams { nx: (lo, hi), ..base }, "nx"),
            1 => (GenParams { ny: (lo, hi), ..base }, "ny"),
            2 => (GenParams { nz: (lo.max(20), hi), ..base }, "nz"),
            3 => (GenParams { layers: (lo, hi), ..base }, "layers"),
            _ => (GenParams { spheres: (lo, hi), ..base }, "spheres"),
        };
        let e = p.validate().expect_err("inverted range must be rejected");
        prop_assert!(e.contains("degenerate") && e.contains(name),
            "error should name `{}` as degenerate: {}", name, e);
        // generate() surfaces the same error instead of panicking.
        let g = generate(Family::Multilayer, 1, &p).expect_err("generate must refuse");
        prop_assert!(g.contains("degenerate"), "{}", g);
    }

    /// Wavelength ranges outside the material-fit band are refused with
    /// a message naming the calibrated band.
    #[test]
    fn out_of_band_wavelengths_are_rejected(
        below in 0usize..2,
        offset in 1.0f64..200.0,
    ) {
        let (band_lo, band_hi) = LAMBDA_BAND_NM;
        let mut lambda_nm = if below == 1 {
            (
                band_lo - offset,
                band_hi.min(band_lo - offset + 50.0).max(band_lo - offset),
            )
        } else {
            (band_hi + offset - 1.0, band_hi + offset)
        };
        // Keep the range itself well-formed so only the band check fires.
        if lambda_nm.0 > lambda_nm.1 {
            lambda_nm = (lambda_nm.1, lambda_nm.0);
        }
        let p = GenParams {
            lambda_nm,
            ..GenParams::default()
        };
        let e = p.validate().expect_err("out-of-band range must be rejected");
        prop_assert!(e.contains("calibrated band"), "{}", e);
    }

    /// Non-finite wavelength endpoints never panic the validator.
    #[test]
    fn non_finite_ranges_are_errors(pick in 0usize..3) {
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][pick];
        let p = GenParams {
            lambda_nm: (bad, 700.0),
            ..GenParams::default()
        };
        let e = p.validate().expect_err("non-finite endpoint must be rejected");
        prop_assert!(e.contains("lambda_nm"), "{}", e);
    }

    /// Zero- and negative-thickness layers injected into an otherwise
    /// valid generated spec fail validation with the layer index, and
    /// validation never panics on them.
    #[test]
    fn zero_thickness_layers_are_rejected(
        seed in 0u64..5_000,
        z in 1.0f64..10.0,
    ) {
        let mut spec = generate(Family::Multilayer, seed, &GenParams::tiny())
            .map_err(TestCaseError::fail)?;
        let SceneDecl::Explicit { layers, .. } = &mut spec.scene else {
            return Err(TestCaseError::fail("multilayer spec should be explicit"));
        };
        prop_assert!(!layers.is_empty(), "multilayer family always emits layers");
        layers[0].z_lo = z;
        layers[0].z_hi = z; // zero thickness
        let e = spec.validate().expect_err("zero-thickness layer must be rejected");
        prop_assert!(e.contains("[scene] layer #0") && e.contains("z_lo < z_hi"), "{}", e);
    }
}

#[test]
fn resolution_floor_is_enforced() {
    let p = GenParams {
        lambda_cells: (2.0, 14.0),
        ..GenParams::default()
    };
    let e = p.validate().unwrap_err();
    assert!(e.contains("below the resolvable minimum"), "{e}");
}

#[test]
fn shallow_grids_are_rejected() {
    let p = GenParams {
        nz: (12, 48),
        ..GenParams::default()
    };
    let e = p.validate().unwrap_err();
    assert!(e.contains("at least 20 cells"), "{e}");
}

#[test]
fn zero_period_cap_is_rejected() {
    let p = GenParams {
        max_periods: 0,
        ..GenParams::default()
    };
    assert!(p.validate().is_err());
}

/// A fuzz run of zero steps would compare two untouched field sets and
/// pass the bit-identity check vacuously.
#[test]
fn zero_step_fuzz_is_rejected() {
    let opts = FuzzOptions {
        count: 1,
        steps: 0,
        ..FuzzOptions::default()
    };
    let e = run_fuzz(&opts).unwrap_err();
    assert!(e.contains("at least one solver step"), "{e}");
}

/// Malformed TOML reports the 1-based line of the offence rather than
/// panicking — the contract the fuzz harness repro lines rely on.
#[test]
fn malformed_toml_reports_line_numbers() {
    let good = generate(Family::Multilayer, 3, &GenParams::tiny())
        .unwrap()
        .to_toml_string();

    // Break one line in the middle of the document: an unclosed table
    // header is a syntax error at exactly that line.
    let lines: Vec<&str> = good.lines().collect();
    let target = lines
        .iter()
        .position(|l| l.trim_start().starts_with('['))
        .expect("generated TOML has a table header");
    let mut broken: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    broken[target] = broken[target].trim_end_matches(']').to_string();
    let e = ScenarioSpec::from_toml_str(&broken.join("\n")).unwrap_err();
    assert!(
        e.contains(&format!("line {}", target + 1)),
        "error should carry line {}: {e}",
        target + 1
    );

    // A bare value without `=` is also a per-line error.
    let e = ScenarioSpec::from_toml_str("name = \"x\"\nwhat even is this\n").unwrap_err();
    assert!(e.contains("line 2"), "{e}");
}
