//! Decoding `POST /jobs` bodies into a [`ScenarioSpec`].
//!
//! Two forms are accepted, distinguished by the first non-whitespace
//! byte:
//!
//! - **TOML** (anything not starting with `{`): the existing scenario
//!   file format, parsed by [`ScenarioSpec::from_toml_str`];
//! - **compact JSON** (starting with `{`): a small wrapper for clients
//!   that would rather not template TOML —
//!   `{"builtin": "<catalog name>"}` or `{"toml": "<toml text>"}`,
//!   optionally overriding `engine` (a kind from
//!   [`EngineDecl::KINDS`]), `threads`, `lambda_nm`, `max_periods`,
//!   and attaching a `deadline_ms` job deadline (admission-capped at
//!   [`MAX_DEADLINE_MS`]).
//!
//! The spec is validated here, and its grid capped at
//! [`MAX_GRID_EXTENT`] per axis, so every admission failure is a clean
//! HTTP 400 with the validator's message instead of a queued job that
//! dies later (or a search that stalls the event loop).

use em_scenarios::spec::EngineDecl;
use em_scenarios::{library, ScenarioSpec};

/// One decoded `POST /jobs` body: the spec plus job-control options
/// that are not part of the spec's content identity (a deadline does
/// not change what is computed, only whether we wait for it).
#[derive(Clone, Debug)]
pub struct SubmitRequest {
    pub spec: ScenarioSpec,
    /// Optional deadline, milliseconds from admission; capped at
    /// [`MAX_DEADLINE_MS`].
    pub deadline_ms: Option<u64>,
}

/// Parse and validate one submission body.
pub fn parse_submission(body: &[u8]) -> Result<SubmitRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let trimmed = text.trim_start();
    if trimmed.is_empty() {
        return Err("empty body (expected a scenario spec)".to_string());
    }
    let (mut spec, deadline_ms) = if trimmed.starts_with('{') {
        parse_compact(trimmed)?
    } else {
        (ScenarioSpec::from_toml_str(text)?, None)
    };
    spec.validate()?;
    // Admission runs on the event loop's one thread, and a cold `auto`
    // key is searched there; the search grows with `ny` (superlinearly)
    // and `nz`, so served grids are capped per axis before it can run.
    let d = spec.dims();
    for (axis, n) in [("nx", d.nx), ("ny", d.ny), ("nz", d.nz)] {
        if n > MAX_GRID_EXTENT {
            return Err(format!(
                "[grid] {axis} = {n} exceeds the served limit of {MAX_GRID_EXTENT} cells per axis"
            ));
        }
    }
    // Sweeps are legal TOML but (deliberately) not servable: one job id
    // maps to one content-addressed artifact, and a sweep's natural
    // serving shape is one request per point (which then dedupe
    // independently).
    if spec.sweep.is_some() {
        return Err(
            "sweeps are not accepted over the API; submit one request per lambda point".to_string(),
        );
    }
    // Serving is bounded work by contract; convergence caps make a
    // single request's cost predictable for admission control.
    spec.convergence.max_periods = spec.convergence.max_periods.min(MAX_PERIODS_CAP);
    Ok(SubmitRequest {
        spec,
        deadline_ms: deadline_ms.map(|ms| ms.min(MAX_DEADLINE_MS)),
    })
}

/// Upper bound on `max_periods` for served jobs (a single request must
/// not be able to ask for unbounded work).
pub const MAX_PERIODS_CAP: usize = 200;

/// Upper bound on each served grid extent. It bounds the model-only
/// search admission may run: a cold `auto` key at 1024 x 1024 x 1024
/// ranks in about 0.1 s even at 64 threads, where `ny` = 65536 takes
/// 0.3 s and `ny` = 262144 twelve seconds.
pub const MAX_GRID_EXTENT: usize = 1024;

/// Upper bound on a client-supplied `deadline_ms` (10 minutes): a
/// deadline is a promise the daemon tracks per job, so it is capped the
/// same way convergence work is.
pub const MAX_DEADLINE_MS: u64 = 600_000;

fn parse_compact(text: &str) -> Result<(ScenarioSpec, Option<u64>), String> {
    let doc = em_json::parse(text).map_err(|e| format!("compact JSON form: {e}"))?;
    let obj = doc
        .as_obj()
        .ok_or_else(|| "compact JSON form must be an object".to_string())?;
    for (key, _) in obj {
        if !matches!(
            key.as_str(),
            "builtin" | "toml" | "engine" | "threads" | "lambda_nm" | "max_periods" | "deadline_ms"
        ) {
            return Err(format!("compact JSON form: unknown key `{key}`"));
        }
    }

    let mut spec = match (doc.get("builtin"), doc.get("toml")) {
        (Some(b), None) => {
            let name = b
                .as_str()
                .ok_or_else(|| "`builtin` must be a string".to_string())?;
            library::builtin(name).ok_or_else(|| {
                format!(
                    "unknown builtin scenario `{name}` (known: {})",
                    library::builtin_names().join(", ")
                )
            })?
        }
        (None, Some(t)) => {
            let toml = t
                .as_str()
                .ok_or_else(|| "`toml` must be a string".to_string())?;
            ScenarioSpec::from_toml_str(toml)?
        }
        _ => return Err("compact JSON form needs exactly one of `builtin` or `toml`".to_string()),
    };

    let threads = match doc.get("threads") {
        None => None,
        Some(v) => Some(
            v.as_i64()
                .filter(|&n| n >= 0)
                .ok_or_else(|| "`threads` must be a non-negative integer".to_string())?
                as usize,
        ),
    };
    if let Some(e) = doc.get("engine") {
        let kind = e
            .as_str()
            .ok_or_else(|| "`engine` must be an engine-kind string".to_string())?;
        // `auto` keeps threads = 0 ("this job's budget share") unless
        // the client pinned a count; concrete kinds need at least one.
        spec.engine = if kind == "auto" {
            EngineDecl::Auto {
                threads: threads.unwrap_or(0),
            }
        } else {
            EngineDecl::auto(kind, threads.unwrap_or(1))?
        };
    } else if let Some(t) = threads {
        if let EngineDecl::Auto { .. } = spec.engine {
            spec.engine = EngineDecl::Auto { threads: t };
        } else {
            return Err("`threads` without `engine` only applies to `auto` specs".to_string());
        }
    }
    if let Some(v) = doc.get("lambda_nm") {
        let nm = v
            .as_f64()
            .filter(|n| n.is_finite() && *n > 0.0)
            .ok_or_else(|| "`lambda_nm` must be a positive number".to_string())?;
        spec.physics.lambda_nm = nm;
    }
    if let Some(v) = doc.get("max_periods") {
        let mp = v
            .as_i64()
            .filter(|&n| n >= 1)
            .ok_or_else(|| "`max_periods` must be a positive integer".to_string())?;
        spec.convergence.max_periods = mp as usize;
    }
    let deadline_ms = match doc.get("deadline_ms") {
        None => None,
        Some(v) => Some(
            v.as_i64()
                .filter(|&n| n >= 1)
                .ok_or_else(|| "`deadline_ms` must be a positive integer".to_string())?
                as u64,
        ),
    };
    Ok((spec, deadline_ms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_json::Json;

    #[test]
    fn toml_bodies_parse_through_the_scenario_codec() {
        let toml = library::builtin("vacuum-slab").unwrap().to_toml_string();
        let req = parse_submission(toml.as_bytes()).unwrap();
        assert_eq!(req.spec.name, "vacuum-slab");
        assert_eq!(req.deadline_ms, None, "TOML bodies carry no deadline");
    }

    #[test]
    fn compact_builtin_with_overrides() {
        let body = br#"{"builtin": "vacuum-slab", "engine": "auto", "lambda_nm": 601.5, "max_periods": 3}"#;
        let spec = parse_submission(body).unwrap().spec;
        assert_eq!(spec.engine, EngineDecl::Auto { threads: 0 });
        assert_eq!(spec.physics.lambda_nm, 601.5);
        assert_eq!(spec.convergence.max_periods, 3);
    }

    #[test]
    fn compact_toml_form_and_thread_pinning() {
        let toml = library::builtin("vacuum-slab").unwrap().to_toml_string();
        let body = Json::obj(vec![
            ("toml", Json::str(toml)),
            ("engine", Json::str("auto")),
            ("threads", Json::Int(2)),
        ])
        .pretty();
        let spec = parse_submission(body.as_bytes()).unwrap().spec;
        assert_eq!(spec.engine, EngineDecl::Auto { threads: 2 });
    }

    #[test]
    fn deadlines_parse_and_are_capped() {
        let body = br#"{"builtin": "vacuum-slab", "deadline_ms": 1500}"#;
        assert_eq!(parse_submission(body).unwrap().deadline_ms, Some(1500));

        let body = br#"{"builtin": "vacuum-slab", "deadline_ms": 99999999999}"#;
        assert_eq!(
            parse_submission(body).unwrap().deadline_ms,
            Some(MAX_DEADLINE_MS),
            "absurd deadlines are capped at admission"
        );

        for bad in [
            &br#"{"builtin": "vacuum-slab", "deadline_ms": 0}"#[..],
            br#"{"builtin": "vacuum-slab", "deadline_ms": -3}"#,
            br#"{"builtin": "vacuum-slab", "deadline_ms": "soon"}"#,
        ] {
            let err = parse_submission(bad).unwrap_err();
            assert!(err.contains("deadline_ms"), "{err}");
        }
    }

    #[test]
    fn rejections_name_the_problem() {
        for (body, needle) in [
            (&b"\xff\xfe"[..], "UTF-8"),
            (b"   ", "empty body"),
            (b"{\"builtin\": \"no-such\"}", "unknown builtin"),
            (b"{\"builtin\": \"vacuum-slab\", \"x\": 1}", "unknown key"),
            (b"{}", "exactly one of"),
            (b"{\"builtin\": \"a\", \"toml\": \"b\"}", "exactly one of"),
            (
                b"{\"builtin\": \"vacuum-slab\", \"engine\": \"warp\"}",
                "warp",
            ),
            (
                b"{\"builtin\": \"vacuum-slab\", \"lambda_nm\": -5}",
                "lambda_nm",
            ),
            (
                b"{\"builtin\": \"vacuum-slab\", \"max_periods\": 0}",
                "max_periods",
            ),
            (
                b"{\"builtin\": \"vacuum-slab\", \"threads\": 2}",
                "only applies to `auto`",
            ),
            (b"{\"oops", "compact JSON form"),
            (b"name = ", "line"),
        ] {
            let err = parse_submission(body).unwrap_err();
            assert!(
                err.contains(needle),
                "expected `{needle}` in `{err}` for {:?}",
                String::from_utf8_lossy(body)
            );
        }
    }

    #[test]
    fn sweeps_are_rejected_and_periods_are_capped() {
        let mut spec = library::builtin("vacuum-slab").unwrap();
        spec.sweep = Some(em_scenarios::SweepDecl {
            lambdas: vec![em_scenarios::SweepPoint {
                nm: 500.0,
                cells: 10.0,
            }],
        });
        let err = parse_submission(spec.to_toml_string().as_bytes()).unwrap_err();
        assert!(err.contains("sweep"), "{err}");

        let mut spec = library::builtin("vacuum-slab").unwrap();
        spec.convergence.max_periods = 10_000;
        let capped = parse_submission(spec.to_toml_string().as_bytes()).unwrap();
        assert_eq!(capped.spec.convergence.max_periods, MAX_PERIODS_CAP);
    }

    #[test]
    fn grids_are_capped_per_axis() {
        let mut spec = library::builtin("vacuum-slab").unwrap();
        spec.grid.ny = MAX_GRID_EXTENT;
        parse_submission(spec.to_toml_string().as_bytes()).unwrap();
        spec.grid.nz = MAX_GRID_EXTENT + 1;
        let err = parse_submission(spec.to_toml_string().as_bytes()).unwrap_err();
        assert!(err.contains("nz = 1025 exceeds"), "{err}");
    }
}
