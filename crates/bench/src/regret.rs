//! Ground truth for the tuner's model (`bench_report --tune-regret`).
//!
//! Every candidate the tuner's miss path ranks for one grid and thread
//! count is measured natively and set next to the model's score and its
//! three factors, so a change to `autotune::score` or the `MachineSpec`
//! efficiency constants can be held against what the host actually
//! does. The table is written whole to `results/tune_regret.json`.

use autotune::{Factors, ResolveOptions, TuneCache, TuneKey};
use em_field::{GridDims, State};
use em_json::Json;
use mwd_core::{run_mwd, MwdConfig};
use std::path::{Path, PathBuf};

/// One natively measured candidate of the tune-regret table.
#[derive(Clone, Debug)]
pub struct RegretRow {
    pub config: MwdConfig,
    /// The closed-form model's score and the factors behind it.
    pub score_mlups: f64,
    pub factors: Factors,
    /// Best of three `run_mwd` calls.
    pub measured_mlups: f64,
}

/// Ground truth for the tuner's model: every candidate the miss path
/// ranks, measured, next to what the model made of it.
#[derive(Clone, Debug)]
pub struct TuneRegret {
    pub dims: GridDims,
    pub threads: usize,
    pub steps: usize,
    /// What `resolve` picks under the default options.
    pub chosen: MwdConfig,
    /// In measured order (the model's ranking, worst score first).
    pub rows: Vec<RegretRow>,
}

impl TuneRegret {
    pub fn best(&self) -> &RegretRow {
        self.rows
            .iter()
            .max_by(|a, b| a.measured_mlups.total_cmp(&b.measured_mlups))
            .expect("a regret table has at least one row")
    }

    /// The chosen configuration's row.
    pub fn chosen_row(&self) -> &RegretRow {
        self.rows
            .iter()
            .find(|r| r.config == self.chosen)
            .expect("the resolved config is one of the ranked candidates")
    }

    /// `chosen / best measured`: 1.0 means the model picked the fastest.
    pub fn chosen_over_best(&self) -> f64 {
        self.chosen_row().measured_mlups / self.best().measured_mlups
    }

    /// The table, fastest measured first.
    pub fn table(&self) -> String {
        let mut rows: Vec<&RegretRow> = self.rows.iter().collect();
        rows.sort_by(|a, b| b.measured_mlups.total_cmp(&a.measured_mlups));
        let cells: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.config.to_compact(),
                    format!("{:.1}", r.measured_mlups),
                    format!("{:.1}", r.score_mlups),
                    format!("{:.0}", r.factors.code_balance),
                    format!("{:.2}", r.factors.concurrency),
                    format!("{:.3}", r.factors.group_eff),
                    if r.config == self.chosen {
                        "<- chosen"
                    } else {
                        ""
                    }
                    .to_string(),
                ]
            })
            .collect();
        crate::harness::table(
            &[
                "config",
                "measured",
                "model",
                "B/LUP",
                "concurrency",
                "group_eff",
                "",
            ],
            &cells,
        )
    }

    pub fn to_json(&self) -> Json {
        let row = |r: &RegretRow| {
            Json::obj(vec![
                ("config", Json::str(r.config.to_compact())),
                ("measured_mlups", Json::Num(r.measured_mlups)),
                ("model_mlups", Json::Num(r.score_mlups)),
                ("code_balance", Json::Num(r.factors.code_balance)),
                ("concurrency", Json::Num(r.factors.concurrency)),
                ("group_eff", Json::Num(r.factors.group_eff)),
            ])
        };
        Json::obj(vec![
            ("dims", Json::str(format!("{}", self.dims))),
            ("threads", Json::Int(self.threads as i64)),
            ("steps", Json::Int(self.steps as i64)),
            ("chosen", Json::str(self.chosen.to_compact())),
            ("best_measured", Json::str(self.best().config.to_compact())),
            ("chosen_over_best", Json::Num(self.chosen_over_best())),
            ("rows", Json::Arr(self.rows.iter().map(row).collect())),
        ])
    }

    /// Write the table, whole, to `<dir>/tune_regret.json`; returns the
    /// path.
    pub fn write(&self, dir: &Path) -> Result<PathBuf, String> {
        let path = dir.join("tune_regret.json");
        std::fs::write(&path, self.to_json().pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(path)
    }
}

/// Natively measure every candidate the tuner's miss path ranks for
/// `dims` at `threads`: the same `run_mwd` call as the benchmark's grid
/// workloads on one long-lived state (fields refilled before each run),
/// best of three.
pub fn measure_tune_regret(
    dims: GridDims,
    threads: usize,
    steps: usize,
) -> Result<TuneRegret, String> {
    let ropts = ResolveOptions::default();
    let key = TuneKey::for_host(&ropts.machine, dims, "mwd", threads);
    let chosen = autotune::resolve(&mut TuneCache::in_memory(), &key, &ropts)?.config;
    let mut s = State::zeros(dims);
    s.coeffs.fill_deterministic(43);
    let mut rows = Vec::new();
    // Worst-ranked first: a process's first second runs its fresh
    // threads stacked on one core on small hosts, and that warm-up must
    // not land on the rows `chosen_over_best` is read from.
    for r in autotune::ranked(&key, &ropts)?.into_iter().rev() {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            s.fields.fill_deterministic(42);
            let t0 = std::time::Instant::now();
            run_mwd(&mut s, &r.config, steps)?;
            best = best.min(t0.elapsed().as_secs_f64());
        }
        rows.push(RegretRow {
            config: r.config,
            score_mlups: r.score_mlups,
            factors: r.factors,
            measured_mlups: (dims.cells() * steps) as f64 / best.max(1e-12) / 1e6,
        });
    }
    Ok(TuneRegret {
        dims,
        threads,
        steps,
        chosen,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regret_table_ranks_the_chosen_config_and_writes_only_itself() {
        let regret = measure_tune_regret(GridDims::cubic(8), 2, 2).unwrap();
        let top = regret
            .rows
            .iter()
            .map(|r| r.score_mlups)
            .fold(0.0, f64::max);
        assert_eq!(
            regret.chosen_row().score_mlups,
            top,
            "what `resolve` picks is the model's highest-scored row"
        );
        let ratio = regret.chosen_over_best();
        assert!(ratio > 0.0 && ratio <= 1.0, "{ratio}");

        let doc = regret.to_json();
        assert_eq!(
            doc.get("chosen").and_then(Json::as_str),
            Some(regret.chosen.to_compact().as_str())
        );
        assert_eq!(
            doc.get("best_measured").and_then(Json::as_str),
            Some(regret.best().config.to_compact().as_str())
        );
        let rows = doc.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), regret.rows.len());
        for row in rows {
            assert!(row.get("concurrency").and_then(Json::as_f64).is_some());
        }

        let dir = std::env::temp_dir().join(format!("tune_regret_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = regret.write(&dir).unwrap();
        assert_eq!(path, dir.join("tune_regret.json"));
        let written = em_json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            written, doc,
            "the file is the regret document and nothing else"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
