//! Every metric the benchmark prints, by name and unit, in the order
//! `BENCHMARK.json` declares them (a test keeps the two in step).

pub const WORKLOADS: [&str; 5] = [
    "grid-mem",
    "grid-cache",
    "sweep-stack",
    "dist-slab",
    "serve-mix",
];

/// End-to-end metrics: every workload reports all four, tracing off.
pub const END_TO_END: [(&str, &str); 4] = [
    ("solve_s", "s"),
    ("mlups", "MLUP/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: the traced pass reports all of them.
pub const PER_LAYER: [(&str, &str); 92] = [
    // em_kernels
    ("kernels.row_incache_mlups", "MLUP/s"),
    ("kernels.row_scalar_mlups", "MLUP/s"),
    ("kernels.simd_speedup", "ratio"),
    ("kernels.naive_t1_mem_mlups", "MLUP/s"),
    ("kernels.spatial_mem_mlups", "MLUP/s"),
    ("kernels.flops_per_lup", "flop/LUP"),
    ("kernels.bytes_per_cell", "B"),
    // em_field
    ("field.alloc_fill_s", "s"),
    ("field.relative_change_s", "s"),
    ("field.state_bytes", "B"),
    ("field.grid_over_llc", "ratio"),
    // mwd_core on the memory-bound grid
    ("core.mwd_t1_mem_mlups", "MLUP/s"),
    ("core.mwd_tn_mem_mlups", "MLUP/s"),
    ("core.par_eff_mem", "ratio"),
    ("core.mwd_over_spatial_mem", "ratio"),
    ("core.queue_wait_share_mem", "ratio"),
    ("core.diamond_update_share_mem", "ratio"),
    // mwd_core on the cache-resident grid
    ("core.mwd_t1_cache_mlups", "MLUP/s"),
    ("core.mwd_tn_cache_mlups", "MLUP/s"),
    ("core.par_eff_cache", "ratio"),
    ("core.queue_wait_share_cache", "ratio"),
    ("core.diamond_update_share_cache", "ratio"),
    ("core.frontier_setup_share_cache", "ratio"),
    // mwd_core per call
    ("core.plan_build_s", "s"),
    ("core.call_overhead_s", "s"),
    ("core.tiles", "count"),
    ("core.half_updates", "count"),
    // autotune / perf_models / mem_sim
    ("autotune.resolve_miss_s", "s"),
    ("autotune.resolve_hit_s", "s"),
    ("autotune.candidates", "count"),
    ("autotune.pruned_ratio", "ratio"),
    ("autotune.tuned_over_default", "ratio"),
    ("models.host_copy_gb_per_s", "GB/s"),
    ("models.code_balance_b_per_lup", "B/LUP"),
    ("models.pred_mem_mlups", "MLUP/s"),
    ("models.measured_over_pred", "ratio"),
    ("memsim.bytes_per_lup", "B/LUP"),
    ("memsim.sim_s", "s"),
    // em_solver
    ("solver.build_s", "s"),
    ("solver.period_s", "s"),
    ("solver.period_over_engine", "ratio"),
    ("solver.periods_to_converge", "count"),
    ("solver.steps_total", "count"),
    ("solver.analysis_s", "s"),
    // em_scenarios / em_json
    ("scenarios.gen_s", "s"),
    ("scenarios.parse_validate_s", "s"),
    ("scenarios.batch_over_solver", "ratio"),
    ("scenarios.artifact_write_s", "s"),
    ("scenarios.artifact_bytes", "B"),
    ("scenarios.jobs_failed", "count"),
    ("json.write_mb_per_s", "MB/s"),
    ("json.parse_mb_per_s", "MB/s"),
    // em_service
    ("service.bind_s", "s"),
    ("service.submit_ack_p50_s", "s"),
    ("service.new_p50_s", "s"),
    ("service.new_p90_s", "s"),
    ("service.dup_p50_s", "s"),
    ("service.get_p50_s", "s"),
    ("service.get_p99_s", "s"),
    ("service.get_rps", "1/s"),
    ("service.new_over_batch", "ratio"),
    ("service.dedupe_hit_ratio", "ratio"),
    ("service.http_errors", "count"),
    ("service.store_put_s", "s"),
    ("service.store_get_s", "s"),
    ("service.blocking_get_rps", "1/s"),
    // em_dist
    ("dist.w1_solve_s", "s"),
    ("dist.w2_solve_s", "s"),
    ("dist.single_solve_s", "s"),
    ("dist.w2_over_single", "ratio"),
    ("dist.scaling_eff", "ratio"),
    ("dist.halo_exchanges", "count"),
    ("dist.halo_bytes", "B"),
    ("dist.halo_wait_s", "s"),
    ("dist.halo_wait_share", "ratio"),
    ("dist.frame_encode_mb_per_s", "MB/s"),
    ("dist.frame_decode_mb_per_s", "MB/s"),
    // harness / em_obs: the spread of the reps behind `solve_s` and the
    // cost of tracing, per workload
    ("grid-mem.rep_median_s", "s"),
    ("grid-mem.rep_iqr_s", "s"),
    ("grid-cache.rep_median_s", "s"),
    ("grid-cache.rep_iqr_s", "s"),
    ("sweep-stack.rep_median_s", "s"),
    ("sweep-stack.rep_iqr_s", "s"),
    ("dist-slab.rep_median_s", "s"),
    ("dist-slab.rep_iqr_s", "s"),
    ("serve-mix.rep_median_s", "s"),
    ("serve-mix.rep_iqr_s", "s"),
    ("obs.trace_overhead.grid-mem", "ratio"),
    ("obs.trace_overhead.grid-cache", "ratio"),
    ("obs.trace_overhead.sweep-stack", "ratio"),
    ("obs.trace_overhead.dist-slab", "ratio"),
    ("obs.trace_overhead.serve-mix", "ratio"),
];

/// The contract's name rule: starts with a letter or digit, then at
/// most 63 more of letters, digits, `_`, `.`, `-`.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// The contract's unit rule: at most 16 of letters, digits, `_ / % . -`.
#[cfg(test)]
fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_json::Json;

    fn declared(doc: &Json, section: &str) -> Vec<(String, String)> {
        doc.get(section)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}` array"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn names_and_units_follow_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "bad metric name `{name}`");
            assert!(valid_unit(unit), "bad unit `{unit}` of `{name}`");
            assert!(seen.insert(*name), "`{name}` is used twice");
        }
        for w in WORKLOADS {
            assert!(valid_name(w) && seen.insert(w), "bad workload name `{w}`");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_what_is_printed() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let doc = em_json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(declared(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert!(declared(&doc, "end_to_end")
            .iter()
            .any(|(n, u)| n == "setup_s" && u == "s"));
    }
}
