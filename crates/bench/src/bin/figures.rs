//! Regenerate the paper's tables and figures on the simulated Haswell.
//!
//! Usage:
//!   figures [sect3|fig5|fig6|fig7|fig8|validate|shapes|thin|all] [--full|--tiny]
//!
//! The figure defaults to `all`, the scale to the minutes-long `Quick`.
//!
//! Results are printed as aligned tables (with the paper's reference
//! shapes where applicable) and written to `results/*.csv`.

use em_bench::harness::{f1, f2, sparkline, table, write_csv};
use em_bench::{fig5, fig6, fig7, fig8, paper, sect3, shapes, thin_domain, validate, Scale};

const USAGE: &str =
    "usage: figures [sect3|fig5|fig6|fig7|fig8|validate|shapes|thin|all] [--full|--tiny]";

/// The figure name (default `all`) and the scale (default `Quick`), in
/// any order.
fn parse_args(args: &[String]) -> Result<(&str, Scale), String> {
    let mut what = None;
    let mut scale = Scale::Quick;
    for a in args {
        match a.as_str() {
            "--full" => scale = Scale::Full,
            "--tiny" => scale = Scale::Tiny,
            "sect3" | "fig5" | "fig6" | "fig7" | "fig8" | "validate" | "shapes" | "thin"
            | "all"
                if what.is_none() =>
            {
                what = Some(a.as_str())
            }
            other => return Err(format!("unknown figure or option '{other}'")),
        }
    }
    Ok((what.unwrap_or("all"), scale))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (what, scale) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        eprintln!("{USAGE}");
        std::process::exit(2)
    });
    match what {
        "sect3" => run_sect3(),
        "fig5" => run_fig5(scale),
        "fig6" => run_fig6(scale),
        "fig7" => run_fig7(scale),
        "fig8" => run_fig8(scale),
        "validate" => run_validate(scale),
        "shapes" => run_shapes(),
        "thin" => run_thin(scale),
        // "all": `parse_args` admits no other name.
        _ => {
            run_sect3();
            run_shapes();
            run_validate(scale);
            run_fig5(scale);
            run_fig6(scale);
            run_fig7(scale);
            run_fig8(scale);
            run_thin(scale);
        }
    }
}

fn banner(title: &str) {
    println!(
        "\n=== {title} {}",
        "=".repeat(66usize.saturating_sub(title.len()))
    );
}

fn run_sect3() {
    banner("Sec. III — analytic models (paper numbers in parentheses)");
    let s = sect3();
    let rows = vec![
        vec!["flops/LUP".into(), f1(s.flops_per_lup), "(248)".into()],
        vec!["bytes/cell".into(), f1(s.bytes_per_cell), "(640)".into()],
        vec!["B_C naive [B/LUP]".into(), f1(s.bc_naive), "(1344)".into()],
        vec![
            "B_C spatial [B/LUP]".into(),
            f1(s.bc_spatial),
            "(1216)".into(),
        ],
        vec![
            "I naive [F/B]".into(),
            f2(s.intensity_naive),
            "(0.18)".into(),
        ],
        vec![
            "I spatial [F/B]".into(),
            f2(s.intensity_spatial),
            "(0.20)".into(),
        ],
        vec![
            "P_mem spatial [MLUP/s]".into(),
            f1(s.pmem_spatial),
            "(41)".into(),
        ],
        vec![
            "Cs(Dw=4,BZ=4)/Nx [B]".into(),
            f1(s.cs_example_per_nx),
            "(14912)".into(),
        ],
    ];
    print!("{}", table(&["quantity", "value", "paper"], &rows));
    println!("\nEq. 12 diamond code balance:");
    let rows: Vec<Vec<String>> = s
        .bc_diamond
        .iter()
        .map(|(d, b)| vec![d.to_string(), f1(*b)])
        .collect();
    print!("{}", table(&["Dw", "B_C [B/LUP]"], &rows));
    let _ = write_csv(
        "sect3.csv",
        &["quantity", "value"],
        &[
            vec!["flops_per_lup".into(), f1(s.flops_per_lup)],
            vec!["bc_naive".into(), f1(s.bc_naive)],
            vec!["bc_spatial".into(), f1(s.bc_spatial)],
            vec!["pmem_spatial_mlups".into(), f1(s.pmem_spatial)],
        ],
    );
}

fn run_fig5(scale: Scale) {
    banner("Fig. 5 — code balance vs cache block size (1WD, 1 thread, Nx=480)");
    let pts = fig5(scale);
    let usable = 22.5;
    let mut rows = Vec::new();
    for p in &pts {
        rows.push(vec![
            p.bz.to_string(),
            p.dw.to_string(),
            f1(p.cs_mib),
            f1(p.bc_model),
            f1(p.bc_measured),
            if p.cs_mib > usable {
                "over usable L3".into()
            } else {
                "fits".into()
            },
        ]);
    }
    print!(
        "{}",
        table(
            &[
                "BZ",
                "Dw",
                "Cs [MiB]",
                "B_C model",
                "B_C measured",
                "vs 22.5 MiB"
            ],
            &rows
        )
    );
    println!("\nShape check (paper: measured tracks the model left of the red line,");
    println!("diverges upward once the block exceeds the usable cache).");
    let _ = write_csv(
        "fig5.csv",
        &["bz", "dw", "cs_mib", "bc_model", "bc_measured"],
        &pts.iter()
            .map(|p| {
                vec![
                    p.bz.to_string(),
                    p.dw.to_string(),
                    f2(p.cs_mib),
                    f2(p.bc_model),
                    f2(p.bc_measured),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

fn run_fig6(scale: Scale) {
    banner("Fig. 6 — thread scaling at 384^3 (spatial vs 1WD vs MWD)");
    let pts = fig6(scale);
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.threads.to_string(),
                f1(p.spatial.mlups),
                f1(p.one_wd.mlups),
                f1(p.mwd.mlups),
                f1(p.spatial.mem_gbs),
                f1(p.one_wd.mem_gbs),
                f1(p.mwd.mem_gbs),
                f1(p.one_wd.code_balance),
                f1(p.mwd.code_balance),
                p.dw_1wd.to_string(),
                p.dw_mwd.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &[
                "thr",
                "sp MLUP/s",
                "1WD MLUP/s",
                "MWD MLUP/s",
                "sp GB/s",
                "1WD GB/s",
                "MWD GB/s",
                "1WD B/LUP",
                "MWD B/LUP",
                "Dw1WD",
                "DwMWD",
            ],
            &rows
        )
    );
    println!();
    println!(
        "{}",
        sparkline(
            "spatial MLUP/s",
            &pts.iter().map(|p| p.spatial.mlups).collect::<Vec<_>>()
        )
    );
    println!(
        "{}",
        sparkline(
            "1WD MLUP/s",
            &pts.iter().map(|p| p.one_wd.mlups).collect::<Vec<_>>()
        )
    );
    println!(
        "{}",
        sparkline(
            "MWD MLUP/s",
            &pts.iter().map(|p| p.mwd.mlups).collect::<Vec<_>>()
        )
    );
    println!("\nPaper reference (threads: spatial, 1WD, MWD):");
    for (t, s, o, m) in paper::FIG6A_PERF {
        println!("  {t:>2}: {s:>6.1} {o:>6.1} {m:>6.1}");
    }
    let _ = write_csv(
        "fig6.csv",
        &[
            "threads",
            "spatial_mlups",
            "onewd_mlups",
            "mwd_mlups",
            "spatial_gbs",
            "onewd_gbs",
            "mwd_gbs",
            "onewd_blup",
            "mwd_blup",
            "dw_1wd",
            "dw_mwd",
        ],
        &rows,
    );
}

fn run_fig7(scale: Scale) {
    banner("Fig. 7 — grid scaling on the full socket (18 threads)");
    let pts = fig7(scale);
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.n.to_string(),
                f1(p.spatial.mlups),
                f1(p.one_wd.mlups),
                f1(p.mwd.mlups),
                f1(p.mwd.mem_gbs),
                f1(p.mwd.code_balance),
                p.dw_mwd.to_string(),
                format!("{}x{}x{}", p.tg.x, p.tg.z, p.tg.c),
                p.groups.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &[
                "N",
                "sp MLUP/s",
                "1WD MLUP/s",
                "MWD MLUP/s",
                "MWD GB/s",
                "MWD B/LUP",
                "Dw",
                "TG(x*z*c)",
                "groups",
            ],
            &rows
        )
    );
    println!("\nPaper reference (N: spatial, 1WD, MWD):");
    for (n, s, o, m) in paper::FIG7A_PERF {
        println!("  {n:>3}: {s:>6.1} {o:>6.1} {m:>6.1}");
    }
    let speedup: Vec<f64> = pts.iter().map(|p| p.mwd.mlups / p.spatial.mlups).collect();
    println!(
        "\nMWD/spatial speedups: {:?}  (paper: 3x-4x at large grids)",
        speedup
            .iter()
            .map(|s| (s * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    );
    let _ = write_csv(
        "fig7.csv",
        &[
            "n",
            "spatial_mlups",
            "onewd_mlups",
            "mwd_mlups",
            "mwd_gbs",
            "mwd_blup",
            "dw",
            "tg",
            "groups",
        ],
        &rows,
    );
}

fn run_fig8(scale: Scale) {
    banner("Fig. 8 — thread-group size impact ({1,2,3,6,9,18}WD, 18 threads)");
    let pts = fig8(scale);
    let mut rows = Vec::new();
    for p in &pts {
        rows.push(vec![
            p.n.to_string(),
            format!("{}WD", p.tg_size),
            f1(p.result.mlups),
            f1(p.result.mem_gbs),
            f1(p.result.code_balance),
            p.dw.to_string(),
        ]);
    }
    print!(
        "{}",
        table(&["N", "variant", "MLUP/s", "GB/s", "B/LUP", "Dw"], &rows)
    );
    if let Some(nmax) = pts.iter().map(|p| p.n).max() {
        let at_max: Vec<_> = pts.iter().filter(|p| p.n == nmax).collect();
        if let (Some(p18), Some(p1)) = (
            at_max.iter().find(|p| p.tg_size == 18),
            at_max.iter().find(|p| p.tg_size == 1),
        ) {
            println!(
                "\nAt N={nmax}: 18WD draws {:.1} GB/s vs 1WD {:.1} GB/s; 18WD saving vs 50 GB/s: {:.0}% (paper: >= 38%)",
                p18.result.mem_gbs,
                p1.result.mem_gbs,
                (1.0 - p18.result.mem_gbs / 50.0) * 100.0
            );
        }
    }
    let _ = write_csv(
        "fig8.csv",
        &["n", "tg_size", "mlups", "gbs", "blup", "dw"],
        &pts.iter()
            .map(|p| {
                vec![
                    p.n.to_string(),
                    p.tg_size.to_string(),
                    f2(p.result.mlups),
                    f2(p.result.mem_gbs),
                    f2(p.result.code_balance),
                    p.dw.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

fn run_validate(scale: Scale) {
    banner("Model validation — Eq. 12 vs simulator (tile resident)");
    let pts = validate(scale);
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.dw.to_string(),
                f1(p.bc_model),
                f1(p.bc_measured),
                f2(p.ratio),
            ]
        })
        .collect();
    print!(
        "{}",
        table(&["Dw", "B_C model", "B_C measured", "ratio"], &rows)
    );
    let _ = write_csv(
        "validate.csv",
        &["dw", "bc_model", "bc_measured", "ratio"],
        &rows,
    );
}

fn run_shapes() {
    banner("Figs. 2/4 — diamond structure");
    print!("{}", shapes(8));
}

fn run_thin(scale: Scale) {
    banner("Thin-domain ablation (paper Sec. VI outlook)");
    let pts = thin_domain(scale);
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.thin_axis.to_string(),
                p.dims.to_string(),
                p.dw.to_string(),
                f1(p.result.mlups),
                f1(p.result.mem_gbs),
                f1(p.result.code_balance),
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &["thin axis", "domain", "Dw", "MLUP/s", "GB/s", "B/LUP"],
            &rows
        )
    );
    println!("\nPaper: \"Mapping the thin dimension to the leading array dimension");
    println!("helps tiling in shared memory ... the cache block size is proportional");
    println!("to the leading dimension size, so we can use larger blocks in time.\"");
    let _ = write_csv(
        "thin_domain.csv",
        &["thin_axis", "dims", "dw", "mlups", "gbs", "blup"],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_and_scale_parse_independently() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_args(&args(&[])), Ok(("all", Scale::Quick)));
        assert_eq!(parse_args(&args(&["--tiny"])), Ok(("all", Scale::Tiny)));
        assert_eq!(
            parse_args(&args(&["fig5", "--full"])),
            Ok(("fig5", Scale::Full))
        );
        assert_eq!(
            parse_args(&args(&["nope"])),
            Err("unknown figure or option 'nope'".to_string())
        );
    }
}
