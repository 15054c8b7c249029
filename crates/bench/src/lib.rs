//! Shared harness for the figure-regeneration binaries.
//!
//! Every figure in the paper's evaluation section has a binary in
//! `src/bin/` that reruns the corresponding experiment and prints the same
//! rows/series the paper plots, plus a CSV dump under `results/`. Absolute
//! numbers differ from the paper (its testbed was twelve 2003-era
//! workstations; ours is a virtual cluster), but the *shapes* — who wins,
//! where curves saturate, where crossovers sit — are the reproduction
//! target. `EXPERIMENTS.md` records both.
//!
//! Scale: by default experiments run in a minutes-scale "quick" profile.
//! Set `PTS_FULL=1` for the paper-scale profile (more iterations, all
//! circuits).

pub mod kernel;

use pts_core::{PlacementRunOutput, Pts, PtsConfig, VirtualEngine};
use pts_netlist::Netlist;
use pts_util::csv::CsvWriter;
use pts_util::table::Table;
use std::path::PathBuf;
use std::sync::Arc;

/// Experiment scale profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Fast: small iteration counts, circuits up to c1355.
    Quick,
    /// Paper-scale: all four circuits, full iteration counts.
    Full,
}

impl Profile {
    /// Read the profile from the environment (`PTS_FULL=1`).
    pub fn from_env() -> Profile {
        match std::env::var("PTS_FULL") {
            Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => Profile::Full,
            _ => Profile::Quick,
        }
    }

    /// Circuits used under this profile (paper order, smallest first).
    pub fn circuits(self) -> Vec<&'static str> {
        match self {
            Profile::Quick => vec!["highway", "c532", "c1355"],
            Profile::Full => vec!["highway", "c532", "c1355", "c3540"],
        }
    }

    /// (global_iters, local_iters) under this profile.
    pub fn iterations(self) -> (u32, u32) {
        match self {
            Profile::Quick => (6, 15),
            Profile::Full => (15, 40),
        }
    }
}

/// Load a paper circuit by name (panics on unknown names — harness bug).
pub fn circuit(name: &str) -> Arc<Netlist> {
    Arc::new(pts_netlist::by_name(name).unwrap_or_else(|| panic!("unknown circuit '{name}'")))
}

/// The baseline configuration every figure harness starts from.
pub fn base_config(profile: Profile) -> PtsConfig {
    let (global_iters, local_iters) = profile.iterations();
    PtsConfig {
        global_iters,
        local_iters,
        ..PtsConfig::default()
    }
}

/// Run a configuration on the 12-machine paper cluster (virtual).
pub fn run_on_paper_cluster(cfg: &PtsConfig, netlist: Arc<Netlist>) -> PlacementRunOutput {
    Pts::from_config(cfg.clone())
        .build()
        .expect("harness configs are valid")
        .run_placement(netlist, &VirtualEngine::paper())
}

/// Seeds used for averaged experiments under a profile. Single-seed runs
/// of a stochastic search are noisy at quick scale; the paper's trend
/// claims are about expected behaviour, so the harness averages a few
/// independent runs.
pub fn seeds(profile: Profile) -> Vec<u64> {
    match profile {
        Profile::Quick => vec![0xC0FFEE, 0xBEEF, 0xF00D, 0xCAFE, 0xD00D],
        Profile::Full => vec![0xC0FFEE, 0xBEEF, 0xF00D, 0xCAFE, 0xD00D, 0xACE, 0xFADE],
    }
}

/// Mean final best cost of a configuration across seeds.
pub fn mean_best_cost(cfg: &PtsConfig, netlist: &Arc<Netlist>, seeds: &[u64]) -> f64 {
    let sum: f64 = seeds
        .iter()
        .map(|&seed| {
            let mut c = cfg.clone();
            c.seed = seed;
            run_on_paper_cluster(&c, netlist.clone()).outcome.best_cost
        })
        .sum();
    sum / seeds.len() as f64
}

/// Speedup point averaged across seeds.
#[derive(Clone, Debug)]
pub struct MeanSpeedup {
    pub n: usize,
    /// Geometric mean of per-seed speedups (only seeds where both the
    /// baseline and this configuration reached the per-seed target).
    pub speedup: Option<f64>,
    /// Seeds contributing to the mean.
    pub samples: usize,
    /// Mean time-to-target across contributing seeds.
    pub mean_time: Option<f64>,
}

/// Run a sweep for every seed, compute per-seed speedups against a
/// per-seed common quality target, and average them geometrically.
/// `configure` maps the sweep variable onto a config.
pub fn averaged_speedup_sweep(
    netlist: &Arc<Netlist>,
    base: &PtsConfig,
    ns: &[usize],
    seeds: &[u64],
    configure: impl Fn(&mut PtsConfig, usize),
) -> Vec<MeanSpeedup> {
    use pts_core::{fractional_quality_target, speedup_sweep};
    let mut per_n_speedups: Vec<Vec<f64>> = vec![Vec::new(); ns.len()];
    let mut per_n_times: Vec<Vec<f64>> = vec![Vec::new(); ns.len()];
    for &seed in seeds {
        let mut traces = Vec::new();
        for &n in ns {
            let mut cfg = base.clone();
            cfg.seed = seed;
            configure(&mut cfg, n);
            let out = run_on_paper_cluster(&cfg, netlist.clone());
            traces.push((n, out.outcome.trace));
        }
        let x = fractional_quality_target(&traces, 0.8);
        for (i, p) in speedup_sweep(&traces, x).into_iter().enumerate() {
            if let Some(s) = p.speedup {
                if s.is_finite() {
                    per_n_speedups[i].push(s);
                }
            }
            if let Some(t) = p.time_to_quality {
                per_n_times[i].push(t);
            }
        }
    }
    ns.iter()
        .enumerate()
        .map(|(i, &n)| {
            let ss = &per_n_speedups[i];
            let ts = &per_n_times[i];
            MeanSpeedup {
                n,
                speedup: if ss.is_empty() {
                    None
                } else {
                    Some(pts_util::stats::geometric_mean(ss))
                },
                samples: ss.len(),
                mean_time: if ts.is_empty() {
                    None
                } else {
                    Some(ts.iter().sum::<f64>() / ts.len() as f64)
                },
            }
        })
        .collect()
}

/// Where CSV results are written: `<workspace>/results/`.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live at the workspace root.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    p
}

/// Print a table and write the matching CSV under `results/<name>.csv`.
pub fn emit(name: &str, table: &Table, csv: &CsvWriter) {
    println!("{table}");
    let path = results_dir().join(format!("{name}.csv"));
    match csv.write_to(&path) {
        Ok(()) => println!("[csv] {}", path.display()),
        Err(e) => eprintln!("[csv] failed to write {}: {e}", path.display()),
    }
}

/// Format an `Option<f64>` for table cells.
pub fn fmt_opt(x: Option<f64>) -> String {
    match x {
        Some(v) if v.is_finite() => pts_util::table::fmt_f64(v),
        Some(_) => "inf".to_string(),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_differ() {
        assert!(Profile::Full.circuits().len() > Profile::Quick.circuits().len());
        assert!(Profile::Full.iterations().0 > Profile::Quick.iterations().0);
    }

    #[test]
    fn circuit_loads_paper_benchmarks() {
        assert_eq!(circuit("highway").num_cells(), 56);
    }

    #[test]
    fn results_dir_is_workspace_level() {
        let d = results_dir();
        assert!(d.ends_with("results"));
    }

    #[test]
    fn fmt_opt_cases() {
        assert_eq!(fmt_opt(None), "-");
        assert_eq!(fmt_opt(Some(f64::INFINITY)), "inf");
        assert_eq!(fmt_opt(Some(2.0)), "2.0000");
    }
}
