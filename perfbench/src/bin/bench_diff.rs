//! `bench-diff <parent-results-dir> <change-results-dir> [--benchmark FILE]`
//!
//! Compares the untraced result files of two sets of benchmark runs (see
//! `perfbench::diff` for the rule) against the bounds in `BENCHMARK.json`
//! (default: `BENCHMARK.json` in the working directory). Exits 1 if any
//! metric regressed, 2 on bad input.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::diff::{compare, parse_bounds, parse_run, render, Run, Verdict};

fn load_runs(dir: &Path) -> Result<Vec<Run>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut runs = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        if let Some(run) = parse_run(&text).map_err(|e| format!("{}: {e}", path.display()))? {
            runs.push(run);
        }
    }
    Ok(runs)
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut dirs = Vec::new();
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark" {
            benchmark = PathBuf::from(it.next().ok_or("--benchmark needs a path")?);
        } else {
            dirs.push(PathBuf::from(arg));
        }
    }
    let [parent, change] = dirs.as_slice() else {
        return Err(
            "usage: bench-diff <parent-results-dir> <change-results-dir> [--benchmark FILE]".into(),
        );
    };
    let bounds_text =
        std::fs::read_to_string(&benchmark).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let bounds = parse_bounds(&bounds_text)?;
    let rows = compare(&load_runs(parent)?, &load_runs(change)?, &bounds);
    if rows.is_empty() {
        return Err("no runs of a common workload and seed on both sides".into());
    }
    print!("{}", render(&rows));
    Ok(rows.iter().all(|r| r.verdict != Verdict::Regressed))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench-diff: {e}");
            ExitCode::from(2)
        }
    }
}
