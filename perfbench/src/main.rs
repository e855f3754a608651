//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, a
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. The
//! same result, stamped with a host fingerprint, goes to
//! `perfbench/results/`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match perfbench::cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match perfbench::execute(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    match perfbench::write_results(&args, &report) {
        Ok(path) => eprintln!("perfbench: results in {}", path.display()),
        Err(e) => {
            eprintln!("perfbench: cannot write results: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("output digest (FNV-1a) = {:016x}", report.digest);
    for (name, value, unit) in &report.outcome.metrics {
        println!("{name} = {value} {unit}");
    }
    println!("{}", report.outcome.to_line());
    ExitCode::SUCCESS
}
