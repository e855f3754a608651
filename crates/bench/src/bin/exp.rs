//! `exp` — runs any grid of the scenario catalogue.
//!
//! ```text
//! cargo run --release -p dimmer-bench --bin exp -- --grid NAME \
//!     [--quick] [--trials N] [--threads N] [--seed S] \
//!     [--protocols a,b,c] [--json PATH] [--envs N]
//! ```
//!
//! Grid names, defaults and builders live in `dimmer_bench::catalogue`:
//! `table1`, `fig4b:<part>`, `fig4c`, `fig5`, `fig5-seeds`, `fig6`, `fig7`,
//! `topology-size`, `city`, `grid10k`, `dynamics:<preset>` and
//! `train:<family>`. `--json` writes the same bytes `dimmerd` serves for
//! the same grid, seed and trials; `--threads` and `--envs` never change
//! them.

use dimmer_bench::catalogue::run_cli;
use dimmer_bench::harness::HarnessCli;

fn main() {
    let cli = HarnessCli::parse();
    let report = run_cli(&cli).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    cli.emit_json(&report);
}
