//! Runs the full pipeline over every suite program and prints a one-line
//! summary per program: the scale of the analysis and what it found.
//!
//! ```sh
//! cargo run -p ipcp --example whole_suite
//! ```

use ipcp::{Analysis, Config};
use ipcp_ir::interp::{run_module, ExecLimits};
use ipcp_suite::PROGRAMS;

fn main() {
    println!(
        "{:<10} {:>6} {:>6} {:>7} {:>9} {:>11} {:>7}",
        "program", "procs", "sites", "consts", "substit.", "solver-iter", "output"
    );
    for p in PROGRAMS {
        let mcfg = p.module_cfg();
        let analysis = Analysis::run(&mcfg, &Config::default());
        let substituted = analysis.substitution_total(&mcfg);
        let exec =
            run_module(&p.module(), p.inputs, &ExecLimits::default()).expect("suite programs run");
        println!(
            "{:<10} {:>6} {:>6} {:>7} {:>9} {:>11} {:>7}",
            p.name,
            mcfg.module.procs.len(),
            analysis.cg.n_edges(),
            analysis.vals.n_constants(),
            substituted,
            analysis.vals.iterations,
            exec.output.len(),
        );
    }
}
