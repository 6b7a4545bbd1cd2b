//! The §4.2 extension: jump-function generation over *gated* form.
//!
//! The paper observes that its "complete propagation" results (iterating
//! dead-code elimination with from-scratch re-propagation) could be had
//! directly by building jump functions on gated single-assignment form —
//! dead assignments simply never materialize. `Config::gated_jump_fns`
//! realizes that: a VAL-seeded SCCP pass gates phi inputs and dead call
//! sites during generation, iterated to a fixpoint.
//!
//! ```sh
//! cargo run -p ipcp --example gated_generation
//! ```

use ipcp::{complete_propagation, Analysis, Config};
use ipcp_suite::program;
use std::time::Instant;

fn main() {
    for name in ["ocean", "spec77"] {
        let prog = program(name).expect("suite program");
        let mcfg = prog.module_cfg();

        let t0 = Instant::now();
        let plain = Analysis::run(&mcfg, &Config::polynomial()).substitution_total(&mcfg);
        let t_plain = t0.elapsed();

        let t0 = Instant::now();
        let complete = complete_propagation(&mcfg, &Config::polynomial());
        let t_complete = t0.elapsed();

        let gated_config = Config::polynomial()
            .rebuild()
            .gated(true)
            .build()
            .expect("gated over polynomial is valid");
        let t0 = Instant::now();
        let gated = Analysis::run(&mcfg, &gated_config).substitution_total(&mcfg);
        let t_gated = t0.elapsed();

        println!("{name}:");
        println!("  plain polynomial       {plain:>4} constants  ({t_plain:.2?})");
        println!(
            "  complete propagation   {:>4} constants  ({t_complete:.2?}, {} DCE round(s))",
            complete.substitution.total, complete.dce_rounds
        );
        println!(
            "  gated generation       {gated:>4} constants  ({t_gated:.2?}, no transformation)"
        );
        println!();
    }
    println!("Gated generation matches the complete-propagation counts without");
    println!("ever rewriting the program — the dead paths are simply never seen.");
}
