//! The return-jump-function showcase: `ocean`'s initialization routine
//! assigns constant values to globals, and only return jump functions let
//! later call sites transmit them. This example reproduces the >3x swing
//! the paper reports for ocean, and shows the complete-propagation bonus.
//!
//! ```sh
//! cargo run -p ipcp --example ocean_init
//! ```

use ipcp::{complete_propagation, Analysis, Config};
use ipcp_ir::program::SlotLayout;
use ipcp_suite::program;

fn main() {
    let prog = program("ocean").expect("suite program exists");
    let mcfg = prog.module_cfg();
    let layout = SlotLayout::new(&mcfg.module);

    let with = Analysis::run(&mcfg, &Config::default());
    let with_count = with.substitution_total(&mcfg);
    println!("== with return jump functions: {with_count} constants ==\n");
    print!("{}", with.vals.display(&mcfg, &layout));

    let without = Analysis::run(&mcfg, &Config::default().with_return_jfs(false));
    let without_count = without.substitution_total(&mcfg);
    println!("\n== without return jump functions: {without_count} constants ==\n");
    print!("{}", without.vals.display(&mcfg, &layout));

    println!(
        "\nreturn jump functions multiplied the useful constants by {:.1}x",
        with_count as f64 / without_count.max(1) as f64
    );

    let complete = complete_propagation(&mcfg, &Config::polynomial());
    println!(
        "\ncomplete propagation: {} constants after {} DCE round(s), {} statements removed",
        complete.substitution.total, complete.dce_rounds, complete.statements_removed
    );
}
