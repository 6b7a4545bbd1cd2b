//! # ipcp-bench — regenerating the paper's tables and figures
//!
//! One binary per exhibit:
//!
//! * `figure1` — the constant-propagation lattice and meet rules;
//! * `table1` — suite characteristics (lines, procedures, mean/median);
//! * `table2` — constants substituted per forward jump function, with and
//!   without return jump functions;
//! * `table3` — polynomial without MOD / with MOD / complete propagation /
//!   purely intraprocedural propagation.
//!
//! Run e.g. `cargo run -p ipcp-bench --bin table2`. The `bench_solver`
//! binary measures the solve cost of §3.1.5 (wavefront, §4.1 worklist
//! and binding multigraph over the same jump functions).

pub mod tables;
pub mod trend;

pub use tables::{table1_rows, table2_rows, table3_rows, Table2Row, Table3Row};
pub use trend::{compare_dirs, compare_report, TrendReport, BENCH_FILES};
