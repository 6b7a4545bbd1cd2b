//! The three workloads, their generated programs, and the reference
//! `CONSTANTS` tables every run is checked against.
//!
//! Every workload has a batch half (`ipcc analyze` on its batch program)
//! and an editor half (`ipcc serve` on its serve program), so every run
//! reports every end-to-end metric. The workload decides the shapes, the
//! sizes, and how the run's seconds are split between the halves.

use crate::digest::Constants;
use ipcp::{solve_worklist_reference, Analysis, Config, Governor, Lattice};
use ipcp_suite::{generate_scale, ScaleSpec};
use std::path::{Path, PathBuf};

/// One workload: a batch program, a serve program, and the share of the
/// measured seconds spent on the batch half.
pub struct Workload {
    pub name: &'static str,
    /// Generator spec of the batch program, without the seed.
    pub batch: &'static str,
    /// Generator spec of the serve program, without the seed.
    pub serve: &'static str,
    /// Share of `--seconds` spent timing `ipcc analyze`; the rest drives
    /// the daemon.
    pub batch_share: f64,
    /// Whether `setup_s` is the daemon's cold boot (otherwise it is the
    /// untimed warm-up `ipcc analyze` run).
    pub setup_is_boot: bool,
}

/// The analyze workloads time 5k-procedure programs: at 10k one
/// `--jobs 2` run of a deep-chains program varied by 0.17 (IQR/median)
/// from one child to the next, at 5k by 0.05, and a run fits twice as
/// many samples.
pub const WORKLOADS: &[Workload] = &[
    // Few condensation levels: per-procedure work (front end, SSA,
    // symbolic evaluation) is almost all of the run and the level
    // barriers hardly matter.
    Workload {
        name: "analyze-wide",
        batch: "procs=5k,shape=wide-fanout,recursion=8",
        serve: "procs=1k,shape=wide-fanout,recursion=8",
        batch_share: 0.6,
        setup_is_boot: false,
    },
    // O(n) condensation levels full of recursive SCCs: retjump's
    // level-serial schedule makes jobs=2 slower than jobs=1. A per-procedure speedup
    // shows less here than on analyze-wide; a scheduling fix shows
    // mostly here.
    Workload {
        name: "analyze-deep",
        batch: "procs=5k,shape=deep-chains,recursion=30",
        serve: "procs=1k,shape=deep-chains,recursion=30",
        batch_share: 0.6,
        setup_is_boot: false,
    },
    // Serve layers the analyze workloads never touch do most of the work
    // here: re-parse, incremental analysis, substitution, snapshot reads,
    // JSON, and the socket transport. The batch program is 4k
    // procedures: at 1k a seed's program size and the host's drift
    // moved `analyze_j1_s` by a quarter between runs.
    Workload {
        name: "serve-mixed",
        batch: "procs=4k,shape=mixed,recursion=8",
        serve: "procs=1k,shape=mixed,recursion=8",
        batch_share: 0.5,
        setup_is_boot: true,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A generated program on disk.
pub struct Program {
    /// The full generator spec, seed included.
    pub spec: String,
    pub path: PathBuf,
    pub source: String,
}

impl Program {
    /// Generates `spec` with `seed` into `dir`.
    pub fn generate(dir: &Path, spec: &str, seed: u64, tag: &str) -> Result<Program, String> {
        let spec = format!("{spec},seed={seed}");
        let parsed = ScaleSpec::parse(&spec)?;
        let source = generate_scale(&parsed);
        let path = dir.join(format!("{tag}.ft"));
        std::fs::write(&path, &source).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Program { spec, path, source })
    }
}

/// The default configuration `ipcc analyze` and `ipcc serve` run under,
/// at one job so in-process references are the canonical path.
pub fn config() -> Config {
    Config::default().with_jobs(1)
}

/// Solves `source` with the §4.1 worklist solver over the jump functions
/// of a cold `jobs = 1` analysis, and returns both canonical tables:
/// `(worklist, wavefront)`. Two solver algorithms over the same jump
/// functions.
pub fn reference(source: &str) -> Result<(String, String), String> {
    let module = ipcp_ir::parse_and_resolve(source).map_err(|d| format!("{d:?}"))?;
    let mcfg = ipcp_ir::lower_module(&module);
    let config = config();
    let a = Analysis::run(&mcfg, &config);
    if !a.health.events.is_empty() {
        return Err(format!(
            "reference analysis degraded: {:?}",
            a.health.events
        ));
    }
    let mut gov = Governor::new(&config);
    let worklist = solve_worklist_reference(
        &mcfg,
        &a.cg,
        &a.layout,
        &a.jump_fns,
        Lattice::Bottom,
        &mut gov,
    );
    let layout = &a.layout;
    Ok((
        worklist.display(&mcfg, layout).to_string(),
        a.vals.display(&mcfg, layout).to_string(),
    ))
}

/// The recorded table for a full spec, from `expected.tsv`
/// (`spec<TAB>digest<TAB>pairs`, `#` comments).
pub fn recorded(table: &str, spec: &str) -> Option<Constants> {
    table.lines().find_map(|line| {
        let mut f = line.split('\t');
        (f.next()? == spec).then_some(())?;
        let digest = f.next()?.to_owned();
        let pairs = f.next()?.parse().ok()?;
        Some(Constants { digest, pairs })
    })
}
