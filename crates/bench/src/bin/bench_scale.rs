//! The whole-program scale tiers: 1k / 10k / 100k procedures, analyzed
//! at jobs = {1, N} with the same cross-jobs determinism gate as
//! `bench_par`, plus the two numbers the other benches cannot see —
//! wall time at scale and **peak RSS**.
//!
//! `ru_maxrss` is a per-process high-water mark, so measuring three
//! tiers in one process would report the largest tier's footprint for
//! all of them. Each (tier, jobs) cell therefore runs in a child
//! process (`bench_scale --child <spec> <jobs>`): the child builds the
//! module through the *streaming* front end (`resolve_streaming` over a
//! `ScaleSource`), runs the analysis, and prints one JSON row; the
//! parent collects the rows, checks that every job count reached the
//! identical fixpoint, enforces the optional ceilings, and writes
//! `BENCH_scale.json` into the current directory.
//!
//! Knobs (all environment variables):
//!
//! * `IPCP_SCALE_TIERS` — comma list of tiers to run (`1k,10k,100k`;
//!   default all three; `ci.sh scale-smoke` runs `1k,10k`);
//! * `IPCP_BENCH_JOBS` — parallel job counts swept against jobs=1
//!   (default `4`);
//! * `IPCP_BENCH_REPS` — analysis repetitions per cell, best-of
//!   (default 1 — tiers are big; identity matters more than variance);
//! * `IPCP_SCALE_MAX_WALL_MS` / `IPCP_SCALE_MAX_RSS_MB` — hard ceilings
//!   per cell; any breach fails the run after the JSON is written.

use ipcp::serve::json::{self, Json};
use ipcp::{peak_rss_bytes, Analysis, Config};
use ipcp_ir::resolve_streaming;
use ipcp_suite::{ScaleSource, ScaleSpec};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The named tiers. Seeds differ per tier so no tier is a prefix of
/// another (a 10k program is *not* the first tenth of the 100k one).
const TIERS: &[(&str, &str)] = &[
    ("1k", "procs=1k,shape=mixed,recursion=8,seed=101"),
    ("10k", "procs=10k,shape=mixed,recursion=8,seed=102"),
    ("100k", "procs=100k,shape=mixed,recursion=8,seed=103"),
];

fn env_usize(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

fn reps() -> u32 {
    env_usize("IPCP_BENCH_REPS")
        .map(|r| r as u32)
        .filter(|&r| r >= 1)
        .unwrap_or(1)
}

fn job_sweep() -> Vec<usize> {
    let par: Vec<usize> = std::env::var("IPCP_BENCH_JOBS")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse().ok())
                .filter(|&j| j >= 2)
                .collect()
        })
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![4]);
    let mut sweep = vec![1];
    sweep.extend(par);
    sweep
}

fn tiers() -> Vec<(&'static str, &'static str)> {
    let Ok(wanted) = std::env::var("IPCP_SCALE_TIERS") else {
        return TIERS.to_vec();
    };
    let names: Vec<&str> = wanted
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    TIERS
        .iter()
        .filter(|(name, _)| names.contains(name))
        .copied()
        .collect()
}

/// Streams `Debug` formatting straight into the FNV-128 hasher — the
/// analysis-result digest never materializes as a string (at 100k
/// procedures it would be tens of megabytes, polluting the RSS reading).
struct HashWriter(ipcp_ir::hash::Fnv128);

impl std::fmt::Write for HashWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

/// Child mode: one (spec, jobs) cell, one JSON row on stdout.
fn child(spec_str: &str, jobs: usize) -> Result<(), Box<dyn std::error::Error>> {
    let spec = ScaleSpec::parse(spec_str)?;
    let t0 = Instant::now();
    let source = ScaleSource::new(spec);
    let streamed =
        resolve_streaming(&source).map_err(|d| format!("scale program failed to resolve: {d}"))?;
    let resolve = t0.elapsed();
    let t1 = Instant::now();
    let mcfg = ipcp_ir::lower_module(&streamed.module);
    let lower = t1.elapsed();
    let build = resolve + lower;

    let config = Config::default().with_jobs(jobs);
    let mut best = Duration::MAX;
    let mut last: Option<Analysis> = None;
    for _ in 0..reps() {
        let t = Instant::now();
        let a = Analysis::run(&mcfg, &config);
        best = best.min(t.elapsed());
        last = Some(a);
    }
    let a = last.ok_or("reps must be >= 1")?;

    let mut hw = HashWriter(ipcp_ir::hash::Fnv128::new());
    write!(hw, "{:?}{:?}{:?}", a.vals.vals, a.health, a.quarantined)?;
    let digest = hw.0.finish();

    let rss = peak_rss_bytes().unwrap_or(0);
    let mut stages = String::new();
    for (name, pt) in a.timings.stages() {
        let _ = write!(stages, "\"{name}_us\": {}, ", pt.wall.as_micros());
    }
    println!(
        concat!(
            "{{\"n_procs\": {}, \"resolve_ms\": {}, \"lower_ms\": {}, ",
            "\"build_ms\": {}, \"analyze_ms\": {}, ",
            "\"rss_bytes\": {}, \"total_bytes\": {}, \"peak_chunk_bytes\": {}, ",
            "{}\"solver_iterations\": {}, \"digest\": \"{:032x}\"}}"
        ),
        mcfg.module.procs.len(),
        resolve.as_millis(),
        lower.as_millis(),
        build.as_millis(),
        best.as_millis(),
        rss,
        streamed.total_bytes,
        streamed.peak_chunk_bytes,
        stages,
        a.vals.iterations,
        digest,
    );
    Ok(())
}

/// One collected cell.
struct Cell {
    tier: &'static str,
    jobs: usize,
    row: json::Object,
    digest: String,
}

fn get_i64(obj: &json::Object, key: &str) -> i64 {
    obj.get(key).and_then(Json::as_i64).unwrap_or(0)
}

fn run_cell(tier: &'static str, spec: &str, jobs: usize) -> Result<Cell, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--child", spec, &jobs.to_string()])
        .output()
        .map_err(|e| format!("spawning child for tier {tier}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "tier {tier} jobs={jobs} child failed: {}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let parsed = json::parse(text.trim())
        .map_err(|e| format!("tier {tier} jobs={jobs}: bad child row: {e}"))?;
    let Json::Object(row) = parsed else {
        return Err(format!(
            "tier {tier} jobs={jobs}: child row is not an object"
        ));
    };
    let digest = row
        .get("digest")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("tier {tier} jobs={jobs}: child row has no digest"))?
        .to_owned();
    Ok(Cell {
        tier,
        jobs,
        row,
        digest,
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 4 && args[1] == "--child" {
        return child(&args[2], args[3].parse()?);
    }

    let sweep = job_sweep();
    let tiers = tiers();
    if tiers.is_empty() {
        return Err("IPCP_SCALE_TIERS selected no known tier (have: 1k, 10k, 100k)".into());
    }
    let max_wall_ms = env_usize("IPCP_SCALE_MAX_WALL_MS");
    let max_rss_mb = env_usize("IPCP_SCALE_MAX_RSS_MB");

    let mut cells: Vec<Cell> = Vec::new();
    println!(
        "{:<6} {:>5} {:>10} {:>12} {:>8} {:>10} {:>9}",
        "tier", "jobs", "build_ms", "analyze_ms", "rss_mb", "solve_us", "iters"
    );
    let mut failures: Vec<String> = Vec::new();
    for &(tier, spec) in &tiers {
        for &jobs in &sweep {
            let cell = run_cell(tier, spec, jobs)?;
            let wall_ms = get_i64(&cell.row, "build_ms") + get_i64(&cell.row, "analyze_ms");
            let rss_mb = get_i64(&cell.row, "rss_bytes") / (1024 * 1024);
            println!(
                "{:<6} {:>5} {:>10} {:>12} {:>8} {:>10} {:>9}",
                tier,
                jobs,
                get_i64(&cell.row, "build_ms"),
                get_i64(&cell.row, "analyze_ms"),
                rss_mb,
                get_i64(&cell.row, "solve_us"),
                get_i64(&cell.row, "solver_iterations"),
            );
            if let Some(limit) = max_wall_ms {
                if wall_ms as u64 > limit {
                    failures.push(format!(
                        "tier {tier} jobs={jobs}: wall {wall_ms} ms exceeds ceiling {limit} ms"
                    ));
                }
            }
            if let Some(limit) = max_rss_mb {
                if rss_mb as u64 > limit {
                    failures.push(format!(
                        "tier {tier} jobs={jobs}: peak RSS {rss_mb} MB exceeds ceiling {limit} MB"
                    ));
                }
            }
            cells.push(cell);
        }
    }

    // The determinism contract, across processes: every job count must
    // reach the bit-identical fixpoint (vals, health, quarantine flags).
    let mut rows = Vec::new();
    for &(tier, spec) in &tiers {
        let tier_cells: Vec<&Cell> = cells.iter().filter(|c| c.tier == tier).collect();
        let identical = tier_cells.windows(2).all(|w| w[0].digest == w[1].digest);
        if !identical {
            failures.push(format!("tier {tier}: job counts diverged (see digests)"));
        }
        for c in &tier_cells {
            let mut row = format!(
                "    {{\"program\": \"scale-{tier}\", \"tier\": \"{tier}\", \"spec\": \"{spec}\", \"jobs\": {}, ",
                c.jobs
            );
            let wall_ms = get_i64(&c.row, "build_ms") + get_i64(&c.row, "analyze_ms");
            let rss_mb = get_i64(&c.row, "rss_bytes") / (1024 * 1024);
            let _ = write!(row, "\"wall_ms\": {wall_ms}, \"rss_mb\": {rss_mb}, ");
            for key in [
                "n_procs",
                "resolve_ms",
                "lower_ms",
                "build_ms",
                "analyze_ms",
                "total_bytes",
                "peak_chunk_bytes",
                "modref_us",
                "ssa_us",
                "retjump_us",
                "jump_us",
                "solve_us",
                "solver_iterations",
            ] {
                let _ = write!(row, "\"{key}\": {}, ", get_i64(&c.row, key));
            }
            let _ = write!(row, "\"identical\": {identical}}}");
            rows.push(row);
        }
    }

    let reps = reps();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let jobs_list = sweep
        .iter()
        .map(|j| j.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let json_text = format!(
        "{{\n  \"jobs\": [{jobs_list}],\n  \"cores\": {cores},\n  \"reps\": {reps},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write("BENCH_scale.json", &json_text)?;
    println!("wrote BENCH_scale.json (jobs=[{jobs_list}], cores={cores}, best of {reps})");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        return Err(format!("{} scale gate failure(s)", failures.len()).into());
    }
    Ok(())
}
