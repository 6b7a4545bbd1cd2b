//! `perfbench` — the repository's benchmark. `run.py` builds `ipcc` and
//! this binary, then calls
//!
//! ```text
//! perfbench --ipcc <path> --expected <expected.tsv> --work <dir>
//!           --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! and this binary prints one JSON result as its last stdout line:
//! every end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. `perfbench record --seeds <a>..<b>` prints the
//! `expected.tsv` rows for a seed range instead. See README.md.

mod analyze;
mod child;
mod digest;
mod serve;
mod stats;
mod traced;
mod workload;

use digest::Constants;
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::path::PathBuf;
use workload::{Program, Workload, WORKLOADS};

/// Attempted and failed operations of a run. An operation is one child
/// process, one daemon request or batch item, or one reference check.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, note: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(note.into());
        }
    }

    pub fn check(&mut self, cond: bool, note: impl FnOnce() -> String) {
        if cond {
            self.ok();
        } else {
            self.fail(note());
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(20);
    }
}

struct Args {
    ipcc: PathBuf,
    expected: PathBuf,
    work: PathBuf,
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut m: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k}"))?;
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        m.insert(key, v);
    }
    let get = |k: &str| m.get(k).copied().ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?;
    let workload = workload::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name} (have: {})", names.join(", "))
    })?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        ipcc: get("ipcc")?.into(),
        expected: get("expected")?.into(),
        work: get("work")?.into(),
        workload,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, got {t}")),
        },
    })
}

/// The table a program must produce: the recorded one when
/// `expected.tsv` has its spec, else the worklist solver's. Either way
/// the worklist and wavefront solvers must agree with it.
fn expected_table(
    program: &Program,
    recorded: &str,
    tally: &mut Tally,
) -> Result<Constants, String> {
    let (worklist, wavefront) = workload::reference(&program.source)?;
    let worklist = Constants::of_text(&worklist);
    tally.check(worklist == Constants::of_text(&wavefront), || {
        format!("{}: worklist and wavefront solvers disagree", program.spec)
    });
    match workload::recorded(recorded, &program.spec) {
        Some(rec) => {
            tally.check(rec == worklist, || {
                format!(
                    "{}: worklist table {worklist:?} != recorded {rec:?}",
                    program.spec
                )
            });
            Ok(rec)
        }
        None => {
            eprintln!(
                "perfbench: no recorded table for {}; using the worklist solver's",
                program.spec
            );
            Ok(worklist)
        }
    }
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Rounds of the untraced run: each times `ipcc analyze` pairs for its
/// share of the batch half, then drives the daemon for its share of the
/// editor half.
const ROUNDS: usize = 5;
/// Share of the untraced run's editor half spent on edits. Reads alone
/// and batches only feed the traced run's unbounded `daemon.*` figures,
/// so here they run just long enough to check their replies.
const EDIT_SHARE: f64 = 0.8;

/// The untraced run: every end-to-end metric.
fn end_to_end(a: &Args, recorded: &str, tally: &mut Tally) -> Result<Metrics, String> {
    let w = a.workload;
    let batch = Program::generate(&a.work, w.batch, a.seed, "batch")?;
    let serve_prog = Program::generate(&a.work, w.serve, a.seed, "serve")?;
    let batch_expected = expected_table(&batch, recorded, tally)?;
    let serve_expected = if serve_prog.spec == batch.spec {
        batch_expected.clone()
    } else {
        expected_table(&serve_prog, recorded, tally)?
    };

    let warmups = if w.setup_is_boot { 1 } else { 2 };
    let mut b = analyze::BatchRun::default();
    b.warm_up(&a.ipcc, &batch.path, warmups, &batch_expected, tally)?;
    let boots = if w.setup_is_boot { 3 } else { 1 };
    let mut session = serve::Session::boot(
        &a.ipcc,
        &a.work,
        &serve_prog.path,
        &serve_prog.spec,
        a.seed,
        boots,
        &serve_expected,
        tally,
    )?;
    // The halves alternate in rounds, so a drift in the host's speed
    // during the run reaches both halves' medians alike.
    let batch_s = a.seconds * w.batch_share;
    let serve_s = a.seconds - batch_s;
    for r in 1..=ROUNDS {
        b.pairs(
            &a.ipcc,
            &batch.path,
            batch_s * r as f64 / ROUNDS as f64,
            &batch_expected,
            tally,
        )?;
        session.round(serve_s / ROUNDS as f64, EDIT_SHARE, tally)?;
    }
    let s = session.finish(tally)?;

    let (setup, rss, found) = if w.setup_is_boot {
        (&s.boot_s, s.vm_hwm_mb, s.initial.as_ref().map(|c| c.pairs))
    } else {
        (
            &b.warmup_s,
            median(&b.rss_mb),
            b.constants.as_ref().map(|c| c.pairs),
        )
    };
    Ok(vec![
        ("setup_s", median(setup), "s"),
        ("analyze_s", median(&b.par_s), "s"),
        ("analyze_j1_s", median(&b.seq_s), "s"),
        ("peak_rss_mb", rss, "MB"),
        ("constants_found", found.unwrap_or(0) as f64, "count"),
        ("edit_p50_ms", median(&s.edit_ms), "ms"),
    ])
}

/// The daemon's client-side figures that no bound can hold on a host
/// with CPU steal (see README.md), reported by the traced run.
fn daemon_figures(s: &serve::ServeRun) -> Metrics {
    vec![
        ("daemon.edit_p90_ms", percentile(&s.edit_ms, 0.9), "ms"),
        ("daemon.read_p50_us", median(&s.read_us.concat()), "us"),
        (
            "daemon.read_p99_us",
            windowed(&s.read_us, |w| percentile(w, 0.99)),
            "us",
        ),
        (
            "daemon.read_under_edit_p99_us",
            percentile(&s.read_under_edit_us, 0.99),
            "us",
        ),
        (
            "daemon.batch_reads_per_s",
            windowed(&s.batches, |&(n, t)| n as f64 / t),
            "1/s",
        ),
    ]
}

/// The median over windows of a per-window figure; windows without
/// samples are skipped.
fn windowed<T>(windows: &[T], figure: impl Fn(&T) -> f64) -> f64 {
    let per_window: Vec<f64> = windows
        .iter()
        .map(figure)
        .filter(|v| v.is_finite())
        .collect();
    median(&per_window)
}

/// Units of the per-layer metrics, by name suffix.
fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("_ms") || name.ends_with(".ms") {
        "ms"
    } else if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_bytes") {
        "bytes"
    } else if name.ends_with("ratio") || name.ends_with("coverage") || name.ends_with("speedup") {
        "ratio"
    } else {
        "count"
    }
}

/// The traced run: every per-layer metric.
fn per_layer(a: &Args, recorded: &str, tally: &mut Tally) -> Result<Metrics, String> {
    let w = a.workload;
    let batch = Program::generate(&a.work, w.batch, a.seed, "batch")?;
    let serve_prog = Program::generate(&a.work, w.serve, a.seed, "serve")?;
    let expected = expected_table(&batch, recorded, tally)?;
    let mut trace = traced::Trace::new();
    let mut layers = traced::Layers::default();
    traced::pipeline(
        &batch,
        &expected,
        a.seconds * 0.45,
        &mut trace,
        &mut layers,
        tally,
    )?;
    traced::serve_replay(
        &serve_prog,
        a.seed,
        a.seconds * 0.2,
        &mut trace,
        &mut layers,
        tally,
    )?;
    let serve_expected = if serve_prog.spec == batch.spec {
        expected.clone()
    } else {
        expected_table(&serve_prog, recorded, tally)?
    };
    let s = serve::run(
        &a.ipcc,
        &a.work,
        &serve_prog.path,
        &serve_prog.spec,
        a.seed,
        a.seconds * 0.15,
        1,
        &serve_expected,
        tally,
    )?;
    let b = analyze::run(&a.ipcc, &batch.path, a.seconds * 0.2, 0, &expected, tally)?;
    let trace_file = a.work.join(format!("trace-{}-{}.json", w.name, a.seed));
    std::fs::write(&trace_file, trace.to_chrome_json())
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    let mut out: Metrics = layers
        .medians()
        .into_iter()
        .map(|(k, v)| (k, v, layer_unit(k)))
        .collect();
    out.push((
        "par.jobs_speedup",
        median(&b.seq_s) / median(&b.par_s),
        "ratio",
    ));
    // The socket transport's share of a read: the daemon's unbatched
    // read median minus the in-process snapshot read and JSON rendering.
    let in_process = layers.median("serve.snapshot_read_us") + layers.median("serve.json_us");
    let read_p50 = median(&s.read_us.concat());
    out.push(("serve.transport_us", read_p50 - in_process, "us"));
    out.extend(daemon_figures(&s));
    Ok(out)
}

/// `record --seeds a..b [--spec <spec>]`: the `expected.tsv` rows of
/// every distinct program of every workload (or of `spec` alone) for
/// those seeds.
fn record(argv: &[String]) -> Result<(), String> {
    let (range, only) = match argv {
        [flag, r] if flag == "--seeds" => (r, None),
        [flag, r, sf, spec] if flag == "--seeds" && sf == "--spec" => (r, Some(spec.as_str())),
        _ => return Err("usage: perfbench record --seeds <a>..<b> [--spec <spec>]".into()),
    };
    let (lo, hi) = range.split_once("..").ok_or("seed range is <a>..<b>")?;
    let lo: u64 = lo.parse().map_err(|e| format!("{e}"))?;
    let hi: u64 = hi.parse().map_err(|e| format!("{e}"))?;
    let mut specs: Vec<&str> = Vec::new();
    for w in WORKLOADS {
        for s in [w.batch, w.serve] {
            if !specs.contains(&s) && only.is_none_or(|o| o == s) {
                specs.push(s);
            }
        }
    }
    for seed in lo..hi {
        for spec in &specs {
            let full = format!("{spec},seed={seed}");
            let src = ipcp_suite::generate_scale(&ipcp_suite::ScaleSpec::parse(&full)?);
            let (worklist, wavefront) = workload::reference(&src)?;
            if worklist != wavefront {
                return Err(format!("{full}: worklist and wavefront solvers disagree"));
            }
            let c = Constants::of_text(&worklist);
            println!("{full}\t{}\t{}", c.digest, c.pairs);
        }
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("record") {
        if let Err(e) = record(&argv[1..]) {
            eprintln!("perfbench record: {e}");
            std::process::exit(2);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let recorded = match std::fs::read_to_string(&args.expected) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.expected.display());
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: {}: {e}", args.work.display());
        std::process::exit(2);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: {} seed {} for {} s on {cores} core(s)",
        args.workload.name, args.seed, args.seconds
    );
    let mut tally = Tally::default();
    let result = if args.trace {
        per_layer(&args, &recorded, &mut tally)
    } else {
        end_to_end(&args, &recorded, &mut tally)
    };
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {} seed {}: {e}", args.workload.name, args.seed);
            std::process::exit(1);
        }
    };
    for n in &tally.notes {
        eprintln!("perfbench: FAILED: {n}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, u)| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    let correct = tally.failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
}

/// A JSON number. A metric with no samples is NaN; it is printed as 0
/// and the run is reported incorrect.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
