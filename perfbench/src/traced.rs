//! The traced run: per-layer numbers from the benchmark's own spans.
//!
//! The program itself is not instrumented. Instead the analysis pipeline
//! is rebuilt here, in-process, from each layer's public functions, in
//! the order `Analysis::run` calls them at `jobs = 1`:
//!
//! `parse_and_resolve` → `lower_module` → `build_call_graph` /
//! `SlotLayout::new` → `direct_effects` ×n + `propagate_modref` →
//! `build_return_jfs` → per procedure `build_ssa` + `evaluate_under` with
//! `RetOracle` → `build_forward_jump_fns` → `solve(.., 1)` → `substitute`.
//!
//! Each call is timed as a span. The rebuilt pipeline must reach the
//! bit-identical `VAL` sets, meet count and iteration count of
//! `Analysis::run`, or the run fails. The serve layers are timed the same
//! way by replaying the seeded edit stream through `ServeEngine` and,
//! alongside it, through the public pieces `ServeEngine::update` is made
//! of. Spans stay in memory and are written as a Chrome trace-event file
//! (`trace-<workload>-<seed>.json` in the work directory) when the run
//! ends.

use crate::digest::Constants;
use crate::serve::{proc_name, EditStream, READS};
use crate::stats::median;
use crate::workload::{self, Program};
use crate::Tally;
use ipcp::jump::{build_forward_jump_fns, ProcSymbolic};
use ipcp::retjump::RetOracle;
use ipcp::serve::{
    analyze_incremental, CacheTxn, EngineStats, ProgramModel, RequestOutcome, ServeEngine,
    Snapshot, SummaryCache,
};
use ipcp::{
    build_return_jfs, solve, substitute, Analysis, Governor, JumpFn, Lattice, Stage, Timings,
};
use ipcp_analysis::{build_call_graph, direct_effects, propagate_modref};
use ipcp_ir::program::{ProcId, SlotLayout};
use ipcp_ssa::ssa::{build_ssa, ModKills};
use ipcp_ssa::symbolic::{evaluate_under, EvalBudget};
use ipcp_suite::Rng;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One closed span: name, parent, start/end relative to the trace origin,
/// and the counters recorded on it.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
    counters: Vec<(&'static str, f64)>,
}

/// An in-memory span tree.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open one.
    fn open(&mut self, name: &'static str) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: now,
            end: now,
            counters: Vec::new(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id` (the innermost open one) and returns its wall.
    fn close(&mut self, id: usize) -> Duration {
        debug_assert_eq!(self.open.last(), Some(&id));
        self.open.pop();
        let s = &mut self.spans[id];
        s.end = self.origin.elapsed();
        s.end - s.start
    }

    /// Runs `f` inside a span named `name`; returns its result and wall.
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let id = self.open(name);
        let r = f();
        (r, self.close(id))
    }

    fn count(&mut self, id: usize, name: &'static str, value: f64) {
        self.spans[id].counters.push((name, value));
    }

    /// Child time / own wall of span `id`: how much of it is accounted
    /// for by named layers.
    fn coverage(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        let children: Duration = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end - c.start)
            .sum();
        children.as_secs_f64() / (s.end - s.start).as_secs_f64()
    }

    /// The spans as a Chrome trace-event array (open in Perfetto or
    /// `about:tracing`).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let mut args = String::new();
            for (k, v) in &s.counters {
                let _ = write!(
                    args,
                    "{}\"{k}\": {v}",
                    if args.is_empty() { "" } else { ", " }
                );
            }
            let _ = write!(
                out,
                "{}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{{args}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
            );
        }
        out.push_str("\n]\n");
        out
    }
}

/// Per-layer samples, one value per repetition (or per edit / read).
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    fn push_ms(&mut self, name: &'static str, d: Duration) {
        self.push(name, d.as_secs_f64() * 1e3);
    }

    fn push_us(&mut self, name: &'static str, d: Duration) {
        self.push(name, d.as_secs_f64() * 1e6);
    }

    /// The median of every layer's samples.
    pub fn medians(&self) -> BTreeMap<&'static str, f64> {
        self.0.iter().map(|(k, v)| (*k, median(v))).collect()
    }

    pub fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(f64::NAN, |v| median(v))
    }
}

/// What `Analysis::run` reached: the identity the rebuilt pipeline must
/// match.
struct Baseline {
    vals: Vec<Vec<Lattice>>,
    meets: usize,
    iterations: usize,
}

/// One pass of the rebuilt pipeline over `source`, recording spans into
/// `trace` and samples into `layers`. Returns the assembled analysis.
fn compose(source: &str, trace: &mut Trace, layers: &mut Layers) -> Result<Analysis, String> {
    let config = workload::config();
    let root = trace.open("pipeline");

    let (module, d) = trace.time("ir.parse_resolve", || ipcp_ir::parse_and_resolve(source));
    let module = module.map_err(|e| format!("{e:?}"))?;
    layers.push_ms("ir.parse_resolve_ms", d);
    let (mcfg, d) = trace.time("ir.lower", || ipcp_ir::lower_module(&module));
    drop(module);
    layers.push_ms("ir.lower_ms", d);
    layers.push("ir.source_bytes", source.len() as f64);

    let ((cg, layout), d) = trace.time("analysis.callgraph", || {
        (build_call_graph(&mcfg), SlotLayout::new(&mcfg.module))
    });
    layers.push_ms("analysis.callgraph_ms", d);

    let n = mcfg.module.procs.len();
    let mut gov = Governor::new(&config);
    let mut quarantined = vec![false; n];
    let span = trace.open("analysis.modref");
    let mut mods = Vec::with_capacity(n);
    let mut refs = Vec::with_capacity(n);
    for pi in 0..n {
        if !gov.charge(Stage::ModRef) {
            return Err("MOD/REF budget exhausted".into());
        }
        let (m, r) = direct_effects(&mcfg, ProcId::from(pi));
        mods.push(m);
        refs.push(r);
    }
    let modref = propagate_modref(&mcfg, &cg, mods, refs);
    layers.push_ms("analysis.modref_ms", trace.close(span));

    let kills = ModKills(&modref);
    let (ret_jfs, d) = trace.time("retjump", || {
        build_return_jfs(
            &mcfg,
            &cg,
            &layout,
            &kills,
            &config,
            &mut quarantined,
            &mut gov,
        )
    });
    layers.push_ms("retjump.ms", d);

    let jump = trace.open("jump");
    let units = trace.open("jump.units");
    let latch = Arc::clone(gov.latch());
    let budget = EvalBudget {
        max_steps: gov.limits().max_symbolic_steps,
        deadline: None,
        latch: Some(&*latch),
    };
    let (mut ssa_t, mut sym_t, mut values) = (Duration::ZERO, Duration::ZERO, 0usize);
    let mut symbolics: Vec<Option<ProcSymbolic>> = Vec::with_capacity(n);
    for (pi, (&reachable, &quarantined)) in cg.reachable.iter().zip(&quarantined).enumerate() {
        if !reachable || quarantined {
            symbolics.push(None);
            continue;
        }
        let t = Instant::now();
        let ssa = build_ssa(&mcfg, ProcId::from(pi), &kills);
        ssa_t += t.elapsed();
        values += ssa.values.len();
        let oracle = RetOracle {
            table: &ret_jfs,
            mcfg: &mcfg,
            layout: &layout,
        };
        let t = Instant::now();
        let (sym, exhausted) = evaluate_under(&mcfg, &ssa, &layout, &oracle, None, &budget);
        sym_t += t.elapsed();
        if exhausted {
            return Err(format!(
                "symbolic evaluation of procedure {pi} ran out of steps"
            ));
        }
        symbolics.push(Some(ProcSymbolic {
            ssa,
            sym,
            gate: None,
        }));
    }
    trace.count(units, "ssa_build_ms", ssa_t.as_secs_f64() * 1e3);
    trace.count(units, "symbolic_ms", sym_t.as_secs_f64() * 1e3);
    trace.count(units, "ssa_values", values as f64);
    trace.close(units);
    layers.push_ms("ssa.build_ms", ssa_t);
    layers.push_ms("ssa.symbolic_ms", sym_t);
    layers.push("ssa.values", values as f64);
    let (jump_fns, _) = trace.time("jump.forward", || {
        build_forward_jump_fns(
            &mcfg,
            &cg,
            &layout,
            &config,
            &symbolics,
            &mut quarantined,
            &mut gov,
        )
    });
    let (mut built, mut informative) = (0usize, 0usize);
    for jf in jump_fns.sites.iter().flatten().flatten() {
        built += 1;
        informative += usize::from(!matches!(jf, JumpFn::Bottom));
    }
    trace.count(jump, "constructed", built as f64);
    trace.count(jump, "informative", informative as f64);
    layers.push_ms("jump.ms", trace.close(jump));
    layers.push(
        "jump.informative_ratio",
        informative as f64 / built.max(1) as f64,
    );

    let ((vals, _), d) = trace.time("solve", || {
        solve(
            &mcfg,
            &cg,
            &layout,
            &jump_fns,
            Lattice::Bottom,
            &config,
            &mut gov,
            &mut quarantined,
            1,
        )
    });
    layers.push_ms("solve.ms", d);
    layers.push("solve.iterations", vals.iterations as f64);
    layers.push("solve.meets", vals.meets as f64);

    let analysis = Analysis {
        config,
        cg,
        modref,
        layout,
        ret_jfs,
        symbolics,
        jump_fns,
        vals,
        health: gov.into_health(),
        quarantined,
        timings: Timings::default(),
    };
    let (sub, d) = trace.time("substitute", || substitute(&mcfg, &analysis));
    layers.push_ms("substitute.ms", d);
    layers.push("substitute.count", sub.total as f64);

    trace.close(root);
    layers.push("trace.span_coverage", trace.coverage(root));
    if !analysis.health.events.is_empty() || analysis.quarantined.iter().any(|&q| q) {
        return Err(format!(
            "rebuilt pipeline degraded: {:?}",
            analysis.health.events
        ));
    }
    Ok(analysis)
}

/// The batch half of a traced run: rebuild the pipeline until `seconds`
/// have passed (at least twice), checking every pass.
pub fn pipeline(
    program: &Program,
    expected: &Constants,
    seconds: f64,
    trace: &mut Trace,
    layers: &mut Layers,
    tally: &mut Tally,
) -> Result<(), String> {
    let mcfg = ipcp_ir::lower_module(
        &ipcp_ir::parse_and_resolve(&program.source).map_err(|e| format!("{e:?}"))?,
    );
    let baseline = {
        let a = Analysis::run(&mcfg, &workload::config());
        Baseline {
            vals: a.vals.vals,
            meets: a.vals.meets,
            iterations: a.vals.iterations,
        }
    };
    let t0 = Instant::now();
    let mut reps = 0;
    while reps < 2 || t0.elapsed().as_secs_f64() < seconds {
        let a = compose(&program.source, trace, layers)?;
        tally.check(
            a.vals.vals == baseline.vals
                && a.vals.meets == baseline.meets
                && a.vals.iterations == baseline.iterations,
            || {
                format!(
                    "rebuilt pipeline diverges from Analysis::run: meets {} vs {}, iterations {} vs {}",
                    a.vals.meets, baseline.meets, a.vals.iterations, baseline.iterations
                )
            },
        );
        let c = Constants::of_vals(&a.vals, &mcfg);
        tally.check(&c == expected, || {
            format!("rebuilt pipeline table {c:?} != expected {expected:?}")
        });
        reps += 1;
    }
    Ok(())
}

/// The serve half of a traced run: the seeded edit stream replayed
/// in-process, through `ServeEngine::update` and through the public
/// pieces it is made of, for `seconds` (at least 5 edits).
pub fn serve_replay(
    program: &Program,
    seed: u64,
    seconds: f64,
    trace: &mut Trace,
    layers: &mut Layers,
    tally: &mut Tally,
) -> Result<(), String> {
    let config = workload::config();
    let mut engine =
        ServeEngine::new(&program.source, &config).map_err(|e| format!("engine boot: {e}"))?;
    // The mirror: ServeEngine's update path, one public call at a time.
    let mut model = ProgramModel::from_source(&program.source).map_err(|e| e.to_string())?;
    let mut cache = SummaryCache::new();
    let mut txn = CacheTxn::new();
    let mcfg = ipcp_ir::lower_module(
        &ipcp_ir::parse_and_resolve(&model.source()).map_err(|e| format!("{e:?}"))?,
    );
    let first = analyze_incremental(&mcfg, &config, &model.own_hashes(), &cache, &mut txn);
    cache.commit(txn);
    let mut snapshot = snapshot_of(Arc::new(mcfg), Arc::new(first), &cache);

    let mut edits = EditStream::new(&program.spec, seed)?;
    let (mut hits, mut misses, mut n_edits) = (0u64, 0u64, 0u64);
    let t0 = Instant::now();
    while n_edits < 5 || t0.elapsed().as_secs_f64() < seconds {
        let (name, body) = edits.next_edit()?;
        let root = trace.open("serve.edit");

        let before = engine.cache_stats();
        let (r, d) = trace.time("serve.update", || engine.update(&name, &body));
        r.map_err(|e| format!("engine update of {name}: {e}"))?;
        layers.push_ms("serve.update_ms", d);
        let after = engine.cache_stats();
        hits += after.hits - before.hits;
        misses += after.misses - before.misses;
        n_edits += 1;

        let (candidate, d) = trace.time("serve.model", || model.replace_proc(&name, &body));
        model = candidate.map_err(|e| e.to_string())?;
        layers.push_ms("serve.model_ms", d);
        let (mcfg, d) = trace.time("serve.frontend", || {
            ipcp_ir::parse_and_resolve(&model.source()).map(|m| ipcp_ir::lower_module(&m))
        });
        let mcfg = mcfg.map_err(|e| format!("{e:?}"))?;
        layers.push_ms("serve.frontend_ms", d);
        let mut txn = CacheTxn::new();
        let (analysis, d) = trace.time("serve.incremental", || {
            analyze_incremental(&mcfg, &config, &model.own_hashes(), &cache, &mut txn)
        });
        cache.commit(txn);
        layers.push_ms("serve.incremental_ms", d);
        tally.check(
            analysis.vals.vals == engine.analysis().vals.vals
                && cache.stats().hits == after.hits
                && cache.stats().misses == after.misses,
            || format!("rebuilt update of {name} diverges from ServeEngine::update"),
        );
        snapshot = snapshot_of(Arc::new(mcfg), Arc::new(analysis), &cache);
        let (_, d) = trace.time("serve.substituted", || snapshot.substituted());
        layers.push_ms("serve.substituted_ms", d);
        trace.close(root);
    }
    layers.push(
        "serve.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    layers.push(
        "serve.cache.misses_per_edit",
        misses as f64 / n_edits as f64,
    );

    // The read path in-process: the snapshot lookup and the JSON
    // rendering a `constants` reply is made of.
    let mut rng = Rng::new(seed ^ READS);
    for _ in 0..2000 {
        let name = proc_name(rng.below(edits.n_procs() as u64) as usize);
        let t = Instant::now();
        let report = snapshot.constants(Some(&name));
        let d_read = t.elapsed();
        let report = report.map_err(|e| e.to_string())?;
        let t = Instant::now();
        let text = report.to_json().to_string();
        let d_json = t.elapsed();
        std::hint::black_box(text);
        layers.push_us("serve.snapshot_read_us", d_read);
        layers.push_us("serve.json_us", d_json);
    }
    tally.ok();
    Ok(())
}

fn snapshot_of(
    mcfg: Arc<ipcp_ir::ModuleCfg>,
    analysis: Arc<Analysis>,
    cache: &SummaryCache,
) -> Snapshot {
    Snapshot::new(
        mcfg,
        analysis,
        RequestOutcome::default(),
        EngineStats::default(),
        cache.stats(),
        cache.len(),
    )
}
