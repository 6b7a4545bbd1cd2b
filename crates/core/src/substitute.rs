//! Constant substitution — the study's effectiveness metric.
//!
//! Following Metzger and Stroud (and §4.1 "Recording the results"), the
//! number reported for a configuration is the number of constants the
//! analyzer could *textually substitute into the code*: every scalar
//! variable occurrence whose reaching value is a known constant is
//! replaced by that constant and counted. This measures useful constants
//! (a known-but-unreferenced global counts for nothing) and factors out
//! procedure length and modularity.
//!
//! The substitution pass seeds each procedure's SCCP with its
//! interprocedural `VAL` set, one worker-pool unit per reachable
//! procedure, and reads the count off the fixpoint with one rule
//! (`count_substitutable`). [`substitution_counts`] stops there; the
//! full [`substitute`] also rewrites the executable blocks, returning
//! the transformed program so tests can check behaviour is preserved.

use crate::pipeline::Analysis;
use ipcp_ir::cfg::{CStmt, Cfg, ModuleCfg, Terminator};
use ipcp_ir::program::{Arg, Expr, Module, ProcId, VarKind};
use ipcp_ir::span::Span;
use ipcp_ssa::sccp::{self, CallDefLattice, OpaqueCallsLattice, SccpResult, Seeds};
use ipcp_ssa::ssa::{build_ssa, ModKills, SsaProc, StmtInfo};
use ipcp_ssa::{Lattice, ValueId};

/// The outcome of a substitution pass.
#[derive(Debug)]
pub struct Substitution {
    /// Constants substituted per procedure.
    pub counts: Vec<usize>,
    /// Total across the program.
    pub total: usize,
    /// The transformed program (constants folded into expressions).
    pub module: ModuleCfg,
    /// The per-procedure SCCP fixpoints (reachable procedures only) —
    /// reused by the complete-propagation driver for branch pruning.
    pub sccps: Vec<Option<SccpResult>>,
    /// Source locations of the replaced occurrences with their values —
    /// the raw material for [`Substitution::to_source`].
    pub replacements: Vec<(Span, i64)>,
}

/// Maps a procedure's `VAL` vector (indexed by entry slot) onto SCCP
/// seeds (indexed by `VarId`).
pub(crate) fn seeds_from_vals(
    mcfg: &ModuleCfg,
    layout: &ipcp_ir::program::SlotLayout,
    p: ProcId,
    vals: &[Lattice],
) -> Seeds {
    let proc = mcfg.module.proc(p);
    let by_var = proc
        .vars
        .iter()
        .map(|info| match info.kind {
            VarKind::Formal(i) => vals.get(i).copied().unwrap_or(Lattice::Bottom),
            VarKind::Global(g) => layout
                .global_slot(proc.arity(), g)
                .and_then(|s| vals.get(s).copied())
                .unwrap_or(Lattice::Bottom),
            VarKind::Local => Lattice::Bottom,
        })
        .collect();
    Seeds::from_vars(by_var)
}

/// Seeds for procedure `p` taken from the analysis `VAL` sets.
fn seeds_for(analysis: &Analysis, mcfg: &ModuleCfg, p: ProcId) -> Seeds {
    seeds_from_vals(mcfg, &analysis.layout, p, analysis.vals.of(p))
}

/// Runs the seeded substitution for every reachable procedure.
pub fn substitute(mcfg: &ModuleCfg, analysis: &Analysis) -> Substitution {
    let oracle = analysis.sccp_oracle(mcfg);
    run_substitution(mcfg, analysis, oracle.as_ref(), |p| {
        seeds_for(analysis, mcfg, p)
    })
}

/// The purely intraprocedural baseline (Table 3, column 4): no seeds, no
/// return jump functions, but MOD-precise kill sets.
pub fn substitute_intraprocedural(mcfg: &ModuleCfg, analysis: &Analysis) -> Substitution {
    run_substitution(mcfg, analysis, &OpaqueCallsLattice, |p| {
        Seeds::none(mcfg.module.proc(p).vars.len())
    })
}

/// The counts of [`substitute`] without the transformed program: per
/// procedure, the constants seeded SCCP lets the analyzer substitute.
/// Equal to `substitute(mcfg, analysis).counts`, at a fraction of the
/// cost — nothing is copied or rewritten.
pub fn substitution_counts(mcfg: &ModuleCfg, analysis: &Analysis) -> Vec<usize> {
    let oracle = analysis.sccp_oracle(mcfg);
    let seeds_of = |p| seeds_for(analysis, mcfg, p);
    sccp_stage(mcfg, analysis, oracle.as_ref(), seeds_of, |_, ssa, res| {
        count_substitutable(ssa, &res)
    })
    .into_iter()
    .map(Option::unwrap_or_default)
    .collect()
}

/// The SCCP stage both substitution paths share: one pool unit per
/// reachable procedure (`analysis.config.effective_jobs()` participants;
/// at jobs=1 the loop runs inline), each running seeded SCCP over the
/// procedure's analysis SSA and handing the fixpoint to `unit`. Results
/// come back in procedure order; `None` marks a procedure with no SSA
/// (unreachable or quarantined).
fn sccp_stage<T: Send>(
    mcfg: &ModuleCfg,
    analysis: &Analysis,
    oracle: &(dyn CallDefLattice + Sync),
    seeds_of: impl Fn(ProcId) -> Seeds + Sync,
    unit: impl Fn(ProcId, &SsaProc, SccpResult) -> T + Sync,
) -> Vec<Option<T>> {
    let n = mcfg.module.procs.len();
    crate::par::with_pool(analysis.config.effective_jobs(), |pool| {
        pool.run(n, |pi| {
            if !analysis.cg.reachable[pi] {
                return None;
            }
            // The substitution SSA must match the analysis call-effect world.
            let ssa = &analysis.symbolics[pi].as_ref()?.ssa;
            let p = ProcId::from(pi);
            let res = sccp::run(mcfg, ssa, &seeds_of(p), oracle);
            Some(unit(p, ssa, res))
        })
        .0
    })
}

fn run_substitution(
    mcfg: &ModuleCfg,
    analysis: &Analysis,
    oracle: &(dyn CallDefLattice + Sync),
    seeds_of: impl Fn(ProcId) -> Seeds + Sync,
) -> Substitution {
    let units = sccp_stage(mcfg, analysis, oracle, seeds_of, |p, ssa, res| {
        let mut replacements = Vec::new();
        let cfg = rewrite_proc(mcfg, p, ssa, &res, &mut replacements);
        (count_substitutable(ssa, &res), cfg, replacements, res)
    });

    let n = units.len();
    let mut counts = vec![0usize; n];
    let mut cfgs = Vec::with_capacity(n);
    let mut sccps = Vec::with_capacity(n);
    let mut replacements = Vec::new();
    for (pi, unit) in units.into_iter().enumerate() {
        match unit {
            Some((count, cfg, reps, res)) => {
                counts[pi] = count;
                cfgs.push(cfg);
                replacements.extend(reps);
                sccps.push(Some(res));
            }
            None => {
                cfgs.push(mcfg.cfgs[pi].clone());
                sccps.push(None);
            }
        }
    }

    Substitution {
        total: counts.iter().sum(),
        counts,
        module: ModuleCfg {
            module: mcfg.module.clone(),
            cfgs,
        },
        sccps,
        replacements,
    }
}

/// What the substitution metric counts, in one place: every scalar
/// variable occurrence in an executable block whose reaching SSA value
/// is a constant. Occurrences are the statements' `use_vals` plus the
/// branch conditions' `term_use_vals` (only `Branch` terminators carry
/// any); by-reference actuals are not occurrences.
fn count_substitutable(ssa: &SsaProc, res: &SccpResult) -> usize {
    ssa.blocks
        .iter()
        .zip(&res.block_exec)
        .filter(|&(_, &exec)| exec)
        .map(|(block, _)| {
            block
                .stmts
                .iter()
                .flat_map(use_vals)
                .chain(&block.term_use_vals)
                .filter(|&&v| res.value(v).is_const())
                .count()
        })
        .sum()
}

/// The variable-occurrence values of one statement.
fn use_vals(info: &StmtInfo) -> &[ValueId] {
    match info {
        StmtInfo::Assign { use_vals, .. }
        | StmtInfo::Store { use_vals, .. }
        | StmtInfo::Print { use_vals, .. }
        | StmtInfo::Call { use_vals, .. } => use_vals,
        StmtInfo::Read { .. } => &[],
    }
}

impl Substitution {
    /// §4.1's optional output: "a transformed version of the original
    /// source in which the interprocedural constants are textually
    /// substituted into the code". Every replaced occurrence carries its
    /// source span, so the structured (pre-lowering) bodies can be
    /// rewritten and pretty-printed.
    pub fn to_source(&self, original: &Module) -> String {
        apply_replacements(original, &self.replacements).to_source()
    }
}

/// Rewrites `module`'s structured bodies, replacing each scalar variable
/// occurrence whose span appears in `replacements` with its constant.
pub fn apply_replacements(module: &Module, replacements: &[(Span, i64)]) -> Module {
    use std::collections::HashMap;
    let map: HashMap<Span, i64> = replacements.iter().copied().collect();
    let mut out = module.clone();
    for proc in &mut out.procs {
        rewrite_ast_block(&mut proc.body, &map);
    }
    out
}

fn rewrite_ast_block(b: &mut ipcp_ir::program::Block, map: &std::collections::HashMap<Span, i64>) {
    use ipcp_ir::program::Stmt;
    for s in &mut b.stmts {
        match s {
            Stmt::Assign(_, e, _) | Stmt::Print(e, _) => rewrite_ast_expr(e, map),
            Stmt::Store(_, i, v, _) => {
                rewrite_ast_expr(i, map);
                rewrite_ast_expr(v, map);
            }
            Stmt::If(c, t, e, _) => {
                rewrite_ast_expr(c, map);
                rewrite_ast_block(t, map);
                rewrite_ast_block(e, map);
            }
            Stmt::While(c, body, _) => {
                rewrite_ast_expr(c, map);
                rewrite_ast_block(body, map);
            }
            Stmt::Do {
                lo, hi, step, body, ..
            } => {
                rewrite_ast_expr(lo, map);
                rewrite_ast_expr(hi, map);
                if let Some(st) = step {
                    rewrite_ast_expr(st, map);
                }
                rewrite_ast_block(body, map);
            }
            Stmt::Call(_, args, _) => {
                for a in args {
                    if let Arg::Value(e) = a {
                        rewrite_ast_expr(e, map);
                    }
                }
            }
            Stmt::Return(_) | Stmt::Read(_, _) => {}
        }
    }
}

fn rewrite_ast_expr(e: &mut Expr, map: &std::collections::HashMap<Span, i64>) {
    match e {
        Expr::Const(..) => {}
        Expr::Var(_, span) => {
            if let Some(&c) = map.get(span) {
                *e = Expr::Const(c, *span);
            }
        }
        Expr::Load(_, idx, _) => rewrite_ast_expr(idx, map),
        Expr::Unary(_, x, _) => rewrite_ast_expr(x, map),
        Expr::Binary(_, l, r, _) => {
            rewrite_ast_expr(l, map);
            rewrite_ast_expr(r, map);
        }
    }
}

/// Procedure `p`'s CFG with every constant occurrence in its executable
/// blocks replaced by the constant.
fn rewrite_proc(
    mcfg: &ModuleCfg,
    p: ProcId,
    ssa: &SsaProc,
    res: &SccpResult,
    replacements: &mut Vec<(Span, i64)>,
) -> Cfg {
    let mut cfg = mcfg.cfg(p).clone();
    for (bi, block) in cfg.blocks.iter_mut().enumerate() {
        if !res.block_exec[bi] {
            continue;
        }
        let info = &ssa.blocks[bi];
        for (stmt, si) in block.stmts.iter_mut().zip(&info.stmts) {
            *stmt = rewrite_stmt(stmt, si, res, replacements);
        }
        if let Terminator::Branch { cond, .. } = &mut block.term {
            let mut idx = 0;
            *cond = rewrite_expr(cond, &info.term_use_vals, &mut idx, res, replacements);
            debug_assert_eq!(idx, info.term_use_vals.len());
        }
    }
    cfg
}

fn rewrite_stmt(
    stmt: &CStmt,
    info: &StmtInfo,
    res: &SccpResult,
    replacements: &mut Vec<(Span, i64)>,
) -> CStmt {
    let mut idx = 0usize;
    match (stmt, info) {
        (CStmt::Assign { dst, value }, StmtInfo::Assign { use_vals, .. }) => {
            let value = rewrite_expr(value, use_vals, &mut idx, res, replacements);
            debug_assert_eq!(idx, use_vals.len());
            CStmt::Assign { dst: *dst, value }
        }
        (
            CStmt::Store {
                array,
                index,
                value,
            },
            StmtInfo::Store { use_vals, .. },
        ) => {
            let index = rewrite_expr(index, use_vals, &mut idx, res, replacements);
            let value = rewrite_expr(value, use_vals, &mut idx, res, replacements);
            debug_assert_eq!(idx, use_vals.len());
            CStmt::Store {
                array: *array,
                index,
                value,
            }
        }
        (CStmt::Print { value }, StmtInfo::Print { use_vals, .. }) => {
            let value = rewrite_expr(value, use_vals, &mut idx, res, replacements);
            debug_assert_eq!(idx, use_vals.len());
            CStmt::Print { value }
        }
        (CStmt::Call { callee, args, site }, StmtInfo::Call { use_vals, .. }) => {
            let mut new_args = Vec::with_capacity(args.len());
            for a in args {
                new_args.push(match a {
                    Arg::Value(e) => {
                        Arg::Value(rewrite_expr(e, use_vals, &mut idx, res, replacements))
                    }
                    // By-reference actuals cannot be replaced by values.
                    other => other.clone(),
                });
            }
            debug_assert_eq!(idx, use_vals.len());
            CStmt::Call {
                callee: *callee,
                args: new_args,
                site: *site,
            }
        }
        (CStmt::Read { dst }, StmtInfo::Read { .. }) => CStmt::Read { dst: *dst },
        (stmt, info) => unreachable!("statement/annotation mismatch: {stmt:?} vs {info:?}"),
    }
}

/// Rewrites an expression, replacing each scalar-variable occurrence whose
/// SSA value is constant. `use_vals[idx..]` supplies the occurrence values
/// in traversal order.
fn rewrite_expr(
    e: &Expr,
    use_vals: &[ValueId],
    idx: &mut usize,
    res: &SccpResult,
    replacements: &mut Vec<(Span, i64)>,
) -> Expr {
    match e {
        Expr::Const(c, s) => Expr::Const(*c, *s),
        Expr::Var(v, s) => {
            let val = use_vals[*idx];
            *idx += 1;
            match res.value(val) {
                Lattice::Const(c) => {
                    if !s.is_empty() {
                        replacements.push((*s, c));
                    }
                    Expr::Const(c, *s)
                }
                _ => Expr::Var(*v, *s),
            }
        }
        Expr::Load(arr, index, s) => Expr::Load(
            *arr,
            Box::new(rewrite_expr(index, use_vals, idx, res, replacements)),
            *s,
        ),
        Expr::Unary(op, x, s) => Expr::Unary(
            *op,
            Box::new(rewrite_expr(x, use_vals, idx, res, replacements)),
            *s,
        ),
        Expr::Binary(op, l, r, s) => {
            let l = rewrite_expr(l, use_vals, idx, res, replacements);
            let r = rewrite_expr(r, use_vals, idx, res, replacements);
            Expr::Binary(*op, Box::new(l), Box::new(r), *s)
        }
    }
}

/// A standalone intraprocedural substitution count with MOD information
/// but no interprocedural constants at all — used when no [`Analysis`] is
/// wanted.
pub fn intraprocedural_count(mcfg: &ModuleCfg) -> usize {
    let cg = ipcp_analysis::build_call_graph(mcfg);
    let mr = ipcp_analysis::compute_modref(mcfg, &cg);
    let mut total = 0;
    for (pi, _) in mcfg.module.procs.iter().enumerate() {
        if !cg.reachable[pi] {
            continue;
        }
        let p = ProcId::from(pi);
        let ssa = build_ssa(mcfg, p, &ModKills(&mr));
        let res = sccp::run(
            mcfg,
            &ssa,
            &Seeds::none(mcfg.module.proc(p).vars.len()),
            &OpaqueCallsLattice,
        );
        total += count_substitutable(&ssa, &res);
    }
    total
}
