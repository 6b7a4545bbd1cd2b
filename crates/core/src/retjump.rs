//! Return jump functions (§3.2): modelling constants transmitted *back*
//! from a callee through modified reference parameters and globals.
//!
//! For every procedure `p` and every entry slot `x` (formal or scalar
//! global), `R_p^x` approximates the value `x` holds **on return from
//! `p`** as a function of `p`'s entry values — the same polynomial
//! representation as forward jump functions. Construction is a bottom-up
//! walk over the call graph: each procedure is evaluated symbolically
//! using the return jump functions of the procedures it calls (recursive
//! cycles degrade to ⊥, which is sound; FORTRAN 77 had no recursion).
//!
//! Evaluation at a call site follows the paper's §3.2 limitation by
//! default: a return jump function contributes only when it evaluates to a
//! **constant** under the values known at the call — "return jump
//! functions that depend on parameters to the calling procedure can never
//! be evaluated as constant". The `compose_return_jfs` extension lifts
//! this by substituting the actual-argument polynomials symbolically.

use crate::config::{Config, Stage};
use crate::health::Governor;
use crate::jump::JumpFn;
use crate::par::{PhaseTime, Pool};
use crate::pipeline::{build_ssa_stage, run_ssa_unit, PhaseFold, PhaseUnit, SsaSlot};
use ipcp_analysis::CallGraph;
use ipcp_ir::cfg::ModuleCfg;
use ipcp_ir::program::{ProcId, SlotLayout, VarId};
use ipcp_ssa::lattice::Lattice;
use ipcp_ssa::poly::Poly;
use ipcp_ssa::sccp::CallDefLattice;
use ipcp_ssa::ssa::{build_ssa, CallKills, SsaProc};
use ipcp_ssa::symbolic::{evaluate_budgeted, CallDefEval, RetTarget, SymVal, Symbolic};
use std::time::Instant;

/// The return jump functions of a whole program: `fns[p][slot]`.
///
/// Every reachable procedure gets one entry per entry slot. A slot the
/// procedure provably leaves untouched holds the identity pass-through of
/// itself; a slot it may set unpredictably holds ⊥.
#[derive(Clone, Debug, Default)]
pub struct ReturnJumpFns {
    /// Per procedure, per entry slot (`None` for unreachable procedures).
    pub fns: Vec<Option<Vec<JumpFn>>>,
    /// Whether evaluation composes polynomials (extension) or applies the
    /// paper's constant-only limitation.
    pub compose: bool,
}

impl ReturnJumpFns {
    /// The return jump function for `slot` of `proc`, if computed.
    pub fn get(&self, proc: ProcId, slot: usize) -> Option<&JumpFn> {
        self.fns[proc.index()].as_ref().and_then(|v| v.get(slot))
    }

    fn target_slot(
        &self,
        mcfg: &ModuleCfg,
        callee: ProcId,
        target: RetTarget,
        layout: &SlotLayout,
    ) -> Option<usize> {
        let arity = mcfg.module.proc(callee).arity();
        match target {
            RetTarget::Formal(i) => (i < arity).then_some(i),
            RetTarget::Global(g) => layout.global_slot(arity, g),
        }
    }
}

/// The `ipcp` oracle plugged into symbolic evaluation and SCCP: resolves
/// call-modified values through return jump functions.
#[derive(Debug)]
pub struct RetOracle<'a> {
    /// The (partially built) table.
    pub table: &'a ReturnJumpFns,
    /// Module under analysis.
    pub mcfg: &'a ModuleCfg,
    /// Slot layout.
    pub layout: &'a SlotLayout,
}

impl RetOracle<'_> {
    fn jf_for(&self, callee: ProcId, target: RetTarget) -> Option<&JumpFn> {
        let slot = self
            .table
            .target_slot(self.mcfg, callee, target, self.layout)?;
        self.table.get(callee, slot)
    }

    /// The value of callee entry slot `v` at the call, over the caller's
    /// symbolic values.
    fn slot_sym<'s>(
        arg_syms: &'s [SymVal],
        global_syms: &'s [SymVal],
        arity: usize,
        v: u32,
    ) -> &'s SymVal {
        let v = v as usize;
        if v < arity {
            arg_syms.get(v).unwrap_or(&SymVal::Bottom)
        } else {
            global_syms.get(v - arity).unwrap_or(&SymVal::Bottom)
        }
    }

    /// The symbolic value a call to `callee` leaves in the slot whose
    /// return jump function is `jf` (`None`: not built yet, so ⊥).
    fn eval_sym(
        &self,
        jf: Option<&JumpFn>,
        callee: ProcId,
        arg_syms: &[SymVal],
        global_syms: &[SymVal],
    ) -> SymVal {
        let Some(jf) = jf else {
            return SymVal::Bottom;
        };
        let arity = self.mcfg.module.proc(callee).arity();
        match jf {
            JumpFn::Bottom => SymVal::Bottom,
            JumpFn::Const(c) => SymVal::constant(*c),
            JumpFn::PassThrough(_) | JumpFn::Poly(_) if self.table.compose => {
                // Extension: substitute the caller-side polynomials for the
                // callee's entry slots.
                let poly = match jf {
                    JumpFn::PassThrough(v) => Poly::var(*v),
                    JumpFn::Poly(p) => p.clone(),
                    _ => unreachable!("outer match"),
                };
                let mut any_top = false;
                for s in poly.support() {
                    match Self::slot_sym(arg_syms, global_syms, arity, s) {
                        SymVal::Top => any_top = true,
                        SymVal::Bottom => return SymVal::Bottom,
                        SymVal::Poly(_) => {}
                    }
                }
                if any_top {
                    return SymVal::Top;
                }
                match poly.substitute(|s| {
                    Self::slot_sym(arg_syms, global_syms, arity, s)
                        .as_poly()
                        .cloned()
                }) {
                    Some(p) => SymVal::Poly(p),
                    None => SymVal::Bottom,
                }
            }
            JumpFn::PassThrough(_) | JumpFn::Poly(_) => {
                // Paper limitation: evaluate to a constant or give up.
                let result = jf.eval(|s| {
                    match Self::slot_sym(arg_syms, global_syms, arity, s) {
                        SymVal::Top => Lattice::Top,
                        SymVal::Bottom => Lattice::Bottom,
                        SymVal::Poly(p) => match p.as_const() {
                            Some(c) => Lattice::Const(c),
                            None => Lattice::Bottom, // §3.2 limitation
                        },
                    }
                });
                match result {
                    Lattice::Top => SymVal::Top,
                    Lattice::Const(c) => SymVal::constant(c),
                    Lattice::Bottom => SymVal::Bottom,
                }
            }
        }
    }
}

impl CallDefEval for RetOracle<'_> {
    fn eval_call_def(
        &self,
        callee: ProcId,
        target: RetTarget,
        arg_syms: &[SymVal],
        global_syms: &[SymVal],
    ) -> SymVal {
        self.eval_sym(self.jf_for(callee, target), callee, arg_syms, global_syms)
    }
}

impl CallDefLattice for RetOracle<'_> {
    fn eval_call_def(
        &self,
        callee: ProcId,
        target: RetTarget,
        arg_lats: &[Lattice],
        global_lats: &[Lattice],
    ) -> Lattice {
        let Some(jf) = self.jf_for(callee, target) else {
            return Lattice::Bottom;
        };
        let arity = self.mcfg.module.proc(callee).arity();
        jf.eval(|s| {
            let s = s as usize;
            if s < arity {
                arg_lats.get(s).copied().unwrap_or(Lattice::Bottom)
            } else {
                global_lats
                    .get(s - arity)
                    .copied()
                    .unwrap_or(Lattice::Bottom)
            }
        })
    }
}

/// The call-side view of one recursive SCC while a parallel unit builds
/// its members: the members' fresh entries (in build order) over the
/// table the lower levels committed. This is exactly what the sequential
/// driver's in-place table shows a member — built siblings are visible,
/// unbuilt ones are not — without a private copy of the whole table per
/// SCC.
struct SccOracle<'a> {
    base: RetOracle<'a>,
    scc_of: &'a [usize],
    scc: usize,
    fresh: &'a [(ProcId, Vec<JumpFn>)],
}

impl CallDefEval for SccOracle<'_> {
    fn eval_call_def(
        &self,
        callee: ProcId,
        target: RetTarget,
        arg_syms: &[SymVal],
        global_syms: &[SymVal],
    ) -> SymVal {
        let jf = if self.scc_of[callee.index()] == self.scc {
            let base = &self.base;
            self.fresh
                .iter()
                .find(|(q, _)| *q == callee)
                .and_then(|(_, fns)| {
                    let slot = base
                        .table
                        .target_slot(base.mcfg, callee, target, base.layout)?;
                    fns.get(slot)
                })
        } else {
            self.base.jf_for(callee, target)
        };
        self.base.eval_sym(jf, callee, arg_syms, global_syms)
    }
}

/// One procedure's slice of the bottom-up walk, as the drivers commit it.
#[derive(Debug)]
pub(crate) struct MemberOut {
    /// The return jump function of every entry slot.
    pub fns: Vec<JumpFn>,
    /// Whether the slice newly quarantined the procedure.
    pub newly_quarantined: bool,
    /// The slice's symbolic evaluation, handed to the forward phase for
    /// reuse. Kept only when the caller asked for it and the evaluation
    /// ran to completion.
    pub sym: Option<Symbolic>,
}

impl MemberOut {
    fn bottom(n_slots: usize, newly_quarantined: bool) -> MemberOut {
        MemberOut {
            fns: vec![JumpFn::Bottom; n_slots],
            newly_quarantined,
            sym: None,
        }
    }
}

/// Builds return jump functions for every reachable procedure, bottom-up
/// over the call graph SCCs.
///
/// `kills` supplies the call-effect assumption (MOD-precise or worst-case)
/// — the same oracle later used for forward jump functions, so both layers
/// see one consistent world. This entry point builds each procedure's SSA
/// form itself; the pipeline builds it once in its SSA stage and shares it
/// with the forward phase instead.
///
/// Each procedure's slice (symbolic evaluation over its SSA form, slot
/// classification) is a quarantine unit: a panic or a per-unit budget
/// exhaustion degrades only that procedure's return jump functions to ⊥
/// (marking it in `quarantined`), while every other procedure keeps full
/// precision. Procedures already quarantined by an earlier phase get ⊥
/// immediately, without re-running their unit.
pub fn build_return_jfs(
    mcfg: &ModuleCfg,
    cg: &CallGraph,
    layout: &SlotLayout,
    kills: &(dyn CallKills + Sync),
    config: &Config,
    quarantined: &mut [bool],
    gov: &mut Governor,
) -> ReturnJumpFns {
    let (ssas, _) = crate::par::with_pool(1, |pool| {
        build_ssa_stage(cg, config, quarantined, pool, &|p| {
            build_ssa(mcfg, p, kills)
        })
    });
    return_jfs_over(mcfg, cg, layout, &ssas, config, quarantined, gov).0
}

/// The sequential driver over the SSA stage's output (`ssas[p]` is
/// procedure `p`'s slot). Besides the table it returns, per procedure,
/// the symbolic evaluation handed to the forward phase (see
/// [`crate::pipeline::reuses_ret_symbolic`]).
pub(crate) fn return_jfs_over(
    mcfg: &ModuleCfg,
    cg: &CallGraph,
    layout: &SlotLayout,
    ssas: &[SsaSlot],
    config: &Config,
    quarantined: &mut [bool],
    gov: &mut Governor,
) -> (ReturnJumpFns, Vec<Option<Symbolic>>) {
    let n_procs = mcfg.module.procs.len();
    let mut table = ReturnJumpFns {
        fns: vec![None; n_procs],
        compose: config.compose_return_jfs,
    };
    let mut syms: Vec<Option<Symbolic>> = (0..n_procs).map(|_| None).collect();
    for p in cg.bottom_up() {
        let oracle = RetOracle {
            table: &table,
            mcfg,
            layout,
        };
        let out = run_scc_member(
            mcfg,
            &oracle,
            layout,
            ssas[p.index()].as_ref(),
            config,
            p,
            quarantined[p.index()],
            keeps_symbolic(config, cg, p),
            gov,
        );
        if out.newly_quarantined {
            quarantined[p.index()] = true;
        }
        table.fns[p.index()] = Some(out.fns);
        syms[p.index()] = out.sym;
    }
    (table, syms)
}

/// Whether `p`'s return-JF evaluation is final and will be reused by the
/// forward phase: the configuration reuses it, and `p` is not recursive
/// — so every callee's entry was complete when `p` was evaluated, exactly
/// as the forward phase would see it.
fn keeps_symbolic(config: &Config, cg: &CallGraph, p: ProcId) -> bool {
    crate::pipeline::reuses_ret_symbolic(config) && !cg.is_recursive(p)
}

/// Parallel [`return_jfs_over`].
///
/// Return jump functions are the one per-procedure phase with *data*
/// dependences: a procedure's construction reads the (already built)
/// tables of its callees. The schedule follows the call-graph
/// condensation: each SCC is one unit (members may read each other's
/// fresh entries, through an overlay, so they stay sequential inside the
/// unit), and units run level by level — level 0 is the leaf SCCs, level
/// `k` depends only on levels `< k` — with each unit charging a governor
/// shard optimistically. Between levels the optimistic entries are moved
/// into the shared table so the next level can read them.
///
/// The fold then walks SCCs in the exact bottom-up (Tarjan emission)
/// order the sequential driver uses. A unit is absorbed as-is when (a) no
/// callee SCC's committed table differs from the optimistic one its run
/// saw, and (b) [`Governor::can_absorb`] proves its charges land exactly
/// where sequential charging would have. Otherwise the unit is replayed
/// sequentially against the final table and master governor, and the
/// difference (if any) propagates to its dependents through `changed`.
/// Results, telemetry, and quarantine flags are bit-identical to the
/// sequential driver. The returned [`PhaseTime`] spans the whole phase:
/// the level rounds and the serial commits and fold between them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_return_jfs_par(
    mcfg: &ModuleCfg,
    cg: &CallGraph,
    layout: &SlotLayout,
    ssas: &[SsaSlot],
    config: &Config,
    quarantined: &mut [bool],
    gov: &mut Governor,
    pool: &Pool<'_>,
) -> (ReturnJumpFns, Vec<Option<Symbolic>>, PhaseTime) {
    let start = Instant::now();
    let n_procs = mcfg.module.procs.len();
    let n_sccs = cg.sccs.len();
    let snapshot: Vec<bool> = quarantined.to_vec();
    let proto = gov.shard();
    let compose = config.compose_return_jfs;

    // One SCC unit's optimistic result: its members' fresh entries in
    // build order (moved into `opt_table` once the level ends), and per
    // member `(newly_quarantined, handed-off symbolic)`.
    type SccOut = (Vec<(ProcId, Vec<JumpFn>)>, Vec<(bool, Option<Symbolic>)>);

    // Optimistic phase: run each level's SCC units in parallel, committing
    // their entries before the next level starts.
    let mut opt_table = ReturnJumpFns {
        fns: vec![None; n_procs],
        compose,
    };
    let mut units: Vec<Option<PhaseUnit<SccOut>>> = (0..n_sccs).map(|_| None).collect();
    let mut time = PhaseTime::default();
    for level in scc_levels(cg) {
        let (level_units, pt) = pool.run(level.len(), |k| {
            let si = level[k];
            let members = &cg.sccs[si];
            let mut shard = proto.shard();
            let mut fresh: Vec<(ProcId, Vec<JumpFn>)> = Vec::with_capacity(members.len());
            let mut flags = Vec::with_capacity(members.len());
            for &p in members {
                let oracle = SccOracle {
                    base: RetOracle {
                        table: &opt_table,
                        mcfg,
                        layout,
                    },
                    scc_of: &cg.scc_of,
                    scc: si,
                    fresh: &fresh,
                };
                let out = run_scc_member(
                    mcfg,
                    &oracle,
                    layout,
                    ssas[p.index()].as_ref(),
                    config,
                    p,
                    snapshot[p.index()],
                    keeps_symbolic(config, cg, p),
                    &mut shard,
                );
                fresh.push((p, out.fns));
                flags.push((out.newly_quarantined, out.sym));
            }
            PhaseUnit::new(si, Ok((fresh, flags)), shard)
        });
        time.absorb(pt);
        for (k, mut unit) in level_units.into_iter().enumerate() {
            if let Ok((fresh, _)) = &mut unit.outcome {
                for (p, fns) in fresh.drain(..) {
                    opt_table.fns[p.index()] = Some(fns);
                }
            }
            units[level[k]] = Some(unit);
        }
    }

    // Deterministic fold, in the sequential driver's SCC order.
    let mut table = ReturnJumpFns {
        fns: vec![None; n_procs],
        compose,
    };
    let mut syms: Vec<Option<Symbolic>> = (0..n_procs).map(|_| None).collect();
    let mut fold = PhaseFold::default();
    let mut changed = vec![false; n_sccs];
    for si in 0..n_sccs {
        let Some(pu) = units[si].take() else {
            continue; // unreachable SCC: never built, exactly as sequential
        };
        let members = &cg.sccs[si];
        let dep_changed = members.iter().any(|&p| {
            cg.calls_from(p).iter().any(|e| {
                let cs = cg.scc_of[e.callee.index()];
                cs != si && changed[cs]
            })
        });
        match fold.try_absorb(gov, pu, !dep_changed) {
            Some(Ok((_, outs))) => {
                for ((newly, sym), &p) in outs.into_iter().zip(members) {
                    quarantined[p.index()] = snapshot[p.index()] || newly;
                    table.fns[p.index()] = opt_table.fns[p.index()].take();
                    syms[p.index()] = sym;
                }
                // Committed == optimistic, so `changed[si]` stays false.
            }
            Some(Err(e)) => {
                // Units catch their own panics inside `run_scc_member`
                // and report degradation through the result pair.
                unreachable!("return-JF units never fail the outcome: {e}")
            }
            None => {
                let mut any_diff = false;
                for &p in members {
                    let oracle = RetOracle {
                        table: &table,
                        mcfg,
                        layout,
                    };
                    let out = run_scc_member(
                        mcfg,
                        &oracle,
                        layout,
                        ssas[p.index()].as_ref(),
                        config,
                        p,
                        snapshot[p.index()],
                        keeps_symbolic(config, cg, p),
                        gov,
                    );
                    if opt_table.fns[p.index()].as_ref() != Some(&out.fns) {
                        any_diff = true;
                    }
                    quarantined[p.index()] = snapshot[p.index()] || out.newly_quarantined;
                    table.fns[p.index()] = Some(out.fns);
                    syms[p.index()] = out.sym;
                }
                changed[si] = any_diff;
            }
        }
    }
    fold.stamp(&mut time);
    (table, syms, time.spanning(start.elapsed()))
}

/// Groups the call graph's reachable SCCs into dependency levels: level 0
/// has no cross-SCC callees, level `k` calls only into levels `< k`.
/// Within a level, SCC indices ascend (their relative bottom-up order).
/// All SCCs of one level can be built concurrently once the previous
/// levels' tables are committed.
fn scc_levels(cg: &CallGraph) -> Vec<Vec<usize>> {
    let mut level = vec![0usize; cg.sccs.len()];
    let mut levels: Vec<Vec<usize>> = Vec::new();
    for (si, members) in cg.sccs.iter().enumerate() {
        // Reachability is uniform across an SCC (it is strongly
        // connected), so the first member decides.
        if !members.first().is_some_and(|p| cg.reachable[p.index()]) {
            continue;
        }
        let mut lv = 0;
        for &p in members {
            for e in cg.calls_from(p) {
                let cs = cg.scc_of[e.callee.index()];
                if cs != si {
                    // Tarjan emits callee SCCs first, so level[cs] is final.
                    lv = lv.max(level[cs] + 1);
                }
            }
        }
        level[si] = lv;
        while levels.len() <= lv {
            levels.push(Vec::new());
        }
        levels[lv].push(si);
    }
    levels
}

/// One procedure's slice of the bottom-up walk: the quarantine
/// short-circuit, the quarantined unit over the procedure's SSA slot, and
/// the panic containment — shared verbatim by the sequential driver, the
/// optimistic parallel units, the fold's replay path, and serve. `oracle`
/// resolves callees' return jump functions; `keep_sym` asks for the
/// evaluation to be handed back (see [`MemberOut::sym`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_scc_member(
    mcfg: &ModuleCfg,
    oracle: &dyn CallDefEval,
    layout: &SlotLayout,
    ssa: Option<&Result<SsaProc, crate::pipeline::UnitError>>,
    config: &Config,
    p: ProcId,
    already_quarantined: bool,
    keep_sym: bool,
    gov: &mut Governor,
) -> MemberOut {
    let proc = mcfg.module.proc(p);
    let n_slots = layout.n_slots(proc.arity());
    if already_quarantined {
        return MemberOut::bottom(n_slots, false);
    }
    let unit = run_ssa_unit(config, Stage::RetJump, p.index(), ssa, |ssa| {
        build_proc_ret_jfs(mcfg, oracle, layout, ssa, p, n_slots, keep_sym, gov)
    });
    match unit {
        Ok((fns, sym)) => MemberOut {
            fns,
            newly_quarantined: false,
            sym,
        },
        Err(e) => {
            gov.record_quarantine(
                Stage::RetJump,
                format!(
                    "{}: panic contained ({}); return jump functions forced to ⊥",
                    proc.name, e.message
                ),
            );
            MemberOut::bottom(n_slots, true)
        }
    }
}

/// One procedure's slice of return-jump-function construction over its
/// SSA form — the unit of work [`run_scc_member`] runs under quarantine.
/// Returns the slot functions, plus the symbolic evaluation when
/// `keep_sym` is set and the evaluation did not exhaust its step slice.
#[allow(clippy::too_many_arguments)]
fn build_proc_ret_jfs(
    mcfg: &ModuleCfg,
    oracle: &dyn CallDefEval,
    layout: &SlotLayout,
    ssa: &SsaProc,
    p: ProcId,
    n_slots: usize,
    keep_sym: bool,
    gov: &mut Governor,
) -> (Vec<JumpFn>, Option<Symbolic>) {
    let max_steps = gov.limits().max_symbolic_steps;
    let (sym, steps_exhausted) = evaluate_budgeted(mcfg, ssa, layout, oracle, None, max_steps);
    let proc = mcfg.module.proc(p);
    if steps_exhausted {
        gov.record_quarantine(
            Stage::RetJump,
            format!(
                "{}: symbolic evaluation step slice exhausted; \
                 pending values forced to ⊥",
                proc.name
            ),
        );
    }
    let mut fns = Vec::with_capacity(n_slots);
    for slot in 0..n_slots {
        let var: Option<VarId> = if slot < proc.arity() {
            Some(proc.formals[slot])
        } else {
            proc.var_for_global(layout.scalar_globals[slot - proc.arity()])
        };
        let jf = match var {
            Some(v) if !proc.var(v).is_array => {
                let mut acc = SymVal::Top;
                for (_, snapshot) in &ssa.exits {
                    let at_exit = snapshot[v.index()]
                        .map(|val| sym.value(val).clone())
                        .unwrap_or(SymVal::Bottom);
                    acc = acc.meet(&at_exit);
                }
                match acc {
                    // No reachable exit (infinite loop): the value is
                    // never observed after the call; ⊥ is safe.
                    SymVal::Top => JumpFn::Bottom,
                    SymVal::Bottom => JumpFn::Bottom,
                    SymVal::Poly(p) => match (p.as_const(), p.as_var()) {
                        (Some(c), _) => JumpFn::Const(c),
                        (None, Some(v)) => JumpFn::PassThrough(v),
                        _ => JumpFn::Poly(p),
                    },
                }
            }
            _ => JumpFn::Bottom,
        };
        // Each slot classification charges the return-jump budget, and
        // the result is clamped to the polynomial shape limits.
        let jf = if gov.charge(Stage::RetJump) {
            let limits = *gov.limits();
            let (clamped, degraded) = jf.clamp(&limits);
            if degraded {
                gov.record(
                    Stage::RetJump,
                    format!(
                        "{}: slot {slot}: polynomial exceeds shape limits; \
                         degraded to {clamped}",
                        proc.name
                    ),
                );
            }
            clamped
        } else {
            if !jf.is_bottom() {
                gov.record(
                    Stage::RetJump,
                    format!(
                        "{}: slot {slot}: classification budget exhausted; forced to ⊥",
                        proc.name
                    ),
                );
            }
            JumpFn::Bottom
        };
        fns.push(jf);
    }
    (fns, (keep_sym && !steps_exhausted).then_some(sym))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcp_analysis::{build_call_graph, compute_modref};
    use ipcp_ir::{lower_module, parse_and_resolve};
    use ipcp_ssa::ssa::ModKills;

    fn ret_jfs(src: &str) -> (ipcp_ir::ModuleCfg, CallGraph, SlotLayout, ReturnJumpFns) {
        let m = lower_module(&parse_and_resolve(src).unwrap());
        let cg = build_call_graph(&m);
        let mr = compute_modref(&m, &cg);
        let layout = SlotLayout::new(&m.module);
        let mut quarantined = vec![false; m.module.procs.len()];
        let table = build_return_jfs(
            &m,
            &cg,
            &layout,
            &ModKills(&mr),
            &Config::default(),
            &mut quarantined,
            &mut Governor::unlimited(),
        );
        (m, cg, layout, table)
    }

    fn pid(m: &ipcp_ir::ModuleCfg, name: &str) -> ProcId {
        m.module.proc_named(name).unwrap().id
    }

    #[test]
    fn constant_assignment_yields_const_ret_jf() {
        let (m, _, _, t) =
            ret_jfs("proc main() { x = 0; call setx(x); print x; } proc setx(a) { a = 42; }");
        assert_eq!(t.get(pid(&m, "setx"), 0), Some(&JumpFn::Const(42)));
    }

    #[test]
    fn untouched_formal_is_identity() {
        let (m, _, _, t) =
            ret_jfs("proc main() { x = 0; call f(x, 1); } proc f(a, b) { a = b + 1; }");
        let f = pid(&m, "f");
        // a = b + 1 → polynomial x1 + 1; b untouched → identity x1.
        match t.get(f, 0) {
            Some(JumpFn::Poly(p)) => assert_eq!(p.eval(&[0, 5]), Some(6)),
            other => panic!("{other:?}"),
        }
        assert_eq!(t.get(f, 1), Some(&JumpFn::PassThrough(1)));
    }

    #[test]
    fn polynomial_of_entries() {
        let (m, _, _, t) =
            ret_jfs("proc main() { x = 0; call f(x, 3, 4); } proc f(a, b, c) { a = b * c + 1; }");
        match t.get(pid(&m, "f"), 0) {
            Some(JumpFn::Poly(p)) => {
                assert_eq!(p.eval(&[0, 3, 4]), Some(13));
                assert_eq!(p.support(), vec![1, 2]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn global_init_routine_exposes_constants() {
        // The `ocean` pattern: an init procedure assigns constant globals.
        let (m, _, layout, t) = ret_jfs(
            "global nx; global ny; \
             proc main() { call init(); } \
             proc init() { nx = 128; ny = 64; }",
        );
        let init = pid(&m, "init");
        let arity = 0;
        let nx_slot = layout
            .global_slot(arity, ipcp_ir::program::GlobalId(0))
            .unwrap();
        let ny_slot = layout
            .global_slot(arity, ipcp_ir::program::GlobalId(1))
            .unwrap();
        assert_eq!(t.get(init, nx_slot), Some(&JumpFn::Const(128)));
        assert_eq!(t.get(init, ny_slot), Some(&JumpFn::Const(64)));
    }

    #[test]
    fn data_dependent_exit_is_bottom() {
        let (m, _, _, t) = ret_jfs("proc main() { x = 0; call f(x); } proc f(a) { read a; }");
        assert_eq!(t.get(pid(&m, "f"), 0), Some(&JumpFn::Bottom));
    }

    #[test]
    fn divergent_exits_meet_to_bottom() {
        let (m, _, _, t) = ret_jfs(
            "proc main() { x = 0; call f(x); } \
             proc f(a) { if (a) { a = 1; return; } a = 2; }",
        );
        assert_eq!(t.get(pid(&m, "f"), 0), Some(&JumpFn::Bottom));
    }

    #[test]
    fn agreeing_exits_stay_constant() {
        let (m, _, _, t) = ret_jfs(
            "proc main() { x = 0; call f(x); } \
             proc f(a) { if (a) { a = 7; return; } a = 7; }",
        );
        assert_eq!(t.get(pid(&m, "f"), 0), Some(&JumpFn::Const(7)));
    }

    #[test]
    fn ret_jfs_chain_through_callees() {
        // mid's ret JF uses leaf's: a = 5 via leaf, then +1.
        let (m, _, _, t) = ret_jfs(
            "proc main() { x = 0; call mid(x); } \
             proc mid(a) { call leaf(a); a = a + 1; } \
             proc leaf(b) { b = 5; }",
        );
        assert_eq!(t.get(pid(&m, "mid"), 0), Some(&JumpFn::Const(6)));
    }

    #[test]
    fn recursive_procedures_degrade_to_bottom() {
        let (m, _, _, t) = ret_jfs(
            "proc main() { x = 0; call f(x); } \
             proc f(a) { if (a > 0) { a = a - 1; call f(a); } }",
        );
        assert_eq!(t.get(pid(&m, "f"), 0), Some(&JumpFn::Bottom));
    }

    /// One driver's products: the table, the quarantine flags, and the
    /// handed-off evaluations' values.
    type DriverRun = (ReturnJumpFns, Vec<bool>, Vec<Option<Vec<SymVal>>>);

    /// The sequential driver and the parallel one (with its per-SCC
    /// overlay in place of a table copy) over the same SSA stage output.
    fn both_drivers(src: &str) -> (ipcp_ir::ModuleCfg, CallGraph, [DriverRun; 2]) {
        let m = lower_module(&parse_and_resolve(src).unwrap());
        let cg = build_call_graph(&m);
        let mr = compute_modref(&m, &cg);
        let layout = SlotLayout::new(&m.module);
        let config = Config::default().with_jobs(2);
        let kills = ModKills(&mr);
        let n = m.module.procs.len();
        let values =
            |syms: Vec<Option<Symbolic>>| syms.into_iter().map(|s| s.map(|s| s.values)).collect();
        let runs = crate::par::with_pool(2, |pool| {
            let (ssas, _) = build_ssa_stage(&cg, &config, &vec![false; n], pool, &|p| {
                build_ssa(&m, p, &kills)
            });
            let mut q_seq = vec![false; n];
            let (seq, seq_syms) = return_jfs_over(
                &m,
                &cg,
                &layout,
                &ssas,
                &config,
                &mut q_seq,
                &mut Governor::unlimited(),
            );
            let mut q_par = vec![false; n];
            let (par, par_syms, _) = build_return_jfs_par(
                &m,
                &cg,
                &layout,
                &ssas,
                &config,
                &mut q_par,
                &mut Governor::unlimited(),
                pool,
            );
            [
                (seq, q_seq, values(seq_syms)),
                (par, q_par, values(par_syms)),
            ]
        });
        (m, cg, runs)
    }

    #[test]
    fn recursive_sccs_agree_across_drivers() {
        // f <-> g are mutually recursive, h calls itself, and leaf is
        // not recursive. Each recursive member reads its sibling's (or
        // its own) entry after the call.
        let (m, cg, [(seq, q_seq, seq_syms), (par, q_par, par_syms)]) = both_drivers(
            "global k; \
             proc main() { x = 1; call f(x); call h(x); call leaf(x); } \
             proc f(a) { a = 5; call g(a); a = 9; } \
             proc g(b) { call f(b); b = b + 1; k = 2; } \
             proc h(c) { if (c > 0) { c = c - 1; call h(c); } c = c + 5; } \
             proc leaf(d) { d = 4; }",
        );
        assert_eq!(seq.fns, par.fns, "return jump functions differ");
        assert_eq!(q_seq, q_par, "quarantine flags differ");
        assert_eq!(seq_syms, par_syms, "handed-off evaluations differ");

        let (f, g, h, leaf) = (pid(&m, "f"), pid(&m, "g"), pid(&m, "h"), pid(&m, "leaf"));
        assert_eq!(seq.get(f, 0), Some(&JumpFn::Const(9)));
        // A member sees a sibling built before it in the SCC, exactly as
        // the sequential driver's in-place table shows it.
        let scc = &cg.sccs[cg.scc_of[f.index()]];
        let f_first = scc.iter().position(|&p| p == f) < scc.iter().position(|&p| p == g);
        let expect_g = if f_first {
            JumpFn::Const(10)
        } else {
            JumpFn::Bottom
        };
        assert_eq!(seq.get(g, 0), Some(&expect_g));
        // h's own entry is unbuilt while h is evaluated: ⊥ after the call.
        assert_eq!(seq.get(h, 0), Some(&JumpFn::Bottom));
        assert_eq!(seq.get(leaf, 0), Some(&JumpFn::Const(4)));
        // Only non-recursive procedures hand their evaluation on.
        for p in [f, g, h] {
            assert!(seq_syms[p.index()].is_none(), "{p:?} is recursive");
        }
        assert!(seq_syms[leaf.index()].is_some());
    }

    #[test]
    fn limitation_vs_composition_at_evaluation() {
        // g's ret JF in `twice` is x0 (identity of the formal) + 1 … i.e.
        // depends on the caller's argument. Under the paper limitation the
        // oracle yields ⊥ unless the argument is constant; with
        // composition it stays symbolic.
        let src = "proc main() { x = 0; call add1(x); } proc add1(a) { a = a + 1; }";
        let m = lower_module(&parse_and_resolve(src).unwrap());
        let cg = build_call_graph(&m);
        let mr = compute_modref(&m, &cg);
        let layout = SlotLayout::new(&m.module);
        for (compose, expect_poly) in [(false, false), (true, true)] {
            let config = Config::builder()
                .compose_return_jfs(compose)
                .build()
                .expect("valid combination");
            let mut quarantined = vec![false; m.module.procs.len()];
            let t = build_return_jfs(
                &m,
                &cg,
                &layout,
                &ModKills(&mr),
                &config,
                &mut quarantined,
                &mut Governor::unlimited(),
            );
            let oracle = RetOracle {
                table: &t,
                mcfg: &m,
                layout: &layout,
            };
            let add1 = m.module.proc_named("add1").unwrap().id;
            // Argument symbolically = caller's formal-like poly var 0.
            let arg = SymVal::Poly(Poly::var(0));
            let got = CallDefEval::eval_call_def(&oracle, add1, RetTarget::Formal(0), &[arg], &[]);
            if expect_poly {
                let p = got.as_poly().expect("composed polynomial");
                assert_eq!(p.eval(&[9]), Some(10));
            } else {
                assert_eq!(got, SymVal::Bottom);
            }
            // With a constant argument both modes give the constant.
            let got = CallDefEval::eval_call_def(
                &oracle,
                add1,
                RetTarget::Formal(0),
                &[SymVal::constant(9)],
                &[],
            );
            assert_eq!(got.as_const(), Some(10));
        }
    }
}
