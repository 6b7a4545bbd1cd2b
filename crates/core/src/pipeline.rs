//! The four-stage pipeline of §4.1: generate return jump functions,
//! generate forward jump functions, propagate interprocedurally, record
//! the results. Ahead of it run MOD/REF and the SSA stage, which builds
//! each procedure's SSA form once for both jump-function generators.

use crate::config::{Config, Stage};
use crate::error::IpcpError;
use crate::health::{AnalysisHealth, Governor};
use crate::jump::{build_forward_jump_fns_on, ForwardJumpFns, ProcSymbolic};
use crate::par::{PhaseTime, Timings};
use crate::retjump::{build_return_jfs_on, RetOracle, ReturnJumpFns};
use crate::solver::ValSets;
use crate::substitute::{self, Substitution};
use ipcp_analysis::{
    build_call_graph, direct_effects, propagate_modref, CallGraph, ModRef, ModSet,
};
use ipcp_ir::cfg::ModuleCfg;
use ipcp_ir::program::{ProcId, SlotLayout};
use ipcp_ssa::sccp::{CallDefLattice, OpaqueCallsLattice, SccpResult};
use ipcp_ssa::ssa::{build_ssa, build_ssa_pruned, CallKills, ModKills, SsaProc, WorstCaseKills};
use ipcp_ssa::symbolic::{CallDefEval, EvalBudget, OpaqueCalls, Symbolic};
use ipcp_ssa::Lattice;
use std::fmt;
use std::time::Instant;

/// A typed phase-unit failure: which [`Stage`] faulted, which unit, and
/// the contained panic (or exhaustion) message.
///
/// `unit` is the index in the phase's own unit space — a procedure index
/// for the per-procedure phases (MOD/REF, symbolic, forward and return
/// jump functions), an SCC index for solver units. This replaces the
/// stringly `Result<_, String>` contract the drivers used to share:
/// quarantine widening, the parallel folds, and serve's incremental path
/// all see the same structured error, and strict-mode promotion can carry
/// it through [`IpcpError`](crate::IpcpError) without string matching.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitError {
    /// The stage whose unit faulted.
    pub stage: Stage,
    /// The unit's index (procedure index, or SCC index for the solver).
    pub unit: usize,
    /// The contained panic message.
    pub message: String,
}

impl UnitError {
    /// Builds a unit error for `stage` / `unit`.
    pub fn new(stage: Stage, unit: usize, message: impl Into<String>) -> Self {
        UnitError {
            stage,
            unit,
            message: message.into(),
        }
    }
}

impl fmt::Display for UnitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} unit #{} faulted: {}",
            self.stage.label(),
            self.unit,
            self.message
        )
    }
}

/// One parallel phase unit's outcome, as handed to the canonical fold:
/// its index in the phase's unit space, its result (or typed failure),
/// and the optimistic [`Governor`] shard it charged while running.
///
/// This is the contract every parallel driver shares: workers produce
/// `PhaseUnit`s out of order, and the fold walks them **in index order**,
/// absorbing each unit's shard into the authoritative governor when
/// [`Governor::can_absorb`] proves the merged counters land exactly where
/// a sequential run's would — otherwise the unit is discarded and
/// replayed sequentially ([`PhaseFold::try_absorb`]). Serve's incremental
/// path replays recorded shards through the same gate.
#[derive(Clone, Debug)]
pub struct PhaseUnit<T> {
    /// Index in the phase's unit space (procedure or SCC index).
    pub index: usize,
    /// The unit's computed result, or its typed quarantine failure.
    pub outcome: Result<T, UnitError>,
    /// The optimistic governor shard the unit charged.
    pub shard: Governor,
}

impl<T> PhaseUnit<T> {
    /// Wraps a unit outcome with the shard it charged.
    pub fn new(index: usize, outcome: Result<T, UnitError>, shard: Governor) -> Self {
        PhaseUnit {
            index,
            outcome,
            shard,
        }
    }
}

/// Absorb/replay accounting for one phase's canonical fold.
///
/// Every parallel driver folds its [`PhaseUnit`]s through
/// [`PhaseFold::try_absorb`]; the counters are stamped into the phase's
/// [`PhaseTime`] so `Timings` reports how often the optimistic path paid
/// off (absorb is O(stages); replay re-runs the unit sequentially).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseFold {
    /// Units whose shard merged cleanly (result kept).
    pub absorbed: usize,
    /// Units discarded and re-run against the authoritative governor.
    pub replayed: usize,
}

impl PhaseFold {
    /// Attempts to absorb `unit`: when `absorbable` holds and the shard
    /// merges without crossing a budget or fault boundary
    /// ([`Governor::can_absorb`] — the documented fast path), the shard
    /// is folded into `gov` and the unit's outcome is returned. Otherwise
    /// returns `None`; the caller must replay the unit sequentially.
    pub fn try_absorb<T>(
        &mut self,
        gov: &mut Governor,
        unit: PhaseUnit<T>,
        absorbable: bool,
    ) -> Option<Result<T, UnitError>> {
        if absorbable && gov.can_absorb(&unit.shard) {
            gov.absorb_shard(unit.shard);
            self.absorbed += 1;
            Some(unit.outcome)
        } else {
            self.replayed += 1;
            None
        }
    }

    /// Stamps the fold's counters into a phase's [`PhaseTime`].
    pub fn stamp(self, pt: &mut PhaseTime) {
        pt.absorbed += self.absorbed;
        pt.replayed += self.replayed;
    }
}

/// Everything the interprocedural constant propagation computed for one
/// module under one [`Config`].
#[derive(Debug)]
pub struct Analysis {
    /// The configuration used.
    pub config: Config,
    /// Call graph.
    pub cg: CallGraph,
    /// MOD/REF summaries (always computed; consulted only when
    /// `config.use_mod`).
    pub modref: ModRef,
    /// Entry-slot layout shared by every table.
    pub layout: SlotLayout,
    /// Return jump functions (an empty table when disabled).
    pub ret_jfs: ReturnJumpFns,
    /// Per-procedure SSA + polynomial evaluation (reachable procedures).
    pub symbolics: Vec<Option<ProcSymbolic>>,
    /// Forward jump functions for every reachable call site.
    pub jump_fns: ForwardJumpFns,
    /// The fixpoint `VAL` sets.
    pub vals: ValSets,
    /// Degradation telemetry: empty when every stage ran to completion
    /// within its [`AnalysisLimits`](crate::config::AnalysisLimits); the
    /// results stay sound either way.
    pub health: AnalysisHealth,
    /// `quarantined[p]` — procedure `p`'s unit of work panicked or
    /// exhausted its slice in some per-procedure phase, so its summaries
    /// were degraded to their sound worst case (jump functions ⊥, MOD/REF
    /// everything). Every other procedure kept full precision.
    pub quarantined: Vec<bool>,
    /// Per-stage wall-clock and worker-utilization accounting (summed
    /// across gating rounds). Purely observational: timings never feed
    /// back into results.
    pub timings: Timings,
}

impl Analysis {
    /// Runs the full pipeline over a lowered module.
    ///
    /// With [`Config::gated_jump_fns`] the pipeline iterates: each round's
    /// `VAL` sets seed the next round's gating SCCP, so branches (and call
    /// sites) proved dead by *interprocedural* constants stop polluting
    /// jump-function generation — the in-place equivalent of "complete
    /// propagation". The iteration stops at a fixpoint (or after a small
    /// bound; one extra round almost always suffices).
    pub fn run(mcfg: &ModuleCfg, config: &Config) -> Analysis {
        // One pool for the whole analysis: workers are spawned here once
        // and parked between rounds, so every phase (and every gating
        // round) reuses them instead of paying a spawn/join per level.
        crate::par::with_pool(config.effective_jobs(), |pool| {
            Self::run_on(mcfg, config, pool, &build_ssa)
        })
    }

    /// [`Analysis::run`] on a caller-provided pool, building each
    /// procedure's SSA form with `ssa_builder`.
    pub(crate) fn run_on(
        mcfg: &ModuleCfg,
        config: &Config,
        pool: &crate::par::Pool<'_>,
        ssa_builder: &SsaBuilder<'_>,
    ) -> Analysis {
        let mut analysis = Self::run_once_on(mcfg, config, None, pool, ssa_builder);
        if config.gated_jump_fns {
            for _ in 0..4 {
                let vals = analysis.vals.vals.clone();
                let mut next = Self::run_once_on(mcfg, config, Some(&vals), pool, ssa_builder);
                let stable = next.vals.vals == analysis.vals.vals;
                // Telemetry accumulates across gating rounds. `absorb` is
                // order-preserving concatenation (associative, documented
                // on `AnalysisHealth::absorb`): round order is chronology.
                let mut health = std::mem::take(&mut analysis.health);
                health.absorb(std::mem::take(&mut next.health));
                next.health = health;
                let mut timings = analysis.timings;
                timings.absorb(next.timings);
                next.timings = timings;
                analysis = next;
                if stable {
                    break;
                }
            }
        }
        analysis
    }

    pub(crate) fn run_once_on(
        mcfg: &ModuleCfg,
        config: &Config,
        gate_seeds: Option<&Vec<Vec<Lattice>>>,
        pool: &crate::par::Pool<'_>,
        ssa_builder: &SsaBuilder<'_>,
    ) -> Analysis {
        let t_run = Instant::now();
        let jobs = config.effective_jobs();
        let cg = build_call_graph(mcfg);
        let layout = SlotLayout::new(&mcfg.module);
        let mut gov = Governor::new(config);
        let n_procs = mcfg.module.procs.len();
        let mut quarantined = vec![false; n_procs];
        let mut timings = Timings {
            jobs,
            ..Timings::default()
        };

        // Stage 0: per-procedure MOD/REF direct effects (under
        // quarantine), then call-edge propagation. A contained failure
        // widens only that procedure's summary to "touches everything
        // visible"; the fixpoint spreads the widening to callers exactly
        // as far as reference bindings demand.
        //
        // Units run on the pool and fold in procedure order, charging the
        // governor once per procedure. A procedure whose charge fails is
        // widened without its unit ever running — the path
        // `--no-quarantine` debugging relies on. The charges are exactly
        // one per procedure, in order, so the first refused procedure is
        // known before the round starts.
        let n_globals = mcfg.module.globals.len();
        let t0 = Instant::now();
        let first_refused = usize::try_from(gov.clean_charges(Stage::ModRef)).unwrap_or(usize::MAX);
        let (units, pt) = pool.run(n_procs, |pi| {
            (pi < first_refused).then(|| {
                crate::quarantine::run_unit(config, Stage::ModRef, pi, || {
                    direct_effects(mcfg, ProcId::from(pi))
                })
            })
        });
        let mut mods = Vec::with_capacity(n_procs);
        let mut refs = Vec::with_capacity(n_procs);
        for (pi, unit) in units.into_iter().enumerate() {
            let p = &mcfg.module.procs[pi];
            let charged = gov.charge(Stage::ModRef);
            let (m, r) = match unit {
                Some(unit) if charged => commit_modref_unit(
                    &p.name,
                    unit,
                    p.arity(),
                    n_globals,
                    pi,
                    &mut quarantined,
                    &mut gov,
                ),
                _ => {
                    quarantined[pi] = true;
                    gov.record_quarantine(
                        Stage::ModRef,
                        format!(
                            "{}: direct-effects budget exhausted; \
                             summary widened to everything visible",
                            p.name
                        ),
                    );
                    widen_modref(p.arity(), n_globals)
                }
            };
            mods.push(m);
            refs.push(r);
        }
        timings.modref = pt.spanning(t0.elapsed());
        let modref = propagate_modref(mcfg, &cg, mods, refs);

        let mod_kills = ModKills(&modref);
        let kills: &(dyn CallKills + Sync) = if config.use_mod {
            &mod_kills
        } else {
            &WorstCaseKills
        };

        // Stage 1: minimal SSA, once per reachable procedure that MOD/REF
        // left unquarantined. It depends only on the kills, so it has no
        // ordering constraint; both jump-function phases borrow it.
        let ssas = if runs_ssa_stage(config) {
            let (ssas, pt) = build_ssa_stage(&cg, config, &quarantined, pool, &|p| {
                ssa_builder(mcfg, p, kills)
            });
            timings.ssa = pt;
            ssas
        } else {
            (0..n_procs).map(|_| None).collect()
        };

        // Stage 2: return jump functions (bottom-up over the call graph;
        // one pool round per SCC level of the condensation).
        let (ret_jfs, mut handoff) = if !config.use_return_jfs {
            let table = ReturnJumpFns {
                fns: vec![None; n_procs],
                compose: false,
            };
            (table, Vec::new())
        } else {
            let (table, syms, pt) = build_return_jfs_on(
                mcfg,
                &cg,
                &layout,
                &ssas,
                config,
                &mut quarantined,
                &mut gov,
                pool,
            );
            timings.retjump = pt;
            (table, syms)
        };

        // Stage 3: per-procedure symbolic evaluation, then forward jump
        // functions (top-down conceptually; order is irrelevant since
        // return jump functions are already fixed). A procedure whose
        // return-JF evaluation was handed off skips its evaluation here
        // (see `reuses_ret_symbolic`). The symbolic units charge nothing
        // — step budgets are enforced inside the evaluator — so the fold
        // only replays the *recording* of outcomes in procedure order.
        let t2 = Instant::now();
        let latch = std::sync::Arc::clone(gov.latch());
        let max_steps = gov.limits().max_symbolic_steps;
        let deadline = config.deadline.map(|d| d.instant());
        let handed_off = |pi: usize| handoff.get(pi).is_some_and(Option::is_some);
        let (units, mut pt) = pool.run(n_procs, |pi| {
            // A procedure quarantined by an earlier phase contributes no
            // symbolic form: its call sites get explicit all-⊥ jump
            // functions below, and re-running its unit here would fire
            // the same fault twice.
            if !cg.reachable[pi] || quarantined[pi] || handed_off(pi) {
                return None;
            }
            let budget = EvalBudget {
                max_steps,
                deadline,
                latch: Some(&latch),
            };
            Some(run_symbolic_unit(
                mcfg,
                config,
                &layout,
                kills,
                &ret_jfs,
                gate_seeds,
                pi,
                ssas[pi].as_ref(),
                &budget,
            ))
        });
        let mut symbolics: Vec<Option<ProcSymbolic>> = Vec::with_capacity(n_procs);
        for (pi, (unit, slot)) in units.into_iter().zip(ssas).enumerate() {
            let unit = match (unit, handoff.get_mut(pi).and_then(Option::take)) {
                (Some(unit), _) => unit,
                // The unit's injection hook still fires, exactly as when
                // it evaluated.
                (None, Some(sym)) => {
                    crate::quarantine::run_unit(config, Stage::Jump, pi, || SymbolicUnit {
                        sym,
                        gate: None,
                        steps_exhausted: false,
                        own_ssa: None,
                    })
                }
                (None, None) => {
                    symbolics.push(None);
                    continue;
                }
            };
            let stage_ssa = slot.and_then(Result::ok);
            commit_symbolic_unit(
                mcfg,
                pi,
                unit,
                stage_ssa,
                &mut symbolics,
                &mut quarantined,
                &mut gov,
            );
        }
        let (jump_fns, pt_fwd) = build_forward_jump_fns_on(
            mcfg,
            &cg,
            &layout,
            config,
            &symbolics,
            &mut quarantined,
            &mut gov,
            pool,
        );
        pt.absorb(pt_fwd);
        pt.units = n_procs;
        timings.jump = pt.spanning(t2.elapsed());
        Self::finish(
            mcfg,
            config,
            cg,
            modref,
            layout,
            ret_jfs,
            symbolics,
            jump_fns,
            gov,
            quarantined,
            timings,
            t_run,
        )
    }

    /// Stage 3 (the interprocedural wavefront solve) and assembly — the
    /// shared tail of `run_once_on` and serve's incremental path.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish(
        mcfg: &ModuleCfg,
        config: &Config,
        cg: CallGraph,
        modref: ModRef,
        layout: SlotLayout,
        ret_jfs: ReturnJumpFns,
        symbolics: Vec<Option<ProcSymbolic>>,
        jump_fns: ForwardJumpFns,
        mut gov: Governor,
        mut quarantined: Vec<bool>,
        mut timings: Timings,
        t_run: Instant,
    ) -> Analysis {
        let entry_globals = if config.assume_zero_globals {
            Lattice::Const(0)
        } else {
            Lattice::Bottom
        };
        let (vals, solve_time) = crate::solver::solve(
            mcfg,
            &cg,
            &layout,
            &jump_fns,
            entry_globals,
            config,
            &mut gov,
            &mut quarantined,
            1,
        );
        timings.solve = solve_time;
        timings.total = t_run.elapsed();

        Analysis {
            config: *config,
            cg,
            modref,
            layout,
            ret_jfs,
            symbolics,
            jump_fns,
            vals,
            health: gov.into_health(),
            quarantined,
            timings,
        }
    }

    /// The SCCP call oracle consistent with this analysis's configuration.
    pub fn sccp_oracle<'a>(&'a self, mcfg: &'a ModuleCfg) -> Box<dyn CallDefLattice + Sync + 'a> {
        if self.config.use_return_jfs {
            Box::new(RetOracle {
                table: &self.ret_jfs,
                mcfg,
                layout: &self.layout,
            })
        } else {
            Box::new(OpaqueCallsLattice)
        }
    }

    /// `CONSTANTS(p)` as `(slot name, value)` pairs.
    pub fn constants_of(&self, mcfg: &ModuleCfg, p: ProcId) -> Vec<(String, i64)> {
        self.vals
            .constants(p)
            .into_iter()
            .map(|(slot, c)| (self.layout.slot_name(&mcfg.module, p, slot).to_string(), c))
            .collect()
    }

    /// Stage 4: record the results — run the substitution metric and
    /// build the transformed program.
    pub fn substitute(&self, mcfg: &ModuleCfg) -> Substitution {
        substitute::substitute(mcfg, self)
    }

    /// Stage 4's number alone: the total of
    /// [`substitute::substitution_counts`], equal to
    /// `self.substitute(mcfg).total` without building the program.
    pub fn substitution_total(&self, mcfg: &ModuleCfg) -> usize {
        substitute::substitution_counts(mcfg, self).iter().sum()
    }
}

/// The worst-case MOD/REF pair a quarantined procedure is widened to.
pub(crate) fn widen_modref(arity: usize, n_globals: usize) -> (ModSet, ModSet) {
    (
        ModSet::everything(arity, n_globals),
        ModSet::everything(arity, n_globals),
    )
}

/// Commits one MOD/REF unit outcome: the pair on success, the sound
/// widening (plus a quarantine event) on a contained panic. Shared by the
/// pipeline's fold and serve's incremental path so both record
/// byte-identical telemetry.
pub(crate) fn commit_modref_unit(
    name: &str,
    unit: Result<(ModSet, ModSet), UnitError>,
    arity: usize,
    n_globals: usize,
    pi: usize,
    quarantined: &mut [bool],
    gov: &mut Governor,
) -> (ModSet, ModSet) {
    match unit {
        Ok(pair) => pair,
        Err(e) => {
            quarantined[pi] = true;
            gov.record_quarantine(
                Stage::ModRef,
                format!(
                    "{name}: panic contained ({}); \
                     summary widened to everything visible",
                    e.message
                ),
            );
            widen_modref(arity, n_globals)
        }
    }
}

/// One procedure's entry in the SSA stage's output: `None` when the stage
/// skipped it (unreachable, or already quarantined by MOD/REF), otherwise
/// its minimal SSA form or the contained failure of building it.
pub(crate) type SsaSlot = Option<Result<SsaProc, UnitError>>;

/// Builds one procedure's SSA form — [`build_ssa`] in production; the
/// pipeline takes it as a parameter so tests can fault the SSA stage.
pub(crate) type SsaBuilder<'a> = dyn Fn(&ModuleCfg, ProcId, &dyn CallKills) -> SsaProc + Sync + 'a;

/// Whether the pipeline runs the shared SSA stage: return jump functions
/// always read minimal SSA, and the forward phase does unless
/// `pruned_ssa` has it build its own pruned form.
fn runs_ssa_stage(config: &Config) -> bool {
    config.use_return_jfs || !config.pruned_ssa
}

/// Whether the forward phase reuses the symbolic evaluation that return
/// jump functions computed, instead of evaluating again.
///
/// Both phases evaluate the same SSA under the same oracle — outside
/// recursion, every callee's return jump functions are final when the
/// bottom-up walk reaches a procedure. So the two evaluations agree
/// exactly when nothing else differs: return jump functions are on (the
/// forward phase uses their oracle), no gate prunes the forward
/// evaluation, both read minimal SSA, and no wall-clock deadline can cut
/// one of them short. The return-JF side additionally hands off only
/// non-recursive procedures whose evaluation finished within its step
/// slice; everything else is evaluated again, as before.
pub(crate) fn reuses_ret_symbolic(config: &Config) -> bool {
    config.use_return_jfs
        && !config.gated_jump_fns
        && !config.pruned_ssa
        && config.deadline.is_none()
}

/// The stage a failure to build a procedure's shared SSA form is charged
/// to: its first consumer, which used to build the form inside its own
/// unit. [`run_ssa_unit`] replays the failure as that unit's, with the
/// same event and quarantine.
fn ssa_stage_owner(config: &Config) -> Stage {
    if config.use_return_jfs {
        Stage::RetJump
    } else {
        Stage::Jump
    }
}

/// The SSA stage: builds the minimal SSA form of every reachable,
/// unquarantined procedure, one pool unit per procedure, each under
/// containment. A contained failure is stored in the slot, not recorded:
/// the consuming unit records it at its own place in its phase's order.
/// The returned [`PhaseTime`] counts the procedures built as its units.
pub(crate) fn build_ssa_stage(
    cg: &CallGraph,
    config: &Config,
    quarantined: &[bool],
    pool: &crate::par::Pool<'_>,
    build: &(dyn Fn(ProcId) -> SsaProc + Sync),
) -> (Vec<SsaSlot>, PhaseTime) {
    let owner = ssa_stage_owner(config);
    let (slots, mut pt) = pool.run(quarantined.len(), |pi| {
        (cg.reachable[pi] && !quarantined[pi]).then(|| {
            crate::quarantine::run_contained(config, owner, pi, || build(ProcId::from(pi)))
        })
    });
    pt.units = slots.iter().filter(|s| s.is_some()).count();
    (slots, pt)
}

/// Runs `stage`'s unit for procedure `pi` over its SSA slot. The unit's
/// injection hook fires first, exactly as when the unit built its own
/// SSA; then a contained SSA failure (or a missing form) surfaces as this
/// unit's own failure.
pub(crate) fn run_ssa_unit<T>(
    config: &Config,
    stage: Stage,
    pi: usize,
    ssa: Option<&Result<SsaProc, UnitError>>,
    f: impl FnOnce(&SsaProc) -> T,
) -> Result<T, UnitError> {
    match ssa {
        Some(Ok(ssa)) => crate::quarantine::run_unit(config, stage, pi, || f(ssa)),
        Some(Err(e)) => crate::quarantine::run_unit(config, stage, pi, || ())
            .and(Err(UnitError::new(stage, pi, e.message.clone()))),
        None => crate::quarantine::run_unit(config, stage, pi, || ()).and(Err(UnitError::new(
            stage,
            pi,
            "no SSA form was built",
        ))),
    }
}

/// A Stage::Jump symbolic unit's products, before commit.
#[derive(Debug)]
pub(crate) struct SymbolicUnit {
    /// Polynomial symbolic evaluation.
    pub sym: Symbolic,
    /// The gating SCCP fixpoint, when gating is on.
    pub gate: Option<SccpResult>,
    /// Whether the evaluation exhausted its step slice or the deadline.
    pub steps_exhausted: bool,
    /// The pruned SSA form the unit built itself (`pruned_ssa`); `None`
    /// when it evaluated the SSA stage's form, which commit moves in.
    pub own_ssa: Option<SsaProc>,
}

/// One procedure's Stage::Jump symbolic unit, under quarantine: gate and
/// symbolic evaluation over the stage's SSA slot — or, under
/// `pruned_ssa`, over a pruned form the unit builds itself.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_symbolic_unit(
    mcfg: &ModuleCfg,
    config: &Config,
    layout: &SlotLayout,
    kills: &(dyn CallKills + Sync),
    ret_jfs: &ReturnJumpFns,
    gate_seeds: Option<&Vec<Vec<Lattice>>>,
    pi: usize,
    ssa: Option<&Result<SsaProc, UnitError>>,
    budget: &EvalBudget<'_>,
) -> Result<SymbolicUnit, UnitError> {
    let eval = |ssa: &SsaProc| {
        eval_proc_symbolic(mcfg, config, layout, ret_jfs, gate_seeds, pi, ssa, budget)
    };
    if config.pruned_ssa {
        return crate::quarantine::run_unit(config, Stage::Jump, pi, || {
            let ssa = build_ssa_pruned(mcfg, ProcId::from(pi), kills);
            let unit = eval(&ssa);
            SymbolicUnit {
                own_ssa: Some(ssa),
                ..unit
            }
        });
    }
    run_ssa_unit(config, Stage::Jump, pi, ssa, eval)
}

/// Gate (when configured) and symbolic evaluation of one procedure's SSA
/// form — the body of the Stage::Jump symbolic unit.
#[allow(clippy::too_many_arguments)]
fn eval_proc_symbolic(
    mcfg: &ModuleCfg,
    config: &Config,
    layout: &SlotLayout,
    ret_jfs: &ReturnJumpFns,
    gate_seeds: Option<&Vec<Vec<Lattice>>>,
    pi: usize,
    ssa: &SsaProc,
    budget: &EvalBudget<'_>,
) -> SymbolicUnit {
    let p = ProcId::from(pi);
    let oracle = RetOracle {
        table: ret_jfs,
        mcfg,
        layout,
    };
    // Gate (extension): an unseeded SCCP pass whose executability
    // facts prune phi inputs and dead call sites, approximating
    // jump-function generation over gated single-assignment form.
    let gate = if config.gated_jump_fns {
        let n_vars = mcfg.module.proc(p).vars.len();
        let seeds = match gate_seeds {
            Some(vals) => crate::substitute::seeds_from_vals(mcfg, layout, p, &vals[pi]),
            None => ipcp_ssa::Seeds::none(n_vars),
        };
        let res = if config.use_return_jfs {
            ipcp_ssa::sccp::run(mcfg, ssa, &seeds, &oracle)
        } else {
            ipcp_ssa::sccp::run(mcfg, ssa, &seeds, &OpaqueCallsLattice)
        };
        Some(res)
    } else {
        None
    };
    let calls: &dyn CallDefEval = if config.use_return_jfs {
        &oracle
    } else {
        &OpaqueCalls
    };
    let (sym, steps_exhausted) =
        ipcp_ssa::symbolic::evaluate_under(mcfg, ssa, layout, calls, gate.as_ref(), budget);
    SymbolicUnit {
        sym,
        gate,
        steps_exhausted,
        own_ssa: None,
    }
}

/// Commits one symbolic unit outcome into `symbolics`, recording the
/// deadline/step-slice/panic events in procedure order.
/// `stage_ssa` is the SSA stage's form of the procedure, moved into the
/// committed [`ProcSymbolic`] unless the unit built its own.
pub(crate) fn commit_symbolic_unit(
    mcfg: &ModuleCfg,
    pi: usize,
    unit: Result<SymbolicUnit, UnitError>,
    stage_ssa: Option<SsaProc>,
    symbolics: &mut Vec<Option<ProcSymbolic>>,
    quarantined: &mut [bool],
    gov: &mut Governor,
) {
    let name = &mcfg.module.procs[pi].name;
    match unit {
        Ok(u) => {
            if u.steps_exhausted {
                if gov.deadline_expired() {
                    gov.record_deadline(
                        Stage::Jump,
                        format!(
                            "{name}: deadline expired during symbolic \
                             evaluation; pending values forced to ⊥"
                        ),
                    );
                } else {
                    gov.record_quarantine(
                        Stage::Jump,
                        format!(
                            "{name}: symbolic evaluation step slice \
                             exhausted; pending values forced to ⊥"
                        ),
                    );
                }
            }
            let Some(ssa) = u.own_ssa.or(stage_ssa) else {
                unreachable!("a symbolic unit evaluated an SSA form that was never built")
            };
            symbolics.push(Some(ProcSymbolic {
                ssa,
                sym: u.sym,
                gate: u.gate,
            }));
        }
        Err(e) => {
            quarantined[pi] = true;
            gov.record_quarantine(
                Stage::Jump,
                format!(
                    "{name}: panic contained ({}); procedure \
                     quarantined, jump functions forced to ⊥",
                    e.message
                ),
            );
            symbolics.push(None);
        }
    }
}

/// The façade entry point: runs the full pipeline and applies strict-mode
/// promotion, so library callers get the same semantics as `ipcc`
/// (`--strict` → exit code 3) without reimplementing the health check.
///
/// # Errors
///
/// [`IpcpError::ResourceExhausted`] when [`Config::strict`] is set and
/// any stage degraded. Without strict mode this never fails — degraded
/// runs stay sound and report what happened in [`Analysis::health`].
///
/// ```
/// use ipcp::{analyze, Config};
/// let module = ipcp_ir::parse_and_resolve(
///     "proc main() { call f(6); } proc f(a) { print a; }",
/// )?;
/// let mcfg = ipcp_ir::lower_module(&module);
/// let analysis = analyze(&mcfg, &Config::builder().strict(true).build()?)?;
/// let f = mcfg.module.proc_named("f").unwrap().id;
/// assert_eq!(analysis.constants_of(&mcfg, f), vec![("a".to_string(), 6)]);
/// # Ok::<(), ipcp::IpcpError>(())
/// ```
pub fn analyze(mcfg: &ModuleCfg, config: &Config) -> Result<Analysis, IpcpError> {
    let analysis = Analysis::run(mcfg, config);
    IpcpError::check_strict(config.strict, &analysis.health)?;
    Ok(analysis)
}

/// Parses, resolves, lowers, and analyzes FT source in one call.
///
/// # Errors
///
/// [`IpcpError::Frontend`] if the source is malformed. Budget exhaustion
/// is **not** an error here — the analysis degrades soundly and reports
/// what happened in [`Analysis::health`]; callers that demand full
/// precision can promote degradations with [`IpcpError::check_strict`].
///
/// ```
/// use ipcp::{analyze_source, Config};
/// let (mcfg, analysis) = analyze_source(
///     "proc main() { call f(6, 7); } proc f(a, b) { print a * b; }",
///     &Config::default(),
/// )?;
/// let f = mcfg.module.proc_named("f").unwrap().id;
/// let consts = analysis.constants_of(&mcfg, f);
/// assert_eq!(consts, vec![("a".to_string(), 6), ("b".to_string(), 7)]);
/// assert!(!analysis.health.degraded());
/// # Ok::<(), ipcp::IpcpError>(())
/// ```
pub fn analyze_source(src: &str, config: &Config) -> Result<(ModuleCfg, Analysis), IpcpError> {
    let module = ipcp_ir::parse_and_resolve(src)?;
    let mcfg = ipcp_ir::lower_module(&module);
    let analysis = Analysis::run(&mcfg, config);
    Ok((mcfg, analysis))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JumpFnKind;

    #[test]
    fn pipeline_stages_hang_together() {
        let (mcfg, a) = analyze_source(
            "global size; \
             proc main() { size = 100; call setup(); call kernel(10); } \
             proc setup() { } \
             proc kernel(k) { do i = 1, k { print i * size; } }",
            &Config::default(),
        )
        .unwrap();
        let kernel = mcfg.module.proc_named("kernel").unwrap().id;
        let consts = a.constants_of(&mcfg, kernel);
        assert!(consts.contains(&("k".to_string(), 10)), "{consts:?}");
        assert!(consts.contains(&("size".to_string(), 100)), "{consts:?}");
    }

    #[test]
    fn substitution_counts_occurrences_not_slots() {
        let (mcfg, a) = analyze_source(
            "proc main() { call f(3); } proc f(a) { print a; print a + a; }",
            &Config::default(),
        )
        .unwrap();
        let sub = a.substitute(&mcfg);
        // Three occurrences of `a` replaced.
        assert_eq!(sub.total, 3);
    }

    #[test]
    fn substituted_program_behaves_identically() {
        use ipcp_ir::interp::{exec_cfg, ExecLimits};
        let src = "global g; \
                   proc main() { g = 2; read x; call f(5, x); } \
                   proc f(k, n) { do i = 1, k { print i * g + n; } }";
        let (mcfg, a) = analyze_source(src, &Config::polynomial()).unwrap();
        let sub = a.substitute(&mcfg);
        assert!(sub.total > 0);
        for input in [&[0][..], &[7], &[-3]] {
            let before = exec_cfg(&mcfg, input, &ExecLimits::default()).unwrap();
            let after = exec_cfg(&sub.module, input, &ExecLimits::default()).unwrap();
            assert_eq!(before.output, after.output, "behaviour changed");
        }
    }

    #[test]
    fn jump_fn_hierarchy_is_monotone_on_counts() {
        let src = "global g; \
                   proc main() { g = 4; n = 6; call a(n, 3); } \
                   proc a(x, y) { call b(x, y + 1); } \
                   proc b(p, q) { print p * q * g; }";
        let mcfg = ipcp_ir::lower_module(&ipcp_ir::parse_and_resolve(src).unwrap());
        let mut last = 0;
        for kind in JumpFnKind::ALL {
            let a = Analysis::run(&mcfg, &Config::default().with_jump_fn(kind));
            let count = a.substitute(&mcfg).total;
            assert!(count >= last, "{kind} found {count} < previous {last}");
            last = count;
        }
    }

    #[test]
    fn removing_mod_never_helps() {
        let src = "global g; \
                   proc main() { g = 1; x = 2; call f(x); print g + x; } \
                   proc f(a) { print a; }";
        let mcfg = ipcp_ir::lower_module(&ipcp_ir::parse_and_resolve(src).unwrap());
        let with_mod = Analysis::run(&mcfg, &Config::polynomial())
            .substitute(&mcfg)
            .total;
        let without = Analysis::run(&mcfg, &Config::polynomial().with_mod(false))
            .substitute(&mcfg)
            .total;
        assert!(without <= with_mod);
        assert!(with_mod > 0);
    }

    #[test]
    fn return_jfs_recover_constants_after_calls() {
        let src = "global g; \
                   proc main() { call init(); call use(); } \
                   proc init() { g = 8; } \
                   proc use() { print g; }";
        let mcfg = ipcp_ir::lower_module(&ipcp_ir::parse_and_resolve(src).unwrap());
        let with_ret = Analysis::run(&mcfg, &Config::default());
        let use_p = mcfg.module.proc_named("use").unwrap().id;
        assert_eq!(
            with_ret.constants_of(&mcfg, use_p),
            vec![("g".to_string(), 8)]
        );
        let without = Analysis::run(&mcfg, &Config::default().with_return_jfs(false));
        assert!(without.constants_of(&mcfg, use_p).is_empty());
    }

    #[test]
    fn ssa_stage_panic_degrades_like_its_consumer_unit() {
        use crate::serve::incremental::same_results;
        let src = "global g; \
                   proc main() { g = 1; call f(2); call h(3); } \
                   proc f(a) { g = a + 1; call h(a); } \
                   proc h(b) { print b + g; }";
        let mcfg = ipcp_ir::lower_module(&ipcp_ir::parse_and_resolve(src).unwrap());
        let f = mcfg.module.proc_named("f").unwrap().id.index();
        // The SSA stage's failure is charged to its first consumer: the
        // return-JF unit when return jump functions are on, the forward
        // jump-function unit otherwise.
        for (config, stage) in [
            (Config::default(), Stage::RetJump),
            (Config::default().with_return_jfs(false), Stage::Jump),
            (
                Config::builder().pruned_ssa(true).build().unwrap(),
                Stage::RetJump,
            ),
        ] {
            for jobs in [1, 2] {
                let config = config.with_jobs(jobs);
                // Panics with the injection hook's own message, so the
                // two runs must agree event for event.
                let faulty = |m: &ModuleCfg, p: ProcId, kills: &dyn CallKills| {
                    assert!(
                        p.index() != f,
                        "injected panic ({} stage, procedure #{f})",
                        stage.label()
                    );
                    build_ssa(m, p, kills)
                };
                let got = crate::par::with_pool(jobs, |pool| {
                    Analysis::run_on(&mcfg, &config, pool, &faulty)
                });
                let want = Analysis::run(&mcfg, &config.with_panic(stage, f));
                assert!(same_results(&got, &want), "{stage:?} at jobs={jobs}");
                let quarantined: Vec<usize> = (0..got.quarantined.len())
                    .filter(|&p| got.quarantined[p])
                    .collect();
                assert_eq!(quarantined, vec![f], "only the faulty procedure degrades");
                let events = &got.health.events;
                assert_eq!(events.len(), 1, "{events:?}");
                assert_eq!(events[0].stage, stage);
                assert!(
                    events[0]
                        .detail
                        .starts_with("f: panic contained (injected panic"),
                    "{}",
                    events[0].detail
                );
            }
        }
    }

    #[test]
    fn intraprocedural_baseline_is_weaker() {
        let src = "proc main() { call f(9); } proc f(a) { print a; print 3 * 2; }";
        let (mcfg, a) = analyze_source(src, &Config::default()).unwrap();
        let inter = a.substitute(&mcfg).total;
        let intra = crate::substitute::substitute_intraprocedural(&mcfg, &a).total;
        assert!(intra < inter, "intra {intra} !< inter {inter}");
        assert_eq!(intra, 0); // `3 * 2` has no variable occurrence
        assert_eq!(inter, 1);
    }
}
