//! The cache-aware sequential pipeline driver.
//!
//! [`analyze_incremental`] mirrors the sequential path of
//! [`Analysis::run_once`](crate::Analysis) stage by stage, consulting the
//! [`SummaryCache`] before each per-procedure unit of work and staging
//! freshly computed clean units into a [`CacheTxn`]. The contract — the
//! one the `serve-identity` oracle and the tier-1 differential tests
//! enforce — is **bit-identity**: for any cache state, the returned
//! [`Analysis`] (values, health events in order, quarantine flags) equals
//! what a cold `Analysis::run` on the same module and configuration
//! produces, except for wall-clock-deadline degradations (those depend on
//! real time and are documented as ⊥-honest, marked `degraded`).
//!
//! Three mechanisms carry the identity proof through budgets and fault
//! injection:
//!
//! 1. **Keys capture every input.** A unit's key mixes the configuration
//!    fingerprint, the program shape, and its own-text or callee-cone
//!    Merkle hash (see [`ipcp_analysis::keys`]); two units with equal
//!    keys compute equal results.
//! 2. **Charge replay.** Cached return-jump units recorded the governor
//!    charges their clean run made. A hit replays them into a shard and
//!    absorbs only when [`Governor::can_absorb`] proves no budget or
//!    injected fault would have tripped inside the range — otherwise the
//!    unit runs live, reproducing the cold trip at the exact same offset.
//! 3. **Forced misses.** The unit named by a `--inject-panic`
//!    configuration always runs live, so the injection fires exactly as
//!    cold; and degraded units are never cached, so a quarantined
//!    procedure is recomputed (and re-contained, or healed by an edit)
//!    on every request.
//!
//! Gated configurations (`gated_jump_fns`) bypass the cache: their units
//! read the previous round's fixpoint, which is not part of the key.

use crate::config::{Config, Stage};
use crate::health::Governor;
use crate::jump::{build_forward_jump_fns, ProcSymbolic};
use crate::par::{PhaseTime, Timings};
use crate::pipeline::{
    commit_modref_unit, commit_symbolic_unit, run_symbolic_unit, widen_modref, SsaSlot, UnitError,
};
use crate::quarantine::run_contained;
use crate::retjump::{run_scc_member, RetOracle};
use crate::serve::cache::{CacheKey, CacheTxn, CachedSummary, SummaryCache, SummaryStage};
use crate::solver::ValSets;
use crate::Analysis;
use crate::ReturnJumpFns;
use ipcp_analysis::{build_call_graph, direct_effects, propagate_modref, summary_keys};
use ipcp_ir::cfg::ModuleCfg;
use ipcp_ir::hash::Fnv128;
use ipcp_ir::program::{ProcId, SlotLayout};
use ipcp_ssa::ssa::{build_ssa, CallKills, ModKills, SsaProc, WorstCaseKills};
use ipcp_ssa::symbolic::EvalBudget;
use std::time::{Duration, Instant};

/// Whether this configuration's per-procedure units are cacheable at
/// all. Gated jump functions iterate: each round's units read the
/// previous round's `VAL` sets, which the content keys do not capture.
pub fn cacheable(config: &Config) -> bool {
    !config.gated_jump_fns
}

/// Digest of the configuration axes that change what a summary unit
/// computes. Budgets are included because step and shape limits are
/// enforced *inside* units (they are not governor charges, so charge
/// replay cannot reproduce them); the injection hooks are *not* —
/// fault trips are reproduced by charge replay and panic injections by
/// forced misses.
///
/// Public because the persisted summary store stamps this fingerprint
/// into its header: a store written under one configuration is discarded
/// (config drift) rather than consulted under another.
pub fn config_fingerprint(config: &Config) -> u128 {
    let mut h = Fnv128::new();
    h.write_str(config.jump_fn.label());
    h.write(&[
        config.use_mod as u8,
        config.use_return_jfs as u8,
        config.compose_return_jfs as u8,
        config.assume_zero_globals as u8,
        config.gated_jump_fns as u8,
        config.pruned_ssa as u8,
    ]);
    let l = &config.limits;
    h.write_u64(l.max_solver_iterations);
    h.write_u64(l.max_symbolic_steps);
    h.write_u64(l.max_poly_terms as u64);
    h.write_u64(u64::from(l.max_poly_degree));
    h.write_u64(l.max_support as u64);
    h.write_u64(l.max_clones as u64);
    h.write_u64(l.max_inline_statements as u64);
    h.finish()
}

/// Digest of the program *shape*: ordered procedure names and arities,
/// ordered global declarations, and the configuration fingerprint.
/// Mixed into every cache key so entries from a differently shaped
/// program (renumbered `ProcId`s, different entry-slot layouts) can
/// never alias.
///
/// Public because the persisted summary store stamps this fingerprint
/// into its header (shape drift ⇒ discard at load).
pub fn shape_fingerprint(mcfg: &ModuleCfg, config: &Config) -> u128 {
    let mut h = Fnv128::new();
    h.write_u128(config_fingerprint(config));
    for g in &mcfg.module.globals {
        h.write_str(&g.name);
        h.write_u64(g.array_len.map_or(u64::MAX, |l| l as u64));
    }
    h.write(&[0xA5]);
    for p in &mcfg.module.procs {
        h.write_str(&p.name);
        h.write_u64(p.arity() as u64);
    }
    h.finish()
}

fn mix(shape: u128, content: u128) -> u128 {
    let mut h = Fnv128::new();
    h.write_u128(shape);
    h.write_u128(content);
    h.finish()
}

/// Whether the configuration's panic injection names this unit — if so
/// the cache must not serve it, so the injection fires exactly as cold.
fn forced_miss(config: &Config, stage: Stage, pi: usize) -> bool {
    config
        .panic_injection
        .is_some_and(|p| p.stage == stage && p.proc == pi)
}

/// Runs the pipeline over `mcfg` with per-procedure summary caching.
///
/// `own[i]` is the content hash of procedure `i`'s normalized text (the
/// engine derives these from its program model). Lookups read `cache`;
/// fresh clean units stage into `txn` for the engine to commit after the
/// request completes. See the module docs for the identity contract.
pub fn analyze_incremental(
    mcfg: &ModuleCfg,
    config: &Config,
    own: &[u128],
    cache: &SummaryCache,
    txn: &mut CacheTxn,
) -> Analysis {
    if !cacheable(config) {
        txn.bypassed = true;
        return Analysis::run(mcfg, config);
    }
    let t_run = Instant::now();
    let cg = build_call_graph(mcfg);
    let layout = SlotLayout::new(&mcfg.module);
    let keys = summary_keys(&cg, own);
    let shape = shape_fingerprint(mcfg, config);
    let mut gov = Governor::new(config);
    let n_procs = mcfg.module.procs.len();
    let n_globals = mcfg.module.globals.len();
    let mut quarantined = vec![false; n_procs];
    let mut timings = Timings {
        jobs: 1,
        ..Timings::default()
    };

    // Stage 0: MOD/REF direct effects. The per-procedure charge is made
    // by this loop (hit and miss alike), exactly as the cold sequential
    // loop charges before running the unit; direct effects themselves
    // charge nothing, so entries carry no recorded charges.
    let t0 = Instant::now();
    let mut mods = Vec::with_capacity(n_procs);
    let mut refs = Vec::with_capacity(n_procs);
    for (pi, p) in mcfg.module.procs.iter().enumerate() {
        let (m, r) = if !gov.charge(Stage::ModRef) {
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
        } else {
            let key = CacheKey {
                stage: SummaryStage::ModRef,
                digest: mix(shape, keys.own[pi]),
            };
            let forced = forced_miss(config, Stage::ModRef, pi);
            match (forced, cache.get_with_origin(key)) {
                (false, Some((CachedSummary::ModRef { mods, refs }, recovered))) => {
                    txn.hits += 1;
                    txn.persisted_hits += u64::from(recovered);
                    (mods.clone(), refs.clone())
                }
                _ => {
                    txn.misses += 1;
                    let pid = ProcId::from(pi);
                    let unit = crate::quarantine::run_unit(config, Stage::ModRef, pi, || {
                        direct_effects(mcfg, pid)
                    });
                    let clean = unit.is_ok();
                    let out = commit_modref_unit(
                        &p.name,
                        unit,
                        p.arity(),
                        n_globals,
                        pi,
                        &mut quarantined,
                        &mut gov,
                    );
                    if clean && !forced {
                        txn.stage(
                            key,
                            CachedSummary::ModRef {
                                mods: out.0.clone(),
                                refs: out.1.clone(),
                            },
                        );
                    }
                    out
                }
            }
        };
        mods.push(m);
        refs.push(r);
    }
    timings.modref = PhaseTime::sequential(t0.elapsed(), n_procs);
    let modref = propagate_modref(mcfg, &cg, mods, refs);

    let mod_kills = ModKills(&modref);
    let kills: &(dyn CallKills + Sync) = if config.use_mod {
        &mod_kills
    } else {
        &WorstCaseKills
    };

    // SSA is built lazily — only for units that miss the cache — through
    // the same containment as the cold SSA stage, and at most once per
    // procedure: a return-JF miss builds it, a replay and the symbolic
    // miss of the same procedure reuse it. Its time is reported as the
    // `ssa` phase and kept out of the consuming phases' walls.
    let mut ssas = LazySsa::new(n_procs);

    // Stage 1: return jump functions, bottom-up. These units charge the
    // governor (one RetJump charge per slot classification), so each
    // runs against a recording shard: a clean shard whose charges fold
    // cleanly is absorbed — and cached with its charges for replay on
    // later hits — while anything else replays against the master,
    // reproducing the cold trip offsets bit for bit.
    let t1 = Instant::now();
    let ret_jfs = if !config.use_return_jfs {
        ReturnJumpFns {
            fns: vec![None; n_procs],
            compose: false,
        }
    } else {
        let mut table = ReturnJumpFns {
            fns: vec![None; n_procs],
            compose: config.compose_return_jfs,
        };
        let member = |table: &ReturnJumpFns,
                      ssa: Option<&Result<SsaProc, UnitError>>,
                      p: ProcId,
                      quarantined: bool,
                      gov: &mut Governor| {
            let oracle = RetOracle {
                table,
                mcfg,
                layout: &layout,
            };
            run_scc_member(
                mcfg,
                &oracle,
                &layout,
                ssa,
                config,
                p,
                quarantined,
                false,
                gov,
            )
        };
        for p in cg.bottom_up() {
            let pi = p.index();
            if quarantined[pi] {
                // The short-circuit touches neither cache nor governor.
                table.fns[pi] = Some(member(&table, None, p, true, &mut gov).fns);
                continue;
            }
            let key = CacheKey {
                stage: SummaryStage::RetJump,
                digest: mix(shape, keys.cone[pi]),
            };
            let forced = forced_miss(config, Stage::RetJump, pi);
            if !forced {
                if let Some((CachedSummary::RetJump { fns, charges }, recovered)) =
                    cache.get_with_origin(key)
                {
                    let mut shard = gov.shard();
                    shard.add_charges(charges);
                    if gov.can_absorb(&shard) {
                        gov.absorb_shard(shard);
                        txn.hits += 1;
                        txn.persisted_hits += u64::from(recovered);
                        table.fns[pi] = Some(fns.clone());
                        continue;
                    }
                    // Replaying the recorded charges would cross a budget
                    // or fault trip: the cold run would have degraded
                    // inside this unit, so run it live to reproduce that.
                }
            }
            txn.misses += 1;
            ssas.ensure(mcfg, kills, config, pi, Stage::RetJump);
            let mut shard = gov.shard();
            let out = member(&table, ssas.slots[pi].as_ref(), p, false, &mut shard);
            if gov.can_absorb(&shard) {
                // A shard that tripped can never satisfy can_absorb (its
                // counter already exceeds the cap or fault point), so
                // this branch is charge-for-charge identical to having
                // run against the master.
                let clean = !out.newly_quarantined && !shard.health.degraded();
                let charges = shard.counters();
                gov.absorb_shard(shard);
                if clean && !forced {
                    txn.stage(
                        key,
                        CachedSummary::RetJump {
                            fns: out.fns.clone(),
                            charges,
                        },
                    );
                }
                quarantined[pi] = out.newly_quarantined;
                table.fns[pi] = Some(out.fns);
            } else {
                let out = member(&table, ssas.slots[pi].as_ref(), p, false, &mut gov);
                quarantined[pi] = out.newly_quarantined;
                table.fns[pi] = Some(out.fns);
            }
        }
        table
    };
    timings.retjump = PhaseTime::sequential(
        t1.elapsed().saturating_sub(ssas.time),
        cg.bottom_up().count(),
    );

    // Stage 2: symbolic evaluation, then forward jump functions.
    // Symbolic units make no governor charges (step budgets live inside
    // the evaluator), so hits need no replay; only clean units — no
    // panic, no exhausted step slice — are cached. Forward-jump-function
    // construction always runs live: it is cheap and makes the Jump
    // charges that fault injection addresses.
    let t2 = Instant::now();
    let ssa_before = ssas.time;
    let latch = std::sync::Arc::clone(gov.latch());
    let max_steps = gov.limits().max_symbolic_steps;
    let deadline = config.deadline.map(|d| d.instant());
    let mut symbolics: Vec<Option<ProcSymbolic>> = Vec::new();
    for pi in 0..n_procs {
        if !cg.reachable[pi] || quarantined[pi] {
            symbolics.push(None);
            continue;
        }
        let key = CacheKey {
            stage: SummaryStage::Jump,
            digest: mix(shape, keys.cone[pi]),
        };
        let forced = forced_miss(config, Stage::Jump, pi);
        if !forced {
            if let Some((CachedSummary::Jump { sym }, recovered)) = cache.get_with_origin(key) {
                txn.hits += 1;
                txn.persisted_hits += u64::from(recovered);
                symbolics.push(Some((**sym).clone()));
                continue;
            }
        }
        txn.misses += 1;
        if !config.pruned_ssa {
            ssas.ensure(mcfg, kills, config, pi, Stage::Jump);
        }
        let budget = EvalBudget {
            max_steps,
            deadline,
            latch: Some(&latch),
        };
        let unit = run_symbolic_unit(
            mcfg,
            config,
            &layout,
            kills,
            &ret_jfs,
            None,
            pi,
            ssas.slots[pi].as_ref(),
            &budget,
        );
        let clean = matches!(&unit, Ok(u) if !u.steps_exhausted);
        let stage_ssa = ssas.slots[pi].take().and_then(Result::ok);
        commit_symbolic_unit(
            mcfg,
            pi,
            unit,
            stage_ssa,
            &mut symbolics,
            &mut quarantined,
            &mut gov,
        );
        if clean && !forced {
            if let Some(Some(ps)) = symbolics.last() {
                txn.stage(
                    key,
                    CachedSummary::Jump {
                        sym: Box::new(ps.clone()),
                    },
                );
            }
        }
    }
    let jump_fns = build_forward_jump_fns(
        mcfg,
        &cg,
        &layout,
        config,
        &symbolics,
        &mut quarantined,
        &mut gov,
    );
    timings.jump =
        PhaseTime::sequential(t2.elapsed().saturating_sub(ssas.time - ssa_before), n_procs);
    timings.ssa = PhaseTime::sequential(ssas.time, ssas.built);
    Analysis::finish(
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

/// The incremental path's SSA stage: slots filled on demand, with the
/// containment (and failure attribution) of the cold stage.
struct LazySsa {
    slots: Vec<SsaSlot>,
    time: Duration,
    built: usize,
}

impl LazySsa {
    fn new(n_procs: usize) -> LazySsa {
        LazySsa {
            slots: (0..n_procs).map(|_| None).collect(),
            time: Duration::ZERO,
            built: 0,
        }
    }

    /// Builds procedure `pi`'s minimal SSA form unless it already has one,
    /// charging a failure to `stage` — the unit that needs the form.
    fn ensure(
        &mut self,
        mcfg: &ModuleCfg,
        kills: &dyn CallKills,
        config: &Config,
        pi: usize,
        stage: Stage,
    ) {
        if self.slots[pi].is_none() {
            let t = Instant::now();
            self.slots[pi] = Some(run_contained(config, stage, pi, || {
                build_ssa(mcfg, ProcId::from(pi), kills)
            }));
            self.time += t.elapsed();
            self.built += 1;
        }
    }
}

/// The identity predicate the differential tests assert: everything an
/// analysis computes except wall-clock observations (timings) and the
/// solver's internal work counters.
pub fn same_results(a: &Analysis, b: &Analysis) -> bool {
    let vals = |v: &ValSets| v.vals.clone();
    vals(&a.vals) == vals(&b.vals)
        && a.health == b.health
        && a.quarantined == b.quarantined
        && a.ret_jfs.fns == b.ret_jfs.fns
        && a.jump_fns.sites == b.jump_fns.sites
        && a.modref == b.modref
}
