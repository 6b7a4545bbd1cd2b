//! The build-once contract of the per-procedure SSA stage.
//!
//! The pipeline builds each procedure's minimal SSA form once, right
//! after MOD/REF, and both jump-function phases borrow it. Outside
//! recursion the forward phase also reuses the symbolic evaluation that
//! return jump functions computed, instead of evaluating again. That
//! reuse rests on a hypothesis: an evaluation made during the bottom-up
//! walk equals a fresh evaluation against the *final* return-JF table.
//! This file tests the hypothesis directly, on the suite and on
//! generated whole programs, at one and at several workers: every
//! committed evaluation must equal a fresh one over the same SSA form
//! and gate, and the SSA stage must have built each procedure exactly
//! once per pipeline round.

use ipcp::retjump::RetOracle;
use ipcp::{Analysis, Config};
use ipcp_ir::{lower_module, parse_and_resolve, ModuleCfg};
use ipcp_ssa::symbolic::{evaluate_under, CallDefEval, EvalBudget, OpaqueCalls};
use ipcp_suite::{generate_scale, ScaleSpec, PROGRAMS};

const JOB_COUNTS: &[usize] = &[1, 4];

/// Every configuration axis that changes what the per-procedure phases
/// compute (the matrix of the jobs-identity suite).
fn config_matrix() -> Vec<(&'static str, Config)> {
    let b = Config::builder;
    vec![
        ("default", Config::default()),
        ("polynomial", Config::polynomial()),
        ("no-mod", Config::polynomial().with_mod(false)),
        ("no-return-jfs", Config::polynomial().with_return_jfs(false)),
        (
            "compose",
            b().compose_return_jfs(true)
                .build()
                .expect("compose with return jfs on is valid"),
        ),
        (
            "extensions",
            b().zero_globals(true)
                .gated(true)
                .pruned_ssa(true)
                .build()
                .expect("extensions combine"),
        ),
    ]
}

/// Asserts that every committed symbolic evaluation equals a fresh one,
/// and that the SSA stage built each reachable procedure once per round.
fn assert_evaluated_once(mcfg: &ModuleCfg, config: &Config, label: &str) {
    for &jobs in JOB_COUNTS {
        let a = Analysis::run(mcfg, &config.with_jobs(jobs));
        let label = format!("{label} at jobs={jobs}");
        assert!(
            a.quarantined.iter().all(|q| !q),
            "{label}: the corpus must run clean"
        );
        let oracle = RetOracle {
            table: &a.ret_jfs,
            mcfg,
            layout: &a.layout,
        };
        let calls: &dyn CallDefEval = if config.use_return_jfs {
            &oracle
        } else {
            &OpaqueCalls
        };
        let budget = EvalBudget {
            max_steps: config.limits.max_symbolic_steps,
            deadline: None,
            latch: None,
        };
        let mut reachable = 0;
        for (pi, ps) in a.symbolics.iter().enumerate() {
            let Some(ps) = ps else {
                assert!(
                    !a.cg.reachable[pi],
                    "{label}: reachable procedure #{pi} has no symbolic form"
                );
                continue;
            };
            reachable += 1;
            let (fresh, exhausted) =
                evaluate_under(mcfg, &ps.ssa, &a.layout, calls, ps.gate.as_ref(), &budget);
            assert!(!exhausted, "{label}: procedure #{pi} ran out of steps");
            assert_eq!(
                ps.sym.values, fresh.values,
                "{label}: procedure #{pi}'s committed evaluation differs from a fresh one"
            );
        }
        // Gated configurations re-run the pipeline; MOD/REF counts every
        // procedure once per round, so it tells how many rounds ran.
        let n_procs = mcfg.module.procs.len();
        let rounds = a.timings.modref.units / n_procs;
        assert!(rounds >= 1, "{label}: no pipeline round recorded");
        let expected = if config.use_return_jfs || !config.pruned_ssa {
            rounds * reachable
        } else {
            0 // pruned SSA without return JFs: the forward phase builds its own
        };
        assert_eq!(
            a.timings.ssa.units, expected,
            "{label}: the SSA stage built {} forms over {rounds} round(s) of {reachable} reachable procedures",
            a.timings.ssa.units
        );
    }
}

#[test]
fn suite_evaluations_equal_fresh_ones() {
    for p in PROGRAMS {
        let mcfg = p.module_cfg();
        for (name, config) in config_matrix() {
            assert_evaluated_once(&mcfg, &config, &format!("{}/{name}", p.name));
        }
    }
}

/// One generated whole program at the 1k tier, under every configuration.
fn assert_generated_evaluated_once(shape: &str) {
    let spec = format!("procs=1k,shape={shape},recursion=20,seed=3");
    let src = generate_scale(&ScaleSpec::parse(&spec).expect("valid spec"));
    let mcfg = lower_module(&parse_and_resolve(&src).expect("generated program resolves"));
    for (name, config) in config_matrix() {
        assert_evaluated_once(&mcfg, &config, &format!("{spec}/{name}"));
    }
}

#[test]
fn deep_chains_evaluations_equal_fresh_ones() {
    assert_generated_evaluated_once("deep-chains");
}

#[test]
fn wide_fanout_evaluations_equal_fresh_ones() {
    assert_generated_evaluated_once("wide-fanout");
}

#[test]
fn mixed_evaluations_equal_fresh_ones() {
    assert_generated_evaluated_once("mixed");
}
