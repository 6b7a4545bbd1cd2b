//! The binding-multigraph formulation of the propagation step.
//!
//! §2 notes that besides the procedure-level worklist, "alternative
//! formulations based on the binding multi-graph are possible" (Cooper &
//! Kennedy's linear-time side-effect machinery): make each *entry slot* a
//! node, draw an edge from caller slot `v` to callee slot `s` whenever the
//! jump function for `s` reads `v`, and run the worklist over slots
//! instead of procedures. A slot is re-evaluated only when something in
//! its jump function's support actually changed — realizing the
//! `O(Σ_s Σ_y cost(J_s^y))` bound of §3.1.5 directly.
//!
//! [`solve_binding_graph`] computes exactly the same fixpoint as
//! [`crate::solver::solve`] (the lattice is finite-depth and both run the
//! same monotone equations to exhaustion); `tests` and the property suite
//! assert the equivalence, and the `bench_solver` binary compares their
//! costs (exiting nonzero if the fixpoints ever differ).

use crate::config::Stage;
use crate::health::Governor;
use crate::jump::ForwardJumpFns;
use crate::solver::ValSets;
use ipcp_analysis::CallGraph;
use ipcp_ir::cfg::ModuleCfg;
use ipcp_ir::program::SlotLayout;
use ipcp_ssa::Lattice;
use std::collections::VecDeque;

/// A node of the binding graph: `(procedure index, slot index)`.
type Node = (usize, usize);

/// Solves the interprocedural propagation over the binding multigraph.
///
/// `entry_globals` plays the same role as in [`crate::solver::solve`], and
/// so does the governor: each slot re-evaluation charges one
/// [`Stage::Binding`] iteration, and on exhaustion every reachable
/// procedure's slots are soundly forced to ⊥.
pub fn solve_binding_graph(
    mcfg: &ModuleCfg,
    cg: &CallGraph,
    layout: &SlotLayout,
    jump_fns: &ForwardJumpFns,
    entry_globals: Lattice,
    gov: &mut Governor,
) -> ValSets {
    let n_procs = mcfg.module.procs.len();
    let slots_of = |p: usize| layout.n_slots(mcfg.module.procs[p].arity());

    let mut vals: Vec<Vec<Lattice>> = (0..n_procs)
        .map(|p| vec![Lattice::Top; slots_of(p)])
        .collect();

    // Dependency edges: for every call edge and callee slot, the jump
    // function's support slots in the caller feed the callee slot.
    // `deps[caller][v]` lists (callee, slot, caller, site) tuples to
    // re-evaluate when `(caller, v)` changes.
    #[derive(Clone, Copy)]
    struct Target {
        callee: usize,
        slot: usize,
        caller: usize,
        site: ipcp_ir::cfg::CallSiteId,
    }
    let mut deps: Vec<Vec<Vec<Target>>> = (0..n_procs)
        .map(|p| vec![Vec::new(); slots_of(p)])
        .collect();
    // Support-free jump functions (constants, ⊥) are applied once at
    // start-up — they can never change.
    let mut initial: Vec<(Target, Lattice)> = Vec::new();

    let mut meets = 0usize;
    for edge in &cg.edges {
        let fns = jump_fns.at(edge.caller, edge.site);
        for (slot, jf) in fns.iter().enumerate() {
            let t = Target {
                callee: edge.callee.index(),
                slot,
                caller: edge.caller.index(),
                site: edge.site,
            };
            let support = jf.support();
            if support.is_empty() {
                initial.push((t, jf.eval(|_| Lattice::Bottom)));
            } else {
                for v in support {
                    deps[t.caller][v as usize].push(t);
                }
            }
        }
    }

    // Worklist of dirty nodes.
    let mut queued: Vec<Vec<bool>> = (0..n_procs).map(|p| vec![false; slots_of(p)]).collect();
    let mut work: VecDeque<Node> = VecDeque::new();
    let lower = |vals: &mut Vec<Vec<Lattice>>,
                 queued: &mut Vec<Vec<bool>>,
                 work: &mut VecDeque<Node>,
                 node: Node,
                 value: Lattice,
                 meets: &mut usize| {
        *meets += 1;
        if vals[node.0][node.1].meet_in(value) && !queued[node.0][node.1] {
            queued[node.0][node.1] = true;
            work.push_back(node);
        }
    };

    // Entry procedure: formals ⊥ (unknown environment), globals per config.
    let entry = mcfg.module.entry.index();
    let arity = mcfg.module.procs[entry].arity();
    for slot in 0..slots_of(entry) {
        let init = if slot < arity {
            Lattice::Bottom
        } else {
            entry_globals
        };
        lower(
            &mut vals,
            &mut queued,
            &mut work,
            (entry, slot),
            init,
            &mut meets,
        );
    }
    // Constant jump functions fire once.
    for (t, value) in initial {
        lower(
            &mut vals,
            &mut queued,
            &mut work,
            (t.callee, t.slot),
            value,
            &mut meets,
        );
    }

    let mut iterations = 0usize;
    while let Some(node) = work.pop_front() {
        if gov.deadline_expired() {
            gov.record_deadline(
                Stage::Binding,
                format!(
                    "deadline expired after {iterations} slot updates; \
                     all reachable entry slots forced to ⊥"
                ),
            );
            for (pi, v) in vals.iter_mut().enumerate() {
                if cg.reachable[pi] {
                    v.fill(Lattice::Bottom);
                }
            }
            break;
        }
        if !gov.charge(Stage::Binding) {
            gov.record(
                Stage::Binding,
                format!(
                    "iteration budget exhausted after {iterations} slot updates; \
                     all reachable entry slots forced to ⊥"
                ),
            );
            for (pi, v) in vals.iter_mut().enumerate() {
                if cg.reachable[pi] {
                    v.fill(Lattice::Bottom);
                }
            }
            break;
        }
        queued[node.0][node.1] = false;
        iterations += 1;
        // Re-evaluate every jump function that reads this slot.
        for &t in &deps[node.0][node.1] {
            let jf = &jump_fns.at(ipcp_ir::program::ProcId::from(t.caller), t.site)[t.slot];
            let caller_vals = &vals[t.caller];
            let incoming = jf.eval(|v| {
                caller_vals
                    .get(v as usize)
                    .copied()
                    .unwrap_or(Lattice::Bottom)
            });
            lower(
                &mut vals,
                &mut queued,
                &mut work,
                (t.callee, t.slot),
                incoming,
                &mut meets,
            );
        }
    }

    ValSets {
        vals,
        meets,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Config, JumpFnKind};
    use crate::pipeline::Analysis;
    use ipcp_ir::{lower_module, parse_and_resolve};
    use ipcp_suite::{generate, GenConfig, PROGRAMS};

    /// Runs both solvers on the same jump functions and compares the
    /// fixpoints.
    fn check_equivalence(mcfg: &ipcp_ir::ModuleCfg, config: &Config, label: &str) {
        let analysis = Analysis::run(mcfg, config);
        let entry_globals = if config.assume_zero_globals {
            Lattice::Const(0)
        } else {
            Lattice::Bottom
        };
        let binding = solve_binding_graph(
            mcfg,
            &analysis.cg,
            &analysis.layout,
            &analysis.jump_fns,
            entry_globals,
            &mut Governor::unlimited(),
        );
        // Compare only reachable procedures: the procedure-level solver
        // never touches unreachable ones, while the binding graph applies
        // support-free jump functions from unreachable callers eagerly —
        // both are fixpoints, but only reachable rows carry meaning.
        for (pi, (a, b)) in analysis.vals.vals.iter().zip(&binding.vals).enumerate() {
            if !analysis.cg.reachable[pi] {
                continue;
            }
            assert_eq!(a, b, "{label}: VAL sets diverge for proc {pi}");
        }
    }

    #[test]
    fn solvers_agree_on_the_suite() {
        for p in PROGRAMS {
            let mcfg = p.module_cfg();
            for kind in JumpFnKind::ALL {
                check_equivalence(
                    &mcfg,
                    &Config::default().with_jump_fn(kind),
                    &format!("{} {kind}", p.name),
                );
            }
            check_equivalence(&mcfg, &Config::polynomial().with_mod(false), p.name);
            check_equivalence(&mcfg, &Config::polynomial().with_return_jfs(false), p.name);
        }
    }

    #[test]
    fn solvers_agree_on_generated_programs() {
        for seed in 0..40 {
            let src = generate(&GenConfig::default(), seed);
            let mcfg = lower_module(&parse_and_resolve(&src).unwrap());
            check_equivalence(&mcfg, &Config::default(), &format!("seed {seed}"));
            check_equivalence(&mcfg, &Config::polynomial(), &format!("seed {seed}"));
        }
    }

    #[test]
    fn binding_graph_counts_work_by_support() {
        // A long pass-through chain: the binding solver touches each node
        // a bounded number of times.
        let mut src = String::from("proc main() { call p0(5); }\n");
        for i in 0..30 {
            if i < 29 {
                src.push_str(&format!("proc p{i}(x) {{ call p{}(x); }}\n", i + 1));
            } else {
                src.push_str(&format!("proc p{i}(x) {{ print x; }}\n"));
            }
        }
        let mcfg = lower_module(&parse_and_resolve(&src).unwrap());
        let analysis = Analysis::run(&mcfg, &Config::default());
        let binding = solve_binding_graph(
            &mcfg,
            &analysis.cg,
            &analysis.layout,
            &analysis.jump_fns,
            Lattice::Bottom,
            &mut Governor::unlimited(),
        );
        let last = mcfg.module.proc_named("p29").unwrap().id;
        assert_eq!(binding.of(last)[0], Lattice::Const(5));
        // Each slot lowers at most twice; the worklist re-queues a node
        // only on change, so iterations stay linear in the slot count.
        let total_slots: usize = mcfg
            .module
            .procs
            .iter()
            .map(|p| analysis.layout.n_slots(p.arity()))
            .sum();
        assert!(
            binding.iterations <= 2 * total_slots + 2,
            "iterations {} vs slots {total_slots}",
            binding.iterations
        );
    }
}
