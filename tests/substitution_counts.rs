//! The counts stage against the full rewrite.
//!
//! `ipcc analyze --emit constants|counts`, the tables, and serve's
//! constants replies read the substitution metric from the count-only
//! stage (`substitution_counts`), which runs seeded SCCP per procedure
//! and never builds the transformed program. The full `substitute`
//! shares its SCCP stage and counting rule and adds the rewrite. This
//! file checks that the two agree on the suite and on generated whole
//! programs, at one and at several workers, that the standalone
//! intraprocedural count agrees with the rewrite path, and that lowering
//! an owned module equals lowering a borrowed one.

use ipcp::substitute::intraprocedural_count;
use ipcp::{substitute, substitute_intraprocedural, substitution_counts, Analysis, Config};
use ipcp_ir::program::Module;
use ipcp_ir::{lower_module, lower_module_owned, parse_and_resolve, ModuleCfg};
use ipcp_suite::{generate_scale, ScaleSpec, PROGRAMS};

const JOB_COUNTS: &[usize] = &[1, 4];

/// Every configuration axis that changes what SCCP sees: seeds, the call
/// oracle (return JFs), kill sets (MOD), and the SSA form (pruned).
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

fn assert_counts_match(mcfg: &ModuleCfg, config: &Config, label: &str) {
    for &jobs in JOB_COUNTS {
        let a = Analysis::run(mcfg, &config.with_jobs(jobs));
        let label = format!("{label} at jobs={jobs}");
        let full = substitute(mcfg, &a);
        let counts = substitution_counts(mcfg, &a);
        assert_eq!(counts, full.counts, "{label}: seeded counts");
        assert_eq!(counts.iter().sum::<usize>(), full.total, "{label}: total");
        assert_eq!(a.substitution_total(mcfg), full.total, "{label}: total");
    }
}

#[test]
fn suite_counts_equal_the_rewrite() {
    for p in PROGRAMS {
        let mcfg = p.module_cfg();
        for (name, config) in config_matrix() {
            assert_counts_match(&mcfg, &config, &format!("{}/{name}", p.name));
        }
    }
}

const SHAPES: [&str; 3] = ["deep-chains", "wide-fanout", "mixed"];

/// One generated whole program at the 1k tier, with its spec.
fn generated_module(shape: &str) -> (String, Module) {
    let spec = format!("procs=1k,shape={shape},recursion=20,seed=3");
    let src = generate_scale(&ScaleSpec::parse(&spec).expect("valid spec"));
    (
        spec,
        parse_and_resolve(&src).expect("generated program resolves"),
    )
}

fn generated(shape: &str) -> (String, ModuleCfg) {
    let (spec, module) = generated_module(shape);
    (spec, lower_module_owned(module))
}

fn assert_generated_counts_match(shape: &str) {
    let (spec, mcfg) = generated(shape);
    for (name, config) in config_matrix() {
        assert_counts_match(&mcfg, &config, &format!("{spec}/{name}"));
    }
}

#[test]
fn deep_chains_counts_equal_the_rewrite() {
    assert_generated_counts_match("deep-chains");
}

#[test]
fn wide_fanout_counts_equal_the_rewrite() {
    assert_generated_counts_match("wide-fanout");
}

#[test]
fn mixed_counts_equal_the_rewrite() {
    assert_generated_counts_match("mixed");
}

/// `intraprocedural_count` builds its own MOD-precise SSA and counts
/// with the shared rule; the rewrite path over an analysis with the same
/// kill sets must count the same occurrences.
#[test]
fn intraprocedural_count_equals_the_rewrite_count() {
    let mut programs: Vec<(String, ModuleCfg)> = PROGRAMS
        .iter()
        .map(|p| (p.name.to_string(), p.module_cfg()))
        .collect();
    programs.push(generated("mixed"));
    for (label, mcfg) in &programs {
        let a = Analysis::run(mcfg, &Config::default());
        assert_eq!(
            intraprocedural_count(mcfg),
            substitute_intraprocedural(mcfg, &a).total,
            "{label}"
        );
    }
}

#[test]
fn lowering_an_owned_module_equals_lowering_a_borrowed_one() {
    let mut modules: Vec<_> = PROGRAMS.iter().map(|p| p.module()).collect();
    modules.extend(SHAPES.iter().map(|shape| generated_module(shape).1));
    for m in modules {
        assert_eq!(lower_module_owned(m.clone()), lower_module(&m));
    }
}
