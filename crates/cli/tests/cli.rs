//! End-to-end tests of the `ipcc` binary via `std::process`.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn ipcc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ipcc"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("ipcc-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}.ft", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path
}

const DEMO: &str = r#"
global scale;
proc main() {
    scale = 10;
    read n;
    call work(5);
    print n;
}
proc work(k) {
    print k * scale;
    do i = 1, k { print i; }
}
"#;

#[test]
fn help_prints_usage() {
    let out = ipcc().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("USAGE"));
    assert!(text.contains("analyze"));
}

#[test]
fn no_args_prints_usage() {
    let out = ipcc().output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("USAGE"));
}

#[test]
fn unknown_command_fails_with_code_2() {
    let out = ipcc().arg("bogus").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("unknown command"));
}

#[test]
fn analyze_reports_constants() {
    let path = write_temp("analyze", DEMO);
    let out = ipcc().arg("analyze").arg(&path).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("CONSTANTS(work)"), "{text}");
    assert!(text.contains("k = 5"), "{text}");
    assert!(text.contains("scale = 10"), "{text}");
    assert!(text.contains("total constants substituted"), "{text}");
}

#[test]
fn analyze_emit_counts_and_jumpfns() {
    let path = write_temp("emit", DEMO);
    let out = ipcc()
        .args(["analyze", "--emit", "counts"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("total"));

    let out = ipcc()
        .args(["analyze", "--emit", "jumpfns"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("main cs0"), "{text}");
}

#[test]
fn analyze_respects_jump_fn_choice() {
    let path = write_temp("kinds", DEMO);
    let literal = ipcc()
        .args(["analyze", "--jump-fn", "literal", "--emit", "counts"])
        .arg(&path)
        .output()
        .unwrap();
    let pass = ipcc()
        .args(["analyze", "--emit", "counts"])
        .arg(&path)
        .output()
        .unwrap();
    let total = |o: &std::process::Output| -> usize {
        String::from_utf8_lossy(&o.stdout)
            .lines()
            .find(|l| l.starts_with("total"))
            .and_then(|l| l.split_whitespace().last())
            .unwrap()
            .parse()
            .unwrap()
    };
    // `scale` flows only through non-literal jump functions.
    assert!(total(&literal) < total(&pass));
}

#[test]
fn run_executes_with_inputs() {
    let path = write_temp("run", DEMO);
    let out = ipcc()
        .args(["run", "--input", "42"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let lines: Vec<&str> = std::str::from_utf8(&out.stdout).unwrap().lines().collect();
    assert_eq!(lines, vec!["50", "1", "2", "3", "4", "5", "42"]);
}

#[test]
fn run_reports_runtime_errors() {
    let path = write_temp("diverr", "proc main() { read x; print 1 / x; }");
    let out = ipcc()
        .args(["run", "--input", "0"])
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("division by zero"));
}

#[test]
fn fmt_round_trips() {
    let path = write_temp("fmt", DEMO);
    let out = ipcc().arg("fmt").arg(&path).output().unwrap();
    assert!(out.status.success());
    let pretty = String::from_utf8(out.stdout).unwrap();
    // The pretty output itself parses and formats identically.
    let path2 = write_temp("fmt2", &pretty);
    let out2 = ipcc().arg("fmt").arg(&path2).output().unwrap();
    assert_eq!(pretty, String::from_utf8(out2.stdout).unwrap());
}

#[test]
fn fmt_reads_stdin() {
    let mut child = ipcc()
        .args(["fmt", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"proc main() { print 1+2; }")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("print 1 + 2;"));
}

#[test]
fn parse_errors_render_with_positions() {
    let path = write_temp("bad", "proc main() { x = ; }");
    let out = ipcc().arg("analyze").arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("error:1:"), "{err}");
}

#[test]
fn cfg_and_callgraph_dump() {
    let path = write_temp("dump", DEMO);
    let out = ipcc()
        .args(["cfg", "--proc", "work"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("proc work"), "{text}");
    assert!(!text.contains("proc main"), "{text}");

    let out = ipcc().arg("callgraph").arg(&path).output().unwrap();
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("main --cs0--> work"), "{text}");
}

#[test]
fn complete_and_clone_report() {
    let src = "global flag; \
               proc main() { flag = 0; if (flag != 0) { call f(9); } call f(1); call f(1); } \
               proc f(a) { print a; }";
    let path = write_temp("complete", src);
    let out = ipcc().arg("complete").arg(&path).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("complete propagation"), "{text}");

    let src2 = "proc main() { call f(1); call f(2); } proc f(a) { print a; }";
    let path2 = write_temp("clone", src2);
    let out = ipcc()
        .args(["clone", "--budget", "4"])
        .arg(&path2)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("clones created: 1"), "{text}");
    assert!(text.contains("0 -> 2"), "{text}");
}

#[test]
fn tables_runs_on_builtin_suite() {
    let out = ipcc().arg("tables").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("Table 2"));
    assert!(text.contains("ocean"));
    assert!(text.contains("Table 3"));
}

#[test]
fn integrate_compares_against_jump_functions() {
    let src = "proc main() { call f(1); call f(2); } proc f(a) { print a; }";
    let path = write_temp("integrate", src);
    let out = ipcc().arg("integrate").arg(&path).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("inlined 2 call(s)"), "{text}");
    assert!(text.contains("integration + intraprocedural: 2"), "{text}");
}

#[test]
fn analyze_emit_report() {
    let path = write_temp("report", DEMO);
    let out = ipcc()
        .args(["analyze", "--emit", "report"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("forward jump functions"), "{text}");
    assert!(text.contains("solver"), "{text}");
}

#[test]
fn gated_flag_is_accepted() {
    let path = write_temp("gated", DEMO);
    let out = ipcc()
        .args(["analyze", "--gated", "--jump-fn", "poly"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn analyze_emit_source_substitutes_textually() {
    let path = write_temp("source", DEMO);
    let out = ipcc()
        .args(["analyze", "--emit", "source"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    // `k * scale` becomes `5 * 10` in the transformed source.
    assert!(text.contains("print 5 * 10;"), "{text}");
    // And the output is valid FT: feed it back through `run`.
    let path2 = write_temp("source2", &text);
    let rerun = ipcc()
        .args(["run", "--input", "42"])
        .arg(&path2)
        .output()
        .unwrap();
    assert!(rerun.status.success());
}

#[test]
fn run_without_enough_input_fails_with_code_1() {
    let path = write_temp("noinput", DEMO); // DEMO executes `read n`
    let out = ipcc().arg("run").arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("read past the end of the input"), "{err}");
}

/// A call whose jump function is a genuine two-term polynomial, for
/// exercising `--max-poly-terms`.
const POLY: &str = "proc main() { call mid(3, 4); } \
                    proc mid(a, b) { call f(a + b); } \
                    proc f(x) { print x; }";

#[test]
fn degraded_analysis_warns_but_succeeds_without_strict() {
    let path = write_temp("degrade", POLY);
    let out = ipcc()
        .args(["analyze", "--jump-fn", "poly", "--max-poly-terms", "1"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("warning: analysis degraded"), "{err}");
}

#[test]
fn strict_degraded_analysis_fails_with_code_3() {
    let path = write_temp("strict", POLY);
    let out = ipcc()
        .args([
            "analyze",
            "--jump-fn",
            "poly",
            "--max-poly-terms",
            "1",
            "--strict",
        ])
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("resource exhausted"), "{err}");
}

#[test]
fn strict_passes_cleanly_within_budgets() {
    let path = write_temp("strict-ok", POLY);
    let out = ipcc()
        .args(["analyze", "--jump-fn", "poly", "--strict"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn solver_iteration_cap_degrades_deterministically() {
    let path = write_temp("solver-cap", DEMO);
    let out = ipcc()
        .args(["analyze", "--max-solver-iterations", "1", "--strict"])
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("[solver]"), "{err}");
}

#[test]
fn report_counts_degradations() {
    let path = write_temp("degr-report", POLY);
    let out = ipcc()
        .args([
            "analyze",
            "--emit",
            "report",
            "--jump-fn",
            "poly",
            "--max-poly-terms",
            "1",
        ])
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let line = text
        .lines()
        .find(|l| l.starts_with("degradations"))
        .unwrap();
    assert!(!line.contains(" 0"), "{text}");
}

#[test]
fn explain_traces_provenance() {
    let path = write_temp("explain", DEMO);
    let out = ipcc()
        .args(["explain", "--proc", "work", "--slot", "k"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("work.k = 5"), "{text}");
    assert!(text.contains("main cs"), "{text}");
}

#[test]
fn inject_panic_quarantines_and_analyze_still_succeeds() {
    let path = write_temp("quarantine", DEMO);
    let out = ipcc()
        .args(["analyze", "--inject-panic", "jump:1", "--emit", "report"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("quarantined procedures   1"), "{text}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("panic contained"), "{err}");
}

#[test]
fn no_quarantine_lets_the_injected_panic_crash() {
    let path = write_temp("noquarantine", DEMO);
    let out = ipcc()
        .args(["analyze", "--inject-panic", "jump:1", "--no-quarantine"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        out.status.code() != Some(3),
        "a crash, not a strict degradation"
    );
}

#[test]
fn expired_deadline_degrades_and_strict_promotes_it_to_exit_3() {
    let path = write_temp("deadline", DEMO);
    // --deadline-ms 0 expires immediately; without --strict the run still
    // succeeds with warnings.
    let out = ipcc()
        .args(["analyze", "--deadline-ms", "0"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("deadline"), "{err}");

    let out = ipcc()
        .args(["analyze", "--deadline-ms", "0", "--strict"])
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn reduce_shrinks_an_injected_panic_reproducer() {
    let path = write_temp("reduce", DEMO);
    let out = ipcc()
        .args([
            "reduce",
            "--inject-panic",
            "jump:1",
            "--check",
            "quarantine",
        ])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let reduced = String::from_utf8(out.stdout).unwrap();
    assert!(reduced.len() <= DEMO.len());
    assert!(reduced.contains("proc"), "{reduced}");
    let stats = String::from_utf8(out.stderr).unwrap();
    assert!(stats.contains("reduce[quarantine]"), "{stats}");
}

#[test]
fn fuzz_clean_run_exits_0() {
    let out = ipcc()
        .args(["fuzz", "--jump-fn", "poly", "--seed", "11", "--cases", "6"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("fuzz: seed 11: 6 generated case(s)"), "{err}");
}

#[test]
fn fuzz_unknown_property_is_a_usage_error() {
    let out = ipcc().args(["fuzz", "--props", "vibes"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown property `vibes`"), "{err}");
}

#[test]
fn fuzz_finds_minimizes_and_persists_an_injected_fault() {
    let corpus = std::env::temp_dir()
        .join("ipcc-tests")
        .join(format!("corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&corpus);
    let run = || {
        ipcc()
            .args([
                "fuzz",
                "--props",
                "panic-free",
                "--inject-panic",
                "jump:1",
                "--no-quarantine",
                "--seed",
                "5",
                "--cases",
                "12",
                "--corpus",
                corpus.to_str().unwrap(),
            ])
            .output()
            .unwrap()
    };
    let out = run();
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("property `panic-free` falsified"), "{err}");
    assert!(err.contains("minimized repro"), "{err}");
    // The replay line re-supplies the full injected-fault configuration.
    assert!(
        err.contains("replay: ipcc fuzz --props panic-free --seed "),
        "{err}"
    );
    assert!(err.contains("--inject-panic jump:1"), "{err}");
    assert!(err.contains("--no-quarantine"), "{err}");

    // Minimized corpus artifacts: an .ft reproducer (≤ 300 bytes, the
    // acceptance bound) plus its .repro report.
    let fts: Vec<std::path::PathBuf> = std::fs::read_dir(&corpus)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ft"))
        .collect();
    assert!(!fts.is_empty(), "{err}");
    for ft in &fts {
        let repro = std::fs::read_to_string(ft).unwrap();
        assert!(
            repro.len() <= 300,
            "{}: {} bytes",
            ft.display(),
            repro.len()
        );
        assert!(ft.with_extension("repro").exists());
    }

    // Determinism: the second run replays the corpus, re-finds the same
    // generative failures, and rewrites byte-identical minima.
    let before: Vec<String> = fts
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect();
    let out2 = run();
    assert_eq!(out2.status.code(), Some(1));
    let err2 = String::from_utf8(out2.stderr).unwrap();
    for ft in &fts {
        assert!(
            err2.contains(&format!("falsified on {}", ft.display())),
            "corpus entry replayed: {err2}"
        );
    }
    let after: Vec<String> = fts
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect();
    assert_eq!(before, after, "minimized corpus is stable across runs");
    let _ = std::fs::remove_dir_all(&corpus);
}

#[test]
fn fuzz_time_budget_stops_the_run() {
    let out = ipcc()
        .args(["fuzz", "--cases", "1000000", "--time-budget-ms", "0"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("time budget reached"), "{err}");
}

#[test]
fn reduce_without_a_failure_exits_1() {
    let path = write_temp("reduce-clean", DEMO);
    let out = ipcc()
        .args(["reduce", "--check", "degraded"])
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("does not reproduce"), "{err}");
}

#[test]
fn serve_stats_time_every_phase() {
    let path = write_temp("serve-stats", DEMO);
    let mut child = ipcc()
        .arg("serve")
        .arg(&path)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"{\"id\":1,\"op\":\"stats\"}\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for phase in ["modref", "ssa", "retjump", "jump", "solve"] {
        assert!(
            text.contains(&format!("\"{phase}_us\":")),
            "{phase}: {text}"
        );
    }
}
