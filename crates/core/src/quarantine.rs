//! Per-procedure fault quarantine.
//!
//! The 1986 framework is compositional: jump functions, MOD/REF
//! summaries, and entry lattices are computed *per procedure* and only
//! meet at call edges. That structure makes faults containable — if one
//! procedure's slice of one phase panics (a bug) or exhausts its budget
//! slice, only that procedure needs to degrade: its forward and return
//! jump functions drop to ⊥, its MOD/REF summary widens to "touches
//! everything visible", and every other procedure keeps full precision.
//!
//! [`run_unit`] is the containment boundary: it runs one procedure's unit
//! of work under `catch_unwind` (when `config.quarantine` is on), fires
//! the deterministic [`PanicInjection`](crate::config::PanicInjection)
//! test hook, and suppresses the default panic-hook backtrace for caught
//! panics so quarantined units don't spray stderr.

use crate::config::{Config, Stage};
use crate::pipeline::UnitError;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

thread_local! {
    static SUPPRESS: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

/// Installs (once, process-wide) a panic hook that stays silent while a
/// quarantined unit is running on the current thread and delegates to the
/// previous hook otherwise.
fn install_quiet_hook() {
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPPRESS.with(|s| s.get()) {
                prev(info);
            }
        }));
    });
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Fires the configured panic injection if it names this (stage,
/// procedure) unit. Crate-visible so the solver can fire it per
/// procedure *re-evaluation* (its quarantine boundary is the SCC unit,
/// not the procedure, but the injection hook still addresses procedures).
pub(crate) fn maybe_inject(config: &Config, stage: Stage, proc_index: usize) {
    if let Some(pi) = config.panic_injection {
        if pi.stage == stage && pi.proc == proc_index {
            panic!(
                "injected panic ({} stage, procedure #{proc_index})",
                stage.label()
            );
        }
    }
}

/// Runs one procedure's unit of work for `stage` under quarantine.
///
/// With `config.quarantine` on (the default) a panic inside `f` is caught
/// and returned as a typed [`UnitError`] naming the stage, the unit
/// index, and the panic message — the caller then degrades *only* this
/// procedure. With quarantine off, panics propagate (useful for
/// debugging with a backtrace). The injected-panic test hook fires inside
/// the protected region either way, so turning quarantine off converts an
/// injected fault into a real crash, as documented.
pub fn run_unit<T>(
    config: &Config,
    stage: Stage,
    proc_index: usize,
    f: impl FnOnce() -> T,
) -> Result<T, UnitError> {
    run_contained(config, stage, proc_index, || {
        maybe_inject(config, stage, proc_index);
        f()
    })
}

/// [`run_unit`] without the injection hook: the containment boundary of
/// work that is *attributed* to `stage` but is not that stage's unit —
/// the shared SSA stage, whose failures surface later as the consuming
/// stage's own unit failure, while `--inject-panic <stage>:N` keeps
/// firing inside the consuming unit.
pub(crate) fn run_contained<T>(
    config: &Config,
    stage: Stage,
    proc_index: usize,
    f: impl FnOnce() -> T,
) -> Result<T, UnitError> {
    if !config.quarantine {
        return Ok(f());
    }
    quiet_catch(f).map_err(|msg| UnitError::new(stage, proc_index, msg))
}

/// Runs `f` under `catch_unwind` with the backtrace-suppressing hook —
/// the raw containment primitive, also used by the `ipcc reduce` panic
/// oracle to probe candidate programs without spamming stderr.
pub fn quiet_catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    install_quiet_hook();
    SUPPRESS.with(|s| s.set(true));
    let result = catch_unwind(AssertUnwindSafe(f));
    SUPPRESS.with(|s| s.set(false));
    result.map_err(panic_message)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_units_pass_through() {
        let config = Config::default();
        assert_eq!(run_unit(&config, Stage::Jump, 0, || 41 + 1), Ok(42));
    }

    #[test]
    fn panics_are_contained_with_a_typed_error() {
        let config = Config::default();
        let r = run_unit(&config, Stage::Jump, 0, || -> i64 { panic!("boom") });
        assert_eq!(r, Err(UnitError::new(Stage::Jump, 0, "boom")));
        // The thread is still healthy: later units run normally.
        assert_eq!(run_unit(&config, Stage::Jump, 1, || 7), Ok(7));
    }

    #[test]
    fn injection_fires_only_on_the_named_unit() {
        let config = Config::default().with_panic(Stage::RetJump, 2);
        assert!(run_unit(&config, Stage::RetJump, 1, || ()).is_ok());
        assert!(run_unit(&config, Stage::Jump, 2, || ()).is_ok());
        let r = run_unit(&config, Stage::RetJump, 2, || ());
        let e = r.expect_err("injection must fire");
        assert_eq!(e.stage, Stage::RetJump);
        assert_eq!(e.unit, 2);
        assert!(e.message.contains("injected panic"), "{e}");
        let shown = e.to_string();
        assert!(shown.contains("retjump"), "{shown}");
        assert!(shown.contains("#2"), "{shown}");
    }

    #[test]
    fn formatted_panic_messages_survive() {
        let r = quiet_catch(|| -> () { panic!("value was {}", 13) });
        assert_eq!(r, Err("value was 13".to_string()));
    }
}
