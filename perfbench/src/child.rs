//! One `ipcc analyze` child process: wall time from spawn to exit, its own
//! peak RSS (`ru_maxrss` from `wait4`, so exactly one analysis is alive in
//! the measured process), exit status, and captured output.

use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// `struct rusage` on Linux: two `timeval`s, then 14 `long`s starting
/// with `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one child run produced.
pub struct ChildRun {
    pub wall_s: f64,
    pub maxrss_mb: f64,
    /// True when the child exited normally with status 0.
    pub success: bool,
    pub stdout: String,
    pub stderr: String,
}

/// Runs `ipcc analyze <file> --jobs <jobs> --emit constants` and reaps it
/// with `wait4`.
pub fn analyze(ipcc: &Path, file: &Path, jobs: usize) -> Result<ChildRun, String> {
    let t0 = Instant::now();
    let mut child = Command::new(ipcc)
        .arg("analyze")
        .arg(file)
        .args(["--jobs", &jobs.to_string(), "--emit", "constants"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", ipcc.display()))?;
    // stderr is drained on a thread so neither pipe can fill and stall
    // the child while the other is being read.
    let mut err_pipe = child.stderr.take().ok_or("no stderr pipe")?;
    let err_thread = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = err_pipe.read_to_string(&mut s);
        s
    });
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .ok_or("no stdout pipe")?
        .read_to_string(&mut stdout);
    let mut status = 0i32;
    let mut ru = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` and `status` are valid for writes; the pid is our
    // child, which std has not reaped (we never call `wait` on it).
    let pid = unsafe { wait4(child.id() as i32, &mut status, 0, &mut ru) };
    let wall_s = t0.elapsed().as_secs_f64();
    let stderr = err_thread.join().unwrap_or_default();
    if pid < 0 {
        return Err(format!("wait4 failed: {}", std::io::Error::last_os_error()));
    }
    read.map_err(|e| format!("reading ipcc output: {e}"))?;
    // WIFEXITED && WEXITSTATUS == 0 is exactly a zero status word.
    Ok(ChildRun {
        wall_s,
        maxrss_mb: ru.maxrss as f64 / 1024.0,
        success: status == 0,
        stdout,
        stderr,
    })
}
