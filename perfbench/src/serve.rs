//! The editor half of a run: one `ipcc serve --serve-workers 2` daemon,
//! driven from this process by exactly two client threads over two Unix
//! socket connections.
//!
//! The session is a closed loop: each client sends its next request only
//! after the previous reply arrived, with no think time. A session runs
//! in rounds ([`Session::round`]); three phases split each round's
//! seconds:
//!
//! 1. **edits** — the writer connection makes seeded literal-bump
//!    `update`s to procedures drawn at random across the whole program,
//!    each followed by a `constants` re-read of the edited procedure
//!    (`edit_p50_ms`, `daemon.edit_p90_ms`); meanwhile the reader
//!    connection issues unbatched `constants` reads
//!    (`daemon.read_under_edit_p99_us`);
//! 2. **reads** — the reader alone, unbatched (`daemon.read_p50_us`,
//!    `daemon.read_p99_us`);
//! 3. **batches** — the reader alone, 50 reads per `batch` frame
//!    (`daemon.batch_reads_per_s`).
//!
//! Every reply is checked: `ok`, no degradation or quarantine, and in
//! phases 2–3 the exact `CONSTANTS(p)` of a cold analysis of the edited
//! program. After phase 1 the daemon's whole table must equal that cold
//! analysis and the worklist solver's (warm ≡ cold).

use crate::digest::{reply_text, Constants};
use crate::workload::reference;
use crate::Tally;
use ipcp::serve::json::{self, Json};
use ipcp_ir::ProgramSource;
use ipcp_suite::{Rng, ScaleSource, ScaleSpec};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Read-worker threads of the daemon: one per core of the 2-core machine
/// the baseline was measured on.
const SERVE_WORKERS: usize = 2;
/// Reads per `batch` frame.
const BATCH: usize = 50;
/// Phases 2 and 3 are cut into windows of this length. Tail and
/// throughput figures are medians over windows, so a host stall shorter
/// than a window moves one window's figure, not the run's.
const WINDOW: Duration = Duration::from_millis(250);
/// Salts that derive the edit stream and the two read streams from the
/// run's seed.
const EDITS: u64 = 0x5eed_0001;
const UNDER_EDIT_READS: u64 = 0x5eed_0002;
pub const READS: u64 = 0x5eed_0003;
/// Give up on a daemon that has not answered its first health check.
const BOOT_TIMEOUT: Duration = Duration::from_secs(120);

/// One line-oriented socket connection.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Conn {
    fn open(sock: &Path) -> std::io::Result<Conn> {
        let stream = UnixStream::connect(sock)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    /// One request, one reply; the reply is valid until the next call.
    pub fn request(&mut self, req: &str) -> Result<&str, String> {
        self.writer
            .write_all(req.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("socket write: {e}"))?;
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("socket read: {e}"))?;
        if n == 0 {
            return Err("daemon closed the socket".into());
        }
        Ok(self.line.trim_end())
    }
}

/// A running daemon. Dropping it without [`Daemon::shutdown`] kills and
/// reaps the process, so no daemon outlives a failed run.
pub struct Daemon {
    child: Option<Child>,
    sock: PathBuf,
}

impl Daemon {
    /// Spawns the daemon and waits for its first `ok` health reply on a
    /// fresh connection. Returns the daemon, that connection, and the
    /// spawn → reply time in seconds.
    pub fn boot(ipcc: &Path, program: &Path, sock: &Path) -> Result<(Daemon, Conn, f64), String> {
        let _ = std::fs::remove_file(sock);
        let t0 = Instant::now();
        let child = Command::new(ipcc)
            .arg("serve")
            .arg(program)
            .arg("--socket")
            .arg(sock)
            .args(["--serve-workers", &SERVE_WORKERS.to_string()])
            .args([
                "--max-inflight",
                "4096",
                "--queue-ms",
                "600000",
                "--drain-ms",
                "0",
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning ipcc serve: {e}"))?;
        let mut daemon = Daemon {
            child: Some(child),
            sock: sock.to_owned(),
        };
        let mut conn = loop {
            match Conn::open(sock) {
                Ok(c) => break c,
                Err(e) if t0.elapsed() > BOOT_TIMEOUT => {
                    return Err(format!("daemon never bound {}: {e}", sock.display()))
                }
                Err(_) => {
                    if let Some(Ok(Some(status))) = daemon.child.as_mut().map(Child::try_wait) {
                        return Err(format!("daemon exited during boot: {status}"));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        };
        let health = conn.request(r#"{"id": "boot", "op": "health"}"#)?;
        if !health.contains("\"ok\":true") {
            return Err(format!("boot health reply not ok: {health}"));
        }
        let boot_s = t0.elapsed().as_secs_f64();
        daemon.sock = sock.to_owned();
        Ok((daemon, conn, boot_s))
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.sock).map_err(|e| format!("connecting {}: {e}", self.sock.display()))
    }

    /// The daemon's peak resident set so far (`VmHWM`), in MB.
    pub fn vm_hwm_mb(&self) -> Result<f64, String> {
        let pid = self.child.as_ref().ok_or("daemon already reaped")?.id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("reading daemon status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in daemon status".to_owned())
    }

    /// Graceful stop: `shutdown` on `conn`, then reap; the exit status
    /// must be 0.
    pub fn shutdown(mut self, mut conn: Conn) -> Result<(), String> {
        let reply = conn
            .request(r#"{"id": "bye", "op": "shutdown"}"#)?
            .to_owned();
        drop(conn);
        let mut child = self.child.take().ok_or("daemon already reaped")?;
        drop(child.stdin.take());
        let status = child
            .wait()
            .map_err(|e| format!("waiting for daemon: {e}"))?;
        let _ = std::fs::remove_file(&self.sock);
        if !reply.contains("\"ok\":true") {
            return Err(format!("shutdown reply not ok: {reply}"));
        }
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_file(&self.sock);
        }
    }
}

/// The seeded edit stream. Edit `k` picks a procedure uniformly across
/// the whole program (`main` included) and adds `k + 1` to the literal of
/// its `v0 = <lit>;` prologue. The stream keeps every procedure's current
/// text, so [`EditStream::source`] is the edited program.
pub struct EditStream {
    rng: Rng,
    /// Generator chunks: globals, then one per procedure.
    chunks: Vec<String>,
    k: usize,
}

impl EditStream {
    pub fn new(spec: &str, seed: u64) -> Result<EditStream, String> {
        let source = ScaleSource::new(ScaleSpec::parse(spec)?);
        let chunks = (0..source.n_chunks())
            .map(|i| {
                let mut s = String::new();
                source.chunk(i, &mut s);
                s
            })
            .collect();
        Ok(EditStream {
            rng: Rng::new(seed ^ EDITS),
            chunks,
            k: 0,
        })
    }

    pub fn n_procs(&self) -> usize {
        self.chunks.len() - 1
    }

    /// The next edit: `(procedure name, new definition)`.
    pub fn next_edit(&mut self) -> Result<(String, String), String> {
        let idx = self.rng.below(self.n_procs() as u64) as usize;
        let name = proc_name(idx);
        let body = &mut self.chunks[idx + 1];
        let at = body
            .find("v0 = ")
            .ok_or_else(|| format!("{name} has no v0 prologue"))?
            + "v0 = ".len();
        let end = at + body[at..].find(';').ok_or("unterminated prologue")?;
        let lit: i64 = body[at..end]
            .trim()
            .parse()
            .map_err(|e| format!("{name} prologue literal: {e}"))?;
        body.replace_range(at..end, &(lit + self.k as i64 + 1).to_string());
        self.k += 1;
        Ok((name, body.clone()))
    }

    /// The program with every edit so far applied.
    pub fn source(&self) -> String {
        self.chunks.concat()
    }
}

pub fn proc_name(idx: usize) -> String {
    if idx == 0 {
        "main".into()
    } else {
        format!("p{idx}")
    }
}

/// A `constants` request for one procedure.
fn read_request(id: u64, proc: &str) -> String {
    format!(r#"{{"id": {id}, "op": "constants", "proc": "{proc}"}}"#)
}

/// An `update` request.
fn update_request(id: u64, proc: &str, body: &str) -> String {
    let mut o = json::Object::new();
    o.set("id", Json::Int(id as i64));
    o.set("op", Json::Str("update".into()));
    o.set("proc", Json::Str(proc.into()));
    o.set("body", Json::Str(body.into()));
    Json::Object(o).to_string()
}

/// Parses a reply and requires `ok`, no degradation, no quarantine.
fn check_reply(reply: &str) -> Result<Json, String> {
    let parsed = json::parse(reply).map_err(|e| format!("bad reply {reply}: {e}"))?;
    check_ok(parsed).map_err(|e| format!("{e}: {reply}"))
}

/// [`check_reply`] on an already parsed reply (a `batch` item).
fn check_ok(reply: Json) -> Result<Json, String> {
    let o = reply.as_object().ok_or("reply is not an object")?;
    if o.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err("error reply".into());
    }
    if o.get("degraded").and_then(Json::as_bool) == Some(true) {
        return Err("degraded reply".into());
    }
    if o.get("quarantined")
        .and_then(Json::as_array)
        .is_some_and(|q| !q.is_empty())
    {
        return Err("quarantine in reply".into());
    }
    Ok(reply)
}

/// The [`WINDOW`] of a phase that started at `start` that `now` is in.
fn window_of(start: Instant) -> usize {
    (start.elapsed().as_nanos() / WINDOW.as_nanos()) as usize
}

/// Per-procedure canonical lines of a table (absent = no constants).
fn lines_by_proc(text: &str) -> HashMap<String, String> {
    text.lines()
        .filter_map(|l| {
            let name = l.strip_prefix("CONSTANTS(")?.split(')').next()?;
            Some((name.to_owned(), format!("{l}\n")))
        })
        .collect()
}

/// Everything the editor half measured.
#[derive(Default)]
pub struct ServeRun {
    pub boot_s: Vec<f64>,
    pub initial: Option<Constants>,
    pub edit_ms: Vec<f64>,
    pub read_under_edit_us: Vec<f64>,
    /// Unbatched read latencies, one vector per [`WINDOW`] of phase 2.
    pub read_us: Vec<Vec<f64>>,
    /// `(reads, seconds of batch round trips)` per [`WINDOW`] of phase 3.
    pub batches: Vec<(usize, f64)>,
    pub vm_hwm_mb: f64,
}

/// A live editor session: the daemon, its two connections, the edit
/// stream and everything measured so far. [`Session::round`] runs the
/// three phases once for a given number of seconds; a run interleaves
/// several rounds with the batch half, so both halves sample the whole
/// run rather than one end of it.
pub struct Session {
    daemon: Daemon,
    writer: Conn,
    /// The reader connection; the phase-1 reader thread holds it while
    /// it runs.
    reader: Option<Conn>,
    edits: EditStream,
    n_procs: usize,
    under_edit_rng: Rng,
    read_rng: Rng,
    id: u64,
    out: ServeRun,
}

impl Session {
    /// Boots the daemon over `program` (generated from `spec`) `boots`
    /// times (all but the last are shut down straight away; they only
    /// sample the boot time) and checks its initial table.
    #[allow(clippy::too_many_arguments)]
    pub fn boot(
        ipcc: &Path,
        work: &Path,
        program: &Path,
        spec: &str,
        seed: u64,
        boots: usize,
        expected: &Constants,
        tally: &mut Tally,
    ) -> Result<Session, String> {
        let sock = work.join("serve.sock");
        let mut out = ServeRun::default();
        let (daemon, mut writer) = loop {
            let (d, conn, boot_s) = Daemon::boot(ipcc, program, &sock)?;
            out.boot_s.push(boot_s);
            tally.ok();
            if out.boot_s.len() >= boots.max(1) {
                break (d, conn);
            }
            d.shutdown(conn)?;
        };

        // The initial table must be the reference.
        let full = check_reply(writer.request(r#"{"id": "full0", "op": "constants"}"#)?)
            .and_then(|j| Constants::of_reply(&j));
        match full {
            Ok(c) => {
                tally.check(&c == expected, || {
                    format!("initial serve table {c:?} != expected {expected:?}")
                });
                out.initial = Some(c);
            }
            Err(e) => tally.fail(e),
        }
        let reader = daemon.connect()?;
        let edits = EditStream::new(spec, seed)?;
        Ok(Session {
            n_procs: edits.n_procs(),
            daemon,
            writer,
            reader: Some(reader),
            edits,
            under_edit_rng: Rng::new(seed ^ UNDER_EDIT_READS),
            read_rng: Rng::new(seed ^ READS),
            id: 0,
            out,
        })
    }

    fn reader(&mut self) -> Result<&mut Conn, String> {
        self.reader
            .as_mut()
            .ok_or_else(|| "reader connection in use".to_owned())
    }

    /// One round of the three phases, `seconds` in all: `edit_share` of
    /// them for phase 1, the rest split evenly between phases 2 and 3.
    pub fn round(
        &mut self,
        seconds: f64,
        edit_share: f64,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let edit_s = seconds * edit_share;
        let read_s = (seconds - edit_s) / 2.0;
        let batch_s = seconds - edit_s - read_s;
        let want = self.edit_phase(edit_s, tally)?;
        self.read_phase(read_s, &want, tally)?;
        self.batch_phase(batch_s, &want, tally)
    }

    /// Phase 1: writer edits, reader reads alongside. Returns the cold
    /// per-procedure lines of the edited program, after checking the
    /// daemon's whole table against them (warm ≡ cold).
    fn edit_phase(
        &mut self,
        seconds: f64,
        tally: &mut Tally,
    ) -> Result<HashMap<String, String>, String> {
        let stop = Arc::new(AtomicBool::new(false));
        let n_procs = self.n_procs;
        let reader_thread = {
            let stop = Arc::clone(&stop);
            let mut reader = self.reader.take().ok_or("reader connection in use")?;
            let mut rng = self.under_edit_rng.clone();
            let mut id = 1_000_000_000u64 + self.id;
            std::thread::spawn(move || {
                let mut lat = Vec::new();
                let mut tally = Tally::default();
                while !stop.load(Ordering::Relaxed) {
                    id += 1;
                    let req = read_request(id, &proc_name(rng.below(n_procs as u64) as usize));
                    let t = Instant::now();
                    let reply = reader.request(&req);
                    let dt = t.elapsed();
                    match reply.and_then(check_reply) {
                        Ok(_) => {
                            lat.push(dt.as_secs_f64() * 1e6);
                            tally.ok();
                        }
                        Err(e) => tally.fail(e),
                    }
                }
                (reader, rng, lat, tally)
            })
        };
        let t_phase = Instant::now();
        let mut edit_err = None;
        let mut n_edits = 0;
        while t_phase.elapsed().as_secs_f64() < seconds || n_edits == 0 {
            let (name, body) = match self.edits.next_edit() {
                Ok(e) => e,
                Err(e) => {
                    edit_err = Some(e);
                    break;
                }
            };
            n_edits += 1;
            self.id += 1;
            let upd = update_request(self.id, &name, &body);
            let reread = read_request(self.id, &name);
            let t = Instant::now();
            let r1 = self.writer.request(&upd).map(str::to_owned);
            let r2 = self.writer.request(&reread).map(str::to_owned);
            let dt = t.elapsed();
            match r1.and_then(|r| check_reply(&r)) {
                Ok(_) => tally.ok(),
                Err(e) => tally.fail(e),
            }
            match r2.and_then(|r| check_reply(&r)) {
                Ok(_) => {
                    self.out.edit_ms.push(dt.as_secs_f64() * 1e3);
                    tally.ok();
                }
                Err(e) => tally.fail(e),
            }
        }
        stop.store(true, Ordering::Relaxed);
        let (reader, rng, lat, reader_tally) = reader_thread
            .join()
            .map_err(|_| "reader thread panicked".to_owned())?;
        self.reader = Some(reader);
        self.under_edit_rng = rng;
        self.out.read_under_edit_us.extend(lat);
        tally.absorb(reader_tally);
        if let Some(e) = edit_err {
            return Err(e);
        }

        // Warm ≡ cold: the daemon's table after the edits against a cold
        // analysis and the worklist solver over the edited program.
        let (worklist, wavefront) = reference(&self.edits.source())?;
        let cold = Constants::of_text(&worklist);
        tally.check(worklist == wavefront, || {
            "worklist and wavefront solutions of the edited program differ".into()
        });
        match check_reply(
            self.writer
                .request(r#"{"id": "full1", "op": "constants"}"#)?,
        )
        .and_then(|j| Constants::of_reply(&j))
        {
            Ok(c) => tally.check(c == cold, || {
                format!("warm table after edits {c:?} != cold {cold:?}")
            }),
            Err(e) => tally.fail(e),
        }
        Ok(lines_by_proc(&worklist))
    }

    /// Phase 2: the reader alone, unbatched; every reply must be the
    /// procedure's line in `want`.
    fn read_phase(
        &mut self,
        seconds: f64,
        want: &HashMap<String, String>,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let first = self.out.read_us.len();
        let t_phase = Instant::now();
        while t_phase.elapsed().as_secs_f64() < seconds || self.out.read_us.len() == first {
            let window = first + window_of(t_phase);
            self.id += 1;
            let name = proc_name(self.read_rng.below(self.n_procs as u64) as usize);
            let req = read_request(self.id, &name);
            let t = Instant::now();
            let reply = self.reader()?.request(&req);
            let dt = t.elapsed();
            let item = reply.and_then(check_reply);
            if item.is_ok() {
                if self.out.read_us.len() <= window {
                    self.out.read_us.resize_with(window + 1, Vec::new);
                }
                self.out.read_us[window].push(dt.as_secs_f64() * 1e6);
            }
            check_item(want, &name, item, tally);
        }
        Ok(())
    }

    /// Phase 3: the reader alone, [`BATCH`] reads per frame.
    fn batch_phase(
        &mut self,
        seconds: f64,
        want: &HashMap<String, String>,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let first = self.out.batches.len();
        let t_phase = Instant::now();
        while t_phase.elapsed().as_secs_f64() < seconds || self.out.batches.len() == first {
            let window = first + window_of(t_phase);
            let names: Vec<String> = (0..BATCH)
                .map(|_| proc_name(self.read_rng.below(self.n_procs as u64) as usize))
                .collect();
            let items: Vec<String> = names
                .iter()
                .enumerate()
                .map(|(i, n)| read_request(self.id + 1 + i as u64, n))
                .collect();
            self.id += BATCH as u64 + 1;
            let frame = format!(
                r#"{{"id": {}, "op": "batch", "requests": [{}]}}"#,
                self.id,
                items.join(", ")
            );
            let t = Instant::now();
            let reply = self.reader()?.request(&frame);
            let dt = t.elapsed();
            let results = reply.and_then(check_reply).and_then(|j| {
                j.as_object()
                    .and_then(|o| o.get("results"))
                    .and_then(Json::as_array)
                    .map(<[Json]>::to_vec)
                    .ok_or_else(|| "batch reply has no results".to_owned())
            });
            match results {
                Ok(results) if results.len() == names.len() => {
                    if self.out.batches.len() <= window {
                        self.out.batches.resize(window + 1, (0, 0.0));
                    }
                    self.out.batches[window].0 += results.len();
                    self.out.batches[window].1 += dt.as_secs_f64();
                    for (name, item) in names.iter().zip(results) {
                        check_item(want, name, check_ok(item), tally);
                    }
                }
                Ok(results) => tally.fail(format!(
                    "batch of {} answered {} items",
                    names.len(),
                    results.len()
                )),
                Err(e) => tally.fail(e),
            }
        }
        Ok(())
    }

    /// Records the daemon's peak RSS, shuts it down and returns what the
    /// session measured.
    pub fn finish(mut self, tally: &mut Tally) -> Result<ServeRun, String> {
        self.out.vm_hwm_mb = self.daemon.vm_hwm_mb()?;
        drop(self.reader);
        self.daemon.shutdown(self.writer)?;
        tally.ok();
        Ok(self.out)
    }
}

/// Checks one read reply against the cold line of `proc` in `want`.
fn check_item(
    want: &HashMap<String, String>,
    proc: &str,
    item: Result<Json, String>,
    tally: &mut Tally,
) {
    match item.and_then(|j| reply_text(&j)) {
        Ok(text) => {
            let expect = want.get(proc).map(String::as_str).unwrap_or("");
            tally.check(text == expect, || {
                format!("constants({proc}) = {text:?}, expected {expect:?}")
            });
        }
        Err(e) => tally.fail(e),
    }
}

/// One session of a single round over `program`: [`Session::boot`],
/// [`Session::round`] for `seconds` split 60 / 20 / 20 %, then
/// [`Session::finish`].
#[allow(clippy::too_many_arguments)]
pub fn run(
    ipcc: &Path,
    work: &Path,
    program: &Path,
    spec: &str,
    seed: u64,
    seconds: f64,
    boots: usize,
    expected: &Constants,
    tally: &mut Tally,
) -> Result<ServeRun, String> {
    let mut session = Session::boot(ipcc, work, program, spec, seed, boots, expected, tally)?;
    session.round(seconds, 0.6, tally)?;
    session.finish(tally)
}
