//! A dependency-free scoped worker pool for the per-procedure phases.
//!
//! The repo is offline-vendored, so this is `std::thread::scope` plus an
//! atomic self-scheduling counter — no external crates, no channels, no
//! locks. Two drivers share that substrate:
//!
//! * [`run`] — the original spawn-per-call pool: workers pull unit
//!   indices from a shared [`AtomicUsize`] (`fetch_add` work stealing: a
//!   worker stuck on a heavy procedure simply claims fewer units), stash
//!   `(index, result)` pairs in a thread-local vector, and the results
//!   are merged back into input order after the join. Still used by the
//!   one-shot transformation drivers (`complete`, `cloning`, `inline`).
//! * [`with_pool`] / [`Pool`] — a **persistent** pool for the analysis
//!   pipeline: workers are spawned once per `Analysis::run` and parked
//!   between rounds, so a phase that dispatches one round per SCC level
//!   (the solver wavefront, return jump functions) pays a park/unpark
//!   per level instead of a full thread spawn + join. Each participant
//!   gets its own [`Scratch`] per round ([`Pool::run_with_scratch`]), so
//!   units reuse buffers instead of round-tripping the global allocator.
//!
//! Order of *execution* is nondeterministic; order of *results* is
//! not — which is all the deterministic fold in
//! [`pipeline`](crate::pipeline) needs.
//!
//! [`PhaseTime`] / [`Timings`] carry the wall-clock, per-worker busy
//! time, and governor-shard absorb/replay counts of each phase, feeding
//! the utilization columns of `ipcc tables`, `report_all`, and
//! `bench_par`.

use std::any::Any;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::panic;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Wall-clock and utilization accounting for one parallel (or sequential)
/// phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTime {
    /// Elapsed wall-clock time of the phase.
    pub wall: Duration,
    /// Summed busy time across workers (== `wall` when sequential).
    pub busy: Duration,
    /// Workers that participated (1 for the sequential path).
    pub workers: usize,
    /// Units of work (procedures, callers, or SCCs) processed.
    pub units: usize,
    /// Parallel-fold units whose optimistic governor shard merged
    /// cleanly (result kept as computed). 0 on the sequential path.
    pub absorbed: usize,
    /// Parallel-fold units discarded and replayed sequentially against
    /// the authoritative governor. 0 on the sequential path.
    pub replayed: usize,
}

impl PhaseTime {
    /// Accounting for a phase that ran on the sequential path.
    pub fn sequential(wall: Duration, units: usize) -> PhaseTime {
        PhaseTime {
            wall,
            busy: wall,
            workers: 1,
            units,
            absorbed: 0,
            replayed: 0,
        }
    }

    /// Fraction of worker capacity spent busy: `busy / (wall × workers)`.
    /// `1.0` for a perfectly balanced phase, lower when workers idle at
    /// the tail. `0.0` when the phase did not run.
    pub fn utilization(&self) -> f64 {
        let capacity = self.wall.as_secs_f64() * self.workers as f64;
        if capacity <= 0.0 {
            return 0.0;
        }
        (self.busy.as_secs_f64() / capacity).min(1.0)
    }

    /// Accumulates another measurement of the same phase (used when the
    /// gating loop re-runs the pipeline: times add, worker count takes
    /// the maximum).
    pub fn absorb(&mut self, other: PhaseTime) {
        self.wall += other.wall;
        self.busy += other.busy;
        self.workers = self.workers.max(other.workers);
        self.units += other.units;
        self.absorbed += other.absorbed;
        self.replayed += other.replayed;
    }

    /// Re-times a phase measured as parallel rounds (`self`, whose `wall`
    /// and `busy` sum the rounds) to its whole wall time `wall`, rounds
    /// plus the serial caller work between and after them (commits,
    /// folds). That serial remainder counts as busy time on one
    /// participant. On a sequential measurement (`wall == busy == 0`)
    /// this yields exactly [`PhaseTime::sequential`].
    pub fn spanning(mut self, wall: Duration) -> PhaseTime {
        self.busy += wall.saturating_sub(self.wall);
        self.wall = wall;
        self
    }
}

/// Per-stage timing for one analysis run, carried on
/// [`Analysis`](crate::Analysis).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Timings {
    /// Worker threads the run actually used (`Config::effective_jobs`).
    pub jobs: usize,
    /// MOD/REF direct-effects collection (per-procedure).
    pub modref: PhaseTime,
    /// Minimal SSA construction, once per reachable procedure; `retjump`
    /// and `jump` borrow the result. `units` counts the procedures built.
    pub ssa: PhaseTime,
    /// Return jump-function construction (per-SCC, level-scheduled).
    pub retjump: PhaseTime,
    /// Symbolic evaluation (pruned SSA too, under `pruned_ssa`) and
    /// forward jump functions (per-procedure / per-caller).
    pub jump: PhaseTime,
    /// The interprocedural VAL solve (wavefront over the SCC levels of
    /// the call-graph condensation; parallel within each level).
    pub solve: PhaseTime,
    /// Whole `run_once`, wall clock.
    pub total: Duration,
}

impl Timings {
    /// Accumulates a later round's timings (the gating loop re-runs the
    /// pipeline up to four times; reported times cover all rounds).
    pub fn absorb(&mut self, other: Timings) {
        self.jobs = self.jobs.max(other.jobs);
        self.modref.absorb(other.modref);
        self.ssa.absorb(other.ssa);
        self.retjump.absorb(other.retjump);
        self.jump.absorb(other.jump);
        self.solve.absorb(other.solve);
        self.total += other.total;
    }

    /// Combined wall time of the four per-procedure phases — the part
    /// `--jobs` parallelizes.
    pub fn per_proc_wall(&self) -> Duration {
        self.modref.wall + self.ssa.wall + self.retjump.wall + self.jump.wall
    }

    /// Busy-time-weighted utilization over the per-procedure phases.
    pub fn utilization(&self) -> f64 {
        let mut agg = self.modref;
        agg.absorb(self.ssa);
        agg.absorb(self.retjump);
        agg.absorb(self.jump);
        agg.utilization()
    }

    /// The five phases as named rows in pipeline order — the shape the
    /// bench binaries serialize.
    pub fn stages(&self) -> [(&'static str, PhaseTime); 5] {
        [
            ("modref", self.modref),
            ("ssa", self.ssa),
            ("retjump", self.retjump),
            ("jump", self.jump),
            ("solve", self.solve),
        ]
    }
}

/// Runs `f(0) .. f(n - 1)` on up to `jobs` scoped workers and returns the
/// results **in index order**, plus the phase accounting.
///
/// * `jobs <= 1` or `n <= 1` short-circuits to a plain sequential loop on
///   the calling thread (no threads spawned, no atomics touched).
/// * Workers self-schedule via `fetch_add` on a shared counter, so load
///   balances at unit granularity without a queue or a lock.
/// * A panicking closure is **not** caught here: the panic is re-raised
///   on the calling thread after every worker has drained (the quarantine
///   layer inside `f` is what catches per-procedure panics; one escaping
///   it means quarantine was off, and then the contract is to propagate).
pub fn run<T, F>(jobs: usize, n: usize, f: F) -> (Vec<T>, PhaseTime)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let start = Instant::now();
    if jobs <= 1 || n <= 1 {
        let results: Vec<T> = (0..n).map(&f).collect();
        return (results, PhaseTime::sequential(start.elapsed(), n));
    }

    let workers = jobs.min(n);
    let next = AtomicUsize::new(0);
    let mut per_worker: Vec<(Vec<(usize, T)>, Duration)> = Vec::with_capacity(workers);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| {
                let t0 = Instant::now();
                let mut mine: Vec<(usize, T)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    mine.push((i, f(i)));
                }
                (mine, t0.elapsed())
            }));
        }
        for h in handles {
            match h.join() {
                Ok(out) => per_worker.push(out),
                Err(payload) => panic::resume_unwind(payload),
            }
        }
    });

    let busy = per_worker.iter().map(|(_, d)| *d).sum();
    let mut indexed: Vec<(usize, T)> = per_worker
        .into_iter()
        .flat_map(|(results, _)| results)
        .collect();
    indexed.sort_unstable_by_key(|&(i, _)| i);
    let results = indexed.into_iter().map(|(_, r)| r).collect();
    (
        results,
        PhaseTime {
            wall: start.elapsed(),
            busy,
            workers,
            units: n,
            absorbed: 0,
            replayed: 0,
        },
    )
}

/// Per-worker reusable scratch buffers, handed to each unit by
/// [`Pool::run_with_scratch`] (and threaded through the sequential folds)
/// so hot units stop allocating per-unit `Vec`s / `VecDeque`s.
///
/// The buffers are deliberately generic — a dense `bool` flag vector and
/// an index queue — because that is the working set of the wavefront
/// solver's per-SCC evaluation (`queued` + FIFO worklist). Units must
/// leave the buffers in a reusable state (cleared or fully popped); the
/// helpers below reset cheaply without releasing capacity.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Dense per-member flags (e.g. the solver's `queued` bits).
    pub flags: Vec<bool>,
    /// Index FIFO (e.g. the solver's intra-SCC worklist).
    pub queue: VecDeque<usize>,
}

impl Scratch {
    /// Clears and resizes `flags` to `n` `false`s, keeping capacity, and
    /// empties the queue.
    pub fn reset(&mut self, n: usize) {
        self.flags.clear();
        self.flags.resize(n, false);
        self.queue.clear();
    }
}

/// One in-flight round: a type-erased borrow of the caller's participate
/// closure. Workers only dereference it between the epoch bump that
/// publishes it and their check-in for the same round, and
/// [`Pool::run_with_scratch`] does not return (or unpublish) until every
/// spawned worker has checked in — that window is what makes the
/// lifetime erasure sound.
#[derive(Clone, Copy)]
struct Job {
    body: *const (dyn Fn() + Sync),
}

/// State shared between the round-dispatching caller and the parked
/// workers of a [`Pool`].
struct PoolShared {
    /// The published round, `None` between rounds. Written only by the
    /// caller while every worker is parked or checked in.
    job: UnsafeCell<Option<Job>>,
    /// Round counter; a bump publishes `job` to the workers.
    epoch: AtomicUsize,
    /// Workers that have finished the current round.
    finished: AtomicUsize,
    /// Summed worker busy time for the current round, nanoseconds.
    busy_ns: AtomicU64,
    /// Tells parked workers to exit (set once, by the shutdown guard).
    shutdown: AtomicBool,
    /// The round-dispatching thread, unparked on every worker check-in.
    caller: Thread,
    /// First panic payload caught in the round (`Box<Box<dyn Any>>`
    /// raw), re-raised on the caller after the round drains.
    panic: AtomicPtr<Box<dyn Any + Send>>,
}

// SAFETY: `job` is only written by the caller while no worker is between
// epoch-observe and check-in (workers are parked before the epoch bump
// and counted in `finished` after), and the raw `Job` pointer is only
// dereferenced inside that same window. All other fields are atomics or
// `Thread` (which is `Sync`).
unsafe impl Sync for PoolShared {}

impl PoolShared {
    fn new() -> PoolShared {
        PoolShared {
            job: UnsafeCell::new(None),
            epoch: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            busy_ns: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            caller: std::thread::current(),
            panic: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// Records the round's first panic payload; later ones are dropped
    /// (matching `std::thread::scope`, which re-raises one).
    fn store_panic(&self, payload: Box<dyn Any + Send>) {
        let raw = Box::into_raw(Box::new(payload));
        if self
            .panic
            .compare_exchange(ptr::null_mut(), raw, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            // SAFETY: `raw` came from `Box::into_raw` above and was not
            // published.
            drop(unsafe { Box::from_raw(raw) });
        }
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        let raw = self.panic.swap(ptr::null_mut(), Ordering::SeqCst);
        if raw.is_null() {
            None
        } else {
            // SAFETY: a non-null pointer in `panic` is always a
            // published `Box::into_raw`, taken at most once (swap).
            Some(*unsafe { Box::from_raw(raw) })
        }
    }
}

impl Drop for PoolShared {
    fn drop(&mut self) {
        // Free a stored payload that was never re-raised (cannot happen
        // through `run_with_scratch`, but keeps the type leak-free).
        drop(self.take_panic());
    }
}

/// The parked-worker loop: wait for an epoch bump, run the published
/// round once, check in, park again. Exits when `shutdown` is set.
fn worker_loop(shared: &PoolShared) {
    let mut seen = 0usize;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let epoch = shared.epoch.load(Ordering::SeqCst);
        if epoch == seen {
            std::thread::park();
            continue;
        }
        seen = epoch;
        // SAFETY: the caller published `job` before bumping the epoch
        // and will not unpublish it until this worker checks in below.
        let job = unsafe { *shared.job.get() };
        if let Some(job) = job {
            let t0 = Instant::now();
            // SAFETY: see `Job` — the pointee outlives the round.
            let body = unsafe { &*job.body };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
                shared.store_panic(payload);
            }
            shared
                .busy_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::SeqCst);
        }
        shared.finished.fetch_add(1, Ordering::SeqCst);
        shared.caller.unpark();
    }
}

/// Sets `shutdown` and wakes every worker — runs on scope exit even when
/// the `with_pool` closure panics, so the scope join cannot hang on
/// parked workers.
struct ShutdownGuard<'a> {
    shared: &'a PoolShared,
    workers: Vec<Thread>,
}

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for w in &self.workers {
            w.unpark();
        }
    }
}

/// A persistent worker pool: `jobs - 1` scoped workers, parked between
/// rounds. Created by [`with_pool`]; `jobs <= 1` yields a pool with no
/// workers whose `run` methods degrade to the plain sequential loop.
pub struct Pool<'env> {
    shared: Option<&'env PoolShared>,
    workers: Vec<Thread>,
}

/// Runs `f` with a [`Pool`] of `jobs - 1` persistent workers (plus the
/// calling thread, which participates in every round). The workers are
/// spawned once and parked between rounds — a multi-round phase (one
/// round per SCC level) pays a park/unpark per round instead of a thread
/// spawn + join, which is what flipped the wavefront solver's parallel
/// path from slower-than-sequential to competitive.
///
/// Panics raised inside a round propagate to the caller of the `run`
/// method (after the round has fully drained); a panic in `f` itself
/// shuts the workers down cleanly before the scope joins.
pub fn with_pool<R>(jobs: usize, f: impl FnOnce(&Pool<'_>) -> R) -> R {
    if jobs <= 1 {
        return f(&Pool {
            shared: None,
            workers: Vec::new(),
        });
    }
    let shared = PoolShared::new();
    std::thread::scope(|scope| {
        let n_workers = jobs - 1;
        let mut workers = Vec::with_capacity(n_workers);
        for _ in 0..n_workers {
            let sh = &shared;
            workers.push(scope.spawn(move || worker_loop(sh)).thread().clone());
        }
        let _guard = ShutdownGuard {
            shared: &shared,
            workers: workers.clone(),
        };
        f(&Pool {
            shared: Some(&shared),
            workers,
        })
    })
}

/// Marker wrapper making the per-unit result slots shareable across the
/// round's participants. Each slot index is claimed by exactly one
/// participant (the `fetch_add` ticket), so no slot is written twice.
struct ResultSlots<'a, T>(&'a [UnsafeCell<Option<T>>]);

// SAFETY: disjoint-index access only, guaranteed by the atomic ticket.
unsafe impl<T: Send> Sync for ResultSlots<'_, T> {}

impl<T> ResultSlots<'_, T> {
    /// Fills slot `i`.
    ///
    /// # Safety
    ///
    /// `i` must be claimed by exactly one participant per round (the
    /// `fetch_add` ticket guarantees this), so the cell is unaliased.
    unsafe fn fill(&self, i: usize, v: T) {
        *self.0[i].get() = Some(v);
    }
}

impl<'env> Pool<'env> {
    /// Whether rounds actually fan out to workers (false for the
    /// sequential `jobs <= 1` pool).
    pub fn parallel(&self) -> bool {
        self.shared.is_some()
    }

    /// Total participants per round: the caller plus the workers.
    pub fn participants(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs `f(0) .. f(n - 1)` across the pool, returning results in
    /// index order plus the phase accounting. See
    /// [`Pool::run_with_scratch`] for the scratch-buffer variant this
    /// forwards to.
    pub fn run<T, F>(&self, n: usize, f: F) -> (Vec<T>, PhaseTime)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_with_scratch(n, Scratch::default, |_, i| f(i))
    }

    /// Runs `f(&mut scratch, 0) .. f(&mut scratch, n - 1)` across the
    /// pool, returning results **in index order** plus the accounting.
    ///
    /// Every participant builds one scratch value per round
    /// (`make_scratch`) and reuses it across all the units it claims, so
    /// per-unit buffers amortize to one allocation per worker per round.
    /// The sequential pool reuses a single scratch across all `n` units.
    ///
    /// Panics inside `f` are caught per participant, and the first one
    /// is re-raised on the calling thread **after** the round has fully
    /// drained (same contract as [`run`]).
    pub fn run_with_scratch<T, S, M, F>(
        &self,
        n: usize,
        make_scratch: M,
        f: F,
    ) -> (Vec<T>, PhaseTime)
    where
        T: Send,
        M: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        let start = Instant::now();
        let shared = match self.shared {
            Some(shared) if n > 1 => shared,
            _ => {
                let mut scratch = make_scratch();
                let results: Vec<T> = (0..n).map(|i| f(&mut scratch, i)).collect();
                return (results, PhaseTime::sequential(start.elapsed(), n));
            }
        };

        let slots: Vec<UnsafeCell<Option<T>>> = (0..n).map(|_| UnsafeCell::new(None)).collect();
        let slots_ref = &ResultSlots(&slots);
        let next = AtomicUsize::new(0);
        let participate = || {
            let mut scratch = make_scratch();
            loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= n {
                    break;
                }
                let v = f(&mut scratch, i);
                // SAFETY: index `i` was claimed by exactly this
                // participant (atomic ticket), so the slot is unaliased.
                unsafe { slots_ref.fill(i, v) };
            }
        };
        let body: &(dyn Fn() + Sync) = &participate;
        // SAFETY (lifetime erasure): workers only dereference the
        // pointer between the epoch bump below and their check-in, and
        // we block until all of them checked in — `participate` (and
        // everything it borrows) outlives that window.
        let job = Job {
            body: unsafe {
                std::mem::transmute::<*const (dyn Fn() + Sync), *const (dyn Fn() + Sync + 'static)>(
                    body as *const (dyn Fn() + Sync),
                )
            },
        };
        shared.busy_ns.store(0, Ordering::SeqCst);
        shared.finished.store(0, Ordering::SeqCst);
        // SAFETY: every worker is parked or pre-epoch here (previous
        // round fully checked in), so the caller is the only accessor.
        unsafe { *shared.job.get() = Some(job) };
        shared.epoch.fetch_add(1, Ordering::SeqCst);
        for w in &self.workers {
            w.unpark();
        }

        // The caller is a full participant.
        let t0 = Instant::now();
        if let Err(payload) = catch_unwind(AssertUnwindSafe(&participate)) {
            shared.store_panic(payload);
        }
        let caller_busy = t0.elapsed();

        // Every spawned worker must check in before the round ends —
        // otherwise a straggler could observe a dangling job pointer.
        while shared.finished.load(Ordering::SeqCst) < self.workers.len() {
            std::thread::park_timeout(Duration::from_micros(100));
        }
        // SAFETY: all workers checked in; sole accessor again.
        unsafe { *shared.job.get() = None };

        if let Some(payload) = shared.take_panic() {
            panic::resume_unwind(payload);
        }

        let results: Vec<T> = slots
            .into_iter()
            .map(|cell| match cell.into_inner() {
                Some(v) => v,
                // Unreachable: every index < n is claimed by exactly one
                // participant, and a panicked claim re-raised above.
                None => unreachable!("pool round left an unfilled result slot"),
            })
            .collect();
        let busy = caller_busy + Duration::from_nanos(shared.busy_ns.load(Ordering::SeqCst));
        (
            results,
            PhaseTime {
                wall: start.elapsed(),
                busy,
                workers: self.participants().min(n.max(1)),
                units: n,
                absorbed: 0,
                replayed: 0,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for jobs in [1, 2, 4, 8] {
            let (out, pt) = run(jobs, 100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(pt.units, 100);
            assert!(pt.workers >= 1 && pt.workers <= jobs.max(1));
        }
    }

    #[test]
    fn sequential_path_spawns_no_workers() {
        let (out, pt) = run(1, 5, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
        assert_eq!(pt.workers, 1);
        assert_eq!(pt.busy, pt.wall);
    }

    #[test]
    fn single_unit_stays_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let (out, _) = run(8, 1, |_| std::thread::current().id());
        assert_eq!(out, vec![caller]);
    }

    #[test]
    fn empty_input_is_fine() {
        let (out, pt) = run(4, 0, |i| i);
        assert!(out.is_empty());
        assert_eq!(pt.units, 0);
        assert!((0.0..=1.0).contains(&pt.utilization()));
        assert_eq!(PhaseTime::default().utilization(), 0.0);
    }

    #[test]
    fn worker_count_never_exceeds_unit_count() {
        let (out, pt) = run(16, 3, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
        assert!(pt.workers <= 3);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let res = std::panic::catch_unwind(|| {
            run(4, 10, |i| {
                assert!(i != 7, "unit 7 exploded");
                i
            })
        });
        assert!(res.is_err());
    }

    #[test]
    fn utilization_is_bounded() {
        let (_, pt) = run(4, 64, |i| {
            // A little uneven work so busy time is non-trivial.
            (0..(i % 7) * 1000).fold(0u64, |a, b| a.wrapping_add(b as u64))
        });
        let u = pt.utilization();
        assert!((0.0..=1.0).contains(&u), "{u}");
    }

    #[test]
    fn pool_results_come_back_in_index_order() {
        for jobs in [1, 2, 4, 8] {
            with_pool(jobs, |pool| {
                assert_eq!(pool.parallel(), jobs > 1);
                // Several rounds through the same pool, like the
                // wavefront's one-round-per-level dispatch.
                for round in 0..5usize {
                    let (out, pt) = pool.run(100, |i| i * i + round);
                    assert_eq!(out, (0..100).map(|i| i * i + round).collect::<Vec<_>>());
                    assert_eq!(pt.units, 100);
                    assert!(pt.workers >= 1 && pt.workers <= jobs.max(1));
                }
            });
        }
    }

    #[test]
    fn pool_scratch_is_reused_across_units() {
        with_pool(2, |pool| {
            let (out, _) = pool.run_with_scratch(64, Scratch::default, |scratch, i| {
                scratch.reset(8);
                scratch.queue.push_back(i);
                scratch.flags[i % 8] = true;
                scratch.queue.pop_front().map(|v| v * 2)
            });
            assert_eq!(out, (0..64).map(|i| Some(i * 2)).collect::<Vec<_>>());
        });
    }

    #[test]
    fn pool_empty_and_tiny_rounds_stay_on_the_caller() {
        with_pool(4, |pool| {
            let caller = std::thread::current().id();
            let (out, pt) = pool.run(0, |i| i);
            assert!(out.is_empty());
            assert_eq!(pt.units, 0);
            let (out, _) = pool.run(1, |_| std::thread::current().id());
            assert_eq!(out, vec![caller]);
        });
    }

    #[test]
    fn pool_panics_propagate_after_the_round_drains() {
        let res = std::panic::catch_unwind(|| {
            with_pool(4, |pool| {
                pool.run(10, |i| {
                    assert!(i != 7, "unit 7 exploded");
                    i
                })
            })
        });
        assert!(res.is_err());
        // A panic in the closure itself still shuts workers down.
        let res =
            std::panic::catch_unwind(|| with_pool(4, |_pool| -> () { panic!("driver exploded") }));
        assert!(res.is_err());
    }

    #[test]
    fn pool_matches_spawn_per_call_results() {
        with_pool(3, |pool| {
            let (a, _) = pool.run(41, |i| i as u64 * 3 + 1);
            let (b, _) = run(3, 41, |i| i as u64 * 3 + 1);
            assert_eq!(a, b);
        });
    }

    #[test]
    fn timings_absorb_accumulates() {
        let mut t = Timings {
            jobs: 2,
            ..Timings::default()
        };
        t.modref = PhaseTime::sequential(Duration::from_millis(2), 4);
        let mut other = Timings {
            jobs: 4,
            ..Timings::default()
        };
        other.modref = PhaseTime::sequential(Duration::from_millis(3), 4);
        other.total = Duration::from_millis(10);
        t.absorb(other);
        assert_eq!(t.jobs, 4);
        assert_eq!(t.modref.wall, Duration::from_millis(5));
        assert_eq!(t.modref.units, 8);
        assert_eq!(t.total, Duration::from_millis(10));
        assert!(t.per_proc_wall() >= Duration::from_millis(5));
    }

    #[test]
    fn spanning_counts_serial_work_as_busy() {
        // Two parallel rounds of 3 ms wall / 5 ms busy each, inside a
        // phase whose whole wall was 10 ms: the 4 ms between and after
        // the rounds ran on one participant.
        let mut rounds = PhaseTime::default();
        for _ in 0..2 {
            rounds.absorb(PhaseTime {
                wall: Duration::from_millis(3),
                busy: Duration::from_millis(5),
                workers: 2,
                units: 4,
                absorbed: 0,
                replayed: 0,
            });
        }
        let phase = rounds.spanning(Duration::from_millis(10));
        assert_eq!(phase.wall, Duration::from_millis(10));
        assert_eq!(phase.busy, Duration::from_millis(14));
        assert_eq!((phase.workers, phase.units), (2, 8));
        // A sequential measurement spans to exactly `sequential`.
        let seq = PhaseTime::sequential(Duration::ZERO, 7);
        assert_eq!(
            seq.spanning(Duration::from_millis(4)),
            PhaseTime::sequential(Duration::from_millis(4), 7)
        );
    }
}
