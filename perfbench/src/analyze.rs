//! The batch half of a run: `ipcc analyze <file> --emit constants` child
//! processes, one at a time, alternating `--jobs 2` and `--jobs 1`.

use crate::child;
use crate::digest::Constants;
use crate::Tally;
use std::path::Path;
use std::time::Instant;

/// Job count of the default run on the 2-core baseline machine
/// (`ipcc analyze` defaults to jobs = nproc).
pub const PAR_JOBS: usize = 2;

/// Everything the batch half measured.
#[derive(Default)]
pub struct BatchRun {
    /// Untimed warm-up runs (`--jobs 2`).
    pub warmup_s: Vec<f64>,
    pub par_s: Vec<f64>,
    pub seq_s: Vec<f64>,
    /// `ru_maxrss` of every timed child, MB.
    pub rss_mb: Vec<f64>,
    pub constants: Option<Constants>,
    /// Wall seconds of the timed pairs so far, and of the last one.
    spent_s: f64,
    last_pair_s: f64,
}

/// One child run, checked: a non-zero exit, a degradation or a table
/// other than `expected` is tallied as a failure. The run is timed
/// either way.
fn one(
    ipcc: &Path,
    file: &Path,
    jobs: usize,
    expected: &Constants,
    tally: &mut Tally,
) -> Result<(child::ChildRun, Constants), String> {
    let run = child::analyze(ipcc, file, jobs)?;
    let c = Constants::of_cli_output(&run.stdout);
    if !run.success {
        tally.fail(format!(
            "ipcc analyze --jobs {jobs} failed: {}",
            run.stderr.trim()
        ));
    } else if run.stderr.contains("analysis degraded") {
        tally.fail(format!(
            "ipcc analyze --jobs {jobs} degraded: {}",
            run.stderr.trim()
        ));
    } else {
        tally.check(&c == expected, || {
            format!("ipcc analyze --jobs {jobs}: table {c:?} != expected {expected:?}")
        });
    }
    Ok((run, c))
}

impl BatchRun {
    /// `n` untimed runs (`--jobs 2`).
    pub fn warm_up(
        &mut self,
        ipcc: &Path,
        file: &Path,
        n: usize,
        expected: &Constants,
        tally: &mut Tally,
    ) -> Result<(), String> {
        for _ in 0..n {
            self.warmup_s
                .push(one(ipcc, file, PAR_JOBS, expected, tally)?.0.wall_s);
        }
        Ok(())
    }

    /// Timed `--jobs 2` / `--jobs 1` pairs until the pairs of every call
    /// so far have taken `budget` seconds in all (at least one pair per
    /// run). A pair starts only if it is expected to end within the
    /// budget, so the half takes about its seconds however long one
    /// analysis is, and a run that interleaves calls with other work
    /// spreads its pairs over the whole run.
    pub fn pairs(
        &mut self,
        ipcc: &Path,
        file: &Path,
        budget: f64,
        expected: &Constants,
        tally: &mut Tally,
    ) -> Result<(), String> {
        while self.seq_s.is_empty() || self.spent_s + self.last_pair_s <= budget {
            let t_pair = Instant::now();
            for jobs in [PAR_JOBS, 1] {
                let (r, c) = one(ipcc, file, jobs, expected, tally)?;
                let samples = if jobs == 1 {
                    &mut self.seq_s
                } else {
                    &mut self.par_s
                };
                samples.push(r.wall_s);
                self.rss_mb.push(r.maxrss_mb);
                self.constants = Some(c);
            }
            self.last_pair_s = t_pair.elapsed().as_secs_f64();
            self.spent_s += self.last_pair_s;
        }
        Ok(())
    }
}

/// `warmups` untimed runs, then timed pairs for `seconds`.
pub fn run(
    ipcc: &Path,
    file: &Path,
    seconds: f64,
    warmups: usize,
    expected: &Constants,
    tally: &mut Tally,
) -> Result<BatchRun, String> {
    let mut out = BatchRun::default();
    out.warm_up(ipcc, file, warmups, expected, tally)?;
    out.pairs(ipcc, file, seconds, expected, tally)?;
    Ok(out)
}
