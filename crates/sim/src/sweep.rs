//! Parallel experiment sweep engine.
//!
//! Every figure/table experiment in `ocs-bench` replays dozens of
//! independent (trace, bandwidth, δ, policy) configurations. The
//! configurations share no mutable state — each builds its own
//! [`sunflow_core::Prt`] — so they parallelise trivially. This module
//! provides the substrate: a [`Sweep`] collects labelled jobs and runs
//! them either sequentially or fanned out over [`std::thread::scope`]
//! worker threads (no async runtime, no extra dependencies, per
//! DESIGN.md), while preserving **deterministic result ordering**:
//! results come back in submission order no matter which thread ran
//! which job or in what order they finished.
//!
//! Each run records its own wall-clock duration, and a job can
//! additionally report a scheduler-compute duration (the part of the
//! run spent inside the scheduler rather than in workload generation or
//! metric bookkeeping) via [`Sweep::add_measured`].
//!
//! ```
//! use ocs_sim::sweep::SweepBuilder;
//!
//! let mut sweep = SweepBuilder::new().threads(2).build();
//! for n in 0u64..4 {
//!     sweep.add(format!("job{n}"), move || n * n);
//! }
//! let result = sweep.run();
//! let values: Vec<u64> = result.runs.iter().map(|r| r.value).collect();
//! assert_eq!(values, vec![0, 1, 4, 9]); // submission order, always
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A job's closure: returns the run's value plus an optional
/// scheduler-compute duration measured by the job itself.
type JobFn<'a, T> = Box<dyn FnOnce() -> (T, Option<Duration>) + Send + 'a>;

struct Job<'a, T> {
    label: String,
    run: JobFn<'a, T>,
}

/// One completed run of a sweep.
#[derive(Clone, Debug)]
pub struct SweepRun<T> {
    /// The label the job was submitted under.
    pub label: String,
    /// What the job returned.
    pub value: T,
    /// Wall-clock duration of the job, measured by the engine.
    pub wall: Duration,
    /// Scheduler-compute duration reported by the job (see
    /// [`Sweep::add_measured`]), if any.
    pub compute: Option<Duration>,
}

/// The outcome of [`Sweep::run`] / [`Sweep::run_sequential`].
#[derive(Clone, Debug)]
pub struct SweepResult<T> {
    /// Per-job results, **in submission order** — independent of thread
    /// scheduling.
    pub runs: Vec<SweepRun<T>>,
    /// Wall-clock duration of the whole sweep.
    pub wall: Duration,
    /// Number of worker threads that executed it (1 for the sequential
    /// path).
    pub threads: usize,
}

/// A set of labelled, independent jobs to execute. See the module docs.
pub struct Sweep<'a, T> {
    jobs: Vec<Job<'a, T>>,
    threads: usize,
}

impl<'a, T: Send> Sweep<'a, T> {
    /// An empty sweep that will auto-size its thread pool to
    /// [`std::thread::available_parallelism`].
    pub fn new() -> Sweep<'a, T> {
        Sweep {
            jobs: Vec::new(),
            threads: 0,
        }
    }

    /// Submit a job. Results are returned in submission order.
    pub fn add(&mut self, label: impl Into<String>, f: impl FnOnce() -> T + Send + 'a) {
        self.jobs.push(Job {
            label: label.into(),
            run: Box::new(move || (f(), None)),
        });
    }

    /// Submit a job that reports its own scheduler-compute duration
    /// (the second element of the returned pair). The engine still
    /// measures the full wall-clock around the job.
    pub fn add_measured(
        &mut self,
        label: impl Into<String>,
        f: impl FnOnce() -> (T, Duration) + Send + 'a,
    ) {
        self.jobs.push(Job {
            label: label.into(),
            run: Box::new(move || {
                let (value, compute) = f();
                (value, Some(compute))
            }),
        });
    }

    /// Number of jobs submitted so far.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True if no jobs have been submitted.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Worker-thread count [`Sweep::run`] will use: the configured
    /// count, or [`std::thread::available_parallelism`] when
    /// auto-sized, never more than there are jobs.
    pub fn resolved_threads(&self) -> usize {
        let hw = || {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        let n = if self.threads == 0 {
            hw()
        } else {
            self.threads
        };
        n.clamp(1, self.jobs.len().max(1))
    }

    /// Run every job on the calling thread, in submission order.
    pub fn run_sequential(self) -> SweepResult<T> {
        let t0 = Instant::now();
        let runs = self
            .jobs
            .into_iter()
            .map(|job| {
                let j0 = Instant::now();
                let (value, compute) = (job.run)();
                SweepRun {
                    label: job.label,
                    value,
                    wall: j0.elapsed(),
                    compute,
                }
            })
            .collect();
        SweepResult {
            runs,
            wall: t0.elapsed(),
            threads: 1,
        }
    }

    /// Run the jobs fanned out over scoped worker threads.
    ///
    /// Workers claim jobs from a shared counter (dynamic load
    /// balancing — a long δ=10µs replay does not serialise the short
    /// runs behind it), and every result lands in the slot of its
    /// submission index, so the returned ordering is deterministic.
    pub fn run(self) -> SweepResult<T> {
        let threads = self.resolved_threads();
        if threads <= 1 {
            return self.run_sequential();
        }
        let t0 = Instant::now();
        let jobs: Vec<Mutex<Option<Job<'a, T>>>> =
            self.jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let results: Vec<Mutex<Option<SweepRun<T>>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    let job = jobs[i]
                        .lock()
                        .expect("sweep job mutex poisoned")
                        .take()
                        .expect("sweep job claimed twice");
                    let j0 = Instant::now();
                    let (value, compute) = (job.run)();
                    *results[i].lock().expect("sweep result mutex poisoned") = Some(SweepRun {
                        label: job.label,
                        value,
                        wall: j0.elapsed(),
                        compute,
                    });
                });
            }
        });
        let runs = results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("sweep result mutex poisoned")
                    .expect("worker exited without storing a result")
            })
            .collect();
        SweepResult {
            runs,
            wall: t0.elapsed(),
            threads,
        }
    }
}

impl<'a, T: Send> Default for Sweep<'a, T> {
    fn default() -> Self {
        Sweep::new()
    }
}

/// Fluent construction of a [`Sweep`], mirroring the config builders of
/// the redesigned facade API.
#[derive(Clone, Copy, Debug, Default)]
#[non_exhaustive]
pub struct SweepBuilder {
    threads: usize,
}

impl SweepBuilder {
    /// A builder for an auto-sized sweep.
    pub fn new() -> SweepBuilder {
        SweepBuilder::default()
    }

    /// Fix the worker-thread count (`0` = auto-size to the host).
    pub fn threads(mut self, n: usize) -> SweepBuilder {
        self.threads = n;
        self
    }

    /// Build an empty [`Sweep`] with this configuration.
    pub fn build<'a, T: Send>(self) -> Sweep<'a, T> {
        Sweep {
            jobs: Vec::new(),
            threads: self.threads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let mut sweep = SweepBuilder::new().threads(4).build();
        for i in 0..32u64 {
            // Stagger the work so completion order differs from
            // submission order.
            sweep.add(format!("j{i}"), move || {
                std::thread::sleep(Duration::from_micros((32 - i) * 50));
                i * 3
            });
        }
        let result = sweep.run();
        assert_eq!(result.threads, 4);
        for (i, run) in result.runs.iter().enumerate() {
            assert_eq!(run.label, format!("j{i}"));
            assert_eq!(run.value, i as u64 * 3);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let build = || {
            let mut sweep: Sweep<u64> = SweepBuilder::new().threads(3).build();
            for i in 0..17u64 {
                sweep.add(format!("cfg{i}"), move || {
                    i.wrapping_mul(0x9e37).rotate_left(7)
                });
            }
            sweep
        };
        let par = build().run();
        let seq = build().run_sequential();
        let vals = |r: &SweepResult<u64>| -> Vec<(String, u64)> {
            r.runs.iter().map(|x| (x.label.clone(), x.value)).collect()
        };
        assert_eq!(vals(&par), vals(&seq));
        assert_eq!(seq.threads, 1);
    }

    #[test]
    fn borrowing_jobs_work_under_scoped_threads() {
        let data: Vec<u64> = (0..100).collect();
        let mut sweep = Sweep::new();
        for chunk in data.chunks(10) {
            sweep.add("sum", move || chunk.iter().sum::<u64>());
        }
        let total: u64 = sweep.run().runs.iter().map(|r| r.value).sum();
        assert_eq!(total, data.iter().sum());
    }

    #[test]
    fn measured_jobs_report_compute() {
        let mut sweep: Sweep<u32> = Sweep::new();
        sweep.add_measured("m", || (7, Duration::from_millis(5)));
        sweep.add("plain", || 8);
        let result = sweep.run_sequential();
        assert_eq!(result.runs[0].compute, Some(Duration::from_millis(5)));
        assert_eq!(result.runs[1].compute, None);
    }

    #[test]
    fn thread_resolution_clamps_to_job_count() {
        let mut sweep: Sweep<()> = SweepBuilder::new().threads(64).build();
        sweep.add("only", || ());
        assert_eq!(sweep.resolved_threads(), 1);
        assert!(Sweep::<()>::new().is_empty());
    }
}
