//! Parallel experiment sweep engine.
//!
//! Every figure/table experiment replays dozens of independent (trace,
//! bandwidth, δ, policy) configurations. The configurations share no
//! mutable state — each builds its own [`sunflow_core::Prt`] — so they
//! parallelise trivially. A [`Sweep`] collects labelled jobs and runs
//! them over [`std::thread::scope`] worker threads (the calling thread
//! is one of them), while preserving **deterministic result ordering**:
//! values come back in submission order no matter which thread ran
//! which job or in what order they finished.
//!
//! The run fills the record's own [`SweepTiming`]: each job's wall
//! clock, plus the scheduler-compute duration a job reports itself
//! through [`Sweep::add_measured`].
//!
//! ```
//! use ocs_bench::sweep::Sweep;
//!
//! let mut sweep = Sweep::new(2);
//! for n in 0u64..4 {
//!     sweep.add(format!("job{n}"), move || n * n);
//! }
//! let (values, timing) = sweep.run();
//! assert_eq!(values, vec![0, 1, 4, 9]); // submission order, always
//! assert_eq!(timing.runs[3].label, "job3");
//! ```

use ocs_metrics::{RunTiming, SweepTiming};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A job's closure: returns the run's value plus an optional
/// scheduler-compute duration measured by the job itself.
type JobFn<'a, T> = Box<dyn FnOnce() -> (T, Option<Duration>) + Send + 'a>;

/// A set of labelled, independent jobs to execute. See the module docs.
pub struct Sweep<'a, T> {
    jobs: Vec<(String, JobFn<'a, T>)>,
    threads: usize,
}

impl<'a, T: Send> Sweep<'a, T> {
    /// An empty sweep that runs on `threads` worker threads (`0` = all
    /// cores), never more than it has jobs.
    pub fn new(threads: usize) -> Sweep<'a, T> {
        Sweep {
            jobs: Vec::new(),
            threads,
        }
    }

    /// Submit a job. Results are returned in submission order.
    pub fn add(&mut self, label: impl Into<String>, f: impl FnOnce() -> T + Send + 'a) {
        self.jobs
            .push((label.into(), Box::new(move || (f(), None))));
    }

    /// Submit a job that reports its own scheduler-compute duration
    /// (the second element of the returned pair). The engine still
    /// measures the full wall-clock around the job.
    pub fn add_measured(
        &mut self,
        label: impl Into<String>,
        f: impl FnOnce() -> (T, Duration) + Send + 'a,
    ) {
        self.jobs.push((
            label.into(),
            Box::new(move || {
                let (value, compute) = f();
                (value, Some(compute))
            }),
        ));
    }

    /// Run every job and return the values in submission order with the
    /// sweep's timing record.
    ///
    /// Workers claim jobs from one shared queue (dynamic load balancing
    /// — a long δ=10µs replay does not serialise the short runs behind
    /// it). With one thread every job runs on the calling thread.
    pub fn run(self) -> (Vec<T>, SweepTiming) {
        let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = match self.threads {
            0 => host_cores,
            n => n,
        }
        .clamp(1, self.jobs.len().max(1));
        let t0 = Instant::now();
        let queue = Mutex::new(self.jobs.into_iter().enumerate());
        let work = || {
            let mut done = Vec::new();
            loop {
                let Some((i, (label, job))) = queue.lock().expect("sweep queue poisoned").next()
                else {
                    return done;
                };
                let j0 = Instant::now();
                let (value, compute) = job();
                done.push((
                    i,
                    value,
                    RunTiming {
                        label,
                        wall_s: j0.elapsed().as_secs_f64(),
                        compute_s: compute.map(|d| d.as_secs_f64()),
                        backend: None,
                        counters: Vec::new(),
                    },
                ));
            }
        };
        let mut done = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
            let mut done = work();
            for helper in helpers {
                done.extend(
                    helper
                        .join()
                        .unwrap_or_else(|e| std::panic::resume_unwind(e)),
                );
            }
            done
        });
        done.sort_unstable_by_key(|&(i, ..)| i);
        let (values, runs) = done.into_iter().map(|(_, v, r)| (v, r)).unzip();
        let timing = SweepTiming {
            runs,
            wall_s: t0.elapsed().as_secs_f64(),
            threads,
            host_cores,
        };
        (values, timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let mut sweep = Sweep::new(4);
        for i in 0..32u64 {
            // Stagger the work so completion order differs from
            // submission order.
            sweep.add(format!("j{i}"), move || {
                std::thread::sleep(Duration::from_micros((32 - i) * 50));
                i * 3
            });
        }
        let (values, timing) = sweep.run();
        assert_eq!(timing.threads, 4);
        for (i, (value, run)) in values.iter().zip(&timing.runs).enumerate() {
            assert_eq!(run.label, format!("j{i}"));
            assert_eq!(*value, i as u64 * 3);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let build = |threads| {
            let mut sweep: Sweep<u64> = Sweep::new(threads);
            for i in 0..17u64 {
                sweep.add(format!("cfg{i}"), move || {
                    i.wrapping_mul(0x9e37).rotate_left(7)
                });
            }
            sweep.run()
        };
        let labelled = |(values, timing): (Vec<u64>, SweepTiming)| -> Vec<(String, u64)> {
            timing
                .runs
                .into_iter()
                .map(|r| r.label)
                .zip(values)
                .collect()
        };
        let (par, seq) = (build(3), build(1));
        assert_eq!((par.1.threads, seq.1.threads), (3, 1));
        assert_eq!(labelled(par), labelled(seq));
    }

    #[test]
    fn borrowing_jobs_work_under_scoped_threads() {
        let data: Vec<u64> = (0..100).collect();
        let mut sweep = Sweep::new(0);
        for chunk in data.chunks(10) {
            sweep.add("sum", move || chunk.iter().sum::<u64>());
        }
        let total: u64 = sweep.run().0.iter().sum();
        assert_eq!(total, data.iter().sum());
    }

    #[test]
    fn measured_jobs_report_compute() {
        let mut sweep: Sweep<u32> = Sweep::new(1);
        sweep.add_measured("m", || (7, Duration::from_millis(5)));
        sweep.add("plain", || 8);
        let (values, timing) = sweep.run();
        assert_eq!(values, vec![7, 8]);
        assert_eq!(timing.runs[0].compute_s, Some(0.005));
        assert_eq!(timing.runs[1].compute_s, None);
    }

    #[test]
    fn thread_resolution_clamps_to_job_count() {
        let mut sweep: Sweep<()> = Sweep::new(64);
        sweep.add("only", || ());
        assert_eq!(sweep.run().1.threads, 1);
        let (values, timing) = Sweep::<()>::new(0).run();
        assert!(values.is_empty() && timing.runs.is_empty());
        assert_eq!(timing.threads, 1);
    }
}
