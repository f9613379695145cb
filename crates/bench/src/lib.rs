//! # ocs-bench — the experiment harness
//!
//! Reproduces **every table and figure** of the Sunflow paper's
//! evaluation. Each experiment lives in [`experiments`] and is exposed as
//! a bench target (`cargo bench -p ocs-bench --bench fig3`, etc.), so
//! `cargo bench` regenerates the full evaluation; results are recorded in
//! the repository's `EXPERIMENTS.md`. The experiments fan their
//! independent configurations out over cores through [`sweep::Sweep`],
//! which fills each record's `SweepTiming` directly.
//!
//! Knobs (environment variables):
//! * `OCS_TRACE_FILE` — path to a real `coflow-benchmark` trace to use
//!   instead of the calibrated synthetic workload;
//! * `OCS_BENCH_COFLOWS` — truncate the workload for quick runs;
//! * `OCS_BENCH_THREADS` — worker threads for the sweep engine
//!   (default: all cores);
//! * `OCS_SCALE_COFLOWS` — trace length of the daemon scale soak
//!   (default 100 000);
//! * `OCS_BENCH_JSON_DIR` — where to write `BENCH_<id>.json` records
//!   (default: current directory).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod inter_eval;
pub mod intra_eval;
pub mod sweep;
pub mod workloads;

use ocs_metrics::{Report, SweepTiming};
use std::path::PathBuf;
use sweep::Sweep;

/// Interpret an `OCS_BENCH_THREADS` value: unset or empty means 0
/// ("all cores"); anything else must be a non-negative integer. A typo
/// is an error — it must never silently run on the default.
pub fn parse_threads(raw: Option<&str>) -> Result<usize, String> {
    match raw.map(str::trim) {
        None | Some("") => Ok(0),
        Some(s) => s.parse().map_err(|_| {
            format!(
                "OCS_BENCH_THREADS must be a non-negative integer \
                 (0 = all cores), got {s:?}"
            )
        }),
    }
}

/// Resolve an `OCS_BENCH_JSON_DIR` value to the directory records are
/// written to: unset means the current directory; a set value must be an
/// existing directory.
pub fn resolve_json_dir(raw: Option<&std::ffi::OsStr>) -> Result<PathBuf, String> {
    match raw {
        None => Ok(PathBuf::from(".")),
        Some(v) if v.is_empty() => Err(
            "OCS_BENCH_JSON_DIR is set but empty; unset it or point it at a directory".to_string(),
        ),
        Some(v) => {
            let dir = PathBuf::from(v);
            if dir.is_dir() {
                Ok(dir)
            } else {
                Err(format!(
                    "OCS_BENCH_JSON_DIR={} is not an existing directory",
                    dir.display()
                ))
            }
        }
    }
}

/// A sweep configured from the environment (`OCS_BENCH_THREADS`).
///
/// # Panics
/// Panics with a clear message when `OCS_BENCH_THREADS` is set to
/// something that is not a non-negative integer.
pub fn sweep<'a, T: Send>() -> Sweep<'a, T> {
    let threads = match parse_threads(std::env::var("OCS_BENCH_THREADS").ok().as_deref()) {
        Ok(n) => n,
        Err(msg) => panic!("{msg}"),
    };
    Sweep::new(threads)
}

/// Tag every run of a sweep timing with the canonical scheduler name
/// behind it (see `ocs_sim::BackendKind::name`); for sweeps whose
/// runs all replay the same backend, e.g. the δ-sensitivity figures.
pub fn tag_backend(timing: &mut SweepTiming, name: &str) {
    for r in &mut timing.runs {
        r.backend = Some(name.to_string());
    }
}

/// Print a report (with a truncation warning when applicable) and return
/// whether all claims held.
pub fn emit(report: &Report) -> bool {
    if workloads::truncated() {
        println!(
            "NOTE: workload truncated via OCS_BENCH_COFLOWS — numbers are not comparable to the paper.\n"
        );
    }
    println!("{}", report.render());
    report.all_hold()
}

/// [`emit`] plus the sweep timing table, and write the experiment's
/// `BENCH_<id>.json` record to `OCS_BENCH_JSON_DIR` (default: cwd).
pub fn emit_timed(id: &str, report: &Report, timing: &SweepTiming) -> bool {
    let ok = emit(report);
    println!("{}", timing.render());
    let dir = match resolve_json_dir(std::env::var_os("OCS_BENCH_JSON_DIR").as_deref()) {
        Ok(dir) => dir,
        Err(msg) => {
            eprintln!("WARNING: {msg}; writing BENCH_{id}.json to the current directory");
            PathBuf::from(".")
        }
    };
    match ocs_metrics::write_bench_json(&dir, id, report, timing, workloads::truncated()) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!(
            "WARNING: could not write BENCH_{id}.json to {} (set OCS_BENCH_JSON_DIR \
             to change the destination): {e}",
            dir.display()
        ),
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ffi::OsStr;

    #[test]
    fn threads_env_parses_or_errors_loudly() {
        assert_eq!(parse_threads(None), Ok(0));
        assert_eq!(parse_threads(Some("")), Ok(0));
        assert_eq!(parse_threads(Some("  ")), Ok(0));
        assert_eq!(parse_threads(Some("4")), Ok(4));
        assert_eq!(parse_threads(Some(" 16 ")), Ok(16));
        for garbage in ["four", "-1", "3.5", "0x10", "8 threads"] {
            let err = parse_threads(Some(garbage)).unwrap_err();
            assert!(
                err.contains("OCS_BENCH_THREADS") && err.contains(garbage),
                "error must name the variable and the bad value: {err}"
            );
        }
    }

    #[test]
    fn json_dir_env_resolves_or_errors_loudly() {
        assert_eq!(resolve_json_dir(None), Ok(PathBuf::from(".")));
        let err = resolve_json_dir(Some(OsStr::new(""))).unwrap_err();
        assert!(err.contains("OCS_BENCH_JSON_DIR"));
        let err = resolve_json_dir(Some(OsStr::new("/no/such/dir/for/bench"))).unwrap_err();
        assert!(err.contains("OCS_BENCH_JSON_DIR") && err.contains("/no/such/dir/for/bench"));
        let tmp = std::env::temp_dir();
        assert_eq!(resolve_json_dir(Some(tmp.as_os_str())), Ok(tmp));
    }
}
