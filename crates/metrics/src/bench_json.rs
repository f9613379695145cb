//! Machine-readable benchmark records: the `BENCH_<id>.json` files every
//! experiment runner emits so the performance trajectory (runtime,
//! parallel speedup, paper-vs-measured claims) is trackable across PRs.
//!
//! The format is deliberately small and hand-rolled (no serde — the
//! workspace carries no external dependencies):
//!
//! ```json
//! {
//!   "id": "fig6",
//!   "title": "Figure 6 — ...",
//!   "host_cores": 8,
//!   "threads": 8,
//!   "wall_s": 1.93,
//!   "serial_wall_s": 11.42,
//!   "speedup": 5.92,
//!   "runs": [ {"label": "delta=100ms", "wall_s": 2.1, "compute_s": null,
//!              "backend": "Sunflow"}, ... ],
//!   "claims": [ {"what": "...", "paper": 1.0, "measured": 1.02,
//!                "tolerance": 0.35, "holds": true}, ... ],
//!   "all_hold": true,
//!   "truncated": false
//! }
//! ```
//!
//! `serial_wall_s` is the sum of per-run wall clocks — what the same
//! sweep costs without the parallel engine — so `speedup` is
//! `serial_wall_s / wall_s`. On a single-core host the two coincide and
//! the speedup is ~1; `host_cores` is recorded so readers can tell a
//! missing win from a missing machine.

use crate::report::Report;
use crate::table::Table;

/// Timing of one run inside a sweep.
#[derive(Clone, Debug)]
pub struct RunTiming {
    /// The run's label (one configuration of the sweep).
    pub label: String,
    /// Wall-clock seconds of the run.
    pub wall_s: f64,
    /// Scheduler-compute seconds reported by the run itself, if it
    /// measured any.
    pub compute_s: Option<f64>,
    /// Canonical scheduler name behind this run (the unified engine's
    /// `BackendKind::name`), emitted as a `"backend"` field when
    /// present. `None` for runs not tied to one scheduler.
    pub backend: Option<String>,
    /// Named work counters reported by the run itself (e.g. the replay's
    /// `ReplayStats` fields), emitted as a `"counters"` object in the
    /// JSON record when non-empty. Order is preserved.
    pub counters: Vec<(String, u64)>,
}

/// Timing of a whole experiment sweep, decoupled from the sweep engine
/// so `ocs-metrics` stays dependency-free.
#[derive(Clone, Debug, Default)]
pub struct SweepTiming {
    /// Per-run timings, in the sweep's deterministic order.
    pub runs: Vec<RunTiming>,
    /// Wall-clock seconds of the whole sweep.
    pub wall_s: f64,
    /// Worker threads used.
    pub threads: usize,
    /// `std::thread::available_parallelism` of the host.
    pub host_cores: usize,
}

impl SweepTiming {
    /// Sum of per-run wall clocks — the sequential-execution estimate.
    pub fn serial_wall_s(&self) -> f64 {
        self.runs.iter().map(|r| r.wall_s).sum()
    }

    /// `serial_wall_s / wall_s` (1.0 for an empty sweep).
    pub fn speedup(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.serial_wall_s() / self.wall_s
        } else {
            1.0
        }
    }

    /// Merge several sweeps (e.g. the sub-experiments of the ablation
    /// runner) into one record, summing walls and concatenating runs.
    pub fn merge(parts: impl IntoIterator<Item = SweepTiming>) -> SweepTiming {
        let mut out = SweepTiming::default();
        for p in parts {
            out.runs.extend(p.runs);
            out.wall_s += p.wall_s;
            out.threads = out.threads.max(p.threads);
            out.host_cores = out.host_cores.max(p.host_cores);
        }
        out
    }

    /// Render the timing summary table printed under each report.
    pub fn render(&self) -> String {
        let mut t = Table::new(["run", "wall", "compute"]);
        for r in &self.runs {
            t.row([
                r.label.clone(),
                format!("{:.3}s", r.wall_s),
                r.compute_s.map_or("-".into(), |c| format!("{c:.3}s")),
            ]);
        }
        format!(
            "{}sweep: {} runs on {} threads ({} cores): wall {:.3}s, \
             serial {:.3}s, speedup {:.2}x\n",
            t.render(),
            self.runs.len(),
            self.threads,
            self.host_cores,
            self.wall_s,
            self.serial_wall_s(),
            self.speedup(),
        )
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn num(x: f64) -> String {
    if x.is_finite() {
        // Enough digits to round-trip the quantities we record.
        format!("{x:.6}")
    } else {
        "null".into()
    }
}

/// Render the `BENCH_<id>.json` document for one experiment.
pub fn bench_json(id: &str, report: &Report, timing: &SweepTiming, truncated: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"id\": \"{}\",\n", esc(id)));
    out.push_str(&format!("  \"title\": \"{}\",\n", esc(&report.title)));
    out.push_str(&format!("  \"host_cores\": {},\n", timing.host_cores));
    out.push_str(&format!("  \"threads\": {},\n", timing.threads));
    out.push_str(&format!("  \"wall_s\": {},\n", num(timing.wall_s)));
    out.push_str(&format!(
        "  \"serial_wall_s\": {},\n",
        num(timing.serial_wall_s())
    ));
    out.push_str(&format!("  \"speedup\": {},\n", num(timing.speedup())));
    out.push_str("  \"runs\": [\n");
    for (i, r) in timing.runs.iter().enumerate() {
        let backend = match &r.backend {
            Some(b) => format!(", \"backend\": \"{}\"", esc(b)),
            None => String::new(),
        };
        let counters = if r.counters.is_empty() {
            String::new()
        } else {
            let body: Vec<String> = r
                .counters
                .iter()
                .map(|(name, v)| format!("\"{}\": {}", esc(name), v))
                .collect();
            format!(", \"counters\": {{{}}}", body.join(", "))
        };
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"wall_s\": {}, \"compute_s\": {}{}{}}}{}\n",
            esc(&r.label),
            num(r.wall_s),
            r.compute_s.map_or("null".into(), num),
            backend,
            counters,
            if i + 1 < timing.runs.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"claims\": [\n");
    let claims = report.claims();
    for (i, c) in claims.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"what\": \"{}\", \"paper\": {}, \"measured\": {}, \
             \"tolerance\": {}, \"holds\": {}, \"known_gap\": {}}}{}\n",
            esc(&c.what),
            num(c.paper),
            num(c.measured),
            num(c.tolerance),
            c.holds(),
            c.known_gap,
            if i + 1 < claims.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"all_hold\": {},\n", report.all_hold()));
    out.push_str(&format!("  \"truncated\": {}\n", truncated));
    out.push_str("}\n");
    out
}

/// Write `BENCH_<id>.json` into `dir` and return its path.
pub fn write_bench_json(
    dir: &std::path::Path,
    id: &str,
    report: &Report,
    timing: &SweepTiming,
    truncated: bool,
) -> std::io::Result<std::path::PathBuf> {
    let path = dir.join(format!("BENCH_{id}.json"));
    std::fs::write(&path, bench_json(id, report, timing, truncated))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> SweepTiming {
        SweepTiming {
            runs: vec![
                RunTiming {
                    label: "a \"quoted\"".into(),
                    wall_s: 1.5,
                    compute_s: Some(0.5),
                    backend: Some("Sunflow".into()),
                    counters: vec![("events".into(), 42), ("cuts".into(), 0)],
                },
                RunTiming {
                    label: "b".into(),
                    wall_s: 0.5,
                    compute_s: None,
                    backend: None,
                    counters: Vec::new(),
                },
            ],
            wall_s: 1.0,
            threads: 2,
            host_cores: 4,
        }
    }

    #[test]
    fn aggregates() {
        let t = timing();
        assert_eq!(t.serial_wall_s(), 2.0);
        assert_eq!(t.speedup(), 2.0);
        let m = SweepTiming::merge([t.clone(), t]);
        assert_eq!(m.runs.len(), 4);
        assert_eq!(m.wall_s, 2.0);
        assert_eq!(m.threads, 2);
    }

    #[test]
    fn json_is_well_formed() {
        let mut r = Report::new("T \"x\"");
        r.claim("c1", 1.0, 1.1, 0.2);
        r.claim("nan", f64::NAN, f64::NAN, 0.2);
        r.claim_known_gap("gap", 13.12, 5.89, 0.35);
        let s = bench_json("fig0", &r, &timing(), false);
        assert!(s.contains("\"id\": \"fig0\""));
        assert!(s.contains("\\\"quoted\\\""));
        assert!(s.contains("\"speedup\": 2.000000"));
        assert!(s.contains("\"paper\": null"));
        assert!(s.contains("\"known_gap\": true"));
        assert!(s.contains("\"known_gap\": false"));
        assert!(s.contains("\"counters\": {\"events\": 42, \"cuts\": 0}"));
        // The backend tag sits between compute_s and counters.
        assert!(s.contains("\"backend\": \"Sunflow\", \"counters\""));
        // A run without backend/counters must not emit either key.
        assert!(s.contains("\"label\": \"b\", \"wall_s\": 0.500000, \"compute_s\": null}"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn render_summarizes() {
        let s = timing().render();
        assert!(s.contains("speedup 2.00x"));
        assert!(s.contains("2 runs on 2 threads"));
    }
}
