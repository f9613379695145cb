//! # ocs-benchmark — one benchmark for the whole pipeline
//!
//! Eight workloads, six end-to-end metrics and a failure count, and a
//! per-layer trace — all measured from outside, by timing calls into
//! the crates' public functions and by wrapping the seams the code
//! already passes in as boxes. Nothing in the repository knows this
//! crate exists. See `README.md` for how to run it and read its output.
//!
//! One process runs one workload: set up (several times, timed), run a
//! reference pass that doubles as warm-up, then measured repetitions,
//! each one checked. `--trace 1` adds one repetition with spans, seam
//! wrappers and the counting allocator on, and reports the per-layer
//! metrics instead of the end-to-end ones.

#![warn(missing_docs)]

pub mod alloc;
pub mod daemon;
pub mod engine;
pub mod layers;
pub mod report;
pub mod seams;
pub mod span;
pub mod stats;
pub mod workloads;

use daemon::{fault_config, sliced_rep, stream_rep};
use engine::{
    check_intra, check_outcomes, engine_rep, fingerprint, intra_rep, online, RepOut, REPLAN_THREADS,
};
use layers::Layers;
use ocs_daemon::FaultConfig;
use ocs_model::ScheduleOutcome;
use ocs_sim::{run_intra, run_trace, BackendKind, IntraEngine};
use report::{EndToEnd, Outcome, Value, END_TO_END};
use seams::Probe;
use stats::{median, percentile, percentile_ns, quartiles};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use sunflow_core::{ShortestFirst, SunflowConfig};
use workloads::{prepare, Inputs, Kind, Spec};

/// Set-up passes per run: at least this many...
const SETUP_PASSES: usize = 5;
/// ...and for at least this many seconds (a pass of the soak head takes
/// 1 ms, too short to time a handful of). `setup_s` is the median pass.
const SETUP_SECONDS: f64 = 0.3;

/// How many repetitions to measure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Budget {
    /// The workload's own default count.
    Default,
    /// Exactly this many.
    Reps(usize),
    /// As many as fit in this many seconds, at least two (one sample is
    /// no median). A third or later repetition starts only while at
    /// least half of one still fits.
    Seconds(f64),
}

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub spec: &'static Spec,
    /// `--seed`.
    pub seed: u64,
    /// `--reps` / `--seconds`.
    pub budget: Budget,
    /// `--trace 1`: the traced pass.
    pub trace: bool,
    /// Where result and span files go (`--out`).
    pub out_dir: Option<PathBuf>,
}

/// Seconds of simulated time from arrival to finish, per Coflow.
fn ccts(outcomes: &[ScheduleOutcome]) -> Vec<f64> {
    outcomes
        .iter()
        .map(|o| o.finish.since(o.start).as_secs_f64())
        .collect()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// `VmHWM` of this process in MB (0 where `/proc` has none).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One repetition of `spec` on `inp` with `threads` replanner threads,
/// traced when `probe` is given.
fn repetition(
    spec: &Spec,
    inp: &Inputs,
    seed: u64,
    threads: usize,
    probe: Option<&Arc<Probe>>,
) -> RepOut {
    match spec.kind {
        Kind::Engine { selector, guard } => {
            engine_rep(selector, online(guard, threads), inp, probe)
        }
        Kind::IntraAlone => intra_rep(inp, probe),
        Kind::SoakStream => stream_rep(inp, threads, probe).0,
        Kind::FaultRetry => sliced_rep(inp, fault_config(seed), threads, probe),
    }
}

/// The reference pass: the library's own driver on the same inputs. It
/// warms the process up and yields what every repetition must
/// reproduce — the outcome fingerprint and, for `fault_retry`, the
/// fault-free mean CCT that faults may only lengthen.
struct Reference {
    /// Fingerprint every repetition must match; `None` where the
    /// library has no second driver and the first repetition sets it.
    golden: Option<u64>,
    /// Mean CCT of the fault-free twin (`fault_retry`).
    clean_cct_s: f64,
    /// Wall of the fault-free twin (`fault_retry`).
    clean_wall_ns: u64,
}

fn reference(spec: &Spec, inp: &Inputs) -> Reference {
    let mut r = Reference {
        golden: None,
        clean_cct_s: 0.0,
        clean_wall_ns: 0,
    };
    match spec.kind {
        Kind::Engine { selector, guard } => {
            let kind: BackendKind = selector.parse().expect("workload selectors are valid");
            let online = online(guard, REPLAN_THREADS);
            let mut backend = kind.build(&inp.fabric, &online, Box::new(ShortestFirst));
            r.golden = Some(fingerprint(&run_trace(&inp.coflows, backend.as_mut())));
        }
        Kind::IntraAlone => {
            let engine = IntraEngine::Sunflow(SunflowConfig::default());
            let all: Vec<ScheduleOutcome> = engine::intra_fabrics(inp.fabric.ports())
                .iter()
                .flat_map(|f| run_intra(&inp.coflows, f, engine))
                .collect();
            r.golden = Some(fingerprint(&all));
        }
        Kind::SoakStream => {
            r.golden = Some(fingerprint(
                &stream_rep(inp, REPLAN_THREADS, None).0.outcomes,
            ));
        }
        Kind::FaultRetry => {
            let clean = sliced_rep(inp, FaultConfig::default(), REPLAN_THREADS, None);
            r.clean_cct_s = mean(&ccts(&clean.outcomes));
            r.clean_wall_ns = clean.wall_ns;
        }
    }
    r
}

/// Every output check of one repetition; one line per violation.
fn violations(spec: &Spec, inp: &Inputs, out: &RepOut, reference: &mut Reference) -> Vec<String> {
    let mut bad = match spec.kind {
        Kind::IntraAlone => check_intra(inp, out).0,
        Kind::Engine { selector, .. } => check_outcomes(
            &inp.coflows,
            &out.outcomes,
            &inp.fabric,
            selector == "sunflow",
        ),
        Kind::SoakStream | Kind::FaultRetry => {
            check_outcomes(&inp.coflows, &out.outcomes, &inp.fabric, true)
        }
    };
    let print = fingerprint(&out.outcomes);
    if *reference.golden.get_or_insert(print) != print {
        bad.push("outcomes differ from the reference pass".to_string());
    }
    let mut must = |ok: bool, what: &str| {
        if !ok {
            bad.push(what.to_string());
        }
    };
    match spec.kind {
        Kind::Engine { guard: true, .. } => must(out.guard_windows > 0, "no guard window elapsed"),
        Kind::Engine { selector, .. } if selector.starts_with("hybrid") => must(
            out.stats.split_evals > 0 && out.stats.bytes_to_packet > 0,
            "the split policy routed nothing to the packet fabric",
        ),
        Kind::Engine { selector, .. } if selector.starts_with("sunflow:4") => must(
            out.cores.len() == 4 && out.cores.iter().all(|c| c.reservations_made > 0),
            "a core holds no reservation",
        ),
        Kind::FaultRetry => {
            must(out.faults.retries > 0, "no fault was retried");
            must(
                mean(&ccts(&out.outcomes)) >= reference.clean_cct_s,
                "faults shortened the mean CCT",
            );
        }
        _ => {}
    }
    bad
}

/// The samples the measured repetitions left behind.
#[derive(Default)]
struct Samples {
    wall_s: Vec<f64>,
    /// Coflows a repetition completes (the same in each).
    completed: usize,
    p99_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Simulated CCTs of the last repetition (every repetition has the
    /// reference pass's fingerprint, so any one stands for all).
    cct_s: Vec<f64>,
}

/// Check one repetition and count what it attempted and failed.
fn account(
    o: &Options,
    inp: &Inputs,
    out: &RepOut,
    reference: &mut Reference,
    samples: &mut Samples,
) {
    let bad = violations(o.spec, inp, out, reference);
    for line in bad.iter().take(5) {
        eprintln!("{}: check failed: {line}", o.spec.name);
    }
    samples.attempted += out.attempted;
    samples.failed += out.failed + bad.len() as u64;
}

fn measure(
    o: &Options,
    inp: &Inputs,
    budget: Budget,
    reference: &mut Reference,
    samples: &mut Samples,
) {
    let begin = Instant::now();
    loop {
        let out = repetition(o.spec, inp, o.seed, REPLAN_THREADS, None);
        account(o, inp, &out, reference, samples);
        let wall_s = out.wall_ns as f64 / 1e9;
        samples.wall_s.push(wall_s);
        samples.completed = out.outcomes.len();
        samples
            .p99_us
            .push(percentile_ns(&out.steps_ns, 0.99) / 1e3);
        samples.cct_s = ccts(&out.outcomes);
        drop(out);
        let done = match budget {
            Budget::Default => samples.wall_s.len() >= o.spec.reps,
            Budget::Reps(n) => samples.wall_s.len() >= n,
            Budget::Seconds(s) => {
                samples.wall_s.len() >= 2 && s - begin.elapsed().as_secs_f64() < wall_s / 2.0
            }
        };
        if done {
            return;
        }
    }
}

/// The median of `xs` as the value of end-to-end metric `def`.
fn sampled(def: &EndToEnd, xs: &[f64]) -> Value {
    let (q1, q3) = quartiles(xs);
    Value {
        q1,
        q3,
        n: xs.len(),
        ..Value::single(def.name, def.unit, median(xs))
    }
}

/// The traced pass: one more repetition with spans, seam wrappers and
/// the counting allocator on, then the micro-sections that belong to
/// this workload.
fn traced(o: &Options, inp: &Inputs, reference: &mut Reference, samples: &mut Samples) -> Layers {
    let probe = Arc::new(Probe::default());
    let mut layers = Layers::default();
    layers.set_setup(&inp.setup);

    let (allocs0, bytes0) = alloc::counts();
    alloc::enable(true);
    let ((out, drained), _) = probe.span("bench.rep", 0, || match o.spec.kind {
        Kind::SoakStream => {
            let (out, daemon) = stream_rep(inp, REPLAN_THREADS, Some(&probe));
            (out, Some(daemon))
        }
        _ => (
            repetition(o.spec, inp, o.seed, REPLAN_THREADS, Some(&probe)),
            None,
        ),
    });
    alloc::enable(false);
    let (allocs1, bytes1) = alloc::counts();

    account(o, inp, &out, reference, samples);

    layers.set_rep(o.spec, inp, &out, &probe);
    let untraced = median(&samples.wall_s);
    let wall_s = out.wall_ns as f64 / 1e9;
    layers.set("trace.overhead_share", (wall_s - untraced) / untraced);
    {
        let tracer = probe.tracer();
        let root = &tracer.spans()[0];
        let own = tracer.self_times_ns()["bench.rep"];
        let whole = (root.end_ns - root.start_ns) as f64;
        layers.set("trace.span_coverage", 1.0 - own as f64 / whole);
    }
    layers.set("trace.allocs", (allocs1 - allocs0) as f64);
    layers.set("trace.alloc_bytes", (bytes1 - bytes0) as f64);
    let events = out.events.max(1) as f64;
    layers.set(
        "sim.engine.allocs_per_event",
        (allocs1 - allocs0) as f64 / events,
    );
    layers.set(
        "sim.engine.alloc_bytes_per_event",
        (bytes1 - bytes0) as f64 / events,
    );

    if o.spec.kind != Kind::IntraAlone {
        // The product's default thread count, once (see REPLAN_THREADS).
        let threaded = repetition(o.spec, inp, o.seed, 0, None);
        account(o, inp, &threaded, reference, samples);
        layers.set(
            "sim.stepper.parallel_replans",
            threaded.stats.parallel_replans as f64,
        );
        layers.set(
            "sim.stepper.parallel_wall_ratio",
            threaded.wall_ns as f64 / 1e9 / untraced,
        );
    }

    // The micro-sections open spans of their own, after the repetition.
    let mut must = |ok: bool, what: &str| {
        if !ok {
            eprintln!("{}: traced check failed: {what}", o.spec.name);
            samples.failed += 1;
        }
    };
    match o.spec.kind {
        Kind::IntraAlone => {
            layers.set("core.intra.lemma1_max_ratio", check_intra(inp, &out).1);
            layers::prt_micro(&out.schedules, inp.fabric.ports(), &probe, &mut layers);
        }
        Kind::SoakStream => {
            let daemon = drained.expect("the stream repetition returns its daemon");
            let lines = inp.coflows.len() as f64;
            // Parsing allocates the same per line whether traced or not.
            alloc::enable(true);
            let (a0, _) = alloc::counts();
            for line in inp.jsonl.lines() {
                std::hint::black_box(ocs_daemon::parse_line(line).is_ok());
            }
            let (a1, _) = alloc::counts();
            alloc::enable(false);
            layers.set("daemon.jsonl.allocs_per_line", (a1 - a0) as f64 / lines);
            let surface = daemon::service_surface(&daemon, inp, &probe);
            must(
                surface.restored_alike,
                "the restored daemon replayed differently",
            );
            layers.set_service(&surface);
            let piped = daemon::pipelined_pass(inp, &out.outcomes, &probe);
            must(
                piped.incomplete == 0,
                "the pipelined front end left Coflows unfinished",
            );
            must(piped.lost_acks == 0, "the pipelined front end lost acks");
            layers.set_pipelined(&piped, untraced);
        }
        Kind::FaultRetry => {
            layers.set(
                "daemon.faults.slowdown",
                untraced / (reference.clean_wall_ns as f64 / 1e9),
            );
            must(
                layers::heavy_tail_faults(&mut layers),
                "the heavy-tailed faulted soak hung",
            );
        }
        Kind::Engine { .. } => {}
    }

    if let Some(dir) = &o.out_dir {
        let path = dir.join(format!("trace_{}.jsonl", o.spec.name));
        let written = std::fs::File::create(&path)
            .and_then(|f| probe.tracer().write_jsonl(&mut std::io::BufWriter::new(f)));
        if let Err(e) = written {
            eprintln!("cannot write {}: {e}", path.display());
            samples.failed += 1;
        }
    }
    layers
}

/// Run one workload and return what it found. Progress and check
/// failures go to stderr; the caller prints the result.
pub fn run(o: &Options) -> Outcome {
    // Set up several times; the last pass's inputs are the ones used.
    let begin = Instant::now();
    let mut inp = prepare(o.spec, o.seed);
    let mut setup_s = vec![inp.setup.total_s()];
    while setup_s.len() < SETUP_PASSES || begin.elapsed().as_secs_f64() < SETUP_SECONDS {
        inp = prepare(o.spec, o.seed);
        setup_s.push(inp.setup.total_s());
    }

    let mut reference = reference(o.spec, &inp);
    let mut samples = Samples::default();
    // The traced pass needs untraced walls to compare with, not a full
    // measurement: half the budget.
    let budget = match (o.trace, o.budget) {
        (true, Budget::Seconds(s)) => Budget::Seconds(s / 2.0),
        (true, Budget::Default) => Budget::Reps(o.spec.reps.div_ceil(4)),
        (_, b) => b,
    };
    measure(o, &inp, budget, &mut reference, &mut samples);

    let metrics = if o.trace {
        traced(o, &inp, &mut reference, &mut samples)
            .rows()
            .map(|(name, unit, v)| Value::single(name, unit, v))
            .collect()
    } else {
        let cct = &samples.cct_s;
        let per_s: Vec<f64> = samples
            .wall_s
            .iter()
            .map(|w| samples.completed as f64 / w)
            .collect();
        let [setup, rate, p99, avg, p95, rss] = &END_TO_END;
        vec![
            sampled(setup, &setup_s),
            sampled(rate, &per_s),
            sampled(p99, &samples.p99_us),
            Value::single(avg.name, avg.unit, mean(cct)),
            Value::single(p95.name, p95.unit, percentile(cct, 0.95)),
            Value::single(rss.name, rss.unit, peak_rss_mb()),
        ]
    };
    Outcome {
        workload: o.spec.name.to_string(),
        correct: samples.failed == 0,
        attempted: samples.attempted.max(1),
        failed: samples.failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::PER_LAYER;
    use crate::workloads::{find, WORKLOADS};

    fn metric(o: &Outcome, name: &str) -> f64 {
        o.metrics.iter().find(|m| m.name == name).expect(name).value
    }

    fn once(workload: &str, seed: u64, trace: bool) -> Outcome {
        run(&Options {
            spec: find(workload).expect(workload),
            seed,
            budget: Budget::Reps(1),
            trace,
            out_dir: None,
        })
    }

    #[test]
    fn seed_changes_the_inputs_and_nothing_else_does() {
        let (a, b, c) = (
            once("fb_replay", 7, false),
            once("fb_replay", 7, false),
            once("fb_replay", 0, false),
        );
        for o in [&a, &b, &c] {
            assert!(o.correct && o.failed == 0 && o.attempted == 526);
            assert_eq!(o.metrics.len(), END_TO_END.len());
            assert!(
                o.metrics.iter().all(|m| m.value > 0.0),
                "metrics are never 0"
            );
        }
        for name in ["avg_cct_s", "p95_cct_s"] {
            assert_eq!(
                metric(&a, name).to_bits(),
                metric(&b, name).to_bits(),
                "{name}"
            );
            assert_ne!(metric(&a, name), metric(&c, name), "{name}");
        }
        // The committed BENCH_fig10 / BENCH_hybrid pure-Sunflow row.
        assert_eq!(format!("{:.4}", metric(&c, "avg_cct_s")), "13.9204");
    }

    #[test]
    fn traced_pass_reports_every_layer_metric() {
        let o = once("fb_kcore", 0, true);
        assert!(o.correct, "{} failed", o.failed);
        let names: Vec<&str> = o.metrics.iter().map(|m| m.name.as_str()).collect();
        let table: Vec<&str> = PER_LAYER.iter().map(|(n, ..)| *n).collect();
        assert_eq!(names, table);
        assert_eq!(metric(&o, "sim.multicore.cores_used"), 4.0);
        assert_eq!(metric(&o, "core.multicore.assign_calls"), 526.0);
        assert!(metric(&o, "trace.span_coverage") >= 0.95);
    }

    /// `BENCHMARK.json` is written by hand; it must say what this crate
    /// does. A crude reader is enough: the file's shape is fixed.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits beside benchmark/");
        let section = |key: &str| {
            let from = text.find(&format!("\"{key}\": [")).expect(key);
            &text[from..from + text[from..].find("\n  ]").expect("closing bracket")]
        };
        let names = |key: &str| -> Vec<String> {
            section(key)
                .lines()
                .filter_map(|l| l.trim().strip_prefix("{\"name\": \""))
                .map(|l| l[..l.find('"').expect("closing quote")].to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(|w| w.name));
        assert_eq!(names("end_to_end"), END_TO_END.map(|d| d.name));
        assert_eq!(names("per_layer"), PER_LAYER.map(|(n, ..)| n));
        for w in &WORKLOADS {
            assert!(
                section("workloads").contains(&format!("\"why\": \"{}\"", w.why)),
                "{}",
                w.name
            );
        }
        for d in &END_TO_END {
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                d.better.as_str(),
                d.bound
            );
            assert!(section("end_to_end").contains(&row), "{row}");
        }
        for (name, unit, better) in PER_LAYER {
            let row = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.as_str()
            );
            assert!(section("per_layer").contains(&row), "{row}");
        }
    }
}
