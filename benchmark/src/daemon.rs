//! The daemon repetitions: the JSONL stream through the sequential
//! serving loop (`soak_stream`) and the sliced, fault-injecting feed
//! (`fault_retry`), plus the traced pass's one-off measurements of the
//! pipelined front end and the status / checkpoint surface.

use crate::engine::{fingerprint, in_input_order, online, phase, Phases, RepOut, REPLAN_THREADS};
use crate::seams::Probe;
use crate::stats::median;
use crate::workloads::Inputs;
use ocs_daemon::{
    parse_line, run_pipelined, run_to_completion, Daemon, DaemonConfig, FaultConfig, OnFull,
    PipelineConfig,
};
use ocs_model::{Dur, ScheduleOutcome, Time};
use std::io::{Cursor, Write};
use std::sync::Arc;
use std::time::Instant;

/// An in-memory ack sink that notes when each line ended, so the gap
/// between consecutive acks — what a closed-loop client waits for —
/// can be read off afterwards.
#[derive(Debug, Default)]
pub struct AckSink {
    bytes: Vec<u8>,
    stamps: Vec<Instant>,
}

impl Write for AckSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for _ in buf.iter().filter(|&&b| b == b'\n') {
            self.stamps.push(Instant::now());
        }
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl AckSink {
    /// Nanoseconds from `start` to the first ack, then from each ack to
    /// the next.
    pub fn gaps_ns(&self, start: Instant) -> Vec<u64> {
        let mut prev = start;
        self.stamps
            .iter()
            .map(|&t| {
                let gap = t.duration_since(prev).as_nanos() as u64;
                prev = t;
                gap
            })
            .collect()
    }

    /// `(acks, acks saying "ok": true)`; an unterminated tail is no ack.
    pub fn verdicts(&self) -> (u64, u64) {
        let text = String::from_utf8_lossy(&self.bytes);
        let acks = self.stamps.len();
        let ok = text
            .lines()
            .take(acks)
            .filter(|l| l.contains("\"ok\": true"))
            .count();
        (acks as u64, ok as u64)
    }
}

/// The daemon configuration of the soak workloads: everything default
/// but the fabric, the replanner's thread count and, for `fault_retry`,
/// the fault rates.
pub fn daemon_config(inp: &Inputs, faults: FaultConfig, threads: usize) -> DaemonConfig {
    DaemonConfig {
        fabric: inp.fabric,
        online: online(false, threads),
        faults,
        ..DaemonConfig::default()
    }
}

/// The fault rates of `fault_retry` (those of the repository's
/// `daemon_soak` experiment), drawn from `seed`.
pub fn fault_config(seed: u64) -> FaultConfig {
    FaultConfig {
        seed: 0xdae_0002 ^ seed,
        setup_failure_per_mille: 60,
        port_flap_per_mille: 40,
        delta_inflation_per_mille: 25,
        ..FaultConfig::default()
    }
}

/// Fill the fields every daemon repetition reads off the drained daemon.
fn finish(out: &mut RepOut, daemon: &Daemon, inp: &Inputs, start: Instant) {
    out.wall_ns = start.elapsed().as_nanos() as u64;
    let done = daemon.completions().iter().map(|c| c.outcome.clone());
    let (outcomes, extra) = in_input_order(&inp.coflows, done);
    out.outcomes = outcomes;
    out.failed += extra;
    out.stats = daemon.stats();
    out.faults = daemon.fault_stats();
    out.rejected = daemon.telemetry().rejected_total();
}

/// One `soak_stream` repetition. Untraced, the daemon's own
/// `run_to_completion`; traced, a line-for-line mirror of it with a
/// span around each stage. A step is one line's ack-to-ack gap.
pub fn stream_rep(inp: &Inputs, threads: usize, probe: Option<&Arc<Probe>>) -> (RepOut, Daemon) {
    let mut out = RepOut::default();
    let mut ph = Phases::default();
    let mut sink = AckSink::default();
    let config = daemon_config(inp, FaultConfig::default(), threads);
    let start = Instant::now();
    let mut daemon = phase(probe, "daemon.service.build", 0, &mut ph.build_ns, || {
        Daemon::new(&config)
    });
    let lines = match probe {
        None => {
            let report = run_to_completion(
                &mut daemon,
                Cursor::new(inp.jsonl.as_bytes()),
                Some(&mut sink),
            )
            .expect("an in-memory stream cannot fail");
            out.events = report.events;
            report.lines
        }
        Some(_) => mirrored_loop(&mut daemon, &inp.jsonl, &mut sink, probe, &mut ph, &mut out),
    };
    finish(&mut out, &daemon, inp, start);
    out.steps_ns = sink.gaps_ns(start);
    let (acks, ok) = sink.verdicts();
    out.attempted = lines;
    // Lost acks, parse errors and rejections all leave a line without
    // an "ok" verdict.
    out.failed += lines.max(acks) - ok;
    out.phases = ph;
    (out, daemon)
}

/// `ocs_daemon::run_to_completion`, stage by stage: parse, catch the
/// clock up, submit, ack; drain at the end. Returns lines consumed.
fn mirrored_loop(
    daemon: &mut Daemon,
    jsonl: &str,
    sink: &mut AckSink,
    probe: Option<&Arc<Probe>>,
    ph: &mut Phases,
    out: &mut RepOut,
) -> u64 {
    let mut lines = 0u64;
    for (lineno, line) in jsonl.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        lines += 1;
        let req = lineno as u64 + 1;
        let parsed = phase(probe, "daemon.jsonl.parse", req, &mut ph.parse_ns, || {
            parse_line(trimmed)
        });
        let spec = match parsed {
            Ok(spec) => spec,
            Err(e) => {
                let e = e.to_string().replace('\\', "\\\\").replace('"', "\\\"");
                writeln!(
                    sink,
                    "{{\"line\": {req}, \"ok\": false, \"error\": \"{e}\"}}"
                )
                .expect("the sink cannot fail");
                continue;
            }
        };
        if let Some(t) = spec.arrival_ms.map(Time::from_millis) {
            if t > daemon.now() {
                out.events += phase(
                    probe,
                    "daemon.service.advance",
                    req,
                    &mut ph.advance_ns,
                    || daemon.advance_to(t),
                );
            }
        }
        let verdict = phase(
            probe,
            "daemon.service.submit",
            req,
            &mut ph.submit_ns,
            || daemon.submit_spec(&spec),
        );
        phase(probe, "daemon.server.ack", req, &mut ph.ack_ns, || {
            let ack = match verdict {
                Ok(()) => format!("{{\"line\": {req}, \"id\": {}, \"ok\": true}}", spec.id),
                Err(reason) => format!(
                    "{{\"line\": {req}, \"id\": {}, \"ok\": false, \"reject\": \"{reason}\"}}",
                    spec.id
                ),
            };
            writeln!(sink, "{ack}").expect("the sink cannot fail");
        });
    }
    out.events += phase(probe, "daemon.service.drain", 0, &mut ph.drain_ns, || {
        daemon.drain()
    });
    lines
}

/// Virtual time per `fault_retry` step.
const SLICE: Dur = Dur::from_millis(5);

/// One sliced repetition: arrivals submitted just in time while the
/// clock advances in 5 ms slices, then a drain (the feed of the
/// repository's `daemon_soak`). A step is one slice's `advance_to`.
pub fn sliced_rep(
    inp: &Inputs,
    faults: FaultConfig,
    threads: usize,
    probe: Option<&Arc<Probe>>,
) -> RepOut {
    let mut out = RepOut::default();
    let mut ph = Phases::default();
    let config = daemon_config(inp, faults, threads);
    let start = Instant::now();
    let mut daemon = phase(probe, "daemon.service.build", 0, &mut ph.build_ns, || {
        Daemon::new(&config)
    });
    let mut next = 0;
    let mut t = Time::ZERO;
    while next < inp.coflows.len() {
        while next < inp.coflows.len() && inp.coflows[next].arrival() <= t {
            let c = &inp.coflows[next];
            out.attempted += 1;
            let ok = phase(
                probe,
                "daemon.service.submit",
                c.id(),
                &mut ph.submit_ns,
                || daemon.submit(c.clone()).is_ok(),
            );
            out.failed += u64::from(!ok);
            next += 1;
        }
        let before = ph.advance_ns;
        let step = out.steps_ns.len() as u64;
        out.events += phase(
            probe,
            "daemon.service.advance",
            step,
            &mut ph.advance_ns,
            || daemon.advance_to(t),
        );
        out.steps_ns.push(ph.advance_ns - before);
        t += SLICE;
    }
    out.events += phase(probe, "daemon.service.drain", 0, &mut ph.drain_ns, || {
        daemon.drain()
    });
    finish(&mut out, &daemon, inp, start);
    out.phases = ph;
    out
}

/// One-off measurements on the drained `soak_stream` daemon.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceSurface {
    /// `Daemon::status_json`, median of five calls.
    pub status_json_us: f64,
    /// `Daemon::prometheus`, median of five calls.
    pub prometheus_us: f64,
    /// `Daemon::checkpoint`.
    pub checkpoint_ms: f64,
    /// `Daemon::restore` of that checkpoint (replays the command log).
    pub restore_ms: f64,
    /// The restored daemon completed what the original did.
    pub restored_alike: bool,
}

/// Time the status, metrics and checkpoint surface of `daemon`.
pub fn service_surface(daemon: &Daemon, inp: &Inputs, probe: &Arc<Probe>) -> ServiceSurface {
    let five_us = |name: &'static str, f: &dyn Fn() -> usize| {
        let samples: Vec<f64> = (0..5)
            .map(|i| {
                let mut ns = 0;
                std::hint::black_box(phase(Some(probe), name, i, &mut ns, f));
                ns as f64 / 1e3
            })
            .collect();
        median(&samples)
    };
    let status_json_us = five_us("daemon.service.status_json", &|| daemon.status_json().len());
    let prometheus_us = five_us("daemon.service.prometheus", &|| daemon.prometheus().len());
    let (mut ckpt_ns, mut restore_ns) = (0, 0);
    let ckpt = phase(
        Some(probe),
        "daemon.service.checkpoint",
        0,
        &mut ckpt_ns,
        || daemon.checkpoint(),
    );
    let restored = phase(
        Some(probe),
        "daemon.service.restore",
        0,
        &mut restore_ns,
        || Daemon::restore(&ckpt),
    );
    let outcomes = |d: &Daemon| {
        in_input_order(
            &inp.coflows,
            d.completions().iter().map(|c| c.outcome.clone()),
        )
        .0
    };
    ServiceSurface {
        status_json_us,
        prometheus_us,
        checkpoint_ms: ckpt_ns as f64 / 1e6,
        restore_ms: restore_ns as f64 / 1e6,
        restored_alike: fingerprint(&outcomes(&restored)) == fingerprint(&outcomes(daemon)),
    }
}

/// What one pass through the pipelined front end saw.
#[derive(Clone, Copy, Debug, Default)]
pub struct Pipelined {
    /// Build → `run_pipelined` → drained.
    pub wall_s: f64,
    /// Admission steps.
    pub batches: u64,
    /// Largest single batch.
    pub max_batch: u64,
    /// Blocking waits at the full channel.
    pub backpressure_waits: u64,
    /// Lines that never got a verdict.
    pub lost_acks: u64,
    /// Admission-to-schedule latency, median (histogram bucket bound).
    pub admit_p50_ns: f64,
    /// Admission-to-schedule latency, 99th percentile.
    pub admit_p99_ns: f64,
    /// Coflows that did not complete.
    pub incomplete: u64,
    /// Coflows whose outcome differs from the sequential run's. Not
    /// zero in general: how many arrivals share an admission batch
    /// depends on thread timing, and same-instant replans can order
    /// differently (a handful of 100 000 at this load).
    pub differing: u64,
}

/// Feed the stream through `run_pipelined` (reader, admission and writer
/// threads; lossless `OnFull::Wait`, capacity 512, batch 256 — the
/// settings of the repository's `daemon_scale` soak) and compare its
/// outcomes with the sequential run's.
pub fn pipelined_pass(
    inp: &Inputs,
    sequential: &[ScheduleOutcome],
    probe: &Arc<Probe>,
) -> Pipelined {
    let config = daemon_config(inp, FaultConfig::default(), REPLAN_THREADS);
    let pipeline = PipelineConfig {
        channel_capacity: 512,
        batch_max: 256,
        on_full: OnFull::Wait,
    };
    let mut sink = AckSink::default();
    let mut ns = 0;
    let (daemon, report) = phase(
        Some(probe),
        "daemon.ingest.run_pipelined",
        0,
        &mut ns,
        || {
            let mut daemon = Daemon::new(&config);
            let report = run_pipelined(
                &mut daemon,
                Cursor::new(inp.jsonl.as_bytes()),
                Some(&mut sink),
                &pipeline,
            )
            .expect("an in-memory stream cannot fail");
            (daemon, report)
        },
    );
    let done = daemon.completions().iter().map(|c| c.outcome.clone());
    let admit = |q: f64| daemon.telemetry().admit_latency.quantile(q).unwrap_or(0) as f64;
    let piped = in_input_order(&inp.coflows, done).0;
    Pipelined {
        wall_s: ns as f64 / 1e9,
        batches: report.batches,
        max_batch: report.max_batch,
        backpressure_waits: report.backpressure_waits,
        lost_acks: report.lost_acks() + (report.lines - sink.verdicts().1),
        admit_p50_ns: admit(0.50),
        admit_p99_ns: admit(0.99),
        incomplete: (inp.coflows.len() - piped.len()) as u64,
        differing: piped.iter().zip(sequential).filter(|(a, b)| a != b).count() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{find, prepare};

    #[test]
    fn ack_sink_splits_on_newlines() {
        let mut sink = AckSink::default();
        let start = Instant::now();
        sink.write_all(b"{\"ok\": true}").unwrap();
        assert_eq!(sink.verdicts(), (0, 0), "no newline yet, no ack");
        sink.write_all(b"\n").unwrap();
        sink.write_all(b"{\"ok\": false}\n{\"ok\": true}\npartial")
            .unwrap();
        assert_eq!(sink.verdicts(), (3, 2));
        let gaps = sink.gaps_ns(start);
        assert_eq!(gaps.len(), 3);
        let total: u64 = gaps.iter().sum();
        assert!(total <= start.elapsed().as_nanos() as u64);
    }

    /// A short head of the soak stream.
    fn small_stream(n: usize) -> Inputs {
        let mut inp = prepare(find("soak_stream").unwrap(), 1);
        inp.coflows.truncate(n);
        inp.jsonl = inp
            .jsonl
            .lines()
            .take(n)
            .map(|l| format!("{l}\n"))
            .collect();
        inp
    }

    #[test]
    fn mirrored_loop_replays_the_daemons_own() {
        let inp = small_stream(400);
        let (own, _) = stream_rep(&inp, REPLAN_THREADS, None);
        let probe = Arc::new(Probe::default());
        let (mirror, daemon) = stream_rep(&inp, REPLAN_THREADS, Some(&probe));
        assert_eq!(fingerprint(&own.outcomes), fingerprint(&mirror.outcomes));
        assert_eq!((own.attempted, own.failed), (400, 0));
        assert_eq!((mirror.attempted, mirror.failed), (400, 0));
        assert_eq!(own.steps_ns.len(), 400);
        assert_eq!(own.events, mirror.events);

        let piped = pipelined_pass(&inp, &own.outcomes, &probe);
        assert_eq!((piped.lost_acks, piped.incomplete), (0, 0));
        assert!(piped.differing <= 400);
        assert!(service_surface(&daemon, &inp, &probe).restored_alike);
    }

    #[test]
    fn faults_retry_and_only_delay() {
        let inp = small_stream(2_000);
        let clean = sliced_rep(&inp, FaultConfig::default(), REPLAN_THREADS, None);
        let faulted = sliced_rep(&inp, fault_config(0), REPLAN_THREADS, None);
        assert_eq!(clean.outcomes.len(), 2_000);
        assert_eq!(faulted.outcomes.len(), 2_000);
        assert_eq!(clean.faults.retries, 0);
        assert!(faulted.faults.retries > 0);
        let mean = |o: &RepOut| {
            o.outcomes
                .iter()
                .map(|x| x.finish.since(x.start).as_secs_f64())
                .sum::<f64>()
        };
        assert!(mean(&faulted) >= mean(&clean));
    }
}
