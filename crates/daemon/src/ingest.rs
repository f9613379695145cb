//! Pipelined arrival ingestion: a bounded admission channel with typed
//! backpressure and batched submission, in front of the synchronous
//! scheduling core.
//!
//! [`run_to_completion`](crate::server::run_to_completion) parses,
//! submits and advances one line at a time on one thread — correct, but
//! the scheduler sits idle while JSON parses and the parser sits idle
//! while circuits plan. [`run_pipelined`] splits the work across three
//! stages connected by channels:
//!
//! ```text
//!  reader thread          admission loop (caller's thread)   writer thread
//!  ─────────────          ────────────────────────────────   ─────────────
//!  parse JSONL ──bounded──▶ drain batch ▶ submit ▶ advance ──▶ ack mux
//!  lines        channel     (the only thread touching the     (re-orders
//!  (typed backpressure       Daemon — scheduling stays         acks to
//!   when full)               synchronous + deterministic)      line order)
//! ```
//!
//! * The admission channel is **bounded** ([`PipelineConfig::channel_capacity`]).
//!   When it fills, [`OnFull::Reject`] refuses the line with a typed
//!   [`RejectReason::Backpressure`] ack — explicit load shedding instead
//!   of a silent stall — while [`OnFull::Wait`] blocks the reader
//!   (lossless, for file replay).
//! * The admission loop drains the channel in **batches** (up to
//!   [`PipelineConfig::batch_max`] per step), submits every arrival in
//!   stream order, then advances the virtual clock once per batch.
//!   Backends queue future arrivals internally and process them at their
//!   arrival instants, so batch-submit-then-advance replays byte-identically
//!   to the one-line-at-a-time loop on ordered traces (the engine's
//!   batch entry points rely on the same property); `pipelined_matches_
//!   sequential_replay` below pins it.
//! * Acks from both stages are re-sequenced to input-line order by an
//!   `AckMux` min-heap on the writer thread, so clients still read one
//!   verdict per line, in order, with no line lost.
//!
//! One semantic difference from the sequential loop, by design: the
//! clock advances per batch, not per line, so a line whose `arrival_ms`
//! precedes an *earlier line in the same batch* is admitted at its own
//! arrival instant instead of being rejected as `arrival_in_past` — a
//! bounded out-of-order tolerance window of one batch.
//!
//! Wall-clock **admission-to-schedule latency** (channel enqueue →
//! backend submission) is recorded per admitted Coflow into
//! [`Telemetry::admit_latency`](crate::service::Telemetry::admit_latency)
//! (p50/p99/p999 in the status dump and `BENCH_daemon.json`).

use crate::jsonl::{parse_line, ArrivalSpec};
use crate::service::{Daemon, RejectReason};
use ocs_model::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{BufRead, Write};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, TrySendError};
use std::time::Instant;

/// What to do when the bounded admission channel is full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OnFull {
    /// Refuse the arrival with a typed [`RejectReason::Backpressure`]
    /// ack — explicit load shedding for live feeds.
    #[default]
    Reject,
    /// Block the reader until the admission loop catches up — lossless
    /// replay for files and benchmarks (the wait is still counted).
    Wait,
}

/// Tuning for [`run_pipelined`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Bound of the admission channel (arrivals parsed but not yet
    /// submitted). The backpressure threshold.
    pub channel_capacity: usize,
    /// Most arrivals submitted per admission step before the clock
    /// advances.
    pub batch_max: usize,
    /// Full-channel policy.
    pub on_full: OnFull,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            channel_capacity: 1_024,
            batch_max: 256,
            on_full: OnFull::Reject,
        }
    }
}

/// What a [`run_pipelined`] pass saw.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineReport {
    /// Non-blank input lines consumed.
    pub lines: u64,
    /// Lines that failed to parse.
    pub parse_errors: u64,
    /// Coflows admitted.
    pub accepted: u64,
    /// Submissions refused by admission control (excluding backpressure).
    pub rejected: u64,
    /// Arrivals refused at the full channel ([`OnFull::Reject`]).
    pub backpressure_rejects: u64,
    /// Blocking waits at the full channel ([`OnFull::Wait`]).
    pub backpressure_waits: u64,
    /// Acks written (or counted, without an ack sink).
    pub acked: u64,
    /// Admission steps (batches drained from the channel).
    pub batches: u64,
    /// Largest single batch.
    pub max_batch: u64,
    /// Scheduling events processed, including the graceful drain.
    pub events: u64,
}

impl PipelineReport {
    /// Lines that never received a verdict — always zero: every consumed
    /// line is acked exactly once (parse error, backpressure, accept or
    /// reject).
    pub fn lost_acks(&self) -> u64 {
        self.lines.saturating_sub(self.acked)
    }
}

/// One parsed arrival in flight between the reader and the admission
/// loop.
struct Envelope {
    /// Ack sequence number (dense, line order).
    seq: u64,
    /// 1-based input line number, for the ack.
    lineno: u64,
    spec: ArrivalSpec,
    /// When the arrival entered the channel — the admission-to-schedule
    /// latency clock starts here.
    enqueued: Instant,
}

/// Re-sequences acks to input-line order: acks arrive keyed by a dense
/// `seq` from two producers (reader and admission loop) and are written
/// as soon as the next-in-order ack is present.
struct AckMux {
    next: u64,
    heap: BinaryHeap<Reverse<(u64, String)>>,
}

impl AckMux {
    fn new() -> AckMux {
        AckMux {
            next: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// Buffer `(seq, line)` and write every now-contiguous ack. Returns
    /// how many lines were written.
    fn push(&mut self, seq: u64, line: String, out: &mut dyn Write) -> std::io::Result<u64> {
        self.heap.push(Reverse((seq, line)));
        let mut written = 0u64;
        while self
            .heap
            .peek()
            .is_some_and(|Reverse((s, _))| *s == self.next)
        {
            let Reverse((_, l)) = self.heap.pop().expect("peeked");
            writeln!(out, "{l}")?;
            self.next += 1;
            written += 1;
        }
        if written > 0 {
            out.flush()?;
        }
        Ok(written)
    }
}

/// What the reader thread tallied.
#[derive(Default)]
struct ReaderStats {
    lines: u64,
    parse_errors: u64,
    backpressure_rejects: u64,
    backpressure_waits: u64,
}

/// The ack of a line that failed to parse; both ingestion loops send it.
pub(crate) fn error_ack(lineno: u64, err: &str) -> String {
    format!(
        "{{\"line\": {}, \"ok\": false, \"error\": \"{}\"}}",
        lineno,
        err.replace('\\', "\\\\").replace('"', "\\\""),
    )
}

/// The ack of a parsed line: admitted, or rejected with its reason.
pub(crate) fn verdict_ack(lineno: u64, id: u64, verdict: Result<(), RejectReason>) -> String {
    match verdict {
        Ok(()) => format!("{{\"line\": {lineno}, \"id\": {id}, \"ok\": true}}"),
        Err(reason) => {
            format!("{{\"line\": {lineno}, \"id\": {id}, \"ok\": false, \"reject\": \"{reason}\"}}")
        }
    }
}

/// Parse lines off `input`, pushing envelopes into the bounded channel
/// and acking parse errors / backpressure rejects directly.
fn read_lines(
    input: impl BufRead,
    tx: &std::sync::mpsc::SyncSender<Envelope>,
    acks: &Sender<(u64, String)>,
    on_full: OnFull,
) -> std::io::Result<ReaderStats> {
    let mut stats = ReaderStats::default();
    let mut seq = 0u64;
    for (idx, line) in input.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        stats.lines += 1;
        let lineno = idx as u64 + 1;
        let spec = match parse_line(trimmed) {
            Ok(spec) => spec,
            Err(e) => {
                stats.parse_errors += 1;
                let _ = acks.send((seq, error_ack(lineno, &e.to_string())));
                seq += 1;
                continue;
            }
        };
        let mut env = Envelope {
            seq,
            lineno,
            spec,
            enqueued: Instant::now(),
        };
        match tx.try_send(env) {
            Ok(()) => {}
            Err(TrySendError::Disconnected(_)) => break,
            Err(TrySendError::Full(returned)) => match on_full {
                OnFull::Reject => {
                    stats.backpressure_rejects += 1;
                    let _ = acks.send((
                        seq,
                        verdict_ack(lineno, returned.spec.id, Err(RejectReason::Backpressure)),
                    ));
                }
                OnFull::Wait => {
                    stats.backpressure_waits += 1;
                    env = returned;
                    env.enqueued = Instant::now();
                    if tx.send(env).is_err() {
                        break;
                    }
                }
            },
        }
        seq += 1;
    }
    Ok(stats)
}

/// Drain acks into `out` (when given), restoring line order. Returns the
/// number of acks seen.
fn write_acks(rx: Receiver<(u64, String)>, out: Option<&mut dyn Write>) -> std::io::Result<u64> {
    let mut acked = 0u64;
    match out {
        Some(out) => {
            let mut mux = AckMux::new();
            let mut written = 0u64;
            for (seq, line) in rx {
                acked += 1;
                written += mux.push(seq, line, out)?;
            }
            debug_assert_eq!(written, acked, "every ack seq is dense and written");
        }
        None => {
            for _ in rx {
                acked += 1;
            }
        }
    }
    Ok(acked)
}

/// Feed every line of `input` to `daemon` through the bounded pipelined
/// front end, ack each line on `ack_out` (in input order), then drain
/// gracefully. Blank lines and `#` comments are skipped, as in
/// [`run_to_completion`](crate::server::run_to_completion).
///
/// On an ordered fault-free trace this replays byte-identically to the
/// sequential loop; under load the bounded channel sheds (or, with
/// [`OnFull::Wait`], paces) the producer instead of stalling silently.
pub fn run_pipelined<R, W>(
    daemon: &mut Daemon,
    input: R,
    ack_out: Option<&mut W>,
    config: &PipelineConfig,
) -> std::io::Result<PipelineReport>
where
    R: BufRead + Send,
    W: Write + Send,
{
    let capacity = config.channel_capacity.max(1);
    let batch_max = config.batch_max.max(1);
    let (tx, rx) = sync_channel::<Envelope>(capacity);
    let (ack_tx, ack_rx) = channel::<(u64, String)>();
    let on_full = config.on_full;

    let mut report = PipelineReport::default();
    let (reader_out, writer_out) = std::thread::scope(|scope| {
        let reader_acks = ack_tx.clone();
        let reader = scope.spawn(move || {
            let stats = read_lines(input, &tx, &reader_acks, on_full);
            drop(tx); // disconnect: the admission loop finishes its drain
            stats
        });
        let writer = scope.spawn(move || write_acks(ack_rx, ack_out.map(|w| w as &mut dyn Write)));

        // The admission loop: the only stage touching the daemon.
        let mut stream_clock = daemon.now();
        let mut batch = Vec::with_capacity(batch_max);
        while let Ok(first) = rx.recv() {
            batch.push(first);
            while batch.len() < batch_max {
                match rx.try_recv() {
                    Ok(env) => batch.push(env),
                    Err(_) => break,
                }
            }
            report.batches += 1;
            report.max_batch = report.max_batch.max(batch.len() as u64);
            for env in batch.drain(..) {
                if let Some(ms) = env.spec.arrival_ms {
                    stream_clock = stream_clock.max(Time::from_millis(ms));
                }
                let verdict = daemon.submit(env.spec.to_coflow(stream_clock));
                match verdict {
                    Ok(()) => {
                        report.accepted += 1;
                        daemon.record_admit_latency_ns(
                            u64::try_from(env.enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX),
                        );
                    }
                    Err(_) => report.rejected += 1,
                }
                let _ = ack_tx.send((env.seq, verdict_ack(env.lineno, env.spec.id, verdict)));
            }
            if stream_clock > daemon.now() {
                report.events += daemon.advance_to(stream_clock);
            }
        }
        drop(ack_tx); // last sender: the writer drains and exits
        (
            reader.join().expect("reader"),
            writer.join().expect("writer"),
        )
    });

    let stats = reader_out?;
    report.lines = stats.lines;
    report.parse_errors = stats.parse_errors;
    report.backpressure_rejects = stats.backpressure_rejects;
    report.backpressure_waits = stats.backpressure_waits;
    daemon.note_backpressure(stats.backpressure_rejects);
    report.acked = writer_out?;
    report.events += daemon.drain();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::run_to_completion;
    use crate::service::{Daemon, DaemonConfig};
    use ocs_model::{Bandwidth, Dur, Fabric};
    use std::io::Cursor;

    fn daemon() -> Daemon {
        Daemon::new(&DaemonConfig {
            fabric: Fabric::new(4, Bandwidth::GBPS, Dur::from_micros(20)),
            ..DaemonConfig::default()
        })
    }

    /// An ordered trace exercising accepts, duplicate rejects, parse
    /// errors and a clockless line.
    fn trace(n: u64) -> String {
        let mut out = String::from("# pipelined ingest test trace\n");
        for i in 0..n {
            out.push_str(&format!(
                "{{\"id\": {}, \"arrival_ms\": {}, \"flows\": [[{}, {}, {}]]}}\n",
                i,
                i * 2,
                i % 4,
                (i + 1) % 4,
                200_000 + i * 1_000,
            ));
            if i == n / 2 {
                // Mid-stream, while Coflow `i` is still queued.
                out.push_str(&format!(
                    "{{\"id\": {i}, \"arrival_ms\": {}, \"flows\": [[0, 1, 1]]}}\n",
                    i * 2
                ));
                out.push_str("{\"id\": 7, \"flows\": [[0, 1, 1]\n");
            }
        }
        out.push_str("{\"id\": 1, \"arrival_ms\": 999, \"flows\": [[0, 1, 1]]}\n"); // duplicate
        out.push_str("definitely not json\n");
        out.push_str(&format!("{{\"id\": {n}, \"flows\": [[2, 0, 500000]]}}\n")); // stream clock
        out
    }

    #[test]
    fn ack_mux_restores_line_order() {
        let mut out = Vec::new();
        let mut mux = AckMux::new();
        assert_eq!(mux.push(2, "c".into(), &mut out).unwrap(), 0);
        assert_eq!(mux.push(1, "b".into(), &mut out).unwrap(), 0);
        assert!(out.is_empty(), "nothing until seq 0 lands");
        assert_eq!(mux.push(0, "a".into(), &mut out).unwrap(), 3);
        assert_eq!(mux.push(3, "d".into(), &mut out).unwrap(), 1);
        assert_eq!(String::from_utf8(out).unwrap(), "a\nb\nc\nd\n");
    }

    #[test]
    fn pipelined_matches_sequential_replay() {
        let input = trace(40);

        let mut seq_daemon = daemon();
        let mut seq_acks: Vec<u8> = Vec::new();
        let seq = run_to_completion(
            &mut seq_daemon,
            Cursor::new(input.clone()),
            Some(&mut seq_acks as &mut dyn Write),
        )
        .unwrap();

        let mut pipe_daemon = daemon();
        let mut pipe_acks: Vec<u8> = Vec::new();
        // A tiny channel forces real hand-off (Wait keeps it lossless).
        let cfg = PipelineConfig {
            channel_capacity: 2,
            batch_max: 4,
            on_full: OnFull::Wait,
        };
        let pipe = run_pipelined(
            &mut pipe_daemon,
            Cursor::new(input),
            Some(&mut pipe_acks),
            &cfg,
        )
        .unwrap();

        assert_eq!(pipe.lines, seq.lines);
        assert_eq!(pipe.parse_errors, seq.parse_errors);
        assert_eq!(pipe.accepted, seq.accepted);
        assert_eq!(pipe.rejected, seq.rejected);
        assert_eq!(pipe.lost_acks(), 0);
        // Ack streams are identical line for line, in all three shapes:
        // nothing lost, nothing reordered, each shape formatted once.
        let seq_acks = String::from_utf8(seq_acks).unwrap();
        assert_eq!(
            seq_acks.matches("\"ok\": true").count() as u64,
            seq.accepted
        );
        assert_eq!(seq_acks.matches("\"reject\": \"duplicate_id\"").count(), 2);
        assert_eq!(seq_acks.matches("\"error\": ").count(), 2);
        assert_eq!(String::from_utf8(pipe_acks).unwrap(), seq_acks);
        // And the schedules are byte-identical: batch-submit-then-advance
        // queues future arrivals exactly as the per-line loop does.
        let key = |d: &Daemon| {
            d.completions()
                .iter()
                .map(|c| c.outcome.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&pipe_daemon), key(&seq_daemon));
        assert_eq!(
            pipe_daemon.telemetry().admit_latency.count(),
            pipe.accepted,
            "one admission latency sample per accepted coflow"
        );
        assert_eq!(seq_daemon.telemetry().admit_latency.count(), 0);
    }

    #[test]
    fn full_channel_sheds_with_typed_backpressure_and_drains_clean() {
        // A single-slot channel and single-arrival batches in front of a
        // producer with zero per-line cost: the reader outruns admission
        // (which plans real circuits per accept), so the channel fills.
        let mut d = daemon();
        let mut acks: Vec<u8> = Vec::new();
        let input: String = (0..4_000)
            .map(|i| {
                format!(
                    "{{\"id\": {}, \"arrival_ms\": {}, \"flows\": [[{}, {}, 400000]]}}\n",
                    i,
                    i / 8,
                    i % 4,
                    (i + 1) % 4,
                )
            })
            .collect();
        let cfg = PipelineConfig {
            channel_capacity: 1,
            batch_max: 1,
            on_full: OnFull::Reject,
        };
        let report = run_pipelined(&mut d, Cursor::new(input), Some(&mut acks), &cfg).unwrap();

        assert_eq!(report.lines, 4_000);
        assert!(
            report.backpressure_rejects > 0,
            "a full channel must shed: {report:?}"
        );
        // Exactly one verdict per line — nothing dropped, nothing double-acked.
        assert_eq!(
            report.accepted + report.rejected + report.backpressure_rejects,
            report.lines
        );
        assert_eq!(report.lost_acks(), 0);
        let acks = String::from_utf8(acks).unwrap();
        assert_eq!(acks.lines().count() as u64, report.lines);
        assert!(acks.contains("\"reject\": \"backpressure\""));
        // Acks come back in input-line order despite two producers.
        let linenos: Vec<u64> = acks
            .lines()
            .map(|l| {
                let rest = l.strip_prefix("{\"line\": ").unwrap();
                rest[..rest.find(',').unwrap()].parse().unwrap()
            })
            .collect();
        assert!(linenos.windows(2).all(|w| w[0] < w[1]), "line order");
        // The daemon's reject counters carry the shed arrivals.
        assert_eq!(
            d.telemetry().rejected[RejectReason::Backpressure.index()],
            report.backpressure_rejects
        );
        // Drain-after-pressure: every admitted coflow completed.
        assert!(d.is_idle());
        assert_eq!(d.telemetry().completed, report.accepted);
    }

    #[test]
    fn wait_mode_is_lossless_in_stream_order() {
        let n = 600u64;
        let input: String = (0..n)
            .map(|i| {
                format!(
                    "{{\"id\": {}, \"arrival_ms\": {}, \"flows\": [[{}, {}, 300000]]}}\n",
                    i,
                    i * 3,
                    i % 4,
                    (i + 2) % 4,
                )
            })
            .collect();
        let mut d = daemon();
        let cfg = PipelineConfig {
            channel_capacity: 2,
            batch_max: 8,
            on_full: OnFull::Wait,
        };
        let report = run_pipelined(&mut d, Cursor::new(input), None::<&mut Vec<u8>>, &cfg).unwrap();
        // Lossless: every line admitted (strictly increasing arrivals can
        // only be rejected if the pipeline reordered or dropped them).
        assert_eq!(report.accepted, n);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.backpressure_rejects, 0);
        assert_eq!(report.lost_acks(), 0);
        assert_eq!(d.telemetry().completed, n);
        assert!(report.batches > 0 && report.max_batch >= 1);
    }
}
