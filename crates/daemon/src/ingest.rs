//! Pipelined arrival ingestion: a bounded admission channel with typed
//! backpressure, in front of the synchronous scheduling core.
//!
//! [`run_to_completion`](crate::server::run_to_completion) parses,
//! advances and submits one line at a time on one thread — correct, but
//! the scheduler sits idle while JSON parses and the parser sits idle
//! while circuits plan. [`run_pipelined`] splits the work across three
//! stages connected by channels:
//!
//! ```text
//!  reader thread          admission loop (caller's thread)   writer thread
//!  ─────────────          ────────────────────────────────   ─────────────
//!  parse JSONL ──bounded──▶ admit what the channel holds, ──▶ ack mux
//!  lines        channel     then run the clock once          (re-orders
//!  (typed backpressure      (the only thread touching the     acks to
//!   when full)               Daemon)                          line order)
//! ```
//!
//! * The admission channel is **bounded** ([`PipelineConfig::channel_capacity`]).
//!   When it fills, [`OnFull::Reject`] refuses the line with a typed
//!   [`RejectReason::Backpressure`] ack — explicit load shedding instead
//!   of a silent stall — while [`OnFull::Wait`] blocks the reader
//!   (lossless, for file replay).
//! * Each admission step takes the lines the channel holds (at most its
//!   capacity), admits them in order with [`Daemon::ingest_ahead`], then
//!   advances once to the clock they raised. A line gets the verdict the
//!   sequential loop's step ([`Daemon::ingest`]) gives it, and the
//!   daemon then runs the events before each arrival instant as the
//!   sequential loop does, only with the step's later arrivals already
//!   queued, so the scheduler can plan each Coflow up to the next
//!   arrival. How the reader's timing cuts the stream into steps changes
//!   the planning work, not an ack or an outcome: with [`OnFull::Wait`]
//!   both are the sequential loop's for any input and channel capacity
//!   (`pipelined_matches_sequential_replay` below pins it).
//! * Acks from both stages are re-sequenced to input-line order by an
//!   `AckMux` min-heap on the writer thread, so clients still read one
//!   verdict per line, in order, with no line lost.
//!
//! Wall-clock **admission-to-schedule latency** (channel enqueue →
//! backend submission) is recorded per admitted Coflow into
//! [`Telemetry::admit_latency`](crate::service::Telemetry::admit_latency)
//! (p50/p99/p999 in the status dump and `BENCH_daemon.json`).

use crate::jsonl::{parse_line, ArrivalSpec};
use crate::service::{Daemon, RejectReason};
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
    /// Unused: an admission step takes at most `channel_capacity` lines.
    /// The field stays because the `benchmark/` crate still sets it.
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
    /// Admission steps (batches taken off the channel).
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
/// With [`OnFull::Wait`] this acks and schedules byte-identically to the
/// sequential loop (its planning work counters may differ); under load
/// the bounded channel sheds (with [`OnFull::Reject`]) instead of
/// stalling silently.
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

        // The admission loop: the only stage touching the daemon. It
        // admits what the channel holds, then runs the clock once.
        let mut batch = Vec::with_capacity(capacity);
        while let Ok(first) = rx.recv() {
            batch.push(first);
            batch.extend(rx.try_iter().take(capacity - 1));
            report.batches += 1;
            report.max_batch = report.max_batch.max(batch.len() as u64);
            for env in batch.drain(..) {
                let (events, verdict) = daemon.ingest_ahead(&env.spec);
                report.events += events;
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
            report.events += daemon.advance_to(daemon.now());
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

    fn config() -> DaemonConfig {
        DaemonConfig {
            fabric: Fabric::new(4, Bandwidth::GBPS, Dur::from_micros(20)),
            ..DaemonConfig::default()
        }
    }

    fn daemon() -> Daemon {
        Daemon::new(&config())
    }

    /// A trace exercising accepts, duplicate rejects, parse errors, an
    /// out-of-order line, a run of same-instant lines longer than a
    /// small batch, and clockless lines.
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
                // Behind the clock the line before raised: in the past.
                out.push_str(&format!(
                    "{{\"id\": {}, \"arrival_ms\": {}, \"flows\": [[1, 2, 1000]]}}\n",
                    10 * n,
                    i * 2 - 3
                ));
                // Six arrivals at one instant, then one at the clock.
                for k in 1..=6 {
                    out.push_str(&format!(
                        "{{\"id\": {}, \"arrival_ms\": {}, \"flows\": [[{}, {}, 300000]]}}\n",
                        10 * n + k,
                        i * 2 + 1,
                        k % 4,
                        (k + 2) % 4,
                    ));
                }
                out.push_str(&format!(
                    "{{\"id\": {}, \"flows\": [[3, 1, 250000]]}}\n",
                    10 * n + 7
                ));
            }
        }
        out.push_str("{\"id\": 1, \"arrival_ms\": 999, \"flows\": [[0, 1, 1]]}\n"); // duplicate
        out.push_str("definitely not json\n");
        out.push_str(&format!("{{\"id\": {n}, \"flows\": [[2, 0, 500000]]}}\n")); // at the clock
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
        let outcomes = |d: &Daemon| {
            d.completions()
                .iter()
                .map(|c| c.outcome.clone())
                .collect::<Vec<_>>()
        };
        // The default caps never bind on this trace; tight ones bind, so
        // the pipelined loop must run the clock before those verdicts.
        let mut tight = config();
        tight.admission.max_queue_depth = 5;
        tight.admission.max_outstanding = Dur::from_millis(45);
        for (caps, config) in [("default caps", config()), ("tight caps", tight)] {
            let mut seq_daemon = Daemon::new(&config);
            let mut seq_acks: Vec<u8> = Vec::new();
            let seq = run_to_completion(
                &mut seq_daemon,
                Cursor::new(input.clone()),
                Some(&mut seq_acks as &mut dyn Write),
            )
            .unwrap();
            let seq_acks = String::from_utf8(seq_acks).unwrap();
            // Every ack shape is in the stream, each formatted once.
            assert_eq!(
                seq_acks.matches("\"ok\": true").count() as u64,
                seq.accepted
            );
            assert_eq!(seq_acks.matches("\"reject\": \"duplicate_id\"").count(), 2);
            assert_eq!(
                seq_acks.matches("\"reject\": \"arrival_in_past\"").count(),
                1
            );
            assert_eq!(seq_acks.matches("\"error\": ").count(), 2);
            let capped = seq_acks.matches("\"reject\": \"queue_full\"").count()
                + seq_acks.matches("\"reject\": \"demand_cap\"").count();
            assert_eq!(capped > 0, caps == "tight caps", "{caps}: {capped} capped");

            // A one-slot channel forces real hand-off and steps of one
            // line, which split the same-instant run at every line; deeper
            // ones let the reader run ahead. `Wait` keeps all lossless.
            for channel_capacity in [1, 4, 1_024] {
                let label = format!("{caps}, capacity {channel_capacity}");
                let mut pipe_daemon = Daemon::new(&config);
                let mut pipe_acks: Vec<u8> = Vec::new();
                let cfg = PipelineConfig {
                    channel_capacity,
                    on_full: OnFull::Wait,
                    ..PipelineConfig::default()
                };
                let pipe = run_pipelined(
                    &mut pipe_daemon,
                    Cursor::new(input.clone()),
                    Some(&mut pipe_acks),
                    &cfg,
                )
                .unwrap();

                assert_eq!(pipe.lines, seq.lines, "{label}");
                assert_eq!(pipe.parse_errors, seq.parse_errors, "{label}");
                assert_eq!(pipe.accepted, seq.accepted, "{label}");
                assert_eq!(pipe.rejected, seq.rejected, "{label}");
                assert_eq!(pipe.events, seq.events, "{label}");
                assert_eq!(pipe.lost_acks(), 0, "{label}");
                assert_eq!(String::from_utf8(pipe_acks).unwrap(), seq_acks, "{label}");
                assert_eq!(outcomes(&pipe_daemon), outcomes(&seq_daemon), "{label}");
                assert_eq!(
                    pipe_daemon.telemetry().admit_latency.count(),
                    pipe.accepted,
                    "{label}: one admission latency sample per accepted coflow"
                );
            }
            assert_eq!(seq_daemon.telemetry().admit_latency.count(), 0);
        }
    }

    #[test]
    fn full_channel_sheds_with_typed_backpressure_and_drains_clean() {
        // A single-slot channel, so single-line steps, in front of a
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
            on_full: OnFull::Reject,
            ..PipelineConfig::default()
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
            on_full: OnFull::Wait,
            ..PipelineConfig::default()
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
