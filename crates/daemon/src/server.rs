//! Arrival ingestion: drive a [`Daemon`] from a JSONL stream.
//!
//! The service reads one [`crate::jsonl::ArrivalSpec`] per line from any
//! `BufRead` — a file, stdin, or a TCP connection — and acknowledges
//! each line with a one-line JSON verdict (`ok`, `reject` + reason, or
//! `error` for unparseable input). Lines are the clock: a line first
//! advances the daemon through every event before its `arrival_ms`
//! (settling circuits and retrying faulted flows on the way), and the
//! events at that instant wait for a later line, so they run with every
//! line of the instant admitted ([`Daemon::ingest`]). A trace file thus
//! replays exactly as the batch replay of its Coflows, and as a live
//! feed would. EOF triggers a graceful drain — the daemon runs until
//! every admitted Coflow completes, then reports.
//!
//! Two ingestion loops share that protocol and its admission step:
//!
//! * [`run_to_completion`] — the synchronous reference path: parse,
//!   advance, submit, ack, one line at a time on one thread.
//! * [`crate::ingest::run_pipelined`] — the high-throughput path: a
//!   reader thread parsing into a bounded admission channel with typed
//!   backpressure, acks re-sequenced to line order. It admits the same
//!   lines with the same step, so its acks and outcomes are the
//!   sequential loop's.
//!
//! [`TcpServer`] is the front door: bind first (so the bound address is
//! known before any client connects), then serve connections one at a
//! time through either loop ([`IngestMode`]). A [`ShutdownHandle`]
//! stops the accept loop by flagging and then *connecting to wake it* —
//! no sleep-polling anywhere, so shutdown latency is bounded by the
//! kernel's accept queue, not a timer.

use crate::ingest::{error_ack, run_pipelined, verdict_ack, PipelineConfig};
use crate::jsonl::parse_line;
use crate::service::Daemon;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// What an ingestion pass saw.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Non-blank input lines consumed.
    pub lines: u64,
    /// Lines that failed to parse.
    pub parse_errors: u64,
    /// Coflows admitted.
    pub accepted: u64,
    /// Submissions refused by admission control.
    pub rejected: u64,
    /// Arrivals shed at the full admission channel (pipelined mode with
    /// [`crate::ingest::OnFull::Reject`]; always zero on the sequential
    /// path).
    pub backpressure: u64,
    /// Scheduling events processed, including the graceful drain.
    pub events: u64,
}

impl ServeReport {
    fn absorb(&mut self, other: ServeReport) {
        self.lines += other.lines;
        self.parse_errors += other.parse_errors;
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.backpressure += other.backpressure;
        self.events += other.events;
    }
}

impl From<crate::ingest::PipelineReport> for ServeReport {
    fn from(p: crate::ingest::PipelineReport) -> ServeReport {
        ServeReport {
            lines: p.lines,
            parse_errors: p.parse_errors,
            accepted: p.accepted,
            rejected: p.rejected,
            backpressure: p.backpressure_rejects,
            events: p.events,
        }
    }
}

fn ack(out: &mut Option<&mut dyn Write>, line: &str) -> std::io::Result<()> {
    if let Some(w) = out.as_deref_mut() {
        writeln!(w, "{line}")?;
        w.flush()?;
    }
    Ok(())
}

/// Feed every line of `input` to `daemon`, ack each on `ack_out`, then
/// drain gracefully. Blank lines and `#` comments are skipped. Returns
/// the pass's [`ServeReport`]; the daemon retains all telemetry and
/// completions for status dumps afterwards.
pub fn run_to_completion(
    daemon: &mut Daemon,
    input: impl BufRead,
    mut ack_out: Option<&mut dyn Write>,
) -> std::io::Result<ServeReport> {
    let mut report = ServeReport::default();
    for (idx, line) in input.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        report.lines += 1;
        let lineno = idx as u64 + 1;
        let spec = match parse_line(trimmed) {
            Ok(spec) => spec,
            Err(e) => {
                report.parse_errors += 1;
                ack(&mut ack_out, &error_ack(lineno, &e.to_string()))?;
                continue;
            }
        };
        let (events, verdict) = daemon.ingest(&spec);
        report.events += events;
        match verdict {
            Ok(()) => report.accepted += 1,
            Err(_) => report.rejected += 1,
        }
        ack(&mut ack_out, &verdict_ack(lineno, spec.id, verdict))?;
    }
    report.events += daemon.drain();
    Ok(report)
}

/// Which ingestion loop a [`TcpServer`] runs per connection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IngestMode {
    /// [`run_to_completion`]: one line at a time, strict per-line clock.
    #[default]
    Sequential,
    /// [`run_pipelined`] with the given tuning: bounded channel, typed
    /// backpressure, batched admission.
    Pipelined(PipelineConfig),
}

/// Stops a [`TcpServer`]'s accept loop: sets the stop flag, then opens a
/// throwaway connection to the listener so the blocking `accept` returns
/// immediately. No polling, no timers — shutdown is event-driven.
#[derive(Clone, Debug)]
pub struct ShutdownHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Request shutdown and wake the accept loop.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // The wake-up call: accept() unblocks, sees the flag, exits.
        // A failure here only means the listener is already gone.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A bound JSONL-over-TCP front door for a [`Daemon`].
///
/// Binding is separate from serving, so callers (and tests) learn the
/// actual address — including an OS-assigned port from `"…:0"` —
/// *before* any client tries to connect: no connect-retry loops, no
/// sleeps. Connections are served strictly one at a time because the
/// daemon's virtual clock is single-stream by construction.
#[derive(Debug)]
pub struct TcpServer {
    listener: TcpListener,
    stop: Arc<AtomicBool>,
}

impl TcpServer {
    /// Bind the listener. The port is open (clients may connect and
    /// queue) from here on.
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<TcpServer> {
        Ok(TcpServer {
            listener: TcpListener::bind(addr)?,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (resolves `"…:0"` to the real port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops [`TcpServer::serve`] /
    /// [`TcpServer::serve_one`] from another thread.
    pub fn shutdown_handle(&self) -> std::io::Result<ShutdownHandle> {
        Ok(ShutdownHandle {
            addr: self.local_addr()?,
            stop: Arc::clone(&self.stop),
        })
    }

    /// Accept and serve one connection: read JSONL arrivals, write
    /// per-line acks back, drain on EOF, then send the daemon's status
    /// JSON as the final line. Returns `Ok(None)` if a
    /// [`ShutdownHandle`] fired instead of a client connecting.
    pub fn serve_one(
        &self,
        daemon: &mut Daemon,
        mode: IngestMode,
    ) -> std::io::Result<Option<ServeReport>> {
        if self.stop.load(Ordering::SeqCst) {
            return Ok(None);
        }
        let (stream, _peer) = self.listener.accept()?;
        if self.stop.load(Ordering::SeqCst) {
            // The accepted "client" is the shutdown wake-up call.
            return Ok(None);
        }
        let reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        let report = match mode {
            IngestMode::Sequential => run_to_completion(daemon, reader, Some(&mut writer))?,
            IngestMode::Pipelined(cfg) => {
                run_pipelined(daemon, reader, Some(&mut writer), &cfg)?.into()
            }
        };
        writeln!(writer, "{}", daemon.status_json())?;
        writer.flush()?;
        Ok(Some(report))
    }

    /// Serve connections back to back until a [`ShutdownHandle`] fires,
    /// returning the reports summed over every connection.
    pub fn serve(&self, daemon: &mut Daemon, mode: IngestMode) -> std::io::Result<ServeReport> {
        let mut total = ServeReport::default();
        while let Some(report) = self.serve_one(daemon, mode)? {
            total.absorb(report);
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::DaemonConfig;
    use ocs_model::{Bandwidth, Dur, Fabric, Time};
    use std::io::Cursor;

    fn daemon() -> Daemon {
        Daemon::new(&DaemonConfig {
            fabric: Fabric::new(4, Bandwidth::GBPS, Dur::from_micros(20)),
            ..DaemonConfig::default()
        })
    }

    #[test]
    fn stream_replay_acks_and_drains() {
        let trace = "\
# demo trace
{\"id\": 0, \"arrival_ms\": 0, \"flows\": [[0, 1, 1000000]]}

{\"id\": 1, \"arrival_ms\": 5, \"flows\": [[1, 2, 2000000], [2, 3, 500000]]}
{\"id\": 1, \"arrival_ms\": 6, \"flows\": [[0, 1, 1]]}
not json at all
{\"id\": 2, \"arrival_ms\": 9, \"flows\": [[3, 0, 750000]]}
";
        let mut d = daemon();
        let mut acks = Vec::new();
        let report = run_to_completion(
            &mut d,
            Cursor::new(trace),
            Some(&mut acks as &mut dyn std::io::Write),
        )
        .unwrap();
        assert_eq!(report.lines, 5);
        assert_eq!(report.parse_errors, 1);
        assert_eq!(report.accepted, 3);
        assert_eq!(report.rejected, 1, "duplicate id 1 is refused");
        assert!(d.is_idle());
        assert_eq!(d.telemetry().completed, 3);

        let acks = String::from_utf8(acks).unwrap();
        let lines: Vec<&str> = acks.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[0], "{\"line\": 2, \"id\": 0, \"ok\": true}");
        assert!(lines[2].contains("\"reject\": \"duplicate_id\""));
        assert!(lines[3].contains("\"ok\": false") && lines[3].contains("\"error\""));
    }

    #[test]
    fn specs_without_arrival_use_the_stream_clock() {
        let trace = "\
{\"id\": 0, \"arrival_ms\": 10, \"flows\": [[0, 1, 1000000]]}
{\"id\": 1, \"flows\": [[1, 0, 1000000]]}
";
        let mut d = daemon();
        let report = run_to_completion(&mut d, Cursor::new(trace), None).unwrap();
        assert_eq!(report.accepted, 2);
        let mut arrivals: Vec<_> = d
            .completions()
            .iter()
            .map(|c| (c.outcome.coflow, c.outcome.start))
            .collect();
        arrivals.sort();
        // Coflow 1 carried no arrival_ms: it arrived "now", i.e. at the
        // 10 ms the stream clock had reached.
        assert_eq!(arrivals[0].1, Time::from_millis(10));
        assert_eq!(arrivals[1].1, Time::from_millis(10));
    }

    /// Serving equals replay: the stream's Coflows get the outcomes and
    /// the events of their batch replay. At 1 Gbps with δ = 20 µs,
    /// 1 247 500 bytes take exactly 10 ms, so Coflow 0 completes, with
    /// Coflow 4 still active, at the instant Coflows 1 and 2 arrive —
    /// one event in the batch replay, and one here: the completion waits
    /// for the lines of its instant.
    #[test]
    fn a_stream_serves_as_its_batch_replay() {
        let trace = "\
{\"id\": 0, \"arrival_ms\": 0, \"flows\": [[0, 1, 1247500]]}
{\"id\": 4, \"arrival_ms\": 0, \"flows\": [[3, 3, 4000000]]}
{\"id\": 1, \"arrival_ms\": 10, \"flows\": [[0, 2, 1000000]]}
{\"id\": 2, \"arrival_ms\": 10, \"flows\": [[2, 1, 500000]]}
{\"id\": 3, \"arrival_ms\": 12, \"flows\": [[0, 1, 250000]]}
";
        let mut d = daemon();
        run_to_completion(&mut d, Cursor::new(trace), None).unwrap();
        let mut served: Vec<_> = d.completions().iter().map(|c| c.outcome.clone()).collect();
        served.sort_by_key(|o| o.coflow);

        let config = DaemonConfig {
            fabric: Fabric::new(4, Bandwidth::GBPS, Dur::from_micros(20)),
            ..DaemonConfig::default()
        };
        let coflows: Vec<_> = trace
            .lines()
            .map(|l| parse_line(l).unwrap().to_coflow(Time::ZERO))
            .collect();
        let mut batch = config
            .backend
            .build(&config.fabric, &config.online, config.policy.build());
        let mut replayed = ocs_sim::run_trace(&coflows, batch.as_mut());
        replayed.sort_by_key(|o| o.coflow);
        assert_eq!(served, replayed);
        assert_eq!(d.stats().events, batch.status().stats.unwrap().events);
    }

    #[test]
    fn tcp_round_trip() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpStream;

        // Bind first: the address is live before any client connects, so
        // there is nothing to retry and nothing to sleep on.
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut d = daemon();
            let report = server
                .serve_one(&mut d, IngestMode::Sequential)
                .unwrap()
                .expect("a client, not a shutdown");
            (report, d.telemetry().completed)
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"{\"id\": 7, \"arrival_ms\": 1, \"flows\": [[0, 1, 1000000]]}\n")
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut lines = Vec::new();
        for l in BufReader::new(stream).lines() {
            lines.push(l.unwrap());
        }
        let (report, completed) = handle.join().unwrap();
        assert_eq!(report.accepted, 1);
        assert_eq!(completed, 1);
        assert_eq!(lines[0], "{\"line\": 1, \"id\": 7, \"ok\": true}");
        assert!(lines[1].contains("\"completed\": 1"), "final status line");
    }

    #[test]
    fn pipelined_tcp_round_trip_matches_the_protocol() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpStream;

        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let mode = IngestMode::Pipelined(PipelineConfig::default());
        let handle = std::thread::spawn(move || {
            let mut d = daemon();
            let report = server
                .serve_one(&mut d, mode)
                .unwrap()
                .expect("a client, not a shutdown");
            (report, d.telemetry().completed)
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(
                b"{\"id\": 0, \"arrival_ms\": 0, \"flows\": [[0, 1, 1000000]]}\n\
                  {\"id\": 1, \"arrival_ms\": 2, \"flows\": [[1, 2, 500000]]}\n\
                  broken line\n",
            )
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let lines: Vec<String> = BufReader::new(stream).lines().map(|l| l.unwrap()).collect();
        let (report, completed) = handle.join().unwrap();
        assert_eq!(report.accepted, 2);
        assert_eq!(report.parse_errors, 1);
        assert_eq!(completed, 2);
        assert_eq!(lines.len(), 4, "three acks in line order plus status");
        assert_eq!(lines[0], "{\"line\": 1, \"id\": 0, \"ok\": true}");
        assert_eq!(lines[1], "{\"line\": 2, \"id\": 1, \"ok\": true}");
        assert!(lines[2].contains("\"error\""));
        assert!(lines[3].contains("\"completed\": 2"), "final status line");
    }

    #[test]
    fn shutdown_wakes_the_accept_loop_without_a_client() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let handle = server.shutdown_handle().unwrap();
        let join = std::thread::spawn(move || {
            let mut d = daemon();
            server.serve(&mut d, IngestMode::Sequential).unwrap()
        });
        // No client ever connects; the handle alone must unblock accept.
        handle.shutdown();
        let total = join.join().unwrap();
        assert_eq!(total, ServeReport::default(), "no connections served");
    }
}
