//! Arrival ingestion: drive a [`Daemon`] from a JSONL stream.
//!
//! The service reads one [`crate::jsonl::ArrivalSpec`] per line from any
//! `BufRead` — a file, stdin, or a TCP connection — and acknowledges
//! each line with a one-line JSON verdict (`ok`, `reject` + reason, or
//! `error` for unparseable input). Lines are the clock: a line carrying
//! `arrival_ms` first advances the daemon's virtual clock to that
//! instant (settling circuits and retrying faulted flows on the way),
//! so a trace file replays in arrival order exactly as a live feed
//! would. EOF triggers a graceful drain — the daemon runs until every
//! admitted Coflow completes, then reports.
//!
//! Two ingestion loops share that protocol:
//!
//! * [`run_to_completion`] — the synchronous reference path: parse,
//!   submit, advance, ack, one line at a time on one thread.
//! * [`crate::ingest::run_pipelined`] — the high-throughput path: a
//!   reader thread feeding a bounded admission channel with typed
//!   backpressure, batched submission, acks re-sequenced to line order.
//!
//! [`TcpServer`] is the front door: bind first (so the bound address is
//! known before any client connects), then serve connections one at a
//! time through either loop ([`IngestMode`]). A [`ShutdownHandle`]
//! stops the accept loop by flagging and then *connecting to wake it* —
//! no sleep-polling anywhere, so shutdown latency is bounded by the
//! kernel's accept queue, not a timer. [`serve_tcp`] keeps the original
//! one-shot convenience wrapper around all of it.

use crate::ingest::{error_ack, run_pipelined, verdict_ack, PipelineConfig};
use crate::jsonl::parse_line;
use crate::service::Daemon;
use ocs_model::Time;
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
        // The trace clock: catch the daemon up to this arrival so the
        // submission lands in the present, not the schedule's past.
        if let Some(ms) = spec.arrival_ms {
            let t = Time::from_millis(ms);
            if t > daemon.now() {
                report.events += daemon.advance_to(t);
            }
        }
        let verdict = daemon.submit_spec(&spec);
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

/// Serve one TCP connection at `addr` through the sequential loop: the
/// original one-shot protocol (acks, drain, final status line). Prefer
/// [`TcpServer`] when you need the bound address or pipelined ingestion.
pub fn serve_tcp(daemon: &mut Daemon, addr: impl ToSocketAddrs) -> std::io::Result<ServeReport> {
    let server = TcpServer::bind(addr)?;
    Ok(server
        .serve_one(daemon, IngestMode::Sequential)?
        .expect("no shutdown handle exists yet"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::DaemonConfig;
    use ocs_model::{Bandwidth, Dur, Fabric};
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
