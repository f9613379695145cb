//! `ocs-daemond` — the online Coflow scheduling daemon.
//!
//! ```text
//! ocs-daemond run [OPTIONS]      replay/serve a JSONL arrival stream
//! ocs-daemond gen [OPTIONS]      emit a synthetic JSONL trace to stdout
//! ocs-daemond loadgen [OPTIONS]  soak the pipelined serving path
//! ```
//!
//! `run` reads arrivals from `--input FILE` (`-` = stdin, the default)
//! or accepts one TCP connection with `--listen ADDR`, schedules them
//! on a virtual-clock fabric, drains gracefully at EOF, and dumps
//! telemetry via `--status-json PATH` and/or `--prom PATH` (`-` =
//! stdout). `--pipelined` swaps the synchronous per-line loop for the
//! bounded-channel front end (`--channel-capacity`,
//! `--on-full reject|wait`). Seeded fault injection is enabled with the
//! `--fault-*` flags. `gen` turns `ocs-workload`'s Poisson/Table-4
//! generator into a trace file `run` can consume. `loadgen` generates a
//! seeded high-rate arrival stream and drives it through the pipelined
//! front end in-process, reporting admission throughput and
//! admission-to-schedule latency quantiles — the daemon's soak harness.

use ocs_daemon::jsonl::MAX_ARRIVAL_MS;
use ocs_daemon::{
    run_pipelined, run_to_completion, ArrivalSpec, Daemon, DaemonConfig, IngestMode, OnFull,
    PipelineConfig, PolicyKind, ServeReport, TcpServer,
};
use ocs_model::time::{PS_PER_MS, PS_PER_US};
use ocs_model::{Bandwidth, Dur, Fabric};
use ocs_sim::ActiveCircuitPolicy;
use ocs_workload::{LoadgenConfig, SynthConfig};
use std::fs::File;
use std::io::{BufReader, Write};
use std::process::ExitCode;
use sunflow_core::GuardConfig;

const USAGE: &str = "\
ocs-daemond — online Coflow scheduling service (Sunflow and baselines)

USAGE:
  ocs-daemond run [OPTIONS]      serve/replay a JSONL arrival stream
  ocs-daemond gen [OPTIONS]      emit a synthetic JSONL trace to stdout
  ocs-daemond loadgen [OPTIONS]  soak the pipelined serving path

run OPTIONS:
  --input PATH            arrival JSONL file, '-' for stdin (default '-')
  --listen ADDR           serve one TCP connection instead of --input
  --ports N               fabric ports (default 150)
  --bandwidth-gbps N      link rate (default 1)
  --delta-us N            reconfiguration delay δ in µs (default 1000)
  --backend NAME          sunflow | sunflow:<K>[:<assign>] | kcore:<K> |
                          portgroups:<G> | hybrid:<split>[:<frac>] |
                          solstice | tms | edmond | varys | aalo | fair
                          (default sunflow; <assign> one of hash,
                          round-robin, least-loaded, rank-pack; <split> one
                          of non-splitting, threshold, solver; <frac> the
                          packet network's bandwidth fraction, default 0.1)
  --policy NAME           shortest | longest | fcfs (default shortest)
  --active NAME           yield | keep | preempt (default yield)
  --guard T_MS,TAU_MS     starvation guard period and shared window
  --max-queue N           admission queue depth cap (default 4096)
  --max-outstanding-secs F  outstanding transmit-demand cap
  --pipelined             ingest through the bounded-channel front end
  --channel-capacity N    admission channel bound (default 1024)
  --on-full MODE          reject | wait when the channel is full
                          (default reject; wait is lossless)
  --fault-seed N          fault stream seed (default 0)
  --fault-setup-pm N      circuit setup failures, per mille
  --fault-flap-pm N       port flaps, per mille
  --fault-inflate-pm N    inflated-δ events, per mille
  --status-json PATH      write final JSON status ('-' = stdout)
  --prom PATH             write final Prometheus text ('-' = stdout)
  --acks                  echo per-line acks on stdout (file/stdin mode)
  --quiet                 suppress the stderr summary

gen OPTIONS:
  --coflows N             number of Coflows (default 526)
  --ports N               fabric ports (default 150)
  --seed N                workload seed (default 0x50f10)
  --horizon-secs F        arrival horizon (default 3600)

loadgen OPTIONS:
  --coflows N             number of Coflows (default 100000)
  --ports N               fabric ports (default 64)
  --bandwidth-gbps N      link rate (default 10)
  --delta-us N            reconfiguration delay δ in µs (default 100:
                          transfers must dwarf δ for the soak rate)
  --rate F                arrivals per second of virtual time (default 2000)
  --seed N                trace seed (default 0x10ad)
  --group-ports N         confine flows to N-port groups (0 = off); pairs
                          with --backend portgroups:<G>
  --heavy-frac F          heavy multi-flow Coflow fraction (default 0.05)
  --backend NAME          scheduling backend (default sunflow)
  --channel-capacity / --on-full   as for run
                          (default --on-full wait: soak is lossless)
  --emit                  print the JSONL trace to stdout instead of
                          running the soak (pipe into `run`)
  --status-json PATH      write final JSON status ('-' = stdout)
  --quiet                 suppress the stderr summary
";

fn fail(msg: &str) -> ExitCode {
    eprintln!("ocs-daemond: {msg}");
    eprintln!("run `ocs-daemond --help` for usage");
    ExitCode::from(2)
}

/// Pull the value of `--flag VALUE`, parsed; `Err` carries the message.
struct Args {
    argv: Vec<String>,
    pos: usize,
}

impl Args {
    fn next(&mut self) -> Option<String> {
        let a = self.argv.get(self.pos).cloned();
        if a.is_some() {
            self.pos += 1;
        }
        a
    }

    fn value(&mut self, flag: &str) -> Result<String, String> {
        self.next()
            .ok_or_else(|| format!("{flag} requires a value"))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        let raw = self.value(flag)?;
        raw.parse()
            .map_err(|e| format!("{flag}: cannot parse {raw:?}: {e}"))
    }
}

/// `--guard T_MS,TAU_MS` as durations. Whether they suit the fabric's δ
/// is [`parse_fabric_and_guard`]'s to say, once every flag is read.
fn parse_guard(raw: &str) -> Result<GuardConfig, String> {
    let (t, tau) = raw
        .split_once(',')
        .ok_or_else(|| format!("--guard expects T_MS,TAU_MS, got {raw:?}"))?;
    let millis = |field: &str, raw: &str| -> Result<Dur, String> {
        let ms: u64 = raw
            .trim()
            .parse()
            .map_err(|e| format!("--guard {field}: {e}"))?;
        ms.checked_mul(PS_PER_MS)
            .map(Dur::from_ps)
            .ok_or_else(|| format!("--guard {field}: {ms} ms overflows the picosecond clock"))
    };
    Ok(GuardConfig::new(millis("period", t)?, millis("tau", tau)?))
}

/// The fabric `--ports`, `--bandwidth-gbps` and `--delta-us` describe,
/// and the check of `--guard` against its δ: a usage error naming the
/// flag at fault, where `Fabric::new`, `Bandwidth::from_gbps` and
/// `OnlineStepper::new` would panic.
fn parse_fabric_and_guard(
    ports: usize,
    gbps: u64,
    delta_us: u64,
    guard: Option<GuardConfig>,
) -> Result<Fabric, String> {
    if ports == 0 {
        return Err("--ports must be at least 1".to_string());
    }
    let bps = gbps
        .checked_mul(1_000_000_000)
        .filter(|&bps| bps > 0)
        .ok_or_else(|| {
            format!("--bandwidth-gbps must be positive and fit 64-bit bps, got {gbps}")
        })?;
    let delta = delta_us
        .checked_mul(PS_PER_US)
        .map(Dur::from_ps)
        .ok_or_else(|| format!("--delta-us: {delta_us} overflows the picosecond clock"))?;
    if let Some(g) = guard {
        g.validate(delta)
            .map_err(|e| format!("--guard: {e} (δ = {delta}, from --delta-us {delta_us})"))?;
    }
    Ok(Fabric::new(ports, Bandwidth::from_bps(bps), delta))
}

fn parse_active(raw: &str) -> Result<ActiveCircuitPolicy, String> {
    match raw.to_ascii_lowercase().as_str() {
        "yield" => Ok(ActiveCircuitPolicy::Yield),
        "keep" => Ok(ActiveCircuitPolicy::Keep),
        "preempt" => Ok(ActiveCircuitPolicy::Preempt),
        other => Err(format!(
            "unknown active-circuit policy {other:?}; expected yield, keep or preempt"
        )),
    }
}

fn parse_on_full(raw: &str) -> Result<OnFull, String> {
    match raw.to_ascii_lowercase().as_str() {
        "reject" => Ok(OnFull::Reject),
        "wait" => Ok(OnFull::Wait),
        other => Err(format!(
            "unknown --on-full mode {other:?}; expected reject or wait"
        )),
    }
}

struct RunOpts {
    input: String,
    listen: Option<String>,
    config: DaemonConfig,
    pipeline: Option<PipelineConfig>,
    status_json: Option<String>,
    prom: Option<String>,
    acks: bool,
    quiet: bool,
}

fn parse_run(args: &mut Args) -> Result<RunOpts, String> {
    let mut opts = RunOpts {
        input: "-".to_string(),
        listen: None,
        config: DaemonConfig::default(),
        pipeline: None,
        status_json: None,
        prom: None,
        acks: false,
        quiet: false,
    };
    let mut pipeline = PipelineConfig::default();
    let mut pipelined = false;
    let mut ports = opts.config.fabric.ports();
    let mut gbps = 1u64;
    let mut delta_us = 1_000u64;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--input" => opts.input = args.value("--input")?,
            "--listen" => opts.listen = Some(args.value("--listen")?),
            "--ports" => ports = args.parsed("--ports")?,
            "--bandwidth-gbps" => gbps = args.parsed("--bandwidth-gbps")?,
            "--delta-us" => delta_us = args.parsed("--delta-us")?,
            "--backend" => opts.config.backend = args.parsed("--backend")?,
            "--policy" => opts.config.policy = args.value("--policy")?.parse::<PolicyKind>()?,
            "--active" => {
                opts.config.online.active_policy = parse_active(&args.value("--active")?)?
            }
            "--guard" => opts.config.online.guard = Some(parse_guard(&args.value("--guard")?)?),
            "--pipelined" => pipelined = true,
            "--channel-capacity" => {
                pipeline.channel_capacity = args.parsed("--channel-capacity")?
            }
            "--on-full" => pipeline.on_full = parse_on_full(&args.value("--on-full")?)?,
            "--max-queue" => opts.config.admission.max_queue_depth = args.parsed("--max-queue")?,
            "--max-outstanding-secs" => {
                let secs: f64 = args.parsed("--max-outstanding-secs")?;
                // The arrival horizon bounds the cap too (see `ocs_daemon::jsonl`).
                let horizon = Dur::from_millis(MAX_ARRIVAL_MS);
                if !(secs > 0.0 && secs <= horizon.as_secs_f64()) {
                    return Err(format!(
                        "--max-outstanding-secs must be positive and at most {}, got {secs}",
                        horizon.as_secs_f64()
                    ));
                }
                opts.config.admission.max_outstanding = Dur::from_secs_f64(secs);
            }
            "--fault-seed" => opts.config.faults.seed = args.parsed("--fault-seed")?,
            "--fault-setup-pm" => {
                opts.config.faults.setup_failure_per_mille = args.parsed("--fault-setup-pm")?
            }
            "--fault-flap-pm" => {
                opts.config.faults.port_flap_per_mille = args.parsed("--fault-flap-pm")?
            }
            "--fault-inflate-pm" => {
                opts.config.faults.delta_inflation_per_mille = args.parsed("--fault-inflate-pm")?
            }
            "--status-json" => opts.status_json = Some(args.value("--status-json")?),
            "--prom" => opts.prom = Some(args.value("--prom")?),
            "--acks" => opts.acks = true,
            "--quiet" => opts.quiet = true,
            other => return Err(format!("unknown flag {other:?} for run")),
        }
    }
    if opts.config.faults.total_per_mille() > 1000 {
        return Err("fault probabilities sum to more than 1000 per mille".to_string());
    }
    opts.config.fabric = parse_fabric_and_guard(ports, gbps, delta_us, opts.config.online.guard)?;
    if pipelined {
        opts.pipeline = Some(pipeline);
    }
    Ok(opts)
}

/// Write `text` to `path`, with `-` meaning stdout.
fn emit(path: &str, text: &str) -> std::io::Result<()> {
    if path == "-" {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        out.write_all(text.as_bytes())?;
        if !text.ends_with('\n') {
            out.write_all(b"\n")?;
        }
        out.flush()
    } else {
        std::fs::write(path, text)
    }
}

fn cmd_run(args: &mut Args) -> Result<ExitCode, String> {
    let opts = parse_run(args)?;
    let mut daemon = Daemon::new(&opts.config);

    let report: ServeReport = if let Some(addr) = &opts.listen {
        let server = TcpServer::bind(addr.as_str()).map_err(|e| format!("bind {addr}: {e}"))?;
        let mode = match opts.pipeline {
            Some(cfg) => IngestMode::Pipelined(cfg),
            None => IngestMode::Sequential,
        };
        if !opts.quiet {
            let bound = server
                .local_addr()
                .map_err(|e| format!("bind {addr}: {e}"))?;
            eprintln!("ocs-daemond: listening on {bound} (one connection)");
        }
        server
            .serve_one(&mut daemon, mode)
            .map_err(|e| format!("serve {addr}: {e}"))?
            .expect("no shutdown handle exists")
    } else if let Some(cfg) = opts.pipeline {
        // The pipelined reader moves to its own thread, so it takes an
        // owned stdin handle rather than StdinLock.
        let mut stdout = std::io::stdout();
        let ack = opts.acks.then_some(&mut stdout);
        if opts.input == "-" {
            run_pipelined(&mut daemon, BufReader::new(std::io::stdin()), ack, &cfg)
        } else {
            let f = File::open(&opts.input).map_err(|e| format!("open {}: {e}", opts.input))?;
            run_pipelined(&mut daemon, BufReader::new(f), ack, &cfg)
        }
        .map_err(|e| format!("ingest: {e}"))?
        .into()
    } else {
        let mut stdout;
        let mut ack: Option<&mut dyn Write> = if opts.acks {
            stdout = std::io::stdout();
            Some(&mut stdout)
        } else {
            None
        };
        if opts.input == "-" {
            let stdin = std::io::stdin();
            run_to_completion(&mut daemon, stdin.lock(), ack.take())
        } else {
            let f = File::open(&opts.input).map_err(|e| format!("open {}: {e}", opts.input))?;
            run_to_completion(&mut daemon, BufReader::new(f), ack.take())
        }
        .map_err(|e| format!("ingest: {e}"))?
    };

    if let Some(path) = &opts.status_json {
        emit(path, &daemon.status_json()).map_err(|e| format!("write {path}: {e}"))?;
    }
    if let Some(path) = &opts.prom {
        emit(path, &daemon.prometheus()).map_err(|e| format!("write {path}: {e}"))?;
    }
    if !opts.quiet {
        let t = daemon.telemetry();
        let f = daemon.fault_stats();
        eprintln!(
            "ocs-daemond: {} lines, {} admitted, {} rejected, {} backpressure, \
             {} parse errors; {} completed, drained at {}; {} faults, {} retries",
            report.lines,
            report.accepted,
            report.rejected,
            report.backpressure,
            report.parse_errors,
            t.completed,
            daemon.now(),
            f.setup_failures + f.port_flaps + f.delta_inflations,
            f.retries,
        );
    }
    let clean = daemon.is_idle() && report.parse_errors == 0;
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_gen(args: &mut Args) -> Result<ExitCode, String> {
    let mut cfg = SynthConfig::default();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--coflows" => cfg.coflows = args.parsed("--coflows")?,
            "--ports" => cfg.ports = args.parsed("--ports")?,
            "--seed" => cfg.seed = args.parsed("--seed")?,
            "--horizon-secs" => {
                cfg.horizon_secs = args.parsed("--horizon-secs")?;
                if !cfg.horizon_secs.is_finite() || cfg.horizon_secs <= 0.0 {
                    return Err("--horizon-secs must be positive".to_string());
                }
            }
            other => return Err(format!("unknown flag {other:?} for gen")),
        }
    }
    let coflows = ocs_workload::generate(&cfg);
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for c in &coflows {
        let spec = ArrivalSpec {
            id: c.id(),
            arrival_ms: Some(c.arrival().as_ps() / PS_PER_MS),
            flows: c.flows().iter().map(|f| (f.src, f.dst, f.bytes)).collect(),
        };
        writeln!(out, "{}", spec.render()).map_err(|e| format!("stdout: {e}"))?;
    }
    out.flush().map_err(|e| format!("stdout: {e}"))?;
    eprintln!(
        "ocs-daemond: generated {} coflows on {} ports (seed {:#x})",
        coflows.len(),
        cfg.ports,
        cfg.seed
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_loadgen(args: &mut Args) -> Result<ExitCode, String> {
    let mut load = LoadgenConfig::default();
    let mut config = DaemonConfig::default();
    let mut gbps = 10u64;
    let mut delta_us = 100u64;
    let mut pipeline = PipelineConfig {
        on_full: OnFull::Wait,
        ..PipelineConfig::default()
    };
    let mut emit_trace = false;
    let mut status_json: Option<String> = None;
    let mut quiet = false;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--coflows" => load.coflows = args.parsed("--coflows")?,
            "--ports" => load.ports = args.parsed("--ports")?,
            "--bandwidth-gbps" => gbps = args.parsed("--bandwidth-gbps")?,
            "--delta-us" => delta_us = args.parsed("--delta-us")?,
            "--rate" => {
                load.rate_per_sec = args.parsed("--rate")?;
                if !load.rate_per_sec.is_finite() || load.rate_per_sec <= 0.0 {
                    return Err("--rate must be positive".to_string());
                }
            }
            "--seed" => load.seed = args.parsed("--seed")?,
            "--group-ports" => load.group_ports = args.parsed("--group-ports")?,
            "--heavy-frac" => {
                load.heavy_fraction = args.parsed("--heavy-frac")?;
                if !(0.0..=1.0).contains(&load.heavy_fraction) {
                    return Err("--heavy-frac must be within [0, 1]".to_string());
                }
            }
            "--backend" => config.backend = args.parsed("--backend")?,
            "--channel-capacity" => {
                pipeline.channel_capacity = args.parsed("--channel-capacity")?
            }
            "--on-full" => pipeline.on_full = parse_on_full(&args.value("--on-full")?)?,
            "--emit" => emit_trace = true,
            "--status-json" => status_json = Some(args.value("--status-json")?),
            "--quiet" => quiet = true,
            other => return Err(format!("unknown flag {other:?} for loadgen")),
        }
    }
    config.fabric = parse_fabric_and_guard(load.ports, gbps, delta_us, None)?;
    let coflows = ocs_workload::generate_load(&load);
    let jsonl = ocs_workload::to_jsonl(&coflows);
    if emit_trace {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        out.write_all(jsonl.as_bytes())
            .and_then(|()| out.flush())
            .map_err(|e| format!("stdout: {e}"))?;
        if !quiet {
            eprintln!(
                "ocs-daemond: generated {} coflows on {} ports (seed {:#x})",
                coflows.len(),
                load.ports,
                load.seed
            );
        }
        return Ok(ExitCode::SUCCESS);
    }

    let mut daemon = Daemon::new(&config);
    let wall = std::time::Instant::now();
    let report = run_pipelined(
        &mut daemon,
        std::io::Cursor::new(jsonl),
        None::<&mut std::io::Sink>,
        &pipeline,
    )
    .map_err(|e| format!("soak: {e}"))?;
    let elapsed = wall.elapsed();

    if let Some(path) = &status_json {
        emit(path, &daemon.status_json()).map_err(|e| format!("write {path}: {e}"))?;
    }
    if !quiet {
        let t = daemon.telemetry();
        let q = |p: f64| t.admit_latency.quantile(p).unwrap_or(0);
        eprintln!(
            "ocs-daemond: soaked {} coflows in {:.2}s wall ({:.0} admissions/s); \
             admit latency p50 {}ns p99 {}ns p999 {}ns; \
             {} backpressure rejects, {} backpressure waits, {} lost acks; \
             {} batches (max {}), {} completed, drained at {}",
            report.accepted,
            elapsed.as_secs_f64(),
            report.accepted as f64 / elapsed.as_secs_f64().max(1e-9),
            q(0.50),
            q(0.99),
            q(0.999),
            report.backpressure_rejects,
            report.backpressure_waits,
            report.lost_acks(),
            report.batches,
            report.max_batch,
            t.completed,
            daemon.now(),
        );
    }
    let clean = daemon.is_idle()
        && report.parse_errors == 0
        && report.lost_acks() == 0
        && daemon.telemetry().completed == report.accepted;
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") || argv.is_empty() {
        print!("{USAGE}");
        return if argv.is_empty() {
            ExitCode::from(2)
        } else {
            ExitCode::SUCCESS
        };
    }
    let mut args = Args { argv, pos: 0 };
    let cmd = args.next().unwrap();
    let result = match cmd.as_str() {
        "run" => cmd_run(&mut args),
        "gen" => cmd_gen(&mut args),
        "loadgen" => cmd_loadgen(&mut args),
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => fail(&msg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_flags(flags: &[&str]) -> Result<RunOpts, String> {
        parse_run(&mut args(flags))
    }

    fn usage_error(flags: &[&str]) -> String {
        run_flags(flags).err().expect("flags must be rejected")
    }

    fn args(flags: &[&str]) -> Args {
        Args {
            argv: flags.iter().map(|f| f.to_string()).collect(),
            pos: 0,
        }
    }

    #[test]
    fn parse_guard_reads_period_and_tau_in_ms() {
        let g = parse_guard("200, 40").unwrap();
        assert_eq!(g.period, Dur::from_millis(200));
        assert_eq!(g.tau, Dur::from_millis(40));
        assert!(parse_guard("200").unwrap_err().contains("T_MS,TAU_MS"));
        assert!(parse_guard("x,40").unwrap_err().contains("--guard period"));
        let huge = parse_guard("18446744073709551615,40").unwrap_err();
        assert!(huge.contains("--guard period") && huge.contains("overflows"));
    }

    /// Each of these reached a panic in the library before the parser
    /// checked it; all are usage errors naming the flag (and, for the
    /// guard, δ).
    #[test]
    fn flags_no_fabric_or_guard_can_run_with_are_usage_errors() {
        let tau_low = usage_error(&["--delta-us", "1000", "--guard", "100,1"]);
        assert!(tau_low.contains("--guard") && tau_low.contains("must exceed δ"));
        assert!(tau_low.contains("--delta-us 1000"));
        let period_low = usage_error(&["--guard", "5,40"]);
        assert!(period_low.contains("--guard") && period_low.contains("must not be below τ"));
        assert!(usage_error(&["--guard", "0,0"]).contains("must exceed δ"));
        assert!(usage_error(&["--guard", "18446744073709551615,40"]).contains("overflows"));
        // The guard is judged against the δ of the whole command line.
        assert!(usage_error(&["--guard", "200,40", "--delta-us", "40000"]).contains("--guard"));
        assert!(usage_error(&["--ports", "0"]).contains("--ports"));
        assert!(usage_error(&["--bandwidth-gbps", "0"]).contains("--bandwidth-gbps"));
        assert!(
            usage_error(&["--bandwidth-gbps", "18446744073709551615"]).contains("--bandwidth-gbps")
        );
        assert!(usage_error(&["--delta-us", "18446744073709551615"]).contains("--delta-us"));
        for cap in ["0", "NaN", "4294967.297", "1e30"] {
            let err = usage_error(&["--max-outstanding-secs", cap]);
            assert!(err.contains("--max-outstanding-secs"), "{cap}: {err}");
        }
    }

    #[test]
    fn a_valid_guarded_fabric_is_accepted() {
        let opts = run_flags(&[
            "--ports",
            "16",
            "--bandwidth-gbps",
            "10",
            "--delta-us",
            "1000",
            "--guard",
            "200,40",
        ])
        .expect("valid flags");
        assert_eq!(opts.config.fabric.ports(), 16);
        assert_eq!(opts.config.fabric.delta(), Dur::from_millis(1));
        assert!(opts.config.online.guard.is_some());
    }

    /// Every replay advances on the calling thread: the thread-count
    /// flag is gone from both subcommands, and naming it is a usage
    /// error rather than a silently ignored option.
    #[test]
    fn replan_threads_is_an_unknown_flag() {
        let run = usage_error(&["--replan-threads", "4"]);
        assert_eq!(run, "unknown flag \"--replan-threads\" for run");
        let loadgen = cmd_loadgen(&mut args(&["--replan-threads", "4"])).err();
        assert_eq!(
            loadgen.as_deref(),
            Some("unknown flag \"--replan-threads\" for loadgen")
        );
    }

    /// `run --backend` lists every selector family its parser accepts.
    #[test]
    fn run_usage_lists_port_groups() {
        let run = &USAGE[USAGE.find("run OPTIONS:").unwrap()..USAGE.find("gen OPTIONS:").unwrap()];
        assert!(run.contains("portgroups:<G>"), "{run}");
        let opts = run_flags(&["--backend", "portgroups:4"]).expect("listed selector parses");
        let want = ocs_sim::BackendKind::PortGroups { groups: 4 };
        assert_eq!(opts.config.backend, want);
    }
}
