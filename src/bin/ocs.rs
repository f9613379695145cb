//! `ocs` — command-line front-end to the Sunflow workspace.
//!
//! Subcommands:
//!
//! ```text
//! ocs generate --coflows N --ports P --seed S [--horizon SECS] [--out FILE]
//!     Generate a Facebook-like workload and print/write it in the
//!     coflow-benchmark trace format.
//!
//! ocs intra --trace FILE --scheduler SCHED [--gbps N] [--delta-ms N]
//!     Service every Coflow of the trace in isolation under a circuit
//!     scheduler (sunflow | solstice | tms | edmond) and print CCT
//!     statistics against the lower bounds.
//!
//! ocs replay --trace FILE --scheduler SCHED [--gbps N] [--delta-ms N]
//!     Full trace replay with arrival times under any unified-engine
//!     backend: sunflow (circuit switched), solstice / tms / edmond
//!     (aggregated circuit baselines) or varys / aalo / fair (packet
//!     switched); prints average CCT.
//!
//! ocs info --trace FILE [--gbps N]
//!     Print the Table-4 style taxonomy and idleness of a trace.
//! ```
//!
//! Argument parsing is deliberately bare `std` — this workspace keeps its
//! dependency set minimal.

use std::collections::HashMap;
use std::process::ExitCode;
use sunflow::baselines::CircuitScheduler;
use sunflow::metrics::{mean, percentile, Table};
use sunflow::model::{
    circuit_lower_bound, packet_lower_bound, Bandwidth, Category, Coflow, Dur, Fabric, Time,
};
use sunflow::scheduler::{ShortestFirst, SunflowConfig};
use sunflow::sim::{run_intra, run_trace, BackendKind, IntraEngine, OnlineConfig};
use sunflow::workload::{generate, network_idleness, parse, perturb_sizes, write, SynthConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match Opts::parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&opts),
        "intra" => cmd_intra(&opts),
        "replay" => cmd_replay(&opts),
        "info" => cmd_info(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
ocs — Sunflow optical circuit scheduling toolkit

USAGE:
  ocs generate [--coflows N] [--ports P] [--seed S] [--horizon SECS] [--out FILE]
  ocs intra    --trace FILE [--scheduler sunflow|solstice|tms|edmond] [--gbps N] [--delta-ms N]
  ocs replay   --trace FILE [--scheduler sunflow|sunflow:<K>[:<assign>]|kcore:<K>|solstice|tms|edmond|varys|aalo|fair] [--gbps N] [--delta-ms N]
  ocs info     --trace FILE [--gbps N]";

/// Minimal `--key value` option parser.
struct Opts(HashMap<String, String>);

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, got {key:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Opts(map))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad value {v:?}")),
        }
    }
}

fn load_trace(opts: &Opts) -> Result<(usize, Vec<Coflow>), String> {
    let path = opts.get("trace").ok_or("--trace FILE is required")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let t = parse(&text).map_err(|e| e.to_string())?;
    Ok((t.ports, t.coflows))
}

fn fabric_for(opts: &Opts, ports: usize) -> Result<Fabric, String> {
    let gbps: u64 = opts.num("gbps", 1)?;
    let delta_ms: u64 = opts.num("delta-ms", 10)?;
    let delta = Dur::checked_from_millis(delta_ms)
        .ok_or_else(|| format!("--delta-ms: {delta_ms} ms does not fit the clock"))?;
    Ok(Fabric::new(ports, Bandwidth::from_gbps(gbps), delta))
}

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    let cfg = SynthConfig {
        coflows: opts.num("coflows", 526usize)?,
        ports: opts.num("ports", 150usize)?,
        horizon_secs: opts.num("horizon", 3600.0f64)?,
        seed: opts.num("seed", 0x50f10u64)?,
    };
    let coflows = perturb_sizes(&generate(&cfg), 0.05, cfg.seed ^ 0xabcd);
    let text = write(cfg.ports, &coflows);
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {} coflows to {path}", coflows.len());
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_intra(opts: &Opts) -> Result<(), String> {
    let (ports, coflows) = load_trace(opts)?;
    let fabric = fabric_for(opts, ports)?;
    let engine = match opts.get("scheduler").unwrap_or("sunflow") {
        "sunflow" => IntraEngine::Sunflow(SunflowConfig::default()),
        "solstice" => IntraEngine::Baseline(CircuitScheduler::Solstice),
        "tms" => IntraEngine::Baseline(CircuitScheduler::Tms),
        "edmond" => IntraEngine::Baseline(CircuitScheduler::edmond_default()),
        other => return Err(format!("unknown circuit scheduler {other:?}")),
    };
    let outcomes = run_intra(&coflows, &fabric, engine);
    let ratios: Vec<f64> = coflows
        .iter()
        .zip(&outcomes)
        .map(|(c, o)| {
            o.cct(Time::ZERO).as_secs_f64() / circuit_lower_bound(c, &fabric).as_secs_f64()
        })
        .collect();
    let switching: Vec<f64> = outcomes.iter().map(|o| o.normalized_switching()).collect();

    let mut table = Table::new(["metric", "value"]);
    table.row(["scheduler", engine.name()]);
    table.row(["coflows", &coflows.len().to_string()]);
    table.row([
        "avg CCT/T_cL",
        &format!("{:.3}", mean(&ratios).unwrap_or(f64::NAN)),
    ]);
    table.row([
        "p95 CCT/T_cL",
        &format!("{:.3}", percentile(&ratios, 95.0).unwrap_or(f64::NAN)),
    ]);
    table.row([
        "max CCT/T_cL",
        &format!("{:.3}", ratios.iter().copied().fold(0.0, f64::max)),
    ]);
    table.row([
        "avg switching/|C|",
        &format!("{:.2}", mean(&switching).unwrap_or(f64::NAN)),
    ]);
    println!("{}", table.render());
    Ok(())
}

fn cmd_replay(opts: &Opts) -> Result<(), String> {
    let (ports, coflows) = load_trace(opts)?;
    let fabric = fabric_for(opts, ports)?;
    let kind: BackendKind = opts
        .get("scheduler")
        .unwrap_or("sunflow")
        .parse()
        .map_err(|e: sunflow::sim::UnknownBackendError| e.to_string())?;
    let mut backend = kind.build(&fabric, &OnlineConfig::default(), Box::new(ShortestFirst));
    let outcomes = run_trace(&coflows, backend.as_mut());
    let ccts: Vec<f64> = coflows
        .iter()
        .zip(&outcomes)
        .map(|(c, o)| o.cct(c.arrival()).as_secs_f64())
        .collect();
    let mut table = Table::new(["metric", "value"]);
    table.row(["scheduler", kind.name()]);
    table.row(["coflows", &coflows.len().to_string()]);
    table.row([
        "avg CCT (s)",
        &format!("{:.3}", mean(&ccts).unwrap_or(f64::NAN)),
    ]);
    table.row([
        "p95 CCT (s)",
        &format!("{:.3}", percentile(&ccts, 95.0).unwrap_or(f64::NAN)),
    ]);
    println!("{}", table.render());
    Ok(())
}

fn cmd_info(opts: &Opts) -> Result<(), String> {
    let (ports, coflows) = load_trace(opts)?;
    let fabric = fabric_for(opts, ports)?;
    let total_bytes: u64 = coflows.iter().map(|c| c.total_bytes()).sum();
    let mut table = Table::new(["category", "coflows", "coflow%", "bytes%"]);
    for cat in Category::ALL {
        let of_cat: Vec<_> = coflows.iter().filter(|c| c.category() == cat).collect();
        let bytes: u64 = of_cat.iter().map(|c| c.total_bytes()).sum();
        table.row([
            cat.abbrev().to_string(),
            of_cat.len().to_string(),
            format!("{:.1}%", 100.0 * of_cat.len() as f64 / coflows.len() as f64),
            format!("{:.3}%", 100.0 * bytes as f64 / total_bytes as f64),
        ]);
    }
    println!("{}", table.render());
    println!(
        "ports: {ports}   total bytes: {:.2} TB   idleness at {} Gbps: {:.1}%",
        total_bytes as f64 / 1e12,
        fabric.bandwidth().as_bps() / 1_000_000_000,
        network_idleness(&coflows, &fabric) * 100.0
    );
    let tpl_max = coflows
        .iter()
        .map(|c| packet_lower_bound(c, &fabric))
        .max()
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0);
    println!("largest T_pL: {tpl_max:.1}s");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Opts {
        Opts::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>()).unwrap()
    }

    /// A δ whose picoseconds overflow the clock is a flag error, not a
    /// wrapped delay.
    #[test]
    fn delta_ms_past_the_clock_is_a_flag_error() {
        let fabric = fabric_for(&opts(&["--delta-ms", "18446744073710"]), 4);
        let err = fabric.expect_err("δ overflows the picosecond clock");
        assert!(err.contains("--delta-ms"), "{err}");
        let ok = fabric_for(&opts(&["--delta-ms", "7"]), 4).unwrap();
        assert_eq!(ok.delta(), Dur::from_millis(7));
    }
}
