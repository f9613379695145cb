//! `ocs-benchmark`: run one workload and print its metrics, or compare
//! two result sets. `run.sh` is the front door; see `README.md`.

use ocs_benchmark::alloc::Counting;
use ocs_benchmark::report::{compare, END_TO_END};
use ocs_benchmark::workloads::{find, WORKLOADS};
use ocs_benchmark::{run, Budget, Options};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: Counting = Counting;

const USAGE: &str = "usage:
  ocs-benchmark --workload <name> [--seed <n>] [--seconds <s> | --reps <k>] [--trace <0|1>] [--out <dir>]
  ocs-benchmark list
  ocs-benchmark compare <first.tsv> <second.tsv>";

fn parse_run(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        spec: &WORKLOADS[0],
        seed: 0,
        budget: Budget::Default,
        trace: false,
        out_dir: None,
    };
    let mut named = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<f64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                o.spec = find(value).ok_or_else(|| format!("unknown workload {value}"))?;
                named = true;
            }
            "--seed" => {
                o.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: not a whole number: {value}"))?
            }
            "--seconds" => match number()? {
                s if s > 0.0 => o.budget = Budget::Seconds(s),
                _ => return Err("--seconds must be positive".to_string()),
            },
            "--reps" => match value.parse() {
                Ok(k) if k > 0 => o.budget = Budget::Reps(k),
                _ => return Err(format!("--reps: not a positive count: {value}")),
            },
            "--trace" => match value.as_str() {
                "0" => o.trace = false,
                "1" => o.trace = true,
                _ => return Err(format!("--trace takes 0 or 1, got {value}")),
            },
            "--out" => o.out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if named {
        Ok(o)
    } else {
        Err("--workload is required".to_string())
    }
}

fn run_one(o: &Options) -> ExitCode {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# {} seed {} host_cores {} — {}",
        o.spec.name, o.seed, cores, o.spec.why
    );
    let outcome = run(o);
    for m in &outcome.metrics {
        if m.n > 1 {
            println!(
                "{:<14}{:<40}{:>18.6} {:<6} q1 {:.6} q3 {:.6} n {}",
                outcome.workload, m.name, m.value, m.unit, m.q1, m.q3, m.n
            );
        } else {
            println!(
                "{:<14}{:<40}{:>18.6} {}",
                outcome.workload, m.name, m.value, m.unit
            );
        }
    }
    println!(
        "{:<14}{:<40}{:>18.6} failed/attempted ({} of {})",
        outcome.workload,
        "fail_share",
        outcome.fail_share(),
        outcome.failed,
        outcome.attempted
    );
    if let Some(dir) = &o.out_dir {
        let stem = if o.trace { "layers" } else { "result" };
        let path = dir.join(format!("{stem}_{}.tsv", o.spec.name));
        if let Err(e) = std::fs::write(&path, outcome.to_tsv()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", outcome.to_json_line());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(first: &str, second: &str) -> ExitCode {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let rows = read(first).and_then(|a| compare(&a, &read(second)?));
    match rows {
        Ok(rows) if rows.is_empty() => {
            let names: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
            println!(
                "second set within bounds of the first on: {}",
                names.join(", ")
            );
            ExitCode::SUCCESS
        }
        Ok(rows) => {
            for row in rows {
                println!("{row}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            for w in &WORKLOADS {
                println!("{}", w.name);
            }
            ExitCode::SUCCESS
        }
        Some("compare") if args.len() == 3 => run_compare(&args[1], &args[2]),
        _ => match parse_run(&args) {
            Ok(o) => run_one(&o),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
    }
}
