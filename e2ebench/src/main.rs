//! Command-line driver of the end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload offline-windowed --seed 42 --seconds 20 --trace 0
//! ```
//!
//! Prints a human-readable table, then, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and the
//! `metrics` (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! Exits non-zero on bad arguments or when an output check fails.

use std::process::ExitCode;

use blockpart_e2ebench::{bench, workloads::Kind, RunResult};
use blockpart_metrics::Json;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    format!(
        "usage: e2ebench --workload <{}> --seed <u64> --seconds <n> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("expected a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn print_result(args: &Args, result: &RunResult) {
    println!(
        "workload {} (seed {}, trace {})",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    );
    for (name, value, unit) in &result.summary {
        match value {
            Some(v) => println!("  {name:<34} {v:>16.6} {unit}"),
            None => println!("  {name:<34} {:>16} {unit}", "n/a"),
        }
    }
    if args.trace {
        for m in &result.metrics {
            println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    for failure in &result.failures {
        println!("  CHECK FAILED: {failure}");
    }
    let metrics = Json::obj(result.metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
        )
    }));
    let line = Json::obj([
        ("correct", Json::from(result.correct())),
        ("attempted", Json::from(result.attempted)),
        ("failed", Json::from(result.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = bench(args.kind, args.seed, args.seconds, args.trace);
    print_result(&args, &result);
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
