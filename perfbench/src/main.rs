//! The benchmark's command line:
//!
//! ```text
//! dss-perfbench --workload <queue-pairs|kv-ycsb-a|crash-recover>
//!               --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints one settings line, then the result as one JSON object on the last
//! line of standard output: end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1` (which also writes the span log under
//! `perfbench/traces/`).

use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

use dss_perfbench::{report, run_workload, Budget, Rounds, RunCfg, WORKLOADS};

/// Length of one round's main loop. A run makes rounds, each on a freshly
/// built structure, until `--seconds` have passed.
const ROUND_S: f64 = 0.25;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&format!("expected one of {WORKLOADS:?}"))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected a u64"))?),
            "--seconds" => match value.parse::<u64>() {
                Ok(s @ 1..=600) => seconds = Some(s),
                _ => return Err(bad("expected a whole number of seconds in 1..=600")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("expected 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dss-perfbench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <u64> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let cfg = RunCfg {
        seed: args.seed,
        rounds: Rounds::For(Duration::from_secs(args.seconds)),
        budget: Budget::Time(Duration::from_secs_f64(ROUND_S)),
        trace: args.trace,
        corrupt_get_every: 0,
    };
    println!(
        "workload={} seed={} seconds={} loop_s={ROUND_S} trace={} flush_penalty={} \
         granularity=line coalescing=off per_address_drains=off backoff=off cpus={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        dss_perfbench::FLUSH_PENALTY,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let out = run_workload(&args.workload, &cfg).expect("workload name validated by parse");
    let metrics = if args.trace {
        if let Err(e) = write_spans(&args, &out) {
            eprintln!("dss-perfbench: cannot write the span log: {e}");
            return ExitCode::FAILURE;
        }
        report::per_layer(&out, report::flush_us())
    } else {
        report::end_to_end(&out, report::peak_rss_mb())
    };
    let correct = out.failed == 0;
    println!("{}", report::json_line(correct, out.attempted, out.failed, &metrics));
    ExitCode::SUCCESS
}

fn write_spans(args: &Args, out: &dss_perfbench::Outcome) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.csv", args.workload, args.seed));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    out.tracer.write_spans(&mut f)?;
    f.flush()?;
    eprintln!("dss-perfbench: {} spans written to {}", out.tracer.spans.len(), path.display());
    Ok(())
}
