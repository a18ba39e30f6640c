//! Fixed-work end-to-end benchmark of the battleship entity-matching
//! stack. See `README.md` in this directory for the workloads, the
//! metrics and how to read a traced run.
//!
//! ```text
//! e2ebench --workload <paper-al|pool-al|serve-32> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object; the line
//! before it is the run record (provenance, work sizes, every metric
//! with its sample count, and the outcome of every check).

#![forbid(unsafe_code)]

mod record;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use record::{jstr, Ledger, Metrics, Provenance};

/// Worker threads every workload runs with (never more than the host
/// has): fixed, so the work each run does and its parallelism are a
/// function of the arguments only.
const THREADS: usize = 2;

/// Parsed command line.
#[derive(Debug)]
pub(crate) struct Args {
    pub(crate) workload: String,
    pub(crate) seed: u64,
    pub(crate) seconds: f64,
    pub(crate) trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// Everything one run accumulates.
pub(crate) struct Run {
    pub(crate) args: Args,
    pub(crate) threads: usize,
    pub(crate) work_dir: PathBuf,
    /// Digest of the measured code and of this benchmark: keys the
    /// report digests earlier runs stored.
    pub(crate) code_digest: String,
    pub(crate) ledger: Ledger,
    pub(crate) end_to_end: Metrics,
    pub(crate) per_layer: Metrics,
    /// Numbers printed in the run record only (work sizes, metrics
    /// without enough samples to gate on).
    pub(crate) extra: Metrics,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    if !root.join("crates").is_dir() {
        eprintln!("e2ebench: run from the repository root");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = THREADS.min(nproc);
    // Before the first parallel call: the thread pool reads it once.
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    let provenance = Provenance::detect(&root, threads);
    let mut run = Run {
        threads,
        work_dir: root.join(".bench_work"),
        code_digest: format!(
            "{}{}",
            provenance.source_digest,
            record::tree_digest(&root, &["e2ebench"])
        ),
        ledger: Ledger::default(),
        end_to_end: Metrics::default(),
        per_layer: Metrics::default(),
        extra: Metrics::default(),
        args,
    };
    let outcome = match run.args.workload.as_str() {
        "paper-al" => workloads::active_learning(&mut run, &workloads::AlWorkload::paper()),
        "pool-al" => workloads::active_learning(&mut run, &workloads::AlWorkload::pool()),
        "serve-32" => workloads::serve(&mut run),
        other => {
            eprintln!("e2ebench: unknown workload {other} (paper-al, pool-al, serve-32)");
            return ExitCode::from(2);
        }
    };
    let aborted = outcome.err().map(|a| a.0);
    let correct = aborted.is_none() && run.ledger.failed() == 0;
    for e in &run.ledger.errors {
        eprintln!("e2ebench: {e}");
    }

    let errors: Vec<String> = run.ledger.errors.iter().map(|e| jstr(e)).collect();
    println!(
        "{{\"run_record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"provenance\": {}, \"ops_attempted\": {}, \"ops_failed\": {}, \"checks_attempted\": {}, \
         \"checks_failed\": {}, \"errors\": [{}], \"end_to_end\": {}, \"per_layer\": {}, \"extra\": {}}}}}",
        jstr(&run.args.workload),
        run.args.seed,
        record::num(run.args.seconds),
        u8::from(run.args.trace),
        provenance.json(),
        run.ledger.ops_attempted,
        run.ledger.ops_failed,
        run.ledger.checks_attempted,
        run.ledger.checks_failed,
        errors.join(", "),
        run.end_to_end.json(true, &[]),
        run.per_layer.json(true, &[]),
        run.extra.json(true, &[]),
    );
    let metrics = if run.args.trace {
        run.per_layer.json(false, &workloads::PATH_ONLY)
    } else {
        run.end_to_end.json(false, &[])
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.ledger.attempted(),
        run.ledger.failed().max(u64::from(!correct)),
        metrics
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
