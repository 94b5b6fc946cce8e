//! `sge-perfbench` — the measuring half of the benchmark.
//!
//! ```text
//! sge-perfbench gen --workload W --seed N --dir D [--size full|tiny] [--perturb-reference]
//! sge-perfbench run --workload W --seed N --dir D --seconds S --trace 0|1
//!                   [--workers N] [--serve-bin PATH] [--spans PATH]
//! ```
//!
//! `gen` writes the seeded inputs and their reference results into `D`;
//! `run` reads them back, measures for `S` seconds and prints a report whose
//! last line is the JSON result.  `run` exits 1 when any output was wrong.
//! `perfbench/run.py` builds the programs and chains the two steps.

mod engine_calls;
mod inputs;
mod library;
mod report;
mod serve;
mod spans;

use inputs::{Manifest, Size, Workload};
use report::{Host, Metrics, Tally};
use spans::Tracer;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: sge-perfbench gen --workload W --seed N --dir D [--size full|tiny] [--perturb-reference]\n       \
         sge-perfbench run --workload W --seed N --dir D --seconds S --trace 0|1 \
         [--workers N] [--serve-bin PATH] [--spans PATH]"
    );
    ExitCode::from(2)
}

/// `--key value` pairs plus bare `--flag`s.
fn parse_flags(args: &[String]) -> Option<HashMap<String, String>> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].strip_prefix("--")?.to_string();
        if key == "perturb-reference" {
            out.insert(key, String::new());
            i += 1;
        } else {
            out.insert(key, args.get(i + 1)?.clone());
            i += 2;
        }
    }
    Some(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    let Some(flags) = parse_flags(rest) else {
        return usage();
    };
    let get = |key: &str| flags.get(key).map(String::as_str);
    let Some(workload) = get("workload").and_then(Workload::parse) else {
        return usage();
    };
    let (Some(seed), Some(dir)) = (get("seed").and_then(|s| s.parse::<u64>().ok()), get("dir"))
    else {
        return usage();
    };
    let dir = PathBuf::from(dir);
    match command.as_str() {
        "gen" => {
            let size = match get("size").unwrap_or("full") {
                "full" => Size::Full,
                "tiny" => Size::Tiny,
                _ => return usage(),
            };
            match generate(
                workload,
                seed,
                size,
                &dir,
                flags.contains_key("perturb-reference"),
            ) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: input generation failed: {e}");
                    ExitCode::from(2)
                }
            }
        }
        "run" => {
            let seconds = get("seconds").and_then(|s| s.parse::<f64>().ok());
            let trace = get("trace");
            let workers = match get("workers") {
                Some(w) => w.parse::<usize>().ok().filter(|&w| w >= 1),
                None => Some(report::nproc()),
            };
            let (Some(seconds), Some(trace @ ("0" | "1")), Some(workers)) =
                (seconds, trace, workers)
            else {
                return usage();
            };
            let opts = RunOpts {
                workload,
                seed,
                dir,
                seconds,
                traced: trace == "1",
                workers,
                serve_bin: get("serve-bin").map(PathBuf::from),
                spans: get("spans").map(PathBuf::from),
            };
            match run(&opts) {
                Ok(tally) if tally.failed == 0 => ExitCode::SUCCESS,
                Ok(tally) => {
                    eprintln!(
                        "error: {} of {} checked operations were wrong",
                        tally.failed, tally.attempted
                    );
                    ExitCode::from(1)
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => usage(),
    }
}

fn generate(
    workload: Workload,
    seed: u64,
    size: Size,
    dir: &std::path::Path,
    perturb: bool,
) -> Result<(), String> {
    let mut manifest = inputs::generate(workload, seed, size, dir).map_err(|e| e.to_string())?;
    if perturb {
        // Deliberately wrong reference, so tests can show the gate fires.
        // A VF2 count moves along with it: the generation-time VF2 check
        // still agrees, so only comparing the program's output can fail.
        let first = manifest
            .instances
            .first_mut()
            .ok_or("no instances to perturb")?;
        first.matches += 1;
        first.vf2 = first.vf2.map(|v| v + 1);
        manifest.write(dir).map_err(|e| e.to_string())?;
    }
    Ok(())
}

struct RunOpts {
    workload: Workload,
    seed: u64,
    dir: PathBuf,
    seconds: f64,
    traced: bool,
    workers: usize,
    serve_bin: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn run(opts: &RunOpts) -> Result<Tally, String> {
    let manifest = Manifest::read(&opts.dir)?;
    let host = Host::detect(opts.workers, opts.seed);
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let mut tracer = Tracer::default();
    let serve_bin = || opts.serve_bin.clone().ok_or("serve_mix needs --serve-bin");
    match (opts.workload, opts.traced) {
        (Workload::ServeMix, false) => serve::run_end_to_end(
            &serve_bin()?,
            &opts.dir,
            &manifest,
            opts.seconds,
            opts.workers,
            opts.seed,
            &mut tally,
            &mut metrics,
        )?,
        (Workload::ServeMix, true) => serve::run_traced(
            &serve_bin()?,
            &opts.dir,
            &manifest,
            opts.seconds,
            opts.workers,
            opts.seed,
            &mut tracer,
            &mut tally,
            &mut metrics,
        )?,
        (Workload::PpiCount, false) => library::run_end_to_end(
            &opts.dir,
            &manifest,
            opts.seconds,
            opts.workers,
            &mut tally,
            &mut metrics,
        )?,
        (Workload::PpiCount, true) => library::run_traced(
            &opts.dir,
            &manifest,
            opts.seconds,
            opts.workers,
            &mut tracer,
            &mut tally,
            &mut metrics,
        )?,
    }
    if !opts.traced {
        metrics.put_sampled(
            "ok_ratio",
            tally.ok_ratio(),
            "ratio",
            Some(tally.attempted as usize),
        );
    }
    if let (true, Some(path)) = (opts.traced, &opts.spans) {
        tracer
            .write(path)
            .map_err(|e| format!("cannot write spans: {e}"))?;
    }
    report::emit(opts.workload.name(), &host, tally, &metrics);
    Ok(tally)
}
