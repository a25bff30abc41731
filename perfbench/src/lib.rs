//! The repository benchmark: one workload of the negassoc pipeline,
//! measured end to end or, with `--trace 1`, layer by layer. The
//! `perfbench` binary parses the command line and prints the result;
//! see `README.md` for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mine-candgen --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. Inputs are written under `.bench_work/`
//! (removed at exit) and the traced run's spans under `.bench_trace/`.

mod inputs;
mod mine;
mod pins;
mod serve;
mod stats;
mod trace;

pub use inputs::Workload;

use inputs::{check_generated, describe, generate_files, InputFiles};
use serve::Snapshots;
use stats::median;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median. A serve set-up
/// mines and exports (about 2 s); a mine set-up only writes the input
/// files (about 20 ms), whose time varies by half from one to the next,
/// so many more of them are taken.
fn setups(w: Workload) -> usize {
    if w.is_serve() {
        3
    } else {
        15
    }
}

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }

    pub fn ms(name: &'static str, value: f64) -> Self {
        Metric::new(name, value, "ms")
    }
}

/// What one run found: operations attempted and failed, whether every
/// check passed, and the metrics.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    metrics: Vec<Metric>,
}

impl RunResult {
    fn new() -> Self {
        RunResult {
            correct: true,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Count one failed operation (or check) and say why.
    pub fn fail(&mut self, msg: String) {
        self.correct = false;
        self.failed += 1;
        self.errors.push(msg);
    }

    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // Non-finite values have no JSON spelling; they are checks
                // that could not be made, so the run is not correct.
                let value = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".to_owned()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// What to run: a workload, its seed, how long to measure, and whether
/// to report per-layer metrics from a traced run.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Parse `--workload`, `--seed`, `--seconds` and `--trace`. `Ok(None)`
/// asks for the pins instead (`--print-pins`).
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        if flag == "--print-pins" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("one of {}", names.join(", ")))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad("a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    }))
}

/// The run's scratch directory, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(w: Workload) -> Result<Self, String> {
        let dir = Path::new(".bench_work").join(format!("{}-{}", w.name(), std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = self.0.parent().map(std::fs::remove_dir);
    }
}

/// The untraced run: [`setups`] timed set-ups, then the workload.
fn run_untraced(args: &Args, dir: &Path, pin: &pins::Pin) -> Result<RunResult, String> {
    let mut result = RunResult::new();
    let files = InputFiles::in_dir(dir);
    let snaps = Snapshots::in_dir(dir);
    let mut setup_s = Vec::new();
    for _ in 0..setups(args.workload) {
        let started = Instant::now();
        let ds = if args.workload.is_serve() {
            serve::setup(args.workload, args.seed, &files, &snaps)?
        } else {
            generate_files(args.workload, args.seed, &files)
                .map_err(|e| format!("generate: {e}"))?
        };
        setup_s.push(started.elapsed().as_secs_f64());
        if let Err(e) = check_generated(pin, &ds) {
            result.fail(e);
        }
    }
    result.push(Metric::new("setup_s", median(&setup_s), "s"));
    if args.workload.is_serve() {
        serve::run(
            args.workload,
            args.seed,
            &files,
            &snaps,
            args.seconds,
            result,
        )
    } else {
        mine::run(&files, args.seconds, result)
    }
}

/// What the generator produces for each workload's pinned parameters.
pub fn pins_report() -> Result<String, String> {
    let mut out = String::new();
    for w in Workload::ALL {
        let ds = negassoc_datagen::generate(&w.params());
        let g = describe(&ds).map_err(|e| e.to_string())?;
        out.push_str(&format!(
            "{}: {:?}\n  transactions: {}, taxonomy_items: {}, digest: {:#018x}\n",
            w.name(),
            ds.params,
            g.transactions,
            g.taxonomy_items,
            g.digest
        ));
    }
    Ok(out)
}

/// Run `args.workload` once: untraced (end-to-end metrics) or traced
/// (per-layer metrics). `Err` means the run could not be made at all; a
/// failed check is a result with `correct` false.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let pin = pins::pin(args.workload);
    let dir = WorkDir::create(args.workload)?;
    let mut result = if args.trace {
        let trace_path = Path::new(".bench_trace").join(format!(
            "{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        let mut r = trace::run(
            args.workload,
            args.seed,
            args.seconds,
            &dir.0,
            &pin,
            &trace_path,
            RunResult::new(),
        )?;
        let frac = r.failed as f64 / r.attempted.max(1) as f64;
        r.push(Metric::new("failed_frac", frac, "ratio"));
        r
    } else {
        run_untraced(args, &dir.0, &pin)?
    };
    if result.metrics.iter().any(|m| !m.value.is_finite()) {
        result.correct = false;
        result
            .errors
            .push("a metric could not be measured".to_owned());
    }
    Ok(result)
}
