//! The dualminer benchmark: seeded workloads driven through the library's
//! public entry points, reporting end-to-end metrics (`--trace 0`) or
//! per-layer metrics from caller-side spans (`--trace 1`).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of stdout is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod gen;
mod layers;
mod mix;
mod oneshot;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dualminer_obs::{MiningObserver, StatsCollector};
use dualminer_serve::exec::ExecCtx;
use dualminer_serve::job::RunOpts;

use crate::stats::{Tail, Tally};

pub const WORKLOADS: [&str; 3] = ["oneshot_deep", "oneshot_wide", "serve_mix"];

/// End-to-end metrics, printed by every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s >= 1)
                        .ok_or_else(|| bad("a whole number of seconds ≥ 1"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (want one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// What one workload run measured.
#[derive(Default)]
pub struct Run {
    pub tally: Tally,
    /// Completed operations' latencies in the measured (untraced) phase.
    pub latencies_ms: Vec<f64>,
    /// Length of the measured phase.
    pub window_s: f64,
    /// Duration of each repeated set-up.
    pub setups_s: Vec<f64>,
    /// Peak resident memory at the end of the measured phase, before the
    /// correctness gate allocates anything of its own.
    pub peak_rss_mb: f64,
    /// Correctness failures; any one fails the run.
    pub mismatches: Vec<String>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Run {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }
}

/// The traced run's split of `--seconds`: the first part is measured
/// without spans (the baseline for the tracing overhead), the rest with.
pub fn phases(args: &Args) -> (Duration, Duration) {
    let total = Duration::from_secs(args.seconds);
    if args.trace {
        (total / 2, total - total / 2)
    } else {
        (total, Duration::ZERO)
    }
}

/// Where a run keeps its generated inputs and span output: under the
/// build directory (`CARGO_TARGET_DIR`, default `.bench_build`) of the
/// checkout it runs in.
pub fn out_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    base.join("perfbench")
}

/// A scratch directory for one run, removed when dropped.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(args: &Args) -> std::io::Result<WorkDir> {
        let dir = out_dir().join(format!(
            "work-{}-s{}-p{}",
            args.workload,
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(std::fs::canonicalize(dir)?))
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The observer a one-shot job runs with: the CLI's stats collector, plus
/// a count of checkpoint saves and, when `watch` names the checkpoint
/// file, the bytes on disk after each save.
pub struct Obs {
    pub stats: StatsCollector,
    pub saves: AtomicU64,
    pub bytes: AtomicU64,
    pub watch: Option<PathBuf>,
}

impl Obs {
    pub fn new(watch: Option<&Path>) -> Obs {
        let stats = StatsCollector::new();
        stats.set_threads(1);
        Obs {
            stats,
            saves: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            watch: watch.map(Path::to_path_buf),
        }
    }
}

impl MiningObserver for Obs {
    fn on_phase_start(&self, name: &str) {
        self.stats.on_phase_start(name);
    }
    fn on_phase_end(&self, name: &str) {
        self.stats.on_phase_end(name);
    }
    fn on_level(&self, level: usize, candidates: usize, interesting: usize) {
        self.stats.on_level(level, candidates, interesting);
    }
    fn on_iteration(&self, iteration: usize, tested: usize, counterexample: bool) {
        self.stats.on_iteration(iteration, tested, counterexample);
    }
    fn on_fk_calls(&self, count: u64) {
        self.stats.on_fk_calls(count);
    }
    fn on_transversals(&self, count: u64) {
        self.stats.on_transversals(count);
    }
    fn on_nodes(&self, count: u64) {
        self.stats.on_nodes(count);
    }
    fn on_checkpoint(&self, queries_so_far: u64) {
        self.stats.on_checkpoint(queries_so_far);
        self.saves.fetch_add(1, Ordering::Relaxed);
        if let Some(path) = &self.watch {
            if let Ok(meta) = std::fs::metadata(path) {
                self.bytes.fetch_add(meta.len(), Ordering::Relaxed);
            }
        }
    }
}

/// Runs `f` with a fresh single-threaded execution context, set up the
/// way the CLI sets up a one-shot run.
pub fn with_cx<R>(obs: &Obs, run: &RunOpts, f: impl FnOnce(&ExecCtx<'_>) -> R) -> R {
    let meter = run.budget().start();
    let note = |_: &str| {};
    let cx = ExecCtx {
        meter: &meter,
        observer: obs,
        stats: &obs.stats,
        note: &note,
        threads: 1,
    };
    f(&cx)
}

/// The process's peak resident set (VmHWM) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn tail_note(label: &str, t: Option<Tail>) -> String {
    match t {
        Some(t) => format!(
            "{label}: {:.3} ms at p{:.2} of {} samples (10 beyond)",
            t.value, t.percentile, t.samples
        ),
        None => format!("{label}: fewer than 11 samples, no tail"),
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#)
}

fn end_to_end(run: &Run) -> Vec<(&'static str, f64, &'static str)> {
    let p50 = stats::median(&run.latencies_ms);
    let tail = stats::tail(&run.latencies_ms);
    let done = run.latencies_ms.len() as f64;
    let values = [
        stats::median(&run.setups_s),
        if run.window_s > 0.0 {
            done / run.window_s
        } else {
            0.0
        },
        p50,
        // Too few samples for a tail: the slowest operation stands in.
        tail.map_or_else(
            || run.latencies_ms.iter().copied().fold(0.0, f64::max),
            |t| t.value,
        ),
        run.peak_rss_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "serve_mix" => mix::run(&args),
        name => oneshot::run(&args, oneshot::spec(name)),
    };
    let mut run = match result {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if run.tally.attempted() == 0 {
        eprintln!("perfbench: {}: no operation completed", args.workload);
        return ExitCode::from(1);
    }
    if !run.latencies_ms.is_empty() && stats::tail(&run.latencies_ms).is_none() {
        run.notes
            .push("warning: fewer than 11 operations; raise --seconds for a tail".into());
    }

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for note in &run.notes {
        println!("  {note}");
    }
    println!(
        "  setups: {}",
        run.setups_s
            .iter()
            .map(|s| format!("{s:.4} s"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "{}",
        tail_note("  latency tail", stats::tail(&run.latencies_ms))
    );
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        layers::CATALOGUE
            .iter()
            .map(|&(name, unit)| (name, run.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        end_to_end(&run)
    };
    for (name, value, unit) in &metrics {
        println!("  {name:<36} {value:>14.4} {unit}");
    }
    for m in &run.mismatches {
        println!("  MISMATCH: {m}");
    }
    let correct = run.mismatches.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| metric_json(n, *v, u))
        .collect();
    println!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        run.tally.attempted(),
        run.tally.failed(),
        body.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Writes a traced run's spans, one JSON object per line, to
/// `<out_dir>/spans/<workload>-s<seed>.jsonl`.
pub fn write_spans(args: &Args, spans: &[trace::Span], run: &mut Run) -> Result<(), String> {
    let dir = out_dir().join("spans");
    let path = dir.join(format!("{}-s{}.jsonl", args.workload, args.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::to_jsonl(spans)))
        .map_err(|e| format!("write spans: {e}"))?;
    run.notes
        .push(format!("spans: {} ({} spans)", path.display(), spans.len()));
    Ok(())
}

/// Seconds since `t`, for set-up timings.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload serve_mix --seed 3 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_mix", 3, 20, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 20 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload serve_mix --seed 3 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload serve_mix --seed 3 --seconds 5 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload serve_mix --seed 3 --seconds 5")).is_err());
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        // BENCHMARK.json holds fractional bounds, which the program's JSON
        // reader does not take; match the entries as written instead.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).unwrap();
        let entries: Vec<&(&str, &str)> =
            END_TO_END.iter().chain(layers::CATALOGUE.iter()).collect();
        for (name, unit) in &entries {
            let entry = format!(r#""name": "{name}", "unit": "{unit}""#);
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(doc.matches(r#""unit": "#).count(), entries.len());
        for w in WORKLOADS {
            assert!(
                doc.contains(&format!(r#""name": "{w}", "why": "#)),
                "workload {w}"
            );
        }
        assert_eq!(doc.matches(r#""why": "#).count(), WORKLOADS.len());
    }
}
