//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <solve_offline|serve_mixed|replay_warm> --seed N
//!           --seconds S --trace <0|1>
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it replays the workload once more with spans recorded around
//! every layer call and reports the per-layer metrics plus the tracing
//! overhead. The last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`); the lines before it give
//! each metric with its unit and sample count. Any invalid, mismatched or
//! non-deterministic output makes the run incorrect and the exit code 1.
//! See `README.md` for the workloads and the layer → metric mapping.

mod offline;
mod replay;
mod serve;
mod spans;
mod speed;
mod stats;

use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// End-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("ok_frac", "frac"),
    ("energy", "energy"),
    ("slo_rps", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every workload reports with `--trace 1`; a layer the
/// workload never enters reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.generate_s", "s"),
    ("candidates.enumerate_ms", "ms"),
    ("candidates.count", "count"),
    ("objective.reduction_build_ms", "ms"),
    ("greedy.solve_ms", "ms"),
    ("greedy.evaluations", "count"),
    ("greedy.memo_hit_frac", "frac"),
    ("matching.augments", "count"),
    ("dvfs.compile_ms", "ms"),
    ("dvfs.decompile_ms", "ms"),
    ("dvfs.candidates", "count"),
    ("warm.resolve_ms.p50", "ms"),
    ("warm.resolve_ms.p99", "ms"),
    ("warm.warm_frac", "frac"),
    ("sim.decide_us", "us"),
    ("codec.decode_us.binary", "us"),
    ("codec.decode_us.jsonl", "us"),
    ("codec.encode_us", "us"),
    ("codec.request_bytes.binary", "bytes"),
    ("codec.request_bytes.jsonl", "bytes"),
    ("engine.queue_wait_us", "us"),
    ("engine.solve_us", "us"),
    ("engine.cache_hit_frac", "frac"),
    ("engine.shed", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.valid_frac", "frac"),
    ("tracing.overhead_frac", "frac"),
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <solve_offline|serve_mixed|replay_warm> \
                     --seed N --seconds S --trace <0|1>";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} '{value}': {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => trace = Some(value.parse::<u8>().map_err(|e| bad(&e))?),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("missing --workload")?;
        if !["solve_offline", "serve_mixed", "replay_warm"].contains(&workload.as_str()) {
            return Err(format!("unknown workload '{workload}'"));
        }
        let seconds = seconds.ok_or("missing --seconds")?;
        if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], got {seconds}"));
        }
        let trace = match trace.ok_or("missing --trace")? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace must be 0 or 1, got {t}")),
        };
        Ok(Args {
            workload,
            seed: seed.ok_or("missing --seed")?,
            seconds,
            trace,
        })
    }
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (operations, requests, set-ups, …).
    pub samples: u64,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Self {
        Self {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the measured (untraced) run.
    pub attempted: u64,
    /// Of those, operations that failed, were refused or were shed.
    pub failed: u64,
    /// Validation failures; any one makes the run incorrect.
    pub errors: Vec<String>,
    /// End-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
    pub metrics: Vec<Metric>,
    /// The workload's energy for this seed (checked across runs).
    pub energy: f64,
}

impl Outcome {
    /// Records a validation failure, keeping the first few messages.
    pub fn error(&mut self, msg: impl Into<String>) {
        if self.errors.len() < 20 {
            self.errors.push(msg.into());
        }
    }
}

/// The kept state, each set-up's start and end, and each one's energy.
type SetUps<T> = (T, Vec<(Instant, Instant)>, Vec<f64>);

/// Runs `setup` [`SETUP_REPS`] times, returning the last state, the median
/// set-up time in seconds at the reference host speed (sampled on a thread
/// of its own meanwhile, see [`speed`]), and every state's energy (all must
/// agree).
pub fn repeated_setup<T>(
    mut setup: impl FnMut() -> Result<(T, f64), String>,
    mut discard: impl FnMut(T),
) -> Result<(T, f64, Vec<f64>), String> {
    let stop = AtomicBool::new(false);
    let epoch = Instant::now();
    let (result, speed) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| speed::sample_until(epoch, &stop));
        let result = (|| -> Result<SetUps<T>, String> {
            let mut spans = Vec::new();
            let mut energies = Vec::new();
            let mut kept = None;
            for _ in 0..SETUP_REPS {
                let t0 = Instant::now();
                let (state, energy) = setup()?;
                spans.push((t0, Instant::now()));
                energies.push(energy);
                if let Some(old) = kept.replace(state) {
                    discard(old);
                }
            }
            Ok((kept.expect("SETUP_REPS >= 1"), spans, energies))
        })();
        stop.store(true, Ordering::Relaxed);
        let speed = sampler
            .join()
            .map_err(|_| "host-speed sampler panicked".to_string());
        (result, speed)
    });
    let ((state, spans, energies), speed) = (result?, speed?);
    let times: Vec<f64> = spans
        .iter()
        .map(|&(t0, t1)| (t1 - t0).as_secs_f64() * speed.scale(t0, t1))
        .collect();
    eprintln!(
        "set-up: median {:.3} s, {:.3} s at the reference speed",
        stats::median(
            &spans
                .iter()
                .map(|&(t0, t1)| (t1 - t0).as_secs_f64())
                .collect::<Vec<_>>()
        ),
        stats::median(&times)
    );
    Ok((state, stats::median(&times), energies))
}

/// Checks that every set-up of this run produced bit-identical energy.
pub fn check_setup_energies(out: &mut Outcome, energies: &[f64]) {
    if energies
        .windows(2)
        .any(|w| w[0].to_bits() != w[1].to_bits())
    {
        out.error(format!(
            "energy differs between set-ups of one seed: {energies:?}"
        ));
    }
}

/// Directory for the benchmark's run artifacts (span dumps, energy records),
/// inside the benchmark's own directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Cross-run determinism: the first run of a seed on this build records its
/// energy; every later run of that seed must reproduce it bit for bit. The
/// record is keyed by a hash of the executable, so a rebuilt program starts
/// afresh.
fn check_energy_record(args: &Args, energy: f64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("read {}: {e}", exe.display()))?;
    let mut h = std::hash::DefaultHasher::new();
    bytes.hash(&mut h);
    let path = out_dir().join(format!(
        "energy-{}-{}-{:016x}.txt",
        args.workload,
        args.seed,
        h.finish()
    ));
    let bits = format!("{:016x}\n", energy.to_bits());
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev == bits => Ok(()),
        Ok(prev) => Err(format!(
            "energy {energy} (bits {}) differs from an earlier run of seed {} (bits {})",
            bits.trim(),
            args.seed,
            prev.trim()
        )),
        Err(_) => {
            std::fs::create_dir_all(out_dir()).map_err(|e| format!("create out dir: {e}"))?;
            std::fs::write(&path, bits).map_err(|e| format!("write {}: {e}", path.display()))
        }
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "solve_offline" => offline::run(&args),
        "serve_mixed" => serve::run(&args),
        _ => replay::run(&args),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    if let Err(e) = check_energy_record(&args, out.energy) {
        out.error(e);
    }
    if args.trace {
        let have: BTreeSet<&str> = out.metrics.iter().map(|m| m.name).collect();
        for &(name, unit) in PER_LAYER {
            if !have.contains(name) {
                out.metrics.push(Metric::new(name, 0.0, unit, 0));
            }
        }
    } else {
        match peak_rss_mb() {
            Ok(mb) => out.metrics.push(Metric::new("peak_rss_mb", mb, "MiB", 1)),
            Err(e) => out.error(e),
        }
    }
    let expected: BTreeSet<(&str, &str)> = if args.trace { PER_LAYER } else { END_TO_END }
        .iter()
        .copied()
        .collect();
    let reported: BTreeSet<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
    if reported != expected || reported.len() != out.metrics.len() {
        out.error(format!(
            "reported metrics {reported:?} != expected {expected:?}"
        ));
    }
    let non_finite: Vec<String> = out
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| format!("metric {} is not finite: {}", m.name, m.value))
        .collect();
    for e in non_finite {
        out.error(e);
    }
    if out.attempted == 0 {
        out.error("no operation was attempted");
    }

    for m in &out.metrics {
        println!(
            "{:<30} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for e in &out.errors {
        eprintln!("perfbench: INVALID: {e}");
    }
    let correct = out.errors.is_empty();
    let body: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
