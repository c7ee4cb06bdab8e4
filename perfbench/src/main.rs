//! End-to-end and per-layer benchmark of the SPEF workspace.
//!
//! ```text
//! perfbench --workload <te_stream|whatif|packet_sim|all> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --write-manifest BENCHMARK.json
//! ```
//!
//! Each workload sets up its inputs from the seed (several times, timed),
//! then runs as a closed loop with one caller — every operation waits for
//! the previous answer — in whole passes over a fixed operation list until
//! `--seconds` have elapsed, and finally checks the outputs. Between
//! operations the loop times a fixed reference kernel
//! ([`reference::Reference`]); the gated latencies are each operation's
//! time in units of the reference times taken around it, so they do not
//! follow the shared machine's speed, which drifts by tens of percent from
//! minute to minute. The times in milliseconds are in the record line. With
//! `--trace 1` every operation is also repeated through the library's
//! public stages wrapped in spans, which gives per-layer self times, the
//! tracing overhead and the deterministic work counts of the first pass.
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it is a
//! record of the seed, input digest, operation counts and environment.

mod inputs;
mod manifest;
mod packet_sim;
mod reference;
mod stats;
mod te_stream;
mod trace;
mod whatif;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spef_core::SpfStats;

use serde::Value;
use trace::{Layer, LayerTotals, Span};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// Percentile (‰) reported as the tail latency of every workload.
const TAIL: u32 = 900;

/// Failure messages kept for the report.
const MAX_MESSAGES: usize = 8;

/// Wall time between two reference-kernel samples in the closed loop (a
/// sample is taken after the first operation that ends this long after the
/// previous sample).
const REFERENCE_EVERY: Duration = Duration::from_millis(10);

/// Reference samples on each side of an operation whose median is the
/// operation's yardstick.
const REFERENCE_WINDOW: usize = 5;

/// Untimed reference calls before the loop, so its first samples do not
/// pay for cold caches.
const REFERENCE_WARMUP: usize = 20;

pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// Runs `setup` [`SETUP_REPEATS`] times, timing each, and keeps the last
/// result (earlier ones are dropped before the next starts).
pub fn timed_setups<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), times))
}

/// What the closed loop measured.
#[derive(Default)]
pub struct LoopStats {
    /// Service time of every successful operation, in milliseconds.
    pub op_ms: Vec<f64>,
    /// For each entry of `op_ms`, the number of reference samples taken
    /// before the operation started: the samples before it are
    /// `reference_ms[..i]`, those after it `reference_ms[i..]`.
    pub op_reference: Vec<usize>,
    /// Times of the reference kernel sampled through the loop, in
    /// milliseconds.
    pub reference_ms: Vec<f64>,
    pub ops: u64,
    pub passes: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

/// The closed loop: calls `op(pass, k)` for `k` in `0..pass_len`, pass
/// after pass, until `seconds` have elapsed at a pass boundary, and samples
/// the reference kernel between operations. `op` returns the service time
/// it measured around the library call, so bookkeeping outside that call
/// is not charged to the operation.
pub fn closed_loop(
    seconds: f64,
    pass_len: usize,
    mut op: impl FnMut(usize, usize) -> Result<Duration, String>,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let mut reference = reference::Reference::new();
    for _ in 0..REFERENCE_WARMUP {
        reference.time();
    }
    let mut sample = |stats: &mut LoopStats| {
        stats
            .reference_ms
            .push(reference.time().as_secs_f64() * 1e3);
        Instant::now()
    };
    let mut last_sample = sample(&mut stats);
    let start = Instant::now();
    let mut pass = 0;
    while pass == 0 || start.elapsed().as_secs_f64() < seconds {
        for k in 0..pass_len {
            stats.ops += 1;
            match op(pass, k) {
                Ok(d) => {
                    stats.op_ms.push(d.as_secs_f64() * 1e3);
                    stats.op_reference.push(stats.reference_ms.len());
                }
                Err(e) => {
                    stats.failed += 1;
                    if stats.messages.len() < MAX_MESSAGES {
                        stats.messages.push(format!("pass {pass} op {k}: {e}"));
                    }
                }
            }
            if last_sample.elapsed() >= REFERENCE_EVERY {
                last_sample = sample(&mut stats);
            }
        }
        pass += 1;
    }
    stats.passes = pass as u64;
    stats
}

impl LoopStats {
    /// Every operation's service time in reference units, in loop order.
    pub fn costs(&self) -> Vec<f64> {
        stats::reference_costs(
            &self.op_ms,
            &self.op_reference,
            &self.reference_ms,
            REFERENCE_WINDOW,
        )
    }
}

/// Everything a workload hands back to the runner.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub lp: LoopStats,
    /// Output checks run after the timed section, and the failed ones.
    pub checked: u64,
    pub check_failures: Vec<String>,
    /// Mean maximum link utilisation of the first pass's answers.
    pub mlu_mean: f64,
    pub digest: u64,
    pub ops_per_pass: usize,
    /// Workload-specific fields of the record line.
    pub record: Vec<(String, Value)>,
    /// Per-layer values other than span times (traced runs).
    pub layers: BTreeMap<String, f64>,
    /// Spans of the traced run and the untraced service time of the same
    /// operations, for the overhead.
    pub spans: Vec<Span>,
    pub untraced_s: f64,
}

impl Outcome {
    pub fn new(setup_s: Vec<f64>, lp: LoopStats, digest: u64, ops_per_pass: usize) -> Outcome {
        Outcome {
            setup_s,
            lp,
            checked: 0,
            check_failures: Vec::new(),
            mlu_mean: f64::NAN,
            digest,
            ops_per_pass,
            record: Vec::new(),
            layers: BTreeMap::new(),
            spans: Vec::new(),
            untraced_s: 0.0,
        }
    }

    /// Records one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }
}

/// SPF counters summed over several engines, with the destination count
/// each engine routes so the dirty fraction has a base.
#[derive(Default)]
pub struct SpfTotals {
    builds: u64,
    incremental: u64,
    topology: u64,
    slots: u64,
    slot_base: u64,
    /// SPF builds that ran dense: neither the dirty-set path nor a
    /// topology patch served them. `SpfStats` cannot tell these apart from
    /// patches (a patch with a non-empty dirty set also counts as a
    /// build), so each workload counts them itself.
    pub dense: u64,
}

impl SpfTotals {
    pub fn add(&mut self, s: SpfStats, dests: usize) {
        self.builds += s.builds;
        self.incremental += s.incremental_builds;
        self.topology += s.topology_builds;
        self.slots += s.slots_rebuilt;
        self.slot_base += (s.incremental_builds + s.topology_builds) * dests as u64;
    }

    pub fn report(&self, out: &mut Outcome) {
        out.layer("engine.spf.builds", self.builds as f64);
        out.layer("engine.spf.incremental_builds", self.incremental as f64);
        out.layer("engine.spf.topology_builds", self.topology as f64);
        out.layer("engine.spf.slots_rebuilt", self.slots as f64);
        out.layer("engine.dense_fallbacks", self.dense as f64);
        let frac = if self.slot_base == 0 {
            0.0
        } else {
            self.slots as f64 / self.slot_base as f64
        };
        out.layer("engine.dirty_frac", frac);
    }
}

/// Bit-for-bit equality of two float slices.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn proc_status(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// The commit of the checkout, when it is a git work tree.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => read(&format!(".git/{r}"))
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| format!("unknown ({r})")),
    }
}

fn environment() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj([
        ("nproc", Value::from(nproc as u64)),
        ("threads", Value::from(proc_status("Threads:").unwrap_or(0))),
        (
            "profile",
            Value::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("commit", Value::String(git_commit())),
    ])
}

/// A JSON object with its fields in the given order.
pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Compact JSON text of `value`.
fn json(value: &Value) -> String {
    serde_json::to_string(value).expect("the JSON shim renders every value")
}

fn metric(value: f64, unit: &str) -> Value {
    obj([("value", Value::from(value)), ("unit", Value::from(unit))])
}

/// Builds the record and result lines of a finished run; returns them with
/// the run's verdict.
fn report(workload: &str, cfg: &RunConfig, out: Outcome) -> (Value, Value, bool) {
    let lp = &out.lp;
    let mut problems: Vec<String> = lp.messages.clone();
    problems.extend(out.check_failures.iter().cloned());

    // The gated latencies and throughput are in reference units; the
    // record also shows the times in milliseconds.
    let mut sorted = lp.costs();
    sorted.sort_by(f64::total_cmp);
    let reportable = stats::highest_reportable(sorted.len());
    let percentiles = |sorted: &[f64]| {
        let reportable = stats::highest_reportable(sorted.len());
        let mut fields = Vec::new();
        for p in stats::LADDER {
            if reportable.is_some_and(|r| p <= r) {
                fields.push((stats::label(p), Value::from(stats::percentile(sorted, p))));
            }
        }
        Value::Object(fields)
    };
    let mut ms = lp.op_ms.clone();
    ms.sort_by(f64::total_cmp);
    let mut reference_ms = lp.reference_ms.clone();
    reference_ms.sort_by(f64::total_cmp);
    if !cfg.traced && reportable.is_none_or(|r| r < TAIL) {
        problems.push(format!(
            "{} operations are too few to report {}",
            sorted.len(),
            stats::label(TAIL)
        ));
    }

    let mut metrics: Vec<(String, Value)> = Vec::new();
    if cfg.traced {
        let totals = LayerTotals::from_spans(&out.spans);
        let ops = totals.roots.max(1) as f64;
        let root_ns = totals.root_ns.max(1) as f64;
        let mut values: BTreeMap<String, f64> = out.layers.clone();
        for l in Layer::ALL {
            let ns = totals.self_ns(l) as f64;
            values.insert(format!("{}.ms", l.name()), ns / ops / 1e6);
            values.insert(format!("{}.share", l.name()), ns / root_ns);
        }
        let overhead = if out.untraced_s > 0.0 {
            (totals.root_ns as f64 / 1e9 / out.untraced_s - 1.0) * 100.0
        } else {
            0.0
        };
        values.insert("trace.overhead_pct".into(), overhead);
        values.insert("trace.ops".into(), totals.roots as f64);
        values.insert("trace.spans".into(), out.spans.len() as f64);
        for m in manifest::per_layer() {
            let v = values.get(&m.name).copied().unwrap_or(0.0);
            metrics.push((m.name, metric(v, m.unit)));
        }
    } else {
        let value = |name: &str| -> f64 {
            match name {
                "setup_s" => stats::median(&out.setup_s),
                "peak_rss_mb" => proc_status("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0),
                "op_ref_p50" => stats::percentile(&sorted, 500),
                "op_ref_p90" => stats::percentile(&sorted, TAIL),
                "ops_per_kref" => 1e3 * sorted.len() as f64 / sorted.iter().sum::<f64>(),
                "mlu_mean" => out.mlu_mean,
                other => unreachable!("no value for end-to-end metric {other}"),
            }
        };
        for m in &manifest::END_TO_END {
            let v = if sorted.is_empty() && m.name.starts_with("op") {
                f64::NAN
            } else {
                value(m.name)
            };
            if !(v.is_finite() && v > 0.0) {
                problems.push(format!("metric {} is {v}", m.name));
            }
            metrics.push((m.name.to_string(), metric(v, m.unit)));
        }
    }

    let failed = (lp.failed + out.check_failures.len() as u64).min(lp.ops);
    let correct = problems.is_empty();
    let mut record = vec![
        ("workload".to_string(), Value::from(workload)),
        ("seed".into(), Value::from(cfg.seed)),
        ("seconds".into(), Value::from(cfg.seconds)),
        ("trace".into(), Value::Bool(cfg.traced)),
        ("environment".into(), environment()),
        (
            "inputs".into(),
            obj([
                ("digest", Value::String(format!("{:016x}", out.digest))),
                ("ops_per_pass", Value::from(out.ops_per_pass as u64)),
            ]),
        ),
        ("ops".into(), Value::from(lp.ops)),
        ("passes".into(), Value::from(lp.passes)),
        (
            "setup_s".into(),
            Value::Array(out.setup_s.iter().map(|&s| Value::from(s)).collect()),
        ),
        ("latency_samples".into(), Value::from(sorted.len() as u64)),
        ("latency_ref".into(), percentiles(&sorted)),
        ("latency_ms".into(), percentiles(&ms)),
        (
            "ops_per_s".into(),
            Value::from(1e3 * ms.len() as f64 / ms.iter().sum::<f64>()),
        ),
        (
            "reference_ms".into(),
            obj([
                ("samples", Value::from(reference_ms.len() as u64)),
                ("percentiles", percentiles(&reference_ms)),
            ]),
        ),
        ("checks".into(), Value::from(out.checked)),
        (
            "fail_frac".into(),
            Value::from(failed as f64 / lp.ops.max(1) as f64),
        ),
    ];
    record.extend(out.record);
    record.push((
        "problems".into(),
        Value::Array(problems.iter().map(|p| Value::from(p.as_str())).collect()),
    ));
    let result = obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::from(lp.ops.max(1))),
        ("failed", Value::from(failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    (obj([("record", Value::Object(record))]), result, correct)
}

fn run_workload(workload: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    match workload {
        "te_stream" => te_stream::run(cfg),
        "whatif" => whatif::run(cfg),
        "packet_sim" => packet_sim::run(cfg),
        other => Err(format!(
            "unknown workload {other:?}; known: te_stream, whatif, packet_sim, all"
        )),
    }
}

/// Runs every workload in a process of its own (so each reports its own
/// peak memory), forwards their output, and prints one combined result
/// whose metric names are prefixed with the workload.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for (name, _) in manifest::WORKLOADS {
        let mut child_args: Vec<String> = args.to_vec();
        let pos = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("--workload is present");
        child_args[pos + 1] = name.to_string();
        let output = std::process::Command::new(&exe)
            .args(&child_args)
            .stderr(std::process::Stdio::inherit())
            .output();
        let stdout = match output {
            Ok(o) => {
                correct &= o.status.success();
                String::from_utf8_lossy(&o.stdout).into_owned()
            }
            Err(e) => {
                eprintln!("perfbench: cannot run {name}: {e}");
                String::new()
            }
        };
        print!("{stdout}");
        let result = stdout
            .lines()
            .last()
            .and_then(|l| serde_json::parse_value(l).ok());
        let Some(result) = result else {
            correct = false;
            continue;
        };
        correct &= result.get_field("correct") == Some(&Value::Bool(true));
        let count = |key| result.get_field(key).and_then(Value::as_u64).unwrap_or(0);
        attempted += count("attempted");
        failed += count("failed");
        if let Some(Value::Object(fields)) = result.get_field("metrics") {
            for (metric, value) in fields {
                metrics.push((format!("{name}.{metric}"), value.clone()));
            }
        }
    }
    println!(
        "{}",
        json(&obj([
            ("correct", Value::Bool(correct)),
            ("attempted", Value::from(attempted)),
            ("failed", Value::from(failed)),
            ("metrics", Value::Object(metrics)),
        ]))
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse_args(args: &[String]) -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 1,
        seconds: manifest::RUN_SECONDS as f64,
        traced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds.is_finite() && cfg.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                cfg.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, cfg))
}

fn main() -> ExitCode {
    // The library runs on one thread. On a machine whose other cores are
    // shared with other programs, a second worker's speed is whatever
    // those programs leave it, which no reference kernel on this thread
    // can gauge; the rayon stand-in reads this variable on every call.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--write-manifest") {
        let Some(path) = args.get(1) else {
            eprintln!("perfbench: --write-manifest needs a path");
            return ExitCode::FAILURE;
        };
        return match std::fs::write(
            path,
            serde_json::to_string_pretty(&manifest::manifest())
                .expect("the JSON shim renders every value")
                + "\n",
        ) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: cannot write {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (workload, cfg) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if workload == "all" {
        return run_all(&args);
    }
    let outcome = match run_workload(&workload, &cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (record, result, correct) = report(&workload, &cfg, outcome);
    if let Some(Value::Object(metrics)) = result.get_field("metrics") {
        for (name, m) in metrics {
            eprintln!("{workload:>10}  {name:<40} {}", json(m));
        }
    }
    println!("{}", json(&record));
    println!("{}", json(&result));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_divide_each_operation_by_the_reference_times_around_it() {
        let lp = LoopStats {
            op_ms: vec![4.0, 9.0],
            op_reference: vec![1, 3],
            reference_ms: vec![2.0, 4.0, 3.0, 3.0],
            ..LoopStats::default()
        };
        // REFERENCE_WINDOW covers every sample here: the median is 3.
        assert_eq!(lp.costs(), vec![4.0 / 3.0, 3.0]);
    }
}
