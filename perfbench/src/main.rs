//! `perfbench` — the repository's benchmark: three workloads over the
//! gdf ATPG system, each checked for correct output, each reporting the
//! same end-to-end metrics, plus a traced mode that reports per-layer
//! metrics measured from outside each layer's public functions.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <atpg_robust|grade_random|serve_jobs> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. With
//! `--trace 0` the metrics are the end-to-end list [`END_TO_END`]; with
//! `--trace 1` they are the per-layer list [`PER_LAYER`]. The lines
//! before it are a human-readable report. A failed correctness check
//! prints `"correct": false` and exits with status 1. README.md in this
//! directory describes the workloads and metrics.

mod atpg;
mod grade;
mod layers;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end metrics, `(name, unit)`: what a user of the system sees.
/// Every workload reports every one of them, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("tested_faults", "count"),
    ("undecided_faults", "count"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, `(name, unit)`, reported by the traced run. A
/// layer a workload bypasses reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.build_s", "s"),
    ("netlist.gates", "count"),
    ("netlist.faults", "count"),
    ("algebra.delay_eval_ns", "ns"),
    ("algebra.delay_narrow_ns", "ns"),
    ("algebra.static_eval_ns", "ns"),
    ("algebra.static_narrow_ns", "ns"),
    ("tdgen.calls", "count"),
    ("tdgen.busy_s", "s"),
    ("tdgen.tests", "count"),
    ("tdgen.untestable", "count"),
    ("tdgen.aborted", "count"),
    ("tdgen.backtracks", "count"),
    ("tdgen.test_ratio", "ratio"),
    ("semilet.propagate.calls", "count"),
    ("semilet.propagate.busy_s", "s"),
    ("semilet.propagate.propagated", "count"),
    ("semilet.propagate.aborted", "count"),
    ("semilet.propagate.success_ratio", "ratio"),
    ("semilet.sync.calls", "count"),
    ("semilet.sync.busy_s", "s"),
    ("semilet.sync.synchronized", "count"),
    ("semilet.sync.aborted", "count"),
    ("sim.sequences", "count"),
    ("sim.busy_s", "s"),
    ("sim.candidate_faults", "count"),
    ("sim.detections", "count"),
    ("sim.useful_ratio", "ratio"),
    ("core.run_s", "s"),
    ("core.generate_s", "s"),
    ("core.generate_calls", "count"),
    ("core.credit_s", "s"),
    ("core.credit_calls", "count"),
    ("core.fill_s", "s"),
    ("core.fsim_s", "s"),
    ("core.checkpoint_s", "s"),
    ("core.checkpoints", "count"),
    ("core.credited_faults", "count"),
    ("core.sequences", "count"),
    ("core.vectors", "count"),
    ("core.artifact_save_s", "s"),
    ("replay.total_s", "s"),
    ("serve.submit_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.fetch_ms", "ms"),
    ("serve.http_requests", "count"),
    ("serve.parse_s", "s"),
    ("serve.publish_s", "s"),
    ("serve.failed_jobs", "count"),
    ("store.cache_hits", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.get_s", "s"),
    ("store.publish_s", "s"),
    ("store.objects", "count"),
    ("store.bytes", "B"),
    ("obs.traces_written", "count"),
    ("obs.overhead_pct", "%"),
];

/// The benchmark's default seed: the X-fill seed `gdf run` uses by
/// default, so the default inputs reproduce the Table-3 configuration.
pub const DEFAULT_SEED: u64 = 0x1995_0308;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table-3 run; see [`atpg`].
    AtpgRobust,
    /// Fault grading of random sequences; see [`grade`].
    GradeRandom,
    /// Closed-loop job serving; see [`serve`].
    ServeJobs,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::AtpgRobust,
        Workload::GradeRandom,
        Workload::ServeJobs,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::AtpgRobust => "atpg_robust",
            Workload::GradeRandom => "grade_random",
            Workload::ServeJobs => "serve_jobs",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What a workload gets from the command line.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The input seed: equal seeds give equal inputs.
    pub seed: u64,
    /// The measuring budget, in seconds; each workload turns it into a
    /// fixed number of rounds.
    pub seconds: u64,
    /// `true` for the traced (per-layer) run.
    pub trace: bool,
    /// Scratch directory for artifacts and the job server, removed at
    /// exit.
    pub work: PathBuf,
}

impl Ctx {
    /// Rounds to measure when one round costs about `round_secs`: the
    /// budget divided by that cost, at least `min`. A pure function of
    /// `--seconds`, so every run of a workload takes the same samples.
    pub fn rounds(&self, round_secs: f64, min: usize) -> usize {
        ((self.seconds as f64 / round_secs).floor() as usize).max(min)
    }
}

/// What one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    names: &'static [(&'static str, &'static str)],
    metrics: BTreeMap<&'static str, f64>,
    /// Human-readable report lines, printed before the result.
    pub report: Vec<String>,
    /// Requests attempted: circuit runs, grading passes or jobs.
    pub attempted: u64,
    /// Requests that failed or were refused.
    pub failed: u64,
    /// Correctness checks that failed.
    pub failures: Vec<String>,
}

impl Outcome {
    /// An empty outcome for the metric list of a traced or untraced run.
    pub fn new(trace: bool) -> Self {
        Outcome {
            names: if trace { PER_LAYER } else { END_TO_END },
            metrics: BTreeMap::new(),
            report: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Records metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in this run's metric list: a misspelt
    /// metric is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let &(known, _) = self
            .names
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown metric `{name}`"));
        self.metrics.insert(known, value);
    }

    /// Records 0 for every metric of a layer the workload does not use
    /// (`prefix` is the layer's name with its dot, e.g. `"serve."`).
    pub fn bypass(&mut self, prefix: &str) {
        for &(name, _) in self.names.iter().filter(|(n, _)| n.starts_with(prefix)) {
            self.metrics.insert(name, 0.0);
        }
        self.note(format!("layer {} bypassed", prefix.trim_end_matches('.')));
    }

    /// Records `setup_s`, the median of `secs`, and reports the range.
    pub fn set_setup(&mut self, secs: &[f64]) {
        let ms = |q: f64| stats::nearest_rank(secs, q).value * 1e3;
        let median = stats::median(secs);
        self.set("setup_s", median);
        self.note(format!(
            "setup_s = {:.3} ms (median of {} set-ups; min {:.3} ms, max {:.3} ms)",
            median * 1e3,
            secs.len(),
            ms(1.0 / secs.len() as f64),
            ms(1.0)
        ));
    }

    /// Adds a report line.
    pub fn note(&mut self, line: String) {
        self.report.push(line);
    }

    /// Records a failed correctness check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// The result line. Metrics the workload never set, and values that
    /// are not finite, become failed checks: the benchmark must report
    /// every metric of its list, as measured.
    fn finish(&mut self) -> String {
        let mut body = String::new();
        for &(name, unit) in self.names {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.failures.push(format!("metric {name} is {v}"));
                    0.0
                }
                None => {
                    self.failures
                        .push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            if !body.is_empty() {
                body.push_str(", ");
            }
            let _ = write!(
                body,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed
        )
    }
}

const USAGE: &str = "usage: perfbench --workload <atpg_robust|grade_random|serve_jobs> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(args: &[String]) -> Result<(Workload, u64, u64, bool), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 20, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, seed, seconds, trace))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, seconds, trace) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        work: out_dir.join(format!("work-{}", std::process::id())),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.work.display());
        return ExitCode::FAILURE;
    }

    let tracer = trace::Tracer::default();
    let mut outcome = Outcome::new(trace);
    match workload {
        Workload::AtpgRobust => atpg::run(&ctx, &tracer, &mut outcome),
        Workload::GradeRandom => grade::run(&ctx, &tracer, &mut outcome),
        Workload::ServeJobs => serve::run(&ctx, &tracer, &mut outcome),
    }
    let _ = std::fs::remove_dir_all(&ctx.work);
    if trace {
        let path = out_dir.join(format!("trace-{}-{seed}.json", workload.name()));
        match tracer.write_chrome(&path) {
            Ok(()) => outcome.note(format!("{} spans -> {}", tracer.len(), path.display())),
            Err(e) => outcome.check(false, || format!("writing {}: {e}", path.display())),
        }
    }

    let result = outcome.finish();
    println!(
        "workload {} seed {seed} seconds {seconds} trace {}",
        workload.name(),
        trace as u8
    );
    for line in &outcome.report {
        println!("  {line}");
    }
    for failure in &outcome.failures {
        println!("  CHECK FAILED: {failure}");
    }
    println!("{result}");
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdf_core::json::Json;

    fn strings(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse_with_defaults_and_reject_junk() {
        let (w, seed, secs, trace) =
            parse_args(&strings(&["--workload", "serve_jobs", "--trace", "1"])).unwrap();
        assert_eq!(
            (w, seed, secs, trace),
            (Workload::ServeJobs, DEFAULT_SEED, 20, true)
        );
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--seed", "3"])).is_err());
        assert!(parse_args(&strings(&["--workload", "atpg_robust", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--workload"])).is_err());
    }

    #[test]
    fn rounds_are_a_function_of_the_budget() {
        let ctx = Ctx {
            seed: 1,
            seconds: 20,
            trace: false,
            work: PathBuf::new(),
        };
        assert_eq!(ctx.rounds(10.0, 1), 2);
        assert_eq!(ctx.rounds(6.0, 1), 3);
        assert_eq!(ctx.rounds(100.0, 2), 2);
    }

    #[test]
    fn unmeasured_and_non_finite_metrics_fail_the_run() {
        let mut outcome = Outcome::new(false);
        for &(name, _) in END_TO_END {
            outcome.set(name, 1.5);
        }
        let line = outcome.finish();
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        let json = Json::parse(&line).unwrap();
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));

        let mut outcome = Outcome::new(false);
        outcome.set("run_s", f64::NAN);
        outcome.finish();
        assert!(outcome.failures.iter().any(|f| f.contains("run_s is NaN")));
        assert!(outcome
            .failures
            .iter()
            .any(|f| f.contains("setup_s was not measured")));
    }

    #[test]
    fn bypassed_layers_read_zero() {
        let mut outcome = Outcome::new(true);
        outcome.bypass("serve.");
        assert_eq!(outcome.metrics.get("serve.submit_ms"), Some(&0.0));
        assert_eq!(outcome.metrics.get("store.bytes"), None);
    }

    /// The metric lists here and in the repository's `BENCHMARK.json` must
    /// agree name for name and unit for unit.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = json
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }
}
