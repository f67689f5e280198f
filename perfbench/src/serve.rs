//! `serve_jobs` — closed-loop job serving.
//!
//! An in-process `JobServer` with 2 workers, driven by 2 client threads
//! of this process in a closed loop: each client submits a robust `s27`
//! job over HTTP, follows the job's event stream until the job is
//! terminal, fetches its artifact, then submits the next. (Following the
//! stream takes one connection per job; polling the status would open
//! one per poll, and the thousands of sockets a run leaves in TIME_WAIT
//! slowed every later run on the same machine.) One submission in four repeats a spec the same
//! client submitted before, so the store answers it from the result cache
//! (a read); the other three are distinct X-fill seeds, each computed and
//! published (a write). A round is 16 jobs per client.
//!
//! **Why this workload:** here the serving stack — `gdf-serve`'s HTTP,
//! queue and job runner, `gdf-store`, artifact encoding and `gdf-obs` —
//! costs about as much as the engine, so it shows whether a change to the
//! queue, the job runner or the store costs anything. The reads beside
//! the writes show whether a gain on one path costs the other. The
//! engine's share is small (`s27`), so search-engine changes should move
//! it little.
//!
//! **Seed:** fixes every client's job stream: the spec seeds and which
//! submissions repeat which earlier spec.
//!
//! **Checks:** every fetched artifact is byte-identical to an in-process
//! run of the same spec (computed after the load, outside timing),
//! every cache hit returns the same bytes as its miss, and the server's
//! `/metrics` saw the engine work of every computed job.

use crate::layers::{self, EngineCounts, SimCounts};
use crate::stats::{median, nearest_rank, peak_rss_mb};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};
use gdf_core::{Backend, CircuitSource, PatternSet, RunArtifact, RunConfig};
use gdf_netlist::{suite, Circuit, ModelKind};
use gdf_serve::server::submission_for_suite;
use gdf_serve::{Client, JobServer, ServeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

const CIRCUIT: &str = "s27";
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Jobs each client runs per round.
const JOBS_PER_ROUND: usize = 16;
/// One submission in this many repeats an earlier spec.
const HIT_EVERY: usize = 4;
/// Budget seconds per measured round (a round takes about 0.8 s on a
/// 2-core machine, so a 20 s budget measures about 16 s).
const ROUND_SECS: f64 = 1.0;
/// Set-ups timed before each measured round; `setup_s` is the median of
/// all of them.
const SETUPS_PER_GAP: usize = 4;

/// One submission of a client's job stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submission {
    /// The job's X-fill seed; equal seeds are equal specs.
    pub spec_seed: u64,
    /// Whether this repeats an earlier spec of the same client.
    pub repeat: bool,
}

/// Client `client`'s first `n` submissions under workload seed `seed`.
/// In every group of [`HIT_EVERY`] submissions exactly one, at a seeded
/// position (never the stream's first), repeats a seeded pick among the
/// client's earlier specs; the others carry seeds no other submission of
/// any client uses.
pub fn job_stream(seed: u64, client: usize, n: usize) -> Vec<Submission> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e4e_5f0b_u64.wrapping_mul(client as u64 + 1));
    let base = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ((client as u64) << 48);
    let mut distinct: Vec<u64> = Vec::new();
    let mut stream = Vec::with_capacity(n);
    while stream.len() < n {
        let first = if stream.is_empty() { 1 } else { 0 };
        let repeat_at = rng.gen_range(first..HIT_EVERY);
        for k in 0..HIT_EVERY.min(n - stream.len()) {
            let submission = if k == repeat_at {
                let pick = distinct[rng.gen_range(0..distinct.len())];
                Submission {
                    spec_seed: pick,
                    repeat: true,
                }
            } else {
                let spec_seed = base ^ distinct.len() as u64;
                distinct.push(spec_seed);
                Submission {
                    spec_seed,
                    repeat: false,
                }
            };
            stream.push(submission);
        }
    }
    stream
}

/// How one job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobEnd {
    /// Done; the fetched canonical artifact.
    Done(String),
    /// The server refused the submission (queue full, draining, …).
    Refused(String),
    /// Accepted, but it failed, was cancelled, or never finished.
    Failed(String),
}

/// One client-side job record.
#[derive(Debug, Clone)]
pub struct JobRecord {
    submission: Submission,
    end: JobEnd,
    /// Submit until the artifact is fetched; `None` unless done.
    latency_ms: Option<f64>,
}

/// `(attempted, failed)` over `records`: refused and failed submissions
/// both count as failed.
pub fn failure_counts(records: &[JobRecord]) -> (u64, u64) {
    let failed = records
        .iter()
        .filter(|r| !matches!(r.end, JobEnd::Done(_)))
        .count();
    (records.len() as u64, failed as u64)
}

/// Latency samples in milliseconds; a job that did not finish counts as
/// infinitely late, so it misses every latency limit.
fn latencies_ms(records: &[JobRecord]) -> Vec<f64> {
    records
        .iter()
        .map(|r| r.latency_ms.unwrap_or(f64::INFINITY))
        .collect()
}

fn spec(spec_seed: u64) -> RunConfig {
    RunConfig::new(Backend::NonScan).with_seed(spec_seed)
}

/// Runs one job through `client`: submit, follow its events until it is
/// terminal, fetch its artifact.
/// With a tracer, each step is a span of the job's request.
fn run_job(client: &Client, submission: Submission, tracer: Option<&Tracer>) -> JobRecord {
    let body = submission_for_suite(&format!("suite:{CIRCUIT}"), &spec(submission.spec_seed));
    let root = tracer.map(|t| t.open_request("serve.job", submission.spec_seed));
    let step = |name: &'static str| tracer.zip(root).map(|(t, r)| (t, t.open(name, Some(r))));
    let close = |span: Option<(&Tracer, _)>| {
        if let Some((t, s)) = span {
            t.close(s);
        }
    };
    let start = Instant::now();
    let span = step("serve.submit");
    let submitted = client.submit(&body);
    close(span);
    let end = match submitted {
        Err(e) => JobEnd::Refused(e.to_string()),
        Ok(id) => {
            // The event stream ends once the job is terminal.
            let span = step("serve.wait");
            let followed = client.events(id, |_| true);
            close(span);
            match followed {
                Err(e) => JobEnd::Failed(format!("events: {e}")),
                Ok(()) => {
                    let span = step("serve.fetch");
                    let fetched = client.artifact(id);
                    close(span);
                    match fetched {
                        Ok(text) => JobEnd::Done(text),
                        // Not done: the server answers 409 for a failed
                        // or cancelled job.
                        Err(e) => JobEnd::Failed(format!("fetch: {e}")),
                    }
                }
            }
        }
    };
    let latency_ms = matches!(end, JobEnd::Done(_)).then(|| layers::secs(start) * 1e3);
    if let (Some(t), Some(r)) = (tracer, root) {
        t.close(r);
    }
    JobRecord {
        submission,
        end,
        latency_ms,
    }
}

/// Runs closed-loop round `round` against `addr`; returns its job records
/// and its wall time in seconds.
fn drive(
    addr: &str,
    streams: &[Vec<Submission>],
    round: usize,
    tracer: Option<&Tracer>,
) -> (Vec<JobRecord>, f64) {
    let barrier = Barrier::new(CLIENTS + 1);
    let records = Mutex::new(Vec::new());
    let mut secs = 0.0;
    std::thread::scope(|scope| {
        for stream in streams {
            let (barrier, records) = (&barrier, &records);
            scope.spawn(move || {
                let client = Client::new(addr).with_retries(0);
                let jobs = &stream[round * JOBS_PER_ROUND..(round + 1) * JOBS_PER_ROUND];
                barrier.wait();
                let done: Vec<JobRecord> =
                    jobs.iter().map(|&s| run_job(&client, s, tracer)).collect();
                records.lock().expect("job records poisoned").extend(done);
                barrier.wait();
            });
        }
        barrier.wait();
        let start = Instant::now();
        barrier.wait();
        secs = layers::secs(start);
    });
    (records.into_inner().expect("job records poisoned"), secs)
}

/// The canonical artifact an in-process run of `spec_seed` produces.
fn in_process_artifact(circuit: &Circuit, spec_seed: u64) -> String {
    let config = spec(spec_seed);
    let run = layers::build_atpg(circuit, &config, 1).build().run();
    RunArtifact::from_run(
        circuit,
        &run,
        config,
        Some(CircuitSource::suite(circuit, CIRCUIT)),
    )
    .canonical_encode()
}

/// Checks every fetched artifact against an in-process run of its spec,
/// and every cache hit against its miss. Returns the decoded artifacts of
/// the misses.
fn check_artifacts(
    circuit: &Circuit,
    records: &[JobRecord],
    out: &mut Outcome,
) -> Vec<RunArtifact> {
    let mut misses: BTreeMap<u64, &str> = BTreeMap::new();
    for r in records {
        if let (JobEnd::Done(text), false) = (&r.end, r.submission.repeat) {
            misses.insert(r.submission.spec_seed, text);
        }
    }
    // The in-process references, outside timing, on two threads.
    let seeds: Vec<u64> = misses.keys().copied().collect();
    let references: Vec<(u64, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .chunks(seeds.len().div_ceil(2).max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&s| (s, in_process_artifact(circuit, s)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    });
    for (spec_seed, want) in &references {
        out.check(misses[spec_seed] == want.as_str(), || {
            format!("spec {spec_seed:#x}: served artifact differs from an in-process run")
        });
    }
    for r in records {
        if let (JobEnd::Done(text), true) = (&r.end, r.submission.repeat) {
            let seed = r.submission.spec_seed;
            out.check(misses.get(&seed) == Some(&text.as_str()), || {
                format!("spec {seed:#x}: cache hit differs from its miss")
            });
        }
    }
    misses
        .values()
        .filter_map(|text| match RunArtifact::decode(text) {
            Ok(a) => Some(a),
            Err(e) => {
                out.check(false, || format!("served artifact does not decode: {e}"));
                None
            }
        })
        .collect()
}

/// Checks that the scrape saw the engine work of every computed job: each
/// distinct spec is computed once, and serially the engine calls
/// `generate` once for every fault that fault simulation did not credit.
/// Fewer `generate` spans mean the server's phase sink missed jobs, and
/// the engine-phase metrics would not describe the load.
fn check_phase_counts(metrics: &str, artifacts: &[RunArtifact], out: &mut Outcome) {
    let targeted: u32 = artifacts
        .iter()
        .filter_map(|a| a.report())
        .map(|r| r.row.total_faults() - r.dropped_by_simulation)
        .sum();
    let spans = scrape(
        metrics,
        "gdf_engine_phase_seconds_count",
        &["phase=\"generate\""],
    );
    out.check(spans >= f64::from(targeted), || {
        format!(
            "/metrics holds {spans} generate spans for {targeted} targeted faults of {} computed jobs",
            artifacts.len()
        )
    });
}

/// Sums the samples of metric `name` whose label set holds every entry of
/// `labels` (every series of `name` when `labels` is empty).
pub fn scrape(text: &str, name: &str, labels: &[&str]) -> f64 {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            let (metric, body) = match series.split_once('{') {
                Some((m, rest)) => (m, rest.trim_end_matches('}')),
                None => (series, ""),
            };
            let matches = metric == name && labels.iter().all(|l| body.split(',').any(|x| x == *l));
            matches.then(|| value.parse::<f64>().ok()).flatten()
        })
        .sum()
}

/// Starts a server in `dir` and waits until it answers; the set-up a
/// user pays before the first job. `obs` decides, at start, only whether
/// the server installs the process-global engine phase sink: the last
/// server started with it on receives every in-process engine span.
fn start_server(dir: &Path, obs: bool) -> Result<(JobServer, String), String> {
    let config = ServeConfig::new("127.0.0.1:0", dir)
        .with_workers(WORKERS)
        .with_obs(obs);
    let server = JobServer::start(config).map_err(|e| e.to_string())?;
    let addr = server.local_addr().to_string();
    Client::new(addr.clone())
        .healthz()
        .map_err(|e| format!("healthz: {e}"))?;
    Ok((server, addr))
}

/// The set-ups timed in one run.
#[derive(Debug)]
struct Setups {
    /// The set-up servers' directory.
    dir: PathBuf,
    secs: Vec<f64>,
    /// The netlist part of each.
    netlist_secs: Vec<f64>,
    faults: usize,
}

impl Setups {
    /// Initialises the set-up servers' directory `dir` by an untimed
    /// start, as a restarted `gdf serve --dir` finds it.
    fn new(dir: PathBuf) -> Result<Setups, String> {
        JobServer::shutdown(start_server(&dir, false)?.0);
        Ok(Setups {
            dir,
            secs: Vec::new(),
            netlist_secs: Vec::new(),
            faults: 0,
        })
    }

    /// Times [`SETUPS_PER_GAP`] set-ups: circuit build, fault
    /// enumeration, and a server start in the set-up directory until
    /// `/healthz` answers. Called before each measured round, outside
    /// every other timed span, so that the median spans the whole run
    /// rather than one moment of the machine. The set-up servers start
    /// without obs, so the measured server keeps the phase sink.
    fn time(&mut self) -> Result<(), String> {
        let mut failed = None;
        layers::time_setups(
            SETUPS_PER_GAP,
            &mut self.secs,
            || {
                let start = Instant::now();
                let circuit = suite::by_name(CIRCUIT).expect("s27 is in the suite");
                self.faults = ModelKind::Delay
                    .model()
                    .enumerate(&circuit, &Default::default())
                    .len();
                self.netlist_secs.push(layers::secs(start));
                start_server(&self.dir, false)
            },
            |started| match started {
                Ok((server, _)) => JobServer::shutdown(server),
                Err(e) => failed = Some(e),
            },
        );
        failed.map_or(Ok(()), Err)
    }
}

/// The workload's entry point.
pub fn run(ctx: &Ctx, tracer: &Tracer, out: &mut Outcome) {
    let circuit = suite::by_name(CIRCUIT).expect("s27 is in the suite");
    let rounds = ctx.rounds(ROUND_SECS, 2);
    let started = Setups::new(ctx.work.join("setup"))
        .and_then(|setups| Ok((setups, start_server(&ctx.work.join("server"), true)?)));
    let (mut setups, (server, addr)) = match started {
        Ok(started) => started,
        Err(e) => {
            out.check(false, || format!("server start: {e}"));
            return;
        }
    };

    // Round 0 warms the server up and is not timed; its jobs are checked.
    let streams: Vec<Vec<Submission>> = (0..CLIENTS)
        .map(|c| job_stream(ctx.seed, c, (rounds + 1) * JOBS_PER_ROUND))
        .collect();
    let (mut records, _) = drive(&addr, &streams, 0, None);
    let mut measured = Vec::new();
    let (mut round_secs, mut traced_secs) = (Vec::new(), Vec::new());
    for round in 1..=rounds {
        if let Err(e) = setups.time() {
            out.check(false, || format!("set-up server start: {e}"));
        }
        // The traced run alternates untraced and traced rounds.
        let traced = ctx.trace && round % 2 == 0;
        let (done, secs) = drive(&addr, &streams, round, traced.then_some(tracer));
        measured.extend(done);
        if traced {
            traced_secs.push(secs);
        } else {
            round_secs.push(secs);
        }
    }
    let scraped = Client::new(addr.clone()).metrics();
    JobServer::shutdown(server);
    // Read before the reference runs, so that it is the served load's:
    // the server, the clients and the artifacts they fetched.
    let peak_rss = peak_rss_mb().unwrap_or(0.0);
    records.extend(measured.iter().cloned());

    let (attempted, failed) = failure_counts(&records);
    out.attempted = attempted;
    out.failed = failed;
    for r in records.iter().filter(|r| !matches!(r.end, JobEnd::Done(_))) {
        out.note(format!("job {:#x}: {:?}", r.submission.spec_seed, r.end));
    }
    let artifacts = check_artifacts(&circuit, &records, out);
    let repeats = records.iter().filter(|r| r.submission.repeat).count();
    let metrics = match scraped {
        Ok(text) => text,
        Err(e) => {
            out.check(false, || format!("/metrics scrape: {e}"));
            return;
        }
    };
    check_phase_counts(&metrics, &artifacts, out);

    if ctx.trace {
        traced(
            ctx,
            tracer,
            &circuit,
            setups.faults,
            &setups.netlist_secs,
            &artifacts,
            out,
        );
        serve_metrics(tracer, &metrics, failed, attempted, out);
        let untraced = median(&round_secs);
        out.set("core.run_s", untraced);
        out.set(
            "obs.overhead_pct",
            layers::overhead_pct(median(&traced_secs), untraced),
        );
        return;
    }

    let reports: Vec<_> = records
        .iter()
        .filter_map(|r| match &r.end {
            JobEnd::Done(text) => RunArtifact::decode(text).ok(),
            _ => None,
        })
        .filter_map(|a| a.report().map(|r| r.row.clone()))
        .collect();
    let tested: u32 = reports.iter().map(|r| r.tested).sum();
    let aborted: u32 = reports.iter().map(|r| r.aborted).sum();
    let lat = latencies_ms(&measured);
    let p50 = nearest_rank(&lat, 0.5);
    let p90 = nearest_rank(&lat, 0.9);
    let run_s = median(&round_secs);
    out.set_setup(&setups.secs);
    out.set("run_s", run_s);
    out.set("latency_p50_ms", p50.value);
    out.set("latency_p90_ms", p90.value);
    out.set("tested_faults", f64::from(tested));
    out.set("undecided_faults", f64::from(aborted));
    out.set("peak_rss_mb", peak_rss);
    let (jobs, failed_measured) = failure_counts(&measured);
    let busy: f64 = round_secs.iter().sum();
    out.note(format!(
        "jobs_per_s = {:.2} ({jobs} jobs in {busy:.3} s; rounds of {} jobs: min {:.3} s, median {run_s:.3} s, max {:.3} s)",
        (jobs - failed_measured) as f64 / busy,
        CLIENTS * JOBS_PER_ROUND,
        nearest_rank(&round_secs, 1.0 / round_secs.len() as f64).value,
        nearest_rank(&round_secs, 1.0).value,
    ));
    out.note(format!(
        "job_latency_p50_ms = {:.2}, job_latency_p90_ms = {:.2} ({} samples)",
        p50.value, p90.value, p50.samples
    ));
    out.note(format!(
        "failed_job_ratio = {} ({failed} of {attempted}); {repeats} repeats, {} distinct specs",
        failed as f64 / attempted as f64,
        artifacts.len()
    ));
}

/// The per-layer metrics of the traced run that come from outside the
/// server: netlist, algebra, and the engine replays on one job's spec.
fn traced(
    ctx: &Ctx,
    tracer: &Tracer,
    circuit: &Circuit,
    faults: usize,
    netlist_secs: &[f64],
    artifacts: &[RunArtifact],
    out: &mut Outcome,
) {
    out.set("netlist.build_s", median(netlist_secs));
    out.set("netlist.gates", circuit.num_gates() as f64);
    out.set("netlist.faults", faults as f64);
    let credited: u32 = artifacts
        .iter()
        .filter_map(|a| a.report())
        .map(|r| r.dropped_by_simulation)
        .sum();
    out.set("core.credited_faults", f64::from(credited));
    out.set(
        "core.sequences",
        artifacts.iter().map(|a| a.sequences()).sum::<usize>() as f64,
    );
    let vectors: u32 = artifacts
        .iter()
        .filter_map(|a| a.report())
        .map(|r| r.row.patterns)
        .sum();
    out.set("core.vectors", f64::from(vectors));
    out.set("core.artifact_save_s", 0.0);

    // Replay the engines on the first job's spec.
    let config = spec(job_stream(ctx.seed, 0, 1)[0].spec_seed);
    let root = tracer.open_request("replay", config.seed);
    let mut engines = EngineCounts::default();
    layers::replay_engines(tracer, root, circuit, &config, &mut engines);
    let run = layers::build_atpg(circuit, &config, 1).build().run();
    let set = PatternSet::from_run(circuit, &run, "non-scan", config.seed, None);
    let mut sims = SimCounts::default();
    let replayed = layers::replay_grading(
        tracer,
        root,
        circuit,
        &set,
        ModelKind::Delay,
        config.seed,
        &mut sims,
    );
    out.check(replayed.is_ok(), || format!("grading replay: {replayed:?}"));
    tracer.close(root);
    out.set("replay.total_s", engines.busy_s() + sims.busy_s());
    layers::engine_metrics(&engines, out);
    layers::sim_metrics(&sims, out);
    layers::algebra_sweep(tracer, out);
}

/// The `serve.*`, `store.*`, `obs.traces_written` and engine-phase
/// metrics: client-side spans plus one `/metrics` scrape after the load.
fn serve_metrics(tracer: &Tracer, metrics: &str, failed: u64, attempted: u64, out: &mut Outcome) {
    for (metric, span) in [
        ("serve.submit_ms", "serve.submit"),
        ("serve.wait_ms", "serve.wait"),
        ("serve.fetch_ms", "serve.fetch"),
    ] {
        let ms: Vec<f64> = tracer.durations(span).iter().map(|s| s * 1e3).collect();
        out.set(metric, if ms.is_empty() { 0.0 } else { median(&ms) });
    }
    let phase = |p: &str| {
        let label = format!("phase=\"{p}\"");
        (
            scrape(metrics, "gdf_engine_phase_seconds_count", &[&label]) as u64,
            scrape(metrics, "gdf_engine_phase_seconds_sum", &[&label]),
        )
    };
    out.set(
        "serve.http_requests",
        scrape(metrics, "gdf_http_requests_total", &[]),
    );
    out.set("serve.parse_s", phase("parse").1);
    out.set("serve.publish_s", phase("publish").1);
    out.set("serve.failed_jobs", failed as f64);
    let hits = scrape(metrics, "gdf_cache_hits_total", &[]);
    out.set("store.cache_hits", hits);
    out.set("store.hit_ratio", hits / attempted.max(1) as f64);
    out.set("store.get_s", phase("store_get").1);
    out.set("store.publish_s", phase("store_publish").1);
    out.set("store.objects", scrape(metrics, "gdf_store_objects", &[]));
    out.set("store.bytes", scrape(metrics, "gdf_store_bytes", &[]));
    out.set(
        "obs.traces_written",
        scrape(metrics, "gdf_traces_written_total", &[]),
    );
    layers::core_phases(phase, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_stream_is_deterministic_and_one_in_four_repeats() {
        let a = job_stream(7, 0, 64);
        assert_eq!(a, job_stream(7, 0, 64));
        assert_ne!(a, job_stream(8, 0, 64));
        assert_eq!(a.iter().filter(|s| s.repeat).count(), 16);
        assert!(!a[0].repeat, "the first submission has nothing to repeat");
        for (i, s) in a.iter().enumerate() {
            let earlier = a[..i]
                .iter()
                .any(|e| !e.repeat && e.spec_seed == s.spec_seed);
            assert_eq!(s.repeat, earlier, "submission {i}");
        }
        // A longer stream extends the shorter one.
        assert_eq!(&job_stream(7, 0, 128)[..64], &a[..]);
        // No distinct spec is shared between clients.
        let b = job_stream(7, 1, 64);
        assert!(b
            .iter()
            .all(|s| a.iter().all(|t| t.spec_seed != s.spec_seed)));
    }

    fn record(end: JobEnd) -> JobRecord {
        JobRecord {
            submission: Submission {
                spec_seed: 1,
                repeat: false,
            },
            latency_ms: matches!(end, JobEnd::Done(_)).then_some(5.0),
            end,
        }
    }

    #[test]
    fn refused_and_failed_jobs_count_as_failed_and_infinitely_late() {
        let records = vec![
            record(JobEnd::Done("a".into())),
            record(JobEnd::Refused("server said 503".into())),
            record(JobEnd::Failed("job ended failed".into())),
            record(JobEnd::Done("b".into())),
        ];
        assert_eq!(failure_counts(&records), (4, 2));
        let lat = latencies_ms(&records);
        assert_eq!(nearest_rank(&lat, 0.5).value, 5.0);
        assert_eq!(nearest_rank(&lat, 0.9).value, f64::INFINITY);
    }

    #[test]
    fn scrape_sums_matching_series() {
        let text = "# HELP gdf_http_requests_total x\n\
                    gdf_http_requests_total{method=\"GET\",path=\"/metrics\",status=\"200\"} 3\n\
                    gdf_http_requests_total{method=\"POST\",path=\"/jobs\",status=\"201\"} 4\n\
                    gdf_engine_phase_seconds_sum{phase=\"parse\"} 0.25\n\
                    gdf_engine_phase_seconds_sum{phase=\"publish\"} 1.5\n\
                    gdf_cache_hits_total 2\n";
        assert_eq!(scrape(text, "gdf_http_requests_total", &[]), 7.0);
        assert_eq!(
            scrape(text, "gdf_http_requests_total", &["method=\"POST\""]),
            4.0
        );
        assert_eq!(
            scrape(text, "gdf_engine_phase_seconds_sum", &["phase=\"publish\""]),
            1.5
        );
        assert_eq!(scrape(text, "gdf_cache_hits_total", &[]), 2.0);
        assert_eq!(scrape(text, "gdf_cache_hits", &[]), 0.0);
    }
}
