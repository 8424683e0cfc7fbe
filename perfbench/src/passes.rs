//! One pass over a workload's cells through each public entry point: the job
//! runner, `System` directly, and the `idyll-serve` daemon. Every pass
//! returns the canonical report of each cell so passes can be compared
//! byte for byte.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use idyll_serve::client::Client;
use idyll_serve::proto::{JobSpec, Response};
use idyll_serve::server::{self, ServerConfig};
use mgpu_system::runner::{run_jobs_timed_observed, Job, RunObserver};
use mgpu_system::system::{QueuePool, System};
use mgpu_system::{canon, csv, SimReport};
use workloads::Workload;

use crate::measure::Spans;
use crate::plan::{Plan, JOB_THREADS};

/// What one pass produced.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Host seconds of the measured phase.
    pub wall: f64,
    /// Host set-up seconds inside the pass (daemon spawns).
    pub setup: f64,
    /// Latency of each cell or job, ms.
    pub cell_ms: Vec<f64>,
    /// Canonical report per cell, cell order (`None`: the cell failed).
    pub texts: Vec<Option<String>>,
    /// Report per cell, cell order (`None`: the cell failed).
    pub reports: Vec<Option<SimReport>>,
    /// Cells (daemon jobs on `serve`) attempted and failed.
    pub attempted: usize,
    pub failed: usize,
    /// `System` build and run seconds, summed over cells.
    pub build_s: f64,
    pub run_s: f64,
    /// Run seconds per cell.
    pub cell_run_s: Vec<f64>,
    /// Interconnect transfers, summed over cells.
    pub sends: u64,
    /// Daemon-side figures of a serve pass.
    pub serve: Option<ServeOut>,
}

/// Per-job records of a serve pass.
#[derive(Debug, Default)]
pub struct ServeOut {
    pub submit_ms: Vec<f64>,
    pub wait_ms_miss: Vec<f64>,
    pub wait_ms_hit: Vec<f64>,
    /// Job latency minus the daemon-reported run wall, misses only, ms.
    pub overhead_ms: Vec<f64>,
    pub hits: usize,
    pub cache_bytes: u64,
    pub log_bytes: u64,
    /// Served `job_result` response lines, for the parse replay.
    pub lines: Vec<String>,
}

/// Failed cells: no report, or a report whose coherence audit found
/// stale translations.
fn fail_count(reports: &[Option<SimReport>]) -> usize {
    let mut failed = 0;
    for r in reports {
        match r {
            None => failed += 1,
            Some(r) if r.stale_translations > 0 => {
                eprintln!(
                    "{} {}: coherence audit found {} stale translations",
                    r.workload, r.scheme, r.stale_translations
                );
                failed += 1;
            }
            Some(_) => {}
        }
    }
    failed
}

/// The CSV table plus each cell's canonical text: the export every
/// mode ends with.
fn export(reports: &[Option<SimReport>], spans: &Spans) -> Vec<Option<String>> {
    spans.time("mgpu-system.export", 0, || {
        std::hint::black_box(csv::table(reports.iter().flatten()));
        reports
            .iter()
            .map(|r| r.as_ref().map(canon::encode_report))
            .collect()
    })
}

/// The grid through `runner::run_jobs_timed_observed`, lane threads 1.
pub fn runner(plan: &Plan, inputs: &[Workload], spans: &Spans) -> PassOut {
    let t0 = Instant::now();
    let jobs: Vec<Job> = spans.time("mgpu-system.runner.jobs", 0, || {
        plan.cells
            .iter()
            .map(|c| Job {
                scheme: c.label(plan),
                config: c.config.clone(),
                workload: inputs[c.input].clone(),
            })
            .collect()
    });
    let obs = RunObserver {
        sim_threads: 1,
        ..RunObserver::default()
    };
    let runs = spans.time("mgpu-system.runner", 0, || {
        run_jobs_timed_observed(jobs, JOB_THREADS, &obs)
    });
    let mut out = PassOut {
        attempted: plan.cells.len(),
        ..PassOut::default()
    };
    match runs {
        Ok(runs) => {
            out.cell_ms = runs.iter().map(|r| r.wall_secs * 1e3).collect();
            out.reports = runs.into_iter().map(|r| Some(r.report)).collect();
        }
        Err(e) => {
            eprintln!("runner pass failed: {e}");
            out.reports = vec![None; plan.cells.len()];
        }
    }
    out.texts = export(&out.reports, spans);
    out.wall = t0.elapsed().as_secs_f64();
    out.failed = fail_count(&out.reports);
    out
}

/// The cells one at a time through `System`, with `threads` lane threads.
pub fn system(plan: &Plan, inputs: &[Workload], threads: usize, spans: &Spans) -> PassOut {
    let t0 = Instant::now();
    let mut pool = QueuePool::new();
    let mut out = PassOut {
        attempted: plan.cells.len(),
        ..PassOut::default()
    };
    for cell in &plan.cells {
        let c0 = Instant::now();
        let mut sys = spans.time("mgpu-system.system.build", 0, || {
            System::new_with_pool(cell.config.clone(), &inputs[cell.input], &mut pool)
        });
        sys.set_threads(threads);
        let c1 = Instant::now();
        let report = spans.time("mgpu-system.system.run", 0, || sys.run());
        let c2 = Instant::now();
        out.sends += sys.debug_pipe_stats().iter().map(|p| p.1).sum::<u64>();
        sys.recycle(&mut pool);
        out.cell_ms.push(c0.elapsed().as_secs_f64() * 1e3);
        out.build_s += (c1 - c0).as_secs_f64();
        out.run_s += (c2 - c1).as_secs_f64();
        out.cell_run_s.push((c2 - c1).as_secs_f64());
        out.reports.push(
            report
                .map_err(|e| eprintln!("{}: {e}", cell.label(plan)))
                .ok(),
        );
    }
    out.texts = export(&out.reports, spans);
    out.wall = t0.elapsed().as_secs_f64();
    out.failed = fail_count(&out.reports);
    out
}

/// One job as the daemon's client reports it.
struct Served {
    submit_s: f64,
    wait_s: f64,
    latency_s: f64,
    run_wall_s: f64,
    cached: bool,
    text: Option<String>,
}

/// Closed loop over `JOB_THREADS` connections: each submits one cell and
/// waits for its result before taking the next.
fn serve_loop(addr: &str, plan: &Plan, spans: &Spans, tid0: u64) -> Vec<Option<Served>> {
    let jobs: Vec<JobSpec> = plan
        .cells
        .iter()
        .map(|c| JobSpec {
            scheme: c.label(plan),
            config: canon::encode_config(&c.config),
            spec: canon::encode_spec(&plan.inputs[c.input].spec),
            seed: plan.inputs[c.input].seed,
        })
        .collect();
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<Served>>> = Mutex::new((0..jobs.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for conn in 0..JOB_THREADS as u64 {
            let (jobs, next, results) = (&jobs, &next, &results);
            s.spawn(move || {
                let tid = tid0 + conn;
                let mut client = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(e) => return eprintln!("connect {addr}: {e}"),
                };
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    let c0 = Instant::now();
                    let submitted = spans.time("idyll-serve.client.submit", tid, || {
                        client.submit_with_backoff(std::slice::from_ref(job))
                    });
                    let c1 = Instant::now();
                    let result = match submitted {
                        Ok((ids, _)) if ids.len() == 1 => {
                            spans.time("idyll-serve.client.wait", tid, || {
                                client.wait_result(ids[0])
                            })
                        }
                        Ok(_) => Err(std::io::Error::other("one job, several ids")),
                        Err(e) => Err(e),
                    };
                    let c2 = Instant::now();
                    let served = match result {
                        Ok((text, run_wall_s, cached)) => Served {
                            submit_s: (c1 - c0).as_secs_f64(),
                            wait_s: (c2 - c1).as_secs_f64(),
                            latency_s: (c2 - c0).as_secs_f64(),
                            run_wall_s,
                            cached,
                            text: Some(text),
                        },
                        Err(e) => {
                            eprintln!("{}: {e}", job.scheme);
                            Served {
                                submit_s: (c1 - c0).as_secs_f64(),
                                wait_s: (c2 - c1).as_secs_f64(),
                                latency_s: (c2 - c0).as_secs_f64(),
                                run_wall_s: 0.0,
                                cached: false,
                                text: None,
                            }
                        }
                    };
                    results.lock().expect("results lock")[i] = Some(served);
                }
            });
        }
    });
    results.into_inner().expect("results lock")
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Shuts a daemon down and waits for it to drain.
fn stop(addr: &str, handle: server::ServerHandle) {
    if let Err(e) = Client::connect(addr).and_then(|mut c| c.shutdown()) {
        eprintln!("shutdown {addr}: {e}");
    }
    if let Err(e) = handle.join() {
        eprintln!("daemon exit: {e}");
    }
}

/// The cells through an in-process daemon with an on-disk cache and job
/// log under `dir`: pass 1 on a fresh daemon simulates every cell; the
/// daemon is restarted on the same cache and log (replaying the log) and
/// pass 2 repeats every cell, which must come back from the cache byte
/// for byte.
pub fn serve(plan: &Plan, dir: &Path, spans: &Spans) -> PassOut {
    let _ = std::fs::remove_dir_all(dir);
    let config = ServerConfig {
        workers: JOB_THREADS,
        cache_dir: Some(dir.join("cache")),
        log_path: Some(dir.join("jobs.log")),
        ..ServerConfig::default()
    };
    let n = plan.cells.len();
    let mut out = PassOut {
        attempted: 2 * n,
        ..PassOut::default()
    };
    let mut so = ServeOut::default();
    let mut passes = Vec::new();
    for pass in 0..2u64 {
        let s0 = Instant::now();
        let handle = match spans.time("idyll-serve.server.spawn", 0, || {
            server::spawn(config.clone())
        }) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("spawn daemon: {e}");
                out.failed = 2 * n;
                out.texts = vec![None; n];
                out.reports = vec![None; n];
                return out;
            }
        };
        out.setup += s0.elapsed().as_secs_f64();
        let addr = handle.addr.to_string();
        let w0 = Instant::now();
        let served = serve_loop(&addr, plan, spans, 1 + 10 * pass);
        out.wall += w0.elapsed().as_secs_f64();
        if pass == 0 {
            so.cache_bytes = dir_bytes(&dir.join("cache"));
        }
        stop(&addr, handle);
        passes.push(served);
    }
    so.log_bytes = std::fs::metadata(dir.join("jobs.log")).map_or(0, |m| m.len());
    let _ = std::fs::remove_dir_all(dir);

    // Decoding and checking the served reports is the client's export.
    let e0 = Instant::now();
    let (first, second) = (&passes[0], &passes[1]);
    spans.time("mgpu-system.export", 0, || {
        for (i, (a, b)) in first.iter().zip(second).enumerate() {
            let (Some(a), Some(b)) = (a, b) else {
                out.texts.push(None);
                out.reports.push(None);
                continue;
            };
            for (s, hit) in [(a, false), (b, true)] {
                out.cell_ms.push(s.latency_s * 1e3);
                so.submit_ms.push(s.submit_s * 1e3);
                if hit {
                    so.wait_ms_hit.push(s.wait_s * 1e3);
                } else {
                    so.wait_ms_miss.push(s.wait_s * 1e3);
                    so.overhead_ms.push((s.latency_s - s.run_wall_s) * 1e3);
                }
                so.hits += usize::from(s.cached);
                if let Some(text) = &s.text {
                    so.lines.push(
                        Response::JobResult {
                            id: i as u64,
                            report: text.clone(),
                            wall_secs: s.run_wall_s,
                            cached: s.cached,
                        }
                        .encode(),
                    );
                }
            }
            // A miss must simulate, a repeat must hit, and the hit must be
            // the miss's bytes.
            let text = match (&a.text, &b.text) {
                (Some(x), Some(y)) if !a.cached && b.cached && x == y => Some(x.clone()),
                _ => None,
            };
            let report = text.as_deref().and_then(|t| canon::decode_report(t).ok());
            if report.is_none() {
                eprintln!(
                    "{}: miss/hit mismatch or bad report",
                    plan.cells[i].label(plan)
                );
            }
            out.texts.push(text);
            out.reports.push(report);
        }
        std::hint::black_box(csv::table(out.reports.iter().flatten()));
    });
    out.wall += e0.elapsed().as_secs_f64();
    // Each cell is served twice; a bad cell fails both of its jobs.
    out.failed = 2 * fail_count(&out.reports);
    out.serve = Some(so);
    out
}
