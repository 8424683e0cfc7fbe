//! End-to-end and per-layer benchmark of the IDYLL reproduction.
//!
//! ```text
//! perfbench --workload <fig11-grid|lanes-8gpu|serve-sweep> --seed <n>
//!           --seconds <s> --trace <0|1> --out <dir>
//! ```
//!
//! `--trace 0` measures the workload's mode untraced for `--seconds`
//! and writes the end-to-end metrics; `--trace 1` runs every mode once
//! over the workload's cells with spans around each layer call, replays
//! the translation-path layers, and writes the per-layer metrics. Both
//! write `<dir>/metrics.json` (a `MetricsRegistry`); the traced run also
//! writes `<dir>/trace.json` (Chrome trace). `run.py` builds this program
//! and turns the registry into the benchmark's result line. See
//! `NOTES.md` for why each workload was chosen.

mod measure;
mod passes;
mod plan;
mod replay;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mgpu_system::{canon, SimReport};
use sim_engine::MetricsRegistry;
use workloads::{AppId, Workload};

use measure::{median, Spans};
use passes::PassOut;
use plan::{Mode, Plan, LANE_THREADS};

/// Set-up repetitions in an untraced run; the median is reported.
const SETUP_REPS: usize = 9;
/// Measured iterations an untraced run makes at least.
const MIN_ITERS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            "--out" => out = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        out: out.ok_or("--out is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(plan) = Plan::new(&args.workload, args.seed) else {
        eprintln!("error: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("error: {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let mut reg = MetricsRegistry::new();
    let mut check = Check::default();
    if args.trace {
        traced(&plan, &args.out, &mut reg, &mut check);
    } else {
        measured(&plan, &args, &mut reg, &mut check);
    }
    reg.count("bench.attempted", check.attempted as u64);
    reg.count("bench.failed", check.failed as u64);
    reg.count("bench.correct", u64::from(check.failed == 0));
    let path = args.out.join("metrics.json");
    if let Err(e) = std::fs::write(&path, reg.to_json()) {
        eprintln!("error: {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Failure accounting across passes: each pass's own failures, plus any
/// cell whose canonical report differs from the first pass's.
#[derive(Default)]
struct Check {
    attempted: usize,
    failed: usize,
    reference: Option<Vec<Option<String>>>,
}

impl Check {
    fn pass(&mut self, name: &str, out: &PassOut) {
        self.attempted += out.attempted;
        self.failed += out.failed;
        let Some(reference) = &self.reference else {
            self.reference = Some(out.texts.clone());
            return;
        };
        let differ = reference
            .iter()
            .zip(&out.texts)
            .filter(|(a, b)| a.is_some() && b.is_some() && a != b)
            .count();
        if differ > 0 {
            eprintln!("{name}: {differ} reports differ from the first pass");
        }
        self.failed += differ;
    }

    fn digest(&self) -> u64 {
        let texts = self.reference.iter().flatten().flatten();
        measure::digest(texts)
    }
}

fn run_mode(plan: &Plan, mode: Mode, inputs: &[Workload], dir: &Path, spans: &Spans) -> PassOut {
    match mode {
        Mode::Runner => passes::runner(plan, inputs, spans),
        Mode::Lanes => passes::system(plan, inputs, LANE_THREADS, spans),
        Mode::Serve => passes::serve(plan, dir, spans),
    }
}

/// Mean over the workload's (app, seed) inputs of baseline ÷ IDYLL
/// execution cycles: Figure 11's `Ave.` row of the `idyll` column.
fn idyll_speedup(plan: &Plan, reports: &[Option<SimReport>]) -> f64 {
    let find = |input: usize, scheme: &str| {
        plan.cells
            .iter()
            .zip(reports)
            .find(|(c, _)| c.input == input && c.scheme == scheme)
            .and_then(|(_, r)| r.as_ref())
    };
    let speedups: Vec<f64> = (0..plan.inputs.len())
        .filter_map(|i| Some(find(i, "idyll")?.speedup_vs(find(i, "base")?)))
        .collect();
    mgpu_system::runner::mean(&speedups)
}

fn print_speedup(plan: &Plan, speedup: f64) {
    match plan.paper_speedup {
        Some(paper) => println!(
            "sim_idyll_speedup {speedup:.4}x (paper {paper:.3}x, difference {:+.4})",
            speedup - paper
        ),
        None => println!("sim_idyll_speedup {speedup:.4}x (no paper reference for this workload)"),
    }
}

/// Untraced: set up `SETUP_REPS` times, then repeat the workload's
/// mode for `--seconds` and report medians.
fn measured(plan: &Plan, args: &Args, reg: &mut MetricsRegistry, check: &mut Check) {
    let off = Spans::new(false, Instant::now());
    let mut gen_s = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        inputs = plan.generate();
        gen_s.push(t0.elapsed().as_secs_f64());
    }
    let budget = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    let (mut walls, mut cell_ms, mut spawn_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<PassOut> = None;
    while walls.len() < MIN_ITERS || t0.elapsed() < budget {
        let dir = args.out.join(format!("serve-{}", walls.len()));
        let out = run_mode(plan, plan.mode, &inputs, &dir, &off);
        check.pass(plan.name, &out);
        walls.push(out.wall);
        cell_ms.push(out.cell_ms.clone());
        spawn_s.push(out.setup);
        first.get_or_insert(out);
    }
    let first = first.expect("at least one iteration");
    let reports: Vec<&SimReport> = first.reports.iter().flatten().collect();
    let events: u64 = reports.iter().map(|r| r.events_processed).sum();
    let accesses: u64 = reports.iter().map(|r| r.accesses).sum();
    let wall = median(&walls);
    let (tail, pct) = measure::tail(&cell_ms);
    let speedup = idyll_speedup(plan, &first.reports);

    reg.gauge("wall_s", wall);
    reg.gauge("setup_s", median(&gen_s) + median(&spawn_s));
    reg.gauge("events_per_s", events as f64 / wall);
    reg.gauge("accesses_per_s", accesses as f64 / wall);
    reg.gauge("cell_ms_p50", measure::cell_median(&cell_ms));
    reg.gauge("cell_ms_tail", tail);
    reg.gauge("peak_rss_mb", measure::peak_rss_mb());
    reg.gauge(
        "ok_frac",
        1.0 - check.failed as f64 / check.attempted.max(1) as f64,
    );
    reg.gauge("sim_idyll_speedup", speedup);

    println!(
        "{} seed {}: {} iterations, wall_s median {wall:.4} of {:?}",
        plan.name,
        args.seed,
        walls.len(),
        walls
    );
    println!(
        "cell_ms_tail is p{pct:.1} of {} samples (p100: the slowest cell's median); \
         cell_ms_p50 is the median of {} per-cell medians",
        cell_ms.iter().map(Vec::len).sum::<usize>(),
        first.cell_ms.len()
    );
    println!("events {events} accesses {accesses} per iteration");
    println!("digest {:016x}", check.digest());
    print_speedup(plan, speedup);
}

/// Traced: one untraced and one traced pass of the workload's mode
/// (their difference is the tracing overhead), then every other mode
/// and a serial `System` pass with spans, then the layer replay.
fn traced(plan: &Plan, out_dir: &Path, reg: &mut MetricsRegistry, check: &mut Check) {
    let origin = Instant::now();
    let pair_ns = measure::instant_pair_ns();
    let gen = Spans::new(true, origin);
    let inputs = gen.time("workloads.gen", 0, || plan.generate());
    let dir = out_dir.join("serve");

    // The workload's own mode untraced, traced, untraced again: the
    // traced wall minus the mean untraced wall is the tracing overhead.
    let untraced = |check: &mut Check| {
        let out = run_mode(plan, plan.mode, &inputs, &dir, &Spans::new(false, origin));
        check.pass("untraced", &out);
        out.wall
    };
    let mut base_wall = untraced(check);
    let mut runs: Vec<(Mode, PassOut, Spans)> = Vec::new();
    for mode in [plan.mode, Mode::Runner, Mode::Lanes, Mode::Serve] {
        if runs.iter().any(|r| r.0 == mode) {
            continue;
        }
        let spans = Spans::new(true, origin);
        let out = run_mode(plan, mode, &inputs, &dir, &spans);
        check.pass(&format!("{mode:?}"), &out);
        runs.push((mode, out, spans));
        if mode == plan.mode {
            base_wall = (base_wall + untraced(check)) / 2.0;
        }
    }
    let serial_spans = Spans::new(true, origin);
    let serial = passes::system(plan, &inputs, 1, &serial_spans);
    check.pass("serial", &serial);
    let costs = replay::run(&inputs);
    let get = |d: Mode| {
        let r = runs.iter().find(|r| r.0 == d).expect("every mode ran");
        (&r.1, &r.2)
    };

    // Tracing overhead and how far the phase spans are from the wall.
    // Track 0 holds a pass's serial phases; a serve pass puts its two
    // concurrent connections on tracks 1-2 (first daemon) and 11-12
    // (restarted daemon), and each daemon's pass lasts as long as its
    // busier connection.
    let (main, main_spans) = get(plan.mode);
    let phase_sum = main_spans.track_total(0)
        + main_spans.track_total(1).max(main_spans.track_total(2))
        + main_spans.track_total(11).max(main_spans.track_total(12));
    let overhead = main.wall - base_wall;
    let gap = (phase_sum - base_wall) / base_wall;
    reg.gauge("bench.trace.overhead_s", overhead);
    reg.gauge("bench.trace.instant_pair_ns", pair_ns);
    reg.gauge("bench.trace.span_sum_gap", gap);

    reg.gauge("workloads.gen.s", gen.total("workloads.gen"));
    reg.gauge("mgpu-system.system.build_s", serial.build_s);
    reg.gauge("mgpu-system.system.run_s", serial.run_s);
    let (runner, runner_spans) = get(Mode::Runner);
    let cell_s_sum = runner.cell_ms.iter().sum::<f64>() / 1e3;
    let runner_wall = runner_spans.total("mgpu-system.runner");
    reg.gauge("mgpu-system.runner.cell_s_sum", cell_s_sum);
    reg.gauge(
        "mgpu-system.runner.pool_efficiency",
        cell_s_sum / (plan::JOB_THREADS as f64 * runner_wall),
    );
    let (lanes, _) = get(Mode::Lanes);
    let app_run_s = |out: &PassOut, app: Option<AppId>| -> f64 {
        plan.cells
            .iter()
            .zip(&out.cell_run_s)
            .filter(|(c, _)| app.is_none_or(|a| c.app == a))
            .map(|(_, s)| s)
            .sum()
    };
    for (suffix, app) in [
        ("", None),
        (".MT", Some(AppId::Mt)),
        (".C2D", Some(AppId::C2d)),
    ] {
        reg.gauge(
            format!("mgpu-system.engine.parallel_speedup{suffix}"),
            app_run_s(&serial, app) / app_run_s(lanes, app),
        );
    }
    reg.gauge(
        "mgpu-system.export.s",
        main_spans.total("mgpu-system.export"),
    );

    model_metrics(reg, plan, &serial, &costs);
    serve_metrics(reg, get(Mode::Serve).0);

    let mut tracer = gen.into_tracer(1, "set-up");
    for (pid, (mode, _, spans)) in (2..).zip(runs) {
        tracer.absorb(spans.into_tracer(pid, &format!("{mode:?} pass")));
    }
    tracer.absorb(serial_spans.into_tracer(9, "serial System pass"));
    let path = out_dir.join("trace.json");
    if let Err(e) = std::fs::write(&path, tracer.to_chrome_json()) {
        eprintln!("{}: {e}", path.display());
    }
    println!(
        "{}: traced; tracing overhead {:+.4} s on a {:.4} s pass, phase spans {:+.2}% of the wall, \
         Instant pair {pair_ns:.1} ns",
        plan.name,
        overhead,
        base_wall,
        100.0 * gap
    );
    println!("digest {:016x}", check.digest());
    print_speedup(plan, idyll_speedup(plan, &serial.reports));
}

/// Model counts summed over the workload's cells, the replayed ns/op, and
/// each replayed layer's estimated share of the serial pass's run time.
fn model_metrics(
    reg: &mut MetricsRegistry,
    plan: &Plan,
    serial: &PassOut,
    costs: &replay::LayerCosts,
) {
    let reports: Vec<&SimReport> = serial.reports.iter().flatten().collect();
    let sum = |f: fn(&SimReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    let events = sum(|r| r.events_processed);
    let l1 = sum(|r| r.l1_tlb_hits + r.l1_tlb_misses);
    let l2 = sum(|r| r.l2_tlb_hits + r.l2_tlb_misses);
    let inval = sum(|r| r.walker_mix.invalidations());
    let waits: f64 = reports.iter().map(|r| r.migration_waiting.sum()).sum();
    let wait_count = sum(|r| r.migration_waiting.count());
    reg.gauge("mgpu-system.sim.events", events);
    reg.gauge(
        "mgpu-system.sim.events_per_access",
        events / sum(|r| r.accesses),
    );
    reg.gauge("vm-model.tlb.l1_miss_rate", sum(|r| r.l1_tlb_misses) / l1);
    reg.gauge(
        "vm-model.tlb.l2_mpki",
        sum(|r| r.l2_tlb_misses) * 1e3 / sum(|r| r.instructions),
    );
    reg.gauge("vm-model.walker.demand_walks", sum(|r| r.walker_mix.demand));
    reg.gauge("vm-model.walker.inval_walks", inval);
    reg.gauge(
        "vm-model.walker.unnecessary_share",
        sum(|r| r.walker_mix.invalidation_unnecessary) / inval,
    );
    reg.gauge("core.irmb.inserts", sum(|r| r.irmb_inserts));
    reg.gauge("core.irmb.bypasses", sum(|r| r.irmb_bypasses));
    reg.gauge("core.irmb.evictions", sum(|r| r.irmb_evictions));
    reg.gauge("uvm-driver.far_faults", sum(|r| r.far_faults));
    reg.gauge("uvm-driver.migrations", sum(|r| r.migrations));
    reg.gauge("uvm-driver.migration_wait_cycles", waits / wait_count);
    reg.gauge(
        "mem-model.interconnect.nvlink_mb",
        sum(|r| r.nvlink_bytes) / 1e6,
    );
    reg.gauge(
        "mem-model.interconnect.pcie_mb",
        sum(|r| r.pcie_bytes) / 1e6,
    );

    // Replayed ns/op, and each layer's estimated share of serial run time.
    let lazy_l2_misses: f64 = plan
        .cells
        .iter()
        .zip(&serial.reports)
        .filter(|(c, _)| c.config.idyll.is_some_and(|i| i.lazy))
        .filter_map(|(_, r)| r.as_ref())
        .map(|r| r.l2_tlb_misses as f64)
        .sum();
    let layers = [
        (
            "sim-engine.lane",
            "ns_per_event",
            costs.lane_ns_per_event,
            events * costs.lane_ns_per_event,
        ),
        (
            "vm-model.tlb",
            "ns_per_lookup",
            costs.tlb_ns_per_lookup,
            (l1 + l2) * costs.tlb_ns_per_lookup,
        ),
        (
            "vm-model.walker",
            "ns_per_walk",
            costs.walk_ns_per_walk,
            sum(|r| r.walker_mix.demand + r.walker_mix.update) * costs.walk_ns_per_walk
                + inval * costs.walk_ns_per_invalidate,
        ),
        (
            "core.irmb",
            "ns_per_insert",
            costs.irmb_ns_per_insert,
            sum(|r| r.irmb_inserts) * costs.irmb_ns_per_insert
                + lazy_l2_misses * costs.irmb_ns_per_lookup,
        ),
        (
            "mem-model.interconnect",
            "ns_per_send",
            costs.ic_ns_per_send,
            serial.sends as f64 * costs.ic_ns_per_send,
        ),
    ];
    reg.gauge(
        "vm-model.walker.ns_per_invalidate",
        costs.walk_ns_per_invalidate,
    );
    reg.gauge("core.irmb.ns_per_lookup", costs.irmb_ns_per_lookup);
    let mut explained = 0.0;
    for (layer, per_op, ns, total_ns) in layers {
        let share = total_ns / 1e9 / serial.run_s;
        explained += share;
        reg.gauge(format!("{layer}.{per_op}"), ns);
        reg.gauge(format!("{layer}.share"), share);
    }
    reg.gauge("unexplained.share", 1.0 - explained);
}

/// The daemon, as its clients see it.
fn serve_metrics(reg: &mut MetricsRegistry, served: &PassOut) {
    let so = served
        .serve
        .as_ref()
        .expect("serve pass has daemon figures");
    reg.gauge("idyll-serve.client.submit_ms", median(&so.submit_ms));
    reg.gauge("idyll-serve.client.wait_ms_hit", median(&so.wait_ms_hit));
    reg.gauge("idyll-serve.client.wait_ms_miss", median(&so.wait_ms_miss));
    reg.gauge("idyll-serve.server.overhead_ms", median(&so.overhead_ms));
    reg.gauge("idyll-serve.server.spawn_ms", served.setup * 1e3 / 2.0);
    reg.gauge(
        "idyll-serve.cache.hit_ratio",
        so.hits as f64 / served.attempted as f64,
    );
    reg.gauge("idyll-serve.cache.bytes_written", so.cache_bytes as f64);
    reg.gauge("idyll-serve.jobgraph.log_bytes", so.log_bytes as f64);
    let texts: Vec<&String> = served.texts.iter().flatten().collect();
    reg.gauge(
        "mgpu-system.canon.decode_us",
        per_item_us(&texts, |t| canon::decode_report(t).is_ok()),
    );
    let lines: Vec<&String> = so.lines.iter().collect();
    reg.gauge(
        "idyll-serve.json.parse_us",
        per_item_us(&lines, |l| idyll_serve::json::Json::parse(l).is_ok()),
    );
}

/// Median µs per item of `f` over `items`, five passes; a failing item
/// would mean the served bytes do not decode, which the passes already
/// count as failed cells.
fn per_item_us(items: &[&String], f: impl Fn(&str) -> bool) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for item in items {
                std::hint::black_box(f(item));
            }
            t0.elapsed().as_secs_f64() * 1e6 / items.len().max(1) as f64
        })
        .collect();
    median(&samples)
}
