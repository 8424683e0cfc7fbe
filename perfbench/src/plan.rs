//! The three benchmark workloads as lists of simulation cells, and the
//! trace generation that feeds them.

use mgpu_system::config::{IdyllConfig, SystemConfig};
use uvm_driver::policy::MigrationPolicy;
use workloads::{AppId, Scale, Workload, WorkloadSpec};

/// Figure 11's six schemes, in the figure's column order.
pub const FIG11_SCHEMES: [&str; 6] = [
    "base",
    "only-lazy",
    "only-in-pte",
    "idyll-inmem",
    "idyll",
    "zerolat",
];

/// How a workload's measured phase drives the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `runner::run_jobs_timed_observed` with [`JOB_THREADS`] job threads.
    Runner,
    /// One `System` at a time with [`LANE_THREADS`] lane threads.
    Lanes,
    /// An in-process `idyll-serve` daemon, two passes over the cells.
    Serve,
}

/// Job threads of the runner and the daemon's workers; the benchmark
/// host has 2 CPUs and no workload uses more threads than that.
pub const JOB_THREADS: usize = 2;
/// Lane threads per simulation on `lanes-8gpu`.
pub const LANE_THREADS: usize = 2;

/// One trace to generate: `(spec, n_gpus, seed)`.
#[derive(Debug, Clone)]
pub struct Input {
    pub spec: WorkloadSpec,
    pub n_gpus: usize,
    pub seed: u64,
}

/// One simulation: a scheme applied to one generated input.
#[derive(Debug, Clone)]
pub struct Cell {
    pub app: AppId,
    pub scheme: &'static str,
    pub config: SystemConfig,
    /// Index into [`Plan::inputs`].
    pub input: usize,
}

impl Cell {
    /// Runner/daemon label, unique within a plan.
    pub fn label(&self, plan: &Plan) -> String {
        format!(
            "{}/{}/{}",
            self.app.name(),
            self.scheme,
            plan.inputs[self.input].seed
        )
    }
}

/// A workload: its cells, the inputs they read and how they are driven.
#[derive(Debug)]
pub struct Plan {
    pub name: &'static str,
    pub mode: Mode,
    pub inputs: Vec<Input>,
    pub cells: Vec<Cell>,
    /// The paper's reference for the IDYLL speedup, when the workload
    /// reproduces a paper figure.
    pub paper_speedup: Option<f64>,
}

impl Plan {
    /// Builds the named workload for `seed`; `None` for an unknown name.
    pub fn new(name: &str, seed: u64) -> Option<Plan> {
        let (name, mode, (inputs, cells), paper_speedup) = match name {
            "fig11-grid" => (
                "fig11-grid",
                Mode::Runner,
                grid(&AppId::ALL, &FIG11_SCHEMES, 4, Scale::Small, &[seed]),
                // Figure 11's header: IDYLL 1.699x over the baseline.
                Some(1.699),
            ),
            "lanes-8gpu" => (
                "lanes-8gpu",
                Mode::Lanes,
                grid(
                    &[AppId::Mt, AppId::C2d],
                    &["base", "idyll"],
                    8,
                    Scale::Full,
                    &[seed],
                ),
                None,
            ),
            "serve-sweep" => (
                "serve-sweep",
                Mode::Serve,
                grid(
                    &AppId::ALL,
                    &FIG11_SCHEMES,
                    4,
                    Scale::Test,
                    &[seed, seed.wrapping_add(1)],
                ),
                None,
            ),
            _ => return None,
        };
        Some(Plan {
            name,
            mode,
            inputs,
            cells,
            paper_speedup,
        })
    }

    /// Generates every input trace, in input order.
    pub fn generate(&self) -> Vec<Workload> {
        self.inputs
            .iter()
            .map(|i| workloads::generate(&i.spec, i.n_gpus, i.seed))
            .collect()
    }
}

/// Every scheme on every app, per seed: one input per (seed, app).
fn grid(
    apps: &[AppId],
    schemes: &[&'static str],
    n_gpus: usize,
    scale: Scale,
    seeds: &[u64],
) -> (Vec<Input>, Vec<Cell>) {
    let mut inputs = Vec::new();
    let mut cells = Vec::new();
    for &seed in seeds {
        for &app in apps {
            let input = inputs.len();
            inputs.push(Input {
                spec: WorkloadSpec::paper_default(app, scale),
                n_gpus,
                seed,
            });
            for &scheme in schemes {
                cells.push(Cell {
                    app,
                    scheme,
                    config: scheme_config(scheme, n_gpus, scale, seed),
                    input,
                });
            }
        }
    }
    (inputs, cells)
}

/// The configuration `idyll_bench::Harness` builds for a Figure 11 column:
/// the scaled access-counter policy and the workload seed.
fn scheme_config(scheme: &str, n_gpus: usize, scale: Scale, seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::baseline(n_gpus);
    cfg.policy = MigrationPolicy::AccessCounter {
        threshold: scale.counter_threshold(),
    };
    cfg.seed = seed;
    match scheme {
        "base" => {}
        "only-lazy" => cfg.idyll = Some(IdyllConfig::only_lazy()),
        "only-in-pte" => cfg.idyll = Some(IdyllConfig::only_directory()),
        "idyll-inmem" => cfg.idyll = Some(IdyllConfig::in_mem()),
        "idyll" => cfg.idyll = Some(IdyllConfig::full()),
        "zerolat" => cfg.zero_latency_invalidation = true,
        other => unreachable!("unknown scheme {other}"),
    }
    cfg
}
