//! Layer replay: drives each translation-path layer's public functions,
//! single-threaded, with op streams derived from the workload's own
//! generated traces, and reports host ns per operation. These are
//! estimates of in-simulator cost, not spans inside the simulator.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use idyll_core::irmb::{Irmb, IrmbConfig};
use mem_model::interconnect::{Interconnect, InterconnectConfig, Node};
use mgpu_system::config::SystemConfig;
use sim_engine::{Cycle, LaneQueue};
use vm_model::page_table::PageTable;
use vm_model::pwc::PageWalkCache;
use vm_model::tlb::{Tlb, TlbConfig};
use vm_model::walker::{walk_invalidate, walk_translate, WalkerConfig};
use vm_model::{PageSize, Pte, Vpn};
use workloads::Workload;

use crate::measure::median;

/// Host ns per operation of each replayed layer.
#[derive(Debug, Default)]
pub struct LayerCosts {
    pub lane_ns_per_event: f64,
    pub tlb_ns_per_lookup: f64,
    pub walk_ns_per_walk: f64,
    pub walk_ns_per_invalidate: f64,
    pub irmb_ns_per_insert: f64,
    pub irmb_ns_per_lookup: f64,
    pub ic_ns_per_send: f64,
}

/// Timed repetitions per layer; the median is reported.
const REPS: usize = 5;

/// One GPU's op streams.
struct GpuOps {
    n_gpus: usize,
    gpu: usize,
    /// Each access with whether it misses both TLB levels.
    accesses: Vec<(Vpn, bool)>,
    /// Accesses that miss the L1 TLB (and so also probe the L2).
    l1_misses: usize,
    /// VPNs that miss both TLB levels, in order: the demand-walk stream.
    l2_misses: Vec<Vpn>,
    /// Pages this GPU touches that another GPU writes: the pages a
    /// migration would invalidate here, first occurrence order.
    invalidations: Vec<Vpn>,
    /// Every page this GPU touches.
    pages: Vec<Vpn>,
}

fn ops(inputs: &[Workload]) -> Vec<GpuOps> {
    let mut out = Vec::new();
    for wl in inputs {
        let written: Vec<BTreeSet<u64>> = wl
            .traces
            .iter()
            .map(|t| {
                t.accesses
                    .iter()
                    .filter(|a| a.is_write)
                    .map(|a| a.vpn.0)
                    .collect()
            })
            .collect();
        for (gpu, trace) in wl.traces.iter().enumerate() {
            let (mut l1, mut l2) = tlbs();
            let mut accesses = Vec::with_capacity(trace.accesses.len());
            let mut l1_misses = 0;
            let mut l2_misses = Vec::new();
            let mut seen = BTreeSet::new();
            let mut invalidations = Vec::new();
            for a in &trace.accesses {
                let mut miss = false;
                if l1.lookup(a.vpn).is_none() {
                    l1_misses += 1;
                    if l2.lookup(a.vpn).is_none() {
                        miss = true;
                        l2_misses.push(a.vpn);
                        l2.fill(a.vpn, pte(a.vpn));
                    }
                    l1.fill(a.vpn, pte(a.vpn));
                }
                accesses.push((a.vpn, miss));
                if seen.insert(a.vpn.0)
                    && written
                        .iter()
                        .enumerate()
                        .any(|(g, w)| g != gpu && w.contains(&a.vpn.0))
                {
                    invalidations.push(a.vpn);
                }
            }
            out.push(GpuOps {
                n_gpus: wl.traces.len(),
                gpu,
                accesses,
                l1_misses,
                l2_misses,
                invalidations,
                pages: seen.into_iter().map(Vpn).collect(),
            });
        }
    }
    out
}

fn tlbs() -> (Tlb, Tlb) {
    (
        Tlb::new(TlbConfig::baseline_l1()),
        Tlb::new(TlbConfig::baseline_l2()),
    )
}

fn pte(vpn: Vpn) -> Pte {
    Pte::new_mapped(vpn.0 & 0xff_ffff, true)
}

/// Runs `body` `REPS` times after an untimed `prep` each time, and
/// returns the median ns per op for `ops` operations per repetition.
fn per_op<S>(ops: usize, mut prep: impl FnMut() -> S, mut body: impl FnMut(&mut S)) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut state = prep();
            let t0 = Instant::now();
            body(&mut state);
            let ns = t0.elapsed().as_nanos() as f64;
            black_box(&state);
            ns / ops.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Replays every layer over the op streams of `inputs`.
pub fn run(inputs: &[Workload]) -> LayerCosts {
    let gpus = ops(inputs);
    let count = |f: fn(&GpuOps) -> usize| gpus.iter().map(f).sum::<usize>();
    let n_access = count(|g| g.accesses.len());
    let n_l2_miss = count(|g| g.l2_misses.len());
    let n_inval = count(|g| g.invalidations.len());
    let gpu_cfg = SystemConfig::baseline(1).gpu;
    let gmmu = gpu_cfg.gmmu;
    // One in-flight event per warp of a Table 2 GPU.
    let window = gpu_cfg.cus * gpu_cfg.warps_per_cu;
    let walker = WalkerConfig::default();

    // Lane queue: a window of in-flight events; each pop schedules the
    // access's successor a trace-derived delay later.
    let lane_ns_per_event = per_op(
        n_access,
        || (),
        |()| {
            for g in &gpus {
                let mut q: LaneQueue<u64> = LaneQueue::with_capacity(window);
                for i in 0..window {
                    q.schedule(Cycle(i as u64), i as u64);
                }
                for &(vpn, miss) in &g.accesses {
                    let (at, _) = q.pop().expect("window is never empty");
                    let delay = 1 + (vpn.0 & 0x3f) + if miss { 500 } else { 0 };
                    q.schedule(Cycle(at.raw() + delay), vpn.0);
                }
                black_box(q.len());
            }
        },
    );

    // TLB: L1 then L2 lookups, filling both on a miss. An op is one
    // lookup at either level.
    let tlb_lookups = n_access + count(|g| g.l1_misses);
    let tlb_ns_per_lookup = per_op(
        tlb_lookups,
        || gpus.iter().map(|_| tlbs()).collect::<Vec<_>>(),
        |t| {
            for (g, (l1, l2)) in gpus.iter().zip(t.iter_mut()) {
                for &(vpn, _) in &g.accesses {
                    if l1.lookup(vpn).is_none() {
                        if l2.lookup(vpn).is_none() {
                            l2.fill(vpn, pte(vpn));
                        }
                        l1.fill(vpn, pte(vpn));
                    }
                }
            }
        },
    );

    // Page walks over each GPU's populated table with a shared PWC.
    let tables: Vec<PageTable> = gpus
        .iter()
        .map(|g| {
            let mut pt = PageTable::new(PageSize::Size4K);
            for &vpn in &g.pages {
                pt.insert(vpn, pte(vpn));
            }
            pt
        })
        .collect();
    let pwc = || PageWalkCache::new(gmmu.pwc_entries, gmmu.levels);
    let walk_ns_per_walk = per_op(
        n_l2_miss,
        || gpus.iter().map(|_| pwc()).collect::<Vec<_>>(),
        |pwcs| {
            for ((g, pt), c) in gpus.iter().zip(&tables).zip(pwcs.iter_mut()) {
                for &vpn in &g.l2_misses {
                    black_box(walk_translate(pt, c, vpn, walker));
                }
            }
        },
    );
    let walk_ns_per_invalidate = per_op(
        n_inval,
        || {
            (
                tables.clone(),
                gpus.iter().map(|_| pwc()).collect::<Vec<_>>(),
            )
        },
        |(pts, pwcs)| {
            for ((g, pt), c) in gpus.iter().zip(pts.iter_mut()).zip(pwcs.iter_mut()) {
                for &vpn in &g.invalidations {
                    black_box(walk_invalidate(pt, c, vpn, walker));
                }
            }
        },
    );

    // IRMB: buffer each GPU's invalidations, then look up its demand
    // misses, removing a pending entry when a miss re-maps it.
    let irmbs = || {
        gpus.iter()
            .map(|_| Irmb::new(IrmbConfig::default()))
            .collect::<Vec<_>>()
    };
    let irmb_ns_per_insert = per_op(n_inval, irmbs, |bufs| {
        for (g, b) in gpus.iter().zip(bufs.iter_mut()) {
            for &vpn in &g.invalidations {
                black_box(b.insert(vpn));
            }
        }
    });
    let irmb_ns_per_lookup = per_op(
        n_l2_miss,
        || {
            let mut bufs = irmbs();
            for (g, b) in gpus.iter().zip(bufs.iter_mut()) {
                for &vpn in &g.invalidations {
                    b.insert(vpn);
                }
            }
            bufs
        },
        |bufs| {
            for (g, b) in gpus.iter().zip(bufs.iter_mut()) {
                for &vpn in &g.l2_misses {
                    if b.lookup(vpn) {
                        b.remove(vpn);
                    }
                }
            }
        },
    );

    // Interconnect: a 64 B line from the page's home GPU for every
    // access to a remote page, a 4 KiB page from the host on every
    // demand miss. An op is one send.
    let n_sends = gpus
        .iter()
        .map(|g| {
            g.accesses
                .iter()
                .map(|&(vpn, miss)| usize::from(miss) + usize::from(home(vpn, g.n_gpus) != g.gpu))
                .sum::<usize>()
        })
        .sum();
    let links = || {
        inputs
            .iter()
            .map(|wl| Interconnect::new(wl.traces.len(), InterconnectConfig::default()))
            .collect::<Vec<_>>()
    };
    let ic_ns_per_send = per_op(n_sends, links, |ics| {
        let mut g_iter = gpus.iter();
        for (wl, ic) in inputs.iter().zip(ics.iter_mut()) {
            for g in g_iter.by_ref().take(wl.traces.len()) {
                let mut now = Cycle(0);
                for &(vpn, miss) in &g.accesses {
                    now = Cycle(now.raw() + 3);
                    let h = home(vpn, g.n_gpus);
                    if h != g.gpu {
                        black_box(ic.send(now, Node::Gpu(h), Node::Gpu(g.gpu), 64));
                    }
                    if miss {
                        black_box(ic.send(now, Node::Host, Node::Gpu(g.gpu), 4096));
                    }
                }
            }
        }
    });

    LayerCosts {
        lane_ns_per_event,
        tlb_ns_per_lookup,
        walk_ns_per_walk,
        walk_ns_per_invalidate,
        irmb_ns_per_insert,
        irmb_ns_per_lookup,
        ic_ns_per_send,
    }
}

fn home(vpn: Vpn, n_gpus: usize) -> usize {
    (vpn.0 % n_gpus as u64) as usize
}
