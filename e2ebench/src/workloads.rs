//! The benchmark's workloads, their runtime configurations, and the
//! template: one steady iteration of an application's launch stream,
//! captured from a throwaway reference runtime and replayed wave by wave.

use viz_apps::{Circuit, CircuitConfig, Pennant, PennantConfig, Stencil, StencilConfig};
use viz_geometry::{IndexSpace, InternConfig};
use viz_region::RegionId;
use viz_runtime::{
    EngineKind, LaunchSpec, RegionRequirement, Runtime, RuntimeConfig, TaskId, VisibilityConfig,
};

/// One named workload: an application in paper shape plus the runtime
/// configuration it is measured under. Every workload runs the RayCast
/// engine with one analysis thread, so a run uses at most two threads
/// (the application thread, plus the driver thread when pipelined).
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub app: App,
    /// Pieces (= simulated nodes: one piece per node, as in the paper).
    pub pieces: usize,
    pub dcr: bool,
    pub pipeline: bool,
    pub auto_trace: bool,
    pub gc: bool,
    /// Replay the measured runtime on the simulated machine afterwards.
    pub timed_schedule: bool,
    /// Replayed iterations before the timer starts (the first two are the
    /// ones checked against the reference runtime).
    pub warmup_iters: usize,
    /// Timed iterations per round.
    pub timed_iters: usize,
    /// Timed iterations per segment: about 0.1 s of work at the reference
    /// speed, so that the host speed probes around it stay close.
    pub segment_iters: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum App {
    Circuit,
    Pennant,
    Stencil,
}

pub const WORKLOADS: &[Workload] = &[
    // Every launch pays the raycast backward scan over sparse, aliased
    // ghost subregions with `reduce+`; analysis, geometry and history GC
    // do nearly all the work. Pipelined: the driver thread analyses while
    // the application thread validates and fills the rings, so each ring
    // holds milliseconds of analysis and the plane's backpressure and
    // combining run at the default depth.
    Workload {
        name: "circuit-pipelined-gc",
        app: App::Circuit,
        pieces: 128,
        dcr: false,
        pipeline: true,
        auto_trace: false,
        gc: true,
        timed_schedule: false,
        warmup_iters: 4,
        timed_iters: 40,
        segment_iters: 5,
    },
    // Nearly every launch is replayed from an auto-trace template, so the
    // engine scan is idle: trace replay, DAG tags and the GC ledger do the
    // work. Bypasses every scan optimisation. Synchronous, because a ring
    // of replayed launches holds well under a millisecond of work, which
    // makes the pipelined plane's throughput on a two-core host follow
    // thread wake-up latency rather than the program (see README.md).
    Workload {
        name: "pennant-sync-autotrace",
        app: App::Pennant,
        pieces: 1024,
        dcr: false,
        pipeline: false,
        auto_trace: true,
        gc: true,
        timed_schedule: false,
        warmup_iters: 4,
        timed_iters: 120,
        segment_iters: 24,
    },
    // "RayCast, DCR", the paper's headline configuration: whole-tile
    // writes beside aliased halo reads take the dominating-write path,
    // and the run ends with the simulated schedule of Figs 12/15.
    Workload {
        name: "stencil-dcr-timed",
        app: App::Stencil,
        pieces: 256,
        dcr: true,
        pipeline: false,
        auto_trace: false,
        gc: false,
        timed_schedule: true,
        warmup_iters: 4,
        timed_iters: 60,
        segment_iters: 12,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The application in paper shape, with `iterations` top-level
    /// iterations. Only circuit's topology generator takes the seed;
    /// stencil and pennant are fixed meshes.
    pub fn app(&self, seed: u64, iterations: usize) -> Box<dyn viz_apps::Workload> {
        match self.app {
            App::Circuit => Box::new(Circuit::new(CircuitConfig {
                iterations,
                seed,
                ..CircuitConfig::paper(self.pieces)
            })),
            App::Pennant => Box::new(Pennant::new(PennantConfig {
                iterations,
                ..PennantConfig::paper(self.pieces)
            })),
            App::Stencil => Box::new(Stencil::new(StencilConfig {
                iterations,
                ..StencilConfig::paper(self.pieces)
            })),
        }
    }

    /// The measured runtime's configuration. Built from `base` (which
    /// ignores the environment) with the two knobs that would otherwise
    /// fall back to `VIZ_INTERN` / `VIZ_VIS_BACKEND` pinned explicitly.
    pub fn config(&self) -> RuntimeConfig {
        RuntimeConfig::base(EngineKind::RayCast)
            .nodes(self.pieces)
            .dcr(self.dcr)
            .validate(true)
            .analysis_threads(1)
            .pipeline(self.pipeline)
            .auto_trace(self.auto_trace)
            .history_gc(self.gc)
            .intern(InternConfig::default())
            .visibility_backend(VisibilityConfig::scalar())
    }

    /// The reference runtime: the measured configuration made
    /// synchronous, with no history GC and no auto-trace.
    pub fn reference_config(&self) -> RuntimeConfig {
        self.config()
            .pipeline(false)
            .history_gc(false)
            .auto_trace(false)
    }
}

/// One launch of the steady iteration, minus its iteration-stamped name.
pub struct Launch {
    pub node: usize,
    pub reqs: Vec<RegionRequirement>,
    pub duration_ns: u64,
}

/// Consecutive launches sharing a name stem: one `submit_batch` call, as
/// the application submits it.
pub struct Wave {
    pub stem: String,
    pub launches: Vec<Launch>,
}

impl Wave {
    /// The wave's specs for iteration `iter`, named as the application
    /// names them (`stem[iter]`).
    pub fn specs(&self, iter: usize) -> Vec<LaunchSpec> {
        let name = format!("{}[{iter}]", self.stem);
        self.launches
            .iter()
            .map(|l| LaunchSpec::new(name.clone(), l.node, l.reqs.clone(), l.duration_ns, None))
            .collect()
    }
}

/// One steady iteration of a workload's stream, captured from a reference
/// runtime that ran the application's own `execute` for two iterations,
/// plus that runtime's dependence edges for both iterations.
pub struct Template {
    /// Launches submitted by the zero-iteration set-up.
    pub setup_launches: usize,
    pub waves: Vec<Wave>,
    pub launches_per_iter: usize,
    /// Reference predecessor lists of the two iterations after set-up.
    pub ref_preds: Vec<Vec<TaskId>>,
    /// Reference dependence edges of one steady (the second) iteration.
    pub iter_edges: u64,
    /// Every region the steady iteration names, with its name and domain
    /// in the reference forest.
    pub regions: Vec<(RegionId, String, IndexSpace)>,
}

fn stem(name: &str) -> &str {
    name.split('[').next().unwrap_or(name)
}

impl Template {
    pub fn capture(w: &Workload, seed: u64) -> Result<Template, String> {
        let mut rt = Runtime::new(w.reference_config());
        let run = w.app(seed, 2).execute(&mut rt);
        rt.flush();
        let [e0, e1] = run.iter_end[..] else {
            return Err(format!(
                "expected 2 iteration ends, got {}",
                run.iter_end.len()
            ));
        };
        let per_iter = (e1.0 - e0.0) as usize;
        let setup = e0.index() + 1 - per_iter;
        let launches = rt.launches();
        if launches.len() != setup + 2 * per_iter {
            return Err(format!(
                "reference stream has {} launches, expected {}",
                launches.len(),
                setup + 2 * per_iter
            ));
        }
        let first = &launches[setup..setup + per_iter];
        let steady = &launches[setup + per_iter..];
        let mut waves: Vec<Wave> = Vec::new();
        for (a, b) in first.iter().zip(steady) {
            let launch = Launch {
                node: b.node,
                reqs: b.reqs.clone(),
                duration_ns: b.duration_ns,
            };
            let same = stem(&a.name) == stem(&b.name)
                && a.node == b.node
                && a.reqs == b.reqs
                && a.duration_ns == b.duration_ns;
            if !same {
                return Err(format!(
                    "iteration 1 and 2 differ at {:?} vs {:?}: the stream is not periodic",
                    a, b
                ));
            }
            match waves.last_mut() {
                Some(wave) if wave.stem == stem(&b.name) => wave.launches.push(launch),
                _ => waves.push(Wave {
                    stem: stem(&b.name).to_string(),
                    launches: vec![launch],
                }),
            }
        }
        drop(launches);
        let dag = rt.dag();
        let ref_preds: Vec<Vec<TaskId>> = (setup..setup + 2 * per_iter)
            .map(|t| dag.preds(TaskId(t as u32)).to_vec())
            .collect();
        drop(dag);
        let iter_edges = ref_preds[per_iter..].iter().map(|p| p.len() as u64).sum();
        let forest = rt.forest();
        let mut ids: Vec<RegionId> = waves
            .iter()
            .flat_map(|w| w.launches.iter())
            .flat_map(|l| l.reqs.iter().map(|r| r.region))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let regions = ids
            .into_iter()
            .map(|r| {
                (
                    r,
                    forest.region_name(r).to_string(),
                    forest.domain(r).clone(),
                )
            })
            .collect();
        Ok(Template {
            setup_launches: setup,
            waves,
            launches_per_iter: per_iter,
            ref_preds,
            iter_edges,
            regions,
        })
    }

    /// Does `rt`'s forest hold every region of the template under the same
    /// id, name and domain? Returns the first mismatch.
    pub fn check_regions(&self, rt: &Runtime) -> Result<(), String> {
        let forest = rt.forest();
        for (r, name, domain) in &self.regions {
            if r.0 as usize >= forest.num_regions() {
                return Err(format!("region {r:?} missing from the measured forest"));
            }
            if forest.region_name(*r) != name || forest.domain(*r) != domain {
                return Err(format!("region {r:?} differs from the template's"));
            }
        }
        Ok(())
    }

    /// Count the launches among the first two iterations after set-up
    /// whose dependence edges differ from the reference runtime's.
    pub fn edge_mismatches(&self, rt: &Runtime) -> usize {
        let dag = rt.dag();
        self.ref_preds
            .iter()
            .enumerate()
            .filter(|(k, want)| {
                let t = TaskId((self.setup_launches + k) as u32);
                t.index() >= dag.len() || dag.preds(t) != want.as_slice()
            })
            .count()
    }
}
