//! # viz-bench
//!
//! The benchmark harness regenerating every figure of the paper's
//! evaluation (§8):
//!
//! | Figure | Content | Bench target |
//! |---|---|---|
//! | Fig 12 | Stencil initialization time | `fig12_stencil_init` |
//! | Fig 13 | Circuit initialization time | `fig13_circuit_init` |
//! | Fig 14 | Pennant initialization time | `fig14_pennant_init` |
//! | Fig 15 | Stencil weak scaling | `fig15_stencil_weak` |
//! | Fig 16 | Circuit weak scaling | `fig16_circuit_weak` |
//! | Fig 17 | Pennant weak scaling | `fig17_pennant_weak` |
//!
//! plus the `figures` binary, which sweeps node counts 1–512 over the five
//! runtime configurations of the paper (RayCast ± DCR, Warnock ± DCR, Paint
//! without DCR) and emits both the artifact's TSV format (Appendix A.4) and
//! per-figure series.
//!
//! Measurements are *simulated* machine times: the coherence engines run
//! their real data structures at the configured scale, and the LogP cost
//! model converts the resulting operation/message streams into time (see
//! `viz-sim` and DESIGN.md §3).

pub mod plot;

use std::time::Instant;
use viz_apps::{Circuit, CircuitConfig, Pennant, PennantConfig, Stencil, StencilConfig, Workload};
use viz_runtime::engine::StateSize;
use viz_runtime::{EngineKind, Runtime, RuntimeConfig};
use viz_sim::Counters;

/// The three benchmark applications.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AppKind {
    Stencil,
    Circuit,
    Pennant,
}

impl AppKind {
    pub fn all() -> [AppKind; 3] {
        [AppKind::Stencil, AppKind::Circuit, AppKind::Pennant]
    }

    pub fn label(self) -> &'static str {
        match self {
            AppKind::Stencil => "stencil",
            AppKind::Circuit => "circuit",
            AppKind::Pennant => "pennant",
        }
    }

    /// Weak-scaling workload at paper scale: one piece per node.
    pub fn paper(self, nodes: usize) -> Box<dyn Workload> {
        match self {
            AppKind::Stencil => Box::new(Stencil::new(StencilConfig::paper(nodes))),
            AppKind::Circuit => Box::new(Circuit::new(CircuitConfig::paper(nodes))),
            AppKind::Pennant => Box::new(Pennant::new(PennantConfig::paper(nodes))),
        }
    }

    /// Paper-scale workload with each iteration wrapped in a runtime trace
    /// (the dynamic-tracing extension, \[15\]).
    pub fn paper_traced(self, nodes: usize) -> Box<dyn Workload> {
        match self {
            AppKind::Stencil => Box::new(Stencil::new(StencilConfig {
                traced: true,
                ..StencilConfig::paper(nodes)
            })),
            AppKind::Circuit => Box::new(Circuit::new(CircuitConfig {
                traced: true,
                ..CircuitConfig::paper(nodes)
            })),
            AppKind::Pennant => Box::new(Pennant::new(PennantConfig {
                traced: true,
                ..PennantConfig::paper(nodes)
            })),
        }
    }

    /// A scaled-down workload (same structure, smaller per-piece size) for
    /// fast criterion runs.
    pub fn bench_scale(self, nodes: usize) -> Box<dyn Workload> {
        match self {
            AppKind::Stencil => Box::new(Stencil::new(StencilConfig {
                tile: 512,
                iterations: 5,
                ..StencilConfig::paper(nodes)
            })),
            AppKind::Circuit => Box::new(Circuit::new(CircuitConfig {
                nodes_per_piece: 200,
                wires_per_piece: 2_000,
                iterations: 5,
                ..CircuitConfig::paper(nodes)
            })),
            AppKind::Pennant => Box::new(Pennant::new(PennantConfig {
                zones_x_per_piece: 80,
                zones_y: 50,
                iterations: 5,
                ..PennantConfig::paper(nodes)
            })),
        }
    }

    /// The per-node throughput unit of the weak-scaling figure, and its
    /// scale factor as printed by the paper ("10⁹ points/s" etc.).
    pub fn unit_scale(self) -> (f64, &'static str) {
        match self {
            AppKind::Stencil => (1e9, "1e9 points/s"),
            AppKind::Circuit => (1e6, "1e6 wires/s"),
            AppKind::Pennant => (1e6, "1e6 zones/s"),
        }
    }
}

/// One runtime configuration of the evaluation.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct RunConfig {
    pub engine: EngineKind,
    pub dcr: bool,
}

impl RunConfig {
    /// The five configurations of Figs 12–17, in legend order. (The
    /// painter's algorithm implementation predates DCR, §8.)
    pub fn evaluated() -> [RunConfig; 5] {
        [
            RunConfig {
                engine: EngineKind::RayCast,
                dcr: true,
            },
            RunConfig {
                engine: EngineKind::RayCast,
                dcr: false,
            },
            RunConfig {
                engine: EngineKind::Warnock,
                dcr: true,
            },
            RunConfig {
                engine: EngineKind::Warnock,
                dcr: false,
            },
            RunConfig {
                engine: EngineKind::Paint,
                dcr: false,
            },
        ]
    }

    /// Legend label, matching the paper's figures.
    pub fn label(self) -> String {
        format!(
            "{}, {}",
            self.engine.label(),
            if self.dcr { "DCR" } else { "No DCR" }
        )
    }

    /// Artifact system name (`neweqcr_dcr`, `paint_nodcr`, …).
    pub fn artifact_system(self) -> String {
        format!(
            "{}_{}",
            self.engine.artifact_name(),
            if self.dcr { "dcr" } else { "nodcr" }
        )
    }
}

/// One measured data point.
#[derive(Clone, Debug)]
pub struct Measurement {
    pub app: &'static str,
    pub config: RunConfig,
    pub nodes: usize,
    /// Simulated initialization time (application start through the end of
    /// the first top-level iteration), seconds — Figs 12–14.
    pub init_time_s: f64,
    /// Simulated total elapsed time, seconds (artifact `elapsed_time`).
    pub elapsed_s: f64,
    /// Steady-state per-iteration time (excluding the first), seconds.
    pub per_iter_s: f64,
    /// Elements processed per second per node — Figs 15–17.
    pub throughput_per_node: f64,
    /// Exact operation counts from the engines.
    pub counters: Counters,
    /// Engine state sizes at the end of the run.
    pub state: StateSize,
    /// Host wall-clock spent in the analysis itself (this implementation's
    /// real speed, measured by the criterion benches).
    pub host_analysis_s: f64,
}

/// Run one workload under one configuration and measure both phases.
pub fn measure(
    app: AppKind,
    workload: &dyn Workload,
    config: RunConfig,
    nodes: usize,
) -> Measurement {
    let mut rt = Runtime::new(
        RuntimeConfig::new(config.engine)
            .nodes(nodes)
            .dcr(config.dcr)
            .validate(false),
    );
    let host_start = Instant::now();
    let run = workload.execute(&mut rt);
    let host_analysis_s = host_start.elapsed().as_secs_f64();
    let report = rt.timed_schedule();
    assert!(!run.iter_end.is_empty(), "workload must report iterations");
    let init_ns = report.completion_through(run.iter_end[0]);
    let total_ns = report.completion_through(*run.iter_end.last().unwrap());
    let iters = run.iter_end.len();
    // Steady state (§8: "once the initial analysis is done the performance
    // stabilizes"): the median per-iteration delta over the last half of
    // the iterations, which excludes the pipeline-fill drain after the
    // first-iteration analysis burst.
    let per_iter_s = if iters > 1 {
        let mut deltas: Vec<u64> = run
            .iter_end
            .windows(2)
            .map(|w| report.completion_through(w[1]) - report.completion_through(w[0]))
            .collect();
        let half = deltas.split_off(deltas.len() / 2);
        let mut half = half;
        half.sort_unstable();
        half[half.len() / 2] as f64 * 1e-9
    } else {
        init_ns as f64 * 1e-9
    };
    let throughput_per_node = if per_iter_s > 0.0 {
        run.elements_per_iter as f64 / per_iter_s / nodes as f64
    } else {
        0.0
    };
    let counters = rt.machine().counters().clone();
    let state = rt.stats().state;
    Measurement {
        app: app.label(),
        config,
        nodes,
        init_time_s: init_ns as f64 * 1e-9,
        elapsed_s: total_ns as f64 * 1e-9,
        per_iter_s,
        throughput_per_node,
        counters,
        state,
        host_analysis_s,
    }
}

/// Sweep an app over node counts × the five configurations.
pub fn sweep(app: AppKind, node_counts: &[usize], paper_scale: bool) -> Vec<Measurement> {
    let mut out = Vec::new();
    for &nodes in node_counts {
        for config in RunConfig::evaluated() {
            let workload = if paper_scale {
                app.paper(nodes)
            } else {
                app.bench_scale(nodes)
            };
            out.push(measure(app, workload.as_ref(), config, nodes));
        }
    }
    out
}

/// The paper's node counts: powers of two, 1..=512.
pub fn paper_node_counts(max: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut n = 1;
    while n <= max {
        v.push(n);
        n *= 2;
    }
    v
}

/// Render measurements as the artifact's TSV (Appendix A.4):
/// `system nodes procs_per_node rep init_time elapsed_time`.
pub fn artifact_tsv(rows: &[Measurement], reps: usize) -> String {
    let mut s = String::from("system\tnodes\tprocs_per_node\trep\tinit_time\telapsed_time\n");
    for m in rows {
        for rep in 0..reps {
            s.push_str(&format!(
                "{}\t{}\t1\t{}\t{:.3}\t{:.3}\n",
                m.config.artifact_system(),
                m.nodes,
                rep,
                m.init_time_s,
                m.elapsed_s
            ));
        }
    }
    s
}

/// Render an initialization-time figure (Figs 12–14): one column per
/// configuration, rows by node count.
pub fn init_figure_tsv(rows: &[Measurement]) -> String {
    series_tsv(rows, "init_time_s", |m| m.init_time_s)
}

/// Render a weak-scaling figure (Figs 15–17): throughput per node.
pub fn weak_figure_tsv(app: AppKind, rows: &[Measurement]) -> String {
    let (scale, unit) = app.unit_scale();
    series_tsv(rows, unit, move |m| m.throughput_per_node / scale)
}

fn series_tsv(rows: &[Measurement], value_name: &str, f: impl Fn(&Measurement) -> f64) -> String {
    let configs = RunConfig::evaluated();
    let mut nodes: Vec<usize> = rows.iter().map(|m| m.nodes).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let mut s = format!("# value: {value_name}\nnodes");
    for c in configs {
        s.push('\t');
        s.push_str(&c.label());
    }
    s.push('\n');
    for n in nodes {
        s.push_str(&n.to_string());
        for c in configs {
            let v = rows.iter().find(|m| m.nodes == n && m.config == c).map(&f);
            match v {
                Some(v) => s.push_str(&format!("\t{v:.4}")),
                None => s.push_str("\t-"),
            }
        }
        s.push('\n');
    }
    s
}

/// Steady-state per-node throughput of one workload on one runtime, plus
/// the runtime's tracing statistics: (throughput, replayed launches,
/// auto traces detected, auto traces demoted).
fn steady_state_run(
    workload: &dyn Workload,
    config: RunConfig,
    nodes: usize,
    auto_trace: bool,
) -> (f64, u64, u64, u64) {
    let mut rt = Runtime::new(
        RuntimeConfig::new(config.engine)
            .nodes(nodes)
            .dcr(config.dcr)
            .validate(false)
            .auto_trace(auto_trace),
    );
    let run = workload.execute(&mut rt);
    let report = rt.timed_schedule();
    let mut deltas: Vec<u64> = run
        .iter_end
        .windows(2)
        .map(|w| report.completion_through(w[1]) - report.completion_through(w[0]))
        .collect();
    let mut half = deltas.split_off(deltas.len() / 2);
    half.sort_unstable();
    let per_iter_s = half[half.len() / 2] as f64 * 1e-9;
    let tput = run.elements_per_iter as f64 / per_iter_s / nodes as f64;
    let t = rt.stats().tracing;
    (
        tput,
        t.replayed_launches,
        t.auto_promotions,
        t.auto_demotions,
    )
}

/// The dynamic-tracing extension experiment (E9 in DESIGN.md): the
/// ray-casting engine with and without per-iteration traces, at paper
/// scale. Tracing removes the per-launch analysis from the steady state,
/// which should flatten the no-DCR curve that analysis costs bend.
pub fn tracing_sweep(app: AppKind, node_counts: &[usize]) -> String {
    let config = RunConfig {
        engine: EngineKind::RayCast,
        dcr: false,
    };
    let (scale, unit) = app.unit_scale();
    let mut s = format!(
        "# Extension: dynamic tracing [15] — {} weak scaling, RayCast No DCR
         # value: {unit}
nodes	untraced	traced	replayed_launches
",
        app.label()
    );
    for &nodes in node_counts {
        let plain = measure(app, app.paper(nodes).as_ref(), config, nodes);
        let (traced_tput, replayed, _, _) =
            steady_state_run(app.paper_traced(nodes).as_ref(), config, nodes, false);
        s.push_str(&format!(
            "{nodes}	{:.4}	{:.4}	{replayed}
",
            plain.throughput_per_node / scale,
            traced_tput / scale,
        ));
    }
    s
}

/// The automatic trace detection experiment: the same weak-scaling
/// workload untraced, manually traced (`begin_trace`/`end_trace` in the
/// app), and *unannotated* on a runtime that detects the repeats itself.
/// Auto-traced throughput should track manual tracing closely — the
/// detector only costs extra analyzed instances before promotion, which
/// the steady-state median excludes.
pub fn autotracing_sweep(app: AppKind, node_counts: &[usize]) -> String {
    let config = RunConfig {
        engine: EngineKind::RayCast,
        dcr: false,
    };
    let (scale, unit) = app.unit_scale();
    let mut s = format!(
        "# Extension: automatic trace detection — {} weak scaling, RayCast No DCR
         # value: {unit}
nodes	untraced	traced	auto_traced	replayed_manual	replayed_auto	detected	demoted
",
        app.label()
    );
    for &nodes in node_counts {
        let plain = measure(app, app.paper(nodes).as_ref(), config, nodes);
        let (manual_tput, manual_replayed, _, _) =
            steady_state_run(app.paper_traced(nodes).as_ref(), config, nodes, false);
        let (auto_tput, auto_replayed, detected, demoted) =
            steady_state_run(app.paper(nodes).as_ref(), config, nodes, true);
        s.push_str(&format!(
            "{nodes}	{:.4}	{:.4}	{:.4}	{manual_replayed}	{auto_replayed}	{detected}	{demoted}
",
            plain.throughput_per_node / scale,
            manual_tput / scale,
            auto_tput / scale,
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_configurations_match_paper_legend() {
        let cfgs = RunConfig::evaluated();
        assert_eq!(cfgs.len(), 5);
        let labels: Vec<String> = cfgs.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec![
                "RayCast, DCR",
                "RayCast, No DCR",
                "Warnock, DCR",
                "Warnock, No DCR",
                "Paint, No DCR"
            ]
        );
        assert_eq!(cfgs[0].artifact_system(), "neweqcr_dcr");
        assert_eq!(cfgs[4].artifact_system(), "paint_nodcr");
    }

    #[test]
    fn paper_node_counts_are_powers_of_two() {
        assert_eq!(
            paper_node_counts(512),
            vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512]
        );
        assert_eq!(paper_node_counts(8), vec![1, 2, 4, 8]);
    }

    #[test]
    fn measure_produces_sane_stencil_point() {
        let m = measure(
            AppKind::Stencil,
            AppKind::Stencil.bench_scale(2).as_ref(),
            RunConfig {
                engine: EngineKind::RayCast,
                dcr: false,
            },
            2,
        );
        assert!(m.init_time_s > 0.0);
        assert!(m.elapsed_s >= m.init_time_s);
        assert!(m.throughput_per_node > 0.0);
        assert!(m.counters.launches > 0);
    }

    #[test]
    fn artifact_tsv_shape() {
        let m = measure(
            AppKind::Circuit,
            AppKind::Circuit.bench_scale(1).as_ref(),
            RunConfig {
                engine: EngineKind::Paint,
                dcr: false,
            },
            1,
        );
        let tsv = artifact_tsv(&[m], 2);
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 reps");
        assert!(lines[0].starts_with("system\tnodes"));
        assert!(lines[1].starts_with("paint_nodcr\t1\t1\t0\t"));
    }

    #[test]
    fn figure_tsv_has_all_configs() {
        let rows = sweep(AppKind::Pennant, &[1, 2], false);
        let fig = init_figure_tsv(&rows);
        let header = fig.lines().nth(1).unwrap();
        assert_eq!(header.split('\t').count(), 6, "nodes + 5 configs");
        assert_eq!(fig.lines().count(), 4, "comment + header + 2 node rows");
    }
}
