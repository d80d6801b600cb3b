//! Diagnostic probe: per-iteration completion deltas, counters, and state
//! sizes for one app × configuration × node count.
//!
//! ```text
//! probe <stencil|circuit|pennant> <raycast|warnock|paint|paintnaive> <dcr|nodcr> <nodes> \
//!       [--quick] [--profile] [--analysis-threads N] [--auto-trace] [--pipeline] \
//!       [--submit-rings N] [--oracle] [--record-history PATH]
//! ```
//!
//! `--profile` records a structured trace of the run and appends the
//! per-engine metrics table (TSV) to the output. `--analysis-threads N`
//! runs the analysis through the sharded driver with N workers (the
//! reported figures are bit-identical to serial; only host time changes).
//! `--auto-trace` enables automatic trace detection and reports what the
//! detector promoted, replayed, and demoted. `--pipeline` routes
//! submissions through the deferred-execution frontend (bounded queue +
//! analysis driver thread) and reports queue depth/stall statistics; the
//! figures again stay bit-identical, only host overlap changes.
//! `--submit-rings N` sizes the submission plane's ring array (primary
//! facade plus N-1 tenant contexts; also settable via `VIZ_SUBMIT_RINGS`).
//! `--oracle` records the run's history and judges it with the external
//! saturation checker (viz-oracle) after scheduling; a violation is a
//! nonzero exit. `--record-history PATH` writes the recorded history in
//! the portable `VZH1` binary format for offline checking.

use viz_bench::AppKind;
use viz_runtime::{EngineKind, Runtime, RuntimeConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let app = match args[0].as_str() {
        "stencil" => AppKind::Stencil,
        "circuit" => AppKind::Circuit,
        "pennant" => AppKind::Pennant,
        a => panic!("unknown app {a}"),
    };
    let engine = match args[1].as_str() {
        "raycast" => EngineKind::RayCast,
        "warnock" => EngineKind::Warnock,
        "paint" => EngineKind::Paint,
        "paintnaive" => EngineKind::PaintNaive,
        a => panic!("unknown engine {a}"),
    };
    let dcr = args[2] == "dcr";
    let nodes: usize = args[3].parse().unwrap();
    let quick = args.iter().any(|a| a == "--quick");
    let profile = args.iter().any(|a| a == "--profile");
    let auto_trace = args.iter().any(|a| a == "--auto-trace");
    let pipeline = args.iter().any(|a| a == "--pipeline") || viz_runtime::default_pipeline();
    let analysis_threads = args
        .iter()
        .position(|a| a == "--analysis-threads")
        .map(|i| {
            args.get(i + 1)
                .expect("--analysis-threads N")
                .parse::<usize>()
                .expect("thread count")
        })
        .unwrap_or_else(viz_runtime::default_analysis_threads);
    let submit_rings = args
        .iter()
        .position(|a| a == "--submit-rings")
        .map(|i| {
            args.get(i + 1)
                .expect("--submit-rings N")
                .parse::<usize>()
                .expect("ring count")
        })
        .unwrap_or_else(viz_runtime::default_submit_rings);
    let oracle = args.iter().any(|a| a == "--oracle");
    let history_path = args
        .iter()
        .position(|a| a == "--record-history")
        .map(|i| args.get(i + 1).expect("--record-history PATH").clone());
    let record = oracle || history_path.is_some() || viz_runtime::default_record_history();
    if profile {
        viz_profile::enable();
    }

    let workload = if quick {
        app.bench_scale(nodes)
    } else {
        app.paper(nodes)
    };
    let mut rt = Runtime::new(
        RuntimeConfig::new(engine)
            .nodes(nodes)
            .dcr(dcr)
            .validate(false)
            .analysis_threads(analysis_threads)
            .auto_trace(auto_trace)
            .pipeline(pipeline)
            .submit_rings(submit_rings)
            .record_history(record),
    );
    let host = std::time::Instant::now();
    let run = workload.execute(&mut rt);
    let host_submit = host.elapsed().as_secs_f64();
    rt.flush();
    let host_analysis = host.elapsed().as_secs_f64();
    let report = rt.timed_schedule();
    println!(
        "app={} engine={} dcr={} nodes={} launches={} analysis_threads={} host_analysis={:.2}s",
        app.label(),
        engine.label(),
        dcr,
        nodes,
        rt.num_tasks(),
        analysis_threads,
        host_analysis
    );
    let mut prev = 0u64;
    for (k, end) in run.iter_end.iter().enumerate() {
        let t = report.completion_through(*end);
        println!(
            "iter {k:>3}: completion {:>12.6}s  delta {:>10.6}s",
            t as f64 * 1e-9,
            (t - prev) as f64 * 1e-9
        );
        prev = t;
    }
    let mut clocks: Vec<(usize, u64)> = rt.machine().clocks().iter().copied().enumerate().collect();
    clocks.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
    println!(
        "top clocks: {:?}",
        clocks
            .iter()
            .take(5)
            .map(|(n, c)| (*n, *c as f64 * 1e-9))
            .collect::<Vec<_>>()
    );
    let mut svc: Vec<(usize, u64)> = rt
        .machine()
        .service_clocks()
        .iter()
        .copied()
        .enumerate()
        .collect();
    svc.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
    println!(
        "top service: {:?}",
        svc.iter()
            .take(3)
            .map(|(n, c)| (*n, *c as f64 * 1e-9))
            .collect::<Vec<_>>()
    );
    let state = rt.stats().state;
    println!(
        "state[{}]: history_entries={} equivalence_sets={} composite_views={} \
         index_nodes={} memo_entries={}",
        engine.label(),
        state.history_entries,
        state.equivalence_sets,
        state.composite_views,
        state.index_nodes,
        state.memo_entries
    );
    if auto_trace {
        let t = rt.stats().tracing;
        println!(
            "auto-trace: detected={} demoted={} replayed_launches={} violations={} rebase_ranges={}",
            t.auto_promotions, t.auto_demotions, t.replayed_launches, t.violations, t.rebase_ranges
        );
    }
    if let Some(m) = rt.pipeline_metrics() {
        println!(
            "pipeline: submitted={} retired={} max_depth={} stalls={} stalled={:.3}s \
             combines={} combined_specs={} max_combine={} multi_ring_combines={} \
             host_submit={host_submit:.2}s (analysis overlapped {:.2}s)",
            m.submitted(),
            m.retired(),
            m.max_depth(),
            m.stalls(),
            m.stalled_ns() as f64 * 1e-9,
            m.combines(),
            m.combined_specs(),
            m.max_combine(),
            m.multi_ring_combines(),
            host_analysis - host_submit
        );
    }
    println!("counters: {:#?}", rt.machine().counters());
    if oracle || history_path.is_some() {
        let history = viz_oracle::capture(&rt).expect("history recording was enabled");
        if let Some(path) = &history_path {
            let bytes = history.encode();
            std::fs::write(path, &bytes).expect("write history");
            println!(
                "history: {} launches -> {path} ({} bytes)",
                history.launches.len(),
                bytes.len()
            );
        }
        if oracle {
            let report = viz_oracle::check(&history);
            println!(
                "oracle: launches={} pairs={} edges={} violations={}",
                report.launches,
                report.pairs_checked,
                report.edges_checked,
                report.violations.len()
            );
            for v in &report.violations {
                eprintln!("oracle violation: {v}");
            }
            if !report.ok() {
                std::process::exit(1);
            }
        }
    }
    if profile {
        let prof = viz_profile::take();
        println!(
            "profile: {} events, {} dropped",
            prof.events.len(),
            prof.dropped
        );
        print!("{}", viz_profile::export::metrics_tsv(&prof));
    }
}
