//! End-to-end benchmark driver: replays one steady iteration of a paper
//! application through `Runtime::submit_batch`, round after round, and
//! prints every metric as one JSON line (see `README.md` beside this
//! crate). Usually run through `run.py`, which builds this binary, adds
//! the host fingerprint and prints the benchmark's result line.
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```

mod spans;
mod speed;
mod sys;
mod workloads;

use spans::{Recorder, NO_PARENT};
use std::fmt::Write as _;
use std::time::Instant;
use viz_runtime::{Runtime, RuntimeStats};
use viz_sim::Counters;
use workloads::{Template, Workload};

/// Measured rounds at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
/// Set-ups per round (all timed; the last one is measured on).
const SETUPS_PER_ROUND: usize = 3;
/// RSS samples per timed phase at equal iteration fractions, plus one
/// after the final flush.
const RSS_SAMPLES: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let name = get("--workload").ok_or("missing --workload")?;
    let workload = Workload::by_name(&name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    let seed = get("--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")
        .unwrap_or_else(|| "30".into())
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out: get("--out").unwrap_or_else(|| ".bench_out".into()),
    })
}

/// Linear-interpolated percentile of `v` (`q` in 0..=1).
fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Least-squares slope of `(x, y)` samples.
fn slope(pts: &[(f64, f64)]) -> f64 {
    let n = pts.len() as f64;
    let (mx, my) = (
        pts.iter().map(|p| p.0).sum::<f64>() / n,
        pts.iter().map(|p| p.1).sum::<f64>() / n,
    );
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    ratio(sxy, sxx)
}

/// Everything one round measured.
struct Round {
    traced: bool,
    /// One sample per set-up the round made.
    setup_s: Vec<f64>,
    rss_setup_kb: u64,
    rss_peak_kb: u64,
    launch_rate: f64,
    iter_ms: Vec<f64>,
    /// The same figures at the reference host speed (see [`speed`]).
    scaled: Scaled,
    /// Median host speed probe over the round, in ms.
    probe_ms: f64,
    attempted: u64,
    failed: u64,
    /// Per-layer values (traced rounds only), in [`LAYER_METRICS`] order.
    layer: Vec<f64>,
}

/// A round's wall-clock figures, each scaled by `speed::REF_MS` over the
/// probes taken next to it.
struct Scaled {
    setup_s: Vec<f64>,
    launch_rate: f64,
    iter_ms: Vec<f64>,
}

/// Per-layer metric names and units, in the order rounds report them.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("apps.generate_ms", "ms"),
    ("apps.init_ms", "ms"),
    ("runtime.submit_ms_p50", "ms"),
    ("runtime.submit_ms_p90", "ms"),
    ("runtime.flush_ms", "ms"),
    ("pipeline.stalls_per_1k", "count"),
    ("pipeline.stalled_frac", "ratio"),
    ("pipeline.specs_per_combine", "count"),
    ("pipeline.max_depth", "count"),
    ("analysis.candidates_per_launch", "count"),
    ("analysis.swept_per_launch", "count"),
    ("analysis.history_entries", "count"),
    ("analysis.equivalence_sets", "count"),
    ("geometry.algebra_hit_ratio", "ratio"),
    ("geometry.interned_spaces", "count"),
    ("trace.replayed_frac", "ratio"),
    ("trace.promotions", "count"),
    ("trace.demotions", "count"),
    ("dag.edges_per_launch", "count"),
    ("dag.tag_words", "count"),
    ("gc.collections", "count"),
    ("gc.retired_per_1k", "count"),
    ("gc.reclaimed_per_1k", "count"),
    ("gc.retained", "count"),
    ("sim.messages_per_launch", "count"),
    ("sim.bytes_per_launch", "B"),
    ("sim.geom_ops_per_launch", "count"),
    ("sim.hist_scanned_per_launch", "count"),
    ("stats.snapshot_us", "us"),
    ("mem.rss_kb_per_1k_launches", "kB"),
];

/// Does a per-layer metric repeat exactly for a given seed? Host
/// measurements do not. On a pipelined runtime neither does anything that
/// depends on where history GC ran, because collection points follow how
/// the driver cut batches.
fn is_exact(name: &str, pipelined: bool) -> bool {
    let host = name.ends_with("_ms")
        || name.ends_with("_us")
        || name.contains("_ms_p")
        || name.starts_with("mem.")
        || name.starts_with("pipeline.");
    let gc_point = name.starts_with("gc.")
        || matches!(
            name,
            "dag.tag_words" | "analysis.history_entries" | "analysis.equivalence_sets"
        );
    !(host || pipelined && gc_point)
}

/// The per-layer values of one traced round, from the stats and machine
/// counters taken around its timed phase.
#[allow(clippy::too_many_arguments)]
fn layer_values(
    rec: &Recorder,
    since: usize,
    timed_launches: f64,
    generate_ms: f64,
    init_ms: f64,
    s0: &RuntimeStats,
    s1: &RuntimeStats,
    c0: &Counters,
    c1: &Counters,
    rss: &[(f64, f64)],
    elapsed_s: f64,
) -> Vec<f64> {
    let per = |a: u64, b: u64| ratio((b - a) as f64, timed_launches);
    let per_1k = |a: u64, b: u64| 1e3 * per(a, b);
    let submit = rec.durations_ms("submit_batch", since);
    let flush = rec.durations_ms("flush", since);
    let stats = rec.durations_ms("stats", since);
    let p0 = s0.pipeline.unwrap_or_default();
    let p1 = s1.pipeline.unwrap_or_default();
    let (st0, st1) = (&s0.state, &s1.state);
    let (g0, g1) = (&s0.gc, &s1.gc);
    let reclaimed = |g: &viz_runtime::GcStats| {
        g.history_entries + g.equivalence_sets + g.composite_views + g.index_nodes + g.memo_entries
    };
    let hits = (st1.algebra_hits - st0.algebra_hits) as f64;
    let misses = (st1.algebra_misses - st0.algebra_misses) as f64;
    let values = vec![
        generate_ms,
        init_ms,
        percentile(&submit, 0.5),
        percentile(&submit, 0.9),
        median(&flush),
        per_1k(p0.stalls, p1.stalls),
        ratio((p1.stalled_ns - p0.stalled_ns) as f64 / 1e9, elapsed_s),
        ratio(
            (p1.combined_specs - p0.combined_specs) as f64,
            (p1.combines - p0.combines) as f64,
        ),
        p1.max_depth as f64,
        per(st0.candidates_visited, st1.candidates_visited),
        per(st0.sets_swept, st1.sets_swept),
        st1.history_entries as f64,
        st1.equivalence_sets as f64,
        ratio(hits, hits + misses),
        st1.interned_spaces as f64,
        per(s0.tracing.replayed_launches, s1.tracing.replayed_launches),
        s1.tracing.auto_promotions as f64,
        s1.tracing.auto_demotions as f64,
        per(s0.dag.edges, s1.dag.edges),
        s1.dag.tag_words as f64,
        (g1.collections - g0.collections) as f64,
        per_1k(g0.retired_launches, g1.retired_launches),
        per_1k(reclaimed(g0), reclaimed(g1)),
        s1.retained as f64,
        per(c0.messages, c1.messages),
        per(c0.bytes, c1.bytes),
        per(c0.geom_ops, c1.geom_ops),
        per(c0.hist_entries_scanned, c1.hist_entries_scanned),
        stats.first().copied().unwrap_or(0.0) * 1e3,
        1e3 * slope(rss),
    ];
    debug_assert_eq!(values.len(), LAYER_METRICS.len());
    values
}

/// Submit one replayed iteration, wave by wave. Returns the launches of
/// waves whose `submit_batch` failed.
fn replay_iteration(
    rt: &mut Runtime,
    tpl: &Template,
    iter: usize,
    mut rec: Option<(&mut Recorder, u32)>,
) -> u64 {
    let mut failed = 0;
    for wave in &tpl.waves {
        let specs = wave.specs(iter);
        let n = specs.len() as u64;
        let span = rec
            .as_mut()
            .map(|(r, parent)| r.begin("submit_batch", *parent));
        let ok = rt.submit_batch(specs).is_ok();
        if let (Some((r, _)), Some(span)) = (rec.as_mut(), span) {
            r.end(span);
        }
        if !ok {
            failed += n;
        }
    }
    failed
}

struct Context<'a> {
    w: &'a Workload,
    seed: u64,
    tpl: &'a Template,
    /// Failure descriptions, printed before the result line.
    failures: Vec<String>,
    /// The simulated schedule's (init s, median iteration ms), once.
    sim: Option<(f64, f64)>,
}

impl Context<'_> {
    fn fail(&mut self, what: String) {
        eprintln!("FAIL: {what}");
        self.failures.push(what);
    }

    /// One round: set-up on a fresh runtime, warm-up, the timed phase,
    /// then the correctness checks. `rec` records spans (traced rounds).
    fn round(&mut self, index: usize, mut rec: Option<&mut Recorder>) -> Round {
        let (w, tpl) = (self.w, self.tpl);
        let traced = rec.is_some();
        let since = rec.as_ref().map_or(0, |r| r.spans.len());
        let round_span = rec.as_mut().map(|r| r.begin_group("round", NO_PARENT));
        let child = |rec: &mut Option<&mut Recorder>, name| {
            rec.as_mut()
                .map(|r| r.begin(name, round_span.unwrap_or(NO_PARENT)))
        };
        let close = |rec: &mut Option<&mut Recorder>, span: Option<u32>| {
            if let (Some(r), Some(s)) = (rec.as_mut(), span) {
                r.end(s);
            }
        };

        // Set-up: app construction plus the zero-iteration execute on the
        // measured runtime, drained so the set-up's analysis is included.
        // The first set-ups of a round are timed and dropped, so that the
        // set-up median rests on several samples per round.
        let mut probe_ms = speed::probe();
        let mut setup_s = Vec::with_capacity(SETUPS_PER_ROUND);
        for _ in 1..SETUPS_PER_ROUND {
            let t = Instant::now();
            let app = w.app(self.seed, 0);
            let mut rt = Runtime::new(w.config());
            app.execute(&mut rt);
            rt.flush();
            setup_s.push(t.elapsed().as_secs_f64());
        }
        sys::trim_heap();
        sys::reset_peak();
        let t0 = Instant::now();
        let span = child(&mut rec, "construct");
        let app = w.app(self.seed, 0);
        close(&mut rec, span);
        let generate_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut rt = Runtime::new(w.config());
        let t1 = Instant::now();
        let span = child(&mut rec, "setup_execute");
        app.execute(&mut rt);
        rt.flush();
        close(&mut rec, span);
        let init_ms = t1.elapsed().as_secs_f64() * 1e3;
        setup_s.push(t0.elapsed().as_secs_f64());
        let rss_setup_kb = sys::peak_rss_kb();

        let mut failed = 0u64;
        if let Err(e) = tpl.check_regions(&rt) {
            self.fail(format!("round {index}: {e}"));
            failed += 1;
        }
        let setup_n = rt.num_tasks();
        if setup_n != tpl.setup_launches {
            self.fail(format!(
                "round {index}: set-up submitted {setup_n} launches, template {}",
                tpl.setup_launches
            ));
            failed += 1;
        }

        let per_iter = tpl.launches_per_iter;
        for iter in 0..w.warmup_iters {
            failed += replay_iteration(&mut rt, tpl, iter, None);
        }
        let s0 = rt.stats();
        let c0 = rt.machine().counters().clone();
        // `stats()` drained the pipeline, so the probe runs on a quiet
        // runtime.
        let mut before = speed::probe();
        let setup_scale = speed::scale(&[&probe_ms, &before]);
        probe_ms.extend_from_slice(&before);

        // Timed phase, in segments that each end with a `flush()` and a
        // probe: a segment's figures scale by the probes on either side.
        sys::reset_peak();
        let n = w.timed_iters;
        let mut iter_ms = Vec::with_capacity(n);
        let mut scaled_iter_ms = Vec::with_capacity(n);
        let mut rss = Vec::new();
        let marks: Vec<usize> = (0..RSS_SAMPLES).map(|j| j * n / RSS_SAMPLES).collect();
        let first = w.warmup_iters;
        let (mut elapsed, mut scaled_elapsed) = (0.0, 0.0);
        for seg in (0..n).step_by(w.segment_iters) {
            let start = Instant::now();
            for k in seg..n.min(seg + w.segment_iters) {
                let iter = first + k;
                if traced && marks.contains(&k) {
                    rss.push(((k * per_iter) as f64, sys::rss_kb() as f64));
                }
                let ti = Instant::now();
                let span = rec
                    .as_mut()
                    .map(|r| r.begin_group("iteration", round_span.unwrap_or(NO_PARENT)));
                failed += replay_iteration(&mut rt, tpl, iter, rec.as_deref_mut().zip(span));
                close(&mut rec, span);
                iter_ms.push(ti.elapsed().as_secs_f64() * 1e3);
            }
            let span = child(&mut rec, "flush");
            rt.flush();
            close(&mut rec, span);
            let wall = start.elapsed().as_secs_f64();
            let after = speed::probe();
            let k = speed::scale(&[&before, &after]);
            scaled_iter_ms.extend(iter_ms[seg..].iter().map(|t| t * k));
            elapsed += wall;
            scaled_elapsed += wall * k;
            probe_ms.extend_from_slice(&after);
            before = after;
        }
        let rss_peak_kb = sys::peak_rss_kb();
        if traced {
            rss.push(((n * per_iter) as f64, sys::rss_kb() as f64));
        }
        let timed_launches = (n * per_iter) as u64;

        let span = child(&mut rec, "stats");
        let s1 = rt.stats();
        close(&mut rec, span);
        let c1 = rt.machine().counters().clone();

        // Correctness: edges of the first two replayed iterations, and the
        // timed phase's edge count.
        let mismatched = tpl.edge_mismatches(&rt) as u64;
        if mismatched > 0 {
            self.fail(format!(
                "round {index}: {mismatched} launches' dependences differ from the reference"
            ));
            failed += mismatched;
        }
        let edges = s1.dag.edges - s0.dag.edges;
        if edges != n as u64 * tpl.iter_edges {
            self.fail(format!(
                "round {index}: timed phase recorded {edges} edges, expected {} x {}",
                n, tpl.iter_edges
            ));
            failed += 1;
        }
        let total = setup_n as u64 + ((first + n) * per_iter) as u64;
        if s1.tasks != total {
            self.fail(format!(
                "round {index}: {} tasks committed, expected {total}",
                s1.tasks
            ));
            failed += 1;
        }
        if w.timed_schedule && self.sim.is_none() {
            self.sim = Some(simulate(&mut rt, setup_n, per_iter, first + n));
        }
        let layer = rec.as_deref().map_or_else(Vec::new, |r| {
            layer_values(
                r,
                since,
                timed_launches as f64,
                generate_ms,
                init_ms,
                &s0,
                &s1,
                &c0,
                &c1,
                &rss,
                elapsed,
            )
        });
        drop(rt);
        drop(app);
        close(&mut rec, round_span);
        sys::trim_heap();
        Round {
            traced,
            scaled: Scaled {
                setup_s: setup_s.iter().map(|t| t * setup_scale).collect(),
                launch_rate: timed_launches as f64 / scaled_elapsed,
                iter_ms: scaled_iter_ms,
            },
            setup_s,
            rss_setup_kb,
            rss_peak_kb,
            launch_rate: timed_launches as f64 / elapsed,
            iter_ms,
            probe_ms: median(&probe_ms),
            attempted: total,
            failed,
            layer,
        }
    }
}

/// Replay the measured runtime's DAG on the simulated machine: the
/// modelled initialization time (set-up plus the first iteration, in s)
/// and the median steady iteration (ms).
fn simulate(rt: &mut Runtime, setup_n: usize, per_iter: usize, iters: usize) -> (f64, f64) {
    let report = rt.timed_schedule();
    let end = |k: usize| {
        report.completion_through(viz_runtime::TaskId(
            (setup_n + (k + 1) * per_iter - 1) as u32,
        ))
    };
    let steady: Vec<f64> = (1..iters)
        .map(|k| (end(k) - end(k - 1)) as f64 / 1e6)
        .collect();
    (end(0) as f64 / 1e9, median(&steady))
}

/// Judge set-up plus the first replayed iteration of the measured
/// configuration with the external consistency oracle.
fn oracle_check(w: &Workload, seed: u64, tpl: &Template) -> Result<usize, String> {
    let mut rt = Runtime::new(w.config().record_history(true));
    w.app(seed, 0).execute(&mut rt);
    if replay_iteration(&mut rt, tpl, 0, None) > 0 {
        return Err("oracle run: submit_batch failed".into());
    }
    let history = viz_oracle::capture(&rt).ok_or("oracle run recorded no history")?;
    let report = viz_oracle::check(&history);
    if report.ok() {
        Ok(history.launches.len())
    } else {
        Err(format!(
            "oracle: {} violations, first {:?}",
            report.violations.len(),
            report.violations[0]
        ))
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let w = &args.workload;
    println!(
        "workload {} seed {} trace {}",
        w.name, args.seed, args.trace as u8
    );
    println!("workload shape {w:?}");
    println!("runtime config {:?}", w.config());

    let t = Instant::now();
    let tpl = match Template::capture(w, args.seed) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("e2ebench: template: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "template: {} set-up launches, {} launches/iteration in {} waves, {} edges/iteration ({:.2} s)",
        tpl.setup_launches,
        tpl.launches_per_iter,
        tpl.waves.len(),
        tpl.iter_edges,
        t.elapsed().as_secs_f64()
    );
    let mut ctx = Context {
        w,
        seed: args.seed,
        tpl: &tpl,
        failures: Vec::new(),
        sim: None,
    };
    let t = Instant::now();
    match oracle_check(w, args.seed, &tpl) {
        Ok(n) => println!(
            "oracle: {n} launches judged consistent ({:.2} s)",
            t.elapsed().as_secs_f64()
        ),
        Err(e) => ctx.fail(e),
    }
    sys::trim_heap();

    // Round 0 warms the process up and is discarded. In the traced mode
    // rounds alternate untraced and traced, so both launch rates come
    // from the same process and the gap is the tracing overhead.
    let mut rec = Recorder::new();
    let mut rounds: Vec<Round> = Vec::new();
    let (mut attempted, mut failed) = (0u64, ctx.failures.len() as u64);
    let clock = Instant::now();
    let mut index = 0;
    while rounds.len() < MIN_ROUNDS * (1 + args.trace as usize)
        || clock.elapsed().as_secs_f64() < args.seconds
    {
        let traced = args.trace && index % 2 == 0 && index > 0;
        let r = ctx.round(index, traced.then_some(&mut rec));
        eprintln!(
            "round {index}{}: {:.0} launches/s, iteration p50 {:.3} ms, set-up {:.4} s, probe {:.3} ms",
            if r.traced { " (traced)" } else { "" },
            r.launch_rate,
            median(&r.iter_ms),
            median(&r.setup_s),
            r.probe_ms
        );
        attempted += r.attempted;
        failed += r.failed;
        if index > 0 {
            rounds.push(r);
        }
        index += 1;
    }
    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let of = |rs: &[&Round], f: &dyn Fn(&Round) -> f64| -> Vec<f64> {
        rs.iter().map(|r| f(r)).collect()
    };
    // Wall-clock figures are reported at the reference host speed (see
    // `speed.rs`); the unscaled figures are printed beside them as `raw_*`.
    let pooled = |f: &dyn Fn(&Round) -> &[f64]| -> Vec<f64> {
        plain.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let iter_ms = pooled(&|r| &r.scaled.iter_ms);
    let setup_s = pooled(&|r| &r.scaled.setup_s);
    let rate = of(&plain, &|r| r.scaled.launch_rate);
    let raw_iter_ms = pooled(&|r| &r.iter_ms);
    let raw_setup_s = pooled(&|r| &r.setup_s);
    let raw_rate = of(&plain, &|r| r.launch_rate);

    // (name, value, unit, samples, exact)
    let mut metrics: Vec<(&str, f64, &str, usize, bool)> = vec![
        ("launch_rate", median(&rate), "1/s", rate.len(), false),
        (
            "iter_ms_p50",
            percentile(&iter_ms, 0.5),
            "ms",
            iter_ms.len(),
            false,
        ),
        (
            "iter_ms_p90",
            percentile(&iter_ms, 0.9),
            "ms",
            iter_ms.len(),
            false,
        ),
        ("setup_s", median(&setup_s), "s", setup_s.len(), false),
        (
            "rss_setup_mb",
            median(&of(&plain, &|r| r.rss_setup_kb as f64)) / 1024.0,
            "MB",
            plain.len(),
            false,
        ),
        (
            "rss_peak_mb",
            median(&of(&plain, &|r| r.rss_peak_kb as f64)) / 1024.0,
            "MB",
            plain.len(),
            false,
        ),
        (
            "raw_launch_rate",
            median(&raw_rate),
            "1/s",
            raw_rate.len(),
            false,
        ),
        (
            "raw_iter_ms_p50",
            percentile(&raw_iter_ms, 0.5),
            "ms",
            raw_iter_ms.len(),
            false,
        ),
        (
            "raw_iter_ms_p90",
            percentile(&raw_iter_ms, 0.9),
            "ms",
            raw_iter_ms.len(),
            false,
        ),
        (
            "raw_setup_s",
            median(&raw_setup_s),
            "s",
            raw_setup_s.len(),
            false,
        ),
        (
            "host_probe_ms",
            median(&of(&plain, &|r| r.probe_ms)),
            "ms",
            plain.len(),
            false,
        ),
        (
            "fail_frac",
            ratio(failed as f64, attempted as f64),
            "ratio",
            1,
            false,
        ),
    ];
    // Modelled times of the simulated machine, never mixed with host
    // times (0 on workloads that do not simulate).
    let (sim_init_s, sim_iter_ms) = ctx.sim.unwrap_or_default();
    metrics.push(("sim_init_s", sim_init_s, "sim_s", 1, true));
    metrics.push(("sim_iter_ms", sim_iter_ms, "sim_ms", 1, true));
    let mut layer = Vec::new();
    if args.trace {
        for (k, (name, unit)) in LAYER_METRICS.iter().enumerate() {
            let v = median(&of(&traced, &|r| r.layer[k]));
            layer.push((*name, v, *unit, traced.len(), is_exact(name, w.pipeline)));
        }
        let traced_rate = median(&of(&traced, &|r| r.scaled.launch_rate));
        let overhead = 100.0 * (1.0 - ratio(traced_rate, median(&rate)));
        metrics.push((
            "bench.traced_launch_rate",
            traced_rate,
            "1/s",
            traced.len(),
            false,
        ));
        metrics.push((
            "bench.tracing_overhead_pct",
            overhead,
            "%",
            traced.len(),
            false,
        ));
        std::fs::create_dir_all(&args.out).ok();
        let path = format!("{}/spans-{}-seed{}.json", args.out, w.name, args.seed);
        match std::fs::write(&path, rec.to_chrome_json()) {
            Ok(()) => println!("spans: {} written to {path}", rec.spans.len()),
            Err(e) => eprintln!("spans: cannot write {path}: {e}"),
        }
    }

    let list = |ms: &[(&str, f64, &str, usize, bool)]| {
        ms.iter()
            .map(|(name, v, unit, n, exact)| {
                format!(
                    "{{\"name\":{},\"value\":{v},\"unit\":{},\"samples\":{n},\"exact\":{exact}}}",
                    json_str(name),
                    json_str(unit)
                )
            })
            .collect::<Vec<_>>()
            .join(",")
    };
    let failures: Vec<String> = ctx.failures.iter().map(|f| json_str(f)).collect();
    let out = format!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"rounds\":{},\"attempted\":{attempted},\"failed\":{failed},\"failures\":[{}],\"metrics\":[{}],\"layer\":[{}]}}",
        json_str(w.name),
        args.seed,
        args.trace,
        rounds.len(),
        failures.join(","),
        list(&metrics),
        list(&layer)
    );
    println!("{out}");
    if failed > 0 {
        std::process::exit(1);
    }
}
