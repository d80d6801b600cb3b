//! Differential property test for the algebra cache's eviction.
//!
//! The algebra cache is pure memoization: a cache of two entries, evicting
//! on nearly every insert, must leave every engine's analysis *identical*
//! to the default-sized cache — the same dependences, the same
//! materialization plans (compared structurally, rect list by rect list),
//! and the same executed values — across serial and sharded drivers and
//! with automatic trace replay on. The capacities are pinned through
//! [`RuntimeConfig::intern`] rather than the environment so both run in
//! one process.

use proptest::prelude::*;
use std::sync::Arc;
use viz_geometry::{IndexSpace, InternConfig, Point, Rect};
use viz_region::{Privilege, RedOpRegistry};
use viz_runtime::plan::AnalysisResult;
use viz_runtime::{
    EngineKind, LaunchSpec, PhysicalRegion, RegionRequirement, Runtime, RuntimeConfig,
};

const N: i64 = 48;
const PIECES: usize = 4;

#[derive(Clone, Debug)]
enum Target {
    Primary(usize),
    Ghost(usize),
    Span(i64, i64),
    Root,
}

#[derive(Clone, Debug)]
struct AbsLaunch {
    target: Target,
    privilege: u8, // 0 = read, 1 = rw, 2 = reduce+, 3 = reduce-min
    salt: u32,
}

fn abs_launch() -> impl Strategy<Value = AbsLaunch> {
    (
        prop_oneof![
            3 => (0..PIECES).prop_map(Target::Primary),
            3 => (0..PIECES).prop_map(Target::Ghost),
            1 => (0..N, 1..N / 3).prop_map(|(lo, len)| Target::Span(lo, (lo + len - 1).min(N - 1))),
            1 => Just(Target::Root),
        ],
        0u8..4,
        0u32..1000,
    )
        .prop_map(|(target, privilege, salt)| AbsLaunch {
            target,
            privilege,
            salt,
        })
}

/// Run one program under one configuration; return the per-launch analysis
/// results (deps + plans, structural) and the final values of the root.
fn run_config(
    engine: EngineKind,
    threads: usize,
    auto_trace: bool,
    intern: InternConfig,
    launches: &[AbsLaunch],
) -> (Vec<AnalysisResult>, Vec<f64>) {
    let mut rt = Runtime::new(
        RuntimeConfig::new(engine)
            .nodes(2)
            .analysis_threads(threads)
            .auto_trace(auto_trace)
            .intern(intern),
    );
    let root = rt.forest_mut().create_root_1d("A", N);
    let field = rt.forest_mut().add_field(root, "v");
    let p = rt.forest_mut().create_equal_partition_1d(root, "P", PIECES);
    let chunk = N / PIECES as i64;
    let ghosts: Vec<IndexSpace> = (0..PIECES as i64)
        .map(|i| {
            let lo = i * chunk;
            let hi = (i + 1) * chunk - 1;
            let mut rects = Vec::new();
            if lo > 0 {
                rects.push(Rect::span(lo - 2, lo - 1));
            }
            if hi < N - 1 {
                rects.push(Rect::span(hi + 1, (hi + 2).min(N - 1)));
            }
            IndexSpace::from_rects(rects)
        })
        .collect();
    let g = rt.forest_mut().create_partition(root, "G", ghosts);
    rt.try_set_initial(root, field, |pt| (pt.x % 17) as f64)
        .unwrap();

    for (i, l) in launches.iter().enumerate() {
        let region = match l.target {
            Target::Primary(k) => rt.forest().subregion(p, k),
            Target::Ghost(k) => rt.forest().subregion(g, k),
            Target::Span(lo, hi) => {
                let space = IndexSpace::span(lo, hi);
                let part = rt.forest_mut().create_partition_with_flags(
                    root,
                    format!("S{i}"),
                    vec![space],
                    true,
                    false,
                );
                rt.forest().subregion(part, 0)
            }
            Target::Root => root,
        };
        let salt = l.salt as f64 + i as f64;
        let (privilege, body): (Privilege, viz_runtime::TaskBody) = match l.privilege {
            0 => (Privilege::Read, Arc::new(|_: &mut [PhysicalRegion]| {})),
            1 => (
                Privilege::ReadWrite,
                Arc::new(move |rs: &mut [PhysicalRegion]| {
                    rs[0].update_all(|pt, v| ((v * 3.0 + salt + pt.x as f64) as i64 % 257) as f64);
                }),
            ),
            2 => (
                Privilege::Reduce(RedOpRegistry::SUM),
                Arc::new(move |rs: &mut [PhysicalRegion]| {
                    let dom = rs[0].domain().clone();
                    for pt in dom.points() {
                        rs[0].reduce(pt, ((salt as i64 + pt.x) % 13) as f64);
                    }
                }),
            ),
            _ => (
                Privilege::Reduce(RedOpRegistry::MIN),
                Arc::new(move |rs: &mut [PhysicalRegion]| {
                    let dom = rs[0].domain().clone();
                    for pt in dom.points() {
                        rs[0].reduce(pt, ((salt as i64 * 7 + pt.x) % 300) as f64);
                    }
                }),
            ),
        };
        rt.submit(LaunchSpec::new(
            format!("t{i}"),
            i % 2,
            vec![RegionRequirement::new(region, field, privilege)],
            100,
            Some(body),
        ))
        .unwrap()
        .id();
    }

    let probe = rt.inline_read(root, field).unwrap();
    let results = rt.results();
    let store = rt.execute_values();
    let vals: Vec<f64> = (0..N)
        .map(|x| store.inline(probe).get(Point::p1(x)))
        .collect();
    (results, vals)
}

/// A cache this small evicts on nearly every insert.
const TINY: InternConfig = InternConfig { cache_cap: 2 };

fn assert_eviction_invisible(launches: &[AbsLaunch], configs: &[(usize, bool)]) {
    for engine in EngineKind::all() {
        for &(threads, auto_trace) in configs {
            let (res_tiny, vals_tiny) = run_config(engine, threads, auto_trace, TINY, launches);
            let (res_ref, vals_ref) = run_config(
                engine,
                threads,
                auto_trace,
                InternConfig::default(),
                launches,
            );
            assert_eq!(
                res_tiny, res_ref,
                "{engine:?} threads={threads} auto_trace={auto_trace}: \
                 cap=2 eviction changed deps/plans"
            );
            assert_eq!(
                vals_tiny, vals_ref,
                "{engine:?} threads={threads} auto_trace={auto_trace}: \
                 cap=2 eviction changed executed values"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random programs: cap 2 ≡ the default cache for every engine, serial
    /// and sharded drivers.
    #[test]
    fn eviction_is_invisible_to_analysis(
        launches in prop::collection::vec(abs_launch(), 1..14)
    ) {
        assert_eviction_invisible(&launches, &[(1, false), (4, false)]);
    }
}

/// A long alternating Fig 1-style loop: the deterministic heavy case,
/// covering auto-trace replay (the trace templates must also be
/// byte-identical).
#[test]
fn paper_loop_eviction_invisible_with_auto_trace() {
    let mut launches = Vec::new();
    for iter in 0..6u32 {
        for k in 0..PIECES {
            launches.push(AbsLaunch {
                target: Target::Primary(k),
                privilege: 1,
                salt: iter * 10,
            });
        }
        for k in 0..PIECES {
            launches.push(AbsLaunch {
                target: Target::Ghost(k),
                privilege: 2,
                salt: iter * 10 + 5,
            });
        }
    }
    assert_eviction_invisible(&launches, &[(1, true), (4, true)]);
}
