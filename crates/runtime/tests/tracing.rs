//! Dynamic tracing (\[15\]) tests: replayed iterations must be functionally
//! identical to analyzed ones, engine work must actually disappear during
//! replay, and trace violations must be caught.

use std::sync::Arc;
use viz_region::RedOpRegistry;
use viz_runtime::validate::check_sufficiency;
use viz_runtime::{
    EngineKind, LaunchSpec, PhysicalRegion, RegionRequirement, Runtime, RuntimeConfig, TraceId,
    ViolationKind,
};

struct Loop {
    rt: Runtime,
    p: viz_region::PartitionId,
    g: viz_region::PartitionId,
    f: viz_region::FieldId,
    root: viz_region::RegionId,
}

fn setup(engine: EngineKind) -> Loop {
    // Pin auto-tracing off regardless of `VIZ_AUTO_TRACE`: these tests
    // assert exact replay counts for *annotated* traces against untraced
    // control runs (the auto/manual interplay is tested in
    // `autotracing.rs`).
    let mut rt = Runtime::new(RuntimeConfig::new(engine).auto_trace(false));
    let root = rt.forest_mut().create_root_1d("A", 40);
    let f = rt.forest_mut().add_field(root, "v");
    let p = rt.forest_mut().create_equal_partition_1d(root, "P", 4);
    let g = rt.forest_mut().create_partition(
        root,
        "G",
        (0..4)
            .map(|i| {
                let lo = (i * 10 - 2).max(0);
                let hi = (i * 10 + 11).min(39);
                viz_geometry::IndexSpace::span(lo, hi)
                    .subtract(&viz_geometry::IndexSpace::span(i * 10, i * 10 + 9))
            })
            .collect(),
    );
    rt.try_set_initial(root, f, |pt| pt.x as f64).unwrap();
    Loop { rt, p, g, f, root }
}

/// One loop iteration: piece writes then ghost reductions.
fn iteration(l: &mut Loop) {
    for i in 0..4 {
        let piece = l.rt.forest().subregion(l.p, i);
        l.rt.submit(LaunchSpec::new(
            "w",
            0,
            vec![RegionRequirement::read_write(piece, l.f)],
            1_000,
            Some(Arc::new(|rs: &mut [PhysicalRegion]| {
                rs[0].update_all(|_, v| v + 1.0);
            })),
        ))
        .unwrap()
        .id();
    }
    for i in 0..4 {
        let ghost = l.rt.forest().subregion(l.g, i);
        l.rt.submit(LaunchSpec::new(
            "r",
            0,
            vec![RegionRequirement::reduce(ghost, l.f, RedOpRegistry::SUM)],
            1_000,
            Some(Arc::new(|rs: &mut [PhysicalRegion]| {
                let dom = rs[0].domain().clone();
                for pt in dom.points() {
                    rs[0].reduce(pt, 2.0);
                }
            })),
        ))
        .unwrap()
        .id();
    }
}

fn run_loop(engine: EngineKind, iters: usize, traced: bool) -> (Vec<f64>, u64, usize) {
    let mut l = setup(engine);
    for _ in 0..iters {
        if traced {
            l.rt.try_begin_trace(1).unwrap();
        }
        iteration(&mut l);
        if traced {
            l.rt.try_end_trace(1).unwrap();
        }
    }
    let probe = l.rt.inline_read(l.root, l.f).unwrap();
    let violations = check_sufficiency(l.rt.forest(), l.rt.launches(), l.rt.dag());
    assert!(
        violations.is_empty(),
        "{engine:?} traced={traced}: {violations:?}"
    );
    let replayed = l.rt.stats().tracing.replayed_launches;
    let edges = l.rt.dag().edge_count();
    let store = l.rt.execute_values();
    let vals = store.inline(probe).iter().map(|(_, v)| v).collect();
    (vals, replayed, edges)
}

#[test]
fn traced_loop_matches_untraced_loop() {
    for engine in [EngineKind::Paint, EngineKind::Warnock, EngineKind::RayCast] {
        let (plain, replayed0, edges0) = run_loop(engine, 6, false);
        let (traced, replayed1, edges1) = run_loop(engine, 6, true);
        assert_eq!(plain, traced, "{engine:?}: replay changed results");
        assert_eq!(replayed0, 0);
        // Instances 3..6 replayed: 4 instances × 8 launches.
        assert_eq!(replayed1, 32, "{engine:?}");
        assert_eq!(edges0, edges1, "{engine:?}: replay changed the DAG");
    }
}

#[test]
fn replay_skips_the_visibility_engine() {
    let mut l = setup(EngineKind::RayCast);
    // Warm-up + capture.
    for _ in 0..2 {
        l.rt.try_begin_trace(1).unwrap();
        iteration(&mut l);
        l.rt.try_end_trace(1).unwrap();
    }
    let before = l.rt.machine().counters().clone();
    l.rt.try_begin_trace(1).unwrap();
    assert!(l.rt.is_replaying(), "third instance must replay");
    iteration(&mut l);
    l.rt.try_end_trace(1).unwrap();
    let after = l.rt.machine().counters().clone();
    assert_eq!(after.geom_ops, before.geom_ops, "no geometry during replay");
    assert_eq!(
        after.eqsets_touched, before.eqsets_touched,
        "no equivalence-set work during replay"
    );
    assert_eq!(after.launches, before.launches, "no LaunchOverhead charges");
    assert_eq!(l.rt.stats().tracing.replayed_launches, 8);
}

#[test]
fn interleaved_launches_invalidate_the_template() {
    let mut l = setup(EngineKind::RayCast);
    for _ in 0..3 {
        l.rt.try_begin_trace(1).unwrap();
        iteration(&mut l);
        l.rt.try_end_trace(1).unwrap();
    }
    assert_eq!(l.rt.stats().tracing.replayed_launches, 8);
    // An untraced launch between instances: the template must be dropped
    // and re-captured, not replayed over changed state.
    let root = l.rt.forest().roots()[0];
    l.rt.submit(LaunchSpec::new(
        "intruder",
        0,
        vec![RegionRequirement::read_write(root, l.f)],
        0,
        Some(Arc::new(|rs: &mut [PhysicalRegion]| {
            rs[0].update_all(|_, v| v * 2.0);
        })),
    ))
    .unwrap()
    .id();
    let replayed_before = l.rt.stats().tracing.replayed_launches;
    for _ in 0..3 {
        l.rt.try_begin_trace(1).unwrap();
        iteration(&mut l);
        l.rt.try_end_trace(1).unwrap();
    }
    // Re-capture costs two instances; only the third replays.
    assert_eq!(l.rt.stats().tracing.replayed_launches, replayed_before + 8);
    let probe = l.rt.inline_read(l.root, l.f).unwrap();
    assert!(check_sufficiency(l.rt.forest(), l.rt.launches(), l.rt.dag()).is_empty());
    let store = l.rt.execute_values();
    // Cross-check against an untraced run of the same program.
    let mut l2 = setup(EngineKind::RayCast);
    for _ in 0..3 {
        iteration(&mut l2);
    }
    let root2 = l2.rt.forest().roots()[0];
    l2.rt
        .submit(LaunchSpec::new(
            "intruder",
            0,
            vec![RegionRequirement::read_write(root2, l2.f)],
            0,
            Some(Arc::new(|rs: &mut [PhysicalRegion]| {
                rs[0].update_all(|_, v| v * 2.0);
            })),
        ))
        .unwrap()
        .id();
    for _ in 0..3 {
        iteration(&mut l2);
    }
    let probe2 = l2.rt.inline_read(l2.root, l2.f).unwrap();
    let store2 = l2.rt.execute_values();
    let a: Vec<f64> = store.inline(probe).iter().map(|(_, v)| v).collect();
    let b: Vec<f64> = store2.inline(probe2).iter().map(|(_, v)| v).collect();
    assert_eq!(a, b);
}

/// A divergent launch during replay demotes the trace (structured
/// [`TraceViolation`], no panic), the offending launch falls through to
/// normal analysis, and the trace recaptures on later clean instances.
#[test]
fn trace_violation_demotes_and_recaptures() {
    let divergent = |l: &mut Loop| {
        // First launch diverges: read instead of read-write on piece 0.
        let piece = l.rt.forest().subregion(l.p, 0);
        l.rt.submit(LaunchSpec::new(
            "w",
            0,
            vec![RegionRequirement::read(piece, l.f)],
            1_000,
            None,
        ))
        .unwrap()
        .id();
        for i in 1..4 {
            let piece = l.rt.forest().subregion(l.p, i);
            l.rt.submit(LaunchSpec::new(
                "w",
                0,
                vec![RegionRequirement::read_write(piece, l.f)],
                1_000,
                Some(Arc::new(|rs: &mut [PhysicalRegion]| {
                    rs[0].update_all(|_, v| v + 1.0);
                })),
            ))
            .unwrap()
            .id();
        }
        for i in 0..4 {
            let ghost = l.rt.forest().subregion(l.g, i);
            l.rt.submit(LaunchSpec::new(
                "r",
                0,
                vec![RegionRequirement::reduce(ghost, l.f, RedOpRegistry::SUM)],
                1_000,
                Some(Arc::new(|rs: &mut [PhysicalRegion]| {
                    let dom = rs[0].domain().clone();
                    for pt in dom.points() {
                        rs[0].reduce(pt, 2.0);
                    }
                })),
            ))
            .unwrap()
            .id();
        }
    };

    let mut l = setup(EngineKind::RayCast);
    for _ in 0..2 {
        l.rt.try_begin_trace(1).unwrap();
        iteration(&mut l);
        l.rt.try_end_trace(1).unwrap();
    }
    // Third instance would replay, but diverges at its first launch.
    l.rt.try_begin_trace(1).unwrap();
    divergent(&mut l);
    l.rt.try_end_trace(1).unwrap();
    {
        let violations = l.rt.trace_violations();
        assert_eq!(violations.len(), 1, "one structured violation recorded");
        let v = &violations[0];
        assert_eq!(v.id, TraceId(1));
        assert_eq!(v.cursor, 0, "diverged at the first launch of the instance");
        assert!(
            matches!(v.kind, ViolationKind::RequirementMismatch { index: 0 }),
            "privilege mismatch on requirement 0, got {:?}",
            v.kind
        );
    }
    let replayed_before = l.rt.stats().tracing.replayed_launches;

    // The demoted trace recaptures: warm-up + capture + replay.
    for _ in 0..3 {
        l.rt.try_begin_trace(1).unwrap();
        iteration(&mut l);
        l.rt.try_end_trace(1).unwrap();
    }
    assert_eq!(
        l.rt.stats().tracing.replayed_launches,
        replayed_before + 8,
        "third clean instance after demotion replays again"
    );
    assert!(check_sufficiency(l.rt.forest(), l.rt.launches(), l.rt.dag()).is_empty());
    let probe = l.rt.inline_read(l.root, l.f).unwrap();
    let store = l.rt.execute_values();

    // Cross-check values against the identical untraced program.
    let mut l2 = setup(EngineKind::RayCast);
    for _ in 0..2 {
        iteration(&mut l2);
    }
    divergent(&mut l2);
    for _ in 0..3 {
        iteration(&mut l2);
    }
    let probe2 = l2.rt.inline_read(l2.root, l2.f).unwrap();
    let store2 = l2.rt.execute_values();
    let a: Vec<f64> = store.inline(probe).iter().map(|(_, v)| v).collect();
    let b: Vec<f64> = store2.inline(probe2).iter().map(|(_, v)| v).collect();
    assert_eq!(a, b, "post-violation execution diverged from untraced run");
}

/// A replay instance that ends short of the recorded length is a
/// violation: reported, demoted, recaptured — never silently wrong.
#[test]
fn short_replay_instance_is_a_violation() {
    let mut l = setup(EngineKind::RayCast);
    for _ in 0..2 {
        l.rt.try_begin_trace(1).unwrap();
        iteration(&mut l);
        l.rt.try_end_trace(1).unwrap();
    }
    // Third instance replays but stops after the 4 writes (no reductions).
    l.rt.try_begin_trace(1).unwrap();
    for i in 0..4 {
        let piece = l.rt.forest().subregion(l.p, i);
        l.rt.submit(LaunchSpec::new(
            "w",
            0,
            vec![RegionRequirement::read_write(piece, l.f)],
            1_000,
            Some(Arc::new(|rs: &mut [PhysicalRegion]| {
                rs[0].update_all(|_, v| v + 1.0);
            })),
        ))
        .unwrap()
        .id();
    }
    let v =
        l.rt.try_end_trace(1)
            .unwrap()
            .expect("short instance must be reported");
    assert_eq!(v.cursor, 4);
    assert!(matches!(
        v.kind,
        ViolationKind::ShortInstance { recorded_len: 8 }
    ));
    // The runtime keeps going; dependences stay sufficient.
    iteration(&mut l);
    assert!(check_sufficiency(l.rt.forest(), l.rt.launches(), l.rt.dag()).is_empty());
}

/// A divergence *mid*-replay leaves the engine's frozen state pointing at
/// the unreplayed suffix of the recorded instance — whose entries
/// superseded the replayed prefix's writes. The post-demotion analysis
/// must still order the divergent launch after the prefix, not just after
/// the previous instance (found by the viz-oracle fuzzer).
#[test]
fn mid_replay_divergence_orders_after_replayed_prefix() {
    let mut l = setup(EngineKind::RayCast);
    let piece0 = l.rt.forest().subregion(l.p, 0);
    let piece1 = l.rt.forest().subregion(l.p, 1);
    let w = |l: &mut Loop, region| {
        l.rt.submit(LaunchSpec::new(
            "w",
            0,
            vec![RegionRequirement::read_write(region, l.f)],
            1_000,
            Some(Arc::new(|rs: &mut [PhysicalRegion]| {
                rs[0].update_all(|_, v| v + 1.0);
            })),
        ))
        .unwrap()
        .id()
    };
    // Template [RW p0, RW p0, RW p1]: warm-up (tasks 0-2), capture (3-5).
    for _ in 0..2 {
        l.rt.try_begin_trace(1).unwrap();
        w(&mut l, piece0);
        w(&mut l, piece0);
        w(&mut l, piece1);
        l.rt.try_end_trace(1).unwrap();
    }
    // Third instance: the first RW p0 replays (task 6), then a *read* of
    // p0 diverges from the recorded RW at cursor 1.
    l.rt.try_begin_trace(1).unwrap();
    let prefix = w(&mut l, piece0);
    let divergent =
        l.rt.submit(LaunchSpec::new(
            "probe",
            0,
            vec![RegionRequirement::read(piece0, l.f)],
            1_000,
            None,
        ))
        .unwrap()
        .id();
    l.rt.try_end_trace(1).unwrap();
    let violations = l.rt.trace_violations();
    assert_eq!(violations.len(), 1);
    assert_eq!(
        violations[0].cursor, 1,
        "diverged after one replayed launch"
    );
    // The frozen engine state's last writer of p0 is capture task 4, which
    // superseded task 3 — the launch the prefix replayed as task 6. A dep
    // on 4 alone would let the probe race the prefix's write.
    let dag = l.rt.dag();
    assert!(
        dag.must_follow(divergent, prefix),
        "divergent launch must order after the replayed prefix write: deps {:?}",
        dag.preds(divergent)
    );
    drop(dag);
    assert!(check_sufficiency(l.rt.forest(), l.rt.launches(), l.rt.dag()).is_empty());
}

/// The rebase interval map must stay O(active traces), not O(instances):
/// each completed replay supersedes the previous instance's interval.
#[test]
fn rebase_map_stays_bounded_across_many_replays() {
    let mut l = setup(EngineKind::RayCast);
    for _ in 0..50 {
        l.rt.try_begin_trace(1).unwrap();
        iteration(&mut l);
        l.rt.try_end_trace(1).unwrap();
    }
    assert_eq!(l.rt.stats().tracing.replayed_launches, 48 * 8);
    let rebase_ranges = l.rt.stats().tracing.rebase_ranges;
    assert!(
        rebase_ranges <= 2,
        "rebase map grew with instance count: {rebase_ranges} ranges"
    );
    assert!(check_sufficiency(l.rt.forest(), l.rt.launches(), l.rt.dag()).is_empty());
}

#[test]
fn replay_is_cheaper_in_simulated_time() {
    let measure = |traced: bool| -> u64 {
        let mut l = setup(EngineKind::RayCast);
        for _ in 0..8 {
            if traced {
                l.rt.try_begin_trace(1).unwrap();
            }
            iteration(&mut l);
            if traced {
                l.rt.try_end_trace(1).unwrap();
            }
        }
        let now = l.rt.machine().now(0);
        now
    };
    let plain = measure(false);
    let traced = measure(true);
    assert!(
        traced < plain,
        "tracing must reduce analysis time: {traced} vs {plain}"
    );
}

/// Regression: an annotated trace whose instance never *overwrites* what it
/// reads is not self-superseding — each iteration leaves a live read epoch
/// behind, and a later interfering launch needs a dependence on **every**
/// instance's read, which the shift-rebase cannot synthesize (it can only
/// point at the latest replay). The runtime must decline to replay such a
/// trace and keep analyzing each instance. Found by the viz-oracle fuzzer
/// (trace-repeats mode): a reduce after the loop ordered against the last
/// instance's read only, leaving the captured instance's read unordered.
#[test]
fn read_only_trace_declines_replay_and_keeps_all_read_epochs() {
    let mut rt = Runtime::new(RuntimeConfig::new(EngineKind::RayCast).auto_trace(false));
    let root = rt.forest_mut().create_root_1d("A", 40);
    let f = rt.forest_mut().add_field(root, "v");
    let p = rt.forest_mut().create_equal_partition_1d(root, "P", 4);
    let watched = rt.forest().subregion(p, 1);
    let other = rt.forest().subregion(p, 2);
    let mut reads = Vec::new();
    for _ in 0..4 {
        rt.try_begin_trace(9).unwrap();
        reads.push(
            rt.submit(LaunchSpec::new(
                "r",
                0,
                vec![RegionRequirement::read(watched, f)],
                1_000,
                None,
            ))
            .unwrap()
            .id(),
        );
        rt.submit(LaunchSpec::new(
            "acc",
            0,
            vec![RegionRequirement::reduce(other, f, RedOpRegistry::SUM)],
            1_000,
            None,
        ))
        .unwrap();
        rt.try_end_trace(9).unwrap();
    }
    let reducer = rt
        .submit(LaunchSpec::new(
            "mix",
            0,
            vec![RegionRequirement::reduce(watched, f, RedOpRegistry::MAX)],
            1_000,
            None,
        ))
        .unwrap()
        .id();
    rt.flush();
    assert_eq!(
        rt.stats().tracing.replayed_launches,
        0,
        "a non-self-superseding instance must not be replayed"
    );
    let dag = rt.dag();
    let deps = dag.preds(reducer);
    for r in &reads {
        assert!(
            deps.contains(r),
            "reduce must order after every instance's read: deps {deps:?}, missing {r:?}"
        );
    }
    assert!(check_sufficiency(rt.forest(), rt.launches(), rt.dag()).is_empty());
}
