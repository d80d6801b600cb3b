//! Dynamic tracing across the benchmark applications: traced runs must be
//! bit-identical to untraced runs, replay launches must actually happen,
//! and the simulated analysis cost must drop.

use visibility::apps::{
    Circuit, CircuitConfig, Pennant, PennantConfig, Stencil, StencilConfig, Workload,
};
use visibility::prelude::*;
use visibility::runtime::validate::check_sufficiency;

fn run_traced_vs_plain(plain: &dyn Workload, traced: &dyn Workload, engine: EngineKind) {
    let mut rt_p = Runtime::single_node(engine);
    let run_p = plain.execute(&mut rt_p);
    let mut rt_t = Runtime::single_node(engine);
    let run_t = traced.execute(&mut rt_t);

    assert!(
        rt_t.stats().tracing.replayed_launches > 0,
        "{}: nothing replayed",
        plain.name()
    );
    assert!(check_sufficiency(rt_t.forest(), rt_t.launches(), rt_t.dag()).is_empty());

    let store_p = rt_p.execute_values();
    let store_t = rt_t.execute_values();
    for (a, b) in run_p.probes.iter().zip(&run_t.probes) {
        let va: Vec<f64> = store_p.inline(*a).iter().map(|(_, v)| v).collect();
        let vb: Vec<f64> = store_t.inline(*b).iter().map(|(_, v)| v).collect();
        assert_eq!(
            va,
            vb,
            "{} {engine:?}: tracing changed results",
            plain.name()
        );
    }
    // Replay must be cheaper on the simulated machine.
    assert!(
        rt_t.machine().now(0) < rt_p.machine().now(0),
        "{} {engine:?}: tracing did not reduce analysis time",
        plain.name()
    );
}

#[test]
fn stencil_traced_matches_untraced() {
    for engine in [EngineKind::Paint, EngineKind::Warnock, EngineKind::RayCast] {
        let cfg = StencilConfig::small(4, 6, 6);
        let plain = Stencil::new(cfg.clone());
        let traced = Stencil::new(StencilConfig {
            traced: true,
            ..cfg
        });
        run_traced_vs_plain(&plain, &traced, engine);
    }
}

#[test]
fn circuit_traced_matches_untraced() {
    for engine in [EngineKind::Paint, EngineKind::Warnock, EngineKind::RayCast] {
        let cfg = CircuitConfig::small(4, 6);
        let plain = Circuit::new(cfg.clone());
        let traced = Circuit::new(CircuitConfig {
            traced: true,
            ..cfg
        });
        run_traced_vs_plain(&plain, &traced, engine);
    }
}

#[test]
fn pennant_traced_matches_untraced() {
    for engine in [EngineKind::Paint, EngineKind::Warnock, EngineKind::RayCast] {
        let cfg = PennantConfig::small(3, 6);
        let plain = Pennant::new(cfg.clone());
        let traced = Pennant::new(PennantConfig {
            traced: true,
            ..cfg
        });
        run_traced_vs_plain(&plain, &traced, engine);
    }
}
