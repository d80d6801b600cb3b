//! # visibility
//!
//! A Rust reproduction of *"Visibility Algorithms for Dynamic Dependence
//! Analysis and Distributed Coherence"* (Bauer, Slaughter, Treichler, Lee,
//! Garland, Aiken — PPoPP 2023): an implicitly-parallel, Legion-style task
//! runtime whose dependence analysis and content-based coherence are solved
//! by three visibility algorithms adapted from computer graphics — the
//! painter's algorithm, Warnock's algorithm, and ray casting.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`geometry`] — index spaces, rectangles, set algebra, BVHs;
//! * [`region`] — region trees, partitions, privileges, reduction ops;
//! * [`sim`] — the simulated distributed machine and cost model;
//! * [`runtime`] — the task runtime and the visibility engines;
//! * [`apps`] — the paper's three benchmark applications;
//! * [`profile`] — the structured tracing & metrics recorder
//!   (Chrome-trace / flamegraph / TSV exporters).
//!
//! ## Quickstart
//!
//! ```
//! use visibility::prelude::*;
//!
//! // A runtime with the ray-casting engine (the paper's winner, §8).
//! // `.pipeline(true)` would overlap the dependence analysis with
//! // submission on a driver thread — the results are identical.
//! let mut rt = Runtime::single_node(EngineKind::RayCast);
//!
//! // A collection of 100 elements with one field, split into 4 pieces.
//! let data = rt.forest_mut().create_root_1d("data", 100);
//! let val = rt.forest_mut().add_field(data, "value");
//! let pieces = rt.forest_mut().create_equal_partition_1d(data, "P", 4);
//!
//! // Four tasks write their (disjoint) pieces — these run in parallel.
//! for i in 0..4 {
//!     let piece = rt.forest().subregion(pieces, i);
//!     rt.task("fill")
//!         .write(piece, val)
//!         .body(|rs: &mut [PhysicalRegion]| {
//!             rs[0].update_all(|p, _| p.x as f64 * 2.0);
//!         })
//!         .submit()
//!         .expect("valid launch");
//! }
//!
//! // A read of the whole collection depends on all four writers; the
//! // engine assembles its value from their outputs.
//! let probe = rt.inline_read(data, val).unwrap();
//! assert_eq!(rt.dag().preds(probe).len(), 4);
//!
//! let store = rt.execute_values();
//! assert_eq!(store.inline(probe).get(viz_geometry::Point::p1(42)), 84.0);
//! ```

pub use viz_apps as apps;
pub use viz_array as array;
pub use viz_geometry as geometry;
pub use viz_profile as profile;
pub use viz_region as region;
pub use viz_runtime as runtime;
pub use viz_sim as sim;

/// The commonly-used names, in one import.
pub mod prelude {
    pub use viz_apps::{
        Circuit, CircuitConfig, Pennant, PennantConfig, Stencil, StencilConfig, Workload,
    };
    pub use viz_array::{ArrayProbe, DistArray, Scalar};
    pub use viz_geometry::{IndexSpace, Point, Rect};
    pub use viz_region::{Privilege, RedOpRegistry, RegionForest};
    pub use viz_runtime::{
        EngineKind, LaunchSpec, PhysicalRegion, RegionRequirement, Runtime, RuntimeConfig,
        RuntimeError, TaskHandle, TaskId,
    };
    pub use viz_sim::{CostModel, Machine};
}
