//! Graph types and synthetic dataset generators for distributed GCN
//! training.
//!
//! The paper evaluates on eleven real-world graphs (its Table 1) spanning
//! four structural families: road networks (near-planar, tiny degrees),
//! social/web graphs (power-law, skewed), citation graphs (preferential
//! attachment), and co-purchasing/co-authorship graphs (overlapping
//! communities). Those datasets are not redistributable here, so
//! [`datasets`] provides deterministic synthetic generators per *family*,
//! scaled to fit a single machine while preserving directedness, average
//! degree, and skew — the properties that drive the partitioning-versus-
//! communication behaviour the paper measures (see DESIGN.md §1).

//! ```
//! use pargcn_graph::{Dataset, Scale};
//!
//! // A 1/256-scale stand-in for roadNet-CA: same family (near-planar,
//! // average degree < 3.6, no skew), deterministic in the seed.
//! let data = Dataset::RoadNetCa.generate(Scale(256), 42);
//! let stats = data.graph.degree_stats();
//! assert!(stats.avg < 3.6 && stats.skew < 3.0);
//! ```

pub mod analysis;
pub mod datasets;
pub mod gen;
pub mod graph;

pub use datasets::{Dataset, GraphData, Scale};
pub use graph::{DegreeStats, Graph, SubgraphScratch};
