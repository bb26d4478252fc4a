//! # isomit-detectors — the detector registry
//!
//! Every rumor-source estimator the workspace ships, behind the one
//! detector trait, [`InitiatorDetector`] from `isomit-core`, and
//! selectable by [`DetectorKind`], so the serving engine, the CLI and
//! the bench harness can treat "which detector" as data instead of
//! code. [`build`] returns a `Box<dyn InitiatorDetector>` for any kind:
//!
//! * **RID** (`isomit_core::Rid`) — the paper's full framework.
//! * **RID-Tree** / **RID-Positive** (`isomit_core::RidTree`,
//!   `isomit_core::RidPositive`) — the paper's §IV-B1 baselines.
//! * **Rumor centrality** ([`RumorCentralityDetector`]) — the
//!   message-passing BFS-tree estimator of Shah & Zaman, "Rumors in a
//!   Network: Who's the Culprit?" (arXiv:0909.4370, IEEE Trans. IT
//!   2011): per infected component, score every node by the log count
//!   of infection orderings it could have initiated on a BFS spanning
//!   tree.
//! * **Jordan center** ([`JordanCenter`]) — the distance-center
//!   estimator family surveyed by Jin & Wu, "Schemes of Propagation
//!   Models and Source Estimators for Rumor Source Detection in Online
//!   Social Networks" (arXiv:2101.00753): per infected component, pick
//!   the node minimizing eccentricity over the undirected infected
//!   subgraph.
//!
//! The RID family commits to a set, so its
//! [`detect_ranked`](InitiatorDetector::detect_ranked) is the trait's
//! default (the detected set at score `0.0`). The two centrality
//! estimators rank every node of the snapshot: they override
//! `detect_ranked` and derive `detect` from it.
//!
//! All detectors are deterministic (no RNG, ordered collections only).
//! The centrality estimators time themselves into the process-global
//! telemetry registry like the RID stages do. Only construction can
//! fail: [`build`] returns the `RidError` of an invalid RID-family
//! configuration.
//!
//! # Examples
//!
//! Run two estimators on a 5-path infected end-to-end — rumor
//! centrality and Jordan center both recover the path's center:
//!
//! ```
//! use isomit_detectors::{build, DetectorKind};
//! use isomit_core::RidConfig;
//! use isomit_diffusion::InfectedNetwork;
//! use isomit_graph::{Edge, NodeId, NodeState, Sign, SignedDigraph};
//!
//! let g = SignedDigraph::from_edges(
//!     5,
//!     (0..4).map(|i| Edge::new(NodeId(i), NodeId(i + 1), Sign::Positive, 0.5)),
//! )
//! .unwrap();
//! let snapshot = InfectedNetwork::from_parts(g, vec![NodeState::Positive; 5]);
//!
//! let config = RidConfig::default();
//! for kind in [DetectorKind::RumorCentrality, DetectorKind::JordanCenter] {
//!     let detector = build(kind, &config).unwrap();
//!     let found = detector.detect_ranked(&snapshot);
//!     assert_eq!(found.detection.nodes(), vec![NodeId(2)]);
//!     assert_eq!(found.rank_of(NodeId(2)), Some(1));
//!     assert_eq!(found.ranked.len(), 5);
//! }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod error;
mod jordan;
mod kind;
mod rumor;

pub use error::DetectorError;
pub use jordan::JordanCenter;
pub use kind::{build, DetectorKind};
pub use rumor::RumorCentralityDetector;

// Re-exported so downstream callers can name the trait and its
// input/output types without an extra direct dependency.
pub use isomit_core::{Detection, InitiatorDetector, RankedSource, SourceDetection};
pub use isomit_diffusion::InfectedNetwork;

use isomit_core::DetectedInitiator;
use isomit_forest::weakly_connected_components;
use isomit_graph::{NodeId, SignedDigraph};

/// Score-style detection shared by rumor centrality and the Jordan
/// center: one point-estimate source per infected weakly-connected
/// component, every node of the snapshot ranked.
///
/// `score` rates the nodes of one component (in component order,
/// higher is better); `best` picks the component's source from the
/// component and those scores. The ranked list is descending by score,
/// ascending by node id on ties.
pub(crate) fn rank_per_component(
    snapshot: &InfectedNetwork,
    score: impl Fn(&SignedDigraph, &[NodeId]) -> Vec<f64>,
    best: impl Fn(&[NodeId], &[f64]) -> NodeId,
) -> SourceDetection {
    let graph = snapshot.graph();
    let original = |sub_id: NodeId| {
        snapshot
            .mapping()
            .to_original(sub_id)
            .expect("snapshot id maps to original network")
    };
    let components = weakly_connected_components(graph);
    let mut initiators = Vec::with_capacity(components.len());
    let mut ranked = Vec::with_capacity(graph.node_count());
    for component in &components {
        let scores = score(graph, component);
        let source = best(component, &scores);
        initiators.push(DetectedInitiator {
            node: original(source),
            state: snapshot.state(source),
        });
        for (&sub_id, &score) in component.iter().zip(&scores) {
            ranked.push(RankedSource {
                node: original(sub_id),
                state: snapshot.state(sub_id),
                score,
            });
        }
    }
    ranked.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| a.node.cmp(&b.node))
    });
    initiators.sort_by_key(|d| d.node);
    SourceDetection {
        detection: Detection {
            initiators,
            component_count: components.len(),
            tree_count: components.len(),
            objective: 0.0,
        },
        ranked,
    }
}
