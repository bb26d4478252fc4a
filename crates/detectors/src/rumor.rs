//! Rumor centrality as a ranked [`InitiatorDetector`].
//!
//! Shah & Zaman, "Rumors in a Network: Who's the Culprit?"
//! (arXiv:0909.4370, IEEE Trans. IT 2011) — the classic unsigned
//! single-source estimator the paper's related work (§V) contrasts RID
//! against. For a tree rooted at `v`, `R(v) = n! / Π_u T_u^v` counts
//! the infection orderings `v` could have initiated, where `T_u^v` is
//! the size of the subtree rooted at `u` when the tree hangs from `v`.
//! On general graphs the standard heuristic applies the tree formula to
//! a BFS spanning tree of each infected component.

use crate::rank_per_component;
use isomit_core::{Detection, InitiatorDetector, SourceDetection};
use isomit_diffusion::InfectedNetwork;
use isomit_graph::{NodeId, SignedDigraph};
use isomit_telemetry::{names, Histogram};
use std::collections::{BTreeMap, VecDeque};
use std::sync::OnceLock;

/// Cached handle into the process-global telemetry registry; looked up
/// once so the hot path pays one pointer load, not a map lookup.
fn rumor_histogram() -> &'static Histogram {
    static HIST: OnceLock<Histogram> = OnceLock::new();
    HIST.get_or_init(|| isomit_telemetry::global().histogram(names::DETECTOR_RUMOR_CENTRALITY_NS))
}

/// Log-space rumor centralities of every node of a tree, given as a
/// parent-pointer array over `0..n` whose first `usize::MAX` entry
/// marks the root.
///
/// Returns `log R(v)` for every `v`, computed in one two-pass
/// message-passing sweep (log-space, so factorials never overflow);
/// differences between entries are meaningful, the absolute scale is
/// `log n!`-shifted.
///
/// # Panics
///
/// Panics if the parent array is empty or does not describe a tree.
fn tree_rumor_centralities(parent: &[usize]) -> Vec<f64> {
    let n = parent.len();
    let root = parent
        .iter()
        .position(|&p| p == usize::MAX)
        .expect("tree must have a root");

    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (v, &p) in parent.iter().enumerate() {
        if v != root {
            children.get_mut(p).expect("parent out of bounds").push(v);
        }
    }
    let children_of = |v: usize| {
        children
            .get(v)
            .expect("tree nodes are below the parent array length")
    };

    // Post-order (iterative), so children precede their parent.
    let mut order = Vec::with_capacity(n);
    let mut stack = vec![(root, false)];
    while let Some((v, expanded)) = stack.pop() {
        if expanded {
            order.push(v);
        } else {
            stack.push((v, true));
            stack.extend(children_of(v).iter().map(|&c| (c, false)));
        }
    }
    assert_eq!(order.len(), n, "parent pointers do not form one tree");
    let mut size = vec![1usize; n];
    for &v in &order {
        let below: usize = children_of(v)
            .iter()
            .map(|&c| size.get(c).expect("tree nodes are below n"))
            .sum();
        *size.get_mut(v).expect("tree nodes are below n") += below;
    }
    let size_of = |v: usize| *size.get(v).expect("tree nodes are below n");

    // log R(root) = log n! - sum_u log T_u (with T_root = n).
    let log_fact: f64 = (2..=n).map(|i| (i as f64).ln()).sum();
    let mut log_r = vec![0.0f64; n];
    *log_r.get_mut(root).expect("root is below n") =
        log_fact - size.iter().map(|&s| (s as f64).ln()).sum::<f64>();

    // Rerooting: R(c) = R(parent) * T_c / (n - T_c).
    let mut queue = VecDeque::from([root]);
    while let Some(v) = queue.pop_front() {
        let log_r_v = *log_r.get(v).expect("tree nodes are below n");
        for &c in children_of(v) {
            let t_c = size_of(c);
            *log_r.get_mut(c).expect("tree nodes are below n") =
                log_r_v + (t_c as f64).ln() - ((n - t_c) as f64).ln();
            queue.push_back(c);
        }
    }
    log_r
}

/// BFS spanning tree (undirected view) of the subgraph induced by
/// `component`, as parent pointers over component-local indices,
/// rooted at the component's first node.
fn bfs_spanning_tree(graph: &SignedDigraph, component: &[NodeId]) -> Vec<usize> {
    let local_of: BTreeMap<NodeId, usize> =
        component.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let mut parent = vec![usize::MAX; component.len()];
    let mut visited = vec![false; component.len()];
    if let Some(first) = visited.first_mut() {
        *first = true;
    }
    let mut queue = VecDeque::from([0usize]);
    while let Some(u) = queue.pop_front() {
        let u_id = *component
            .get(u)
            .expect("queue holds component-local indices");
        for &v_id in graph
            .out_neighbors(u_id)
            .iter()
            .chain(graph.in_neighbors(u_id))
        {
            if let Some(&v) = local_of.get(&v_id) {
                let seen = visited
                    .get_mut(v)
                    .expect("local ids are below component length");
                if !*seen {
                    *seen = true;
                    *parent
                        .get_mut(v)
                        .expect("local ids are below component length") = u;
                    queue.push_back(v);
                }
            }
        }
    }
    parent
}

/// The rumor-centrality estimator: one point-estimate source per
/// infected weakly-connected component (the estimator is inherently
/// single-source; the last node of maximum centrality in component
/// order on ties), every node ranked by its log rumor centrality on a
/// BFS spanning tree.
///
/// Signs, states, link directions and weights are ignored — which is
/// precisely why it struggles on signed multi-initiator snapshots.
/// Scores are log-space and per-component scaled — comparable within a
/// component, not across components — but the global rank order is
/// still deterministic (descending score, ascending node id on ties).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RumorCentralityDetector {
    _private: (),
}

impl RumorCentralityDetector {
    /// Creates the parameter-free detector.
    pub fn new() -> Self {
        Self::default()
    }
}

impl InitiatorDetector for RumorCentralityDetector {
    fn name(&self) -> String {
        "Rumor-Centrality".to_string()
    }

    fn detect(&self, snapshot: &InfectedNetwork) -> Detection {
        self.detect_ranked(snapshot).detection
    }

    fn detect_ranked(&self, snapshot: &InfectedNetwork) -> SourceDetection {
        let _span = rumor_histogram().span();
        rank_per_component(
            snapshot,
            |graph, component| tree_rumor_centralities(&bfs_spanning_tree(graph, component)),
            |component, log_r| {
                let (&source, _) = component
                    .iter()
                    .zip(log_r)
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .expect("non-empty component");
                source
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isomit_graph::{Edge, NodeState, Sign};

    fn chain_parents(n: usize) -> Vec<usize> {
        // Path 0 - 1 - ... - n-1 rooted at 0.
        (0..n)
            .map(|v| if v == 0 { usize::MAX } else { v - 1 })
            .collect()
    }

    #[test]
    fn path_center_has_max_centrality() {
        let log_r = tree_rumor_centralities(&chain_parents(5));
        let best = (0..5)
            .max_by(|&a, &b| log_r[a].total_cmp(&log_r[b]))
            .unwrap();
        assert_eq!(best, 2, "centre of a 5-path");
        // Symmetry: ends tie, next-to-ends tie.
        assert!((log_r[0] - log_r[4]).abs() < 1e-9);
        assert!((log_r[1] - log_r[3]).abs() < 1e-9);
    }

    #[test]
    fn star_hub_has_max_centrality() {
        // Star rooted at the hub 0 with 4 leaves.
        let log_r = tree_rumor_centralities(&[usize::MAX, 0, 0, 0, 0]);
        for leaf in 1..5 {
            assert!(log_r[0] > log_r[leaf], "hub must beat leaf {leaf}");
        }
    }

    #[test]
    fn centrality_counts_orderings_exactly_on_tiny_tree() {
        // Path of 3: R(center) = 3!/(3·1·1) = 2, R(end) = 3!/(3·2·1) = 1.
        let log_r = tree_rumor_centralities(&chain_parents(3));
        assert!((log_r[1] - 2.0f64.ln()).abs() < 1e-12);
        assert!((log_r[0] - 0.0).abs() < 1e-12);
    }

    #[test]
    fn single_node_tree() {
        assert_eq!(tree_rumor_centralities(&[usize::MAX]), vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "tree must have a root")]
    fn cyclic_parents_panic() {
        tree_rumor_centralities(&[1, 0]);
    }

    fn snapshot(edges: &[(u32, u32)], n: usize) -> InfectedNetwork {
        let g = SignedDigraph::from_edges(
            n,
            edges
                .iter()
                .map(|&(a, b)| Edge::new(NodeId(a), NodeId(b), Sign::Positive, 0.5)),
        )
        .unwrap();
        InfectedNetwork::from_parts(g, vec![NodeState::Positive; n])
    }

    #[test]
    fn path_center_ranks_first_and_all_nodes_are_ranked() {
        let s = snapshot(&[(0, 1), (1, 2), (2, 3), (3, 4)], 5);
        let found = RumorCentralityDetector::new().detect_ranked(&s);
        assert_eq!(found.detection.nodes(), vec![NodeId(2)]);
        assert_eq!(found.rank_of(NodeId(2)), Some(1));
        assert_eq!(found.ranked.len(), 5);
        // Symmetric path: ends score lowest.
        assert!(found.rank_of(NodeId(0)) > Some(2));
        assert!(found.rank_of(NodeId(4)) > Some(2));
    }

    #[test]
    fn one_source_per_component_ties_going_to_the_last_node() {
        // Two 2-node components: both nodes of each tie at R = 1, and
        // the point estimate keeps the last maximum in component order.
        let d = RumorCentralityDetector::new().detect(&snapshot(&[(0, 1), (2, 3)], 4));
        assert_eq!(d.nodes(), vec![NodeId(1), NodeId(3)]);
        assert_eq!(d.component_count, 2);
        assert_eq!(d.tree_count, 2);
    }

    #[test]
    fn direction_is_ignored() {
        // Same undirected path regardless of edge orientations.
        let d = RumorCentralityDetector::new();
        let a = d.detect(&snapshot(&[(0, 1), (1, 2), (2, 3), (3, 4)], 5));
        let b = d.detect(&snapshot(&[(1, 0), (2, 1), (3, 2), (4, 3)], 5));
        assert_eq!(a.nodes(), b.nodes());
    }

    #[test]
    fn detect_is_the_point_estimate_of_detect_ranked() {
        let s = snapshot(&[(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)], 5);
        let d = RumorCentralityDetector::new();
        let ranked = d.detect_ranked(&s);
        assert_eq!(ranked, d.detect_ranked(&s));
        assert_eq!(ranked.detection, d.detect(&s));
    }
}
