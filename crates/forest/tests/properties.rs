//! Property-based tests: Edmonds branching optimality versus brute force,
//! component-wise branching versus the single-run reference, binarization
//! invariants on random trees, component partitioning.

use isomit_forest::{
    binarize, maximum_branching, maximum_branching_components, weakly_connected_components,
    BranchingArena, UnionFind, WeightedArc,
};
use isomit_graph::{Edge, NodeId, Sign, SignedDigraph};
use proptest::prelude::*;

/// Brute-force maximum branching weight by enumerating every parent
/// assignment and keeping acyclic ones.
fn brute_force_weight(n: usize, arcs: &[WeightedArc]) -> f64 {
    let mut in_arcs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, a) in arcs.iter().enumerate() {
        in_arcs[a.dst].push(i);
    }
    fn is_acyclic(n: usize, parent: &[Option<usize>]) -> bool {
        for start in 0..n {
            let mut cur = start;
            let mut steps = 0;
            while let Some(p) = parent[cur] {
                cur = p;
                steps += 1;
                if steps > n {
                    return false;
                }
            }
        }
        true
    }
    #[allow(clippy::too_many_arguments)]
    fn rec(
        v: usize,
        n: usize,
        in_arcs: &[Vec<usize>],
        arcs: &[WeightedArc],
        parent: &mut Vec<Option<usize>>,
        weight: f64,
        best: &mut f64,
    ) {
        if v == n {
            if is_acyclic(n, parent) && weight > *best {
                *best = weight;
            }
            return;
        }
        parent[v] = None;
        rec(v + 1, n, in_arcs, arcs, parent, weight, best);
        for &i in &in_arcs[v] {
            parent[v] = Some(arcs[i].src);
            rec(
                v + 1,
                n,
                in_arcs,
                arcs,
                parent,
                weight + arcs[i].weight,
                best,
            );
        }
        parent[v] = None;
    }
    let mut best = 0.0;
    let mut parent = vec![None; n];
    rec(0, n, &in_arcs, arcs, &mut parent, 0.0, &mut best);
    best
}

fn arb_arcs() -> impl Strategy<Value = (usize, Vec<WeightedArc>)> {
    (2usize..7).prop_flat_map(|n| {
        let arc = (0..n, 0..n, 0.01f64..1.0)
            .prop_filter_map("no self-loops", move |(src, dst, weight)| {
                (src != dst).then_some(WeightedArc { src, dst, weight })
            });
        proptest::collection::vec(arc, 0..14).prop_map(move |arcs| (n, arcs))
    })
}

/// Arc weights for the exactness properties: a small alphabet makes
/// equal weights — and so tie-breaks, also between reweighted arcs at
/// deeper contraction levels — the common case.
const TIE_WEIGHTS: [f64; 6] = [0.0, 1.0 / 3.0, 0.5, 1.0, 0.25, 2.0 / 3.0];

/// Random node partition plus arcs inside its groups: parallel arcs,
/// reciprocal pairs and dense groups (nested cycles) are all common.
/// Groups need not be weakly connected, and node ids interleave across
/// groups.
fn arb_grouped_arcs() -> impl Strategy<Value = (usize, Vec<Vec<NodeId>>, Vec<WeightedArc>)> {
    (1usize..40).prop_flat_map(|n| {
        (
            proptest::collection::vec(0usize..4, n),
            proptest::collection::vec(
                (any::<usize>(), any::<usize>(), 0..TIE_WEIGHTS.len(), 0u8..4),
                0..120,
            ),
        )
            .prop_map(move |(group_of, raw)| {
                let mut groups: Vec<Vec<NodeId>> = vec![Vec::new(); 4];
                for (v, &g) in group_of.iter().enumerate() {
                    groups[g].push(NodeId::from_index(v));
                }
                let mut arcs = Vec::new();
                for (a, b, w, kind) in raw {
                    let members = &groups[group_of[a % n]];
                    if members.len() < 2 {
                        continue;
                    }
                    let i = a % members.len();
                    let mut j = b % members.len();
                    if i == j {
                        j = (j + 1) % members.len();
                    }
                    let (src, dst) = (members[i].index(), members[j].index());
                    let weight = TIE_WEIGHTS[w];
                    arcs.push(WeightedArc { src, dst, weight });
                    match kind {
                        0 => arcs.push(WeightedArc {
                            src: dst,
                            dst: src,
                            weight: TIE_WEIGHTS[(w + 1) % TIE_WEIGHTS.len()],
                        }),
                        1 => arcs.push(WeightedArc { src, dst, weight }),
                        _ => {}
                    }
                }
                groups.retain(|g| !g.is_empty());
                (n, groups, arcs)
            })
    })
}

/// Asserts that the component-wise driver reproduced the reference:
/// equal `parent` and `parent_arc`, bit-equal `total_weight`.
fn assert_bit_identical(
    n: usize,
    components: &[Vec<NodeId>],
    arcs: &[WeightedArc],
    arena: &mut BranchingArena,
) {
    let reference = maximum_branching(n, arcs);
    let fast = maximum_branching_components(n, arcs, components, arena);
    for v in 0..n {
        prop_assert_eq!(fast.parent(v), reference.parent(v), "parent of {}", v);
        prop_assert_eq!(fast.parent_arc(v), reference.parent_arc(v), "arc of {}", v);
    }
    prop_assert_eq!(
        fast.total_weight().to_bits(),
        reference.total_weight().to_bits()
    );
}

/// Random tree as a children-list structure plus its root.
fn arb_tree() -> impl Strategy<Value = (usize, Vec<Vec<usize>>)> {
    (1usize..40).prop_flat_map(|n| {
        // Node i > 0 hangs under a uniformly random earlier node: always
        // a valid tree rooted at 0.
        proptest::collection::vec(any::<u64>(), n.saturating_sub(1)).prop_map(move |raw| {
            let mut children = vec![Vec::new(); n];
            for (i, r) in raw.iter().enumerate() {
                let node = i + 1;
                let parent = (*r as usize) % node;
                children[parent].push(node);
            }
            (0usize, children)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn branching_matches_brute_force((n, arcs) in arb_arcs()) {
        let b = maximum_branching(n, &arcs);
        let optimal = brute_force_weight(n, &arcs);
        prop_assert!(
            (b.total_weight() - optimal).abs() < 1e-9,
            "edmonds {} vs brute force {}",
            b.total_weight(),
            optimal
        );
    }

    #[test]
    fn branching_is_structurally_valid((n, arcs) in arb_arcs()) {
        let b = maximum_branching(n, &arcs);
        for v in 0..n {
            if let Some(a) = b.parent_arc(v) {
                prop_assert_eq!(arcs[a].dst, v);
                prop_assert_eq!(Some(arcs[a].src), b.parent(v));
            }
            // Acyclic: walk to a root in <= n steps.
            let mut cur = v;
            let mut steps = 0;
            while let Some(p) = b.parent(cur) {
                cur = p;
                steps += 1;
                prop_assert!(steps <= n, "cycle through {}", v);
            }
        }
    }

    #[test]
    fn branching_weight_equals_sum_of_selected((n, arcs) in arb_arcs()) {
        let b = maximum_branching(n, &arcs);
        let sum: f64 = (0..n)
            .filter_map(|v| b.parent_arc(v))
            .map(|a| arcs[a].weight)
            .sum();
        prop_assert!((sum - b.total_weight()).abs() < 1e-9);
    }

    #[test]
    fn component_branching_is_bit_identical_to_the_reference(
        (n, components, arcs) in arb_grouped_arcs(),
    ) {
        assert_bit_identical(n, &components, &arcs, &mut BranchingArena::default());
    }

    #[test]
    fn reused_arena_stays_bit_identical_across_sizes(
        graphs in proptest::collection::vec(arb_grouped_arcs(), 1..5),
    ) {
        // One arena for graphs of different sizes, in both orders: pooled
        // buffers sized by an earlier call must not leak into a later one.
        let mut arena = BranchingArena::default();
        for (n, components, arcs) in graphs.iter().chain(graphs.iter().rev()) {
            assert_bit_identical(*n, components, arcs, &mut arena);
        }
    }

    #[test]
    fn binarize_preserves_real_nodes_and_ancestry((root, children) in arb_tree()) {
        let bt = binarize(root, &children);
        // Real node multiset = original node set.
        let mut reals: Vec<usize> = (0..bt.len()).filter_map(|i| bt.original(i)).collect();
        reals.sort_unstable();
        let expected: Vec<usize> = (0..children.len()).collect();
        prop_assert_eq!(reals, expected);
        // Fan-out <= 2 everywhere; dummy count bounded by real count.
        prop_assert!(bt.dummy_count() <= bt.real_count());
        // Nearest real ancestor is the original parent.
        let mut orig_parent = vec![None; children.len()];
        for (p, kids) in children.iter().enumerate() {
            for &k in kids {
                orig_parent[k] = Some(p);
            }
        }
        for node in 0..bt.len() {
            if let Some(orig) = bt.original(node) {
                let actual = bt.real_parent(node).map(|p| bt.original(p).unwrap());
                prop_assert_eq!(actual, orig_parent[orig]);
            }
        }
        // Post-order is a permutation ending at the root.
        let order = bt.post_order();
        prop_assert_eq!(order.len(), bt.len());
        prop_assert_eq!(*order.last().unwrap(), bt.root());
    }

    #[test]
    fn components_agree_with_union_find(
        n in 2usize..30,
        raw_edges in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..60),
    ) {
        let edges: Vec<Edge> = raw_edges
            .iter()
            .map(|&(a, b)| (a as usize % n, b as usize % n))
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| {
                Edge::new(NodeId(a as u32), NodeId(b as u32), Sign::Positive, 0.5)
            })
            .collect();
        let g = SignedDigraph::from_edges(n, edges).unwrap();
        let comps = weakly_connected_components(&g);
        // Union-find reference.
        let mut uf = UnionFind::new(n);
        for e in g.edges() {
            uf.union(e.src.index(), e.dst.index());
        }
        prop_assert_eq!(comps.len(), uf.component_count());
        // Every component is internally connected under union-find and
        // the partition covers all nodes exactly once.
        let mut total = 0;
        for comp in &comps {
            total += comp.len();
            let rep = uf.find(comp[0].index());
            for &v in comp {
                prop_assert_eq!(uf.find(v.index()), rep);
            }
        }
        prop_assert_eq!(total, n);
    }
}
