// lint:allow-file(indexing) arena-based Chu-Liu/Edmonds indexes per-node and per-edge scratch arrays sized from the component's node and arc counts; Branching::validate() re-checks the parent structure in debug builds
//! Component-wise maximum-branching driver with reusable scratch arenas.
//!
//! [`maximum_branching`](crate::maximum_branching) solves the whole node
//! range in one level-by-level Chu-Liu/Edmonds run: every contraction
//! level re-scans and copies the whole edge list. When the input
//! decomposes into weakly-connected components — the normal shape of an
//! infected snapshot, where each component is one rumor cascade (paper
//! §III-C) — and a component needs many levels, most of that work
//! re-reads edges no cycle ever touches.
//!
//! [`maximum_branching_components`] produces the **bit-identical**
//! branching component by component against a [`BranchingArena`] of
//! pooled buffers, contracting incrementally in the manner of Tarjan
//! ("Finding optimum branchings", Networks 1977) while keeping the
//! reference's level-by-level decisions:
//!
//! * arcs are grouped per component with a counting sort that preserves
//!   input order, and each component lists its arcs followed by one
//!   virtual-root edge per node — the reference's level-0 layout, so a
//!   local edge id is the edge's position in the reference's list;
//! * every level's edge list is a subsequence of level 0, so the
//!   reference's "first maximum-weight in-edge in level order" is
//!   "largest weight, then smallest local id";
//! * a node outside every cycle keeps its best in-edge at the next level
//!   (its in-edges and their weights are unchanged), and any new cycle
//!   passes through a super-node formed by the previous contraction, so
//!   each level walks parent pointers only from the new super-nodes.
//!   A node whose parent chain reaches the virtual root is marked once
//!   and never walked again, because that chain cannot change;
//! * contracting a cycle joins its members' in-edge lists in one pooled
//!   flat buffer, dropping the edges internal to the cycle and
//!   reweighting the others with the reference's `w − w(best_in)`
//!   subtraction, in the same order, so every weight has the same bits;
//! * expansion walks the contraction forest top-down: a super-node hands
//!   its chosen edge down to the member that edge enters, and every other
//!   member keeps its in-cycle edge;
//! * singleton and arc-free components exit early as roots, and
//!   `total_weight` is re-accumulated in one global ascending-node pass,
//!   reproducing the reference's floating-point summation order.
//!
//! A component with `n` nodes and `m` arcs costs `O(m + n)` for its first
//! level; each later level costs the in-edges of its cycle members plus
//! the parent-pointer walks from its new super-nodes, instead of the
//! reference's `O(m + n)` per level.
//!
//! The unit tests below and the crate's property tests pin the
//! equivalence structurally (equal `parent`/`parent_arc`, bit-equal
//! `total_weight`); the determinism suite and the golden fixtures pin it
//! end to end.

use crate::branching::{Branching, WeightedArc};
use isomit_graph::NodeId;

/// Sentinel for "no edge / no node" in the arena's dense index fields
/// (plain `usize` instead of `Option<usize>` keeps the slots small).
const NONE: usize = usize::MAX;

/// One node of a component's contraction forest: an input node, the
/// virtual root, or a super-node standing for a contracted cycle.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Selected in-edge (local edge id); `NONE` only for the virtual root.
    best_in: usize,
    /// Union-find link towards the uncontracted node that contains this
    /// one (itself while the node is uncontracted).
    rep: usize,
    /// Super-node this node was contracted into, `NONE` while it is not.
    up: usize,
    /// In-edge list: `in_edges[start..end]` of the arena.
    start: usize,
    end: usize,
    /// Last parent-pointer walk that visited this node.
    walk: usize,
    /// `true` once the node's parent chain is known to reach the virtual
    /// root.
    rooted: bool,
    /// Expansion: the local edge this node finally keeps.
    chosen: usize,
}

impl Slot {
    fn new(id: usize, start: usize) -> Slot {
        Slot {
            best_in: NONE,
            rep: id,
            up: NONE,
            start,
            end: start,
            walk: 0,
            rooted: false,
            chosen: NONE,
        }
    }
}

/// Reusable scratch space for [`maximum_branching_components`].
///
/// Holds every buffer the component-wise Chu-Liu/Edmonds driver needs —
/// per-component edge lists, the contraction forest, pooled in-edge lists
/// and walk state — so that running the branching over many components
/// (or many snapshots) performs no per-component allocation after
/// warm-up. Construct once with [`Default`] and pass `&mut` to each call;
/// buffers grow to the high-water mark and are then reused.
///
/// An arena is cheap to create, so per-thread ownership (e.g. a
/// `thread_local!`) is the intended sharing model; the type is
/// deliberately not `Sync`-shareable state.
///
/// # Examples
///
/// ```
/// use isomit_forest::{maximum_branching_components, BranchingArena, WeightedArc};
/// use isomit_graph::NodeId;
///
/// let arcs = vec![
///     WeightedArc { src: 0, dst: 1, weight: 0.9 },
///     WeightedArc { src: 2, dst: 3, weight: 0.4 },
/// ];
/// let components = vec![
///     vec![NodeId(0), NodeId(1)],
///     vec![NodeId(2), NodeId(3)],
///     vec![NodeId(4)], // singleton: early-exits as a root
/// ];
/// let mut arena = BranchingArena::default();
/// let b = maximum_branching_components(5, &arcs, &components, &mut arena);
/// assert_eq!(b.parent(1), Some(0));
/// assert_eq!(b.parent(3), Some(2));
/// assert_eq!(b.roots(), vec![0, 2, 4]);
/// // The arena can be reused for the next call at zero allocation cost.
/// let again = maximum_branching_components(5, &arcs, &components, &mut arena);
/// assert_eq!(again, b);
/// ```
#[derive(Debug, Default)]
pub struct BranchingArena {
    // -- driver scratch --------------------------------------------------
    /// Component id per global node.
    comp_of: Vec<usize>,
    /// Local (component-relative) id per global node; written before read
    /// for every node of the component being solved, so it never needs
    /// resetting between components.
    local_of: Vec<usize>,
    /// Arc indices grouped by component, input order preserved per group.
    comp_arc_ids: Vec<usize>,
    /// Per-component offsets into `comp_arc_ids` (length `components + 1`).
    comp_arc_start: Vec<usize>,
    /// Write cursors for the driver's arc-grouping counting sort.
    cursor: Vec<usize>,
    // -- per-component scratch -------------------------------------------
    /// Local edges: the component's arcs in input order (local endpoints,
    /// weight reduced by every contraction of the destination so far),
    /// then one weight-0 virtual-root edge per node.
    edges: Vec<WeightedArc>,
    /// Contraction forest: input nodes `0..len`, the virtual root `len`,
    /// then super-nodes in creation order.
    slots: Vec<Slot>,
    /// Pooled flat in-edge lists; a super-node's list is appended when
    /// its cycle is contracted.
    in_edges: Vec<usize>,
    /// Current parent-pointer walk.
    path: Vec<usize>,
    /// Members of the cycles found at the current level, cycle by cycle.
    cycle_nodes: Vec<usize>,
    /// End offset into `cycle_nodes` of each cycle.
    cycle_ends: Vec<usize>,
    /// Nodes the current level walks from: every input node at level
    /// 0, then the super-nodes formed by the last contraction.
    fresh: Vec<usize>,
}

/// Computes the same maximum-weight spanning branching as
/// [`maximum_branching`](crate::maximum_branching), but component by
/// component against a reusable [`BranchingArena`].
///
/// `components` must partition `0..n` (e.g. the output of
/// [`weakly_connected_components`](crate::weakly_connected_components) on
/// the snapshot graph), and every arc must stay inside a single component
/// — which holds by construction for weakly-connected components, since an
/// arc weakly connects its endpoints.
///
/// The result is **bit-identical** to the single-run reference: the same
/// arcs are selected (every choice is the reference's "largest weight,
/// then earliest arc" over the same reweighted candidates) and
/// `total_weight` is accumulated in the same ascending-node order.
/// Singleton components and components without usable arcs short-circuit
/// to roots without touching the Edmonds machinery.
///
/// # Panics
///
/// Panics if an arc references a node `>= n`, is a self-loop, carries a
/// negative / non-finite weight, crosses two components, or references a
/// node missing from `components`.
///
/// # Examples
///
/// ```
/// use isomit_forest::{
///     maximum_branching, maximum_branching_components, BranchingArena, WeightedArc,
/// };
/// use isomit_graph::NodeId;
///
/// // A 2-cycle component plus an external entry, and a separate chain.
/// let arcs = vec![
///     WeightedArc { src: 0, dst: 1, weight: 0.8 },
///     WeightedArc { src: 1, dst: 0, weight: 0.7 },
///     WeightedArc { src: 2, dst: 0, weight: 0.5 },
///     WeightedArc { src: 3, dst: 4, weight: 0.6 },
/// ];
/// let components = vec![
///     vec![NodeId(0), NodeId(1), NodeId(2)],
///     vec![NodeId(3), NodeId(4)],
/// ];
/// let mut arena = BranchingArena::default();
/// let fast = maximum_branching_components(5, &arcs, &components, &mut arena);
/// let reference = maximum_branching(5, &arcs);
/// assert_eq!(fast, reference);
/// assert_eq!(fast.total_weight().to_bits(), reference.total_weight().to_bits());
/// ```
pub fn maximum_branching_components(
    n: usize,
    arcs: &[WeightedArc],
    components: &[Vec<NodeId>],
    arena: &mut BranchingArena,
) -> Branching {
    for (i, a) in arcs.iter().enumerate() {
        assert!(
            a.src < n && a.dst < n,
            "arc {i} ({}, {}) out of bounds for {n} nodes",
            a.src,
            a.dst
        );
        assert!(a.src != a.dst, "arc {i} is a self-loop on {}", a.src);
        assert!(
            a.weight.is_finite() && a.weight >= 0.0,
            "arc {i} has invalid weight {}",
            a.weight
        );
    }
    if n == 0 {
        return Branching::from_parts(Vec::new(), Vec::new(), 0.0);
    }

    // Component id per node; doubles as the partition check.
    arena.comp_of.clear();
    arena.comp_of.resize(n, NONE);
    for (cid, comp) in components.iter().enumerate() {
        for &v in comp {
            assert!(
                v.index() < n && arena.comp_of[v.index()] == NONE,
                "components must partition 0..{n}: node {v} repeated or out of bounds"
            );
            arena.comp_of[v.index()] = cid;
        }
    }

    // Group arc indices by component with a counting sort, preserving the
    // input order inside each group so every sub-run sees its candidate
    // arcs in the same relative order as the global reference run.
    let comp_count = components.len();
    arena.comp_arc_start.clear();
    arena.comp_arc_start.resize(comp_count + 1, 0);
    for (i, a) in arcs.iter().enumerate() {
        let cid = arena.comp_of[a.src];
        assert!(
            cid != NONE && cid == arena.comp_of[a.dst],
            "arc {i} ({}, {}) crosses components or references an uncovered node",
            a.src,
            a.dst
        );
        arena.comp_arc_start[cid + 1] += 1;
    }
    for cid in 0..comp_count {
        arena.comp_arc_start[cid + 1] += arena.comp_arc_start[cid];
    }
    arena.cursor.clear();
    arena
        .cursor
        .extend_from_slice(&arena.comp_arc_start[..comp_count]);
    arena.comp_arc_ids.clear();
    arena.comp_arc_ids.resize(arcs.len(), 0);
    for (i, a) in arcs.iter().enumerate() {
        let cid = arena.comp_of[a.src];
        arena.comp_arc_ids[arena.cursor[cid]] = i;
        arena.cursor[cid] += 1;
    }

    arena.local_of.clear();
    arena.local_of.resize(n, NONE);

    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut parent_arc: Vec<Option<usize>> = vec![None; n];

    for (cid, comp) in components.iter().enumerate() {
        let arc_lo = arena.comp_arc_start[cid];
        let arc_hi = arena.comp_arc_start[cid + 1];
        // Early exit: a singleton can never take an in-arc, and a
        // component without usable arcs is all roots. Either way the
        // `None` defaults already say the right thing.
        if comp.len() < 2 || arc_lo == arc_hi {
            continue;
        }
        for (local, &v) in comp.iter().enumerate() {
            arena.local_of[v.index()] = local;
        }
        arena.solve_component(comp, arc_lo, arc_hi, arcs, &mut parent, &mut parent_arc);
    }

    // Re-accumulate the total in one global ascending-node pass — the
    // exact floating-point summation order of the reference's level-0
    // read-off, so the sum is bit-identical, not merely close.
    let mut total_weight = 0.0;
    for arc in parent_arc.iter().flatten() {
        total_weight += arcs[*arc].weight;
    }
    let branching = Branching::from_parts(parent, parent_arc, total_weight);
    debug_assert!(
        branching.validate(arcs).is_ok(),
        "maximum_branching_components produced an invalid branching: {:?}",
        branching.validate(arcs)
    );
    branching
}

impl BranchingArena {
    /// Runs incremental Chu-Liu/Edmonds on one component and writes the
    /// selected arcs into the global `parent`/`parent_arc` arrays.
    ///
    /// `local_of` must already map this component's nodes to `0..len`;
    /// `comp_arc_ids[arc_lo..arc_hi]` lists the component's arc indices in
    /// input order.
    fn solve_component(
        &mut self,
        comp: &[NodeId],
        arc_lo: usize,
        arc_hi: usize,
        arcs: &[WeightedArc],
        parent: &mut [Option<usize>],
        parent_arc: &mut [Option<usize>],
    ) {
        let len = comp.len();
        let root = len;

        // Local edges in the reference's level-0 order: real arcs, then
        // the virtual-root edges.
        self.edges.clear();
        for &ga in &self.comp_arc_ids[arc_lo..arc_hi] {
            let a = &arcs[ga];
            self.edges.push(WeightedArc {
                src: self.local_of[a.src],
                dst: self.local_of[a.dst],
                weight: a.weight,
            });
        }
        self.edges.extend((0..len).map(|v| WeightedArc {
            src: root,
            dst: v,
            weight: 0.0,
        }));

        // Level 0: every node's first maximum-weight in-edge, and its
        // in-edge list by a counting sort on the destination.
        self.slots.clear();
        self.slots.extend((0..=len).map(|v| Slot::new(v, 0)));
        self.slots[root].rooted = true;
        for (id, e) in self.edges.iter().enumerate() {
            let slot = &mut self.slots[e.dst];
            slot.end += 1;
            if beats(&self.edges, id, slot.best_in) {
                slot.best_in = id;
            }
        }
        let mut offset = 0;
        for slot in &mut self.slots {
            slot.start = offset;
            offset += slot.end;
            slot.end = slot.start;
        }
        self.in_edges.clear();
        self.in_edges.resize(self.edges.len(), NONE);
        for (id, e) in self.edges.iter().enumerate() {
            let slot = &mut self.slots[e.dst];
            self.in_edges[slot.end] = id;
            slot.end += 1;
        }

        // Contract level by level: level 0 walks from every input node,
        // each later level from the super-nodes the last contraction
        // formed. Walk ids grow monotonically, so a node visited at the
        // current level is one whose `walk` is at least the level's first
        // id.
        self.fresh.clear();
        self.fresh.extend(0..len);
        let mut walks = 0usize;
        loop {
            self.cycle_nodes.clear();
            self.cycle_ends.clear();
            let level_start = walks + 1;
            for i in 0..self.fresh.len() {
                let s = self.fresh[i];
                self.walk_from(s, level_start, &mut walks);
            }
            if self.cycle_ends.is_empty() {
                break;
            }
            self.contract_cycles();
        }

        // Expand top-down (super-nodes are created after their members).
        // A node not entered from above keeps its best in-edge; a
        // super-node hands its edge down the chain of members containing
        // the edge's level-0 destination, and those members are entered.
        for s in (0..self.slots.len()).rev() {
            if self.slots[s].chosen != NONE {
                continue;
            }
            let e = self.slots[s].best_in;
            self.slots[s].chosen = e;
            if s > root {
                let mut x = self.edges[e].dst;
                while x != s {
                    self.slots[x].chosen = e;
                    x = self.slots[x].up;
                }
            }
        }

        // Read off the input nodes; local ids below the arc count are the
        // component's arcs, the rest are virtual-root edges.
        let arc_count = arc_hi - arc_lo;
        for (v, node) in comp.iter().enumerate() {
            let e = self.slots[v].chosen;
            debug_assert_eq!(self.edges[e].dst, v, "node {v} keeps an edge entering it");
            if e < arc_count {
                let ga = self.comp_arc_ids[arc_lo + e];
                parent[node.index()] = Some(arcs[ga].src);
                parent_arc[node.index()] = Some(ga);
            }
        }
    }

    /// Follows parent pointers from `start` until the chain reaches the
    /// virtual root, a node already walked at this level, or closes a
    /// cycle, which is appended to `cycle_nodes`.
    fn walk_from(&mut self, start: usize, level_start: usize, walks: &mut usize) {
        let first = self.slots[start];
        if first.rooted || first.walk >= level_start {
            return;
        }
        *walks += 1;
        let id = *walks;
        self.path.clear();
        let mut v = start;
        loop {
            let slot = self.slots[v];
            if slot.rooted {
                for &x in &self.path {
                    self.slots[x].rooted = true;
                }
                return;
            }
            if slot.walk == id {
                let pos = self
                    .path
                    .iter()
                    .rposition(|&x| x == v)
                    .expect("a node revisited by its own walk is on the path");
                self.cycle_nodes.extend_from_slice(&self.path[pos..]);
                self.cycle_ends.push(self.cycle_nodes.len());
                return;
            }
            if slot.walk >= level_start {
                // Joined an earlier walk of this level, which ended in a
                // cycle (a rooted end would have marked the node).
                return;
            }
            self.slots[v].walk = id;
            self.path.push(v);
            v = find(&mut self.slots, self.edges[slot.best_in].src);
        }
    }

    /// Contracts every cycle found at this level into a fresh super-node
    /// and records the new super-nodes in `fresh`.
    fn contract_cycles(&mut self) {
        self.fresh.clear();
        let mut lo = 0;
        for c in 0..self.cycle_ends.len() {
            let hi = self.cycle_ends[c];
            let s = self.slots.len();
            self.slots.push(Slot::new(s, self.in_edges.len()));
            for &m in &self.cycle_nodes[lo..hi] {
                self.slots[m].rep = s;
                self.slots[m].up = s;
            }
            let mut best = NONE;
            for i in lo..hi {
                let member = self.slots[self.cycle_nodes[i]];
                let cycle_weight = self.edges[member.best_in].weight;
                for k in member.start..member.end {
                    let id = self.in_edges[k];
                    if find(&mut self.slots, self.edges[id].src) == s {
                        continue;
                    }
                    self.edges[id].weight -= cycle_weight;
                    self.in_edges.push(id);
                    if beats(&self.edges, id, best) {
                        best = id;
                    }
                }
            }
            debug_assert_ne!(best, NONE, "a super-node keeps its virtual-root edges");
            let slot = &mut self.slots[s];
            slot.end = self.in_edges.len();
            slot.best_in = best;
            self.fresh.push(s);
            lo = hi;
        }
    }
}

/// `true` if local edge `id` beats the incumbent `best` (or there is
/// none): larger weight, then smaller local id.
fn beats(edges: &[WeightedArc], id: usize, best: usize) -> bool {
    let Some(incumbent) = edges.get(best) else {
        return true;
    };
    let weight = edges[id].weight;
    weight > incumbent.weight || (weight == incumbent.weight && id < best)
}

/// The uncontracted node currently containing `x`, halving the path.
fn find(slots: &mut [Slot], mut x: usize) -> usize {
    while slots[x].rep != x {
        let next = slots[slots[x].rep].rep;
        slots[x].rep = next;
        x = next;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branching::maximum_branching;
    use crate::components::UnionFind;

    fn arcs(list: &[(usize, usize, f64)]) -> Vec<WeightedArc> {
        list.iter()
            .map(|&(src, dst, weight)| WeightedArc { src, dst, weight })
            .collect()
    }

    /// Weak components of `(0..n, arcs)` in the same deterministic shape
    /// as `weakly_connected_components`: ascending by smallest member,
    /// nodes ascending within.
    fn component_sets(n: usize, arcs: &[WeightedArc]) -> Vec<Vec<NodeId>> {
        let mut uf = UnionFind::new(n);
        for a in arcs {
            uf.union(a.src, a.dst);
        }
        let mut by_root: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for v in 0..n {
            let r = uf.find(v);
            by_root[r].push(NodeId::from_index(v));
        }
        by_root.retain(|c| !c.is_empty());
        by_root
    }

    /// Asserts bit-identical agreement between the component driver and
    /// the single-run reference.
    fn assert_matches_reference(n: usize, arcs: &[WeightedArc]) {
        let reference = maximum_branching(n, arcs);
        let components = component_sets(n, arcs);
        let mut arena = BranchingArena::default();
        let fast = maximum_branching_components(n, arcs, &components, &mut arena);
        for v in 0..n {
            assert_eq!(fast.parent(v), reference.parent(v), "parent of {v}");
            assert_eq!(fast.parent_arc(v), reference.parent_arc(v), "arc of {v}");
        }
        assert_eq!(
            fast.total_weight().to_bits(),
            reference.total_weight().to_bits(),
            "total_weight must be bit-identical"
        );
        // And again through the same arena: reuse must not change results.
        let again = maximum_branching_components(n, arcs, &components, &mut arena);
        assert_eq!(again, fast);
    }

    #[test]
    fn empty_graph() {
        let b = maximum_branching_components(0, &[], &[], &mut BranchingArena::default());
        assert!(b.is_empty());
    }

    #[test]
    fn all_singletons_are_roots() {
        let components: Vec<Vec<NodeId>> = (0..4).map(|v| vec![NodeId(v)]).collect();
        let b = maximum_branching_components(4, &[], &components, &mut BranchingArena::default());
        assert_eq!(b.roots(), vec![0, 1, 2, 3]);
        assert_eq!(b.total_weight(), 0.0);
    }

    #[test]
    fn matches_reference_on_two_chains() {
        let a = arcs(&[(0, 1, 0.5), (1, 2, 0.4), (3, 4, 0.9)]);
        assert_matches_reference(5, &a);
    }

    #[test]
    fn matches_reference_on_cycles_per_component() {
        // Component {0,1,2}: 2-cycle plus external entry; component
        // {3,4,5}: pure 3-cycle (the lightest arc must be dropped).
        let a = arcs(&[
            (0, 1, 0.8),
            (1, 0, 0.7),
            (2, 0, 0.5),
            (3, 4, 0.9),
            (4, 5, 0.8),
            (5, 3, 0.3),
        ]);
        assert_matches_reference(6, &a);
    }

    #[test]
    fn matches_reference_on_nested_contraction() {
        // Interlocking cycles force two contraction rounds, next to an
        // untouched singleton and a parallel-arc component.
        let a = arcs(&[
            (0, 1, 1.0),
            (1, 0, 1.0),
            (1, 2, 1.0),
            (2, 1, 1.0),
            (3, 0, 0.5),
            (5, 6, 0.3),
            (5, 6, 0.7),
        ]);
        assert_matches_reference(7, &a);
    }

    #[test]
    fn matches_reference_on_equal_weight_ties() {
        // All-equal weights make every selection a tie-break decision;
        // input order must decide identically in both drivers.
        let a = arcs(&[
            (0, 1, 0.5),
            (2, 1, 0.5),
            (1, 0, 0.5),
            (3, 4, 0.5),
            (4, 3, 0.5),
            (3, 4, 0.5),
        ]);
        assert_matches_reference(5, &a);
    }

    #[test]
    fn matches_reference_on_dense_multi_component_graphs() {
        // Deterministic pseudo-random weights over K5 ⊔ K4 ⊔ chain ⊔
        // singletons, several seeds.
        for seed in 0..8 {
            let mut w = 0.13f64 + 0.07 * seed as f64;
            let mut all = Vec::new();
            let mut push_clique = |all: &mut Vec<WeightedArc>, lo: usize, hi: usize| {
                for s in lo..hi {
                    for d in lo..hi {
                        if s != d {
                            all.push(WeightedArc {
                                src: s,
                                dst: d,
                                weight: w,
                            });
                            w = (w * 31.7 + 0.11) % 1.0;
                        }
                    }
                }
            };
            push_clique(&mut all, 0, 5);
            push_clique(&mut all, 5, 9);
            all.push(WeightedArc {
                src: 9,
                dst: 10,
                weight: 0.25,
            });
            // Nodes 11, 12 stay isolated singletons.
            assert_matches_reference(13, &all);
        }
    }

    #[test]
    fn arena_reuse_shrinks_then_grows() {
        // Solve a large component, then a small one, then large again:
        // pooled buffers must resize correctly in both directions.
        let mut arena = BranchingArena::default();
        let big = arcs(&[(0, 1, 0.9), (1, 2, 0.8), (2, 0, 0.7), (3, 2, 0.6)]);
        let big_components = component_sets(4, &big);
        let b1 = maximum_branching_components(4, &big, &big_components, &mut arena);
        let small = arcs(&[(0, 1, 0.4)]);
        let small_components = component_sets(2, &small);
        let s = maximum_branching_components(2, &small, &small_components, &mut arena);
        assert_eq!(s.parent(1), Some(0));
        let b2 = maximum_branching_components(4, &big, &big_components, &mut arena);
        assert_eq!(b1, b2);
    }

    #[test]
    #[should_panic(expected = "crosses components")]
    fn cross_component_arc_panics() {
        let a = arcs(&[(0, 1, 0.5)]);
        let components = vec![vec![NodeId(0)], vec![NodeId(1)]];
        maximum_branching_components(2, &a, &components, &mut BranchingArena::default());
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn repeated_node_in_components_panics() {
        let components = vec![vec![NodeId(0), NodeId(0)]];
        maximum_branching_components(1, &[], &components, &mut BranchingArena::default());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_arc_panics() {
        maximum_branching_components(
            2,
            &arcs(&[(0, 5, 0.5)]),
            &[],
            &mut BranchingArena::default(),
        );
    }
}
