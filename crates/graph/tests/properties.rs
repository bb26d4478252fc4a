//! Property-based tests for the graph substrate.

use isomit_graph::json::Value;
use isomit_graph::{io, jaccard_coefficient, jaccard_weights, Edge, NodeId, Sign, SignedDigraph};
use proptest::prelude::*;

/// Strategy producing a valid edge set over `n` nodes (no self-loops,
/// weights in [0, 1]).
fn arb_edges(max_nodes: u32, max_edges: usize) -> impl Strategy<Value = (usize, Vec<Edge>)> {
    (2..=max_nodes).prop_flat_map(move |n| {
        let edge = (0..n, 0..n, any::<bool>(), 0.0f64..=1.0).prop_filter_map(
            "self-loops are invalid",
            |(a, b, pos, w)| {
                (a != b).then(|| {
                    Edge::new(
                        NodeId(a),
                        NodeId(b),
                        if pos { Sign::Positive } else { Sign::Negative },
                        w,
                    )
                })
            },
        );
        proptest::collection::vec(edge, 0..max_edges).prop_map(move |edges| (n as usize, edges))
    })
}

/// Strategy producing arbitrary Unicode strings, weighted towards what
/// the JSON string scanner treats specially: quotes, backslashes,
/// control characters and multibyte UTF-8.
fn arb_string() -> impl Strategy<Value = String> {
    const SPECIAL: [char; 8] = ['"', '\\', '\n', '\t', '\u{0}', '\u{1f}', '/', '\u{7f}'];
    const MULTIBYTE: [char; 8] = [
        'é',
        'ß',
        '中',
        '€',
        '😀',
        '\u{10ffff}',
        '\u{2028}',
        '\u{fffd}',
    ];
    let ch = (0..4u8, any::<u32>()).prop_map(|(kind, x)| match kind {
        0 => SPECIAL[x as usize % SPECIAL.len()],
        1 => char::from(b' ' + (x % 95) as u8),
        2 => MULTIBYTE[x as usize % MULTIBYTE.len()],
        _ => char::from_u32(x % 0x11_0000).unwrap_or('\u{fffd}'),
    });
    proptest::collection::vec(ch, 0..40).prop_map(|chars| chars.into_iter().collect())
}

/// The `N` of a parse error's trailing `at byte N`.
fn error_offset(error: &impl std::fmt::Display) -> usize {
    let text = error.to_string();
    let (_, offset) = text
        .rsplit_once("at byte ")
        .expect("errors carry an offset");
    offset.parse().expect("offset is an integer")
}

proptest! {
    #[test]
    fn json_strings_round_trip(s in arb_string()) {
        let value = Value::String(s);
        prop_assert_eq!(Value::parse(&value.to_json()).unwrap(), value);
    }

    #[test]
    fn json_strings_round_trip_among_other_values(a in arb_string(), b in arb_string()) {
        let value = Value::Array(vec![
            Value::Number(1.5),
            Value::String(a.clone()),
            Value::Object(vec![
                (b.clone(), Value::String(a)),
                ("k".into(), Value::Array(vec![Value::String(b), Value::Null])),
            ]),
            Value::Bool(false),
        ]);
        prop_assert_eq!(Value::parse(&value.to_json()).unwrap(), value);
    }

    #[test]
    fn truncated_json_strings_fail_at_the_cut(s in arb_string()) {
        let encoded = Value::String(s.clone()).to_json();
        // Cutting between two encoded characters leaves an open string
        // whose error points at the end of the input.
        let mut boundary = 1;
        for c in s.chars() {
            let text = encoded.get(..boundary).unwrap();
            let error = Value::parse(text).unwrap_err();
            prop_assert_eq!(
                error.to_string(),
                format!("json error: unterminated string at byte {boundary}")
            );
            boundary += Value::String(c.to_string()).to_json().len() - 2;
        }
        prop_assert_eq!(boundary, encoded.len() - 1);
        // Any other cut, including inside an escape, still fails, and
        // never past the cut.
        for cut in (1..encoded.len()).filter(|&cut| encoded.is_char_boundary(cut)) {
            let error = Value::parse(encoded.get(..cut).unwrap()).unwrap_err();
            prop_assert!(error_offset(&error) <= cut, "{} for cut {}", error, cut);
        }
    }

    #[test]
    fn csr_preserves_every_last_duplicate((n, edges) in arb_edges(24, 60)) {
        let g = SignedDigraph::from_edges(n, edges.clone()).unwrap();
        // Reference: the last edge for each (src, dst) pair.
        let mut expected = std::collections::HashMap::new();
        for e in &edges {
            expected.insert((e.src, e.dst), (e.sign, e.weight));
        }
        prop_assert_eq!(g.edge_count(), expected.len());
        for ((src, dst), (sign, weight)) in expected {
            let e = g.edge(src, dst).expect("edge must exist");
            prop_assert_eq!(e.sign, sign);
            prop_assert!((e.weight - weight).abs() < 1e-15);
        }
    }

    #[test]
    fn reversal_is_involution((n, edges) in arb_edges(24, 60)) {
        let g = SignedDigraph::from_edges(n, edges).unwrap();
        prop_assert_eq!(g.reversed().reversed(), g);
    }

    #[test]
    fn reversal_swaps_in_and_out_degrees((n, edges) in arb_edges(16, 48)) {
        let g = SignedDigraph::from_edges(n, edges).unwrap();
        let r = g.reversed();
        for u in g.nodes() {
            prop_assert_eq!(g.out_degree(u), r.in_degree(u));
            prop_assert_eq!(g.in_degree(u), r.out_degree(u));
        }
    }

    #[test]
    fn degree_sums_equal_edge_count((n, edges) in arb_edges(16, 48)) {
        let g = SignedDigraph::from_edges(n, edges).unwrap();
        let out_sum: usize = g.nodes().map(|u| g.out_degree(u)).sum();
        let in_sum: usize = g.nodes().map(|u| g.in_degree(u)).sum();
        prop_assert_eq!(out_sum, g.edge_count());
        prop_assert_eq!(in_sum, g.edge_count());
    }

    #[test]
    fn snap_round_trip_preserves_structure((n, edges) in arb_edges(16, 48)) {
        // SNAP drops weights, so compare after normalizing weights to 1.0.
        let g = SignedDigraph::from_edges(n, edges).unwrap().map_weights(|_| 1.0);
        let mut buf = Vec::new();
        io::write_snap(&g, &mut buf).unwrap();
        let back = io::read_snap(buf.as_slice()).unwrap();
        prop_assert_eq!(back.edge_count(), g.edge_count());
        for e in g.edges() {
            let b = back.edge(e.src, e.dst).expect("edge survives round trip");
            prop_assert_eq!(b.sign, e.sign);
        }
    }

    #[test]
    fn jaccard_is_bounded_and_symmetric_in_structure((n, edges) in arb_edges(12, 40)) {
        let g = SignedDigraph::from_edges(n, edges).unwrap();
        let w = jaccard_weights(&g);
        for e in w.edges() {
            prop_assert!((0.0..=1.0).contains(&e.weight));
            let jc = jaccard_coefficient(&g, e.src, e.dst);
            prop_assert!((jc - e.weight).abs() < 1e-15);
        }
    }

    #[test]
    fn induced_subgraph_of_all_nodes_is_identity((n, edges) in arb_edges(12, 40)) {
        let g = SignedDigraph::from_edges(n, edges).unwrap();
        let (sub, map) = g.induced_subgraph(g.nodes().collect::<Vec<_>>());
        prop_assert_eq!(&sub, &g);
        for u in g.nodes() {
            prop_assert_eq!(map.to_subgraph(u), Some(u));
            prop_assert_eq!(map.to_original(u), Some(u));
        }
    }

    #[test]
    fn induced_subgraph_never_invents_edges(
        (n, edges) in arb_edges(12, 40),
        keep_mask in proptest::collection::vec(any::<bool>(), 12),
    ) {
        let g = SignedDigraph::from_edges(n, edges).unwrap();
        let kept: Vec<NodeId> = g
            .nodes()
            .filter(|u| keep_mask.get(u.index()).copied().unwrap_or(false))
            .collect();
        let (sub, map) = g.induced_subgraph(kept);
        for e in sub.edges() {
            let src = map.to_original(e.src).unwrap();
            let dst = map.to_original(e.dst).unwrap();
            let orig = g.edge(src, dst).expect("subgraph edge must exist in parent");
            prop_assert_eq!(orig.sign, e.sign);
            prop_assert!((orig.weight - e.weight).abs() < 1e-15);
        }
    }
}

// Every construction path must produce a graph that passes the debug
// invariant check (`SignedDigraph::validate`): the builder, CSR
// construction from an edge list, reversal, weight mapping, and induced
// subgraphs.
proptest! {
    #[test]
    fn builder_output_passes_validate((n, edges) in arb_edges(24, 60)) {
        let mut b = isomit_graph::SignedDigraphBuilder::with_nodes(n);
        for e in edges {
            b.add_edge(e.src, e.dst, e.sign, e.weight).unwrap();
        }
        prop_assert!(b.build().validate().is_ok());
    }

    #[test]
    fn derived_graphs_pass_validate((n, edges) in arb_edges(24, 60)) {
        let g = SignedDigraph::from_edges(n, edges).unwrap();
        prop_assert!(g.validate().is_ok());
        prop_assert!(g.reversed().validate().is_ok());
        prop_assert!(g
            .map_weights(|e| 0.25 + e.weight / 2.0)
            .validate()
            .is_ok());
    }

    #[test]
    fn induced_subgraph_passes_validate(
        (n, edges) in arb_edges(12, 40),
        keep_mask in proptest::collection::vec(any::<bool>(), 12),
    ) {
        let g = SignedDigraph::from_edges(n, edges).unwrap();
        let kept: Vec<NodeId> = g
            .nodes()
            .filter(|u| keep_mask.get(u.index()).copied().unwrap_or(false))
            .collect();
        let (sub, _map) = g.induced_subgraph(kept);
        prop_assert!(sub.validate().is_ok());
    }
}
