//! Seeded workload inputs and their expected replies: the served
//! network, the rid snapshot pool, the simulate requests and the watch
//! delta script. Everything is a pure function of the workload seed.
//!
//! Request lines are pre-encoded as byte pieces. A request is sent as
//! `{"id":` + token + body, where the token is a pre-encoded decimal
//! that is also the request id. For `rid` lines the token additionally
//! replaces one entry of the snapshot's `mapping` (the original id of a
//! node that is not an initiator), which makes every cold snapshot
//! content-unique without changing its answer.

use isomit_core::{InitiatorDetector, Rid, RidConfig, RidDelta, RidResult};
use isomit_diffusion::{par_estimate_infection_probabilities_wide, InfectedNetwork, SeedSet};
use isomit_graph::{NodeId, NodeState, Sign, SignedDigraph};
use isomit_service::fingerprint::fingerprint_bytes;
use isomit_service::protocol::{encode_request, RequestBody};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// SplitMix64 finalizer: derives independent sub-seeds from the
/// workload seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `isomit-serve`'s default `--scale` for `--generate epinions`.
pub const NETWORK_SCALE: f64 = 0.05;

/// The network `isomit-serve --generate epinions --seed <seed>` serves,
/// rebuilt in-process for the simulate oracle (same generator, scale
/// and RNG draw order as the daemon's loader).
pub fn served_network(network_seed: u64) -> SignedDigraph {
    let mut rng = StdRng::seed_from_u64(network_seed);
    let social = isomit_datasets::epinions_like_scaled(NETWORK_SCALE, &mut rng);
    isomit_datasets::paper_weights(&social, &mut rng)
}

/// The detector config `isomit-serve` answers with by default
/// (`--alpha 3 --beta 0.1`). Set-up checks warm-up and priming replies
/// against it, so a changed daemon default fails set-up instead of
/// going unnoticed.
pub fn daemon_config() -> RidConfig {
    RidConfig {
        alpha: 3.0,
        beta: 0.1,
        ..RidConfig::default()
    }
}

/// First pre-encoded token; every token has ten digits, so request
/// lines of one base snapshot all have the same length.
pub const TOKEN_BASE: u64 = 1_000_000_000;

/// `count` pre-encoded request tokens starting at `first`.
pub fn tokens(first: u64, count: usize) -> Vec<Vec<u8>> {
    (0..count as u64)
        .map(|i| (TOKEN_BASE + first + i).to_string().into_bytes())
        .collect()
}

/// Size class of a generated rid snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// 2,000 infected nodes, ~0.4 MB request lines.
    Small,
    /// 10,000 infected nodes, ~2 MB request lines.
    Large,
    /// 400 infected nodes: `repeat_rid`'s resident snapshots, small
    /// enough that its mix sustains thousands of requests per second.
    Resident,
}

impl Size {
    /// Network scale, planted initiators and infected nodes kept.
    fn scenario(self) -> (f64, usize, usize) {
        match self {
            Size::Small => (0.03, 150, 2_000),
            Size::Large => (0.15, 1_200, 10_000),
            Size::Resident => (0.03, 30, 400),
        }
    }
}

/// One base snapshot of the rid pool with its pre-encoded line pieces
/// and its expected answer.
#[derive(Debug, Clone)]
pub struct RidBase {
    /// Size class.
    pub size: Size,
    /// `,"type":"rid","snapshot":` plus the snapshot text before the
    /// relabelled mapping entry.
    pub head: Vec<u8>,
    /// The snapshot text after the relabelled entry, `}` and newline.
    pub tail: Vec<u8>,
    /// Expected `result` payload of every reply (`RidResult` JSON).
    pub result: Vec<u8>,
}

impl RidBase {
    /// `count` base snapshots of `size` from `seed`, answered with the
    /// in-process detector. Each is an MFC cascade on an Epinions-like
    /// network of its own, observed when exactly the size's node count
    /// is infected, so request cost varies little across seeds: a seed's
    /// pool averages over `count` networks instead of sharing one
    /// network's cost.
    pub fn pool(seed: u64, size: Size, count: usize, rid: &Rid) -> Vec<RidBase> {
        let (scale, initiators, nodes) = size.scenario();
        let config = isomit_datasets::ScenarioConfig::default().with_initiators(initiators);
        (0..count as u64)
            .map(|base| {
                let mut rng = StdRng::seed_from_u64(mix(seed, 0xBA5E + base));
                let social = isomit_datasets::epinions_like_scaled(scale, &mut rng);
                (0u64..)
                    .find_map(|attempt| {
                        let mut rng = StdRng::seed_from_u64(mix(mix(seed, base), attempt));
                        let scenario = isomit_datasets::build_scenario(&social, &config, &mut rng);
                        Self::observe(&scenario, nodes, size, rid)
                    })
                    .expect("the search over attempts is unbounded")
            })
            .collect()
    }

    /// The snapshot of `scenario` taken when its first `nodes` nodes
    /// (seeds, then activations in order) are infected; `None` if the
    /// cascade stays smaller or every node is an initiator.
    fn observe(
        scenario: &isomit_datasets::Scenario,
        nodes: usize,
        size: Size,
        rid: &Rid,
    ) -> Option<RidBase> {
        let cascade = &scenario.cascade;
        let mut states = vec![NodeState::Inactive; scenario.diffusion.node_count()];
        let order = cascade
            .seeds()
            .iter()
            .map(|(node, _)| node)
            .chain(cascade.events().iter().map(|e| e.dst));
        let mut kept = 0;
        for node in order {
            if kept == nodes {
                break;
            }
            if states[node.index()] == NodeState::Inactive {
                states[node.index()] = cascade.state(node);
                kept += 1;
            }
        }
        if kept < nodes {
            return None;
        }
        let snapshot = InfectedNetwork::from_states(&scenario.diffusion, &states);
        let detection = rid.detect(&snapshot);
        let chosen: BTreeSet<NodeId> = detection.nodes().into_iter().collect();
        let relabel = snapshot
            .mapping()
            .original_ids()
            .iter()
            .position(|id| !chosen.contains(id))?;
        let result = RidResult {
            config: rid.config(),
            detection,
        }
        .to_json_value()
        .to_json();
        let text = snapshot.to_json_string();
        let (before, after) = split_mapping_entry(&text, relabel);
        let mut head = b",\"type\":\"rid\",\"snapshot\":".to_vec();
        head.extend_from_slice(before.as_bytes());
        let mut tail = after.as_bytes().to_vec();
        tail.extend_from_slice(b"}\n");
        Some(RidBase {
            size,
            head,
            tail,
            result: result.into_bytes(),
        })
    }

    /// The request line pieces: request `id`, with the relabelled
    /// mapping entry set to `relabel` (which picks the snapshot's
    /// identity; the id only correlates the reply).
    pub fn parts<'a>(&'a self, id: &'a [u8], relabel: &'a [u8]) -> [&'a [u8]; 5] {
        [b"{\"id\":", id, &self.head, relabel, &self.tail]
    }

    /// Bytes of one request line, newline included.
    pub fn line_len(&self, token: &[u8]) -> usize {
        self.parts(token, token).iter().map(|p| p.len()).sum()
    }

    /// The assembled request line, without its newline.
    pub fn line(&self, id: &[u8], relabel: &[u8]) -> String {
        let mut line = self.parts(id, relabel).concat();
        line.pop();
        String::from_utf8(line).expect("pieces are UTF-8")
    }

    /// The snapshot's content fingerprint as the daemon computes it:
    /// FNV-1a over the snapshot span of the request line.
    pub fn fingerprint(&self, relabel: &[u8]) -> u64 {
        let prefix = b",\"type\":\"rid\",\"snapshot\":".len();
        let mut span = self.head[prefix..].to_vec();
        span.extend_from_slice(relabel);
        span.extend_from_slice(&self.tail[..self.tail.len() - 2]);
        fingerprint_bytes(&span)
    }
}

/// Splits canonical snapshot JSON around the digits of `mapping` entry
/// `index` (the mapping is the snapshot object's last field).
fn split_mapping_entry(text: &str, index: usize) -> (&str, &str) {
    let key = "\"mapping\":[";
    let mut start = text.rfind(key).expect("canonical snapshot has a mapping") + key.len();
    for _ in 0..index {
        start += text[start..].find(',').expect("mapping has the entry") + 1;
    }
    let end = start
        + text[start..]
            .find([',', ']'])
            .expect("mapping entry is terminated");
    (&text[..start], &text[end..])
}

/// A pre-encoded request body (everything after the id) for the
/// requests whose line does not embed the token elsewhere.
pub fn body_after_id(body: &RequestBody) -> Vec<u8> {
    let mut line = encode_request(0, body);
    line.push('\n');
    line.strip_prefix("{\"id\":0")
        .expect("encoded requests start with their id")
        .as_bytes()
        .to_vec()
}

/// One simulate request with its expected `result` payload.
#[derive(Debug, Clone)]
pub struct SimulateCase {
    /// Pre-encoded body after the id.
    pub body: Vec<u8>,
    /// Expected `result` payload.
    pub result: Vec<u8>,
}

/// Monte-Carlo runs per simulate request (two full 64-lane batches).
pub const SIMULATE_RUNS: usize = 128;
/// Rumor seeds per simulate request.
pub const SIMULATE_SEEDS: usize = 20;

/// Simulate requests on `graph`, answered in-process with the same
/// wide estimator and model the daemon uses. `quota[shard]` says how
/// many requests may route to each daemon shard (the daemon routes a
/// simulate request by the fingerprint of its `seeds` span); candidate
/// seed sets are drawn until every quota is met.
pub fn simulate_cases(
    seed: u64,
    graph: &SignedDigraph,
    shards: usize,
    mut quota: Vec<usize>,
) -> Vec<SimulateCase> {
    let model = daemon_config().model().expect("valid default alpha");
    let mut cases = Vec::new();
    for i in 0u64.. {
        if quota.iter().all(|&q| q == 0) {
            break;
        }
        let mut rng = StdRng::seed_from_u64(mix(seed, 0x51A0 + i));
        let seeds = SeedSet::sample(graph, SIMULATE_SEEDS, 0.5, &mut rng);
        let route = fingerprint_bytes(seeds.to_json_value().to_json().as_bytes());
        let left = &mut quota[isomit_service::server::shard_for_fingerprint(route, shards)];
        if *left == 0 {
            continue;
        }
        *left -= 1;
        let master = mix(seed, 0x5EED + i) >> 12;
        let estimate =
            par_estimate_infection_probabilities_wide(&model, graph, &seeds, SIMULATE_RUNS, master)
                .expect("sampled seeds are valid");
        cases.push(SimulateCase {
            body: body_after_id(&RequestBody::Simulate {
                seeds,
                runs: SIMULATE_RUNS,
                seed: master,
            }),
            result: estimate.to_json_value().to_json().into_bytes(),
        });
    }
    cases
}

/// Shape of the watch session: seeded communities, then a streamed
/// script of infections, edges and state flips.
#[derive(Debug, Clone, Copy)]
pub struct WatchShape {
    /// Communities seeded during set-up.
    pub communities: usize,
    /// Infected nodes per seeded community.
    pub members: usize,
    /// Edges per seeded community.
    pub edges_per_community: usize,
    /// Every `answer_every`-th delta gets a full answer.
    pub answer_every: u64,
    /// Consecutive streamed deltas that stay inside one community.
    pub burst: usize,
}

/// The default session: 100 communities of 100 nodes and 500 edges
/// (10k nodes, 50k edges), answering every 256th delta. Streamed deltas
/// come in bursts of 32 inside one community, so an answer finds a few
/// dirty communities rather than all of them. Every answer lists the
/// whole session's initiators (~10k), which is why answers are sparse:
/// seeding alone sends 60k deltas.
pub const WATCH_SHAPE: WatchShape = WatchShape {
    communities: 100,
    members: 100,
    edges_per_community: 500,
    answer_every: 256,
    burst: 32,
};

/// Generates deltas that the session always accepts: it tracks which
/// nodes are infected, their states, their communities and the edges
/// already present.
#[derive(Debug)]
pub struct DeltaScript {
    rng: StdRng,
    shape: WatchShape,
    states: Vec<NodeState>,
    members: Vec<Vec<u32>>,
    edges: BTreeSet<(u32, u32)>,
    streamed: usize,
    current: usize,
}

impl DeltaScript {
    /// A fresh script over an empty session.
    pub fn new(seed: u64, shape: WatchShape) -> DeltaScript {
        DeltaScript {
            rng: StdRng::seed_from_u64(mix(seed, 0x3A7C)),
            shape,
            states: Vec::new(),
            members: vec![Vec::new(); shape.communities],
            edges: BTreeSet::new(),
            streamed: 0,
            current: 0,
        }
    }

    fn infect(&mut self, community: usize) -> RidDelta {
        let node = self.states.len();
        let state = if self.rng.gen_bool(0.8) {
            NodeState::Positive
        } else {
            NodeState::Negative
        };
        self.states.push(state);
        self.members[community].push(node as u32);
        RidDelta::Infect {
            node: NodeId::from_index(node),
            state,
        }
    }

    /// A new edge between two infected members of `community`; `None`
    /// after repeated collisions.
    fn edge_in(&mut self, community: usize) -> Option<RidDelta> {
        let members = &self.members[community];
        if members.len() < 2 {
            return None;
        }
        for _ in 0..16 {
            let src = members[self.rng.gen_range(0..members.len())];
            let dst = members[self.rng.gen_range(0..members.len())];
            if src == dst || !self.edges.insert((src, dst)) {
                continue;
            }
            return Some(RidDelta::AddEdge {
                src: NodeId(src),
                dst: NodeId(dst),
                sign: if self.rng.gen_bool(0.85) {
                    Sign::Positive
                } else {
                    Sign::Negative
                },
                weight: 0.02 + 0.28 * self.rng.gen_range(0.0..1.0),
            });
        }
        None
    }

    /// The set-up deltas: every member, then the edges one community at
    /// a time.
    pub fn seeding(&mut self) -> Vec<RidDelta> {
        let shape = self.shape;
        let mut deltas = Vec::new();
        for community in 0..shape.communities {
            for _ in 0..shape.members {
                deltas.push(self.infect(community));
            }
        }
        for community in 0..shape.communities {
            let mut added = 0;
            while added < shape.edges_per_community {
                if let Some(edge) = self.edge_in(community) {
                    deltas.push(edge);
                    added += 1;
                }
            }
        }
        deltas
    }

    /// The next streamed delta inside the current burst's community:
    /// 5% fresh infections joining it, 55% new edges, 40% state flips.
    pub fn next_delta(&mut self) -> RidDelta {
        if self.streamed.is_multiple_of(self.shape.burst) {
            self.current = self.rng.gen_range(0..self.shape.communities);
        }
        self.streamed += 1;
        let community = self.current;
        loop {
            let roll = self.rng.gen_range(0..100u32);
            if roll < 5 {
                return self.infect(community);
            }
            if roll < 60 {
                if let Some(edge) = self.edge_in(community) {
                    return edge;
                }
                continue;
            }
            let members = &self.members[community];
            let node = members[self.rng.gen_range(0..members.len())] as usize;
            let state = match self.states[node] {
                NodeState::Positive => NodeState::Negative,
                _ => NodeState::Positive,
            };
            self.states[node] = state;
            return RidDelta::FlipState {
                node: NodeId::from_index(node),
                state,
            };
        }
    }
}

/// Pre-encoded body (after the id) of a `watch_delta` request.
pub fn delta_body(delta: &RidDelta) -> Vec<u8> {
    body_after_id(&RequestBody::WatchDelta { delta: *delta })
}

/// Snapshot of a base request line as the daemon would decode it; used
/// by the traced replay, never inside a timed window.
pub fn decode_snapshot(line: &str) -> InfectedNetwork {
    let doc = isomit_graph::json::Value::parse(line).expect("generated lines are JSON");
    InfectedNetwork::from_json_value(doc.require("snapshot").expect("rid line has a snapshot"))
        .expect("generated snapshots are valid")
}
