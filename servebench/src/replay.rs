//! The traced in-process replay: each workload's exact request lines go
//! through the same public functions the daemon calls, layer by layer,
//! with a span around each call. Replies are rebuilt the daemon's way
//! and compared with the expected bytes, so the replay also checks that
//! it followed the daemon's path.

use crate::inputs::{daemon_config, RidBase};
use crate::trace::Tracer;
use crate::wire::{equals_concat, OK_END, OK_HEAD, OK_MID};
use isomit_core::{
    external_support, extract_cascade_forest, ForestArtifacts, IncrementalRid, Rid, RidDelta,
    RidResult,
};
use isomit_diffusion::{par_estimate_infection_probabilities_wide, InfectedNetwork, SeedSet};
use isomit_graph::json::Value;
use isomit_graph::SignedDigraph;
use isomit_service::fingerprint::{fingerprint_bytes, snapshot_fingerprint};
use isomit_service::framing;
use isomit_service::protocol::{ok_line, ok_line_raw};
use isomit_service::server::shard_for_fingerprint;
use isomit_service::LruCache;
use rayon::prelude::*;
use std::hint::black_box;
use std::sync::{Arc, Mutex};

/// Replays one full-form `rid` request. With `artifacts` given (a
/// resident snapshot) the artifact-cache lookup is traced; without, the
/// extraction layers are traced and the artifacts for the query stage
/// come from an untraced `extract_stage` call between spans.
pub fn rid_full(
    tracer: &mut Tracer,
    rid: &Rid,
    base: &RidBase,
    id: &[u8],
    relabel: &[u8],
    artifacts: Option<&mut LruCache<u64, Arc<ForestArtifacts>>>,
) -> Result<(), String> {
    let line = base.line(id, relabel);
    let frame = tracer.span("framing.scan", |_| framing::scan(&line));
    let span = frame
        .and_then(|f| f.snapshot)
        .ok_or("rid line did not frame cleanly")?;
    let doc = tracer.span("json.parse", |_| Value::parse(&line));
    let doc = doc.map_err(|e| e.to_string())?;
    let snapshot = tracer.span("snapshot.build", |_| {
        doc.require("snapshot")
            .and_then(InfectedNetwork::from_json_value)
    });
    let snapshot = snapshot.map_err(|e| e.to_string())?;
    // io-side routing hash, then the engine's artifact-cache key.
    tracer.span("fingerprint", |_| {
        black_box(fingerprint_bytes(span.as_bytes()))
    });
    let key = tracer.span("fingerprint", |_| snapshot_fingerprint(&snapshot));
    let artifacts = match artifacts {
        Some(cache) => tracer
            .span("cache.lookup", |_| cache.get(&key))
            .ok_or("resident snapshot missing from the replay cache")?,
        None => {
            let trees = tracer.span("core.extract", |t| {
                let (trees, components) = t.span("extract.forest", |_| {
                    extract_cascade_forest(&snapshot, rid.alpha())
                });
                t.span("extract.support", |_| {
                    black_box(
                        trees
                            .par_iter()
                            .map(|tree| external_support(&snapshot, tree, rid.alpha()))
                            .collect::<Vec<_>>(),
                    )
                });
                (trees, components)
            });
            let artifacts = rid.extract_stage(&snapshot);
            if artifacts.trees() != trees.0.as_slice() || artifacts.component_count() != trees.1 {
                return Err("decomposed extraction differs from extract_stage".into());
            }
            Arc::new(artifacts)
        }
    };
    let detection = tracer.span("query.dp", |_| rid.query_stage(&snapshot, &artifacts));
    let detection = detection.map_err(|e| e.to_string())?;
    let id_value: u64 = std::str::from_utf8(id)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or("bad id")?;
    let reply = tracer.span("serialize", |_| {
        let payload = RidResult {
            config: rid.config(),
            detection,
        }
        .to_json_value()
        .to_json();
        ok_line_raw(id_value, &payload)
    });
    check(
        reply.as_bytes(),
        &[OK_HEAD, id, OK_MID, &base.result, OK_END],
    )
}

/// One shard's result cache as the daemon keeps it: (snapshot
/// fingerprint, config key) to the serialized result.
pub type ResultCache = Mutex<LruCache<(u64, u64), Arc<str>>>;

/// The daemon's result-cache key half for a request's raw `config` and
/// `detector` spans (`0xFF`-separated, hashed with FNV-1a). The server
/// keeps its own copy private; this one is byte for byte the same.
pub fn config_key(config: Option<&str>, detector: Option<&str>) -> u64 {
    let mut bytes = Vec::with_capacity(80);
    if let Some(config) = config {
        bytes.extend_from_slice(config.as_bytes());
    }
    bytes.push(0xFF);
    if let Some(detector) = detector {
        bytes.extend_from_slice(detector.as_bytes());
    }
    fingerprint_bytes(&bytes)
}

/// Replays one by-fingerprint `rid` request the way the daemon's io
/// thread answers a hit inline: the lookup span covers the rendezvous
/// shard choice, the config key, the shard lock and the cache lookup.
pub fn rid_hot(
    tracer: &mut Tracer,
    line: &str,
    shards: &[ResultCache],
    id: &[u8],
    expected: &[u8],
) -> Result<(), String> {
    let frame = tracer.span("framing.scan", |_| {
        framing::scan(line).and_then(|f| {
            let fp = f.fingerprint?.parse::<u64>().ok()?;
            Some((f, fp))
        })
    });
    let (frame, fp) = frame.ok_or("hot line did not frame cleanly")?;
    let payload = tracer
        .span("cache.lookup", |_| {
            let shard = shards.get(shard_for_fingerprint(fp, shards.len()))?;
            let key = (fp, config_key(frame.config, frame.detector));
            let hit = shard.lock().unwrap_or_else(|p| p.into_inner()).get(&key);
            hit
        })
        .ok_or("resident result missing from the replay cache")?;
    let reply = tracer.span("serialize", |_| ok_line_raw(frame.id, &payload));
    check(reply.as_bytes(), &[OK_HEAD, id, OK_MID, expected, OK_END])
}

/// Replays one simulate request.
pub fn simulate(
    tracer: &mut Tracer,
    graph: &SignedDigraph,
    line: &str,
    id: &[u8],
    expected: &[u8],
) -> Result<(), String> {
    let model = daemon_config().model().map_err(|e| e.to_string())?;
    let frame = tracer.span("framing.scan", |_| framing::scan(line).map(|f| f.id));
    let id_value = frame.ok_or("simulate line did not frame cleanly")?;
    let parsed = tracer.span("json.parse", |_| -> Result<_, String> {
        let doc = Value::parse(line).map_err(|e| e.to_string())?;
        let seeds = doc
            .require("seeds")
            .and_then(SeedSet::from_json_value)
            .map_err(|e| e.to_string())?;
        let runs = doc.get("runs").and_then(Value::as_usize).ok_or("runs")?;
        let seed = doc.get("seed").and_then(Value::as_u64).ok_or("seed")?;
        Ok((seeds, runs, seed))
    });
    let (seeds, runs, seed) = parsed?;
    let estimate = tracer.span("simulate.mc", |_| {
        par_estimate_infection_probabilities_wide(&model, graph, &seeds, runs, seed)
    });
    let estimate = estimate.map_err(|e| e.to_string())?;
    let reply = tracer.span("serialize", |_| ok_line(id_value, estimate.to_json_value()));
    check(reply.as_bytes(), &[OK_HEAD, id, OK_MID, expected, OK_END])
}

/// A watch session replayed the way the daemon's shard worker serves
/// it, producing each reply's bytes.
#[derive(Debug)]
pub struct WatchReplay {
    session: IncrementalRid,
    answer_every: u64,
}

impl WatchReplay {
    /// A fresh session under the daemon's default config.
    pub fn new(answer_every: u64) -> Result<WatchReplay, String> {
        Ok(WatchReplay {
            session: IncrementalRid::new(daemon_config()).map_err(|e| e.to_string())?,
            answer_every,
        })
    }

    /// Applies `delta` (request `id`), optionally through the wire
    /// layers of its pre-encoded `line`, and returns the reply line.
    pub fn step(
        &mut self,
        tracer: &mut Tracer,
        id: u64,
        delta: &RidDelta,
        line: Option<&str>,
    ) -> Result<String, String> {
        if let Some(line) = line {
            let frame = tracer.span("framing.scan", |_| framing::scan(line).map(|f| f.id));
            if frame != Some(id) {
                return Err("delta line did not frame cleanly".into());
            }
            let decoded = tracer.span("json.parse", |_| {
                Value::parse(line)
                    .and_then(|doc| doc.require("delta").and_then(RidDelta::from_json_value))
            });
            if decoded.map_err(|e| e.to_string())? != *delta {
                return Err("decoded delta differs from the script".into());
            }
        }
        let applied = tracer.span("watch.apply", |_| self.session.apply(delta));
        applied.map_err(|e| format!("script delta rejected: {e}"))?;
        let deltas = self.session.deltas_applied();
        if !deltas.is_multiple_of(self.answer_every) {
            let reply = tracer.span("serialize", |_| {
                ok_line(
                    id,
                    Value::Object(vec![
                        ("acked".into(), Value::Bool(true)),
                        ("deltas".into(), Value::Number(deltas as f64)),
                    ]),
                )
            });
            return Ok(reply);
        }
        let (result, outcome) = tracer.span("watch.answer", |_| {
            let answered = self.session.answer_detailed();
            // The daemon adopts fallback artifacts into its cache; take
            // them so the session evolves identically.
            black_box(self.session.take_fallback_artifacts());
            answered
        });
        Ok(tracer.span("serialize", |_| {
            let mut payload = result.to_json_value();
            if let Value::Object(fields) = &mut payload {
                fields.push(("deltas".into(), Value::Number(deltas as f64)));
                fields.push((
                    "dirty_components".into(),
                    Value::Number(outcome.dirty_components as f64),
                ));
                fields.push(("full_recompute".into(), Value::Bool(outcome.full_recompute)));
            }
            ok_line(id, payload)
        }))
    }
}

fn check(reply: &[u8], expected: &[&[u8]]) -> Result<(), String> {
    if equals_concat(reply, expected) {
        Ok(())
    } else {
        Err("replayed reply differs from the expected bytes".into())
    }
}
