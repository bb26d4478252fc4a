//! Wall-clock scaling check for the JSON parser. It lives in its own
//! test binary so that no other test threads share the CPU while it
//! times itself: cargo runs test binaries one at a time.

use isomit_graph::json::Value;
use std::time::{Duration, Instant};

#[test]
fn string_heavy_parse_time_scales_linearly() {
    // Snapshot-like records: one short state string and one longer
    // label per node, with escapes and multibyte characters.
    fn document(records: usize) -> String {
        let items: Vec<String> = (0..records)
            .map(|i| format!(r#"{{"state":"+","label":"node {i} \"é\" \\ 中"}}"#))
            .collect();
        format!("[{}]", items.join(","))
    }
    fn best_of_5(text: &str) -> Duration {
        (0..5)
            .map(|_| {
                let started = Instant::now();
                let parsed = Value::parse(text);
                let elapsed = started.elapsed();
                assert!(parsed.is_ok());
                elapsed
            })
            .min()
            .expect("five timings")
    }
    // Linear parsing reads ~4 here and quadratic ~16, so a 6x bound
    // leaves room for noise on both sides.
    let small = document(2_000);
    let large = document(8_000);
    let ratio = best_of_5(&large).as_secs_f64() / best_of_5(&small).as_secs_f64();
    assert!(
        ratio <= 6.0,
        "quadrupling a {} byte document multiplied parse time by {ratio:.2}",
        small.len()
    );
}
