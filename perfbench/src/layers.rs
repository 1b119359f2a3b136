//! The per-layer metrics a traced run reports, named
//! `<crate>.<module>.<metric>`. Every traced run prints all of them; a
//! layer a workload does not exercise reads 0 there.
//!
//! Times are medians over the traced operations of each layer's self
//! time, attributed from caller-side spans. Where a layer has no public
//! entry point of its own, its time is the difference between public
//! calls (see each workload's `attribute`).

pub const CATALOGUE: [(&str, &str); 57] = [
    // Input parsing (basket file → vertical store), minus the store build.
    ("serve.formats.parse_ms", "ms"),
    ("serve.formats.bytes", "bytes"),
    // Canonical fingerprinting of a daemon mine input (append requests).
    ("serve.canon.ms", "ms"),
    ("serve.canon.bytes", "bytes"),
    ("mining.vstore.build_ms", "ms"),
    // Apriori's own time: the call minus candidate generation.
    ("mining.apriori.ms", "ms"),
    ("mining.apriori.queries", "count"),
    ("mining.apriori.itemsets", "count"),
    ("core.candidates.ms", "ms"),
    ("core.candidates.count", "count"),
    // The Corollary 4 check inside `mine --maximal`.
    ("core.border.selfcheck_ms", "ms"),
    ("core.border.queries", "count"),
    // The planner on the check's own instance, the complements of MTh.
    ("hypergraph.plan.dualize_ms", "ms"),
    ("hypergraph.plan.backend", "id"),
    ("hypergraph.plan.transversals", "count"),
    ("hypergraph.plan.nodes", "count"),
    // The planner on the daemon's small transversal inputs, one per rule
    // (the hub-shaped input takes the dense default), and the backend
    // each one ran.
    ("hypergraph.plan.small_us.cosparse", "us"),
    ("hypergraph.plan.small_us.matching", "us"),
    ("hypergraph.plan.small_us.dense_default", "us"),
    ("hypergraph.plan.small_backend.cosparse", "id"),
    ("hypergraph.plan.small_backend.matching", "id"),
    ("hypergraph.plan.small_backend.dense_default", "id"),
    ("fdep.keys.ms", "ms"),
    // Rendering the mine body, and its size.
    ("serve.exec.render_ms", "ms"),
    ("serve.exec.body_bytes", "bytes"),
    // Checkpoint writes on the segment-major engine.
    ("core.checkpoint.ms", "ms"),
    ("core.checkpoint.saves", "count"),
    ("core.checkpoint.bytes_written", "bytes"),
    ("mining.seg.ms", "ms"),
    ("mining.incremental.ms", "ms"),
    ("mining.incremental.queries", "count"),
    // Daemon cache, over the whole timed window.
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.cache.incremental", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.entries", "count"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.lookup_us", "us"),
    // The warm hit's reply path.
    ("serve.proto.encode_ms", "ms"),
    ("serve.proto.decode_ms", "ms"),
    ("serve.proto.frame_bytes", "bytes"),
    ("serve.client.transport_ms", "ms"),
    ("serve.server.errors", "count"),
    ("serve.server.shed", "count"),
    ("serve.server.coalesced", "count"),
    // Per-operation-type daemon latency (serve_mix), from the untraced
    // half of the run.
    ("failed_share", "ratio"),
    ("hit_p50_ms", "ms"),
    ("hit_tail_ms", "ms"),
    ("append_p50_ms", "ms"),
    ("append_tail_ms", "ms"),
    ("small_p50_ms", "ms"),
    ("small_tail_ms", "ms"),
    // Bench-level: the traced operation's wall time, the shares that
    // define each one-shot workload, and what the spans themselves cost.
    ("bench.op_ms", "ms"),
    ("bench.share.selfcheck_pct", "%"),
    ("bench.share.apriori_pct", "%"),
    ("bench.share.checkpoint_pct", "%"),
    ("bench.trace.overhead_pct", "%"),
];

/// Stable numeric ids for `hypergraph.plan.backend` (metric values are
/// numbers; the name is printed beside it).
pub const BACKENDS: [&str; 7] = ["auto", "berge", "fk", "levelwise", "mmcs", "mu-mmcs", "egm"];

pub fn backend_id(name: &str) -> f64 {
    BACKENDS
        .iter()
        .position(|&b| b == name)
        .map_or(-1.0, |i| i as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = CATALOGUE.iter().map(|(n, _)| *n).collect();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CATALOGUE.len());
        assert_eq!(backend_id("mu-mmcs"), 5.0);
    }
}
