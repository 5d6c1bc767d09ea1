//! The traced run: span attribution to layers and the JSONL trace file.
//!
//! The benchmark wraps each of its own calls into a layer in a span named
//! after that layer (`luc`, `core`, `serve`, ...). The program's own
//! spans (`tune.*`, `serve.*`, `luc.*`, `fleet.*`, `spec.*`) nest inside
//! them. A layer's self time is the time its spans cover minus the part
//! their child spans cover.

use crate::report::Outcome;
use edge_llm::telemetry::{self, Event, MonotonicClock, SpanNode};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// A traced pass and everything it recorded.
pub struct Traced {
    /// The pass's own measurements, kernel probe included.
    pub outcome: Outcome,
    /// Spans and counters, in recording order.
    pub events: Vec<Event>,
}

/// Runs `pass` and then the kernel probe with spans and counters kept in
/// memory.
///
/// # Errors
///
/// Propagates the pass's error (recording is stopped first).
pub fn traced(pass: impl FnOnce() -> Result<Outcome, String>) -> Result<Traced, String> {
    telemetry::enable(Arc::new(MonotonicClock::new()));
    let result = pass().and_then(|mut o| {
        crate::probe::run(&mut o.layer)?;
        Ok(o)
    });
    let events = telemetry::disable();
    Ok(Traced {
        outcome: result?,
        events,
    })
}

/// The layer a span belongs to. `serve.decode` wraps exactly the model's
/// batched decode pass, so its time is the model layer's.
pub fn layer_of(span: &str) -> &'static str {
    match span {
        "serve.decode" => "model",
        s if s.starts_with("tune.") || s.starts_with("spec.") || s == "model" => "model",
        s if s.starts_with("luc") => "luc",
        s if s.starts_with("serve") => "serve",
        s if s.starts_with("fleet") => "fleet",
        s if s.starts_with("adapt.") || s == "core" => "core",
        "hw" => "hw",
        "quant" => "quant",
        "tensor" => "tensor",
        _ => "other",
    }
}

fn self_ns(node: &SpanNode) -> u64 {
    let covered: u64 = node.children.iter().map(SpanNode::duration_ns).sum();
    node.duration_ns().saturating_sub(covered)
}

/// Self time summed per layer, milliseconds.
pub fn self_ms_by_layer(events: &[Event]) -> BTreeMap<&'static str, f64> {
    fn walk(node: &SpanNode, acc: &mut BTreeMap<&'static str, f64>) {
        *acc.entry(layer_of(node.name)).or_default() += self_ns(node) as f64 / 1e6;
        for c in &node.children {
            walk(c, acc);
        }
    }
    let mut acc = BTreeMap::new();
    for root in telemetry::span_tree(events) {
        walk(&root, &mut acc);
    }
    acc
}

/// Self time of every span called `name`, milliseconds.
pub fn self_ms_of(events: &[Event], name: &str) -> Vec<f64> {
    fn walk(node: &SpanNode, name: &str, out: &mut Vec<f64>) {
        if node.name == name {
            out.push(self_ns(node) as f64 / 1e6);
        }
        for c in &node.children {
            walk(c, name, out);
        }
    }
    let mut out = Vec::new();
    for root in telemetry::span_tree(events) {
        walk(&root, name, &mut out);
    }
    out
}

/// Writes the events as JSON lines.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write(path: &Path, events: &[Event]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut buf = Vec::new();
    telemetry::write_jsonl(&mut buf, events)?;
    std::fs::write(path, buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_spans_map_to_their_crates() {
        assert_eq!(layer_of("tune.backward"), "model");
        assert_eq!(layer_of("serve.decode"), "model");
        assert_eq!(layer_of("serve.step"), "serve");
        assert_eq!(layer_of("luc.profile"), "luc");
        assert_eq!(layer_of("fleet.run"), "fleet");
        assert_eq!(layer_of("adapt.checkpoint"), "core");
        assert_eq!(layer_of("quant"), "quant");
    }
}
