//! JSONL export/import for [`Snapshot`]s.
//!
//! One JSON object per line, three shapes:
//!
//! ```text
//! {"kind":"counter","name":"crypto.channel.bytes_out","value":4096}
//! {"kind":"gauge","name":"core.pipeline.p0.queue_depth","value":3}
//! {"kind":"histogram","name":"core.pipeline.p0.checkpoint_latency_ns",
//!  "count":32,"sum":123456,"min":800,"max":9000,"p50":3100,"p95":8200,"p99":9000}
//! ```
//!
//! The importer accepts exactly this schema (any key order) so exported
//! snapshots round-trip ([`crate::json::parse_flat`]).

use crate::json::{escape, parse_flat, Value};
use crate::registry::{HistogramSummary, Snapshot};
use std::fmt::Write as _;

impl Snapshot {
    /// Serialises the snapshot as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(
                out,
                "{{\"kind\":\"counter\",\"name\":{},\"value\":{value}}}",
                escape(name)
            );
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(
                out,
                "{{\"kind\":\"gauge\",\"name\":{},\"value\":{value}}}",
                escape(name)
            );
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "{{\"kind\":\"histogram\",\"name\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                escape(name),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.p50,
                h.p95,
                h.p99
            );
        }
        out
    }

    /// Parses a snapshot back from [`Snapshot::to_jsonl`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_jsonl(text: &str) -> Result<Snapshot, String> {
        let mut snap = Snapshot::default();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let fields = parse_flat(line)
                .map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let kind = fields
                .get("kind")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("line {}: missing kind", lineno + 1))?;
            let name = fields
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("line {}: missing name", lineno + 1))?
                .to_owned();
            let int = |key: &str| -> Result<i128, String> {
                fields
                    .get(key)
                    .and_then(Value::as_int)
                    .ok_or_else(|| format!("line {}: missing {key}", lineno + 1))
            };
            match kind {
                "counter" => {
                    snap.counters.insert(name, int("value")? as u64);
                }
                "gauge" => {
                    snap.gauges.insert(name, int("value")? as i64);
                }
                "histogram" => {
                    snap.histograms.insert(
                        name,
                        HistogramSummary::from_parts(
                            int("count")? as u64,
                            int("sum")? as u64,
                            int("min")? as u64,
                            int("max")? as u64,
                            int("p50")? as u64,
                            int("p95")? as u64,
                            int("p99")? as u64,
                        ),
                    );
                }
                other => return Err(format!("line {}: unknown kind {other:?}", lineno + 1)),
            }
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn round_trip_preserves_everything() {
        let r = Registry::new();
        r.counter("a.count").add(42);
        r.gauge("b.depth").set(-7);
        let h = r.histogram("c.latency_ns");
        for v in [100u64, 200, 300, 4000, 50_000] {
            h.record(v);
        }
        let snap = r.snapshot();
        let text = snap.to_jsonl();
        let back = Snapshot::from_jsonl(&text).expect("parses");
        assert_eq!(back, snap);
    }

    #[test]
    fn escaped_names_survive() {
        let r = Registry::new();
        r.counter("weird \"name\"\\with\tescapes").add(1);
        let snap = r.snapshot();
        let back = Snapshot::from_jsonl(&snap.to_jsonl()).expect("parses");
        assert_eq!(back, snap);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = Snapshot::default();
        assert_eq!(Snapshot::from_jsonl(&snap.to_jsonl()).expect("parses"), snap);
    }

    #[test]
    fn rerender_is_byte_identical() {
        // export -> parse -> re-render must be lossless down to the byte,
        // independent of registration order.
        let r = Registry::new();
        r.gauge("z.depth").set(3);
        r.counter("m.count").add(9);
        r.histogram("a.latency_ns").record(1234);
        r.counter("a.count").add(1);
        let text = r.snapshot().to_jsonl();
        let back = Snapshot::from_jsonl(&text).expect("parses");
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn export_order_is_deterministic() {
        // Two registries fed the same metrics in different orders must
        // export identical bytes: kinds grouped, names sorted within.
        let a = Registry::new();
        a.counter("b").inc();
        a.counter("a").inc();
        a.gauge("g2").set(1);
        a.gauge("g1").set(1);
        let b = Registry::new();
        b.gauge("g1").set(1);
        b.gauge("g2").set(1);
        b.counter("a").inc();
        b.counter("b").inc();
        assert_eq!(a.snapshot().to_jsonl(), b.snapshot().to_jsonl());
        assert_eq!(a.snapshot().to_jsonl().lines().count(), 4);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Snapshot::from_jsonl("{\"kind\":\"counter\"}").is_err());
        assert!(Snapshot::from_jsonl("not json").is_err());
        assert!(
            Snapshot::from_jsonl("{\"kind\":\"rate\",\"name\":\"x\",\"value\":1}").is_err()
        );
    }
}
