//! Merkle-chained checkpoint transcripts for offline audit.
//!
//! Every **voted** checkpoint verdict (async quorum pass, sync
//! agreement, divergence) appends a [`TranscriptEntry`]; fast-path
//! forwards are deliberately excluded because nothing cross-checked
//! them. Rendering produces a JSONL artifact in which entry *i* carries
//!
//! ```text
//! chain_i = SHA-256(chain_{i-1} || partition || batch || epoch
//!                   || verdict_tag || payload_digest)
//! ```
//!
//! with `chain_{-1} = SHA-256(header line)`, so the header (schema,
//! seed, config fingerprint) is welded into the chain, and a footer
//! repeating the entry count and final chain head makes even an empty
//! or truncated transcript tamper-evident. [`verify_transcript`]
//! replays the chain and reports the first tamper or gap.
//!
//! # Determinism
//!
//! Coordinator threads append concurrently, so in-memory order is
//! nondeterministic; [`TranscriptLog::render`] therefore sorts entries
//! by `(batch, partition)` — a total order, because each partition
//! reaches at most one voted verdict per batch — before chaining.
//! For a fixed seed the rendered transcript is byte-identical across
//! runs.

use crate::events::count;
use mvtee_crypto::sha256::sha256;
use mvtee_tensor::Tensor;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Schema tag stamped into the transcript header and footer.
pub const TRANSCRIPT_SCHEMA: &str = "mvtee-audit-v1";

/// The voted outcome recorded for one checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranscriptVerdict {
    /// The panel agreed; `agreeing` variants vouched for the output.
    Pass {
        /// Number of variants that agreed on the forwarded output.
        agreeing: usize,
    },
    /// The panel diverged; `dissenting` variant indices disagreed with
    /// the (possible) majority.
    Diverged {
        /// Variant indices voted out by the majority.
        dissenting: Vec<usize>,
    },
}

impl TranscriptVerdict {
    /// Canonical string form hashed into the chain, e.g. `pass:3` or
    /// `diverged:0,2`.
    pub fn tag(&self) -> String {
        match self {
            TranscriptVerdict::Pass { agreeing } => format!("pass:{agreeing}"),
            TranscriptVerdict::Diverged { dissenting } => {
                let list: Vec<String> = dissenting.iter().map(usize::to_string).collect();
                format!("diverged:{}", list.join(","))
            }
        }
    }

    fn parse(tag: &str) -> Option<TranscriptVerdict> {
        if let Some(n) = tag.strip_prefix("pass:") {
            return n.parse().ok().map(|agreeing| TranscriptVerdict::Pass { agreeing });
        }
        if let Some(list) = tag.strip_prefix("diverged:") {
            if list.is_empty() {
                return Some(TranscriptVerdict::Diverged { dissenting: Vec::new() });
            }
            let dissenting: Option<Vec<usize>> =
                list.split(',').map(|v| v.parse().ok()).collect();
            return dissenting.map(|dissenting| TranscriptVerdict::Diverged { dissenting });
        }
        None
    }
}

/// One voted checkpoint in the transcript.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranscriptEntry {
    /// Partition whose checkpoint this is.
    pub partition: usize,
    /// Pipeline batch number.
    pub batch: u64,
    /// Sum of the partition's per-variant channel epochs at the vote.
    pub epoch: u64,
    /// The voted verdict.
    pub verdict: TranscriptVerdict,
    /// SHA-256 over the checkpoint payload (shapes + f32 bits).
    pub payload_digest: [u8; 32],
}

/// Thread-safe append-only log of voted checkpoint verdicts.
///
/// Cloning shares the underlying log; coordinators for different
/// partitions append concurrently.
#[derive(Debug, Clone, Default)]
pub struct TranscriptLog {
    inner: Arc<Mutex<Vec<TranscriptEntry>>>,
}

impl TranscriptLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one voted verdict.
    pub fn record(&self, entry: TranscriptEntry) {
        self.inner.lock().expect("transcript lock").push(entry);
        count!("audit.transcript.entries");
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("transcript lock").len()
    }

    /// Whether no verdict has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies out the entries in canonical `(batch, partition)` order.
    pub fn entries(&self) -> Vec<TranscriptEntry> {
        let mut entries = self.inner.lock().expect("transcript lock").clone();
        entries.sort_by_key(|e| (e.batch, e.partition));
        entries
    }

    /// Renders the Merkle-chained JSONL transcript.
    ///
    /// `seed` and `fingerprint` identify the run configuration; both are
    /// hashed into the genesis link via the header line.
    pub fn render(&self, seed: u64, fingerprint: &str) -> String {
        let entries = self.entries();
        let header = format!(
            "{{\"schema\":\"{TRANSCRIPT_SCHEMA}\",\"seed\":{seed},\"fingerprint\":{}}}",
            json_escape(fingerprint)
        );
        let mut out = String::new();
        let _ = writeln!(out, "{header}");
        let mut chain = sha256(header.as_bytes());
        for (seq, e) in entries.iter().enumerate() {
            chain = chain_hash(&chain, e);
            let _ = writeln!(out, "{}", entry_line(seq, e, &chain));
        }
        let _ = writeln!(
            out,
            "{{\"footer\":\"{TRANSCRIPT_SCHEMA}\",\"entries\":{},\"head\":\"{}\"}}",
            entries.len(),
            hex(&chain),
        );
        out
    }
}

/// SHA-256 digest over a checkpoint payload: for each tensor, its rank,
/// dimensions and f32 element bit patterns, all little-endian.
pub fn payload_digest(tensors: &[Tensor]) -> [u8; 32] {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(tensors.len() as u64).to_le_bytes());
    for t in tensors {
        let dims = t.dims();
        buf.extend_from_slice(&(dims.len() as u64).to_le_bytes());
        for &d in dims {
            buf.extend_from_slice(&(d as u64).to_le_bytes());
        }
        for &v in t.data() {
            buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    sha256(&buf)
}

/// The one rendering of entry `seq`, whose link is `chain`.
fn entry_line(seq: usize, e: &TranscriptEntry, chain: &[u8; 32]) -> String {
    format!(
        "{{\"seq\":{seq},\"partition\":{},\"batch\":{},\"epoch\":{},\"verdict\":{},\"payload\":\"{}\",\"chain\":\"{}\"}}",
        e.partition,
        e.batch,
        e.epoch,
        json_escape(&e.verdict.tag()),
        hex(&e.payload_digest),
        hex(chain),
    )
}

fn chain_hash(prev: &[u8; 32], e: &TranscriptEntry) -> [u8; 32] {
    let tag = e.verdict.tag();
    let mut buf = Vec::with_capacity(32 + 8 * 4 + tag.len() + 32);
    buf.extend_from_slice(prev);
    buf.extend_from_slice(&(e.partition as u64).to_le_bytes());
    buf.extend_from_slice(&e.batch.to_le_bytes());
    buf.extend_from_slice(&e.epoch.to_le_bytes());
    buf.extend_from_slice(&(tag.len() as u64).to_le_bytes());
    buf.extend_from_slice(tag.as_bytes());
    buf.extend_from_slice(&e.payload_digest);
    sha256(&buf)
}

fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(out, "{b:02x}");
    }
    out
}

fn from_hex(s: &str) -> Option<Vec<u8>> {
    let digit = |b: u8| char::from(b).to_digit(16);
    let byte = |pair: &[u8]| match *pair {
        [hi, lo] => Some((digit(hi)? << 4 | digit(lo)?) as u8),
        _ => None,
    };
    s.as_bytes().chunks(2).map(byte).collect()
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Why a transcript failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// A line is not parseable transcript JSON.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        detail: String,
    },
    /// A chain link, head, ordering or field digest does not replay.
    Tamper {
        /// 1-based line number of the offending entry.
        line: usize,
        /// What went wrong.
        detail: String,
    },
    /// A sequence number or the footer count shows missing entries.
    Gap {
        /// 1-based line number where the gap was detected.
        line: usize,
        /// What went wrong.
        detail: String,
    },
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::Parse { line, detail } => write!(f, "line {line}: parse error: {detail}"),
            AuditError::Tamper { line, detail } => write!(f, "line {line}: TAMPER: {detail}"),
            AuditError::Gap { line, detail } => write!(f, "line {line}: GAP: {detail}"),
        }
    }
}

impl std::error::Error for AuditError {}

/// Result of a successful transcript verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditSummary {
    /// Seed from the header.
    pub seed: u64,
    /// Config fingerprint from the header.
    pub fingerprint: String,
    /// Total verified entries.
    pub entries: usize,
    /// Distinct partitions seen.
    pub partitions: usize,
    /// Entries with a `pass` verdict.
    pub passes: usize,
    /// Entries with a `diverged` verdict.
    pub divergences: usize,
    /// Final chain head, hex-encoded.
    pub head: String,
}

/// Replays a rendered transcript's hash chain.
///
/// # Errors
///
/// Returns the first [`AuditError`] found: unparseable lines or integers
/// out of their field's range, any chain link or footer head that does
/// not recompute (tamper), an entry line that is not exactly as rendered
/// (tamper), out-of-order or duplicate `(batch, partition)` keys
/// (tamper), or sequence/count discontinuities (gap).
pub fn verify_transcript(text: &str) -> Result<AuditSummary, AuditError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or(AuditError::Parse { line: 1, detail: "empty transcript".into() })?;
    let header_fields = parse_flat(header)
        .map_err(|detail| AuditError::Parse { line: 1, detail })?;
    let schema = header_fields
        .get("schema")
        .and_then(Field::as_str)
        .ok_or(AuditError::Parse { line: 1, detail: "missing schema".into() })?;
    if schema != TRANSCRIPT_SCHEMA {
        return Err(AuditError::Parse {
            line: 1,
            detail: format!("unknown schema {schema:?}"),
        });
    }
    let seed: u64 = int_field(&header_fields, "seed", 1)?;
    let fingerprint = header_fields
        .get("fingerprint")
        .and_then(Field::as_str)
        .ok_or(AuditError::Parse { line: 1, detail: "missing fingerprint".into() })?
        .to_owned();

    let mut chain = sha256(header.as_bytes());
    let mut summary = AuditSummary {
        seed,
        fingerprint,
        entries: 0,
        partitions: 0,
        passes: 0,
        divergences: 0,
        head: hex(&chain),
    };
    let mut partitions: BTreeMap<usize, ()> = BTreeMap::new();
    let mut prev_key: Option<(u64, usize)> = None;
    let mut footer_seen = false;

    for (idx, raw) in lines {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if footer_seen {
            return Err(AuditError::Parse {
                line: lineno,
                detail: "content after footer".into(),
            });
        }
        let fields = parse_flat(line)
            .map_err(|detail| AuditError::Parse { line: lineno, detail })?;
        if fields.contains_key("footer") {
            let foot_schema = fields
                .get("footer")
                .and_then(Field::as_str)
                .ok_or(AuditError::Parse { line: lineno, detail: "bad footer".into() })?;
            if foot_schema != TRANSCRIPT_SCHEMA {
                return Err(AuditError::Tamper {
                    line: lineno,
                    detail: format!("footer schema {foot_schema:?}"),
                });
            }
            let count: usize = int_field(&fields, "entries", lineno)?;
            if count != summary.entries {
                return Err(AuditError::Gap {
                    line: lineno,
                    detail: format!(
                        "footer claims {count} entries, found {}",
                        summary.entries
                    ),
                });
            }
            let head = fields
                .get("head")
                .and_then(Field::as_str)
                .ok_or(AuditError::Parse { line: lineno, detail: "footer missing head".into() })?;
            if head != hex(&chain) {
                return Err(AuditError::Tamper {
                    line: lineno,
                    detail: "footer head does not match replayed chain".into(),
                });
            }
            footer_seen = true;
            continue;
        }

        let text_field = |key: &str| -> Result<&str, AuditError> {
            fields
                .get(key)
                .and_then(Field::as_str)
                .ok_or(AuditError::Parse { line: lineno, detail: format!("missing {key}") })
        };
        let seq: usize = int_field(&fields, "seq", lineno)?;
        if seq != summary.entries {
            return Err(AuditError::Gap {
                line: lineno,
                detail: format!("expected seq {}, found {seq}", summary.entries),
            });
        }
        let partition: usize = int_field(&fields, "partition", lineno)?;
        let batch: u64 = int_field(&fields, "batch", lineno)?;
        let epoch: u64 = int_field(&fields, "epoch", lineno)?;
        let verdict_tag = text_field("verdict")?;
        let verdict = TranscriptVerdict::parse(verdict_tag).ok_or(AuditError::Parse {
            line: lineno,
            detail: format!("bad verdict {verdict_tag:?}"),
        })?;
        let payload_digest = from_hex(text_field("payload")?)
            .and_then(|digest| digest.try_into().ok())
            .ok_or(AuditError::Parse { line: lineno, detail: "bad payload digest".into() })?;
        let key = (batch, partition);
        if let Some(prev) = prev_key {
            if key <= prev {
                return Err(AuditError::Tamper {
                    line: lineno,
                    detail: format!(
                        "entries out of canonical order: {key:?} after {prev:?}"
                    ),
                });
            }
        }
        prev_key = Some(key);
        let entry = TranscriptEntry { partition, batch, epoch, verdict, payload_digest };
        chain = chain_hash(&chain, &entry);
        // The chain link replays, and so does every other byte of the line:
        // an entry has exactly one rendering.
        if raw != entry_line(seq, &entry, &chain) {
            return Err(AuditError::Tamper {
                line: lineno,
                detail: "chain link does not replay".into(),
            });
        }
        partitions.insert(partition, ());
        match entry.verdict {
            TranscriptVerdict::Pass { .. } => summary.passes += 1,
            TranscriptVerdict::Diverged { .. } => summary.divergences += 1,
        }
        summary.entries += 1;
    }
    if !footer_seen {
        return Err(AuditError::Gap {
            line: text.lines().count(),
            detail: "transcript truncated: no footer".into(),
        });
    }
    summary.partitions = partitions.len();
    summary.head = hex(&chain);
    Ok(summary)
}

/// Integer field `key` of line `line`, range-checked into its type.
fn int_field<T: TryFrom<i128>>(
    fields: &BTreeMap<String, Field>,
    key: &str,
    line: usize,
) -> Result<T, AuditError> {
    let value = fields
        .get(key)
        .and_then(Field::as_int)
        .ok_or(AuditError::Parse { line, detail: format!("missing {key}") })?;
    T::try_from(value)
        .map_err(|_| AuditError::Parse { line, detail: format!("{key} {value} out of range") })
}

/// Registers the `audit.*` counters so they show up (zero-valued) in
/// reports before the first verdict lands.
pub fn register_audit_metrics() {
    mvtee_telemetry::counter("audit.transcript.entries");
}

#[derive(Debug)]
enum Field {
    Str(String),
    Int(i128),
}

impl Field {
    fn as_str(&self) -> Option<&str> {
        match self {
            Field::Str(s) => Some(s),
            Field::Int(_) => None,
        }
    }

    fn as_int(&self) -> Option<i128> {
        match self {
            Field::Int(i) => Some(*i),
            Field::Str(_) => None,
        }
    }
}

/// Parses one flat `{"key":value,...}` object with string/int values
/// (the transcript emits nothing else).
fn parse_flat(line: &str) -> Result<BTreeMap<String, Field>, String> {
    let mut chars = line.chars().peekable();
    let mut fields = BTreeMap::new();
    skip_ws(&mut chars);
    expect(&mut chars, '{')?;
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
        return Ok(fields);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        expect(&mut chars, ':')?;
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some('"') => Field::Str(parse_string(&mut chars)?),
            Some(c) if *c == '-' || c.is_ascii_digit() => {
                let mut num = String::new();
                while let Some(&c) = chars.peek() {
                    if c == '-' || c.is_ascii_digit() {
                        num.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                Field::Int(num.parse().map_err(|_| format!("bad number {num:?}"))?)
            }
            other => return Err(format!("unexpected value start {other:?}")),
        };
        fields.insert(key, value);
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => continue,
            Some('}') => break,
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
    Ok(fields)
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
        chars.next();
    }
}

fn expect(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
    want: char,
) -> Result<(), String> {
    match chars.next() {
        Some(c) if c == want => Ok(()),
        other => Err(format!("expected {want:?}, got {other:?}")),
    }
}

fn parse_string(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
) -> Result<String, String> {
    expect(chars, '"')?;
    let mut out = String::new();
    loop {
        match chars.next() {
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hex_digits: String =
                        (0..4).map(|_| chars.next().unwrap_or('\u{0}')).collect();
                    let code = u32::from_str_radix(&hex_digits, 16)
                        .map_err(|_| format!("bad \\u escape {hex_digits:?}"))?;
                    out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            Some(c) => out.push(c),
            None => return Err("unterminated string".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_log() -> TranscriptLog {
        let log = TranscriptLog::new();
        // Deliberately append out of canonical order: render must sort.
        log.record(TranscriptEntry {
            partition: 1,
            batch: 0,
            epoch: 0,
            verdict: TranscriptVerdict::Pass { agreeing: 3 },
            payload_digest: payload_digest(&[Tensor::ones(&[2, 2])]),
        });
        log.record(TranscriptEntry {
            partition: 0,
            batch: 0,
            epoch: 0,
            verdict: TranscriptVerdict::Pass { agreeing: 2 },
            payload_digest: payload_digest(&[Tensor::zeros(&[4])]),
        });
        log.record(TranscriptEntry {
            partition: 0,
            batch: 1,
            epoch: 2,
            verdict: TranscriptVerdict::Diverged { dissenting: vec![1] },
            payload_digest: payload_digest(&[Tensor::ones(&[4])]),
        });
        log
    }

    #[test]
    fn render_is_canonical_and_verifies() {
        let log = sample_log();
        let text = log.render(42, "test-config");
        let summary = verify_transcript(&text).expect("verifies");
        assert_eq!(summary.entries, 3);
        assert_eq!(summary.partitions, 2);
        assert_eq!(summary.passes, 2);
        assert_eq!(summary.divergences, 1);
        assert_eq!(summary.seed, 42);
        assert_eq!(summary.fingerprint, "test-config");
        // Append order must not matter.
        let log2 = TranscriptLog::new();
        for e in log.entries().into_iter().rev() {
            log2.record(e);
        }
        assert_eq!(log2.render(42, "test-config"), text);
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let text = sample_log().render(7, "cfg");
        let bytes = text.as_bytes();
        // Flip one character per line (inside a hex digest, a number and
        // the header) and expect rejection every time.
        for pos in [10usize, 40, 120, text.len() - 20] {
            let mut tampered = bytes.to_vec();
            tampered[pos] = if tampered[pos] == b'0' { b'1' } else { b'0' };
            if let Ok(t) = String::from_utf8(tampered) {
                if t == text {
                    continue;
                }
                assert!(
                    verify_transcript(&t).is_err(),
                    "flip at byte {pos} went undetected"
                );
            }
        }
    }

    #[test]
    fn dropped_line_is_a_gap() {
        let text = sample_log().render(7, "cfg");
        let lines: Vec<&str> = text.lines().collect();
        let without_middle: String = lines
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 2)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        match verify_transcript(&without_middle) {
            Err(AuditError::Gap { .. }) | Err(AuditError::Tamper { .. }) => {}
            other => panic!("expected gap/tamper, got {other:?}"),
        }
        let truncated: String =
            lines[..lines.len() - 1].iter().map(|l| format!("{l}\n")).collect();
        assert!(matches!(verify_transcript(&truncated), Err(AuditError::Gap { .. })));
    }

    #[test]
    fn empty_transcript_is_tamper_evident() {
        let log = TranscriptLog::new();
        let text = log.render(3, "cfg");
        let summary = verify_transcript(&text).expect("verifies");
        assert_eq!(summary.entries, 0);
        let tampered = text.replace("\"seed\":3", "\"seed\":4");
        assert!(verify_transcript(&tampered).is_err());
    }

    #[test]
    fn reordered_entries_are_rejected() {
        let text = sample_log().render(7, "cfg");
        let mut lines: Vec<&str> = text.lines().collect();
        lines.swap(1, 2);
        let swapped: String = lines.iter().map(|l| format!("{l}\n")).collect();
        assert!(verify_transcript(&swapped).is_err());
    }

    #[test]
    fn empty_string_is_a_parse_error() {
        // An empty *file* is not an empty *transcript*: even a zero-entry
        // run renders a header and footer, so nothing at all is a missing
        // transcript, rejected at line 1.
        match verify_transcript("") {
            Err(AuditError::Parse { line: 1, detail }) => {
                assert!(detail.contains("empty transcript"), "unexpected detail: {detail}");
            }
            other => panic!("expected line-1 parse error, got {other:?}"),
        }
    }

    #[test]
    fn footer_only_file_is_rejected() {
        // A file holding only the footer (header and entries stripped —
        // e.g. a log scraper that kept the last line) must not pass as an
        // empty-but-valid transcript: the first line is not a header.
        let text = sample_log().render(7, "cfg");
        let footer = text.lines().last().expect("footer line");
        assert!(footer.contains("\"footer\""), "render must end with the footer");
        let footer_only = format!("{footer}\n");
        assert!(matches!(verify_transcript(&footer_only), Err(AuditError::Parse { line: 1, .. })));
    }

    #[test]
    fn truncated_final_line_is_rejected() {
        // Cut the transcript mid-way through its final line (a partial
        // write / torn tail). Every cut point must be rejected — either
        // the mangled footer fails to parse or the missing footer is a
        // gap; it must never verify.
        let text = sample_log().render(7, "cfg");
        let last_line_start = text.trim_end().rfind('\n').expect("multi-line") + 1;
        for cut in [last_line_start + 1, last_line_start + 10, text.len() - 2] {
            let torn = &text[..cut];
            assert!(
                verify_transcript(torn).is_err(),
                "transcript cut at byte {cut} (mid final line) went undetected"
            );
        }
    }

    #[test]
    fn duplicate_entries_are_a_tamper() {
        // Two verdicts for the same (batch, partition) — a replayed
        // checkpoint — survive the canonical sort as adjacent equal keys
        // and must be rejected as a tamper, even though every chain link
        // replays correctly.
        let log = sample_log();
        let dup = log.entries()[0].clone();
        log.record(dup);
        let text = log.render(7, "cfg");
        match verify_transcript(&text) {
            Err(AuditError::Tamper { detail, .. }) => {
                assert!(detail.contains("canonical order"), "unexpected detail: {detail}");
            }
            other => panic!("expected tamper on duplicate entry, got {other:?}"),
        }
    }

    /// An integer field set beyond its type's range — 2^64, 2^64 + 1 or
    /// -1 — is a parse error on its line, never a truncated value that
    /// might replay.
    #[test]
    fn out_of_range_integers_are_parse_errors() {
        let text = sample_log().render(7, "cfg");
        let lines: Vec<&str> = text.lines().collect();
        // (line index, field) for every integer the verifier reads.
        let last = lines.len() - 1;
        let fields = [(0, "seed"), (1, "seq"), (1, "partition"), (1, "batch"), (1, "epoch"), (last, "entries")];
        for (at, field) in fields {
            let prefix = format!("\"{field}\":");
            let start = lines[at].find(&prefix).expect("field rendered") + prefix.len();
            let end = start + lines[at][start..].find([',', '}']).expect("value ends");
            for value in ["18446744073709551616", "18446744073709551617", "-1"] {
                let mut edited = lines.clone();
                let line = format!("{}{value}{}", &lines[at][..start], &lines[at][end..]);
                edited[at] = &line;
                let edited = edited.join("\n") + "\n";
                match verify_transcript(&edited) {
                    Err(AuditError::Parse { line, detail }) => {
                        assert_eq!(line, at + 1, "{field} = {value}: {detail}");
                    }
                    other => panic!("{field} = {value}: expected a parse error, got {other:?}"),
                }
            }
        }
    }

    // `experiments audit` verifies files anyone may have written: no text
    // may panic the verifier, and no edit of a rendered entry may pass.

    /// One edit of a line: overwrite, insert before or remove the char at
    /// a position (an insert never at either end of the line).
    #[derive(Debug, Clone, Copy)]
    enum Edit {
        Overwrite(char),
        Insert(char),
        Remove,
    }

    /// `line` with `edit` applied at `at`, taken modulo its length.
    fn apply(line: &str, at: usize, edit: Edit) -> String {
        let mut chars: Vec<char> = line.chars().collect();
        if chars.is_empty() {
            return String::new();
        }
        match edit {
            Edit::Overwrite(c) => {
                let at = at % chars.len();
                chars[at] = c;
            }
            Edit::Insert(c) => chars.insert(1 + at % (chars.len().max(2) - 1), c),
            Edit::Remove => {
                chars.remove(at % chars.len());
            }
        }
        chars.into_iter().collect()
    }

    /// What could keep an edited line parseable, and a few that cannot.
    const EDIT_CHARS: &str = "0123456789abcdefABCDEF+-. \"',:{}[]\\\n\r\tué";

    fn edit() -> impl Strategy<Value = Edit> {
        let pick = || proptest::sample::select(EDIT_CHARS.chars().collect());
        prop_oneof![pick().prop_map(Edit::Overwrite), pick().prop_map(Edit::Insert), Just(Edit::Remove)]
    }

    /// Every one-character overwrite, insertion and removal inside every
    /// entry line: each is an error, including those that parse back to
    /// the same values (`"batch":01`, `pass:+3`, upper-case hex).
    #[test]
    fn every_single_edit_of_an_entry_line_is_rejected() {
        let text = sample_log().render(7, "cfg");
        let lines: Vec<&str> = text.lines().collect();
        let mut edits = vec![Edit::Remove];
        for c in EDIT_CHARS.chars() {
            edits.extend([Edit::Overwrite(c), Edit::Insert(c)]);
        }
        for entry in 1..lines.len() - 1 {
            for pos in 0..lines[entry].chars().count() {
                for &edit in &edits {
                    let edited = apply(lines[entry], pos, edit);
                    if edited == lines[entry] {
                        continue;
                    }
                    let mut all = lines.clone();
                    all[entry] = &edited;
                    let verified = verify_transcript(&(all.join("\n") + "\n"));
                    assert!(verified.is_err(), "{edit:?} at {pos} of line {}: {edited:?}", entry + 1);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_text_never_panics_the_verifier(text in ".{0,300}") {
            let _ = verify_transcript(&text);
            let _ = verify_transcript(&format!("{{\"schema\":\"{TRANSCRIPT_SCHEMA}\",\"seed\":1,\"fingerprint\":\"\"}}\n{text}"));
        }

        #[test]
        fn edited_or_cut_transcripts_do_not_verify(
            which in any::<proptest::sample::Index>(),
            edits in proptest::collection::vec((any::<usize>(), edit()), 1..=8),
            cut in proptest::option::of(any::<proptest::sample::Index>()),
        ) {
            let text = sample_log().render(7, "cfg");
            if let Some(cut) = cut {
                // Only the final newline may go.
                let cut = cut.index(text.len() + 1);
                let verified = verify_transcript(&text[..cut]);
                prop_assert_eq!(verified.is_ok(), cut + 1 >= text.len(), "cut at {}", cut);
            } else {
                let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
                let at = which.index(lines.len());
                let edited = edits.iter().fold(lines[at].clone(), |line, &(pos, edit)| apply(&line, pos, edit));
                let changed = edited != lines[at];
                lines[at] = edited;
                let verified = verify_transcript(&(lines.join("\n") + "\n"));
                // The header is chained; so is every byte of an entry.
                if changed && at + 1 < lines.len() {
                    prop_assert!(verified.is_err(), "edited line {} verified: {:?}", at + 1, lines[at]);
                }
            }
        }
    }

    #[test]
    fn payload_digest_tracks_shape_and_bits() {
        let a = payload_digest(&[Tensor::ones(&[2, 3])]);
        let b = payload_digest(&[Tensor::ones(&[3, 2])]);
        let c = payload_digest(&[Tensor::ones(&[2, 3])]);
        assert_eq!(a, c);
        assert_ne!(a, b);
    }

    #[test]
    fn verdict_tags_round_trip() {
        for v in [
            TranscriptVerdict::Pass { agreeing: 3 },
            TranscriptVerdict::Diverged { dissenting: vec![] },
            TranscriptVerdict::Diverged { dissenting: vec![0, 2] },
        ] {
            assert_eq!(TranscriptVerdict::parse(&v.tag()), Some(v));
        }
        assert_eq!(TranscriptVerdict::parse("nonsense"), None);
    }
}
