//! Universal model snapshots: capability traits plus the versioned **v2
//! checkpoint envelope** shared by every durable model.
//!
//! The v1 checkpoint format ([`crate::checkpoint`]) serializes exactly one
//! model kind — SOFIA. A serving layer that wants *any* model to survive a
//! crash needs two extra pieces, both provided here:
//!
//! * **Capability traits** — [`SnapshotModel`] (object-safe: a served
//!   `dyn` model can be asked for its kind tag and a bit-exact text
//!   payload) and [`RestoreModel`] (the inverse, dispatched by kind tag at
//!   recovery time);
//! * **The envelope** — a tagged wrapper
//!
//!   ```text
//!   sofia-checkpoint v2
//!   model <kind>
//!   steps <n>
//!   <model-specific payload…>
//!   ```
//!
//!   so one on-disk format carries every model kind. [`parse`] also
//!   accepts bare **v1** files (header `sofia-checkpoint v1`) and reports
//!   them as `kind = "sofia"` with the whole text as payload, so
//!   checkpoints written before the envelope existed keep loading
//!   bit-exactly.
//!
//! Payloads are line-oriented text with floats encoded as IEEE 754 bit
//! patterns (see [`wire`]), the same convention the v1 format uses:
//! restore is **bit-exact** for every model that implements the traits.

use crate::checkpoint::{self, CheckpointError};
use crate::model::Sofia;

/// Line-oriented wire helpers shared by snapshot payload writers/parsers
/// (the v1 SOFIA checkpoint and every per-model v2 payload use these).
///
/// Floats travel as 16-hex-digit IEEE 754 bit patterns so round-trips are
/// bit-exact; integers as plain decimal. The float and mask-bit codec is
/// [`sofia_timeseries::codec`], re-exported here; [`wire::parse_f64s`]
/// reports its errors as a [`CheckpointError`].
pub mod wire {
    use super::CheckpointError;
    use sofia_timeseries::codec;
    pub use sofia_timeseries::codec::{
        parse_bits, parse_f64, parse_hex16, push_bits, push_f64, push_f64s,
    };

    /// Parses a `label v1 v2 …` line of hex-encoded floats.
    pub fn parse_f64s(line: &str, label: &str) -> Result<Vec<f64>, CheckpointError> {
        codec::parse_f64s(line, label).map_err(|e| CheckpointError::Malformed(e.0))
    }

    /// Parses a `label n1 n2 …` line of decimal integers.
    pub fn parse_usizes(line: &str, label: &str) -> Result<Vec<usize>, CheckpointError> {
        let rest = line
            .strip_prefix(label)
            .ok_or_else(|| CheckpointError::Malformed(format!("expected `{label}`")))?;
        rest.split_whitespace()
            .map(|tok| {
                tok.parse()
                    .map_err(|_| CheckpointError::Malformed(format!("bad integer in `{label}`")))
            })
            .collect()
    }
}

/// The snapshot capability: a model that can serialize its full streaming
/// state to a bit-exact text payload.
///
/// The trait is deliberately **object-safe** so serving layers can ask a
/// boxed `dyn` model for a snapshot without knowing its concrete type;
/// the inverse direction ([`RestoreModel`]) is dispatched by the
/// [`SnapshotModel::snapshot_kind`] tag instead.
pub trait SnapshotModel {
    /// Stable kind tag written into the envelope's `model <kind>` header
    /// and used to dispatch [`RestoreModel::restore`] at recovery time.
    fn snapshot_kind(&self) -> &'static str;

    /// Serializes the model's full state. Restoring the returned payload
    /// with the matching [`RestoreModel`] impl must yield a model whose
    /// subsequent outputs are byte-identical to this one's.
    fn snapshot(&self) -> String;
}

/// The restore half of the snapshot capability (not object-safe — it
/// constructs `Self`; recovery code matches on the envelope's kind tag
/// and calls the right impl).
pub trait RestoreModel: Sized {
    /// The kind tag this impl restores; must equal what
    /// [`SnapshotModel::snapshot_kind`] reports on the same type.
    const KIND: &'static str;

    /// Rebuilds a model from a payload produced by
    /// [`SnapshotModel::snapshot`].
    fn restore(payload: &str) -> Result<Self, CheckpointError>;
}

/// Header line of the v2 envelope.
pub const V2_HEADER: &str = "sofia-checkpoint v2";
/// Header line of the bare v1 SOFIA format (accepted by [`parse`]).
pub const V1_HEADER: &str = "sofia-checkpoint v1";

/// A parsed checkpoint envelope: which model kind the payload belongs to,
/// the generic applied-steps counter at snapshot time, and the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Model kind tag (`sofia`, `smf`, `online-sgd`, …).
    pub kind: String,
    /// Streaming steps the model had applied when the snapshot was taken
    /// (the serving layer's generic counter, uniform across model kinds).
    pub steps: u64,
    /// The model-specific payload, byte-for-byte as written.
    pub payload: String,
}

/// Wraps a model payload in the v2 envelope.
pub fn wrap(kind: &str, steps: u64, payload: &str) -> String {
    assert!(
        !kind.is_empty() && kind.chars().all(|c| c.is_ascii_graphic()),
        "kind tag must be non-empty printable ASCII: {kind:?}"
    );
    let mut out = String::with_capacity(payload.len() + 64);
    out.push_str(V2_HEADER);
    out.push('\n');
    out.push_str("model ");
    out.push_str(kind);
    out.push('\n');
    out.push_str("steps ");
    out.push_str(&steps.to_string());
    out.push('\n');
    out.push_str(payload);
    out
}

/// Splits off the first line, returning `(line, rest)` with the newline
/// consumed. Byte-offset based so the remainder is passed through
/// untouched (payloads must stay byte-exact).
fn split_line(text: &str) -> (&str, &str) {
    match text.find('\n') {
        Some(i) => (&text[..i], &text[i + 1..]),
        None => (text, ""),
    }
}

/// Parses a checkpoint file into an [`Envelope`].
///
/// Accepts both the tagged v2 format and bare v1 SOFIA files: a v1 file
/// comes back as `kind = "sofia"` whose payload is the entire original
/// text (v1 never had an envelope, so the payload *is* the file), with
/// `steps` read from the v1 trailer line.
pub fn parse(text: &str) -> Result<Envelope, CheckpointError> {
    let (header, rest) = split_line(text);
    match header.trim_end() {
        V2_HEADER => {
            let (model_line, rest) = split_line(rest);
            let kind = model_line
                .strip_prefix("model ")
                .map(str::trim)
                .filter(|k| !k.is_empty())
                .ok_or_else(|| CheckpointError::Malformed("envelope `model` line".into()))?;
            let (steps_line, payload) = split_line(rest);
            let steps = steps_line
                .strip_prefix("steps ")
                .and_then(|s| s.trim().parse().ok())
                .ok_or_else(|| CheckpointError::Malformed("envelope `steps` line".into()))?;
            Ok(Envelope {
                kind: kind.to_string(),
                steps,
                payload: payload.to_string(),
            })
        }
        V1_HEADER => {
            // Pre-envelope SOFIA file: the v1 format ends with a
            // `steps <n>` trailer; surface it as the envelope counter.
            let steps = text
                .lines()
                .rev()
                .find_map(|l| l.strip_prefix("steps "))
                .and_then(|s| s.trim().parse().ok())
                .ok_or_else(|| CheckpointError::Malformed("v1 `steps` trailer".into()))?;
            Ok(Envelope {
                kind: Sofia::KIND.to_string(),
                steps,
                payload: text.to_string(),
            })
        }
        _ => Err(CheckpointError::BadHeader),
    }
}

impl SnapshotModel for Sofia {
    fn snapshot_kind(&self) -> &'static str {
        Sofia::KIND
    }

    /// The SOFIA payload is exactly the bit-exact v1 text, so a v2
    /// envelope nests the complete v1 file and either parser restores the
    /// same state.
    fn snapshot(&self) -> String {
        checkpoint::save(self)
    }
}

impl RestoreModel for Sofia {
    const KIND: &'static str = "sofia";

    fn restore(payload: &str) -> Result<Self, CheckpointError> {
        checkpoint::load(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_roundtrips_payload_bytes() {
        let payload = "alpha 1 2 3\nbeta\n\ntail without newline";
        let text = wrap("demo-kind", 42, payload);
        let env = parse(&text).expect("parse");
        assert_eq!(env.kind, "demo-kind");
        assert_eq!(env.steps, 42);
        assert_eq!(env.payload, payload);
    }

    #[test]
    fn empty_payload_allowed() {
        let env = parse(&wrap("k", 0, "")).expect("parse");
        assert_eq!(env.kind, "k");
        assert_eq!(env.steps, 0);
        assert_eq!(env.payload, "");
    }

    #[test]
    fn v1_text_parses_as_sofia_envelope() {
        // A minimal structurally-v1 text: only the header and trailer
        // matter to the envelope layer.
        let text = "sofia-checkpoint v1\nconfig 1 2 3 4 5 6\nsteps 17\n";
        let env = parse(text).expect("parse");
        assert_eq!(env.kind, Sofia::KIND);
        assert_eq!(env.steps, 17);
        assert_eq!(env.payload, text, "v1 payload is the whole file");
    }

    #[test]
    fn malformed_envelopes_rejected() {
        assert!(matches!(
            parse("garbage\n"),
            Err(CheckpointError::BadHeader)
        ));
        assert!(matches!(parse(""), Err(CheckpointError::BadHeader)));
        assert!(parse("sofia-checkpoint v2\nnot-model\nsteps 0\n").is_err());
        assert!(parse("sofia-checkpoint v2\nmodel x\nsteps nope\n").is_err());
        assert!(parse("sofia-checkpoint v2\nmodel \nsteps 1\n").is_err());
        // v1 without its steps trailer cannot express the counter.
        assert!(parse("sofia-checkpoint v1\nconfig 1\n").is_err());
    }

    #[test]
    #[should_panic(expected = "kind tag")]
    fn wrap_rejects_unprintable_kind() {
        wrap("two words", 0, "");
    }

    #[test]
    fn wire_roundtrips_special_floats() {
        let values = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5e-300];
        let mut line = String::new();
        wire::push_f64s(&mut line, "v", values.iter().copied());
        let back = wire::parse_f64s(line.trim_end(), "v").expect("parse");
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
