//! Bit-exact snapshots of the Holt-Winters family.
//!
//! A long-running serving deployment (see `sofia-fleet`) checkpoints
//! whole models, and models built *on* Holt-Winters components need the
//! components themselves to serialize. This module gives each member of
//! the family — the additive [`HoltWinters`], the [`MultiplicativeHw`]
//! variant, and the damped-trend [`DampedHw`] — a self-describing,
//! line-oriented text snapshot with floats encoded as IEEE 754 bit
//! patterns, so `restore(snapshot(m))` reproduces `m`'s future outputs
//! byte-identically.
//!
//! `sofia-timeseries` sits *below* `sofia-core` in the dependency order,
//! so the float codec lives here ([`crate::codec`]) and `sofia-core`
//! re-exports it; `sofia-core`'s v2 checkpoint envelope wraps payloads
//! like these without either crate knowing about the other's framing.

use crate::codec::{parse_f64s, push_f64s, CodecError};
use crate::holt_winters::{HoltWinters, HwParams, HwState};
use crate::variants::{DampedHw, MultiplicativeHw};
use std::fmt::Write as _;

/// Error raised while parsing a Holt-Winters snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotParseError(pub String);

impl std::fmt::Display for SnapshotParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed Holt-Winters snapshot: {}", self.0)
    }
}

impl std::error::Error for SnapshotParseError {}

impl From<CodecError> for SnapshotParseError {
    fn from(e: CodecError) -> Self {
        SnapshotParseError(e.0)
    }
}

fn err(what: impl Into<String>) -> SnapshotParseError {
    SnapshotParseError(what.into())
}

fn parse_usize(line: &str, label: &str) -> Result<usize, SnapshotParseError> {
    line.strip_prefix(label)
        .ok_or_else(|| err(format!("expected `{label}`")))?
        .trim()
        .parse()
        .map_err(|_| err(format!("bad integer in `{label}`")))
}

/// Shared scalar block: params, level/trend, phase, seasonal ring.
fn push_common(
    out: &mut String,
    params: &HwParams,
    level: f64,
    trend: f64,
    phase: usize,
    seasonal: &[f64],
) {
    push_f64s(out, "params", [params.alpha, params.beta, params.gamma]);
    push_f64s(out, "level_trend", [level, trend]);
    let _ = writeln!(out, "phase {phase}");
    push_f64s(out, "seasonal", seasonal.iter().copied());
}

struct Common {
    params: HwParams,
    level: f64,
    trend: f64,
    phase: usize,
    seasonal: Vec<f64>,
}

fn parse_common<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
) -> Result<Common, SnapshotParseError> {
    let mut next = |what: &str| {
        lines
            .next()
            .ok_or_else(|| err(format!("unexpected EOF at {what}")))
    };
    let p = parse_f64s(next("params")?, "params")?;
    if p.len() != 3 {
        return Err(err("params arity"));
    }
    if ![p[0], p[1], p[2]].iter().all(|v| (0.0..=1.0).contains(v)) {
        return Err(err("params out of [0,1]"));
    }
    let lt = parse_f64s(next("level_trend")?, "level_trend")?;
    if lt.len() != 2 {
        return Err(err("level_trend arity"));
    }
    let phase = parse_usize(next("phase")?, "phase")?;
    let seasonal = parse_f64s(next("seasonal")?, "seasonal")?;
    if seasonal.is_empty() || phase >= seasonal.len() {
        return Err(err("seasonal/phase out of range"));
    }
    Ok(Common {
        params: HwParams::new(p[0], p[1], p[2]),
        level: lt[0],
        trend: lt[1],
        phase,
        seasonal,
    })
}

fn check_header<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    expected: &str,
) -> Result<(), SnapshotParseError> {
    match lines.next() {
        Some(h) if h.trim_end() == expected => Ok(()),
        _ => Err(err(format!("missing `{expected}` header"))),
    }
}

impl HoltWinters {
    /// Serializes the model (params + full state) bit-exactly.
    pub fn snapshot(&self) -> String {
        let mut out = String::from("holt-winters v1\n");
        let st = self.state();
        push_common(
            &mut out,
            self.params(),
            st.level,
            st.trend,
            st.phase,
            &st.seasonal,
        );
        out
    }

    /// Restores a model from [`HoltWinters::snapshot`] text.
    pub fn restore(text: &str) -> Result<Self, SnapshotParseError> {
        let mut lines = text.lines();
        check_header(&mut lines, "holt-winters v1")?;
        let c = parse_common(&mut lines)?;
        Ok(HoltWinters::new(
            c.params,
            HwState::new(c.level, c.trend, c.seasonal, c.phase),
        ))
    }
}

impl MultiplicativeHw {
    /// Serializes the model (params + full state) bit-exactly.
    pub fn snapshot(&self) -> String {
        let mut out = String::from("multiplicative-hw v1\n");
        push_common(
            &mut out,
            self.params(),
            self.level(),
            self.trend(),
            self.phase(),
            self.seasonal(),
        );
        out
    }

    /// Restores a model from [`MultiplicativeHw::snapshot`] text.
    pub fn restore(text: &str) -> Result<Self, SnapshotParseError> {
        let mut lines = text.lines();
        check_header(&mut lines, "multiplicative-hw v1")?;
        let c = parse_common(&mut lines)?;
        if c.level <= 0.0 || c.seasonal.iter().any(|&s| s <= 0.0) {
            return Err(err("multiplicative model needs positive level and ratios"));
        }
        Ok(MultiplicativeHw::new(
            c.params, c.level, c.trend, c.seasonal, c.phase,
        ))
    }
}

impl DampedHw {
    /// Serializes the model (params + damping + full state) bit-exactly.
    pub fn snapshot(&self) -> String {
        let mut out = String::from("damped-hw v1\n");
        push_f64s(&mut out, "damping", [self.damping]);
        push_common(
            &mut out,
            self.params(),
            self.level(),
            self.trend(),
            self.phase(),
            self.seasonal(),
        );
        out
    }

    /// Restores a model from [`DampedHw::snapshot`] text.
    pub fn restore(text: &str) -> Result<Self, SnapshotParseError> {
        let mut lines = text.lines();
        check_header(&mut lines, "damped-hw v1")?;
        let damping = parse_f64s(
            lines
                .next()
                .ok_or_else(|| err("unexpected EOF at damping"))?,
            "damping",
        )?;
        let &[damping] = damping.as_slice() else {
            return Err(err("damping arity"));
        };
        if !(damping > 0.0 && damping <= 1.0) {
            return Err(err("damping out of (0, 1]"));
        }
        let c = parse_common(&mut lines)?;
        Ok(DampedHw::new(
            c.params, damping, c.level, c.trend, c.seasonal, c.phase,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn additive_roundtrip_is_bit_exact() {
        let mut hw = HoltWinters::new(
            HwParams::new(0.4, 0.2, 0.15),
            HwState::new(3.5, -0.25, vec![1.0, -0.5, 0.75], 2),
        );
        for t in 0..7 {
            hw.update(2.0 + (t as f64 * 0.7).sin());
        }
        let mut restored = HoltWinters::restore(&hw.snapshot()).expect("restore");
        assert_eq!(hw, restored);
        for t in 0..10 {
            let y = -1.0 + 0.3 * t as f64;
            assert_eq!(hw.update(y).to_bits(), restored.update(y).to_bits());
        }
    }

    #[test]
    fn multiplicative_roundtrip_is_bit_exact() {
        let mut hw = MultiplicativeHw::new(
            HwParams::new(0.3, 0.1, 0.2),
            10.0,
            0.4,
            vec![1.3, 0.7, 1.0, 1.0],
            1,
        );
        for t in 0..9 {
            hw.update(9.0 + t as f64);
        }
        let mut restored = MultiplicativeHw::restore(&hw.snapshot()).expect("restore");
        assert_eq!(hw, restored);
        for t in 0..8 {
            let y = 15.0 + 0.5 * t as f64;
            assert_eq!(hw.update(y).to_bits(), restored.update(y).to_bits());
        }
    }

    #[test]
    fn damped_roundtrip_is_bit_exact() {
        let mut hw = DampedHw::new(
            HwParams::new(0.35, 0.15, 0.05),
            0.85,
            4.0,
            0.6,
            vec![0.2, -0.2],
            0,
        );
        for t in 0..6 {
            hw.update(4.0 + 0.4 * t as f64);
        }
        let mut restored = DampedHw::restore(&hw.snapshot()).expect("restore");
        assert_eq!(hw, restored);
        for h in 1..=5 {
            assert_eq!(hw.forecast(h).to_bits(), restored.forecast(h).to_bits());
        }
        for t in 0..8 {
            let y = 7.0 - 0.2 * t as f64;
            assert_eq!(hw.update(y).to_bits(), restored.update(y).to_bits());
        }
    }

    #[test]
    fn snapshots_reject_cross_family_and_garbage() {
        let add = HoltWinters::new(HwParams::default(), HwState::new(0.0, 0.0, vec![0.0; 3], 0));
        assert!(MultiplicativeHw::restore(&add.snapshot()).is_err());
        assert!(DampedHw::restore(&add.snapshot()).is_err());
        assert!(HoltWinters::restore("not a snapshot").is_err());
        assert!(HoltWinters::restore("").is_err());
        // Truncation is an error, never a panic.
        let text = add.snapshot();
        let cut = text.lines().take(2).collect::<Vec<_>>().join("\n");
        assert!(HoltWinters::restore(&cut).is_err());
        // Out-of-range phase is rejected before the constructor asserts.
        let bad = text.replace("phase 0", "phase 9");
        assert!(HoltWinters::restore(&bad).is_err());
    }
}
