//! The typed query plane: one request enum, one response enum, one
//! completion handle.
//!
//! The fleet's query surface grew organically as four parallel blocking
//! methods, each doing its own shard lookup and channel round-trip. This
//! module replaces that with a single routable protocol:
//!
//! * [`Query`] — what a caller asks of one stream. Plain data: no trait
//!   objects, no channels, no lifetimes, so the `sofia-net` TCP data
//!   plane carries it verbatim ([`Query::to_wire`] /
//!   [`Query::from_wire`] pin down the line-based text form framed onto
//!   the socket).
//! * [`QueryResponse`] — one variant per [`Query`] variant, carrying the
//!   answer.
//! * [`QueryTicket`] — the completion handle [`crate::Fleet::query`]
//!   returns immediately. Callers pipeline many in-flight queries by
//!   holding several tickets and settling them with
//!   [`QueryTicket::wait`] or polling [`QueryTicket::try_take`].
//!
//! Validation happens at the API boundary: [`Query::validate`] rejects
//! requests no model could answer (for example a zero forecast horizon)
//! as a typed [`FleetError::InvalidQuery`] *before* the request reaches
//! a shard, instead of relying on the per-stream panic guard catching a
//! model assert.

use crate::error::FleetError;
use crate::stats::{MetricKind, StreamStats};
use sofia_core::traits::StepOutput;
use sofia_tensor::{DenseTensor, Mask};
use std::sync::mpsc;

/// The discriminant of a [`Query`] / [`QueryResponse`] pair, used for
/// per-kind serving counters and response matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Latest completed slice.
    Latest,
    /// `h`-step-ahead forecast.
    Forecast,
    /// Outlier mask of the latest step.
    OutlierMask,
    /// Per-stream serving statistics.
    StreamStats,
    /// A quantile of one of the stream's metric sketches.
    Quantile,
}

impl QueryKind {
    /// Every kind, in wire order.
    pub const ALL: [QueryKind; 5] = [
        QueryKind::Latest,
        QueryKind::Forecast,
        QueryKind::OutlierMask,
        QueryKind::StreamStats,
        QueryKind::Quantile,
    ];

    /// Stable wire/display name of the kind.
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Latest => "latest",
            QueryKind::Forecast => "forecast",
            QueryKind::OutlierMask => "outlier-mask",
            QueryKind::StreamStats => "stream-stats",
            QueryKind::Quantile => "quantile",
        }
    }
}

impl std::fmt::Display for QueryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed request against one stream's serving state.
///
/// Send it with [`crate::Fleet::query`] (one stream, returns a
/// [`QueryTicket`]) or [`crate::Fleet::query_batch`] (many streams,
/// grouped by shard, one queue round-trip per involved shard).
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Latest completed slice (with outliers, if the model reports
    /// them). Answered with [`QueryResponse::Latest`]; `None` before the
    /// stream's first step (including right after recovery or a lazy
    /// restore).
    Latest,
    /// `horizon`-step-ahead forecast. Answered with
    /// [`QueryResponse::Forecast`]; `None` if the model does not
    /// forecast. A zero horizon fails [`Query::validate`].
    Forecast {
        /// Steps ahead to forecast; must be at least 1.
        horizon: usize,
    },
    /// Boolean mask of entries the model flagged as outliers in the
    /// latest step. Answered with [`QueryResponse::OutlierMask`]; `None`
    /// before the first step or for models without outlier estimates.
    OutlierMask,
    /// Per-stream serving statistics. Answered with
    /// [`QueryResponse::StreamStats`].
    StreamStats,
    /// The `q`-quantile of one of the stream's metric sketches —
    /// ingest latency (µs) or one-step forecast error. Answered with
    /// [`QueryResponse::Quantile`]; `None` while the sketch is empty
    /// (no step yet, or a model that never forecasts). A non-finite or
    /// out-of-`[0, 1]` `q` fails [`Query::validate`].
    Quantile {
        /// Which metric sketch to probe.
        metric: MetricKind,
        /// Quantile in `[0, 1]` (e.g. `0.99` for p99).
        q: f64,
    },
}

impl Query {
    /// The request's discriminant.
    pub fn kind(&self) -> QueryKind {
        match self {
            Query::Latest => QueryKind::Latest,
            Query::Forecast { .. } => QueryKind::Forecast,
            Query::OutlierMask => QueryKind::OutlierMask,
            Query::StreamStats => QueryKind::StreamStats,
            Query::Quantile { .. } => QueryKind::Quantile,
        }
    }

    /// Rejects requests no model could answer, as a typed
    /// [`FleetError::InvalidQuery`].
    ///
    /// Runs at the API boundary ([`crate::Fleet::query`] /
    /// [`crate::Fleet::query_batch`]) and again shard-side, so the
    /// `sofia-net` server — which feeds decoded wire queries straight
    /// into shards — gets the same guarantee.
    pub fn validate(&self) -> Result<(), FleetError> {
        match self {
            Query::Forecast { horizon: 0 } => Err(FleetError::InvalidQuery {
                reason: "forecast horizon must be at least 1 (got 0)".to_string(),
            }),
            Query::Quantile { q, .. } if !(0.0..=1.0).contains(q) => {
                Err(FleetError::InvalidQuery {
                    reason: format!("quantile must be a finite value in [0, 1] (got {q})"),
                })
            }
            _ => Ok(()),
        }
    }

    /// Serializes the request into its one-line wire form (`latest`,
    /// `forecast <h>`, `outlier-mask`, `stream-stats`, or
    /// `quantile <metric> <q>` with `q` as a 16-hex-digit IEEE 754 bit
    /// pattern so the round-trip is bit-exact).
    pub fn to_wire(&self) -> String {
        match self {
            Query::Forecast { horizon } => format!("forecast {horizon}"),
            Query::Quantile { metric, q } => {
                let mut line = format!("quantile {} ", metric.name());
                sofia_core::snapshot::wire::push_f64(&mut line, *q);
                line
            }
            other => other.kind().name().to_string(),
        }
    }

    /// Parses the one-line wire form produced by [`Query::to_wire`].
    /// Malformed input is a typed [`FleetError::InvalidQuery`]; the
    /// parsed request is **not** yet validated (parse then
    /// [`Query::validate`], so transport and semantics fail distinctly).
    pub fn from_wire(line: &str) -> Result<Query, FleetError> {
        let mut parts = line.split_whitespace();
        let invalid = |reason: String| FleetError::InvalidQuery { reason };
        let head = parts
            .next()
            .ok_or_else(|| invalid("empty query line".to_string()))?;
        let query = match head {
            "latest" => Query::Latest,
            "forecast" => {
                let h = parts
                    .next()
                    .ok_or_else(|| invalid("forecast needs a horizon".to_string()))?;
                Query::Forecast {
                    horizon: h
                        .parse()
                        .map_err(|_| invalid(format!("bad forecast horizon `{h}`")))?,
                }
            }
            "outlier-mask" => Query::OutlierMask,
            "stream-stats" => Query::StreamStats,
            "quantile" => {
                let name = parts
                    .next()
                    .ok_or_else(|| invalid("quantile needs a metric name".to_string()))?;
                let metric = MetricKind::from_name(name)
                    .ok_or_else(|| invalid(format!("unknown quantile metric `{name}`")))?;
                let tok = parts
                    .next()
                    .ok_or_else(|| invalid("quantile needs a q value".to_string()))?;
                // `to_wire` emits q as a 16-hex-digit bit pattern
                // (bit-exact); hand-written clients may send a plain
                // decimal like `0.99` instead.
                let q = match sofia_core::snapshot::wire::parse_hex16(tok) {
                    Some(q) => q,
                    None => tok
                        .parse()
                        .map_err(|_| invalid(format!("bad quantile `{tok}`")))?,
                };
                Query::Quantile { metric, q }
            }
            other => return Err(invalid(format!("unknown query `{other}`"))),
        };
        match parts.next() {
            Some(extra) => Err(invalid(format!("trailing token `{extra}`"))),
            None => Ok(query),
        }
    }
}

/// The answer to one [`Query`] (one variant per request variant).
#[derive(Debug, Clone)]
pub enum QueryResponse {
    /// Answer to [`Query::Latest`].
    Latest(Option<StepOutput>),
    /// Answer to [`Query::Forecast`].
    Forecast(Option<DenseTensor>),
    /// Answer to [`Query::OutlierMask`].
    OutlierMask(Option<Mask>),
    /// Answer to [`Query::StreamStats`].
    StreamStats(StreamStats),
    /// Answer to [`Query::Quantile`]: the estimated quantile, `None`
    /// while the probed sketch is empty.
    Quantile(Option<f64>),
}

impl QueryResponse {
    /// The response's discriminant; always equals the kind of the
    /// [`Query`] that produced it.
    pub fn kind(&self) -> QueryKind {
        match self {
            QueryResponse::Latest(_) => QueryKind::Latest,
            QueryResponse::Forecast(_) => QueryKind::Forecast,
            QueryResponse::OutlierMask(_) => QueryKind::OutlierMask,
            QueryResponse::StreamStats(_) => QueryKind::StreamStats,
            QueryResponse::Quantile(_) => QueryKind::Quantile,
        }
    }

    // The four accessors below unwrap the payload of one variant. They
    // panic on a mismatched variant — a response settled from a ticket
    // always matches its request's kind, so reaching the panic means a
    // caller mixed up its own tickets (a programming error, not a
    // serving condition).

    /// Payload of a [`QueryResponse::Latest`] answer.
    pub fn expect_latest(self) -> Option<StepOutput> {
        match self {
            QueryResponse::Latest(out) => out,
            other => panic!("expected a latest response, got {}", other.kind()),
        }
    }

    /// Payload of a [`QueryResponse::Forecast`] answer.
    pub fn expect_forecast(self) -> Option<DenseTensor> {
        match self {
            QueryResponse::Forecast(f) => f,
            other => panic!("expected a forecast response, got {}", other.kind()),
        }
    }

    /// Payload of a [`QueryResponse::OutlierMask`] answer.
    pub fn expect_outlier_mask(self) -> Option<Mask> {
        match self {
            QueryResponse::OutlierMask(m) => m,
            other => panic!("expected an outlier-mask response, got {}", other.kind()),
        }
    }

    /// Payload of a [`QueryResponse::StreamStats`] answer.
    pub fn expect_stream_stats(self) -> StreamStats {
        match self {
            QueryResponse::StreamStats(s) => s,
            other => panic!("expected a stream-stats response, got {}", other.kind()),
        }
    }

    /// Payload of a [`QueryResponse::Quantile`] answer.
    pub fn expect_quantile(self) -> Option<f64> {
        match self {
            QueryResponse::Quantile(v) => v,
            other => panic!("expected a quantile response, got {}", other.kind()),
        }
    }
}

/// Completion handle of one in-flight query.
///
/// [`crate::Fleet::query`] returns the ticket immediately after handing
/// the request to the owning shard's query queue; the caller chooses
/// when to settle it. Holding several tickets pipelines several queries:
///
/// ```
/// use sofia_fleet::{Fleet, FleetConfig, ModelHandle, Query, QueryResponse};
/// # use sofia_core::traits::{StepOutput, StreamingFactorizer};
/// # use sofia_tensor::ObservedTensor;
/// # struct Echo;
/// # impl StreamingFactorizer for Echo {
/// #     fn name(&self) -> &'static str { "echo" }
/// #     fn step(&mut self, s: &ObservedTensor) -> StepOutput {
/// #         StepOutput { completed: s.values().clone(), outliers: None }
/// #     }
/// # }
/// let fleet = Fleet::new(FleetConfig::with_shards(2)).unwrap();
/// fleet.register("a", ModelHandle::serve(Echo)).unwrap();
/// fleet.register("b", ModelHandle::serve(Echo)).unwrap();
/// // Both queries are in flight before either is settled.
/// let ta = fleet.query("a", Query::StreamStats).unwrap();
/// let tb = fleet.query("b", Query::StreamStats).unwrap();
/// assert!(matches!(tb.wait().unwrap(), QueryResponse::StreamStats(_)));
/// assert!(matches!(ta.wait().unwrap(), QueryResponse::StreamStats(_)));
/// ```
#[derive(Debug)]
pub struct QueryTicket {
    /// `None` once the response has been taken through
    /// [`QueryTicket::try_take`].
    rx: Option<mpsc::Receiver<Result<QueryResponse, FleetError>>>,
}

impl QueryTicket {
    pub(crate) fn new(rx: mpsc::Receiver<Result<QueryResponse, FleetError>>) -> Self {
        QueryTicket { rx: Some(rx) }
    }

    /// Blocks until the response arrives.
    ///
    /// Returns [`FleetError::ShuttingDown`] if the owning shard exited
    /// before answering. Panics if [`QueryTicket::try_take`] already
    /// returned the response (the ticket is spent).
    pub fn wait(mut self) -> Result<QueryResponse, FleetError> {
        let rx = self.rx.take().expect("query ticket already taken");
        rx.recv().map_err(|_| FleetError::ShuttingDown)?
    }

    /// Non-blocking poll: `None` while the query is still in flight (or
    /// after the response has already been taken), `Some` exactly once
    /// when it resolves.
    pub fn try_take(&mut self) -> Option<Result<QueryResponse, FleetError>> {
        let rx = self.rx.as_ref()?;
        match rx.try_recv() {
            Ok(res) => {
                self.rx = None;
                Some(res)
            }
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => {
                self.rx = None;
                Some(Err(FleetError::ShuttingDown))
            }
        }
    }
}

impl QueryResponse {
    /// Serializes the response into its multi-line wire form (first line
    /// `<kind> <some|none>` — or bare `stream-stats` — followed by the
    /// payload encoded by [`wire`]; floats travel as IEEE 754 hex bit
    /// patterns, so the round-trip is bit-exact).
    pub fn to_wire(&self) -> String {
        let mut out = String::new();
        wire::push_response(&mut out, self);
        out
    }

    /// Parses the multi-line wire form produced by
    /// [`QueryResponse::to_wire`]. Malformed input — truncated blocks,
    /// bad hex, shape/data mismatches, oversized shapes — is a typed
    /// [`wire::WireError`], never a panic.
    pub fn from_wire(text: &str) -> Result<QueryResponse, wire::WireError> {
        let mut cur = wire::LineCursor::new(text);
        let resp = wire::parse_response(&mut cur)?;
        cur.finish()?;
        Ok(resp)
    }
}

pub mod wire {
    //! Multi-line wire encodings of the tensor-carrying protocol types.
    //!
    //! [`Query`] already has a one-line text form; this module gives the
    //! *reply* direction (and the data plane's slices) one too, so a
    //! network transport can carry the whole protocol as framed text:
    //!
    //! * [`DenseTensor`] / [`Mask`] / [`ObservedTensor`] — a `shape` line
    //!   plus `data` (floats as 16-hex-digit IEEE 754 bit patterns, via
    //!   [`sofia_core::snapshot::wire`]) and/or `bits` (a 0/1 string);
    //! * [`StepOutput`] — completed tensor plus an `outliers some|none`
    //!   marker;
    //! * [`crate::StreamStats`] — one `key value` line per field;
    //! * [`QueryResponse`] — kind header plus the matching payload;
    //! * [`FleetError`] — a one-line typed form for `err` replies.
    //!
    //! Every parser is **total**: malformed input (truncated blocks,
    //! non-hex floats, shape/data length mismatches, absurd shapes that
    //! would allocate gigabytes) comes back as a typed [`WireError`],
    //! never a panic — the transport feeds these parsers bytes from the
    //! network.

    use super::{Query, QueryResponse};
    use crate::durability::{decode_stream_id, encode_stream_id};
    use crate::error::FleetError;
    use crate::stats::{MetricKind, StreamStats};
    use sofia_core::snapshot::wire as hexwire;
    use sofia_core::traits::StepOutput;
    use sofia_sketch::{metric::METRIC_WIRE_LINES, MetricSummary};
    use sofia_tensor::{DenseTensor, Mask, ObservedTensor, Shape};

    /// Upper bound on the element count of any tensor accepted off the
    /// wire (4Mi elements ≈ 32 MB of floats). Shapes whose dimension
    /// product exceeds this — or overflows — are rejected before any
    /// allocation happens.
    pub const MAX_WIRE_ELEMS: usize = 1 << 22;

    /// A malformed wire payload: what the parser expected and what it
    /// found. Deliberately a plain diagnostic — transport code maps it
    /// onto its own error type.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WireError {
        /// Parser diagnostic.
        pub reason: String,
    }

    impl WireError {
        /// A wire error with the given diagnostic (public so transport
        /// crates report their own parse failures through the same
        /// type).
        pub fn new(reason: impl Into<String>) -> Self {
            WireError {
                reason: reason.into(),
            }
        }
    }

    impl std::fmt::Display for WireError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "malformed wire payload: {}", self.reason)
        }
    }

    impl std::error::Error for WireError {}

    /// Line-at-a-time reader over a wire body; every consumer states what
    /// it expects so truncation errors name the missing piece.
    #[derive(Debug, Clone)]
    pub struct LineCursor<'a> {
        lines: std::str::Lines<'a>,
    }

    impl<'a> LineCursor<'a> {
        /// A cursor over `text`'s lines.
        pub fn new(text: &'a str) -> Self {
            LineCursor {
                lines: text.lines(),
            }
        }

        /// The next line, or a truncation error naming `what`.
        pub fn next(&mut self, what: &str) -> Result<&'a str, WireError> {
            self.lines
                .next()
                .ok_or_else(|| WireError::new(format!("truncated: expected {what}")))
        }

        /// The next line, if any (used by consumers with their own
        /// framing).
        pub fn try_next(&mut self) -> Option<&'a str> {
            self.lines.next()
        }

        /// The next line **without consuming it** — the probe for
        /// parsers that dispatch on the next line's key, which must not
        /// eat a line that belongs to the next concatenated response.
        pub fn peek(&self) -> Option<&'a str> {
            self.lines.clone().next()
        }

        /// Rejects trailing content after a complete parse.
        pub fn finish(mut self) -> Result<(), WireError> {
            match self.lines.next() {
                Some(extra) => Err(WireError::new(format!("trailing line `{extra}`"))),
                None => Ok(()),
            }
        }
    }

    /// Splits a `key value…` line: the rest of the line after `key ` (or
    /// empty when the line is exactly `key`).
    fn field<'a>(cur: &mut LineCursor<'a>, key: &str) -> Result<&'a str, WireError> {
        let line = cur.next(key)?;
        if line == key {
            return Ok("");
        }
        line.strip_prefix(key)
            .and_then(|r| r.strip_prefix(' '))
            .ok_or_else(|| WireError::new(format!("expected `{key}`, got `{line}`")))
    }

    fn parse_int<T: std::str::FromStr>(tok: &str, what: &str) -> Result<T, WireError> {
        tok.parse()
            .map_err(|_| WireError::new(format!("bad {what} `{tok}`")))
    }

    fn push_shape(out: &mut String, shape: &Shape) {
        out.push_str("shape");
        for d in shape.dims() {
            out.push(' ');
            out.push_str(&d.to_string());
        }
        out.push('\n');
    }

    /// Parses and **bounds** a `shape` line: every dimension positive,
    /// the element count below [`MAX_WIRE_ELEMS`] with overflow checked,
    /// so a hostile shape can neither panic `Shape::new` nor provoke a
    /// giant allocation.
    fn parse_shape(cur: &mut LineCursor<'_>) -> Result<Shape, WireError> {
        let rest = field(cur, "shape")?;
        let dims: Vec<usize> = rest
            .split_whitespace()
            .map(|tok| parse_int(tok, "shape dimension"))
            .collect::<Result<_, _>>()?;
        if dims.is_empty() {
            return Err(WireError::new("shape needs at least one dimension"));
        }
        let mut len = 1usize;
        for &d in &dims {
            if d == 0 {
                return Err(WireError::new("zero shape dimension"));
            }
            len = len
                .checked_mul(d)
                .filter(|&l| l <= MAX_WIRE_ELEMS)
                .ok_or_else(|| {
                    WireError::new(format!(
                        "shape {dims:?} exceeds the wire bound of {MAX_WIRE_ELEMS} elements"
                    ))
                })?;
        }
        Ok(Shape::new(&dims))
    }

    fn parse_hex_f64s(line: &str, label: &str) -> Result<Vec<f64>, WireError> {
        hexwire::parse_f64s(line, label).map_err(|e| WireError::new(e.to_string()))
    }

    /// Appends a tensor as `shape …` + `data <hex>…` lines.
    pub fn push_tensor(out: &mut String, t: &DenseTensor) {
        push_shape(out, t.shape());
        hexwire::push_f64s(out, "data", t.data().iter().copied());
    }

    /// Parses the two lines written by [`push_tensor`].
    pub fn parse_tensor(cur: &mut LineCursor<'_>) -> Result<DenseTensor, WireError> {
        let shape = parse_shape(cur)?;
        let data = parse_hex_f64s(cur.next("tensor data")?, "data")?;
        if data.len() != shape.len() {
            return Err(WireError::new(format!(
                "tensor data carries {} values for a {}-element shape",
                data.len(),
                shape.len()
            )));
        }
        Ok(DenseTensor::from_vec(shape, data))
    }

    fn push_bits(out: &mut String, mask: &Mask) {
        hexwire::push_bits(out, "bits ", mask.observed_flags());
    }

    fn parse_bits(line: &str, shape: &Shape) -> Result<Mask, WireError> {
        let bits = line
            .strip_prefix("bits ")
            .ok_or_else(|| WireError::new(format!("expected `bits`, got `{line}`")))?;
        let observed = hexwire::parse_bits(bits)
            .map_err(|other| WireError::new(format!("bad mask bit `{other}`")))?;
        if observed.len() != shape.len() {
            return Err(WireError::new(format!(
                "mask carries {} bits for a {}-element shape",
                observed.len(),
                shape.len()
            )));
        }
        Ok(Mask::from_vec(shape.clone(), observed))
    }

    /// Appends a mask as `shape …` + `bits 0110…` lines.
    pub fn push_mask(out: &mut String, mask: &Mask) {
        push_shape(out, mask.shape());
        push_bits(out, mask);
    }

    /// Parses the two lines written by [`push_mask`].
    pub fn parse_mask(cur: &mut LineCursor<'_>) -> Result<Mask, WireError> {
        let shape = parse_shape(cur)?;
        parse_bits(cur.next("mask bits")?, &shape)
    }

    /// Appends an observed slice as `shape` + `data` + `bits` lines (one
    /// shared shape; this is the ingest payload of the data plane).
    pub fn push_observed(out: &mut String, slice: &ObservedTensor) {
        push_shape(out, slice.shape());
        hexwire::push_f64s(out, "data", slice.values().data().iter().copied());
        push_bits(out, slice.mask());
    }

    /// Parses the three lines written by [`push_observed`].
    pub fn parse_observed(cur: &mut LineCursor<'_>) -> Result<ObservedTensor, WireError> {
        let shape = parse_shape(cur)?;
        let data = parse_hex_f64s(cur.next("slice data")?, "data")?;
        if data.len() != shape.len() {
            return Err(WireError::new(format!(
                "slice data carries {} values for a {}-element shape",
                data.len(),
                shape.len()
            )));
        }
        let mask = parse_bits(cur.next("slice bits")?, &shape)?;
        Ok(ObservedTensor::new(
            DenseTensor::from_vec(shape, data),
            mask,
        ))
    }

    /// Appends a step output: the completed tensor plus an
    /// `outliers some|none` marker (outliers reuse the completed shape).
    pub fn push_step_output(out: &mut String, step: &StepOutput) {
        push_tensor(out, &step.completed);
        match &step.outliers {
            Some(o) => {
                out.push_str("outliers some\n");
                hexwire::push_f64s(out, "data", o.data().iter().copied());
            }
            None => out.push_str("outliers none\n"),
        }
    }

    /// Parses the block written by [`push_step_output`].
    pub fn parse_step_output(cur: &mut LineCursor<'_>) -> Result<StepOutput, WireError> {
        let completed = parse_tensor(cur)?;
        let outliers = match field(cur, "outliers")? {
            "none" => None,
            "some" => {
                let data = parse_hex_f64s(cur.next("outlier data")?, "data")?;
                if data.len() != completed.len() {
                    return Err(WireError::new(
                        "outlier data does not match the completed shape",
                    ));
                }
                Some(DenseTensor::from_vec(completed.shape().clone(), data))
            }
            other => return Err(WireError::new(format!("bad outliers marker `{other}`"))),
        };
        Ok(StepOutput {
            completed,
            outliers,
        })
    }

    /// Appends one named metric sketch: a `sketch <name>` header plus
    /// the summary's six wire lines ([`MetricSummary::push_wire`]).
    pub fn push_metric_sketch(out: &mut String, metric: MetricKind, summary: &MetricSummary) {
        out.push_str("sketch ");
        out.push_str(metric.name());
        out.push('\n');
        summary.push_wire(out);
    }

    /// Parses the trailing sketch block of a stats record:
    ///
    /// ```text
    /// sketches <n>
    /// sketch <name>
    /// <six MetricSummary lines>
    /// …                      (n named sketches total)
    /// ```
    ///
    /// The block is mandatory; a metric it does not name parses as an
    /// empty summary. Unknown or duplicated sketch names are errors:
    /// the block is versioned by its names, not silently skipped.
    pub fn parse_sketch_block(
        cur: &mut LineCursor<'_>,
    ) -> Result<(MetricSummary, MetricSummary), WireError> {
        let mut ingest_latency = MetricSummary::new();
        let mut forecast_error = MetricSummary::new();
        let n: usize = parse_int(field(cur, "sketches")?, "sketch count")?;
        if n > MetricKind::ALL.len() {
            return Err(WireError::new(format!(
                "stats block claims {n} sketches (max {})",
                MetricKind::ALL.len()
            )));
        }
        let mut seen = [false; MetricKind::ALL.len()];
        for _ in 0..n {
            let name = field(cur, "sketch")?;
            let metric = MetricKind::from_name(name)
                .ok_or_else(|| WireError::new(format!("unknown sketch `{name}`")))?;
            let slot = MetricKind::ALL
                .iter()
                .position(|m| *m == metric)
                .expect("metric is in ALL");
            if seen[slot] {
                return Err(WireError::new(format!("duplicate sketch `{name}`")));
            }
            seen[slot] = true;
            let mut lines = [""; METRIC_WIRE_LINES];
            for line in &mut lines {
                *line = cur.next("metric sketch line")?;
            }
            let summary =
                MetricSummary::from_lines(lines).map_err(|e| WireError::new(e.to_string()))?;
            match metric {
                MetricKind::IngestLatency => ingest_latency = summary,
                MetricKind::ForecastError => forecast_error = summary,
            }
        }
        Ok((ingest_latency, forecast_error))
    }

    /// Appends per-stream stats as `key value` lines (the id is
    /// percent-encoded with the checkpoint-filename encoding), followed
    /// by the metric sketch block ([`parse_sketch_block`]).
    pub fn push_stream_stats(out: &mut String, stats: &StreamStats) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "stream {}", encode_stream_id(&stats.stream));
        let _ = writeln!(out, "model {}", stats.model);
        let _ = writeln!(out, "shard {}", stats.shard);
        let _ = writeln!(out, "steps {}", stats.steps);
        let _ = writeln!(out, "queue-depth {}", stats.queue_depth);
        let _ = writeln!(out, "since-checkpoint {}", stats.steps_since_checkpoint);
        out.push_str("sketches 2\n");
        push_metric_sketch(out, MetricKind::IngestLatency, &stats.ingest_latency);
        push_metric_sketch(out, MetricKind::ForecastError, &stats.forecast_error);
    }

    /// Parses the block written by [`push_stream_stats`].
    pub fn parse_stream_stats(cur: &mut LineCursor<'_>) -> Result<StreamStats, WireError> {
        let stream = decode_stream_id(field(cur, "stream")?)
            .ok_or_else(|| WireError::new("undecodable stream id"))?;
        let model = field(cur, "model")?.to_string();
        let shard = parse_int(field(cur, "shard")?, "shard")?;
        let steps = parse_int(field(cur, "steps")?, "steps")?;
        let queue_depth = parse_int(field(cur, "queue-depth")?, "queue depth")?;
        let steps_since_checkpoint =
            parse_int(field(cur, "since-checkpoint")?, "checkpoint counter")?;
        let (ingest_latency, forecast_error) = parse_sketch_block(cur)?;
        Ok(StreamStats {
            stream,
            model,
            shard,
            steps,
            queue_depth,
            steps_since_checkpoint,
            ingest_latency,
            forecast_error,
        })
    }

    /// Appends one [`QueryResponse`] (kind header + payload). The block
    /// is self-delimiting: [`parse_response`] consumes exactly these
    /// lines, so responses concatenate (batched replies).
    pub fn push_response(out: &mut String, resp: &QueryResponse) {
        match resp {
            QueryResponse::Latest(step) => match step {
                None => out.push_str("latest none\n"),
                Some(s) => {
                    out.push_str("latest some\n");
                    push_step_output(out, s);
                }
            },
            QueryResponse::Forecast(f) => match f {
                None => out.push_str("forecast none\n"),
                Some(t) => {
                    out.push_str("forecast some\n");
                    push_tensor(out, t);
                }
            },
            QueryResponse::OutlierMask(m) => match m {
                None => out.push_str("outlier-mask none\n"),
                Some(mask) => {
                    out.push_str("outlier-mask some\n");
                    push_mask(out, mask);
                }
            },
            QueryResponse::StreamStats(s) => {
                out.push_str("stream-stats\n");
                push_stream_stats(out, s);
            }
            QueryResponse::Quantile(v) => match v {
                None => out.push_str("quantile none\n"),
                Some(q) => {
                    out.push_str("quantile some\n");
                    hexwire::push_f64s(out, "value", [*q]);
                }
            },
        }
    }

    /// Parses one [`QueryResponse`] block written by [`push_response`].
    pub fn parse_response(cur: &mut LineCursor<'_>) -> Result<QueryResponse, WireError> {
        let head = cur.next("response header")?;
        let mut parts = head.split_whitespace();
        let kind = parts.next().unwrap_or("");
        let presence = parts.next();
        if parts.next().is_some() {
            return Err(WireError::new(format!("trailing token in `{head}`")));
        }
        let some = match (kind, presence) {
            ("stream-stats", None) => {
                return Ok(QueryResponse::StreamStats(parse_stream_stats(cur)?))
            }
            (_, Some("some")) => true,
            (_, Some("none")) => false,
            _ => return Err(WireError::new(format!("bad response header `{head}`"))),
        };
        match kind {
            "latest" => Ok(QueryResponse::Latest(if some {
                Some(parse_step_output(cur)?)
            } else {
                None
            })),
            "forecast" => Ok(QueryResponse::Forecast(if some {
                Some(parse_tensor(cur)?)
            } else {
                None
            })),
            "outlier-mask" => Ok(QueryResponse::OutlierMask(if some {
                Some(parse_mask(cur)?)
            } else {
                None
            })),
            "quantile" => Ok(QueryResponse::Quantile(if some {
                let hex = field(cur, "value")?;
                Some(
                    hexwire::parse_f64(hex)
                        .ok_or_else(|| WireError::new(format!("bad quantile value `{hex}`")))?,
                )
            } else {
                None
            })),
            other => Err(WireError::new(format!("unknown response kind `{other}`"))),
        }
    }

    /// One round-trip-capable line per [`FleetError`] variant, used by
    /// `err` replies. I/O and panic details survive as display strings —
    /// the *classification* round-trips exactly, the embedded
    /// `std::io::Error` does not (it comes back as
    /// `ErrorKind::Other`).
    impl FleetError {
        /// Serializes the error into its one-line wire form.
        pub fn to_wire(&self) -> String {
            match self {
                FleetError::UnknownStream(id) => {
                    format!("unknown-stream {}", encode_stream_id(id))
                }
                FleetError::DuplicateStream(id) => {
                    format!("duplicate-stream {}", encode_stream_id(id))
                }
                FleetError::ShuttingDown => "shutting-down".to_string(),
                FleetError::ModelPanicked { stream } => {
                    format!("model-panicked {}", encode_stream_id(stream))
                }
                FleetError::InvalidQuery { reason } => format!("invalid-query {reason}"),
                FleetError::Io(e) => format!("io {e}"),
                FleetError::Corrupt { stream, reason } => {
                    format!("corrupt {} {reason}", encode_stream_id(stream))
                }
                FleetError::StaleEpoch { epoch } => format!("stale-epoch {epoch}"),
                FleetError::LeaseExpired { slot } => format!("lease-expired {slot}"),
            }
        }

        /// Parses the one-line wire form produced by
        /// [`FleetError::to_wire`].
        pub fn from_wire(line: &str) -> Result<FleetError, WireError> {
            let (head, rest) = match line.split_once(' ') {
                Some((h, r)) => (h, r),
                None => (line, ""),
            };
            let id =
                || decode_stream_id(rest).ok_or_else(|| WireError::new("undecodable stream id"));
            match head {
                "unknown-stream" => Ok(FleetError::UnknownStream(id()?)),
                "duplicate-stream" => Ok(FleetError::DuplicateStream(id()?)),
                "shutting-down" => Ok(FleetError::ShuttingDown),
                "model-panicked" => Ok(FleetError::ModelPanicked { stream: id()? }),
                "invalid-query" => Ok(FleetError::InvalidQuery {
                    reason: rest.to_string(),
                }),
                "io" => Ok(FleetError::Io(std::io::Error::other(rest.to_string()))),
                "corrupt" => {
                    let (stream, reason) = match rest.split_once(' ') {
                        Some((s, r)) => (s, r),
                        None => (rest, ""),
                    };
                    Ok(FleetError::Corrupt {
                        stream: decode_stream_id(stream)
                            .ok_or_else(|| WireError::new("undecodable stream id"))?,
                        reason: reason.to_string(),
                    })
                }
                "stale-epoch" => Ok(FleetError::StaleEpoch {
                    epoch: rest
                        .parse()
                        .map_err(|_| WireError::new(format!("bad epoch `{rest}`")))?,
                }),
                "lease-expired" => Ok(FleetError::LeaseExpired {
                    slot: rest
                        .parse()
                        .map_err(|_| WireError::new(format!("bad slot `{rest}`")))?,
                }),
                other => Err(WireError::new(format!("unknown error code `{other}`"))),
            }
        }
    }

    impl Query {
        /// Alias of [`Query::from_wire`] returning the transport error
        /// type, so frame parsers surface one error kind.
        pub fn from_wire_line(line: &str) -> Result<Query, WireError> {
            Query::from_wire(line).map_err(|e| WireError::new(e.to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofia_sketch::MetricSummary;
    use sofia_tensor::ObservedTensor;

    #[test]
    fn wire_round_trips_every_kind() {
        let queries = [
            Query::Latest,
            Query::Forecast { horizon: 12 },
            Query::OutlierMask,
            Query::StreamStats,
            Query::Quantile {
                metric: MetricKind::IngestLatency,
                q: 0.99,
            },
            Query::Quantile {
                metric: MetricKind::ForecastError,
                q: 0.5,
            },
        ];
        for q in queries {
            let line = q.to_wire();
            assert_eq!(Query::from_wire(&line).unwrap(), q, "wire `{line}`");
        }
    }

    #[test]
    fn quantile_query_accepts_decimal_and_hex_q() {
        // `to_wire` emits the 16-hex-digit bit pattern; a hand-written
        // client may send a plain decimal instead.
        let hex = Query::from_wire(&format!(
            "quantile ingest-latency {:016x}",
            0.99f64.to_bits()
        ))
        .unwrap();
        let dec = Query::from_wire("quantile ingest-latency 0.99").unwrap();
        assert_eq!(hex, dec);
        assert!(hex.validate().is_ok());
        // Parse/validate split: NaN and out-of-range q parse but fail
        // validation; a bad metric or missing q fails the parse.
        for line in [
            "quantile forecast-error 1.5",
            "quantile forecast-error -0.25",
            &format!("quantile forecast-error {:016x}", f64::NAN.to_bits()),
        ] {
            let q = Query::from_wire(line).unwrap();
            assert!(
                matches!(q.validate(), Err(FleetError::InvalidQuery { .. })),
                "{line}"
            );
        }
        for line in [
            "quantile",
            "quantile latency 0.99",
            "quantile ingest-latency",
            "quantile ingest-latency x",
            "quantile ingest-latency 0.99 extra",
        ] {
            assert!(Query::from_wire(line).is_err(), "{line}");
        }
    }

    #[test]
    fn wire_rejects_malformed_lines() {
        for line in [
            "",
            "  ",
            "foo",
            "forecast",
            "forecast x",
            "forecast -3",
            "latest 1",
            "forecast 1 2",
        ] {
            assert!(
                matches!(Query::from_wire(line), Err(FleetError::InvalidQuery { .. })),
                "line `{line}` should not parse"
            );
        }
    }

    #[test]
    fn zero_horizon_parses_but_fails_validation() {
        // Transport and semantics fail distinctly: `forecast 0` is a
        // well-formed line carrying an unanswerable request.
        let q = Query::from_wire("forecast 0").unwrap();
        assert_eq!(q, Query::Forecast { horizon: 0 });
        assert!(matches!(q.validate(), Err(FleetError::InvalidQuery { .. })));
        assert!(Query::Forecast { horizon: 1 }.validate().is_ok());
        assert!(Query::Latest.validate().is_ok());
    }

    fn sample_responses() -> Vec<QueryResponse> {
        use sofia_tensor::Shape;
        let t = DenseTensor::from_vec(
            Shape::new(&[2, 3]),
            vec![1.5, -0.0, f64::INFINITY, 2.0f64.powi(-1030), 3.25, -9.5e300],
        );
        let mask = Mask::from_vec(
            Shape::new(&[2, 3]),
            vec![true, false, true, true, false, false],
        );
        let mut latency = MetricSummary::new();
        let mut drift = MetricSummary::new();
        for i in 0..250 {
            latency.observe(80.0 + (i as f64).sin().abs() * 900.0);
            drift.observe(2.0f64.powi(-(i % 40)) * if i % 7 == 0 { -0.0 } else { 1.0 });
        }
        vec![
            QueryResponse::Latest(None),
            QueryResponse::Latest(Some(StepOutput {
                completed: t.clone(),
                outliers: None,
            })),
            QueryResponse::Latest(Some(StepOutput {
                completed: t.clone(),
                outliers: Some(t.map(|v| v * 0.5)),
            })),
            QueryResponse::Forecast(None),
            QueryResponse::Forecast(Some(t)),
            QueryResponse::OutlierMask(None),
            QueryResponse::OutlierMask(Some(mask)),
            QueryResponse::StreamStats(StreamStats {
                stream: "sensor net/α-7".to_string(),
                model: "SOFIA".to_string(),
                shard: 3,
                steps: 17,
                queue_depth: 2,
                steps_since_checkpoint: 5,
                ingest_latency: latency,
                forecast_error: drift,
            }),
            QueryResponse::StreamStats(StreamStats {
                stream: String::new(),
                model: "echo".to_string(),
                shard: 0,
                steps: 0,
                queue_depth: 0,
                steps_since_checkpoint: 0,
                ingest_latency: MetricSummary::new(),
                forecast_error: MetricSummary::new(),
            }),
            QueryResponse::Quantile(None),
            QueryResponse::Quantile(Some(987.654321)),
            QueryResponse::Quantile(Some(-0.0)),
            QueryResponse::Quantile(Some(2.0f64.powi(-1040))),
        ]
    }

    /// Structural equality for the round-trip assertions (bit-exact on
    /// floats; `QueryResponse` itself has no `PartialEq` because tensors
    /// compare bit-wise only on purpose here).
    fn assert_same(a: &QueryResponse, b: &QueryResponse) {
        let bits = |t: &DenseTensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        match (a, b) {
            (QueryResponse::Latest(None), QueryResponse::Latest(None)) => {}
            (QueryResponse::Latest(Some(x)), QueryResponse::Latest(Some(y))) => {
                assert_eq!(x.completed.shape().dims(), y.completed.shape().dims());
                assert_eq!(bits(&x.completed), bits(&y.completed));
                match (&x.outliers, &y.outliers) {
                    (None, None) => {}
                    (Some(xo), Some(yo)) => assert_eq!(bits(xo), bits(yo)),
                    _ => panic!("outlier presence diverged"),
                }
            }
            (QueryResponse::Forecast(None), QueryResponse::Forecast(None)) => {}
            (QueryResponse::Forecast(Some(x)), QueryResponse::Forecast(Some(y))) => {
                assert_eq!(x.shape().dims(), y.shape().dims());
                assert_eq!(bits(x), bits(y));
            }
            (QueryResponse::OutlierMask(None), QueryResponse::OutlierMask(None)) => {}
            (QueryResponse::OutlierMask(Some(x)), QueryResponse::OutlierMask(Some(y))) => {
                assert_eq!(x.shape().dims(), y.shape().dims());
                let obs = |m: &Mask| {
                    (0..m.shape().len())
                        .map(|i| m.is_observed_flat(i))
                        .collect::<Vec<_>>()
                };
                assert_eq!(obs(x), obs(y));
            }
            (QueryResponse::StreamStats(x), QueryResponse::StreamStats(y)) => {
                assert_eq!(x.stream, y.stream);
                assert_eq!(x.model, y.model);
                assert_eq!(x.shard, y.shard);
                assert_eq!(x.steps, y.steps);
                assert_eq!(x.queue_depth, y.queue_depth);
                assert_eq!(x.steps_since_checkpoint, y.steps_since_checkpoint);
                // Emission compresses a digest's pending buffer, so the
                // in-memory structs may differ; the wire form is the
                // canonical bit pattern and must match exactly.
                let sketch_wire = |m: &MetricSummary| {
                    let mut s = String::new();
                    m.push_wire(&mut s);
                    s
                };
                assert_eq!(
                    sketch_wire(&x.ingest_latency),
                    sketch_wire(&y.ingest_latency)
                );
                assert_eq!(
                    sketch_wire(&x.forecast_error),
                    sketch_wire(&y.forecast_error)
                );
            }
            (QueryResponse::Quantile(x), QueryResponse::Quantile(y)) => {
                assert_eq!(x.map(f64::to_bits), y.map(f64::to_bits));
            }
            (a, b) => panic!("variant diverged: {:?} vs {:?}", a.kind(), b.kind()),
        }
    }

    #[test]
    fn response_wire_round_trips_bit_exactly() {
        for resp in sample_responses() {
            let text = resp.to_wire();
            let back =
                QueryResponse::from_wire(&text).unwrap_or_else(|e| panic!("{e} parsing:\n{text}"));
            assert_same(&resp, &back);
        }
    }

    #[test]
    fn observed_slice_wire_round_trips() {
        use sofia_tensor::Shape;
        let slice = ObservedTensor::new(
            DenseTensor::from_vec(Shape::new(&[2, 2]), vec![1.0, -2.5, 0.0, 4.0]),
            Mask::from_vec(Shape::new(&[2, 2]), vec![true, true, false, true]),
        );
        let mut out = String::new();
        wire::push_observed(&mut out, &slice);
        let mut cur = wire::LineCursor::new(&out);
        let back = wire::parse_observed(&mut cur).expect("parse");
        cur.finish().expect("no trailing lines");
        assert_eq!(back.values().data(), slice.values().data());
        assert_eq!(back.count_observed(), 3);
    }

    #[test]
    fn response_wire_rejects_malformed_never_panics() {
        let cases = [
            "",
            "latest",
            "latest maybe",
            "latest some",
            "latest some\nshape 2 2\ndata 3ff0000000000000",
            "forecast some\nshape 0\ndata 0",
            "forecast some\nshape\ndata 0",
            "forecast some\nshape 4294967295 4294967295 4294967295\ndata 0",
            "forecast some\nshape 2\ndata zz zz",
            "forecast some\nshape 1\ndata 3ff0000000000000\ntrailing",
            "outlier-mask some\nshape 2\nbits 012",
            "outlier-mask some\nshape 3\nbits 01",
            "stream-stats\nstream ok\nmodel m\nshard x\nsteps 1\nqueue-depth 0\nsince-checkpoint 0",
            "stream-stats\nstream %zz\nmodel m\nshard 0\nsteps 1\nqueue-depth 0\nsince-checkpoint 0",
            // A record without its (mandatory) sketch block.
            "stream-stats\nstream s\nmodel m\nshard 0\nsteps 1\nqueue-depth 0\nsince-checkpoint 0",
            // Sketch block present but structurally broken: bad count,
            // unknown metric name, duplicate metric, truncated summary.
            "stream-stats\nstream s\nmodel m\nshard 0\nsteps 1\nqueue-depth 0\nsince-checkpoint 0\nsketches 9",
            "stream-stats\nstream s\nmodel m\nshard 0\nsteps 1\nqueue-depth 0\nsince-checkpoint 0\nsketches x",
            "stream-stats\nstream s\nmodel m\nshard 0\nsteps 1\nqueue-depth 0\nsince-checkpoint 0\nsketches 1\nsketch bogus-metric\ntdigest 0\ntmeans\ntweights\ntrange 7ff8000000000000 7ff8000000000000\nmoments 0\nmstate 7ff8000000000000 7ff8000000000000 0000000000000000 0000000000000000",
            "stream-stats\nstream s\nmodel m\nshard 0\nsteps 1\nqueue-depth 0\nsince-checkpoint 0\nsketches 2\nsketch ingest-latency\ntdigest 0\ntmeans\ntweights\ntrange 7ff8000000000000 7ff8000000000000\nmoments 0\nmstate 7ff8000000000000 7ff8000000000000 0000000000000000 0000000000000000\nsketch ingest-latency\ntdigest 0\ntmeans\ntweights\ntrange 7ff8000000000000 7ff8000000000000\nmoments 0\nmstate 7ff8000000000000 7ff8000000000000 0000000000000000 0000000000000000",
            "stream-stats\nstream s\nmodel m\nshard 0\nsteps 1\nqueue-depth 0\nsince-checkpoint 0\nsketches 1\nsketch ingest-latency\ntdigest 0",
            // Quantile responses with a broken payload.
            "quantile",
            "quantile maybe",
            "quantile some",
            "quantile some\nvalue",
            "quantile some\nvalue zz",
            "quantile some\nvalue 3ff0000000000000 extra",
            "latest some extra",
            "bogus some",
        ];
        for case in cases {
            assert!(
                QueryResponse::from_wire(case).is_err(),
                "should reject:\n{case}"
            );
        }
    }

    mod roundtrip_property {
        //! The acceptance property: any tensor payload — arbitrary bit
        //! patterns, so NaNs, infinities, subnormals, negative zero —
        //! survives the wire byte-for-byte.
        use super::*;
        use proptest::prelude::*;
        use sofia_tensor::Shape;

        fn assert_bits(a: &DenseTensor, b: &DenseTensor) {
            assert_eq!(a.shape().dims(), b.shape().dims());
            for (x, y) in a.data().iter().zip(b.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(192))]

            #[test]
            fn forecast_and_latest_round_trip_any_bit_pattern(
                bits in prop::collection::vec(0u64..u64::MAX, 1..24)
            ) {
                // The vendored proptest has no bool strategy; derive the
                // outlier toggle from the drawn data instead.
                let with_outliers = bits.len().is_multiple_of(2);
                let data: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
                let t = DenseTensor::from_vec(Shape::new(&[data.len()]), data);

                let forecast = QueryResponse::Forecast(Some(t.clone()));
                let back = QueryResponse::from_wire(&forecast.to_wire()).expect("parse");
                let QueryResponse::Forecast(Some(bt)) = back else {
                    panic!("variant survived");
                };
                assert_bits(&t, &bt);

                let latest = QueryResponse::Latest(Some(StepOutput {
                    completed: t.clone(),
                    outliers: with_outliers.then(|| t.map(|v| -v)),
                }));
                let back = QueryResponse::from_wire(&latest.to_wire()).expect("parse");
                let QueryResponse::Latest(Some(step)) = back else {
                    panic!("variant survived");
                };
                assert_bits(&t, &step.completed);
                assert_eq!(step.outliers.is_some(), with_outliers);
                if let Some(o) = &step.outliers {
                    assert_bits(&t.map(|v| -v), o);
                }
            }
        }
    }

    #[test]
    fn fleet_error_wire_round_trips_classification() {
        let errors = [
            FleetError::UnknownStream("a b/c".into()),
            FleetError::DuplicateStream("x".into()),
            FleetError::ShuttingDown,
            FleetError::ModelPanicked { stream: "s".into() },
            FleetError::InvalidQuery {
                reason: "forecast horizon must be at least 1 (got 0)".into(),
            },
            FleetError::Io(std::io::Error::other("disk on fire")),
            FleetError::Corrupt {
                stream: "s/1".into(),
                reason: "bad header".into(),
            },
            FleetError::StaleEpoch { epoch: u64::MAX },
            FleetError::LeaseExpired { slot: 7 },
        ];
        for e in errors {
            let line = e.to_wire();
            let back = FleetError::from_wire(&line).unwrap_or_else(|w| panic!("{w}: `{line}`"));
            assert_eq!(
                std::mem::discriminant(&e),
                std::mem::discriminant(&back),
                "`{line}`"
            );
            match (&e, &back) {
                (FleetError::UnknownStream(a), FleetError::UnknownStream(b)) => assert_eq!(a, b),
                (
                    FleetError::InvalidQuery { reason: a },
                    FleetError::InvalidQuery { reason: b },
                ) => {
                    assert_eq!(a, b)
                }
                (
                    FleetError::Corrupt {
                        stream: a,
                        reason: ra,
                    },
                    FleetError::Corrupt {
                        stream: b,
                        reason: rb,
                    },
                ) => {
                    assert_eq!(a, b);
                    assert_eq!(ra, rb);
                }
                (FleetError::StaleEpoch { epoch: a }, FleetError::StaleEpoch { epoch: b }) => {
                    assert_eq!(a, b)
                }
                (FleetError::LeaseExpired { slot: a }, FleetError::LeaseExpired { slot: b }) => {
                    assert_eq!(a, b)
                }
                _ => {}
            }
        }
        assert!(FleetError::from_wire("not-an-error").is_err());
        assert!(FleetError::from_wire("").is_err());
        assert!(FleetError::from_wire("stale-epoch").is_err());
        assert!(FleetError::from_wire("stale-epoch x").is_err());
        assert!(FleetError::from_wire("lease-expired -1").is_err());
    }

    #[test]
    fn kinds_line_up() {
        assert_eq!(Query::Latest.kind(), QueryKind::Latest);
        assert_eq!(Query::Forecast { horizon: 3 }.kind(), QueryKind::Forecast);
        assert_eq!(Query::OutlierMask.kind(), QueryKind::OutlierMask);
        assert_eq!(Query::StreamStats.kind(), QueryKind::StreamStats);
        for kind in QueryKind::ALL {
            assert!(!kind.name().is_empty());
        }
    }
}
