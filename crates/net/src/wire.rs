//! Frames and request/reply bodies of the TCP data plane.
//!
//! ## Frame grammar
//!
//! Every message in either direction is one **length-framed** UTF-8 text
//! body:
//!
//! ```text
//! #<len>\n<len bytes of body>
//! ```
//!
//! The body's first line names the message; further lines carry the
//! payload in the encodings of [`sofia_fleet::protocol::wire`] (floats
//! as IEEE 754 hex bit patterns — everything that crosses the socket
//! round-trips bit-exactly). Stream ids are percent-encoded with the
//! checkpoint-filename encoding, so ids with spaces or separators stay
//! one token.
//!
//! Client → server bodies ([`Request`]):
//!
//! ```text
//! hello <client>                       handshake (first frame)
//! query <req-id> <stream> <query…>     one typed query (Query::to_wire)
//! batch <req-id> <n>                   n lines `<stream> <query…>`
//! register <req-id> <stream>           rest of body = checkpoint envelope
//! ingest <req-id> <stream> <n>         n blocks `seq <s>` + shape/data/bits
//! snapshot <req-id> <stream>           read the model as an envelope (migration)
//! deregister <req-id> <stream>         unload + delete the stream here
//! remap <req-id>                       rest of body = shard-map block to install
//! lease <req-id> grant <slot> <ttl-ms> grant/renew a slot ownership lease
//! lease <req-id> revoke <slot>         fence a slot off immediately
//! streams <req-id> [slot <s>]          list held stream ids (slot enumeration)
//! flush <req-id>                       read-your-writes barrier
//! stats <req-id>                       fleet-wide statistics
//! metrics <req-id>                     node-health snapshot (NetStats)
//! shutdown <req-id>                    graceful server shutdown
//! ```
//!
//! The six stream-addressed verbs (`query`, `batch`, `register`,
//! `ingest`, `snapshot`, `deregister`) accept an optional `@<epoch>`
//! token immediately after the request id — the sender's shard-map
//! epoch, which makes the request **fenced** (see [`crate::cluster`]).
//! `@` never appears in a percent-encoded id, so the token is
//! unambiguous; requests without it are the pre-autonomy wire form,
//! byte-identical in both directions.
//!
//! Server → client bodies: `ok <req-id>` followed by the reply payload,
//! or `err <req-id> <fleet-error…>` ([`FleetError::to_wire`]). Replies
//! arrive **in request order**, so a client that writes several frames
//! before reading any reply has that many requests pipelined on one
//! socket.
//!
//! Every parser here is total: oversized, truncated, or non-UTF-8
//! frames and malformed bodies surface as typed errors
//! ([`FrameError`], [`WireError`]) — never a panic — because these
//! functions feed on bytes from the network.

use sofia_fleet::protocol::wire::{self, LineCursor, WireError};
use sofia_fleet::{shard_of, FleetError, FleetStats, MetricKind, Query, QueryCounters, ShardStats};
use sofia_tensor::ObservedTensor;
use std::io::{self, BufRead, Write};

/// Default bound on one frame's body, in bytes (32 MiB). A peer
/// announcing a bigger frame is rejected before any allocation.
pub const MAX_FRAME_BYTES: usize = 32 << 20;

/// Longest accepted `#<len>` header (fits any length under 10^16).
pub(crate) const MAX_HEADER_BYTES: usize = 18;

/// A frame that could not be read: transport trouble or a peer that is
/// not speaking the protocol.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying socket failed.
    Io(io::Error),
    /// The `#<len>\n` header line is missing or malformed.
    BadHeader(String),
    /// The announced body length exceeds the receiver's bound.
    Oversized {
        /// Announced body length.
        len: usize,
        /// The receiver's bound.
        max: usize,
    },
    /// The connection closed mid-frame.
    Truncated,
    /// The body is not valid UTF-8.
    NotUtf8,
    /// No frame arrived within the reader's timeout (see
    /// [`crate::Client::set_read_timeout`]) — the typed alternative to
    /// hanging forever on a peer that died mid-reply.
    TimedOut,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::BadHeader(h) => write!(f, "bad frame header `{h}`"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte bound")
            }
            FrameError::Truncated => write!(f, "connection closed mid-frame"),
            FrameError::NotUtf8 => write!(f, "frame body is not valid UTF-8"),
            FrameError::TimedOut => write!(f, "timed out waiting for a frame"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one `#<len>\n<body>` frame and flushes.
pub fn write_frame(w: &mut impl Write, body: &str) -> io::Result<()> {
    // One buffered write so a frame is one TCP segment when it fits.
    let mut out = Vec::with_capacity(body.len() + MAX_HEADER_BYTES);
    out.extend_from_slice(format!("#{}\n", body.len()).as_bytes());
    out.extend_from_slice(body.as_bytes());
    w.write_all(&out)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` on a clean EOF **at a frame boundary**
/// (the peer hung up between frames); EOF anywhere else is
/// [`FrameError::Truncated`]. Bodies longer than `max` are rejected
/// without being read.
pub fn read_frame(r: &mut impl BufRead, max: usize) -> Result<Option<String>, FrameError> {
    // Header: `#<digits>\n`, read byte-wise (the reader is buffered).
    let mut header = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) if header.is_empty() => return Ok(None),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                header.push(byte[0]);
                if header.len() > MAX_HEADER_BYTES {
                    return Err(FrameError::BadHeader(
                        String::from_utf8_lossy(&header).into(),
                    ));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // A blocking socket with a read timeout reports an expired
            // wait as `WouldBlock`/`TimedOut` depending on platform.
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(FrameError::TimedOut)
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let text = std::str::from_utf8(&header).map_err(|_| FrameError::NotUtf8)?;
    let len: usize = text
        .strip_prefix('#')
        .and_then(|d| d.parse().ok())
        .ok_or_else(|| FrameError::BadHeader(text.to_string()))?;
    if len > max {
        return Err(FrameError::Oversized { len, max });
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => FrameError::Truncated,
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => FrameError::TimedOut,
        _ => FrameError::Io(e),
    })?;
    String::from_utf8(body)
        .map(Some)
        .map_err(|_| FrameError::NotUtf8)
}

/// Percent-encodes a stream id (or other token) for the wire; the
/// checkpoint-filename encoding, reused so one injective escaping rule
/// covers disk and socket.
pub use sofia_fleet::durability::{decode_stream_id, encode_stream_id};

/// One parsed client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake; must be the first frame on a connection.
    Hello {
        /// Free-form client name (diagnostics only).
        client: String,
    },
    /// One typed query against one stream.
    Query {
        /// Pipelining id, echoed by the reply.
        id: u64,
        /// The sender's shard-map epoch (`None` on an epoch-free
        /// request — pre-autonomy clients, or a map still at epoch 0).
        /// A carried epoch makes the request **fenced**: the server
        /// rejects it with `stale-epoch` when the epoch mismatches or
        /// its map says another node owns the stream.
        epoch: Option<u64>,
        /// Target stream.
        stream: String,
        /// The request, exactly as the in-process plane types it.
        query: Query,
    },
    /// A multi-stream batch, answered with one queue round-trip per
    /// involved shard (item replies stay aligned with the items).
    QueryBatch {
        /// Pipelining id.
        id: u64,
        /// The sender's shard-map epoch (fencing; see
        /// [`Request::Query`]).
        epoch: Option<u64>,
        /// `(stream, query)` items, in reply order.
        items: Vec<(String, Query)>,
    },
    /// Install a model for a new stream; the payload is a checkpoint
    /// envelope (`ModelHandle::checkpoint_text`), restored server-side
    /// through the same bit-exact path crash recovery uses.
    Register {
        /// Pipelining id.
        id: u64,
        /// The sender's shard-map epoch (fencing; see
        /// [`Request::Query`]).
        epoch: Option<u64>,
        /// Stream id to register.
        stream: String,
        /// The checkpoint envelope, byte-for-byte.
        envelope: String,
    },
    /// Batched data-plane ingest for one stream: slices with client
    /// sequence numbers, applied in order until the shard pushes back.
    Ingest {
        /// Pipelining id.
        id: u64,
        /// The sender's shard-map epoch (fencing; see
        /// [`Request::Query`]).
        epoch: Option<u64>,
        /// Target stream.
        stream: String,
        /// `(seq, slice)` in ingest order.
        slices: Vec<(u64, ObservedTensor)>,
    },
    /// Read a stream's current model as its checkpoint envelope — the
    /// exact payload [`Request::Register`] accepts, so `snapshot` here
    /// and `register` there is a migration; the read half of
    /// [`sofia_fleet::Fleet::export_stream`].
    Snapshot {
        /// Pipelining id.
        id: u64,
        /// The sender's shard-map epoch (fencing; see
        /// [`Request::Query`]).
        epoch: Option<u64>,
        /// Stream to export.
        stream: String,
    },
    /// Remove a stream from this server entirely (model unloaded, id
    /// freed, checkpoint file deleted) — the final step of a migration
    /// hand-off ([`sofia_fleet::Fleet::deregister`] over TCP).
    Deregister {
        /// Pipelining id.
        id: u64,
        /// The sender's shard-map epoch (fencing; see
        /// [`Request::Query`]).
        epoch: Option<u64>,
        /// Stream to remove.
        stream: String,
    },
    /// Install a newer shard map on the serving node (the payload is a
    /// full shard-map block). The server adopts it iff its epoch is
    /// **strictly greater** than the one it holds and answers
    /// `stale-epoch` otherwise — this is how maps self-propagate after
    /// a migration or a node restart.
    Remap {
        /// Pipelining id.
        id: u64,
        /// The map to install.
        map: ShardMap,
    },
    /// Grant (or renew) this node's ownership lease on a route slot
    /// for `ttl_ms` milliseconds ([`sofia_fleet::LeaseTable`]). The
    /// first grant flips the node to lease-enforcing.
    LeaseGrant {
        /// Pipelining id.
        id: u64,
        /// Route slot the lease covers.
        slot: u64,
        /// Lease duration from the server's receipt, in milliseconds.
        ttl_ms: u64,
    },
    /// Revoke this node's lease on a route slot immediately (the
    /// coordinator is about to re-home it).
    LeaseRevoke {
        /// Pipelining id.
        id: u64,
        /// Route slot to fence off.
        slot: u64,
    },
    /// List the stream ids this node currently holds, optionally
    /// restricted to one route slot of the server's map — the slot
    /// enumeration a slot-granularity migration sweeps over.
    Streams {
        /// Pipelining id.
        id: u64,
        /// Restrict the listing to this route slot.
        slot: Option<u64>,
    },
    /// Read-your-writes barrier ([`sofia_fleet::Fleet::flush`] over TCP).
    Flush {
        /// Pipelining id.
        id: u64,
    },
    /// Fleet-wide statistics snapshot.
    Stats {
        /// Pipelining id.
        id: u64,
    },
    /// Node-health snapshot: the serving node's [`crate::NetStats`]
    /// (network-core counters, settle-latency summary, slow-request
    /// ring) in its versioned wire form.
    Metrics {
        /// Pipelining id.
        id: u64,
    },
    /// Ask the server to drain and exit gracefully.
    Shutdown {
        /// Pipelining id.
        id: u64,
    },
}

impl Request {
    /// The request's pipelining id (0 for the handshake).
    pub fn id(&self) -> u64 {
        match self {
            Request::Hello { .. } => 0,
            Request::Query { id, .. }
            | Request::QueryBatch { id, .. }
            | Request::Register { id, .. }
            | Request::Ingest { id, .. }
            | Request::Snapshot { id, .. }
            | Request::Deregister { id, .. }
            | Request::Remap { id, .. }
            | Request::LeaseGrant { id, .. }
            | Request::LeaseRevoke { id, .. }
            | Request::Streams { id, .. }
            | Request::Flush { id }
            | Request::Stats { id }
            | Request::Metrics { id }
            | Request::Shutdown { id } => *id,
        }
    }

    /// The request's wire verb as a static string — what the server's
    /// slow-request ring records without allocating per request.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Hello { .. } => "hello",
            Request::Query { .. } => "query",
            Request::QueryBatch { .. } => "batch",
            Request::Register { .. } => "register",
            Request::Ingest { .. } => "ingest",
            Request::Snapshot { .. } => "snapshot",
            Request::Deregister { .. } => "deregister",
            Request::Remap { .. } => "remap",
            Request::LeaseGrant { .. } | Request::LeaseRevoke { .. } => "lease",
            Request::Streams { .. } => "streams",
            Request::Flush { .. } => "flush",
            Request::Stats { .. } => "stats",
            Request::Metrics { .. } => "metrics",
            Request::Shutdown { .. } => "shutdown",
        }
    }

    /// Serializes the request into one frame body.
    pub fn to_body(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        match self {
            Request::Hello { client } => {
                let _ = writeln!(out, "hello {}", encode_stream_id(client));
            }
            Request::Query {
                id,
                epoch,
                stream,
                query,
            } => {
                let _ = writeln!(
                    out,
                    "query {id}{} {} {}",
                    epoch_token(*epoch),
                    encode_stream_id(stream),
                    query.to_wire()
                );
            }
            Request::QueryBatch { id, epoch, items } => {
                let _ = writeln!(out, "batch {id}{} {}", epoch_token(*epoch), items.len());
                for (stream, query) in items {
                    let _ = writeln!(out, "{} {}", encode_stream_id(stream), query.to_wire());
                }
            }
            Request::Register {
                id,
                epoch,
                stream,
                envelope,
            } => {
                let _ = writeln!(
                    out,
                    "register {id}{} {}",
                    epoch_token(*epoch),
                    encode_stream_id(stream)
                );
                out.push_str(envelope);
            }
            Request::Ingest {
                id,
                epoch,
                stream,
                slices,
            } => {
                out.push_str(&ingest_body(*id, *epoch, stream, slices));
            }
            Request::Snapshot { id, epoch, stream } => {
                let _ = writeln!(
                    out,
                    "snapshot {id}{} {}",
                    epoch_token(*epoch),
                    encode_stream_id(stream)
                );
            }
            Request::Deregister { id, epoch, stream } => {
                let _ = writeln!(
                    out,
                    "deregister {id}{} {}",
                    epoch_token(*epoch),
                    encode_stream_id(stream)
                );
            }
            Request::Remap { id, map } => {
                let _ = writeln!(out, "remap {id}");
                map.push_wire(&mut out);
            }
            Request::LeaseGrant { id, slot, ttl_ms } => {
                let _ = writeln!(out, "lease {id} grant {slot} {ttl_ms}");
            }
            Request::LeaseRevoke { id, slot } => {
                let _ = writeln!(out, "lease {id} revoke {slot}");
            }
            Request::Streams { id, slot } => match slot {
                Some(s) => {
                    let _ = writeln!(out, "streams {id} slot {s}");
                }
                None => {
                    let _ = writeln!(out, "streams {id}");
                }
            },
            Request::Flush { id } => {
                let _ = writeln!(out, "flush {id}");
            }
            Request::Stats { id } => {
                let _ = writeln!(out, "stats {id}");
            }
            Request::Metrics { id } => {
                let _ = writeln!(out, "metrics {id}");
            }
            Request::Shutdown { id } => {
                let _ = writeln!(out, "shutdown {id}");
            }
        }
        out
    }

    /// Parses a frame body into a request. Total: every malformed body
    /// is a typed [`WireError`].
    pub fn from_body(body: &str) -> Result<Request, WireError> {
        let (head, rest) = match body.find('\n') {
            Some(i) => (&body[..i], &body[i + 1..]),
            None => (body, ""),
        };
        fn int<'a>(
            toks: &mut impl Iterator<Item = &'a str>,
            verb: &str,
            what: &str,
        ) -> Result<u64, WireError> {
            let tok = toks
                .next()
                .ok_or_else(|| WireError::new(format!("`{verb}` needs a {what}")))?;
            tok.parse()
                .map_err(|_| WireError::new(format!("bad {what} `{tok}`")))
        }
        // The optional `@<epoch>` fencing token right after the request
        // id. `@` never appears in a percent-encoded stream id, so the
        // token is unambiguous; its absence is the epoch-free
        // pre-autonomy form.
        fn epoch(
            toks: &mut std::iter::Peekable<std::str::SplitWhitespace<'_>>,
        ) -> Result<Option<u64>, WireError> {
            match toks.peek() {
                Some(tok) if tok.starts_with('@') => {
                    let tok = toks.next().expect("peeked");
                    tok[1..]
                        .parse()
                        .map(Some)
                        .map_err(|_| WireError::new(format!("bad epoch token `{tok}`")))
                }
                _ => Ok(None),
            }
        }
        let mut toks = head.split_whitespace().peekable();
        let verb = toks.next().ok_or_else(|| WireError::new("empty request"))?;
        let req = match verb {
            "hello" => {
                let enc = toks.next().unwrap_or("");
                Request::Hello {
                    client: decode_stream_id(enc)
                        .ok_or_else(|| WireError::new("undecodable client name"))?,
                }
            }
            "query" => {
                let id = int(&mut toks, verb, "request id")?;
                let epoch = epoch(&mut toks)?;
                let stream = toks
                    .next()
                    .and_then(decode_stream_id)
                    .ok_or_else(|| WireError::new("query needs a stream id"))?;
                let line: Vec<&str> = toks.collect();
                let query = Query::from_wire_line(&line.join(" "))?;
                return finish_single_line(
                    rest,
                    Request::Query {
                        id,
                        epoch,
                        stream,
                        query,
                    },
                );
            }
            "batch" => {
                let id = int(&mut toks, verb, "request id")?;
                let epoch = epoch(&mut toks)?;
                let n = int(&mut toks, verb, "item count")? as usize;
                if n > MAX_BATCH_ITEMS {
                    return Err(WireError::new(format!(
                        "batch of {n} items exceeds the bound of {MAX_BATCH_ITEMS}"
                    )));
                }
                let mut cur = LineCursor::new(rest);
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    let line = cur.next("batch item")?;
                    let (enc, query_line) = line
                        .split_once(' ')
                        .ok_or_else(|| WireError::new(format!("bad batch item `{line}`")))?;
                    let stream = decode_stream_id(enc)
                        .ok_or_else(|| WireError::new("undecodable stream id"))?;
                    items.push((stream, Query::from_wire_line(query_line)?));
                }
                cur.finish()?;
                return Ok(Request::QueryBatch { id, epoch, items });
            }
            "register" => {
                let id = int(&mut toks, verb, "request id")?;
                let epoch = epoch(&mut toks)?;
                let stream = toks
                    .next()
                    .and_then(decode_stream_id)
                    .ok_or_else(|| WireError::new("register needs a stream id"))?;
                // The envelope is the rest of the body, byte-for-byte
                // (its payload must stay bit-exact).
                return Ok(Request::Register {
                    id,
                    epoch,
                    stream,
                    envelope: rest.to_string(),
                });
            }
            "ingest" => {
                let id = int(&mut toks, verb, "request id")?;
                let epoch = epoch(&mut toks)?;
                let stream = toks
                    .next()
                    .and_then(decode_stream_id)
                    .ok_or_else(|| WireError::new("ingest needs a stream id"))?;
                let n = int(&mut toks, verb, "slice count")? as usize;
                if n > MAX_BATCH_ITEMS {
                    return Err(WireError::new(format!(
                        "ingest of {n} slices exceeds the bound of {MAX_BATCH_ITEMS}"
                    )));
                }
                let mut cur = LineCursor::new(rest);
                let mut slices = Vec::with_capacity(n);
                for _ in 0..n {
                    let seq_line = cur.next("slice sequence number")?;
                    let seq = seq_line
                        .strip_prefix("seq ")
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| WireError::new(format!("bad seq line `{seq_line}`")))?;
                    slices.push((seq, wire::parse_observed(&mut cur)?));
                }
                cur.finish()?;
                return Ok(Request::Ingest {
                    id,
                    epoch,
                    stream,
                    slices,
                });
            }
            "snapshot" | "deregister" => {
                let id = int(&mut toks, verb, "request id")?;
                let epoch = epoch(&mut toks)?;
                let stream = toks
                    .next()
                    .and_then(decode_stream_id)
                    .ok_or_else(|| WireError::new(format!("`{verb}` needs a stream id")))?;
                if verb == "snapshot" {
                    Request::Snapshot { id, epoch, stream }
                } else {
                    Request::Deregister { id, epoch, stream }
                }
            }
            "remap" => {
                let id = int(&mut toks, verb, "request id")?;
                if toks.next().is_some() {
                    return Err(WireError::new(format!("trailing token in `{head}`")));
                }
                // The payload is a full shard-map block.
                let mut cur = LineCursor::new(rest);
                let map = ShardMap::parse(&mut cur)?;
                cur.finish()?;
                return Ok(Request::Remap { id, map });
            }
            "lease" => {
                let id = int(&mut toks, verb, "request id")?;
                match toks.next() {
                    Some("grant") => {
                        let slot = int(&mut toks, verb, "slot")?;
                        let ttl_ms = int(&mut toks, verb, "lease ttl")?;
                        Request::LeaseGrant { id, slot, ttl_ms }
                    }
                    Some("revoke") => Request::LeaseRevoke {
                        id,
                        slot: int(&mut toks, verb, "slot")?,
                    },
                    other => {
                        return Err(WireError::new(format!(
                            "bad lease action `{}`",
                            other.unwrap_or("")
                        )))
                    }
                }
            }
            "streams" => {
                let id = int(&mut toks, verb, "request id")?;
                let slot = match toks.next() {
                    None => None,
                    Some("slot") => Some(int(&mut toks, verb, "slot")?),
                    Some(other) => {
                        return Err(WireError::new(format!("bad streams clause `{other}`")))
                    }
                };
                Request::Streams { id, slot }
            }
            "flush" => Request::Flush {
                id: int(&mut toks, verb, "request id")?,
            },
            "stats" => Request::Stats {
                id: int(&mut toks, verb, "request id")?,
            },
            "metrics" => Request::Metrics {
                id: int(&mut toks, verb, "request id")?,
            },
            "shutdown" => Request::Shutdown {
                id: int(&mut toks, verb, "request id")?,
            },
            other => return Err(WireError::new(format!("unknown request `{other}`"))),
        };
        if toks.next().is_some() {
            return Err(WireError::new(format!("trailing token in `{head}`")));
        }
        finish_single_line(rest, req)
    }
}

/// Upper bound on items in one batch/ingest frame (a second line of
/// defence behind the frame-size bound).
pub const MAX_BATCH_ITEMS: usize = 65_536;

/// Serializes an `ingest` frame body from **borrowed** slices, so a
/// client can keep the originals as its backpressure hand-back source
/// without cloning the tensors ([`Request::to_body`] delegates here).
pub fn ingest_body(
    id: u64,
    epoch: Option<u64>,
    stream: &str,
    slices: &[(u64, ObservedTensor)],
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ingest {id}{} {} {}",
        epoch_token(epoch),
        encode_stream_id(stream),
        slices.len()
    );
    out.reserve(slices.iter().map(|(_, s)| ingest_slice_wire_bound(s)).sum());
    for (seq, slice) in slices {
        let _ = writeln!(out, "seq {seq}");
        wire::push_observed(&mut out, slice);
    }
    out
}

/// The head-line form of an optional fencing epoch: ` @<e>` (with its
/// leading separator) when carried, nothing when epoch-free — so
/// epoch-free requests stay byte-identical to the pre-autonomy wire.
fn epoch_token(epoch: Option<u64>) -> String {
    match epoch {
        Some(e) => format!(" @{e}"),
        None => String::new(),
    }
}

/// Upper bound (in bytes) of one slice's encoded ingest block: the
/// `seq` line, the shape line, 17 bytes per hex float, one bit per
/// mask entry, and label overhead. Used to chunk client batches under
/// the frame bound without serializing twice.
pub fn ingest_slice_wire_bound(slice: &ObservedTensor) -> usize {
    let elems = slice.shape().len();
    let dims = slice.shape().order();
    32 + 8 + 21 * dims + 17 * elems + elems + 16
}

fn finish_single_line(rest: &str, req: Request) -> Result<Request, WireError> {
    if rest.is_empty() {
        Ok(req)
    } else {
        Err(WireError::new("unexpected payload after request line"))
    }
}

/// The status line of a server reply.
#[derive(Debug)]
pub enum ReplyHead {
    /// `ok <req-id>`; the payload follows.
    Ok(u64),
    /// `err <req-id> <fleet-error…>`.
    Err(u64, FleetError),
}

/// Builds an `ok` reply body from a payload writer.
pub fn ok_body(id: u64, write_payload: impl FnOnce(&mut String)) -> String {
    let mut out = format!("ok {id}\n");
    write_payload(&mut out);
    out
}

/// Builds an `err` reply body.
pub fn err_body(id: u64, e: &FleetError) -> String {
    format!("err {id} {}\n", e.to_wire())
}

/// Splits a reply body into its head and the payload remainder.
pub fn split_reply(body: &str) -> Result<(ReplyHead, &str), WireError> {
    let (head, rest) = match body.find('\n') {
        Some(i) => (&body[..i], &body[i + 1..]),
        None => (body, ""),
    };
    if let Some(rest_head) = head.strip_prefix("ok ") {
        let id = rest_head
            .parse()
            .map_err(|_| WireError::new(format!("bad reply id in `{head}`")))?;
        return Ok((ReplyHead::Ok(id), rest));
    }
    if let Some(rest_head) = head.strip_prefix("err ") {
        let (id_tok, err_line) = rest_head
            .split_once(' ')
            .ok_or_else(|| WireError::new(format!("bad err reply `{head}`")))?;
        let id = id_tok
            .parse()
            .map_err(|_| WireError::new(format!("bad reply id in `{head}`")))?;
        return Ok((ReplyHead::Err(id, FleetError::from_wire(err_line)?), rest));
    }
    Err(WireError::new(format!("bad reply head `{head}`")))
}

/// The shard-ownership table a server hands its clients at handshake:
/// stream route → endpoint, plus per-stream **overrides** for migrated
/// streams.
///
/// Routing is two-layered:
///
/// 1. **Slots** — the stable FNV stream route
///    ([`sofia_fleet::shard_of`]) picks a slot, and each slot names the
///    endpoint owning it. A single-node map points every slot at the
///    one server; a cluster map spreads slots over many endpoints
///    (multiple slots per endpoint is the normal shape —
///    [`ShardMap::round_robin`] builds one from a spec). The route
///    agrees across processes, so every router holding the same map
///    picks the same owner.
/// 2. **Overrides** — an explicit stream-id → endpoint entry that beats
///    the slot table. Migration flips exactly one such entry
///    ([`ShardMap::set_override`]): the stream's envelope moves to the
///    new owner, the entry records it, everything else stays hashed.
///
/// A slot count need not match any server's internal shard count: slots
/// route *between* processes; each fleet re-hashes over its own shards
/// internally.
///
/// Since the cluster-autonomy revision the map also carries an
/// **epoch** — a monotonically increasing version number bumped on
/// every ownership change (slot flip, repoint). Routed requests carry
/// the sender's epoch and servers fence on it (see the module docs of
/// [`crate::cluster`]); a map fresh out of a constructor is epoch 0,
/// which is also what the epoch-free pre-autonomy wire form parses as.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    endpoints: Vec<String>,
    overrides: std::collections::BTreeMap<String, String>,
    epoch: u64,
}

impl ShardMap {
    /// A single-node map: all `shards` routes point at `endpoint`.
    pub fn single_node(endpoint: impl Into<String>, shards: usize) -> ShardMap {
        assert!(shards > 0, "a shard map needs at least one shard");
        let endpoint = endpoint.into();
        ShardMap {
            endpoints: vec![endpoint; shards],
            overrides: std::collections::BTreeMap::new(),
            epoch: 0,
        }
    }

    /// A map with one endpoint per slot (the multi-node seam).
    pub fn from_endpoints(endpoints: Vec<String>) -> ShardMap {
        assert!(
            !endpoints.is_empty(),
            "a shard map needs at least one shard"
        );
        ShardMap {
            endpoints,
            overrides: std::collections::BTreeMap::new(),
            epoch: 0,
        }
    }

    /// The deterministic cluster layout a spec expands to:
    /// `endpoints.len() × slots_per_endpoint` slots, slot `i` owned by
    /// `endpoints[i % endpoints.len()]`. Every process given the same
    /// endpoint list builds the identical map, so `sofia-cli cluster`
    /// nodes and their clients agree on ownership without exchanging
    /// anything beyond the spec.
    pub fn round_robin(endpoints: &[String], slots_per_endpoint: usize) -> ShardMap {
        assert!(!endpoints.is_empty(), "a cluster needs at least one node");
        assert!(slots_per_endpoint > 0, "need at least one slot per node");
        let slots = endpoints.len() * slots_per_endpoint;
        ShardMap {
            endpoints: (0..slots)
                .map(|i| endpoints[i % endpoints.len()].clone())
                .collect(),
            overrides: std::collections::BTreeMap::new(),
            epoch: 0,
        }
    }

    /// Number of route slots.
    pub fn shards(&self) -> usize {
        self.endpoints.len()
    }

    /// The map's fencing epoch. Two maps at the same epoch are expected
    /// to be identical; a higher epoch always supersedes a lower one.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Sets the epoch outright (used when adopting a peer's newer map).
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Advances the epoch by one and returns the new value — called
    /// exactly once per ownership change.
    pub fn bump_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// Reassigns route slot `slot` to a new owner — the map half of a
    /// slot-granularity migration. The caller bumps the epoch.
    pub fn set_slot_owner(&mut self, slot: usize, endpoint: impl Into<String>) {
        assert!(slot < self.endpoints.len(), "slot {slot} out of range");
        self.endpoints[slot] = endpoint.into();
    }

    /// Endpoint owning each slot.
    pub fn endpoints(&self) -> &[String] {
        &self.endpoints
    }

    /// Per-stream overrides (migrated streams), stream id → endpoint.
    pub fn overrides(&self) -> &std::collections::BTreeMap<String, String> {
        &self.overrides
    }

    /// Every endpoint the map can route to, in first-appearance order
    /// (slot owners first, then override-only endpoints), deduplicated.
    /// Membership is hashed, not scanned — a handshake-supplied map may
    /// legitimately carry up to 2^20 slots.
    pub fn distinct_endpoints(&self) -> Vec<&str> {
        let mut seen = std::collections::HashSet::new();
        let mut ordered = Vec::new();
        for ep in self.endpoints.iter().chain(self.overrides.values()) {
            if seen.insert(ep.as_str()) {
                ordered.push(ep.as_str());
            }
        }
        ordered
    }

    /// The slot a stream id routes to (same stable hash the engine
    /// uses). Overrides bypass the slot table — check
    /// [`ShardMap::endpoint_of`] for actual ownership.
    pub fn shard_of(&self, stream_id: &str) -> usize {
        shard_of(stream_id, self.endpoints.len())
    }

    /// The endpoint serving a stream id: its override entry if one
    /// exists (the stream was migrated), its hashed slot's owner
    /// otherwise.
    pub fn endpoint_of(&self, stream_id: &str) -> &str {
        if let Some(ep) = self.overrides.get(stream_id) {
            return ep;
        }
        &self.endpoints[self.shard_of(stream_id)]
    }

    /// Records that `stream_id` is now served by `endpoint` regardless
    /// of its hashed slot — the map half of a migration.
    pub fn set_override(&mut self, stream_id: impl Into<String>, endpoint: impl Into<String>) {
        self.overrides.insert(stream_id.into(), endpoint.into());
    }

    /// Drops a stream's override (it routes by hash again); returns
    /// whether one existed.
    pub fn clear_override(&mut self, stream_id: &str) -> bool {
        self.overrides.remove(stream_id).is_some()
    }

    /// Replaces every occurrence of endpoint `from` (slot owners and
    /// overrides) with `to`; returns how many entries changed. This is
    /// how a router follows a restarted node to its new address.
    pub fn repoint(&mut self, from: &str, to: &str) -> usize {
        let mut changed = 0;
        for ep in &mut self.endpoints {
            if ep == from {
                *ep = to.to_string();
                changed += 1;
            }
        }
        for ep in self.overrides.values_mut() {
            if ep == from {
                *ep = to.to_string();
                changed += 1;
            }
        }
        changed
    }

    /// Appends the map's wire form. The header is
    /// `shardmap <n> [epoch <e>] [overrides <m>]` with each clause
    /// omitted when zero/empty — so an epoch-0, override-free map emits
    /// exactly the original single-header form, byte-identical to what
    /// pre-cluster servers sent, and any map re-emits byte-identically
    /// after a parse.
    pub fn push_wire(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(out, "shardmap {}", self.endpoints.len());
        if self.epoch > 0 {
            let _ = write!(out, " epoch {}", self.epoch);
        }
        if !self.overrides.is_empty() {
            let _ = write!(out, " overrides {}", self.overrides.len());
        }
        out.push('\n');
        for (i, ep) in self.endpoints.iter().enumerate() {
            let _ = writeln!(out, "endpoint {i} {}", encode_stream_id(ep));
        }
        for (stream, ep) in &self.overrides {
            let _ = writeln!(
                out,
                "override {} {}",
                encode_stream_id(stream),
                encode_stream_id(ep)
            );
        }
    }

    /// Parses the block written by [`ShardMap::push_wire`] — every
    /// clause combination, including the plain pre-autonomy handshake
    /// forms: no `epoch` clause parses as epoch 0 (the pre-epoch PR 5
    /// form), no `overrides` clause as no overrides (the pre-cluster
    /// PR 4 form).
    pub fn parse(cur: &mut LineCursor<'_>) -> Result<ShardMap, WireError> {
        let head = cur.next("shardmap header")?;
        let bad = || WireError::new(format!("bad shardmap header `{head}`"));
        let mut toks = head.split_whitespace();
        if toks.next() != Some("shardmap") {
            return Err(bad());
        }
        let parse_count = |tok: Option<&str>| -> Result<usize, WireError> {
            tok.and_then(|d| d.parse().ok())
                .filter(|&n| n <= 1 << 20)
                .ok_or_else(bad)
        };
        let n = parse_count(toks.next()).and_then(|n| if n > 0 { Ok(n) } else { Err(bad()) })?;
        let mut clause = toks.next();
        let epoch = match clause {
            Some("epoch") => {
                // Epochs are versions, not sizes: the full u64 range.
                let e = toks.next().and_then(|d| d.parse().ok()).ok_or_else(bad)?;
                clause = toks.next();
                e
            }
            _ => 0,
        };
        let m = match clause {
            None => 0,
            Some("overrides") => parse_count(toks.next())?,
            Some(_) => return Err(bad()),
        };
        if toks.next().is_some() {
            return Err(bad());
        }
        let mut endpoints = Vec::with_capacity(n);
        for i in 0..n {
            let line = cur.next("shardmap endpoint")?;
            let rest = line
                .strip_prefix(&format!("endpoint {i} "))
                .ok_or_else(|| WireError::new(format!("bad endpoint line `{line}`")))?;
            endpoints.push(
                decode_stream_id(rest).ok_or_else(|| WireError::new("undecodable endpoint"))?,
            );
        }
        let mut overrides = std::collections::BTreeMap::new();
        for _ in 0..m {
            let line = cur.next("shardmap override")?;
            let (stream, ep) = line
                .strip_prefix("override ")
                .and_then(|r| r.split_once(' '))
                .ok_or_else(|| WireError::new(format!("bad override line `{line}`")))?;
            overrides.insert(
                decode_stream_id(stream)
                    .ok_or_else(|| WireError::new("undecodable override stream"))?,
                decode_stream_id(ep)
                    .ok_or_else(|| WireError::new("undecodable override endpoint"))?,
            );
        }
        Ok(ShardMap {
            endpoints,
            overrides,
            epoch,
        })
    }
}

/// Appends fleet-wide statistics: `shards <n>`, then per shard the
/// `shard`/`queries` lines followed by the mergeable sketch
/// block (`sketches 2` + one [`wire::push_metric_sketch`] block per
/// metric). The sketch lines carry the shard's canonical summary
/// partials, so a cluster client can merge them without loss; the
/// shard's `endpoint` attribution is a client-side label and is *not*
/// emitted — the receiver knows which connection the reply came in on.
pub fn push_fleet_stats(out: &mut String, stats: &FleetStats) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "shards {}", stats.shards.len());
    for s in &stats.shards {
        let _ = writeln!(
            out,
            "shard {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
            s.shard,
            s.streams,
            s.evicted,
            s.steps,
            s.queue_depth,
            s.batches,
            s.max_batch,
            s.dropped,
            s.evictions,
            s.restores,
            s.query_batches,
            s.query_queue_depth,
            s.checkpoint_failures,
            s.quarantines
        );
        let _ = writeln!(
            out,
            "queries {} {} {} {} {}",
            s.queries.latest,
            s.queries.forecast,
            s.queries.outlier_mask,
            s.queries.stream_stats,
            s.queries.quantile
        );
        out.push_str("sketches 2\n");
        wire::push_metric_sketch(out, MetricKind::IngestLatency, &s.ingest_latency);
        wire::push_metric_sketch(out, MetricKind::ForecastError, &s.forecast_error);
    }
}

/// Parses the block written by [`push_fleet_stats`].
pub fn parse_fleet_stats(cur: &mut LineCursor<'_>) -> Result<FleetStats, WireError> {
    let head = cur.next("stats header")?;
    let n: usize = head
        .strip_prefix("shards ")
        .and_then(|d| d.parse().ok())
        .filter(|&n| n <= 1 << 20)
        .ok_or_else(|| WireError::new(format!("bad stats header `{head}`")))?;
    let mut shards = Vec::with_capacity(n);
    for _ in 0..n {
        let line = cur.next("shard stats")?;
        let nums: Vec<&str> = line
            .strip_prefix("shard ")
            .ok_or_else(|| WireError::new(format!("bad shard line `{line}`")))?
            .split_whitespace()
            .collect();
        if nums.len() != 14 {
            return Err(WireError::new(format!(
                "shard line carries {} fields, expected 14",
                nums.len()
            )));
        }
        let int = |i: usize| -> Result<u64, WireError> {
            nums[i]
                .parse()
                .map_err(|_| WireError::new(format!("bad shard field `{}`", nums[i])))
        };
        let qline = cur.next("shard query counters")?;
        let qnums: Vec<&str> = qline
            .strip_prefix("queries ")
            .ok_or_else(|| WireError::new(format!("bad queries line `{qline}`")))?
            .split_whitespace()
            .collect();
        if qnums.len() != 5 {
            return Err(WireError::new("queries line needs 5 counters"));
        }
        let qint = |i: usize| -> Result<u64, WireError> {
            qnums[i]
                .parse()
                .map_err(|_| WireError::new(format!("bad query counter `{}`", qnums[i])))
        };
        let (ingest_latency, forecast_error) = wire::parse_sketch_block(cur)?;
        shards.push(ShardStats {
            shard: int(0)? as usize,
            streams: int(1)? as usize,
            evicted: int(2)? as usize,
            steps: int(3)?,
            queue_depth: int(4)? as usize,
            batches: int(5)?,
            max_batch: int(6)? as usize,
            dropped: int(7)?,
            evictions: int(8)?,
            restores: int(9)?,
            checkpoint_failures: int(12)?,
            quarantines: int(13)?,
            queries: QueryCounters {
                latest: qint(0)?,
                forecast: qint(1)?,
                outlier_mask: qint(2)?,
                stream_stats: qint(3)?,
                quantile: qint(4)?,
            },
            query_batches: int(10)?,
            query_queue_depth: int(11)? as usize,
            ingest_latency,
            forecast_error,
            endpoint: None,
        });
    }
    Ok(FleetStats { shards })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofia_tensor::{DenseTensor, Mask, Shape};

    fn slice(v: f64) -> ObservedTensor {
        ObservedTensor::new(
            DenseTensor::from_vec(Shape::new(&[2, 2]), vec![v, -v, 0.25 * v, f64::INFINITY]),
            Mask::from_vec(Shape::new(&[2, 2]), vec![true, false, true, true]),
        )
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello world\nsecond line").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = io::BufReader::new(&buf[..]);
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_BYTES).unwrap().as_deref(),
            Some("hello world\nsecond line")
        );
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_BYTES).unwrap().as_deref(),
            Some("")
        );
        assert!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap().is_none());
    }

    #[test]
    fn frames_reject_oversized_truncated_and_garbage() {
        // Oversized: announced length above the receiver bound.
        let mut r = io::BufReader::new(&b"#100\nxxxx"[..]);
        assert!(matches!(
            read_frame(&mut r, 10),
            Err(FrameError::Oversized { len: 100, max: 10 })
        ));
        // Truncated body.
        let mut r = io::BufReader::new(&b"#10\nshort"[..]);
        assert!(matches!(
            read_frame(&mut r, 100),
            Err(FrameError::Truncated)
        ));
        // Truncated header.
        let mut r = io::BufReader::new(&b"#1"[..]);
        assert!(matches!(
            read_frame(&mut r, 100),
            Err(FrameError::Truncated)
        ));
        // Garbage headers.
        for bad in [
            "nope\n",
            "#\n",
            "#-3\n",
            "#12x\n",
            "#99999999999999999999\n",
        ] {
            let mut r = io::BufReader::new(bad.as_bytes());
            assert!(
                matches!(read_frame(&mut r, 100), Err(FrameError::BadHeader(_))),
                "{bad:?}"
            );
        }
        // Non-UTF-8 body.
        let mut r = io::BufReader::new(&b"#2\n\xff\xfe"[..]);
        assert!(matches!(read_frame(&mut r, 100), Err(FrameError::NotUtf8)));
    }

    #[test]
    fn requests_round_trip() {
        let mut remap_map = ShardMap::round_robin(&["h0:1".into(), "h 1:2".into()], 2);
        remap_map.set_epoch(9);
        remap_map.set_override("moved α", "h 1:2");
        let requests = vec![
            Request::Hello {
                client: "bench client/1".into(),
            },
            Request::Query {
                id: 7,
                epoch: None,
                stream: "sensor net/α".into(),
                query: Query::Forecast { horizon: 12 },
            },
            Request::Query {
                id: 7,
                epoch: Some(3),
                stream: "sensor net/α".into(),
                query: Query::Forecast { horizon: 12 },
            },
            Request::QueryBatch {
                id: 8,
                epoch: None,
                items: vec![
                    ("a".into(), Query::Latest),
                    ("b c".into(), Query::StreamStats),
                    ("d".into(), Query::OutlierMask),
                ],
            },
            Request::QueryBatch {
                id: 8,
                epoch: Some(u64::MAX),
                items: vec![("a".into(), Query::Latest)],
            },
            Request::Register {
                id: 9,
                epoch: None,
                stream: "new stream".into(),
                envelope: "sofia-checkpoint v2\nmodel demo\nsteps 3\npayload line\n".into(),
            },
            Request::Register {
                id: 9,
                epoch: Some(2),
                stream: "new stream".into(),
                envelope: "sofia-checkpoint v2\nmodel demo\nsteps 3\npayload line\n".into(),
            },
            Request::Ingest {
                id: 10,
                epoch: None,
                stream: "s".into(),
                slices: vec![(41, slice(1.5)), (42, slice(-2.0))],
            },
            Request::Ingest {
                id: 10,
                epoch: Some(1),
                stream: "s".into(),
                slices: vec![(41, slice(1.5))],
            },
            Request::Snapshot {
                id: 14,
                epoch: Some(5),
                stream: "mig/α".into(),
            },
            Request::Deregister {
                id: 15,
                epoch: None,
                stream: "mig/α".into(),
            },
            Request::Remap {
                id: 17,
                map: remap_map,
            },
            Request::LeaseGrant {
                id: 18,
                slot: 3,
                ttl_ms: 1500,
            },
            Request::LeaseRevoke { id: 19, slot: 0 },
            Request::Streams { id: 20, slot: None },
            Request::Streams {
                id: 21,
                slot: Some(2),
            },
            Request::Flush { id: 11 },
            Request::Stats { id: 12 },
            Request::Metrics { id: 16 },
            Request::Shutdown { id: 13 },
        ];
        for req in requests {
            let body = req.to_body();
            let back = Request::from_body(&body).unwrap_or_else(|e| panic!("{e}:\n{body}"));
            match (&req, &back) {
                // ObservedTensor has no PartialEq; compare field-wise.
                (
                    Request::Ingest {
                        id: a,
                        epoch: ea,
                        stream: sa,
                        slices: xa,
                    },
                    Request::Ingest {
                        id: b,
                        epoch: eb,
                        stream: sb,
                        slices: xb,
                    },
                ) => {
                    assert_eq!((a, ea, sa), (b, eb, sb));
                    assert_eq!(xa.len(), xb.len());
                    for ((qa, ta), (qb, tb)) in xa.iter().zip(xb) {
                        assert_eq!(qa, qb);
                        assert_eq!(ta.values().data(), tb.values().data());
                        assert_eq!(ta.count_observed(), tb.count_observed());
                    }
                }
                (a, b) => assert_eq!(a, b, "body:\n{body}"),
            }
            assert_eq!(req.id(), back.id());
        }
    }

    /// Epoch-free requests and epoch-carrying requests both have pinned
    /// head-line forms: the former byte-identical to the pre-autonomy
    /// wire (an old server keeps parsing a new client and vice versa),
    /// the latter with the `@<epoch>` token in its documented position.
    #[test]
    fn request_head_lines_are_pinned_with_and_without_epoch() {
        let pre_autonomy = Request::Query {
            id: 7,
            epoch: None,
            stream: "sensor-7".into(),
            query: Query::Latest,
        };
        assert_eq!(pre_autonomy.to_body(), "query 7 sensor-7 latest\n");
        let fenced = Request::Query {
            id: 7,
            epoch: Some(3),
            stream: "sensor-7".into(),
            query: Query::Latest,
        };
        assert_eq!(fenced.to_body(), "query 7 @3 sensor-7 latest\n");
        assert_eq!(
            ingest_body(12, None, "s", &[]),
            "ingest 12 s 0\n",
            "epoch-free ingest head is the pre-autonomy form"
        );
        assert_eq!(ingest_body(12, Some(4), "s", &[]), "ingest 12 @4 s 0\n");
    }

    #[test]
    fn requests_reject_malformed() {
        let cases = [
            "",
            "warp 1",
            "query",
            "query x s latest",
            "query 1",
            "query 1 s",
            "query 1 s bogus",
            "query 1 %zz latest",
            "query 1 s latest\ntrailing payload",
            "query 1 @ s latest",
            "query 1 @x s latest",
            "query 1 @-3 s latest",
            "query 1 @2",
            "batch 1 @y 1\na latest",
            "remap",
            "remap x",
            "remap 1 extra\nshardmap 1\nendpoint 0 a",
            "remap 1",
            "remap 1\nshardmap 0",
            "remap 1\nshardmap 1\nendpoint 0 a\nstray",
            "lease 1",
            "lease 1 grant",
            "lease 1 grant x 5",
            "lease 1 grant 0",
            "lease 1 grant 0 x",
            "lease 1 grant 0 5 extra",
            "lease 1 revoke",
            "lease 1 revoke 0 extra",
            "lease 1 renew 0 5",
            "lease 1 grant 0 5\nstray",
            "streams",
            "streams x",
            "streams 1 slot",
            "streams 1 slot x",
            "streams 1 slot 2 extra",
            "streams 1 bogus",
            "streams 1\nstray",
            "batch 1 2\na latest",
            "batch 1 2\na latest\nb forecast 1\nextra",
            "batch 1 999999999",
            "batch 1 1\nmissing-query-token",
            "ingest 1 s 1\nseq nope\nshape 1\ndata 0\nbits 1",
            "ingest 1 s 1\nseq 5\nshape 2\ndata 0000000000000000\nbits 10",
            "ingest 1 s 2\nseq 5\nshape 1\ndata 0000000000000000\nbits 1",
            "flush",
            "flush x",
            "flush 1 2",
            "stats 1\nstray",
            "metrics",
            "metrics x",
            "metrics 1 2",
            "metrics 1\nstray",
            "hello %f",
            "snapshot",
            "snapshot 1",
            "snapshot x s",
            "snapshot 1 %zz",
            "snapshot 1 s extra",
            "snapshot 1 s\ntrailing payload",
            "deregister 1",
            "deregister 1 s\ntrailing payload",
        ];
        for case in cases {
            assert!(Request::from_body(case).is_err(), "should reject:\n{case}");
        }
    }

    #[test]
    fn replies_round_trip() {
        let ok = ok_body(42, |out| out.push_str("payload line\n"));
        let (head, rest) = split_reply(&ok).unwrap();
        assert!(matches!(head, ReplyHead::Ok(42)));
        assert_eq!(rest, "payload line\n");

        let err = err_body(7, &FleetError::UnknownStream("ghost".into()));
        let (head, rest) = split_reply(&err).unwrap();
        match head {
            ReplyHead::Err(7, FleetError::UnknownStream(id)) => assert_eq!(id, "ghost"),
            other => panic!("{other:?}"),
        }
        assert_eq!(rest, "");

        for bad in ["", "ok", "ok x", "err 1", "err x shutting-down", "yo 1"] {
            assert!(split_reply(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn shard_map_routes_and_round_trips() {
        let map = ShardMap::single_node("127.0.0.1:7000", 4);
        assert_eq!(map.shards(), 4);
        assert_eq!(map.endpoint_of("any-stream"), "127.0.0.1:7000");
        assert_eq!(map.shard_of("s"), shard_of("s", 4));

        let multi = ShardMap::from_endpoints(vec!["h0:1".into(), "h1:2".into()]);
        let mut out = String::new();
        multi.push_wire(&mut out);
        let mut cur = LineCursor::new(&out);
        let back = ShardMap::parse(&mut cur).unwrap();
        cur.finish().unwrap();
        assert_eq!(back, multi);
        // Routing through the parsed map agrees with the engine hash.
        for id in ["a", "b", "stream/with spaces"] {
            assert_eq!(back.endpoint_of(id), multi.endpoint_of(id));
        }

        for bad in [
            "shardmap 0",
            "shardmap x",
            "shardmap 2\nendpoint 0 a",
            "shardmap 1\nendpoint 1 a",
            "shardmap 1\nendpoint 0 %zz",
            "shardmap 1 overrides",
            "shardmap 1 overrides x",
            "shardmap 1 overrides 1 extra",
            "shardmap 1 bogus 1",
            "shardmap 1 epoch",
            "shardmap 1 epoch x",
            "shardmap 1 epoch -2",
            "shardmap 1 epoch 3 bogus 1",
            "shardmap 1 epoch 3 overrides",
            "shardmap 1 overrides 0 epoch 3",
            "shardmap 1 overrides 1\nendpoint 0 a\noverride onlyonetoken",
            "shardmap 1 overrides 1\nendpoint 0 a\noverride %zz b",
            "shardmap 1 overrides 2\nendpoint 0 a\noverride s b",
        ] {
            let mut cur = LineCursor::new(bad);
            assert!(ShardMap::parse(&mut cur).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn multi_endpoint_map_with_overrides_round_trips() {
        // Two nodes, two slots each, plus two migrated streams — ids
        // with spaces and separators to exercise the shared
        // percent-encoding on every field.
        let mut map = ShardMap::round_robin(&["host-a:7421".into(), "host b:7422".into()], 2);
        assert_eq!(map.shards(), 4);
        assert_eq!(map.endpoints()[0], "host-a:7421");
        assert_eq!(map.endpoints()[1], "host b:7422");
        assert_eq!(map.endpoints()[2], "host-a:7421");
        map.set_override("moved/α", "host b:7422");
        map.set_override("also moved", "host-c:7");

        let mut out = String::new();
        map.push_wire(&mut out);
        assert!(out.starts_with("shardmap 4 overrides 2\n"), "{out}");
        let mut cur = LineCursor::new(&out);
        let back = ShardMap::parse(&mut cur).unwrap();
        cur.finish().unwrap();
        assert_eq!(back, map);
        assert_eq!(back.endpoint_of("moved/α"), "host b:7422");
        assert_eq!(back.endpoint_of("also moved"), "host-c:7");
        // Non-overridden streams route by hash, agreeing across copies.
        for id in ["x", "y", "z"] {
            assert_eq!(back.endpoint_of(id), map.endpoint_of(id));
            assert_eq!(back.endpoint_of(id), back.endpoints()[shard_of(id, 4)]);
        }
        // Distinct endpoints: slot owners first, override-only last.
        assert_eq!(
            back.distinct_endpoints(),
            vec!["host-a:7421", "host b:7422", "host-c:7"]
        );

        // Clearing the override returns the stream to its hashed slot.
        let mut cleared = back.clone();
        assert!(cleared.clear_override("moved/α"));
        assert!(!cleared.clear_override("moved/α"));
        assert_eq!(
            cleared.endpoint_of("moved/α"),
            cleared.endpoints()[shard_of("moved/α", 4)]
        );

        // Repointing follows a restarted node to its new address in
        // both layers.
        let mut repointed = back.clone();
        let changed = repointed.repoint("host b:7422", "host-b:9999");
        assert_eq!(changed, 3, "two slots + one override");
        assert_eq!(repointed.endpoint_of("moved/α"), "host-b:9999");
    }

    #[test]
    fn shard_map_parse_accepts_the_pre_cluster_handshake_form() {
        // Byte-for-byte what a PR 4 server sends in its handshake
        // (endpoints percent-encoded, `:` → `%3A`): no `overrides`
        // clause, no `override` lines. The parser must keep accepting
        // it, and a map without overrides must keep *writing* it, so
        // old and new peers interoperate in both directions.
        let legacy = "shardmap 2\nendpoint 0 127.0.0.1%3A7411\nendpoint 1 127.0.0.1%3A7411\n";
        let mut cur = LineCursor::new(legacy);
        let map = ShardMap::parse(&mut cur).unwrap();
        cur.finish().unwrap();
        assert_eq!(map, ShardMap::single_node("127.0.0.1:7411", 2));
        assert!(map.overrides().is_empty());
        assert_eq!(map.epoch(), 0, "the epoch-free form parses as epoch 0");

        let mut out = String::new();
        map.push_wire(&mut out);
        assert_eq!(out, legacy, "epoch-0, override-free wire form is unchanged");
    }

    #[test]
    fn shard_map_epoch_clause_round_trips_and_slot_flips_reassign() {
        let mut map = ShardMap::round_robin(&["a:1".into(), "b:2".into()], 1);
        map.set_epoch(7);
        map.set_slot_owner(0, "b:2");
        let mut out = String::new();
        map.push_wire(&mut out);
        assert!(out.starts_with("shardmap 2 epoch 7\n"), "{out}");
        let mut cur = LineCursor::new(&out);
        let back = ShardMap::parse(&mut cur).unwrap();
        cur.finish().unwrap();
        assert_eq!(back, map);
        assert_eq!(back.epoch(), 7);
        assert_eq!(back.endpoints(), ["b:2", "b:2"]);
        assert_eq!(back.clone().bump_epoch(), 8);

        // Epoch + overrides together, clause order pinned.
        map.set_override("moved", "a:1");
        let mut both = String::new();
        map.push_wire(&mut both);
        assert!(
            both.starts_with("shardmap 2 epoch 7 overrides 1\n"),
            "{both}"
        );
        let mut cur = LineCursor::new(&both);
        assert_eq!(ShardMap::parse(&mut cur).unwrap(), map);
    }

    mod shard_map_epoch_property {
        //! The satellite acceptance property: the epoch-carrying wire
        //! form round-trips emit → parse → emit **byte-identically**
        //! over arbitrary epochs and overrides (epoch 0 exercises the
        //! clause-free back-compat form along the way).
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn epoch_carrying_map_round_trips_byte_identically(
                epoch in 0u64..u64::MAX,
                slots in 1usize..9,
                overrides in 0usize..5,
                seed in 0u64..1_000,
            ) {
                let endpoints: Vec<String> = (0..slots)
                    .map(|i| format!("host {}:7{:02}", (seed + i as u64) % 4, i))
                    .collect();
                let mut map = ShardMap::from_endpoints(endpoints);
                map.set_epoch(epoch);
                for k in 0..overrides {
                    map.set_override(
                        format!("stream {seed}/{k}"),
                        format!("override-host:{}", seed % 7),
                    );
                }

                let mut wire = String::new();
                map.push_wire(&mut wire);
                let mut cur = LineCursor::new(&wire);
                let back = ShardMap::parse(&mut cur).expect("emitted maps parse");
                cur.finish().expect("no trailing lines");
                prop_assert_eq!(&back, &map);
                prop_assert_eq!(back.epoch(), epoch);

                let mut again = String::new();
                back.push_wire(&mut again);
                prop_assert_eq!(again, wire, "emit → parse → emit is byte-identical");
            }
        }
    }

    fn sample_shard_stats() -> FleetStats {
        use sofia_sketch::MetricSummary;
        let mut latency = MetricSummary::new();
        let mut drift = MetricSummary::new();
        for i in 0..300 {
            latency.observe(50.0 + ((i * 37) % 101) as f64 * 13.5);
            drift.observe(((i * 53) % 89) as f64 * 0.01);
        }
        FleetStats {
            shards: vec![
                ShardStats {
                    shard: 0,
                    streams: 3,
                    evicted: 1,
                    steps: 100,
                    queue_depth: 2,
                    batches: 40,
                    max_batch: 9,
                    dropped: 1,
                    evictions: 2,
                    restores: 1,
                    checkpoint_failures: 3,
                    quarantines: 2,
                    queries: QueryCounters {
                        latest: 5,
                        forecast: 6,
                        outlier_mask: 7,
                        stream_stats: 8,
                        quantile: 9,
                    },
                    query_batches: 11,
                    query_queue_depth: 1,
                    ingest_latency: latency,
                    forecast_error: drift,
                    endpoint: None,
                },
                ShardStats {
                    shard: 1,
                    streams: 0,
                    evicted: 0,
                    steps: 0,
                    queue_depth: 0,
                    batches: 0,
                    max_batch: 0,
                    dropped: 0,
                    evictions: 0,
                    restores: 0,
                    checkpoint_failures: 0,
                    quarantines: 0,
                    queries: QueryCounters::default(),
                    query_batches: 0,
                    query_queue_depth: 0,
                    ingest_latency: sofia_sketch::MetricSummary::new(),
                    forecast_error: sofia_sketch::MetricSummary::new(),
                    endpoint: None,
                },
            ],
        }
    }

    #[test]
    fn fleet_stats_round_trip() {
        let stats = sample_shard_stats();
        let mut out = String::new();
        push_fleet_stats(&mut out, &stats);
        let mut cur = LineCursor::new(&out);
        let back = parse_fleet_stats(&mut cur).unwrap();
        cur.finish().unwrap();
        assert_eq!(back.shards.len(), 2);
        assert_eq!(back.steps(), 100);
        assert_eq!(back.queries().total(), 35);
        assert_eq!(back.queries().quantile, 9);
        assert_eq!(back.checkpoint_failures(), 3);
        assert_eq!(back.quarantines(), 2);
        // The sketch block is on the wire and the parsed summaries emit
        // byte-identical wire forms (the moment partials are bit-exact).
        assert_eq!(
            back.shards[0].ingest_latency.count(),
            stats.shards[0].ingest_latency.count()
        );
        assert_eq!(
            back.shards[0].forecast_error.moments().sum().to_bits(),
            stats.shards[0].forecast_error.moments().sum().to_bits()
        );
        let mut again = String::new();
        push_fleet_stats(&mut again, &back);
        assert_eq!(again, out, "stats reply re-emits byte-identically");
        assert!(back.shards[1].ingest_latency.is_empty());
    }

    /// The stats parser is strict: every malformed reply is a typed
    /// error — never a panic, never a silently defaulted field.
    #[test]
    fn fleet_stats_parse_rejects_malformed_replies() {
        let mut stats = sample_shard_stats();
        stats.shards.truncate(1);
        let mut good = String::new();
        push_fleet_stats(&mut good, &stats);
        parse_fleet_stats(&mut LineCursor::new(&good)).expect("the unmutated reply parses");
        let shard_line = good.lines().nth(1).expect("shard line");
        let sketches = &good[good.find("sketches 2\n").expect("sketch block")..];
        let cases = [
            (
                "short shard line",
                good.replacen(shard_line, &shard_line[..shard_line.rfind(' ').unwrap()], 1),
            ),
            (
                "long shard line",
                good.replacen(shard_line, &format!("{shard_line} 7"), 1),
            ),
            (
                "non-numeric field",
                good.replacen("shard 0 3 ", "shard 0 x ", 1),
            ),
            (
                "4-counter queries line",
                good.replacen("queries 5 6 7 8 9\n", "queries 5 6 7 8\n", 1),
            ),
            ("missing sketch block", good.replacen(sketches, "", 1)),
            (
                "truncated sketch",
                good[..good.rfind("mstate").expect("last sketch line")].to_string(),
            ),
        ];
        for (what, text) in cases {
            assert_ne!(text, good, "{what}: the mutation must apply");
            assert!(
                parse_fleet_stats(&mut LineCursor::new(&text)).is_err(),
                "{what} should be rejected:\n{text}"
            );
        }
    }
}
