//! Node-health observability for the network core: [`NetStats`], its
//! bit-exact wire form, the slow-request ring, and the server-side
//! collector behind the `metrics` wire verb.
//!
//! The engine's observability (PR 6) made stream health a mergeable
//! artifact — exact moment partials plus t-digests that survive shards,
//! nodes, and the wire. This module gives the *network layer* the same
//! treatment: everything the evented core can count exactly is an exact
//! counter (accepts, closes, frames, decode errors, backpressure
//! transitions, poll iterations, wakeups, the write-buffer high-water
//! mark), and the one genuinely distributional signal — per-request
//! **wire-to-settle latency**, from the instant a complete frame is
//! decoded to the instant its reply bytes enter the write buffer — is a
//! [`MetricSummary`] whose moment half merges bit-exactly across nodes.
//!
//! ## Merge semantics
//!
//! [`NetStats::merge`] follows the same rules as the fleet sketch
//! rollup: counters **sum**, the write-buffer high-water mark takes the
//! **max** (it is a per-connection peak, not a flow), the settle-latency
//! summary **merges** (moments bit-exact and commutative; quantiles
//! within the t-digest's documented bound), and slow-request records
//! **concatenate** in fold order. The slow threshold takes the max of
//! the parts: the merged ring is only complete for latencies at or
//! above the least sensitive member's threshold.
//!
//! ## Wire form
//!
//! The block is versioned and tolerant exactly like the PR 6 sketch
//! block: a `netstats <version>` header, named `key value` counter
//! lines, a labelled `settle-latency` metric block, and a counted
//! `slow <n>` record block. Unknown counter lines are skipped and
//! absent ones default to zero, so a newer node's reply still parses on
//! an older client; emit → parse → emit is byte-identical, and the
//! latency moments travel as IEEE 754 hex bit patterns.

use sofia_fleet::durability::{decode_stream_id, encode_stream_id};
use sofia_fleet::protocol::wire::{LineCursor, WireError};
use sofia_sketch::{MetricSummary, METRIC_WIRE_LINES};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Upper bound on slow-request records accepted from one wire block (a
/// second line of defence behind the frame-size bound; servers carry
/// far fewer — see [`crate::ServerConfig::slow_ring_capacity`]).
const MAX_SLOW_RECORDS: usize = 65_536;

/// One request the slow-request ring captured: settled at or above the
/// node's latency threshold ([`crate::ServerConfig::slow_request_us`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SlowRequest {
    /// The request verb (`query`, `ingest`, `stats`, …).
    pub verb: String,
    /// The stream the request addressed, when it addressed one.
    pub stream: Option<String>,
    /// Server-assigned connection id the request arrived on.
    pub conn: u64,
    /// Wire-to-settle latency in microseconds.
    pub latency_us: u64,
}

/// One node's network-core health snapshot: exact counters plus the
/// sketched settle-latency distribution and the slow-request ring. See
/// the [module docs](self) for what is exact vs sketched and how
/// snapshots merge.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetStats {
    /// Connections the acceptor handed to the event loop.
    pub accepted: u64,
    /// Connections torn down (EOF, protocol fault, drain, reap).
    pub closed: u64,
    /// Connections currently owned by event-loop workers.
    pub active: u64,
    /// Complete, UTF-8-valid frames handed to the request parser.
    pub frames_decoded: u64,
    /// Off-protocol input: bad/oversized frame headers, non-UTF-8
    /// bodies, and well-formed frames whose body failed to parse.
    pub decode_errors: u64,
    /// Backpressure transitions: times a connection's read interest was
    /// dropped because its write buffer or completion queue hit its
    /// bound (the "stop reading" half of the backpressure contract).
    pub read_interest_drops: u64,
    /// Largest buffered-outgoing-bytes peak any connection reached.
    pub write_buffer_highwater: u64,
    /// Poll calls across the acceptor and every event-loop worker.
    pub poll_iterations: u64,
    /// Polls interrupted by an explicit cross-thread wake (accepted
    /// connection dealt to a worker, wind-down).
    pub wakeups: u64,
    /// Wire-to-settle latency (µs) of every settled request: from a
    /// complete frame decoded to its reply entering the write buffer.
    /// Moment half exact and bit-exactly mergeable; quantiles within
    /// the t-digest's documented rank bound.
    pub settle_latency: MetricSummary,
    /// This node's slow-request threshold (µs); requests settling at or
    /// above it enter [`NetStats::slow`].
    pub slow_threshold_us: u64,
    /// Slow-request records evicted from the bounded ring.
    pub slow_dropped: u64,
    /// The slow-request ring, oldest first.
    pub slow: Vec<SlowRequest>,
    /// Which endpoint this snapshot came from — a client-side label
    /// ([`crate::ClusterClient::metrics`] tags it); never on the wire,
    /// and `None` on merged views.
    pub endpoint: Option<String>,
}

impl NetStats {
    /// Absorbs another node's snapshot: counters sum, the write-buffer
    /// high-water takes the max, the settle-latency summaries merge
    /// (moment half bit-exact and commutative — fix the fold order for
    /// bit-reproducible rollups of ≥ 3 nodes), slow records concatenate
    /// in fold order, and the threshold takes the max (the merged ring
    /// is complete only at or above the least sensitive threshold).
    pub fn merge(&mut self, other: &NetStats) {
        self.accepted += other.accepted;
        self.closed += other.closed;
        self.active += other.active;
        self.frames_decoded += other.frames_decoded;
        self.decode_errors += other.decode_errors;
        self.read_interest_drops += other.read_interest_drops;
        self.write_buffer_highwater = self
            .write_buffer_highwater
            .max(other.write_buffer_highwater);
        self.poll_iterations += other.poll_iterations;
        self.wakeups += other.wakeups;
        self.settle_latency.merge(&other.settle_latency);
        self.slow_threshold_us = self.slow_threshold_us.max(other.slow_threshold_us);
        self.slow_dropped += other.slow_dropped;
        self.slow.extend(other.slow.iter().cloned());
        self.endpoint = None;
    }
}

/// Appends one [`NetStats`] block: the versioned header, every counter
/// as a named `key value` line, the labelled settle-latency
/// [`MetricSummary`] block (six lines, floats as hex bit patterns), and
/// the counted slow-request block. Emit → parse → emit is the identity;
/// the `endpoint` label is client-side and is **not** emitted.
pub fn push_net_stats(out: &mut String, stats: &NetStats) {
    use std::fmt::Write as _;
    out.push_str("netstats 1\n");
    let _ = writeln!(out, "accepted {}", stats.accepted);
    let _ = writeln!(out, "closed {}", stats.closed);
    let _ = writeln!(out, "active {}", stats.active);
    let _ = writeln!(out, "frames {}", stats.frames_decoded);
    let _ = writeln!(out, "decode-errors {}", stats.decode_errors);
    let _ = writeln!(out, "read-interest-drops {}", stats.read_interest_drops);
    let _ = writeln!(
        out,
        "write-buffer-highwater {}",
        stats.write_buffer_highwater
    );
    let _ = writeln!(out, "poll-iterations {}", stats.poll_iterations);
    let _ = writeln!(out, "wakeups {}", stats.wakeups);
    let _ = writeln!(out, "slow-threshold-us {}", stats.slow_threshold_us);
    let _ = writeln!(out, "slow-dropped {}", stats.slow_dropped);
    out.push_str("settle-latency\n");
    stats.settle_latency.push_wire(out);
    let _ = writeln!(out, "slow {}", stats.slow.len());
    for r in &stats.slow {
        let _ = write!(out, "req {} {} {}", r.verb, r.conn, r.latency_us);
        if let Some(stream) = &r.stream {
            let _ = write!(out, " {}", encode_stream_id(stream));
        }
        out.push('\n');
    }
}

/// Parses the block written by [`push_net_stats`], consuming the rest
/// of the cursor. Tolerant: unknown counter lines are skipped, absent
/// counters default to zero, and the settle-latency / slow blocks may
/// be absent entirely (empty summary, empty ring) — only the versioned
/// header is mandatory. Total:
/// malformed headers, counters, metric lines, or slow records are typed
/// errors, never panics.
pub fn parse_net_stats(cur: &mut LineCursor<'_>) -> Result<NetStats, WireError> {
    let head = cur.next("netstats header")?;
    let _version: u64 = head
        .strip_prefix("netstats ")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| WireError::new(format!("bad netstats header `{head}`")))?;
    let mut stats = NetStats::default();
    let mut seen: Vec<&str> = Vec::new();
    while let Some(line) = cur.peek() {
        if line == "settle-latency" {
            cur.next("settle-latency label")?;
            let mut lines = [""; METRIC_WIRE_LINES];
            for slot in lines.iter_mut() {
                *slot = cur.next("settle-latency metric line")?;
            }
            stats.settle_latency =
                MetricSummary::from_lines(lines).map_err(|e| WireError::new(e.to_string()))?;
            continue;
        }
        if let Some(count) = line.strip_prefix("slow ") {
            let n: usize = count
                .parse()
                .ok()
                .filter(|&n| n <= MAX_SLOW_RECORDS)
                .ok_or_else(|| WireError::new(format!("bad slow count `{count}`")))?;
            cur.next("slow header")?;
            stats.slow.reserve(n);
            for _ in 0..n {
                let rec = cur.next("slow request record")?;
                let toks: Vec<&str> = rec
                    .strip_prefix("req ")
                    .ok_or_else(|| WireError::new(format!("bad slow record `{rec}`")))?
                    .split_whitespace()
                    .collect();
                if toks.len() != 3 && toks.len() != 4 {
                    return Err(WireError::new(format!("bad slow record `{rec}`")));
                }
                let int = |tok: &str| -> Result<u64, WireError> {
                    tok.parse()
                        .map_err(|_| WireError::new(format!("bad slow field `{tok}`")))
                };
                stats.slow.push(SlowRequest {
                    verb: toks[0].to_string(),
                    conn: int(toks[1])?,
                    latency_us: int(toks[2])?,
                    stream: match toks.get(3) {
                        Some(enc) => Some(decode_stream_id(enc).ok_or_else(|| {
                            WireError::new(format!("undecodable slow stream `{enc}`"))
                        })?),
                        None => None,
                    },
                });
            }
            continue;
        }
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| WireError::new(format!("bad netstats line `{line}`")))?;
        let slot = match key {
            "accepted" => Some(&mut stats.accepted),
            "closed" => Some(&mut stats.closed),
            "active" => Some(&mut stats.active),
            "frames" => Some(&mut stats.frames_decoded),
            "decode-errors" => Some(&mut stats.decode_errors),
            "read-interest-drops" => Some(&mut stats.read_interest_drops),
            "write-buffer-highwater" => Some(&mut stats.write_buffer_highwater),
            "poll-iterations" => Some(&mut stats.poll_iterations),
            "wakeups" => Some(&mut stats.wakeups),
            "slow-threshold-us" => Some(&mut stats.slow_threshold_us),
            "slow-dropped" => Some(&mut stats.slow_dropped),
            // A counter this build does not know (a newer node's reply):
            // skipped, exactly like unknown fields of the sketch block's
            // versioned-by-names scheme.
            _ => None,
        };
        if let Some(slot) = slot {
            if seen.contains(&key) {
                return Err(WireError::new(format!("duplicate netstats field `{key}`")));
            }
            seen.push(key);
            *slot = value
                .parse()
                .map_err(|_| WireError::new(format!("bad netstats value `{value}`")))?;
        }
        cur.next("netstats field")?;
    }
    Ok(stats)
}

/// The server's live collector: lock-free relaxed counters on the hot
/// path, one settle-latency summary **per event-loop worker** (each
/// observed only by its owning worker, merged in worker-index order at
/// snapshot time — a fixed fold order, so two snapshots taken with the
/// same per-worker contents are bit-identical), and the bounded
/// slow-request ring. The steady-state request path touches only
/// relaxed atomics and the owning worker's uncontended summary lock —
/// no allocation (slow-request records allocate, by design only for
/// requests already past the latency threshold).
pub(crate) struct NetMetrics {
    pub(crate) accepted: AtomicU64,
    pub(crate) closed: AtomicU64,
    pub(crate) active: AtomicU64,
    pub(crate) frames_decoded: AtomicU64,
    pub(crate) decode_errors: AtomicU64,
    pub(crate) read_interest_drops: AtomicU64,
    pub(crate) write_buffer_highwater: AtomicU64,
    pub(crate) poll_iterations: AtomicU64,
    pub(crate) wakeups: AtomicU64,
    slow_dropped: AtomicU64,
    next_conn_id: AtomicU64,
    /// One slot per event-loop worker; index = worker id.
    settle: Vec<Mutex<MetricSummary>>,
    slow: Mutex<VecDeque<SlowRequest>>,
    slow_capacity: usize,
    pub(crate) slow_threshold_us: u64,
}

impl NetMetrics {
    pub(crate) fn new(workers: usize, slow_threshold_us: u64, slow_capacity: usize) -> NetMetrics {
        NetMetrics {
            accepted: AtomicU64::new(0),
            closed: AtomicU64::new(0),
            active: AtomicU64::new(0),
            frames_decoded: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
            read_interest_drops: AtomicU64::new(0),
            write_buffer_highwater: AtomicU64::new(0),
            poll_iterations: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            slow_dropped: AtomicU64::new(0),
            next_conn_id: AtomicU64::new(1),
            settle: (0..workers)
                .map(|_| Mutex::new(MetricSummary::new()))
                .collect(),
            slow: Mutex::new(VecDeque::with_capacity(slow_capacity)),
            slow_capacity,
            slow_threshold_us,
        }
    }

    /// A fresh server-unique connection id (for slow-request records).
    pub(crate) fn next_conn_id(&self) -> u64 {
        self.next_conn_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Folds one settled request's latency into its worker's summary.
    pub(crate) fn observe_settle(&self, worker: usize, latency_us: f64) {
        if let Some(slot) = self.settle.get(worker) {
            slot.lock()
                .expect("settle summary lock")
                .observe(latency_us);
        }
    }

    /// Pushes one record into the bounded ring, evicting (and counting)
    /// the oldest when full.
    pub(crate) fn record_slow(&self, record: SlowRequest) {
        if self.slow_capacity == 0 {
            self.slow_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut ring = self.slow.lock().expect("slow ring lock");
        if ring.len() == self.slow_capacity {
            ring.pop_front();
            self.slow_dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(record);
    }

    /// One coherent-enough snapshot: relaxed counter loads, the
    /// per-worker summaries merged **in worker-index order** (the fixed
    /// fold order the bit-exact cluster rollup relies on), and the ring
    /// cloned oldest-first.
    pub(crate) fn snapshot(&self) -> NetStats {
        let mut settle_latency = MetricSummary::new();
        for slot in &self.settle {
            settle_latency.merge(&slot.lock().expect("settle summary lock"));
        }
        let slow: Vec<SlowRequest> = self
            .slow
            .lock()
            .expect("slow ring lock")
            .iter()
            .cloned()
            .collect();
        NetStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            closed: self.closed.load(Ordering::Relaxed),
            active: self.active.load(Ordering::Relaxed),
            frames_decoded: self.frames_decoded.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            read_interest_drops: self.read_interest_drops.load(Ordering::Relaxed),
            write_buffer_highwater: self.write_buffer_highwater.load(Ordering::Relaxed),
            poll_iterations: self.poll_iterations.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
            settle_latency,
            slow_threshold_us: self.slow_threshold_us,
            slow_dropped: self.slow_dropped.load(Ordering::Relaxed),
            slow,
            endpoint: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NetStats {
        let mut settle_latency = MetricSummary::new();
        for v in [12.5, 80.0, 33.25, 1500.0, 9.0] {
            settle_latency.observe(v);
        }
        NetStats {
            accepted: 7,
            closed: 3,
            active: 4,
            frames_decoded: 912,
            decode_errors: 2,
            read_interest_drops: 1,
            write_buffer_highwater: 16384,
            poll_iterations: 40112,
            wakeups: 77,
            settle_latency,
            slow_threshold_us: 1000,
            slow_dropped: 5,
            slow: vec![
                SlowRequest {
                    verb: "query".to_string(),
                    stream: Some("sensor grid/7".to_string()),
                    conn: 3,
                    latency_us: 1500,
                },
                SlowRequest {
                    verb: "flush".to_string(),
                    stream: None,
                    conn: 9,
                    latency_us: 2100,
                },
            ],
            endpoint: None,
        }
    }

    #[test]
    fn wire_round_trips_byte_identically() {
        let stats = sample();
        let mut out = String::new();
        push_net_stats(&mut out, &stats);
        let mut cur = LineCursor::new(&out);
        let back = parse_net_stats(&mut cur).unwrap();
        cur.finish().unwrap();
        // Struct equality modulo the digest's internal buffering: the
        // wire carries the compacted centroids, the original may still
        // hold unflushed observations of the same multiset.
        let mut canonical = stats.clone();
        canonical.settle_latency = back.settle_latency.clone();
        assert_eq!(back, canonical);
        assert_eq!(
            back.settle_latency.moments().sum().to_bits(),
            stats.settle_latency.moments().sum().to_bits(),
            "moment partials travel bit-exactly"
        );
        assert_eq!(
            back.settle_latency.moments().sum_sq().to_bits(),
            stats.settle_latency.moments().sum_sq().to_bits(),
        );
        let mut again = String::new();
        push_net_stats(&mut again, &back);
        assert_eq!(again, out, "emit → parse → emit is the identity");
    }

    #[test]
    fn empty_stats_round_trip() {
        let stats = NetStats::default();
        let mut out = String::new();
        push_net_stats(&mut out, &stats);
        let mut cur = LineCursor::new(&out);
        let back = parse_net_stats(&mut cur).unwrap();
        cur.finish().unwrap();
        assert_eq!(back, stats);
        assert!(back.settle_latency.is_empty());
    }

    #[test]
    fn parse_tolerates_absent_and_unknown_fields() {
        // A minimal reply (header only): every counter defaults, the
        // summary is empty, the ring is empty.
        let mut cur = LineCursor::new("netstats 1\n");
        let stats = parse_net_stats(&mut cur).unwrap();
        cur.finish().unwrap();
        assert_eq!(stats, NetStats::default());

        // A newer node's reply with counters this build never heard of.
        let text = "netstats 3\naccepted 5\nrdma-completions 99\nwakeups 2\n";
        let mut cur = LineCursor::new(text);
        let stats = parse_net_stats(&mut cur).unwrap();
        cur.finish().unwrap();
        assert_eq!(stats.accepted, 5);
        assert_eq!(stats.wakeups, 2);
        assert_eq!(stats.closed, 0);
    }

    #[test]
    fn parse_rejects_malformed_blocks() {
        for text in [
            "nope 1\n",
            "netstats one\n",
            "netstats 1\naccepted many\n",
            "netstats 1\naccepted 1\naccepted 2\n",
            "netstats 1\nslow 2\nreq query 1 5\n",
            "netstats 1\nslow 1\nquery 1 5\n",
            "netstats 1\nslow 1\nreq query one 5\n",
            "netstats 1\nsettle-latency\nmoments 1\n",
            "netstats 1\nslow 999999999\n",
        ] {
            let mut cur = LineCursor::new(text);
            assert!(parse_net_stats(&mut cur).is_err(), "accepted `{text}`");
        }
    }

    #[test]
    fn merge_sums_counts_and_maxes_peaks() {
        let mut a = sample();
        let mut b = sample();
        b.write_buffer_highwater = 99_999;
        b.slow_threshold_us = 50;
        let sum_a = a.settle_latency.moments().sum();
        a.merge(&b);
        assert_eq!(a.accepted, 14);
        assert_eq!(a.frames_decoded, 1824);
        assert_eq!(a.write_buffer_highwater, 99_999);
        assert_eq!(a.slow_threshold_us, 1000, "threshold takes the max");
        assert_eq!(a.slow.len(), 4, "rings concatenate");
        assert_eq!(a.settle_latency.count(), 10);
        assert_eq!(
            a.settle_latency.moments().sum().to_bits(),
            (sum_a + sum_a).to_bits(),
            "moment merge is the exact partial sum"
        );
    }

    #[test]
    fn collector_ring_is_bounded_and_counts_evictions() {
        let m = NetMetrics::new(2, 0, 2);
        for i in 0..5u64 {
            m.record_slow(SlowRequest {
                verb: "query".to_string(),
                stream: None,
                conn: i,
                latency_us: i * 10,
            });
        }
        let snap = m.snapshot();
        assert_eq!(snap.slow.len(), 2);
        assert_eq!(snap.slow_dropped, 3);
        assert_eq!(snap.slow[0].conn, 3, "oldest evicted first");
        assert_eq!(snap.slow[1].conn, 4);
    }

    #[test]
    fn collector_snapshot_merges_workers_in_index_order() {
        let m = NetMetrics::new(3, 0, 4);
        m.observe_settle(0, 10.0);
        m.observe_settle(2, 30.0);
        m.observe_settle(1, 20.0);
        // Out-of-range worker ids are ignored, not a panic.
        m.observe_settle(9, 1.0);
        let snap = m.snapshot();
        assert_eq!(snap.settle_latency.count(), 3);
        let mut expect = MetricSummary::new();
        expect.observe(10.0);
        let mut w1 = MetricSummary::new();
        w1.observe(20.0);
        let mut w2 = MetricSummary::new();
        w2.observe(30.0);
        expect.merge(&w1);
        expect.merge(&w2);
        assert_eq!(snap.settle_latency, expect);
    }
}
