//! Event-loop behaviours the blocking server could not even express
//! (the 256-connection thread-count soak lives in `soak.rs`, a binary of
//! its own):
//!
//! * frames dribbled one byte at a time across many sockets decode
//!   incrementally and do not starve well-behaved clients (slowloris
//!   resistance — only pinnable now that decoding is incremental);
//! * a client whose server went silent or died mid-pipelined-batch
//!   errors **promptly and typed** ([`FrameError::TimedOut`] /
//!   truncation) instead of hanging on the read side.

mod common;

use common::{expect_forecast_value, serving_fleet};
use sofia_core::traits::{StepOutput, StreamingFactorizer};
use sofia_fleet::{Fleet, FleetConfig, MetricKind, ModelHandle, Query};
use sofia_net::wire::{ok_body, read_frame, write_frame, Request, ShardMap};
use sofia_net::{Client, ClientError, FrameError, Server, ServerConfig};
use sofia_tensor::{DenseTensor, ObservedTensor, Shape};
use std::io::{BufReader, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// A raw (non-`Client`) socket that has completed the handshake, so a
/// test can control the byte stream exactly.
fn raw_handshaken(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut w = stream.try_clone().expect("clone");
    write_frame(
        &mut w,
        &Request::Hello {
            client: "raw".to_string(),
        }
        .to_body(),
    )
    .expect("hello");
    let mut r = BufReader::new(stream.try_clone().expect("clone"));
    let reply = read_frame(&mut r, 1 << 20).expect("handshake reply");
    assert!(reply.expect("handshake frame").starts_with("ok 0"));
    stream
}

#[test]
fn slowloris_dribble_does_not_starve_other_clients() {
    const DRIBBLERS: usize = 16;
    let (fleet, ids) = serving_fleet(4);
    let server = Server::bind("127.0.0.1:0", fleet).expect("bind");

    // Each dribbler handshakes, then sends HALF a query frame and
    // stalls — sixteen connections parked mid-frame.
    let mut dribblers = Vec::new();
    for i in 0..DRIBBLERS {
        let stream = raw_handshaken(&server);
        let body = Request::Query {
            id: 100 + i as u64,
            epoch: None,
            stream: ids[i % ids.len()].clone(),
            query: Query::Forecast { horizon: 1 },
        }
        .to_body();
        let framed = format!("#{}\n{}", body.len(), body);
        let bytes = framed.as_bytes();
        let half = bytes.len() / 2;
        let mut w = stream.try_clone().expect("clone");
        w.write_all(&bytes[..half]).expect("first half");
        w.flush().expect("flush");
        dribblers.push((stream, bytes[half..].to_vec()));
    }

    // A well-behaved client must get full service while those sixteen
    // partial frames sit in the decoders.
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let started = Instant::now();
    for round in 0..50 {
        let id = &ids[round % ids.len()];
        let resp = client
            .query(id, Query::Forecast { horizon: 1 })
            .expect("query while dribblers stall");
        assert_eq!(expect_forecast_value(resp), 1.0);
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "dribbling connections starved a well-behaved client \
         ({:?} for 50 round-trips)",
        started.elapsed()
    );

    // Now finish every dribbled frame ONE BYTE AT A TIME; each must
    // still decode into the correct, individually addressed reply.
    for (i, (stream, rest)) in dribblers.into_iter().enumerate() {
        let mut w = stream.try_clone().expect("clone");
        for b in rest {
            w.write_all(&[b]).expect("dribble byte");
            w.flush().expect("flush");
        }
        let mut r = BufReader::new(stream);
        let reply = read_frame(&mut r, 1 << 20)
            .expect("dribbled reply")
            .expect("dribbled reply frame");
        assert!(
            reply.starts_with(&format!("ok {}\n", 100 + i)),
            "dribbler {i} got `{}`",
            reply.lines().next().unwrap_or("")
        );
    }
    server.shutdown().expect("shutdown");
}

#[test]
fn client_read_times_out_typed_when_server_goes_silent() {
    // A stand-in "server" that completes the handshake and then never
    // answers anything — the shape of a process wedged mid-reply.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let silent = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut r = BufReader::new(stream.try_clone().expect("clone"));
        let _hello = read_frame(&mut r, 1 << 20).expect("hello");
        let mut w = stream.try_clone().expect("clone");
        let map = ShardMap::single_node("stand-in", 1);
        write_frame(&mut w, &ok_body(0, |out| map.push_wire(out))).expect("handshake reply");
        // Hold the socket open, reply to nothing.
        let mut sink = [0u8; 256];
        while let Ok(n) = r.read(&mut sink) {
            if n == 0 {
                break;
            }
        }
    });

    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_millis(200)))
        .expect("set timeout");
    let started = Instant::now();
    let err = client
        .query("anything", Query::Forecast { horizon: 1 })
        .expect_err("a silent server must not hang the client");
    assert!(
        matches!(err, ClientError::Frame(FrameError::TimedOut)),
        "expected a typed timeout, got {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "timeout took {:?}",
        started.elapsed()
    );
    drop(client);
    silent.join().expect("stand-in exits");
}

/// Echo with a deliberately slow forecast, so a pipelined batch is
/// still settling when the server is killed.
struct SlowEcho;

impl StreamingFactorizer for SlowEcho {
    fn name(&self) -> &'static str {
        "slow-echo"
    }
    fn step(&mut self, slice: &ObservedTensor) -> StepOutput {
        StepOutput {
            completed: slice.values().clone(),
            outliers: None,
        }
    }
    fn forecast(&self, h: usize) -> Option<DenseTensor> {
        std::thread::sleep(Duration::from_millis(30));
        Some(DenseTensor::full(Shape::new(&[1]), h as f64))
    }
}

#[test]
fn client_errors_promptly_when_server_dies_mid_pipelined_batch() {
    let fleet = Fleet::new(FleetConfig {
        shards: 1,
        queue_capacity: 1024,
        checkpoint: None,
        evict_idle_after: None,
    })
    .expect("fleet");
    let ids: Vec<String> = (0..4).map(|i| format!("stream-{i:03}")).collect();
    for id in &ids {
        fleet
            .register(id, ModelHandle::serve(SlowEcho))
            .expect("register");
    }
    let server = Server::bind("127.0.0.1:0", fleet).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_millis(500)))
        .expect("set timeout");

    // Queries in flight...
    let mut pending = Vec::new();
    for i in 0..8 {
        pending.push(
            client
                .start_query(&ids[i % ids.len()], Query::Forecast { horizon: 1 })
                .expect("start"),
        );
    }
    // ...and the server is killed out from under them (crash-faithful
    // teardown: connections torn down, replies discarded).
    server.abort();

    let started = Instant::now();
    let mut failed = false;
    for qid in pending {
        match client.finish_query(qid) {
            Ok(_) => continue, // replies that raced the abort out
            Err(e) => {
                // Typed transport failure — timeout, truncation, or a
                // closed connection — never a hang.
                failed = true;
                assert!(
                    matches!(
                        e,
                        ClientError::Frame(_) | ClientError::Io(_) | ClientError::Protocol(_)
                    ),
                    "unexpected error shape: {e}"
                );
                break;
            }
        }
    }
    assert!(failed, "every reply arrived from an aborted server");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "client took {:?} to notice the dead server",
        started.elapsed()
    );
}

#[test]
fn metrics_report_counts_connections_frames_and_settle_latency() {
    let (fleet, ids) = serving_fleet(2);
    let server = Server::bind_with(
        "127.0.0.1:0",
        fleet,
        ServerConfig {
            // Threshold 0 captures every request, so this test also
            // pins the slow-ring path without depending on timing.
            slow_request_us: 0,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut other = Client::connect(server.local_addr()).expect("connect");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for round in 0..10 {
        client
            .query(&ids[round % ids.len()], Query::Forecast { horizon: 1 })
            .expect("query");
    }
    other.flush().expect("flush");

    let stats = client.metrics().expect("metrics");
    assert!(stats.accepted >= 2, "two live clients: {}", stats.accepted);
    assert!(stats.active >= 1 && stats.active <= stats.accepted);
    assert_eq!(stats.decode_errors, 0);
    // 2 hellos + 10 queries + 1 flush decoded before the metrics frame.
    assert!(
        stats.frames_decoded >= 13,
        "frames_decoded = {}",
        stats.frames_decoded
    );
    assert!(stats.settle_latency.count() >= 11);
    assert!(
        stats.settle_latency.p99().is_some(),
        "a served node has a settle-latency p99"
    );
    assert!(stats.poll_iterations > 0);
    assert!(
        stats.wakeups >= 1,
        "adopting a connection wakes the worker's poller"
    );
    // Threshold 0: every settled request landed in the ring.
    assert_eq!(stats.slow_threshold_us, 0);
    assert!(!stats.slow.is_empty());
    let q = stats
        .slow
        .iter()
        .find(|r| r.verb == "query")
        .expect("a captured query record");
    let q_stream = q.stream.as_ref().expect("queries are stream-addressed");
    assert!(ids.contains(q_stream), "unexpected stream `{q_stream}`");

    // Counters are monotone: the metrics request itself is traffic.
    let later = client.metrics().expect("metrics again");
    assert!(later.frames_decoded > stats.frames_decoded);
    assert!(later.settle_latency.count() > stats.settle_latency.count());
    server.shutdown().expect("shutdown");
}

#[test]
fn slow_request_ring_captures_requests_past_the_threshold() {
    let fleet = Fleet::new(FleetConfig {
        shards: 1,
        queue_capacity: 64,
        checkpoint: None,
        evict_idle_after: None,
    })
    .expect("fleet");
    fleet
        .register("laggard", ModelHandle::serve(SlowEcho))
        .expect("register");
    // SlowEcho's forecast sleeps 30 ms — far past a 20 ms threshold.
    let server = Server::bind_with(
        "127.0.0.1:0",
        fleet,
        ServerConfig {
            slow_request_us: 20_000,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client
        .query("laggard", Query::Forecast { horizon: 1 })
        .expect("slow query");

    let stats = client.metrics().expect("metrics");
    assert_eq!(stats.slow_threshold_us, 20_000);
    assert_eq!(stats.slow_dropped, 0);
    let rec = stats
        .slow
        .iter()
        .find(|r| r.verb == "query")
        .expect("the 30 ms forecast must be captured");
    assert_eq!(rec.stream.as_deref(), Some("laggard"));
    assert!(
        rec.latency_us >= 20_000,
        "captured latency {}µs is under the threshold",
        rec.latency_us
    );
    server.shutdown().expect("shutdown");
}

#[test]
fn malformed_bodies_count_as_decode_errors() {
    let (fleet, _ids) = serving_fleet(1);
    let server = Server::bind("127.0.0.1:0", fleet).expect("bind");
    let raw = raw_handshaken(&server);
    let mut w = raw.try_clone().expect("clone");
    // A well-formed frame whose body is not a request.
    write_frame(&mut w, "warp 9\n").expect("garbage frame");
    let mut r = BufReader::new(raw.try_clone().expect("clone"));
    let reply = read_frame(&mut r, 1 << 20)
        .expect("err reply")
        .expect("reply frame");
    assert!(reply.starts_with("err "), "got `{reply}`");

    let mut client = Client::connect(server.local_addr()).expect("connect");
    let stats = client.metrics().expect("metrics");
    assert!(
        stats.decode_errors >= 1,
        "the garbage body must be counted: {}",
        stats.decode_errors
    );
    server.shutdown().expect("shutdown");
}

#[test]
fn quantile_on_an_empty_sketch_is_none_over_the_wire() {
    // Echo streams are registered but never stepped: both metric
    // sketches are empty, so every quantile is the typed `None`.
    let (fleet, ids) = serving_fleet(1);
    let server = Server::bind("127.0.0.1:0", fleet).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let resp = client
        .query(
            &ids[0],
            Query::Quantile {
                metric: MetricKind::IngestLatency,
                q: 0.99,
            },
        )
        .expect("quantile query");
    assert_eq!(resp.expect_quantile(), None);

    // And the literal bytes: the reply payload is `quantile none`.
    let raw = raw_handshaken(&server);
    let mut w = raw.try_clone().expect("clone");
    write_frame(
        &mut w,
        &Request::Query {
            id: 9,
            epoch: None,
            stream: ids[0].clone(),
            query: Query::Quantile {
                metric: MetricKind::ForecastError,
                q: 0.5,
            },
        }
        .to_body(),
    )
    .expect("raw quantile");
    let mut r = BufReader::new(raw);
    let reply = read_frame(&mut r, 1 << 20)
        .expect("reply")
        .expect("reply frame");
    assert_eq!(reply, "ok 9\nquantile none\n");
    server.shutdown().expect("shutdown");
}
