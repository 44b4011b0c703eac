//! The O(pool), not O(connections), guarantee of the event loop: 256
//! concurrent connections leave the server's thread count at pool size.
//!
//! The check reads the *process-wide* thread count from the kernel, so
//! this test is the only one in its binary: sibling tests starting or
//! finishing their own threads mid-soak would move the count.

mod common;

use common::{expect_forecast_value, serving_fleet};
use sofia_fleet::Query;
use sofia_net::{Client, Server, ServerConfig};

/// Threads of this process, per the kernel. `None` off Linux.
fn os_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

#[test]
fn soak_256_connections_keep_thread_count_at_pool_size() {
    const CONNS: usize = 256;
    let (fleet, ids) = serving_fleet(8);
    let server = Server::bind_with(
        "127.0.0.1:0",
        fleet,
        ServerConfig {
            event_threads: Some(2),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    assert_eq!(server.event_threads(), 2);
    assert_eq!(server.thread_count(), 3, "pool + acceptor, nothing else");

    let baseline = os_thread_count();
    let mut clients = Vec::with_capacity(CONNS);
    for c in 0..CONNS {
        let mut client = Client::connect(server.local_addr()).expect("connect");
        // A little pipelined work per connection so every socket has
        // actually been served, not merely accepted.
        let id = &ids[c % ids.len()];
        let mut pending = Vec::new();
        for _ in 0..4 {
            pending.push(
                client
                    .start_query(id, Query::Forecast { horizon: 1 })
                    .expect("start"),
            );
        }
        for qid in pending {
            let resp = client.finish_query(qid).expect("finish").expect("forecast");
            assert_eq!(expect_forecast_value(resp), 1.0);
        }
        clients.push(client);
    }

    // All 256 still connected: the kernel must agree no thread was
    // spawned per connection.
    if let (Some(before), Some(during)) = (baseline, os_thread_count()) {
        assert_eq!(
            during, before,
            "{CONNS} live connections changed the process thread count \
             ({before} -> {during}); the server must stay at pool size"
        );
    }

    drop(clients);
    server.shutdown().expect("shutdown");
}
