//! End-to-end tests over real sockets: canonical-answer parity through
//! TCP, graceful drain under load, and protocol robustness against a
//! live server.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dblsh_core::{DbLsh, DbLshBuilder};
use dblsh_data::io::{read_len_frame, write_len_frame};
use dblsh_data::synthetic::{gaussian_mixture, MixtureConfig};
use dblsh_data::DbLshError;
use dblsh_net::proto::{decode_frame, encode_request, Message};
use dblsh_net::{
    ClientConfig, DbLshClient, DbLshServer, NetError, Request, Response, RetryPolicy, ServerConfig,
    DEFAULT_MAX_FRAME,
};
use dblsh_serve::{Engine, EngineConfig, ShardPolicy, ShardedDbLsh};

struct Fixture {
    data: Arc<dblsh_data::Dataset>,
    reference: DbLsh,
    engine: Arc<Engine>,
}

/// One dataset, one resolved parameter set, two indexes over it: the
/// unsharded reference (canonical ladder) and a 4-shard engine behind
/// the server. Identical parameters are what make byte-identical
/// answers a fair demand.
fn fixture(n: usize, dim: usize, workers: usize, queue: usize) -> Fixture {
    let data = Arc::new(gaussian_mixture(&MixtureConfig {
        n,
        dim,
        seed: 7,
        ..Default::default()
    }));
    let builder = DbLshBuilder::new().l(3).seed(42).auto_r_min();
    let params = builder
        .resolve_params_for(&data)
        .expect("valid configuration");
    let sharded = ShardedDbLsh::build_with_params(&data, &params, 4, ShardPolicy::RoundRobin)
        .expect("sharded build");
    let reference = DbLsh::build(Arc::clone(&data), &params).expect("reference build");
    let engine = Arc::new(Engine::start(
        Arc::new(sharded),
        EngineConfig {
            workers,
            queue_capacity: queue,
        },
    ));
    Fixture {
        data,
        reference,
        engine,
    }
}

fn start_server(engine: &Arc<Engine>, config: ServerConfig) -> DbLshServer {
    DbLshServer::bind("127.0.0.1:0", Arc::clone(engine), config).expect("bind on loopback")
}

#[test]
fn tcp_answers_are_byte_identical_to_search_canonical() {
    let fx = fixture(800, 12, 2, 64);
    let server = start_server(&fx.engine, ServerConfig::default());
    let mut client = DbLshClient::connect(&server.local_addr().to_string()).expect("connect");

    let opts = dblsh_core::SearchOptions::default();
    for qi in [0usize, 17, 311, 799] {
        let q = fx.data.point(qi).to_vec();
        let over_wire = client.knn(&q, 10).expect("wire search");
        let local = fx.reference.search_canonical(&q, 10, &opts).expect("local");
        let wire_bytes: Vec<(u32, u32)> = over_wire
            .neighbors
            .iter()
            .map(|n| (n.id, n.dist.to_bits()))
            .collect();
        let local_bytes: Vec<(u32, u32)> = local
            .neighbors
            .iter()
            .map(|n| (n.id, n.dist.to_bits()))
            .collect();
        assert_eq!(wire_bytes, local_bytes, "query {qi}: TCP answer diverged");
        // `time_verification` survives the wire, both ways.
        let timed = dblsh_core::SearchOptions {
            time_verification: true,
            ..Default::default()
        };
        let timed = client.knn_with(&q, 10, timed).expect("timed wire search");
        assert_eq!(over_wire.stats.verify_nanos, 0, "query {qi}");
        assert!(timed.stats.verify_nanos > 0, "query {qi}");
    }
    server.shutdown();
}

#[test]
fn full_api_round_trips_over_one_connection() {
    let fx = fixture(400, 8, 2, 64);
    let server = start_server(&fx.engine, ServerConfig::default());
    let mut client = DbLshClient::connect(&server.local_addr().to_string()).expect("connect");

    assert_eq!(client.ping(0xFEED).expect("ping"), 0xFEED);

    let q = fx.data.point(3).to_vec();
    let (nearest, _stats) = client.r_c_nn(&q, 1e6).expect("rcnn");
    assert_eq!(nearest.expect("huge radius must hit").id, 3);

    let new_point = vec![0.25f32; 8];
    let id = client.insert(&new_point).expect("insert");
    let res = client.knn(&new_point, 1).expect("search for inserted");
    assert_eq!(res.neighbors[0].id, id);
    assert!(client.remove(id).expect("remove"));
    assert!(!client.remove(id).expect("double remove reports dead id"));

    // Typed validation errors travel: wrong dimension, k = 0.
    match client.knn(&[1.0, 2.0], 5) {
        Err(NetError::Remote(DbLshError::DimensionMismatch {
            expected: 8,
            got: 2,
        })) => {}
        other => panic!("expected a typed dimension mismatch, got {other:?}"),
    }
    match client.knn(&q, 0) {
        Err(NetError::Remote(DbLshError::InvalidParameter { .. })) => {}
        other => panic!("expected a typed parameter error, got {other:?}"),
    }
    // The connection survives typed errors.
    assert_eq!(client.ping(1).expect("still alive"), 1);

    let stats = client.stats().expect("stats over the wire");
    assert!(stats.searches >= 2, "stats: {stats:?}");
    assert_eq!(stats.inserts, 1);
    assert_eq!(stats.removes, 2, "both remove requests executed");

    server.shutdown();
}

#[test]
fn metrics_scrape_over_the_wire_reflects_traced_traffic() {
    let fx = fixture(400, 8, 2, 64);
    let server = start_server(&fx.engine, ServerConfig::default());
    let mut client = DbLshClient::connect(&server.local_addr().to_string()).expect("connect");

    let q = fx.data.point(5).to_vec();
    // One untraced and one traced search; tracing must not change the
    // answer even through the wire.
    let plain = client.knn(&q, 4).expect("untraced knn");
    let traced = client
        .knn_with(
            &q,
            4,
            dblsh_core::SearchOptions {
                trace: true,
                ..Default::default()
            },
        )
        .expect("traced knn");
    assert_eq!(plain.neighbors, traced.neighbors);
    assert_eq!(plain.stats, traced.stats);
    // A run of traced traffic, so the closure check below compares sums
    // over many requests against the one untraced request's slack.
    const TRACED: usize = 200;
    for i in 1..TRACED {
        let q = fx.data.point(i % 400);
        let opts = dblsh_core::SearchOptions {
            trace: true,
            ..Default::default()
        };
        client.knn_with(q, 4, opts).expect("traced knn");
    }
    let requests = TRACED as u64 + 1;
    let knn_count = format!("dblsh_requests_total{{op=\"knn\"}} {requests}\n");

    let prom = client
        .metrics(dblsh_net::MetricsFormat::Prometheus)
        .expect("prometheus scrape");
    for needle in [knn_count.as_str(), "dblsh_live_points 400\n"] {
        assert!(prom.contains(needle), "missing {needle:?} in:\n{prom}");
    }

    // Golden structure: with every sample value stripped, the scrape is
    // the committed series catalogue line for line (the series set does
    // not depend on traffic or shard count).
    let structure: Vec<&str> = prom
        .lines()
        .map(|line| match line.rsplit_once(' ') {
            Some((series, _value)) if !line.starts_with('#') => series,
            _ => line,
        })
        .collect();
    let golden: Vec<&str> = include_str!("../../telemetry/golden/engine_scrape.prom")
        .lines()
        .collect();
    assert_eq!(
        structure, golden,
        "scrape structure drifted from the golden"
    );

    // Trace closure: `QueryTrace::close` charges unattributed time to the
    // reply stage, so over all-traced traffic the per-stage sums account
    // for the engine's end-to-end latency; only the untraced request is
    // slack.
    let sum_of = |prefix: &str| -> f64 {
        prom.lines()
            .filter(|line| line.starts_with(prefix))
            .filter_map(|line| line.rsplit_once(' ')?.1.parse::<f64>().ok())
            .sum()
    };
    let request_s = sum_of("dblsh_request_seconds_sum ");
    let stage_s = sum_of("dblsh_stage_seconds_sum{");
    let rel = (stage_s - request_s).abs() / request_s;
    assert!(
        rel <= 0.10,
        "stage sums {stage_s:.6} s vs end-to-end {request_s:.6} s ({:.1}% apart)",
        rel * 100.0
    );

    let json = client
        .metrics(dblsh_net::MetricsFormat::Json)
        .expect("json scrape");
    assert!(json.starts_with("{\"metrics\":["), "{json}");
    assert!(
        json.contains("\"name\":\"dblsh_request_seconds\""),
        "{json}"
    );

    // Stats opcode carries the new per-opcode and uptime fields.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.knn_requests, requests);
    assert_eq!(stats.rcnn_requests, 0);
    assert_eq!(stats.searches, requests);
    assert!(stats.uptime_secs > 0.0);
    assert!(stats.started_at_unix > 0);
    server.shutdown();
}

#[test]
fn pipelined_requests_resolve_out_of_order() {
    let fx = fixture(400, 8, 2, 64);
    let server = start_server(&fx.engine, ServerConfig::default());
    let mut client = DbLshClient::connect(&server.local_addr().to_string()).expect("connect");

    let ids: Vec<_> = (0..8)
        .map(|i| {
            client
                .submit(&Request::Knn {
                    query: fx.data.point(i).to_vec(),
                    k: 5,
                    opts: Default::default(),
                })
                .expect("submit")
        })
        .collect();
    // Redeem in reverse submission order: responses buffered by id.
    for (i, id) in ids.into_iter().enumerate().rev() {
        match client.wait(id).expect("pipelined response") {
            Response::Knn(res) => assert_eq!(res.neighbors[0].id, i as u32),
            other => panic!("expected Knn, got {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn graceful_drain_completes_accepted_requests_then_refuses_connects() {
    // Single worker + deep queue: accepted requests pile up behind one
    // slow lane, so shutdown provably overlaps in-flight work.
    let fx = fixture(2000, 24, 1, 256);
    let server = start_server(&fx.engine, ServerConfig::default());
    let addr = server.local_addr().to_string();
    let mut client = DbLshClient::connect(&addr).expect("connect");

    const N: usize = 40;
    let ids: Vec<_> = (0..N)
        .map(|i| {
            client
                .submit(&Request::Knn {
                    query: fx.data.point(i % 2000).to_vec(),
                    k: 50,
                    opts: Default::default(),
                })
                .expect("submit")
        })
        .collect();

    // Wait until the server has *accepted* (decoded + dispatched) every
    // frame, so none can be lost to the drain; the engine is still
    // chewing on them when shutdown begins.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().requests < N as u64 {
        assert!(Instant::now() < deadline, "server never accepted the load");
        std::thread::sleep(Duration::from_millis(2));
    }

    let shutdown = std::thread::spawn(move || server.shutdown());

    // Every accepted request must complete with a real answer — the
    // drain waits for engine tickets and flushes every response.
    for (i, id) in ids.into_iter().enumerate() {
        match client.wait(id).expect("accepted request must be answered") {
            Response::Knn(res) => {
                assert_eq!(res.neighbors[0].id, (i % 2000) as u32, "request {i}")
            }
            other => panic!("request {i}: expected Knn, got {other:?}"),
        }
    }

    let stats = shutdown.join().expect("no panics anywhere in the server");
    assert!(stats.requests >= N as u64);

    // The listener is gone: subsequent connects fail cleanly at the OS
    // level (no hang, no half-open protocol state).
    match DbLshClient::connect(&addr) {
        Err(NetError::Io { op: "connect", .. }) => {}
        Err(other) => panic!("expected a clean connect refusal, got {other:?}"),
        Ok(_) => panic!("connect succeeded after shutdown"),
    }
}

#[test]
fn busy_engine_refuses_over_the_wire_with_typed_error() {
    // Tiny queue + one worker + heavy queries: flooding pipelined
    // requests must surface at least one typed Busy refusal while every
    // other request still gets a well-formed answer.
    let fx = fixture(2000, 24, 1, 1);
    let server = start_server(&fx.engine, ServerConfig::default());
    let mut client = DbLshClient::connect(&server.local_addr().to_string()).expect("connect");

    let ids: Vec<_> = (0..64)
        .map(|i| {
            client
                .submit(&Request::Knn {
                    query: fx.data.point(i).to_vec(),
                    k: 50,
                    opts: Default::default(),
                })
                .expect("submit")
        })
        .collect();
    let mut busy = 0usize;
    let mut served = 0usize;
    for id in ids {
        match client.wait(id).expect("every request gets a response") {
            Response::Knn(_) => served += 1,
            Response::Error(NetError::Remote(DbLshError::Busy)) => busy += 1,
            other => panic!("expected Knn or Busy, got {other:?}"),
        }
    }
    assert_eq!(busy + served, 64);
    assert!(
        busy > 0,
        "a capacity-1 queue must refuse under a 64-deep flood"
    );
    assert!(served > 0, "admission control must not starve everything");
    let engine_stats = fx.engine.stats();
    assert_eq!(engine_stats.rejected, busy as u64);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Robustness against raw bytes
// ---------------------------------------------------------------------

fn read_response_frame(stream: &mut TcpStream) -> (u64, Response) {
    let body = read_len_frame(stream, DEFAULT_MAX_FRAME)
        .expect("well-formed response frame")
        .expect("server must answer before closing");
    match decode_frame(&body).expect("server frames always decode") {
        (id, Message::Response(resp)) => (id, resp),
        (_, other) => panic!("server sent a non-response: {other:?}"),
    }
}

#[test]
fn malicious_length_header_is_refused_before_allocation() {
    let fx = fixture(200, 8, 1, 16);
    let server = start_server(&fx.engine, ServerConfig::default());
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");

    // Claim a 4 GiB frame. A server that trusts the prefix would try to
    // allocate it; ours must answer with a typed protocol error at once
    // — long before 4 GiB could possibly have been transferred.
    raw.write_all(&u32::MAX.to_le_bytes())
        .expect("write prefix");
    raw.flush().unwrap();
    let t0 = Instant::now();
    let (id, resp) = read_response_frame(&mut raw);
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "refusal must be immediate, not transfer-paced"
    );
    assert_eq!(id, 0, "connection-level error carries request id 0");
    match resp {
        Response::Error(NetError::Protocol { reason }) => {
            assert!(reason.contains("exceeds"), "reason: {reason}")
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    // Framing is unrecoverable after a lying prefix: the connection must
    // be closed, not left half-synchronised.
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).expect("clean close");
    assert!(rest.is_empty());
    server.shutdown();
}

#[test]
fn corrupted_frame_gets_typed_error_and_connection_survives() {
    let fx = fixture(200, 8, 1, 16);
    let server = start_server(&fx.engine, ServerConfig::default());
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");

    // A frame with authentic length but a flipped payload byte: the
    // length prefix keeps framing intact, so the server answers a typed
    // checksum error and the connection keeps working.
    let mut body = encode_request(9, &Request::Ping { token: 3 });
    let mid = body.len() / 2;
    body[mid] ^= 0x01;
    write_len_frame(&mut raw, &body, DEFAULT_MAX_FRAME).expect("send corrupted frame");
    let (_, resp) = read_response_frame(&mut raw);
    assert!(
        matches!(resp, Response::Error(NetError::Protocol { .. })),
        "got {resp:?}"
    );

    // Same socket, valid frame: still served.
    let body = encode_request(10, &Request::Ping { token: 77 });
    write_len_frame(&mut raw, &body, DEFAULT_MAX_FRAME).expect("send valid frame");
    let (id, resp) = read_response_frame(&mut raw);
    assert_eq!(id, 10);
    match resp {
        Response::Pong { token } => assert_eq!(token, 77),
        other => panic!("expected Pong, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn oversized_but_honest_frame_is_bounded_by_server_config() {
    let fx = fixture(200, 8, 1, 16);
    let server = start_server(
        &fx.engine,
        ServerConfig {
            max_frame: 256,
            ..Default::default()
        },
    );
    // The client obeys its own cap when *reading*; writing a 3 KiB query
    // is legal client-side but must be refused server-side.
    let mut client =
        DbLshClient::connect_with(&server.local_addr().to_string(), ClientConfig::default())
            .expect("connect");
    let big_query = vec![1.0f32; 700];
    match client.knn(&big_query, 5) {
        Err(NetError::Protocol { reason }) => assert!(reason.contains("exceeds"), "{reason}"),
        other => panic!("expected a protocol refusal, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn client_reconnects_after_server_restart() {
    let fx = fixture(200, 8, 1, 16);
    let server = start_server(&fx.engine, ServerConfig::default());
    let addr = server.local_addr().to_string();
    let mut client = DbLshClient::connect(&addr).expect("connect");
    assert_eq!(client.ping(1).expect("first ping"), 1);

    server.shutdown();
    // The engine outlives the server: restart on the same port.
    let server = DbLshServer::bind(&addr, Arc::clone(&fx.engine), ServerConfig::default())
        .expect("rebind same port");
    // First call after the drop may fail (stale socket); the one after
    // must transparently reconnect.
    let token = match client.ping(2) {
        Ok(t) => t,
        Err(_) => client.ping(2).expect("reconnect"),
    };
    assert_eq!(token, 2);
    server.shutdown();
}

#[test]
fn idle_connections_are_closed_by_the_deadline() {
    let fx = fixture(200, 8, 1, 16);
    let server = start_server(
        &fx.engine,
        ServerConfig {
            idle_timeout: Some(Duration::from_millis(200)),
            ..Default::default()
        },
    );
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = [0u8; 1];
    let t0 = Instant::now();
    // The server closes an idle connection; our blocking read observes
    // EOF well before the 10 s socket timeout.
    let n = raw.read(&mut buf).expect("EOF, not a socket error");
    assert_eq!(n, 0, "expected a clean close");
    assert!(t0.elapsed() >= Duration::from_millis(150));
    assert!(t0.elapsed() < Duration::from_secs(8));
    server.shutdown();
}

#[test]
fn connection_limit_refuses_with_typed_busy() {
    let fx = fixture(200, 8, 1, 16);
    let server = start_server(
        &fx.engine,
        ServerConfig {
            max_connections: 1,
            ..Default::default()
        },
    );
    let addr = server.local_addr().to_string();
    let mut first = DbLshClient::connect(&addr).expect("first connection");
    assert_eq!(first.ping(1).expect("first connection works"), 1);

    // The second connection is accepted at the TCP level, then refused
    // with a typed error frame (request id 0) and closed.
    let mut raw = TcpStream::connect(&addr).expect("tcp connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let (id, resp) = read_response_frame(&mut raw);
    assert_eq!(id, 0);
    assert!(
        matches!(resp, Response::Error(NetError::Remote(DbLshError::Busy))),
        "got {resp:?}"
    );
    assert_eq!(server.stats().refused, 1);

    // Closing the first connection frees the slot.
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(mut c) = DbLshClient::connect(&addr) {
            if c.ping(5).is_ok() {
                break;
            }
        }
        assert!(Instant::now() < deadline, "slot never freed");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

#[test]
fn refusal_arrives_typed_whenever_the_request_is_sent() {
    // A refused client sends its first request without reading first.
    // Sent at once, the request is already in the server's receive
    // buffer when the acceptor (which polls every few milliseconds)
    // refuses the connection; sent a little later, it reaches a server
    // that has already answered. Either way the refusal must arrive as
    // the typed Busy frame — never as a reset or EOF racing the close.
    let fx = fixture(200, 8, 1, 16);
    let server = start_server(
        &fx.engine,
        ServerConfig {
            max_connections: 1,
            ..Default::default()
        },
    );
    let addr = server.local_addr().to_string();
    let mut holder = DbLshClient::connect(&addr).expect("first connection");
    assert_eq!(holder.ping(0).expect("holds the only slot"), 0);
    const CONNECTS: u64 = 200;
    for i in 1..=CONNECTS {
        let mut refused = DbLshClient::connect(&addr).expect("tcp-level connect succeeds");
        if i % 2 == 0 {
            std::thread::sleep(Duration::from_millis(10));
        }
        // `ping` writes the request, then reads.
        match refused.ping(i) {
            Err(NetError::Remote(DbLshError::Busy)) => {}
            other => panic!("over-limit connect {i}: expected typed Busy, got {other:?}"),
        }
    }
    assert_eq!(server.stats().refused, CONNECTS);
    assert_eq!(holder.ping(7).expect("the held connection is untouched"), 7);
    server.shutdown();
}

#[test]
fn retry_policy_rides_out_a_busy_refusal() {
    let fx = fixture(200, 8, 1, 16);
    let server = start_server(
        &fx.engine,
        ServerConfig {
            max_connections: 1,
            ..Default::default()
        },
    );
    let addr = server.local_addr().to_string();
    let first = DbLshClient::connect(&addr).expect("first connection");

    // The slot frees shortly; a retrying client must absorb the typed
    // Busy refusals in between instead of surfacing them.
    let holder = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        drop(first);
    });
    let mut retrying = DbLshClient::connect_with(
        &addr,
        ClientConfig {
            retry: RetryPolicy {
                max_attempts: 60,
                base: Duration::from_millis(20),
                cap: Duration::from_millis(50),
                jitter_seed: 7,
            },
            ..Default::default()
        },
    )
    .expect("connect itself is not limited");
    assert_eq!(retrying.ping(9).expect("retries outlast the holder"), 9);
    holder.join().unwrap();

    // Refusals really happened: the retry loop did the riding out.
    assert!(server.stats().refused >= 1);
    server.shutdown();
}

#[test]
fn disabled_retry_surfaces_busy_immediately() {
    let fx = fixture(200, 8, 1, 16);
    let server = start_server(
        &fx.engine,
        ServerConfig {
            max_connections: 1,
            ..Default::default()
        },
    );
    let addr = server.local_addr().to_string();
    let _first = DbLshClient::connect(&addr).expect("first connection");
    // Default policy: one attempt — the refusal is the caller's to see.
    let mut second = DbLshClient::connect(&addr).expect("tcp-level connect succeeds");
    assert!(matches!(
        second.ping(1),
        Err(NetError::Remote(DbLshError::Busy))
    ));
    server.shutdown();
}
