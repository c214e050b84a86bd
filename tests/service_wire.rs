//! End-to-end wire-protocol test: spawn a real TCP server on an ephemeral
//! port, then drive `LOAD` / `QUERY` (cold and warm) / `EXPLAIN` / `STATS` /
//! error paths / `SHUTDOWN` over an actual socket.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use pq_service::{
    read_response, roundtrip, serve, serve_with_data_dir, serve_with_options, QueryService,
    ServerOptions, ServiceConfig,
};

const DB_TEXT: &str = "R(a, b):\n  1, 2\n  2, 3\nS(b, c):\n  2, 9\n  3, 7\n";

/// Create a data directory under the OS temp dir (unique per test to
/// survive parallel runs) holding `base.db`; wire `LOAD` is confined to it.
fn temp_data_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pq_service_wire_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("base.db"), DB_TEXT).unwrap();
    dir
}

#[test]
fn full_protocol_session_over_tcp() {
    let svc = Arc::new(QueryService::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    }));
    let data_dir = temp_data_dir("session");
    let handle = serve_with_data_dir("127.0.0.1:0", svc, &data_dir).expect("bind ephemeral port");
    let addr = handle.local_addr();

    let mut conn = TcpStream::connect(addr).unwrap();

    // LOAD (relative to the server's data dir)
    let resp = roundtrip(&mut conn, "LOAD d base.db").unwrap();
    assert_eq!(resp.len(), 1);
    assert!(
        resp[0].starts_with("OK loaded d relations=2 tuples=4"),
        "{resp:?}"
    );

    // A malformed query (missing `)`) comes back as a parse error.
    let resp = roundtrip(&mut conn, "QUERY d G(x, z) :- R(x, y), S(y, z.").unwrap();
    assert!(resp[0].starts_with("ERR parse "), "{resp:?}");

    // QUERY, cold: header + 2 sorted rows.
    let resp = roundtrip(&mut conn, "QUERY d G(x, z) :- R(x, y), S(y, z).").unwrap();
    assert!(resp[0].starts_with("OK 2 x,z # engine="), "{resp:?}");
    assert!(resp[0].contains("cache=cold"), "{resp:?}");
    assert_eq!(resp[1..], ["1, 9".to_string(), "2, 7".to_string()]);

    // Same query again: served from the result cache, same rows.
    let resp = roundtrip(&mut conn, "QUERY d G(x, z) :- R(x, y), S(y, z).").unwrap();
    assert!(resp[0].contains("cache=result-cache"), "{resp:?}");
    assert_eq!(resp[1..], ["1, 9".to_string(), "2, 7".to_string()]);

    // Per-request limits parse and flow through (generous, so it succeeds).
    let resp = roundtrip(
        &mut conn,
        "QUERY @deadline_ms=5000 @budget=1000000 d G(x) :- R(x, y).",
    )
    .unwrap();
    assert!(resp[0].starts_with("OK 2 x #"), "{resp:?}");

    // EXPLAIN: plan provenance without evaluation.
    let resp = roundtrip(&mut conn, "EXPLAIN d G(x, z) :- R(x, y), S(y, z).").unwrap();
    assert_eq!(resp[0], "OK explain");
    assert!(
        resp.iter().any(|l| l.starts_with("fingerprint ")),
        "{resp:?}"
    );
    assert!(resp.iter().any(|l| l.starts_with("engine ")), "{resp:?}");
    assert!(
        resp.iter().any(|l| l == "result_cached true"),
        "the warm answer above should be visible here: {resp:?}"
    );
    assert!(
        resp.iter().any(|l| l == "answer_source result-cache"),
        "{resp:?}"
    );

    // STATS: counters reflect the session so far.
    let resp = roundtrip(&mut conn, "STATS").unwrap();
    assert_eq!(resp[0], "OK stats");
    let get = |key: &str| -> u64 {
        resp.iter()
            .find_map(|l| l.strip_prefix(&format!("{key} ")))
            .unwrap_or_else(|| panic!("missing {key} in {resp:?}"))
            .parse()
            .unwrap()
    };
    assert_eq!(get("queries_served"), 3);
    assert_eq!(get("result_hits"), 1);
    assert_eq!(get("loads"), 1);

    // ANALYZE: the static-analysis report over the wire. The third atom is
    // redundant (folds into the first), so the analyzer reports a smaller
    // core and a PQA301 diagnostic.
    let resp = roundtrip(
        &mut conn,
        "ANALYZE d G(x, z) :- R(x, y), S(y, z), R(x, y2).",
    )
    .unwrap();
    assert_eq!(resp[0], "OK analyze");
    assert!(resp.iter().any(|l| l == "cell acyclic-pure"), "{resp:?}");
    assert!(
        resp.iter()
            .any(|l| l.starts_with("params q=") && l.contains("v=3")),
        "{resp:?}"
    );
    assert!(resp.iter().any(|l| l.starts_with("minimized ")), "{resp:?}");
    assert!(
        resp.iter().any(|l| l.starts_with("diag PQA301")),
        "{resp:?}"
    );

    // ANALYZE on a whole Datalog program (the `?-` goal marker selects the
    // program path): rule 2 is dead, the report carries the PQA5xx family.
    let resp = roundtrip(
        &mut conn,
        "ANALYZE d T(x, y) :- R(x, y). T(x, z) :- R(x, y), T(y, z). U(x) :- R(x, y). ?- T",
    )
    .unwrap();
    assert_eq!(resp[0], "OK analyze-program");
    assert!(resp.iter().any(|l| l == "goal T"), "{resp:?}");
    assert!(resp.iter().any(|l| l == "rules live=2 total=3"), "{resp:?}");
    assert!(resp.iter().any(|l| l == "dead_rules 2"), "{resp:?}");
    assert!(resp.iter().any(|l| l == "recursion linear"), "{resp:?}");
    assert!(resp.iter().any(|l| l.starts_with("rewritten ")), "{resp:?}");
    assert!(
        resp.iter().any(|l| l.starts_with("diag PQA501")),
        "{resp:?}"
    );
    assert!(
        resp.iter().any(|l| l.starts_with("diag PQA510")),
        "{resp:?}"
    );

    // A provably-empty query is flagged by ANALYZE and short-circuited by
    // QUERY without touching the data.
    let resp = roundtrip(&mut conn, "ANALYZE d G(x) :- R(x, y), x != x.").unwrap();
    assert!(resp.iter().any(|l| l == "provably_empty true"), "{resp:?}");
    let resp = roundtrip(&mut conn, "QUERY d G(x) :- R(x, y), x != x.").unwrap();
    assert!(
        resp[0].starts_with("OK 0 x # engine=constant_(provably_empty)"),
        "{resp:?}"
    );

    // Error paths: unknown db, unknown verb, unreadable file, and LOAD
    // paths that try to leave the data dir (absolute or via `..`).
    let resp = roundtrip(&mut conn, "QUERY nope G(x) :- R(x, y).").unwrap();
    assert!(resp[0].starts_with("ERR unknown-db "), "{resp:?}");
    let resp = roundtrip(&mut conn, "FROBNICATE d").unwrap();
    assert!(resp[0].starts_with("ERR proto "), "{resp:?}");
    let resp = roundtrip(&mut conn, "LOAD x nonexistent.db").unwrap();
    assert!(resp[0].starts_with("ERR proto "), "{resp:?}");
    let resp = roundtrip(&mut conn, "LOAD x /etc/hostname").unwrap();
    assert!(resp[0].starts_with("ERR proto "), "{resp:?}");
    let resp = roundtrip(&mut conn, "LOAD x ../base.db").unwrap();
    assert!(resp[0].starts_with("ERR proto "), "{resp:?}");

    // A second concurrent connection sees the same catalog.
    let mut conn2 = TcpStream::connect(addr).unwrap();
    let resp = roundtrip(&mut conn2, "QUERY d G(x) :- R(x, y).").unwrap();
    assert!(resp[0].starts_with("OK 2 x #"), "{resp:?}");

    // SHUTDOWN stops the service and the accept loop.
    let resp = roundtrip(&mut conn, "SHUTDOWN").unwrap();
    assert_eq!(resp, ["OK bye".to_string()]);
    handle.wait(); // returns because the accept loop exited

    // New connections are refused or die immediately; either way no request
    // can succeed any more.
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut conn3) => {
            assert!(roundtrip(&mut conn3, "STATS").is_err());
        }
    }

    let _ = std::fs::remove_dir_all(data_dir);
}

#[test]
fn subscribe_session_streams_deltas_over_tcp() {
    use std::io::{BufReader, Write};

    use pq_service::read_response;

    let svc = Arc::new(QueryService::with_defaults());
    svc.load_str("d", DB_TEXT).unwrap();
    let handle = serve("127.0.0.1:0", svc).unwrap();
    let addr = handle.local_addr();

    // Connection 1 becomes the live view's delta stream.
    let mut sub_conn = TcpStream::connect(addr).unwrap();
    sub_conn
        .write_all(b"SUBSCRIBE d G(x, z) :- R(x, y), S(y, z).\n")
        .unwrap();
    sub_conn.flush().unwrap();
    let mut sub_reader = BufReader::new(sub_conn.try_clone().unwrap());
    let initial = read_response(&mut sub_reader).unwrap();
    assert!(initial[0].starts_with("OK subscribed "), "{initial:?}");
    assert_eq!(initial[1..], ["1, 9".to_string(), "2, 7".to_string()]);
    let id: u64 = initial[0]
        .split_whitespace()
        .nth(2)
        .unwrap()
        .parse()
        .unwrap();

    // Connection 2 mutates; only the genuinely new row applies, and the
    // response reports the maintenance pass.
    let mut ctl = TcpStream::connect(addr).unwrap();
    let resp = roundtrip(&mut ctl, "INSERT d R 9, 2; 1, 2").unwrap();
    assert!(resp[0].starts_with("OK inserted 1 R"), "{resp:?}");
    assert!(resp[0].contains("views=1 fallbacks=0"), "{resp:?}");

    // The subscriber receives exactly the answer delta...
    let frame = read_response(&mut sub_reader).unwrap();
    assert!(
        frame[0].starts_with(&format!("DELTA {id} +1 -0 epoch=")),
        "{frame:?}"
    );
    assert_eq!(frame[1..], ["+ 9, 9".to_string()]);

    // ...deletions flip the sign...
    let resp = roundtrip(&mut ctl, "DELETE d R 9, 2").unwrap();
    assert!(resp[0].starts_with("OK deleted 1 R"), "{resp:?}");
    let frame = read_response(&mut sub_reader).unwrap();
    assert!(
        frame[0].starts_with(&format!("DELTA {id} +0 -1 epoch=")),
        "{frame:?}"
    );
    assert_eq!(frame[1..], ["- 9, 9".to_string()]);

    // ...and a mutation that leaves the answer unchanged pushes nothing
    // (the next frame the subscriber sees is the unsubscribe confirmation).
    let resp = roundtrip(&mut ctl, "INSERT d S 50, 60").unwrap();
    assert!(resp[0].starts_with("OK inserted 1 S"), "{resp:?}");

    // Any client input ends the subscription.
    sub_conn.write_all(b"\n").unwrap();
    sub_conn.flush().unwrap();
    let last = read_response(&mut sub_reader).unwrap();
    assert_eq!(last, [format!("OK unsubscribed {id}")]);
    assert!(
        read_response(&mut sub_reader).is_err(),
        "the dedicated connection closes after unsubscribing"
    );

    // The gauges drained; the push counter kept its total.
    let stats = roundtrip(&mut ctl, "STATS").unwrap();
    assert!(stats.iter().any(|l| l == "views_registered 0"), "{stats:?}");
    assert!(
        stats.iter().any(|l| l == "subscriptions_active 0"),
        "{stats:?}"
    );
    assert!(stats.iter().any(|l| l == "deltas_pushed 2"), "{stats:?}");

    handle.stop();
}

#[test]
fn server_handle_stop_without_wire_shutdown() {
    let data_dir = temp_data_dir("stop");
    let handle = serve_with_data_dir(
        "127.0.0.1:0",
        Arc::new(QueryService::with_defaults()),
        &data_dir,
    )
    .unwrap();
    let addr = handle.local_addr();

    let mut conn = TcpStream::connect(addr).unwrap();
    let resp = roundtrip(&mut conn, "LOAD d base.db").unwrap();
    assert!(resp[0].starts_with("OK loaded"), "{resp:?}");

    handle.stop(); // joins the accept loop

    // The still-open connection now gets structured shutdown errors.
    let resp = roundtrip(&mut conn, "QUERY d G(x) :- R(x, y).").unwrap();
    assert!(resp[0].starts_with("ERR shutting-down "), "{resp:?}");

    let _ = std::fs::remove_dir_all(data_dir);
}

#[test]
fn plain_serve_disables_wire_load() {
    // Without a configured data dir the filesystem-touching verb is off,
    // even for paths that would otherwise be well-formed; everything else
    // still works against databases loaded in-process.
    let svc = Arc::new(QueryService::with_defaults());
    svc.load_str("d", DB_TEXT).unwrap();
    let handle = serve("127.0.0.1:0", svc).unwrap();
    let addr = handle.local_addr();

    let mut conn = TcpStream::connect(addr).unwrap();
    let resp = roundtrip(&mut conn, "LOAD x base.db").unwrap();
    assert!(
        resp[0].starts_with("ERR proto ") && resp[0].contains("LOAD is disabled"),
        "{resp:?}"
    );
    let resp = roundtrip(&mut conn, "QUERY d G(x) :- R(x, y).").unwrap();
    assert!(resp[0].starts_with("OK 2 x #"), "{resp:?}");

    handle.stop();
}

/// The request line is bounded: a client that never sends a newline gets
/// one `ERR proto` line naming the limit and EOF — not a server buffer that
/// grows with whatever it sends — and the server keeps serving others.
#[test]
fn an_overlong_request_line_is_refused_and_its_connection_closed() {
    // The short read timeout makes a server that waits for the newline fail
    // this test with `request-timeout` instead of hanging it.
    let options = ServerOptions {
        read_timeout: Some(Duration::from_secs(2)),
        ..ServerOptions::default()
    };
    let svc = Arc::new(QueryService::with_defaults());
    let handle = serve_with_options("127.0.0.1:0", svc, options).unwrap();
    let addr = handle.local_addr();

    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(&vec![b'a'; (1 << 20) + 1]).unwrap();
    let mut reader = BufReader::new(conn);
    let resp = read_response(&mut reader).unwrap();
    assert_eq!(resp.len(), 1, "{resp:?}");
    assert!(
        resp[0].starts_with("ERR proto ") && resp[0].contains("1048576 bytes"),
        "{resp:?}"
    );
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "expected EOF");

    let mut fresh = TcpStream::connect(addr).unwrap();
    let resp = roundtrip(&mut fresh, "STATS").unwrap();
    assert_eq!(resp[0], "OK stats");

    handle.stop();
}

// ---- result-cache lifecycle, as a client sees it ----

const JOIN: &str = "G(x, z) :- R(x, y), S(y, z).";

/// Send `request`, require `cache=<level>` in the header, return the body.
fn body_at(conn: &mut TcpStream, request: &str, level: &str) -> Vec<String> {
    let resp = roundtrip(conn, request).unwrap();
    assert!(
        resp[0].starts_with("OK ") && resp[0].contains(&format!(" cache={level} ")),
        "{request}: expected cache={level}, got {resp:?}"
    );
    resp[1..].to_vec()
}

/// Open a connection and dedicate it to a subscription on `src`; dropping
/// the returned stream ends the subscription.
fn subscribe(addr: std::net::SocketAddr, src: &str) -> TcpStream {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(format!("SUBSCRIBE d {src}\n").as_bytes())
        .unwrap();
    let initial = read_response(&mut BufReader::new(conn.try_clone().unwrap())).unwrap();
    assert!(initial[0].starts_with("OK subscribed "), "{initial:?}");
    conn
}

/// A patched entry never serves the body encoded for its predecessor, and
/// the cache holds one entry per query and database however many epochs
/// pass: every answer after a mutation is the one a fresh service computes
/// from the final state.
#[test]
fn a_patched_entry_replaces_its_predecessor_and_its_encoded_body() {
    let svc = Arc::new(QueryService::with_defaults());
    svc.load_str("d", DB_TEXT).unwrap();
    let handle = serve("127.0.0.1:0", svc).unwrap();
    let _view = subscribe(handle.local_addr(), JOIN);
    let mut conn = TcpStream::connect(handle.local_addr()).unwrap();

    let requests = [format!("QUERY d {JOIN}"), format!("QUERY @count d {JOIN}")];
    for k in 0..6 {
        let resp = roundtrip(&mut conn, &format!("INSERT d R {}, 2", 100 + k)).unwrap();
        assert!(resp[0].starts_with("OK inserted 1 R"), "{resp:?}");

        let inserted: String = (0..=k).map(|i| format!("  {}, 2\n", 100 + i)).collect();
        let state = DB_TEXT.replace("S(b, c):", &format!("{inserted}S(b, c):"));
        let fresh = Arc::new(QueryService::with_defaults());
        fresh.load_str("d", &state).unwrap();
        let oracle = serve("127.0.0.1:0", fresh).unwrap();
        let mut oracle_conn = TcpStream::connect(oracle.local_addr()).unwrap();
        for request in &requests {
            let expected = body_at(&mut oracle_conn, request, "cold");
            // The first hit encodes the patched answer, the second reuses it.
            assert_eq!(body_at(&mut conn, request, "result-cache"), expected);
            assert_eq!(body_at(&mut conn, request, "result-cache"), expected);
        }
        oracle.stop();
        assert_eq!(
            handle.service().cache_sizes().1,
            requests.len(),
            "one entry per (text, database), after {} epochs",
            k + 1
        );
    }
    handle.stop();
}

/// cold ≡ plan-warm ≡ result-warm ≡ view-answered, byte for byte, for an
/// answer and for a count.
#[test]
fn every_cache_level_and_the_view_serve_the_same_bytes() {
    let svc = Arc::new(QueryService::with_defaults());
    svc.load_str("d", DB_TEXT).unwrap();
    let handle = serve("127.0.0.1:0", svc).unwrap();
    let mut conn = TcpStream::connect(handle.local_addr()).unwrap();
    // Moves the epochs of a relation both queries read and puts its content
    // back: the cached entries stop matching, the answers stay.
    let invalidate = |conn: &mut TcpStream| {
        for verb in ["INSERT", "DELETE"] {
            let resp = roundtrip(conn, &format!("{verb} d R 77, 2")).unwrap();
            assert!(resp[0].starts_with("OK "), "{resp:?}");
        }
    };

    let projected = "QUERY d G(x) :- R(x, y), S(y, z).".to_string();
    let counted = format!("QUERY @count d {JOIN}");
    let mut bodies = Vec::new();
    for request in [&projected, &counted] {
        let cold = body_at(&mut conn, request, "cold");
        assert_eq!(body_at(&mut conn, request, "result-cache"), cold);
        assert_eq!(body_at(&mut conn, request, "result-cache"), cold);
        invalidate(&mut conn);
        assert_eq!(body_at(&mut conn, request, "plan-cache"), cold);
        bodies.push(cold);
    }
    assert_eq!(bodies[0], ["1", "2"]);
    assert_eq!(bodies[1], ["2"]);

    // With a view on the join registered, the projection is answered by
    // scanning the view, and the count from the view's cardinality.
    let _view = subscribe(handle.local_addr(), JOIN);
    assert_eq!(body_at(&mut conn, &counted, "result-cache"), bodies[1]);
    invalidate(&mut conn);
    let resp = roundtrip(&mut conn, &projected).unwrap();
    assert!(resp[0].contains(" engine=view-scan "), "{resp:?}");
    assert_eq!(resp[1..], bodies[0]);
    assert_eq!(body_at(&mut conn, &projected, "result-cache"), bodies[0]);
    assert_eq!(body_at(&mut conn, &counted, "result-cache"), bodies[1]);
    handle.stop();
}

/// Loading over an existing name starts a fresh generation: the next answer
/// replaces the old generation's entry instead of settling beside it.
#[test]
fn a_reload_replaces_the_old_generations_entry() {
    let data_dir = temp_data_dir("reload");
    let svc = Arc::new(QueryService::with_defaults());
    let handle = serve_with_data_dir("127.0.0.1:0", svc, &data_dir).unwrap();
    let mut conn = TcpStream::connect(handle.local_addr()).unwrap();
    let request = format!("QUERY d {JOIN}");

    roundtrip(&mut conn, "LOAD d base.db").unwrap();
    assert_eq!(body_at(&mut conn, &request, "cold"), ["1, 9", "2, 7"]);
    assert_eq!(handle.service().cache_sizes().1, 1);

    std::fs::write(data_dir.join("base.db"), DB_TEXT.replace("2, 9", "2, 8")).unwrap();
    roundtrip(&mut conn, "LOAD d base.db").unwrap();
    assert_eq!(body_at(&mut conn, &request, "plan-cache"), ["1, 8", "2, 7"]);
    assert_eq!(
        body_at(&mut conn, &request, "result-cache"),
        ["1, 8", "2, 7"]
    );
    assert_eq!(handle.service().cache_sizes().1, 1);

    handle.stop();
    let _ = std::fs::remove_dir_all(data_dir);
}
