//! Wire-level HTTP/1.1 tests against the event-driven data plane: raw
//! `TcpStream` clients exercising the real incremental parser through a
//! real `Server` — pipelining, arbitrary packet splits mid-header and
//! mid-body, oversized headers, keep-alive reuse after a 4xx, graceful
//! drain under keep-alive, and the concurrent keep-alive soak the old
//! thread-per-connection core could not survive.

use chemcost_linalg::Matrix;
use chemcost_ml::gradient_boosting::GradientBoosting;
use chemcost_ml::Regressor;
use chemcost_serve::{ModelRegistry, Router, Server};
use chemcost_sim::datagen::generate_dataset_sized;
use chemcost_sim::machine::by_name;
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Train a small-but-real GB model on simulated aurora data.
fn tiny_model() -> GradientBoosting {
    let machine = by_name("aurora").unwrap();
    let samples = generate_dataset_sized(&machine, 80, 23);
    let x = Matrix::from_fn(samples.len(), 4, |i, j| match j {
        0 => samples[i].o as f64,
        1 => samples[i].v as f64,
        2 => samples[i].nodes as f64,
        _ => samples[i].tile as f64,
    });
    let y: Vec<f64> = samples.iter().map(|s| s.seconds).collect();
    let mut gb = GradientBoosting::new(15, 3, 0.2);
    gb.seed = 7;
    gb.fit(&x, &y).unwrap();
    gb
}

fn new_server(workers: usize) -> Server {
    let registry = Arc::new(ModelRegistry::new());
    registry.insert("gb-aurora", "aurora", tiny_model());
    registry.set_default("aurora", "gb-aurora").unwrap();
    Server::bind("127.0.0.1:0", Router::new(registry), workers).expect("bind ephemeral")
}

/// One long-lived server shared by every test that never shuts it down;
/// the thread leaks deliberately (the process exit reaps it).
fn shared_addr() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let server = new_server(2);
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());
        addr
    })
}

const PREDICT_BODY: &str = r#"{"rows": [{"o": 100, "v": 800, "nodes": 32, "tile": 24}]}"#;

fn http(method: &str, path: &str, body: &str, close: bool) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: wire\r\nContent-Length: {}{}\r\n\r\n{body}",
        body.len(),
        if close { "\r\nConnection: close" } else { "" },
    )
    .into_bytes()
}

struct Resp {
    status: u16,
    connection: String,
    /// Status line and headers, through the blank line.
    head: String,
    body: String,
}

/// Read exactly one response off `stream`, carrying pipelined leftovers
/// between calls in `carry`. Panics on malformed framing — every server
/// response carries a Content-Length.
fn read_response(stream: &mut TcpStream, carry: &mut Vec<u8>) -> Resp {
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "EOF before response head; got {:?}", String::from_utf8_lossy(carry));
        carry.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(carry[..head_end].to_vec()).expect("UTF-8 head");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {head:?}"));
    let mut connection = String::new();
    let mut content_length = 0usize;
    for line in head.lines().skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            match name.trim().to_ascii_lowercase().as_str() {
                "connection" => connection = value.trim().to_string(),
                "content-length" => content_length = value.trim().parse().expect("length"),
                _ => {}
            }
        }
    }
    while carry.len() < head_end + content_length {
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "EOF mid-body");
        carry.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8_lossy(&carry[head_end..head_end + content_length]).into_owned();
    carry.drain(..head_end + content_length);
    Resp { status, connection, head, body }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.set_nodelay(true).ok();
    stream
}

// -- pipelining ---------------------------------------------------------

#[test]
fn pipelined_requests_are_answered_in_order() {
    let mut stream = connect(shared_addr());
    // Three requests in a single write: the responses must come back in
    // request order even though the handlers run on different workers.
    let mut burst = http("GET", "/healthz", "", false);
    burst.extend(http("POST", "/v1/predict", PREDICT_BODY, false));
    burst.extend(http("GET", "/v1/models", "", false));
    stream.write_all(&burst).unwrap();

    let mut carry = Vec::new();
    let first = read_response(&mut stream, &mut carry);
    let second = read_response(&mut stream, &mut carry);
    let third = read_response(&mut stream, &mut carry);
    assert_eq!(first.status, 200, "{}", first.body);
    assert!(first.body.contains("\"ok\""), "healthz first: {}", first.body);
    assert_eq!(second.status, 200, "{}", second.body);
    assert!(second.body.contains("predictions"), "predict second: {}", second.body);
    assert_eq!(third.status, 200, "{}", third.body);
    assert!(third.body.contains("models"), "models third: {}", third.body);
    for resp in [&first, &second, &third] {
        assert_eq!(resp.connection, "keep-alive");
    }
}

#[test]
fn request_split_mid_header_and_mid_body_still_parses() {
    let mut stream = connect(shared_addr());
    let raw = http("POST", "/v1/predict", PREDICT_BODY, true);
    // Cut inside the request line, inside a header, at the head/body
    // boundary, and inside the JSON body.
    let head_len = raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
    let cuts = [4, 20, head_len, head_len + PREDICT_BODY.len() / 2, raw.len()];
    let mut start = 0;
    for cut in cuts {
        stream.write_all(&raw[start..cut]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(2));
        start = cut;
    }
    let resp = read_response(&mut stream, &mut Vec::new());
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("predictions"), "{}", resp.body);
}

// -- advise cache hits on the event loop --------------------------------

/// One sample value off a `/metrics` scrape.
fn metric(addr: SocketAddr, series: &str) -> f64 {
    let mut stream = connect(addr);
    stream.write_all(&http("GET", "/metrics", "", true)).unwrap();
    let text = read_response(&mut stream, &mut Vec::new()).body;
    text.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("{series} missing from /metrics"))
}

/// A response head without the per-round-trip id headers.
fn without_ids(head: &str) -> String {
    head.split("\r\n")
        .filter(|l| !l.starts_with("X-Request-Id:") && !l.starts_with("X-Prediction-Id:"))
        .collect::<Vec<_>>()
        .join("\r\n")
}

/// One connection pipelines a miss, a hit, a hit, a miss, and the cached
/// question sent with an escape. The loop answers the three hits itself;
/// the misses ride workers. The answers still come
/// back in request order, byte-identical apart from the id headers to
/// the same questions asked one at a time, and each advise counts
/// exactly one cache hit or miss.
#[test]
fn pipelined_hits_and_misses_answer_in_order_as_if_asked_alone() {
    let server = new_server(2);
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());
    let cached = r#"{"o":116,"v":840,"goal":"stq"}"#;
    let batch = [
        r#"{"o":101,"v":801,"goal":"bq"}"#,
        cached,
        cached,
        r#"{"o":102,"v":802,"goal":"pareto"}"#,
        // The cached question again, spelled with an escape: the same
        // key, so the loop answers it too.
        r#"{"o":116,"v":840,"goal":"st\u0071"}"#,
    ];
    let mut stream = connect(addr);
    let mut carry = Vec::new();
    stream.write_all(&http("POST", "/v1/advise", cached, false)).unwrap();
    assert_eq!(read_response(&mut stream, &mut carry).status, 200);
    let hits = || metric(addr, "chemcost_advise_cache_hits_total");
    let misses = || metric(addr, "chemcost_advise_cache_misses_total");
    let (hits_before, misses_before) = (hits(), misses());

    let burst: Vec<u8> = batch.iter().flat_map(|b| http("POST", "/v1/advise", b, false)).collect();
    stream.write_all(&burst).unwrap();
    let pipelined: Vec<Resp> =
        batch.iter().map(|_| read_response(&mut stream, &mut carry)).collect();
    assert_eq!(hits() - hits_before, 3.0);
    assert_eq!(misses() - misses_before, 2.0);
    let advised = metric(addr, "chemcost_requests_total{route=\"advise\"}");
    assert_eq!(advised, 1.0 + batch.len() as f64);

    for (body, got) in batch.iter().zip(&pipelined) {
        let mut alone = connect(addr);
        alone.write_all(&http("POST", "/v1/advise", body, false)).unwrap();
        let want = read_response(&mut alone, &mut Vec::new());
        assert_eq!(got.status, 200, "{}", got.body);
        assert_eq!(without_ids(&got.head), without_ids(&want.head), "{body}");
        assert_eq!(got.body, want.body, "{body}");
        assert!(got.head.contains("X-Prediction-Id: "), "{}", got.head);
    }

    let mut stream = connect(addr);
    stream.write_all(&http("POST", "/v1/shutdown", "", true)).unwrap();
    assert_eq!(read_response(&mut stream, &mut Vec::new()).status, 200);
    server_thread.join().unwrap().expect("clean shutdown");
}

/// A client writes 2,000 pipelined cached advises before reading
/// anything. The loop answers them itself, parks at the write
/// high-water mark while the client is not reading (the bound is
/// asserted by the `event_loop` unit test), and resumes as the client
/// drains: every answer arrives, in request order.
#[test]
fn two_thousand_pipelined_hits_written_before_any_read_all_answer_in_order() {
    const SENT: usize = 2000;
    let body = r#"{"o":117,"v":841,"goal":"bq"}"#;
    let mut stream = connect(shared_addr());
    let mut carry = Vec::new();
    stream.write_all(&http("POST", "/v1/advise", body, false)).unwrap();
    assert_eq!(read_response(&mut stream, &mut carry).status, 200);

    let burst: String = (0..SENT)
        .map(|i| {
            format!(
                "POST /v1/advise HTTP/1.1\r\nX-Request-Id: pipe-{i}\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
        })
        .collect();
    stream.set_write_timeout(Some(Duration::from_secs(20))).unwrap();
    stream.write_all(burst.as_bytes()).expect("write every request before reading");
    for i in 0..SENT {
        let resp = read_response(&mut stream, &mut carry);
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.head.contains(&format!("X-Request-Id: pipe-{i}\r\n")), "{}", resp.head);
    }
}

/// A client pipelines more cached advises than the write high-water
/// mark holds answers for, then half-closes its sending side before
/// reading. The connection stays open until the loop has answered every
/// request left in its read buffer, then closes: all 2,000 answers
/// arrive, in order, followed by end-of-stream.
#[test]
fn hits_pipelined_past_the_mark_are_all_answered_after_a_half_close() {
    const SENT: usize = 2000;
    let body = r#"{"o":118,"v":842,"goal":"pareto"}"#;
    let mut stream = connect(shared_addr());
    let mut carry = Vec::new();
    stream.write_all(&http("POST", "/v1/advise", body, false)).unwrap();
    let first = read_response(&mut stream, &mut carry);
    assert_eq!(first.status, 200);
    assert!(
        SENT * (first.head.len() + first.body.len()) > 2 * 256 * 1024,
        "the answers must overrun the write high-water mark"
    );

    let burst: String = (0..SENT)
        .map(|i| {
            format!(
                "POST /v1/advise HTTP/1.1\r\nX-Request-Id: half-{i}\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
        })
        .collect();
    stream.set_write_timeout(Some(Duration::from_secs(20))).unwrap();
    stream.write_all(burst.as_bytes()).expect("write every request before reading");
    stream.shutdown(Shutdown::Write).unwrap();
    for i in 0..SENT {
        let resp = read_response(&mut stream, &mut carry);
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.head.contains(&format!("X-Request-Id: half-{i}\r\n")), "{}", resp.head);
    }
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(carry.is_empty() && rest.is_empty(), "nothing after the last answer");
}

// -- parser limits and malformed input ----------------------------------

#[test]
fn oversized_header_line_is_rejected_with_431_and_close() {
    let mut stream = connect(shared_addr());
    // A single 9 KiB header line crosses MAX_LINE (8 KiB) mid-stream;
    // the parser must reject it without waiting for the line to end.
    let raw = format!("GET /healthz HTTP/1.1\r\nX-Padding: {}\r\n\r\n", "a".repeat(9 * 1024));
    stream.write_all(raw.as_bytes()).unwrap();
    let resp = read_response(&mut stream, &mut Vec::new());
    assert_eq!(resp.status, 431, "{}", resp.body);
    assert_eq!(resp.connection, "close");
    // And the server hangs up: the next read is a clean EOF.
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);
}

#[test]
fn keep_alive_survives_a_4xx_response() {
    let mut stream = connect(shared_addr());
    let mut carry = Vec::new();
    // Malformed JSON is the application's problem, not the connection's:
    // the 400 must keep the connection open for the next request.
    stream.write_all(&http("POST", "/v1/advise", "{not json", false)).unwrap();
    let bad = read_response(&mut stream, &mut carry);
    assert_eq!(bad.status, 400, "{}", bad.body);
    assert_eq!(bad.connection, "keep-alive");

    stream.write_all(&http("GET", "/healthz", "", true)).unwrap();
    let ok = read_response(&mut stream, &mut carry);
    assert_eq!(ok.status, 200, "{}", ok.body);
    assert_eq!(ok.connection, "close");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// However the client fragments its writes — any number of splits at
    /// any byte offsets, including mid-header and mid-body — a pipelined
    /// two-request burst parses into exactly two 200s.
    #[test]
    fn any_write_fragmentation_yields_the_same_responses(
        splits in collection::vec(1usize..220, 0..6),
    ) {
        let mut raw = http("POST", "/v1/predict", PREDICT_BODY, false);
        raw.extend(http("GET", "/healthz", "", true));
        let mut cuts: Vec<usize> = splits.iter().map(|s| s % raw.len()).collect();
        cuts.push(raw.len());
        cuts.sort_unstable();
        cuts.dedup();

        let mut stream = connect(shared_addr());
        let mut start = 0;
        for cut in cuts {
            if cut == 0 {
                continue;
            }
            stream.write_all(&raw[start..cut]).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
            start = cut;
        }
        let mut carry = Vec::new();
        let predict = read_response(&mut stream, &mut carry);
        let health = read_response(&mut stream, &mut carry);
        prop_assert_eq!(predict.status, 200);
        prop_assert!(predict.body.contains("predictions"), "{}", predict.body);
        prop_assert_eq!(health.status, 200);
        prop_assert_eq!(health.connection, "close");
    }

    /// Garbage in place of a request line gets a clean 400 and a close,
    /// never a hang or a crash.
    #[test]
    fn garbage_request_lines_get_a_400_and_a_close(seed in 0u64..u64::MAX, len in 1usize..12) {
        // A single whitespace-free token: the parser rejects it for the
        // missing request target, deterministically a 400.
        let noise: String =
            (0..len).map(|i| (b'a' + ((seed >> (i * 5)) % 26) as u8) as char).collect();
        let mut stream = connect(shared_addr());
        stream.write_all(format!("{noise}\r\n\r\n").as_bytes()).unwrap();
        let resp = read_response(&mut stream, &mut Vec::new());
        prop_assert_eq!(resp.status, 400);
        prop_assert_eq!(resp.connection.as_str(), "close");
        let mut rest = Vec::new();
        prop_assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);
    }
}

// -- graceful drain under keep-alive ------------------------------------

#[test]
fn shutdown_under_keepalive_forces_close_and_stops_accepting() {
    let server = new_server(2);
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());

    // A persistent connection, established and idle when drain begins.
    let mut idle = connect(addr);
    let mut idle_carry = Vec::new();
    idle.write_all(&http("GET", "/healthz", "", false)).unwrap();
    let warm = read_response(&mut idle, &mut idle_carry);
    assert_eq!(warm.status, 200);
    assert_eq!(warm.connection, "keep-alive");

    // The shutdown request itself rides a keep-alive connection — the
    // drain must override the client's wish and answer with a close.
    let mut trigger = connect(addr);
    trigger.write_all(&http("POST", "/v1/shutdown", "", false)).unwrap();
    let bye = read_response(&mut trigger, &mut Vec::new());
    assert_eq!(bye.status, 200, "{}", bye.body);
    assert_eq!(bye.connection, "close", "drain must force Connection: close");
    let mut rest = Vec::new();
    assert_eq!(trigger.read_to_end(&mut rest).unwrap(), 0, "server must hang up after drain");

    // The idle persistent connection is closed too, not left dangling.
    assert_eq!(idle.read(&mut [0u8; 64]).unwrap_or(0), 0, "idle keep-alive conn must be closed");

    // And the listener is gone: new connects are refused (allow a short
    // grace for the kernel backlog to empty).
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match TcpStream::connect(addr) {
            Err(_) => break,
            Ok(mut s) => {
                // A backlog leftover: completed by the kernel before the
                // listener closed; the server never accepts it, so any
                // read ends in EOF or a reset. Either way, retry.
                s.set_read_timeout(Some(Duration::from_millis(200))).ok();
                let _ = s.read(&mut [0u8; 16]);
            }
        }
        assert!(Instant::now() < deadline, "listener still accepting after drain");
        std::thread::sleep(Duration::from_millis(50));
    }

    server_thread.join().unwrap().expect("server run() returns Ok after drain");
}

// -- concurrent keep-alive soak -----------------------------------------

/// The acceptance soak: the seed thread-per-connection core pinned one
/// worker for a connection's whole keep-alive lifetime, so at 2 workers
/// it topped out at ~10 concurrent persistent connections (2 active + 8
/// queue slots) before shedding at accept — no queue depth could fix
/// that, because idle connections held their slot. The event loop must
/// hold 100 concurrent keep-alive connections — 10× — at the same
/// worker count, answering every request 200 with zero 503s. The
/// compute queue is sized to absorb the barrier-synchronized burst of
/// 100 simultaneous one-row predicts; connections themselves no longer
/// consume compute slots.
#[test]
fn soak_100_keepalive_connections_on_two_workers_without_sheds() {
    const CONNS: usize = 100;
    const REQUESTS_PER_CONN: usize = 5;

    let server = new_server(2).with_queue_cap(2 * CONNS);
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());

    let barrier = Arc::new(Barrier::new(CONNS));
    let clients: Vec<_> = (0..CONNS)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || -> Result<(), String> {
                let mut stream = connect(addr);
                // Hold until every connection is open, so the server
                // really does carry all 100 at once.
                barrier.wait();
                let mut carry = Vec::new();
                for n in 0..REQUESTS_PER_CONN {
                    let last = n + 1 == REQUESTS_PER_CONN;
                    stream
                        .write_all(&http("POST", "/v1/predict", PREDICT_BODY, last))
                        .map_err(|e| format!("conn {i} write {n}: {e}"))?;
                    let resp = read_response(&mut stream, &mut carry);
                    if resp.status != 200 {
                        return Err(format!("conn {i} req {n}: {} {}", resp.status, resp.body));
                    }
                }
                Ok(())
            })
        })
        .collect();
    let failures: Vec<String> =
        clients.into_iter().filter_map(|c| c.join().expect("client thread").err()).collect();
    assert!(failures.is_empty(), "soak failures: {failures:?}");

    // The server's own accounting agrees: no sheds, and every connection
    // was reused REQUESTS_PER_CONN - 1 times.
    let mut stream = connect(addr);
    stream.write_all(&http("GET", "/metrics", "", true)).unwrap();
    let metrics = read_response(&mut stream, &mut Vec::new());
    assert_eq!(metrics.status, 200);
    let series = |name: &str| -> u64 {
        metrics
            .body
            .lines()
            .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("series {name} missing from /metrics"))
    };
    assert_eq!(series("chemcost_requests_shed_total"), 0, "soak must not shed");
    assert_eq!(
        series("chemcost_keepalive_reuses_total"),
        (CONNS * (REQUESTS_PER_CONN - 1)) as u64,
        "every connection must have been reused"
    );

    let mut trigger = connect(addr);
    trigger.write_all(&http("POST", "/v1/shutdown", "", true)).unwrap();
    let bye = read_response(&mut trigger, &mut Vec::new());
    assert_eq!(bye.status, 200);
    server_thread.join().unwrap().expect("clean shutdown after soak");
}

// -- concurrent predicts score on their own workers --------------------

/// Client `c`'s distinct predict body: `ROWS` rows, returned both as the
/// JSON body and as the feature matrix the reference scores.
fn predict_rows(c: usize, rows: usize) -> (String, Matrix) {
    let nodes = [4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
    let tiles = [24.0, 32.0, 40.0, 48.0, 56.0, 64.0];
    let x = Matrix::from_fn(rows, 4, |r, j| match j {
        0 => (40 + (c * rows + r) % 150) as f64,
        1 => (300 + 7 * r + 13 * c) as f64,
        2 => nodes[r % 6],
        _ => tiles[(r + c) % 6],
    });
    let body: Vec<String> = (0..rows)
        .map(|r| {
            let row = x.row(r);
            format!(r#"{{"o":{},"v":{},"nodes":{},"tile":{}}}"#, row[0], row[1], row[2], row[3])
        })
        .collect();
    (format!(r#"{{"rows":[{}]}}"#, body.join(",")), x)
}

/// Concurrent keep-alive predicts, each scored inline on the worker that
/// parsed it: eight barrier-released clients send distinct 64-row bodies,
/// and every answer equals `FlatGbt::predict_batch` on the same rows bit
/// for bit, whichever worker served it and whatever ran beside it.
#[test]
fn concurrent_predicts_match_predict_batch_bit_for_bit() {
    use chemcost_ml::flat::FlatGbt;
    use chemcost_serve::json::Json;
    const CLIENTS: usize = 8;
    const ROWS: usize = 64;
    const ROUNDS: usize = 3;

    let server = new_server(4);
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());
    let flat = Arc::new(FlatGbt::compile(&tiny_model()));

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let (barrier, flat) = (Arc::clone(&barrier), Arc::clone(&flat));
            std::thread::spawn(move || {
                let (body, x) = predict_rows(c, ROWS);
                let want = flat.predict_batch(&x);
                let mut stream = connect(addr);
                let mut carry = Vec::new();
                for round in 0..ROUNDS {
                    barrier.wait();
                    stream.write_all(&http("POST", "/v1/predict", &body, false)).unwrap();
                    let resp = read_response(&mut stream, &mut carry);
                    assert_eq!(resp.status, 200, "{}", resp.body);
                    assert_eq!(resp.connection, "keep-alive");
                    let doc = Json::parse(&resp.body).expect("predict JSON");
                    let got: Vec<u64> = doc
                        .get("predictions")
                        .and_then(Json::as_array)
                        .expect("predictions")
                        .iter()
                        .map(|p| p.get("seconds").and_then(Json::as_f64).unwrap().to_bits())
                        .collect();
                    let want: Vec<u64> = want.iter().map(|s| s.to_bits()).collect();
                    assert_eq!(got, want, "client {c} round {round}");
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    let mut trigger = connect(addr);
    trigger.write_all(&http("POST", "/v1/shutdown", "", true)).unwrap();
    let _ = read_response(&mut trigger, &mut Vec::new());
    server_thread.join().unwrap().expect("clean shutdown");
}

/// Distinct cold advises over the wire answer bit for bit what the
/// stepper's matrix sweep answers.
#[test]
fn cold_advises_match_the_stepper() {
    use chemcost_core::advisor::{Advisor, Goal, Recommendation};
    use chemcost_ml::flat::FlatGbt;
    use chemcost_serve::json::Json;
    const ADVISES: usize = 32;

    let server = new_server(4);
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());

    // The reference: the daemon's model, swept through the 8-lane
    // stepper on the written-out candidate matrix.
    let flat = FlatGbt::compile(&tiny_model());
    let advisor = Advisor::new(&flat, by_name("aurora").unwrap());
    let same = |got: &Json, want: &Recommendation| {
        let num = |k: &str| got.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        num("nodes") == want.nodes as f64
            && num("tile") == want.tile as f64
            && num("predicted_seconds").to_bits() == want.predicted_seconds.to_bits()
            && num("predicted_node_hours").to_bits() == want.predicted_node_hours.to_bits()
    };

    let mut stream = connect(addr);
    let mut carry = Vec::new();
    for k in 0..ADVISES {
        let (o, v, goal) = (40 + 9 * k, 250 + 41 * k, ["stq", "bq", "pareto"][k % 3]);
        let body = format!(r#"{{"o":{o},"v":{v},"goal":"{goal}"}}"#);
        stream.write_all(&http("POST", "/v1/advise", &body, false)).unwrap();
        let resp = read_response(&mut stream, &mut carry);
        assert_eq!(resp.status, 200, "{}", resp.body);
        let doc = Json::parse(&resp.body).expect("advise JSON");
        let sweep = advisor.sweep_with(o, v, |x| flat.predict_batch(&x));
        match goal {
            "pareto" => {
                let got = doc.get("frontier").and_then(Json::as_array).expect("frontier");
                let want = sweep.pareto_frontier();
                assert_eq!(got.len(), want.len(), "({o},{v}) frontier: {}", resp.body);
                for (g, w) in got.iter().zip(&want) {
                    assert!(same(g, w), "({o},{v}) frontier point {g:?} vs {w:?}");
                }
            }
            _ => {
                let g = if goal == "stq" { Goal::ShortestTime } else { Goal::Budget };
                let want = sweep.best(g).expect("feasible question");
                let got = doc.get("recommendation").expect("recommendation");
                assert!(same(got, &want), "({o},{v}) {goal}: {got:?} vs {want:?}");
            }
        }
    }

    let mut trigger = connect(addr);
    trigger.write_all(&http("POST", "/v1/shutdown", "", true)).unwrap();
    let _ = read_response(&mut trigger, &mut Vec::new());
    server_thread.join().unwrap().expect("clean shutdown");
}
