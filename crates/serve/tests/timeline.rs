//! Wire-level tests for the request timelines: stage sums reconcile
//! with end-to-end latency under a concurrent keep-alive load, the
//! flight recorder retains/evicts correctly under sustained traffic, and
//! one trace id correlates the access log and the `request.timeline`
//! event.

use chemcost_linalg::Matrix;
use chemcost_ml::gradient_boosting::GradientBoosting;
use chemcost_ml::Regressor;
use chemcost_obs as obs;
use chemcost_serve::json::Json;
use chemcost_serve::{FaultKind, FaultPlane, ModelRegistry, Router, Server};
use chemcost_sim::datagen::generate_dataset_sized;
use chemcost_sim::machine::by_name;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const STAGE_KEYS: [&str; 5] = ["read_us", "queue_us", "handler_us", "reorder_us", "write_us"];

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

const PREDICT_BODY: &str = r#"{"rows": [{"o": 100, "v": 800, "nodes": 32, "tile": 24}]}"#;

fn http(method: &str, path: &str, trace: Option<&str>, body: &str, close: bool) -> Vec<u8> {
    let trace = trace.map(|t| format!("X-Request-Id: {t}\r\n")).unwrap_or_default();
    format!(
        "{method} {path} HTTP/1.1\r\nHost: tl\r\n{trace}Content-Length: {}{}\r\n\r\n{body}",
        body.len(),
        if close { "\r\nConnection: close" } else { "" },
    )
    .into_bytes()
}

/// Read one Content-Length-framed response, carrying leftovers.
fn read_response(stream: &mut TcpStream, carry: &mut Vec<u8>) -> (u16, String) {
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "EOF before head: {:?}", String::from_utf8_lossy(carry));
        carry.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(carry[..head_end].to_vec()).expect("UTF-8 head");
    let status: u16 = head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status");
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.trim().eq_ignore_ascii_case("content-length").then(|| value.trim().parse().ok())?
        })
        .expect("Content-Length");
    while carry.len() < head_end + content_length {
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "EOF mid-body");
        carry.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8_lossy(&carry[head_end..head_end + content_length]).into_owned();
    carry.drain(..head_end + content_length);
    (status, body)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.set_nodelay(true).ok();
    stream
}

fn fetch_json(addr: SocketAddr, path: &str) -> Json {
    let mut stream = connect(addr);
    stream.write_all(&http("GET", path, None, "", true)).unwrap();
    let (status, body) = read_response(&mut stream, &mut Vec::new());
    assert_eq!(status, 200, "{body}");
    Json::parse(&body).unwrap_or_else(|e| panic!("bad {path} JSON: {e}\n{body}"))
}

fn shutdown(addr: SocketAddr) {
    let mut stream = connect(addr);
    stream.write_all(&http("POST", "/v1/shutdown", None, "", true)).unwrap();
    let (status, _) = read_response(&mut stream, &mut Vec::new());
    assert_eq!(status, 200);
}

fn stage(entry: &Json, key: &str) -> f64 {
    entry.get("stages").and_then(|s| s.get(key)).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// The acceptance soak: concurrent keep-alive predicts. Every
/// `/debug/requests` timeline's stage sum reconciles with its end-to-end
/// total (±5%), each predict's model call lands in its `handler` stage,
/// trace-matched server totals stay within the client-measured
/// end-to-end time, and the stage histograms plus event-loop health
/// series show up on `/metrics`.
#[test]
fn stage_sums_reconcile_with_end_to_end_latency() {
    const CLIENTS: usize = 16;
    const ROUNDS: usize = 4;

    let server = new_server(4).with_queue_cap(4 * CLIENTS);
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());

    // Barrier-synced rounds so requests really do contend for the four
    // workers; each request carries a unique trace id and measures its
    // own client-side end-to-end latency.
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || -> Vec<(String, Duration)> {
                let mut stream = connect(addr);
                let mut carry = Vec::new();
                let mut measured = Vec::new();
                for r in 0..ROUNDS {
                    barrier.wait();
                    let trace = format!("tl-{c}-{r}");
                    let started = Instant::now();
                    stream
                        .write_all(&http("POST", "/v1/predict", Some(&trace), PREDICT_BODY, false))
                        .unwrap();
                    let (status, body) = read_response(&mut stream, &mut carry);
                    assert_eq!(status, 200, "{body}");
                    measured.push((trace, started.elapsed()));
                }
                measured
            })
        })
        .collect();
    let client_e2e: Vec<(String, Duration)> =
        clients.into_iter().flat_map(|c| c.join().expect("client thread")).collect();

    let doc = fetch_json(addr, "/debug/requests");
    let sent = CLIENTS * ROUNDS;
    assert!(
        doc.get("completed").and_then(Json::as_usize).unwrap_or(0) >= sent,
        "flight recorder missed requests: {doc:?}"
    );
    let recent = doc.get("recent").and_then(Json::as_array).expect("recent array");
    assert!(!recent.is_empty());
    let mut handled = 0usize;
    for entry in recent {
        let total = entry.get("total_us").and_then(Json::as_f64).expect("total_us");
        let sum: f64 = STAGE_KEYS.iter().map(|k| stage(entry, k)).sum();
        assert!(sum.is_finite(), "missing stage keys: {entry:?}");
        // The acceptance bound: per-stage durations reconcile with the
        // end-to-end total within 5% (the µs-truncation floor covers
        // sub-10µs requests).
        let tolerance = (total * 0.05).max(10.0);
        assert!(
            (sum - total).abs() <= tolerance,
            "stage sum {sum} vs total {total} µs out of tolerance: {entry:?}"
        );
        if entry.get("path").and_then(Json::as_str) == Some("/v1/predict")
            && stage(entry, "handler_us") > 0.0
        {
            handled += 1;
        }
    }
    // The model call runs inside the handler stage, on the worker.
    assert!(handled > 0, "no predict timeline attributes handler time: {doc:?}");

    // Trace-matched server totals stay within what the client measured
    // (small slack: the server stamps `last byte` on its next loop pass
    // after the socket accepted the bytes).
    let slack = Duration::from_millis(50);
    let mut matched = 0usize;
    for entry in recent {
        let Some(trace) = entry.get("trace").and_then(Json::as_str) else { continue };
        let Some((_, e2e)) = client_e2e.iter().find(|(t, _)| t == trace) else { continue };
        matched += 1;
        let total = Duration::from_micros(
            entry.get("total_us").and_then(Json::as_f64).expect("total_us") as u64,
        );
        assert!(
            total <= *e2e + slack,
            "server total {total:?} exceeds client e2e {e2e:?} for {trace}"
        );
    }
    assert!(matched > 0, "no flight-recorder entry matched a client trace id");

    // The histograms and event-loop health series agree on /metrics.
    let mut stream = connect(addr);
    stream.write_all(&http("GET", "/metrics", None, "", true)).unwrap();
    let (status, metrics) = read_response(&mut stream, &mut Vec::new());
    assert_eq!(status, 200);
    let series = |name: &str| -> f64 {
        metrics
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("series {name} missing from /metrics"))
    };
    for key in ["read", "queue", "handler", "reorder", "write"] {
        let count =
            series(&format!("chemcost_request_stage_duration_seconds_count{{stage=\"{key}\"}}"));
        assert!(count >= sent as f64, "stage {key} count {count} < {sent}");
    }
    assert!(series("chemcost_event_loop_iteration_duration_seconds_count") > 0.0);
    assert!(series("chemcost_event_loop_events_per_wake_sum") > 0.0);
    assert!(series("chemcost_connections_read_paused") >= 0.0);
    assert!(series("chemcost_connections_write_stalled") >= 0.0);

    shutdown(addr);
    server_thread.join().unwrap().expect("clean shutdown");
}

/// The recent timelines whose trace id starts with `prefix`.
fn traced<'a>(recent: &'a [Json], prefix: &str) -> Vec<&'a Json> {
    recent
        .iter()
        .filter(|e| e.get("trace").and_then(Json::as_str).is_some_and(|t| t.starts_with(prefix)))
        .collect()
}

/// An advise cache hit the event loop answers itself is never queued:
/// its `queue` stage is exactly 0, alone or pipelined, and every
/// timeline's stages still sum to its total within 5%.
#[test]
fn inline_hits_have_a_zero_queue_stage() {
    const ALONE: usize = 6;
    const PIPELINED: usize = 8;
    let server = new_server(2);
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());
    let body = r#"{"o": 120, "v": 900, "goal": "stq"}"#;

    let mut stream = connect(addr);
    let mut carry = Vec::new();
    // The first ask misses and sweeps on a worker; every later one hits.
    stream.write_all(&http("POST", "/v1/advise", Some("cold"), body, false)).unwrap();
    assert_eq!(read_response(&mut stream, &mut carry).0, 200);
    for n in 0..ALONE {
        let trace = format!("alone-{n}");
        stream.write_all(&http("POST", "/v1/advise", Some(&trace), body, false)).unwrap();
        assert_eq!(read_response(&mut stream, &mut carry).0, 200);
    }
    let burst: Vec<u8> = (0..PIPELINED)
        .flat_map(|n| http("POST", "/v1/advise", Some(&format!("piped-{n}")), body, false))
        .collect();
    stream.write_all(&burst).unwrap();
    for _ in 0..PIPELINED {
        assert_eq!(read_response(&mut stream, &mut carry).0, 200);
    }

    let doc = fetch_json(addr, "/debug/requests");
    let recent = doc.get("recent").and_then(Json::as_array).expect("recent array");
    let alone = traced(recent, "alone-");
    let piped = traced(recent, "piped-");
    assert_eq!((alone.len(), piped.len()), (ALONE, PIPELINED), "{doc:?}");
    for entry in alone.iter().chain(&piped) {
        assert_eq!(stage(entry, "queue_us"), 0.0, "an inline hit was queued: {entry:?}");
    }
    for entry in recent {
        let total = entry.get("total_us").and_then(Json::as_f64).expect("total_us");
        let sum: f64 = STAGE_KEYS.iter().map(|k| stage(entry, k)).sum();
        let tolerance = (total * 0.05).max(10.0);
        assert!((sum - total).abs() <= tolerance, "stage sum {sum} vs total {total}: {entry:?}");
    }

    shutdown(addr);
    server_thread.join().unwrap().expect("clean shutdown");
}

/// A request the chaos plane rolled `slow-io` for rides a worker even
/// when it is a cache hit the loop could answer: at rate 1 the cached
/// advise shows a `queue` stage at least as long as the injected stall,
/// which only a worker sleeps.
#[test]
fn slow_io_rolled_hits_ride_a_worker() {
    let delay = Duration::from_millis(20);
    let plane = FaultPlane::builder().seed(1).rate(FaultKind::SlowIo, 1.0).slow_io_delay(delay);
    let server = new_server(2).with_faults(Arc::new(plane.build()));
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());
    let body = r#"{"o": 120, "v": 900, "goal": "stq"}"#;

    let mut stream = connect(addr);
    let mut carry = Vec::new();
    for trace in ["slow-cold", "slow-hit"] {
        stream.write_all(&http("POST", "/v1/advise", Some(trace), body, false)).unwrap();
        assert_eq!(read_response(&mut stream, &mut carry).0, 200);
    }

    let doc = fetch_json(addr, "/debug/requests");
    let recent = doc.get("recent").and_then(Json::as_array).expect("recent array");
    let hit = traced(recent, "slow-hit");
    assert_eq!(hit.len(), 1, "{doc:?}");
    let queued = stage(hit[0], "queue_us");
    assert!(queued >= delay.as_micros() as f64, "queue {queued} µs < the {delay:?} stall");
    let mut stream = connect(addr);
    stream.write_all(&http("GET", "/metrics", None, "", true)).unwrap();
    let (_, metrics) = read_response(&mut stream, &mut Vec::new());
    assert!(metrics.contains("chemcost_advise_cache_hits_total 1\n"), "the second ask must hit");

    shutdown(addr);
    server_thread.join().unwrap().expect("clean shutdown");
}

/// Flight-recorder retention under load: recent keeps exactly its cap
/// (newest-last), slowest stays bounded and sorted, and the completed
/// counter says how lossy eviction was.
#[test]
fn flight_recorder_retention_and_eviction_under_load() {
    const SENT: usize = 100; // > RECENT_CAP (64) and > SLOWEST_CAP (16)

    let server = new_server(2);
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());

    let mut stream = connect(addr);
    let mut carry = Vec::new();
    for n in 0..SENT {
        let trace = format!("evict-{n}");
        stream.write_all(&http("GET", "/healthz", Some(&trace), "", false)).unwrap();
        let (status, _) = read_response(&mut stream, &mut carry);
        assert_eq!(status, 200);
    }

    let doc = fetch_json(addr, "/debug/requests");
    let recent_cap = doc.get("recent_cap").and_then(Json::as_usize).expect("recent_cap");
    let slowest_cap = doc.get("slowest_cap").and_then(Json::as_usize).expect("slowest_cap");
    assert_eq!(recent_cap, chemcost_serve::timeline::RECENT_CAP);
    assert_eq!(slowest_cap, chemcost_serve::timeline::SLOWEST_CAP);
    assert!(doc.get("completed").and_then(Json::as_usize).unwrap_or(0) >= SENT);

    let recent = doc.get("recent").and_then(Json::as_array).expect("recent array");
    assert_eq!(recent.len(), recent_cap, "recent ring must be exactly at cap");
    // Eviction kept the newest: the earliest requests are gone, the
    // last one sent is the final entry.
    assert_eq!(
        recent.last().and_then(|e| e.get("trace")).and_then(Json::as_str),
        Some(format!("evict-{}", SENT - 1).as_str())
    );
    assert!(
        !recent.iter().any(|e| e.get("trace").and_then(Json::as_str) == Some("evict-0")),
        "oldest entry must have been evicted"
    );

    let slowest = doc.get("slowest").and_then(Json::as_array).expect("slowest array");
    assert!(!slowest.is_empty() && slowest.len() <= slowest_cap);
    let totals: Vec<f64> =
        slowest.iter().map(|e| e.get("total_us").and_then(Json::as_f64).unwrap()).collect();
    assert!(totals.windows(2).all(|w| w[0] >= w[1]), "slowest not sorted descending: {totals:?}");

    shutdown(addr);
    server_thread.join().unwrap().expect("clean shutdown");
}

/// One trace id ties the predict's story together in the obs stream:
/// the access log (`http.request`) and the completed `request.timeline`
/// both carry the request's own trace id.
#[test]
fn one_trace_id_correlates_access_log_and_timeline() {
    obs::set_level(Some(obs::Level::Debug));
    let ring = Arc::new(obs::RingSink::new(4096));
    let handle = obs::add_sink(ring.clone());

    let server = new_server(2);
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());

    let trace_id = "tl-corr-1";
    let mut stream = connect(addr);
    stream.write_all(&http("POST", "/v1/predict", Some(trace_id), PREDICT_BODY, true)).unwrap();
    let (status, body) = read_response(&mut stream, &mut Vec::new());
    assert_eq!(status, 200, "{body}");

    // The timeline event fires on the event-loop thread after the last
    // byte flushes: poll.
    let deadline = Instant::now() + Duration::from_secs(5);
    let (request_ev, timeline_ev) = loop {
        let request_ev = ring
            .events_named("http.request")
            .into_iter()
            .find(|e| e.trace.as_deref() == Some(trace_id));
        let timeline_ev = ring
            .events_named("request.timeline")
            .into_iter()
            .find(|e| e.trace.as_deref() == Some(trace_id));
        if let (Some(r), Some(t)) = (&request_ev, &timeline_ev) {
            break (r.clone(), t.clone());
        }
        assert!(
            Instant::now() < deadline,
            "missing correlated events: http.request={request_ev:?} \
             request.timeline={timeline_ev:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    obs::remove_sink(handle);
    assert_eq!(request_ev.field("path"), Some(&obs::Value::Str("/v1/predict".into())));

    // The access log measures from parse completion: its duration
    // covers handler time plus queue wait.
    let (Some(obs::Value::U64(total)), Some(obs::Value::U64(handler))) =
        (request_ev.field("duration_us"), request_ev.field("handler_us"))
    else {
        panic!("http.request missing duration fields: {request_ev:?}");
    };
    assert!(total >= handler, "access-log total {total} < handler {handler}");

    // The timeline event carries every stage plus a consistent total.
    let (Some(obs::Value::U64(tl_total)), Some(obs::Value::Str(path))) =
        (timeline_ev.field("total_us"), timeline_ev.field("path"))
    else {
        panic!("request.timeline missing fields: {timeline_ev:?}");
    };
    assert_eq!(path.as_str(), "/v1/predict");
    let stage_sum: u64 = STAGE_KEYS
        .iter()
        .map(|k| match timeline_ev.field(k) {
            Some(obs::Value::U64(us)) => *us,
            other => panic!("stage {k} missing from request.timeline: {other:?}"),
        })
        .sum();
    let tolerance = (*tl_total / 20).max(10);
    assert!(
        stage_sum.abs_diff(*tl_total) <= tolerance,
        "timeline stages sum {stage_sum} vs total {tl_total}"
    );

    shutdown(addr);
    server_thread.join().unwrap().expect("clean shutdown");
}
