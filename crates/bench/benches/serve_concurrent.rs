//! Tail latency of the event-driven data plane under concurrent
//! keep-alive load: a real `Server` on loopback, N client threads each
//! holding one persistent connection and issuing sequential
//! `/v1/predict` requests. Unlike `serve_throughput` (in-process router
//! medians), this measures what an operator sees — socket, parser,
//! worker pool, the model call inline on its worker, and encoder
//! together — and reports the p99 per-request latency via
//! `iter_custom`, so the recorded entry `serve_concurrent/p99/conns/N`
//! IS the tail. CI gates these entries with `bench_compare
//! --tail-threshold`.

use chemcost_core::data::{MachineData, Target};
use chemcost_ml::gradient_boosting::GradientBoosting;
use chemcost_ml::Regressor;
use chemcost_serve::{ModelRegistry, Router, Server};
use chemcost_sim::machine::aurora;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Sequential requests each client sends per measurement.
const REQUESTS_PER_CONN: usize = 25;

fn trained_model() -> GradientBoosting {
    let md = MachineData::generate_sized(&aurora(), 400, 42);
    let train = md.train_dataset(Target::Seconds);
    let mut gb = GradientBoosting::new(100, 6, 0.1);
    gb.seed = 42;
    gb.fit(&train.x, &train.y).unwrap();
    gb
}

/// A fresh router per server: `Router::clone` shares lifecycle state
/// (including the shutdown flag), so a router that already drained one
/// server would start the next one draining too.
fn router_with(gb: &GradientBoosting) -> Router {
    let registry = Arc::new(ModelRegistry::new());
    registry.insert("gb", "aurora", gb.clone());
    Router::new(registry)
}

const PREDICT: &str = r#"{"rows": [{"o": 100, "v": 800, "nodes": 32, "tile": 24}]}"#;

fn request_bytes(close: bool) -> Vec<u8> {
    format!(
        "POST /v1/predict HTTP/1.1\r\nHost: bench\r\nContent-Length: {}{}\r\n\r\n{PREDICT}",
        PREDICT.len(),
        if close { "\r\nConnection: close" } else { "" },
    )
    .into_bytes()
}

/// Read one Content-Length-framed response; panics on a non-200.
fn read_response(stream: &mut TcpStream, carry: &mut Vec<u8>) {
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk).expect("read head");
        assert!(n > 0, "EOF before response head");
        carry.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&carry[..head_end]).expect("UTF-8 head");
    assert!(head.starts_with("HTTP/1.1 200"), "non-200 under load: {head:?}");
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("Content-Length");
    while carry.len() < head_end + length {
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "EOF mid-body");
        carry.extend_from_slice(&chunk[..n]);
    }
    carry.drain(..head_end + length);
}

/// One measurement: `conns` keep-alive clients fire in lockstep, each
/// timing every request round-trip. Returns the p99 across all of them.
fn measure_p99(addr: SocketAddr, conns: usize) -> Duration {
    let barrier = Arc::new(Barrier::new(conns));
    let clients: Vec<_> = (0..conns)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).ok();
                stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                let mut carry = Vec::new();
                let mut latencies = Vec::with_capacity(REQUESTS_PER_CONN);
                barrier.wait();
                for n in 0..REQUESTS_PER_CONN {
                    let start = Instant::now();
                    stream.write_all(&request_bytes(n + 1 == REQUESTS_PER_CONN)).unwrap();
                    read_response(&mut stream, &mut carry);
                    latencies.push(start.elapsed());
                }
                latencies
            })
        })
        .collect();
    let mut all: Vec<Duration> =
        clients.into_iter().flat_map(|c| c.join().expect("client thread")).collect();
    all.sort_unstable();
    all[(all.len() * 99) / 100 - 1]
}

fn bench_serve_concurrent(c: &mut Criterion) {
    let gb = trained_model();
    let mut group = c.benchmark_group("serve_concurrent");
    group.sample_size(5);
    for conns in [4usize, 32] {
        // A fresh server per concurrency level: the queue is sized so
        // tail latency reflects waiting, never 503 sheds.
        let server = Server::bind("127.0.0.1:0", router_with(&gb), 4)
            .expect("bind ephemeral")
            .with_queue_cap(2 * conns.max(4));
        let addr = server.local_addr().unwrap();
        let server_thread = std::thread::spawn(move || server.run());

        group.bench_function(BenchmarkId::new("p99/conns", conns), |b| {
            b.iter_custom(|iters| {
                let mut worst = Duration::ZERO;
                for _ in 0..iters {
                    worst = worst.max(measure_p99(addr, conns));
                }
                // p99 per request, scaled by iters so the harness's
                // per-iteration division reports the p99 itself.
                worst * iters as u32
            })
        });

        let mut stream = TcpStream::connect(addr).expect("connect for shutdown");
        stream
            .write_all(b"POST /v1/shutdown HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut bye = Vec::new();
        stream.read_to_end(&mut bye).expect("shutdown response");
        server_thread.join().expect("server thread").expect("clean shutdown");
    }
    group.finish();
}

criterion_group!(benches, bench_serve_concurrent);
criterion_main!(benches);
