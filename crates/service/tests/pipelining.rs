//! Pipelined batches over a live server: many requests in one write.
//!
//! A client that pipelines sends several request lines before reading any
//! answer. The server decides consecutive `Admit`s as one batch under a
//! single ledger acquisition, so these tests pin what batching must never
//! change: every answer equals the one a sequential in-process
//! [`AdmissionState`] gives for the same request stream, answers come
//! back in request order, a line after the batch is still handled, and
//! the per-connection request budget cuts a batch short exactly where an
//! unbatched connection would stop.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use fedsched_dag::graph::DagBuilder;
use fedsched_dag::task::DagTask;
use fedsched_dag::time::Duration as Ticks;
use fedsched_service::protocol::{Request, Response};
use fedsched_service::{serve, AdmissionConfig, AdmissionState, ConnectionLimits, ServerConfig};

/// Everything in one write must fit one loopback read on the server.
const ONE_READ: usize = 8 * 1024;

fn admission() -> AdmissionConfig {
    AdmissionConfig::new(8)
}

/// Twenty tasks mixing sequential chains (low density, shared pool),
/// parallel forks dense enough for dedicated clusters, and repeated
/// shapes (template-cache hits), on 8 processors so some are rejected.
fn tasks(n: usize) -> Vec<DagTask> {
    (0..n as u64)
        .map(|i| {
            if i % 2 == 0 {
                let exec = 1 + i % 3;
                DagTask::sequential(Ticks::new(exec), Ticks::new(exec + 3), Ticks::new(exec + 9))
                    .expect("chain shape is valid")
            } else {
                let width = 3 + (i as usize / 2) % 3;
                let mut b = DagBuilder::new();
                for _ in 0..width {
                    b.add_vertex(Ticks::new(4));
                }
                DagTask::new(
                    b.build().expect("fork builds"),
                    Ticks::new(6),
                    Ticks::new(12),
                )
                .expect("fork shape is valid")
            }
        })
        .collect()
}

fn admit_line(task: &DagTask, trace_id: u64) -> String {
    let mut line = serde_json::to_string(&Request::Admit {
        task: task.clone(),
        trace_id: Some(trace_id),
        echo_timing: false,
    })
    .expect("requests encode");
    line.push('\n');
    line
}

/// The answer a sequential in-process engine gives, as the server would
/// serialize it (trace id echoed, no timing).
fn expected(oracle: &mut AdmissionState, task: &DagTask, trace_id: u64) -> String {
    let response = match oracle.admit(task.clone()) {
        Ok(a) => Response::Admitted {
            token: a.token,
            placement: a.placement,
            cache_hit: a.cache_hit,
            trace_id: Some(trace_id),
            timing: None,
        },
        Err(reason) => Response::Rejected {
            reason: reason.to_string(),
            trace_id: Some(trace_id),
            timing: None,
        },
    };
    let mut line = serde_json::to_string(&response).expect("responses encode");
    line.push('\n');
    line
}

fn start(limits: ConnectionLimits) -> fedsched_service::ServerHandle {
    serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        shards: 1,
        admission: admission(),
        limits,
        durability: None,
        handoff_from: None,
    })
    .expect("bind loopback")
}

/// Sends `payload` in one `write_all`, then reads every line the server
/// answers until it closes the connection.
fn exchange(addr: std::net::SocketAddr, payload: &str) -> Vec<String> {
    assert!(payload.len() < ONE_READ, "payload must fit one read");
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    (&stream)
        .write_all(payload.as_bytes())
        .expect("send pipeline");
    let mut reader = BufReader::new(stream);
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read answer") == 0 {
            return lines;
        }
        lines.push(line);
    }
}

#[test]
fn a_pipelined_write_is_answered_in_order_and_matches_the_sequential_engine() {
    let handle = start(ConnectionLimits::default());
    let tasks = tasks(20);
    let mut payload: String = tasks
        .iter()
        .enumerate()
        .map(|(i, task)| admit_line(task, i as u64))
        .collect();
    payload.push_str(&serde_json::to_string(&Request::Stats).expect("requests encode"));
    payload.push('\n');
    payload.push_str("{this is not json\n");

    let answers = exchange(handle.local_addr(), &payload);
    assert_eq!(
        answers.len(),
        22,
        "20 admits, Stats, then the malformed line's Error: {answers:?}"
    );
    let mut oracle = AdmissionState::new(admission());
    for (i, task) in tasks.iter().enumerate() {
        assert_eq!(
            answers[i],
            expected(&mut oracle, task, i as u64),
            "answer {i} differs from the sequential engine"
        );
    }
    let Ok(Response::Stats { snapshot }) = serde_json::from_str(&answers[20]) else {
        panic!("Stats was not answered: {}", answers[20]);
    };
    let reference = oracle.snapshot();
    assert_eq!(
        (snapshot.admitted_high, snapshot.admitted_low),
        (reference.admitted_high, reference.admitted_low)
    );
    assert_eq!(
        (snapshot.rejected_high, snapshot.rejected_low),
        (reference.rejected_high, reference.rejected_low)
    );
    assert!(
        reference.rejected_high + reference.rejected_low > 0 && reference.cache_hits > 0,
        "the stream must exercise rejections and cache hits"
    );
    assert!(
        matches!(
            serde_json::from_str(&answers[21]),
            Ok(Response::Error { .. })
        ),
        "the malformed line gets a framed Error, got {}",
        answers[21]
    );

    assert_eq!(handle.transport_stats().malformed_requests, 1);
    let shard = &handle.shard_stats()[0];
    assert_eq!(shard.admit_requests, 20);
    assert!(
        shard.batched_requests > 0,
        "pipelined admits must commit as batches: {shard:?}"
    );
    handle.shutdown();
}

#[test]
fn the_request_budget_cuts_a_pipelined_batch_short() {
    let handle = start(ConnectionLimits {
        max_requests_per_connection: 5,
        ..ConnectionLimits::default()
    });
    let tasks = tasks(8);
    let payload: String = tasks
        .iter()
        .enumerate()
        .map(|(i, task)| admit_line(task, i as u64))
        .collect();

    let answers = exchange(handle.local_addr(), &payload);
    assert_eq!(
        answers.len(),
        6,
        "five answers, then the budget: {answers:?}"
    );
    let mut oracle = AdmissionState::new(admission());
    for (i, task) in tasks.iter().take(5).enumerate() {
        assert_eq!(answers[i], expected(&mut oracle, task, i as u64));
    }
    match serde_json::from_str(&answers[5]) {
        Ok(Response::Error { message }) => {
            assert!(message.contains("budget"), "unexpected error: {message}");
        }
        other => panic!("expected the budget Error, got {other:?}"),
    }
    assert_eq!(handle.transport_stats().budget_exhausted, 1);
    assert_eq!(handle.shard_stats()[0].admit_requests, 5);
    handle.shutdown();
}
