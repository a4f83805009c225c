//! Property tests of the streaming wire decode.
//!
//! Every message the admission server reads or persists — protocol
//! requests and responses, WAL records, snapshots — must decode back to
//! exactly what was encoded, over random DAGs whose wire order is not
//! sorted. And an admission frame damaged in transit or by a hostile
//! client (truncated, a byte or a number overwritten, keys reordered)
//! must never panic the decoder: it either fails, or yields a task that
//! [`DagTask::new`] would build from the decoded graph.

use fedsched_dag::graph::{Dag, DagBuilder};
use fedsched_dag::task::DagTask;
use fedsched_dag::time::Duration;
use fedsched_durable::{LogRecord, PersistedSizing, PersistedState, PoolAssignment};
use fedsched_service::protocol::{Placement, Request, RequestTiming, Response};
use fedsched_service::state::{AdmissionConfig, AdmissionState};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};

/// A random task: up to 14 vertices, edges of a random acyclic relation
/// inserted in random order over randomly labelled vertices (so neither
/// the adjacency slices nor `topo` come out sorted), and a random
/// deadline and period.
fn arb_task() -> impl Strategy<Value = DagTask> {
    (1usize..15).prop_flat_map(|n| {
        let wcets = prop::collection::vec(1u64..=30, n);
        let flags = prop::collection::vec(any::<bool>(), n * (n - 1) / 2);
        (wcets, flags, any::<u64>(), 1u64..400, 0u64..400).prop_map(
            move |(wcets, flags, shuffle, deadline, slack)| {
                let mut rng = shuffle | 1;
                let mut next = move |bound: usize| {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    (rng % bound as u64) as usize
                };
                let mut label: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    label.swap(i, next(i + 1));
                }
                let mut edges = Vec::new();
                let mut k = 0;
                for from in 0..n {
                    for to in (from + 1)..n {
                        if flags[k] {
                            edges.push((label[from], label[to]));
                        }
                        k += 1;
                    }
                }
                for i in (1..edges.len()).rev() {
                    edges.swap(i, next(i + 1));
                }
                let mut b = DagBuilder::new();
                let vs = b.add_vertices(wcets.into_iter().map(Duration::new));
                for (from, to) in edges {
                    b.add_edge(vs[from], vs[to]).unwrap();
                }
                let dag = b.build().unwrap();
                DagTask::new(
                    dag,
                    Duration::new(deadline),
                    Duration::new(deadline + slack),
                )
                .unwrap()
            },
        )
    })
}

/// Encodes, decodes, and checks both identity and byte-stable re-encoding.
fn roundtrip<T>(value: &T) -> Result<(), TestCaseError>
where
    T: Serialize + Deserialize + PartialEq + std::fmt::Debug,
{
    let wire = serde_json::to_string(value).unwrap();
    let back: T = serde_json::from_str(&wire)
        .map_err(|e| TestCaseError::Fail(format!("{wire} does not decode: {e}")))?;
    prop_assert_eq!(&back, value, "through {}", wire);
    prop_assert_eq!(serde_json::to_string(&back).unwrap(), wire);
    Ok(())
}

/// A task is internally consistent iff it equals what `DagTask::new`
/// builds from its own graph and that graph is one `DagBuilder` accepts.
fn check_consistent(task: &DagTask) -> Result<(), TestCaseError> {
    let rebuilt = DagTask::new(task.dag().clone(), task.deadline(), task.period());
    prop_assert_eq!(rebuilt.as_ref(), Ok(task));
    let dag: &Dag = task.dag();
    let mut b = DagBuilder::new();
    let vs = b.add_vertices(dag.wcets().iter().copied());
    for (from, to) in dag.edges() {
        prop_assert!(b.add_edge(vs[from.index()], vs[to.index()]).is_ok());
    }
    prop_assert!(b.build().is_ok(), "decoded graph must be acyclic");
    Ok(())
}

/// The byte ranges of the digit runs in `text`.
fn digit_runs(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut runs = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            runs.push((start, i));
        } else {
            i += 1;
        }
    }
    runs
}

/// Shuffles the keys of every object in the tree, driven by `seed`.
fn reorder_keys(value: &mut Value, seed: &mut u64) {
    match value {
        Value::Map(entries) => {
            for i in (1..entries.len()).rev() {
                *seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                entries.swap(i, (*seed >> 33) as usize % (i + 1));
            }
            for (_, v) in entries.iter_mut() {
                reorder_keys(v, seed);
            }
        }
        Value::Seq(items) => {
            for v in items.iter_mut() {
                reorder_keys(v, seed);
            }
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_wire_and_log_message_roundtrips_over_random_dags(
        task in arb_task(),
        token in 0u64..1_000_000,
        trace_id in any::<u64>(),
        echo in any::<bool>(),
    ) {
        // A live state holding the task, for a real snapshot, sizing and
        // stats payload.
        let mut state = AdmissionState::new(AdmissionConfig::new(64));
        let admitted = state.admit(task.clone()).ok();
        let exported: PersistedState = state.export();
        roundtrip(&exported)?;
        let sizing: Option<PersistedSizing> =
            exported.cache.iter().find_map(|e| e.sizing.clone());

        for request in [
            Request::Admit { task: task.clone(), trace_id: Some(trace_id), echo_timing: echo },
            Request::Admit { task: task.clone(), trace_id: None, echo_timing: false },
            Request::Remove { token },
            Request::Query { token },
            Request::Stats,
            Request::StatsPrometheus,
            Request::Shutdown,
        ] {
            roundtrip(&request)?;
        }

        let placement = admitted.map_or(Placement::Shared { processor: 3 }, |a| a.placement);
        for response in [
            Response::Admitted {
                token,
                placement,
                cache_hit: echo,
                trace_id: Some(trace_id),
                timing: echo.then_some(RequestTiming {
                    idle_us: 1, read_us: 2, parse_us: 3, cache_us: 4, analysis_us: 5, wal_us: 6,
                }),
            },
            Response::Rejected { reason: format!("no room for \"{token}\"\n"), trace_id: None, timing: None },
            Response::Removed { token, migrated: token % 7 },
            Response::TaskInfo { token, placement },
            Response::NotFound { token },
            Response::Stats { snapshot: state.snapshot() },
            Response::Metrics { text: "# HELP x y\nx 1\n".into() },
            Response::ShuttingDown,
            Response::Busy { retry_after_ms: token },
            Response::Error { message: "bad \u{1F600} frame".into() },
        ] {
            roundtrip(&response)?;
        }

        for record in [
            LogRecord::Admit {
                token,
                task: task.clone(),
                placement: PoolAssignment::Dedicated { first_processor: 0, processors: 2 },
                cache_hit: echo,
                sizing: sizing.clone(),
            },
            LogRecord::Admit {
                token,
                task: task.clone(),
                placement: PoolAssignment::Shared { processor: token },
                cache_hit: false,
                sizing: None,
            },
            LogRecord::Reject { task: task.clone(), high_density: echo, cache_hit: !echo },
            LogRecord::Depart { token, anomaly: echo },
            LogRecord::CacheInsert { task: task.clone(), sizing },
            LogRecord::SnapshotMarker { seq: token },
        ] {
            roundtrip(&record)?;
        }
    }
}

/// Replacement bytes for the damage test: JSON's structural characters
/// and number alphabet, so most damage still tokenizes.
const DAMAGE: &[u8] = b"0123456789[]{},:\"-.e ";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn damaged_admit_frames_fail_or_decode_to_a_consistent_task(
        task in arb_task(),
        cut in any::<u64>(),
        byte in 0usize..DAMAGE.len(),
        mut seed in any::<u64>(),
    ) {
        let request = Request::Admit { task, trace_id: None, echo_timing: false };
        let frame = serde_json::to_string(&request).unwrap();
        let at = (cut % frame.len() as u64) as usize;

        // Truncated: never a complete message.
        prop_assert!(serde_json::from_str::<Request>(&frame[..at]).is_err());

        // One byte overwritten: either rejected or a consistent task.
        let mut flipped = frame.clone().into_bytes();
        flipped[at] = DAMAGE[byte];
        let flipped = String::from_utf8(flipped).unwrap();
        if let Ok(Request::Admit { task, .. }) = serde_json::from_str::<Request>(&flipped) {
            check_consistent(&task)?;
        }

        // One number rewritten (an id, a WCET, a count, or a cached
        // quantity): either rejected or a consistent task.
        let numbers: Vec<(usize, usize)> = digit_runs(&frame);
        let (lo, hi) = numbers[(cut % numbers.len() as u64) as usize];
        let old: u64 = frame[lo..hi].parse().unwrap();
        let rewritten = format!("{}{}{}", &frame[..lo], old + 1 + seed % 3, &frame[hi..]);
        if let Ok(Request::Admit { task, .. }) = serde_json::from_str::<Request>(&rewritten) {
            check_consistent(&task)?;
        }

        // Keys reordered at every level: the same request.
        let mut tree: Value = serde_json::from_str(&frame).unwrap();
        reorder_keys(&mut tree, &mut seed);
        let reordered = serde_json::to_string(&tree).unwrap();
        let back: Request = serde_json::from_str(&reordered)
            .map_err(|e| TestCaseError::Fail(format!("{reordered}: {e}")))?;
        prop_assert_eq!(back, request);
    }
}
