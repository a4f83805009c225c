//! The wire protocol: newline-delimited JSON request/response messages.
//!
//! Every message is one JSON document on one line, terminated by `\n`
//! (the serde externally-tagged enum encoding of [`Request`] and
//! [`Response`]). A connection carries any number of request/response
//! pairs in order; the server answers each request before reading the
//! next, so a client can treat the connection as a synchronous call
//! channel.

use std::io::{self, BufRead, Write};

use fedsched_dag::task::DagTask;
use serde::{Deserialize, Serialize};

use crate::stats::StatsSnapshot;

/// Keeps `false` booleans off the wire so old peers see byte-identical
/// messages (unknown-field tolerance covers new peers).
#[allow(clippy::trivially_copy_pass_by_ref)]
fn is_false(b: &bool) -> bool {
    !*b
}

/// The server-side stage breakdown echoed in an admission response when
/// the request set `echo_timing` — how a load generator splits server
/// time from network and queueing time without scraping `/metrics`.
///
/// All figures are microseconds, truncated. The serialize/ack stage is
/// absent by construction: the echo is part of the serialized response,
/// so that stage cannot time itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RequestTiming {
    /// Waiting for the first byte of the request — open-loop client
    /// think time, not server work. Absent in echoes from servers
    /// predating the idle/read split.
    #[serde(default)]
    pub idle_us: u64,
    /// Reading and framing the request line once its first byte
    /// arrived (socket work alone; think time lands in `idle_us`).
    pub read_us: u64,
    /// From the hand-off of the framed line to a dispatch thread to the
    /// end of its decode into a typed request: the job-queue wait plus
    /// the decode itself.
    pub parse_us: u64,
    /// Template-cache lookup (zero on a cache miss: the probe time is
    /// real sizing work then, credited to analysis).
    pub cache_us: u64,
    /// Admission analysis, state-lock wait included.
    pub analysis_us: u64,
    /// Write-ahead-log append + fsync (zero without durability).
    pub wal_us: u64,
}

/// A client request.
// `Admit` dominates the enum's size (a `DagTask` inlines the CSR edge
// arenas), but requests are decoded one at a time and consumed
// immediately — they are never stored in bulk, so boxing the task would
// add an indirection to the hot admission path for no memory win.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Admit one task; answered with `Admitted` or `Rejected`.
    Admit {
        /// The task to admit.
        task: DagTask,
        /// Optional client-minted correlation token. The server echoes it
        /// in the response and stamps it on every telemetry span the
        /// admission produces, so one request can be followed across the
        /// protocol, the analysis phases, and an exported trace.
        trace_id: Option<u64>,
        /// When `true`, the response carries a [`RequestTiming`] with the
        /// server-side per-stage breakdown. Defaults to `false` and is
        /// omitted from the wire then, so requests from older clients and
        /// to older servers are byte-identical.
        #[serde(default, skip_serializing_if = "is_false")]
        echo_timing: bool,
    },
    /// Remove a previously admitted task by its token.
    Remove {
        /// The token `Admitted` returned.
        token: u64,
    },
    /// Look up the current placement of an admitted task.
    Query {
        /// The token `Admitted` returned.
        token: u64,
    },
    /// Fetch the server's counters.
    Stats,
    /// Fetch the server's counters rendered in the Prometheus text
    /// exposition format; answered with `Metrics`.
    StatsPrometheus,
    /// Stop the server; answered with `ShuttingDown`, after which no
    /// further connections are accepted.
    Shutdown,
}

/// Where an admitted task runs on the platform. Processor indices are the
/// *current* global layout (dedicated clusters pack from processor 0 in
/// admission order, the shared pool sits above them) and may shift when
/// other tasks are removed; `Query` always reports the up-to-date layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placement {
    /// A dedicated cluster executing the task's frozen LS template.
    Dedicated {
        /// First processor of the cluster.
        first_processor: u32,
        /// Cluster width `μ*`.
        processors: u32,
    },
    /// A slot on one shared EDF processor.
    Shared {
        /// Global index of the shared processor.
        processor: u32,
    },
}

/// The server's answer to one [`Request`].
// `Stats` dominates the enum size, but responses are built once per request
// and serialized immediately — never stored in bulk — so boxing the snapshot
// would buy nothing and cost an allocation on the hot stats path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The task was admitted.
    Admitted {
        /// Handle for later `Remove`/`Query` requests.
        token: u64,
        /// Where the task was placed.
        placement: Placement,
        /// Whether the sizing came out of the template cache.
        cache_hit: bool,
        /// The request's `trace_id`, echoed back verbatim.
        trace_id: Option<u64>,
        /// Per-stage server timing, present iff the request asked for it
        /// with `echo_timing` (omitted from the wire otherwise).
        #[serde(default, skip_serializing_if = "Option::is_none")]
        timing: Option<RequestTiming>,
    },
    /// The task was rejected; the state is unchanged.
    Rejected {
        /// Human-readable rejection reason.
        reason: String,
        /// The request's `trace_id`, echoed back verbatim.
        trace_id: Option<u64>,
        /// Per-stage server timing, present iff the request asked for it
        /// with `echo_timing` (omitted from the wire otherwise).
        #[serde(default, skip_serializing_if = "Option::is_none")]
        timing: Option<RequestTiming>,
    },
    /// The task was removed.
    Removed {
        /// The removed task's token.
        token: u64,
        /// How many shared tasks moved to another processor during the
        /// replay that reclaimed the freed capacity.
        migrated: u64,
    },
    /// Answer to `Query`.
    TaskInfo {
        /// The queried token.
        token: u64,
        /// The task's current placement.
        placement: Placement,
    },
    /// The token names no resident task.
    NotFound {
        /// The offending token.
        token: u64,
    },
    /// Answer to `Stats`.
    Stats {
        /// Counters at the time the request was handled.
        snapshot: StatsSnapshot,
    },
    /// Answer to `StatsPrometheus`: the counters in the Prometheus text
    /// exposition format (the same body `GET /metrics` serves over HTTP).
    Metrics {
        /// The exposition text, `# HELP`/`# TYPE` comments included.
        text: String,
    },
    /// Acknowledgement of `Shutdown`.
    ShuttingDown,
    /// The server is already serving its configured maximum number of
    /// connections and turned this one away without reading from it. The
    /// connection is closed after this response; retry on a fresh
    /// connection after a backoff (see `Client`'s automatic Busy retry).
    Busy {
        /// Advisory floor, in milliseconds, for the client's retry
        /// backoff.
        retry_after_ms: u64,
    },
    /// The request could not be understood or served.
    Error {
        /// What went wrong.
        message: String,
    },
}

/// Writes one message as a JSON line and flushes.
///
/// # Errors
///
/// I/O errors from the underlying writer; serialization failures surface as
/// [`io::ErrorKind::InvalidData`].
pub fn write_message<T: Serialize, W: Write>(writer: &mut W, message: &T) -> io::Result<()> {
    let line = serde_json::to_string(message)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Reads the next message: one JSON document per line, blank lines skipped.
/// Returns `Ok(None)` on a clean end of stream.
///
/// # Errors
///
/// I/O errors from the underlying reader; malformed JSON surfaces as
/// [`io::ErrorKind::InvalidData`].
pub fn read_message<T: Deserialize, R: BufRead>(reader: &mut R) -> io::Result<Option<T>> {
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        return serde_json::from_str(trimmed)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsched_dag::time::Duration;

    fn task() -> DagTask {
        DagTask::sequential(Duration::new(1), Duration::new(4), Duration::new(8)).unwrap()
    }

    #[test]
    fn requests_roundtrip_over_a_line_stream() {
        let mut buf = Vec::new();
        let requests = [
            Request::Admit {
                task: task(),
                trace_id: None,
                echo_timing: false,
            },
            Request::Admit {
                task: task(),
                trace_id: Some(99),
                echo_timing: true,
            },
            Request::Remove { token: 3 },
            Request::Query { token: 3 },
            Request::Stats,
            Request::StatsPrometheus,
            Request::Shutdown,
        ];
        for r in &requests {
            write_message(&mut buf, r).unwrap();
        }
        let mut reader = io::BufReader::new(&buf[..]);
        for r in &requests {
            let got: Request = read_message(&mut reader).unwrap().unwrap();
            assert_eq!(&got, r);
        }
        assert_eq!(read_message::<Request, _>(&mut reader).unwrap(), None);
    }

    #[test]
    fn responses_roundtrip() {
        let mut buf = Vec::new();
        let responses = [
            Response::Admitted {
                token: 7,
                placement: Placement::Dedicated {
                    first_processor: 2,
                    processors: 3,
                },
                cache_hit: true,
                trace_id: Some(99),
                timing: Some(RequestTiming {
                    idle_us: 5,
                    read_us: 12,
                    parse_us: 3,
                    cache_us: 0,
                    analysis_us: 450,
                    wal_us: 88,
                }),
            },
            Response::Rejected {
                reason: "no".into(),
                trace_id: None,
                timing: None,
            },
            Response::Metrics {
                text: "# HELP x y\nx 1\n".into(),
            },
            Response::Busy {
                retry_after_ms: 100,
            },
        ];
        for resp in &responses {
            write_message(&mut buf, resp).unwrap();
        }
        let mut reader = io::BufReader::new(&buf[..]);
        for resp in &responses {
            let got: Response = read_message(&mut reader).unwrap().unwrap();
            assert_eq!(&got, resp);
        }
    }

    /// Every request variant, struct payloads and units alike.
    fn all_requests() -> Vec<Request> {
        vec![
            Request::Admit {
                task: task(),
                trace_id: Some(99),
                echo_timing: true,
            },
            Request::Remove { token: 3 },
            Request::Query { token: 4 },
            Request::Stats,
            Request::StatsPrometheus,
            Request::Shutdown,
        ]
    }

    /// Every response variant, with both placement shapes represented.
    fn all_responses() -> Vec<Response> {
        let snapshot =
            crate::state::AdmissionState::new(crate::state::AdmissionConfig::new(4)).snapshot();
        vec![
            Response::Admitted {
                token: 7,
                placement: Placement::Dedicated {
                    first_processor: 2,
                    processors: 3,
                },
                cache_hit: true,
                trace_id: Some(99),
                timing: Some(RequestTiming {
                    idle_us: 5,
                    read_us: 12,
                    parse_us: 3,
                    cache_us: 7,
                    analysis_us: 450,
                    wal_us: 0,
                }),
            },
            Response::Admitted {
                token: 8,
                placement: Placement::Shared { processor: 5 },
                cache_hit: false,
                trace_id: None,
                timing: None,
            },
            Response::Rejected {
                reason: "no".into(),
                trace_id: Some(1),
                timing: None,
            },
            Response::Removed {
                token: 7,
                migrated: 2,
            },
            Response::TaskInfo {
                token: 8,
                placement: Placement::Shared { processor: 5 },
            },
            Response::NotFound { token: 42 },
            Response::Stats { snapshot },
            Response::Metrics {
                text: "# HELP x y\nx 1\n".into(),
            },
            Response::ShuttingDown,
            Response::Busy {
                retry_after_ms: 100,
            },
            Response::Error {
                message: "nope".into(),
            },
        ]
    }

    /// Injects an unknown field at the front of the variant's payload
    /// object: what a message from a newer peer looks like.
    fn with_unknown_field(json: &str) -> Option<String> {
        let idx = json.find(":{")? + 2;
        let comma = if json[idx..].starts_with('}') {
            ""
        } else {
            ","
        };
        Some(format!(
            "{}\"added_in_a_future_version\":[1,2,3]{comma}{}",
            &json[..idx],
            &json[idx..]
        ))
    }

    #[test]
    fn every_request_variant_roundtrips() {
        for request in all_requests() {
            let line = serde_json::to_string(&request).unwrap();
            let back: Request = serde_json::from_str(&line).unwrap();
            assert_eq!(back, request, "through {line}");
        }
    }

    #[test]
    fn every_response_variant_roundtrips() {
        for response in all_responses() {
            let line = serde_json::to_string(&response).unwrap();
            let back: Response = serde_json::from_str(&line).unwrap();
            assert_eq!(back, response, "through {line}");
        }
    }

    #[test]
    fn unknown_fields_from_newer_peers_are_tolerated() {
        // Struct-payload variants must ignore fields a newer server or
        // client adds; unit variants have no payload to extend.
        let mut exercised = 0;
        for request in all_requests() {
            let line = serde_json::to_string(&request).unwrap();
            if let Some(extended) = with_unknown_field(&line) {
                let back: Request =
                    serde_json::from_str(&extended).unwrap_or_else(|e| panic!("{extended}: {e}"));
                assert_eq!(back, request, "through {extended}");
                exercised += 1;
            }
        }
        for response in all_responses() {
            let line = serde_json::to_string(&response).unwrap();
            if let Some(extended) = with_unknown_field(&line) {
                let back: Response =
                    serde_json::from_str(&extended).unwrap_or_else(|e| panic!("{extended}: {e}"));
                assert_eq!(back, response, "through {extended}");
                exercised += 1;
            }
        }
        assert!(exercised >= 12, "only {exercised} payload variants seen");
    }

    #[test]
    fn unknown_fields_inside_a_stats_snapshot_are_tolerated() {
        // The snapshot is the widest, most version-churned payload: a
        // newer server adding a counter must not break an older client.
        let snapshot =
            crate::state::AdmissionState::new(crate::state::AdmissionConfig::new(4)).snapshot();
        let json = serde_json::to_string(&snapshot).unwrap();
        let extended = json.replacen('{', "{\"a_new_counter\":0,", 1);
        let back: crate::stats::StatsSnapshot = serde_json::from_str(&extended).unwrap();
        assert_eq!(back, snapshot);
    }

    #[test]
    fn timing_fields_stay_off_the_wire_unless_asked_for() {
        // An old server must see byte-identical admits from a new client
        // that doesn't opt in, and an old client must parse responses
        // from a server that never echoes.
        let silent = serde_json::to_string(&Request::Admit {
            task: task(),
            trace_id: None,
            echo_timing: false,
        })
        .unwrap();
        assert!(!silent.contains("echo_timing"), "through {silent}");
        let opted_in = serde_json::to_string(&Request::Admit {
            task: task(),
            trace_id: None,
            echo_timing: true,
        })
        .unwrap();
        assert!(
            opted_in.contains("\"echo_timing\":true"),
            "through {opted_in}"
        );

        let response = serde_json::to_string(&Response::Rejected {
            reason: "no".into(),
            trace_id: None,
            timing: None,
        })
        .unwrap();
        assert!(!response.contains("timing"), "through {response}");

        // A pre-timing peer's messages (no new fields at all) still parse.
        let old_admit = "{\"Admit\":{\"task\":".to_owned()
            + &serde_json::to_string(&task()).unwrap()
            + ",\"trace_id\":null}}";
        let back: Request = serde_json::from_str(&old_admit).unwrap();
        assert_eq!(
            back,
            Request::Admit {
                task: task(),
                trace_id: None,
                echo_timing: false,
            }
        );
        let old_rejected = "{\"Rejected\":{\"reason\":\"no\",\"trace_id\":null}}";
        let back: Response = serde_json::from_str(old_rejected).unwrap();
        assert_eq!(
            back,
            Response::Rejected {
                reason: "no".into(),
                trace_id: None,
                timing: None,
            }
        );
    }

    #[test]
    fn unknown_variants_are_rejected_not_misread() {
        let err = serde_json::from_str::<Request>("{\"AdmitBatch\":{\"tasks\":[]}}");
        assert!(err.is_err(), "an unknown request variant cannot parse");
        let err = serde_json::from_str::<Response>("\"Rebooting\"");
        assert!(err.is_err(), "an unknown response variant cannot parse");
    }

    #[test]
    fn blank_lines_are_skipped_and_garbage_is_invalid_data() {
        let mut framed = Vec::from(&b"\n\n"[..]);
        write_message(&mut framed, &Request::Stats).unwrap();
        let mut reader = io::BufReader::new(&framed[..]);
        let got: Request = read_message(&mut reader).unwrap().unwrap();
        assert_eq!(got, Request::Stats);

        let mut bad = io::BufReader::new(&b"{not json\n"[..]);
        let err = read_message::<Request, _>(&mut bad).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
