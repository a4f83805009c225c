//! The three server workloads: a child `fedsched serve` process driven
//! over TCP by a generator in this process (closed loop, open loop at two
//! fixed rates, capacity bisection), a single-connection verification
//! script checked against an in-process `AdmissionState`, `Stats`
//! reconciliation after every phase, and — in the traced run — echoed
//! server stages plus an in-process replay of the request script through
//! each layer's public functions.

use std::collections::BTreeSet;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fedsched_analysis::probe::AnalysisProbe;
use fedsched_core::minprocs::{intrinsic_min_procs_probed, min_procs_probed};
use fedsched_dag::graph::DagBuilder;
use fedsched_dag::task::DagTask;
use fedsched_dag::time::Duration as Ticks;
use fedsched_durable::{FsyncPolicy, LogRecord, PoolAssignment, StoreConfig};
use fedsched_gen::topology::{Span, Topology, WcetRange};
use fedsched_graham::list::{list_makespan_ranked, PriorityPolicy};
use fedsched_service::{
    AdmissionConfig, AdmissionState, Placement, Request, RequestTiming, Response, StatsSnapshot,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{Outcome, WorkloadConfig};
use crate::trace::Tracer;
use crate::util;
use crate::Args;

/// Which server workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One recurring low-density shape, WAL on.
    WarmDurable,
    /// High-density DAGs drawn from a pool larger than the cache.
    ColdDense,
    /// A near-full shared pool with random removals.
    FullChurn,
}

/// The `--fsync` policy of the durable workload.
const FSYNC_MS: u64 = 20;
/// Connections (and generator threads) per phase: one per core.
fn connections() -> usize {
    util::nproc()
}

/// Generated inputs of one server workload. The server sees only the
/// serialized requests built from these.
pub struct Inputs {
    kind: Kind,
    processors: u32,
    cache_cap: usize,
    /// Pool of tasks every admit draws from.
    tasks: Vec<DagTask>,
    /// `tasks[i]` as an untraced admit line, newline-terminated.
    admit_lines: Vec<Vec<u8>>,
    /// Cold shapes: the cluster width the benchmark's own `MINPROCS`
    /// call computes, which every admission must reproduce.
    expected_mu: Vec<Option<u32>>,
}

impl Inputs {
    pub fn generate(kind: Kind, seed: u64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0001);
        let (processors, cache_cap, tasks) = match kind {
            Kind::WarmDurable => (8, 64, vec![warm_shape(&mut rng)]),
            Kind::ColdDense => {
                let cap = 32;
                let tasks = (0..4 * cap).map(|_| dense_shape(&mut rng, 32)).collect();
                (64, cap, tasks)
            }
            Kind::FullChurn => {
                let tasks = (0..CHURN_SHAPES)
                    .map(|i| churn_shape(&mut rng, i))
                    .collect();
                (12, 64, tasks)
            }
        };
        let admit_lines = tasks
            .iter()
            .map(|t| admit_line(t, None))
            .collect::<Vec<_>>();
        let expected_mu = tasks
            .iter()
            .map(|t| {
                (kind == Kind::ColdDense)
                    .then(|| {
                        let mut probe = AnalysisProbe::default();
                        min_procs_probed(t, processors, PriorityPolicy::ListOrder, &mut probe)
                            .map(|r| r.processors)
                    })
                    .flatten()
            })
            .collect();
        Inputs {
            kind,
            processors,
            cache_cap,
            tasks,
            admit_lines,
            expected_mu,
        }
    }

    fn admission_config(&self) -> AdmissionConfig {
        AdmissionConfig::new(self.processors).with_cache_cap(self.cache_cap)
    }

    fn pick(&self, rng: &mut StdRng) -> usize {
        rng.gen_range(0..self.tasks.len())
    }
}

/// A small low-density DAG: four vertices in two layers joined by three
/// edges (so every seed sends frames of about the same size), density ¼.
fn warm_shape(rng: &mut StdRng) -> DagTask {
    loop {
        let dag = Topology::Layered {
            layers: Span::new(2, 2),
            width: Span::new(2, 2),
            edge_probability: 0.5,
        }
        .generate(rng, WcetRange::new(1, 20));
        if dag.edge_count() != 3 {
            continue;
        }
        let vol = dag.volume().ticks();
        let d = vol * 4;
        return DagTask::new(dag, Ticks::new(d), Ticks::new(d * 2)).expect("valid warm task");
    }
}

/// A high-density constrained-deadline Erdős–Rényi DAG with 40–120
/// vertices and its deadline squeezed toward the critical path. Redrawn
/// until its cluster fits within `max_mu` processors.
fn dense_shape(rng: &mut StdRng, max_mu: u32) -> DagTask {
    loop {
        let dag = Topology::ErdosRenyi {
            vertices: Span::new(40, 120),
            edge_probability: 0.045,
        }
        .generate(rng, WcetRange::new(1, 100));
        let vol = dag.volume().ticks();
        let len = dag.longest_chain().length.ticks();
        let f: f64 = rng.gen_range(0.04..0.15);
        let d = len + (f * (vol - len) as f64) as u64;
        let t = d + d / 4;
        let Ok(task) = DagTask::new(dag, Ticks::new(d), Ticks::new(t)) else {
            continue;
        };
        if !task.is_high_density() {
            continue;
        }
        let mut probe = AnalysisProbe::default();
        match min_procs_probed(&task, max_mu, PriorityPolicy::ListOrder, &mut probe) {
            Some(_) => return task,
            None => continue,
        }
    }
}

/// Distinct churn shapes (all fit the template cache).
const CHURN_SHAPES: usize = 48;

/// The churn size classes `(C, D, T)`: utilization 0.15, 0.2 and 0.25 on
/// grid-aligned periods. Every shape of a class has the same sequential
/// view, so the admission dynamics — and the work per operation — do not
/// depend on the seed; only the DAG structures and the draw order do.
const CHURN_CLASSES: [(u64, u64, u64); 3] =
    [(150, 800, 1000), (400, 1600, 2000), (1000, 3000, 4000)];

/// A low-density churn task of class `i % 3`: a random layered DAG whose
/// WCETs are re-drawn to sum exactly to the class volume.
fn churn_shape(rng: &mut StdRng, i: usize) -> DagTask {
    let (vol, d, t) = CHURN_CLASSES[i % CHURN_CLASSES.len()];
    let shape = Topology::Layered {
        layers: Span::new(2, 4),
        width: Span::new(1, 3),
        edge_probability: 0.4,
    }
    .generate(rng, WcetRange::new(1, 1));
    let n = shape.vertex_count() as u64;
    // Split `vol` into `n` positive parts at random cut points.
    let mut cuts: Vec<u64> = (0..n - 1).map(|_| rng.gen_range(1..vol)).collect();
    cuts.sort_unstable();
    let mut wcets = Vec::with_capacity(n as usize);
    let mut last = 0;
    for c in cuts.into_iter().chain([vol]) {
        wcets.push(c.saturating_sub(last).max(1));
        last = c.max(last);
    }
    let excess = wcets.iter().sum::<u64>() - vol;
    let top = wcets.iter_mut().max().expect("at least one vertex");
    *top -= excess;
    let mut b = DagBuilder::with_capacity(n as usize);
    let ids: Vec<_> = wcets.iter().map(|&w| b.add_vertex(Ticks::new(w))).collect();
    for v in shape.vertices() {
        for &s in shape.successors(v) {
            b.add_edge(ids[v.index()], ids[s.index()])
                .expect("edges of an acyclic DAG");
        }
    }
    let dag = b.build().expect("acyclic");
    DagTask::new(dag, Ticks::new(d), Ticks::new(t)).expect("valid churn task")
}

fn admit_line(task: &DagTask, trace_id: Option<u64>) -> Vec<u8> {
    let mut line = serde_json::to_string(&Request::Admit {
        task: task.clone(),
        trace_id,
        echo_timing: trace_id.is_some(),
    })
    .expect("requests serialize")
    .into_bytes();
    line.push(b'\n');
    line
}

fn remove_line(token: u64) -> Vec<u8> {
    let mut line = serde_json::to_string(&Request::Remove { token })
        .expect("requests serialize")
        .into_bytes();
    line.push(b'\n');
    line
}

/// One NDJSON connection to the server.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: String,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn {
            writer,
            reader,
            buf: String::new(),
        })
    }

    /// Sends one framed request line and reads its answer.
    pub fn call_line(&mut self, line: &[u8]) -> io::Result<Response> {
        self.writer.write_all(line)?;
        self.buf.clear();
        if self.reader.read_line(&mut self.buf)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        serde_json::from_str(self.buf.trim_end())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    pub fn stats(&mut self) -> io::Result<StatsSnapshot> {
        match self.call_line(b"\"Stats\"\n")? {
            Response::Stats { snapshot } => Ok(snapshot),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected answer to Stats: {other:?}"),
            )),
        }
    }
}

/// The child `fedsched serve` process.
pub struct ServerChild {
    child: Child,
    pub pid: u32,
    pub addr: String,
    pub flags: Vec<String>,
}

impl ServerChild {
    pub fn spawn(
        inputs: &Inputs,
        bin: &Path,
        dir: &Path,
        cpus: Option<&[usize]>,
    ) -> io::Result<ServerChild> {
        std::fs::create_dir_all(dir)?;
        let shards = cpus.map_or_else(connections, <[usize]>::len).max(1);
        let mut flags: Vec<String> = vec![
            "serve".into(),
            "-m".into(),
            inputs.processors.to_string(),
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--shards".into(),
            shards.to_string(),
            "--workers".into(),
            "1".into(),
            "--template-cache-cap".into(),
            inputs.cache_cap.to_string(),
        ];
        if inputs.kind == Kind::WarmDurable {
            flags.extend([
                "--data-dir".into(),
                dir.join("data").display().to_string(),
                "--fsync".into(),
                format!("interval:{FSYNC_MS}"),
            ]);
        }
        let log_path = dir.join("server.log");
        let log = File::create(&log_path)?;
        let mut cmd = match cpus {
            Some(cpus) => {
                let mut c = Command::new("taskset");
                c.arg("-c").arg(util::cpu_list(cpus)).arg(bin);
                c
            }
            None => Command::new(bin),
        };
        let mut child = cmd
            .args(&flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::from(log))
            .spawn()?;
        let pid = child.id();
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let text = std::fs::read_to_string(&log_path).unwrap_or_default();
            if let Some(rest) = text.split("admission server on ").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or("").to_owned();
                return Ok(ServerChild {
                    child,
                    pid,
                    addr,
                    flags,
                });
            }
            if let Ok(Some(status)) = child.try_wait() {
                return Err(io::Error::other(format!(
                    "server exited during boot ({status}): {text}"
                )));
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("server did not report its address"));
            }
            // Fine-grained, so the boot time is not rounded to the poll.
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Asks the server to shut down and waits for it, killing it if it
    /// has not exited within a few seconds.
    pub fn stop(mut self) {
        if let Ok(mut c) = Conn::connect(&self.addr) {
            let _ = c.call_line(b"\"Shutdown\"\n");
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What one phase's operations did, as the generator saw it.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub ops: u64,
    pub admits: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub high_density_admits: u64,
    pub removes: u64,
    pub removed: u64,
    pub migrated: u64,
    pub failed: u64,
    pub request_bytes: u64,
    pub shapes: BTreeSet<usize>,
    pub problems: Vec<String>,
}

impl Tally {
    fn merge(&mut self, o: Tally) {
        self.ops += o.ops;
        self.admits += o.admits;
        self.admitted += o.admitted;
        self.rejected += o.rejected;
        self.high_density_admits += o.high_density_admits;
        self.removes += o.removes;
        self.removed += o.removed;
        self.migrated += o.migrated;
        self.failed += o.failed;
        self.request_bytes += o.request_bytes;
        self.shapes.extend(o.shapes);
        for p in o.problems {
            self.problem(p);
        }
    }

    fn problem(&mut self, p: String) {
        if self.problems.len() < 8 {
            self.problems.push(p);
        }
    }

    fn fail(&mut self, p: String) {
        self.failed += 1;
        self.problem(p);
    }
}

/// The echoed server stages of one traced admit, with its client RTT.
#[derive(Debug, Clone, Copy)]
struct Echo {
    rtt_us: f64,
    timing: RequestTiming,
}

/// State shared by every connection of a phase.
struct PhaseCtx<'a> {
    inputs: &'a Inputs,
    /// Resident `(token, shape)` pairs of the churn workload, shared by
    /// all connections.
    residents: &'a Mutex<Vec<(u64, usize)>>,
    traced: bool,
}

/// Per-connection generator state.
struct Worker {
    conn: Conn,
    rng: StdRng,
    tally: Tally,
    echoes: Vec<Echo>,
    spans: Vec<(u64, Instant, Instant)>,
    next_trace: u64,
}

impl Worker {
    fn new(addr: &str, seed: u64, trace_base: u64) -> io::Result<Worker> {
        Ok(Worker {
            conn: Conn::connect(addr)?,
            rng: StdRng::seed_from_u64(seed),
            tally: Tally::default(),
            echoes: Vec::new(),
            spans: Vec::new(),
            next_trace: trace_base,
        })
    }

    /// One operation. Warm and cold: admit a task, then remove it. Churn:
    /// remove a uniformly random token of the shared resident pool, then
    /// admit a fresh task; if that admission is rejected, re-admit the
    /// removed task's shape, so the pool keeps its size near capacity.
    fn op(&mut self, ctx: &PhaseCtx<'_>) {
        self.tally.ops += 1;
        let fresh = ctx.inputs.pick(&mut self.rng);
        if ctx.inputs.kind != Kind::FullChurn {
            if let Some(token) = self.admit(ctx, fresh) {
                self.remove(token);
            }
            return;
        }
        let victim = {
            let mut pool = ctx.residents.lock().expect("resident pool lock");
            if pool.is_empty() {
                None
            } else {
                let k = self.rng.gen_range(0..pool.len());
                Some(pool.swap_remove(k))
            }
        };
        if let Some((token, _)) = victim {
            self.remove(token);
        }
        let admitted = match (self.admit(ctx, fresh), victim) {
            (Some(token), _) => Some((token, fresh)),
            (None, Some((_, shape))) => self.admit(ctx, shape).map(|t| (t, shape)),
            (None, None) => None,
        };
        if let Some(entry) = admitted {
            ctx.residents
                .lock()
                .expect("resident pool lock")
                .push(entry);
        }
    }

    /// Admits pool task `idx`; returns its token if admitted.
    fn admit(&mut self, ctx: &PhaseCtx<'_>, idx: usize) -> Option<u64> {
        let inputs = ctx.inputs;
        let trace_id = self.next_trace;
        self.next_trace += 1;
        let traced_line;
        let line: &[u8] = if ctx.traced {
            traced_line = admit_line(&inputs.tasks[idx], Some(trace_id));
            &traced_line
        } else {
            &inputs.admit_lines[idx]
        };
        self.tally.admits += 1;
        self.tally.request_bytes += line.len() as u64;
        if inputs.tasks[idx].is_high_density() {
            self.tally.high_density_admits += 1;
        }
        self.tally.shapes.insert(idx);
        let t0 = Instant::now();
        let answer = self.conn.call_line(line);
        let t1 = Instant::now();
        if ctx.traced {
            self.spans.push((trace_id, t0, t1));
        }
        match answer {
            Ok(Response::Admitted {
                token,
                placement,
                timing,
                ..
            }) => {
                self.tally.admitted += 1;
                let expected_ok = match (inputs.kind, placement) {
                    (Kind::ColdDense, Placement::Dedicated { processors, .. }) => {
                        Some(processors) == inputs.expected_mu[idx]
                    }
                    (Kind::ColdDense, _) => false,
                    (_, placement) => matches!(placement, Placement::Shared { .. }),
                };
                if !expected_ok {
                    self.tally
                        .fail(format!("admit of shape {idx} answered with {placement:?}"));
                }
                if let Some(timing) = timing {
                    self.echoes.push(Echo {
                        rtt_us: (t1 - t0).as_secs_f64() * 1e6,
                        timing,
                    });
                }
                Some(token)
            }
            Ok(Response::Rejected { .. }) => {
                self.tally.rejected += 1;
                None
            }
            Ok(other) => {
                self.tally.fail(format!("admit answered with {other:?}"));
                None
            }
            Err(e) => {
                self.tally.fail(format!("admit failed: {e}"));
                None
            }
        }
    }

    fn remove(&mut self, victim: u64) {
        self.tally.removes += 1;
        match self.conn.call_line(&remove_line(victim)) {
            Ok(Response::Removed { token, migrated }) if token == victim => {
                self.tally.removed += 1;
                self.tally.migrated += migrated;
            }
            Ok(other) => self
                .tally
                .fail(format!("remove of {victim} answered with {other:?}")),
            Err(e) => self.tally.fail(format!("remove of {victim} failed: {e}")),
        }
    }
}

fn spawn_workers(addr: &str, seed: u64, phase: u64) -> io::Result<Vec<Worker>> {
    (0..connections())
        .map(|c| {
            Worker::new(
                addr,
                seed ^ (phase << 32) ^ (c as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                (phase << 40) | ((c as u64) << 32),
            )
        })
        .collect()
}

/// Closed loop: every connection waits for each reply before its next op.
struct ClosedResult {
    ops: u64,
    secs: f64,
    server_cpu_s: f64,
    tally: Tally,
    echoes: Vec<Echo>,
    spans: Vec<(u64, Instant, Instant)>,
}

fn closed_loop(
    ctx: &PhaseCtx<'_>,
    server: &ServerChild,
    seed: u64,
    phase: u64,
    window: Duration,
) -> io::Result<ClosedResult> {
    let workers = spawn_workers(&server.addr, seed, phase)?;
    let cpu0 = util::thread_cpu_seconds(server.pid);
    let (workers, secs) = util::closed_loop(workers, window, |w, _| w.op(ctx));
    let server_cpu_s = util::thread_cpu_seconds(server.pid) - cpu0;
    let mut out = ClosedResult {
        ops: 0,
        secs,
        server_cpu_s,
        tally: Tally::default(),
        echoes: Vec::new(),
        spans: Vec::new(),
    };
    for (w, _) in workers {
        out.echoes.extend(w.echoes);
        out.spans.extend(w.spans);
        out.tally.merge(w.tally);
    }
    out.ops = out.tally.ops;
    Ok(out)
}

/// Open loop: Poisson arrivals from one pre-computed schedule per
/// connection, each op timed from its intended start.
struct OpenResult {
    run: util::OpenRun,
    tally: Tally,
}

fn open_loop(
    ctx: &PhaseCtx<'_>,
    server: &ServerChild,
    seed: u64,
    phase: u64,
    rate: f64,
    window: Duration,
    slo: Duration,
) -> io::Result<OpenResult> {
    let workers = spawn_workers(&server.addr, seed, phase)?;
    let n = workers.len();
    let mut sched_rng = StdRng::seed_from_u64(seed ^ (phase << 20) ^ 0xa11a);
    let schedules: Vec<Vec<u64>> = (0..n)
        .map(|_| util::poisson_schedule(&mut sched_rng, rate / n as f64, window))
        .collect();
    let (workers, run) = util::open_loop(workers, &schedules, window, slo, |w, _| w.op(ctx));
    let mut tally = Tally::default();
    for w in workers {
        tally.merge(w.tally);
    }
    Ok(OpenResult { run, tally })
}

/// Builds the response the server must give, from the in-process
/// reference engine.
fn reference_answer(state: &mut AdmissionState, request: &Request) -> Response {
    match request {
        Request::Admit { task, .. } => match state.admit(task.clone()) {
            Ok(a) => Response::Admitted {
                token: a.token,
                placement: a.placement,
                cache_hit: a.cache_hit,
                trace_id: None,
                timing: None,
            },
            Err(reason) => Response::Rejected {
                reason: reason.to_string(),
                trace_id: None,
                timing: None,
            },
        },
        Request::Remove { token } => match state.remove(*token) {
            Ok(r) => Response::Removed {
                token: r.token,
                migrated: r.migrated,
            },
            Err(_) => Response::NotFound { token: *token },
        },
        other => unreachable!("scripts send only admits and removes, not {other:?}"),
    }
}

/// The deterministic single-connection script: the churn prefill, then
/// `ops` operations shaped like [`Worker::op`]. `step` answers each request (from the
/// server, an in-process engine, or both) and the answer decides the next
/// request. Returns the number of requests sent.
fn run_script(
    inputs: &Inputs,
    seed: u64,
    ops: usize,
    mut step: impl FnMut(&Request, &[u8]) -> Response,
) -> usize {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x005c_4197);
    let mut residents: Vec<(u64, usize)> = Vec::new();
    let mut requests = 0;
    let mut send = |request: Request, line: &[u8]| {
        requests += 1;
        step(&request, line)
    };
    let admit = |idx: usize| Request::Admit {
        task: inputs.tasks[idx].clone(),
        trace_id: None,
        echo_timing: false,
    };
    let churn = inputs.kind == Kind::FullChurn;
    if churn {
        // Fill to a fixed resident count near capacity (giving up after a
        // long run of rejections, should it be unreachable). The size
        // classes take turns, so the prefill admits and rejects the same
        // sequential views for every seed, and costs the same.
        let mut streak = 0;
        let classes = CHURN_CLASSES.len();
        for turn in 0.. {
            if residents.len() >= PREFILL || streak >= PREFILL_STREAK {
                break;
            }
            let idx = classes * rng.gen_range(0..CHURN_SHAPES / classes) + turn % classes;
            match send(admit(idx), &inputs.admit_lines[idx]) {
                Response::Admitted { token, .. } => {
                    residents.push((token, idx));
                    streak = 0;
                }
                _ => streak += 1,
            }
        }
    }
    // The same operations as `Worker::op`, on a single connection.
    for _ in 0..ops {
        let fresh = inputs.pick(&mut rng);
        let victim = (churn && !residents.is_empty()).then(|| {
            let k = rng.gen_range(0..residents.len());
            residents.swap_remove(k)
        });
        if let Some((token, _)) = victim {
            send(Request::Remove { token }, &remove_line(token));
        }
        let mut placed = None;
        for idx in [Some(fresh), victim.map(|(_, shape)| shape)]
            .into_iter()
            .flatten()
        {
            if let Response::Admitted { token, .. } = send(admit(idx), &inputs.admit_lines[idx]) {
                placed = Some((token, idx));
                break;
            }
        }
        match placed {
            Some(entry) if churn => residents.push(entry),
            Some((token, _)) => {
                send(Request::Remove { token }, &remove_line(token));
            }
            None => {}
        }
    }
    requests
}

/// Residents the churn prefill admits: the work per operation grows
/// with it, so it is fixed rather than found by filling to saturation.
const PREFILL: usize = 44;
/// The prefill gives up after this many consecutive rejections.
const PREFILL_STREAK: usize = 64;
/// Measurement rounds per run: short windows spread over the whole run,
/// so a burst of host noise disturbs a few rounds rather than a metric.
pub const ROUNDS: usize = 10;
/// Operations in the single-connection verification script.
const VERIFY_OPS: usize = 150;

/// One set-up, timed: generates the inputs, boots a server and, for
/// churn, pre-fills it, checking every prefill answer against the
/// reference engine. Returns the seconds it took, the inputs, the server
/// and the resident count after the prefill.
fn setup_once(
    kind: Kind,
    bin: &Path,
    dir: &Path,
    cpus: Option<&[usize]>,
    seed: u64,
    tally: &mut Tally,
) -> io::Result<(f64, Inputs, ServerChild, u64)> {
    let t = Instant::now();
    let inputs = Inputs::generate(kind, seed);
    let server = ServerChild::spawn(&inputs, bin, dir, cpus)?;
    let mut conn = Conn::connect(&server.addr)?;
    let mut state = AdmissionState::new(inputs.admission_config());
    run_script(&inputs, seed, 0, |request, line| {
        let expected = reference_answer(&mut state, request);
        check_answer(&mut conn, line, expected, tally)
    });
    let resident = conn.stats()?.resident_tasks;
    Ok((t.elapsed().as_secs_f64(), inputs, server, resident))
}

/// Sends one scripted line and compares the server's answer with the
/// reference answer; returns the reference answer so the script goes on.
fn check_answer(conn: &mut Conn, line: &[u8], expected: Response, tally: &mut Tally) -> Response {
    tally.ops += 1;
    match conn.call_line(line) {
        Ok(got) if got == expected => {}
        Ok(got) => tally.fail(format!("verification: expected {expected:?}, got {got:?}")),
        Err(e) => tally.fail(format!("verification: {e}")),
    }
    expected
}

/// `Stats` deltas around a phase, reconciled against the generator's
/// own tally. Each broken identity counts as one failure.
fn reconcile(
    inputs: &Inputs,
    phase: &str,
    before: &StatsSnapshot,
    after: &StatsSnapshot,
    tally: &Tally,
    new_shapes: u64,
    residents: u64,
) -> Vec<String> {
    let d = |a: u64, b: u64| a.saturating_sub(b);
    let admitted = d(
        after.admitted_high + after.admitted_low,
        before.admitted_high + before.admitted_low,
    );
    let rejected = d(
        after.rejected_high + after.rejected_low,
        before.rejected_high + before.rejected_low,
    );
    let removed = d(after.removed, before.removed);
    let misses = d(after.cache_misses, before.cache_misses);
    let hits = d(after.cache_hits, before.cache_hits);
    let compute_misses: u64 = after.shards.iter().map(|s| s.compute_misses).sum::<u64>()
        - before.shards.iter().map(|s| s.compute_misses).sum::<u64>();
    let mut bad = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            bad.push(format!("{phase}: {what}"));
        }
    };
    check(
        admitted == tally.admitted,
        format!(
            "server admitted {admitted}, generator saw {}",
            tally.admitted
        ),
    );
    check(
        rejected == tally.rejected,
        format!(
            "server rejected {rejected}, generator saw {}",
            tally.rejected
        ),
    );
    check(
        admitted + rejected == tally.admits,
        format!("admitted + rejected != {} admits sent", tally.admits),
    );
    check(
        removed == tally.removes,
        format!("server removed {removed}, removes sent {}", tally.removes),
    );
    check(
        after.resident_tasks == residents,
        format!(
            "{} resident after the phase, expected {residents}",
            after.resident_tasks
        ),
    );
    check(
        hits + misses == tally.high_density_admits,
        format!(
            "cache hits {hits} + misses {misses} != high-density admits {}",
            tally.high_density_admits
        ),
    );
    match inputs.kind {
        Kind::ColdDense => check(
            misses >= new_shapes,
            format!("{misses} cache misses < {new_shapes} new shapes"),
        ),
        _ => check(
            compute_misses == new_shapes,
            format!("{compute_misses} compute-cache misses != {new_shapes} new shapes"),
        ),
    }
    if inputs.kind == Kind::WarmDurable {
        // One record per decision and per cache insert, plus one marker
        // per snapshot.
        let records = d(
            after.durability.wal_records_appended,
            before.durability.wal_records_appended,
        );
        let markers = d(
            after.durability.snapshots_written,
            before.durability.snapshots_written,
        );
        check(
            records == tally.admits + tally.removes + misses + markers,
            format!(
                "{records} WAL records != {} decisions + {markers} snapshot markers",
                tally.admits + tally.removes
            ),
        );
    }
    bad
}

/// Runs one server workload end to end and fills `out`.
#[allow(clippy::too_many_lines)]
pub fn run(
    kind: Kind,
    cfg: &WorkloadConfig,
    args: &Args,
    bin: &Path,
    run_dir: &Path,
    out: &mut Outcome,
) -> io::Result<()> {
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    // Pin the server and the generator to disjoint CPUs when we can.
    let cpus = util::allowed_cpus();
    let pinned = cpus.len() >= 2 && util::on_path("taskset");
    let (server_cpus, gen_cpus) = if pinned {
        let half = cpus.len() / 2;
        (Some(cpus[..half].to_vec()), Some(cpus[half..].to_vec()))
    } else {
        (None, None)
    };
    if let Some(g) = &gen_cpus {
        let status = Command::new("taskset")
            .args([
                "-a",
                "-p",
                "-c",
                &util::cpu_list(g),
                &std::process::id().to_string(),
            ])
            .stdout(Stdio::null())
            .status()?;
        if !status.success() {
            return Err(io::Error::other("taskset could not pin the generator"));
        }
    }
    out.prov(
        "server_cpus",
        server_cpus
            .as_deref()
            .map_or("unpinned".into(), util::cpu_list),
    );
    out.prov(
        "generator_cpus",
        gen_cpus
            .as_deref()
            .map_or("unpinned".into(), util::cpu_list),
    );
    out.prov("connections", connections().to_string());

    // Set-up: inputs, server boot, prefill. The untraced run repeats it
    // before every round on a spare server that is torn down again, so
    // the set-up times sample the whole run, not one moment of it.
    let mut setup_tally = Tally::default();
    let (t, inputs, server, prefill) = setup_once(
        kind,
        bin,
        &run_dir.join("setup"),
        server_cpus.as_deref(),
        seed,
        &mut setup_tally,
    )?;
    let mut setup_times = vec![t];
    out.phase("setup", &setup_tally);
    let spare_setup = |round: usize, out: &mut Outcome| -> io::Result<f64> {
        let dir = run_dir.join(format!("setup{round}"));
        let mut tally = Tally::default();
        let (t, _, spare, _) =
            setup_once(kind, bin, &dir, server_cpus.as_deref(), seed, &mut tally)?;
        spare.stop();
        let _ = std::fs::remove_dir_all(&dir);
        out.phase("setup", &tally);
        Ok(t)
    };
    out.prov("server_flags", server.flags.join(" "));
    out.prov("prefill_residents", prefill.to_string());
    out.prov("shape_pool", inputs.tasks.len().to_string());
    out.prov(
        "admit_frame_bytes_mean",
        format!(
            "{:.0}",
            util::mean(
                &inputs
                    .admit_lines
                    .iter()
                    .map(|l| l.len() as f64)
                    .collect::<Vec<_>>()
            )
        ),
    );
    let mut control = Conn::connect(&server.addr)?;
    let residents = Mutex::new(Vec::<(u64, usize)>::new());
    // Shapes the server's caches have seen so far.
    let mut seen: BTreeSet<usize> = BTreeSet::new();

    // Verification: the script on a fresh connection, every answer checked
    // against an in-process engine replaying the same script. Its prefix
    // (the churn prefill) is already applied on the server, so only the
    // reference engine runs it.
    {
        let before = control.stats()?;
        let mut tally = Tally::default();
        let mut state = AdmissionState::new(inputs.admission_config());
        let mut conn = Conn::connect(&server.addr)?;
        let mut shapes = BTreeSet::new();
        let mut skip = prefill_requests(&inputs, seed);
        run_script(&inputs, seed, VERIFY_OPS, |request, line| {
            let expected = reference_answer(&mut state, request);
            let shape = match request {
                Request::Admit { task, .. } => inputs.tasks.iter().position(|t| t == task),
                _ => None,
            };
            if skip > 0 {
                skip -= 1;
                seen.extend(shape);
                return expected;
            }
            shapes.extend(shape);
            match (request, &expected) {
                (Request::Admit { task, .. }, answer) => {
                    tally.admits += 1;
                    if task.is_high_density() {
                        tally.high_density_admits += 1;
                    }
                    match answer {
                        Response::Admitted { .. } => tally.admitted += 1,
                        _ => tally.rejected += 1,
                    }
                }
                _ => {
                    tally.removes += 1;
                    tally.removed += 1;
                }
            }
            check_answer(&mut conn, line, expected, &mut tally)
        });
        let after = control.stats()?;
        let new_shapes = shapes.difference(&seen).count() as u64;
        seen.extend(shapes);
        let resident = state.resident().len() as u64;
        for p in reconcile(
            &inputs, "verify", &before, &after, &tally, new_shapes, resident,
        ) {
            tally.fail(p);
        }
        // The churn pool: exactly the residents the server now holds.
        *residents.lock().expect("resident pool lock") = state
            .resident()
            .iter()
            .map(|(t, task)| {
                let shape = inputs.tasks.iter().position(|x| x == *task);
                (*t, shape.expect("residents come from the shape pool"))
            })
            .collect();
        out.phase("verify", &tally);
    }

    let slo = Duration::from_secs_f64(cfg.slo_p99_us / 1e6);
    let secs = |f: f64| Duration::from_secs_f64((seconds * f).max(0.2));
    let mut phase_no = 1u64;
    // Runs one phase between two `Stats` snapshots and reconciles it.
    let mut measured = |name: &str,
                        out: &mut Outcome,
                        f: &mut dyn FnMut(u64) -> io::Result<Tally>|
     -> io::Result<(StatsSnapshot, StatsSnapshot)> {
        phase_no += 1;
        let before = control.stats()?;
        let mut tally = f(phase_no)?;
        let after = control.stats()?;
        let new_shapes = tally.shapes.difference(&seen).count() as u64;
        seen.extend(tally.shapes.iter().copied());
        // The server must hold exactly the generator's resident pool.
        let resident = residents.lock().expect("resident pool lock").len() as u64;
        for p in reconcile(&inputs, name, &before, &after, &tally, new_shapes, resident) {
            tally.fail(p);
        }
        out.phase(name, &tally);
        Ok((before, after))
    };

    let untraced = PhaseCtx {
        inputs: &inputs,
        residents: &residents,
        traced: false,
    };
    let traced_ctx = PhaseCtx {
        inputs: &inputs,
        residents: &residents,
        traced: true,
    };

    // Warm-up: caches, allocator and connection plane settle.
    measured("warmup", out, &mut |p| {
        Ok(closed_loop(&untraced, &server, seed, p, secs(0.03))?.tally)
    })?;

    if !trace {
        // End to end: closed-loop rounds.
        let (mut tp, mut cpu, mut ops) = (Vec::new(), Vec::new(), 0);
        for round in 0..ROUNDS {
            setup_times.push(spare_setup(round, out)?);
            let mut closed = None;
            measured("closed", out, &mut |p| {
                let r = closed_loop(&untraced, &server, seed, p, secs(0.9 / ROUNDS as f64))?;
                let t = r.tally.clone();
                closed = Some(r);
                Ok(t)
            })?;
            let closed = closed.expect("closed phase ran");
            tp.push(closed.ops as f64 / closed.secs);
            cpu.push(closed.server_cpu_s * 1e6 / closed.ops.max(1) as f64);
            ops += closed.ops;
        }
        out.rounds("throughput_ops_s", &tp);
        out.rounds("cpu_us_per_op", &cpu);
        // The best round, not the median: host interference only ever
        // slows a round down, so the least-disturbed round is the
        // steadiest estimate of the program's own speed.
        out.metric(
            "throughput_ops_s",
            tp.iter().copied().fold(0.0, f64::max),
            "1/s",
        );
        out.metric(
            "cpu_us_per_op",
            cpu.iter().copied().fold(f64::INFINITY, f64::min),
            "us",
        );
        out.samples("closed", ops);
        out.metric("peak_rss_mb", util::peak_rss_mb(server.pid), "MB");
    } else {
        // Open-loop latency at the two frozen rates, and capacity at the
        // SLO. Reported with the per-layer metrics, not gated: on a shared
        // host their run-to-run spread exceeds any usable bound.
        let mut lat: [(Vec<f64>, Vec<f64>); 2] = Default::default();
        let mut samples = [0u64; 2];
        let mut bisect = util::Bisect::new(cfg.light_rps, 2.5 * cfg.heavy_rps);
        for _ in 0..ROUNDS {
            for (k, (label, rate)) in [("light", cfg.light_rps), ("heavy", cfg.heavy_rps)]
                .into_iter()
                .enumerate()
            {
                let mut result = None;
                measured(label, out, &mut |p| {
                    let r = open_loop(
                        &untraced,
                        &server,
                        seed,
                        p,
                        rate,
                        secs(0.15 / ROUNDS as f64),
                        slo,
                    )?;
                    let t = r.tally.clone();
                    result = Some(r);
                    Ok(t)
                })?;
                let r = result.expect("open phase ran");
                lat[k].0.push(util::quantile(&r.run.latency_us, 0.5));
                lat[k].1.push(util::quantile(&r.run.latency_us, 0.99));
                samples[k] += r.run.latency_us.len() as u64;
            }
            // One bisection probe per round, judged by its own window (p99
            // within the SLO, on-time completions, generator lag), never by
            // completions after the window closed.
            let rate = bisect.rate();
            let mut judged = (false, 0.0);
            measured("capacity", out, &mut |p| {
                let r = open_loop(
                    &untraced,
                    &server,
                    seed,
                    p,
                    rate,
                    secs(0.25 / ROUNDS as f64),
                    slo,
                )?;
                judged = (
                    r.run.passes(cfg.slo_p99_us),
                    util::quantile(&r.run.latency_us, 0.99),
                );
                Ok(r.tally)
            })?;
            bisect.record(judged.0, judged.1);
        }
        for (k, label) in ["light", "heavy"].into_iter().enumerate() {
            out.rounds(&format!("p50_us_{label}"), &lat[k].0);
            out.rounds(&format!("p99_us_{label}"), &lat[k].1);
            out.metric(&format!("p50_us_{label}"), util::median(&lat[k].0), "us");
            out.metric(&format!("p99_us_{label}"), util::median(&lat[k].1), "us");
            out.samples(label, samples[k]);
        }
        out.metric("capacity_rps", bisect.estimate(cfg.slo_p99_us), "1/s");

        // Part 1: the live workload again, untraced then traced, for the
        // tracing overhead, the echoed server stages and counter deltas.
        let mut plain = None;
        measured("closed-untraced", out, &mut |p| {
            let r = closed_loop(&untraced, &server, seed, p, secs(0.1))?;
            let t = r.tally.clone();
            plain = Some(r);
            Ok(t)
        })?;
        let plain = plain.expect("phase ran");
        let mut client_tracer = Tracer::new();
        let mut traced = None;
        let (before, after) = measured("closed-traced", out, &mut |p| {
            let r = closed_loop(&traced_ctx, &server, seed, p, secs(0.1))?;
            let t = r.tally.clone();
            traced = Some(r);
            Ok(t)
        })?;
        let traced = traced.expect("phase ran");
        for &(id, a, b) in &traced.spans {
            client_tracer.record("client.admit", id, a, b);
        }
        let plain_tp = plain.ops as f64 / plain.secs;
        let traced_tp = traced.ops as f64 / traced.secs;
        out.metric(
            "trace_overhead_ratio",
            util::ratio(plain_tp, traced_tp),
            "ratio",
        );
        let ops = traced.ops.max(1) as f64;
        let e = &traced.echoes;
        let stage = |f: fn(&RequestTiming) -> u64| {
            util::mean(&e.iter().map(|x| f(&x.timing) as f64).collect::<Vec<_>>())
        };
        out.metric("server.frame_read_us", stage(|t| t.read_us), "us");
        out.metric("server.parse_us", stage(|t| t.parse_us), "us");
        out.metric("server.cache_us", stage(|t| t.cache_us), "us");
        let analysis_us = stage(|t| t.analysis_us);
        out.metric("server.analysis_us", analysis_us, "us");
        out.metric("server.wal_us", stage(|t| t.wal_us), "us");
        let residual = util::mean(
            &e.iter()
                .map(|x| {
                    let t = &x.timing;
                    x.rtt_us
                        - (t.read_us + t.parse_us + t.cache_us + t.analysis_us + t.wal_us) as f64
                })
                .collect::<Vec<_>>(),
        );
        out.metric("server.residual_us", residual, "us");
        let sum = |s: &StatsSnapshot, f: fn(&fedsched_service::ShardStatsSnapshot) -> u64| {
            s.shards.iter().map(f).sum::<u64>() as f64
        };
        out.metric(
            "reactor.wakeups_per_op",
            (sum(&after, |s| s.reactor_wakeups) - sum(&before, |s| s.reactor_wakeups)) / ops,
            "1/op",
        );
        out.metric(
            "reactor.ready_events_per_op",
            (sum(&after, |s| s.reactor_ready_events) - sum(&before, |s| s.reactor_ready_events))
                / ops,
            "1/op",
        );
        let hits = sum(&after, |s| s.compute_hits) - sum(&before, |s| s.compute_hits);
        let misses = sum(&after, |s| s.compute_misses) - sum(&before, |s| s.compute_misses);
        let evictions =
            sum(&after, |s| s.compute_evictions) - sum(&before, |s| s.compute_evictions);
        out.metric("cache.hit_ratio", util::ratio(hits, hits + misses), "ratio");
        out.metric("cache.hits", hits, "count");
        out.metric("cache.misses", misses, "count");
        out.metric("cache.evictions_per_op", evictions / ops, "1/op");
        let t = &traced.tally;
        out.metric(
            "state.migrated_per_remove",
            util::ratio(t.migrated as f64, t.removes as f64),
            "1/op",
        );
        out.metric(
            "state.reject_ratio",
            util::ratio(t.rejected as f64, t.admits as f64),
            "ratio",
        );
        out.metric(
            "protocol.request_bytes",
            util::ratio(t.request_bytes as f64, t.admits as f64),
            "B",
        );
        let dur = &after.durability;
        let dur0 = &before.durability;
        out.metric(
            "wal.fsyncs_per_s",
            (dur.wal_fsyncs - dur0.wal_fsyncs) as f64 / traced.secs,
            "1/s",
        );
        out.metric(
            "wal.snapshots",
            (dur.snapshots_written - dur0.snapshots_written) as f64,
            "count",
        );

        let mut light = None;
        measured("light-traced", out, &mut |p| {
            let r = open_loop(&traced_ctx, &server, seed, p, cfg.light_rps, secs(0.1), slo)?;
            let t = r.tally.clone();
            light = Some(r);
            Ok(t)
        })?;
        let light = light.expect("phase ran");
        out.metric(
            "gen.lag_us_p99",
            util::quantile(&light.run.lag_us, 0.99),
            "us",
        );
        out.metric(
            "gen.cpu_us_per_op",
            light.run.gen_cpu_s * 1e6 / light.tally.ops.max(1) as f64,
            "us",
        );

        // Part 2: the in-process single-threaded replay, twice; the exact
        // counters must agree between the two.
        let a = replay(&inputs, seed, cfg.replay_ops, &run_dir.join("replay-a"))?;
        let b = replay(&inputs, seed, cfg.replay_ops, &run_dir.join("replay-b"))?;
        if a.exact != b.exact {
            out.fail(format!(
                "exact counters differ between two replays: {:?} vs {:?}",
                a.exact, b.exact
            ));
        }
        let totals = a.tracer.totals();
        let get = |n: &str| totals.get(n).copied().unwrap_or_default();
        out.metric("protocol.decode_us", get("protocol.decode").mean_us(), "us");
        out.metric("protocol.encode_us", get("protocol.encode").mean_us(), "us");
        let admit_us = get("state.admit").mean_us();
        out.metric("state.admit_us", admit_us, "us");
        out.metric("state.remove_us", get("state.remove").mean_us(), "us");
        out.metric("state.lock_wait_us", analysis_us - admit_us, "us");
        out.metric("minprocs.sizing_us", get("minprocs.sizing").mean_us(), "us");
        out.metric("graham.ls_run_us", get("graham.ls_run").mean_us(), "us");
        out.metric("wal.append_us", get("wal.append").mean_us(), "us");
        out.metric("replay.op_self_us", get("op").mean_self_us(), "us");
        for (name, value) in &a.exact {
            out.metric(name, *value, "exact/op");
        }
        out.prov("replay_ops", cfg.replay_ops.to_string());
        out.spans(&client_tracer, "live");
        out.spans(&a.tracer, "replay");
    }
    // The fastest set-up: host interference only ever slows one down.
    out.rounds("setup_s", &setup_times);
    out.metric(
        "setup_s",
        setup_times.iter().copied().fold(f64::INFINITY, f64::min),
        "s",
    );
    drop(control);
    server.stop();
    Ok(())
}

/// Requests the churn prefill issues (zero for the other workloads).
fn prefill_requests(inputs: &Inputs, seed: u64) -> usize {
    let mut state = AdmissionState::new(inputs.admission_config());
    run_script(inputs, seed, 0, |request, _| {
        reference_answer(&mut state, request)
    })
}

struct Replay {
    tracer: Tracer,
    /// Exact counters: `(metric name, value)`.
    exact: Vec<(String, f64)>,
}

/// Replays the script in-process, single-threaded, through the public
/// functions of each layer: wire decode, `AdmissionState::admit` /
/// `remove`, response encode and (for the durable workload)
/// `DurableStore::append`. Every distinct high-density shape is also sized
/// through `intrinsic_min_procs_probed`, as the server sizes it, and its
/// template re-run with `list_makespan_ranked`.
/// The churn prefill is applied first, untraced.
#[allow(clippy::too_many_lines)]
fn replay(inputs: &Inputs, seed: u64, ops: usize, dir: &Path) -> io::Result<Replay> {
    let _ = std::fs::remove_dir_all(dir);
    let mut store = if inputs.kind == Kind::WarmDurable {
        let mut config = StoreConfig::new(dir);
        config.fsync = FsyncPolicy::Interval(Duration::from_millis(FSYNC_MS));
        Some(fedsched_durable::DurableStore::open(config)?.0)
    } else {
        None
    };
    let mut untraced = prefill_requests(inputs, seed);
    let mut tracer = Tracer::new();
    let mut state = AdmissionState::new(inputs.admission_config());
    let mut probe_before = *state.probe();
    let mut decisions = 0u64;
    let mut io_error = None;
    let mut shapes = BTreeSet::new();
    run_script(inputs, seed, ops, |request, line| {
        if untraced > 0 {
            untraced -= 1;
            let answer = reference_answer(&mut state, request);
            probe_before = *state.probe();
            return answer;
        }
        decisions += 1;
        let trace_id = decisions;
        let root = tracer.begin("op", trace_id, None);
        let text = std::str::from_utf8(line).expect("utf-8 line").trim_end();
        let decoded: Request = tracer.span("protocol.decode", trace_id, Some(root), || {
            serde_json::from_str(text).expect("own request decodes")
        });
        let (response, record) = match decoded {
            Request::Admit { task, .. } => {
                shapes.extend(inputs.tasks.iter().position(|t| *t == task));
                let journaled = store.is_some().then(|| task.clone());
                let result = tracer.span("state.admit", trace_id, Some(root), || state.admit(task));
                let record = journaled.map(|task| match &result {
                    Ok(a) => LogRecord::Admit {
                        token: a.token,
                        task,
                        placement: match a.placement {
                            Placement::Shared { processor } => PoolAssignment::Shared {
                                processor: u64::from(processor - state.dedicated_processors()),
                            },
                            Placement::Dedicated {
                                first_processor,
                                processors,
                            } => PoolAssignment::Dedicated {
                                first_processor,
                                processors,
                            },
                        },
                        cache_hit: a.cache_hit,
                        sizing: None,
                    },
                    Err(_) => LogRecord::Reject {
                        high_density: task.is_high_density(),
                        task,
                        cache_hit: false,
                    },
                });
                let response = match result {
                    Ok(a) => Response::Admitted {
                        token: a.token,
                        placement: a.placement,
                        cache_hit: a.cache_hit,
                        trace_id: None,
                        timing: None,
                    },
                    Err(r) => Response::Rejected {
                        reason: r.to_string(),
                        trace_id: None,
                        timing: None,
                    },
                };
                (response, record)
            }
            Request::Remove { token } => {
                let anomalies = state.stats().remove_anomalies;
                let result =
                    tracer.span("state.remove", trace_id, Some(root), || state.remove(token));
                let record = store.is_some().then(|| LogRecord::Depart {
                    token,
                    anomaly: state.stats().remove_anomalies > anomalies,
                });
                let response = match result {
                    Ok(r) => Response::Removed {
                        token: r.token,
                        migrated: r.migrated,
                    },
                    Err(_) => Response::NotFound { token },
                };
                (response, record)
            }
            other => unreachable!("script sent {other:?}"),
        };
        let wire = tracer.span("protocol.encode", trace_id, Some(root), || {
            serde_json::to_string(&response).expect("responses encode")
        });
        std::hint::black_box(wire);
        if let (Some(store), Some(record)) = (store.as_mut(), record) {
            if let Err(e) =
                tracer.span("wal.append", trace_id, Some(root), || store.append(&record))
            {
                io_error = Some(e);
            }
            if store.should_snapshot() {
                let persisted = state.export();
                if let Err(e) = tracer.span("wal.snapshot", trace_id, Some(root), || {
                    store.install_snapshot(&persisted)
                }) {
                    io_error = Some(e);
                }
            }
        }
        tracer.end(root);
        response
    });
    if let Some(e) = io_error {
        return Err(e);
    }
    let probe = *state.probe();
    let n = decisions.max(1) as f64;
    let mut exact = vec![
        (
            "analysis.dbf_evals_per_op".to_owned(),
            (probe.dbf_approx_evals - probe_before.dbf_approx_evals) as f64 / n,
        ),
        (
            "analysis.fits_calls_per_op".to_owned(),
            (probe.fits_calls - probe_before.fits_calls) as f64 / n,
        ),
    ];
    // Every distinct high-density shape the script admitted, sized once
    // more through the server's MINPROCS entry point and its LS kernel.
    // Low-density shapes are never sized.
    let mut sizing = AnalysisProbe::default();
    let mut sized = 0u64;
    for &i in &shapes {
        let task = &inputs.tasks[i];
        if !task.is_high_density() {
            continue;
        }
        sized += 1;
        let result = tracer.span("minprocs.sizing", i as u64, None, || {
            intrinsic_min_procs_probed(task, PriorityPolicy::ListOrder, &mut sizing)
        });
        if let Some(r) = result {
            let dag = task.dag();
            let ranks = PriorityPolicy::ListOrder.ranks(dag);
            let makespan = tracer.span("graham.ls_run", i as u64, None, || {
                list_makespan_ranked(dag, r.processors, &ranks, dag.wcets())
            });
            std::hint::black_box(makespan);
        }
    }
    let s = sized.max(1) as f64;
    exact.push((
        "minprocs.ls_runs_per_sizing".to_owned(),
        sizing.ls_runs as f64 / s,
    ));
    exact.push((
        "minprocs.ls_runs_pruned_per_sizing".to_owned(),
        sizing.ls_runs_pruned as f64 / s,
    ));
    let wal_bytes = store.as_ref().map_or(0.0, |st| {
        let w = st.wal_stats();
        util::ratio(w.bytes_appended as f64, w.records_appended as f64)
    });
    exact.push(("wal.bytes_per_decision".to_owned(), wal_bytes));
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    Ok(Replay { tracer, exact })
}

/// Where the server binary lives: `FEDSCHED_BIN`, else the release build
/// under the cargo target directory.
pub fn server_binary() -> PathBuf {
    if let Some(p) = std::env::var_os("FEDSCHED_BIN") {
        return PathBuf::from(p);
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    target.join("release").join("fedsched")
}
