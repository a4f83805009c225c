//! The in-process `batch-fedcons` workload: pre-generated mixed-density
//! constrained-deadline systems across a normalized-utilization sweep,
//! analysed one after another by `fedcons`, with its phase-1 fan-out on a
//! `fedsched_parallel` pool of width `nproc`. Every verdict is checked
//! against an independent oracle: the literal Fig. 3 `MINPROCS` loop plus
//! `partition_first_fit`.

use std::time::{Duration, Instant};

use fedsched_analysis::dbf::SequentialView;
use fedsched_analysis::partition::{partition_first_fit, Partition};
use fedsched_analysis::probe::AnalysisProbe;
use fedsched_core::fedcons::{
    fedcons, fedcons_probed, FedConsConfig, FedConsFailure, FederatedSchedule,
};
use fedsched_core::minprocs::intrinsic_min_procs_probed;
use fedsched_dag::system::{TaskId, TaskSystem};
use fedsched_gen::params::DeadlineTightness;
use fedsched_gen::system::SystemConfig;
use fedsched_gen::topology::{Span, Topology};
use fedsched_graham::list::{list_makespan_ranked, list_schedule_with, PriorityPolicy};
use fedsched_parallel::Pool;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{Outcome, WorkloadConfig};
use crate::trace::Tracer;
use crate::util;
use crate::Args;

/// Platform size of every system.
const M: u32 = 8;
/// Systems per normalized-utilization point, and the points.
const PER_POINT: usize = 8;
const POINTS: usize = 20;

/// A verdict in comparable form: the cluster widths and the shared
/// partition, or a rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Verdict {
    Accept(Vec<u32>, Partition),
    Reject,
}

fn verdict_of(result: &Result<FederatedSchedule, FedConsFailure>) -> Verdict {
    match result {
        Ok(s) => Verdict::Accept(
            s.clusters().iter().map(|c| c.processors).collect(),
            s.partition().clone(),
        ),
        Err(_) => Verdict::Reject,
    }
}

/// The literal Fig. 2/3 procedure: for each high-density task, the
/// smallest `μ` (counting up from 1) whose LS makespan meets the deadline
/// within the remaining processors, then first-fit of the rest.
fn oracle(system: &TaskSystem, m: u32) -> Verdict {
    let mut remaining = m;
    let mut widths = Vec::new();
    for id in system.high_density_ids() {
        let task = system.task(id);
        let fit = (1..=remaining).find(|&mu| {
            list_schedule_with(task.dag(), mu, PriorityPolicy::ListOrder).makespan()
                <= task.deadline()
        });
        match fit {
            Some(mu) => {
                widths.push(mu);
                remaining -= mu;
            }
            None => return Verdict::Reject,
        }
    }
    let views: Vec<(TaskId, SequentialView)> = system
        .low_density_ids()
        .into_iter()
        .map(|id| (id, SequentialView::of(system.task(id))))
        .collect();
    match partition_first_fit(
        &views,
        remaining as usize,
        FedConsConfig::default().partition,
    ) {
        Ok(p) => Verdict::Accept(widths, p),
        Err(_) => Verdict::Reject,
    }
}

/// The systems: E3's generator shape (ten layered DAG tasks, per-task
/// utilization up to 2, deadlines in `[len, T]` from 0.2 of the window)
/// over normalized utilizations 0.05 … 1.0 of `M` processors.
fn generate(seed: u64) -> Vec<TaskSystem> {
    let mut systems = Vec::new();
    for point in 0..POINTS {
        let u = M as f64 * (point + 1) as f64 / POINTS as f64;
        let cfg = SystemConfig::new(10, u)
            .with_max_task_utilization(2.0)
            .with_topology(Topology::Layered {
                layers: Span::new(2, 5),
                width: Span::new(1, 5),
                edge_probability: 0.3,
            })
            .with_tightness(DeadlineTightness::new(0.2, 1.0));
        let mut rng = StdRng::seed_from_u64(seed ^ ((point as u64 + 1) << 24));
        let mut made = 0;
        while made < PER_POINT {
            if let Some(s) = cfg.generate(&mut rng) {
                systems.push(s);
                made += 1;
            }
        }
    }
    systems
}

/// Closed loop: one caller analyses one system after another (with
/// `pool` serving each system's phase-1 fan-out) until `window` has
/// passed. Returns systems analysed, seconds and verdict mismatches.
fn closed_loop(
    pool: &Pool,
    systems: &[TaskSystem],
    expected: &[Verdict],
    window: Duration,
) -> (u64, f64, u64) {
    let (done, secs) = util::closed_loop(vec![0u64], window, |wrong, k| {
        let i = k % systems.len();
        *wrong += u64::from(analyse(pool, &systems[i]) != expected[i]);
    });
    let (wrong, n) = done[0];
    (n, secs, wrong)
}

/// One `fedcons` analysis with `pool` serving its phase-1 fan-out.
fn analyse(pool: &Pool, system: &TaskSystem) -> Verdict {
    pool.install(|| verdict_of(&fedcons(system, M, FedConsConfig::default())))
}

/// Open loop: systems arrive by a Poisson schedule and one caller
/// analyses them in arrival order, every analysis timed from its intended
/// arrival. Returns the window's measurements and verdict mismatches.
fn open_loop(
    pool: &Pool,
    systems: &[TaskSystem],
    expected: &[Verdict],
    seed: u64,
    rate: f64,
    window: Duration,
    slo: Duration,
) -> (util::OpenRun, u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ rate.to_bits());
    let schedule = vec![util::poisson_schedule(&mut rng, rate, window)];
    let (wrong, run) = util::open_loop(vec![0u64], &schedule, window, slo, |wrong, k| {
        let i = k % systems.len();
        *wrong += u64::from(analyse(pool, &systems[i]) != expected[i]);
    });
    (run, wrong[0])
}

/// The single-threaded traced replay at pool width 1: each system through
/// `fedcons_probed`, whose probe times its two phases, then each
/// high-density task sized again through `intrinsic_min_procs_probed`, as
/// phase 1 sizes it, with its template re-run by `list_makespan_ranked`.
/// Returns the tracer, the mean phase times in µs and the exact counters.
fn replay(systems: &[TaskSystem]) -> (Tracer, [f64; 2], Vec<(String, f64)>) {
    let mut tracer = Tracer::new();
    let mut probe = AnalysisProbe::default();
    let mut sizing = AnalysisProbe::default();
    let mut sizings = 0u64;
    // Total ns and systems that ran each phase.
    let mut phases = [(0u64, 0u64); 2];
    Pool::new(1).install(|| {
        for (i, system) in systems.iter().enumerate() {
            let id = i as u64;
            let before = probe;
            let result = tracer.span("fedcons.system", id, None, || {
                fedcons_probed(system, M, FedConsConfig::default(), &mut probe)
            });
            phases[0].0 += probe.sizing_nanos - before.sizing_nanos;
            phases[0].1 += 1;
            if !matches!(result, Err(FedConsFailure::HighDensityTask { .. })) {
                phases[1].0 += probe.partition_nanos - before.partition_nanos;
                phases[1].1 += 1;
            }
            for tid in system.high_density_ids() {
                let task = system.task(tid);
                sizings += 1;
                let r = tracer.span("minprocs.sizing", id, None, || {
                    intrinsic_min_procs_probed(task, PriorityPolicy::ListOrder, &mut sizing)
                });
                if let Some(r) = r {
                    let dag = task.dag();
                    let ranks = PriorityPolicy::ListOrder.ranks(dag);
                    let makespan = tracer.span("graham.ls_run", id, None, || {
                        list_makespan_ranked(dag, r.processors, &ranks, dag.wcets())
                    });
                    std::hint::black_box(makespan);
                }
            }
        }
    });
    let phase_us = phases.map(|(ns, n)| util::ratio(ns as f64 / 1e3, n as f64));
    let n = systems.len().max(1) as f64;
    let s = sizings.max(1) as f64;
    let exact = vec![
        (
            "analysis.dbf_evals_per_op".to_owned(),
            probe.dbf_approx_evals as f64 / n,
        ),
        (
            "analysis.fits_calls_per_op".to_owned(),
            probe.fits_calls as f64 / n,
        ),
        (
            "minprocs.ls_runs_per_sizing".to_owned(),
            sizing.ls_runs as f64 / s,
        ),
        (
            "minprocs.ls_runs_pruned_per_sizing".to_owned(),
            sizing.ls_runs_pruned as f64 / s,
        ),
        (
            "parallel.tasks_dispatched_per_system".to_owned(),
            probe.par_tasks_dispatched as f64 / n,
        ),
        ("wal.bytes_per_decision".to_owned(), 0.0),
    ];
    (tracer, phase_us, exact)
}

/// Runs the batch workload end to end and fills `out`.
pub fn run(cfg: &WorkloadConfig, args: &Args, out: &mut Outcome) {
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let width = util::nproc();
    out.prov("pool_width", width.to_string());
    out.prov("cpus", "unpinned (in-process)");
    out.prov("platform_processors", M.to_string());

    // Set-up: generate the systems and build the pool. The untraced run
    // repeats it before every round, so the set-up times sample the whole
    // run, not one moment of it.
    let setup = || {
        let t = Instant::now();
        let systems = generate(seed);
        let pool = Pool::new(width);
        (t.elapsed().as_secs_f64(), systems, pool)
    };
    let (t, systems, pool) = setup();
    let mut setup_times = vec![t];
    out.prov("systems", systems.len().to_string());

    // Verification: every system's verdict against the oracle.
    let expected: Vec<Verdict> = systems.iter().map(|s| oracle(s, M)).collect();
    let got: Vec<Verdict> = pool.install(|| {
        fedsched_parallel::par_map(&systems, |s| {
            verdict_of(&fedcons(s, M, FedConsConfig::default()))
        })
    });
    let mut problems = Vec::new();
    let mut wrong = 0;
    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        if g != e {
            wrong += 1;
            if problems.len() < 8 {
                problems.push(format!("system {i}: fedcons {g:?}, oracle {e:?}"));
            }
        }
    }
    let accepted = expected.iter().filter(|v| **v != Verdict::Reject).count();
    out.prov(
        "oracle_accepted",
        format!("{accepted} of {}", systems.len()),
    );
    out.phase_counts("verify", systems.len() as u64, wrong, &problems);

    let secs = |f: f64| Duration::from_secs_f64((seconds * f).max(0.2));
    let slo = Duration::from_secs_f64(cfg.slo_p99_us / 1e6);
    let (n, _, w) = closed_loop(&pool, &systems, &expected, secs(0.03));
    out.phase_counts("warmup", n, w, &[]);

    let rounds = crate::server::ROUNDS;
    let chunk = |share: f64| secs(share / rounds as f64);
    if !trace {
        // End to end: closed-loop rounds, as in the server workloads.
        let (mut tp, mut cpu, mut ops) = (Vec::new(), Vec::new(), 0);
        for _ in 0..rounds {
            setup_times.push(setup().0);
            let cpu0 = util::cpu_seconds(std::process::id());
            let (n, s, w) = closed_loop(&pool, &systems, &expected, chunk(0.9));
            let used = util::cpu_seconds(std::process::id()) - cpu0;
            out.phase_counts("closed", n, w, &[]);
            tp.push(n as f64 / s);
            cpu.push(used * 1e6 / n.max(1) as f64);
            ops += n;
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
        out.metric("peak_rss_mb", util::peak_rss_mb(std::process::id()), "MB");
    } else {
        // Open-loop latency and capacity, reported ungated as in the
        // server workloads.
        let mut lat: [(Vec<f64>, Vec<f64>); 2] = Default::default();
        let mut samples = [0u64; 2];
        let mut bisect = util::Bisect::new(cfg.light_rps, 2.5 * cfg.heavy_rps);
        for _ in 0..rounds {
            for (k, (label, rate)) in [("light", cfg.light_rps), ("heavy", cfg.heavy_rps)]
                .into_iter()
                .enumerate()
            {
                let (r, wrong) =
                    open_loop(&pool, &systems, &expected, seed, rate, chunk(0.15), slo);
                out.phase_counts(label, r.latency_us.len() as u64, wrong, &[]);
                lat[k].0.push(util::quantile(&r.latency_us, 0.5));
                lat[k].1.push(util::quantile(&r.latency_us, 0.99));
                samples[k] += r.latency_us.len() as u64;
            }
            let (r, wrong) = open_loop(
                &pool,
                &systems,
                &expected,
                seed,
                bisect.rate(),
                chunk(0.25),
                slo,
            );
            out.phase_counts("capacity", r.latency_us.len() as u64, wrong, &[]);
            bisect.record(
                r.passes(cfg.slo_p99_us),
                util::quantile(&r.latency_us, 0.99),
            );
        }
        for (k, label) in ["light", "heavy"].into_iter().enumerate() {
            out.rounds(&format!("p50_us_{label}"), &lat[k].0);
            out.rounds(&format!("p99_us_{label}"), &lat[k].1);
            out.metric(&format!("p50_us_{label}"), util::median(&lat[k].0), "us");
            out.metric(&format!("p99_us_{label}"), util::median(&lat[k].1), "us");
            out.samples(label, samples[k]);
        }
        out.metric("capacity_rps", bisect.estimate(cfg.slo_p99_us), "1/s");

        let (n1, s1, w1) = closed_loop(&pool, &systems, &expected, secs(0.08));
        out.phase_counts("closed-untraced", n1, w1, &[]);
        // Traced: the same loop with a span around every analysis.
        let (done, s2) = util::closed_loop(
            vec![(0u64, Tracer::new())],
            secs(0.08),
            |(wrong, live), k| {
                let i = k % systems.len();
                let a = Instant::now();
                *wrong += u64::from(analyse(&pool, &systems[i]) != expected[i]);
                live.record("fedcons.system_live", i as u64, a, Instant::now());
            },
        );
        let ((w2, live), n2) = done.into_iter().next().expect("one caller");
        out.phase_counts("closed-traced", n2, w2, &[]);
        out.metric(
            "trace_overhead_ratio",
            util::ratio(n1 as f64 / s1, n2 as f64 / s2),
            "ratio",
        );
        // The phase-1 fan-out alone: pool width nproc over width 1.
        let (n3, s3, w3) = closed_loop(&Pool::new(1), &systems, &expected, secs(0.08));
        out.phase_counts("closed-width1", n3, w3, &[]);
        out.metric(
            "parallel.scaling",
            util::ratio(n1 as f64 / s1, n3 as f64 / s3),
            "ratio",
        );
        let (r, wrong) = open_loop(
            &pool,
            &systems,
            &expected,
            seed,
            cfg.light_rps,
            secs(0.08),
            slo,
        );
        out.phase_counts("light-traced", r.latency_us.len() as u64, wrong, &[]);
        out.metric("gen.lag_us_p99", util::quantile(&r.lag_us, 0.99), "us");
        out.metric(
            "gen.cpu_us_per_op",
            r.gen_cpu_s * 1e6 / r.latency_us.len().max(1) as f64,
            "us",
        );

        let (tracer, phase_us, exact) = replay(&systems);
        let (_, _, again) = replay(&systems);
        if exact != again {
            out.fail(format!(
                "exact counters differ between two replays: {exact:?} vs {again:?}"
            ));
        }
        let totals = tracer.totals();
        let get = |n: &str| totals.get(n).copied().unwrap_or_default();
        out.metric("fedcons.system_us", get("fedcons.system").mean_us(), "us");
        out.metric("fedcons.phase1_us", phase_us[0], "us");
        out.metric("fedcons.phase2_us", phase_us[1], "us");
        out.metric("minprocs.sizing_us", get("minprocs.sizing").mean_us(), "us");
        out.metric("graham.ls_run_us", get("graham.ls_run").mean_us(), "us");
        for (name, value) in &exact {
            out.metric(name, *value, "exact/op");
        }
        out.spans(&live, "live");
        out.spans(&tracer, "replay");
    }
    // The fastest set-up: host interference only ever slows one down.
    out.rounds("setup_s", &setup_times);
    out.metric(
        "setup_s",
        setup_times.iter().copied().fold(f64::INFINITY, f64::min),
        "s",
    );
}
