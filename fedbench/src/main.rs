//! `fedbench` — the fedsched benchmark: four named workloads, end-to-end
//! metrics from an untraced run, per-layer metrics from a traced run.
//!
//! ```text
//! fedbench --workload <warm-durable|cold-dense|full-churn|batch-fedcons>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The server workloads drive a `fedsched serve` child process from the
//! release build (`FEDSCHED_BIN`, else `$CARGO_TARGET_DIR/release/fedsched`,
//! else `.bench_build/release/fedsched`). The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! Any correctness failure makes the exit code 1.

mod batch;
mod report;
mod server;
mod trace;
mod util;

use std::path::PathBuf;

use report::{json_num, json_str, Outcome};

/// End-to-end metrics, reported with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported with `--trace 1`. A metric a workload
/// does not exercise reads 0. Units starting `exact` are counts that
/// repeat exactly for one seed.
const PER_LAYER: &[(&str, &str)] = &[
    // Open-loop latency and capacity: end-to-end quantities whose
    // run-to-run spread on a shared host is too wide to gate on.
    ("p50_us_light", "us"),
    ("p99_us_light", "us"),
    ("p50_us_heavy", "us"),
    ("p99_us_heavy", "us"),
    ("capacity_rps", "1/s"),
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.request_bytes", "B"),
    ("server.parse_us", "us"),
    ("server.frame_read_us", "us"),
    ("server.residual_us", "us"),
    ("reactor.wakeups_per_op", "1/op"),
    ("reactor.ready_events_per_op", "1/op"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions_per_op", "1/op"),
    ("server.cache_us", "us"),
    ("minprocs.sizing_us", "us"),
    ("graham.ls_run_us", "us"),
    ("minprocs.ls_runs_per_sizing", "exact/sizing"),
    ("minprocs.ls_runs_pruned_per_sizing", "exact/sizing"),
    ("server.analysis_us", "us"),
    ("state.admit_us", "us"),
    ("state.remove_us", "us"),
    ("analysis.dbf_evals_per_op", "exact/op"),
    ("analysis.fits_calls_per_op", "exact/op"),
    ("state.migrated_per_remove", "1/op"),
    ("state.reject_ratio", "ratio"),
    ("state.lock_wait_us", "us"),
    ("wal.append_us", "us"),
    ("server.wal_us", "us"),
    ("wal.bytes_per_decision", "exact_B/decision"),
    ("wal.fsyncs_per_s", "1/s"),
    ("wal.snapshots", "count"),
    ("fedcons.system_us", "us"),
    ("fedcons.phase1_us", "us"),
    ("fedcons.phase2_us", "us"),
    ("parallel.scaling", "ratio"),
    ("parallel.tasks_dispatched_per_system", "exact/system"),
    ("gen.lag_us_p99", "us"),
    ("gen.cpu_us_per_op", "us"),
    ("trace_overhead_ratio", "ratio"),
    ("failed_ratio", "ratio"),
];

const WORKLOADS: &[&str] = &["warm-durable", "cold-dense", "full-churn", "batch-fedcons"];

/// The command line: which workload, from which seed, for how long,
/// traced or not.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0).max(1.0),
        trace: trace.unwrap_or(false),
    })
}

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from)
}

fn run(args: &Args) -> Result<bool, String> {
    let cfg = report::workload_config(&args.workload)
        .ok_or_else(|| format!("workloads.json has no entry for {}", args.workload))?;
    let mut out = Outcome::default();
    out.prov("workload", args.workload.clone());
    out.prov("seed", args.seed.to_string());
    out.prov("seconds", args.seconds.to_string());
    out.prov("trace", u8::from(args.trace).to_string());
    out.prov("host", util::host_name());
    out.prov("nproc", util::nproc().to_string());
    out.prov("git_sha", util::source_revision());
    out.prov("rustc", util::command_line("rustc", &["--version"]));
    out.prov(
        "rates",
        format!(
            "light {} ops/s, heavy {} ops/s, SLO p99 {} us",
            cfg.light_rps, cfg.heavy_rps, cfg.slo_p99_us
        ),
    );

    let run_dir =
        target_dir()
            .join("fedbench-run")
            .join(format!("{}-{}", args.workload, std::process::id()));
    let kind = match args.workload.as_str() {
        "warm-durable" => Some(server::Kind::WarmDurable),
        "cold-dense" => Some(server::Kind::ColdDense),
        "full-churn" => Some(server::Kind::FullChurn),
        _ => None,
    };
    match kind {
        Some(kind) => {
            let bin = server::server_binary();
            if !bin.is_file() {
                return Err(format!(
                    "server binary {} not found; build it first",
                    bin.display()
                ));
            }
            out.prov("server_binary", bin.display().to_string());
            let result = server::run(kind, &cfg, args, &bin, &run_dir, &mut out);
            let _ = std::fs::remove_dir_all(&run_dir);
            result.map_err(|e| format!("{} failed: {e}", args.workload))?;
        }
        None => batch::run(&cfg, args, &mut out),
    }

    // The tables above own the units.
    for (name, _, unit) in &mut out.metrics {
        if let Some(&(_, u)) = END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| n == name) {
            *unit = u.to_owned();
        }
    }
    let attempted = out.attempted();
    let failed = out.failed();
    out.metric("failed_ratio", failed as f64 / attempted as f64, "ratio");
    let correct = failed == 0;

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in wanted {
        let value = match out.value(name) {
            Some(v) => v,
            None if args.trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(value),
            json_str(unit)
        ));
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    let text = out.render();

    // The full report and the spans, written once the run has ended.
    let out_dir = target_dir().join("fedbench-out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if std::fs::create_dir_all(&out_dir).is_ok() {
        let _ = std::fs::write(
            out_dir.join(format!("{stem}.txt")),
            format!("{text}{line}\n"),
        );
        for (label, csv) in &out.span_dumps {
            let _ = std::fs::write(out_dir.join(format!("{stem}-{label}-spans.csv")), csv);
        }
    }
    print!("{text}");
    println!("{line}");
    Ok(correct)
}

fn main() {
    util::nproc();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fedbench: {e}");
            eprintln!("usage: fedbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("fedbench: correctness failures; see the PROBLEM lines");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("fedbench: {e}");
            std::process::exit(1);
        }
    }
}
