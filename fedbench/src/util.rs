//! Small helpers: quantiles, `/proc` readers, CPU sets, provenance.

use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The host's core count (`nproc`), read once — before the generator
/// pins itself, after which the process would see only its own CPUs.
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`); NaN when
/// empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Sorts a sample vector (total order, NaN-free input assumed).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Mean of a slice; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Median of a small unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// Ratio that reads 0 instead of NaN on an empty base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// CPU time (user + system) consumed so far by process `pid`, exited
/// threads included, in seconds (`/proc/<pid>/stat`, at clock-tick
/// resolution: 100 ticks per second).
pub fn cpu_seconds(pid: u32) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|x| x.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// CPU time of the live threads of `pid`, in seconds, at nanosecond
/// resolution (`/proc/<pid>/task/*/schedstat`). Suits a process whose
/// threads outlive the measurement, like the server; falls back to
/// [`cpu_seconds`] where schedstat is missing.
pub fn thread_cpu_seconds(pid: u32) -> f64 {
    let Ok(entries) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return cpu_seconds(pid);
    };
    let mut total_ns = 0u64;
    for entry in entries.flatten() {
        let Ok(s) = std::fs::read_to_string(entry.path().join("schedstat")) else {
            return cpu_seconds(pid);
        };
        total_ns += s
            .split_whitespace()
            .next()
            .and_then(|x| x.parse::<u64>().ok())
            .unwrap_or(0);
    }
    total_ns as f64 / 1e9
}

/// Peak resident set size (`VmHWM`) of `pid` in MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPUs this process may run on (`Cpus_allowed_list`).
pub fn allowed_cpus() -> Vec<usize> {
    let list = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Cpus_allowed_list:"))
                .map(|l| l["Cpus_allowed_list:".len()..].trim().to_owned())
        })
        .unwrap_or_default();
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        match part.split_once('-') {
            Some((a, b)) => {
                if let (Ok(a), Ok(b)) = (a.parse::<usize>(), b.parse::<usize>()) {
                    cpus.extend(a..=b);
                }
            }
            None => cpus.extend(part.parse::<usize>().ok()),
        }
    }
    cpus
}

/// Renders a CPU list as `taskset -c` accepts it.
pub fn cpu_list(cpus: &[usize]) -> String {
    cpus.iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// Whether an executable named `name` is on `PATH`.
pub fn on_path(name: &str) -> bool {
    std::env::var_os("PATH")
        .is_some_and(|paths| std::env::split_paths(&paths).any(|dir| dir.join(name).is_file()))
}

/// First line of a command's standard output, or `"unknown"`.
pub fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The machine's host name.
pub fn host_name() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned())
}

/// The revision of the source tree: `git rev-parse` when it is a
/// repository, otherwise `unknown` (exported checkouts carry no history).
pub fn source_revision() -> String {
    if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".to_owned()
    }
}

/// Sleeps until `deadline`, spinning through the last stretch so sends
/// leave close to their scheduled instant.
pub fn wait_until(deadline: Instant) {
    const SPIN: Duration = Duration::from_micros(100);
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Nanoseconds from `base` to `t` (0 if `t` precedes `base`).
pub fn nanos_since(base: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(base).as_nanos()).unwrap_or(u64::MAX)
}

/// Exponential inter-arrival offsets (ns from the window start) of a
/// Poisson process at `rate` per second over `window`, from `rng`.
pub fn poisson_schedule<R: rand::Rng>(rng: &mut R, rate: f64, window: Duration) -> Vec<u64> {
    let end = window.as_secs_f64();
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        // Inverse-transform draw; 1 - u keeps the log argument in (0, 1].
        let u: f64 = rng.next_f64();
        t += -(1.0 - u).ln() / rate;
        if t >= end {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

/// Closed loop: each worker runs `op` back to back, waiting for each to
/// finish, until `window` has passed. `op` gets the worker and its own op
/// count so far. Returns each worker with its op count, and the seconds
/// the loop ran.
pub fn closed_loop<W: Send>(
    workers: Vec<W>,
    window: Duration,
    op: impl Fn(&mut W, usize) + Sync,
) -> (Vec<(W, u64)>, f64) {
    let start = Instant::now();
    let end = start + window;
    let op = &op;
    let done = std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|mut w| {
                s.spawn(move || {
                    let mut n = 0u64;
                    while Instant::now() < end {
                        op(&mut w, n as usize);
                        n += 1;
                    }
                    (w, n)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    (done, start.elapsed().as_secs_f64())
}

/// What one open-loop window measured, over all its workers.
#[derive(Debug, Default)]
pub struct OpenRun {
    pub scheduled: usize,
    /// Latencies in µs from each op's intended start, ascending. An op
    /// never started counts the time it waited until the generator gave
    /// up.
    pub latency_us: Vec<f64>,
    /// How late each op started against its schedule, µs, ascending.
    pub lag_us: Vec<f64>,
    /// Ops that completed within the window plus the SLO.
    pub in_time: usize,
    /// CPU time of this (the generating) process over the window.
    pub gen_cpu_s: f64,
}

impl OpenRun {
    /// Whether the window met `slo_us`: p99 within it, the generator on
    /// time, and no growing backlog (99% of the ops done by the window's
    /// end plus the SLO).
    pub fn passes(&self, slo_us: f64) -> bool {
        self.scheduled > 0
            && quantile(&self.latency_us, 0.99) <= slo_us
            && quantile(&self.lag_us, 0.99) <= slo_us
            && self.in_time as f64 >= 0.99 * self.scheduled as f64
    }
}

/// Open loop: worker `i` starts its ops at the offsets (ns from the
/// window start) of `schedules[i]`, each timed from its intended start,
/// so a stall counts against every op queued behind it. `op` gets the
/// worker and the op's index in its schedule. A backlogged worker stops
/// a grace period after the window: what it has not started by then
/// counts as never completed.
pub fn open_loop<W: Send>(
    workers: Vec<W>,
    schedules: &[Vec<u64>],
    window: Duration,
    slo: Duration,
    op: impl Fn(&mut W, usize) + Sync,
) -> (Vec<W>, OpenRun) {
    let grace = slo.max(Duration::from_millis(250));
    let cpu0 = cpu_seconds(std::process::id());
    let start = Instant::now() + Duration::from_millis(2);
    let in_time = start + window + slo;
    let give_up = start + window + grace;
    let op = &op;
    let results: Vec<(W, Vec<f64>, Vec<f64>, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .into_iter()
            .zip(schedules)
            .map(|(mut w, sched)| {
                s.spawn(move || {
                    let mut lat = Vec::with_capacity(sched.len());
                    let mut lag = Vec::with_capacity(sched.len());
                    let mut on_time = 0;
                    for (k, &offset) in sched.iter().enumerate() {
                        let intended = start + Duration::from_nanos(offset);
                        let now = Instant::now();
                        if now > give_up {
                            let waited = (now - intended).as_secs_f64() * 1e6;
                            lat.push(waited);
                            lag.push(waited);
                            continue;
                        }
                        wait_until(intended);
                        let sent = Instant::now();
                        op(&mut w, k);
                        let done = Instant::now();
                        if done <= in_time {
                            on_time += 1;
                        }
                        lat.push((done - intended).as_secs_f64() * 1e6);
                        lag.push((sent - intended).as_secs_f64() * 1e6);
                    }
                    (w, lat, lag, on_time)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut run = OpenRun {
        scheduled: schedules.iter().map(Vec::len).sum(),
        gen_cpu_s: cpu_seconds(std::process::id()) - cpu0,
        ..OpenRun::default()
    };
    let mut workers = Vec::with_capacity(results.len());
    for (w, lat, lag, on_time) in results {
        run.latency_us.extend(lat);
        run.lag_us.extend(lag);
        run.in_time += on_time;
        workers.push(w);
    }
    run.latency_us = sorted(run.latency_us);
    run.lag_us = sorted(run.lag_us);
    (workers, run)
}

/// Capacity by bisection on the offered rate. Each probe runs one
/// open-loop window at [`Bisect::rate`] and records whether it met the
/// SLO (p99 within it, no backlog left, generator on time) and its p99.
/// The search starts at a given rate and bisects between the best
/// passing and the lowest failing rate (halving while nothing has
/// passed). A failed rate is probed once more before it counts, so one
/// burst of host noise cannot drag the search down. [`Bisect::estimate`]
/// interpolates the SLO crossing log-linearly between the two bracketing
/// rates' p99s, so the answer does not snap to the bisection grid.
#[derive(Debug, Clone, Copy)]
pub struct Bisect {
    lo: f64,
    lo_p99: f64,
    hi: f64,
    hi_p99: f64,
    rate: f64,
    /// The current rate failed once and is being probed again.
    retrying: bool,
}

impl Bisect {
    pub fn new(start: f64, hi: f64) -> Bisect {
        Bisect {
            lo: 0.0,
            lo_p99: 0.0,
            hi,
            hi_p99: f64::NAN,
            rate: start,
            retrying: false,
        }
    }

    /// The rate to probe next.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    pub fn record(&mut self, pass: bool, p99: f64) {
        if !pass && !self.retrying {
            self.retrying = true;
            return;
        }
        self.retrying = false;
        if pass {
            (self.lo, self.lo_p99) = (self.rate, p99);
        } else {
            (self.hi, self.hi_p99) = (self.rate, p99);
        }
        self.rate = if self.lo == 0.0 {
            self.rate / 2.0
        } else {
            (self.lo + self.hi) / 2.0
        };
    }

    /// The highest rate found to meet `slo_us` (0 if none did).
    pub fn estimate(&self, slo_us: f64) -> f64 {
        let (lo, hi) = (self.lo, self.hi);
        if lo > 0.0 && self.hi_p99 > slo_us && self.lo_p99 > 0.0 && self.lo_p99 <= slo_us {
            let f = (slo_us.ln() - self.lo_p99.ln()) / (self.hi_p99.ln() - self.lo_p99.ln());
            return lo + (hi - lo) * f.clamp(0.0, 1.0);
        }
        lo
    }
}
