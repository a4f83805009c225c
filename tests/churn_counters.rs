//! Exact-counter gate for shared-pool churn.
//!
//! Replays a fixed script shaped like the `full-churn` benchmark workload
//! in process: 44 low-density residents on 12 shared processors drawn
//! from three size classes, then operations that each remove a random
//! resident and admit a fresh task (falling back to the removed task's
//! class if the fresh one is rejected). The decisions, the migrations and
//! the shared-pool analysis counters (`fits_calls`, `dbf_approx_evals`)
//! are pinned to exact values: they are a function of the script alone,
//! so any change to the first-fit kernel that alters a decision or the
//! amount of work it accounts for fails here, without a wall clock.

use fedsched_dag::task::DagTask;
use fedsched_dag::time::Duration;
use fedsched_service::protocol::Placement;
use fedsched_service::state::{AdmissionConfig, AdmissionState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The churn size classes `(C, D, T)`: utilization 0.15, 0.2 and 0.25.
const CLASSES: [(u64, u64, u64); 3] = [(150, 800, 1000), (400, 1600, 2000), (1000, 3000, 4000)];
const PROCESSORS: u32 = 12;
const PREFILL: usize = 44;
const OPS: usize = 400;

fn class_task(class: usize) -> DagTask {
    let (c, d, t) = CLASSES[class];
    DagTask::sequential(Duration::new(c), Duration::new(d), Duration::new(t)).unwrap()
}

/// What the script observed: a digest of every answer in order plus the
/// totals the gate pins.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    admitted: u64,
    rejected: u64,
    migrated: u64,
    anomalies: u64,
    fits_calls: u64,
    dbf_approx_evals: u64,
    /// FNV-1a over the answer sequence: admitted processor or rejection,
    /// and each removal's migration count.
    digest: u64,
}

fn fnv(digest: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *digest ^= u64::from(byte);
        *digest = digest.wrapping_mul(0x0100_0000_01b3);
    }
}

fn run(seed: u64) -> Outcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = AdmissionState::new(AdmissionConfig::new(PROCESSORS));
    let mut residents: Vec<(u64, usize)> = Vec::new();
    let mut out = Outcome {
        admitted: 0,
        rejected: 0,
        migrated: 0,
        anomalies: 0,
        fits_calls: 0,
        dbf_approx_evals: 0,
        digest: 0xcbf2_9ce4_8422_2325,
    };
    let admit = |state: &mut AdmissionState, out: &mut Outcome, class: usize| match state
        .admit(class_task(class))
    {
        Ok(a) => {
            let Placement::Shared { processor } = a.placement else {
                panic!("a low-density task was given a cluster");
            };
            out.admitted += 1;
            fnv(&mut out.digest, u64::from(processor));
            Some(a.token)
        }
        Err(_) => {
            out.rejected += 1;
            fnv(&mut out.digest, u64::MAX);
            None
        }
    };
    // Prefill: the classes take turns until 44 are resident.
    let mut turn = 0;
    while residents.len() < PREFILL {
        let class = turn % CLASSES.len();
        turn += 1;
        if let Some(token) = admit(&mut state, &mut out, class) {
            residents.push((token, class));
        }
        assert!(turn < 10 * PREFILL, "prefill never reached {PREFILL}");
    }
    for _ in 0..OPS {
        let fresh = rng.gen_range(0..CLASSES.len());
        let (token, victim) = residents.swap_remove(rng.gen_range(0..residents.len()));
        let removed = state.remove(token).expect("resident token");
        out.migrated += removed.migrated;
        fnv(&mut out.digest, removed.migrated);
        let placed = admit(&mut state, &mut out, fresh)
            .map(|t| (t, fresh))
            .or_else(|| admit(&mut state, &mut out, victim).map(|t| (t, victim)));
        residents.extend(placed);
    }
    let snap = state.snapshot();
    out.anomalies = snap.remove_anomalies;
    out.fits_calls = snap.probe.fits_calls;
    out.dbf_approx_evals = snap.probe.dbf_approx_evals;
    out
}

#[test]
fn churn_decisions_and_shared_pool_counters_are_pinned() {
    // Recorded on the per-resident `DBF*` kernel; the closed-form kernel
    // must reproduce them exactly.
    assert_eq!(
        run(3),
        Outcome {
            admitted: 444,
            rejected: 5,
            migrated: 1_780,
            anomalies: 0,
            fits_calls: 113_253,
            dbf_approx_evals: 433_923,
            digest: 581_758_339_235_592_348,
        }
    );
    assert_eq!(
        run(11),
        Outcome {
            admitted: 444,
            rejected: 0,
            migrated: 2_245,
            anomalies: 0,
            fits_calls: 115_526,
            dbf_approx_evals: 441_366,
            digest: 5_325_315_037_245_757_442,
        }
    );
}
