//! Periods a client chooses must not overflow the shared-pool admission
//! test.
//!
//! The `DBF*` first-fit sums utilizations over a processor's residents, so
//! its exact denominator is the lcm of their periods. Pairwise-coprime
//! periods near `2^61`–`2^62` push that past `i128` after three residents.
//! The test must then neither panic (debug) nor wrap (release) nor admit
//! anything the exact test rejects: a processor whose sums it cannot
//! represent refuses further candidates, and batch first-fit refuses the
//! same ones.

use fedsched::analysis::dbf::SequentialView;
use fedsched::analysis::partition::{partition_first_fit, PartitionConfig};
use fedsched::dag::system::TaskId;
use fedsched::dag::task::DagTask;
use fedsched::dag::time::Duration;
use fedsched_service::protocol::Placement;
use fedsched_service::state::{AdmissionConfig, AdmissionState, RejectReason};

/// Primes just above `2^61`, `1.5·2^61`, `1.75·2^61` and `1.875·2^61`.
const PERIODS: [u64; 4] = [
    2_305_843_009_213_693_967,
    3_458_764_513_820_540_933,
    4_035_225_266_123_964_469,
    4_323_455_642_275_676_177,
];

/// `C = ⌊T/8⌋`, `D = T`: an implicit-deadline task of utilization just
/// under 1/8. Any set of at most eight of them is EDF-feasible on one
/// processor (`U ≤ 1`), so no admission below can be one the exact test
/// rejects; only refusals can be wrong, and those are conservative.
fn task(period: u64) -> DagTask {
    let t = Duration::new(period);
    DagTask::sequential(Duration::new(period / 8), t, t).unwrap()
}

fn shared(state: &mut AdmissionState, period: u64) -> Result<(u64, u32), RejectReason> {
    state.admit(task(period)).map(|a| match a.placement {
        Placement::Shared { processor } => (a.token, processor),
        Placement::Dedicated { .. } => panic!("low-density task given a cluster"),
    })
}

#[test]
fn coprime_periods_near_2_62_are_refused_not_wrapped() {
    let mut state = AdmissionState::new(AdmissionConfig::new(1));
    // Two residents: the sums are exact, the third candidate is tested
    // exactly and fits.
    let (first, p) = shared(&mut state, PERIODS[0]).unwrap();
    assert_eq!(p, 0);
    assert_eq!(shared(&mut state, PERIODS[1]).map(|a| a.1), Ok(0));
    assert_eq!(shared(&mut state, PERIODS[2]).map(|a| a.1), Ok(0));
    // Three residents: the lcm of their periods is about 2^184, so the
    // processor refuses rather than decide on wrapped sums.
    assert_eq!(
        shared(&mut state, PERIODS[3]),
        Err(RejectReason::NoSharedFit { pool: 1 })
    );
    // Even a candidate with a tiny period is refused there.
    assert_eq!(
        shared(&mut state, 1_000),
        Err(RejectReason::NoSharedFit { pool: 1 })
    );
    assert_eq!(state.resident_tasks(), 3);
    // Removing a resident makes the sums representable again, and the
    // refused task now fits.
    state.remove(first).unwrap();
    assert_eq!(shared(&mut state, PERIODS[3]).map(|a| a.1), Ok(0));
    assert_eq!(state.resident_tasks(), 3);
}

#[test]
fn a_refusing_processor_spills_to_the_next_and_batch_agrees() {
    let mut state = AdmissionState::new(AdmissionConfig::new(2));
    let placed: Vec<u32> = PERIODS
        .iter()
        .map(|&t| shared(&mut state, t).unwrap().1)
        .collect();
    assert_eq!(placed, [0, 0, 0, 1]);
    // Batch first-fit over the same views (deadline order is period order
    // here) makes the same refusal and the same placements.
    let views: Vec<(TaskId, SequentialView)> = PERIODS
        .iter()
        .enumerate()
        .map(|(i, &t)| (TaskId::from_index(i), SequentialView::of(&task(t))))
        .collect();
    let batch = partition_first_fit(&views, 2, PartitionConfig::default()).unwrap();
    let on: Vec<usize> = views
        .iter()
        .map(|(id, _)| batch.processor_of(*id).unwrap())
        .collect();
    assert_eq!(on, [0, 0, 0, 1]);
}
