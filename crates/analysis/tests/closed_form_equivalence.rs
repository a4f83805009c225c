//! The closed-form `DBF*` first-fit test against its per-resident
//! reference.
//!
//! [`ProcessorState`] decides the Baruah–Fisher condition from running
//! sums; [`fits_probed`] re-sums `DBF*` over every resident. Over random
//! place/remove sequences — in deadline order and out of it, on
//! grid-aligned and arbitrary periods — both must give the same verdict
//! and the same probe counters, and every processor a deadline-ordered
//! first-fit fills must pass the exact EDF demand test (QPA), the
//! independent oracle.

use fedsched_analysis::dbf::SequentialView;
use fedsched_analysis::edf::{edf_qpa, DEFAULT_BUDGET};
use fedsched_analysis::incremental::{ProcessorState, SharedPool};
use fedsched_analysis::partition::{fits_probed, PartitionConfig, PartitionTest};
use fedsched_analysis::probe::AnalysisProbe;
use fedsched_dag::rational::Rational;
use fedsched_dag::time::Duration;
use proptest::prelude::*;

fn view(c: u64, d: u64, t: u64) -> SequentialView {
    SequentialView::new(Duration::new(c), Duration::new(d), Duration::new(t))
}

/// Periods on a 1000-tick grid and coarse `C`/`D` steps, so slack often
/// lands exactly on the boundary `d·(1 − U) + (W − A) = C`.
fn grid_view() -> impl Strategy<Value = SequentialView> {
    (0u32..4, 1u64..=10, 1u64..=20).prop_map(|(k, c, d)| {
        let t = 1000 << k;
        let c = (50 * c).min(t);
        let d = (t / 20 * d).clamp(c, t);
        view(c, d, t)
    })
}

/// Arbitrary periods up to 1000 (coprime ones included), deadlines up to
/// one and a half periods.
fn arbitrary_view() -> impl Strategy<Value = SequentialView> {
    (2u64..=1000).prop_flat_map(|t| {
        (1u64..=t, Just(t)).prop_flat_map(|(c, t)| (c..=t + t / 2).prop_map(move |d| view(c, d, t)))
    })
}

fn any_view() -> impl Strategy<Value = SequentialView> {
    prop_oneof![grid_view(), arbitrary_view()]
}

/// One step: `op == 0` removes resident `pick`; otherwise `view` is
/// offered (and `op == 1` forces it in regardless of the verdict).
fn ops(max: usize) -> impl Strategy<Value = Vec<(u8, SequentialView, usize)>> {
    prop::collection::vec((0u8..4, any_view(), 0usize..64), 1..=max)
}

fn reference_utilization(resident: &[SequentialView]) -> Rational {
    resident.iter().map(SequentialView::utilization).sum()
}

const CONFIGS: [PartitionConfig; 2] = [
    PartitionConfig {
        utilization_check: true,
        test: PartitionTest::ApproxDbf,
    },
    PartitionConfig {
        utilization_check: false,
        test: PartitionTest::ApproxDbf,
    },
];

/// Keeps the reference's `Rational` sums far inside `i128`.
const MAX_RESIDENTS: usize = 8;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// One processor, any placement order: the running-sum verdict and
    /// counters equal the per-resident reference for every candidate
    /// offered, including candidates whose deadline lies below a
    /// resident's.
    #[test]
    fn processor_state_matches_the_per_resident_reference(
        steps in ops(24),
        sorted in any::<bool>(),
    ) {
        let mut steps = steps;
        if sorted {
            steps.sort_by_key(|s| s.1.deadline);
        }
        let mut p = ProcessorState::new();
        for (op, candidate, pick) in steps {
            if op == 0 && !p.is_empty() {
                let victim = p.resident()[pick % p.len()];
                prop_assert!(p.remove(&victim));
                continue;
            }
            let u = reference_utilization(p.resident());
            prop_assert_eq!(p.utilization(), Some(u));
            let mut accepted = false;
            for config in CONFIGS {
                let (mut fast, mut slow) = (AnalysisProbe::default(), AnalysisProbe::default());
                let verdict = p.can_accept_probed(&candidate, config, &mut fast);
                let expected = fits_probed(p.resident(), u, &candidate, config, &mut slow);
                prop_assert_eq!(verdict, expected, "{:?} on {:?} ({:?})", candidate, p.resident(), config);
                prop_assert_eq!(fast, slow);
                accepted |= verdict && config.utilization_check;
            }
            if (accepted || op == 1) && p.len() < MAX_RESIDENTS {
                p.place(candidate);
            }
        }
    }

    /// A pool under first-fit with removals: `SharedPool` places every
    /// task where a per-resident first-fit does, with the same counters,
    /// and in deadline order every processor passes exact EDF.
    #[test]
    fn shared_pool_first_fit_matches_the_reference_and_exact_edf(
        steps in ops(32),
        processors in 1usize..=4,
        sorted in any::<bool>(),
    ) {
        let mut steps = steps;
        if sorted {
            steps.sort_by_key(|s| s.1.deadline);
        }
        let config = PartitionConfig::default();
        let mut pool = SharedPool::new(processors, config);
        let mut reference: Vec<Vec<SequentialView>> = vec![Vec::new(); processors];
        let (mut fast, mut slow) = (AnalysisProbe::default(), AnalysisProbe::default());
        for (op, candidate, pick) in steps {
            let occupied: Vec<usize> = (0..processors).filter(|&k| !reference[k].is_empty()).collect();
            if op == 0 && !occupied.is_empty() {
                let k = occupied[pick % occupied.len()];
                let victim = reference[k][pick % reference[k].len()];
                let first = reference[k].iter().position(|v| *v == victim).unwrap();
                reference[k].remove(first);
                prop_assert!(pool.remove(k, &victim));
                continue;
            }
            if reference.iter().any(|r| r.len() >= MAX_RESIDENTS) {
                continue;
            }
            let expected = reference.iter().position(|r| {
                fits_probed(r, reference_utilization(r), &candidate, config, &mut slow)
            });
            let placed = pool.try_place_probed(candidate, &mut fast);
            prop_assert_eq!(placed, expected, "{:?} into {:?}", candidate, reference);
            prop_assert_eq!(fast, slow);
            if let Some(k) = placed {
                reference[k].push(candidate);
            }
            for (k, resident) in reference.iter().enumerate() {
                prop_assert_eq!(pool.processor(k).resident(), resident.as_slice());
            }
            if sorted {
                for resident in &reference {
                    let verdict = edf_qpa(resident, DEFAULT_BUDGET);
                    prop_assert!(
                        verdict.is_ok_and(|v| v.is_schedulable()),
                        "exact EDF rejects the first-fit set {:?}: {:?}", resident, verdict
                    );
                }
            }
        }
    }
}

/// The fallback for a candidate whose deadline lies below a resident's:
/// that resident demands nothing at the candidate's deadline, which the
/// closed form alone would overstate.
#[test]
fn an_earlier_deadline_candidate_ignores_later_residents() {
    let mut p = ProcessorState::new();
    p.place(view(6, 10, 10));
    let early = view(4, 4, 20);
    let u = p.utilization().unwrap();
    assert!(fits_probed(
        p.resident(),
        u,
        &early,
        PartitionConfig::default(),
        &mut AnalysisProbe::default()
    ));
    assert!(p.can_accept(&early, PartitionConfig::default()));
}
