//! Incremental per-processor partition state for online admission.
//!
//! [`partition_first_fit`](crate::partition::partition_first_fit) answers
//! the *batch* question: given all low-density tasks up front, does the
//! deadline-ordered first-fit place every one of them? An online admission
//! server has to answer the same question one task at a time, against a
//! shared-processor bank whose resident sets evolve as tasks come and go.
//!
//! This module factors the per-processor bookkeeping out of the batch
//! partitioner into two reusable pieces:
//!
//! * [`ProcessorState`] — one shared processor's resident task views plus
//!   running sums that decide the Baruah–Fisher admission condition in
//!   constant time;
//! * [`SharedPool`] — an ordered bank of [`ProcessorState`]s with the
//!   first-fit placement rule over it.
//!
//! # The closed-form `DBF*` test
//!
//! `DBF*(τ_j, t) = C_j + u_j·(t − D_j)` for `t ≥ D_j` (paper Eq. 1), so at
//! any test point `d` at or beyond every resident deadline
//!
//! ```text
//! d − Σ DBF*(τ_j, d)  =  d·(1 − U) + (W − A)
//! U = Σ u_j,   W = Σ u_j·D_j,   A = Σ C_j
//! ```
//!
//! Each processor keeps that affine function of `d` exactly, as a
//! [`fedsched_dag::rational::Affine`] over the lcm of the resident periods,
//! updated per [`ProcessorState::place`]. The admission condition is then
//! two integer comparisons: `d·(1 − U) + (W − A) ≥ C` and `C/T ≤ 1 − U`.
//! Fig. 4 places tasks in non-decreasing deadline order, so first-fit
//! always tests at or beyond every resident deadline. A caller that tests a
//! candidate whose deadline lies below some resident's gets the same
//! verdict by a per-resident correction: the terms of those residents,
//! which contribute nothing at `d`, are taken back out first.
//!
//! Decisions and probe counters are identical to the per-resident
//! reference [`fits_probed`](crate::partition::fits_probed) whenever its
//! `Rational` sum is representable. The sums' denominator is the lcm of the
//! resident periods, which pairwise-coprime periods a client picks can push
//! past `i128`. The tests themselves cannot overflow (they compare in 256
//! bits), but a placement can leave sums that `i128` cannot hold; the
//! processor then refuses every candidate until a removal makes them
//! representable again: a conservative refusal, never a wrapped admission.
//!
//! The batch partitioner is itself implemented on top of [`SharedPool`], so
//! an incremental caller that replays placements through this module is
//! guaranteed to apply bit-for-bit the same admission test as a batch
//! re-analysis — the property the `fedsched-service` consistency oracle
//! checks end to end.

use fedsched_dag::rational::{Affine, Rational};
use fedsched_dag::time::Duration;

use crate::dbf::SequentialView;
use crate::partition::{exact_fits_probed, PartitionConfig, PartitionTest};
use crate::probe::AnalysisProbe;

/// One shared processor: the sequential views resident on it and the
/// running sums of the closed-form `DBF*` test (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessorState {
    resident: Vec<SequentialView>,
    /// `d ↦ d − Σ DBF*(τ_j, d)` for `d` at or beyond every resident
    /// deadline: slope `1 − U`, intercept `W − A`. `None` while the sums
    /// are not representable in `i128`.
    slack: Option<Affine>,
    /// The largest resident deadline: the closed form holds from here on.
    max_deadline: Duration,
}

impl Default for ProcessorState {
    fn default() -> ProcessorState {
        ProcessorState {
            resident: Vec::new(),
            slack: Some(Affine::IDENTITY),
            max_deadline: Duration::ZERO,
        }
    }
}

/// `slack` with `view`'s share added (`sign = 1`) or taken out
/// (`sign = −1`). The share is `−u·d + (u·D − C)`, as integer numerators
/// over the period; `None` if the result leaves `i128`.
fn with_term(slack: Affine, view: &SequentialView, sign: i128) -> Option<Affine> {
    let c = i128::from(view.wcet.ticks());
    let d = i128::from(view.deadline.ticks());
    let t = i128::from(view.period.ticks());
    slack.checked_add(-sign * c, sign * c.checked_mul(d - t)?, t)
}

impl ProcessorState {
    /// An empty processor.
    #[must_use]
    pub fn new() -> ProcessorState {
        ProcessorState::default()
    }

    /// The views currently resident, in placement order.
    #[must_use]
    pub fn resident(&self) -> &[SequentialView] {
        &self.resident
    }

    /// The sum of the resident utilizations, or `None` while the running
    /// sums are not representable (the processor then refuses every
    /// candidate).
    #[must_use]
    pub fn utilization(&self) -> Option<Rational> {
        self.slack.map(|s| Rational::ONE - s.slope())
    }

    /// Number of resident tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// Whether no task is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Whether `candidate` passes the configured admission test against the
    /// current resident set — the verdict of
    /// [`fits`](crate::partition::fits).
    #[must_use]
    pub fn can_accept(&self, candidate: &SequentialView, config: PartitionConfig) -> bool {
        let mut scratch = AnalysisProbe::default();
        self.can_accept_probed(candidate, config, &mut scratch)
    }

    /// [`Self::can_accept`] with cost accounting — the same verdict and
    /// counters as [`fits_probed`](crate::partition::fits_probed): one
    /// `fits()` call, and one `DBF*` demand term per resident for
    /// [`PartitionTest::ApproxDbf`] (all of them are covered by the closed
    /// form, even though none is evaluated on its own).
    #[must_use]
    pub fn can_accept_probed(
        &self,
        candidate: &SequentialView,
        config: PartitionConfig,
        probe: &mut AnalysisProbe,
    ) -> bool {
        probe.fits_calls = probe.fits_calls.saturating_add(1);
        match config.test {
            PartitionTest::ApproxDbf => {
                probe.dbf_approx_evals = probe
                    .dbf_approx_evals
                    .saturating_add(self.resident.len() as u64);
                self.approx_accepts(candidate, config.utilization_check)
            }
            PartitionTest::ExactEdf { budget } => {
                exact_fits_probed(&self.resident, candidate, budget, probe)
            }
        }
    }

    /// The Baruah–Fisher condition from the running sums.
    fn approx_accepts(&self, candidate: &SequentialView, utilization_check: bool) -> bool {
        let Some(slack) = self.slack else {
            return false;
        };
        let d = candidate.deadline;
        let demand_ok = if d >= self.max_deadline {
            slack.at_least(d.ticks(), candidate.wcet.ticks())
        } else {
            // Residents with deadlines past `d` demand nothing there: take
            // their terms back out of the closed form.
            self.resident
                .iter()
                .filter(|r| r.deadline > d)
                .try_fold(slack, |s, r| with_term(s, r, -1))
                .is_some_and(|s| s.at_least(d.ticks(), candidate.wcet.ticks()))
        };
        demand_ok
            && (!utilization_check
                || slack.slope_at_least(candidate.wcet.ticks(), candidate.period.ticks()))
    }

    /// Places `view` unconditionally (callers check [`Self::can_accept`]
    /// first when re-validating; replay of known-good placements skips it).
    /// Constant time: the running sums absorb the view's term.
    pub fn place(&mut self, view: SequentialView) {
        self.slack = self.slack.and_then(|s| with_term(s, &view, 1));
        self.max_deadline = self.max_deadline.max(view.deadline);
        self.resident.push(view);
    }

    /// Removes the first resident view equal to `view`; returns whether one
    /// was present. Removal never invalidates the remaining placements: each
    /// admission test is monotone in the resident set (both the `DBF*` sum
    /// and the utilization sum only shrink). The running sums are rebuilt
    /// from the remaining views, so they depend only on the resident set
    /// and become representable again once the offending view is gone.
    pub fn remove(&mut self, view: &SequentialView) -> bool {
        let Some(i) = self.resident.iter().position(|r| r == view) else {
            return false;
        };
        self.resident.remove(i);
        self.slack = self
            .resident
            .iter()
            .try_fold(Affine::IDENTITY, |s, v| with_term(s, v, 1));
        self.max_deadline = self
            .resident
            .iter()
            .map(|v| v.deadline)
            .max()
            .unwrap_or(Duration::ZERO);
        true
    }
}

/// An ordered bank of shared processors with first-fit placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedPool {
    processors: Vec<ProcessorState>,
    config: PartitionConfig,
}

impl SharedPool {
    /// An empty pool of `processors` processors applying `config`.
    #[must_use]
    pub fn new(processors: usize, config: PartitionConfig) -> SharedPool {
        SharedPool {
            processors: vec![ProcessorState::new(); processors],
            config,
        }
    }

    /// Number of processors in the pool (occupied or not).
    #[must_use]
    pub fn processor_count(&self) -> usize {
        self.processors.len()
    }

    /// The state of processor `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn processor(&self, k: usize) -> &ProcessorState {
        &self.processors[k]
    }

    /// The admission test configuration this pool applies.
    #[must_use]
    pub fn config(&self) -> PartitionConfig {
        self.config
    }

    /// The first processor (lowest index) that accepts `candidate`, without
    /// placing it.
    #[must_use]
    pub fn first_fit(&self, candidate: &SequentialView) -> Option<usize> {
        let mut scratch = AnalysisProbe::default();
        self.first_fit_probed(candidate, &mut scratch)
    }

    /// [`Self::first_fit`] with cost accounting: every admission test tried
    /// along the scan is recorded in `probe`.
    #[must_use]
    pub fn first_fit_probed(
        &self,
        candidate: &SequentialView,
        probe: &mut AnalysisProbe,
    ) -> Option<usize> {
        self.processors
            .iter()
            .position(|p| p.can_accept_probed(candidate, self.config, probe))
    }

    /// First-fit placement: finds the first accepting processor, places the
    /// view there, and returns its index — or `None` (and no change) if the
    /// view fits nowhere.
    pub fn try_place(&mut self, candidate: SequentialView) -> Option<usize> {
        let mut scratch = AnalysisProbe::default();
        self.try_place_probed(candidate, &mut scratch)
    }

    /// [`Self::try_place`] with cost accounting (see
    /// [`Self::first_fit_probed`]).
    pub fn try_place_probed(
        &mut self,
        candidate: SequentialView,
        probe: &mut AnalysisProbe,
    ) -> Option<usize> {
        let k = self.first_fit_probed(&candidate, probe)?;
        self.processors[k].place(candidate);
        Some(k)
    }

    /// Places `view` on processor `k` unconditionally (replaying a
    /// placement already known to be valid).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn place(&mut self, k: usize, view: SequentialView) {
        self.processors[k].place(view);
    }

    /// Removes one occurrence of `view` from processor `k`; returns whether
    /// it was present.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn remove(&mut self, k: usize, view: &SequentialView) -> bool {
        self.processors[k].remove(view)
    }

    /// Total number of resident tasks across the pool.
    #[must_use]
    pub fn resident_tasks(&self) -> usize {
        self.processors.iter().map(ProcessorState::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsched_dag::time::Duration;

    fn view(c: u64, d: u64, t: u64) -> SequentialView {
        SequentialView::new(Duration::new(c), Duration::new(d), Duration::new(t))
    }

    #[test]
    fn processor_state_tracks_utilization() {
        let mut p = ProcessorState::new();
        assert!(p.is_empty());
        p.place(view(2, 4, 8));
        p.place(view(1, 3, 6));
        assert_eq!(p.len(), 2);
        assert_eq!(
            p.utilization(),
            Some(view(2, 4, 8).utilization() + view(1, 3, 6).utilization())
        );
        assert!(p.remove(&view(2, 4, 8)));
        assert!(!p.remove(&view(2, 4, 8)));
        assert_eq!(p.utilization(), Some(view(1, 3, 6).utilization()));
    }

    #[test]
    fn can_accept_matches_batch_fits() {
        let config = PartitionConfig::default();
        let mut p = ProcessorState::new();
        p.place(view(2, 5, 10));
        let cand = view(1, 7, 14);
        assert_eq!(
            p.can_accept(&cand, config),
            crate::partition::fits(p.resident(), p.utilization().unwrap(), &cand, config)
        );
    }

    #[test]
    fn pool_first_fit_prefers_earlier_processors() {
        let mut pool = SharedPool::new(3, PartitionConfig::default());
        assert_eq!(pool.try_place(view(1, 8, 16)), Some(0));
        assert_eq!(pool.try_place(view(1, 9, 18)), Some(0));
        assert_eq!(pool.resident_tasks(), 2);
    }

    #[test]
    fn pool_spills_and_fails_like_the_batch_partitioner() {
        let mut pool = SharedPool::new(2, PartitionConfig::default());
        // Each view demands its whole deadline: one per processor.
        assert_eq!(pool.try_place(view(4, 4, 8)), Some(0));
        assert_eq!(pool.try_place(view(4, 4, 8)), Some(1));
        assert_eq!(pool.try_place(view(4, 4, 8)), None);
        assert_eq!(pool.resident_tasks(), 2, "failed placement must not mutate");
    }

    #[test]
    fn removal_frees_capacity() {
        let mut pool = SharedPool::new(1, PartitionConfig::default());
        let v = view(4, 4, 8);
        assert_eq!(pool.try_place(v), Some(0));
        assert_eq!(pool.try_place(v), None);
        assert!(pool.remove(0, &v));
        assert_eq!(pool.try_place(v), Some(0));
    }
}
