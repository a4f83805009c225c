//! Exact minimum non-preemptive makespan of a DAG on `m` identical
//! processors, for small instances.
//!
//! `P | prec | C_max` is strongly NP-hard \[15\], but small DAGs (≲ 14
//! vertices) are solved exactly by branch-and-bound over *active* schedules
//! (a serial schedule-generation scheme: repeatedly pick an eligible vertex
//! and start it as early as the partial schedule allows). Active schedules
//! are dominant for makespan, so the search is exact.
//!
//! Used by experiment E12 to measure List Scheduling against the *true*
//! optimum — sharpening the lower-bound proxies of E5 — and by tests as an
//! oracle for [`crate::list::makespan_lower_bound`] /
//! [`crate::list::graham_upper_bound`].

use fedsched_dag::graph::{Dag, VertexId};
use fedsched_dag::time::Duration;

/// Result of an exact makespan search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimalMakespan {
    /// The search completed; this is the exact optimum.
    Exact(Duration),
    /// The node budget ran out; the value is the best makespan found so far
    /// (an upper bound on the optimum).
    BudgetExhausted(Duration),
}

impl OptimalMakespan {
    /// The makespan value, exact or best-effort.
    #[must_use]
    pub fn value(self) -> Duration {
        match self {
            OptimalMakespan::Exact(d) | OptimalMakespan::BudgetExhausted(d) => d,
        }
    }

    /// `true` if the search proved optimality.
    #[must_use]
    pub fn is_exact(self) -> bool {
        matches!(self, OptimalMakespan::Exact(_))
    }
}

struct Search<'a> {
    dag: &'a Dag,
    m: usize,
    /// Longest WCET-weighted path from each vertex to a sink (inclusive).
    tails: Vec<u64>,
    best: u64,
    nodes_left: u64,
    exhausted: bool,
}

/// Exact minimum makespan of `dag` on `processors` identical processors.
///
/// `node_budget` caps the branch-and-bound tree size; when it is exhausted
/// the best incumbent (initialised with a List-Scheduling schedule, so
/// always within Graham's bound) is returned as
/// [`OptimalMakespan::BudgetExhausted`].
///
/// # Panics
///
/// Panics if `processors` is zero.
///
/// # Examples
///
/// ```
/// use fedsched_graham::anomaly::classic_anomaly_dag;
/// use fedsched_graham::optimal::optimal_makespan;
///
/// // Graham's anomaly instance: LS gives 12 on 3 processors, and 12 is
/// // in fact optimal (the chain T1→T9 alone takes 12).
/// let opt = optimal_makespan(&classic_anomaly_dag(), 3, 1_000_000);
/// assert!(opt.is_exact());
/// assert_eq!(opt.value().ticks(), 12);
/// ```
#[must_use]
pub fn optimal_makespan(dag: &Dag, processors: u32, node_budget: u64) -> OptimalMakespan {
    assert!(processors > 0, "at least one processor required");
    let n = dag.vertex_count();
    if n == 0 {
        return OptimalMakespan::Exact(Duration::ZERO);
    }
    // The tail length of each vertex (critical path to a sink) for the
    // lower bound.
    let mut tails = vec![0u64; n];
    for &v in dag.topological_order().iter().rev() {
        let best = dag
            .successors(v)
            .iter()
            .map(|s| tails[s.index()])
            .max()
            .unwrap_or(0);
        tails[v.index()] = best + dag.wcet(v).ticks();
    }
    // Incumbent: a List-Scheduling schedule (critical-path-first list).
    let incumbent = crate::list::list_schedule_with(
        dag,
        processors,
        crate::list::PriorityPolicy::CriticalPathFirst,
    )
    .makespan()
    .ticks();

    let mut search = Search {
        dag,
        m: processors as usize,
        tails,
        best: incumbent,
        nodes_left: node_budget,
        exhausted: false,
    };
    let mut finish: Vec<Option<u64>> = vec![None; n];
    let mut proc_free = vec![0u64; processors as usize];
    search.dfs(&mut finish, &mut proc_free, 0, 0);
    if search.exhausted {
        OptimalMakespan::BudgetExhausted(Duration::new(search.best))
    } else {
        OptimalMakespan::Exact(Duration::new(search.best))
    }
}

impl Search<'_> {
    fn dfs(
        &mut self,
        finish: &mut Vec<Option<u64>>,
        proc_free: &mut Vec<u64>,
        scheduled: usize,
        makespan_so_far: u64,
    ) {
        if self.nodes_left == 0 {
            self.exhausted = true;
            return;
        }
        self.nodes_left -= 1;
        let n = self.dag.vertex_count();
        if scheduled == n {
            self.best = self.best.min(makespan_so_far);
            return;
        }
        // Aggregate lower bound: remaining work cannot beat total capacity.
        let remaining_work: u64 = (0..n)
            .filter(|&i| finish[i].is_none())
            .map(|i| self.dag.wcet(VertexId::from_index(i)).ticks())
            .sum();
        let capacity_base: u64 = proc_free.iter().sum();
        let work_lb = (remaining_work + capacity_base).div_ceil(self.m as u64);
        if work_lb.max(makespan_so_far) >= self.best {
            return;
        }

        // Eligible vertices: unscheduled, all predecessors scheduled.
        // Branch in a deterministic order (by earliest start, then tail
        // descending) so good branches come first.
        let mut eligible: Vec<(u64, core::cmp::Reverse<u64>, usize)> = Vec::new();
        for i in 0..n {
            if finish[i].is_some() {
                continue;
            }
            let v = VertexId::from_index(i);
            let mut ready = 0u64;
            let mut ok = true;
            for &p in self.dag.predecessors(v) {
                match finish[p.index()] {
                    Some(f) => ready = ready.max(f),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            let free = *proc_free.iter().min().expect("m > 0");
            let start = ready.max(free);
            // Per-vertex critical-path bound.
            if start + self.tails[i] >= self.best {
                continue;
            }
            eligible.push((start, core::cmp::Reverse(self.tails[i]), i));
        }
        eligible.sort_unstable();

        for (start, _, i) in eligible {
            let v = VertexId::from_index(i);
            let end = start + self.dag.wcet(v).ticks();
            if end >= self.best {
                continue; // the completed schedule would be no better
            }
            // Assign to the earliest-free processor (identical machines:
            // symmetric, so one representative suffices).
            let proc = (0..self.m).min_by_key(|&p| proc_free[p]).expect("m > 0");
            let saved_free = proc_free[proc];
            proc_free[proc] = end;
            finish[i] = Some(end);
            self.dfs(finish, proc_free, scheduled + 1, makespan_so_far.max(end));
            finish[i] = None;
            proc_free[proc] = saved_free;
            if self.exhausted {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::{graham_upper_bound, list_schedule, makespan_lower_bound};
    use fedsched_dag::graph::DagBuilder;

    const BUDGET: u64 = 2_000_000;

    fn chain(wcets: &[u64]) -> Dag {
        let mut b = DagBuilder::new();
        let vs = b.add_vertices(wcets.iter().map(|&w| Duration::new(w)));
        for w in vs.windows(2) {
            b.add_edge(w[0], w[1]).unwrap();
        }
        b.build().unwrap()
    }

    fn independent(wcets: &[u64]) -> Dag {
        let mut b = DagBuilder::new();
        b.add_vertices(wcets.iter().map(|&w| Duration::new(w)));
        b.build().unwrap()
    }

    #[test]
    fn chain_optimum_is_volume() {
        let dag = chain(&[3, 1, 4, 1, 5]);
        for m in 1..=3 {
            let opt = optimal_makespan(&dag, m, BUDGET);
            assert!(opt.is_exact());
            assert_eq!(opt.value(), dag.volume());
        }
    }

    #[test]
    fn independent_jobs_bin_packing() {
        // {5, 4, 3, 3, 3} on 2 processors: optimum 9 (5+4 | 3+3+3).
        let dag = independent(&[5, 4, 3, 3, 3]);
        let opt = optimal_makespan(&dag, 2, BUDGET);
        assert!(opt.is_exact());
        assert_eq!(opt.value(), Duration::new(9));
        // LS in list order: 5,4 then 3→(4-proc? ) — either way LS ≥ opt.
        assert!(list_schedule(&dag, 2).makespan() >= opt.value());
    }

    #[test]
    fn single_processor_is_volume() {
        let dag = independent(&[2, 7, 1]);
        let opt = optimal_makespan(&dag, 1, BUDGET);
        assert_eq!(opt.value(), Duration::new(10));
    }

    #[test]
    fn anomaly_instance_optimum_is_twelve() {
        let dag = crate::anomaly::classic_anomaly_dag();
        let opt = optimal_makespan(&dag, 3, BUDGET);
        assert!(opt.is_exact());
        assert_eq!(opt.value(), Duration::new(12));
    }

    #[test]
    fn ls_can_be_strictly_suboptimal() {
        // A case where plain list-order LS loses to the optimum:
        // jobs 1,1,2 with the long job last, 2 processors, plus a chain
        // gating. Simplest: {2, 2, 3} no edges, m=2: opt = 4 (3+? no:
        // 2+2 | 3 → 4); LS list order: P0:2, P1:2, then 3 at t=2 → 5.
        let dag = independent(&[2, 2, 3]);
        let opt = optimal_makespan(&dag, 2, BUDGET).value();
        assert_eq!(opt, Duration::new(4));
        let ls = list_schedule(&dag, 2).makespan();
        assert_eq!(ls, Duration::new(5));
        assert!(ls > opt);
    }

    #[test]
    fn optimum_within_analytic_bounds() {
        let dag = crate::anomaly::classic_anomaly_dag();
        for m in 1..=4 {
            let opt = optimal_makespan(&dag, m, BUDGET).value();
            assert!(opt >= makespan_lower_bound(&dag, m));
            assert!(opt <= graham_upper_bound(&dag, m));
        }
    }

    #[test]
    fn empty_dag() {
        let dag = DagBuilder::new().build().unwrap();
        assert_eq!(
            optimal_makespan(&dag, 2, BUDGET),
            OptimalMakespan::Exact(Duration::ZERO)
        );
    }

    #[test]
    fn budget_exhaustion_returns_incumbent_upper_bound() {
        // A dense instance with a 1-node budget: falls back to the LS
        // incumbent, which still satisfies Graham's bound.
        let dag = independent(&[7, 3, 9, 4, 6, 2, 8, 5]);
        let r = optimal_makespan(&dag, 3, 1);
        assert!(!r.is_exact());
        assert!(r.value() <= graham_upper_bound(&dag, 3));
        // And the exact run can only improve on it.
        let exact = optimal_makespan(&dag, 3, BUDGET);
        assert!(exact.is_exact());
        assert!(exact.value() <= r.value());
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_panics() {
        let _ = optimal_makespan(&independent(&[1]), 0, 10);
    }
}
