//! Allocation gate for decoding an admission request.
//!
//! The wire decode streams straight from the frame bytes into the task's
//! own storage: keys and the variant tag are borrowed from the frame, ids
//! and WCETs land directly in the CSR arenas, and the cached `vol`/`len`
//! are recomputed rather than read. So decoding an `Admit` allocates only
//! what the decoded `DagTask` owns plus the structural check's one scratch
//! buffer and the chain recomputation — never one allocation per key,
//! number or nested list. A counting global allocator pins the exact
//! count on a frame shaped like the `warm-durable` benchmark's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fedsched_dag::graph::DagBuilder;
use fedsched_dag::task::DagTask;
use fedsched_dag::time::Duration;
use fedsched_service::protocol::Request;

thread_local! {
    /// Per-thread allocation count: tests run on harness threads, so a
    /// process-global counter would pick up other tests' noise.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// `u64` has no destructor, so the thread-local slot is accessible for the
// whole thread lifetime — safe to touch from inside the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The `warm-durable` shape: four vertices in two layers joined by three
/// edges, density ¼.
fn warm_task() -> DagTask {
    let mut b = DagBuilder::new();
    let v = b.add_vertices([7, 12, 3, 9].map(Duration::new));
    b.add_edge(v[0], v[2]).unwrap();
    b.add_edge(v[0], v[3]).unwrap();
    b.add_edge(v[1], v[3]).unwrap();
    let dag = b.build().unwrap();
    DagTask::new(dag, Duration::new(124), Duration::new(248)).unwrap()
}

#[test]
fn decoding_a_warm_admit_frame_allocates_only_the_task() {
    let request = Request::Admit {
        task: warm_task(),
        trace_id: None,
        echo_timing: false,
    };
    let frame = serde_json::to_string(&request).unwrap();
    let decoded: Request = serde_json::from_str(&frame).unwrap();
    assert_eq!(decoded, request);
    drop(decoded);

    let before = allocations();
    let decoded: Request = serde_json::from_str(&frame).unwrap();
    let during = allocations() - before;
    drop(decoded);
    // Six CSR arenas (wcets, both offset and target arrays, topo), the
    // structural check's scratch buffer, and the recomputed longest
    // chain's DP table and witness path.
    assert_eq!(during, 9, "allocations to decode {frame}");
}
