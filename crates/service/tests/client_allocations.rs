//! The closed-loop client allocates nothing per operation beyond what the
//! operation itself must hold: a counting global allocator tallies the
//! allocations made on the client's thread over warm loopback reads and
//! writes through `ServiceClient`, and the count per operation may not rise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bqs_constructions::prelude::*;
use bqs_service::prelude::*;
use bqs_sim::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counts the allocations of the thread that makes them.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// count is a thread-local `Cell` with no destructor, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Operations measured, after as many to warm the client's buffers.
const OPERATIONS: u64 = 1_000;

/// Allocations per operation, reads and writes alternating, as measured when
/// this test was added: the quorum sampler's index draws and the set it
/// builds, and the loopback's per-batch reply and sink buffers.
const PER_OPERATION: u64 = 7;

#[test]
fn a_warm_loopback_operation_allocates_only_what_it_holds() {
    // The benchmark's loopback-closed register: Grid(5, 1) with one
    // fabricating server.
    let system = GridSystem::new(5, 1).unwrap();
    let plan = FaultPlan::none(25)
        .with_byzantine(7, ByzantineStrategy::FabricateHighTimestamp { value: 666 });
    let service = LoopbackService::spawn(&plan, 1, 7);
    let mut client = ServiceClient::new(&system, &service, service.responsive_set().clone(), 1);
    let mut rng = StdRng::seed_from_u64(7);
    let mut timestamp = 0;
    let mut operate = |client: &mut ServiceClient<'_, _, _>| {
        timestamp += 1;
        if timestamp % 2 == 0 {
            let read = client.read(&mut rng).unwrap();
            assert_eq!(read.entry.timestamp, timestamp - 1);
        } else {
            let entry = Entry {
                timestamp,
                value: timestamp,
            };
            client.write(entry, &mut rng).unwrap();
        }
    };
    for _ in 0..OPERATIONS {
        operate(&mut client);
    }
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..OPERATIONS {
        operate(&mut client);
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert!(
        allocations <= PER_OPERATION * OPERATIONS,
        "{allocations} allocations over {OPERATIONS} operations"
    );
}
