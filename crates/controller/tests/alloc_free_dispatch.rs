//! A simulated library call allocates nothing once its symbol has been
//! called: the dispatch table, the call's arguments and the injector stub's
//! trigger check all live in memory the process already holds.  A campaign
//! case allocates a fixed number of times, however many calls it makes.
//!
//! A counting global allocator tallies the allocations and bytes each
//! thread asks for, so the tests of this file can run in parallel without
//! seeing each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lfi_controller::{Campaign, FnWorkload, Injector, TestCase};
use lfi_runtime::{ExitStatus, NativeLibrary, Process, Symbol};
use lfi_scenario::{FaultAction, FaultCell, Plan, PlanEntry, Trigger};

struct Counting;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: a thread's last frees may run after its locals are gone.
    let _ = ALLOCATED.try_with(|allocated| allocated.set(allocated.get() + bytes as u64));
    let _ = ALLOCATIONS.try_with(|allocations| allocations.set(allocations.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a thread-local integer and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged, as `GlobalAlloc::alloc` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded unchanged; `ptr` came from this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const CALLS: i64 = 10_000;

/// Bytes this thread allocates while `calls` runs.
fn allocated_by(calls: impl FnOnce()) -> u64 {
    let before = ALLOCATED.with(Cell::get);
    calls();
    ALLOCATED.with(Cell::get) - before
}

/// Allocations (a realloc counts as one) this thread makes while `work`
/// runs.
fn allocations_by(work: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    work();
    ALLOCATIONS.with(Cell::get) - before
}

fn libc() -> NativeLibrary {
    NativeLibrary::builder("libc.so.6")
        .function("read", |ctx| ctx.arg(2))
        .function("checked_read", |ctx| ctx.forward("read").unwrap_or(-1))
        .constant("getpid", 1234)
        .build()
}

/// A libc process with a one-cell interceptor on `read` whose call-ordinal
/// trigger never fires, as in every explorer and fabric cell that misses.
fn intercepted() -> (Process, Injector) {
    let injector = Injector::new(Plan::new().entry(PlanEntry {
        function: "read".into(),
        trigger: Trigger::on_call(u64::MAX),
        action: FaultAction::return_value(-1).with_errno(9),
    }));
    let mut process = Process::new();
    process.load(libc());
    process.preload(injector.synthesize_interceptor());
    (process, injector)
}

#[test]
fn a_pass_through_call_through_an_interceptor_allocates_nothing() {
    let (mut process, injector) = intercepted();
    let read = Symbol::intern("read");
    assert_eq!(process.call_sym(read, &[3, 0, 8]).unwrap(), 8);
    let bytes = allocated_by(|| {
        for i in 0..CALLS {
            assert_eq!(process.call_sym(read, &[3, 0, i]).unwrap(), i);
        }
    });
    assert_eq!(bytes, 0);
    assert_eq!(injector.log().intercepted_calls, CALLS as u64 + 1);
    assert_eq!(injector.log().injection_count(), 0);
}

#[test]
fn an_unintercepted_call_allocates_nothing() {
    let (mut process, _injector) = intercepted();
    let getpid = Symbol::intern("getpid");
    assert_eq!(process.call_sym(getpid, &[]).unwrap(), 1234);
    let bytes = allocated_by(|| {
        for _ in 0..CALLS {
            assert_eq!(process.call_sym(getpid, &[]).unwrap(), 1234);
        }
    });
    assert_eq!(bytes, 0);
}

#[test]
fn a_call_by_a_name_already_seen_allocates_nothing() {
    let (mut process, _injector) = intercepted();
    assert_eq!(process.call("read", &[3, 0, 8]).unwrap(), 8);
    let bytes = allocated_by(|| {
        for i in 0..CALLS {
            assert_eq!(process.call("read", &[3, 0, i]).unwrap(), i);
        }
    });
    assert_eq!(bytes, 0);
}

#[test]
fn a_behaviour_that_forwards_its_arguments_allocates_nothing() {
    let (mut process, injector) = intercepted();
    assert_eq!(process.call("checked_read", &[3, 0, 8]).unwrap(), 8);
    let bytes = allocated_by(|| {
        for i in 0..CALLS {
            assert_eq!(process.call("checked_read", &[3, 0, i]).unwrap(), i);
        }
    });
    assert_eq!(bytes, 0);
    // The forwarded `read` went through the interceptor.
    assert_eq!(injector.log().intercepted_calls, CALLS as u64 + 1);
}

/// What one case of a drained serial campaign may allocate: its process
/// (set-up and preload), its injector and interceptor, the injection record,
/// its outcome and its events.  This case mix makes 456 allocations over
/// 16 cases; the same cases made 512 when each case's injector compiled a
/// copy of its plan, and 592 when the explorer iterated the session.
const ALLOCATIONS_PER_CASE: u64 = 29;

#[test]
fn a_drained_serial_campaign_allocates_a_fixed_count_per_case() {
    const CASES: u64 = 16;
    let libc = libc();
    let workload = FnWorkload::shared(
        "reader",
        move || {
            let mut process = Process::new();
            process.load(libc.clone());
            process
        },
        |process: &mut Process| {
            let read = Symbol::intern("read");
            let failed = (0..64).filter(|&i| process.call_sym(read, &[3, 0, i]).unwrap_or(-1) < 0).count();
            ExitStatus::Exited(failed.min(1) as i32)
        },
    );
    // One-cell cases, as the explorer and the fabric build them: every
    // fourth one's fault fires on a call the workload never makes.
    let campaign = || {
        Campaign::new().cases((0..CASES).map(|i| {
            let cell = FaultCell {
                function: Symbol::intern("read"),
                call_ordinal: if i % 4 == 3 { 100 } else { 1 + i },
                retval: -1,
                errno: Some(9),
            };
            TestCase::new(cell.case_name(), Plan { entries: vec![cell.plan_entry()], seed: None })
        }))
    };
    // A first campaign interns every name the cases use.
    campaign().start_arc(workload.clone()).into_report();
    let run = campaign().start_arc(workload);
    let mut events = 0;
    let allocations = allocations_by(|| {
        let report = run.drain(|_| {
            events += 1;
            true
        });
        assert_eq!((report.outcomes.len(), report.total_injections()), (16, 12));
    });
    assert_eq!(events, 16 * 2 + 12);
    assert!(
        allocations <= CASES * ALLOCATIONS_PER_CASE,
        "{allocations} allocations for {CASES} cases, {} per case",
        allocations as f64 / CASES as f64
    );
}

#[test]
fn the_counter_sees_an_allocation() {
    let bytes = allocated_by(|| drop(std::hint::black_box(vec![0u8; 64])));
    assert!(bytes >= 64, "{bytes}");
    assert_eq!(allocations_by(|| drop(std::hint::black_box(vec![0u8; 64]))), 1);
}
