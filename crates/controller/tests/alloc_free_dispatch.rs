//! A simulated library call allocates nothing once its symbol has been
//! called: the dispatch table, the call's arguments and the injector stub's
//! trigger check all live in memory the process already holds.
//!
//! A counting global allocator tallies the bytes each thread asks for, so
//! the tests of this file can run in parallel without seeing each other's
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lfi_controller::Injector;
use lfi_runtime::{NativeLibrary, Process, Symbol};
use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};

struct Counting;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: a thread's last frees may run after its locals are gone.
    let _ = ALLOCATED.try_with(|allocated| allocated.set(allocated.get() + bytes as u64));
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

#[test]
fn the_counter_sees_an_allocation() {
    let bytes = allocated_by(|| drop(std::hint::black_box(vec![0u8; 64])));
    assert!(bytes >= 64, "{bytes}");
}
