//! A hand-written fault scenario in the paper's XML language (§4).
//!
//! The plan below is the example from the paper: the 5th call to `readdir64`
//! returns a null pointer with `EBADF`; the 5th call to `readdir` does the
//! same but only when the application is inside `refresh_files`; the 2nd call
//! to `read` has 10 subtracted from its byte-count argument and is then
//! passed through to the original function.
//!
//! Run with `cargo run --example custom_scenario`.

use lfi::controller::Injector;
use lfi::intern::Symbol;
use lfi::runtime::{NativeLibrary, Process};
use lfi::scenario::Plan;

const SCENARIO: &str = r#"
<plan>
  <function name="readdir64" inject="5" retval="0" errno="EBADF" calloriginal="false" />
  <function name="readdir" inject="5" retval="0" errno="EBADF" calloriginal="false">
    <stacktrace>
      <frame>refresh_files</frame>
    </stacktrace>
  </function>
  <function name="read" inject="2" calloriginal="true">
    <modify argument="2" op="sub" value="10" />
  </function>
</plan>
"#;

fn main() {
    // Parse the scenario exactly as the LFI controller would receive it.
    let plan = Plan::from_xml(SCENARIO).expect("the scenario is well-formed");
    println!("== parsed scenario: {} triggers ==\n{}", plan.len(), plan.to_xml());

    // The resolve-once-at-setup contract: names are interned to copyable
    // `Symbol` ids here, once; every per-call structure downstream (library
    // dispatch, trigger slots, the call stack) compares these ids and never
    // hashes a string.  `Injector::new` compiles the plan the same way.
    let readdir64 = Symbol::intern("readdir64");
    let readdir = Symbol::intern("readdir");
    let read = Symbol::intern("read");

    // The "original" library the application links against.
    let mut process = Process::new();
    process.load(
        NativeLibrary::builder("libc.so.6")
            .function("readdir64", |_| 0x5000) // a directory entry pointer
            .function("readdir", |_| 0x5000)
            .function("read", |ctx| ctx.arg(2)) // returns the byte count it was asked for
            .build(),
    );

    // Shim the synthesized interceptor in front of it.
    let injector = Injector::new(plan);
    process.preload(injector.synthesize_interceptor());

    // --- readdir64: the 5th call fails with a null pointer + EBADF ---------
    // Dispatch by pre-resolved symbol: the workload's tight loop does no
    // string work at all (`Process::call` with a `&str` works too and
    // interns once at the boundary).
    for call in 1..=6 {
        let entry = process.call_sym(readdir64, &[0x10]).unwrap();
        if entry == 0 {
            println!("readdir64 call {call}: NULL, errno {}", process.state().errno());
        }
    }

    // --- readdir: the 5th call fails, but only inside refresh_files --------
    for call in 1..=4 {
        let entry = process.call_sym(readdir, &[0x10]).unwrap();
        assert_ne!(entry, 0, "call {call} must succeed (trigger is armed for call 5)");
    }
    // The 5th call arrives from inside the application's refresh_files
    // routine, so both the call-count and the stack-trace condition match.
    process.push_frame("refresh_files");
    let entry = process.call_sym(readdir, &[0x10]).unwrap();
    process.pop_frame();
    println!(
        "readdir call 5 inside refresh_files: {entry:#x} (0 means the injection fired), errno {}",
        process.state().errno()
    );

    // --- read: the 2nd call is shortened by 10 bytes and passed through ----
    let full = process.call_sym(read, &[3, 0x2000, 64]).unwrap();
    let short = process.call_sym(read, &[3, 0x2000, 64]).unwrap();
    println!("read returned {full} then {short} (argument modified in flight)");

    println!("\n== injection log ==\n{}", injector.log().to_text());
    println!("== replay script ==\n{}", injector.log().replay_plan().to_xml());
}
