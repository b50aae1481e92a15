//! An actor that runs off the end of its coroutine stack dies naming
//! itself, the way std names a thread that overflows its stack.
//!
//! The overflow aborts the process, so the test runs it in a child: its own
//! test binary, re-executed with only this test selected and [`CHILD`] set.

use std::os::unix::process::ExitStatusExt;
use std::process::Command;

use suca_sim::Sim;

/// Set in the child, which overflows instead of spawning a child.
const CHILD: &str = "SUCA_SIM_OVERFLOW_CHILD";

/// Recurse until the stack runs out, 4 KiB a frame.
#[allow(unconditional_recursion)]
#[inline(never)]
fn recurse(depth: u64) -> u64 {
    let frame = std::hint::black_box([depth; 512]);
    recurse(frame[0] + 1) + frame[511]
}

#[test]
fn an_actor_that_overflows_its_stack_is_named() {
    if std::env::var_os(CHILD).is_some() {
        let sim = Sim::new(1);
        sim.spawn("bottomless", |_| {
            std::hint::black_box(recurse(0));
        });
        sim.run();
        unreachable!("the overflow aborts the run");
    }
    let out = Command::new(std::env::current_exe().expect("the test binary"))
        .args([
            "--exact",
            "an_actor_that_overflows_its_stack_is_named",
            "--nocapture",
        ])
        .env(CHILD, "1")
        .output()
        .expect("re-run the test binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.signal(), Some(6), "SIGABRT: {stderr}");
    assert!(
        stderr.contains("actor 'bottomless' has overflowed its stack"),
        "{stderr}"
    );
}
