//! Stackful coroutines: the one piece of target-specific code in the
//! workspace.
//!
//! Every actor runs on a stack of its own, mapped here, and the driver loop
//! of [`Sim::run`](crate::Sim::run) runs on the caller's stack. Control
//! moves between them with `suca_sim_coro_switch`, a plain function call
//! that saves the callee-saved state of the System V x86_64 ABI (`rbx`,
//! `rbp`, `r12`–`r15`, the MXCSR and the x87 control word) on the current
//! stack, stores the stack pointer, loads the other side's and restores its
//! state. The compiler already spills everything caller-saved around the
//! call, so no other register needs saving.
//!
//! An actor that runs past the bottom of its stack hits a guard page. The
//! fault handler installed with the first stack names the actor on stderr
//! and aborts, as std does for a thread; any other fault goes on to the
//! handler that was there before.
//!
//! To run on another target, port this file: the two assembly routines, the
//! initial frame [`Coro::new`] writes, and the `mmap`, `sigaction` and
//! `siginfo_t` constants.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "suca-sim runs actors as stackful coroutines on x86_64 Linux only; \
     port crates/sim/src/coro.rs to build on another target"
);

use std::cell::Cell;
use std::ffi::c_void;
use std::ptr::{self, NonNull};
use std::sync::{Once, OnceLock};

/// Usable stack per actor, the size of a default Rust thread stack. Pages
/// are committed on first touch (`MAP_NORESERVE`), so an actor costs the
/// memory its deepest call chain used.
const STACK_BYTES: usize = 2 << 20;
/// The guard page under each stack: an overflow faults instead of writing
/// into a neighbouring mapping.
const PAGE: usize = 4096;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
/// Initial MXCSR (all exceptions masked, round to nearest) in the low half
/// and x87 control word (the same defaults) in the high half of the
/// frame's first word: the state a new thread starts with.
const MXCSR_FPUCW: usize = 0x037F_0000_1F80;

const SIGBUS: i32 = 7;
const SIGSEGV: i32 = 11;
const SIG_DFL: usize = 0;
const SIG_IGN: usize = 1;
const SA_SIGINFO: i32 = 4;
const SA_ONSTACK: i32 = 0x0800_0000;
/// Where `si_addr` sits in a `siginfo_t`: after `si_signo`, `si_errno`,
/// `si_code` and the padding that aligns the union.
const SI_ADDR_OFFSET: usize = 16;

/// `struct sigaction` as glibc lays it out: the handler, a 1,024-bit signal
/// mask, the flags and the restorer glibc fills in.
#[repr(C)]
#[derive(Clone, Copy)]
struct SigAction {
    handler: usize,
    mask: [u64; 16],
    flags: i32,
    restorer: usize,
}

impl SigAction {
    fn new(handler: usize, flags: i32) -> SigAction {
        SigAction {
            handler,
            mask: [0; 16],
            flags,
            restorer: 0,
        }
    }
}

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
    fn sigaction(sig: i32, act: *const SigAction, old: *mut SigAction) -> i32;
    fn write(fd: i32, buf: *const c_void, len: usize) -> isize;
    fn suca_sim_coro_switch(save: *mut *mut u8, to: *mut u8);
    fn suca_sim_coro_start();
}

/// The guard page and the name of the actor running on this thread, for
/// the fault handler. `guard` is 0 while the driver runs.
#[derive(Clone, Copy)]
struct Running {
    guard: usize,
    name: *const u8,
    name_len: usize,
}

thread_local! {
    static RUNNING: Cell<Running> = const {
        Cell::new(Running { guard: 0, name: ptr::null(), name_len: 0 })
    };
}

/// The SIGSEGV and SIGBUS actions [`on_fault`] chains to.
static PREVIOUS: [OnceLock<SigAction>; 2] = [OnceLock::new(), OnceLock::new()];

/// Put [`on_fault`] in front of the process's SIGSEGV and SIGBUS actions,
/// once. It runs on the thread's alternate signal stack (`SA_ONSTACK`):
/// std gives the main thread and every thread it spawns one.
fn install_fault_handler() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let on_fault: extern "C" fn(i32, *mut c_void, *mut c_void) = on_fault;
        let ours = SigAction::new(on_fault as usize, SA_SIGINFO | SA_ONSTACK);
        for (sig, previous) in [SIGSEGV, SIGBUS].into_iter().zip(&PREVIOUS) {
            let mut old = SigAction::new(SIG_DFL, 0);
            // SAFETY: both pointers are valid for the call, and `on_fault`
            // makes only async-signal-safe calls.
            let rc = unsafe { sigaction(sig, &ours, &mut old) };
            assert_eq!(
                rc,
                0,
                "installing the actor stack-overflow handler failed: {}",
                std::io::Error::last_os_error()
            );
            let _ = previous.set(old);
        }
    });
}

/// The SIGSEGV / SIGBUS handler. A fault inside the running actor's guard
/// page is a stack overflow: say whose with `write(2)` and abort. Any other
/// fault goes to the previous action.
extern "C" fn on_fault(sig: i32, info: *mut c_void, uctx: *mut c_void) {
    // SAFETY: the kernel hands an `SA_SIGINFO` handler a valid `siginfo_t`.
    let addr = unsafe { info.cast::<u8>().add(SI_ADDR_OFFSET).cast::<usize>().read() };
    let running = RUNNING.with(Cell::get);
    if running.guard != 0 && (running.guard..running.guard + PAGE).contains(&addr) {
        // SAFETY: `name` is the running actor's, held by its `Coro`, which
        // lives until the driver's `resume` returns.
        let name = unsafe { std::slice::from_raw_parts(running.name, running.name_len) };
        let parts: [&[u8]; 3] = [
            b"\nactor '",
            name,
            b"' has overflowed its stack\nfatal runtime error: stack overflow, aborting\n",
        ];
        for part in parts {
            // SAFETY: `part` is valid for its length; a short write only
            // shortens the message.
            let _ = unsafe { write(2, part.as_ptr().cast(), part.len()) };
        }
        std::process::abort();
    }
    let previous = PREVIOUS[usize::from(sig == SIGBUS)].get();
    match previous {
        Some(p) if p.flags & SA_SIGINFO != 0 => {
            // SAFETY: an `SA_SIGINFO` action's handler has this signature.
            let f: extern "C" fn(i32, *mut c_void, *mut c_void) =
                unsafe { std::mem::transmute(p.handler) };
            f(sig, info, uctx);
        }
        Some(p) if p.handler > SIG_IGN => {
            // SAFETY: a plain action's handler has this signature.
            let f: extern "C" fn(i32) = unsafe { std::mem::transmute(p.handler) };
            f(sig);
        }
        // The default action: restore it and return, so the faulting
        // instruction runs again and the kernel ends the process.
        _ => {
            let default = SigAction::new(SIG_DFL, 0);
            // SAFETY: a valid action; `sigaction` is async-signal-safe.
            let _ = unsafe { sigaction(sig, &default, ptr::null_mut()) };
        }
    }
}

// `suca_sim_coro_switch(save, to)`: push the callee-saved state, store the
// stack pointer to `*save`, load `to` and pop the state saved there; `ret`
// returns into whatever switched away from that stack.
//
// `suca_sim_coro_start`: where a fresh stack's first `ret` lands; it calls
// `r13(r12)`, which never returns. `.cfi_undefined rip` marks it as the
// outermost frame, so backtraces and the unwinder stop at the coroutine
// base instead of walking into garbage.
std::arch::global_asm!(
    ".text",
    ".balign 16",
    ".globl suca_sim_coro_switch",
    ".hidden suca_sim_coro_switch",
    ".type suca_sim_coro_switch, @function",
    "suca_sim_coro_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "sub rsp, 8",
    "stmxcsr [rsp]",
    "fnstcw [rsp + 4]",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "ldmxcsr [rsp]",
    "fldcw [rsp + 4]",
    "add rsp, 8",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".size suca_sim_coro_switch, . - suca_sim_coro_switch",
    "",
    ".balign 16",
    ".globl suca_sim_coro_start",
    ".hidden suca_sim_coro_start",
    ".type suca_sim_coro_start, @function",
    "suca_sim_coro_start:",
    ".cfi_startproc",
    ".cfi_undefined rip",
    "mov rdi, r12",
    "call r13",
    "ud2",
    ".cfi_endproc",
    ".size suca_sim_coro_start, . - suca_sim_coro_start",
);

/// A suspended coroutine: its stack (a `PROT_NONE` guard page under
/// [`STACK_BYTES`] of read-write memory, unmapped on drop), the stack
/// pointer its last switch saved, and the actor's name, for the overflow
/// message. Its raw pointers make it `!Send`: compiled code may cache the
/// address of a thread-local across a switch, so a coroutine must never
/// migrate to another thread.
pub(crate) struct Coro {
    /// Lowest address of the mapping, where the guard page starts.
    base: NonNull<u8>,
    sp: *mut u8,
    name: Box<str>,
}

impl Coro {
    const MAP_BYTES: usize = PAGE + STACK_BYTES;

    /// A coroutine of the actor `name` whose first resume calls
    /// `entry(arg)` on a fresh stack. `entry` must end by switching away for
    /// good (see [`Link::finish`]).
    pub(crate) fn new(entry: extern "C" fn(*mut u8) -> !, arg: *mut u8, name: Box<str>) -> Coro {
        install_fault_handler();
        let prot = PROT_READ | PROT_WRITE;
        let flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE;
        // SAFETY: a fresh anonymous mapping at an address the kernel picks
        // overlaps nothing the program owns.
        let p = unsafe { mmap(ptr::null_mut(), Self::MAP_BYTES, prot, flags, -1, 0) };
        assert!(
            p.addr() != usize::MAX,
            "mapping an actor stack failed: {}",
            std::io::Error::last_os_error()
        );
        // SAFETY: the first page lies inside the mapping just made, which
        // nothing uses yet.
        let rc = unsafe { mprotect(p, PAGE, PROT_NONE) };
        assert_eq!(
            rc,
            0,
            "protecting an actor stack's guard page failed: {}",
            std::io::Error::last_os_error()
        );
        let base = NonNull::new(p.cast::<u8>()).expect("mmap never maps page 0");
        // The frame `suca_sim_coro_switch` pops: the MXCSR / x87 word, r15,
        // r14, r13 (entry), r12 (arg), rbx, rbp, and the return address.
        // It ends 16 bytes under the page-aligned top, so `call r13` enters
        // `entry` with the stack aligned as the ABI requires.
        let frame: [*const (); 8] = [
            ptr::without_provenance(MXCSR_FPUCW),
            ptr::null(),
            ptr::null(),
            entry as *const (),
            arg.cast_const().cast(),
            ptr::null(),
            ptr::null(),
            suca_sim_coro_start as *const (),
        ];
        let top = base.as_ptr().wrapping_add(Self::MAP_BYTES);
        let sp = top.wrapping_sub(16 + size_of_val(&frame));
        // SAFETY: `sp..top - 16` lies inside the writable part of the
        // mapping (`STACK_BYTES` is far larger than 80 bytes) and is
        // 16-aligned.
        unsafe { sp.cast::<[*const (); 8]>().write(frame) };
        Coro { base, sp, name }
    }
}

impl Drop for Coro {
    fn drop(&mut self) {
        // SAFETY: `base..base + MAP_BYTES` is exactly the mapping `new`
        // made, and the driver drops a `Coro` only once it finished, so
        // nothing runs on the stack again. A failure would leak address
        // space, not corrupt memory, so it is ignored rather than panicking
        // in `drop`.
        let _ = unsafe { munmap(self.base.as_ptr().cast(), Self::MAP_BYTES) };
    }
}

/// The two stack-pointer slots of one simulation's driver loop: the
/// driver's, saved while an actor runs, and the running actor's, saved when
/// it switches back.
pub(crate) struct Link {
    driver: Cell<*mut u8>,
    actor: Cell<*mut u8>,
}

impl Default for Link {
    fn default() -> Self {
        Link {
            driver: Cell::new(ptr::null_mut()),
            actor: Cell::new(ptr::null_mut()),
        }
    }
}

impl Link {
    /// Run `coro` until it suspends or finishes.
    ///
    /// # Safety
    /// The caller is this link's driver loop: no other coroutine of this
    /// link is running, and `coro` is suspended (fresh, or parked through
    /// [`Link::suspend`]) and not finished.
    pub(crate) unsafe fn resume(&self, coro: &mut Coro) {
        let outer = RUNNING.replace(Running {
            guard: coro.base.addr().get(),
            name: coro.name.as_ptr(),
            name_len: coro.name.len(),
        });
        // SAFETY: `coro.sp` was saved by its last switch away (or made by
        // `Coro::new`) on a stack `coro` still owns; the caller guarantees
        // nothing else runs on it. The driver's slot lives as long as the
        // link, which outlives the run.
        unsafe { suca_sim_coro_switch(self.driver.as_ptr(), coro.sp) };
        RUNNING.set(outer);
        coro.sp = self.actor.get();
    }

    /// Switch from the running coroutine back to the driver; returns when
    /// the driver resumes it.
    ///
    /// # Safety
    /// The caller runs on a coroutine that this link's driver resumed.
    pub(crate) unsafe fn suspend(&self) {
        // SAFETY: the driver saved its stack pointer when it resumed us, and
        // its stack is live: it is blocked in that call to `resume`.
        unsafe { suca_sim_coro_switch(self.actor.as_ptr(), self.driver.get()) };
    }

    /// Leave a finished coroutine for good. Everything on its stack must be
    /// dropped already: the driver unmaps the stack without unwinding it.
    ///
    /// # Safety
    /// As [`Link::suspend`]; and `link` outlives the switch, which it does
    /// while the `Sim::run` caller holds its `Sim`.
    pub(crate) unsafe fn finish(link: *const Link) -> ! {
        // SAFETY: the caller's guarantees, see above.
        unsafe { (*link).suspend() };
        unreachable!("a finished actor was resumed");
    }
}
