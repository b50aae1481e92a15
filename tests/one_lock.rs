//! One thread, by type: a simulation's state lives in `Cell`s and
//! `RefCell`s behind `Rc`, so a `Sim` and everything holding one is `!Send`
//! and the compiler keeps it on the thread that built it. std's
//! cross-thread machinery is kept for state that two threads really share,
//! and only in the files of `ALLOWED`. The scan fails, naming file:line, on
//! each of these elsewhere:
//!
//! * std's locks (`Mutex`, `RwLock`, `Condvar`) and atomic types, reached
//!   through a `sync::` path;
//! * `Arc<RefCell` and `Arc<Cell` (an `Arc` of a `!Sync` cell shares
//!   nothing across threads, it only costs atomic reference counts);
//! * `unsafe impl Send` and `unsafe impl Sync`.
//!
//! The `benchmark/` workspace measures the stack from outside and is not
//! scanned.

use std::fs;
use std::path::{Path, PathBuf};

/// The directories scanned, relative to the repository root.
const SCANNED: [&str; 4] = ["crates", "tests", "examples", "src"];

/// The files that may use std's cross-thread machinery, and the shared
/// state it serves.
const ALLOWED: [(&str, &str); 2] = [
    (
        "crates/coll/src/lib.rs",
        "`VerdictMemo`: the process-wide plan-verdict memo every thread reads, and its threaded test",
    ),
    (
        "crates/sim/src/alloc.rs",
        "the global allocator's counters, and `TEST_ARM_LOCK`, which serializes the unit tests that arm them",
    ),
];

/// Words of a `sync::` path that name cross-thread machinery.
const STD_SYNC: [&str; 4] = ["Mutex", "RwLock", "Condvar", "atomic"];

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// `src` without its `//` comments, lines kept.
fn code_of(src: &str) -> String {
    src.lines()
        .map(|l| l.split("//").next().unwrap_or_default())
        .collect::<Vec<_>>()
        .join("\n")
}

/// The 1-based line of byte `at` in `code`.
fn line_of(code: &str, at: usize) -> usize {
    code[..at].matches('\n').count() + 1
}

/// The 1-based lines of `code` that name one of std's locks or atomics
/// through a `sync::` path: `std::sync::Mutex`, `sync::RwLock` after `use
/// std::sync`, `std::sync::atomic::AtomicU64`, or an item of a (possibly
/// multi-line) `use std::sync::{…}` group.
fn std_sync_lines(code: &str) -> Vec<usize> {
    let mut lines = Vec::new();
    let mut from = 0;
    while let Some(at) = code[from..].find("sync::") {
        let start = from + at;
        from = start + "sync::".len();
        if code[..start].ends_with(is_ident) {
            continue; // `foo_sync::`, not std's module
        }
        let tail = &code[from..];
        let path = if tail.starts_with('{') {
            let mut depth = 0;
            let end = tail
                .char_indices()
                .find(|&(_, c)| {
                    depth += match c {
                        '{' => 1,
                        '}' => -1,
                        _ => 0,
                    };
                    depth == 0
                })
                .map_or(tail.len(), |(i, _)| i + 1);
            &tail[..end]
        } else {
            &tail[..tail.find(|c| !is_ident(c)).unwrap_or(tail.len())]
        };
        // Separators inside a path are one ASCII byte each.
        let mut offset = 0;
        for word in path.split(|c| !is_ident(c)) {
            if STD_SYNC.iter().any(|l| word.starts_with(l)) {
                lines.push(line_of(code, from + offset));
            }
            offset += word.len() + 1;
        }
    }
    lines
}

/// The 1-based lines of `code` that wrap a cell in an `Arc`: `Arc<RefCell`,
/// `Arc<Cell`, `Arc<std::cell::OnceCell`, ….
fn arc_cell_lines(code: &str) -> Vec<usize> {
    code.match_indices("Arc<")
        .filter(|&(at, _)| !code[..at].ends_with(is_ident))
        .filter(|&(at, _)| {
            let inner = code[at + "Arc<".len()..].trim_start();
            let word = &inner[..inner
                .find(|c| !is_ident(c) && c != ':')
                .unwrap_or(inner.len())];
            word.rsplit("::")
                .next()
                .is_some_and(|w| w.ends_with("Cell"))
        })
        .map(|(at, _)| line_of(code, at))
        .collect()
}

/// The 1-based lines of `code` with an `unsafe impl` of `Send` or `Sync`,
/// generic (`unsafe impl<T> Sync for …`) or by path (`std::marker::Send`).
fn unsafe_send_sync_lines(code: &str) -> Vec<usize> {
    code.match_indices("unsafe impl")
        .filter(|&(at, _)| {
            let mut rest = code[at + "unsafe impl".len()..].trim_start();
            if rest.starts_with('<') {
                let mut depth = 0;
                let end = rest
                    .char_indices()
                    .find(|&(_, c)| {
                        depth += match c {
                            '<' => 1,
                            '>' => -1,
                            _ => 0,
                        };
                        depth == 0
                    })
                    .map_or(rest.len(), |(i, _)| i + 1);
                rest = rest[end..].trim_start();
            }
            let path = &rest[..rest
                .find(|c| !is_ident(c) && c != ':')
                .unwrap_or(rest.len())];
            matches!(path.rsplit("::").next(), Some("Send" | "Sync"))
        })
        .map(|(at, _)| line_of(code, at))
        .collect()
}

/// Every line of `src` the rules refuse, sorted. Comments are ignored.
fn refused_lines(src: &str) -> Vec<usize> {
    let code = code_of(src);
    let mut lines = std_sync_lines(&code);
    lines.extend(arc_cell_lines(&code));
    lines.extend(unsafe_send_sync_lines(&code));
    lines.sort_unstable();
    lines.dedup();
    lines
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn std_locks_only_at_the_allowed_cross_thread_sites() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in SCANNED {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();
    assert!(files.len() > 100, "scanned only {} files", files.len());
    let mut offenders = Vec::new();
    let mut allowed_seen = Vec::new();
    for file in &files {
        let rel = file.strip_prefix(root).expect("under the root");
        let rel = rel.to_string_lossy().replace('\\', "/");
        let src = fs::read_to_string(file).expect("readable source");
        let lines = refused_lines(&src);
        if ALLOWED.iter().any(|(f, _)| *f == rel) {
            if !lines.is_empty() {
                allowed_seen.push(rel);
            }
            continue;
        }
        offenders.extend(lines.into_iter().map(|l| format!("{rel}:{l}")));
    }
    assert!(
        offenders.is_empty(),
        "std's locks, atomics, `Arc<…Cell>` and unsafe impls of Send and Sync are for state \
         that two threads share; simulation state takes `Cell`/`RefCell` behind `Rc`:\n  {}",
        offenders.join("\n  ")
    );
    // An allowance whose lock is gone must go too.
    for (file, what) in ALLOWED {
        assert!(
            allowed_seen.iter().any(|f| f == file),
            "{file} no longer needs cross-thread machinery for {what}: drop it from ALLOWED"
        );
    }
}

#[test]
fn the_scan_sees_every_spelling_of_a_std_lock() {
    // Spelled in capitals so this file's own scan stays clean.
    let src = "\
use std::SYNC::{ARC, Mutex};
use std::SYNC::{
    atomic::{AtomicU64, Ordering},
    Condvar,
};
static M: std::SYNC::RwLock<()> = std::SYNC::RwLock::new(());
fn f(g: std::SYNC::MutexGuard<'_, ()>) {}
use std::SYNC;
type T = SYNC::Mutex<u8>;
// std::SYNC::Mutex in a comment
use std::SYNC::{ARC, OnceLock};
use suca_sim::Lock;
use std::SYNC::atomic::AtomicBool;
use my_SYNC::Mutex;
type A = ARC<REFCELL<u8>>;
type B = std::SYNC::ARC< std::cell::CELL<u8> >;
type C = ARC<Vec<REFCELL<u8>>>;
type D = std::rc::Rc<REFCELL<u8>>;
UNSAFE impl SEND for Coro {}
UNSAFE impl<T: ?Sized + SEND> SYNC for Lock<T> {}
UNSAFE impl std::marker::SEND for X {}
UNSAFE impl GlobalAlloc for CountingAlloc {}
// UNSAFE impl SYNC for Y {}
"
    .replace("SYNC", "sync")
    .replace("ARC", "Arc")
    .replace("REFCELL", "RefCell")
    .replace("CELL", "Cell")
    .replace("UNSAFE", "unsafe")
    .replace("SEND", "Send")
    .replace("sync for", "Sync for");
    assert_eq!(
        refused_lines(&src),
        [1, 3, 4, 6, 7, 9, 13, 15, 16, 19, 20, 21]
    );
}
