//! The one-lock rule: simulation state is guarded by `suca_sim::Lock`, which
//! belongs to the one thread that runs the simulation. std's cross-thread
//! locks (`Mutex`, `RwLock`, `Condvar`) are kept for state that two threads
//! really share, and only at the sites in `ALLOWED`. The `benchmark/`
//! workspace measures the stack from outside and is not scanned.

use std::fs;
use std::path::{Path, PathBuf};

/// The directories scanned, relative to the repository root.
const SCANNED: [&str; 4] = ["crates", "tests", "examples", "src"];

/// The files that may use std's locks, and the shared state they guard.
const ALLOWED: [(&str, &str); 2] = [
    (
        "crates/coll/src/lib.rs",
        "`VerdictMemo`: the process-wide plan-verdict memo every thread reads",
    ),
    (
        "crates/sim/src/alloc.rs",
        "`TEST_ARM_LOCK`: serializes the unit tests that arm the process-global allocation counters",
    ),
];

const STD_LOCKS: [&str; 3] = ["Mutex", "RwLock", "Condvar"];

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The 1-based lines of `src` that name one of std's locks through a
/// `sync::` path: `std::sync::Mutex`, `sync::RwLock` after `use std::sync`,
/// or an item of a (possibly multi-line) `use std::sync::{…}` group.
/// Comments are ignored.
fn std_lock_lines(src: &str) -> Vec<usize> {
    let code: String = src
        .lines()
        .map(|l| l.split("//").next().unwrap_or_default())
        .collect::<Vec<_>>()
        .join("\n");
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
            if STD_LOCKS.iter().any(|l| word.starts_with(l)) {
                lines.push(code[..from + offset].matches('\n').count() + 1);
            }
            offset += word.len() + 1;
        }
    }
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
        let lines = std_lock_lines(&src);
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
        "std's Mutex, RwLock and Condvar are for state that two threads share; \
         simulation state takes suca_sim::Lock:\n  {}",
        offenders.join("\n  ")
    );
    // An allowance whose lock is gone must go too.
    for (file, what) in ALLOWED {
        assert!(
            allowed_seen.iter().any(|f| f == file),
            "{file} no longer uses a std lock for {what}: drop it from ALLOWED"
        );
    }
}

#[test]
fn the_scan_sees_every_spelling_of_a_std_lock() {
    // Spelled with `SYNC` so this file's own scan stays clean.
    let src = "\
use std::SYNC::{Arc, Mutex};
use std::SYNC::{
    atomic::{AtomicU64, Ordering},
    Condvar,
};
static M: std::SYNC::RwLock<()> = std::SYNC::RwLock::new(());
fn f(g: std::SYNC::MutexGuard<'_, ()>) {}
use std::SYNC;
type T = SYNC::Mutex<u8>;
// std::SYNC::Mutex in a comment
use std::SYNC::{Arc, OnceLock};
use suca_sim::Lock;
use std::SYNC::atomic::AtomicBool;
use my_SYNC::Mutex;
"
    .replace("SYNC", "sync");
    assert_eq!(std_lock_lines(&src), [1, 4, 6, 7, 9]);
}
