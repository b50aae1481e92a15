//! A miniature home-based shared-virtual-memory layer over BCL RMA —
//! a nod to JIAJIA, the SVM system in DAWNING-3000's software stack
//! (paper Fig. 1). This is exactly the kind of "higher level software"
//! the paper expects to build on BCL's open channels.
//!
//! Node 0 is the *home* of a shared array living in an RMA window. Worker
//! nodes fetch pages one-sidedly (`rma_read`), compute on private copies,
//! and write results back (`rma_write`) — each worker owns a disjoint slice,
//! release-consistency style. A final barrier and home-side verification
//! close the loop.
//!
//! ```text
//! cargo run --example svm_pages
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use suca::bcl::{ProcAddr, SendStatus};
use suca::cluster::{ClusterSpec, SimBarrier};
use suca::prelude::*;

const WORKERS: u32 = 3;
const PAGE: u64 = 4096;
const PAGES_PER_WORKER: u64 = 4;
const TOTAL: u64 = PAGE * PAGES_PER_WORKER * WORKERS as u64;

fn main() {
    let cluster = ClusterSpec::dawning3000(WORKERS + 1).build();
    let sim = cluster.sim.clone();
    let ready = SimBarrier::new(&sim, WORKERS + 1);
    let done = SimBarrier::new(&sim, WORKERS + 1);
    let home: Rc<RefCell<Option<ProcAddr>>> = Rc::new(RefCell::new(None));

    // The home node: owns the shared array and verifies the result.
    {
        let ready = ready.clone();
        let done = done.clone();
        let home = home.clone();
        cluster.spawn_process(0, "home", move |ctx, env| {
            let port = env.open_port(ctx);
            *home.borrow_mut() = Some(port.addr());
            let win = port.bind_open(ctx, 0, TOTAL).expect("bind shared array");
            // Initialize the shared array: arr[i] = i % 251.
            let init: Vec<u8> = (0..TOTAL).map(|i| (i % 251) as u8).collect();
            port.write_buffer(win, &init).expect("init");
            ready.wait(ctx);
            done.wait(ctx);
            ctx.sleep(SimDuration::from_us(200)); // let final write-backs land
            let after = port.read_buffer(win, TOTAL).expect("readback");
            for (i, &v) in after.iter().enumerate() {
                let expect = ((i as u64 % 251) as u8).wrapping_add(1);
                assert_eq!(v, expect, "shared array wrong at {i}");
            }
            println!(
                "[home] verified {} bytes: every element incremented exactly once",
                TOTAL
            );
        });
    }

    // Workers: fetch pages, increment every byte, write back.
    for w in 1..=WORKERS {
        let ready = ready.clone();
        let done = done.clone();
        let home = home.clone();
        cluster.spawn_process(w, format!("worker{w}"), move |ctx, env| {
            let port = env.open_port(ctx);
            ready.wait(ctx);
            let home = home.borrow_mut().expect("home bound");
            let my_base = (w as u64 - 1) * PAGE * PAGES_PER_WORKER;
            let scratch = port.alloc_buffer(PAGE).expect("scratch page");
            for p in 0..PAGES_PER_WORKER {
                let off = my_base + p * PAGE;
                // Page fault: fetch the page from its home, one-sided.
                let rid = port
                    .rma_read(ctx, home, 0, off, scratch, PAGE)
                    .expect("fetch");
                let ev = port.wait_send(ctx);
                assert_eq!((ev.msg_id, ev.status), (rid, SendStatus::Ok));
                // Local compute on the private copy.
                let mut page = port.read_buffer(scratch, PAGE).expect("page");
                for b in page.iter_mut() {
                    *b = b.wrapping_add(1);
                }
                port.write_buffer(scratch, &page).expect("update");
                ctx.sleep(SimDuration::from_us(3)); // the "compute" phase
                                                    // Release: write the dirty page home, one-sided.
                let wid = port
                    .rma_write(ctx, home, 0, off, scratch, PAGE)
                    .expect("flush");
                let ev = port.wait_send(ctx);
                assert_eq!((ev.msg_id, ev.status), (wid, SendStatus::Ok));
            }
            println!(
                "[worker{w}] {} pages fetched/updated/flushed by t={}",
                PAGES_PER_WORKER,
                ctx.now()
            );
            done.wait(ctx);
        });
    }

    assert_eq!(sim.run(), RunOutcome::Completed);
    println!(
        "\nno receives were ever posted for page traffic — the home's NIC served\n\
         every fetch and flush one-sidedly while its CPU stayed free (this is\n\
         what JIAJIA-style SVM layers bought from BCL's open channels)."
    );
}
