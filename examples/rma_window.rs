//! Open channels — BCL's one-sided RMA (paper §2.2: "Once a user-specified
//! buffer is bound to an open channel, other processes are able to
//! read/write memory areas within the corresponding buffer").
//!
//! A server binds a window; a client writes a request record into it and
//! reads a result back, all one-sided: the server process never posts a
//! receive and is never interrupted (it's busy "computing" the whole time).
//!
//! ```text
//! cargo run --example rma_window
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use suca::bcl::{ProcAddr, SendStatus};
use suca::cluster::{ClusterSpec, SimBarrier};
use suca::prelude::*;

fn main() {
    let cluster = ClusterSpec::dawning3000(2).build();
    let sim = cluster.sim.clone();
    let barrier = SimBarrier::new(&sim, 2);
    let done = SimBarrier::new(&sim, 2);
    let server_addr: Rc<RefCell<Option<ProcAddr>>> = Rc::new(RefCell::new(None));

    // Server: binds an 8 KiB window, preloads a lookup table in its second
    // half, then goes compute-bound. All access to its memory is one-sided.
    {
        let barrier = barrier.clone();
        let done = done.clone();
        let server_addr = server_addr.clone();
        cluster.spawn_process(1, "server", move |ctx, env| {
            let port = env.open_port(ctx);
            *server_addr.borrow_mut() = Some(port.addr());
            let win = port.bind_open(ctx, 0, 8192).expect("bind window");
            let table: Vec<u8> = (0..4096u32).map(|i| (i * 7 % 256) as u8).collect();
            port.write_buffer(win.add(4096), &table).expect("preload");
            barrier.wait(ctx);
            println!("[server] window bound; entering compute loop (no recv posted!)");
            done.wait(ctx);
            // Observe what the client deposited, after the fact.
            let got = port.read_buffer(win, 11).expect("window");
            println!(
                "[server] found in window afterwards: {:?}",
                String::from_utf8_lossy(&got)
            );
            assert_eq!(&got, b"job-request");
        });
    }

    // Client on node 0.
    cluster.spawn_process(0, "client", move |ctx, env| {
        let port = env.open_port(ctx);
        barrier.wait(ctx);
        let dst = server_addr.borrow_mut().expect("server ready");

        // One-sided write of a request record into the window's first half.
        let req = port.alloc_buffer(64).expect("buf");
        port.write_buffer(req, b"job-request").expect("fill");
        let id = port.rma_write(ctx, dst, 0, 0, req, 11).expect("rma write");
        let ev = port.wait_send(ctx);
        assert_eq!((ev.msg_id, ev.status), (id, SendStatus::Ok));
        println!("[client] one-sided write landed at t={}", ctx.now());

        // One-sided read of the server's preloaded table.
        let into = port.alloc_buffer(4096).expect("buf");
        let id = port
            .rma_read(ctx, dst, 0, 4096, into, 4096)
            .expect("rma read");
        let ev = port.wait_send(ctx);
        assert_eq!((ev.msg_id, ev.status), (id, SendStatus::Ok));
        let table = port.read_buffer(into, 4096).expect("read back");
        assert!(table
            .iter()
            .enumerate()
            .all(|(i, &b)| b == (i as u32 * 7 % 256) as u8));
        println!(
            "[client] one-sided read of 4 KiB table verified at t={}",
            ctx.now()
        );
        done.wait(ctx);
    });

    assert_eq!(sim.run(), RunOutcome::Completed);
    println!("\nserver posted no receives and took no interrupts; the NIC validated");
    println!("window bounds on its behalf (try reading past the window: see the");
    println!("multiuser_security example).");
}
