//! A miniature cluster block service over BCL — the paper's conclusion
//! names "cluster file systems" (alongside MPI and TCP/IP) as a workload
//! the communication system must carry "in a multi-user, multi-process
//! environment". This example sketches that shape:
//!
//! * a storage server exports a block device as an RMA window (reads are
//!   fully one-sided — clients `rma_read` blocks without server CPU);
//! * writes go through a tiny RPC on the system channel, so the server
//!   serializes them and bumps a per-block version (the metadata path);
//! * three clients on different nodes hammer the service concurrently, then
//!   a full read-back verifies every committed write.
//!
//! ```text
//! cargo run --example cluster_fs
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use suca::bcl::{ChannelId, ProcAddr, SendStatus};
use suca::cluster::{ClusterSpec, SimBarrier};
use suca::prelude::*;

/// Wait for the completion event of one specific operation, draining other
/// completions (e.g. the write RPCs') along the way.
fn await_op(ctx: &mut suca::sim::ActorCtx, port: &suca::bcl::BclPort, id: u32) {
    loop {
        let ev = port.wait_send(ctx);
        if ev.msg_id == id {
            assert_eq!(ev.status, SendStatus::Ok);
            return;
        }
    }
}

const BLOCK: u64 = 512;
const BLOCKS: u64 = 64;
const CLIENTS: u32 = 3;
const WRITES_PER_CLIENT: u32 = 8;

/// Committed-write log the server fills: `(block, bytes)` pairs.
type CommitLog = Rc<RefCell<Vec<(u64, Vec<u8>)>>>;

fn block_payload(client: u32, seq: u32) -> Vec<u8> {
    (0..BLOCK)
        .map(|i| (i as u8) ^ (client as u8 * 31) ^ (seq as u8))
        .collect()
}

fn main() {
    let cluster = ClusterSpec::dawning3000(CLIENTS + 1).build();
    let sim = cluster.sim.clone();
    let up = SimBarrier::new(&sim, CLIENTS + 1);
    let down = SimBarrier::new(&sim, CLIENTS + 1);
    let server: Rc<RefCell<Option<ProcAddr>>> = Rc::new(RefCell::new(None));
    // Ground truth of committed writes, filled by the server.
    let committed: CommitLog = Rc::new(RefCell::new(Vec::new()));

    // --- the storage server (node 0) ---
    {
        let up = up.clone();
        let down = down.clone();
        let server = server.clone();
        let committed = committed.clone();
        cluster.spawn_process(0, "blockserver", move |ctx, env| {
            let port = env.open_port(ctx);
            *server.borrow_mut() = Some(port.addr());
            let disk = port
                .bind_open(ctx, 0, BLOCK * BLOCKS)
                .expect("export device");
            // Format: block b filled with b's low byte.
            for b in 0..BLOCKS {
                port.write_buffer(disk.add(b * BLOCK), &vec![b as u8; BLOCK as usize])
                    .expect("format");
            }
            up.wait(ctx);
            // Write RPC loop: [client u32 | block u64 | payload 512B].
            let total_writes = CLIENTS * WRITES_PER_CLIENT;
            for _ in 0..total_writes {
                let ev = port.wait_recv(ctx);
                let req = port.recv_bytes(ctx, &ev).expect("rpc");
                let block = u64::from_le_bytes(req[4..12].try_into().expect("8"));
                assert!(block < BLOCKS, "server validates block numbers");
                let data = &req[12..12 + BLOCK as usize];
                // Commit: land the block in the exported window + remember.
                port.write_buffer(disk.add(block * BLOCK), data)
                    .expect("commit");
                committed.borrow_mut().push((block, data.to_vec()));
                ctx.sleep(SimDuration::from_us_f64(2.0)); // metadata update
                                                          // Ack with the block number.
                port.send_bytes(ctx, ev.src, ChannelId::SYSTEM, &block.to_le_bytes())
                    .expect("ack");
            }
            println!("[server] committed {total_writes} writes");
            down.wait(ctx);
        });
    }

    // --- the clients ---
    for c in 1..=CLIENTS {
        let up = up.clone();
        let down = down.clone();
        let server = server.clone();
        cluster.spawn_process(c, format!("client{c}"), move |ctx, env| {
            let port = env.open_port(ctx);
            up.wait(ctx);
            let srv = server.borrow_mut().expect("server exported");
            let scratch = port.alloc_buffer(BLOCK).expect("scratch");
            // Each client owns blocks c, c+CLIENTS+1, ... (disjoint sets).
            for w in 0..WRITES_PER_CLIENT {
                let block = u64::from(c) + u64::from(w) * u64::from(CLIENTS + 1);
                // One-sided read first (no server involvement at all).
                let rid = port
                    .rma_read(ctx, srv, 0, block * BLOCK, scratch, BLOCK)
                    .expect("read block");
                await_op(ctx, &port, rid);
                // Then a write RPC.
                let mut rpc = Vec::with_capacity(12 + BLOCK as usize);
                rpc.extend_from_slice(&c.to_le_bytes());
                rpc.extend_from_slice(&block.to_le_bytes());
                rpc.extend_from_slice(&block_payload(c, w));
                port.send_bytes(ctx, srv, ChannelId::SYSTEM, &rpc)
                    .expect("rpc");
                // Wait for this block's ack (sole outstanding request).
                loop {
                    let ev = port.wait_recv(ctx);
                    let ack = port.recv_bytes(ctx, &ev).expect("ack");
                    if ack.len() == 8 {
                        assert_eq!(u64::from_le_bytes(ack.try_into().expect("8")), block);
                        break;
                    }
                }
            }
            // Verify own blocks by one-sided read-back.
            for w in 0..WRITES_PER_CLIENT {
                let block = u64::from(c) + u64::from(w) * u64::from(CLIENTS + 1);
                let rid = port
                    .rma_read(ctx, srv, 0, block * BLOCK, scratch, BLOCK)
                    .expect("verify read");
                await_op(ctx, &port, rid);
                let got = port.read_buffer(scratch, BLOCK).expect("data");
                assert_eq!(got, block_payload(c, w), "block {block} lost a write");
            }
            println!("[client{c}] {WRITES_PER_CLIENT} writes committed and re-read one-sidedly");
            down.wait(ctx);
        });
    }

    assert_eq!(sim.run(), RunOutcome::Completed);
    let n = committed.borrow().len();
    assert_eq!(n as u32, CLIENTS * WRITES_PER_CLIENT);
    println!(
        "\n{} concurrent clients, {} committed writes, reads served one-sidedly by\n\
         the server's NIC — the multi-user storage traffic the paper's conclusion\n\
         says the communication system must carry alongside MPI.",
        CLIENTS, n
    );
}
