//! Host-memory structures shared between the NIC and the user library.
//!
//! The defining trick of the semi-user-level receive path: completion events
//! are DMA'd by the NIC **into user-space memory**, and the process polls
//! them there — no trap, no interrupt. Likewise the system-channel buffer
//! pool's free list lives in host memory where the library returns buffers
//! and the NIC (via DMA reads) claims them.
//!
//! We model the queue *entries* as typed values rather than raw bytes (the
//! payloads themselves live in simulated memory); the DMA cost of writing an
//! event is charged by the MCP before an entry appears here.

use std::cell::RefCell;
use std::collections::VecDeque;

use suca_mem::{NicSegs, VirtAddr, PAGE_SIZE};
use suca_sim::{ActorCtx, Gauge, Signal, Sim};

use crate::port::{RecvEvent, SendEvent};

/// Per-port completion queues, resident in the port owner's user memory.
pub struct UserQueues {
    recv: RefCell<VecDeque<RecvEvent>>,
    send: RefCell<VecDeque<SendEvent>>,
    /// The library's pinned buffers: staged sends, freed by the posting of
    /// their completions, and the ones upper layers take and give back.
    pub(crate) staging: StagingPool,
    /// Depth gauges (cluster-wide, high-water tracked): an unbounded model
    /// queue standing in for a fixed ring, so the high-water mark tells us
    /// how deep a real ring would have to be.
    recv_depth: Gauge,
    send_depth: Gauge,
    /// Notified when a receive event is posted.
    pub recv_signal: Signal,
    /// Notified when a send event is posted.
    pub send_signal: Signal,
    /// Notified when *any* event is posted (progress-engine wakeup).
    pub any_signal: Signal,
}

impl UserQueues {
    /// Create the queues (library side, at port open).
    pub fn new(sim: &Sim) -> Self {
        let metrics = sim.metrics();
        UserQueues {
            recv: RefCell::new(VecDeque::new()),
            send: RefCell::new(VecDeque::new()),
            staging: StagingPool::default(),
            recv_depth: metrics.gauge("cq.recv_depth"),
            send_depth: metrics.gauge("cq.send_depth"),
            recv_signal: Signal::new(sim),
            send_signal: Signal::new(sim),
            any_signal: Signal::new(sim),
        }
    }

    /// NIC side: post a receive event and wake pollers.
    pub fn push_recv(&self, ev: RecvEvent) {
        {
            let mut q = self.recv.borrow_mut();
            q.push_back(ev);
            self.recv_depth.add(1);
        }
        self.recv_signal.notify();
        self.any_signal.notify();
    }

    /// NIC side: post a send event and wake pollers. A buffer the event's
    /// send was staged in is free from here on, consumed or not.
    pub fn push_send(&self, ev: SendEvent) {
        self.staging.posted(ev.msg_id);
        {
            let mut q = self.send.borrow_mut();
            q.push_back(ev);
            self.send_depth.add(1);
        }
        self.send_signal.notify();
        self.any_signal.notify();
    }

    /// Library side: block until *some* event (send or receive) is queued.
    /// Progress engines (EADI) use this to pump both queues.
    pub fn wait_any(&self, ctx: &mut ActorCtx) {
        loop {
            if !self.recv.borrow().is_empty() || !self.send.borrow().is_empty() {
                return;
            }
            self.any_signal.wait(ctx);
        }
    }

    /// Library side: non-blocking poll of the receive queue.
    pub fn pop_recv(&self) -> Option<RecvEvent> {
        let ev = self.recv.borrow_mut().pop_front();
        if ev.is_some() {
            self.recv_depth.sub(1);
        }
        ev
    }

    /// Library side: non-blocking poll of the send queue.
    pub fn pop_send(&self) -> Option<SendEvent> {
        let ev = self.send.borrow_mut().pop_front();
        if ev.is_some() {
            self.send_depth.sub(1);
        }
        ev
    }

    /// Library side: block the actor until a receive event is available.
    pub fn wait_recv(&self, ctx: &mut ActorCtx) -> RecvEvent {
        loop {
            if let Some(ev) = self.pop_recv() {
                return ev;
            }
            self.recv_signal.wait(ctx);
        }
    }

    /// Library side: block the actor until a send event is available.
    pub fn wait_send(&self, ctx: &mut ActorCtx) -> SendEvent {
        loop {
            if let Some(ev) = self.pop_send() {
                return ev;
            }
            self.send_signal.wait(ctx);
        }
    }

    /// Events currently queued (recv, send) — for tests.
    pub fn depths(&self) -> (usize, usize) {
        (self.recv.borrow().len(), self.send.borrow().len())
    }
}

/// The port's one cache of pinned library buffers (DESIGN.md §5 "Buffer
/// lifetime"): system-channel `BclPort::send_bytes` stages here, and an
/// upper layer takes and gives back the buffers it keeps across a send
/// (`BclPort::take_buffer` / `BclPort::give_buffer`). A buffer stays in the
/// owner's space, so its pages stay in the kernel's pin-down table and a
/// repeat send from it hits. Each buffer is kept with its size in pages and
/// only ever re-used at that size. The pool grows on demand and never
/// shrinks; the port frees it all when it is dropped.
#[derive(Default)]
pub(crate) struct StagingPool(RefCell<Staging>);

#[derive(Default)]
struct Staging {
    /// Buffers ready for use, with their size in pages, most recently
    /// freed last.
    free: Vec<(VirtAddr, u64)>,
    /// Staged buffers whose send's completion is not yet posted, by message
    /// id.
    held: Vec<(u32, (VirtAddr, u64))>,
    /// Staged sends being submitted right now, and the completions posted
    /// while any was (a send's id is known only once it returns).
    submitting: u32,
    posted_meanwhile: Vec<u32>,
}

/// Pages a buffer of `len` bytes spans: its size class.
fn pages(len: u64) -> u64 {
    len.max(1).div_ceil(PAGE_SIZE)
}

impl StagingPool {
    /// The most recently freed buffer of `len` bytes' size class, if any.
    pub(crate) fn take(&self, len: u64) -> Option<VirtAddr> {
        let mut st = self.0.borrow_mut();
        let i = st.free.iter().rposition(|&(_, p)| p == pages(len))?;
        Some(st.free.remove(i).0)
    }

    /// File buffer `buf` of `len` bytes as free.
    pub(crate) fn give(&self, buf: VirtAddr, len: u64) {
        self.0.borrow_mut().free.push((buf, pages(len)));
    }

    /// Run `send` from buffer `buf` of `len` bytes, then file the buffer:
    /// held until the send's completion is posted, or free at once when
    /// the send was refused or its completion is already posted.
    pub(crate) fn send<E>(
        &self,
        buf: VirtAddr,
        len: u64,
        send: impl FnOnce() -> Result<u32, E>,
    ) -> Result<u32, E> {
        self.0.borrow_mut().submitting += 1;
        let sent = send();
        let mut st = self.0.borrow_mut();
        let buf = (buf, pages(len));
        match sent {
            Ok(id) if !st.posted_meanwhile.contains(&id) => st.held.push((id, buf)),
            _ => st.free.push(buf),
        }
        st.submitting -= 1;
        if st.submitting == 0 {
            st.posted_meanwhile.clear();
        }
        sent
    }

    /// The completion of message `msg_id` was posted.
    fn posted(&self, msg_id: u32) {
        let mut st = self.0.borrow_mut();
        if let Some(i) = st.held.iter().position(|&(id, _)| id == msg_id) {
            let (_, buf) = st.held.swap_remove(i);
            st.free.push(buf);
        } else if st.submitting > 0 {
            st.posted_meanwhile.push(msg_id);
        }
    }

    /// Empty the pool, held buffers included, as `(address, bytes)`; the
    /// owner frees them.
    pub(crate) fn drain(&self) -> Vec<(VirtAddr, u64)> {
        let mut st = self.0.borrow_mut();
        let held = std::mem::take(&mut st.held).into_iter().map(|(_, buf)| buf);
        let mut all = std::mem::take(&mut st.free);
        all.extend(held);
        all.into_iter()
            .map(|(buf, pages)| (buf, pages * PAGE_SIZE))
            .collect()
    }
}

/// The system channel's buffer pool (paper §2.2): a FIFO of fixed-size
/// buffers in the receiver's user space. The NIC takes a free buffer for
/// each arriving small message; the library returns it after consumption.
pub struct SystemPool {
    buf_bytes: u64,
    /// Physical segments of each buffer (pinned at port open, and held —
    /// not busy: the owner reads them — until the pool is dropped).
    bufs: Vec<NicSegs>,
    free: RefCell<VecDeque<u32>>,
}

impl SystemPool {
    /// Build from the pinned segment lists of the pool's buffers.
    pub fn new(buf_bytes: u64, bufs: Vec<NicSegs>) -> Self {
        let free = (0..bufs.len() as u32).collect();
        SystemPool {
            buf_bytes,
            bufs,
            free: RefCell::new(free),
        }
    }

    /// Size of each buffer (= largest system-channel message).
    pub fn buf_bytes(&self) -> u64 {
        self.buf_bytes
    }

    /// Number of buffers.
    pub fn len(&self) -> usize {
        self.bufs.len()
    }

    /// True if the pool has no buffers at all.
    pub fn is_empty(&self) -> bool {
        self.bufs.is_empty()
    }

    /// NIC side: claim the next free buffer (FIFO). `None` ⇒ the incoming
    /// message is discarded, as the paper specifies.
    pub fn claim(&self) -> Option<u32> {
        self.free.borrow_mut().pop_front()
    }

    /// Library side: return a consumed buffer to the pool.
    pub fn release(&self, idx: u32) {
        assert!((idx as usize) < self.bufs.len(), "bogus pool index {idx}");
        let mut free = self.free.borrow_mut();
        debug_assert!(!free.contains(&idx), "double release of buffer {idx}");
        free.push_back(idx);
    }

    /// Physical segments of buffer `idx`.
    pub fn segments(&self, idx: u32) -> &NicSegs {
        &self.bufs[idx as usize]
    }

    /// Free buffers right now.
    pub fn free_count(&self) -> usize {
        self.free.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::{ChannelId, ProcAddr, RecvDataLoc, SendStatus};
    use std::rc::Rc;
    use suca_os::NodeId;
    use suca_sim::{RunOutcome, SimDuration};

    fn ev(n: u32) -> RecvEvent {
        RecvEvent {
            src: ProcAddr {
                node: NodeId(0),
                port: crate::port::PortId(0),
            },
            channel: ChannelId::SYSTEM,
            len: n as u64,
            msg_id: n,
            data: RecvDataLoc::SystemBuffer(0),
        }
    }

    #[test]
    fn fifo_order() {
        let sim = Sim::new(1);
        let q = UserQueues::new(&sim);
        q.push_recv(ev(1));
        q.push_recv(ev(2));
        assert_eq!(q.pop_recv().unwrap().msg_id, 1);
        assert_eq!(q.pop_recv().unwrap().msg_id, 2);
        assert!(q.pop_recv().is_none());
    }

    #[test]
    fn wait_recv_blocks_until_event() {
        let sim = Sim::new(1);
        let q = Rc::new(UserQueues::new(&sim));
        let q2 = q.clone();
        sim.spawn("rx", move |ctx| {
            let e = q2.wait_recv(ctx);
            assert_eq!(e.msg_id, 9);
            assert_eq!(ctx.now().as_us(), 5.0);
        });
        let q3 = q.clone();
        sim.schedule_in(SimDuration::from_us(5), move |_| q3.push_recv(ev(9)));
        assert_eq!(sim.run(), RunOutcome::Completed);
    }

    #[test]
    fn wait_send_sees_status() {
        let sim = Sim::new(1);
        let q = Rc::new(UserQueues::new(&sim));
        q.push_send(SendEvent {
            msg_id: 3,
            status: SendStatus::Ok,
        });
        let q2 = q.clone();
        sim.spawn("tx", move |ctx| {
            let e = q2.wait_send(ctx);
            assert_eq!(e.status, SendStatus::Ok);
        });
        assert_eq!(sim.run(), RunOutcome::Completed);
    }

    #[test]
    fn a_staging_buffer_is_free_once_its_completion_is_posted() {
        let sim = Sim::new(1);
        let q = UserQueues::new(&sim);
        let done = |msg_id| SendEvent {
            msg_id,
            status: SendStatus::Ok,
        };
        let pool = &q.staging;
        let (a, b, c) = (VirtAddr(0x1000), VirtAddr(0x2000), VirtAddr(0x4000));
        assert_eq!(pool.take(64), None, "the pool starts empty");
        // Held until its completion is posted; never consumed here.
        assert_eq!(pool.send(a, 4096, || Ok::<_, ()>(2)), Ok(2));
        assert_eq!(pool.take(64), None);
        q.push_send(done(2));
        assert_eq!(pool.take(64), Some(a));
        // A refused send gives its buffer back at once.
        assert_eq!(pool.send(a, 4096, || Err(())), Err(()));
        assert_eq!(pool.take(4096), Some(a));
        // So does one whose completion was posted before it returned.
        assert_eq!(
            pool.send(b, 4096, || {
                q.push_send(done(4));
                Ok::<_, ()>(4)
            }),
            Ok(4)
        );
        assert_eq!(pool.take(1), Some(b));
        // Take and give round-trip at a buffer's own page count only, and a
        // staged send files its buffer back at its own count.
        pool.give(a, 10);
        pool.give(c, 3 * 4096);
        pool.send(b, 8192, || Ok::<_, ()>(6)).unwrap();
        q.push_send(done(6));
        assert_eq!(pool.take(2 * 4096 + 1), Some(c));
        assert_eq!(pool.take(2 * 4096 + 1), None, "one 3-page buffer");
        assert_eq!(pool.take(5000), Some(b));
        assert_eq!(pool.take(5000), None, "no 1-page buffer stands in");
        assert_eq!(pool.take(0), Some(a));
        // Dropping the port takes held buffers too, each at its own size.
        pool.send(a, 4096, || Ok::<_, ()>(8)).unwrap();
        pool.send(b, 8000, || Ok::<_, ()>(10)).unwrap();
        pool.give(c, 12_288);
        q.push_send(done(10));
        let mut all = pool.drain();
        all.sort();
        assert_eq!(all, vec![(a, 4096), (b, 8192), (c, 12_288)]);
        assert_eq!(q.depths(), (0, 4), "the events stay queued for the owner");
    }

    #[test]
    fn pool_fifo_claim_release() {
        let pool = SystemPool::new(4096, vec![NicSegs::default(), NicSegs::default()]);
        assert_eq!(pool.free_count(), 2);
        let a = pool.claim().unwrap();
        let b = pool.claim().unwrap();
        assert_eq!((a, b), (0, 1));
        assert!(pool.claim().is_none(), "pool exhausted");
        pool.release(b);
        assert_eq!(pool.claim().unwrap(), 1, "FIFO reuse");
    }
}
