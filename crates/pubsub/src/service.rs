//! The pub-sub service: rooms behind an RPC handler.
//!
//! Plug into [`suca_rpc::RpcServer::serve_tenants_until_idle`] as
//! `&mut |ctx, req| svc.handle(ctx, req)` — or compose it into a
//! multi-tenant dispatcher that routes by `req.tenant`. Fan-out deliveries
//! and shed notices come back as [`RpcPush`]es on the reply; the RPC layer
//! sends them after the response, so a subscriber always learns its replay
//! start before the first push can arrive.

use std::collections::HashMap;

use suca_bcl::ProcAddr;
use suca_rpc::{RpcPush, RpcReply, RpcRequest};
use suca_sim::mtrace::stage;
use suca_sim::{ActorCtx, Counter, Metrics, SimDuration, TraceEvent, TraceId, TraceLayer};

use crate::room::{DeliveryKind, Room, RoomCfg, RoomStats};
use crate::wire::{
    dec_ack, dec_event, dec_history, dec_subscribe, enc_event, enc_history_resp, enc_seq,
    FLAG_SHED, OP_ACK, OP_HISTORY, OP_PUBLISH, OP_SUBSCRIBE,
};

/// Virtual service time per op class (handler sleeps; RPC/BCL costs come
/// on top).
#[derive(Clone, Copy, Debug)]
pub struct PubSubCosts {
    /// Append + fan-out classification.
    pub publish: SimDuration,
    /// Subscriber-table insert + replay setup.
    pub subscribe: SimDuration,
    /// Log range read (replay).
    pub history: SimDuration,
    /// Credit return + catch-up.
    pub ack: SimDuration,
}

impl Default for PubSubCosts {
    fn default() -> Self {
        PubSubCosts {
            publish: SimDuration::from_ns(2_000),
            subscribe: SimDuration::from_ns(1_500),
            history: SimDuration::from_us(8),
            ack: SimDuration::from_ns(1_000),
        }
    }
}

/// Pack a port address into the room-model subscriber key.
fn sub_key(addr: ProcAddr) -> u64 {
    (u64::from(addr.node.0) << 16) | u64::from(addr.port.0)
}

/// One node's pub-sub service: a set of rooms plus the address map that
/// turns room-model subscriber keys back into push destinations.
pub struct PubSubService {
    rooms: HashMap<u32, Room>,
    addrs: HashMap<u64, ProcAddr>,
    room_cfg: RoomCfg,
    costs: PubSubCosts,
    node: u32,
    c_published: Counter,
    c_fanout_sent: Counter,
    c_fanout_throttled: Counter,
    c_fanout_shed: Counter,
    c_catchup_sent: Counter,
    c_subs_shed: Counter,
    c_history_events: Counter,
    c_acks: Counter,
    c_malformed: Counter,
}

impl PubSubService {
    /// Empty service on `node` (the trace-instant attribution node).
    pub fn new(m: &Metrics, node: u32, room_cfg: RoomCfg, costs: PubSubCosts) -> Self {
        PubSubService {
            rooms: HashMap::new(),
            addrs: HashMap::new(),
            room_cfg,
            costs,
            node,
            c_published: m.counter("pubsub.published"),
            c_fanout_sent: m.counter("pubsub.fanout_sent"),
            c_fanout_throttled: m.counter("pubsub.fanout_throttled"),
            c_fanout_shed: m.counter("pubsub.fanout_shed"),
            c_catchup_sent: m.counter("pubsub.catchup_sent"),
            c_subs_shed: m.counter("pubsub.subs_shed"),
            c_history_events: m.counter("pubsub.history_events"),
            c_acks: m.counter("pubsub.acks"),
            c_malformed: m.counter("pubsub.malformed"),
        }
    }

    /// Summed tallies across this node's rooms (the per-node slice of the
    /// fan-out accounting identity).
    pub fn stats(&self) -> RoomStats {
        let mut total = RoomStats::default();
        for r in self.rooms.values() {
            let s = r.stats();
            total.published += s.published;
            total.expected_fanout += s.expected_fanout;
            total.fanout_sent += s.fanout_sent;
            total.fanout_throttled += s.fanout_throttled;
            total.fanout_shed += s.fanout_shed;
            total.catchup_sent += s.catchup_sent;
            total.subs_shed += s.subs_shed;
        }
        total
    }

    /// Execute one request. Malformed payloads get an empty response and a
    /// `pubsub.malformed` count (the client's decoder treats the empty
    /// body as a failed verification), never a panic.
    pub fn handle(&mut self, ctx: &mut ActorCtx, req: &RpcRequest<'_>) -> RpcReply {
        let key = sub_key(req.src);
        self.addrs.insert(key, req.src);
        match req.op_class {
            OP_PUBLISH => {
                let Some((room_id, flags, data)) = dec_event(req.payload) else {
                    return self.malformed();
                };
                ctx.sleep(self.costs.publish);
                let room = self
                    .rooms
                    .entry(room_id)
                    .or_insert_with(|| Room::new(self.room_cfg));
                // The event record stored in the room is `flags | data`, so
                // flags (EOF sentinels) survive throttling and replay via
                // credit — a subscriber catching up still sees the EOF.
                let mut record = Vec::with_capacity(1 + data.len());
                record.push(flags);
                record.extend_from_slice(data);
                let (seq, out) = room.publish(&record);
                self.c_published.inc();
                self.c_fanout_throttled.add(out.throttled);
                let pushes = self.deliveries_to_pushes(ctx, req, room_id, out.deliveries);
                RpcReply {
                    payload: enc_seq(seq),
                    pushes,
                }
            }
            OP_SUBSCRIBE => {
                let Some((room_id, from)) = dec_subscribe(req.payload) else {
                    return self.malformed();
                };
                ctx.sleep(self.costs.subscribe);
                let room = self
                    .rooms
                    .entry(room_id)
                    .or_insert_with(|| Room::new(self.room_cfg));
                let (start, replay) = room.subscribe(key, from);
                let pushes = self.deliveries_to_pushes(ctx, req, room_id, replay);
                RpcReply {
                    payload: enc_seq(start),
                    pushes,
                }
            }
            OP_HISTORY => {
                let Some((room_id, from, max)) = dec_history(req.payload) else {
                    return self.malformed();
                };
                ctx.sleep(self.costs.history);
                let (first, items) = match self.rooms.get(&room_id) {
                    Some(room) => room.history(from, max.min(64)),
                    None => (0, Vec::new()),
                };
                self.c_history_events.add(items.len() as u64);
                RpcReply::inline(enc_history_resp(first, &items))
            }
            OP_ACK => {
                let Some((room_id, bytes)) = dec_ack(req.payload) else {
                    return self.malformed();
                };
                ctx.sleep(self.costs.ack);
                let replay = match self.rooms.get_mut(&room_id) {
                    Some(room) => room.credit(key, u64::from(bytes)),
                    None => Vec::new(),
                };
                self.c_acks.inc();
                let pushes = self.deliveries_to_pushes(ctx, req, room_id, replay);
                RpcReply {
                    payload: enc_seq(0),
                    pushes,
                }
            }
            _ => self.malformed(),
        }
    }

    fn malformed(&self) -> RpcReply {
        self.c_malformed.inc();
        RpcReply::inline(Vec::new())
    }

    /// Turn room deliveries into wire pushes, counting each kind.
    /// Delivered records are `flags | data` (see `OP_PUBLISH`); sheds
    /// become `FLAG_SHED` notices and land on the trace's pub-sub track.
    fn deliveries_to_pushes(
        &mut self,
        ctx: &ActorCtx,
        req: &RpcRequest<'_>,
        room_id: u32,
        deliveries: Vec<crate::room::Delivery>,
    ) -> Vec<RpcPush> {
        let mut pushes = Vec::with_capacity(deliveries.len());
        for d in deliveries {
            let counter = match d.kind {
                DeliveryKind::Fresh => &self.c_fanout_sent,
                DeliveryKind::Catchup => &self.c_catchup_sent,
                DeliveryKind::Shed => &self.c_fanout_shed,
                DeliveryKind::Evicted => &self.c_subs_shed,
            };
            counter.inc();
            let (wire_flags, data) = match d.kind {
                DeliveryKind::Fresh | DeliveryKind::Catchup => (d.payload[0], &d.payload[1..]),
                DeliveryKind::Shed | DeliveryKind::Evicted => (FLAG_SHED, &[][..]),
            };
            if wire_flags & FLAG_SHED != 0 {
                ctx.sim().trace_event(TraceEvent::instant(
                    TraceId::NONE,
                    self.node,
                    TraceLayer::Rpc,
                    stage::PUBSUB_SHED,
                    ctx.now().as_ns(),
                ));
            }
            let Some(&dst) = self.addrs.get(&d.sub) else {
                // A subscriber we never saw an address for cannot happen
                // (keys are minted from request sources), but count it
                // rather than trust that forever.
                self.c_malformed.inc();
                continue;
            };
            pushes.push(RpcPush {
                dst,
                tenant: req.tenant,
                op_class: OP_PUBLISH,
                seq: d.seq,
                payload: enc_event(room_id, wire_flags, data),
            });
        }
        pushes
    }
}
