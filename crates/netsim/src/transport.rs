//! Transport glue: an arrived packet goes to its UDP port's owner or to
//! the node's tcp-lite stack, and what a stack asks for in return is done.
//! [`crate::tcp`] keeps the protocol behind [`TcpAction`]s; the simulator
//! never looks inside. `Rto` is the layer's event; `netsim.tcp` its digest.

use crate::digest::StateHasher;
use crate::ids::NodeId;
use crate::packet::{Packet, TransportProto};
use crate::sim::{Event, Simulator};
use crate::stats::{DropReason, TraceKind};
use crate::tcp::{TcpAction, TcpStack};
use telemetry::{Category, Detail};

/// The transport layer's event: a connection's retransmission timer.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TransportEvent {
    Rto { node: NodeId, conn: u64, seq: u64 },
}

impl TransportEvent {
    pub(crate) fn digest(&self, h: &mut StateHasher) {
        let TransportEvent::Rto { node, conn, seq } = *self;
        h.write_bytes(&[6]);
        h.write_usize(node.index());
        h.write_u64(conn);
        h.write_u64(seq);
    }
}

impl Simulator {
    /// The node's TCP stack, allocated on first touch. A freshly
    /// materialized stack behaves identically to one allocated at
    /// `add_node` time (counters start at their initial values either
    /// way), so laziness never shows up in traces or digests.
    pub(crate) fn tcp_stack_mut(&mut self, node: NodeId) -> &mut TcpStack {
        self.tcp[node.index()].get_or_insert_with(|| Box::new(TcpStack::new(node)))
    }

    /// Hands a packet addressed to `node` up the stack.
    pub(crate) fn deliver_up(&mut self, node: NodeId, packet: Packet) {
        self.nodes.rx_packets[node.index()] += 1;
        self.nodes.rx_bytes[node.index()] += u64::from(packet.wire_bytes());
        match packet.proto {
            TransportProto::Udp => {
                let port = packet.dst.port();
                match self.nodes.udp_binds[node.index()].get(&port).copied() {
                    Some(app) => {
                        self.stats.packets_delivered += 1;
                        self.stats.bytes_delivered += u64::from(packet.wire_bytes());
                        self.trace(TraceKind::Delivered, node, &packet);
                        self.with_app(app, |a, ctx| a.on_packet(ctx, &packet));
                    }
                    None => self.drop_packet(DropReason::PortUnreachable, node, &packet),
                }
            }
            TransportProto::Tcp => {
                self.stats.packets_delivered += 1;
                self.stats.bytes_delivered += u64::from(packet.wire_bytes());
                self.trace(TraceKind::Delivered, node, &packet);
                let actions = self.tcp_stack_mut(node).on_segment(&packet);
                self.process_tcp_actions(node, actions);
            }
        }
    }

    pub(crate) fn process_tcp_actions(&mut self, node: NodeId, actions: Vec<TcpAction>) {
        for action in actions {
            match action {
                TcpAction::Send(pkt) => self.send_from_node(node, pkt),
                TcpAction::Event(app, ev) => {
                    self.with_app(app, |a, ctx| a.on_tcp(ctx, ev));
                }
                TcpAction::SetRto { conn, seq, after } => {
                    let rto = TransportEvent::Rto { node, conn, seq };
                    self.schedule(self.now() + after, Event::Transport(rto));
                }
            }
        }
    }

    pub(crate) fn on_transport_event(&mut self, event: TransportEvent) {
        let TransportEvent::Rto { node, conn, seq } = event;
        let actions = self.tcp_stack_mut(node).on_rto(conn, seq);
        if !actions.is_empty() {
            self.telemetry.record_event(
                self.now().as_nanos(),
                Some(node.index() as u32),
                Category::TcpRetransmit,
                || Detail::TcpRetransmit { conn, seq },
            );
        }
        self.process_tcp_actions(node, actions);
    }

    /// `netsim.tcp`.
    pub(crate) fn tcp_digest(&self) -> u64 {
        let mut h = StateHasher::new();
        h.write_usize(self.tcp.len());
        for (i, stack) in self.tcp.iter().enumerate() {
            match stack {
                Some(s) => s.state_digest(&mut h),
                // A never-touched stack digests as a fresh one: lazy
                // allocation is invisible to the determinism surface.
                None => TcpStack::new(NodeId::from_index(i)).state_digest(&mut h),
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::app::Application;
    use crate::packet::Payload;
    use crate::sim::tests::{two_hosts, v4, Blaster, Sink};
    use crate::tcp::TcpEvent;
    use crate::{Ctx, SimTime};
    use std::net::SocketAddr;
    use std::time::Duration;

    #[test]
    fn udp_delivery_end_to_end() {
        let mut h = two_hosts(1_000_000);
        let sink = h.sim.install_app(h.b, Box::new(Sink::default()));
        h.sim.install_app(h.a, Box::new(Blaster::new(v4(2), 10, Duration::from_millis(10))));
        h.sim.run_until(SimTime::from_secs(2));
        let s = h.sim.app_ref::<Sink>(sink).expect("sink exists");
        assert_eq!(s.packets, 10);
        assert_eq!(h.sim.stats().packets_delivered, 10);
    }

    #[test]
    fn tcp_connect_and_exchange() {
        struct Server {
            got: Vec<u32>,
        }
        impl Application for Server {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.tcp_listen(23).expect("listen");
            }
            fn on_tcp(&mut self, ctx: &mut Ctx<'_>, ev: TcpEvent) {
                if let TcpEvent::Data { conn, payload, .. } = ev {
                    let v = *payload.get::<u32>().expect("u32");
                    self.got.push(v);
                    ctx.tcp_send(conn, Payload::new(v + 1), 4).expect("reply");
                }
            }
        }
        struct Client {
            server: SocketAddr,
            reply: Option<u32>,
        }
        impl Application for Client {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.tcp_connect(self.server).expect("connect");
            }
            fn on_tcp(&mut self, ctx: &mut Ctx<'_>, ev: TcpEvent) {
                match ev {
                    TcpEvent::Connected { conn } => {
                        ctx.tcp_send(conn, Payload::new(41u32), 4).expect("send");
                    }
                    TcpEvent::Data { payload, .. } => {
                        self.reply = Some(*payload.get::<u32>().expect("u32"));
                    }
                    _ => {}
                }
            }
        }
        let mut h = two_hosts(1_000_000);
        let srv = h.sim.install_app(h.b, Box::new(Server { got: vec![] }));
        let cli = h.sim.install_app(
            h.a,
            Box::new(Client {
                server: SocketAddr::new(v4(2), 23),
                reply: None,
            }),
        );
        h.sim.run_until(SimTime::from_secs(2));
        assert_eq!(h.sim.app_ref::<Server>(srv).expect("srv").got, vec![41]);
        assert_eq!(h.sim.app_ref::<Client>(cli).expect("cli").reply, Some(42));
    }
}
