//! The forwarding layer: interfaces, addresses, routes, and the path a
//! packet takes from a send to its delivery — routing, transit through
//! routers and multicast relays, ingress filtering. `Deliver` is its event;
//! `netsim.nodes` its digest. Both media hang off it (`transmit_on_iface`
//! and `flush_iface` alone tell them apart), and every drop exit in the
//! simulator ends in [`Simulator::drop_packet`].

use crate::digest::StateHasher;
use crate::filter::FilterVerdict;
use crate::ids::{IfaceId, LinkId, NodeId};
use crate::node::{Attachment, Iface, Route};
use crate::packet::Packet;
use crate::sim::{Event, Simulator};
use crate::stats::DropReason;
use std::net::IpAddr;
use telemetry::CaptureRecord;

/// The forwarding layer's event: a frame arrives at an interface.
#[derive(Debug, Clone)]
pub(crate) enum ForwardEvent {
    /// `epoch` is `Some((link, link_epoch_at_tx))` for frames in flight on a
    /// point-to-point link; a link-down flap bumps the link's epoch, so the
    /// pending delivery detects it went stale and drops instead of
    /// delivering. Loopback and Wi-Fi deliveries carry `None`.
    Deliver { iface: IfaceId, packet: Packet, epoch: Option<(LinkId, u64)> },
}

impl ForwardEvent {
    pub(crate) fn digest(&self, h: &mut StateHasher) {
        let ForwardEvent::Deliver { iface, packet, epoch } = self;
        h.write_bytes(&[3]);
        h.write_usize(iface.index());
        packet.state_digest(h);
        h.write_option(*epoch, |h, (link, e)| {
            h.write_usize(link.index());
            h.write_u64(e);
        });
    }
}

impl Simulator {
    /// Installs an interface with the given addresses on a node.
    pub fn add_iface(&mut self, node: NodeId, addrs: Vec<IpAddr>) -> IfaceId {
        let id = IfaceId::from_index(self.ifaces.len());
        for addr in &addrs {
            // The local-delivery fast path resolves ownership through this
            // index, so an address must belong to exactly one interface.
            assert!(
                self.addr_index.insert(*addr, id).is_none(),
                "address {addr} assigned to two interfaces"
            );
            self.nodes.note_addr(node.index(), *addr);
        }
        self.ifaces.push(Iface {
            node,
            addrs,
            attachment: None,
            multicast_groups: Vec::new(),
        });
        self.nodes.ifaces[node.index()].push(id);
        id
    }

    /// Returns an interface by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`Simulator::add_iface`].
    pub fn iface(&self, id: IfaceId) -> &Iface {
        &self.ifaces[id.index()]
    }

    /// Adds a static route on a node.
    pub fn add_route(&mut self, node: NodeId, prefix: IpAddr, prefix_len: u8, iface: IfaceId) {
        self.nodes.routes[node.index()].push(Route {
            prefix,
            prefix_len,
            iface,
        });
    }

    /// Adds default routes (both families) out of `iface`.
    pub fn add_default_route(&mut self, node: NodeId, iface: IfaceId) {
        self.add_route(node, IpAddr::V4(std::net::Ipv4Addr::UNSPECIFIED), 0, iface);
        self.add_route(node, IpAddr::V6(std::net::Ipv6Addr::UNSPECIFIED), 0, iface);
    }

    /// Removes every route on `node` matching `prefix`/`prefix_len` exactly,
    /// returning how many were removed. The node's route index is rebuilt
    /// on its next lookup.
    pub fn remove_route(&mut self, node: NodeId, prefix: IpAddr, prefix_len: u8) -> usize {
        self.nodes.routes[node.index()].remove(prefix, prefix_len)
    }

    /// Resolves the egress route for `dst` on `node` exactly as the
    /// forwarding hot path does: through the node's exact route index
    /// (`tests/route_cache.rs` compares it with a linear scan of
    /// [`crate::node::NodeRef::routes`]).
    pub fn resolve_route(&self, node: NodeId, dst: IpAddr) -> Option<Route> {
        self.nodes.routes[node.index()].lookup(dst)
    }

    /// First address of the given family on any of the node's interfaces
    /// (in interface install order). Interface address lists are
    /// append-only, so the arena memoizes the answer per family.
    pub(crate) fn node_addr(&self, node: NodeId, want_v6: bool) -> Option<IpAddr> {
        if want_v6 {
            self.nodes.first_v6[node.index()]
        } else {
            self.nodes.first_v4[node.index()]
        }
    }

    /// Resolves which node owns `addr`, if any.
    pub fn node_by_addr(&self, addr: IpAddr) -> Option<NodeId> {
        self.addr_index.get(&addr).map(|i| self.ifaces[i.index()].node)
    }

    /// Offers a packet event — `kind` is `sent`, `delivered`, `forwarded`
    /// or `dropped:<reason>` — to the packet capture, the one packet
    /// observer. The record is built only when a capture is live.
    pub(crate) fn trace(&self, kind: &'static str, node: NodeId, pkt: &Packet) {
        self.telemetry.capture_packet(|| CaptureRecord {
            time_nanos: self.now().as_nanos(),
            kind,
            node: node.index() as u32,
            packet_id: pkt.id,
            src: pkt.src,
            dst: pkt.dst,
            proto: pkt.proto.as_str(),
            wire_bytes: pkt.wire_bytes(),
        });
    }

    /// The one exit an undelivered packet leaves by: counted under
    /// `reason` and shown to the capture.
    pub(crate) fn drop_packet(&mut self, reason: DropReason, node: NodeId, pkt: &Packet) {
        self.stats.record_drop(reason);
        self.trace(reason.capture_kind(), node, pkt);
    }

    /// Discards every frame waiting in the queues `iface` feeds (both
    /// directions of its link, or its station's queue) as drops for
    /// `reason` at the node each waited on; returns how many. Frames on
    /// the wire or the air are left to their pending delivery.
    pub(crate) fn flush_iface(&mut self, iface: IfaceId, reason: DropReason) -> usize {
        let flushed = match self.ifaces[iface.index()].attachment {
            Some(Attachment::P2p { link, .. }) => self.links[link.index()].flush(&mut self.stats),
            Some(Attachment::Wifi { channel, station }) => {
                self.channels[channel.index()].flush_station(station, &mut self.stats)
            }
            None => return 0,
        };
        for (at, packet) in &flushed {
            self.drop_packet(reason, self.ifaces[at.index()].node, packet);
        }
        flushed.len()
    }

    /// Sends a fully-formed packet from `node` (assigns a packet id, routes,
    /// and transmits). Applications normally use the [`crate::Ctx`] helpers
    /// instead.
    pub fn send_from_node(&mut self, node: NodeId, mut packet: Packet) {
        packet.id = self.next_packet_id;
        self.next_packet_id += 1;
        self.stats.packets_sent += 1;
        self.trace("sent", node, &packet);
        self.route_and_transmit(node, packet, None);
    }

    fn is_local_addr(&self, node: NodeId, addr: IpAddr) -> bool {
        // `add_iface` asserts each address belongs to exactly one
        // interface, so one index probe is authoritative.
        self.addr_index
            .get(&addr)
            .map_or(false, |i| self.ifaces[i.index()].node == node)
    }

    fn joined_multicast(&self, node: NodeId, group: IpAddr) -> bool {
        self.nodes.ifaces[node.index()]
            .iter()
            .any(|i| self.ifaces[i.index()].multicast_groups.contains(&group))
    }

    fn route_and_transmit(&mut self, node: NodeId, packet: Packet, ingress: Option<IfaceId>) {
        if !self.nodes.up[node.index()] {
            self.drop_packet(DropReason::NodeDown, node, &packet);
            return;
        }
        if packet.is_multicast() {
            let ifaces = self.nodes.ifaces[node.index()].clone();
            for iface in ifaces {
                if Some(iface) == ingress {
                    continue;
                }
                if self.ifaces[iface.index()].attachment.is_some() {
                    self.transmit_on_iface(iface, packet.clone());
                }
            }
            return;
        }
        let dst = packet.dst.ip();
        if self.is_local_addr(node, dst) {
            // Loopback delivery through the event queue (no reentrancy).
            let iface = self.nodes.ifaces[node.index()].first().copied();
            if let Some(iface) = iface {
                let deliver = ForwardEvent::Deliver { iface, packet, epoch: None };
                self.schedule(self.now(), Event::Forward(deliver));
            }
            return;
        }
        self.transmit_via_route(node, packet);
    }

    /// Routes a unicast packet the caller knows is not for `node`, itself up.
    fn transmit_via_route(&mut self, node: NodeId, packet: Packet) {
        match self.resolve_route(node, packet.dst.ip()) {
            Some(route) => self.transmit_on_iface(route.iface, packet),
            None => self.drop_packet(DropReason::NoRoute, node, &packet),
        }
    }

    fn transmit_on_iface(&mut self, iface: IfaceId, packet: Packet) {
        let Iface { node, attachment, .. } = self.ifaces[iface.index()];
        match attachment {
            None => self.drop_packet(DropReason::NoRoute, node, &packet),
            Some(Attachment::P2p { link, side }) => self.link_transmit(link, side, node, packet),
            Some(Attachment::Wifi { channel, station }) => {
                self.wifi_transmit(channel, station, node, packet)
            }
        }
    }

    pub(crate) fn on_forward_event(&mut self, event: ForwardEvent) {
        let ForwardEvent::Deliver { iface, mut packet, epoch } = event;
        let node = self.ifaces[iface.index()].node;
        // A frame transmitted before a link-down flap must not arrive after
        // it: the flap bumped the link epoch, so the stamp this delivery
        // carries no longer matches and the frame is charged to the flap.
        if let Some((link, stamped)) = epoch {
            if self.links[link.index()].epoch() != stamped {
                self.drop_packet(DropReason::LinkDown, node, &packet);
                return;
            }
        }
        if !self.nodes.up[node.index()] {
            self.drop_packet(DropReason::NodeDown, node, &packet);
            return;
        }
        let now = self.now();
        if let Some(stack) = self.node_filters.get_mut(&node) {
            if stack.verdict(&packet, now, &self.blocklist) == FilterVerdict::Drop {
                self.drop_packet(DropReason::Filtered, node, &packet);
                return;
            }
        }
        let dst = packet.dst.ip();
        if packet.is_multicast() {
            if self.joined_multicast(node, dst) {
                self.deliver_up(node, packet.clone());
            }
            if self.nodes.forward_multicast[node.index()] && packet.ttl > 1 {
                packet.ttl -= 1;
                self.trace("forwarded", node, &packet);
                self.route_and_transmit(node, packet, Some(iface));
            }
            return;
        }
        if self.is_local_addr(node, dst) {
            self.deliver_up(node, packet);
            return;
        }
        if self.nodes.forwarding[node.index()] {
            if packet.ttl <= 1 {
                self.drop_packet(DropReason::TtlExpired, node, &packet);
                return;
            }
            packet.ttl -= 1;
            self.trace("forwarded", node, &packet);
            // `dst` was just probed: not ours. One `addr_index` probe a hop.
            self.transmit_via_route(node, packet);
            return;
        }
        self.drop_packet(DropReason::NoRoute, node, &packet);
    }

    /// `netsim.nodes`: the node arena, then every interface.
    pub(crate) fn nodes_digest(&self) -> u64 {
        let mut h = StateHasher::new();
        h.write_usize(self.nodes.len());
        for idx in 0..self.nodes.len() {
            self.nodes.node_digest(idx, &mut h);
        }
        h.write_usize(self.ifaces.len());
        for iface in &self.ifaces {
            iface.state_digest(&mut h);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Application;
    use crate::link::LinkConfig;
    use crate::packet::{self, Payload};
    use crate::sim::tests::{captured, capturing, two_hosts, v4, Blaster, Harness, Sink};
    use crate::{Ctx, SimTime};
    use std::net::{Ipv4Addr, SocketAddr};
    use std::time::Duration;

    #[test]
    #[should_panic(expected = "address 10.0.0.1 assigned to two interfaces")]
    fn one_address_cannot_sit_on_two_interfaces() {
        // Checked in release builds too (`cargo test --release`): the
        // local-delivery probe trusts `addr_index` to be one-to-one.
        let mut h = two_hosts(1_000_000);
        h.sim.add_iface(h.b, vec![v4(1)]);
    }

    #[test]
    fn forwarding_via_router() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a");
        let r = sim.add_node("r");
        let b = sim.add_node("b");
        sim.nodes.forwarding[r.index()] = true;
        let ia = sim.add_iface(a, vec![v4(1)]);
        let ra = sim.add_iface(r, vec![IpAddr::V4(Ipv4Addr::new(10, 0, 1, 1))]);
        let rb = sim.add_iface(r, vec![IpAddr::V4(Ipv4Addr::new(10, 0, 2, 1))]);
        let ib = sim.add_iface(b, vec![v4(2)]);
        sim.connect_p2p(ia, ra, LinkConfig::default()).expect("a-r");
        sim.connect_p2p(rb, ib, LinkConfig::default()).expect("r-b");
        sim.add_default_route(a, ia);
        sim.add_default_route(b, ib);
        sim.add_route(r, v4(1), 32, ra);
        sim.add_route(r, v4(2), 32, rb);
        let sink = sim.install_app(b, Box::new(Sink::default()));
        sim.install_app(a, Box::new(Blaster::new(v4(2), 5, Duration::from_millis(5))));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.app_ref::<Sink>(sink).expect("sink").packets, 5);
    }

    #[test]
    fn multicast_reaches_joined_nodes_via_relay() {
        struct McastSink {
            group: IpAddr,
            got: u64,
        }
        impl Application for McastSink {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.join_multicast(self.group);
                ctx.udp_bind(547).expect("bind");
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: &Packet) {
                self.got += 1;
            }
        }
        let group = packet::all_dhcp_agents_v6();
        let mut sim = Simulator::new(1);
        let atk = sim.add_node("attacker");
        let r = sim.add_node("router");
        sim.nodes.forwarding[r.index()] = true;
        sim.nodes.forward_multicast[r.index()] = true;
        let d1 = sim.add_node("dev1");
        let d2 = sim.add_node("dev2");
        let v6 = |x: u16| IpAddr::V6(std::net::Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, x));
        let ia = sim.add_iface(atk, vec![v6(1)]);
        let r0 = sim.add_iface(r, vec![v6(0xff)]);
        let r1 = sim.add_iface(r, vec![IpAddr::V6(std::net::Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 1, 0xff))]);
        let r2 = sim.add_iface(r, vec![IpAddr::V6(std::net::Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 2, 0xff))]);
        let i1 = sim.add_iface(d1, vec![v6(0x10)]);
        let i2 = sim.add_iface(d2, vec![v6(0x11)]);
        sim.connect_p2p(ia, r0, LinkConfig::default()).expect("atk-r");
        sim.connect_p2p(r1, i1, LinkConfig::default()).expect("r-d1");
        sim.connect_p2p(r2, i2, LinkConfig::default()).expect("r-d2");
        sim.add_default_route(atk, ia);
        sim.add_default_route(d1, i1);
        sim.add_default_route(d2, i2);
        let s1 = sim.install_app(d1, Box::new(McastSink { group, got: 0 }));
        let s2 = sim.install_app(d2, Box::new(McastSink { group, got: 0 }));
        struct McastSender {
            group: IpAddr,
        }
        impl Application for McastSender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.udp_bind(546).expect("bind");
                ctx.udp_send(
                    546,
                    SocketAddr::new(self.group, 547),
                    Payload::empty(),
                    200,
                )
                .expect("send");
            }
        }
        sim.install_app(atk, Box::new(McastSender { group }));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.app_ref::<McastSink>(s1).expect("s1").got, 1);
        assert_eq!(sim.app_ref::<McastSink>(s2).expect("s2").got, 1);
    }

    #[test]
    fn capture_sees_sends_and_deliveries() {
        let mut h = two_hosts(1_000_000);
        h.sim.set_telemetry(capturing());
        h.sim.install_app(h.b, Box::new(Sink::default()));
        h.sim.install_app(h.a, Box::new(Blaster::new(v4(2), 1, Duration::from_millis(5))));
        h.sim.run_until(SimTime::from_secs(1));
        let seen = captured(&h.sim);
        assert_eq!(seen, [("sent", 1, h.a), ("delivered", 1, h.b)]);
    }

    #[test]
    fn ttl_expires_in_routing_loop() {
        // Two routers pointing default routes at each other.
        let mut sim = Simulator::new(1);
        let r1 = sim.add_node("r1");
        let r2 = sim.add_node("r2");
        sim.nodes.forwarding[r1.index()] = true;
        sim.nodes.forwarding[r2.index()] = true;
        let i1 = sim.add_iface(r1, vec![v4(1)]);
        let i2 = sim.add_iface(r2, vec![v4(2)]);
        sim.connect_p2p(i1, i2, LinkConfig::default()).expect("link");
        sim.add_default_route(r1, i1);
        sim.add_default_route(r2, i2);
        struct LoopSender;
        impl Application for LoopSender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.udp_bind(5).expect("bind");
                // Address that neither router owns.
                ctx.udp_send(
                    5,
                    SocketAddr::new(IpAddr::V4(Ipv4Addr::new(99, 9, 9, 9)), 9),
                    Payload::empty(),
                    10,
                )
                .expect("send");
            }
        }
        sim.install_app(r1, Box::new(LoopSender));
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.stats().dropped_ttl, 1);
    }

    /// A flushed frame is a drop like any other: 20 frames offered at once
    /// to a 100 kbps link put one on the wire and 19 behind it; taking the
    /// sender down at 50 ms (the second is serializing by then) discards
    /// 18, and the capture sees each of them, by packet id, at the sender.
    #[test]
    fn flushed_frames_are_traced_drops() {
        let Harness { mut sim, a, .. } = two_hosts(100_000);
        sim.set_telemetry(capturing());
        for _ in 0..20 {
            let (src, dst) = (SocketAddr::new(v4(1), 1000), SocketAddr::new(v4(2), 9));
            sim.send_from_node(a, Packet::udp(src, dst, Payload::empty(), 472));
        }
        sim.run_until(SimTime::from_millis(50));
        sim.set_node_admin(a, false);
        let flushed = |r: &(&str, u64, NodeId)| r.0 == "dropped:node_down";
        let drops: Vec<_> = captured(&sim).into_iter().filter(flushed).collect();
        let expected: Vec<_> = (3..=20).map(|id| ("dropped:node_down", id, a)).collect();
        assert_eq!(drops, expected);
        assert_eq!(sim.stats().dropped_node_down, 18);
        assert_eq!(sim.buffered_bytes(), 0);
    }
}
