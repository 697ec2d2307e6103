//! Topology builders for common scenarios.
//!
//! The paper's simulated network (§III-D) conceptually collapses the
//! Internet path between any two components into "a single connection line
//! with specific latency and bandwidth". [`StarTopology`] builds exactly
//! that: a central fabric node (router / simulated Internet) with one
//! point-to-point link per component, each with its own rate and delay.

use crate::ids::{IfaceId, NodeId};
use crate::link::LinkConfig;
use crate::sim::Simulator;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Allocates dual-stack addresses out of `10.0.0.0/8` and `fd00::/16`.
#[derive(Debug, Clone)]
pub struct AddrAllocator {
    next: u32,
}

impl AddrAllocator {
    /// Pairs one allocator can hand out: the host numbers of `10.0.0.0/8`
    /// less the network and broadcast addresses. Every topology here
    /// spends at most two per attached node (its end of the link and the
    /// router's), which is what `SimulationConfig::validate` budgets.
    pub const CAPACITY: u32 = 0x00FF_FFFE;

    /// Starts allocating from host number 1.
    pub fn new() -> Self {
        AddrAllocator { next: 1 }
    }

    /// Allocates the next dual-stack (v4, v6) address pair.
    ///
    /// Host numbers map little-octet-first into `10.x.y.z`, so the first
    /// 65534 pairs are bit-identical to the historical `/16` allocator
    /// (pinned by recorded traces); beyond that the third byte of the
    /// network part starts counting, opening the space to ~16.7M hosts for
    /// million-device worlds.
    ///
    /// # Panics
    ///
    /// Panics after [`AddrAllocator::CAPACITY`] allocations.
    pub fn next_pair(&mut self) -> (IpAddr, IpAddr) {
        let n = self.next;
        assert!(n <= Self::CAPACITY, "address space exhausted");
        self.next += 1;
        let v4 = IpAddr::V4(Ipv4Addr::new(
            10,
            ((n >> 16) & 0xFF) as u8,
            ((n >> 8) & 0xFF) as u8,
            (n & 0xFF) as u8,
        ));
        let v6 = IpAddr::V6(Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, (n >> 16) as u16, n as u16));
        (v4, v6)
    }
}

impl Default for AddrAllocator {
    fn default() -> Self {
        AddrAllocator::new()
    }
}

/// A star topology around a central fabric node.
///
/// The fabric forwards unicast and relays multicast, modelling the paper's
/// "simulated Internet" that joins Attacker, Devs, and TServer.
#[derive(Debug, Clone)]
pub struct StarTopology {
    fabric: NodeId,
    alloc: AddrAllocator,
    members: Vec<StarMember>,
}

/// One node attached to the star.
#[derive(Debug, Clone, Copy)]
pub struct StarMember {
    /// The attached node.
    pub node: NodeId,
    /// The node's edge interface.
    pub iface: IfaceId,
    /// The node's IPv4 address.
    pub addr_v4: IpAddr,
    /// The node's IPv6 address.
    pub addr_v6: IpAddr,
}

impl StarTopology {
    /// Creates the central fabric node.
    pub fn new(sim: &mut Simulator, name: &str) -> Self {
        let fabric = sim.add_node(name);
        sim.set_forwarding(fabric, true);
        sim.set_multicast_relay(fabric, true);
        StarTopology {
            fabric,
            alloc: AddrAllocator::new(),
            members: Vec::new(),
        }
    }

    /// The central fabric node.
    pub fn fabric(&self) -> NodeId {
        self.fabric
    }

    /// Members attached so far.
    pub fn members(&self) -> &[StarMember] {
        &self.members
    }

    /// Attaches `node` to the star over a link with `config`, assigning it a
    /// dual-stack address pair and default routes.
    pub fn attach(&mut self, sim: &mut Simulator, node: NodeId, config: LinkConfig) -> StarMember {
        let (v4, v6) = self.alloc.next_pair();
        let (fv4, fv6) = self.alloc.next_pair();
        let member_iface = sim.add_iface(node, vec![v4, v6]);
        let fabric_iface = sim.add_iface(self.fabric, vec![fv4, fv6]);
        sim.connect_p2p(member_iface, fabric_iface, config)
            .expect("freshly created interfaces are unattached");
        sim.add_default_route(node, member_iface);
        sim.add_route(self.fabric, v4, 32, fabric_iface);
        sim.add_route(self.fabric, v6, 128, fabric_iface);
        let member = StarMember {
            node,
            iface: member_iface,
            addr_v4: v4,
            addr_v6: v6,
        };
        self.members.push(member);
        member
    }
}

/// A two-tier topology: a backbone router fronting several regional
/// routers, each with a finite uplink.
///
/// The paper acknowledges (§V-C) that "all components share uniform
/// connections, while real-world factors like distance and network quality
/// impact device-device links". A tiered fabric lifts that limitation:
/// devices in the same region share a regional uplink, so congestion
/// appears at two levels (regional uplinks first, then the backbone).
#[derive(Debug, Clone)]
pub struct TieredTopology {
    backbone: NodeId,
    regions: Vec<NodeId>,
    alloc: AddrAllocator,
    members: Vec<StarMember>,
}

impl TieredTopology {
    /// Creates the backbone and `regions` regional routers, each connected
    /// to the backbone with `uplink`.
    ///
    /// # Panics
    ///
    /// Panics if `regions` is zero.
    pub fn new(sim: &mut Simulator, name: &str, regions: usize, uplink: LinkConfig) -> Self {
        assert!(regions > 0, "at least one region is required");
        let backbone = sim.add_node(format!("{name}-backbone"));
        sim.set_forwarding(backbone, true);
        sim.set_multicast_relay(backbone, true);
        let mut alloc = AddrAllocator::new();
        let mut region_nodes = Vec::with_capacity(regions);
        for r in 0..regions {
            let region = sim.add_node(format!("{name}-region-{r}"));
            sim.set_forwarding(region, true);
            sim.set_multicast_relay(region, true);
            let (rv4, rv6) = alloc.next_pair();
            let (bv4, bv6) = alloc.next_pair();
            let r_if = sim.add_iface(region, vec![rv4, rv6]);
            let b_if = sim.add_iface(backbone, vec![bv4, bv6]);
            sim.connect_p2p(r_if, b_if, uplink.clone())
                .expect("freshly created interfaces are unattached");
            sim.add_default_route(region, r_if);
            region_nodes.push(region);
        }
        TieredTopology {
            backbone,
            regions: region_nodes,
            alloc,
            members: Vec::new(),
        }
    }

    /// The backbone node.
    pub fn backbone(&self) -> NodeId {
        self.backbone
    }

    /// Members attached so far (backbone and regional).
    pub fn members(&self) -> &[StarMember] {
        &self.members
    }

    /// Attaches `node` directly to the backbone (servers, the attacker).
    pub fn attach_backbone(
        &mut self,
        sim: &mut Simulator,
        node: NodeId,
        config: LinkConfig,
    ) -> StarMember {
        let member = Self::attach_to(
            sim,
            &mut self.alloc,
            self.backbone,
            node,
            config,
        );
        self.members.push(member);
        member
    }

    /// Attaches `node` to a regional router (devices); `region` indexes
    /// modulo the region count, so round-robin assignment is just the
    /// device index.
    pub fn attach_region(
        &mut self,
        sim: &mut Simulator,
        region: usize,
        node: NodeId,
        config: LinkConfig,
    ) -> StarMember {
        let region_node = self.regions[region % self.regions.len()];
        let member = Self::attach_to(sim, &mut self.alloc, region_node, node, config);
        // The backbone reaches the member via the region's uplink.
        let region_uplink = sim.node(self.backbone).ifaces()[region % self.regions.len()];
        sim.add_route(self.backbone, member.addr_v4, 32, region_uplink);
        sim.add_route(self.backbone, member.addr_v6, 128, region_uplink);
        self.members.push(member);
        member
    }

    fn attach_to(
        sim: &mut Simulator,
        alloc: &mut AddrAllocator,
        router: NodeId,
        node: NodeId,
        config: LinkConfig,
    ) -> StarMember {
        let (v4, v6) = alloc.next_pair();
        let (fv4, fv6) = alloc.next_pair();
        let member_iface = sim.add_iface(node, vec![v4, v6]);
        let router_iface = sim.add_iface(router, vec![fv4, fv6]);
        sim.connect_p2p(member_iface, router_iface, config)
            .expect("freshly created interfaces are unattached");
        sim.add_default_route(node, member_iface);
        sim.add_route(router, v4, 32, router_iface);
        sim.add_route(router, v6, 128, router_iface);
        StarMember {
            node,
            iface: member_iface,
            addr_v4: v4,
            addr_v6: v6,
        }
    }
}

/// A Wi-Fi access topology: a router (access point) joining stations over
/// one shared CSMA/CA channel, with wired point-to-point attachments for
/// core components — the shape of the paper's physical validation setup
/// (Raspberry-Pi Devs on a Netgear router, servers on Ethernet).
#[derive(Debug, Clone)]
pub struct WifiTopology {
    root: NodeId,
    chan: crate::ids::ChannelId,
    gateway_iface: IfaceId,
    alloc: AddrAllocator,
    members: Vec<StarMember>,
}

impl WifiTopology {
    /// Creates the router node with a gateway interface on a fresh Wi-Fi
    /// channel configured by `config`.
    pub fn new(sim: &mut Simulator, name: &str, config: crate::wifi::WifiConfig) -> Self {
        let root = sim.add_node(name);
        sim.set_forwarding(root, true);
        sim.set_multicast_relay(root, true);
        let chan = sim.add_wifi_channel(config);
        let mut alloc = AddrAllocator::new();
        let (gv4, gv6) = alloc.next_pair();
        let gateway_iface = sim.add_iface(root, vec![gv4, gv6]);
        sim.attach_wifi(gateway_iface, chan)
            .expect("freshly created interfaces are unattached");
        sim.set_wifi_gateway(chan, gateway_iface);
        WifiTopology {
            root,
            chan,
            gateway_iface,
            alloc,
            members: Vec::new(),
        }
    }

    /// The router (access point) node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The shared channel.
    pub fn channel(&self) -> crate::ids::ChannelId {
        self.chan
    }

    /// Members attached so far (wired and wireless).
    pub fn members(&self) -> &[StarMember] {
        &self.members
    }

    /// Attaches `node` to the router over a wired point-to-point link
    /// (servers, the attacker).
    pub fn attach_wired(
        &mut self,
        sim: &mut Simulator,
        node: NodeId,
        config: LinkConfig,
    ) -> StarMember {
        let (v4, v6) = self.alloc.next_pair();
        let (fv4, fv6) = self.alloc.next_pair();
        let member_iface = sim.add_iface(node, vec![v4, v6]);
        let root_iface = sim.add_iface(self.root, vec![fv4, fv6]);
        sim.connect_p2p(member_iface, root_iface, config)
            .expect("freshly created interfaces are unattached");
        sim.add_default_route(node, member_iface);
        sim.add_route(self.root, v4, 32, root_iface);
        sim.add_route(self.root, v6, 128, root_iface);
        let member = StarMember {
            node,
            iface: member_iface,
            addr_v4: v4,
            addr_v6: v6,
        };
        self.members.push(member);
        member
    }

    /// Joins `node` to the shared medium as a station, shaped to
    /// `rate_bps` at the application layer (how the paper's lab limits its
    /// Raspberry Pis to IoT data rates).
    pub fn attach_station(
        &mut self,
        sim: &mut Simulator,
        node: NodeId,
        rate_bps: u64,
    ) -> StarMember {
        let (v4, v6) = self.alloc.next_pair();
        let member_iface = sim.add_iface(node, vec![v4, v6]);
        sim.attach_wifi(member_iface, self.chan)
            .expect("freshly created interfaces are unattached");
        sim.set_wifi_station_shaping(self.chan, member_iface, rate_bps);
        sim.add_default_route(node, member_iface);
        // The router reaches stations out its gateway interface; the
        // channel resolves the destination station by address.
        sim.add_route(self.root, v4, 32, self.gateway_iface);
        sim.add_route(self.root, v6, 128, self.gateway_iface);
        let member = StarMember {
            node,
            iface: member_iface,
            addr_v4: v4,
            addr_v6: v6,
        };
        self.members.push(member);
        member
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Application;
    use crate::packet::{Packet, Payload};
    use crate::sim::Ctx;
    use crate::time::SimTime;
    use std::net::SocketAddr;
    use std::time::Duration;

    #[test]
    fn allocator_is_sequential_and_dual_stack() {
        let mut a = AddrAllocator::new();
        let (v4, v6) = a.next_pair();
        assert_eq!(v4, IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)));
        assert_eq!(v6, IpAddr::V6(Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, 1)));
        let (v4b, _) = a.next_pair();
        assert_eq!(v4b, IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)));
    }

    #[test]
    fn allocator_crosses_octet_boundary() {
        let mut a = AddrAllocator::new();
        for _ in 0..255 {
            a.next_pair();
        }
        let (v4, _) = a.next_pair();
        assert_eq!(v4, IpAddr::V4(Ipv4Addr::new(10, 0, 1, 0)));
    }

    #[test]
    fn allocator_widens_past_the_old_16_bit_space() {
        let mut a = AddrAllocator::new();
        for _ in 0..0xFFFE {
            a.next_pair();
        }
        // Host 0xFFFF is the first beyond the old /16 allocator's panic
        // point; everything before it must stay bit-identical (pinned by
        // recorded traces), and the third byte takes over afterwards.
        let (v4, v6) = a.next_pair();
        assert_eq!(v4, IpAddr::V4(Ipv4Addr::new(10, 0, 255, 255)));
        assert_eq!(v6, IpAddr::V6(Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, 0xFFFF)));
        let (v4, v6) = a.next_pair();
        assert_eq!(v4, IpAddr::V4(Ipv4Addr::new(10, 1, 0, 0)));
        assert_eq!(v6, IpAddr::V6(Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 1, 0)));
    }

    #[derive(Default)]
    struct CountSink(u64);
    impl Application for CountSink {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.udp_bind(9).expect("bind");
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: &Packet) {
            self.0 += 1;
        }
    }

    struct OneShotSender(SocketAddr);
    impl Application for OneShotSender {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.udp_bind(1000).expect("bind");
            ctx.udp_send(1000, self.0, Payload::empty(), 64).expect("send");
        }
    }

    #[test]
    fn star_routes_between_members() {
        let mut sim = Simulator::new(9);
        let mut star = StarTopology::new(&mut sim, "internet");
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let cfg = LinkConfig::new(1_000_000, Duration::from_millis(5));
        let _ma = star.attach(&mut sim, a, cfg.clone());
        let mb = star.attach(&mut sim, b, cfg);
        let sink = sim.install_app(b, Box::new(CountSink::default()));
        sim.install_app(a, Box::new(OneShotSender(SocketAddr::new(mb.addr_v4, 9))));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.app_ref::<CountSink>(sink).expect("sink").0, 1);
    }

    #[test]
    fn tiered_routes_across_regions() {
        let mut sim = Simulator::new(4);
        let mut t = TieredTopology::new(
            &mut sim,
            "net",
            3,
            LinkConfig::new(10_000_000, Duration::from_millis(2)),
        );
        let cfg = LinkConfig::new(1_000_000, Duration::from_millis(5));
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let srv = sim.add_node("srv");
        t.attach_region(&mut sim, 0, a, cfg.clone());
        let mb = t.attach_region(&mut sim, 1, b, cfg.clone());
        let ms = t.attach_backbone(&mut sim, srv, cfg);
        // region 0 -> region 1
        let sink_b = sim.install_app(b, Box::new(CountSink::default()));
        sim.install_app(a, Box::new(OneShotSender(SocketAddr::new(mb.addr_v4, 9))));
        // region 1 -> backbone member
        let sink_s = sim.install_app(srv, Box::new(CountSink::default()));
        sim.install_app(b, Box::new(OneShotSender(SocketAddr::new(ms.addr_v4, 9))));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.app_ref::<CountSink>(sink_b).expect("sink").0, 1);
        assert_eq!(sim.app_ref::<CountSink>(sink_s).expect("sink").0, 1);
    }

    #[test]
    fn regional_uplink_is_a_shared_bottleneck() {
        // Two senders in one region share a 200 kbps uplink; the same pair
        // split across regions do not contend.
        let run = |same_region: bool| -> u64 {
            let mut sim = Simulator::new(6);
            let mut t = TieredTopology::new(
                &mut sim,
                "net",
                2,
                LinkConfig::new(200_000, Duration::from_millis(2)),
            );
            let cfg = LinkConfig::new(2_000_000, Duration::from_millis(5));
            let srv = sim.add_node("srv");
            let ms = t.attach_backbone(&mut sim, srv, LinkConfig::default());
            let sink = sim.install_app(srv, Box::new(CountSink::default()));
            for i in 0..2usize {
                let n = sim.add_node(format!("s{i}"));
                let region = if same_region { 0 } else { i };
                t.attach_region(&mut sim, region, n, cfg.clone());
                struct Flood(SocketAddr);
                impl Application for Flood {
                    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                        ctx.udp_bind(1000).expect("bind");
                        ctx.set_timer(Duration::ZERO, 0);
                    }
                    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
                        let _ = ctx.udp_send(1000, self.0, Payload::empty(), 500);
                        ctx.set_timer(Duration::from_millis(5), 0);
                    }
                }
                sim.install_app(n, Box::new(Flood(SocketAddr::new(ms.addr_v4, 9))));
            }
            sim.run_until(SimTime::from_secs(5));
            sim.app_ref::<CountSink>(sink).expect("sink").0
        };
        let contended = run(true);
        let spread = run(false);
        assert!(
            spread as f64 > contended as f64 * 1.5,
            "splitting regions should relieve the uplink: {contended} vs {spread}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one region")]
    fn tiered_requires_regions() {
        let mut sim = Simulator::new(0);
        let _ = TieredTopology::new(&mut sim, "x", 0, LinkConfig::default());
    }

    #[test]
    fn star_routes_ipv6_too() {
        let mut sim = Simulator::new(9);
        let mut star = StarTopology::new(&mut sim, "internet");
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let cfg = LinkConfig::default();
        star.attach(&mut sim, a, cfg.clone());
        let mb = star.attach(&mut sim, b, cfg);
        let sink = sim.install_app(b, Box::new(CountSink::default()));
        sim.install_app(a, Box::new(OneShotSender(SocketAddr::new(mb.addr_v6, 9))));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.app_ref::<CountSink>(sink).expect("sink").0, 1);
    }
}
