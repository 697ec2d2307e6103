//! # netsim — a discrete-event network simulator
//!
//! The NS-3 substitute underlying the DDoSim reproduction: a deterministic,
//! packet-level, discrete-event network simulator with
//!
//! * a simulated clock and ordered event queue ([`SimTime`], [`Simulator`]),
//! * nodes, interfaces, and static routing with IPv4 **and** IPv6
//!   (including multicast, needed by the DHCPv6 exploit path),
//! * point-to-point links with finite rate, propagation delay, and
//!   drop-tail queues ([`LinkConfig`]) — the congestion mechanisms behind
//!   the paper's Figure 2,
//! * a shared Wi-Fi-like channel with simplified CSMA/CA contention
//!   ([`WifiConfig`]) for the hardware-reference world (`--topology wifi`),
//! * UDP datagrams and a light reliable stream transport ([`tcp`]),
//! * an [`Application`] trait — the analogue of NS-3 `Application`s and of
//!   processes inside Docker containers.
//!
//! # Examples
//!
//! Two hosts on a star; one sends a datagram to the other:
//!
//! ```
//! use netsim::{Application, Ctx, LinkConfig, Packet, Payload, SimTime, Simulator};
//! use netsim::topology::Fabric;
//! use std::net::SocketAddr;
//!
//! #[derive(Default)]
//! struct Sink(u64);
//! impl Application for Sink {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         ctx.udp_bind(9).expect("port 9 is free");
//!     }
//!     fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: &Packet) {
//!         self.0 += 1;
//!     }
//! }
//!
//! struct Hello(SocketAddr);
//! impl Application for Hello {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         ctx.udp_bind(1000).expect("port 1000 is free");
//!         ctx.udp_send(1000, self.0, Payload::empty(), 12).expect("addressable");
//!     }
//! }
//!
//! let mut sim = Simulator::new(42);
//! let mut star = Fabric::star(&mut sim, "internet");
//! let a = sim.add_node("a");
//! let b = sim.add_node("b");
//! star.attach_core(&mut sim, a, LinkConfig::default());
//! let mb = star.attach_core(&mut sim, b, LinkConfig::default());
//! let sink = sim.install_app(b, Box::new(Sink::default()));
//! sim.install_app(a, Box::new(Hello(SocketAddr::new(mb.addr_v4, 9))));
//! sim.run_until(SimTime::from_secs(1));
//! assert_eq!(sim.app_ref::<Sink>(sink).map(|s| s.0), Some(1));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod app;
pub mod digest;
pub mod equeue;
pub mod fastmap;
pub mod filter;
pub mod fork;
mod forward;
pub mod ids;
pub mod intern;
pub mod link;
pub mod node;
pub mod packet;
pub mod sim;
pub mod stats;
pub mod tcp;
pub mod time;
pub mod topology;
mod transport;
pub mod wifi;

pub use app::{Application, Ctx, NullApp};
pub use digest::StateHasher;
pub use equeue::{EventQueue, ReferenceQueue, TimeOrderedQueue};
pub use fastmap::{FastBuildHasher, FastMap, FastSet};
pub use filter::{FilterRule, FilterStack, FilterVerdict, PacketFilter, TokenBucket};
pub use fork::{ForkClone, ForkMap, ForkableCall, ForkableFn};
pub use ids::{AppId, ChannelId, IfaceId, LinkId, NodeId};
pub use intern::{NameId, NameInterner};
pub use link::LinkConfig;
pub use packet::{Packet, Payload, TransportProto};
pub use sim::{NetError, Simulator};
pub use stats::{DropReason, Stats, TraceHook, TraceKind, TraceRecord};
pub use tcp::{ConnId, TcpError, TcpEvent};
pub use telemetry::{Category, Telemetry, TelemetryConfig};
pub use time::SimTime;
pub use wifi::WifiConfig;
