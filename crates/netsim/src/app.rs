//! The application trait.
//!
//! An [`Application`] is a state machine installed on a node — the analogue
//! of a process inside a Docker container, or an NS-3 `Application`. It
//! reacts to lifecycle callbacks, inbound packets, connection events, and
//! timers, and acts on the world through the [`Ctx`] handle.
//!
//! The slots applications are installed in, the [`Ctx`] API, node up/down
//! transitions (they happen *to* applications), the `Start`/`Timer`/
//! `SetNode` events and the `apps` digest live here beside the trait.

use crate::digest::StateHasher;
use crate::fork::ForkMap;
use crate::ids::{AppId, NodeId};
use crate::packet::{self, Packet, Payload};
use crate::sim::{Event, NetError, Simulator};
use crate::stats::DropReason;
use crate::tcp::{ConnId, TcpError, TcpEvent};
use crate::time::SimTime;
use rand::rngs::SmallRng;
use std::any::Any;
use std::net::{IpAddr, SocketAddr};
use std::time::Duration;
use telemetry::{Category, Telemetry};

/// A simulated application (process) running on a node.
///
/// All methods have no-op defaults so implementations only override the
/// callbacks they care about. Applications are also [`Any`] so the host
/// program can downcast them after (or during) a run to read results — e.g.
/// the TServer sink exposes its per-second byte counters this way.
pub trait Application: Any {
    /// Short human-readable name (shown in traces and process tables).
    fn name(&self) -> &str {
        "app"
    }

    /// Called once when the application starts (node boot or dynamic spawn).
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }

    /// Called for each UDP packet delivered to a port this app has bound.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: &Packet) {
        let _ = (ctx, packet);
    }

    /// Called for tcp-lite connection events owned by this app.
    fn on_tcp(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
        let _ = (ctx, event);
    }

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let _ = (ctx, token);
    }

    /// Called when this app's node goes down (churn departure). Transport
    /// state has already been torn down.
    fn on_node_down(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }

    /// Called when this app's node comes back up (churn rejoin).
    fn on_node_up(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }

    /// Folds this application's mutable state into a checkpoint digest.
    ///
    /// The default contributes nothing, which is sound for stateless apps;
    /// stateful apps should fold every field that influences future
    /// behavior so checkpoint verification can catch replay divergence in
    /// the application layer, not just the network layers.
    fn state_digest(&self, hasher: &mut StateHasher) {
        let _ = hasher;
    }

    /// Deep-clones this application into a forked world.
    ///
    /// Plain-state apps return a boxed clone; apps holding shared handles
    /// (e.g. a firmware container) translate them through the [`ForkMap`]
    /// so the fork never aliases parent state. The default returns `None`,
    /// which makes [`Simulator::fork`] fail naming the app — forkability
    /// is opt-in precisely so an unexamined app cannot be silently
    /// shallow-copied into a fork.
    fn fork(&self, map: &ForkMap) -> Option<Box<dyn Application>> {
        let _ = map;
        None
    }
}

/// A no-op application, useful as a placeholder.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullApp;

impl Application for NullApp {
    fn name(&self) -> &str {
        "null"
    }

    fn fork(&self, _map: &ForkMap) -> Option<Box<dyn Application>> {
        Some(Box::new(*self))
    }
}

/// The application layer's events: an application starts, one of its
/// timers fires, a scheduled node up/down transition takes effect.
#[derive(Debug, Clone, Copy)]
pub(crate) enum AppEvent {
    Start(AppId),
    Timer { app: AppId, token: u64 },
    SetNode { node: NodeId, up: bool },
}

impl AppEvent {
    pub(crate) fn digest(&self, h: &mut StateHasher) {
        match *self {
            AppEvent::Start(app) => {
                h.write_bytes(&[0]);
                h.write_usize(app.node().index());
                h.write_usize(app.slot());
            }
            AppEvent::Timer { app, token } => {
                h.write_bytes(&[1]);
                h.write_usize(app.node().index());
                h.write_usize(app.slot());
                h.write_u64(token);
            }
            AppEvent::SetNode { node, up } => {
                h.write_bytes(&[7]);
                h.write_usize(node.index());
                h.write_bool(up);
            }
        }
    }
}

impl Simulator {
    /// Installs an application on a node; its `on_start` runs at the current
    /// simulated time once the event loop reaches it.
    pub fn install_app(&mut self, node: NodeId, app: Box<dyn Application>) -> AppId {
        let slot = self.apps[node.index()].len() as u32;
        let id = AppId { node, slot };
        self.apps[node.index()].push(Some(app));
        self.schedule(self.now(), Event::App(AppEvent::Start(id)));
        id
    }

    /// Downcasts an installed application to its concrete type.
    pub fn app_ref<T: Application>(&self, id: AppId) -> Option<&T> {
        let app = self.apps.get(id.node.index())?.get(id.slot())?.as_deref()?;
        (app as &dyn Any).downcast_ref::<T>()
    }

    /// Mutable variant of [`Simulator::app_ref`].
    pub fn app_mut<T: Application>(&mut self, id: AppId) -> Option<&mut T> {
        let app = self.app_slot(id)?.as_deref_mut()?;
        (app as &mut dyn Any).downcast_mut::<T>()
    }

    /// The slot `id` names, if its node and slot exist.
    fn app_slot(&mut self, id: AppId) -> Option<&mut Option<Box<dyn Application>>> {
        self.apps.get_mut(id.node.index())?.get_mut(id.slot())
    }

    /// Removes an application from its node. Its UDP binds are released;
    /// pending timers for it are silently dropped when they fire.
    pub fn remove_app(&mut self, id: AppId) {
        if let Some(slot) = self.app_slot(id) {
            *slot = None;
        }
        self.nodes.udp_binds[id.node.index()].retain(|_, owner| *owner != id);
        // A dead process's sockets do not linger: close its connections
        // (FIN notifies the peers) and release its listeners. On a node
        // that is already down the stack was reset, so nothing escapes.
        let actions = match self.tcp[id.node.index()].as_mut() {
            Some(stack) => stack.close_owned_by(id),
            None => Vec::new(),
        };
        self.process_tcp_actions(id.node, actions);
    }

    /// Takes a node down or brings it up immediately, flushing transport
    /// state and notifying its applications. Prefer
    /// [`Ctx::set_node_admin`] from within application callbacks.
    pub fn set_node_admin(&mut self, node: NodeId, up: bool) {
        let idx = node.index();
        if self.nodes.up[idx] == up {
            return;
        }
        // Route resolution reads the route list alone, so a flap leaves the
        // node's route index as it is.
        self.nodes.up[idx] = up;
        self.telemetry.record_event(
            self.now().as_nanos(),
            Some(node.index() as u32),
            Category::NodeAdmin,
            || {
                format!(
                    "{} {}",
                    self.nodes.name(node.index()),
                    if up { "up" } else { "down" }
                )
            },
        );
        if !up {
            // Flush egress queues on all attached links/channels.
            let ifaces = self.nodes.ifaces[node.index()].clone();
            for iface in ifaces {
                self.flush_iface(iface, DropReason::NodeDown);
            }
            if let Some(stack) = self.tcp[node.index()].as_mut() {
                stack.reset_all();
            }
        }
        let app_count = self.apps[node.index()].len();
        for slot in 0..app_count {
            let id = AppId { node, slot: slot as u32 };
            self.with_app(id, |app, ctx| {
                if up {
                    app.on_node_up(ctx);
                } else {
                    app.on_node_down(ctx);
                }
            });
        }
    }

    /// Runs `f` on an installed application with a [`Ctx`] for it (the
    /// application is out of its slot meanwhile).
    pub(crate) fn with_app(&mut self, id: AppId, f: impl FnOnce(&mut dyn Application, &mut Ctx<'_>)) {
        let Some(mut app) = self.app_slot(id).and_then(Option::take) else {
            return;
        };
        let mut ctx = Ctx { sim: self, app_id: id, removed: false };
        f(app.as_mut(), &mut ctx);
        let removed = ctx.removed;
        if removed {
            self.remove_app(id);
        } else if let Some(slot) = self.app_slot(id) {
            *slot = Some(app);
        }
    }

    pub(crate) fn on_app_event(&mut self, event: AppEvent) {
        match event {
            AppEvent::Start(id) => self.with_app(id, |app, ctx| app.on_start(ctx)),
            AppEvent::Timer { app, token } => self.with_app(app, |app, ctx| app.on_timer(ctx, token)),
            AppEvent::SetNode { node, up } => self.set_node_admin(node, up),
        }
    }

    /// Every application cloned through its own [`Application::fork`].
    pub(crate) fn fork_apps(
        &self,
        map: &ForkMap,
    ) -> Result<Vec<Vec<Option<Box<dyn Application>>>>, String> {
        let fork_slot = |node_idx: usize, slot: usize, app: &Option<Box<dyn Application>>| {
            let Some(app) = app else { return Ok(None) };
            app.fork(map).map(Some).ok_or_else(|| {
                format!(
                    "cannot fork: application '{}' (node {node_idx}, slot {slot}) \
                     does not implement fork",
                    app.name()
                )
            })
        };
        let per_node = self.apps.iter().enumerate().map(|(node_idx, slots)| {
            slots.iter().enumerate().map(|(slot, app)| fork_slot(node_idx, slot, app)).collect()
        });
        per_node.collect()
    }

    /// `apps`: every installed application's name and own state digest.
    pub(crate) fn apps_digest(&self) -> u64 {
        let mut h = StateHasher::new();
        for (node_idx, slots) in self.apps.iter().enumerate() {
            for (slot, app) in slots.iter().enumerate() {
                if let Some(app) = app {
                    h.write_usize(node_idx);
                    h.write_usize(slot);
                    h.write_str(app.name());
                    app.state_digest(&mut h);
                }
            }
        }
        h.finish()
    }
}

/// The context handle applications use to act on the world.
///
/// A `Ctx` is passed to every [`Application`] callback. It exposes the
/// simulated clock, RNG, sockets, timers, and node administration.
#[derive(Debug)]
pub struct Ctx<'a> {
    sim: &'a mut Simulator,
    app_id: AppId,
    removed: bool,
}

impl Ctx<'_> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The simulator RNG (deterministic per seed).
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.sim.rng
    }

    /// This application's id.
    pub fn app_id(&self) -> AppId {
        self.app_id
    }

    /// The node this application runs on.
    pub fn node_id(&self) -> NodeId {
        self.app_id.node
    }

    /// Whether this node is currently up.
    pub fn node_is_up(&self) -> bool {
        self.sim.nodes.up[self.app_id.node.index()]
    }

    /// This node's first address of the requested family.
    pub fn my_addr(&self, want_v6: bool) -> Option<IpAddr> {
        self.sim.node_addr(self.app_id.node, want_v6)
    }

    /// Escape hatch: the underlying simulator (for orchestration apps such
    /// as churn controllers that administer other nodes).
    pub fn sim(&mut self) -> &mut Simulator {
        self.sim
    }

    // ----- UDP -----

    /// Binds a UDP port to this application.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::PortInUse`] if another app bound the port.
    pub fn udp_bind(&mut self, port: u16) -> Result<(), NetError> {
        let binds = &mut self.sim.nodes.udp_binds[self.app_id.node.index()];
        if binds.contains_key(&port) {
            return Err(NetError::PortInUse);
        }
        binds.insert(port, self.app_id);
        Ok(())
    }

    /// Binds an ephemeral UDP port and returns it.
    pub fn udp_bind_ephemeral(&mut self) -> u16 {
        let idx = self.app_id.node.index();
        let port = self.sim.nodes.alloc_ephemeral_port(idx);
        self.sim.nodes.udp_binds[idx].insert(port, self.app_id);
        port
    }

    /// Sends a UDP datagram from `src_port` to `dst`. The source address is
    /// chosen to match the destination family.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NoAddress`] if the node has no address of the
    /// destination's family.
    pub fn udp_send(
        &mut self,
        src_port: u16,
        dst: SocketAddr,
        payload: Payload,
        payload_bytes: u32,
    ) -> Result<(), NetError> {
        let src_ip = self
            .sim
            .node_addr(self.app_id.node, dst.is_ipv6())
            .ok_or(NetError::NoAddress)?;
        let pkt = Packet::udp(
            SocketAddr::new(src_ip, src_port),
            dst,
            payload,
            payload_bytes,
        );
        self.sim.send_from_node(self.app_id.node, pkt);
        Ok(())
    }

    /// Sends a fully-formed packet from this node — the raw-socket
    /// analogue, used by flood vectors that forge TCP segments.
    pub fn send_raw(&mut self, packet: Packet) {
        let node = self.app_id.node;
        self.sim.send_from_node(node, packet);
    }

    /// Joins a multicast group on all of this node's interfaces.
    pub fn join_multicast(&mut self, group: IpAddr) {
        debug_assert!(packet::is_multicast(group), "not a multicast group");
        let ifaces = self.sim.nodes.ifaces[self.app_id.node.index()].clone();
        for iface in ifaces {
            let groups = &mut self.sim.ifaces[iface.index()].multicast_groups;
            if !groups.contains(&group) {
                groups.push(group);
            }
        }
    }

    // ----- timers -----

    /// Schedules `on_timer(token)` after `after`.
    pub fn set_timer(&mut self, after: Duration, token: u64) {
        let at = self.sim.now() + after;
        self.sim.schedule(at, Event::App(AppEvent::Timer { app: self.app_id, token }));
    }

    // ----- tcp-lite -----

    /// Listens for inbound connections on `port`.
    ///
    /// # Errors
    ///
    /// Returns [`TcpError::PortInUse`] if another app is listening.
    pub fn tcp_listen(&mut self, port: u16) -> Result<(), TcpError> {
        self.sim.tcp_stack_mut(self.app_id.node).listen(port, self.app_id)
    }

    /// Initiates a connection to `peer`; completion is signalled with
    /// [`TcpEvent::Connected`] or [`TcpEvent::ConnectFailed`].
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NoAddress`] if the node has no address of the
    /// peer's family.
    pub fn tcp_connect(&mut self, peer: SocketAddr) -> Result<ConnId, NetError> {
        let local = self
            .sim
            .node_addr(self.app_id.node, peer.is_ipv6())
            .ok_or(NetError::NoAddress)?;
        let node = self.app_id.node;
        let (conn, actions) = self.sim.tcp_stack_mut(node).connect(self.app_id, local, peer);
        self.sim.process_tcp_actions(node, actions);
        Ok(conn)
    }

    /// Sends a message on an established connection.
    ///
    /// # Errors
    ///
    /// Returns [`TcpError::NotConnected`] if the connection is not
    /// established.
    pub fn tcp_send(&mut self, conn: ConnId, payload: Payload, bytes: u32) -> Result<(), TcpError> {
        let node = self.app_id.node;
        let actions = self.sim.tcp_stack_mut(node).send(conn, payload, bytes)?;
        self.sim.process_tcp_actions(node, actions);
        Ok(())
    }

    /// Closes a connection (best-effort FIN).
    pub fn tcp_close(&mut self, conn: ConnId) {
        let node = self.app_id.node;
        let actions = self.sim.tcp_stack_mut(node).close(conn);
        self.sim.process_tcp_actions(node, actions);
    }

    /// Whether a connection is currently established.
    pub fn tcp_is_established(&self, conn: ConnId) -> bool {
        self.sim.tcp[self.app_id.node.index()]
            .as_ref()
            .is_some_and(|s| s.is_established(conn))
    }

    // ----- process / node management -----

    /// Installs a new application on `node`, starting it immediately.
    pub fn spawn_app(&mut self, node: NodeId, app: Box<dyn Application>) -> AppId {
        self.sim.install_app(node, app)
    }

    /// Removes this application after the current callback returns.
    pub fn exit(&mut self) {
        self.removed = true;
    }

    /// Removes another application immediately.
    pub fn kill_app(&mut self, id: AppId) {
        if id == self.app_id {
            self.removed = true;
        } else {
            self.sim.remove_app(id);
        }
    }

    /// Schedules a node up/down transition (takes effect as its own event).
    pub fn set_node_admin(&mut self, node: NodeId, up: bool) {
        let at = self.sim.now();
        self.sim.schedule(at, Event::App(AppEvent::SetNode { node, up }));
    }

    // ----- telemetry -----

    /// The run's telemetry handle (disabled unless one was installed with
    /// [`Simulator::set_telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        self.sim.telemetry()
    }

    /// Records a flight-recorder event stamped with the current simulated
    /// time and this application's node. `detail` only runs when the
    /// recorder is live.
    pub fn record_event(&self, category: Category, detail: impl FnOnce() -> String) {
        self.sim.telemetry.record_event(
            self.sim.now().as_nanos(),
            Some(self.app_id.node.index() as u32),
            category,
            detail,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::tests::{two_hosts, v4, Blaster, Sink};

    #[test]
    fn node_down_drops_traffic_and_up_restores() {
        let mut h = two_hosts(1_000_000);
        let sink = h.sim.install_app(h.b, Box::new(Sink::default()));
        h.sim.install_app(h.a, Box::new(Blaster::new(v4(2), 100, Duration::from_millis(20))));
        let b = h.b;
        for (at_ms, up) in [(500, false), (1200, true)] {
            h.sim.schedule_forkable_call(
                SimTime::from_millis(at_ms),
                "test.set_node_admin",
                (b, up),
                |sim, (node, up)| sim.set_node_admin(node, up),
            );
        }
        h.sim.run_until(SimTime::from_secs(3));
        let s = h.sim.app_ref::<Sink>(sink).expect("sink");
        assert!(s.packets < 100, "some packets must be lost while down");
        assert!(h.sim.stats().dropped_node_down > 0);
        assert!(s.packets > 40, "delivery must resume after up");
    }

    #[test]
    fn timer_tokens_are_delivered() {
        struct Timers {
            fired: Vec<u64>,
        }
        impl Application for Timers {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(Duration::from_millis(20), 2);
                ctx.set_timer(Duration::from_millis(10), 1);
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
                self.fired.push(token);
            }
        }
        let mut sim = Simulator::new(1);
        let n = sim.add_node("n");
        let id = sim.install_app(n, Box::new(Timers { fired: vec![] }));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.app_ref::<Timers>(id).expect("app").fired, vec![1, 2]);
    }

    #[test]
    fn app_exit_removes_it() {
        struct OneShot;
        impl Application for OneShot {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.udp_bind(77).expect("bind");
                ctx.exit();
            }
        }
        let mut sim = Simulator::new(1);
        let n = sim.add_node("n");
        let id = sim.install_app(n, Box::new(OneShot));
        sim.run_until(SimTime::from_secs(1));
        assert!(sim.app_ref::<OneShot>(id).is_none());
        // Port was released.
        assert!(sim.node(n).udp_binds().is_empty());
    }
}
