//! The fault-plan executor: resolves each planned fault's target against
//! the handle record and schedules it as a forkable call. Handlers are
//! plain `fn` pointers over [`ForkClone`](netsim::ForkClone) data (not
//! opaque closures), so pending faults survive [`Ddosim::fork`](super::Ddosim::fork).

use super::Handles;
use faults::{FaultKind, FaultPlan};
use firmware::ContainerHandle;
use netsim::{Category, LinkId, NodeId, SimTime, Simulator};
use std::time::Duration;

/// Schedules every fault of `plan` onto the event queue. Targets resolve
/// here (names → nodes/links/containers) so a bad plan fails up front,
/// not mid-run; the faults themselves interleave deterministically with
/// everything else. A *suffix* fault plan is layered onto a fork the same
/// way (entries dated before the fork point fire immediately).
///
/// # Errors
///
/// Returns a message naming the first unresolvable target.
pub(super) fn schedule(sim: &mut Simulator, h: &Handles, plan: &FaultPlan) -> Result<(), String> {
    for fault in &plan.faults {
        let at = SimTime::ZERO + fault.at;
        let detail = fault.describe();
        match &fault.kind {
            FaultKind::LinkDown { node } | FaultKind::LinkUp { node } => {
                let up = matches!(fault.kind, FaultKind::LinkUp { .. });
                let (node_id, _) = resolve_target(h, node)?;
                let links = access_links(sim, node, node_id)?;
                sim.schedule_forkable_call(
                    at,
                    "fault.link_admin",
                    (node_id, links, up, detail),
                    link_admin,
                );
            }
            FaultKind::LinkLoss { node, probability } => {
                let (node_id, _) = resolve_target(h, node)?;
                let links = access_links(sim, node, node_id)?;
                sim.schedule_forkable_call(
                    at,
                    "fault.link_loss",
                    (node_id, links, *probability, detail),
                    link_loss,
                );
            }
            FaultKind::NodeCrash { node } => {
                let (node_id, container) = resolve_target(h, node)?;
                sim.schedule_forkable_call(
                    at,
                    "fault.node_crash",
                    (node_id, container, detail),
                    node_crash,
                );
            }
            FaultKind::NodeRestore { node } => {
                let (node_id, _) = resolve_target(h, node)?;
                sim.schedule_forkable_call(
                    at,
                    "fault.node_restore",
                    (node_id, detail),
                    node_restore,
                );
            }
            FaultKind::CncOutage { duration } => {
                sim.schedule_forkable_call(
                    at,
                    "fault.cnc_outage",
                    (h.attacker.node, *duration, detail),
                    cnc_outage,
                );
            }
            FaultKind::ContainerKill { node } => {
                let (node_id, container) = resolve_target(h, node)?;
                let Some(container) = container else {
                    return Err(format!(
                        "fault plan: container_kill targets '{node}', which has no container"
                    ));
                };
                sim.schedule_forkable_call(
                    at,
                    "fault.container_kill",
                    (node_id, container, detail),
                    container_kill,
                );
            }
        }
    }
    Ok(())
}

/// Resolves a fault-plan target name to its node and container.
fn resolve_target(h: &Handles, name: &str) -> Result<(NodeId, Option<ContainerHandle>), String> {
    if name == "attacker" {
        return Ok((h.attacker.node, Some(h.attacker_container.clone())));
    }
    if name == "tserver" {
        return Ok((h.tserver.node, None));
    }
    name.strip_prefix("dev-")
        .and_then(|s| s.parse::<usize>().ok())
        .and_then(|i| h.devs.get(i))
        .map(|d| (d.node, Some(d.container.clone())))
        .ok_or_else(|| format!("fault plan targets unknown node '{name}'"))
}

fn access_links(sim: &Simulator, name: &str, node: NodeId) -> Result<Vec<LinkId>, String> {
    let links = sim.node_p2p_links(node);
    if links.is_empty() {
        return Err(format!(
            "fault plan: node '{name}' has no point-to-point links"
        ));
    }
    Ok(links)
}

/// Records a planned fault firing in the flight recorder.
fn record_fault(sim: &Simulator, node: NodeId, detail: String) {
    let now = sim.now().as_nanos();
    sim.telemetry()
        .record_event(now, Some(node.index() as u32), Category::Fault, || detail);
}

fn link_admin(sim: &mut Simulator, data: (NodeId, Vec<LinkId>, bool, String)) {
    let (node_id, links, up, detail) = data;
    record_fault(sim, node_id, detail);
    for link in links {
        sim.set_link_admin(link, up);
    }
}

fn link_loss(sim: &mut Simulator, data: (NodeId, Vec<LinkId>, f64, String)) {
    let (node_id, links, p, detail) = data;
    record_fault(sim, node_id, detail);
    for link in links {
        sim.set_link_loss(link, p);
    }
}

fn node_crash(sim: &mut Simulator, data: (NodeId, Option<ContainerHandle>, String)) {
    let (node_id, container, detail) = data;
    record_fault(sim, node_id, detail);
    // Power off first: a hard crash is silent on the wire, so the node
    // must be down (stack reset) before app removal, or removal would FIN
    // the bot's C&C connection like a graceful exit.
    sim.set_node_admin(node_id, false);
    if let Some(c) = &container {
        for app in c.reboot(sim.now(), &crate::reboot::DAEMON_NAMES) {
            sim.remove_app(app);
        }
    }
}

fn node_restore(sim: &mut Simulator, data: (NodeId, String)) {
    let (node_id, detail) = data;
    record_fault(sim, node_id, detail);
    sim.set_node_admin(node_id, true);
}

fn cnc_outage(sim: &mut Simulator, data: (NodeId, Option<Duration>, String)) {
    let (node_id, duration, detail) = data;
    record_fault(sim, node_id, detail);
    sim.set_node_admin(node_id, false);
    if let Some(d) = duration {
        sim.schedule_forkable_call_after(d, "fault.cnc_outage_end", node_id, cnc_outage_end);
    }
}

fn cnc_outage_end(sim: &mut Simulator, node_id: NodeId) {
    record_fault(
        sim,
        node_id,
        "cnc_outage ended (attacker host restarts)".to_owned(),
    );
    sim.set_node_admin(node_id, true);
}

fn container_kill(sim: &mut Simulator, data: (NodeId, ContainerHandle, String)) {
    let (node_id, container, detail) = data;
    record_fault(sim, node_id, detail);
    for app in container.reboot(sim.now(), &crate::reboot::DAEMON_NAMES) {
        sim.remove_app(app);
    }
}
