//! The container's process table.
//!
//! Mirai's self-defense interacts with it heavily: process-name
//! obfuscation, killing processes bound to telnet/ssh ports, and killing
//! rival malware by name.

use netsim::AppId;
use std::fmt;

/// Process id within a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid {}", self.0)
    }
}

/// One process table entry.
#[derive(Debug, Clone)]
pub struct ProcEntry {
    /// Process id.
    pub pid: Pid,
    /// Process name (`argv[0]`; bots obfuscate this).
    pub name: String,
    /// The netsim application embodying the process, if any.
    pub app: Option<AppId>,
    /// Ports the process is bound to.
    pub ports: Vec<u16>,
}

/// The container's process table.
#[derive(Debug, Default, Clone)]
pub struct ProcTable {
    procs: Vec<ProcEntry>,
    next_pid: u32,
}

impl ProcTable {
    /// An empty table; pids start at 100.
    pub fn new() -> Self {
        ProcTable {
            procs: Vec::new(),
            next_pid: 100,
        }
    }

    /// Registers a process; returns its pid.
    pub fn register(&mut self, name: impl Into<String>, app: Option<AppId>, ports: Vec<u16>) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.procs.push(ProcEntry {
            pid,
            name: name.into(),
            app,
            ports,
        });
        pid
    }

    /// Renames a process (Mirai's `prctl(PR_SET_NAME, random)` analogue).
    pub fn rename(&mut self, pid: Pid, name: impl Into<String>) -> bool {
        match self.procs.iter_mut().find(|p| p.pid == pid) {
            Some(p) => {
                p.name = name.into();
                true
            }
            None => false,
        }
    }

    /// Associates an application with an already-registered process.
    pub fn set_app(&mut self, pid: Pid, app: AppId) -> bool {
        match self.procs.iter_mut().find(|p| p.pid == pid) {
            Some(p) => {
                p.app = Some(app);
                true
            }
            None => false,
        }
    }

    /// Removes a process by pid; returns its app (to be removed from the
    /// simulator by the caller).
    pub fn kill(&mut self, pid: Pid) -> Option<Option<AppId>> {
        let idx = self.procs.iter().position(|p| p.pid == pid)?;
        Some(self.procs.swap_remove(idx).app)
    }

    /// Iterates over live processes.
    pub fn iter(&self) -> impl Iterator<Item = &ProcEntry> {
        self.procs.iter()
    }

    /// Number of live processes.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_assigns_increasing_pids() {
        let mut t = ProcTable::new();
        let a = t.register("connmand", None, vec![53]);
        let b = t.register("telnetd", None, vec![23]);
        assert!(b > a);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn rename_obfuscates() {
        let mut t = ProcTable::new();
        let pid = t.register("mirai.x86", None, vec![]);
        assert!(t.rename(pid, "dvrHelper7"));
        let names: Vec<&str> = t.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["dvrHelper7"]);
        assert!(!t.rename(Pid(9999), "x"));
    }

    #[test]
    fn kill_unknown_pid_is_none() {
        let mut t = ProcTable::new();
        assert!(t.kill(Pid(1)).is_none());
        assert!(t.is_empty());
    }
}
