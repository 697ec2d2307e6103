//! # firmware — the container runtime and vulnerable IoT services
//!
//! The Docker substitute of the DDoSim reproduction. A Dev in the paper is
//! a Docker container holding a vulnerable network daemon, bridged to an
//! NS-3 ghost node; here a Dev is a [`ContainerHandle`] (filesystem,
//! process table, shell command set, audit log) whose applications run on a
//! `netsim` node:
//!
//! * [`SimFs`] / [`ProcTable`] — the state the infection chain manipulates;
//! * [`ShellJob`] — interprets `curl -s URL | sh`, `wget`, `chmod +x`,
//!   binary execution, and `rm`, with real simulated-network downloads;
//! * [`NetMgrDaemon`] / [`DnsProxyDaemon`] — the Connman- and Dnsmasq-like
//!   daemons whose stack overflows (via [`tinyvm`]) are the botnet's entry
//!   points;
//! * [`ContainerRuntime`] — builds containers and aggregates the memory
//!   accounting behind the paper's Table I.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod container;
pub mod fs;
pub mod proc;
pub mod services;
pub mod shell;

pub use container::{
    CommandSet, ContainerEvent, ContainerHandle, ContainerRuntime, ContainerState,
    PROC_OVERHEAD_BYTES,
};
pub use fs::{
    FileEntry, FileKind, FsError, FsTemplate, FsTemplateStore, LaunchEnv, ProgramLauncher,
    ServedFile, ShellScript, SimFs,
};
pub use proc::{Pid, ProcEntry, ProcTable};
pub use services::{
    parse_leak_query_name, DnsProxyDaemon, NetMgrDaemon, ServiceCore,
    OPTION_LEAK_PROBE, OPTION_LEAK_VALUE, RTYPE_LEAK_PROBE,
};
pub use shell::ShellJob;
