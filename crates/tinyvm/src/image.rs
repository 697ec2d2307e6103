//! Binary images: the static description of a vulnerable network daemon.
//!
//! A [`BinaryImage`] is what the Attacker analyzes offline (the paper
//! assumes "Attacker can access Devs' binaries and analyze them to construct
//! working ROP payloads"): load addresses, a gadget table, the stack-buffer
//! vulnerability's geometry, and whether an information-leak primitive
//! exists (needed to defeat ASLR).

use std::collections::BTreeMap;
use std::fmt;

/// Target CPU architecture of a binary (the paper supports multiple
/// architectures via Docker Buildx; its experiments use x86-64).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Arch {
    /// 64-bit x86.
    X86_64,
    /// 32-bit ARMv7.
    Arm7,
    /// 32-bit MIPS.
    Mips,
}

impl Arch {
    /// The suffix Mirai-style loaders use for per-arch binaries.
    pub fn suffix(self) -> &'static str {
        match self {
            Arch::X86_64 => "x86",
            Arch::Arm7 => "arm7",
            Arch::Mips => "mips",
        }
    }
}

impl fmt::Display for Arch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

/// Micro-operations a ROP gadget performs when "executed".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GadgetOp {
    /// `pop rdi; ret` — loads the next chain word into the first argument
    /// register.
    PopArg0,
    /// `pop rsi; ret` — second argument register.
    PopArg1,
    /// A syscall stub that invokes `execlp` with arg0 pointing at a
    /// NUL-terminated command string.
    SyscallExec,
    /// Plain `ret` (alignment / nop gadget).
    Ret,
}

/// Geometry of the stack-buffer-overflow vulnerability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VulnSpec {
    /// Size of the fixed stack buffer the daemon copies input into.
    pub buffer_len: usize,
    /// Bytes between the end of the buffer and the saved return address
    /// (saved registers / canary-free padding).
    pub gap_to_ra: usize,
    /// Maximum input bytes the (absent) length check would have allowed;
    /// inputs longer than this are truncated by the transport, bounding the
    /// chain size an attacker can deliver.
    pub max_input: usize,
}

impl VulnSpec {
    /// Offset of the saved return address from the buffer start.
    pub fn ra_offset(&self) -> usize {
        self.buffer_len + self.gap_to_ra
    }
}

/// The information-leak primitive of an image, if any.
///
/// Both of the paper's daemons echo attacker-influenced data; we model this
/// as a probe that returns a code address from which the attacker computes
/// the ASLR slide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeakSpec {
    /// Static (unslid) address of the symbol the probe leaks.
    pub leaked_symbol_addr: u64,
}

/// A vulnerable binary image.
#[derive(Debug, Clone)]
pub struct BinaryImage {
    /// Binary name (e.g. `connmand`).
    pub name: String,
    /// Target architecture.
    pub arch: Arch,
    /// Static (unslid) base address of the text segment.
    pub text_base: u64,
    /// Text segment length in bytes.
    pub text_len: u64,
    /// Gadget table: offset into text → micro-op.
    pub gadgets: BTreeMap<u64, GadgetOp>,
    /// The overflow vulnerability.
    pub vuln: VulnSpec,
    /// Info-leak primitive, if the binary has one.
    pub leak: Option<LeakSpec>,
    /// On-disk size in bytes (drives container image memory accounting).
    pub size_bytes: u64,
}

impl BinaryImage {
    /// Finds the offset of the first gadget performing `op`.
    pub(crate) fn gadget_offset(&self, op: GadgetOp) -> Option<u64> {
        self.gadgets
            .iter()
            .find(|(_, g)| **g == op)
            .map(|(off, _)| *off)
    }

    /// Static (unslid) virtual address of the first gadget performing `op`.
    pub(crate) fn gadget_addr(&self, op: GadgetOp) -> Option<u64> {
        self.gadget_offset(op).map(|o| self.text_base + o)
    }

    /// Whether a (possibly slid) address falls in this image's text segment
    /// given `slide`.
    pub(crate) fn in_text(&self, addr: u64, slide: u64) -> bool {
        let base = self.text_base.wrapping_add(slide);
        addr >= base && addr < base + self.text_len
    }

    /// Looks up the gadget at a (possibly slid) address.
    pub(crate) fn gadget_at(&self, addr: u64, slide: u64) -> Option<GadgetOp> {
        if !self.in_text(addr, slide) {
            return None;
        }
        let off = addr - self.text_base.wrapping_add(slide);
        self.gadgets.get(&off).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> BinaryImage {
        let mut gadgets = BTreeMap::new();
        gadgets.insert(0x110, GadgetOp::PopArg0);
        gadgets.insert(0x220, GadgetOp::SyscallExec);
        BinaryImage {
            name: "testd".into(),
            arch: Arch::X86_64,
            text_base: 0x5555_0000,
            text_len: 0x10000,
            gadgets,
            vuln: VulnSpec {
                buffer_len: 64,
                gap_to_ra: 8,
                max_input: 1024,
            },
            leak: None,
            size_bytes: 100_000,
        }
    }

    #[test]
    fn ra_offset_is_buffer_plus_gap() {
        assert_eq!(image().vuln.ra_offset(), 72);
    }

    #[test]
    fn gadget_lookup_without_slide() {
        let img = image();
        assert_eq!(img.gadget_addr(GadgetOp::PopArg0), Some(0x5555_0110));
        assert_eq!(img.gadget_at(0x5555_0110, 0), Some(GadgetOp::PopArg0));
        assert_eq!(img.gadget_at(0x5555_0111, 0), None);
    }

    #[test]
    fn gadget_lookup_respects_slide() {
        let img = image();
        let slide = 0x7000;
        assert_eq!(img.gadget_at(0x5555_0110 + slide, slide), Some(GadgetOp::PopArg0));
        // Unslid address no longer resolves under a slide.
        assert_eq!(img.gadget_at(0x5555_0110, slide), None);
    }

    #[test]
    fn in_text_bounds() {
        let img = image();
        assert!(img.in_text(0x5555_0000, 0));
        assert!(img.in_text(0x5555_FFFF, 0));
        assert!(!img.in_text(0x5556_0000, 0));
        assert!(!img.in_text(0x5554_FFFF, 0));
    }

    #[test]
    fn arch_suffixes() {
        assert_eq!(Arch::X86_64.suffix(), "x86");
        assert_eq!(Arch::Arm7.to_string(), "arm7");
        assert_eq!(Arch::Mips.to_string(), "mips");
    }
}
