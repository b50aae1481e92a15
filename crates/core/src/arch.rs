//! Where the kernel sits: the paper's three architectures (Table 1) and the
//! three protocols it measures BCL against (Table 2), as placements on the
//! one BCL stack.
//!
//! The paper's argument is structural — *where* the traps, interrupts,
//! copies and address translation sit on one machine — so a comparator is
//! not a second protocol engine but a [`BclConfig`](crate::BclConfig) whose
//! `arch` moves them. Each structural answer is one `match` here; the stack
//! reads them at the handful of sites DESIGN.md "Architectures" lists, and
//! under [`Architecture::SemiUser`] every one of those reads is false.

use suca_os::OsPersonality;
use suca_sim::mtrace::ChainPolicy;

/// One communication architecture on the BCL stack.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Architecture {
    /// BCL: one trap on send, a user-space polling receive, translation by
    /// the kernel's host-resident pin-down table.
    #[default]
    SemiUser,
    /// Kernel-level (TCP-like) networking: a trap and a copy on each side,
    /// an interrupt on receive.
    KernelLevel,
    /// Generic user-level messaging: BCL minus the kernel. The library
    /// writes the descriptor through the NIC's mapped doorbell page, and the
    /// NIC translates virtual pages in its own SRAM cache.
    UserLevel,
    /// Myricom's GM: user-level, with GM's firmware costs.
    Gm,
    /// Active Messages II: user-level, plus a receive copy out of a bounce
    /// buffer.
    Am2,
    /// BIP: user-level with no flow control or error correction.
    Bip,
}

impl Architecture {
    /// Every architecture, BCL first.
    pub const ALL: [Self; 6] = [
        Self::SemiUser,
        Self::KernelLevel,
        Self::UserLevel,
        Self::Gm,
        Self::Am2,
        Self::Bip,
    ];

    /// Display name (Table 1 / Table 2 rows).
    pub fn name(self) -> &'static str {
        match self {
            Self::SemiUser => "semi-user-level (BCL)",
            Self::KernelLevel => "kernel-level (TCP-like)",
            Self::UserLevel => "user-level (generic)",
            Self::Gm => "GM",
            Self::Am2 => "AM-II",
            Self::Bip => "BIP",
        }
    }

    /// User code touches the NIC: the send descriptor is written through
    /// mapped device memory with no trap, and the NIC translates the
    /// descriptor's virtual pages itself.
    pub fn user_nic_access(self) -> bool {
        !matches!(self, Self::SemiUser | Self::KernelLevel)
    }

    /// The kernel owns receive: a completion raises an interrupt, and the
    /// blocked reader is woken and traps to take the message.
    pub fn kernel_receive(self) -> bool {
        self == Self::KernelLevel
    }

    /// Host copies of the payload on the send path (user → kernel buffer).
    pub fn send_copies(self) -> u32 {
        u32::from(self == Self::KernelLevel)
    }

    /// Host copies of the payload on the receive path before it is usable
    /// (kernel buffer → user, or AM-II's bounce buffer → user).
    pub fn recv_copies(self) -> u32 {
        u32::from(matches!(self, Self::KernelLevel | Self::Am2))
    }

    /// The NIC runs go-back-N (acks and retransmission). Without it (BIP)
    /// a dropped or corrupted packet is a lost message.
    pub fn reliable(self) -> bool {
        self != Self::Bip
    }

    /// Kernel traps on one message's critical path (Table 1).
    pub fn traps(self) -> u64 {
        u64::from(!self.user_nic_access()) + u64::from(self.kernel_receive())
    }

    /// Interrupts on one message's critical path (Table 1).
    pub fn interrupts(self) -> u64 {
        u64::from(self.kernel_receive())
    }

    /// The causal-chain budget every traced message of this architecture
    /// must meet: exactly its Table 1 crossings.
    pub fn chain_policy(self) -> ChainPolicy {
        ChainPolicy::architecture(self.traps(), self.interrupts())
    }

    /// Can this architecture exist on `os`? User-level protocols need `mmap`
    /// of device memory, which AIX does not provide — the paper's
    /// portability argument.
    pub fn check_os(self, os: &OsPersonality) -> Result<(), MmapUnsupported> {
        if self.user_nic_access() && !os.supports_device_mmap {
            return Err(MmapUnsupported {
                os: os.name,
                protocol: self.name(),
            });
        }
        Ok(())
    }
}

/// Raised when an architecture cannot exist on the host OS.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MmapUnsupported {
    /// The OS that lacks device mmap.
    pub os: &'static str,
    /// The protocol that needs it.
    pub protocol: &'static str,
}

impl core::fmt::Display for MmapUnsupported {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} requires mmap of device memory, which {} does not support",
            self.protocol, self.os
        )
    }
}

impl std::error::Error for MmapUnsupported {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BclConfig;
    use suca_mem::PhysMemory;
    use suca_os::{NodeId, NodeOs, OsCostModel};
    use suca_sim::{Sim, SimDuration};

    #[test]
    fn table1_structure() {
        let rows: Vec<_> = [
            Architecture::KernelLevel,
            Architecture::UserLevel,
            Architecture::SemiUser,
        ]
        .map(|a| (a.traps(), a.interrupts(), a.user_nic_access()))
        .into();
        assert_eq!(rows, [(2, 1, false), (0, 0, true), (1, 0, false)]);
        // BCL's budget is the one every BCL chain is already held to.
        let (bcl, semi) = (ChainPolicy::bcl(), Architecture::SemiUser.chain_policy());
        assert_eq!(semi.traps_per_msg, bcl.traps_per_msg);
        assert_eq!(semi.interrupts_per_msg, bcl.interrupts_per_msg);
    }

    #[test]
    fn user_level_needs_mmap_kernel_level_does_not() {
        for arch in Architecture::ALL {
            let on_aix = arch.check_os(&OsPersonality::AIX);
            assert!(arch.check_os(&OsPersonality::LINUX).is_ok(), "{arch:?}");
            match arch {
                Architecture::SemiUser | Architecture::KernelLevel => assert!(on_aix.is_ok()),
                _ => {
                    let e = on_aix.expect_err("AIX has no device mmap");
                    assert_eq!((e.os, e.protocol), ("AIX", arch.name()));
                }
            }
        }
    }

    #[test]
    fn bip_is_unreliable_and_cheap() {
        for arch in Architecture::ALL {
            assert_eq!(arch.reliable(), arch != Architecture::Bip, "{arch:?}");
        }
        let (bip, ul) = (BclConfig::bip(), BclConfig::user_level());
        assert!(bip.mcp.send_fixed < ul.mcp.send_fixed);
    }

    #[test]
    fn copy_time_scales() {
        // Each architecture's copies, each charged at the node's own rate.
        let copies = Architecture::ALL.map(|a| (a.send_copies(), a.recv_copies()));
        assert_eq!(copies, [(0, 0), (1, 1), (0, 0), (0, 0), (0, 1), (0, 0)]);
        let sim = Sim::new(1);
        let os = NodeOs::new(
            &sim,
            NodeId(0),
            PhysMemory::new(1 << 20),
            OsPersonality::AIX,
            OsCostModel::aix_power3(),
        );
        assert_eq!(os.copy_cost(0), SimDuration::ZERO);
        let per_kb = os.copy_cost(1000);
        assert_eq!(
            per_kb,
            SimDuration::for_bytes(1000, os.costs.copy_bytes_per_sec)
        );
        assert!(os.copy_cost(4000) > per_kb * 3);
    }
}
