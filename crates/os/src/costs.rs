//! OS cost model.
//!
//! The semi-user-level argument is quantitative: one kernel trap on the send
//! path costs ~4.17 µs extra (22 % of a 0-byte one-way latency) and buys
//! portability + protection; kernel-level networking pays traps *and*
//! interrupts on both sides. These constants calibrate an AIX 4.3.3 kernel
//! on a 375 MHz Power3-II. The paper's "a faster CPU will reduce these
//! overheads" is read off `paper`'s sensitivity matrix: each constant's
//! count on the send call and the one-way latency.

use suca_sim::SimDuration;

/// Per-operation kernel costs.
#[derive(Clone, Debug)]
pub struct OsCostModel {
    /// User→kernel mode switch (syscall entry, register save, dispatch).
    pub trap_enter: SimDuration,
    /// Kernel→user return.
    pub trap_exit: SimDuration,
    /// Per-request security validation in a kernel module (PID, pointers,
    /// bounds — the paper's §4.3 checks).
    pub security_check: SimDuration,
    /// Pin-down table hit: hash lookup in kernel memory.
    pub pin_lookup_hit: SimDuration,
    /// Pin-down table miss: translate via the process page table and pin
    /// (per page).
    pub pin_miss_per_page: SimDuration,
    /// Hardware interrupt entry + handler dispatch.
    pub interrupt_entry: SimDuration,
    /// Interrupt handler body for a network RX (buffer demux, queue insert).
    pub interrupt_service: SimDuration,
    /// Context switch / process wakeup from a blocked syscall.
    pub context_switch: SimDuration,
    /// One user↔kernel data copy, per byte cost expressed as bandwidth.
    pub copy_bytes_per_sec: u64,
}

impl OsCostModel {
    /// AIX 4.3.3 on 375 MHz Power3-II (the DAWNING-3000 compute node).
    ///
    /// Calibration: the BCL send path (Fig. 5) spends 7.04 µs total of which
    /// PIO descriptor fill is > half (~3.8 µs for a 16-word descriptor);
    /// the remainder is library entry + trap + checks + translation,
    /// which these constants sum to.
    pub fn aix_power3() -> Self {
        OsCostModel {
            trap_enter: SimDuration::from_us_f64(1.10),
            trap_exit: SimDuration::from_us_f64(1.07),
            security_check: SimDuration::from_us_f64(0.70),
            pin_lookup_hit: SimDuration::from_us_f64(0.45),
            pin_miss_per_page: SimDuration::from_us_f64(8.0),
            interrupt_entry: SimDuration::from_us_f64(3.5),
            interrupt_service: SimDuration::from_us_f64(4.0),
            context_switch: SimDuration::from_us_f64(5.0),
            copy_bytes_per_sec: 350_000_000,
        }
    }
}

/// What the host operating system supports. The paper's portability claim:
/// user-level architectures need `mmap` of device memory, which IBM AIX
/// does not provide — so a user-level protocol *cannot exist* there, while
/// BCL can.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OsPersonality {
    /// Short OS name.
    pub name: &'static str,
    /// Whether device memory can be mapped into user space (`mmap` of NIC
    /// registers/SRAM). Required by user-level protocols (GM, BIP, U-Net).
    pub supports_device_mmap: bool,
}

impl OsPersonality {
    /// IBM AIX 4.3.3 — no usable device mmap (the paper's §1 motivation).
    pub const AIX: OsPersonality = OsPersonality {
        name: "AIX",
        supports_device_mmap: false,
    };
    /// Linux — device mmap available.
    pub const LINUX: OsPersonality = OsPersonality {
        name: "Linux",
        supports_device_mmap: true,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trap_roundtrip_sums() {
        let m = OsCostModel::aix_power3();
        assert!(
            (m.trap_enter + m.trap_exit).as_us() < 2.5,
            "traps are ~2 us"
        );
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // documents the OS contract
    fn personalities() {
        assert!(!OsPersonality::AIX.supports_device_mmap);
        assert!(OsPersonality::LINUX.supports_device_mmap);
    }
}
