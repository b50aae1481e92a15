//! PCI programmed-I/O cost model.
//!
//! The paper measures its testbed PCI at **0.24 µs per word written** to the
//! NIC, and observes that filling the send-request descriptor over PIO
//! consumes more than half of the 7.04 µs send overhead. That constant
//! therefore anchors the whole Fig. 5 timeline. No path reads the NIC over
//! PIO (DESIGN.md says why), so the paper's 0.98 µs read cost is not
//! modelled. The paper's "a good motherboard can improve the I/O
//! performance heavily" is read off `paper`'s sensitivity matrix: how many
//! times `pio_write_word` and `dma_setup` sit on each anchor's critical
//! path.

use suca_sim::SimDuration;

/// Cost model for one host↔device bus.
#[derive(Clone, Debug)]
pub struct PciModel {
    /// Cost of one 32-bit PIO write from host to device memory.
    pub pio_write_word: SimDuration,
    /// Sustained DMA bandwidth between host memory and device memory.
    pub dma_bytes_per_sec: u64,
    /// Fixed cost to program one DMA descriptor and start the engine.
    pub dma_setup: SimDuration,
}

impl PciModel {
    /// DAWNING-3000 testbed calibration (paper §5.1): PIO write 0.24 µs;
    /// 64-bit/33 MHz PCI sustaining ~220 MB/s of DMA.
    pub fn dawning3000() -> Self {
        PciModel {
            pio_write_word: SimDuration::from_us_f64(0.24),
            dma_bytes_per_sec: 220_000_000,
            dma_setup: SimDuration::from_us_f64(0.30),
        }
    }

    /// Cost of writing `words` 32-bit words via PIO.
    pub fn pio_write(&self, words: u64) -> SimDuration {
        self.pio_write_word * words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let m = PciModel::dawning3000();
        assert_eq!(m.pio_write(1).as_ns(), 240);
        // Descriptor fill of ~16 words is > half of the 7.04 us send
        // overhead, as the paper observes.
        assert!(m.pio_write(16).as_us() > 7.04 / 2.0);
    }
}
