//! Synthetic stand-in for the paper's 2012 European switch-fabric trace.
//!
//! Figure 6 of the paper analyses a 594-million-packet trace captured on
//! a European switch fabric: for a window of A packets, it plots the
//! number B of *distinct* flows in the window. Its anchor points: 570
//! flows per 1 000 packets (B/A = 57 %), 33.81 % at 10 000 packets, and
//! below 10 % "if the investigated packet set is sufficiently large".
//! The trace itself is unavailable, so this module generates a synthetic
//! equivalent: packets drawn i.i.d. from a Zipf popularity law over a
//! fixed flow population, with the two free parameters calibrated against
//! the anchors (see DESIGN.md):
//!
//! * exponent `s = 0.98`, population `F = 20 000` →
//!   expected B/A = 57.5 % at 1 k, 35.1 % at 10 k, 2.0 % at 1 M.
//!
//! Flow *ranks* are mapped to plausible 5-tuples through a seeded
//! permutation so the resulting descriptors exercise real hashing.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Zipf};

use crate::descriptor::PacketDescriptor;
use crate::key::{FiveTuple, FlowKey};

/// A reproducible synthetic trace profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricTraceProfile {
    /// Number of distinct flows in the population.
    pub flows: u64,
    /// Zipf exponent of flow popularity.
    pub exponent: f64,
    /// RNG seed (also salts the rank → tuple mapping).
    pub seed: u64,
}

impl FabricTraceProfile {
    /// The calibrated stand-in for the paper's 2012 fabric trace.
    pub fn european_2012() -> Self {
        FabricTraceProfile {
            flows: 20_000,
            exponent: 0.98,
            seed: 2012,
        }
    }

    /// Generates `packets` descriptors.
    ///
    /// # Panics
    ///
    /// Panics if the profile parameters are out of the Zipf sampler's
    /// domain (`flows == 0` or non-finite exponent).
    pub fn generate(&self, packets: usize) -> Vec<PacketDescriptor> {
        self.iter().take(packets).collect()
    }

    /// An infinite descriptor stream for this profile.
    pub fn iter(&self) -> FabricTraceIter {
        let zipf =
            Zipf::new(self.flows, self.exponent).expect("profile parameters within Zipf domain");
        FabricTraceIter {
            rng: StdRng::seed_from_u64(self.seed),
            zipf,
            salt: self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            seq: 0,
        }
    }
}

/// Iterator over a [`FabricTraceProfile`]'s packet stream.
#[derive(Debug)]
pub struct FabricTraceIter {
    rng: StdRng,
    zipf: Zipf<f64>,
    salt: u64,
    seq: u64,
}

impl Iterator for FabricTraceIter {
    type Item = PacketDescriptor;

    fn next(&mut self) -> Option<PacketDescriptor> {
        let rank = self.zipf.sample(&mut self.rng) as u64;
        // Salt the rank so different seeds yield disjoint tuple spaces.
        let key = FlowKey::from(FiveTuple::from_index(rank ^ self.salt));
        let d = PacketDescriptor::new(self.seq, key);
        self.seq += 1;
        Some(d)
    }
}

/// B/A: the fraction of packets in `descriptors[..window]` that belong to
/// flows not seen earlier in the window (equivalently, distinct flows /
/// window size — the quantity Figure 6 plots).
///
/// # Panics
///
/// Panics if `window` is zero or exceeds the trace length.
pub fn new_flow_ratio(descriptors: &[PacketDescriptor], window: usize) -> f64 {
    assert!(window > 0, "window must be non-zero");
    assert!(window <= descriptors.len(), "window exceeds trace length");
    let mut seen = std::collections::HashSet::with_capacity(window / 2);
    let mut new_flows = 0usize;
    for d in &descriptors[..window] {
        if seen.insert(d.key) {
            new_flows += 1;
        }
    }
    new_flows as f64 / window as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_reproducible() {
        let p = FabricTraceProfile::european_2012();
        let a = p.generate(100);
        let b = p.generate(100);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut p1 = FabricTraceProfile::european_2012();
        let mut p2 = FabricTraceProfile::european_2012();
        p1.seed = 1;
        p2.seed = 2;
        assert_ne!(p1.generate(50), p2.generate(50));
    }

    #[test]
    fn sequence_numbers_monotone() {
        let p = FabricTraceProfile::european_2012();
        for (i, d) in p.generate(64).iter().enumerate() {
            assert_eq!(d.seq, i as u64);
        }
    }

    /// The calibration test that pins the Figure 6 substitution: anchor
    /// windows must land near the paper's measured ratios.
    #[test]
    fn figure6_anchor_points() {
        let p = FabricTraceProfile::european_2012();
        let trace = p.generate(600_000);
        let r1k = new_flow_ratio(&trace, 1_000);
        assert!(
            (0.52..=0.62).contains(&r1k),
            "B/A at 1k = {r1k}, paper: 0.57"
        );
        let r10k = new_flow_ratio(&trace, 10_000);
        assert!(
            (0.29..=0.39).contains(&r10k),
            "B/A at 10k = {r10k}, paper: 0.3381"
        );
        let r512k = new_flow_ratio(&trace, 512_000);
        assert!(r512k < 0.10, "B/A at 512k = {r512k}, paper: <0.10");
    }

    #[test]
    fn curve_is_monotone_decreasing() {
        let p = FabricTraceProfile::european_2012();
        let trace = p.generate(100_000);
        let curve = [1_000, 10_000, 100_000].map(|w| new_flow_ratio(&trace, w));
        assert!(curve[0] > curve[1]);
        assert!(curve[1] > curve[2]);
    }

    #[test]
    #[should_panic(expected = "window exceeds")]
    fn oversized_window_panics() {
        let p = FabricTraceProfile::european_2012();
        let trace = p.generate(10);
        let _ = new_flow_ratio(&trace, 11);
    }
}
