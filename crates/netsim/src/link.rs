//! Point-to-point link models.
//!
//! A [`Link`] carries the static properties of one hop in a network path:
//! its raw capacity, one-way propagation latency, MTU, and — for shared
//! production networks like ESnet or the SC99 SciNet show-floor network — a
//! background-load fraction representing competing traffic that the Visapult
//! session cannot use.

use crate::units::{Bandwidth, DataSize};
use crate::SimDuration;

/// Identifier of a link within a [`crate::Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub usize);

/// Broad classification of a link; used by reports and to pick sensible
/// defaults for MTU and framing overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// Local-area ethernet (100 Mbps / 1000 Mbps).
    Lan,
    /// Dedicated research wide-area testbed (NTON).
    DedicatedWan,
    /// Shared production wide-area network (ESnet, SciNet).
    SharedWan,
    /// Loopback / in-host transfer.
    Loopback,
}

/// A single network hop.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// Human-readable name, e.g. `"NTON OC-12 LBL<->SNL"`.
    pub name: String,
    /// Classification.
    pub kind: LinkKind,
    /// Raw line rate.
    pub capacity: Bandwidth,
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Maximum transmission unit (payload bytes per frame).
    pub mtu: DataSize,
    /// Fraction of `capacity` consumed by competing background traffic
    /// (0.0 on dedicated testbeds, > 0 on shared networks).
    pub background_load: f64,
    /// Per-frame protocol overhead fraction (TCP/IP/SONET headers); the
    /// usable goodput is `capacity * (1 - background_load) * (1 - overhead)`.
    pub overhead: f64,
}

impl Link {
    /// A new link with no background load and 3% protocol overhead.
    pub fn new(name: impl Into<String>, kind: LinkKind, capacity: Bandwidth, latency: SimDuration) -> Self {
        let mtu = match kind {
            LinkKind::Loopback => DataSize::from_bytes(65_536),
            _ => DataSize::from_bytes(1_500),
        };
        Link {
            name: name.into(),
            kind,
            capacity,
            latency,
            mtu,
            background_load: 0.0,
            overhead: 0.03,
        }
    }

    /// Builder: set the background-load fraction (clamped to `[0, 0.99]`).
    pub fn with_background_load(mut self, frac: f64) -> Self {
        self.background_load = frac.clamp(0.0, 0.99);
        self
    }

    /// Bandwidth actually available to a foreground application after
    /// background traffic and protocol overhead.
    pub fn available_bandwidth(&self) -> Bandwidth {
        self.capacity
            .scale(1.0 - self.background_load)
            .scale(1.0 - self.overhead)
    }

    /// Round-trip time across just this link.
    pub fn rtt(&self) -> SimDuration {
        self.latency + self.latency
    }

    /// Serialization delay of one MTU-sized frame at the available bandwidth.
    pub fn frame_time(&self) -> SimDuration {
        self.available_bandwidth().time_to_send(self.mtu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nton() -> Link {
        Link::new(
            "NTON OC-12",
            LinkKind::DedicatedWan,
            Bandwidth::oc12(),
            SimDuration::from_millis(2),
        )
    }

    #[test]
    fn available_bandwidth_discounts_load_and_overhead() {
        let l = nton().with_background_load(0.5);
        let avail = l.available_bandwidth().mbps();
        assert!((avail - 622.0 * 0.5 * 0.97).abs() < 1e-6);
    }

    #[test]
    fn rtt_is_twice_latency() {
        assert_eq!(nton().rtt(), SimDuration::from_millis(4));
    }

    #[test]
    fn default_mtu_depends_on_kind() {
        let wan = nton();
        assert_eq!(wan.mtu.bytes(), 1500);
        let lo = Link::new("lo", LinkKind::Loopback, Bandwidth::gige(), SimDuration::ZERO);
        assert_eq!(lo.mtu.bytes(), 65_536);
    }

    #[test]
    fn background_load_clamped() {
        let l = nton().with_background_load(5.0);
        assert!(l.background_load <= 0.99);
        let l = nton().with_background_load(-1.0);
        assert_eq!(l.background_load, 0.0);
    }

    #[test]
    fn frame_time_positive() {
        assert!(nton().frame_time().as_nanos() > 0);
    }
}
