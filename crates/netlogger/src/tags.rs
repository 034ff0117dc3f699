//! The standard Visapult NetLogger tags (paper Appendix A, Tables 1 and 2).
//!
//! Tag strings are kept byte-identical to the paper so that lifeline plots
//! read the same way as the published figures.

/// Back end: top of the per-timestep loop.
pub const BE_FRAME_START: &str = "BE_FRAME_START";
/// Back end: a PE is about to load its subset of volume data.
pub const BE_LOAD_START: &str = "BE_LOAD_START";
/// Back end: volume data load and format conversion completed.
pub const BE_LOAD_END: &str = "BE_LOAD_END";
/// Back end: start transmitting visualization metadata to the viewer.
pub const BE_LIGHT_SEND: &str = "BE_LIGHT_SEND";
/// Back end: metadata transmission complete.
pub const BE_LIGHT_END: &str = "BE_LIGHT_END";
/// Back end: start of the parallel volume rendering process.
pub const BE_RENDER_START: &str = "BE_RENDER_START";
/// Back end: all rendering complete.
pub const BE_RENDER_END: &str = "BE_RENDER_END";
/// Back end: start transmitting visualization (texture) data.
pub const BE_HEAVY_SEND: &str = "BE_HEAVY_SEND";
/// Back end: end of visualization data transmission.
pub const BE_HEAVY_END: &str = "BE_HEAVY_END";
/// Back end: end of processing for this timestep.
pub const BE_FRAME_END: &str = "BE_FRAME_END";

/// Viewer: top of the loop in each thread servicing a back-end connection.
pub const V_FRAME_START: &str = "V_FRAME_START";
/// Viewer: beginning of receipt of visualization metadata (~256 bytes).
pub const V_LIGHTPAYLOAD_START: &str = "V_LIGHTPAYLOAD_START";
/// Viewer: visualization metadata received.
pub const V_LIGHTPAYLOAD_END: &str = "V_LIGHTPAYLOAD_END";
/// Viewer: beginning of receipt of visualization data (textures + geometry).
pub const V_HEAVYPAYLOAD_START: &str = "V_HEAVYPAYLOAD_START";
/// Viewer: all visualization data received.
pub const V_HEAVYPAYLOAD_END: &str = "V_HEAVYPAYLOAD_END";
/// Viewer: end of processing of this timestep's worth of data.
pub const V_FRAME_END: &str = "V_FRAME_END";

/// The back-end tags in the vertical order used by the paper's NLV figures
/// (bottom to top).
pub const BACKEND_TAG_ORDER: &[&str] = &[
    BE_FRAME_START,
    BE_LOAD_START,
    BE_LOAD_END,
    BE_LIGHT_SEND,
    BE_LIGHT_END,
    BE_RENDER_START,
    BE_RENDER_END,
    BE_HEAVY_SEND,
    BE_HEAVY_END,
    BE_FRAME_END,
];

/// The viewer tags in the vertical order used by the paper's NLV figures.
pub const VIEWER_TAG_ORDER: &[&str] = &[
    V_FRAME_START,
    V_LIGHTPAYLOAD_START,
    V_LIGHTPAYLOAD_END,
    V_HEAVYPAYLOAD_START,
    V_HEAVYPAYLOAD_END,
    V_FRAME_END,
];

/// The combined lifeline order used in Figures 12–17: back-end traces on the
/// bottom, viewer traces on top.
pub fn combined_tag_order() -> Vec<&'static str> {
    let mut v = Vec::with_capacity(BACKEND_TAG_ORDER.len() + VIEWER_TAG_ORDER.len());
    v.extend_from_slice(BACKEND_TAG_ORDER);
    v.extend_from_slice(VIEWER_TAG_ORDER);
    v
}

/// DPSS block cache: per-stage (or per-scenario) counter summary.  Emitted
/// identically by the real pipeline and the virtual-time replay, so the same
/// analysis reads cache behaviour off either log.
pub const DPSS_CACHE_STATS: &str = "DPSS_CACHE_STATS";

/// Striped transport: per-stage summary across every stripe of the
/// back-end → viewer link.  Emitted by both execution paths.
pub const TRANSPORT_STATS: &str = "TRANSPORT_STATS";
/// Striped transport: one event per stripe with that stripe's chunk and byte
/// counters (the per-stripe throughput telemetry of the paper's striped
/// sockets).
pub const TRANSPORT_STRIPE: &str = "TRANSPORT_STRIPE";

/// Service layer: a session was admitted by the broker.
pub const SERVICE_JOIN: &str = "SERVICE_JOIN";
/// Service layer: a session left (or the campaign ended).
pub const SERVICE_LEAVE: &str = "SERVICE_LEAVE";
/// Service layer: a session was evicted for a higher tier.
pub const SERVICE_EVICT: &str = "SERVICE_EVICT";
/// Service layer: a session was rejected by admission control.
pub const SERVICE_REJECT: &str = "SERVICE_REJECT";
/// Service layer: per-stage summary of sessions, shared renders and fan-out
/// load.  Both execution paths emit it through one shared emitter; the
/// lifecycle and shared-render fields match across paths, while the fan-out
/// byte field reflects each path's own payload sizing (real encoded
/// geometry vs. the modeled allowance).
pub const SERVICE_STATS: &str = "SERVICE_STATS";

/// Standard field name: frame (timestep) number.
pub const FIELD_FRAME: &str = "NL.frame";
/// Standard field name: payload bytes associated with the event span.
pub const FIELD_BYTES: &str = "NL.bytes";
/// Standard field name: back-end PE rank.
pub const FIELD_RANK: &str = "NL.rank";
/// Standard field name: block-cache lookups served from the cache.
pub const FIELD_CACHE_HITS: &str = "NL.cache.hits";
/// Standard field name: block-cache lookups that fetched from the servers.
pub const FIELD_CACHE_MISSES: &str = "NL.cache.misses";
/// Standard field name: block-cache entries evicted to make room.
pub const FIELD_CACHE_EVICTIONS: &str = "NL.cache.evictions";
/// Standard field name: number of stripes in a striped transport link.
pub const FIELD_TRANSPORT_STRIPES: &str = "NL.transport.stripes";
/// Standard field name: index of one stripe within a striped link.
pub const FIELD_TRANSPORT_STRIPE: &str = "NL.transport.stripe";
/// Standard field name: chunks carried (by a stripe, or in aggregate).
pub const FIELD_TRANSPORT_CHUNKS: &str = "NL.transport.chunks";
/// Standard field name: chunks that arrived out of sequence order.
pub const FIELD_TRANSPORT_OUT_OF_ORDER: &str = "NL.transport.out_of_order";
/// Standard field name: frames fully reassembled from stripes.
pub const FIELD_TRANSPORT_FRAMES: &str = "NL.transport.frames";
/// Standard field name: sessions offered to the service broker.
pub const FIELD_SERVICE_SESSIONS: &str = "NL.service.sessions";
/// Standard field name: sessions admitted by the broker.
pub const FIELD_SERVICE_ADMITTED: &str = "NL.service.admitted";
/// Standard field name: sessions rejected by admission control.
pub const FIELD_SERVICE_REJECTED: &str = "NL.service.rejected";
/// Standard field name: sessions evicted for higher tiers.
pub const FIELD_SERVICE_EVICTED: &str = "NL.service.evicted";
/// Standard field name: backend renders the shared farm performed.
pub const FIELD_SERVICE_RENDERS: &str = "NL.service.renders";
/// Standard field name: renders a naive per-session farm would have paid.
pub const FIELD_SERVICE_RENDER_REQUESTS: &str = "NL.service.render_requests";
/// Standard field name: render requests served by a shared render.
pub const FIELD_SERVICE_SHARED_HITS: &str = "NL.service.shared_hits";
/// Standard field name: schedule index of the session an event concerns.
pub const FIELD_SERVICE_SESSION: &str = "NL.service.session";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_cover_all_tags_without_duplicates() {
        let combined = combined_tag_order();
        assert_eq!(combined.len(), 16);
        let unique: std::collections::HashSet<_> = combined.iter().collect();
        assert_eq!(unique.len(), combined.len());
        assert_eq!(combined[0], BE_FRAME_START);
        assert_eq!(*combined.last().unwrap(), V_FRAME_END);
    }

    #[test]
    fn tag_strings_match_paper_prefixes() {
        for t in BACKEND_TAG_ORDER {
            assert!(t.starts_with("BE_"));
        }
        for t in VIEWER_TAG_ORDER {
            assert!(t.starts_with("V_"));
        }
    }
}
