//! The rendered observations, pinned: an FNV-1a 64 digest of every day's
//! telescope batches `(ts, count, bytes)`, then every day's honeypot
//! batches `(honeypot, ts, count, bytes)`, in the order the renderer
//! hands them to the detectors. The repro goldens only see what the
//! detectors make of the bytes; this digest also moves on a wrong IP
//! checksum or ident, a reordered tie or a changed RNG draw — anything a
//! change to the renderer or the packet builders must not touch.

use dosscope_harness::{scenario, Scenario, ScenarioConfig};
use dosscope_types::DayIndex;

/// FNV-1a, 64-bit.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A length-prefixed field, so adjacent packets cannot alias.
    fn write_field(&mut self, bytes: &[u8]) {
        self.write(&(bytes.len() as u32).to_le_bytes());
        self.write(bytes);
    }
}

fn render_digest(config: &ScenarioConfig) -> u64 {
    let world = Scenario::run(config);
    let renderer = scenario::renderer(config, &world.truth);
    let mut h = Fnv1a::new();
    for d in 0..config.days {
        for b in renderer.telescope_day(DayIndex(d)) {
            h.write(&b.ts.secs().to_le_bytes());
            h.write(&b.count.to_le_bytes());
            h.write_field(b.bytes.as_slice());
        }
    }
    for d in 0..config.days {
        for b in renderer.honeypot_day(DayIndex(d)) {
            h.write(&[b.honeypot.0]);
            h.write(&b.ts.secs().to_le_bytes());
            h.write(&b.count.to_le_bytes());
            h.write_field(b.bytes.as_slice());
        }
    }
    h.0
}

#[test]
fn test_small_render_digest_is_pinned() {
    assert_eq!(
        render_digest(&ScenarioConfig::test_small()),
        0x0496_a729_c936_dd09
    );
}

#[test]
#[ignore = "scale 600 is slow in a debug build; ci.sh runs it in release"]
fn scale_600_render_digest_is_pinned() {
    let config = ScenarioConfig {
        scale: 600.0,
        ..ScenarioConfig::default()
    };
    assert_eq!(render_digest(&config), 0x5e50_c774_25e2_eefa);
}
