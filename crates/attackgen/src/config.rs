//! Generator configuration: every distribution the ecosystem model uses,
//! calibrated against the paper's published numbers. The calibration
//! constants are data, not code — the fidelity harness tunes against the
//! paper by editing these tables only.

use crate::dist::AnchorDist;

/// Paper-scale totals (Table 1 and Section 4), used to derive scaled
/// budgets; the harness's comparison reads the Section 4 totals too.
pub mod paper {
    /// Telescope attack events over two years.
    pub const TELESCOPE_EVENTS: f64 = 12_470_000.0;
    /// Honeypot attack events over two years.
    pub const HONEYPOT_EVENTS: f64 = 8_430_000.0;
    /// Targets hit by overlapping (joint) attacks.
    pub const JOINT_TARGETS: f64 = 137_000.0;
    /// Targets seen in both data sets (overlapping or not).
    pub const COMMON_TARGETS: f64 = 282_000.0;
    /// Total Web sites in the measured namespace.
    pub const WEB_SITES: f64 = 210_000_000.0;
    /// Study window length in days.
    pub const DAYS: u32 = 731;
}

/// Top-level generator configuration.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// RNG seed; the whole ground truth is a function of the config.
    pub seed: u64,
    /// Days in the window.
    pub days: u32,
    /// Scale denominator: all paper totals are divided by this (2000 for
    /// the default harness run; tests use larger denominators).
    pub scale: f64,
    /// Fraction of telescope events aimed at Web-hosting IPs.
    pub telescope_web_fraction: f64,
    /// Fraction of honeypot events aimed at Web-hosting IPs.
    pub honeypot_web_fraction: f64,
    /// Repeat-count tail exponent for telescope targets (mean ≈ 5
    /// events/target) and honeypots (mean ≈ 2).
    pub telescope_repeat_alpha: f64,
    /// See [`GenConfig::telescope_repeat_alpha`].
    pub honeypot_repeat_alpha: f64,
    /// Probability that a honeypot target is drawn from earlier telescope
    /// targets (produces the "common but not simultaneous" population).
    pub cross_dataset_target_prob: f64,
    /// Probability that a triggered migration fires for an attacked,
    /// unprotected Web site (scaled further by intensity percentile).
    pub migration_base_prob: f64,
    /// Spontaneous (no observed attack) migration probability over the
    /// whole window.
    pub spontaneous_migration_prob: f64,
    /// Fraction of the paper's joint-target budget generated as scripted
    /// joint incidents; the remainder arises from accidental overlaps on
    /// popular targets, which the correlation measures as joint too.
    pub joint_scripted_fraction: f64,
    /// Largest co-hosting group whose members still make *individual*
    /// migration decisions; bigger groups only move via platform/hoster
    /// decisions (the paper: few migrating sites were hosted in large
    /// numbers).
    pub individual_migration_max_cohost: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            seed: 0xA77AC4,
            days: paper::DAYS,
            scale: 2_000.0,
            telescope_web_fraction: 0.30,
            honeypot_web_fraction: 0.22,
            telescope_repeat_alpha: 1.22,
            honeypot_repeat_alpha: 2.10,
            cross_dataset_target_prob: 0.035,
            migration_base_prob: 0.018,
            spontaneous_migration_prob: 0.033,
            joint_scripted_fraction: 0.60,
            individual_migration_max_cohost: 700,
        }
    }
}

impl GenConfig {
    /// Scaled telescope event budget.
    pub fn telescope_events(&self) -> u64 {
        (paper::TELESCOPE_EVENTS / self.scale).round().max(1.0) as u64
    }

    /// Scaled honeypot event budget.
    pub fn honeypot_events(&self) -> u64 {
        (paper::HONEYPOT_EVENTS / self.scale).round().max(1.0) as u64
    }

    /// Scaled joint-incident budget (each incident creates one event in
    /// each data set against the same target, overlapping in time).
    pub fn joint_incidents(&self) -> u64 {
        (paper::JOINT_TARGETS * self.joint_scripted_fraction / self.scale)
            .round()
            .max(1.0) as u64
    }
}

/// Telescope-side distribution calibration (Tables 5, 7, 8; Figures 2, 3).
pub struct TelescopeModel {
    /// Attack IP-protocol weights for generic (non-Web) targets
    /// [TCP, UDP, ICMP, Other]; chosen so that together with the Web
    /// portion the overall mix reproduces Table 5 (79.4/15.9/4.5/0.2).
    pub generic_proto_weights: [f64; 4],
    /// Protocol weights for Web-hosting targets: 93.4 % TCP (Section 5).
    pub web_proto_weights: [f64; 4],
    /// Probability a TCP/UDP attack targets a single port (0.587 so that
    /// Table 7's 60.6 % single-port holds once no-port ICMP events are
    /// counted with singles).
    pub single_port_prob: f64,
    /// Single-port probability for joint attacks (Section 4: 77.1 %).
    pub joint_single_port_prob: f64,
    /// Duration distribution: log-normal median 454 s, sigma 1.92,
    /// truncated at the 60 s detection threshold (Figure 2 top).
    pub duration_median: f64,
    /// See [`TelescopeModel::duration_median`].
    pub duration_sigma: f64,
    /// Observed max-pps intensity CDF (Figure 3): median 1, 70 % ≤ 2,
    /// mean ≈ 107.
    pub intensity: AnchorDist,
    /// Single-port service weights for TCP against generic targets:
    /// `(port, weight)`; the residual weight is spread over the whole port
    /// range.
    pub tcp_port_table: Vec<(u16, f64)>,
    /// Residual weight for "any other TCP port".
    pub tcp_port_other: f64,
    /// Single-port service weights for UDP (Table 8b: gaming ports).
    pub udp_port_table: Vec<(u16, f64)>,
    /// Residual weight for "any other UDP port".
    pub udp_port_other: f64,
    /// Web-target TCP port weights (87.6 % Web infrastructure ports).
    pub web_tcp_port_table: Vec<(u16, f64)>,
    /// Residual for Web targets.
    pub web_tcp_port_other: f64,
}

impl Default for TelescopeModel {
    fn default() -> Self {
        TelescopeModel {
            generic_proto_weights: [0.734, 0.206, 0.057, 0.003],
            web_proto_weights: [0.934, 0.050, 0.016, 0.000],
            single_port_prob: 0.587,
            joint_single_port_prob: 0.95,
            duration_median: 290.0,
            duration_sigma: 1.95,
            intensity: AnchorDist::new(&[
                (0.5, 0.0),
                (1.0, 0.50),
                (2.0, 0.70),
                (10.0, 0.83),
                (100.0, 0.96),
                (1_000.0, 0.9915),
                (10_000.0, 0.9985),
                (100_000.0, 1.0),
            ]),
            tcp_port_table: vec![
                (80, 0.400),
                (443, 0.170),
                (3306, 0.0115),
                (53, 0.0110),
                (1723, 0.0100),
                (22, 0.0080),
                (25, 0.0060),
                (8080, 0.0055),
            ],
            tcp_port_other: 0.378,
            udp_port_table: vec![
                (27015, 0.1854),
                (37547, 0.0204),
                (32124, 0.0141),
                (28183, 0.0139),
                (3306, 0.0130),
                (123, 0.0080),
                (138, 0.0070),
            ],
            udp_port_other: 0.7382,
            web_tcp_port_table: vec![(80, 0.616), (443, 0.260), (3306, 0.012), (22, 0.010)],
            web_tcp_port_other: 0.102,
        }
    }
}

/// Honeypot-side distribution calibration (Table 6; Figures 2, 4).
pub struct HoneypotModel {
    /// Reflector-protocol weights in [`dosscope_types::ReflectionProtocol::ALL`]
    /// order [NTP, DNS, CharGen, SSDP, RIPv1, MSSQL, TFTP, QOTD]
    /// (Table 6: 40.08/26.17/22.37/8.38/2.27 + 0.73 other).
    pub protocol_weights: [f64; 8],
    /// Protocol weights for Web-hosting targets (Section 5: NTP rises to
    /// 54.69 %).
    pub web_protocol_weights: [f64; 8],
    /// Protocol weights for joint attacks (Section 4: NTP 47 %, CharGen
    /// halves to 11.5 %).
    pub joint_protocol_weights: [f64; 8],
    /// Duration: log-normal median 255 s, sigma 1.70 (Figure 2 bottom).
    pub duration_median: f64,
    /// See [`HoneypotModel::duration_median`].
    pub duration_sigma: f64,
    /// Average request-rate CDF across the fleet (Figure 4 overall):
    /// median 77, mean ≈ 413.
    pub intensity: AnchorDist,
    /// Per-protocol intensity multipliers (Figure 4 per-protocol spread),
    /// same order as the weights.
    pub protocol_rate_factor: [f64; 8],
    /// How many of the 24 honeypots an attack's scan list includes, as an
    /// inclusive range.
    pub pots_per_attack: (u8, u8),
}

impl Default for HoneypotModel {
    fn default() -> Self {
        HoneypotModel {
            protocol_weights: [
                0.3596, 0.2790, 0.2473, 0.0849, 0.0221, 0.0040, 0.0020, 0.0013,
            ],
            web_protocol_weights: [
                0.5469, 0.2000, 0.1400, 0.0800, 0.0250, 0.0050, 0.0020, 0.0011,
            ],
            joint_protocol_weights: [
                0.4700, 0.3000, 0.1150, 0.0900, 0.0250, 0.0, 0.0, 0.0,
            ],
            duration_median: 255.0,
            duration_sigma: 1.70,
            intensity: AnchorDist::new(&[
                (0.3, 0.0),
                (1.0, 0.04),
                (10.0, 0.18),
                (77.0, 0.50),
                (413.0, 0.94),
                (3_000.0, 0.981),
                (30_000.0, 0.9995),
                (100_000.0, 1.0),
            ]),
            protocol_rate_factor: [1.35, 0.85, 1.00, 0.55, 0.40, 0.50, 0.45, 0.40],
            pots_per_attack: (3, 8),
        }
    }
}

/// Per-country target weights (Table 4); everything not listed shares the
/// residual proportionally to address-space usage.
pub struct CountryTargets {
    /// `(country, weight)` for the telescope data set.
    pub telescope: Vec<(&'static str, f64)>,
    /// `(country, weight)` for the honeypot data set.
    pub honeypot: Vec<(&'static str, f64)>,
    /// `(country, weight)` for joint-attack targets (Section 4).
    pub joint: Vec<(&'static str, f64)>,
}

impl Default for CountryTargets {
    fn default() -> Self {
        CountryTargets {
            // Table 4a; JP forced low (rank ~25 despite high usage).
            telescope: vec![
                ("US", 0.1150),
                ("CN", 0.1500),
                ("RU", 0.0560),
                ("FR", 0.0380),
                ("DE", 0.0330),
                ("GB", 0.0330),
                ("BR", 0.0330),
                ("CA", 0.0260),
                ("KR", 0.0240),
                ("IT", 0.0220),
                ("NL", 0.0210),
                ("JP", 0.0070),
            ],
            // Table 4b; JP ranks ~14th here.
            honeypot: vec![
                ("US", 0.2200),
                ("CN", 0.1250),
                ("FR", 0.0640),
                ("GB", 0.0580),
                ("DE", 0.0450),
                ("RU", 0.0380),
                ("BR", 0.0300),
                ("CA", 0.0270),
                ("NL", 0.0240),
                ("KR", 0.0220),
                ("IT", 0.0200),
                ("JP", 0.0150),
            ],
            // Joint attacks: US 24.4, CN 20.4, FR 9.5, DE 6.5, RU 4.1.
            joint: vec![
                ("US", 0.244),
                ("CN", 0.204),
                ("FR", 0.095),
                ("DE", 0.065),
                ("RU", 0.041),
                ("GB", 0.035),
            ],
        }
    }
}

/// Joint-attack AS biases (Section 4: OVH 12.3 %, China Telecom 5.4 %,
/// China Unicom 3.1 % of joint targets).
pub struct JointAsBias {
    /// `(org name in the registry, probability)`.
    pub targets: Vec<(&'static str, f64)>,
}

impl Default for JointAsBias {
    fn default() -> Self {
        JointAsBias {
            targets: vec![
                ("OVH", 0.123),
                ("China Telecom", 0.054),
                ("China Unicom", 0.031),
            ],
        }
    }
}

/// The full calibration bundle.
#[derive(Default)]
pub struct Calibration {
    /// Telescope-side distributions.
    pub telescope: TelescopeModel,
    /// Honeypot-side distributions.
    pub honeypot: HoneypotModel,
    /// Country target weights.
    pub countries: CountryTargets,
    /// Joint-attack AS bias.
    pub joint_as: JointAsBias,
}


#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_budgets() {
        let c = GenConfig::default();
        assert_eq!(c.telescope_events(), 6_235);
        assert_eq!(c.honeypot_events(), 4_215);
        // 137k × 0.6 scripted fraction / 2000 ≈ 41.
        assert_eq!(c.joint_incidents(), 41);
        let tiny = GenConfig {
            scale: 1e12,
            ..GenConfig::default()
        };
        assert_eq!(tiny.telescope_events(), 1, "budgets never hit zero");
    }

    #[test]
    fn telescope_intensity_calibration() {
        let m = TelescopeModel::default();
        // Median 1, P(<=2) = 0.70, mean ≈ 107 (Figure 3).
        assert!((m.intensity.quantile(0.5) - 1.0).abs() < 1e-9);
        assert!((m.intensity.cdf(2.0) - 0.70).abs() < 1e-9);
        let mean = m.intensity.mean();
        assert!((80.0..140.0).contains(&mean), "mean ≈ 107, got {mean}");
    }

    #[test]
    fn honeypot_intensity_calibration() {
        let m = HoneypotModel::default();
        assert!((m.intensity.quantile(0.5) - 77.0).abs() < 1e-9);
        let mean = m.intensity.mean();
        assert!((330.0..500.0).contains(&mean), "mean ≈ 413, got {mean}");
    }

    #[test]
    fn protocol_weights_sum_to_one() {
        let t = TelescopeModel::default();
        for w in [&t.generic_proto_weights, &t.web_proto_weights] {
            let s: f64 = w.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "{w:?}");
        }
        let h = HoneypotModel::default();
        for w in [
            &h.protocol_weights,
            &h.web_protocol_weights,
            &h.joint_protocol_weights,
        ] {
            let s: f64 = w.iter().sum();
            assert!((s - 1.0).abs() < 1e-3, "{w:?} sums to {s}");
        }
    }

    #[test]
    fn port_tables_sum_to_one() {
        let t = TelescopeModel::default();
        let tcp: f64 = t.tcp_port_table.iter().map(|(_, w)| w).sum::<f64>() + t.tcp_port_other;
        assert!((tcp - 1.0).abs() < 1e-6, "tcp table sums to {tcp}");
        let udp: f64 = t.udp_port_table.iter().map(|(_, w)| w).sum::<f64>() + t.udp_port_other;
        assert!((udp - 1.0).abs() < 1e-6, "udp table sums to {udp}");
        let web: f64 =
            t.web_tcp_port_table.iter().map(|(_, w)| w).sum::<f64>() + t.web_tcp_port_other;
        assert!((web - 1.0).abs() < 1e-6, "web table sums to {web}");
    }

    #[test]
    fn overall_proto_mix_reproduces_table5() {
        // telescope_web_fraction * web + (1-f) * generic ≈ 79.4/15.9/4.5/0.2
        let g = GenConfig::default();
        let t = TelescopeModel::default();
        let f = g.telescope_web_fraction;
        let expect = [0.794, 0.159, 0.045, 0.002];
        for (i, want) in expect.into_iter().enumerate() {
            let mix = f * t.web_proto_weights[i] + (1.0 - f) * t.generic_proto_weights[i];
            assert!((mix - want).abs() < 0.01, "proto {i}: {mix} vs {want}");
        }
    }
}
