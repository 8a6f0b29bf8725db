//! Rendering ground truth into byte-level observations.
//!
//! The renderer walks one day at a time (the harness feeds days in order)
//! and produces, for every ground-truth attack active on that day:
//!
//! * **telescope side** — backscatter [`PacketBatch`]es: per wall-clock
//!   minute of the attack, the victim's responses that landed in the
//!   darknet, with one minute designated as the attack's peak (realising
//!   exactly the generated peak rate, so the Moore et al. max-pps
//!   statistic recovers the calibrated intensity distribution);
//! * **honeypot side** — spoofed [`RequestBatch`]es to each honeypot on
//!   the attacker's reflector list, at the generated average rate.
//!
//! All packets are built through `dosscope-wire` and re-parsed by the
//! observers, so the byte path is exercised end to end. Rendering is
//! deterministic per (seed, day): each attack-day derives its own RNG.

use crate::model::{GroundTruth, GtKind, GtPorts};
use dosscope_amppot::{HoneypotId, RequestBatch};
use dosscope_telescope::{PacketBatch, Telescope};
use dosscope_types::{DayIndex, SharedBytes, SimTime, TimeRange, TransportProto, SECS_PER_MINUTE};
use dosscope_wire::builder;
use dosscope_wire::IpProtocol;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;

/// Day-by-day observation renderer.
pub struct Renderer<'a> {
    truth: &'a GroundTruth,
    telescope: Telescope,
    honeypot_addrs: Vec<Ipv4Addr>,
    seed: u64,
    /// Attack indices active per day.
    day_index: Vec<Vec<u32>>,
}

impl<'a> Renderer<'a> {
    /// Build a renderer for a ground truth, a darknet and the fleet's
    /// addresses.
    pub fn new(
        truth: &'a GroundTruth,
        telescope: Telescope,
        honeypot_addrs: Vec<Ipv4Addr>,
        seed: u64,
        days: u32,
    ) -> Renderer<'a> {
        let mut day_index = vec![Vec::new(); days as usize];
        for (i, a) in truth.attacks.iter().enumerate() {
            for d in a.window.days() {
                if let Some(list) = day_index.get_mut(d.0 as usize) {
                    list.push(i as u32);
                }
            }
        }
        Renderer {
            truth,
            telescope,
            honeypot_addrs,
            seed,
            day_index,
        }
    }

    fn attack_rng(&self, attack_idx: u32, day: DayIndex) -> SmallRng {
        SmallRng::seed_from_u64(
            self.seed ^ (attack_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (day.0 as u64) << 40,
        )
    }

    /// Render all backscatter batches for `day`, sorted by timestamp.
    ///
    /// Every packet of the day is written into one arena, frozen into a
    /// single [`SharedBytes`] buffer; each batch views its packet in it.
    /// Packet bytes thus cost one shared buffer per day (plus the arena's
    /// amortised growth), not an allocation per batch.
    pub fn telescope_day(&self, day: DayIndex) -> Vec<PacketBatch> {
        let Some(indices) = self.day_index.get(day.0 as usize) else {
            return Vec::new();
        };
        // Rough reservation: a short attack emits a handful of batches;
        // marathon ones grow the vectors a few times — still far fewer
        // reallocations than starting empty.
        let mut day_out = DayArena::with_batches(indices.len() * 16);
        for &idx in indices {
            let attack = &self.truth.attacks[idx as usize];
            if let GtKind::RandomSpoofed {
                proto,
                ports,
                peak_pps,
            } = &attack.kind
            {
                let mut rng = self.attack_rng(idx, day);
                self.render_backscatter(
                    &mut day_out,
                    &mut rng,
                    attack.target,
                    attack.window,
                    day,
                    *proto,
                    ports,
                    *peak_pps,
                );
            }
        }
        day_out.freeze()
    }

    /// The wall minute designated as the attack's peak: the first minute
    /// fully contained in the window, or the start minute for very short
    /// attacks. Stable across days.
    fn peak_minute(window: TimeRange) -> u64 {
        let first_full = window.start.secs().div_ceil(SECS_PER_MINUTE);
        if (first_full + 1) * SECS_PER_MINUTE <= window.end.secs() {
            first_full
        } else {
            window.start.minute()
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn render_backscatter(
        &self,
        out: &mut DayArena,
        rng: &mut SmallRng,
        victim: Ipv4Addr,
        window: TimeRange,
        day: DayIndex,
        proto: TransportProto,
        ports: &GtPorts,
        peak_pps: f64,
    ) {
        let day_range = TimeRange::new(day.start(), day.end());
        let Some(active) = window.intersect(&day_range) else {
            return;
        };
        let peak_minute = Self::peak_minute(window);
        let first_minute = active.start.minute();
        let last_minute = (active.end.secs() - 1) / SECS_PER_MINUTE;
        for minute in first_minute..=last_minute {
            let m_start = minute * SECS_PER_MINUTE;
            let m_end = m_start + SECS_PER_MINUTE;
            let overlap_start = m_start.max(active.start.secs());
            let overlap_end = m_end.min(active.end.secs());
            let overlap = overlap_end.saturating_sub(overlap_start);
            if overlap == 0 {
                continue;
            }
            let packets = if minute == peak_minute {
                // The peak minute realises the full generated rate
                // regardless of overlap, anchoring the observed max-pps.
                (peak_pps * SECS_PER_MINUTE as f64).round() as u64
            } else {
                let factor = rng.gen_range(0.45..0.85);
                probabilistic_round(rng, peak_pps * factor * overlap as f64)
            };
            if packets == 0 {
                continue;
            }
            // Split the minute's packets into up to three batches at
            // distinct seconds, each with its own spoofed darknet address.
            let n_batches = match packets {
                1..=2 => 1,
                3..=50 => 2,
                _ => 3,
            };
            let mut remaining = packets;
            for b in 0..n_batches {
                let count = if b == n_batches - 1 {
                    remaining
                } else {
                    (remaining / (n_batches - b) as u64).max(1)
                };
                remaining -= count;
                // Pin the stream to the event's true endpoints so the
                // detector recovers the generated duration (otherwise the
                // measured duration systematically undershoots and events
                // near the 60 s threshold get filtered).
                let ts = if b == 0 && overlap_start == window.start.secs() {
                    SimTime(overlap_start)
                } else if b == n_batches - 1 && overlap_end == window.end.secs() {
                    SimTime(overlap_end - 1)
                } else {
                    SimTime(overlap_start + rng.gen_range(0..overlap.max(1)))
                };
                let spoofed = self.random_darknet_addr(rng);
                let port = match ports {
                    GtPorts::Single(p) => *p,
                    GtPorts::Multi(list) => list[rng.gen_range(0..list.len())],
                    GtPorts::None => 0,
                };
                let buf = &mut out.scratch;
                match proto {
                    TransportProto::Tcp => {
                        if rng.gen_bool(0.75) {
                            builder::tcp_syn_ack_into(
                                buf,
                                victim,
                                port,
                                spoofed,
                                rng.gen(),
                                rng.gen(),
                            )
                        } else {
                            builder::tcp_rst_into(buf, victim, port, spoofed, rng.gen(), rng.gen())
                        }
                    }
                    TransportProto::Udp => builder::icmp_dest_unreachable_into(
                        buf,
                        victim,
                        spoofed,
                        IpProtocol::Udp,
                        rng.gen_range(1024..65535),
                        port,
                        3,
                    ),
                    TransportProto::Icmp => {
                        builder::icmp_echo_reply_into(buf, victim, spoofed, rng.gen(), rng.gen())
                    }
                    TransportProto::Other => builder::icmp_dest_unreachable_into(
                        buf,
                        victim,
                        spoofed,
                        IpProtocol::Igmp,
                        0,
                        0,
                        2,
                    ),
                }
                out.push_scratch(ts, count as u32);
                if remaining == 0 {
                    break;
                }
            }
        }
    }

    fn random_darknet_addr(&self, rng: &mut SmallRng) -> Ipv4Addr {
        let prefix = self.telescope.prefix();
        prefix.addr_at(rng.gen_range(0..prefix.size()))
    }

    /// Render all honeypot request batches for `day`, sorted by timestamp.
    pub fn honeypot_day(&self, day: DayIndex) -> Vec<RequestBatch> {
        let Some(indices) = self.day_index.get(day.0 as usize) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(indices.len() * 16);
        for &idx in indices {
            let attack = &self.truth.attacks[idx as usize];
            if let GtKind::Reflection {
                protocol,
                fleet_rate,
                pots,
            } = &attack.kind
            {
                let mut rng = self.attack_rng(idx, day);
                self.render_requests(
                    &mut out,
                    &mut rng,
                    attack.target,
                    attack.window,
                    day,
                    *protocol,
                    *fleet_rate,
                    pots,
                );
            }
        }
        out.sort_by_key(|b| b.ts);
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn render_requests(
        &self,
        out: &mut Vec<RequestBatch>,
        rng: &mut SmallRng,
        victim: Ipv4Addr,
        window: TimeRange,
        day: DayIndex,
        protocol: dosscope_types::ReflectionProtocol,
        fleet_rate: f64,
        pots: &[u8],
    ) {
        let day_range = TimeRange::new(day.start(), day.end());
        let Some(active) = window.intersect(&day_range) else {
            return;
        };
        let per_pot_rate = fleet_rate / pots.len().max(1) as f64;
        // One representative request per (attack-day, pot): the spoofed
        // source is the victim and the payload is protocol-fixed, so all
        // of a pot's batches today can share one encoded packet. The
        // source port is drawn per batch regardless (the RNG stream is
        // pinned by the determinism and golden tests) but only the first
        // draw is rendered; the fleet never reads the source port.
        let mut representatives: Vec<Option<SharedBytes>> = vec![None; pots.len()];
        let whole_event_today = day_range.start <= window.start && window.end <= day_range.end;
        let mut emitted_today = 0u64;
        let first_minute = active.start.minute();
        let last_minute = (active.end.secs() - 1) / SECS_PER_MINUTE;
        let mut last_batch: Option<usize> = None;
        for minute in first_minute..=last_minute {
            let m_start = minute * SECS_PER_MINUTE;
            let m_end = m_start + SECS_PER_MINUTE;
            let overlap_start = m_start.max(active.start.secs());
            let overlap_end = m_end.min(active.end.secs());
            let overlap = overlap_end.saturating_sub(overlap_start);
            if overlap == 0 {
                continue;
            }
            for (pi, &pot) in pots.iter().enumerate() {
                let jitter = rng.gen_range(0.7..1.3);
                let count = probabilistic_round(rng, per_pot_rate * overlap as f64 * jitter);
                if count == 0 {
                    continue;
                }
                // Pin the first pot's stream to the event endpoints (same
                // rationale as the telescope side).
                let ts = if pi == 0 && overlap_start == window.start.secs() {
                    SimTime(overlap_start)
                } else if pi == 0 && overlap_end == window.end.secs() {
                    SimTime(overlap_end - 1)
                } else {
                    SimTime(overlap_start + rng.gen_range(0..overlap.max(1)))
                };
                let pot_addr = self.honeypot_addrs[pot as usize % self.honeypot_addrs.len()];
                let src_port = rng.gen_range(1024..65535);
                let bytes = match &representatives[pi] {
                    Some(b) => b.clone(),
                    None => {
                        let b = SharedBytes::from(builder::reflection_request(
                            victim, src_port, pot_addr, protocol,
                        ));
                        representatives[pi] = Some(b.clone());
                        b
                    }
                };
                out.push(RequestBatch::repeated(
                    HoneypotId(pot),
                    ts,
                    count as u32,
                    bytes,
                ));
                emitted_today += count;
                last_batch = Some(out.len() - 1);
            }
        }
        // Same-day events must clear the 100-request scan filter the
        // generator budgeted for; jitter can undershoot on marginal
        // events, so top up the last batch.
        if whole_event_today && emitted_today > 0 && emitted_today <= 105 {
            if let Some(i) = last_batch {
                out[i].count += (106 - emitted_today) as u32;
            }
        }
    }
}

/// One day's backscatter under construction: each packet is built in
/// `scratch` and appended to `bytes`, and `batches` records where it
/// landed. [`DayArena::freeze`] turns the arena into one shared buffer.
struct DayArena {
    scratch: Vec<u8>,
    bytes: Vec<u8>,
    /// (timestamp, repeat count, start, end) per batch, in render order.
    batches: Vec<(SimTime, u32, u32, u32)>,
}

impl DayArena {
    fn with_batches(batches: usize) -> DayArena {
        DayArena {
            scratch: Vec::new(),
            // Backscatter packets are 40–56 bytes.
            bytes: Vec::with_capacity(batches * 48),
            batches: Vec::with_capacity(batches),
        }
    }

    /// Append the packet in `scratch` as one batch.
    fn push_scratch(&mut self, ts: SimTime, count: u32) {
        let start = self.bytes.len() as u32;
        self.bytes.extend_from_slice(&self.scratch);
        self.batches.push((ts, count, start, self.bytes.len() as u32));
    }

    /// Freeze the arena into one buffer and hand every batch a view of
    /// it, sorted by timestamp (stable, so ties keep render order).
    fn freeze(mut self) -> Vec<PacketBatch> {
        self.batches.sort_by_key(|b| b.0);
        let arena = SharedBytes::new(self.bytes);
        self.batches
            .into_iter()
            .map(|(ts, count, start, end)| {
                PacketBatch::repeated(ts, count, arena.slice(start as usize..end as usize))
            })
            .collect()
    }
}

/// Round `x` to an integer such that the expectation equals `x` (floor,
/// plus one with probability frac(x)); keeps sparse low-rate streams
/// unbiased.
fn probabilistic_round(rng: &mut SmallRng, x: f64) -> u64 {
    let base = x.floor();
    let frac = x - base;
    base as u64 + u64::from(rng.gen_bool(frac.clamp(0.0, 1.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Episode, GtAttack};
    use dosscope_types::{ReflectionProtocol, TimeRange};

    fn truth_with(attacks: Vec<GtAttack>) -> GroundTruth {
        GroundTruth {
            attacks,
            episodes: crate::model::EpisodeLog {
                wix_attack_day: DayIndex(0),
                enom_attack_day: DayIndex(0),
                marquee_days: [DayIndex(0); 4],
            },
        }
    }

    fn fleet_addrs() -> Vec<Ipv4Addr> {
        (0..24).map(|i| Ipv4Addr::new(198, 18, i, 53)).collect()
    }

    fn tele_attack(start: u64, dur: u64, peak: f64) -> GtAttack {
        GtAttack {
            target: "203.0.113.8".parse().unwrap(),
            window: TimeRange::with_duration(SimTime(start), dur),
            kind: GtKind::RandomSpoofed {
                proto: TransportProto::Tcp,
                ports: GtPorts::Single(80),
                peak_pps: peak,
            },
            joint_id: None,
            episode: Episode::Background,
        }
    }

    fn hp_attack(start: u64, dur: u64, rate: f64) -> GtAttack {
        GtAttack {
            target: "203.0.113.8".parse().unwrap(),
            window: TimeRange::with_duration(SimTime(start), dur),
            kind: GtKind::Reflection {
                protocol: ReflectionProtocol::Ntp,
                fleet_rate: rate,
                pots: vec![0, 1, 2, 3],
            },
            joint_id: None,
            episode: Episode::Background,
        }
    }

    #[test]
    fn telescope_rendering_realises_peak_rate() {
        let truth = truth_with(vec![tele_attack(1000, 600, 4.0)]);
        let r = Renderer::new(&truth, Telescope::default_slash8(), fleet_addrs(), 7, 2);
        let batches = r.telescope_day(DayIndex(0));
        assert!(!batches.is_empty());
        // Find per-minute totals; the peak minute must carry 240 packets.
        let mut per_minute = std::collections::HashMap::new();
        for b in &batches {
            *per_minute.entry(b.ts.minute()).or_insert(0u64) += b.count as u64;
        }
        let max = per_minute.values().max().copied().unwrap();
        assert_eq!(max, 240, "peak minute realises 4 pps × 60 s");
        // Batches are time-sorted.
        assert!(batches.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    fn telescope_rendering_detectable_end_to_end() {
        use dosscope_telescope::{run_rsdos, RsdosDetector};
        let truth = truth_with(vec![tele_attack(5000, 300, 2.0)]);
        let r = Renderer::new(&truth, Telescope::default_slash8(), fleet_addrs(), 7, 2);
        let batches = r.telescope_day(DayIndex(0));
        let detector = RsdosDetector::with_defaults(Telescope::default_slash8());
        let (events, _) = run_rsdos(detector, batches);
        assert_eq!(events.len(), 1, "rendered attack is detected");
        let e = &events[0];
        assert_eq!(e.target, "203.0.113.8".parse::<Ipv4Addr>().unwrap());
        assert!(
            (e.intensity_pps - 2.0).abs() < 0.5,
            "recovered intensity ≈ 2 pps, got {}",
            e.intensity_pps
        );
        assert!(e.duration_secs() >= 240, "duration ≈ 300 s");
    }

    #[test]
    fn honeypot_rendering_detectable_end_to_end() {
        use dosscope_amppot::AmpPotFleet;
        let truth = truth_with(vec![hp_attack(2000, 400, 2.0)]);
        let r = Renderer::new(&truth, Telescope::default_slash8(), fleet_addrs(), 7, 2);
        let batches = r.honeypot_day(DayIndex(0));
        assert!(!batches.is_empty());
        let mut fleet = AmpPotFleet::standard();
        for b in &batches {
            fleet.ingest(b);
        }
        let (events, _) = fleet.finish();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].reflection_protocol(),
            Some(ReflectionProtocol::Ntp)
        );
        // ~800 requests over ~400 s.
        assert!(events[0].packets > 500, "got {}", events[0].packets);
    }

    #[test]
    fn marginal_event_tops_up_past_scan_filter() {
        // 0.3 req/s × 400 s = 120 expected, easily jittered below 100
        // without the top-up.
        for seed in 0..10 {
            let truth = truth_with(vec![hp_attack(2000, 400, 0.3)]);
            let r = Renderer::new(&truth, Telescope::default_slash8(), fleet_addrs(), seed, 2);
            let total: u64 = r
                .honeypot_day(DayIndex(0))
                .iter()
                .map(|b| b.count as u64)
                .sum();
            assert!(total > 100, "seed {seed}: total {total} <= 100");
        }
    }

    #[test]
    fn cross_day_event_renders_on_both_days() {
        let start = 86_400 - 600;
        let truth = truth_with(vec![tele_attack(start, 1200, 2.0)]);
        let r = Renderer::new(&truth, Telescope::default_slash8(), fleet_addrs(), 7, 3);
        let d0 = r.telescope_day(DayIndex(0));
        let d1 = r.telescope_day(DayIndex(1));
        assert!(!d0.is_empty() && !d1.is_empty());
        assert!(d0.iter().all(|b| b.ts.day() == DayIndex(0)));
        assert!(d1.iter().all(|b| b.ts.day() == DayIndex(1)));
        // Continuity: no gap > 300 s at the boundary (would split flows).
        let last0 = d0.iter().map(|b| b.ts.secs()).max().unwrap();
        let first1 = d1.iter().map(|b| b.ts.secs()).min().unwrap();
        assert!(first1 - last0 < 300, "gap {} too long", first1 - last0);
    }

    #[test]
    fn rendering_is_deterministic() {
        let truth = truth_with(vec![tele_attack(1000, 600, 4.0), hp_attack(2000, 400, 2.0)]);
        let r1 = Renderer::new(&truth, Telescope::default_slash8(), fleet_addrs(), 7, 2);
        let r2 = Renderer::new(&truth, Telescope::default_slash8(), fleet_addrs(), 7, 2);
        assert_eq!(r1.telescope_day(DayIndex(0)), r2.telescope_day(DayIndex(0)));
        assert_eq!(r1.honeypot_day(DayIndex(0)), r2.honeypot_day(DayIndex(0)));
    }

    #[test]
    fn backscatter_goes_into_darknet_only() {
        let truth = truth_with(vec![tele_attack(1000, 600, 4.0)]);
        let t = Telescope::default_slash8();
        let r = Renderer::new(&truth, t, fleet_addrs(), 7, 2);
        for b in r.telescope_day(DayIndex(0)) {
            let ip = dosscope_wire::Ipv4Packet::new_checked(b.bytes.as_slice()).unwrap();
            assert!(t.observes(ip.dst()), "{} outside the darknet", ip.dst());
        }
    }

    #[test]
    fn request_representatives_are_shared_per_pot() {
        let truth = truth_with(vec![hp_attack(2000, 3000, 2.0)]);
        let r = Renderer::new(&truth, Telescope::default_slash8(), fleet_addrs(), 7, 2);
        let batches = r.honeypot_day(DayIndex(0));
        let mut per_pot = std::collections::HashMap::new();
        for b in &batches {
            per_pot.entry(b.honeypot).or_insert_with(Vec::new).push(b);
        }
        for (_, list) in per_pot {
            assert!(list.len() > 1, "long attack yields many batches per pot");
            let first = list[0].bytes.as_slice().as_ptr();
            assert!(
                list.iter().all(|b| b.bytes.as_slice().as_ptr() == first),
                "all of a pot's batches share one representative allocation"
            );
        }
    }

    /// The telescope counterpart of the test above: every batch of a day
    /// views one arena, so the day's packets tile a single buffer end to
    /// end, whatever the attacks and protocols rendered that day.
    #[test]
    fn telescope_batches_view_one_day_arena() {
        let mut udp = tele_attack(4000, 2400, 30.0);
        udp.target = "198.51.100.7".parse().unwrap();
        udp.kind = GtKind::RandomSpoofed {
            proto: TransportProto::Udp,
            ports: GtPorts::Multi(vec![53, 123]),
            peak_pps: 30.0,
        };
        let truth = truth_with(vec![tele_attack(1000, 3000, 4.0), udp]);
        let r = Renderer::new(&truth, Telescope::default_slash8(), fleet_addrs(), 7, 2);
        let batches = r.telescope_day(DayIndex(0));
        assert!(batches.len() > 100, "two long attacks yield many batches");
        let mut spans: Vec<(usize, usize)> = batches
            .iter()
            .map(|b| {
                let s = b.bytes.as_slice();
                (s.as_ptr() as usize, s.len())
            })
            .collect();
        spans.sort_unstable();
        assert!(
            spans.windows(2).all(|w| w[0].0 + w[0].1 == w[1].0),
            "batch bytes tile one contiguous buffer"
        );
    }

    #[test]
    fn probabilistic_round_unbiased() {
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| probabilistic_round(&mut rng, 0.3)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 0.3).abs() < 0.02, "mean {mean}");
    }
}
