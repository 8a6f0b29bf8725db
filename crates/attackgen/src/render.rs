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
//!
//! Each side appends a day's packets straight into one arena, frozen into
//! a single shared buffer, and puts the day in timestamp order (ties in
//! render order) with a linear-time radix sort.

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

    /// The darknet the backscatter is rendered into.
    pub fn telescope(&self) -> Telescope {
        self.telescope
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
        // reallocations than starting empty. Backscatter packets are 40–56
        // bytes.
        let mut day_out = DayArena::with_capacity(indices.len() * 16, indices.len() * 16 * 48);
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
        day_out.freeze(|ts, count, (), packet| PacketBatch::repeated(ts, count, packet))
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
        out: &mut DayArena<()>,
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
                let packet = out.append(|buf| match proto {
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
                });
                out.push(ts, count as u32, (), packet);
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
        // At `--scale 600 --days 120` representatives came to about 105
        // bytes per attack active that day; reserving 256 spares nearly
        // every day the arena's doubling chain, which fragments the heap
        // (about 5 MiB of peak RSS in that run).
        let mut out = DayArena::with_capacity(indices.len() * 16, indices.len() * 256);
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
        out.freeze(|ts, count, pot, packet| RequestBatch::repeated(pot, ts, count, packet))
    }

    #[allow(clippy::too_many_arguments)]
    fn render_requests(
        &self,
        out: &mut DayArena<HoneypotId>,
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
        // draw is rendered; the fleet never reads the source port. Each
        // slot holds the byte range of the pot's representative in `out`.
        let mut representatives: Vec<Option<(u32, u32)>> = vec![None; pots.len()];
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
                let src_port = rng.gen_range(1024..65535);
                let rep = *representatives[pi].get_or_insert_with(|| {
                    let pot_addr = self.honeypot_addrs[pot as usize % self.honeypot_addrs.len()];
                    out.append(|buf| {
                        builder::reflection_request_into(buf, victim, src_port, pot_addr, protocol)
                    })
                });
                out.push(ts, count as u32, HoneypotId(pot), rep);
                emitted_today += count;
                last_batch = Some(out.batches.len() - 1);
            }
        }
        // Same-day events must clear the 100-request scan filter the
        // generator budgeted for; jitter can undershoot on marginal
        // events, so top up the last batch.
        if whole_event_today && emitted_today > 0 && emitted_today <= 105 {
            if let Some(i) = last_batch {
                out.batches[i].1 += (106 - emitted_today) as u32;
            }
        }
    }
}

/// One day of either stream under construction: the packet builders
/// append straight to `bytes`, and `batches` records, per batch, the byte
/// range of its packet (several batches may view one packet).
/// [`DayArena::freeze`] turns the arena into one shared buffer.
struct DayArena<Tag> {
    bytes: Vec<u8>,
    /// (timestamp, repeat count, tag, start, end) per batch, in render
    /// order.
    batches: Vec<(SimTime, u32, Tag, u32, u32)>,
}

impl<Tag: Copy> DayArena<Tag> {
    fn with_capacity(batches: usize, bytes: usize) -> DayArena<Tag> {
        DayArena {
            bytes: Vec::with_capacity(bytes),
            batches: Vec::with_capacity(batches),
        }
    }

    /// Append one packet with `build`; returns its byte range.
    fn append(&mut self, build: impl FnOnce(&mut Vec<u8>)) -> (u32, u32) {
        let start = self.bytes.len() as u32;
        build(&mut self.bytes);
        (start, self.bytes.len() as u32)
    }

    /// Record one batch viewing the packet at `(start, end)`.
    fn push(&mut self, ts: SimTime, count: u32, tag: Tag, (start, end): (u32, u32)) {
        self.batches.push((ts, count, tag, start, end));
    }

    /// Freeze the arena into one buffer and build every batch from its
    /// record and a view of its packet, sorted by timestamp (ties keep
    /// render order).
    fn freeze<B>(self, batch: impl Fn(SimTime, u32, Tag, SharedBytes) -> B) -> Vec<B> {
        let arena = SharedBytes::new(self.bytes);
        ts_order(self.batches, |b| b.0)
            .iter()
            .map(|&(ts, count, tag, start, end)| {
                batch(ts, count, tag, arena.slice(start as usize..end as usize))
            })
            .collect()
    }
}

/// Bits per radix digit in [`ts_order`]: a day's span (< 2^17 s) takes
/// two counting passes, and the guard's limit (2^32 s) three.
const RADIX_BITS: u32 = 11;
const RADIX: usize = 1 << RADIX_BITS;

/// `items` sorted by timestamp, ties in input order: a least-significant-
/// digit radix sort over each item's offset from the earliest timestamp,
/// so linear in the number of items. Every pass is a stable counting
/// sort, so the result equals a stable comparison sort by timestamp. The
/// passes alternate between `items` and one scratch copy of it.
fn ts_order<T: Copy>(items: Vec<T>, ts: impl Fn(&T) -> SimTime) -> Vec<T> {
    let first = items.iter().map(&ts).min().unwrap_or_default();
    let offset = |item: &T| ts(item).0 - first.0;
    let span = items
        .iter()
        .map(|item| u32::try_from(offset(item)).expect("batch times span < 2^32 s"))
        .max()
        .unwrap_or(0);
    let mut sorted = items;
    let mut scratch = sorted.clone();
    let mut shift = 0;
    while shift < 32 && span >> shift != 0 {
        let digit = |item: &T| (offset(item) >> shift) as usize & (RADIX - 1);
        let mut starts = [0usize; RADIX];
        for item in &sorted {
            starts[digit(item)] += 1;
        }
        let mut next = 0;
        for slot in starts.iter_mut() {
            let n = *slot;
            *slot = next;
            next += n;
        }
        for item in &sorted {
            let slot = &mut starts[digit(item)];
            scratch[*slot] = *item;
            *slot += 1;
        }
        std::mem::swap(&mut sorted, &mut scratch);
        shift += RADIX_BITS;
    }
    sorted
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

    /// The (address, length) of the bytes each batch views, sorted.
    fn spans(batches: impl Iterator<Item = SharedBytes>) -> Vec<(usize, usize)> {
        let mut spans: Vec<(usize, usize)> = batches
            .map(|b| {
                let s = b.as_slice();
                (s.as_ptr() as usize, s.len())
            })
            .collect();
        spans.sort_unstable();
        spans
    }

    /// The spans tile one contiguous buffer end to end; a span seen
    /// twice breaks the tiling.
    fn assert_one_buffer(spans: &[(usize, usize)]) {
        assert!(
            spans.windows(2).all(|w| w[0].0 + w[0].1 == w[1].0),
            "batch bytes tile one contiguous buffer"
        );
    }

    /// Both sides render a day into one arena: the day's packets tile a
    /// single buffer, whatever the attacks and protocols rendered that
    /// day (on the honeypot side, one representative per attack and pot).
    #[test]
    fn telescope_batches_view_one_day_arena() {
        let mut udp = tele_attack(4000, 2400, 30.0);
        udp.target = "198.51.100.7".parse().unwrap();
        udp.kind = GtKind::RandomSpoofed {
            proto: TransportProto::Udp,
            ports: GtPorts::Multi(vec![53, 123]),
            peak_pps: 30.0,
        };
        let mut dns = hp_attack(1500, 3000, 2.0);
        dns.target = "198.51.100.9".parse().unwrap();
        dns.kind = GtKind::Reflection {
            protocol: ReflectionProtocol::Dns,
            fleet_rate: 2.0,
            pots: vec![5, 6],
        };
        let truth = truth_with(vec![
            tele_attack(1000, 3000, 4.0),
            udp,
            hp_attack(2000, 3000, 2.0),
            dns,
        ]);
        let r = Renderer::new(&truth, Telescope::default_slash8(), fleet_addrs(), 7, 2);
        let batches = r.telescope_day(DayIndex(0));
        assert!(batches.len() > 100, "two long attacks yield many batches");
        assert_one_buffer(&spans(batches.into_iter().map(|b| b.bytes)));
        // A pot's batches share their attack's representative.
        let requests = r.honeypot_day(DayIndex(0));
        let mut packets = spans(requests.into_iter().map(|b| b.bytes));
        packets.dedup();
        assert_eq!(packets.len(), 6, "one representative per attack and pot");
        assert_one_buffer(&packets);
    }

    /// Timestamps of a hand-built day: 300 batches over five seconds,
    /// out of order, so every second holds a long run of ties.
    fn tied_times() -> Vec<SimTime> {
        (0..300u64).map(|i| SimTime(86_400 + (i * 7) % 5)).collect()
    }

    #[test]
    fn day_arena_freeze_keeps_render_order_on_ties() {
        let mut arena = DayArena::with_capacity(0, 0);
        let mut reference = Vec::new();
        for (i, ts) in tied_times().into_iter().enumerate() {
            let packet = (i as u16).to_be_bytes();
            let range = arena.append(|buf| buf.extend_from_slice(&packet));
            arena.push(ts, i as u32 + 1, (), range);
            reference.push(PacketBatch::repeated(
                ts,
                i as u32 + 1,
                SharedBytes::from(packet.to_vec()),
            ));
        }
        reference.sort_by_key(|b| b.ts);
        assert_eq!(
            arena.freeze(|ts, count, (), packet| PacketBatch::repeated(ts, count, packet)),
            reference
        );
    }

    /// The honeypot side's use of the arena: many batches view one shared
    /// representative.
    #[test]
    fn honeypot_batches_keep_render_order_on_ties() {
        let mut day = DayArena::with_capacity(0, 0);
        let rep = day.append(|buf| buf.extend_from_slice(&[1, 2, 3]));
        let mut reference = Vec::new();
        for (i, ts) in tied_times().into_iter().enumerate() {
            day.push(ts, i as u32 + 1, HoneypotId(i as u8), rep);
            reference.push(RequestBatch::repeated(
                HoneypotId(i as u8),
                ts,
                i as u32 + 1,
                vec![1, 2, 3],
            ));
        }
        reference.sort_by_key(|b| b.ts);
        assert_eq!(
            day.freeze(|ts, count, pot, packet| RequestBatch::repeated(pot, ts, count, packet)),
            reference
        );
    }

    /// `ts_order` is exactly a stable sort by timestamp on random days:
    /// spans from none up to just under the 2^32 s guard, with timestamps
    /// either spread over the span or drawn from a handful of values (so
    /// most items tie), and the empty and one-item inputs. Each item
    /// carries its input index, so a reordered tie shows.
    #[test]
    fn ts_order_equals_a_stable_sort() {
        let mut rng = SmallRng::seed_from_u64(11);
        let spans = [0u64, 1, 4, 2_047, 2_048, 86_399, 1 << 22, (1 << 32) - 1];
        for span in spans {
            for len in [0usize, 1, 2, 3, 100, 5_000] {
                for few_values in [false, true] {
                    let base = rng.gen_range(0..1u64 << 40);
                    let values: Vec<u64> = (0..6).map(|_| rng.gen_range(0..=span)).collect();
                    let mut items: Vec<(SimTime, usize)> = (0..len)
                        .map(|i| {
                            let offset = if few_values {
                                values[rng.gen_range(0..values.len())]
                            } else {
                                rng.gen_range(0..=span)
                            };
                            (SimTime(base + offset), i)
                        })
                        .collect();
                    // Pin both ends of the span.
                    if len >= 2 {
                        items[rng.gen_range(0..len)].0 = SimTime(base);
                        items[rng.gen_range(0..len)].0 = SimTime(base + span);
                    }
                    let mut want = items.clone();
                    want.sort_by_key(|b| b.0);
                    assert_eq!(
                        ts_order(items, |b| b.0),
                        want,
                        "span {span}, {len} items, few values {few_values}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "batch times span < 2^32 s")]
    fn ts_order_refuses_a_key_that_would_wrap() {
        ts_order(vec![SimTime(5), SimTime(5 + (1 << 32))], |&t| t);
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
