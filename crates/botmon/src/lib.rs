//! # dosscope-botmon
//!
//! A third DoS attack data source: a botnet Command & Control monitor in
//! the style of Wang et al. (DSN 2015), who inferred 51 k attack events
//! from the C&C channels of 674 botnets across 23 families.
//!
//! The paper's two primary data sets deliberately do not cover *unspoofed*
//! direct attacks (its footnote 4), and its Section 8 calls for
//! "development and integration of other attack data sources, e.g.,
//! unspoofed volumetric attacks". This crate provides exactly that
//! integration surface: [`CncCommand`] is the raw observation (an attack
//! instruction seen on a monitored C&C channel) and [`CncMonitor`] infers
//! [`BotnetEvent`]s from start/stop command pairs, with a duration cap for
//! botnets that never send a stop.
//!
//! The fusion side lives in `dosscope_core::coverage`, which measures how
//! much of the botnet-driven attack population the telescope/honeypot
//! pair could never have seen.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dosscope_types::{SimTime, TimeRange};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Identifier of one monitored botnet instance (a distinct C&C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BotnetId(pub u32);

/// Malware family of a monitored botnet. DirtJumper and YZF (Yoddos) are
/// the families of Welzel et al.; Mirai is the 2016 IoT family behind the
/// Dyn and OVH attacks the paper's introduction cites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum BotFamily {
    DirtJumper,
    Yoddos,
    Mirai,
    Nitol,
    Gafgyt,
}

impl BotFamily {
    /// All modelled families.
    pub const ALL: [BotFamily; 5] = [
        BotFamily::DirtJumper,
        BotFamily::Yoddos,
        BotFamily::Mirai,
        BotFamily::Nitol,
        BotFamily::Gafgyt,
    ];
}

impl std::fmt::Display for BotFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BotFamily::DirtJumper => f.write_str("DirtJumper"),
            BotFamily::Yoddos => f.write_str("Yoddos"),
            BotFamily::Mirai => f.write_str("Mirai"),
            BotFamily::Nitol => f.write_str("Nitol"),
            BotFamily::Gafgyt => f.write_str("Gafgyt"),
        }
    }
}

/// Attack method carried in the C&C instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AttackMethod {
    HttpFlood,
    SynFlood,
    UdpFlood,
}

/// The action of one C&C instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CncAction {
    /// Begin attacking `target`.
    Start {
        /// The victim.
        target: Ipv4Addr,
        /// Destination port of the flood (0 = random).
        port: u16,
        /// Flood method.
        method: AttackMethod,
    },
    /// Stop attacking `target`.
    Stop {
        /// The victim.
        target: Ipv4Addr,
    },
}

/// One observed C&C instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CncCommand {
    /// The issuing botnet.
    pub botnet: BotnetId,
    /// Its malware family.
    pub family: BotFamily,
    /// When the command was seen.
    pub ts: SimTime,
    /// What it instructed.
    pub action: CncAction,
}

/// One inferred botnet attack event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BotnetEvent {
    /// The victim.
    pub target: Ipv4Addr,
    /// Active interval (start command to stop command or cap).
    pub when: TimeRange,
    /// The attacking botnet.
    pub botnet: BotnetId,
    /// Its family.
    pub family: BotFamily,
    /// Flood method.
    pub method: AttackMethod,
    /// Destination port (0 = random).
    pub port: u16,
    /// Whether the event ended with an explicit stop command (false:
    /// capped after [`MonitorConfig::max_attack_secs`]).
    pub explicit_stop: bool,
}

impl BotnetEvent {
    /// Event duration in seconds.
    pub fn duration_secs(&self) -> u64 {
        self.when.duration_secs()
    }
}

/// Monitor parameters.
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Cap on a single attack when no stop command arrives (botnets
    /// frequently never send one); Wang et al. use a comparable cutoff.
    pub max_attack_secs: u64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            max_attack_secs: 6 * 3_600,
        }
    }
}

/// Statistics of a monitoring run.
///
/// Every start command opens one event, and every event ends in one of
/// three ways: a stop command, a re-issued start against the same target,
/// or the end of the trace. So `commands = 2 × events − restarted −
/// unterminated + orphan_stops`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MonitorStats {
    /// Commands ingested.
    pub commands: u64,
    /// Stop commands with no matching start (dropped).
    pub orphan_stops: u64,
    /// Events closed by an explicit stop within the duration cap.
    pub stopped: u64,
    /// Events closed without an explicit stop: cut at the duration cap,
    /// restarted, or still open at the end of the trace.
    pub capped: u64,
    /// Events closed by a re-issued start against the same target.
    pub restarted: u64,
    /// Events still open at the end of the trace.
    pub unterminated: u64,
}

/// The C&C monitor: pairs start/stop commands per (botnet, target) into
/// attack events.
#[derive(Debug)]
pub struct CncMonitor {
    config: MonitorConfig,
    open: HashMap<(BotnetId, Ipv4Addr), CncCommand>,
    events: Vec<BotnetEvent>,
    stats: MonitorStats,
}

impl Default for CncMonitor {
    fn default() -> Self {
        CncMonitor::new()
    }
}

impl CncMonitor {
    /// A monitor with default parameters.
    pub fn new() -> CncMonitor {
        CncMonitor::with_config(MonitorConfig::default())
    }

    /// A monitor with explicit parameters.
    pub fn with_config(config: MonitorConfig) -> CncMonitor {
        CncMonitor {
            config,
            open: HashMap::new(),
            events: Vec::new(),
            stats: MonitorStats::default(),
        }
    }

    /// Ingest one command (commands must arrive in time order).
    pub fn ingest(&mut self, cmd: &CncCommand) {
        self.stats.commands += 1;
        match cmd.action {
            CncAction::Start { target, .. } => {
                // A re-issued start against the same target restarts the
                // attack: close the previous one at the new start time.
                if let Some(prev) = self.open.insert((cmd.botnet, target), *cmd) {
                    self.stats.restarted += 1;
                    self.close(prev, cmd.ts, false);
                }
            }
            CncAction::Stop { target } => match self.open.remove(&(cmd.botnet, target)) {
                Some(start) => self.close(start, cmd.ts, true),
                None => self.stats.orphan_stops += 1,
            },
        }
    }

    fn close(&mut self, start_cmd: CncCommand, end: SimTime, explicit: bool) {
        let CncAction::Start {
            target,
            port,
            method,
        } = start_cmd.action
        else {
            unreachable!("only starts are stored open");
        };
        let mut end = end.max(start_cmd.ts.add_secs(1));
        let mut explicit_stop = explicit;
        if end.secs() - start_cmd.ts.secs() > self.config.max_attack_secs {
            end = start_cmd.ts.add_secs(self.config.max_attack_secs);
            explicit_stop = false;
        }
        if explicit_stop {
            self.stats.stopped += 1;
        } else {
            self.stats.capped += 1;
        }
        self.events.push(BotnetEvent {
            target,
            when: TimeRange::new(start_cmd.ts, end),
            botnet: start_cmd.botnet,
            family: start_cmd.family,
            method,
            port,
            explicit_stop,
        });
    }

    /// End of trace: cap every still-open attack and return all events
    /// sorted by start time.
    pub fn finish(mut self, now: SimTime) -> (Vec<BotnetEvent>, MonitorStats) {
        let open: Vec<CncCommand> = self.open.drain().map(|(_, c)| c).collect();
        self.stats.unterminated = open.len() as u64;
        for cmd in open {
            self.close(cmd, now, false);
        }
        self.events.sort_by_key(|e| (e.when.start, e.target));
        (self.events, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(botnet: u32, ts: u64, target: &str) -> CncCommand {
        CncCommand {
            botnet: BotnetId(botnet),
            family: BotFamily::DirtJumper,
            ts: SimTime(ts),
            action: CncAction::Start {
                target: target.parse().unwrap(),
                port: 80,
                method: AttackMethod::HttpFlood,
            },
        }
    }

    fn stop(botnet: u32, ts: u64, target: &str) -> CncCommand {
        CncCommand {
            botnet: BotnetId(botnet),
            family: BotFamily::DirtJumper,
            ts: SimTime(ts),
            action: CncAction::Stop {
                target: target.parse().unwrap(),
            },
        }
    }

    #[test]
    fn start_stop_pairs_into_event() {
        let mut m = CncMonitor::new();
        m.ingest(&start(1, 100, "10.0.0.1"));
        m.ingest(&stop(1, 700, "10.0.0.1"));
        let (events, stats) = m.finish(SimTime(10_000));
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.duration_secs(), 600);
        assert!(e.explicit_stop);
        assert_eq!(e.method, AttackMethod::HttpFlood);
        assert_eq!(stats.stopped, 1);
        assert_eq!(stats.capped, 0);
    }

    #[test]
    fn missing_stop_capped() {
        let mut m = CncMonitor::new();
        m.ingest(&start(1, 100, "10.0.0.1"));
        let (events, stats) = m.finish(SimTime(1_000_000));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].duration_secs(), 6 * 3_600);
        assert!(!events[0].explicit_stop);
        assert_eq!(stats.capped, 1);
    }

    #[test]
    fn reissued_start_restarts() {
        let mut m = CncMonitor::new();
        m.ingest(&start(1, 100, "10.0.0.1"));
        m.ingest(&start(1, 500, "10.0.0.1"));
        m.ingest(&stop(1, 900, "10.0.0.1"));
        let (events, _) = m.finish(SimTime(10_000));
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].when, TimeRange::new(SimTime(100), SimTime(500)));
        assert_eq!(events[1].when, TimeRange::new(SimTime(500), SimTime(900)));
    }

    #[test]
    fn orphan_stop_counted() {
        let mut m = CncMonitor::new();
        m.ingest(&stop(1, 100, "10.0.0.1"));
        let (events, stats) = m.finish(SimTime(1_000));
        assert!(events.is_empty());
        assert_eq!(stats.orphan_stops, 1);
    }

    #[test]
    fn botnets_and_targets_independent() {
        let mut m = CncMonitor::new();
        m.ingest(&start(1, 100, "10.0.0.1"));
        m.ingest(&start(2, 100, "10.0.0.1"));
        m.ingest(&start(1, 100, "10.0.0.2"));
        m.ingest(&stop(1, 400, "10.0.0.1"));
        let (events, _) = m.finish(SimTime(100_000));
        assert_eq!(events.len(), 3);
        let explicit = events.iter().filter(|e| e.explicit_stop).count();
        assert_eq!(explicit, 1);
    }

    /// Each way an event ends, once: `commands` is explained exactly.
    #[test]
    fn every_command_is_accounted_for() {
        let mut m = CncMonitor::new();
        m.ingest(&stop(1, 50, "10.0.0.9")); // orphan stop
        m.ingest(&start(1, 100, "10.0.0.1"));
        m.ingest(&start(1, 200, "10.0.0.1")); // restart: closes the first
        m.ingest(&stop(1, 300, "10.0.0.1")); // stop within the cap
        m.ingest(&start(1, 400, "10.0.0.2"));
        m.ingest(&stop(1, 400 + 7 * 3_600, "10.0.0.2")); // stop past the cap
        m.ingest(&start(1, 500, "10.0.0.3")); // still open at the end
        let (events, stats) = m.finish(SimTime(100_000));
        assert_eq!(events.len(), 4);
        assert_eq!(stats.commands, 7);
        assert_eq!(
            (stats.orphan_stops, stats.restarted, stats.unterminated),
            (1, 1, 1)
        );
        assert_eq!((stats.stopped, stats.capped), (1, 3));
        assert_eq!(
            stats.commands,
            2 * events.len() as u64 - stats.restarted - stats.unterminated + stats.orphan_stops
        );
    }

    #[test]
    fn late_stop_still_caps() {
        let mut m = CncMonitor::new();
        m.ingest(&start(1, 0, "10.0.0.1"));
        m.ingest(&stop(1, 10 * 24 * 3_600, "10.0.0.1"));
        let (events, stats) = m.finish(SimTime(11 * 24 * 3_600));
        assert_eq!(events[0].duration_secs(), 6 * 3_600, "cap applies");
        assert!(!events[0].explicit_stop);
        assert_eq!(stats.capped, 1);
    }
}
