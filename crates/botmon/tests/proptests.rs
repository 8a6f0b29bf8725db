//! Property-based tests for the C&C monitor: conservation between
//! commands and events, and duration-cap invariants, for arbitrary
//! command streams.

use dosscope_botmon::{
    AttackMethod, BotFamily, BotnetId, CncAction, CncCommand, CncMonitor, MonitorConfig,
};
use dosscope_types::SimTime;
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// (botnet, target octet, is_start, time delta)
fn arb_script() -> impl Strategy<Value = Vec<(u8, u8, bool, u64)>> {
    proptest::collection::vec((0u8..4, 0u8..4, any::<bool>(), 0u64..50_000), 1..60)
}

fn build_commands(script: &[(u8, u8, bool, u64)]) -> Vec<CncCommand> {
    let mut ts = 0u64;
    let mut out = Vec::new();
    for &(botnet, tgt, is_start, dt) in script {
        ts += dt;
        let target = Ipv4Addr::new(10, 0, 0, tgt);
        let action = if is_start {
            CncAction::Start {
                target,
                port: 80,
                method: AttackMethod::SynFlood,
            }
        } else {
            CncAction::Stop { target }
        };
        out.push(CncCommand {
            botnet: BotnetId(botnet as u32),
            family: BotFamily::Nitol,
            ts: SimTime(ts),
            action,
        });
    }
    out
}

proptest! {
    /// For any time-ordered command stream: number of events equals the
    /// number of starts (every start eventually closes — by stop, restart
    /// or end-of-trace cap), stops without a start are counted as orphans,
    /// and every event respects the duration cap.
    #[test]
    fn conservation(script in arb_script()) {
        let cmds = build_commands(&script);
        let starts = cmds
            .iter()
            .filter(|c| matches!(c.action, CncAction::Start { .. }))
            .count();
        let stops = cmds.len() - starts;
        let mut m = CncMonitor::with_config(MonitorConfig {
            max_attack_secs: 3_600,
        });
        for c in &cmds {
            m.ingest(c);
        }
        let horizon = SimTime(10_000_000);
        let (events, stats) = m.finish(horizon);
        prop_assert_eq!(events.len(), starts, "every start becomes one event");
        prop_assert_eq!(stats.commands as usize, cmds.len());
        prop_assert_eq!(
            (stats.stopped + stats.capped) as usize,
            events.len(),
            "every event closed exactly once"
        );
        prop_assert!(stats.orphan_stops as usize <= stops);
        prop_assert_eq!(
            stats.commands + stats.restarted + stats.unterminated,
            2 * events.len() as u64 + stats.orphan_stops,
            "every stop closed an event or was an orphan"
        );
        for e in &events {
            prop_assert!(e.duration_secs() >= 1);
            prop_assert!(e.duration_secs() <= 3_600, "cap violated: {}", e.duration_secs());
            prop_assert!(e.when.end <= horizon.add_secs(0).max(e.when.end));
        }
        // Events are sorted by start.
        prop_assert!(events.windows(2).all(|w| w[0].when.start <= w[1].when.start));
    }

    /// A stream of starts only (no stops) yields exactly one capped event
    /// per (botnet, target) restart chain.
    #[test]
    fn starts_only(script in proptest::collection::vec((0u8..3, 0u8..3, 1u64..5_000), 1..30)) {
        let cmds: Vec<CncCommand> = {
            let mut ts = 0u64;
            script
                .iter()
                .map(|&(b, t, dt)| {
                    ts += dt;
                    CncCommand {
                        botnet: BotnetId(b as u32),
                        family: BotFamily::Mirai,
                        ts: SimTime(ts),
                        action: CncAction::Start {
                            target: Ipv4Addr::new(10, 0, 0, t),
                            port: 0,
                            method: AttackMethod::UdpFlood,
                        },
                    }
                })
                .collect()
        };
        let mut m = CncMonitor::new();
        for c in &cmds {
            m.ingest(c);
        }
        let (events, stats) = m.finish(SimTime(100_000_000));
        prop_assert_eq!(events.len(), cmds.len());
        prop_assert_eq!(stats.stopped, 0, "no explicit stops exist");
        prop_assert_eq!(stats.orphan_stops, 0);
    }
}
