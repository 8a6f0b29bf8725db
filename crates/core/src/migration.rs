//! Attack effects on DPS migration (Section 6): the Web-site taxonomy of
//! Figure 8, the attack-frequency comparison of Figure 9, the normalized
//! intensity distribution of Table 9 and the migration-delay analyses of
//! Figures 10 and 11.

use crate::webimpact::WebImpact;
use crate::Framework;
use dosscope_types::{DayIndex, Ecdf, FrozenEcdf};

/// The Figure 8 classification tree (counts of Web sites per node).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Taxonomy {
    /// All Web sites over the window.
    pub total: u64,
    /// Sites on attacked IPs at least once ("attack observed").
    pub attacked: u64,
    /// Attacked ∧ already a DPS customer when first seen.
    pub attacked_preexisting: u64,
    /// Attacked ∧ migrated to a DPS after an observed attack.
    pub attacked_migrating: u64,
    /// Attacked ∧ never protected.
    pub attacked_non_migrating: u64,
    /// Never observed under attack.
    pub unattacked: u64,
    /// Unattacked ∧ preexisting customer.
    pub unattacked_preexisting: u64,
    /// Unattacked ∧ migrated during the window.
    pub unattacked_migrating: u64,
    /// Unattacked ∧ never protected.
    pub unattacked_non_migrating: u64,
}

impl Taxonomy {
    /// Fraction helper: `num/den`, 0 when empty.
    pub fn frac(num: u64, den: u64) -> f64 {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    }

    /// Share of sites ever attacked (64 % in the paper).
    pub fn attacked_share(&self) -> f64 {
        Self::frac(self.attacked, self.total)
    }

    /// Preexisting share among attacked (18.6 %) and unattacked (0.89 %).
    pub fn preexisting_shares(&self) -> (f64, f64) {
        (
            Self::frac(self.attacked_preexisting, self.attacked),
            Self::frac(self.unattacked_preexisting, self.unattacked),
        )
    }

    /// Migrating share among attacked non-preexisting (4.31 %) and
    /// unattacked non-preexisting (3.32 %).
    pub fn migrating_shares(&self) -> (f64, f64) {
        (
            Self::frac(
                self.attacked_migrating,
                self.attacked - self.attacked_preexisting,
            ),
            Self::frac(
                self.unattacked_migrating,
                self.unattacked - self.unattacked_preexisting,
            ),
        )
    }

    /// Protected-ever share among attacked (22.1 %) vs unattacked (4.2 %).
    pub fn protected_shares(&self) -> (f64, f64) {
        (
            Self::frac(
                self.attacked_preexisting + self.attacked_migrating,
                self.attacked,
            ),
            Self::frac(
                self.unattacked_preexisting + self.unattacked_migrating,
                self.unattacked,
            ),
        )
    }
}

/// The Section 6 analysis results.
pub struct MigrationAnalysis {
    /// Figure 8.
    pub taxonomy: Taxonomy,
    /// Figure 9 top: attacks per attacked site.
    pub freq_all: FrozenEcdf,
    /// Figure 9 bottom: attacks per migrating-after-attack site.
    pub freq_migrating: FrozenEcdf,
    /// Site-weighted normalized intensity distribution (Table 9).
    pub intensity_over_sites: FrozenEcdf,
    /// Figure 10: migration delay (days) for all migrating sites and per
    /// intensity class.
    pub delay_all: FrozenEcdf,
    /// Top 5 % intensity class.
    pub delay_top5: FrozenEcdf,
    /// Top 1 % intensity class.
    pub delay_top1: FrozenEcdf,
    /// Top 0.1 % intensity class.
    pub delay_top01: FrozenEcdf,
    /// Figure 11: delays following honeypot attacks of ≥ 4 h duration.
    pub delay_long4h: FrozenEcdf,
}

impl MigrationAnalysis {
    /// Run the migration analyses. Needs both the Web-impact results and
    /// the DPS data set; returns `None` when either is missing.
    pub fn analyze(fw: &Framework<'_>, web: &WebImpact) -> Option<MigrationAnalysis> {
        let zone = fw.zone?;
        let dps = fw.dps?;

        let mut tax = Taxonomy {
            total: zone.domain_count() as u64,
            ..Taxonomy::default()
        };
        let mut freq_all = Ecdf::new();
        let mut freq_migrating = Ecdf::new();
        let mut intensity_sites = Ecdf::new();
        struct MigRecord {
            delay_days: f64,
            norm_intensity: f64,
            long4h_delay: Option<f64>,
        }
        let mut migrations: Vec<MigRecord> = Vec::new();

        for domain in zone.domain_ids() {
            let preexisting = dps.is_preexisting(domain, zone);
            let migration_day = dps.migration_day(domain, zone);
            match web.site_records.get(&domain) {
                Some(rec) => {
                    tax.attacked += 1;
                    freq_all.push(rec.count as f64);
                    intensity_sites.push(rec.best_norm_intensity.max(0.0));
                    if preexisting {
                        tax.attacked_preexisting += 1;
                    } else {
                        // Migrating = first DPS use after the first
                        // observed attack.
                        match migration_day {
                            Some(day) if day > rec.first_attack_day => {
                                tax.attacked_migrating += 1;
                                freq_migrating.push(rec.count as f64);
                                let anchor = Self::delay_anchor(rec, day);
                                migrations.push(MigRecord {
                                    delay_days: (day.0 - anchor.0) as f64,
                                    norm_intensity: rec.best_norm_intensity,
                                    long4h_delay: rec
                                        .long4h_day
                                        .filter(|&d| d < day)
                                        .map(|d| (day.0 - d.0) as f64),
                                });
                            }
                            _ => tax.attacked_non_migrating += 1,
                        }
                    }
                }
                None => {
                    tax.unattacked += 1;
                    if preexisting {
                        tax.unattacked_preexisting += 1;
                    } else if migration_day.is_some() {
                        tax.unattacked_migrating += 1;
                    } else {
                        tax.unattacked_non_migrating += 1;
                    }
                }
            }
        }

        let intensity_over_sites = intensity_sites.freeze();
        // Intensity-class thresholds over the site-weighted distribution.
        let t95 = intensity_over_sites.quantile(0.95).unwrap_or(1.0);
        let t99 = intensity_over_sites.quantile(0.99).unwrap_or(1.0);
        let t999 = intensity_over_sites.quantile(0.999).unwrap_or(1.0);

        let mut delay_all = Ecdf::new();
        let mut delay_top5 = Ecdf::new();
        let mut delay_top1 = Ecdf::new();
        let mut delay_top01 = Ecdf::new();
        let mut delay_long4h = Ecdf::new();
        for m in &migrations {
            delay_all.push(m.delay_days);
            if m.norm_intensity >= t95 {
                delay_top5.push(m.delay_days);
            }
            if m.norm_intensity >= t99 {
                delay_top1.push(m.delay_days);
            }
            if m.norm_intensity >= t999 {
                delay_top01.push(m.delay_days);
            }
            if let Some(d) = m.long4h_delay {
                delay_long4h.push(d);
            }
        }

        Some(MigrationAnalysis {
            taxonomy: tax,
            freq_all: freq_all.freeze(),
            freq_migrating: freq_migrating.freeze(),
            intensity_over_sites,
            delay_all: delay_all.freeze(),
            delay_top5: delay_top5.freeze(),
            delay_top1: delay_top1.freeze(),
            delay_top01: delay_top01.freeze(),
            delay_long4h: delay_long4h.freeze(),
        })
    }

    /// The attack the delay is measured from: the most intense associated
    /// attack if it precedes the migration, otherwise the first attack.
    fn delay_anchor(rec: &crate::webimpact::SiteAttackRecord, migration: DayIndex) -> DayIndex {
        if rec.best_intensity_day <= migration {
            rec.best_intensity_day
        } else {
            rec.first_attack_day
        }
    }

    /// Table 9 rendered: Web-site share (%) at the published intensity
    /// thresholds.
    pub fn table9_row(&self) -> Vec<(f64, f64)> {
        [0.005, 0.07, 0.13, 0.52, 0.85, 1.0]
            .into_iter()
            .map(|t| (t, 100.0 * self.intensity_over_sites.cdf(t)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::webimpact::{IntensityNormalizer, SiteAttackRecord};
    use crate::EventStore;
    use dosscope_dns::{DayRange, OrgCatalog, OrgRole, Placement, Tld, ZoneStore};
    use dosscope_dps::DpsDataset;
    use dosscope_geo::{AsDb, GeoDb};
    use dosscope_types::TimeSeries;

    /// A hand-built world: 4 sites — one preexisting DPS customer, one
    /// that migrates after an attack, one attacked non-migrating, one
    /// never attacked.
    struct World {
        zone: ZoneStore,
        catalog: OrgCatalog,
        geo: GeoDb,
        asdb: AsDb,
    }

    fn world() -> World {
        let mut catalog = OrgCatalog::new();
        let hoster = catalog.add("Host", None, OrgRole::Hoster, false);
        let dpsorg = catalog.add("Shield", None, OrgRole::Dps, true);
        let mut zone = ZoneStore::new();
        let window = DayRange::new(DayIndex(0), DayIndex(100));

        // Site 0: preexisting customer (CNAME through the DPS from day 0).
        let d0 = zone.add_domain(Tld::Com, window);
        zone.place(Placement {
            domain: d0,
            ip: "10.0.0.1".parse().unwrap(),
            days: window,
            ns: hoster,
            cname: Some(dpsorg),
        });
        // Site 1: migrates on day 20.
        let d1 = zone.add_domain(Tld::Com, window);
        zone.place(Placement {
            domain: d1,
            ip: "10.0.0.2".parse().unwrap(),
            days: DayRange::new(DayIndex(0), DayIndex(20)),
            ns: hoster,
            cname: None,
        });
        zone.place(Placement {
            domain: d1,
            ip: "10.0.0.3".parse().unwrap(),
            days: DayRange::new(DayIndex(20), DayIndex(100)),
            ns: hoster,
            cname: Some(dpsorg),
        });
        // Site 2: attacked, never migrates.
        let d2 = zone.add_domain(Tld::Net, window);
        zone.place(Placement {
            domain: d2,
            ip: "10.0.0.4".parse().unwrap(),
            days: window,
            ns: hoster,
            cname: None,
        });
        // Site 3: never attacked, never migrates.
        let d3 = zone.add_domain(Tld::Org, window);
        zone.place(Placement {
            domain: d3,
            ip: "10.0.0.5".parse().unwrap(),
            days: window,
            ns: hoster,
            cname: None,
        });

        World {
            zone,
            catalog,
            geo: GeoDb::new(),
            asdb: AsDb::new(),
        }
    }

    fn web_impact_with(records: Vec<(dosscope_dns::DomainId, SiteAttackRecord)>) -> WebImpact {
        let store = EventStore::new();
        WebImpact {
            affected_total: records.len() as u64,
            total_sites: 4,
            daily_sites: TimeSeries::zeros(100),
            daily_sites_medium: TimeSeries::zeros(100),
            web_ip_count: 0,
            target_ip_count: 0,
            cohosting: dosscope_types::LogHistogram::new(7),
            cohosting_by_tld: [
                (dosscope_dns::Tld::Com, dosscope_types::LogHistogram::new(7)),
                (dosscope_dns::Tld::Net, dosscope_types::LogHistogram::new(7)),
                (dosscope_dns::Tld::Org, dosscope_types::LogHistogram::new(7)),
            ],
            biggest_cohost: None,
            site_records: records.into_iter().collect(),
            web_tcp_share: 0.0,
            web_port_share: 0.0,
            web_ntp_share: 0.0,
            normalizer: IntensityNormalizer::fit(&store),
        }
    }

    fn record(count: u32, first: u32, best: f64, best_day: u32, long4h: Option<u32>) -> SiteAttackRecord {
        SiteAttackRecord {
            count,
            first_attack_day: DayIndex(first),
            best_norm_intensity: best,
            best_intensity_day: DayIndex(best_day),
            long4h_day: long4h.map(DayIndex),
        }
    }

    #[test]
    fn taxonomy_classification() {
        let w = world();
        let dps = DpsDataset::infer(&w.zone, &w.catalog, &w.asdb);
        let records = vec![
            // Sites 0, 1, 2 attacked (d0 preexisting, d1 migrates day 20 after
            // attack day 10, d2 non-migrating).
            (dosscope_dns::DomainId(0), record(1, 10, 0.5, 10, None)),
            (dosscope_dns::DomainId(1), record(2, 10, 0.9, 12, Some(12))),
            (dosscope_dns::DomainId(2), record(5, 30, 0.1, 30, None)),
        ];
        let web = web_impact_with(records);

        let store = EventStore::new();
        let fw = Framework::new(&store, &w.geo, &w.asdb, 100)
            .with_dns(&w.zone, &w.catalog)
            .with_dps(&dps);
        let m = MigrationAnalysis::analyze(&fw, &web).expect("data sets attached");

        assert_eq!(m.taxonomy.total, 4);
        assert_eq!(m.taxonomy.attacked, 3);
        assert_eq!(m.taxonomy.attacked_preexisting, 1);
        assert_eq!(m.taxonomy.attacked_migrating, 1);
        assert_eq!(m.taxonomy.attacked_non_migrating, 1);
        assert_eq!(m.taxonomy.unattacked, 1);
        assert_eq!(m.taxonomy.unattacked_non_migrating, 1);
        assert!((m.taxonomy.attacked_share() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn delays_measured_from_best_attack() {
        let w = world();
        let dps = DpsDataset::infer(&w.zone, &w.catalog, &w.asdb);
        let records = vec![
            // d1 migrates day 20; most intense attack day 12 => delay 8 days;
            // its ≥4 h attack also day 12 => long4h delay 8.
            (dosscope_dns::DomainId(1), record(2, 10, 0.9, 12, Some(12))),
        ];
        let web = web_impact_with(records);
        let store = EventStore::new();
        let fw = Framework::new(&store, &w.geo, &w.asdb, 100)
            .with_dns(&w.zone, &w.catalog)
            .with_dps(&dps);
        let m = MigrationAnalysis::analyze(&fw, &web).unwrap();
        assert_eq!(m.delay_all.len(), 1);
        assert_eq!(m.delay_all.samples()[0], 8.0);
        assert_eq!(m.delay_long4h.samples(), &[8.0]);
    }

    #[test]
    fn frequency_cdfs_split_population() {
        let w = world();
        let dps = DpsDataset::infer(&w.zone, &w.catalog, &w.asdb);
        let records = vec![
            (dosscope_dns::DomainId(1), record(1, 10, 0.9, 12, None)), // migrating
            (dosscope_dns::DomainId(2), record(9, 10, 0.5, 10, None)), // not
        ];
        let web = web_impact_with(records);
        let store = EventStore::new();
        let fw = Framework::new(&store, &w.geo, &w.asdb, 100)
            .with_dns(&w.zone, &w.catalog)
            .with_dps(&dps);
        let m = MigrationAnalysis::analyze(&fw, &web).unwrap();
        assert_eq!(m.freq_all.len(), 2);
        assert_eq!(m.freq_migrating.len(), 1);
        // The migrating site was attacked once; the frequency CDF at 5
        // shows the split (Figure 9's point).
        assert_eq!(m.freq_migrating.cdf(5.0), 1.0);
        assert_eq!(m.freq_all.cdf(5.0), 0.5);
    }

    #[test]
    fn table9_thresholds() {
        let w = world();
        let dps = DpsDataset::infer(&w.zone, &w.catalog, &w.asdb);
        let records = vec![
            (dosscope_dns::DomainId(1), record(1, 10, 0.03, 10, None)),
            (dosscope_dns::DomainId(2), record(1, 10, 0.60, 10, None)),
        ];
        let web = web_impact_with(records);
        let store = EventStore::new();
        let fw = Framework::new(&store, &w.geo, &w.asdb, 100)
            .with_dns(&w.zone, &w.catalog)
            .with_dps(&dps);
        let m = MigrationAnalysis::analyze(&fw, &web).unwrap();
        let rows = m.table9_row();
        // 50 % of sites ≤ 0.07, 100 % ≤ 1.0.
        assert!((rows[1].1 - 50.0).abs() < 1e-9);
        assert!((rows[5].1 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn requires_dns_and_dps() {
        let w = world();
        let store = EventStore::new();
        let fw = Framework::new(&store, &w.geo, &w.asdb, 100).with_dns(&w.zone, &w.catalog);
        let web = web_impact_with(Vec::new());
        assert!(MigrationAnalysis::analyze(&fw, &web).is_none());
    }
}
