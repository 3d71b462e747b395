//! The annotation join (§4.1, Table 1).
//!
//! Raw scan records carry only `(date, ip, port, cert id)`. The analysis
//! needs each observation annotated with the origin AS (pfx2as), the
//! geolocated country (NetAcuity), the certificate's issuer/trust/SAN
//! metadata, and the sensitive-subdomain flag — exactly the columns of the
//! paper's Table 1. This module performs that join and produces:
//!
//! * [`AnnotatedRow`] — one Table-1 row per `(date, ip, cert)` with ports
//!   aggregated;
//! * [`DomainObservation`] — the per-registered-domain flattened form the
//!   deployment-map builder consumes (one observation per domain a
//!   certificate asserts authority over).

use crate::dataset::ScanDataset;
use retrodns_asdb::AsDatabase;
use retrodns_cert::{CertId, Certificate, TrustStore};
use retrodns_types::{Asn, CountryCode, Day, DomainName, Ipv4Addr};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// One annotated scan row (Table 1 of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnnotatedRow {
    /// Scan date.
    pub date: Day,
    /// Responding address.
    pub ip: Ipv4Addr,
    /// All TLS ports this (ip, cert) responded on this date, sorted.
    pub ports: Vec<u16>,
    /// Origin ASN.
    pub asn: Option<Asn>,
    /// Geolocated country.
    pub country: Option<CountryCode>,
    /// Certificate id (crt.sh-style).
    pub cert: CertId,
    /// Issuing CA display name (shared — one allocation per distinct
    /// certificate, not per row).
    pub issuer: Arc<str>,
    /// Browser-trusted (Apple ∨ Microsoft ∨ Mozilla)?
    pub trusted: bool,
    /// Does any SAN match the sensitive-subdomain criterion?
    pub sensitive: bool,
    /// SANs on the certificate (shared across every row presenting it).
    pub names: Arc<[DomainName]>,
}

/// One scan observation attributed to a registered domain — the unit the
/// deployment-map builder clusters (§4.1: "we refer to those IP addresses
/// and the certificates they return as the *observable infrastructure*").
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DomainObservation {
    /// The registered domain the certificate asserts authority over.
    pub domain: DomainName,
    /// Scan date.
    pub date: Day,
    /// Responding address.
    pub ip: Ipv4Addr,
    /// Origin ASN (None = unrouted; such observations cannot be grouped
    /// and are dropped by the map builder).
    pub asn: Option<Asn>,
    /// Geolocated country.
    pub country: Option<CountryCode>,
    /// Certificate presented.
    pub cert: CertId,
    /// Browser-trusted certificate?
    pub trusted: bool,
}

/// Join scan records with network and certificate metadata, producing
/// Table-1 rows (ports aggregated per `(date, ip, cert)`).
pub fn annotate_dataset(
    dataset: &ScanDataset,
    certs: &HashMap<CertId, Certificate>,
    asdb: &AsDatabase,
    trust: &TrustStore,
) -> Vec<AnnotatedRow> {
    // Cert-derived fields resolved once per distinct certificate and
    // shared by every row presenting it.
    struct CertMeta {
        issuer: Arc<str>,
        trusted: bool,
        sensitive: bool,
        names: Arc<[DomainName]>,
    }
    // Sort-then-run grouping: one flat record vector sorted on the group
    // key, then a linear scan over runs. The sort key ends on the port,
    // so ports inside a run arrive sorted and dedup in place — no
    // per-group `Vec<u16>` map entries, no tree rebalancing.
    let mut recs: Vec<(Day, Ipv4Addr, CertId, u16)> = dataset
        .records()
        .iter()
        .map(|r| (r.date, r.ip, r.cert, r.port))
        .collect();
    recs.sort_unstable();
    let mut cert_meta: HashMap<CertId, CertMeta> = HashMap::new();
    let mut ip_ann: HashMap<Ipv4Addr, (Option<Asn>, Option<CountryCode>)> = HashMap::new();
    let mut out = Vec::new();
    let mut i = 0;
    while i < recs.len() {
        let (date, ip, cert_id, _) = recs[i];
        let mut j = i + 1;
        while j < recs.len() && (recs[j].0, recs[j].1, recs[j].2) == (date, ip, cert_id) {
            j += 1;
        }
        let mut ports: Vec<u16> = recs[i..j].iter().map(|r| r.3).collect();
        ports.dedup();
        let (asn, country) = *ip_ann.entry(ip).or_insert_with(|| {
            let a = asdb.annotate(ip);
            (a.asn, a.country)
        });
        let meta = cert_meta
            .entry(cert_id)
            .or_insert_with(|| match certs.get(&cert_id) {
                Some(c) => CertMeta {
                    issuer: Arc::from(trust.ca_name(c.issuer)),
                    trusted: trust.is_browser_trusted(c.issuer),
                    sensitive: c.has_sensitive_name(),
                    names: Arc::from(c.names.as_slice()),
                },
                None => CertMeta {
                    issuer: Arc::from("?"),
                    trusted: false,
                    sensitive: false,
                    names: Arc::from(&[][..]),
                },
            });
        out.push(AnnotatedRow {
            date,
            ip,
            ports,
            asn,
            country,
            cert: cert_id,
            issuer: Arc::clone(&meta.issuer),
            trusted: meta.trusted,
            sensitive: meta.sensitive,
            names: Arc::clone(&meta.names),
        });
        i = j;
    }
    out
}

/// Flatten scan records into per-registered-domain observations, sorted
/// and deduplicated (ports collapse: one observation per domain, date,
/// address and certificate).
///
/// The join runs on integer keys. Each certificate's registered domains
/// are resolved once, to ids; the distinct names are ranked once, in
/// `DomainName` order; rows are then sorted and deduplicated as plain
/// tuples led by that rank, which orders them exactly as
/// `DomainObservation`'s derived `Ord` would. Names are cloned only into
/// the rows that survive deduplication.
pub fn domain_observations(
    dataset: &ScanDataset,
    certs: &HashMap<CertId, Certificate>,
    asdb: &AsDatabase,
    trust: &TrustStore,
) -> Vec<DomainObservation> {
    type IpAnn = (Option<Asn>, Option<CountryCode>);
    /// A certificate's domain ids (`cert_ids[start..end]`) and trust bit.
    type CertDomains = (usize, usize, bool);
    type Row = (
        u32,
        Day,
        Ipv4Addr,
        Option<Asn>,
        Option<CountryCode>,
        CertId,
        bool,
    );
    // Distinct registered domains, by id.
    let mut names: Vec<DomainName> = Vec::new();
    let mut name_ids: HashMap<DomainName, u32> = HashMap::new();
    let mut cert_ids: Vec<u32> = Vec::new();
    let mut cert_memo: HashMap<CertId, CertDomains> = HashMap::new();
    let mut ip_memo: HashMap<Ipv4Addr, IpAnn> = HashMap::new();
    // Records arrive sorted by (date, ip, port), so consecutive records
    // mostly repeat the previous certificate and address.
    let mut last_cert: Option<(CertId, CertDomains)> = None;
    let mut last_ip: Option<(Ipv4Addr, IpAnn)> = None;
    let mut rows: Vec<Row> = Vec::with_capacity(dataset.len());
    for r in dataset.records() {
        let (start, end, trusted) = match last_cert {
            Some((cert, memo)) if cert == r.cert => memo,
            _ => {
                let memo = *cert_memo.entry(r.cert).or_insert_with(|| {
                    let start = cert_ids.len();
                    let Some(c) = certs.get(&r.cert) else {
                        return (start, start, false);
                    };
                    for domain in c.registered_domains() {
                        let next = names.len() as u32;
                        let id = *name_ids.entry(domain).or_insert_with_key(|d| {
                            names.push(d.clone());
                            next
                        });
                        cert_ids.push(id);
                    }
                    (start, cert_ids.len(), trust.is_browser_trusted(c.issuer))
                });
                last_cert = Some((r.cert, memo));
                memo
            }
        };
        if start == end {
            continue;
        }
        let (asn, country) = match last_ip {
            Some((ip, ann)) if ip == r.ip => ann,
            _ => {
                let ann = *ip_memo.entry(r.ip).or_insert_with(|| {
                    let a = asdb.annotate(r.ip);
                    (a.asn, a.country)
                });
                last_ip = Some((r.ip, ann));
                ann
            }
        };
        for &id in &cert_ids[start..end] {
            rows.push((id, r.date, r.ip, asn, country, r.cert, trusted));
        }
    }
    // rank[id]: the position of names[id] in sorted order.
    let mut by_name: Vec<u32> = (0..names.len() as u32).collect();
    by_name.sort_unstable_by(|&a, &b| names[a as usize].cmp(&names[b as usize]));
    let mut rank = vec![0u32; names.len()];
    for (pos, &id) in by_name.iter().enumerate() {
        rank[id as usize] = pos as u32;
    }
    for row in &mut rows {
        row.0 = rank[row.0 as usize];
    }
    rows.sort_unstable();
    rows.dedup();
    rows.into_iter()
        .map(
            |(r, date, ip, asn, country, cert, trusted)| DomainObservation {
                domain: names[by_name[r as usize] as usize].clone(),
                date,
                ip,
                asn,
                country,
                cert,
                trusted,
            },
        )
        .collect()
}

/// Render Table-1 style output for the rows securing one registered
/// domain (the kyvernisi.gr presentation in the paper).
pub fn render_table1(rows: &[AnnotatedRow], domain: &DomainName) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<11} {:<16} {:<18} {:<7} {:<3} {:<12} {:<15} {:<5} {:<4} Name(s) Secured\n",
        "Scan Date",
        "IP Address",
        "Ports (TCP)",
        "ASN",
        "CC",
        "crt.sh ID",
        "Issuing CA",
        "Trust",
        "Sens"
    ));
    for row in rows {
        let secures = row.names.iter().any(|n| {
            let concrete = if n.is_wildcard() {
                n.parent()
            } else {
                Some(n.clone())
            };
            concrete
                .map(|c| c.registered_domain() == *domain)
                .unwrap_or(false)
        });
        if !secures {
            continue;
        }
        let ports = format!(
            "[{}]",
            row.ports
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
        let names = format!(
            "[{}]",
            row.names
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
        s.push_str(&format!(
            "{:<11} {:<16} {:<18} {:<7} {:<3} {:<12} {:<15} {:<5} {:<4} {}\n",
            row.date.to_string(),
            row.ip.to_string(),
            ports,
            row.asn
                .map(|a| a.value().to_string())
                .unwrap_or_else(|| "-".into()),
            row.country
                .map(|c| c.to_string())
                .unwrap_or_else(|| "-".into()),
            row.cert.0,
            row.issuer,
            if row.trusted { "T" } else { "F" },
            if row.sensitive { "T" } else { "F" },
            names,
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::ScanRecord;
    use retrodns_asdb::{GeoTableBuilder, OrgId, OrgTableBuilder, PrefixTableBuilder};
    use retrodns_cert::authority::{CaKind, CertAuthority};
    use retrodns_cert::{CaId, KeyId};

    fn d(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn fixture() -> (
        ScanDataset,
        HashMap<CertId, Certificate>,
        AsDatabase,
        TrustStore,
    ) {
        let mut trust = TrustStore::new();
        trust.register_public(CertAuthority::new(
            CaId(1),
            "Let's Encrypt",
            CaKind::AcmeDv,
            90,
        ));
        trust.register_internal(CertAuthority::new(
            CaId(3),
            "Internal",
            CaKind::Internal,
            730,
        ));

        let mut certs = HashMap::new();
        certs.insert(
            CertId(100),
            Certificate::new(
                CertId(100),
                vec![d("mail.kyvernisi.gr")],
                CaId(1),
                Day(0),
                90,
                KeyId(1),
            ),
        );
        certs.insert(
            CertId(200),
            Certificate::new(
                CertId(200),
                vec![d("www.other.com")],
                CaId(3),
                Day(0),
                730,
                KeyId(2),
            ),
        );

        let mut p = PrefixTableBuilder::new();
        p.insert("84.205.248.0/24".parse().unwrap(), Asn(35506));
        p.insert("95.179.128.0/18".parse().unwrap(), Asn(20473));
        let mut g = GeoTableBuilder::new();
        g.insert_prefix("84.205.248.0/24".parse().unwrap(), "GR".parse().unwrap())
            .unwrap();
        g.insert_prefix("95.179.128.0/18".parse().unwrap(), "NL".parse().unwrap())
            .unwrap();
        let mut o = OrgTableBuilder::new();
        o.insert(Asn(35506), OrgId(1), "Greek Gov NOC");
        o.insert(Asn(20473), OrgId(2), "Vultr");
        let asdb = AsDatabase {
            prefixes: p.build(),
            orgs: o.build(),
            geo: g.build(),
        };

        let ds = ScanDataset::from_records(vec![
            ScanRecord {
                date: Day(0),
                ip: "84.205.248.69".parse().unwrap(),
                port: 443,
                cert: CertId(100),
            },
            ScanRecord {
                date: Day(0),
                ip: "84.205.248.69".parse().unwrap(),
                port: 993,
                cert: CertId(100),
            },
            ScanRecord {
                date: Day(7),
                ip: "95.179.131.225".parse().unwrap(),
                port: 993,
                cert: CertId(100),
            },
            ScanRecord {
                date: Day(7),
                ip: "1.2.3.4".parse().unwrap(),
                port: 443,
                cert: CertId(200),
            },
        ]);
        (ds, certs, asdb, trust)
    }

    #[test]
    fn rows_aggregate_ports_and_join_metadata() {
        let (ds, certs, asdb, trust) = fixture();
        let rows = annotate_dataset(&ds, &certs, &asdb, &trust);
        assert_eq!(rows.len(), 3);
        let first = &rows[0];
        assert_eq!(first.ports, vec![443, 993]);
        assert_eq!(first.asn, Some(Asn(35506)));
        assert_eq!(first.country.unwrap().as_str(), "GR");
        assert!(first.trusted);
        assert!(first.sensitive);
        assert_eq!(&*first.issuer, "Let's Encrypt");
    }

    #[test]
    fn internal_ca_row_is_untrusted_and_unrouted_ip_has_no_asn() {
        let (ds, certs, asdb, trust) = fixture();
        let rows = annotate_dataset(&ds, &certs, &asdb, &trust);
        let internal = rows.iter().find(|r| r.cert == CertId(200)).unwrap();
        assert!(!internal.trusted);
        assert_eq!(internal.asn, None);
        assert_eq!(&*internal.issuer, "Internal");
    }

    #[test]
    fn observations_flatten_per_registered_domain() {
        let (ds, certs, asdb, trust) = fixture();
        let obs = domain_observations(&ds, &certs, &asdb, &trust);
        let kyv: Vec<_> = obs
            .iter()
            .filter(|o| o.domain == d("kyvernisi.gr"))
            .collect();
        // Two dates × one ip each (ports collapse into one obs per date/ip).
        assert_eq!(kyv.len(), 2);
        assert!(kyv.iter().all(|o| o.trusted));
        let other: Vec<_> = obs.iter().filter(|o| o.domain == d("other.com")).collect();
        assert_eq!(other.len(), 1);
        assert!(!other[0].trusted);
    }

    /// The straightforward join `domain_observations` must reproduce:
    /// one `DomainObservation` per (record, registered domain), then a
    /// full sort and dedup.
    fn reference_observations(
        dataset: &ScanDataset,
        certs: &HashMap<CertId, Certificate>,
        asdb: &AsDatabase,
        trust: &TrustStore,
    ) -> Vec<DomainObservation> {
        let mut out = Vec::new();
        for r in dataset.records() {
            let (domains, trusted) = match certs.get(&r.cert) {
                Some(c) => (c.registered_domains(), trust.is_browser_trusted(c.issuer)),
                None => (Vec::new(), false),
            };
            let a = asdb.annotate(r.ip);
            for domain in domains {
                out.push(DomainObservation {
                    domain,
                    date: r.date,
                    ip: r.ip,
                    asn: a.asn,
                    country: a.country,
                    cert: r.cert,
                    trusted,
                });
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// SANs drawn from: plain and sensitive names, names sharing a
    /// registered domain, multi-label public suffixes and wildcards
    /// (one whose parent is a public suffix, so it secures no domain).
    const SANS: &[&str] = &[
        "mail.kyvernisi.gr",
        "www.kyvernisi.gr",
        "kyvernisi.gr",
        "*.kyvernisi.gr",
        "vpn.mfa.gov.kg",
        "*.mfa.gov.kg",
        "*.gov.kg",
        "www.other.com",
        "a.b.c.example.co.uk",
        "zeta.org",
    ];
    /// Two routed, geolocated prefixes (see `fixture`) and unrouted space.
    const IPS: &[&str] = &[
        "84.205.248.69",
        "84.205.248.70",
        "95.179.131.225",
        "1.2.3.4",
        "9.9.9.9",
    ];
    const PORTS: &[u16] = &[443, 993, 995];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        #[test]
        fn observations_match_the_reference_join(
            cert_sans in proptest::collection::vec(
                proptest::collection::vec(0..SANS.len(), 1..4),
                1..6,
            ),
            recs in proptest::collection::vec(
                (0u32..5, 0..IPS.len(), 0..PORTS.len(), 0u64..7),
                0..80,
            ),
        ) {
            let (_, _, asdb, trust) = fixture();
            let certs: HashMap<CertId, Certificate> = cert_sans
                .iter()
                .enumerate()
                .map(|(i, sans)| {
                    let id = CertId(i as u64);
                    let names = sans.iter().map(|&s| d(SANS[s])).collect();
                    // Alternate public (trusted) and internal issuers.
                    let issuer = CaId(if i % 2 == 0 { 1 } else { 3 });
                    (id, Certificate::new(id, names, issuer, Day(0), 90, KeyId(i as u64)))
                })
                .collect();
            // Cert ids past the pool are unknown to `certs`.
            let ds = ScanDataset::from_records(
                recs.iter()
                    .map(|&(week, ip, port, cert)| ScanRecord {
                        date: Day(week * 7),
                        ip: IPS[ip].parse().unwrap(),
                        port: PORTS[port],
                        cert: CertId(cert),
                    })
                    .collect(),
            );
            proptest::prop_assert_eq!(
                domain_observations(&ds, &certs, &asdb, &trust),
                reference_observations(&ds, &certs, &asdb, &trust)
            );
        }
    }

    #[test]
    fn table1_rendering_filters_by_domain() {
        let (ds, certs, asdb, trust) = fixture();
        let rows = annotate_dataset(&ds, &certs, &asdb, &trust);
        let table = render_table1(&rows, &d("kyvernisi.gr"));
        assert!(table.contains("84.205.248.69"));
        assert!(table.contains("95.179.131.225"));
        assert!(table.contains("[443, 993]"));
        assert!(!table.contains("other.com"));
        let empty = render_table1(&rows, &d("nothing.se"));
        assert_eq!(empty.lines().count(), 1); // header only
    }

    #[test]
    fn unknown_cert_id_degrades_gracefully() {
        let (_, _, asdb, trust) = fixture();
        let ds = ScanDataset::from_records(vec![ScanRecord {
            date: Day(0),
            ip: "84.205.248.69".parse().unwrap(),
            port: 443,
            cert: CertId(999),
        }]);
        let rows = annotate_dataset(&ds, &HashMap::new(), &asdb, &trust);
        assert_eq!(&*rows[0].issuer, "?");
        assert!(!rows[0].trusted);
        let obs = domain_observations(&ds, &HashMap::new(), &asdb, &trust);
        assert!(
            obs.is_empty(),
            "cert with unknown SANs attributes to no domain"
        );
    }
}
