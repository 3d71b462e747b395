//! DNS domain names, registered-domain extraction, and the paper's
//! sensitive-subdomain matching.
//!
//! The pipeline aggregates all observations (scan SANs, pDNS resolutions,
//! CT issuance) by **registered domain** — the label directly under a public
//! suffix (`kyvernisi.gr`, `mfa.gov.kg`). Because the reproduction world is
//! synthetic we do not embed the full Mozilla public-suffix list; instead we
//! embed the multi-label suffixes that actually occur in the paper's tables
//! plus the general "last label is the TLD" rule, and allow callers to
//! register additional suffixes.

use crate::error::ParseError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Subdomain substrings the paper treats as *sensitive* (§4.3): names that
/// front credential-bearing services and are therefore the targets worth
/// hijacking. Taken verbatim from the paper.
pub const SENSITIVE_SUBSTRINGS: &[&str] = &[
    "secure", "mail", "remote", "login", "logon", "portal", "admin", "owa", "vpn", "connect",
    "cloud", "signin", "citrix", "box", "account", "intranet", "imap", "smtp", "pop", "ftp", "api",
];

/// Multi-label public suffixes under which registrations occur in our world
/// (all ccTLD second-level suffixes appearing in the paper's Tables 2/3,
/// plus a few common commercial ones). Single labels are always suffixes.
const MULTI_LABEL_SUFFIXES: &[&str] = &[
    "gov.ae", "gov.al", "com.cy", "gov.cy", "gov.eg", "gov.gh", "gov.iq", "gov.jo", "gov.kg",
    "gov.kw", "com.kw", "gov.lb", "com.lb", "gov.lt", "gov.lv", "gov.ma", "gov.mm", "gov.pl",
    "gov.tm", "gov.vn", "gov.kz", "co.uk", "com.tr", "com.au", "ac.uk", "gov.gr", "gov.sy",
];

/// A fully qualified domain name, stored lowercase without a trailing dot.
///
/// Invariants enforced at construction: 1–253 characters total, labels of
/// 1–63 characters drawn from `[a-z0-9_-]` (underscore admitted for service
/// labels such as `_acme-challenge`), labels neither starting nor ending
/// with `-`. A leading `*.` wildcard label is permitted (certificate SANs).
///
/// # Examples
///
/// ```
/// use retrodns_types::DomainName;
///
/// let d: DomainName = "Mail.MFA.gov.kg".parse().unwrap();
/// assert_eq!(d.as_str(), "mail.mfa.gov.kg");
/// assert_eq!(d.registered_domain().as_str(), "mfa.gov.kg");
/// assert!(d.is_sensitive());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct DomainName(String);

impl DomainName {
    /// Parse and validate, lowercasing and stripping one trailing dot.
    pub fn new(name: &str) -> Result<DomainName, ParseError> {
        let trimmed = name.strip_suffix('.').unwrap_or(name);
        let lower = trimmed.to_ascii_lowercase();
        if !is_canonical(&lower) {
            return Err(ParseError::InvalidDomain(name.to_string()));
        }
        Ok(DomainName(lower))
    }

    /// The canonical lowercase textual form (no trailing dot).
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Labels from most specific (leftmost) to least (TLD).
    pub fn labels(&self) -> impl DoubleEndedIterator<Item = &str> {
        self.0.split('.')
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// The final label (top-level domain).
    pub fn tld(&self) -> &str {
        self.labels().next_back().expect("non-empty invariant")
    }

    /// Is this name a wildcard SAN pattern (`*.example.com`)?
    pub fn is_wildcard(&self) -> bool {
        self.0.starts_with("*.")
    }

    /// The *public suffix* of this name: the longest matching entry from the
    /// embedded multi-label suffix list, otherwise the TLD alone.
    pub fn public_suffix(&self) -> &str {
        for suffix in MULTI_LABEL_SUFFIXES {
            if self.0 == *suffix {
                return &self.0;
            }
            if let Some(head) = self.0.strip_suffix(suffix) {
                if head.ends_with('.') {
                    return &self.0[self.0.len() - suffix.len()..];
                }
            }
        }
        self.tld()
    }

    /// Is this name itself a public suffix (a TLD or a listed second-level
    /// suffix such as `gov.kg`)?
    pub fn is_public_suffix(&self) -> bool {
        self.0 == self.public_suffix()
    }

    /// The registered domain: one label below the public suffix.
    ///
    /// If the name *is* a public suffix, it is returned unchanged — callers
    /// that need to distinguish should check [`Self::is_public_suffix`].
    pub fn registered_domain(&self) -> DomainName {
        let suffix = self.public_suffix();
        if self.0 == suffix {
            return self.clone();
        }
        let head = &self.0[..self.0.len() - suffix.len() - 1]; // strip ".suffix"
        let last_label = head.rsplit('.').next().expect("non-empty head");
        DomainName(format!("{last_label}.{suffix}"))
    }

    /// The subdomain part relative to the registered domain, if any
    /// (`"mail"` for `mail.mfa.gov.kg`; `None` for `mfa.gov.kg` itself).
    pub fn subdomain_part(&self) -> Option<&str> {
        let reg = self.registered_domain();
        if self.0 == reg.0 {
            return None;
        }
        Some(&self.0[..self.0.len() - reg.0.len() - 1])
    }

    /// Is `self` equal to `other` or underneath it in the DNS tree?
    pub fn is_subdomain_of(&self, other: &DomainName) -> bool {
        self.0 == other.0
            || (self.0.len() > other.0.len()
                && self.0.ends_with(other.0.as_str())
                && self.0.as_bytes()[self.0.len() - other.0.len() - 1] == b'.')
    }

    /// The parent name (one label removed), or `None` at the TLD.
    pub fn parent(&self) -> Option<DomainName> {
        self.0
            .split_once('.')
            .map(|(_, rest)| DomainName(rest.to_string()))
    }

    /// Prepend a label, producing a child name.
    pub fn child(&self, label: &str) -> Result<DomainName, ParseError> {
        DomainName::new(&format!("{label}.{}", self.0))
    }

    /// Does this (possibly wildcard) SAN pattern match the concrete `name`?
    ///
    /// Wildcards match exactly one additional label, per RFC 6125 §6.4.3
    /// (`*.example.com` matches `mail.example.com` but not
    /// `a.b.example.com` nor `example.com` itself).
    pub fn san_matches(&self, name: &DomainName) -> bool {
        if !self.is_wildcard() {
            return self == name;
        }
        let base = &self.0[2..];
        match name.0.strip_suffix(base) {
            Some(head) => {
                let head = match head.strip_suffix('.') {
                    Some(h) => h,
                    None => return false,
                };
                !head.is_empty() && !head.contains('.')
            }
            None => false,
        }
    }

    /// Does this name match the paper's *sensitive subdomain* criterion
    /// (§4.3), i.e. does a service-naming label contain one of
    /// [`SENSITIVE_SUBSTRINGS`]?
    ///
    /// Two cases count:
    ///
    /// * the subdomain part below the registered domain
    ///   (`mail` in `mail.mfa.gov.kg`);
    /// * the registered domain's own label when it sits directly under a
    ///   *multi-label* public suffix (`webmail` in `webmail.gov.cy` — under
    ///   registry suffixes like `gov.cy` the registrant label itself names
    ///   the service; several of the paper's Table 2 victims are of this
    ///   form).
    ///
    /// An ordinary commercial registration is *not* sensitive by virtue of
    /// its own name (`mailchimp.com` stays benign).
    pub fn is_sensitive(&self) -> bool {
        if let Some(sub) = self.subdomain_part() {
            return SENSITIVE_SUBSTRINGS.iter().any(|s| sub.contains(s));
        }
        let suffix = self.public_suffix();
        if suffix.contains('.') && self.0 != suffix {
            let own_label = self.labels().next().expect("non-empty invariant");
            return SENSITIVE_SUBSTRINGS.iter().any(|s| own_label.contains(s));
        }
        false
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl FromStr for DomainName {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DomainName::new(s)
    }
}

/// Does `name` already satisfy every [`DomainName`] invariant, in the
/// canonical form (lowercase, no trailing dot)?
fn is_canonical(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 253
        && name
            .split('.')
            .enumerate()
            .all(|(i, label)| (i == 0 && label == "*") || valid_label(label))
}

/// Decoding validates like [`DomainName::new`]: data directories and
/// request bodies come from outside the program. A name already in
/// canonical form (the form this type writes) is kept as read.
impl Deserialize for DomainName {
    fn deserialize(r: &mut serde::json::Reader<'_>) -> Result<Self, serde::Error> {
        let name = r.string()?;
        if is_canonical(&name) {
            return Ok(DomainName(name));
        }
        DomainName::new(&name).map_err(|e| serde::Error::custom(e.to_string()))
    }
}

/// Validate one (non-wildcard) label.
fn valid_label(label: &str) -> bool {
    if label.is_empty() || label.len() > 63 {
        return false;
    }
    if label.starts_with('-') || label.ends_with('-') {
        return false;
    }
    label
        .bytes()
        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-' || b == b'_')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> DomainName {
        DomainName::new(s).unwrap()
    }

    #[test]
    fn parse_normalizes() {
        assert_eq!(d("Mail.Example.COM.").as_str(), "mail.example.com");
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            ".",
            "a..b",
            "-bad.com",
            "bad-.com",
            "exa mple.com",
            &("x".repeat(64) + ".com"),
            &["a"; 130].join("."), // > 253 chars
            "mid.*.wild.com",      // wildcard only allowed leftmost
        ] {
            assert!(DomainName::new(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn underscore_service_labels_allowed() {
        assert_eq!(d("_acme-challenge.mfa.gov.kg").label_count(), 4);
    }

    #[test]
    fn registered_domain_with_multilabel_suffix() {
        assert_eq!(d("mail.mfa.gov.kg").registered_domain(), d("mfa.gov.kg"));
        assert_eq!(d("mfa.gov.kg").registered_domain(), d("mfa.gov.kg"));
        assert_eq!(
            d("a.b.c.kyvernisi.gr").registered_domain(),
            d("kyvernisi.gr")
        );
        assert_eq!(d("mbox.cyta.com.cy").registered_domain(), d("cyta.com.cy"));
    }

    #[test]
    fn public_suffix_itself() {
        assert!(d("gov.kg").is_public_suffix());
        assert!(d("kg").is_public_suffix());
        assert!(!d("mfa.gov.kg").is_public_suffix());
        // A name *containing* a suffix string but not on a label boundary is
        // not under that suffix.
        assert_eq!(d("xgov.kg").public_suffix(), "kg");
        assert_eq!(d("xgov.kg").registered_domain(), d("xgov.kg"));
    }

    #[test]
    fn subdomain_part() {
        assert_eq!(d("mail.mfa.gov.kg").subdomain_part(), Some("mail"));
        assert_eq!(d("a.b.mfa.gov.kg").subdomain_part(), Some("a.b"));
        assert_eq!(d("mfa.gov.kg").subdomain_part(), None);
    }

    #[test]
    fn subdomain_relationships() {
        assert!(d("mail.mfa.gov.kg").is_subdomain_of(&d("mfa.gov.kg")));
        assert!(d("mfa.gov.kg").is_subdomain_of(&d("mfa.gov.kg")));
        assert!(!d("mfa.gov.kg").is_subdomain_of(&d("fa.gov.kg"))); // not a label boundary
        assert!(!d("mfa.gov.kg").is_subdomain_of(&d("mail.mfa.gov.kg")));
    }

    #[test]
    fn parent_and_child() {
        assert_eq!(d("mail.mfa.gov.kg").parent(), Some(d("mfa.gov.kg")));
        assert_eq!(d("kg").parent(), None);
        assert_eq!(d("mfa.gov.kg").child("mail").unwrap(), d("mail.mfa.gov.kg"));
        assert!(d("mfa.gov.kg").child("bad label").is_err());
    }

    #[test]
    fn wildcard_san_matching() {
        let wild = d("*.example.com");
        assert!(wild.is_wildcard());
        assert!(wild.san_matches(&d("mail.example.com")));
        assert!(!wild.san_matches(&d("example.com")));
        assert!(!wild.san_matches(&d("a.b.example.com")));
        assert!(!wild.san_matches(&d("mail.examples.com")));
        let plain = d("mail.example.com");
        assert!(plain.san_matches(&d("mail.example.com")));
        assert!(!plain.san_matches(&d("example.com")));
    }

    #[test]
    fn sensitive_matching_follows_paper_list() {
        for name in [
            "mail.mfa.gov.kg",
            "webmail.gov.cy",        // "webmail" contains "mail"
            "advpn.adpolice.gov.ae", // contains "vpn"
            "dnsnodeapi.netnod.se",  // contains "api"
            "mail2010.kotc.com.kw",
            "sslvpn.defa.com.cy",
            "keriomail.pch.net",
        ] {
            assert!(d(name).is_sensitive(), "{name} should be sensitive");
        }
        for name in ["www.example.com", "mfa.gov.kg", "static.example.com"] {
            assert!(!d(name).is_sensitive(), "{name} should not be sensitive");
        }
        // Registered-domain label alone never triggers sensitivity.
        assert!(!d("mailhost.com").is_sensitive());
        assert_eq!(SENSITIVE_SUBSTRINGS.len(), 21);
    }
}
