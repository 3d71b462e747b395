//! ISO 3166-1 alpha-2 country codes.

use crate::error::ParseError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// A two-letter country code (ISO 3166-1 alpha-2), stored uppercase.
///
/// The geolocation substrate annotates every scanned IP with a
/// `CountryCode`; shortlist heuristic #2 (§4.3) prunes transient deployments
/// that geolocate to the same country as the stable deployment.
///
/// # Examples
///
/// ```
/// use retrodns_types::CountryCode;
///
/// let nl: CountryCode = "nl".parse().unwrap();
/// assert_eq!(nl.to_string(), "NL");
/// assert_eq!(nl, CountryCode::new(*b"NL"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct CountryCode([u8; 2]);

impl CountryCode {
    /// Construct from two ASCII letters. Panics if either byte is not an
    /// ASCII letter; use [`FromStr`] for fallible parsing.
    pub fn new(code: [u8; 2]) -> CountryCode {
        assert!(
            code.iter().all(|b| b.is_ascii_alphabetic()),
            "country code must be two ASCII letters"
        );
        CountryCode([code[0].to_ascii_uppercase(), code[1].to_ascii_uppercase()])
    }

    /// The code as a `&str` (always two uppercase ASCII letters).
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).expect("invariant: ASCII")
    }
}

/// Decoding applies the letter check of [`CountryCode::new`] (and its
/// uppercasing) to the two bytes as written, so a decoded code always
/// renders.
impl Deserialize for CountryCode {
    fn deserialize(r: &mut serde::json::Reader<'_>) -> Result<Self, serde::Error> {
        let code = <[u8; 2]>::deserialize(r)?;
        if !code.iter().all(u8::is_ascii_alphabetic) {
            let err = ParseError::InvalidCountryCode(format!("{code:?}"));
            return Err(serde::Error::custom(err.to_string()));
        }
        Ok(CountryCode::new(code))
    }
}

impl fmt::Display for CountryCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for CountryCode {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let b = s.as_bytes();
        if b.len() != 2 || !b.iter().all(|c| c.is_ascii_alphabetic()) {
            return Err(ParseError::InvalidCountryCode(s.to_string()));
        }
        Ok(CountryCode::new([b[0], b[1]]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_uppercases() {
        assert_eq!("gr".parse::<CountryCode>().unwrap().as_str(), "GR");
        assert_eq!("Nl".parse::<CountryCode>().unwrap().as_str(), "NL");
    }

    #[test]
    fn rejects_non_letters_and_wrong_length() {
        assert!("G1".parse::<CountryCode>().is_err());
        assert!("GRC".parse::<CountryCode>().is_err());
        assert!("G".parse::<CountryCode>().is_err());
        assert!("".parse::<CountryCode>().is_err());
    }

    #[test]
    #[should_panic(expected = "ASCII letters")]
    fn new_panics_on_digit() {
        CountryCode::new(*b"1A");
    }

    #[test]
    fn equality_ignores_input_case() {
        let a: CountryCode = "us".parse().unwrap();
        let b: CountryCode = "US".parse().unwrap();
        assert_eq!(a, b);
    }
}
