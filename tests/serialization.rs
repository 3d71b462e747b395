//! Serde round-trips: the derives on the public types are part of the
//! API contract (datasets, reports and configs must be archivable), so
//! every major structure must survive a JSON round-trip unchanged.

mod common;

use retrodns::core::pipeline::{PipelineConfig, Report};
use retrodns::scan::ScanDataset;
use retrodns::sim::{GroundTruth, SimConfig, World};
use retrodns::types::{Asn, CountryCode, Day, DomainName, Ipv4Addr, Ipv4Prefix, StudyWindow};

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

#[test]
fn value_types_round_trip() {
    let day: Day = "2020-12-21".parse().unwrap();
    assert_eq!(roundtrip(&day), day);
    let asn = Asn(20473);
    assert_eq!(roundtrip(&asn), asn);
    let ip: Ipv4Addr = "94.103.91.159".parse().unwrap();
    assert_eq!(roundtrip(&ip), ip);
    let prefix: Ipv4Prefix = "95.179.128.0/18".parse().unwrap();
    assert_eq!(roundtrip(&prefix), prefix);
    let name: DomainName = "mail.mfa.gov.kg".parse().unwrap();
    assert_eq!(roundtrip(&name), name);
    let window = StudyWindow::default();
    assert_eq!(roundtrip(&window), window);
}

#[test]
fn scan_dataset_round_trips() {
    let world = World::build(SimConfig::small(200));
    let dataset = world.scan();
    let back: ScanDataset = roundtrip(&dataset);
    assert_eq!(back, dataset);
}

#[test]
fn report_and_ground_truth_round_trip() {
    let world = World::build(SimConfig::small(201));
    let observations = common::observations_of(&world);
    let pipeline = common::pipeline_for(&world);
    let report = pipeline.run(&common::InputsBuilder::new(&world, &observations).build());
    let back: Report = roundtrip(&report);
    assert_eq!(back.hijacked_domains(), report.hijacked_domains());
    assert_eq!(back.targeted_domains(), report.targeted_domains());
    assert_eq!(back.funnel.shortlisted, report.funnel.shortlisted);

    let gt: GroundTruth = roundtrip(&world.ground_truth);
    assert_eq!(gt.hijacked.len(), world.ground_truth.hijacked.len());

    let cfg: PipelineConfig = roundtrip(&pipeline.config);
    assert_eq!(
        cfg.classify.transient_max_days,
        pipeline.config.classify.transient_max_days
    );
    let sim_cfg: SimConfig = roundtrip(&world.config);
    assert_eq!(sim_cfg.n_domains, world.config.n_domains);
}

#[test]
fn observation_archives_round_trip() {
    let world = World::build(SimConfig::small(202));
    let pdns: retrodns::dns::PassiveDns = roundtrip(&world.pdns);
    assert_eq!(pdns.len(), world.pdns.len());
    let zones: retrodns::dns::ZoneSnapshotArchive = roundtrip(&world.zones);
    assert_eq!(zones.access_count(), world.zones.access_count());
    let dnssec: retrodns::dns::DnssecArchive = roundtrip(&world.dnssec);
    assert_eq!(dnssec.len(), world.dnssec.len());
}

// ---------------------------------------------------------------------------
// Decode semantics, pinned case by case. Each row is (JSON text, target
// type, expected value or a substring of the expected error; `""` accepts
// any error). Data directories and HTTP bodies come from outside the
// program, so what the decoder accepts, rejects and how it reports a
// rejection is part of the contract.
// ---------------------------------------------------------------------------

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Debug;
use std::sync::Arc;

#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct Rec {
    a: u32,
    b: Option<String>,
    #[serde(default)]
    c: Vec<u8>,
    #[serde(skip)]
    d: u8,
}

#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
enum Shape {
    Unit,
    New(u32),
    Pair(u8, bool),
    Named {
        x: i32,
        #[serde(default)]
        y: bool,
    },
}

#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct Tup(u8, String);

#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct Newt(u64);

#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct Nothing;

fn rec(a: u32) -> Rec {
    Rec {
        a,
        b: None,
        c: Vec::new(),
        d: 0,
    }
}

/// Decode `json` as `T` and compare with `want`: an `Ok` value must be
/// equal, an `Err` must contain the given substring.
fn case<T>(json: &str, want: Result<T, &str>) -> Result<(), String>
where
    T: serde::de::DeserializeOwned + PartialEq + Debug,
{
    match (serde_json::from_str::<T>(json), want) {
        (Ok(got), Ok(want)) if got == want => Ok(()),
        (Err(e), Err(sub)) if e.to_string().contains(sub) => Ok(()),
        (got, want) => Err(format!(
            "{} from {json:?}: got {got:?}, want {want:?}",
            std::any::type_name::<T>()
        )),
    }
}

fn run_cases(cases: Vec<Result<(), String>>) {
    let failures: Vec<String> = cases.into_iter().filter_map(Result::err).collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn decode_numbers_follow_the_conversion_rules() {
    run_cases(vec![
        case::<u32>("3.0", Ok(3)),
        case::<u32>("  7 ", Ok(7)),
        case::<u32>("007", Ok(7)),
        case::<u32>("-1", Err("out of unsigned range")),
        case::<u32>("3.5", Err("out of unsigned range")),
        case::<u8>("256", Err("integer out of range")),
        case::<u64>("18446744073709551615", Ok(u64::MAX)),
        case::<u64>("18446744073709551616", Err("bad number")),
        case::<i64>("9223372036854775807", Ok(i64::MAX)),
        case::<i64>("9223372036854775808", Err("integer out of range")),
        case::<i8>("-129", Err("integer out of range")),
        case::<i32>("-5", Ok(-5)),
        case::<i32>("-0", Ok(0)),
        case::<i32>("2.0", Ok(2)),
        case::<f64>("1e3", Ok(1000.0)),
        case::<f64>("7", Ok(7.0)),
        case::<f64>("-0.5", Ok(-0.5)),
        case::<f64>("null", Err("expected float, got null")),
        case::<u32>("\"3\"", Err("expected unsigned integer, got string")),
        case::<u32>("null", Err("expected unsigned integer, got null")),
        case::<i32>("[1]", Err("expected integer, got array")),
        case::<u32>("1-2", Err("bad number")),
        case::<u32>("-", Err("")),
        case::<u32>("x", Err("")),
        case::<bool>("true", Ok(true)),
        case::<bool>("1", Err("expected bool, got number")),
        case::<bool>("tru", Err("")),
        case::<()>("null", Ok(())),
        case::<()>("0", Err("expected null")),
    ]);
}

#[test]
fn decode_strings_and_escapes() {
    run_cases(vec![
        case::<String>(
            r#""a\"b\\c\/d\n\t\r\b\f""#,
            Ok("a\"b\\c/d\n\t\r\u{8}\u{c}".to_string()),
        ),
        case::<String>(r#""é中""#, Ok("é中".to_string())),
        case::<String>(r#""😀""#, Ok("😀".to_string())),
        case::<String>("\"héllo, 世界\"", Ok("héllo, 世界".to_string())),
        case::<String>(r#""""#, Ok(String::new())),
        case::<String>(r#""\ud800""#, Err("surrogate")),
        case::<String>(r#""\udc00""#, Err("")),
        case::<String>(r#""\x""#, Err("bad escape")),
        case::<String>(r#""\u12""#, Err("")),
        case::<String>("\"abc", Err("unterminated string")),
        case::<String>("5", Err("expected string, got number")),
        case::<char>("\"x\"", Ok('x')),
        case::<char>("\"xy\"", Err("single-char string")),
        case::<Box<u8>>("4", Ok(Box::new(4))),
        case::<Arc<str>>("\"ab\"", Ok(Arc::from("ab"))),
        case::<Arc<[u8]>>("[1,2]", Ok(Arc::from(&[1u8, 2][..]))),
    ]);
}

#[test]
fn decode_structs_skip_unknown_keys_and_take_the_first_duplicate() {
    run_cases(vec![
        case::<Rec>(r#"{"a":1}"#, Ok(rec(1))),
        case::<Rec>(
            r#"{"a":1,"b":"x","c":[1,2],"d":9}"#,
            Ok(Rec {
                a: 1,
                b: Some("x".into()),
                c: vec![1, 2],
                d: 0,
            }),
        ),
        case::<Rec>(r#"{"b":null,"a":1}"#, Ok(rec(1))),
        case::<Rec>(
            r#"{"zz":{"deep":[1,{"x":null}],"s":"\n"},"a":2}"#,
            Ok(rec(2)),
        ),
        case::<Rec>(r#"{"a":1,"a":2}"#, Ok(rec(1))),
        case::<Rec>(r#"{"a":1,"a":"not checked"}"#, Ok(rec(1))),
        case::<Rec>(r#" { "a" : 4 , "c" : [ ] } "#, Ok(rec(4))),
        case::<Rec>(r#"{"b":"x"}"#, Err("missing field")),
        case::<Rec>(
            r#"{"a":"x"}"#,
            Err("a: expected unsigned integer, got string"),
        ),
        case::<Rec>(r#"{"a":1,"c":[1,300]}"#, Err("c: integer out of range")),
        case::<Rec>(r#"[1]"#, Err("expected object for Rec, got array")),
        case::<Rec>(r#"{"a":1,"zz":[1,}"#, Err("")),
        case::<Rec>(r#"{"a":1,"zz":tru}"#, Err("")),
        case::<Rec>(r#"{"a":1,}"#, Err("")),
        case::<Rec>(r#"{"a" 1}"#, Err("")),
        case::<Rec>(r#"{"a":1 "b":null}"#, Err("")),
        case::<Rec>(r#"{"a":1} x"#, Err("trailing input")),
        case::<Rec>(r#"{"a":1"#, Err("")),
        case::<Rec>("", Err("unexpected end of input")),
        case::<Nothing>("null", Ok(Nothing)),
        case::<Nothing>("{}", Err("expected null for Nothing, got object")),
        case::<Newt>("5", Ok(Newt(5))),
        case::<Tup>(r#"[7,"x"]"#, Ok(Tup(7, "x".into()))),
        case::<Tup>("[7]", Err("2-element array for Tup")),
        case::<Tup>(r#"[7,"x",1]"#, Err("2-element array for Tup")),
    ]);
}

#[test]
fn decode_enums_in_all_three_variant_forms() {
    run_cases(vec![
        case::<Shape>(r#""Unit""#, Ok(Shape::Unit)),
        case::<Shape>(r#"{"New":5}"#, Ok(Shape::New(5))),
        case::<Shape>(r#"{"Pair":[1,true]}"#, Ok(Shape::Pair(1, true))),
        case::<Shape>(
            r#"{"Named":{"x":-3}}"#,
            Ok(Shape::Named { x: -3, y: false }),
        ),
        case::<Shape>(
            r#"{"Named":{"y":true,"x":2,"q":0}}"#,
            Ok(Shape::Named { x: 2, y: true }),
        ),
        case::<Shape>(r#"{"Pair":[1]}"#, Err("2-element array for Shape::Pair")),
        case::<Shape>(r#"{"Named":{"y":true}}"#, Err("missing field")),
        case::<Shape>(r#"{"Named":[1]}"#, Err("object for Shape::Named")),
        case::<Shape>(
            r#"{"New":1,"Unit":null}"#,
            Err("expected Shape variant, got object"),
        ),
        case::<Shape>(
            r#"{"New":1,"New":2}"#,
            Err("expected Shape variant, got object"),
        ),
        case::<Shape>("{}", Err("expected Shape variant, got object")),
        case::<Shape>(r#""Nope""#, Err("unknown Shape variant")),
        case::<Shape>(r#""New""#, Err("unknown Shape variant")),
        case::<Shape>(r#"{"Unit":null}"#, Err("unknown Shape variant")),
        case::<Shape>("3", Err("expected Shape variant, got number")),
    ]);
}

#[test]
fn decode_collections_tuples_and_map_keys() {
    let map = |pairs: &[(u32, &str)]| -> BTreeMap<u32, String> {
        pairs.iter().map(|(k, v)| (*k, v.to_string())).collect()
    };
    run_cases(vec![
        case::<Vec<u8>>("[]", Ok(vec![])),
        case::<Vec<u8>>("[1, 2]", Ok(vec![1, 2])),
        case::<Vec<u8>>("[1,]", Err("")),
        case::<Vec<u8>>("[1 2]", Err("")),
        case::<Vec<u8>>("{}", Err("expected array, got object")),
        case::<Option<u8>>("null", Ok(None)),
        case::<Option<u8>>("4", Ok(Some(4))),
        case::<(u8, String)>(r#"[1,"a"]"#, Ok((1, "a".into()))),
        case::<(u8, String)>("[1]", Err("expected 2-tuple, got array of 1")),
        case::<[u8; 3]>("[1,2,3]", Ok([1, 2, 3])),
        case::<[u8; 3]>("[1,2]", Err("expected array of length 3, got 2")),
        case::<BTreeSet<u8>>("[3,1,3]", Ok([1, 3].into_iter().collect())),
        case::<BTreeMap<u32, String>>(r#"{"5":"a","10":"b"}"#, Ok(map(&[(5, "a"), (10, "b")]))),
        case::<BTreeMap<(u8, u8), u8>>(r#"{"[1,2]":3}"#, Ok([((1, 2), 3)].into_iter().collect())),
        case::<BTreeMap<String, u8>>(
            r#"{"5":1}"#,
            Ok([("5".to_string(), 1)].into_iter().collect()),
        ),
        case::<BTreeMap<String, u8>>(
            r#"{"a":1,"a":2}"#,
            Ok([("a".to_string(), 2)].into_iter().collect()),
        ),
        case::<HashMap<u32, u8>>(r#"{"x":1}"#, Err("unparseable map key")),
        case::<HashMap<u8, u8>>(r#"{"300":1}"#, Err("map key")),
        case::<HashMap<u8, u8>>("[]", Err("expected object, got array")),
        case::<serde::Value>(
            r#"{"a":[1,-2,3.5,"s",null,true],"b":{}}"#,
            Ok(serde::Value::Object(vec![
                (
                    "a".into(),
                    serde::Value::Array(vec![
                        serde::Value::Num(serde::Number::U(1)),
                        serde::Value::Num(serde::Number::I(-2)),
                        serde::Value::Num(serde::Number::F(3.5)),
                        serde::Value::Str("s".into()),
                        serde::Value::Null,
                        serde::Value::Bool(true),
                    ]),
                ),
                ("b".into(), serde::Value::Object(vec![])),
            ])),
        ),
    ]);
}

#[test]
fn decode_rejects_malformed_surrogates_and_round_trips_i64_min() {
    let min = serde_json::to_string(&i64::MIN).unwrap();
    run_cases(vec![
        case::<String>(r#""\ud800A""#, Err("surrogate")),
        case::<String>(r#""\ud800\ud800""#, Err("surrogate")),
        case::<String>(r#""􏿿""#, Ok("\u{10FFFF}".to_string())),
        case::<i64>(&min, Ok(i64::MIN)),
        case::<i64>("-9223372036854775809", Err("")),
        case::<i8>("-128", Ok(i8::MIN)),
    ]);
}

#[test]
fn decode_names_the_missing_field() {
    run_cases(vec![
        case::<Rec>(r#"{"b":"x"}"#, Err("a: missing field")),
        case::<Shape>(r#"{"Named":{"y":true}}"#, Err("x: missing field")),
    ]);
}

#[test]
fn decode_validates_domain_names_and_country_codes() {
    let name = |s: &str| DomainName::new(s).unwrap();
    run_cases(vec![
        case::<DomainName>(r#""mail.example.com""#, Ok(name("mail.example.com"))),
        case::<DomainName>(r#""MAIL.Example.COM.""#, Ok(name("mail.example.com"))),
        case::<DomainName>(r#""*.example.com""#, Ok(name("*.example.com"))),
        case::<DomainName>(r#""""#, Err("invalid domain")),
        case::<DomainName>(r#""a..b""#, Err("invalid domain")),
        case::<DomainName>(r#""-a.com""#, Err("invalid domain")),
        case::<DomainName>("5", Err("expected string, got number")),
        case::<CountryCode>("[78,76]", Ok(CountryCode::new(*b"NL"))),
        case::<CountryCode>("[110,108]", Ok(CountryCode::new(*b"NL"))),
        case::<CountryCode>("[255,255]", Err("country code")),
        case::<CountryCode>("[49,65]", Err("country code")),
        case::<CountryCode>("[78]", Err("")),
        case::<CountryCode>(r#""NL""#, Err("")),
    ]);
    // Decoding goes through the constructors, so the written form of a
    // decoded value is the canonical one.
    let d: DomainName = serde_json::from_str(r#""Mail.MFA.gov.kg""#).unwrap();
    assert_eq!(serde_json::to_string(&d).unwrap(), r#""mail.mfa.gov.kg""#);
    assert_eq!(
        serde_json::to_string(&CountryCode::new(*b"gr")).unwrap(),
        "[71,82]"
    );
}

#[test]
fn decode_caps_nesting_in_untyped_and_skipped_input() {
    let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    let nested = deep(100_000);
    run_cases(vec![
        case::<serde::Value>(&deep(200), Ok(serde_json::from_str(&deep(200)).unwrap())),
        case::<serde::Value>(&nested, Err("nesting deeper than")),
        case::<Rec>(
            &format!(r#"{{"a":1,"zz":{nested}}}"#),
            Err("nesting deeper than"),
        ),
    ]);
}

// ---------------------------------------------------------------------------
// Fuzz: whatever the bytes, decoding returns `Ok` or `Err` and never
// panics (the tier-1 suite runs in debug, so arithmetic overflow panics).
// ---------------------------------------------------------------------------

use proptest::prelude::*;

/// JSON-ish fragments: structural tokens, escapes (surrogate halves
/// among them), numbers at the integer limits, keywords and raw bytes.
const FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\"a\"",
    "\"date\"",
    "\"records\"",
    "\\u",
    "\\ud800",
    "\\udbff",
    "\\udc00",
    "\\udfff",
    "\\u0041",
    "\\u00e9",
    "\\n",
    "\\\\",
    "\\",
    "0",
    "7",
    "-",
    ".",
    "e",
    "+",
    "18446744073709551616",
    "-9223372036854775808",
    "3.0",
    "null",
    "true",
    "false",
    " ",
    "é",
    "\u{1F600}",
];

fn decode_all(bytes: &[u8]) {
    let _ = serde_json::from_slice::<serde::Value>(bytes);
    let _ = serde_json::from_slice::<String>(bytes);
    let _ = serde_json::from_slice::<i64>(bytes);
    let _ = serde_json::from_slice::<Rec>(bytes);
    let _ = serde_json::from_slice::<Shape>(bytes);
    let _ = serde_json::from_slice::<BTreeMap<(u8, u8), Vec<f64>>>(bytes);
    let _ = serde_json::from_slice::<ScanDataset>(bytes);
    let _ = serde_json::from_slice::<Report>(bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decoding_random_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        decode_all(&bytes);
    }

    #[test]
    fn decoding_json_fragment_soup_never_panics(
        picks in proptest::collection::vec(0..FRAGMENTS.len(), 0..24),
    ) {
        let text: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        decode_all(text.as_bytes());
        decode_all(format!("\"{text}\"").as_bytes());
    }
}

#[test]
fn decoding_every_truncation_of_real_documents_never_panics() {
    let world = World::build(SimConfig::small(203));
    let records: Vec<_> = world.scan().records().iter().take(40).copied().collect();
    let dataset = serde_json::to_vec(&ScanDataset::from_records(records)).unwrap();
    let (_, report) = common::run_world(204);
    let report = serde_json::to_vec(&report).unwrap();
    for doc in [&dataset, &report] {
        for end in 0..doc.len() {
            decode_all(&doc[..end]);
            assert!(serde_json::from_slice::<serde::Value>(&doc[..end]).is_err());
        }
    }
    assert!(serde_json::from_slice::<ScanDataset>(&dataset).is_ok());
    assert!(serde_json::from_slice::<Report>(&report).is_ok());
}
