//! Hostile input for the JSON reader: whatever text it is handed,
//! [`Json::parse`] returns a value or a [`JsonError`] pointing inside the
//! input, and never panics. Inputs are arbitrary bytes, bytes drawn from
//! the JSON token alphabet (which get past the first character far more
//! often), and every single-byte edit of documents this crate writes — all
//! read as lossy UTF-8, as a reader of a damaged file would.

use anton_obs::json::JsonError;
use anton_obs::{ChannelKind, Json, TimeSeries};
use proptest::prelude::*;

/// Bytes that make up JSON documents, so random strings of them reach the
/// parser's nested, string, escape and number paths.
const ALPHABET: &[u8] = b"{}[]\",:\\/ \n\t-+.0123456789eEtrufalsnbx\xc3\xa9";

/// Parses `bytes` read as lossy UTF-8: a document or a diagnostic that
/// points inside the input.
fn parse_bytes(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    if let Err(JsonError { offset, message }) = Json::parse(&text) {
        assert!(offset <= text.len() && !message.is_empty(), "{text:?}");
    }
}

/// Documents as the crate writes them: a nested object with every value
/// kind, and a sampled time series.
fn documents() -> Vec<Vec<u8>> {
    let nested = Json::obj([
        ("schema", Json::from(2u64)),
        ("seed", Json::from(u64::MAX)),
        ("delta", Json::from(-17i64)),
        ("ratio", Json::from(0.125)),
        ("label", Json::from("tab\t \"quoted\" \u{1} é ☃ \u{1F600}")),
        (
            "flags",
            Json::arr([Json::Bool(true), Json::Bool(false), Json::Null]),
        ),
        (
            "rows",
            Json::arr([
                Json::obj([("a", Json::arr([1u64, 2, 3]))]),
                Json::obj::<&str, Json>([]),
            ]),
        ),
    ]);
    let mut ts = TimeSeries::new(10);
    ts.channel("grants", ChannelKind::Counter);
    ts.channel("occupied", ChannelKind::Gauge);
    for (cycle, raw) in [(0, [0, 3]), (10, [40, 7]), (20, [95, 1]), (25, [96, 0])] {
        ts.record(cycle, &raw);
    }
    [nested, ts.to_json()]
        .iter()
        .map(|doc| doc.to_pretty_string().into_bytes())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in collection::vec(any::<u8>(), 0..256)) {
        parse_bytes(&bytes);
    }

    #[test]
    fn token_soup_never_panics(picks in collection::vec(0..ALPHABET.len(), 0..256)) {
        let bytes: Vec<u8> = picks.into_iter().map(|i| ALPHABET[i]).collect();
        parse_bytes(&bytes);
    }
}

/// Every deletion, and every replacement or insertion of a token-alphabet
/// byte, a control byte or a byte that is not UTF-8 on its own, at every
/// position of each written document.
#[test]
fn every_one_byte_edit_of_a_written_document_never_panics() {
    let bytes = ALPHABET.iter().chain(&[0x00, 0x7F, 0x80, 0xFF]);
    for doc in documents() {
        assert!(Json::parse(std::str::from_utf8(&doc).unwrap()).is_ok());
        for at in 0..doc.len() {
            let mut edited = doc.clone();
            edited.remove(at);
            parse_bytes(&edited);
            for &b in bytes.clone() {
                let mut edited = doc.clone();
                edited[at] = b;
                parse_bytes(&edited);
                edited[at] = doc[at];
                edited.insert(at, b);
                parse_bytes(&edited);
            }
        }
    }
}
