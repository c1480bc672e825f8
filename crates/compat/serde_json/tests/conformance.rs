//! Reader and writer conformance: the exact JSON the derived impls write, and
//! every shape rule and coercion the reader applies.

use serde::{Deserialize, Serialize};
use serde_json::{from_str, to_string};
use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Inner {
    x: f64,
    tag: Option<u32>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    Newtype(u32),
    Pair(u8, i64),
    Named { a: bool, b: String },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Wrapper(u32);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Point(u8, f64);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Marker;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Outer {
    id: u64,
    inner: Inner,
    shapes: Vec<Shape>,
    arr: [u64; 3],
    map: BTreeMap<u32, String>,
    note: Option<String>,
    pair: (u8, f64),
    wrapped: Wrapper,
}

fn sample() -> Outer {
    Outer {
        id: 7,
        inner: Inner { x: 0.5, tag: None },
        shapes: vec![
            Shape::Unit,
            Shape::Newtype(3),
            Shape::Pair(1, -2),
            Shape::Named {
                a: true,
                b: "q\"\n\\\u{1}".to_string(),
            },
        ],
        arr: [1, 2, 3],
        map: BTreeMap::from([(1, "a".to_string()), (2, String::new())]),
        note: Some("n".to_string()),
        pair: (4, 1e-300),
        wrapped: Wrapper(9),
    }
}

const SAMPLE_JSON: &str = r#"{"id":7,"inner":{"x":0.5,"tag":null},"shapes":["Unit",{"Newtype":3},{"Pair":[1,-2]},{"Named":{"a":true,"b":"q\"\n\\\u0001"}}],"arr":[1,2,3],"map":[[1,"a"],[2,""]],"note":"n","pair":[4,1e-300],"wrapped":9}"#;

#[test]
fn derived_types_write_the_pinned_text_and_read_it_back() {
    assert_eq!(to_string(&sample()).unwrap(), SAMPLE_JSON);
    assert_eq!(from_str::<Outer>(SAMPLE_JSON).unwrap(), sample());
}

#[test]
fn pretty_printed_input_parses() {
    let pretty = "\n {\r\n\t\"id\" : 7 ,\n  \"inner\": { \"x\": 0.5, \"tag\": null },\n  \
                  \"shapes\": [ \"Unit\", { \"Newtype\" : 3 }, {\"Pair\": [ 1 , -2 ]},\n    \
                  {\"Named\": {\"a\": true, \"b\": \"q\\\"\\n\\\\\\u0001\"}} ],\n  \
                  \"arr\": [1, 2, 3], \"map\": [ [1, \"a\"], [2, \"\"] ],\n  \
                  \"note\": \"n\", \"pair\": [4, 1e-300], \"wrapped\": 9\n}\n ";
    assert_eq!(from_str::<Outer>(pretty).unwrap(), sample());
}

#[test]
fn floats_round_trip_bit_identically() {
    for x in [
        0.1 + 0.2,
        1.0,
        -0.0,
        1e-300,
        f64::MIN_POSITIVE,
        5e-324,
        f64::MAX,
        1.0 / 3.0,
        123_456_789.125,
    ] {
        let text = to_string(&x).unwrap();
        assert_eq!(
            from_str::<f64>(&text).unwrap().to_bits(),
            x.to_bits(),
            "{text}"
        );
    }
    assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
    assert_eq!(to_string(&0.25f32).unwrap(), "0.25");
}

#[test]
fn non_finite_floats_are_tokens() {
    assert_eq!(
        to_string(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]).unwrap(),
        "[NaN,inf,-inf]"
    );
    let back: Vec<f64> = from_str("[NaN, inf, -inf]").unwrap();
    assert!(back[0].is_nan());
    assert_eq!(&back[1..], &[f64::INFINITY, f64::NEG_INFINITY]);
    assert!(from_str::<f64>("-NaN").is_err());
    assert!(
        from_str::<u32>("inf").is_err(),
        "non-finite tokens are floats"
    );
}

#[test]
fn integers_round_trip_at_their_extremes() {
    assert_eq!(to_string(&u64::MAX).unwrap(), "18446744073709551615");
    assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
    assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
    assert_eq!(from_str::<i32>("-7").unwrap(), -7);
    assert!(from_str::<u64>("18446744073709551616").is_err());
    assert!(from_str::<i64>("9223372036854775808").is_err());
    assert!(from_str::<u8>("300").is_err());
    assert!(from_str::<i8>("-129").is_err());
}

#[test]
fn shape_mismatches_are_errors() {
    assert!(from_str::<u32>(r#""3""#).is_err());
    assert!(from_str::<bool>("1").is_err());
    assert!(from_str::<Vec<u32>>("false").is_err());
    assert!(from_str::<String>("null").is_err());
    assert!(from_str::<Inner>("[1.0,null]").is_err());
    assert!(from_str::<Option<u32>>("nul").is_err());
    let xs: Vec<(u32, f64)> = vec![(1, 0.125), (2, 1.0 / 3.0)];
    assert_eq!(
        from_str::<Vec<(u32, f64)>>(&to_string(&xs).unwrap()).unwrap(),
        xs
    );
}

#[test]
fn missing_fields_are_errors_including_options() {
    let no_tag = from_str::<Inner>(r#"{"x":1.0}"#).unwrap_err();
    assert!(
        no_tag.to_string().contains("missing field `tag`"),
        "{no_tag}"
    );
    assert!(from_str::<Inner>(r#"{"tag":null}"#).is_err());
    assert!(from_str::<Inner>("{}").is_err());
    assert_eq!(
        from_str::<Inner>(r#"{"x":1.0,"tag":null}"#).unwrap(),
        Inner { x: 1.0, tag: None }
    );
}

#[test]
fn unknown_keys_are_skipped_and_the_first_duplicate_wins() {
    let text = r#"{"zz":{"deep":[1,{"a":null},"s\"",NaN,-inf,true]},"x":2.5,
                  "tag":3,"x":"ignored, not even a number","tag":null}"#;
    assert_eq!(
        from_str::<Inner>(text).unwrap(),
        Inner {
            x: 2.5,
            tag: Some(3)
        }
    );
    // Skipped values must still be well-formed JSON.
    assert!(from_str::<Inner>(r#"{"x":1.0,"tag":1,"zz":[1,}"#).is_err());
    assert!(from_str::<Inner>(r#"{"x":1.0,"tag":1,"zz":1-2}"#).is_err());
    assert!(from_str::<Inner>(r#"{"x":1.0,"tag":1,"x":tru}"#).is_err());
}

#[test]
fn integer_tokens_fill_floats() {
    assert_eq!(from_str::<f64>("3").unwrap(), 3.0);
    assert_eq!(from_str::<f64>("-3").unwrap(), -3.0);
    assert_eq!(
        from_str::<f64>("18446744073709551615").unwrap(),
        u64::MAX as f64
    );
    assert_eq!(from_str::<f32>("2").unwrap(), 2.0);
}

#[test]
fn unsigned_fields_reject_negatives_and_floats() {
    assert!(from_str::<u32>("-1").is_err());
    assert!(from_str::<u64>("1.0").is_err());
    assert!(from_str::<u64>("1e3").is_err());
    assert!(from_str::<usize>("-5").is_err());
    assert!(from_str::<i64>("1.5").is_err());
    assert_eq!(from_str::<u32>("-0").unwrap(), 0, "-0 is not negative");
}

#[test]
fn fixed_arrays_check_their_length() {
    assert_eq!(from_str::<[u64; 3]>("[1,2,3]").unwrap(), [1, 2, 3]);
    for text in ["[1,2]", "[1,2,3,4]", "[]"] {
        let error = from_str::<[u64; 3]>(text).unwrap_err();
        assert!(error.to_string().contains("expected 3 elements"), "{error}");
    }
}

#[test]
fn enums_are_strings_or_single_entry_maps() {
    assert_eq!(from_str::<Shape>(r#""Unit""#).unwrap(), Shape::Unit);
    assert_eq!(
        from_str::<Shape>(r#"{"Newtype":5}"#).unwrap(),
        Shape::Newtype(5)
    );
    for bad in [
        r#""Newtype""#,
        r#"{"Unit":null}"#,
        r#""Other""#,
        r#"{"Other":1}"#,
        "{}",
        r#"{"Newtype":5,"Unit":null}"#,
        "[\"Unit\"]",
        "3",
    ] {
        assert!(from_str::<Shape>(bad).is_err(), "{bad} parsed as a Shape");
    }
}

#[test]
fn tuples_are_arrays_and_unit_structs_are_null() {
    assert_eq!(to_string(&Point(1, 2.5)).unwrap(), "[1,2.5]");
    assert_eq!(from_str::<Point>("[1,2.5]").unwrap(), Point(1, 2.5));
    // As before the streaming reader, elements past a tuple's arity are
    // skipped (when well-formed) and missing ones are errors.
    assert_eq!(
        from_str::<Point>(r#"[1,2.5,{"x":[]}]"#).unwrap(),
        Point(1, 2.5)
    );
    assert!(from_str::<Point>("[1,2.5,]").is_err());
    assert!(from_str::<Point>("[1]").is_err());
    assert!(from_str::<(u8, u8)>("[1]").is_err());
    assert_eq!(to_string(&Marker).unwrap(), "null");
    assert_eq!(from_str::<Marker>("null").unwrap(), Marker);
}

#[test]
fn btree_maps_are_sequences_of_pairs() {
    let map = BTreeMap::from([(3u32, 0.5f64), (1, 2.0)]);
    let text = to_string(&map).unwrap();
    assert_eq!(text, "[[1,2.0],[3,0.5]]");
    assert_eq!(from_str::<BTreeMap<u32, f64>>(&text).unwrap(), map);
    assert!(from_str::<BTreeMap<u32, f64>>(r#"{"1":2.0}"#).is_err());
    assert!(from_str::<BTreeMap<u32, f64>>("[[1]]").is_err());
}

#[test]
fn strings_unescape_and_escaped_json_nests() {
    // Environment state travels as a JSON string inside the snapshot.
    let env_state = to_string(&sample()).unwrap();
    let outer = to_string(&vec![env_state.clone()]).unwrap();
    assert!(outer.contains(r#"\"shapes\""#));
    let back: Vec<String> = from_str(&outer).unwrap();
    assert_eq!(back[0], env_state);
    assert_eq!(from_str::<Outer>(&back[0]).unwrap(), sample());

    // A surrogate-pair escape (how upstream serde_json writes non-BMP
    // characters) next to raw UTF-8 and the short escapes.
    let parsed: String = from_str(r#""\ud83d\ude00 é\/\b\f\t ok""#).unwrap();
    assert_eq!(parsed, "😀 é/\u{8}\u{c}\t ok");
    // Non-BMP characters are written as raw UTF-8, which reads back too.
    let text = to_string("😀").unwrap();
    assert_eq!(text, "\"😀\"");
    assert_eq!(from_str::<String>(&text).unwrap(), "😀");
    for bad in [
        r#""\ud83d""#,
        r#""\ude00""#,
        r#""\ud83dA""#,
        r#""\ud83d\u0041""#,
        r#""\u12""#,
        r#""\u12g4""#,
        r#""\q""#,
        r#""unterminated"#,
        r#""\"#,
    ] {
        assert!(from_str::<String>(bad).is_err(), "{bad} parsed");
    }
}

#[test]
fn trailing_characters_and_malformed_input_are_errors() {
    for bad in [
        "1 2",
        "[1] x",
        "{} {}",
        "tru",
        "[1, 2",
        "[1,]",
        "[,1]",
        "{\"x\":1.0,}",
        "",
        "  ",
        "+1",
        "1-2",
        "--1",
    ] {
        assert!(
            from_str::<Vec<u32>>(bad).is_err()
                && from_str::<u32>(bad).is_err()
                && from_str::<Inner>(bad).is_err(),
            "{bad:?} parsed"
        );
    }
    assert_eq!(from_str::<Vec<u32>>(" [ 1 ,2 ] \n").unwrap(), vec![1, 2]);
    let error = from_str::<u32>("12 x").unwrap_err();
    assert!(error.to_string().contains("trailing characters"), "{error}");
    assert!(error.to_string().contains("byte 3"), "{error}");
}

#[test]
fn nesting_is_capped_at_max_depth() {
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let within = format!(
        r#"{{"x":1.0,"tag":null,"deep":{}}}"#,
        nested(serde::MAX_DEPTH - 1)
    );
    assert!(from_str::<Inner>(&within).is_ok());
    let beyond = format!(
        r#"{{"x":1.0,"tag":null,"deep":{}}}"#,
        nested(serde::MAX_DEPTH)
    );
    let error = from_str::<Inner>(&beyond).unwrap_err();
    assert!(error.to_string().contains("nesting deeper than"), "{error}");
    // Far past the limit, with or without the closing brackets.
    assert!(from_str::<Vec<u32>>(&"[".repeat(1_000_000)).is_err());
    assert!(from_str::<Inner>(&format!(r#"{{"deep":{}}}"#, nested(1_000_000))).is_err());
}
