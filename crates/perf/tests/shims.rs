//! Behaviour of `serde` (derive) and `serde_json` that the workspace relies
//! on: derive attributes, enum shapes, `json!`, number and string syntax, the
//! two output layouts. Offline these run against the stand-ins under
//! `shims/`, which are this repository's code; with crates.io they run
//! against the published crates, and must pass there too.

#![allow(clippy::unwrap_used)]

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};
use serde_json::{from_str, from_value, json, to_string, to_string_pretty, to_value, Value};

fn default_port() -> u32 {
    7
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Config {
    name: String,
    #[serde(default = "default_port")]
    port: u32,
    #[serde(default)]
    tags: Vec<String>,
    #[serde(rename = "type", default)]
    kind: String,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pool: Option<String>,
    limits: BTreeMap<String, f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
enum Kind {
    Fifo,
    #[default]
    FifoWait,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    Newtype(u64),
    Tuple(i32, String),
    Struct { a: bool, b: Vec<u8> },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Wrapper(u32);

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(try_from = "String", into = "String")]
struct Address {
    host: String,
    port: u32,
}

impl TryFrom<String> for Address {
    type Error = String;
    fn try_from(text: String) -> Result<Self, String> {
        let (host, port) = text.split_once(':').ok_or("missing ':'")?;
        Ok(Address {
            host: host.into(),
            port: port.parse().map_err(|_| "bad port")?,
        })
    }
}

impl From<Address> for String {
    fn from(a: Address) -> String {
        format!("{}:{}", a.host, a.port)
    }
}

#[test]
fn struct_attributes() {
    let minimal: Config = from_str(r#"{"name": "db", "limits": {}}"#).unwrap();
    assert_eq!(minimal.port, 7);
    assert_eq!(minimal.tags, Vec::<String>::new());
    assert_eq!(minimal.kind, "");
    assert_eq!(minimal.pool, None);
    // `pool: None` is skipped, `kind` is written as `type`, unknown input
    // fields are ignored.
    assert_eq!(
        to_string(&minimal).unwrap(),
        r#"{"name":"db","port":7,"tags":[],"type":"","limits":{}}"#
    );
    let full: Config = from_str(
        r#"{"limits": {"x": 1.5}, "pool": "p", "type": "yokan", "tags": ["a"], "port": 9, "name": "n", "extra": [1, {"y": null}]}"#,
    )
    .unwrap();
    assert_eq!(full.kind, "yokan");
    assert_eq!(full.limits["x"], 1.5);
    assert_eq!(
        from_value::<Config>(to_value(&full).unwrap()).unwrap(),
        full
    );
    let missing = from_str::<Config>(r#"{"limits": {}}"#).unwrap_err();
    assert!(
        missing.to_string().contains("missing field `name`"),
        "{missing}"
    );
    let duplicate = from_str::<Config>(r#"{"name": "a", "name": "b", "limits": {}}"#).unwrap_err();
    assert!(
        duplicate.to_string().contains("duplicate field `name`"),
        "{duplicate}"
    );
}

#[test]
fn enum_shapes_are_externally_tagged() {
    assert_eq!(to_string(&Kind::FifoWait).unwrap(), r#""fifo_wait""#);
    assert_eq!(from_str::<Kind>(r#""fifo""#).unwrap(), Kind::Fifo);
    assert!(from_str::<Kind>(r#""Fifo""#)
        .unwrap_err()
        .to_string()
        .contains("unknown variant"));
    let shapes = vec![
        Shape::Unit,
        Shape::Newtype(5),
        Shape::Tuple(-1, "x".into()),
        Shape::Struct {
            a: true,
            b: vec![1, 2],
        },
    ];
    let text = to_string(&shapes).unwrap();
    assert_eq!(
        text,
        r#"["Unit",{"Newtype":5},{"Tuple":[-1,"x"]},{"Struct":{"a":true,"b":[1,2]}}]"#
    );
    assert_eq!(from_str::<Vec<Shape>>(&text).unwrap(), shapes);
    assert_eq!(
        from_value::<Vec<Shape>>(to_value(&shapes).unwrap()).unwrap(),
        shapes
    );
    assert_eq!(to_string(&Wrapper(3)).unwrap(), "3");
    assert_eq!(from_str::<Wrapper>("3").unwrap(), Wrapper(3));
}

#[test]
fn try_from_and_into() {
    let address = Address {
        host: "node0".into(),
        port: 1,
    };
    assert_eq!(to_string(&address).unwrap(), r#""node0:1""#);
    assert_eq!(from_str::<Address>(r#""node0:1""#).unwrap(), address);
    assert!(from_str::<Address>(r#""node0""#)
        .unwrap_err()
        .to_string()
        .contains("missing ':'"));
}

#[test]
fn json_macro_and_value_access() {
    let name = "kv0";
    let ids = vec![1u16, 2];
    let value = json!({
        "name": name,
        "ids": ids,
        "nested": {"on": true, "none": null, "list": [1, 2.5, "x", [], {}]},
        (format!("key-{}", 1)): ids.len() + 1,
    });
    assert_eq!(value["name"], "kv0");
    assert_eq!(value["ids"][1], 2);
    assert_eq!(value["nested"]["list"][1].as_f64(), Some(2.5));
    assert_eq!(value["key-1"].as_u64(), Some(3));
    assert!(value["absent"]["deeper"].is_null());
    assert_eq!(value.pointer("/nested/list/2"), Some(&json!("x")));
    let mut edited = value.clone();
    edited["nested"]["on"] = json!(false);
    edited["fresh"]["inner"] = json!(1);
    assert_eq!(edited["nested"]["on"], false);
    assert_eq!(edited["fresh"], json!({"inner": 1}));
    assert_eq!(json!(null), Value::Null);
    assert_eq!(json!([]), Value::Array(vec![]));
}

#[test]
fn layouts_numbers_and_strings() {
    let value = json!({"b": [1, -2, 3.0, 1e21], "a": {"s": "q\"\\\n\u{1}é"}, "e": [], "o": {}});
    // Keys come out sorted; floats keep a fraction or exponent.
    assert_eq!(
        to_string(&value).unwrap(),
        r#"{"a":{"s":"q\"\\\n\u0001é"},"b":[1,-2,3.0,1e21],"e":[],"o":{}}"#
    );
    let pretty =
        "{\n  \"a\": {\n    \"s\": \"x\"\n  },\n  \"b\": [\n    1,\n    2\n  ],\n  \"e\": []\n}";
    assert_eq!(
        to_string_pretty(&json!({"b": [1, 2], "a": {"s": "x"}, "e": []})).unwrap(),
        pretty
    );
    assert_eq!(
        format!("{:#}", json!({"b": [1, 2], "a": {"s": "x"}, "e": []})),
        pretty
    );
    let back: Value = from_str(&to_string(&value).unwrap()).unwrap();
    assert_eq!(back, value);
    assert_eq!(
        from_str::<Value>(r#""\u00e9\ud83d\ude00\/""#).unwrap(),
        json!("é😀/")
    );
    assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
    assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
    assert_eq!(from_str::<f64>("-0.5e1").unwrap(), -5.0);
    assert_eq!(from_str::<f32>("7").unwrap(), 7.0);
    for bad in [
        "",
        "01",
        "1.",
        "[1,]",
        "{\"a\":1,}",
        "\"\\x\"",
        "nul",
        "1 2",
        "{1:2}",
    ] {
        assert!(from_str::<Value>(bad).is_err(), "{bad:?} must not parse");
    }
    assert!(from_str::<u8>("256").is_err());
    assert!(from_str::<u32>("-1").is_err());
}

#[test]
fn maps_with_integer_keys_and_options() {
    let mut by_id: HashMap<u16, Option<String>> = HashMap::new();
    by_id.insert(10, Some("kv0".into()));
    by_id.insert(11, None);
    let value = to_value(&by_id).unwrap();
    assert_eq!(value, json!({"10": "kv0", "11": null}));
    assert_eq!(
        from_value::<HashMap<u16, Option<String>>>(value).unwrap(),
        by_id
    );
    let text = to_string(&by_id).unwrap();
    assert_eq!(
        from_str::<HashMap<u16, Option<String>>>(&text).unwrap(),
        by_id
    );
    assert_eq!(
        from_str::<(u8, String, Option<bool>)>(r#"[1, "a", null]"#).unwrap(),
        (1, "a".into(), None)
    );
}
