//! Property tests on the Jx9 subset: evaluation is total (no panics) on
//! arbitrary token soup, and core semantic identities hold on generated
//! JSON documents.
//!
//! Each property runs [`CASES`] cases; case `seed` draws only from
//! `SeededRng::new(seed)`, and a failure names the property and the seed.

use mochi_bedrock::jx9;
use mochi_util::SeededRng;
use serde_json::{json, Value};

const CASES: u64 = 256;

fn lowercase(rng: &mut SeededRng, lo: usize, hi: usize) -> String {
    (0..rng.range(lo, hi)).map(|_| char::from(b'a' + rng.range(0, 26) as u8)).collect()
}

/// A JSON document at most `depth` containers deep: null, booleans,
/// `i32`s and `[a-z]{0,8}` strings, in arrays and objects of up to five.
fn document(rng: &mut SeededRng, depth: u32) -> Value {
    match rng.range(0, if depth == 0 { 4 } else { 6 }) {
        0 => Value::Null,
        1 => Value::from(rng.chance(0.5)),
        2 => Value::from(rng.next_u64() as i32),
        3 => Value::from(lowercase(rng, 0, 9)),
        4 => Value::Array((0..rng.range(0, 6)).map(|_| document(rng, depth - 1)).collect()),
        _ => Value::Object(
            (0..rng.range(0, 6))
                .map(|_| (lowercase(rng, 1, 7), document(rng, depth - 1)))
                .collect(),
        ),
    }
}

#[test]
fn eval_never_panics_on_arbitrary_programs() {
    for seed in 0..CASES {
        let mut rng = SeededRng::new(seed);
        // Mostly printable ASCII, which is where Jx9's tokens live.
        let program: String = (0..rng.range(0, 121))
            .map(|_| match rng.range(0, 4) {
                0 => char::from_u32(rng.range(0, 0x11_0000) as u32).unwrap_or('\u{fffd}'),
                _ => char::from(rng.range(0x20, 0x7f) as u8),
            })
            .collect();
        // Totality: garbage in, Err (or Ok) out — never a panic.
        let outcome = std::panic::catch_unwind(|| jx9::eval(&program, &Value::Null));
        assert!(outcome.is_ok(), "eval_never_panics_on_arbitrary_programs, seed {seed}");
    }
}

#[test]
fn count_matches_length() {
    for seed in 0..CASES {
        let mut rng = SeededRng::new(seed);
        let values: Vec<i32> = (0..rng.range(0, 20)).map(|_| rng.next_u64() as i32).collect();
        let config = json!({ "items": values });
        let result = jx9::eval("return count($__config__.items);", &config).unwrap();
        assert_eq!(result, json!(values.len()), "count_matches_length, seed {seed}");
    }
}

#[test]
fn foreach_collects_every_element() {
    for seed in 0..CASES {
        let document = document(&mut SeededRng::new(seed), 3);
        let config = json!({ "items": [document.clone(), document.clone()] });
        let result = jx9::eval(
            r#"$out = [];
               foreach ($__config__.items as $x) { array_push($out, $x); }
               return $out;"#,
            &config,
        )
        .unwrap();
        assert_eq!(
            result,
            json!([document.clone(), document]),
            "foreach_collects_every_element, seed {seed}"
        );
    }
}

#[test]
fn arithmetic_matches_rust() {
    for seed in 0..CASES {
        let mut rng = SeededRng::new(seed);
        let at = format!("arithmetic_matches_rust, seed {seed}");
        let (a, b) = (rng.range(0, 2000) as i64 - 1000, rng.range(0, 2000) as i64 - 1000);
        let sum = jx9::eval(&format!("return {a} + {b};"), &Value::Null).unwrap();
        assert_eq!(sum, json!(a + b), "{at}");
        let product = jx9::eval(&format!("return {a} * {b};"), &Value::Null).unwrap();
        assert_eq!(product, json!(a * b), "{at}");
        let comparison = jx9::eval(&format!("return {a} < {b};"), &Value::Null).unwrap();
        assert_eq!(comparison, json!(a < b), "{at}");
    }
}

#[test]
fn member_access_equals_direct_lookup() {
    for seed in 0..CASES {
        let config = json!({ "payload": document(&mut SeededRng::new(seed), 3) });
        let via_script = jx9::eval("return $__config__.payload;", &config).unwrap();
        assert_eq!(
            via_script, config["payload"],
            "member_access_equals_direct_lookup, seed {seed}"
        );
    }
}

#[test]
fn while_loop_sums_like_rust() {
    for seed in 0..CASES {
        let n = SeededRng::new(seed).range(0, 50);
        let script = format!(
            "$i = 0; $sum = 0;
             while ($i < {n}) {{ $sum = $sum + $i; $i = $i + 1; }}
             return $sum;"
        );
        let result = jx9::eval(&script, &Value::Null).unwrap();
        let expected: usize = (0..n).sum();
        assert_eq!(result, json!(expected), "while_loop_sums_like_rust, seed {seed}");
    }
}
