//! Round-trip property tests for the serde_json shim's serializer and
//! parser. The `cqchase-service` wire protocol is newline-delimited
//! JSON built on `to_string`/`from_str`, so every representable value
//! tree must survive `to_string → from_str` (and the pretty printer)
//! unchanged.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde_json::{from_str, to_string, to_string_pretty, Map, Number, Value};

/// A deterministic random value tree. Depth is bounded so trees stay
/// small; width shrinks with depth so the case count stays tame.
fn gen_value(rng: &mut TestRng, depth: usize) -> Value {
    // Leaves only at the bottom; containers get rarer with depth.
    let pick = if depth == 0 {
        rng.below(6)
    } else {
        rng.below(8)
    };
    match pick {
        0 => Value::Null,
        1 => Value::Bool(rng.next_u64() & 1 == 1),
        2 => Value::Number(Number::Int(rng.next_u64() as i64)),
        3 => Value::Number(Number::UInt(i64::MAX as u64 + 1 + rng.below(1 << 40))),
        4 => {
            // Finite floats only: JSON has no NaN/inf (the shim emits
            // null for them, which cannot round-trip by design).
            let mantissa = rng.next_u64() as i32;
            let exp = rng.below(17) as i32 - 8;
            Value::Number(Number::Float(f64::from(mantissa) * 10f64.powi(exp)))
        }
        5 => Value::String(gen_string(rng)),
        6 => {
            let len = rng.below(4) as usize;
            Value::Array((0..len).map(|_| gen_value(rng, depth - 1)).collect())
        }
        _ => {
            let len = rng.below(4) as usize;
            let mut map = Map::new();
            for i in 0..len {
                // Suffix ensures distinct keys (duplicate keys collapse
                // in a Map, which would make the comparison vacuous).
                let key = format!("{}#{i}", gen_string(rng));
                map.insert(key, gen_value(rng, depth - 1));
            }
            Value::Object(map)
        }
    }
}

/// Strings exercising escapes: control characters, quotes, backslashes,
/// non-ASCII (including astral-plane characters that need surrogate
/// pairs in `\u` escapes). One in four is a few hundred characters
/// long, so the parser's unescaped runs are long and meet escapes and
/// multibyte characters at both ends.
fn gen_string(rng: &mut TestRng) -> String {
    let len = if rng.below(4) == 0 {
        200 + rng.below(300)
    } else {
        rng.below(12)
    } as usize;
    (0..len).map(|_| gen_char(rng)).collect()
}

fn gen_char(rng: &mut TestRng) -> char {
    match rng.below(10) {
        0 => '"',
        1 => '\\',
        2 => char::from(rng.below(0x20) as u8), // control
        3 => 'é',
        4 => '𝔸', // astral plane
        5 => '\u{2028}',
        _ => char::from(32 + rng.below(95) as u8), // printable ASCII
    }
}

/// `s` as a JSON string literal in which each character is, at random,
/// written raw (when JSON allows it) or as a `\u` escape — surrogate
/// pairs for astral characters. `to_string` never emits the latter, so
/// this covers the decoder's `\u` paths next to raw multibyte runs.
fn escape_randomly(rng: &mut TestRng, s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        let must_escape = c == '"' || c == '\\' || (c as u32) < 0x20;
        if must_escape || rng.below(3) == 0 {
            let mut units = [0u16; 2];
            for u in c.encode_utf16(&mut units) {
                out.push_str(&format!("\\u{u:04x}"));
            }
        } else {
            out.push(c);
        }
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn compact_roundtrip(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let v = gen_value(&mut rng, 3);
        let text = to_string(&v).unwrap();
        prop_assert!(!text.contains('\n'), "compact form is one line: {text:?}");
        let back = from_str(&text).unwrap();
        prop_assert_eq!(&back, &v, "compact roundtrip of {}", text);
    }

    #[test]
    fn pretty_roundtrip(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed ^ 0x9E37_79B9_7F4A_7C15);
        let v = gen_value(&mut rng, 3);
        let text = to_string_pretty(&v).unwrap();
        let back = from_str(&text).unwrap();
        prop_assert_eq!(&back, &v, "pretty roundtrip of {}", text);
    }

    #[test]
    fn parse_is_deterministic(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed.rotate_left(17));
        let v = gen_value(&mut rng, 2);
        let text = to_string(&v).unwrap();
        // Parsing the same text twice gives equal values, and
        // re-serializing the parse gives the same text (the shim's Map
        // iteration order is stable).
        let a = from_str(&text).unwrap();
        let b = from_str(&text).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(to_string(&a).unwrap(), text);
    }

    #[test]
    fn unicode_escapes_decode_to_the_same_string(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed ^ 0x5851_F42D_4C95_7F2D);
        let s = gen_string(&mut rng);
        let text = escape_randomly(&mut rng, &s);
        prop_assert_eq!(from_str(&text).unwrap(), Value::String(s), "decoding {}", text);
    }
}

/// Decoding is linear in the input: one string just under the service's
/// 8 MiB line cap decodes inside a bound 100x over its measured time
/// (about 0.3 s in a debug build, 30 ms in release, on a 2-core x86-64
/// VM). A decoder that re-scans the rest of the input per character
/// does about 3·10^13 byte steps on it.
#[test]
fn near_line_cap_string_decodes_in_linear_time() {
    let mut rng = TestRng::new(7);
    let unit: String = (0..64).map(|_| gen_char(&mut rng)).collect();
    let encoded = to_string(&Value::String(unit.clone())).unwrap();
    let copies = (8 << 20) / encoded.len() - 1;
    let text = format!("\"{}\"", encoded[1..encoded.len() - 1].repeat(copies));
    assert!(text.len() < 8 << 20);
    let started = std::time::Instant::now();
    let back = from_str(&text).unwrap();
    let took = started.elapsed();
    assert_eq!(back, Value::String(unit.repeat(copies)));
    assert!(
        took < std::time::Duration::from_secs(30),
        "decoding {} bytes took {took:?}",
        text.len()
    );
}
