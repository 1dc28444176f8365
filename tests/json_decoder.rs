//! Contract tests for the strict JSON decoder, `sachi::obs::json::parse`.
//!
//! Every `sachi serve` request body goes through this decoder before any
//! other check, so it sits on the daemon's trust boundary: whatever
//! bytes arrive inside a frame, `parse` must return `Ok` or a typed
//! `Err` and never panic or overflow its stack. The nesting tests pin
//! the depth bound; the fuzz test reuses the std-only xorshift pattern
//! of the wire-frame decoder's fuzz test.

use sachi::obs::json::{parse, JsonError, JsonValue, MAX_DEPTH};

/// The daemon's cap on one frame body (`MAX_FRAME_LEN` in the CLI's
/// wire protocol): no request body can be longer than this.
const MAX_FRAME_LEN: usize = 1 << 20;

/// A request body as `sachi submit` encodes a solve job.
const SOLVE_BODY: &str = "{\"op\":\"solve\",\"job\":{\"cop\":\"sat\",\"size\":40,\"seed\":9,\
    \"design\":\"n3\",\"restarts\":8,\"resolution\":8,\"step_budget\":60000,\
    \"fault_ber\":0.0001,\"fault_seed\":3,\"fault_policy\":\"failfast\",\
    \"tempering\":true,\"ladder\":\"adaptive\"}}";

fn nested(depth: usize) -> String {
    format!("{}{}", "[".repeat(depth), "]".repeat(depth))
}

#[test]
fn nesting_is_accepted_up_to_the_bound() {
    let mut v = parse(&nested(MAX_DEPTH)).expect("MAX_DEPTH levels parse");
    let mut levels = 0;
    while let JsonValue::Arr(items) = v {
        levels += 1;
        v = match items.into_iter().next() {
            Some(inner) => inner,
            None => break,
        };
    }
    assert_eq!(levels, MAX_DEPTH);
    let objects = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
    parse(&objects).expect("MAX_DEPTH nested objects parse");
}

#[test]
fn nesting_past_the_bound_is_a_typed_error() {
    assert_eq!(
        parse(&nested(MAX_DEPTH + 1)),
        Err(JsonError::TooDeep { pos: MAX_DEPTH })
    );
    // A frame of 200 000 `[` fits the frame cap; it used to overflow the
    // connection thread's stack and abort the daemon.
    let err = parse(&"[".repeat(200_000)).unwrap_err();
    assert_eq!(err, JsonError::TooDeep { pos: MAX_DEPTH });
    assert!(err.to_string().contains("nesting deeper than"), "{err}");
    let mixed = "[{\"a\":".repeat(MAX_FRAME_LEN / 6);
    assert!(matches!(parse(&mixed), Err(JsonError::TooDeep { .. })));
}

/// Deterministic xorshift64 stream.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

#[test]
fn decoder_survives_xorshift_fuzz() {
    let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
    // The JSON alphabet, weighted towards structure, plus escapes,
    // literal fragments, control bytes and multi-byte scalars; `|`
    // separates the tokens.
    let tokens: Vec<&str> = "{|}|[|]|\"|:|,|0|1|9|-|+|.|e|E| |\n|\\|\\u|\\u00|d800|a|f|true|false|\
         null|tru|nul|\u{0}|\u{1f}|é|€|\u{10ffff}|\"op\"|\"job\""
        .split('|')
        .collect();
    // Byte soup over the alphabet.
    for _ in 0..3000 {
        let len = (next() % 64) as usize;
        let text: String = (0..len)
            .map(|_| tokens[(next() as usize) % tokens.len()])
            .collect();
        let _ = parse(&text);
    }
    // Mutated valid solve bodies: overwrite, insert, delete, truncate.
    parse(SOLVE_BODY).expect("the unmutated body parses");
    for _ in 0..3000 {
        let mut text = SOLVE_BODY.to_string();
        for _ in 0..1 + next() % 4 {
            let at = (next() as usize) % text.len();
            let at = (0..=at)
                .rev()
                .find(|&i| text.is_char_boundary(i))
                .unwrap_or(0);
            let token = tokens[(next() as usize) % tokens.len()];
            match next() % 4 {
                0 => text.insert_str(at, token),
                1 => {
                    let end = (at + token.len()).min(text.len());
                    let end = (end..=text.len())
                        .find(|&i| text.is_char_boundary(i))
                        .unwrap_or(text.len());
                    text.replace_range(at..end, token);
                }
                2 => {
                    text.remove(at);
                }
                _ => text.truncate(at),
            }
            if text.is_empty() {
                break;
            }
        }
        let _ = parse(&text);
    }
    // Nesting up to a whole frame: openers of random kinds, sometimes
    // closed, at random lengths up to the frame cap.
    for case in 0..40usize {
        let len = match case {
            0 => MAX_FRAME_LEN,
            1 => MAX_DEPTH,
            2 => MAX_DEPTH + 1,
            _ => 1 + (next() as usize) % MAX_FRAME_LEN,
        };
        let mut text = String::with_capacity(2 * len);
        let mut closers = Vec::new();
        while text.len() < len {
            if next().is_multiple_of(2) {
                text.push('[');
                closers.push(']');
            } else {
                text.push_str("{\"k\":");
                closers.push('}');
            }
        }
        if case.is_multiple_of(2) {
            text.push('0');
            text.extend(closers.iter().rev());
        }
        text.truncate(MAX_FRAME_LEN);
        let _ = parse(&text);
    }
}
