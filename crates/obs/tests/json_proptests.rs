//! `json::parse` reads manifests from disk (the columnar store's
//! `dataset.json`, a checkpoint's `checkpoint.json`), so any text must
//! give a value or an error, never a panic or a stack overflow.

use certchain_obs::json::parse;
use proptest::prelude::*;

/// JSON's own tokens and a few near misses, so that the parser gets past
/// its first byte: brackets, braces, quotes, escapes, numbers, literals.
const TOKENS: &[&str] = &[
    "[", "]", "{", "}", ",", ":", "\"", "\\", "\\u", "\\ud800", "0", "-1", "1.5e3", "e", "true",
    "false", "null", "nul", " ", "\n", "a", "é", "\u{0}",
];

fn token_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..TOKENS.len(), 0..400)
        .prop_map(|picks| picks.into_iter().map(|i| TOKENS[i]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn token_soup_never_panics(text in token_soup()) {
        if let Ok(value) = parse(&text) {
            prop_assert_eq!(parse(&value.to_pretty()), Ok(value));
        }
    }
}
