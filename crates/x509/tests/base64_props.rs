//! The one-pass base64 decoder accepts exactly what the earlier
//! two-pass decoder accepted, and PEM extraction never panics.

use certchain_x509::pem::{self, PemError};
use proptest::prelude::*;

/// The earlier decoder, kept as the oracle: strip ASCII whitespace into
/// a buffer, then decode it four bytes at a time.
fn two_pass_decode(text: &str) -> Result<Vec<u8>, PemError> {
    fn value(c: u8) -> Result<u32, PemError> {
        match c {
            b'A'..=b'Z' => Ok((c - b'A') as u32),
            b'a'..=b'z' => Ok((c - b'a' + 26) as u32),
            b'0'..=b'9' => Ok((c - b'0' + 52) as u32),
            b'+' => Ok(62),
            b'/' => Ok(63),
            _ => Err(PemError::InvalidBase64),
        }
    }
    let cleaned: Vec<u8> = text.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    if cleaned.len() % 4 != 0 {
        return Err(PemError::InvalidBase64);
    }
    let mut out = Vec::with_capacity(cleaned.len() / 4 * 3);
    for quad in cleaned.chunks(4) {
        let pad = quad.iter().rev().take_while(|&&c| c == b'=').count();
        if pad > 2 || quad[..4 - pad].contains(&b'=') {
            return Err(PemError::InvalidBase64);
        }
        let mut n: u32 = 0;
        for &c in &quad[..4 - pad] {
            n = (n << 6) | value(c)?;
        }
        n <<= 6 * pad as u32;
        out.push((n >> 16) as u8);
        if pad < 2 {
            out.push((n >> 8) as u8);
        }
        if pad < 1 {
            out.push(n as u8);
        }
    }
    Ok(out)
}

/// Characters the strings are drawn from: the base64 alphabet, `=`,
/// every ASCII whitespace byte, vertical tab (which is not one), and a
/// few other bytes, multi-byte ones included.
const POOL: &[char] = &[
    'A', 'B', 'Q', 'Z', 'a', 'g', 'v', 'z', '0', '5', '9', '+', '/', '=', '=', '=', ' ', '\t',
    '\n', '\r', '\x0c', '\x0b', '-', '!', '.', '\0', 'é', '€',
];

fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..POOL.len(), 0..40)
        .prop_map(|picks| picks.into_iter().map(|i| POOL[i]).collect())
}

/// Valid base64 of random bytes, with a few pool characters inserted:
/// mostly still decodable, so both decoders' success paths are compared
/// too.
fn arb_near_valid() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec(any::<u8>(), 0..48),
        proptest::collection::vec((any::<proptest::sample::Index>(), 0..POOL.len()), 0..3),
    )
        .prop_map(|(data, inserts)| {
            let mut chars: Vec<char> = pem::base64_encode(&data).chars().collect();
            for (at, pick) in inserts {
                chars.insert(at.index(chars.len() + 1), POOL[pick]);
            }
            chars.into_iter().collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn one_pass_decode_matches_the_two_pass_oracle(text in arb_text()) {
        prop_assert_eq!(pem::base64_decode(&text), two_pass_decode(&text));
    }

    #[test]
    fn one_pass_decode_matches_on_near_valid_text(text in arb_near_valid()) {
        prop_assert_eq!(pem::base64_decode(&text), two_pass_decode(&text));
    }

    #[test]
    fn decode_all_never_panics(
        body in arb_text(),
        framing in proptest::collection::vec(0usize..4, 0..4),
    ) {
        // Arbitrary text between, around and in place of PEM markers.
        let mut text = String::new();
        for part in framing {
            text.push_str(match part {
                0 => "-----BEGIN CERTIFICATE-----",
                1 => "-----END CERTIFICATE-----",
                2 => "\n",
                _ => &body,
            });
        }
        let _ = pem::decode_all("CERTIFICATE", &text);
    }
}

#[test]
fn padding_inside_a_body_is_accepted_as_before() {
    // `=` may close any group, not only the last.
    assert_eq!(pem::base64_decode("Zg==Zm8="), Ok(b"ffo".to_vec()));
    assert_eq!(two_pass_decode("Zg==Zm8="), Ok(b"ffo".to_vec()));
    // Vertical tab is not ASCII whitespace.
    assert_eq!(pem::base64_decode("Zg==\x0b"), Err(PemError::InvalidBase64));
}
