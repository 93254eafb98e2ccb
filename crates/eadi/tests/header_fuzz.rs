//! Arbitrary-bytes property tests for the EADI header decoder: headers
//! arrive from the network, so any byte string must decode or be rejected
//! without a panic, and whatever decodes must survive a re-encode
//! unchanged.

use proptest::prelude::*;

use suca_eadi::{EadiHeader, EADI_HEADER};

/// Decode `buf`; when it decodes, re-encoding the header with the returned
/// payload must decode to the same header and payload.
fn check(buf: &[u8]) -> Result<bool, TestCaseError> {
    let Some((header, payload)) = EadiHeader::decode(buf) else {
        return Ok(false);
    };
    prop_assert_eq!(payload.len(), buf.len() - EADI_HEADER);
    let wire = header.encode(payload);
    let again = EadiHeader::decode(&wire);
    prop_assert_eq!(again, Some((header, payload)));
    Ok(true)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_never_panic(buf in prop::collection::vec(any::<u8>(), 0..96)) {
        check(&buf)?;
    }

    #[test]
    fn near_valid_headers_round_trip(
        buf in prop::collection::vec(any::<u8>(), 1..96),
        kind in 0u8..5,
    ) {
        let mut buf = buf;
        // Stamp a (possibly invalid) kind so most cases reach the fields.
        buf[0] = kind;
        let decoded = check(&buf)?;
        prop_assert_eq!(decoded, buf.len() >= EADI_HEADER && (1..=3).contains(&kind));
    }
}
