//! Arbitrary-bytes property tests for the RPC frame decoder: frames arrive
//! from the network, so any byte string must decode or be rejected without
//! a panic, and whatever decodes must survive a re-encode unchanged.

use proptest::prelude::*;

use suca_rpc::frame::MAGIC;
use suca_rpc::{RpcFrame, FRAME_BYTES};

/// Decode `buf`; when it decodes, re-encoding the frame with the returned
/// payload must decode to the same frame and payload.
fn check(buf: &[u8]) -> Result<bool, TestCaseError> {
    let Some((frame, payload)) = RpcFrame::decode(buf) else {
        return Ok(false);
    };
    prop_assert_eq!(payload.len(), buf.len() - FRAME_BYTES);
    let wire = frame.encode(payload);
    let again = RpcFrame::decode(&wire);
    prop_assert_eq!(again, Some((frame, payload)));
    Ok(true)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_never_panic(buf in prop::collection::vec(any::<u8>(), 0..96)) {
        check(&buf)?;
    }

    #[test]
    fn near_valid_frames_round_trip(
        buf in prop::collection::vec(any::<u8>(), FRAME_BYTES - 2..96),
        kind in 0u8..8,
        prio in 0u8..3,
    ) {
        let mut buf = buf;
        // Stamp the magic and a (possibly invalid) kind and priority so a
        // large share of cases gets past the first checks.
        buf[..2].copy_from_slice(&MAGIC.to_le_bytes());
        buf[2] = kind;
        if let Some(b) = buf.get_mut(17) {
            *b = prio;
        }
        let decoded = check(&buf)?;
        prop_assert_eq!(decoded, buf.len() >= FRAME_BYTES && kind < 5 && prio < 2);
    }
}
