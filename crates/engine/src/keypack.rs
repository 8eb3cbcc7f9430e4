//! Lossless in-memory packing of canonical cache keys.
//!
//! A canonical key spells its whole instance as hex words
//! ([`crate::request::Request::cache_key`]): `threshold(52,2)`'s key is about
//! 19 KB, and the result cache holds one key per entry for as long as the
//! entry lives.  The cache therefore stores keys packed by a small greedy
//! LZ77 — literal runs and back references, varint framed — which shrinks
//! the hex words' repeated zero runs and separators (about 2.7x on a
//! cold-solve mix of `check`, `enumerate`, `mine` and `keys` keys).
//!
//! Packing is deterministic, and nothing on the lookup path packs:
//! [`equals`] checks a packed key against a plain one in one pass, and
//! [`unpack`] restores the text for snapshots.
//!
//! Format: a sequence of varint tags.  An even tag `2·L` is followed by `L`
//! literal bytes; an odd tag `2·(L − MIN_MATCH) + 1` is followed by a varint
//! offset `d ≥ 1` and repeats the `L` bytes starting `d` bytes back (the
//! ranges may overlap, which is how runs pack).

/// Shortest back reference worth emitting: a reference costs two or three
/// bytes, and shorter ones lose more literal runs than they save.
const MIN_MATCH: usize = 6;

/// Packs `key` (see the module docs).
pub(crate) fn pack(key: &[u8]) -> Box<[u8]> {
    let n = key.len();
    let mut out = Vec::with_capacity(n / 2 + 8);
    // One slot per 6-byte prefix hash, holding its latest position; about
    // one slot per input byte, between 256 and 16 Ki slots.
    let bits = n.next_power_of_two().trailing_zeros().clamp(8, 14);
    let mut latest = vec![u32::MAX; 1 << bits];
    let mut literal_from = 0;
    let mut at = 0;
    // Positions past 4 GiB would wrap in the table; harmless, since every
    // candidate is verified byte for byte before it is used.
    while at + 8 <= n {
        let candidate = std::mem::replace(&mut latest[slot(key, at, bits)], at as u32) as usize;
        if candidate != u32::MAX as usize
            && key[candidate..candidate + MIN_MATCH] == key[at..at + MIN_MATCH]
        {
            let len =
                MIN_MATCH + common_prefix(&key[candidate + MIN_MATCH..], &key[at + MIN_MATCH..]);
            push_literal(&mut out, &key[literal_from..at]);
            push_varint(&mut out, ((len - MIN_MATCH) << 1) | 1);
            push_varint(&mut out, at - candidate);
            // Positions inside the reference stay findable for later ones.
            let end = at + len;
            at += 1;
            while at < end && at + 8 <= n {
                latest[slot(key, at, bits)] = at as u32;
                at += 1;
            }
            at = end;
            literal_from = at;
        } else {
            at += 1;
        }
    }
    push_literal(&mut out, &key[literal_from..]);
    out.into_boxed_slice()
}

/// The key `packed` was made from.
pub(crate) fn unpack(packed: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(packed.len() * 3);
    let mut at = 0;
    while at < packed.len() {
        let tag = read_varint(packed, &mut at);
        if tag & 1 == 0 {
            let len = tag >> 1;
            out.extend_from_slice(&packed[at..at + len]);
            at += len;
        } else {
            let len = (tag >> 1) + MIN_MATCH;
            let from = out.len() - read_varint(packed, &mut at);
            for i in from..from + len {
                out.push(out[i]);
            }
        }
    }
    out
}

/// Whether `packed` is the packing of `key`, without unpacking: literals
/// compare in place, and a back reference compares `key` with its own
/// already-matched prefix.
pub(crate) fn equals(packed: &[u8], key: &[u8]) -> bool {
    let (mut at, mut pos) = (0, 0);
    while at < packed.len() {
        let tag = read_varint(packed, &mut at);
        if tag & 1 == 0 {
            let len = tag >> 1;
            if key.get(pos..pos + len) != Some(&packed[at..at + len]) {
                return false;
            }
            at += len;
            pos += len;
        } else {
            let len = (tag >> 1) + MIN_MATCH;
            let offset = read_varint(packed, &mut at);
            if pos + len > key.len() || key[pos..pos + len] != key[pos - offset..pos - offset + len]
            {
                return false;
            }
            pos += len;
        }
    }
    pos == key.len()
}

/// The table slot of the 6 bytes at `at` (needs 8 readable bytes).
fn slot(key: &[u8], at: usize, bits: u32) -> usize {
    let word = u64::from_le_bytes(key[at..at + 8].try_into().expect("8 bytes"));
    ((word << 16).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
}

/// Length of the common prefix of `a` and `b`, eight bytes at a time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut len = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let diff = u64::from_le_bytes(x.try_into().expect("8 bytes"))
            ^ u64::from_le_bytes(y.try_into().expect("8 bytes"));
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    len + a[len..]
        .iter()
        .zip(&b[len..])
        .take_while(|(x, y)| x == y)
        .count()
}

fn push_literal(out: &mut Vec<u8>, bytes: &[u8]) {
    if !bytes.is_empty() {
        push_varint(out, bytes.len() << 1);
        out.extend_from_slice(bytes);
    }
}

fn push_varint(out: &mut Vec<u8>, mut value: usize) {
    while value >= 0x80 {
        out.push((value as u8) | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

fn read_varint(bytes: &[u8], at: &mut usize) -> usize {
    let mut value = 0;
    let mut shift = 0;
    loop {
        let byte = bytes[*at];
        *at += 1;
        value |= usize::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return value;
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;
    use proptest::prelude::*;
    use qld_hypergraph::generators::threshold_hypergraph;

    #[test]
    fn threshold_key_packs_small_and_round_trips() {
        let g = threshold_hypergraph(52, 2);
        let h = threshold_hypergraph(52, 51);
        let key = Request::DecideDuality { g, h }.cache_key();
        let packed = pack(key.as_bytes());
        assert!(
            packed.len() * 3 < key.len(),
            "{} of {}",
            packed.len(),
            key.len()
        );
        assert_eq!(unpack(&packed), key.as_bytes());
        assert!(equals(&packed, key.as_bytes()));
    }

    #[test]
    fn runs_pack_as_overlapping_references() {
        let key = [b"check n=1:".as_slice(), &[b'0'; 100], b";1"].concat();
        let packed = pack(&key);
        assert!(packed.len() < 24, "{packed:?}");
        assert_eq!(unpack(&packed), key);
        assert!(equals(&packed, &key));
    }

    #[test]
    fn equals_rejects_every_other_key() {
        let key = b"check n=4:3;c n=4:5;9;6;a 000000000000;000000000000".to_vec();
        let packed = pack(&key);
        assert!(equals(&packed, &key));
        assert!(!equals(&packed, &key[..key.len() - 1]));
        assert!(!equals(&packed, &[key.as_slice(), b"0"].concat()));
        for i in 0..key.len() {
            let mut other = key.clone();
            other[i] ^= 1;
            assert!(!equals(&packed, &other), "flip at {i}");
        }
        assert!(equals(&pack(b""), b""));
        assert!(!equals(&pack(b""), b"x"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn pack_round_trips_and_equals_only_its_key(
            key in prop::collection::vec(0..4u8, 0..400usize),
            other in prop::collection::vec(0..4u8, 0..400usize),
        ) {
            // A four-letter alphabet makes repeats, overlaps and near misses common.
            let key: Vec<u8> = key.iter().map(|b| b"0;1a"[*b as usize]).collect();
            let other: Vec<u8> = other.iter().map(|b| b"0;1a"[*b as usize]).collect();
            let packed = pack(&key);
            prop_assert_eq!(unpack(&packed), key.clone());
            prop_assert!(equals(&packed, &key));
            prop_assert_eq!(equals(&packed, &other), key == other);
            prop_assert_eq!(&*pack(&key), &*packed);
        }
    }
}
