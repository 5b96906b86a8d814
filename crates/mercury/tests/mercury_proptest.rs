//! Property tests for the fabric substrate: address round-trips and bulk
//! region bounds under random payloads.
//!
//! Each property runs [`CASES`] cases; case `seed` draws only from
//! `SeededRng::new(seed)`, and a failure names the property and the seed.

use std::sync::Arc;

use mochi_mercury::{Address, BulkAccess, Fabric};
use mochi_util::SeededRng;
use parking_lot::Mutex;

const CASES: u64 = 256;

#[test]
fn address_display_parse_round_trip() {
    const SCHEMES: [&str; 4] = ["na+sm", "ofi+tcp", "ofi+verbs", "ucx+rc"];
    const HEAD: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const MIDDLE: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789.-";
    for seed in 0..CASES {
        let mut rng = SeededRng::new(seed);
        // Host names of the shape `[a-z][a-z0-9.-]{0,12}[a-z0-9]`.
        let mut host = vec![HEAD[rng.range(0, HEAD.len())]];
        host.extend((0..rng.range(0, 13)).map(|_| MIDDLE[rng.range(0, MIDDLE.len())]));
        host.push(MIDDLE[rng.range(0, 36)]);
        let scheme = SCHEMES[rng.range(0, SCHEMES.len())];
        let host = String::from_utf8(host).unwrap();
        let addr = Address::new(scheme, host, rng.range(0, 100_000) as u32);
        let parsed: Address = addr.to_string().parse().unwrap();
        assert_eq!(parsed, addr, "address_display_parse_round_trip, seed {seed}");
    }
}

#[test]
fn bulk_read_write_round_trip() {
    for seed in 0..CASES {
        let mut rng = SeededRng::new(seed);
        let at = format!("bulk_read_write_round_trip, seed {seed}");
        let data: Vec<u8> = (0..rng.range(1, 512)).map(|_| rng.next_u64() as u8).collect();
        let offset = rng.range(0, data.len());
        let len = rng.range(1, data.len() - offset + 1);

        let fabric = Fabric::new();
        let owner = Address::tcp("owner", 1);
        let _endpoint = fabric.register(owner.clone());
        let buffer = Arc::new(Mutex::new(data.clone()));
        let handle = fabric.bulk().expose(&owner, Arc::clone(&buffer), BulkAccess::ReadWrite);

        // Write a pattern, read it back through the other endpoint.
        let other = fabric.register(Address::tcp("other", 1));
        let pattern = vec![0xA5u8; len];
        let local = other.expose_bulk(Arc::new(Mutex::new(pattern.clone())), BulkAccess::ReadOnly);
        other.bulk_push(&local, 0, &handle, offset, len).unwrap();
        assert_eq!(&buffer.lock()[offset..offset + len], &pattern[..], "{at}");

        let read_back = Arc::new(Mutex::new(vec![0u8; len]));
        let sink = other.expose_bulk(Arc::clone(&read_back), BulkAccess::ReadWrite);
        other.bulk_pull(&handle, offset, &sink, 0, len).unwrap();
        assert_eq!(*read_back.lock(), pattern, "{at}");

        // Out-of-range accesses always fail cleanly.
        let bad = other.bulk_pull(&handle, data.len(), &sink, 0, 1);
        assert!(bad.is_err(), "{at}");
    }
}
