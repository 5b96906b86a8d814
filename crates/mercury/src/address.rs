//! Mercury-style string addresses.
//!
//! Mochi identifies processes by Mercury address strings such as
//! `na+sm://28885-0` (shared memory: pid-index) or
//! `ofi+tcp://node12:5000`. We parse both shapes into a scheme + host +
//! port triple; the host component is what the network model uses to
//! decide whether two endpoints are "on the same node".

use std::fmt;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::str::FromStr;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::MercuryError;

/// A parsed Mercury address. The string parts are shared, so a clone —
/// every message carries two addresses — bumps two reference counts and
/// copies nothing.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(try_from = "String", into = "String")]
pub struct Address {
    scheme: Arc<str>,
    host: Arc<str>,
    port: u32,
    /// Hash of the three parts, taken once at construction and fed to
    /// hashers in their place: every message looks its destination up in
    /// the fabric twice, every RPC its peer in the breakers and the
    /// statistics, and none of them reads the text again. (Declared last:
    /// the derived order compares the parts first.)
    hash: u64,
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Address")
            .field("scheme", &self.scheme)
            .field("host", &self.host)
            .field("port", &self.port)
            .finish()
    }
}

impl Hash for Address {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl Address {
    /// Builds an address from parts. `scheme` is e.g. `"ofi+tcp"`.
    pub fn new(scheme: impl Into<String>, host: impl Into<String>, port: u32) -> Self {
        let (scheme, host): (Arc<str>, Arc<str>) = (scheme.into().into(), host.into().into());
        let mut hasher = DefaultHasher::new();
        (&*scheme, &*host, port).hash(&mut hasher);
        Self { scheme, host, port, hash: hasher.finish() }
    }

    /// Convenience constructor for a simulated node: `ofi+tcp://<node>:<port>`.
    pub fn tcp(node: impl Into<String>, port: u32) -> Self {
        Self::new("ofi+tcp", node, port)
    }

    /// Convenience constructor for a shared-memory address `na+sm://<pid>-<idx>`.
    pub fn sm(pid: u32, index: u32) -> Self {
        Self::new("na+sm", pid.to_string(), index)
    }

    /// The transport scheme (`na+sm`, `ofi+tcp`, `ofi+verbs`, …).
    pub fn scheme(&self) -> &str {
        &self.scheme
    }

    /// The host (node name, or pid for `na+sm`).
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The port (or sm index).
    pub fn port(&self) -> u32 {
        self.port
    }

    /// Whether `self` and `other` are on the same node (same host part).
    pub fn same_node(&self, other: &Address) -> bool {
        self.host == other.host
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if &*self.scheme == "na+sm" {
            write!(f, "{}://{}-{}", self.scheme, self.host, self.port)
        } else {
            write!(f, "{}://{}:{}", self.scheme, self.host, self.port)
        }
    }
}

impl FromStr for Address {
    type Err = MercuryError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || MercuryError::BadAddress(s.to_string());
        let (scheme, rest) = s.split_once("://").ok_or_else(bad)?;
        if scheme.is_empty() || rest.is_empty() {
            return Err(bad());
        }
        // `na+sm://pid-idx` uses '-' as separator; everything else ':'.
        let sep = if scheme == "na+sm" { '-' } else { ':' };
        match rest.rsplit_once(sep) {
            Some((host, port)) if !host.is_empty() => {
                let port = port.parse().map_err(|_| bad())?;
                Ok(Address::new(scheme, host, port))
            }
            // Tolerate port-less addresses like `ofi+tcp://node3`.
            _ => Ok(Address::new(scheme, rest, 0)),
        }
    }
}

impl TryFrom<String> for Address {
    type Error = MercuryError;

    fn try_from(s: String) -> Result<Self, Self::Error> {
        s.parse()
    }
}

impl From<Address> for String {
    fn from(a: Address) -> String {
        a.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_sm_address() {
        let a: Address = "na+sm://28885-0".parse().unwrap();
        assert_eq!(a.scheme(), "na+sm");
        assert_eq!(a.host(), "28885");
        assert_eq!(a.port(), 0);
        assert_eq!(a.to_string(), "na+sm://28885-0");
    }

    #[test]
    fn parse_tcp_address() {
        let a: Address = "ofi+tcp://node12:5000".parse().unwrap();
        assert_eq!(a.scheme(), "ofi+tcp");
        assert_eq!(a.host(), "node12");
        assert_eq!(a.port(), 5000);
        assert_eq!(a.to_string(), "ofi+tcp://node12:5000");
    }

    #[test]
    fn parse_portless_address() {
        let a: Address = "ofi+verbs://node3".parse().unwrap();
        assert_eq!(a.host(), "node3");
        assert_eq!(a.port(), 0);
    }

    #[test]
    fn reject_malformed() {
        assert!("".parse::<Address>().is_err());
        assert!("no-scheme".parse::<Address>().is_err());
        assert!("://host:1".parse::<Address>().is_err());
        assert!("tcp://".parse::<Address>().is_err());
    }

    #[test]
    fn same_node_compares_hosts() {
        let a = Address::tcp("node1", 1);
        let b = Address::tcp("node1", 2);
        let c = Address::tcp("node2", 1);
        assert!(a.same_node(&b));
        assert!(!a.same_node(&c));
    }

    #[test]
    fn the_carried_hash_follows_the_parts_and_nothing_else() {
        let hash_of = |a: &Address| {
            let mut hasher = DefaultHasher::new();
            a.hash(&mut hasher);
            hasher.finish()
        };
        let a = Address::tcp("node1", 1);
        // However it was built, an equal address hashes equally.
        let parsed: Address = "ofi+tcp://node1:1".parse().unwrap();
        assert_eq!(parsed, a);
        assert_eq!(hash_of(&parsed), hash_of(&a));
        assert_eq!(hash_of(&a.clone()), hash_of(&a));
        // Each part counts: a map must not take these for one peer.
        for other in [Address::tcp("node1", 2), Address::tcp("node2", 1), Address::new("na+sm", "node1", 1)] {
            assert_ne!(other, a);
            assert_ne!(hash_of(&other), hash_of(&a), "{other}");
        }
        // The order is the parts' order, as before the hash was carried.
        assert!(Address::tcp("a", 9) < Address::tcp("b", 1));
        assert!(Address::tcp("a", 1) < Address::tcp("a", 2));
        assert_eq!(format!("{a:?}"), r#"Address { scheme: "ofi+tcp", host: "node1", port: 1 }"#);
    }

    #[test]
    fn serde_round_trip_as_string() {
        let a = Address::tcp("node7", 1234);
        let json = serde_json::to_string(&a).unwrap();
        assert_eq!(json, "\"ofi+tcp://node7:1234\"");
        let back: Address = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn display_round_trips_through_parse() {
        for s in ["na+sm://1-9", "ofi+tcp://n:42", "x+y://h.q:7"] {
            let a: Address = s.parse().unwrap();
            assert_eq!(a.to_string(), s);
        }
    }
}
