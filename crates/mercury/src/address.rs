//! Mercury-style string addresses.
//!
//! Mochi identifies processes by Mercury address strings such as
//! `na+sm://28885-0` (shared memory: pid-index) or
//! `ofi+tcp://node12:5000`. We parse both shapes into a scheme + host +
//! port triple; the host component is what the network model uses to
//! decide whether two endpoints are "on the same node".

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::MercuryError;

/// A parsed Mercury address. The string parts are shared, so a clone —
/// every message carries two addresses — bumps two reference counts and
/// copies nothing.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(try_from = "String", into = "String")]
pub struct Address {
    scheme: Arc<str>,
    host: Arc<str>,
    port: u32,
}

impl Address {
    /// Builds an address from parts. `scheme` is e.g. `"ofi+tcp"`.
    pub fn new(scheme: impl Into<String>, host: impl Into<String>, port: u32) -> Self {
        Self { scheme: scheme.into().into(), host: host.into().into(), port }
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
