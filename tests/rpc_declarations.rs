//! The RPC tables of the six services (their `rpc_names` modules), taken
//! together: a request names its RPC by id, the CRC-32 of its name
//! (`rpc_id_for_name`), so two declarations with one name, or with two
//! names of one id, would send one service's call to another's handler.
//! One name is one id, so distinct ids are distinct names too.

use std::collections::HashMap;

use mochi_margo::{rpc_id_for_name, Rpc, Untyped};

#[test]
fn declared_names_and_ids_are_distinct_across_services() {
    let tables: [(&str, &[Rpc<'static, Untyped, Untyped>]); 6] = [
        ("yokan", mochi_yokan::rpc_names::ALL),
        ("warabi", mochi_warabi::rpc_names::ALL),
        ("remi", mochi_remi::rpc_names::ALL),
        ("raft", mochi_raft::rpc_names::ALL),
        ("ssg", mochi_ssg::rpc_names::ALL),
        ("bedrock", mochi_bedrock::rpc_names::ALL),
    ];
    let mut by_id: HashMap<u64, String> = HashMap::new();
    for (service, table) in tables {
        for rpc in table {
            let id = rpc_id_for_name(rpc.name());
            assert_eq!(id, rpc.id());
            let this = format!("{service}::{rpc}");
            if let Some(first) = by_id.insert(id, this.clone()) {
                panic!("{first} and {this} share the RPC id {id}");
            }
        }
    }
    assert_eq!(by_id.len(), 12 + 9 + 4 + 7 + 4 + 18, "a table lost or gained an RPC");
}
