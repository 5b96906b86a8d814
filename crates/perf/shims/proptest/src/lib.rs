//! Empty placeholder so the workspace's dev-dependency on `proptest` resolves offline.
