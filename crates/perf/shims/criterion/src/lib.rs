//! Empty placeholder so the workspace's dev-dependency on `criterion` resolves offline.
