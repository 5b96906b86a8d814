//! Fixture client: two calls to registered RPCs and one to a name
//! nothing registers.

use crate::rpc_names as rpc;

impl MiniClient {
    fn put(&self) -> Result<(), E> {
        let _: PutReply =
            self.margo.forward(&self.addr, rpc::PUT, 1, &PutArgs { value: 1 })?;
        Ok(())
    }

    fn get(&self) -> Result<(), E> {
        let _: GetReply =
            self.margo.forward(&self.addr, rpc::GET, 1, &GetArgs { value: 1 })?;
        Ok(())
    }

    fn missing(&self) -> Result<(), E> {
        let _: bool =
            self.margo.forward(&self.addr, rpc::MISSING, 1, &GetArgs { value: 1 })?;
        Ok(())
    }
}
