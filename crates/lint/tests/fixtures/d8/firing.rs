use crate::wal::WalWriter;

// The boxed-closure BoxedEvent path used to live here.
pub fn rejoins(policy: u32) -> bool {
    policy == DURABLE_REJOIN
}
