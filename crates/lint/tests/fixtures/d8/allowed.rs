pub fn upgrade_hint() -> &'static str {
    "WalWriter logs moved to typed records" // replilint:allow(D8) -- quotes the old type for users upgrading
}

// replilint:allow(D8) -- the serialized name older reports carry
pub const OLD_POLICY_KEY: &str = "DURABLE_REJOIN";
