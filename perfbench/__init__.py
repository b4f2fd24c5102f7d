"""A steady end-to-end benchmark of the compiler, daemon and sweep fleet."""
