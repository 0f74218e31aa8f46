#!/bin/sh
# Inline audit (ARCHITECTURE.md §5): which workspace functions the
# ledger binary keeps out of line only because it builds without LTO.
#
# Builds the ledger twice under target/inline-audit/: once as the
# ledger's own profile has it, once with thin LTO set in the
# environment only (no manifest or profile is touched). Then prints
# every `netkit_*`, `opencom` or `bytes` function that the default
# binary keeps as a symbol of its own and the thin-LTO binary does not
# — a call that crosses a crate boundary and that `#[inline]` on the
# callee would let the compiler fold into its caller.
#
#   tools/inline_audit.sh    print `default N  thin-lto M`, then the
#                            names, one a line, hash suffixes stripped
#
# Print-only: not a CI step, exits 0 whatever it lists. Both builds run
# `--locked`, so benchmark/Cargo.lock is never rewritten.
set -eu
cd "$(dirname "$0")/.."
out=target/inline-audit
mkdir -p "$out"

build() {
    cargo build --release --offline --locked --quiet \
        --manifest-path benchmark/Cargo.toml --target-dir "$out/$1"
}

# Distinct demangled names of the workspace's functions in a binary.
names() {
    nm -C --defined-only "$1" |
        awk '$2 ~ /^[tTwW]$/ { $1 = ""; $2 = ""; sub(/^  /, ""); print }' |
        sed -E 's/::h[0-9a-f]{16}$//' |
        grep -E '^<?(netkit_[a-z_]+|opencom|bytes)::' |
        sort -u
}

build default
CARGO_PROFILE_RELEASE_LTO=thin build thin
names "$out/default/release/ledger" >"$out/default.names"
names "$out/thin/release/ledger" >"$out/thin.names"
printf 'default %s  thin-lto %s\n' \
    "$(wc -l <"$out/default.names")" "$(wc -l <"$out/thin.names")"
comm -23 "$out/default.names" "$out/thin.names"
