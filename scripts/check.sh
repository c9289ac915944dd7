#!/usr/bin/env bash
# Tier-1 verification: everything CI runs, runnable locally.
#
#   scripts/check.sh            # build + test + formatting
#
# The workspace builds hermetically (no registry access needed): `rand`
# is an in-tree shim crate and the property suites are seeded loops.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo test =="
cargo test -q

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "all checks passed"
