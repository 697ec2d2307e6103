#!/usr/bin/env sh
# Tracked size numbers (ROADMAP: "Net LoC and public-API size are tracked
# numbers"): non-test Rust lines, the `pub fn` count and the count of public
# types (`pub struct|enum|trait|type`) over crates/*/src and src/, and the
# largest file of the simulator and of the core crate
# (scripts/ci.sh build holds both under 800: a layer, or a build stage,
# is a module). A file's test code is everything from its first unindented
# `#[cfg(test)]` line on (unit-test modules close their files throughout
# this workspace); tests/, benches/ and examples/ directories are not counted.
#
#   usage: scripts/size.sh [checkout-root]
set -eu

cd "${1:-$(dirname "$0")/..}"

find crates/*/src src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { next }
    { lines++ }
    /^[[:space:]]*pub fn / { fns++ }
    /^[[:space:]]*pub (struct|enum|trait|type) / { items++ }
    FILENAME ~ /^crates\/(netsim|core)\/src\// {
        crate = FILENAME; sub(/^crates\//, "", crate); sub(/\/.*/, "", crate)
        if (++per[FILENAME] > max[crate]) { max[crate] = per[FILENAME]; big[crate] = FILENAME }
    }
    END {
        printf "non-test Rust lines: %d\npub fn: %d\n", lines, fns
        printf "largest netsim file: %d (%s)\n", max["netsim"], big["netsim"]
        printf "largest core file: %d (%s)\n", max["core"], big["core"]
        printf "pub items: %d\n", items
    }
'
