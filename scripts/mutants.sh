#!/usr/bin/env sh
# The mutant catalogue: each tests/mutants/<name>.patch is a deliberate bug
# and names the one test that must catch it. Its header carries
#
#   # kills: <package> <test target> <test name>
#   # why: <what only that test checks>
#
# where <test target> is an integration test file's stem, `lib` for a
# package's unit tests, or `bin:<name>` for the unit tests of its binary
# <name>. For every patch, on one temporary copy of the
# working tree, this script
#
#   * checks that the patch still applies (`git apply --check`): a stale
#     patch fails by name, since its bug is no longer being tested for;
#   * builds the target with the patch applied: a mutant that does not
#     compile kills nothing;
#   * runs the named test alone and requires it to fail. A test that
#     passes, is ignored or is missing lets the mutant survive, and that
#     fails the script. Other tests are not run: a mutant killed only by
#     another test does not count.
#
# The copy is patched, tested and un-patched in turn, all under one
# CARGO_TARGET_DIR, so only the crates a patch touches rebuild. It sits at
# one path inside that directory (a path is part of a crate's build
# identity, so a new one each run would pile up builds) and its files are
# stamped with the time of copying (a copied file older than the last
# build would not be rebuilt), and it is removed on exit.
#
#   usage: scripts/mutants.sh [name ...]    (no names = every patch)
set -eu

cd "$(dirname "$0")/.."
root=$(pwd)
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}/mutants"
work=$CARGO_TARGET_DIR/work
tree=$work/tree
rm -rf "$work"
trap 'rm -rf "$work"' EXIT
mkdir -p "$tree"
tar -c --exclude=./target --exclude=./bench/target --exclude=./.git -f - . | tar -x -m -C "$tree"

if [ $# -eq 0 ]; then
    set -- $(cd tests/mutants && ls -- *.patch | sed 's/\.patch$//')
fi

survivors=""
for name in "$@"; do
    patch=$root/tests/mutants/$name.patch
    kills=$(sed -n 's/^# kills: //p' "$patch" 2> /dev/null | head -1)
    why=$(sed -n 's/^# why: //p' "$patch" 2> /dev/null | head -1)
    # shellcheck disable=SC2086 # split the header into its three words
    set -- $kills
    if [ $# -ne 3 ] || [ -z "$why" ]; then
        echo "mutant $name: no '# kills: <package> <target> <test>' and '# why:' header" >&2
        survivors="$survivors $name"
        continue
    fi
    package=$1 test=$3
    case $2 in
        lib) target=--lib ;;
        bin:*) target="--bin ${2#bin:}" ;;
        *) target="--test $2" ;;
    esac
    if ! (cd "$tree" && git apply --check "$patch" 2> "$work/apply.err"); then
        echo "mutant $name: stale, the patch no longer applies:" >&2
        cat "$work/apply.err" >&2
        survivors="$survivors $name"
        continue
    fi
    (cd "$tree" && git apply "$patch")
    status=0
    # shellcheck disable=SC2086 # $target is one or two words
    (cd "$tree" && cargo test -q --offline -p "$package" $target --no-run) > "$work/build.log" 2>&1 \
        || status=$?
    if [ "$status" -ne 0 ]; then
        echo "mutant $name: does not compile, so it kills nothing:" >&2
        tail -20 "$work/build.log" >&2
    else
        # shellcheck disable=SC2086
        (cd "$tree" && cargo test --offline -p "$package" $target -- --exact "$test") \
            > "$work/test.log" 2>&1 || true
        if grep -q "^test $test \.\.\. FAILED" "$work/test.log"; then
            echo "mutant $name: killed by $package $2 $test"
        else
            status=1
            echo "mutant $name: survived, $package $2 $test did not fail:" >&2
            grep -E "^test |^running |test result" "$work/test.log" >&2 || tail -5 "$work/test.log" >&2
        fi
    fi
    (cd "$tree" && git apply -R "$patch")
    [ "$status" -eq 0 ] || survivors="$survivors $name"
done

if [ -n "$survivors" ]; then
    echo "error: mutants not killed:$survivors" >&2
    exit 1
fi
