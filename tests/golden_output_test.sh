#!/bin/sh
# Runs a command and compares its stdout, byte for byte, with a golden
# file; prints a unified diff and fails when they differ or when the
# command fails.
#
# Usage: golden_output_test.sh <golden-file> <command> [args...]

set -eu

golden=$1
shift
out=$(mktemp)
trap 'rm -f "$out"' EXIT
"$@" > "$out"
diff -u "$golden" "$out"
