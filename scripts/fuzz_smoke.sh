#!/usr/bin/env bash
# fuzz_smoke.sh — a 10 s burn of every fuzz target in the module.
#
# Targets are listed from the tree with `go test -list '^Fuzz'`, so a
# new Fuzz* function runs here (and in `make fuzz-smoke` and CI, which
# both call this script) without any list to edit. `go test -fuzz`
# accepts exactly one matching target per run, so each target gets its
# own burn. The first failing burn stops the script with its exit
# status.
#
# Usage: bash scripts/fuzz_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."

# `go test -list` prints each package's matching names, then its
# "ok <package>" line: pair every name with the package that follows.
targets="$(go test -list '^Fuzz' ./... | awk '
	/^Fuzz/ { names[n++] = $1; next }
	/^ok/   { for (i = 0; i < n; i++) print $2, names[i]; n = 0 }')"
if [ -z "$targets" ]; then
	echo "fuzz_smoke: no fuzz targets found" >&2
	exit 1
fi
while read -r pkg name; do
	echo "fuzz_smoke: $name ($pkg)"
	go test -fuzz="^${name}\$" -fuzztime=10s -run='^Fuzz' "$pkg" </dev/null
done <<<"$targets"
