#!/usr/bin/env bash
# lint-fix-check: prove that `udmlint -fix` is safe to run on the tree.
#
# The module is copied aside, fixes are applied to the copy, and the
# gate fails if:
#   - the fix engine itself errors (exit code > 1),
#   - the fixed copy no longer builds or no longer passes its tests
#     (a fix changed behavior), or
#   - a second -fix run still applies something (a non-idempotent fix).
#
# On a lint-clean tree the first run applies nothing and the check
# degenerates to "the tree still builds and tests" — that is the point:
# the gate holds whether or not there is anything to fix.
set -euo pipefail

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# Copy the module, skipping VCS metadata.
tar --exclude=.git -cf - . | tar -xf - -C "$work"

echo "==> udmlint -fix on the copy"
code=0
(cd "$work" && go run ./cmd/udmlint -fix ./...) || code=$?
if [ "$code" -gt 1 ]; then
    echo "lint-fix-check: udmlint -fix errored (exit $code)" >&2
    exit 1
fi

echo "==> fixed copy must still build and pass tests"
(cd "$work" && go build ./... && go test ./...)

echo "==> second -fix run must apply nothing"
second_stderr="$work/.second-fix-stderr"
code=0
(cd "$work" && go run ./cmd/udmlint -fix ./... >/dev/null 2>"$second_stderr") || code=$?
if [ "$code" -gt 1 ]; then
    cat "$second_stderr" >&2
    echo "lint-fix-check: second udmlint -fix run errored (exit $code)" >&2
    exit 1
fi
if grep -q "applied" "$second_stderr"; then
    cat "$second_stderr" >&2
    echo "lint-fix-check: udmlint -fix is not idempotent" >&2
    exit 1
fi

echo "lint-fix-check: OK"
