#!/usr/bin/env bash
# run_named_tests.sh — run the tests a lane selects by name, and fail
# when that selection has gone stale.
#
#   scripts/run_named_tests.sh REGEX [go test flags...] -- PACKAGES...
#
# `go test -run REGEX` exits 0 with "[no tests to run]" when nothing
# matches, so a renamed test silently drops out of a name-selected
# lane. This runs the same command, and fails when a package reports
# no tests to run or when one |-separated alternative of REGEX names
# no test in PACKAGES. (Alternatives are split at every '|', so REGEX
# must not group them in parentheses.)
set -euo pipefail
GO=${GO:-go}
pat=$1
shift
flags=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
	flags+=("$1")
	shift
done
[ $# -gt 0 ] || { echo "usage: $0 REGEX [go test flags...] -- PACKAGES..." >&2; exit 2; }
shift
pkgs=("$@")

listed=$($GO test -list "$pat" "${pkgs[@]}" | grep -E '^(Test|Example|Fuzz|Benchmark)' || true)
IFS='|' read -ra alts <<<"$pat"
for alt in "${alts[@]}"; do
	if ! grep -Eq -- "$alt" <<<"$listed"; then
		echo "run_named_tests: no test in ${pkgs[*]} matches '$alt'" >&2
		exit 1
	fi
done

out=$(mktemp)
trap 'rm -f "$out"' EXIT
status=0
$GO test -run "$pat" ${flags[@]+"${flags[@]}"} "${pkgs[@]}" 2>&1 | tee "$out" || status=$?
if grep -q 'no tests to run' "$out"; then
	echo "run_named_tests: a package ran no tests for -run '$pat'" >&2
	exit 1
fi
exit "$status"
