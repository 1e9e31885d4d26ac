#!/usr/bin/env bash
# Builds boundstat, elmored and the perfbench command from the checkout's
# sources, then runs one benchmark workload. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload sweep-small --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binaries, generated corpora,
# trace spans) stays under .bench_build/ in the current directory. The
# last line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
if [ ! -f go.mod ] || [ ! -d cmd/boundstat ] || [ ! -d cmd/elmored ]; then
	echo "perfbench: run from the root of a full checkout (go.mod, cmd/boundstat, cmd/elmored)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/work" "$build/gocache" "$build/config/go/telemetry" "$build/gopath"
# With telemetry on (its default is "local"), every go command may start a
# detached child that outlives this script; turn it off before the first one.
printf 'off' > "$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$build/bin/" ./cmd/boundstat ./cmd/elmored >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/work" "$@"
