#!/usr/bin/env bash
# Builds the pubopt server and the perfbench program from the checkout this
# script sits in, then runs perfbench with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload grid-dense --seed 1 --seconds 30 --trace 0
#
# Every build product and the Go build cache live under .bench_build/ at the
# checkout root, so the benchmark reads and writes nothing outside it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export TMPDIR="$out/tmp"

if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/pubopt" ]]; then
	echo "run.sh: no pubopt source at $root (need go.mod and cmd/pubopt)" >&2
	exit 1
fi
# The go command otherwise forks a detached telemetry process that can
# outlive this script; "go telemetry off" itself never starts one.
go telemetry off

(cd "$root" && go build -o "$out/pubopt" ./cmd/pubopt) >&2
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -server "$out/pubopt" -out "$out" "$@"
