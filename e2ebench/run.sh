#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run from the root of the repository:
#
#   bash e2ebench/run.sh --workload fhe-resnet-closed --seed 1 --seconds 30 --trace 0
#
# Every build product (Go build cache, temporary files, Go's user config and
# telemetry, the binary, traces) lands under .bench_build/ at the root, so
# the run writes nothing outside the checkout.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/tmp" "${out}/gopath" "${out}/config"
export GOCACHE="${out}/gocache" GOTMPDIR="${out}/tmp" GOPATH="${out}/gopath"
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="${out}/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "${root}/e2ebench" && go build -o "${out}/e2ebench" .)
exec "${out}/e2ebench" --root "${root}" --out "${out}" "$@"
