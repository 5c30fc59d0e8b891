#!/usr/bin/env bash
# Builds the serving benchmark from the surrounding source tree and runs
# it with the given arguments (see main.go for the flags). Every build
# artifact, the Go build cache included, stays under .bench_build/ at the
# root of the tree the script is run from.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
