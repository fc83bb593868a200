#!/usr/bin/env bash
# Builds the benchmark and the daemons it drives from the checkout's
# sources, then runs one workload:
#
#   bash perfbench/run.sh --workload <serve-join|fleet-mix|order-k> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the repository. Every build and run artifact
# stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/perfbench" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ not found)" >&2
	exit 2
fi
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
mkdir -p "$out/bin" "$out/tmp" "$out/config"

(cd "$root/perfbench" &&
	go build -o "$out/bin/perfbench" . &&
	go build -o "$out/bin/qpserved" qporder/cmd/qpserved &&
	go build -o "$out/bin/qprouter" qporder/cmd/qprouter) >&2

commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
work="$out/work/$$"
trap 'rm -rf "$work"' EXIT
"$out/bin/perfbench" --bin "$out/bin" --work "$work" --spans "$out/spans" --commit "$commit" "$@"
