#!/usr/bin/env sh
# Static contract gate: exactly what CI's lint job runs. holint is the
# in-repo analyzer suite (internal/analysis, DESIGN.md §12) that turns
# the correctness contracts — determinism, pure step functions,
# allocate-after-validate, errors.Is discipline, the write-ahead
# barrier, atomic/plain access discipline, goroutine termination, lock
# ordering, and the //holint:hotpath zero-alloc annotations — into
# merge blockers. Runs fully offline. On failure holint prints one
# finding per line plus a per-analyzer count summary on stderr.
#
# The benchmark (cmd/hoperf) is a module of its own, so `./...` above
# never reaches it; its vet + holint run here too (and its tests in
# CI's test job), unedited, so a change to an internal API it uses
# fails now and not at the next bench run.
#
# gofmt comes first: a file `gofmt -l .` lists fails the gate (the walk
# covers cmd/hoperf too), so formatting drift is caught where it lands.
#
# Usage:
#   scripts/lint.sh                        # gofmt + vet + all nine analyzers
#   scripts/lint.sh -only lockorder,goleak # flags pass through to holint
#   HOLINT_ESCAPE=1 scripts/lint.sh        # also run the compiler-backed
#                                          # escape gate (go build -gcflags=-m)
set -eu
cd "$(dirname "$0")/.."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files are not formatted (run gofmt -w):" >&2
	echo "$unformatted" >&2
	exit 1
fi
go vet ./...
go run ./cmd/holint "$@" ./...
(cd cmd/hoperf && go vet . && go run heardof/cmd/holint "$@" ./...)
if [ "${HOLINT_ESCAPE:-0}" = "1" ]; then
	go run ./cmd/holint -escape ./...
	echo "lint OK: gofmt, go vet, holint, and the escape gate are clean"
else
	echo "lint OK: gofmt, go vet and holint are clean"
fi
