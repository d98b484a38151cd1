#!/usr/bin/env sh
# loc.sh — the size of the tree, so that size has a trajectory
# (ROADMAP: net-negative line counts are a goal). Prints, per directory
# that holds Go files, the lines of non-test and of test Go, then the
# totals. Plain text, no dependencies; lines are physical lines (wc -l),
# comments and blanks included. CI's test job prints it; a PR that
# claims to simplify quotes the totals before and after.
#
# Usage: scripts/loc.sh [dir]     # default: the repository root
set -eu
cd "${1:-$(dirname "$0")/..}"

find . -name '*.go' -not -path './.bench_build/*' -not -path '*/testdata/*' | sort |
	xargs wc -l | awk '
	$2 == "total" { next }
	{
		file = $2
		sub(/^\.\//, "", file)
		dir = file
		if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
		if (!(dir in code) && !(dir in test)) order[n++] = dir
		if (file ~ /_test\.go$/) { test[dir] += $1; tests += $1 } else { code[dir] += $1; codes += $1 }
	}
	END {
		printf "%-28s %9s %9s\n", "package", "non-test", "test"
		for (i = 0; i < n; i++)
			printf "%-28s %9d %9d\n", order[i], code[order[i]], test[order[i]]
		printf "%-28s %9d %9d\n", "TOTAL", codes, tests
		printf "%-28s %9d\n", "TOTAL Go lines", codes + tests
	}'
