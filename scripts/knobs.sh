#!/usr/bin/env bash
# knobs.sh prints the settable fields of every struct type named *Config,
# *Options or *Policy in the non-test Go under internal/ and cmd/: one line
# per struct (field count, then package.Type), then the total. Each name in
# an `A, B T` line counts once; an embedded field counts none. It reads the
# gofmt layout (make fmt-check holds the tree to it): a field is a line one
# tab deeper than its type's declaration, so a nested struct's own fields
# are not counted. Run it as `make knobs`: given a ceiling as its argument
# (the Makefile's KNOBS_MAX), it fails if the total is over it.
set -euo pipefail
cd "$(dirname "$0")/.."
max=${1:-}

report=$(find internal cmd -name '*.go' ! -name '*_test.go' | sort | xargs awk '
function tabs(s) { match(s, /^\t*/); return RLENGTH }
function flush() {
	if (name != "") {
		printf "%4d %s.%s\n", count, pkg, name
		total += count; structs++
	}
	name = ""
}
FNR == 1 { flush(); pkg = FILENAME; sub(/\/[^\/]*$/, "", pkg); sub(/^(internal|cmd)\//, "", pkg) }
name != "" && $0 == close_line { flush(); next }
name != "" {
	if (tabs($0) != depth + 1) next
	line = $0; sub(/^\t+/, "", line); sub(/[ \t]*\/\/.*$/, "", line)
	if (line == "") next
	n = split(line, tok, /[ \t]+/)
	k = 1
	while (k < n && tok[k] ~ /,$/) k++
	if (k > 1) count += k
	else if (n >= 2 && tok[2] !~ /^`/) count++
	next
}
/^\t*(type )?[A-Za-z0-9_]*(Config|Options|Policy) struct \{$/ {
	depth = tabs($0)
	name = $0; sub(/^\t*(type )?/, "", name); sub(/ struct \{$/, "", name)
	close_line = substr($0, 1, depth) "}"
	count = 0
}
END { flush(); printf "%4d total in %d structs\n", total, structs }
')
echo "$report"
total=$(echo "$report" | awk '/ total in / { print $1 }')
if [[ -n "$max" && "$total" -gt "$max" ]]; then
	echo "knobs: $total settable fields, over KNOBS_MAX=$max" >&2
	exit 1
fi
