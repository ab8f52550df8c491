#!/usr/bin/env bash
# Dead-code gate: fails when a function or method declared in a non-test
# file under internal/ is linked into no main package of the repo
# (cmd/*, examples/*, and bench/galsbench in the separate bench/ module).
#
# Every main package is built with inlining off (-gcflags=all=-l), so a
# function the linker keeps shows up in `go tool nm` even when every caller
# would inline it. The linker drops what nothing reachable calls, so a
# declaration missing from every binary is called only by tests (or by
# nothing). Exceptions live in scripts/deadcode.allow, one symbol and its
# reason per line.
#
# Usage: scripts/deadcode.sh   (run from the repository root)
set -euo pipefail

GO=${GO:-go}
allow=scripts/deadcode.allow
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Strip type arguments, innermost brackets first: Group[go.shape.string,…]
# and serve[…] become Group and serve, matching their declarations.
strip_generics() { sed -E ':a; s/\[[^][]*\]//g; ta'; }

# Symbols of every main package.
for pkg in $($GO list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./cmd/... ./examples/...); do
	$GO build -gcflags=all=-l -o "$tmp/bin" "$pkg"
	$GO tool nm "$tmp/bin" >>"$tmp/nm"
done
(cd bench && $GO build -gcflags=all=-l -o "$tmp/bin" ./galsbench)
$GO tool nm "$tmp/bin" >>"$tmp/nm"
# A symbol name may hold spaces (shape types of generic instantiations), so
# cut the address and type columns rather than taking the last field.
sed -E 's/^[[:space:]]*[0-9a-f]*[[:space:]]+[A-Za-z][[:space:]]+//' "$tmp/nm" | strip_generics | sort -u >"$tmp/linked"

# Declarations in the files this platform builds (go list applies build
# constraints), as package-qualified symbols: F, T.M or (*T).M.
$GO list -f '{{$d := .Dir}}{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{$d}}/{{.}}{{"\n"}}{{end}}' ./internal/... |
	while read -r pkg file; do
		strip_generics <"$file" | awk -v pkg="$pkg" -v file="$file" '
			/^func / {
				s = substr($0, 6)
				recv = ""
				if (s ~ /^\(/) {
					r = substr(s, 2, index(s, ")") - 2)
					s = substr(s, index(s, ")") + 2)
					n = split(r, f, " ")
					t = f[n]
					if (t ~ /^\*/) recv = "(" t ")."; else recv = t "."
				}
				match(s, /^[A-Za-z0-9_]+/)
				name = substr(s, 1, RLENGTH)
				if (name == "init" || name == "main" || name == "_") next
				print pkg "." recv name "\t" file ":" NR
			}'
	done | sort >"$tmp/declared"

awk '$1 != "" && $1 !~ /^#/ { print $1 }' "$allow" | sort -u >"$tmp/allowed"

# (FILENAME, not NR == FNR, tells the files apart: the allowlist may be empty.)
awk -F'\t' -v keep="$tmp/linked $tmp/allowed" '
	BEGIN { n = split(keep, f, " "); for (i = 1; i <= n; i++) while ((getline s < f[i]) > 0) ok[s] = 1 }
	!($1 in ok)' "$tmp/declared" >"$tmp/dead"

# An allowlist entry that is no longer declared, or is linked after all,
# is stale.
cut -f1 "$tmp/declared" | sort -u >"$tmp/names"
comm -23 "$tmp/allowed" "$tmp/names" | sed 's/$/: allowlisted but not declared/' >"$tmp/stale"
comm -12 "$tmp/allowed" "$tmp/linked" | sed 's/$/: allowlisted but linked/' >>"$tmp/stale"

status=0
if [ -s "$tmp/dead" ]; then
	echo "deadcode: declared in internal/ but linked into no main package:" >&2
	awk -F'\t' -v root="$PWD/" '{ sub(root, "", $2); print "  " $2 ": " $1 }' "$tmp/dead" >&2
	status=1
fi
if [ -s "$tmp/stale" ]; then
	echo "deadcode: stale entries in $allow:" >&2
	sed 's/^/  /' "$tmp/stale" >&2
	status=1
fi
[ $status -eq 0 ] && echo "deadcode: $(wc -l <"$tmp/names") internal functions, all linked or allowlisted"
exit $status
