#!/usr/bin/env bash
# Dead-code gate: fails when a function or method declared in a non-test
# file of a library package (internal/*, the public package gals and
# client/) is linked into no main package of the repo (cmd/*, examples/*,
# and bench/galsbench in the separate bench/ module), or when a type alias
# of gals.go is named nowhere else.
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
$GO list -f '{{$d := .Dir}}{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{$d}}/{{.}}{{"\n"}}{{end}}' ./internal/... . ./client |
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

# A type alias in gals.go links no symbol of its own, so the linker cannot
# tell whether anything uses it. It is dead when no other code line of
# gals.go (comments stripped) names it, no non-test Go file under cmd/,
# examples/ or bench/ names gals.<Alias>, and the allowlist does not
# list it as gals.<Alias>.
awk '
	/^type \(/ { block = 1; next }
	block && /^\)/ { block = 0; next }
	block && match($0, /^\t[A-Z][A-Za-z0-9_]* *=/) { print substr($0, 2, RLENGTH - 1) "\t" NR; next }
	match($0, /^type [A-Z][A-Za-z0-9_]* *=/) { print substr($0, 6, RLENGTH - 5) "\t" NR }' gals.go |
	sed -E 's/ *=\t/\t/' >"$tmp/aliases"
find cmd examples bench -name '*.go' ! -name '*_test.go' -exec cat {} + >"$tmp/clients"
sed -E 's#//.*##' gals.go >"$tmp/gals_code"
: >"$tmp/named"
while IFS=$'\t' read -r alias line; do
	if awk -v a="$alias" -v l="$line" 'NR != l && $0 ~ ("(^|[^A-Za-z0-9_])" a "([^A-Za-z0-9_]|$)") { found = 1 } END { exit !found }' "$tmp/gals_code" ||
		grep -qE "gals\.$alias([^A-Za-z0-9_]|$)" "$tmp/clients"; then
		echo "gals.$alias" >>"$tmp/named"
	elif ! grep -qxF "gals.$alias" "$tmp/allowed"; then
		printf 'gals.%s\t%s/gals.go:%s\n' "$alias" "$PWD" "$line" >>"$tmp/dead"
	fi
done <"$tmp/aliases"

# An allowlist entry that is no longer declared, or is linked (named, for
# an alias) after all, is stale.
{ cut -f1 "$tmp/declared"; sed 's/^/gals./; s/\t.*//' "$tmp/aliases"; } | sort -u >"$tmp/names"
comm -23 "$tmp/allowed" "$tmp/names" | sed 's/$/: allowlisted but not declared/' >"$tmp/stale"
sort -u "$tmp/linked" "$tmp/named" | comm -12 "$tmp/allowed" - | sed 's/$/: allowlisted but linked or named/' >>"$tmp/stale"

status=0
if [ -s "$tmp/dead" ]; then
	echo "deadcode: declared in a library package but linked into no main package (or, for a gals.go type alias, named by none):" >&2
	awk -F'\t' -v root="$PWD/" '{ sub(root, "", $2); print "  " $2 ": " $1 }' "$tmp/dead" >&2
	status=1
fi
if [ -s "$tmp/stale" ]; then
	echo "deadcode: stale entries in $allow:" >&2
	sed 's/^/  /' "$tmp/stale" >&2
	status=1
fi
[ $status -eq 0 ] && echo "deadcode: $(cut -f1 "$tmp/declared" | sort -u | wc -l) library functions and $(wc -l <"$tmp/aliases") gals.go type aliases, all linked, named or allowlisted"
exit $status
