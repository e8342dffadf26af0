#!/bin/sh
# unlinked.sh prints the production functions that no binary links: the
# text symbols the repro packages' archives define and no cmd/ or
# examples/ main contains, kept to the ones the package's non-test
# source declares. Run it from anywhere in the repository; CI diffs its
# output with unlinked.expected, the keep-list. A new line is dead code
# to delete, a test helper to move into a _test.go file of its package,
# or a keep-list entry with a reason.
#
# Every main builds without inlining (a function that is only inlined
# leaves no symbol) into a directory of its own, since two mains may
# share a name. internal/perf is left out: its only binary is cmd/bench.
# Nothing built is run.
set -eu
export LC_ALL=C
cd "$(dirname "$0")/.."
S=$(mktemp -d)
trap 'rm -rf "$S"' EXIT

# syms reads go tool nm output and prints the repro text symbols, one
# name each. It strips the "<archive>(<member>):" prefix nm puts on
# every line of an archive with more than one member (a package with
# assembly), folds an assembly function's ".abi0" into its name, drops
# closures, method values, go/defer wrappers, generic shapes and
# instances and init, and folds (*T).M into T.M.
syms() {
	sed 's/^.*([^)]*\.o):[[:space:]]*//' | awk '$2=="T"{print $3}' | sed 's/\.abi0$//' |
		grep '^repro/' |
		grep -v -E '\.func[0-9]|-fm$|\.(gowrap|deferwrap)[0-9]|go\.shape|\.init(\.[0-9]+)?$|\[' |
		sed 's/(\*\([^)]*\))/\1/' | sort -u
}

for p in $(go list -f '{{if eq .Name "main"}}{{.Dir}}{{end}}' ./cmd/... ./examples/...); do
	rel=${p#"$PWD"/}
	go build -gcflags=all=-l -o "$S/bin/$rel/" "./$rel"
done
find "$S/bin" -type f | while read -r b; do go tool nm "$b"; done | syms >"$S/linked"
go list -gcflags=all=-l -export -f '{{.Export}}' $(go list ./internal/... ./byom | grep -v 'internal/perf$') |
	xargs -n1 go tool nm | syms >"$S/defined"

# A symbol the linker dropped counts only if the package's own source
# declares it: that drops promoted-method wrappers and interface stubs.
comm -13 "$S/linked" "$S/defined" | while read -r s; do
	p=${s%%.*} f=${s#*.}
	d=.${p#repro}
	case $f in
	*.*) re="^func \([a-z_]* ?\*?${f%%.*}\) ${f#*.}[([]" ;;
	*) re="^func $f[([]" ;;
	esac
	if ls "$d"/*.go | grep -v _test.go | xargs grep -Eq "$re"; then
		echo "$s"
	fi
done
