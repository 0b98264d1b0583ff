// Command plasmalint runs the repo's custom static-analysis suite: four
// per-package analyzers that enforce invariants this codebase has already
// shipped a bugfix for (see internal/lint). It is stdlib-only and resolves
// imports through `go list -export`, so it needs no tooling beyond the
// toolchain.
//
// Usage:
//
//	plasmalint [packages]
//
// With no packages it lints ./... from the current directory. Findings
// print as "file:line: [analyzer] message" and exit status 1; a clean tree
// exits 0. Every rule is absolute: no comment excuses a finding, and each
// message names the rewrite that satisfies the rule.
package main

import (
	"fmt"
	"os"

	"plasmahd/internal/lint"
)

func main() {
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "plasmalint:", err)
		os.Exit(2)
	}
	os.Exit(lint.Main(dir, os.Args[1:], os.Stdout, os.Stderr))
}
