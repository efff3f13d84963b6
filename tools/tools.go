// Package tools pins the versions of the external analysis tools the
// lint and vulncheck Makefile targets invoke.
//
// The conventional tools.go pattern blank-imports each tool so go.mod
// records its version, but this repository builds offline with an
// empty module graph, so a tool requirement in go.mod would break
// `go build ./...`. Instead the tools run through the module-free
//
//	go run <import-path>@<version>
//
// form, and this file is the single source of truth for <version>:
// the Makefile extracts the constants below with sed, so bumping a
// pin is a one-line change that code review sees. `go run pkg@version`
// downloads a tool it has not cached, so the Makefile probes a tool only
// in CI or when its module is already in the local module cache, and
// skips (staticcheck) or reports without failing (govulncheck) when the
// probe is not run or fails — ldplint and go vet, which are fully
// in-tree, still run and still gate.
package tools

const (
	// StaticcheckVersion pins honnef.co/go/tools/cmd/staticcheck.
	StaticcheckVersion = "2025.1.1"
	// GovulncheckVersion pins golang.org/x/vuln/cmd/govulncheck.
	GovulncheckVersion = "v1.1.4"
)
