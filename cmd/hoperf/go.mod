// hoperf is a module of its own so that the repository's tier-1
// `go build ./... && go test ./...` never builds or runs the benchmark;
// the heardof/ path prefix keeps the internal packages importable.
module heardof/cmd/hoperf

go 1.22

require heardof v0.0.0

replace heardof => ../..
