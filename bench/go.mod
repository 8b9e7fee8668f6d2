// The benchmark is a module of its own so that the tier-1 build and test
// of the repository (go build ./... && go test ./...) neither compile nor
// run it. The import paths keep the repro/ prefix, which is what lets it
// import repro/internal/... for the layer probes.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
