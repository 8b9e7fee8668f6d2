package obs

// Version is the build/version string every daemon exports (the
// mc_build_info metric, the worker's Hello, mctop's footer). It is
// meant to be stamped at link time:
//
//	go build -ldflags "-X repro/internal/obs.Version=$(git describe --always --dirty)"
//
// and stays "dev" for plain `go build` / `go test` binaries.
var Version = "dev"
