#!/usr/bin/env bash
# fuzz-corpus.sh — regenerate the committed seed corpora of internal/service
# and internal/mc.
#
# Two fuzz targets are not regenerated here. internal/protocol's
# FuzzDecodeMessage keeps its v9 seeds current with
# `go test ./internal/protocol -run TestCommittedCorpus -update-corpus`; its
# v8 and v7 seeds and its gob seeds of v6 and before are never rewritten. internal/report's
# FuzzReadReport seeds itself in the test (f.Add): a tally file, a cut one
# and a gob file of the first format.
#
# FuzzDecodeJobRequest is seeded from genjob bodies, so the seeds follow the
# submission schema instead of freezing JSON by hand: a tiny slab, the
# paper's head, a voxel grid, a precision target, a typoed field the strict
# decoder must refuse, a path grid past mc.MaxGridN that normalization must
# refuse, and a body over the fuzz target's 16 KiB cap.
# FuzzDecodeJournalRecord is seeded with the journal's own accept and
# snapshot records of four job shapes (slab, head, voxel, precision target)
# and FuzzDecodeSubmission with the same jobs in the compact form a gateway
# forwards, both written by TestCommittedJournalCorpus -update-corpus. internal/mc's FuzzDecodeTally
# is seeded with a frame of every section shape and with over-claiming
# headers, written by TestCommittedTallyCorpus -update-corpus.
#
# Run from anywhere inside the repo and commit the diff.
set -euo pipefail

cd "$(dirname "$0")/.."
DIR=internal/service/testdata/fuzz/FuzzDecodeJobRequest
mkdir -p "$DIR"

seed() { # name: stdin is the body
  { echo "go test fuzz v1"
    printf '[]byte("%s")\n' "$(tr -d '\n' | sed 's/\\/\\\\/g; s/"/\\"/g')"
  } >"$DIR/$1"
}

go run ./scripts/genjob -photons 16 -chunk 16 | seed tiny_slab
go run ./scripts/genjob -model head -photons 1840 -chunk 230 | seed head
go run ./scripts/genjob -model voxel | seed voxel
go run ./scripts/genjob -relerr 0.05 | seed precision_target
go run ./scripts/genjob | sed 's/"label":/"prioirty":9,"label":/' | seed unknown_field
go run ./scripts/genjob | sed 's/"PathGrid":null/"PathGrid":{"N":100000,"Edge":10}/' | seed overbound_grid
go run ./scripts/genjob -label "$(head -c 17000 /dev/zero | tr '\0' x)" | seed oversize

mkdir -p internal/service/testdata/fuzz/FuzzDecodeJournalRecord internal/service/testdata/fuzz/FuzzDecodeSubmission
go test ./internal/service -run 'TestCommittedJournalCorpus$' -update-corpus
mkdir -p internal/mc/testdata/fuzz/FuzzDecodeTally
go test ./internal/mc -run 'TestCommittedTallyCorpus$' -update-corpus
