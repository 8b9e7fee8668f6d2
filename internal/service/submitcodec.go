package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
)

// SubmissionCompactType is the Content-Type of the POST /jobs a routing tier
// forwards: AppendSubmission's bytes. A client's own body stays JSON.
const SubmissionCompactType = "application/vnd.mc.job"

// The compact submission is the JobSpec between two tiers of this service
// and on disk — the gateway→shard hop and the journal's accept record; JSON
// with a base64 grid is for the client at the edge. A JSON header holds
// every field but a voxel grid's labels, which ride raw behind it to the
// end of the data (empty for a layered job):
//
//	version · uvarint len(header) · header · labels
//
// header is json.Marshal of the JobSpec, so a field added later is carried
// without anyone remembering to. Data that starts with '{' is a bare header
// with any labels inline: the accept record of a journal written before
// this encoding, and the only concession to one.
const submissionCodecVersion = 1

var errBadSubmission = errors.New("service: malformed compact submission")

// AppendSubmission appends the compact encoding of spec to dst, growing it
// once. The labels are elided from the header on a shallow copy: the spec
// and its grid, which other live jobs may share, are never written to.
func AppendSubmission(dst []byte, spec *JobSpec) ([]byte, error) {
	hdr := *spec
	var labels []uint8
	if sp := spec.Spec; sp != nil && sp.Voxel != nil && len(sp.Voxel.Labels) > 0 {
		labels = sp.Voxel.Labels
		bare := *sp
		bare.Voxel = sp.Voxel.WithLabels(nil)
		hdr.Spec = &bare
	}
	header, err := json.Marshal(&hdr)
	if err != nil {
		return dst, fmt.Errorf("service: compact submission: %w", err)
	}
	dst = slices.Grow(dst, 1+binary.MaxVarintLen64+len(header)+len(labels))
	dst = append(dst, submissionCodecVersion)
	dst = binary.AppendUvarint(dst, uint64(len(header)))
	dst = append(dst, header...)
	return append(dst, labels...), nil
}

// DecodeSubmission is the inverse of AppendSubmission; the decoded grid's
// labels alias data. Unknown header fields are refused, so a submission
// from a build with a different JobSpec fails loudly instead of running as
// a subtly different job. Nothing is sized from a claimed length: a tail
// that does not fill the grid is for voxel.Grid.Validate to refuse.
func DecodeSubmission(data []byte) (JobSpec, error) {
	header, labels := data, []byte(nil)
	if len(data) == 0 || data[0] != '{' {
		if len(data) == 0 || data[0] != submissionCodecVersion {
			return JobSpec{}, errBadSubmission
		}
		n, w := binary.Uvarint(data[1:])
		if w <= 0 || n > uint64(len(data)-1-w) {
			return JobSpec{}, errBadSubmission
		}
		header, labels = data[1+w:1+w+int(n)], data[1+w+int(n):]
	}
	var spec JobSpec
	dec := json.NewDecoder(bytes.NewReader(header))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, fmt.Errorf("service: compact submission: %w", err)
	}
	if len(labels) > 0 {
		if spec.Spec == nil || spec.Spec.Voxel == nil || spec.Spec.Voxel.Labels != nil {
			return JobSpec{}, errBadSubmission
		}
		spec.Spec.Voxel.Labels = labels
	}
	return spec, nil
}
