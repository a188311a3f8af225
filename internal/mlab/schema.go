// Package mlab models the M-Lab NDT measurement data the paper's
// passive analysis (§3.1) consumes: per-flow records carrying TCP_INFO
// snapshot streams, JSONL encoding for datasets on disk, a synthetic
// dataset generator standing in for the (network-gated) real archive,
// and the filtering + change-point analysis pipeline itself.
//
// The real M-Lab NDT dataset requires BigQuery access; the generator
// reproduces the schema and the behavioural mixture the paper
// describes (application-limited, receiver-limited, cellular, steady
// bulk, contending, and policed flows) while retaining ground-truth
// labels so the pipeline's classification can be validated — something
// impossible with the real data.
package mlab

import (
	"time"

	"repro/internal/tcpinfo"
)

// Label is the generator's ground-truth flow class. The analysis
// pipeline never reads it; validation code does.
type Label string

// Ground-truth labels for synthetic flows.
const (
	LabelAppLimited  Label = "app-limited"  // e.g. video: bounded offered load
	LabelRWndLimited Label = "rwnd-limited" // slow receiving application
	LabelCellular    Label = "cellular"     // isolated, variable radio link
	LabelSteady      Label = "steady"       // bulk flow, stable allocation
	LabelContending  Label = "contending"   // bulk flow whose share shifts as competitors come and go
	LabelPoliced     Label = "policed"      // token-bucket policed mid-flow
	LabelShort       Label = "short"        // finishes within the initial window
)

// AccessType categorizes the client's access network, mirroring the
// inference the paper applies to exclude cellular clients.
type AccessType string

// Access network types.
const (
	AccessWifi     AccessType = "wifi"
	AccessEthernet AccessType = "ethernet"
	AccessCellular AccessType = "cellular"
	AccessSat      AccessType = "satellite"
)

// Record is one NDT-style measurement: a download test with TCP_INFO
// snapshots over its lifetime.
type Record struct {
	// ID uniquely identifies the test.
	ID string `json:"id"`
	// Start is the test's start time.
	Start time.Time `json:"start"`
	// Duration is the test length.
	Duration time.Duration `json:"duration"`
	// Access is the inferred access-network type.
	Access AccessType `json:"access"`
	// Snapshots is the TCP_INFO stream, typically one per 100ms.
	Snapshots []tcpinfo.Snapshot `json:"snapshots"`
	// MeanThroughputBps is the test's overall delivery rate.
	MeanThroughputBps float64 `json:"mean_throughput_bps"`
	// TruthLabel is the generator's ground truth (empty for real
	// data). Analysis code must not consult it.
	TruthLabel Label `json:"truth_label,omitempty"`
}

// FinalSnapshot returns the last snapshot, or a zero value if none.
func (r *Record) FinalSnapshot() tcpinfo.Snapshot {
	if len(r.Snapshots) == 0 {
		return tcpinfo.Snapshot{}
	}
	return r.Snapshots[len(r.Snapshots)-1]
}

// ThroughputTrace extracts the per-snapshot throughput series in
// bits/s.
func (r *Record) ThroughputTrace() []float64 {
	return r.ThroughputTraceInto(nil)
}

// ThroughputTraceInto extracts the throughput series into buf's
// backing array (growing it only when needed), so a caller processing
// many flows can reuse one buffer allocation-free.
func (r *Record) ThroughputTraceInto(buf []float64) []float64 {
	buf = buf[:0]
	for i := range r.Snapshots {
		buf = append(buf, r.Snapshots[i].ThroughputBps)
	}
	return buf
}
