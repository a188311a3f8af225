package nimbus

import "time"

// Eta returns the most recent elasticity value; ok is false until a
// full window has been observed.
func (e *Estimator) Eta() (eta float64, ok bool) { return e.etaLast, e.etaOK }

// Elastic reports whether the most recent window was classified
// elastic.
func (e *Estimator) Elastic() bool { return e.etaOK && e.etaLast >= EtaThreshold }

// SRTT returns the latest smoothed RTT the estimator has seen.
func (e *Estimator) SRTT() time.Duration { return e.srtt }

// MinRTT returns the latest minimum RTT the estimator has seen.
func (e *Estimator) MinRTT() time.Duration { return e.minRTT }
