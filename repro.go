// Package repro is the root of the BYOM storage-placement
// reproduction: a from-scratch Go implementation of "A Bring-Your-Own-
// Model Approach for ML-Driven Storage Placement in Warehouse-Scale
// Computers" (MLSys 2025), including every substrate the paper's
// evaluation depends on.
//
// The public API lives in package repro/byom; the experiment harness
// that regenerates every table and figure is repro/internal/experiments
// (driven by cmd/experiments). See README.md for a map and
// docs/ARCHITECTURE.md ("Paper section → package correspondence") for
// what stands in for what.
package repro
