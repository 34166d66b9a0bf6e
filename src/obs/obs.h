// idxsel::obs — unified tracing, metrics, and profiling layer.
//
// Umbrella header. Instrumentation sites in the selection pipeline declare
// an obs::Span (RAII; one relaxed atomic load while obs::Enabled() is
// false) and bump registry counters directly; obs/runtime.h holds the one
// runtime switch.
//
// See doc/observability.md for naming conventions, JSON schemas, and how
// to open a captured trace in Chrome.

#ifndef IDXSEL_OBS_OBS_H_
#define IDXSEL_OBS_OBS_H_

#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/resource.h"
#include "obs/runtime.h"
#include "obs/trace.h"

#endif  // IDXSEL_OBS_OBS_H_
