/**
 * @file
 * Umbrella header for the observability subsystem: the hierarchical
 * stat registry (counters/gauges) and the adaptation decision trace.  Wall-clock profiling lives in the span tracer
 * (trace/span_tracer.hh).
 */

#pragma once

#include "stats/decision_trace.hh"
#include "stats/stat_registry.hh"

