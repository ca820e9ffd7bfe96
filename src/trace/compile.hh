/**
 * @file
 * compileTrace(): lower a captured Trace into the flat bytecode form
 * (trace/bytecode.hh). Compiled once per (app, dataset) and replayed
 * onto any backend by trace::replayCompiled.
 */

#ifndef SPARSECORE_TRACE_COMPILE_HH
#define SPARSECORE_TRACE_COMPILE_HH

#include "trace/bytecode.hh"

namespace sc::trace {

/**
 * Lower a captured trace into bytecode. A pure function of the trace
 * (deterministic output; the committed golden SCBC image pins it).
 * The trace is only read; the returned program owns copies of the
 * arena and nested-entry table, so it outlives the trace.
 *
 * Compile-time validation replaces replay-time checks: every stream
 * handle is either the sentinel or below handleCount(), every span
 * lies inside the arena and every nested group inside the entry
 * table, so the hot replay loops index without bounds branches.
 * Malformed traces panic here, exactly like the event walker would.
 *
 * Runs of consecutive identical scalarOps events fuse into one
 * run-length instruction; replay still issues one backend call per
 * source event, keeping the ceil(n/issueWidth) cost-model semantics
 * bit-identical.
 */
BytecodeProgram compileTrace(const Trace &trace);

} // namespace sc::trace

#endif // SPARSECORE_TRACE_COMPILE_HH
