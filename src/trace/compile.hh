/**
 * @file
 * Forwarders for bench/pipeline, which compiles against these names.
 * TraceRecorder encodes SCBC as it captures, so a capture already is
 * its program and there is no compile step behind them.
 */

#ifndef SPARSECORE_TRACE_COMPILE_HH
#define SPARSECORE_TRACE_COMPILE_HH

#include "trace/bytecode.hh"

namespace sc::trace {

/** bench/pipeline compiles against this name for a captured program. */
using Trace = BytecodeProgram;

/** bench/pipeline compiles against this: a copy of the program. */
inline BytecodeProgram
compileTrace(const Trace &trace)
{
    return trace;
}

} // namespace sc::trace

#endif // SPARSECORE_TRACE_COMPILE_HH
