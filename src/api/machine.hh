/**
 * @file
 * sc::api::Machine — the library's top-level facade.
 *
 * A Machine owns a SparseCore configuration and executes RunRequests
 * (api/run.hh) on one substrate (run()) or on both with capture-once
 * trace replay (compare()). This is the API the examples and most
 * benchmarks use; lower layers (backends, engine, plans) remain
 * public for advanced use.
 *
 * Programs are prepared through api::prepare() (api/pipeline.hh);
 * run() executes unkeyed (tensor) requests directly on the timing
 * backend instead, unless the run verifies. GPM and FSM requests
 * keep their captured programs in the content-keyed ArtifactStore
 * (api/artifact_store.hh), so repeated runs of one (app, dataset)
 * across substrates, configs or sweep points pay the functional
 * enumeration once. Cached and cold paths are bit-identical (results
 * and cycles); SC_ARTIFACT_CACHE or RunOptions::artifactCache opt
 * out.
 *
 * The legacy positional-argument overloads (mineSparseCore,
 * compareGpm, spmspmCpu, ...) that survived PR 3 as deprecated shims
 * are gone; use RunRequest.
 */

#ifndef SPARSECORE_API_MACHINE_HH
#define SPARSECORE_API_MACHINE_HH

#include "api/report.hh"
#include "api/run.hh"
#include "arch/config.hh"

namespace sc::api {

/** The facade. */
class Machine
{
  public:
    explicit Machine(
        const arch::SparseCoreConfig &config = arch::SparseCoreConfig{});

    const arch::SparseCoreConfig &config() const { return config_; }

    /** Execute a request on one substrate. */
    RunResult run(const RunRequest &request, Substrate substrate) const;

    /** Execute a request on both substrates (one functional capture,
     *  two concurrent replays) and report the speedup. */
    Comparison compare(const RunRequest &request) const;

  private:
    arch::SparseCoreConfig config_;
};

} // namespace sc::api

#endif // SPARSECORE_API_MACHINE_HH
