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
 * Both entry points prepare the request's program through
 * api::prepare() (api/pipeline.hh) and replay it. Every workload
 * keeps its captured program in the content-keyed ArtifactStore
 * (api/artifact_store.hh), so repeated runs of one request across
 * substrates, configs or sweep points pay the functional enumeration
 * once. A cold capture and a warm hit give the same results and
 * cycles as direct execution (api::execute) on the same backend.
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
