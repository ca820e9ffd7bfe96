/**
 * @file
 * The four pipeline-benchmark workloads: fixed job catalogues, and the
 * seeded order in which passes of a catalogue are submitted.
 *
 * A pass is the whole catalogue; a run streams passes back to back.
 * The seed picks each pass's order (group order, burst order inside a
 * group) and draws the service mix's priorities; it never changes
 * which jobs a pass holds, so runs with different seeds measure the
 * same work in a different order. A new order every pass averages out
 * which jobs queue behind which. The cold-store workloads keep the
 * catalogue's group order and reshuffle only inside each group, so
 * between two uses of a store key every other group's keys are
 * captured: those traces outgrow the store budget, and LRU has always
 * evicted the key by then. README.md gives the reason for every
 * workload.
 */

#ifndef SPARSECORE_BENCH_PIPELINE_WORKLOADS_HH
#define SPARSECORE_BENCH_PIPELINE_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "api/jobspec.hh"

namespace sc::pipeline {

/** Jobs sharing one store key, submitted back to back. */
using Burst = std::vector<api::JobSpec>;

struct Workload
{
    std::string name;
    /** One pass: groups (one per dataset) of bursts. */
    std::vector<std::vector<Burst>> groups;
    /** Set-up captures and compiles every store key of the catalogue,
     *  so every measured job is a store hit. */
    bool warmStore = false;
    /** Draw each job's priority from {0, 50}. */
    bool priorities = false;
    /** Keep the catalogue's group order in every pass; only the bursts
     *  inside each group are reshuffled (see the file comment). */
    bool fixedGroups = false;
    /** SC_ARTIFACT_CACHE_BYTES for the run; 0 = library default. */
    std::size_t storeBytes = 0;
};

/** gpm_warm, fsm_cold, tensor_uncached, mixed_service. */
const std::vector<std::string> &workloadNames();

/** The named workload's catalogue; fatal() on an unknown name. */
Workload makeWorkload(const std::string &name, bool smoke);

/** Every job of one pass, in catalogue order (one round). */
std::vector<api::JobSpec> catalogueJobs(const Workload &workload);

/** The jobs of pass `pass` in submission order, with ids
 *  "<pass>.<index>" and (for the service mix) drawn priorities. */
std::vector<api::JobSpec> passJobs(const Workload &workload,
                                   std::uint64_t seed,
                                   std::uint64_t pass);

/** Identity of a job's expected output: the canonical spec without
 *  id, priority, mode or substrate. */
std::string goldenKey(api::JobSpec spec);

} // namespace sc::pipeline

#endif // SPARSECORE_BENCH_PIPELINE_WORKLOADS_HH
