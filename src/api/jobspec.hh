/**
 * @file
 * api::JobSpec — the serializable job description of the service
 * layer, and the API boundary RunRequest could never cross.
 *
 * A RunRequest holds raw `const CsrGraph*` / `SparseMatrix*`
 * pointers: perfect in-process, meaningless across a process or wire
 * boundary. A JobSpec names everything by value — the workload, the
 * dataset *by registry key or file path*, the run options — with
 * versioned JSON (de)serialization and strict validation: unknown
 * fields, bad enum strings, missing dataset references and
 * out-of-range strides all come back as structured JobDiag lists
 * (field + message), never as a thrown-to-abort error. A malformed
 * job must fail that job, not the batch.
 *
 * Lifecycle:
 *
 *     parseJobSpec(json)   ->  JobSpec      (syntax + schema checks)
 *     resolveJob(spec)     ->  ResolvedJob  (dataset refs -> memory)
 *     ResolvedJob.request  ->  Machine::run / compare
 *
 * Resolution goes through the process-wide registries
 * (graph::datasets, tensor::tensor_datasets) and the ArtifactStore,
 * so a thousand jobs naming one dataset share a single loaded graph
 * and captured program. RunRequest survives as the
 * resolved, in-memory form every execution path still consumes.
 *
 * Option precedence: a field set in the JobSpec's "options" object
 * beats the environment default (sc::Config) which beats the built-in
 * default — the optionals in RunOptions encode exactly that.
 */

#ifndef SPARSECORE_API_JOBSPEC_HH
#define SPARSECORE_API_JOBSPEC_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/run.hh"
#include "arch/config.hh"
#include "common/json.hh"

namespace sc::api {

/** One structured validation/resolution diagnostic. */
struct JobDiag
{
    std::string field;   ///< JSON path ("options.stride", "dataset")
    std::string message; ///< what is wrong and what was expected

    JsonValue toJsonValue() const;
};

/** Execute on one substrate, or compare both? */
enum class JobMode { Run, Compare };

const char *jobModeName(JobMode mode);
const char *substrateName(Substrate substrate);
const char *workloadName(RunRequest::Workload workload);

/** The serializable job description (schema v1). */
struct JobSpec
{
    /** Schema version; parseJobSpec rejects anything newer. */
    static constexpr std::int64_t kSchemaVersion = 1;

    std::string id; ///< optional client tag, echoed in the report

    /** Scheduling priority, 0 (default) .. 100. Higher runs earlier
     *  under SchedPolicy::Affinity when jobs wait for a worker slot;
     *  starvation-free aging keeps low-priority jobs progressing.
     *  Never changes results — only dispatch order. */
    int priority = 0;

    RunRequest::Workload workload = RunRequest::Workload::Gpm;
    JobMode mode = JobMode::Compare;
    /** Substrate for mode=Run (Compare always times both). */
    Substrate substrate = Substrate::SparseCore;

    // --- dataset references (resolved at admission time) ---
    /** Registry key: Table-4 graphs for gpm/fsm, Table-5 matrices
     *  for spmspm, Table-5 tensors for ttv/ttm. */
    std::string dataset;
    /** GPM alternative: a SNAP edge-list file path. */
    std::string graphFile;
    /** Spmspm: the B operand's registry key ("" = dataset, C=A*A). */
    std::string datasetB;

    // --- workload parameters ---
    gpm::GpmApp app = gpm::GpmApp::T;               // gpm
    std::uint64_t minSupport = 1;                   // fsm
    std::uint32_t numLabels = 8;                    // fsm
    kernels::SpmspmAlgorithm algorithm =
        kernels::SpmspmAlgorithm::Gustavson;        // spmspm

    // --- architecture overrides (Table-2 defaults otherwise) ---
    std::optional<unsigned> numSus;
    std::optional<unsigned> suWindow;
    std::optional<unsigned> bandwidth;
    std::optional<bool> nested;

    /** Shared run knobs; optionals resolve through sc::Config. */
    RunOptions options;

    /** The SparseCoreConfig this spec's arch overrides produce. */
    arch::SparseCoreConfig archConfig() const;

    /** Versioned, byte-stable JSON (round-trips through
     *  parseJobSpec; only non-default fields are emitted). */
    JsonValue toJsonValue() const;
    std::string toJson() const;
};

/** Outcome of parseJobSpec / resolveJob: value or diagnostics. */
struct JobSpecParse
{
    std::optional<JobSpec> spec;
    std::vector<JobDiag> errors;

    bool ok() const { return spec.has_value() && errors.empty(); }
};

/**
 * Parse + validate one JSON job description. Never throws: JSON
 * syntax errors, unknown fields, bad enum values, wrong types,
 * out-of-range numbers and fields inapplicable to the workload all
 * come back as JobDiags.
 */
JobSpecParse parseJobSpec(std::string_view json_text);

/** Validate an already-built JobSpec (the non-syntax half of
 *  parseJobSpec); empty result = valid. */
std::vector<JobDiag> validateJobSpec(const JobSpec &spec);

/**
 * A JobSpec with its dataset references resolved to in-memory data:
 * the RunRequest every execution path consumes plus shared ownership
 * of everything it points at. Registry datasets are process-stable
 * (the registry caches are unbounded); file graphs and generated
 * tensor operands are owned here. Movable; the request's pointers
 * stay valid because the owned data sits behind shared_ptrs.
 */
struct ResolvedJob
{
    JobSpec spec;
    arch::SparseCoreConfig config;
    RunRequest request;

    /** Dataset-affinity key: api::traceKey(request), the
     *  ArtifactStore trace key this job will capture or replay
     *  (workload + operand content fingerprints + sampling). The
     *  JobQueue's affinity scheduler groups jobs into lanes by this
     *  key, and admission checks a resident program under it. */
    std::string affinityKey;

    std::shared_ptr<const graph::CsrGraph> graph;
    std::shared_ptr<const graph::LabeledGraph> labeledGraph;
    std::shared_ptr<const tensor::SparseMatrix> matrixA;
    std::shared_ptr<const tensor::SparseMatrix> matrixB;
    std::shared_ptr<const tensor::CsfTensor> tensor;
    std::shared_ptr<const std::vector<Value>> vector;
};

/** Outcome of resolveJob. */
struct JobResolve
{
    std::optional<ResolvedJob> job;
    std::vector<JobDiag> errors;

    bool ok() const { return job.has_value() && errors.empty(); }
};

/**
 * Resolve a (validated) spec's dataset references against the
 * registries / filesystem and build the RunRequest. Unknown registry
 * keys and unloadable files come back as JobDiags, not exceptions.
 */
JobResolve resolveJob(const JobSpec &spec);

} // namespace sc::api

#endif // SPARSECORE_API_JOBSPEC_HH
