#include "api/jobspec.hh"

#include <algorithm>
#include <limits>

#include "api/artifact_store.hh"
#include "common/logging.hh"
#include "graph/datasets.hh"
#include "graph/io.hh"
#include "tensor/tensor_datasets.hh"
#include "tensor/tensor_gen.hh"

namespace sc::api {

namespace {

/** Non-owning shared_ptr for process-stable registry references. */
template <typename T>
std::shared_ptr<const T>
unowned(const T &value)
{
    return std::shared_ptr<const T>(&value, [](const T *) {});
}

constexpr std::uint64_t kMaxStride = 1'000'000'000;

const std::vector<gpm::GpmApp> &
jobApps()
{
    static const std::vector<gpm::GpmApp> apps = {
        gpm::GpmApp::T,   gpm::GpmApp::TS,  gpm::GpmApp::TC,
        gpm::GpmApp::TT,  gpm::GpmApp::TM,  gpm::GpmApp::C4,
        gpm::GpmApp::C4S, gpm::GpmApp::C5,  gpm::GpmApp::C5S,
        gpm::GpmApp::M4};
    return apps;
}

std::string
joinChoices(const std::vector<std::string> &choices)
{
    std::string out;
    for (const std::string &c : choices) {
        if (!out.empty())
            out += '|';
        out += c;
    }
    return out;
}

void
diag(std::vector<JobDiag> &errors, std::string field,
     std::string message)
{
    errors.push_back({std::move(field), std::move(message)});
}

} // namespace

JsonValue
JobDiag::toJsonValue() const
{
    JsonValue out = JsonValue::object();
    out.set("field", JsonValue::str(field));
    out.set("message", JsonValue::str(message));
    return out;
}

const char *
jobModeName(JobMode mode)
{
    return mode == JobMode::Run ? "run" : "compare";
}

const char *
substrateName(Substrate substrate)
{
    return substrate == Substrate::Cpu ? "cpu" : "sparsecore";
}

const char *
workloadName(RunRequest::Workload workload)
{
    switch (workload) {
      case RunRequest::Workload::Gpm:
        return "gpm";
      case RunRequest::Workload::Fsm:
        return "fsm";
      case RunRequest::Workload::Spmspm:
        return "spmspm";
      case RunRequest::Workload::Ttv:
        return "ttv";
      case RunRequest::Workload::Ttm:
        return "ttm";
    }
    return "unknown";
}

arch::SparseCoreConfig
JobSpec::archConfig() const
{
    arch::SparseCoreConfig cfg;
    if (numSus)
        cfg.numSus = *numSus;
    if (suWindow)
        cfg.suWindow = *suWindow;
    if (bandwidth)
        cfg.aggregateBandwidth = *bandwidth;
    if (nested)
        cfg.nestedIntersection = *nested;
    return cfg;
}

JsonValue
JobSpec::toJsonValue() const
{
    JsonValue out = JsonValue::object();
    out.set("version", JsonValue::number(kSchemaVersion));
    if (!id.empty())
        out.set("id", JsonValue::str(id));
    if (priority != 0)
        out.set("priority",
                JsonValue::number(std::uint64_t(priority)));
    out.set("workload", JsonValue::str(workloadName(workload)));
    if (mode != JobMode::Compare)
        out.set("mode", JsonValue::str(jobModeName(mode)));
    if (mode == JobMode::Run)
        out.set("substrate", JsonValue::str(substrateName(substrate)));
    if (!dataset.empty())
        out.set("dataset", JsonValue::str(dataset));
    if (!graphFile.empty())
        out.set("graph_file", JsonValue::str(graphFile));
    if (!datasetB.empty())
        out.set("dataset_b", JsonValue::str(datasetB));
    if (workload == RunRequest::Workload::Gpm)
        out.set("app", JsonValue::str(gpm::gpmAppName(app)));
    if (workload == RunRequest::Workload::Fsm) {
        out.set("min_support", JsonValue::number(minSupport));
        if (numLabels != 8)
            out.set("num_labels",
                    JsonValue::number(std::uint64_t{numLabels}));
    }
    if (workload == RunRequest::Workload::Spmspm)
        out.set("algorithm",
                JsonValue::str(
                    kernels::spmspmAlgorithmName(algorithm)));

    if (numSus || suWindow || bandwidth || nested) {
        JsonValue arch = JsonValue::object();
        if (numSus)
            arch.set("sus", JsonValue::number(std::uint64_t{*numSus}));
        if (suWindow)
            arch.set("window",
                     JsonValue::number(std::uint64_t{*suWindow}));
        if (bandwidth)
            arch.set("bandwidth",
                     JsonValue::number(std::uint64_t{*bandwidth}));
        if (nested)
            arch.set("nested", JsonValue::boolean(*nested));
        out.set("arch", std::move(arch));
    }

    JsonValue opts = JsonValue::object();
    if (options.stride != 1)
        opts.set("stride",
                 JsonValue::number(std::uint64_t{options.stride}));
    if (options.rootStride != 1)
        opts.set("root_stride",
                 JsonValue::number(std::uint64_t{options.rootStride}));
    if (options.verify)
        opts.set("verify", JsonValue::boolean(*options.verify));
    if (options.artifactCache)
        opts.set("artifact_cache",
                 JsonValue::boolean(*options.artifactCache));
    if (!opts.members().empty())
        out.set("options", std::move(opts));
    return out;
}

std::string
JobSpec::toJson() const
{
    return toJsonValue().dump();
}

namespace {

/** Field-level parse helpers: each returns false and records a
 *  JobDiag on a type/value mismatch. */
class FieldReader
{
  public:
    FieldReader(std::vector<JobDiag> &errors, std::string path)
        : errors_(errors), path_(std::move(path))
    {
    }

    std::string
    fieldPath(const std::string &name) const
    {
        return path_.empty() ? name : path_ + "." + name;
    }

    bool
    readString(const std::string &name, const JsonValue &v,
               std::string &out)
    {
        if (!v.isString()) {
            diag(errors_, fieldPath(name), "expected a string");
            return false;
        }
        out = v.asString();
        return true;
    }

    bool
    readBool(const std::string &name, const JsonValue &v, bool &out)
    {
        if (!v.isBool()) {
            diag(errors_, fieldPath(name),
                 "expected a boolean (true/false)");
            return false;
        }
        out = v.asBool();
        return true;
    }

    bool
    readUint(const std::string &name, const JsonValue &v,
             std::uint64_t &out, std::uint64_t min, std::uint64_t max)
    {
        if (!v.isNumber() || !v.isInteger() ||
            (v.kind() == JsonValue::Kind::Int && v.asInt() < 0)) {
            diag(errors_, fieldPath(name),
                 "expected a non-negative integer");
            return false;
        }
        const std::uint64_t u = v.asUint();
        if (u < min || u > max) {
            diag(errors_, fieldPath(name),
                 strprintf("out of range (expected %llu..%llu, got "
                           "%llu)",
                           static_cast<unsigned long long>(min),
                           static_cast<unsigned long long>(max),
                           static_cast<unsigned long long>(u)));
            return false;
        }
        out = u;
        return true;
    }

    /** Match a string field against a closed set of choices. */
    bool
    readChoice(const std::string &name, const JsonValue &v,
               const std::vector<std::string> &choices,
               std::string &out)
    {
        if (!v.isString()) {
            diag(errors_, fieldPath(name),
                 "expected a string (one of " + joinChoices(choices) +
                     ")");
            return false;
        }
        if (std::find(choices.begin(), choices.end(), v.asString()) ==
            choices.end()) {
            diag(errors_, fieldPath(name),
                 "unknown value '" + v.asString() + "' (expected " +
                     joinChoices(choices) + ")");
            return false;
        }
        out = v.asString();
        return true;
    }

  private:
    std::vector<JobDiag> &errors_;
    std::string path_;
};

void
parseOptionsObject(const JsonValue &obj, RunOptions &options,
                   std::vector<JobDiag> &errors)
{
    FieldReader reader(errors, "options");
    for (const auto &[name, value] : obj.members()) {
        std::uint64_t u = 0;
        bool b = false;
        if (name == "stride") {
            if (reader.readUint(name, value, u, 1, kMaxStride))
                options.stride = static_cast<unsigned>(u);
        } else if (name == "root_stride") {
            if (reader.readUint(name, value, u, 1, kMaxStride))
                options.rootStride = static_cast<unsigned>(u);
        } else if (name == "verify") {
            if (reader.readBool(name, value, b))
                options.verify = b;
        } else if (name == "artifact_cache") {
            if (reader.readBool(name, value, b))
                options.artifactCache = b;
        } else {
            diag(errors, reader.fieldPath(name),
                 "unknown field (options accepts stride, root_stride, "
                 "verify, artifact_cache)");
        }
    }
}

void
parseArchObject(const JsonValue &obj, JobSpec &spec,
                std::vector<JobDiag> &errors)
{
    FieldReader reader(errors, "arch");
    for (const auto &[name, value] : obj.members()) {
        std::uint64_t u = 0;
        bool b = false;
        if (name == "sus") {
            if (reader.readUint(name, value, u, 1, arch::maxSus))
                spec.numSus = static_cast<unsigned>(u);
        } else if (name == "window") {
            if (reader.readUint(name, value, u, 1, arch::maxSuWindow))
                spec.suWindow = static_cast<unsigned>(u);
        } else if (name == "bandwidth") {
            if (reader.readUint(name, value, u, 1,
                                arch::maxAggregateBandwidth))
                spec.bandwidth = static_cast<unsigned>(u);
        } else if (name == "nested") {
            if (reader.readBool(name, value, b))
                spec.nested = b;
        } else {
            diag(errors, reader.fieldPath(name),
                 "unknown field (arch accepts sus, window, bandwidth, "
                 "nested)");
        }
    }
}

} // namespace

JobSpecParse
parseJobSpec(std::string_view json_text)
{
    JobSpecParse out;
    const JsonParseResult parsed = parseJson(json_text);
    if (!parsed.ok()) {
        diag(out.errors, "", parsed.describe());
        return out;
    }
    const JsonValue &root = *parsed.value;
    if (!root.isObject()) {
        diag(out.errors, "", "job description must be a JSON object");
        return out;
    }

    JobSpec spec;
    std::vector<JobDiag> &errors = out.errors;
    FieldReader reader(errors, "");

    bool have_version = false;
    bool have_workload = false;
    bool saw_workload = false;
    bool have_mode = false;
    bool have_substrate = false;
    // Fields whose applicability depends on the workload: remember
    // which were present, check once the workload is known.
    std::vector<std::string> present;

    for (const auto &[name, value] : root.members()) {
        std::uint64_t u = 0;
        std::string s;
        if (name == "version") {
            have_version = true;
            if (!value.isNumber() || !value.isInteger()) {
                diag(errors, name, "expected an integer");
            } else if (value.asInt() != JobSpec::kSchemaVersion) {
                diag(errors, name,
                     strprintf("unsupported schema version %lld "
                               "(this build speaks version %lld)",
                               static_cast<long long>(value.asInt()),
                               static_cast<long long>(
                                   JobSpec::kSchemaVersion)));
            }
        } else if (name == "id") {
            reader.readString(name, value, spec.id);
        } else if (name == "priority") {
            if (reader.readUint(name, value, u, 0, 100))
                spec.priority = static_cast<int>(u);
        } else if (name == "workload") {
            saw_workload = true;
            if (reader.readChoice(
                    name, value,
                    {"gpm", "fsm", "spmspm", "ttv", "ttm"}, s)) {
                have_workload = true;
                if (s == "gpm")
                    spec.workload = RunRequest::Workload::Gpm;
                else if (s == "fsm")
                    spec.workload = RunRequest::Workload::Fsm;
                else if (s == "spmspm")
                    spec.workload = RunRequest::Workload::Spmspm;
                else if (s == "ttv")
                    spec.workload = RunRequest::Workload::Ttv;
                else
                    spec.workload = RunRequest::Workload::Ttm;
            }
        } else if (name == "mode") {
            if (reader.readChoice(name, value, {"run", "compare"},
                                  s)) {
                have_mode = true;
                spec.mode =
                    s == "run" ? JobMode::Run : JobMode::Compare;
            }
        } else if (name == "substrate") {
            if (reader.readChoice(name, value, {"cpu", "sparsecore"},
                                  s)) {
                have_substrate = true;
                spec.substrate = s == "cpu" ? Substrate::Cpu
                                            : Substrate::SparseCore;
            }
        } else if (name == "dataset") {
            reader.readString(name, value, spec.dataset);
        } else if (name == "graph_file") {
            present.push_back(name);
            reader.readString(name, value, spec.graphFile);
        } else if (name == "dataset_b") {
            present.push_back(name);
            reader.readString(name, value, spec.datasetB);
        } else if (name == "app") {
            present.push_back(name);
            if (value.isString()) {
                bool found = false;
                for (const gpm::GpmApp app : jobApps()) {
                    if (value.asString() == gpm::gpmAppName(app)) {
                        spec.app = app;
                        found = true;
                        break;
                    }
                }
                if (!found) {
                    std::vector<std::string> names;
                    names.reserve(jobApps().size());
                    for (const gpm::GpmApp app : jobApps())
                        names.emplace_back(gpm::gpmAppName(app));
                    diag(errors, name,
                         "unknown app '" + value.asString() +
                             "' (expected " + joinChoices(names) +
                             ")");
                }
            } else {
                diag(errors, name, "expected a string");
            }
        } else if (name == "min_support") {
            present.push_back(name);
            if (reader.readUint(name, value, u, 1,
                                std::numeric_limits<
                                    std::uint32_t>::max()))
                spec.minSupport = u;
        } else if (name == "num_labels") {
            present.push_back(name);
            if (reader.readUint(name, value, u, 1, 64))
                spec.numLabels = static_cast<std::uint32_t>(u);
        } else if (name == "algorithm") {
            present.push_back(name);
            if (reader.readChoice(name, value,
                                  {"inner", "outer", "gustavson"},
                                  s)) {
                if (s == "inner")
                    spec.algorithm = kernels::SpmspmAlgorithm::Inner;
                else if (s == "outer")
                    spec.algorithm = kernels::SpmspmAlgorithm::Outer;
                else
                    spec.algorithm =
                        kernels::SpmspmAlgorithm::Gustavson;
            }
        } else if (name == "arch") {
            if (value.isObject())
                parseArchObject(value, spec, errors);
            else
                diag(errors, name, "expected an object");
        } else if (name == "options") {
            if (value.isObject())
                parseOptionsObject(value, spec.options, errors);
            else
                diag(errors, name, "expected an object");
        } else {
            diag(errors, name,
                 "unknown field (see DESIGN.md §15 for the v1 "
                 "schema)");
        }
    }

    if (!have_version)
        diag(errors, "version",
             strprintf("missing (this build speaks version %lld)",
                       static_cast<long long>(
                           JobSpec::kSchemaVersion)));
    if (!saw_workload)
        diag(errors, "workload",
             "missing (expected gpm|fsm|spmspm|ttv|ttm)");

    if (have_substrate && (!have_mode || spec.mode != JobMode::Run))
        diag(errors, "substrate",
             "only valid when mode is 'run' (compare always times "
             "both substrates)");

    // Workload applicability of the optional fields.
    if (have_workload) {
        const auto applicable = [&](const std::string &field)
            -> std::optional<RunRequest::Workload> {
            if (field == "graph_file")
                return RunRequest::Workload::Gpm;
            if (field == "app")
                return RunRequest::Workload::Gpm;
            if (field == "min_support" || field == "num_labels")
                return RunRequest::Workload::Fsm;
            if (field == "dataset_b" || field == "algorithm")
                return RunRequest::Workload::Spmspm;
            return std::nullopt;
        };
        for (const std::string &field : present) {
            const auto only = applicable(field);
            if (only && *only != spec.workload)
                diag(errors, field,
                     strprintf("only valid for workload '%s' (job "
                               "says '%s')",
                               workloadName(*only),
                               workloadName(spec.workload)));
        }
    }

    if (errors.empty()) {
        auto more = validateJobSpec(spec);
        errors.insert(errors.end(), more.begin(), more.end());
    }
    if (errors.empty())
        out.spec = std::move(spec);
    return out;
}

std::vector<JobDiag>
validateJobSpec(const JobSpec &spec)
{
    std::vector<JobDiag> errors;
    switch (spec.workload) {
      case RunRequest::Workload::Gpm:
        if (spec.dataset.empty() && spec.graphFile.empty())
            diag(errors, "dataset",
                 "gpm job needs a 'dataset' registry key or a "
                 "'graph_file' path");
        if (!spec.dataset.empty() && !spec.graphFile.empty())
            diag(errors, "dataset",
                 "'dataset' and 'graph_file' are mutually exclusive");
        break;
      case RunRequest::Workload::Fsm:
        if (spec.dataset.empty())
            diag(errors, "dataset",
                 "fsm job needs a 'dataset' registry key");
        if (spec.minSupport < 1)
            diag(errors, "min_support", "must be >= 1");
        break;
      case RunRequest::Workload::Spmspm:
      case RunRequest::Workload::Ttv:
      case RunRequest::Workload::Ttm:
        if (spec.dataset.empty())
            diag(errors, "dataset",
                 strprintf("%s job needs a 'dataset' registry key",
                           workloadName(spec.workload)));
        break;
    }
    if (spec.options.stride < 1 || spec.options.stride > kMaxStride)
        diag(errors, "options.stride",
             strprintf("out of range (expected 1..%llu)",
                       static_cast<unsigned long long>(kMaxStride)));
    if (spec.options.rootStride < 1 ||
        spec.options.rootStride > kMaxStride)
        diag(errors, "options.root_stride",
             strprintf("out of range (expected 1..%llu)",
                       static_cast<unsigned long long>(kMaxStride)));
    if (spec.priority < 0 || spec.priority > 100)
        diag(errors, "priority", "out of range (expected 0..100)");
    return errors;
}

namespace {

bool
knownGraphKey(const std::string &key)
{
    for (const auto &ds : graph::graphDatasets())
        if (ds.key == key)
            return true;
    return false;
}

std::string
graphKeyChoices()
{
    std::vector<std::string> keys;
    for (const auto &ds : graph::graphDatasets())
        keys.push_back(ds.key);
    return joinChoices(keys);
}

bool
knownMatrixKey(const std::string &key)
{
    for (const auto &ds : tensor::matrixDatasets())
        if (ds.key == key)
            return true;
    return false;
}

std::string
matrixKeyChoices()
{
    std::vector<std::string> keys;
    for (const auto &ds : tensor::matrixDatasets())
        keys.push_back(ds.key);
    return joinChoices(keys);
}

bool
knownTensorKey(const std::string &key)
{
    for (const auto &ds : tensor::tensorDatasets())
        if (ds.key == key)
            return true;
    return false;
}

std::string
tensorKeyChoices()
{
    std::vector<std::string> keys;
    for (const auto &ds : tensor::tensorDatasets())
        keys.push_back(ds.key);
    return joinChoices(keys);
}

} // namespace

JobResolve
resolveJob(const JobSpec &spec)
{
    JobResolve out;
    out.errors = validateJobSpec(spec);
    if (!out.errors.empty())
        return out;

    ResolvedJob job;
    job.spec = spec;
    job.config = spec.archConfig();
    std::vector<JobDiag> &errors = out.errors;

    switch (spec.workload) {
      case RunRequest::Workload::Gpm: {
        if (!spec.graphFile.empty()) {
            try {
                job.graph = std::make_shared<const graph::CsrGraph>(
                    graph::loadEdgeListFile(spec.graphFile));
            } catch (const SimError &e) {
                diag(errors, "graph_file", e.what());
                return out;
            }
        } else if (!knownGraphKey(spec.dataset)) {
            diag(errors, "dataset",
                 "unknown graph dataset '" + spec.dataset +
                     "' (expected " + graphKeyChoices() + ")");
            return out;
        } else {
            job.graph = graph::loadGraphShared(spec.dataset);
        }
        job.request = RunRequest::gpm(spec.app, *job.graph,
                                      spec.options);
        break;
      }
      case RunRequest::Workload::Fsm: {
        if (!knownGraphKey(spec.dataset)) {
            diag(errors, "dataset",
                 "unknown graph dataset '" + spec.dataset +
                     "' (expected " + graphKeyChoices() + ")");
            return out;
        }
        job.labeledGraph =
            graph::loadLabeledGraphShared(spec.dataset,
                                          spec.numLabels);
        job.request = RunRequest::fsm(*job.labeledGraph,
                                      spec.minSupport, spec.options);
        break;
      }
      case RunRequest::Workload::Spmspm: {
        if (!knownMatrixKey(spec.dataset)) {
            diag(errors, "dataset",
                 "unknown matrix dataset '" + spec.dataset +
                     "' (expected " + matrixKeyChoices() + ")");
            return out;
        }
        const std::string b_key =
            spec.datasetB.empty() ? spec.dataset : spec.datasetB;
        if (!knownMatrixKey(b_key)) {
            diag(errors, "dataset_b",
                 "unknown matrix dataset '" + b_key + "' (expected " +
                     matrixKeyChoices() + ")");
            return out;
        }
        job.matrixA = unowned(tensor::loadMatrix(spec.dataset));
        job.matrixB = unowned(tensor::loadMatrix(b_key));
        if (job.matrixA->cols() != job.matrixB->rows()) {
            diag(errors, "dataset_b",
                 strprintf("dimension mismatch: A is %ux%u but B is "
                           "%ux%u",
                           job.matrixA->rows(), job.matrixA->cols(),
                           job.matrixB->rows(),
                           job.matrixB->cols()));
            return out;
        }
        job.request = RunRequest::spmspm(*job.matrixA, *job.matrixB,
                                         spec.algorithm,
                                         spec.options);
        break;
      }
      case RunRequest::Workload::Ttv: {
        if (!knownTensorKey(spec.dataset)) {
            diag(errors, "dataset",
                 "unknown tensor dataset '" + spec.dataset +
                     "' (expected " + tensorKeyChoices() + ")");
            return out;
        }
        const tensor::CsfTensor &t = tensor::loadTensor(spec.dataset);
        job.tensor = unowned(t);
        // The dense operand is generated deterministically from the
        // tensor's k-dimension (the fig15 convention) so a TTV job is
        // a pure function of its spec.
        job.vector = std::make_shared<const std::vector<Value>>(
            tensor::generateVector(t.dimK(), 0x77));
        job.request =
            RunRequest::ttv(*job.tensor, *job.vector, spec.options);
        break;
      }
      case RunRequest::Workload::Ttm: {
        if (!knownTensorKey(spec.dataset)) {
            diag(errors, "dataset",
                 "unknown tensor dataset '" + spec.dataset +
                     "' (expected " + tensorKeyChoices() + ")");
            return out;
        }
        const tensor::CsfTensor &t = tensor::loadTensor(spec.dataset);
        job.tensor = unowned(t);
        // Deterministic B operand with the tensor's k-dim columns
        // (the fig15 convention).
        job.matrixB =
            std::make_shared<const tensor::SparseMatrix>(
                tensor::generateMatrix(
                    64, t.dimK(), 16 * t.dimK(),
                    tensor::MatrixStructure::Uniform, 0x78, "B"));
        job.request =
            RunRequest::ttm(*job.tensor, *job.matrixB, spec.options);
        break;
      }
    }

    // Dataset-affinity key = the store trace key this job will hit
    // (mirrors Machine's routing: gpm/fsm go through the store, the
    // tensor workloads don't, and a disabled cache shares nothing).
    if (ArtifactStore::resolveEnabled(spec.options.artifactCache)) {
        switch (spec.workload) {
          case RunRequest::Workload::Gpm:
            job.affinityKey = ArtifactStore::gpmTraceKey(
                spec.app, *job.graph, spec.options.rootStride);
            break;
          case RunRequest::Workload::Fsm:
            job.affinityKey = ArtifactStore::fsmTraceKey(
                *job.labeledGraph, spec.minSupport);
            break;
          default:
            break;
        }
    }

    out.job = std::move(job);
    return out;
}

} // namespace sc::api
