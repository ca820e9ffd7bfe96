#include "workloads.hh"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"

namespace sc::pipeline {

namespace {

enum class Mode { Compare, RunSc, RunCpu };

/** Mode of the i-th job in a rotation, so each catalogue mixes all
 *  three modes in fixed proportions. */
Mode
rotatingMode(std::size_t i)
{
    static constexpr Mode kModes[] = {Mode::Compare, Mode::RunSc,
                                      Mode::RunCpu};
    return kModes[i % 3];
}

api::JobSpec
withMode(api::JobSpec spec, Mode mode)
{
    spec.mode = mode == Mode::Compare ? api::JobMode::Compare
                                      : api::JobMode::Run;
    if (mode != Mode::Compare)
        spec.substrate = mode == Mode::RunCpu ? api::Substrate::Cpu
                                              : api::Substrate::SparseCore;
    return spec;
}

api::JobSpec
gpmJob(gpm::GpmApp app, const std::string &dataset)
{
    api::JobSpec spec;
    spec.workload = api::RunRequest::Workload::Gpm;
    spec.app = app;
    spec.dataset = dataset;
    return spec;
}

api::JobSpec
fsmJob(const std::string &dataset, std::uint32_t labels,
       std::uint64_t support)
{
    api::JobSpec spec;
    spec.workload = api::RunRequest::Workload::Fsm;
    spec.dataset = dataset;
    spec.numLabels = labels;
    spec.minSupport = support;
    return spec;
}

api::JobSpec
tensorJob(api::RunRequest::Workload workload, const std::string &dataset,
          unsigned stride,
          kernels::SpmspmAlgorithm algorithm =
              kernels::SpmspmAlgorithm::Gustavson)
{
    api::JobSpec spec;
    spec.workload = workload;
    spec.dataset = dataset;
    spec.options.stride = stride;
    if (workload == api::RunRequest::Workload::Spmspm)
        spec.algorithm = algorithm;
    return spec;
}

api::JobSpec
spmspmJob(const std::string &dataset, unsigned stride,
          kernels::SpmspmAlgorithm algorithm =
              kernels::SpmspmAlgorithm::Gustavson)
{
    return tensorJob(api::RunRequest::Workload::Spmspm, dataset, stride,
                     algorithm);
}

/** A group of single-job bursts with rotating modes. */
std::vector<Burst>
singles(const std::vector<api::JobSpec> &specs)
{
    std::vector<Burst> out;
    for (std::size_t i = 0; i < specs.size(); ++i)
        out.push_back({withMode(specs[i], rotatingMode(i))});
    return out;
}

/** Bursts grouped by dataset, groups in order of first appearance. */
std::vector<std::vector<Burst>>
byDataset(const std::vector<Burst> &bursts)
{
    std::vector<std::vector<Burst>> groups;
    std::vector<std::string> datasets;
    for (const Burst &b : bursts) {
        const std::size_t g =
            std::find(datasets.begin(), datasets.end(), b.front().dataset) -
            datasets.begin();
        if (g == datasets.size()) {
            datasets.push_back(b.front().dataset);
            groups.emplace_back();
        }
        groups[g].push_back(b);
    }
    return groups;
}

/** n jobs on one key, modes rotating from compare. */
Burst
burst(const api::JobSpec &spec, std::size_t n)
{
    Burst out;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(withMode(spec, rotatingMode(i)));
    return out;
}

/**
 * GPM apps {T, TS, TC, 4C, 4CS, 5C} on graphs {E, B, G, W}, minus the
 * cells that take more than ~1.5 s cold (TC/4C/4CS/5C on W). The
 * store is warmed in set-up, so replay is the whole job. Each mode
 * takes a third of the cells; 5C on E runs on sparsecore, because its
 * CPU replay alone (~0.75 s, twice any other job) would sit right at
 * the p90 and make it jump between runs.
 */
Workload
gpmWarm(bool smoke)
{
    using gpm::GpmApp;
    Workload w;
    w.name = "gpm_warm";
    w.warmStore = true;
    // The catalogue's traces take ~0.9 GiB, close to the 1 GiB
    // default; a larger budget keeps every job a hit.
    w.storeBytes = std::size_t{2} << 30;
    const auto job = [](GpmApp app, const char *ds, Mode mode) {
        return Burst{withMode(gpmJob(app, ds), mode)};
    };
    constexpr Mode C = Mode::Compare, S = Mode::RunSc, P = Mode::RunCpu;
    if (smoke) {
        w.groups = {{job(GpmApp::T, "G", C), job(GpmApp::TS, "G", S),
                     job(GpmApp::C4, "G", P)}};
        return w;
    }
    w.groups = {{
        job(GpmApp::T, "E", C),   job(GpmApp::TS, "E", S),
        job(GpmApp::TC, "E", P),  job(GpmApp::C4, "E", C),
        job(GpmApp::C4S, "E", S), job(GpmApp::C5, "E", S),
        job(GpmApp::T, "B", S),   job(GpmApp::TS, "B", P),
        job(GpmApp::TC, "B", C),  job(GpmApp::C4, "B", S),
        job(GpmApp::C4S, "B", P), job(GpmApp::C5, "B", C),
        job(GpmApp::T, "G", P),   job(GpmApp::TS, "G", C),
        job(GpmApp::TC, "G", S),  job(GpmApp::C4, "G", P),
        job(GpmApp::C4S, "G", C), job(GpmApp::C5, "G", P),
        job(GpmApp::T, "W", C),   job(GpmApp::TS, "W", S),
    }};
    return w;
}

/**
 * FSM where every job captures: each job of a pass has its own trace
 * key (dataset, label count, support), grouped by dataset. Between two
 * uses of a key the other datasets' cells capture 1.0-1.6 GiB, several
 * times the store budget. Cells take under ~0.4 s cold, to keep a pass
 * short; most find frequent patterns (the E cells find none but
 * capture the most). B is left out: its cheapest cells capture 480 MB
 * traces.
 */
Workload
fsmCold(bool smoke)
{
    Workload w;
    w.name = "fsm_cold";
    w.fixedGroups = true;
    w.storeBytes = std::size_t{256} << 20;
    std::vector<api::JobSpec> specs;
    if (smoke) {
        specs = {fsmJob("C", 12, 50), fsmJob("C", 8, 100),
                 fsmJob("G", 20, 100)};
    } else {
        specs = {fsmJob("C", 4, 50),   fsmJob("C", 4, 100),
                 fsmJob("C", 4, 200),  fsmJob("C", 6, 50),
                 fsmJob("C", 6, 100),  fsmJob("C", 8, 50),
                 fsmJob("C", 8, 100),  fsmJob("C", 10, 50),
                 fsmJob("C", 12, 50),  fsmJob("E", 16, 200),
                 fsmJob("E", 24, 100), fsmJob("E", 32, 200),
                 fsmJob("G", 12, 200), fsmJob("G", 16, 200),
                 fsmJob("G", 20, 100), fsmJob("G", 24, 200)};
    }
    w.groups = byDataset(singles(specs));
    return w;
}

/**
 * The tensor kernels the store does not key: every job captures and
 * compiles again (compare) or executes directly (run). Each spec runs
 * once in compare mode and once in run mode per pass; strides keep
 * each compare job under ~0.4 s.
 */
Workload
tensorUncached(bool smoke)
{
    using W = api::RunRequest::Workload;
    using kernels::SpmspmAlgorithm;
    Workload w;
    w.name = "tensor_uncached";
    std::vector<api::JobSpec> specs;
    if (smoke) {
        specs = {spmspmJob("L", 1), spmspmJob("C", 1),
                 tensorJob(W::Ttv, "Ch", 16)};
    } else {
        for (const char *ds : {"C", "E", "F", "G", "L", "H"})
            specs.push_back(spmspmJob(ds, 1));
        specs.push_back(spmspmJob("P", 4));
        for (const char *ds : {"C", "E", "F"})
            specs.push_back(spmspmJob(ds, 16, SpmspmAlgorithm::Inner));
        specs.push_back(tensorJob(W::Ttv, "Ch", 4));
        specs.push_back(tensorJob(W::Ttv, "U", 8));
        specs.push_back(tensorJob(W::Ttm, "Ch", 128));
        specs.push_back(tensorJob(W::Ttm, "U", 256));
    }
    std::vector<Burst> group;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        group.push_back({withMode(specs[i], Mode::Compare)});
        group.push_back({withMode(specs[i], i % 2 ? Mode::RunCpu
                                                  : Mode::RunSc)});
    }
    w.groups.push_back(std::move(group));
    return w;
}

/**
 * The service shape: bursts of 2-4 jobs per key grouped by dataset,
 * GPM, FSM and tensor side by side. The store budget is below half
 * the mix's trace working set, and between two bursts of a key every
 * other dataset's keys capture 340-500 MiB, so by then its trace has
 * been evicted: the burst's first job captures again, its siblings
 * hit. Every tenth job declares arch.sus, so admission runs the
 * pressure summary on warm keys.
 */
Workload
mixedService(bool smoke)
{
    using gpm::GpmApp;
    using W = api::RunRequest::Workload;
    Workload w;
    w.name = "mixed_service";
    w.priorities = true;
    w.fixedGroups = true;
    if (smoke) {
        w.groups = {{burst(gpmJob(GpmApp::T, "G"), 2)},
                    {burst(fsmJob("C", 12, 50), 2),
                     burst(spmspmJob("L", 1), 1)}};
        w.storeBytes = 256 * 1024;
    } else {
        w.groups = {
            {burst(gpmJob(GpmApp::T, "E"), 3),
             burst(gpmJob(GpmApp::C4, "E"), 2),
             burst(spmspmJob("E", 1), 3)},
            {burst(gpmJob(GpmApp::TC, "G"), 4),
             burst(fsmJob("G", 12, 200), 2), burst(spmspmJob("G", 1), 2)},
            {burst(gpmJob(GpmApp::TS, "B"), 3),
             burst(gpmJob(GpmApp::C5, "B"), 2)},
            {burst(fsmJob("C", 4, 50), 3), burst(fsmJob("C", 12, 50), 2),
             burst(spmspmJob("C", 16, kernels::SpmspmAlgorithm::Inner),
                   2)},
            {burst(tensorJob(W::Ttv, "Ch", 4), 2)},
        };
        // ~0.43 of the mix's ~0.51 GiB trace working set
        // (store.budget_ratio in the traced run).
        w.storeBytes = std::size_t{224} << 20;
    }
    std::size_t n = 0;
    for (auto &group : w.groups)
        for (Burst &b : group)
            for (api::JobSpec &spec : b)
                if (n++ % 10 == 1)
                    spec.numSus = 8;
    return w;
}

/** Fisher-Yates with the library's portable generator. */
template <typename T>
void
shuffle(std::vector<T> &items, Rng &rng)
{
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.below(i)]);
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "gpm_warm", "fsm_cold", "tensor_uncached", "mixed_service"};
    return names;
}

Workload
makeWorkload(const std::string &name, bool smoke)
{
    if (name == "gpm_warm")
        return gpmWarm(smoke);
    if (name == "fsm_cold")
        return fsmCold(smoke);
    if (name == "tensor_uncached")
        return tensorUncached(smoke);
    if (name == "mixed_service")
        return mixedService(smoke);
    fatal("unknown workload '%s'", name.c_str());
}

std::vector<api::JobSpec>
catalogueJobs(const Workload &workload)
{
    std::vector<api::JobSpec> out;
    for (const auto &group : workload.groups)
        for (const Burst &b : group)
            out.insert(out.end(), b.begin(), b.end());
    return out;
}

std::vector<api::JobSpec>
passJobs(const Workload &workload, std::uint64_t seed, std::uint64_t pass)
{
    std::uint64_t mix = seed * 0x9e3779b97f4a7c15ULL + pass;
    Rng draws(splitmix64(mix));

    std::vector<std::size_t> groups(workload.groups.size());
    std::iota(groups.begin(), groups.end(), 0);
    if (!workload.fixedGroups)
        shuffle(groups, draws);
    std::vector<api::JobSpec> out;
    for (const std::size_t g : groups) {
        std::vector<Burst> bursts = workload.groups[g];
        shuffle(bursts, draws);
        for (const Burst &b : bursts)
            out.insert(out.end(), b.begin(), b.end());
    }
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i].id = std::to_string(pass) + "." + std::to_string(i);
        if (workload.priorities)
            out[i].priority = draws.chance(0.5) ? 50 : 0;
    }
    return out;
}

std::string
goldenKey(api::JobSpec spec)
{
    spec.id.clear();
    spec.priority = 0;
    spec.mode = api::JobMode::Compare;
    spec.substrate = api::Substrate::SparseCore;
    return spec.toJson();
}

} // namespace sc::pipeline
