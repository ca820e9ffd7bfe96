/**
 * @file
 * Command-line driver over the JobSpec API: every invocation builds
 * (or loads) a serializable job description, resolves it against the
 * dataset registries, and executes it — the same admission path the
 * job server runs.
 *
 * Examples:
 *     example_sparsecore_cli --app T --dataset W --compare
 *     example_sparsecore_cli --workload spmspm --dataset C --json
 *     example_sparsecore_cli --app 4C --dataset M --sus 8 --stride 4
 *     example_sparsecore_cli --app TC --graph-file my_edges.txt
 *     example_sparsecore_cli --job job.json
 *     example_sparsecore_cli --validate-job job.json
 *     example_sparsecore_cli --dump-config
 *     example_sparsecore_cli --app 5C --dataset E --cores 6
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "api/job_queue.hh"
#include "api/parallel.hh"
#include "common/config.hh"

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [job flags | --job FILE | --validate-job FILE | "
        "--dump-config]\n"
        "job flags:\n"
        "  --workload <gpm|fsm|spmspm|ttv|ttm>   (default gpm)\n"
        "  --app <T|TS|TC|TT|TM|4C|4CS|5C|5CS|4M>  gpm pattern\n"
        "  --dataset <KEY>         registry key (Table 4 / Table 5)\n"
        "  --graph-file <path>     gpm: SNAP edge-list file\n"
        "  --min-support N         fsm\n"
        "  --sus N | --bw E | --window N | --no-nested   arch\n"
        "  --priority N            scheduling priority 0..100\n"
        "  --cores N | --stride N | --compare | --json\n"
        "modes:\n"
        "  --job FILE            run a JSON job description\n"
        "  --validate-job FILE   parse + validate, print diagnostics\n"
        "  --dump-config         print the SC_* environment knobs\n",
        argv0);
    std::exit(2);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        sc::fatal("cannot open %s", path.c_str());
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
printDiags(const std::vector<sc::api::JobDiag> &errors)
{
    for (const sc::api::JobDiag &e : errors)
        std::fprintf(stderr, "  %s: %s\n",
                     e.field.empty() ? "(job)" : e.field.c_str(),
                     e.message.c_str());
}

int
dumpConfig()
{
    std::printf("%-22s %-12s %-8s %s\n", "knob", "value", "source",
                "accepts");
    for (const sc::ConfigKnob &k : sc::describeConfig())
        std::printf("%-22s %-12s %-8s %s\n    %s\n", k.name.c_str(),
                    k.value.c_str(), k.source.c_str(),
                    k.choices.c_str(), k.help.c_str());
    return 0;
}

int
validateJob(const std::string &path)
{
    const sc::api::JobSpecParse parsed =
        sc::api::parseJobSpec(readFile(path));
    if (!parsed.ok()) {
        std::fprintf(stderr, "%s: invalid job description\n",
                     path.c_str());
        printDiags(parsed.errors);
        return 1;
    }
    std::printf("%s: valid (canonical form below)\n%s\n",
                path.c_str(), parsed.spec->toJson().c_str());
    return 0;
}

sc::gpm::GpmApp
parseApp(const std::string &name)
{
    using sc::gpm::GpmApp;
    for (const GpmApp app :
         {GpmApp::T, GpmApp::TS, GpmApp::TC, GpmApp::TT, GpmApp::TM,
          GpmApp::C4, GpmApp::C4S, GpmApp::C5, GpmApp::C5S,
          GpmApp::M4}) {
        if (name == sc::gpm::gpmAppName(app))
            return app;
    }
    sc::fatal("unknown app '%s'", name.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace sc;
    setVerbose(false);

    api::JobSpec spec;
    spec.dataset = "W";
    std::string job_file;
    unsigned cores = 1;
    bool compare = false;
    bool dataset_set = false;
    bool json = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--dump-config")
            return dumpConfig();
        else if (arg == "--validate-job")
            return validateJob(next());
        else if (arg == "--job")
            job_file = next();
        else if (arg == "--workload") {
            const std::string w = next();
            if (w == "gpm")
                spec.workload = api::RunRequest::Workload::Gpm;
            else if (w == "fsm")
                spec.workload = api::RunRequest::Workload::Fsm;
            else if (w == "spmspm")
                spec.workload = api::RunRequest::Workload::Spmspm;
            else if (w == "ttv")
                spec.workload = api::RunRequest::Workload::Ttv;
            else if (w == "ttm")
                spec.workload = api::RunRequest::Workload::Ttm;
            else
                usage(argv[0]);
        } else if (arg == "--app")
            spec.app = parseApp(next());
        else if (arg == "--dataset") {
            spec.dataset = next();
            dataset_set = true;
        } else if (arg == "--graph-file") {
            spec.graphFile = next();
            if (!dataset_set)
                spec.dataset.clear();
        } else if (arg == "--min-support")
            spec.minSupport = std::stoull(next());
        else if (arg == "--priority")
            spec.priority = static_cast<int>(std::stoul(next()));
        else if (arg == "--sus")
            spec.numSus = static_cast<unsigned>(std::stoul(next()));
        else if (arg == "--bw")
            spec.bandwidth = static_cast<unsigned>(std::stoul(next()));
        else if (arg == "--window")
            spec.suWindow = static_cast<unsigned>(std::stoul(next()));
        else if (arg == "--no-nested")
            spec.nested = false;
        else if (arg == "--cores")
            cores = static_cast<unsigned>(std::stoul(next()));
        else if (arg == "--stride") {
            const auto stride =
                static_cast<unsigned>(std::stoul(next()));
            spec.options.rootStride = stride;
            spec.options.stride = stride;
        } else if (arg == "--compare")
            compare = true;
        else if (arg == "--json")
            json = true;
        else
            usage(argv[0]);
    }

    try {
        if (!job_file.empty()) {
            api::JobSpecParse parsed =
                api::parseJobSpec(readFile(job_file));
            if (!parsed.ok()) {
                std::fprintf(stderr,
                             "%s: invalid job description\n",
                             job_file.c_str());
                printDiags(parsed.errors);
                return 1;
            }
            spec = std::move(*parsed.spec);
        } else {
            // Flag-built specs default to mode=run on SparseCore;
            // --compare flips them (a --job file says it itself).
            spec.mode =
                compare ? api::JobMode::Compare : api::JobMode::Run;
            spec.substrate = api::Substrate::SparseCore;
        }

        api::JobResolve resolved = api::resolveJob(spec);
        if (!resolved.ok()) {
            std::fprintf(stderr, "invalid job:\n");
            printDiags(resolved.errors);
            return 1;
        }
        api::ResolvedJob &job = *resolved.job;

        if (job.graph)
            std::printf("graph %s: %u vertices, %llu edges, max "
                        "degree %u\n",
                        job.graph->name().c_str(),
                        job.graph->numVertices(),
                        static_cast<unsigned long long>(
                            job.graph->numEdges()),
                        job.graph->maxDegree());
        std::printf("%s\n", job.config.describe().c_str());

        // Multi-core mining stays a CLI-level mode: the parallel API
        // partitions roots across simulated cores, which the
        // single-job JobSpec schema does not model (yet).
        if (cores > 1) {
            if (spec.workload != api::RunRequest::Workload::Gpm ||
                !job.graph)
                fatal("--cores needs a gpm job on a graph");
            const auto par = api::mineParallel(
                spec.app, *job.graph, cores, api::Substrate::SparseCore,
                job.config, spec.options.rootStride);
            std::printf("%s x%u cores: %llu embeddings, %llu cycles "
                        "(balance %.2f)\n",
                        gpm::gpmAppName(spec.app), cores,
                        static_cast<unsigned long long>(
                            par.embeddings),
                        static_cast<unsigned long long>(par.cycles),
                        par.balance());
            if (compare) {
                const auto cpu_par = api::mineParallel(
                    spec.app, *job.graph, cores, api::Substrate::Cpu,
                    job.config, spec.options.rootStride);
                std::printf("cpu x%u cores: %llu cycles -> speedup "
                            "%.2fx\n",
                            cores,
                            static_cast<unsigned long long>(
                                cpu_par.cycles),
                            static_cast<double>(cpu_par.cycles) /
                                static_cast<double>(par.cycles));
            }
            return 0;
        }

        api::Machine machine(job.config);
        if (job.spec.mode == api::JobMode::Compare) {
            const api::Comparison cmp = machine.compare(job.request);
            if (json)
                std::printf("%s\n",
                            api::jsonValue(cmp).dump().c_str());
            else
                std::printf("%s\n", cmp.str().c_str());
        } else {
            const api::RunResult res =
                machine.run(job.request, job.spec.substrate);
            if (json) {
                std::printf("%s\n",
                            api::jsonValue(res).dump().c_str());
            } else {
                std::printf(
                    "%s: %llu result, %llu cycles on %s\n",
                    workloadName(job.spec.workload),
                    static_cast<unsigned long long>(
                        res.functionalResult),
                    static_cast<unsigned long long>(res.cycles),
                    substrateName(job.spec.substrate));
                std::printf("breakdown: %s\n",
                            api::breakdownStr(res.breakdown).c_str());
            }
        }
    } catch (const SimError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    return 0;
}
