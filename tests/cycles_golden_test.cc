/**
 * @file
 * Absolute cycle golden: every api entry point that routes a
 * workload to a timing substrate (Machine::run on each substrate,
 * Machine::compare and mineParallel on each substrate), over every
 * GPM app, FSM and the tensor kernels, at the default SparseCore
 * configuration and at one non-default point. Each cell stores the
 * simulated cycles, the 4-class breakdown (per-core cycles for the
 * multi-core runs) and the functional result. Every cell name ends
 * in /store: its program came out of the ArtifactStore, as every
 * program does.
 *
 * The other suites pin cycles relatively (replay == direct, cached ==
 * cold); a timing-model change that moves both sides of every such
 * comparison passes them. This one fails on any cycle that moves.
 * Regenerate deliberately with SPARSECORE_REGEN_GOLDEN=1
 * ./sparsecore_tests --gtest_filter='CyclesGolden.*'.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "api/machine.hh"
#include "api/parallel.hh"
#include "common/json.hh"
#include "graph/labeled_graph.hh"
#include "tensor/tensor_gen.hh"
#include "test_util.hh"

using namespace sc;
using namespace sc::api;

namespace {

using Cells = std::map<std::string, JsonValue>;

JsonValue
runCell(std::uint64_t result, Cycles cycles,
        const sim::CycleBreakdown &breakdown)
{
    JsonValue cell = JsonValue::object();
    cell.set("result", JsonValue::number(result));
    cell.set("cycles", JsonValue::number(cycles));
    JsonValue classes = JsonValue::array();
    for (const Cycles c : breakdown.cycles)
        classes.push(JsonValue::number(c));
    cell.set("breakdown", std::move(classes));
    return cell;
}

JsonValue
parallelCell(const ParallelGpmResult &r)
{
    JsonValue cell = JsonValue::object();
    cell.set("result", JsonValue::number(r.embeddings));
    cell.set("cycles", JsonValue::number(r.cycles));
    JsonValue cores = JsonValue::array();
    for (const Cycles c : r.perCore)
        cores.push(JsonValue::number(c));
    cell.set("per_core", std::move(cores));
    return cell;
}

/** Machine::run on both substrates and Machine::compare. */
void
machineCells(Cells &cells, const std::string &prefix,
             const arch::SparseCoreConfig &config, const RunRequest &req)
{
    const Machine machine(config);
    const RunResult cpu = machine.run(req, Substrate::Cpu);
    cells[prefix + "/run.cpu/store"] =
        runCell(cpu.functionalResult, cpu.cycles, cpu.breakdown);
    const RunResult sc = machine.run(req, Substrate::SparseCore);
    cells[prefix + "/run.sparsecore/store"] =
        runCell(sc.functionalResult, sc.cycles, sc.breakdown);
    const Comparison cmp = machine.compare(req);
    cells[prefix + "/compare.cpu/store"] =
        runCell(cmp.functionalResult, cmp.baseline.cycles,
                cmp.baseline.breakdown);
    cells[prefix + "/compare.sparsecore/store"] =
        runCell(cmp.functionalResult, cmp.accelerated.cycles,
                cmp.accelerated.breakdown);
}

/** Multi-core mining on both substrates at 3 cores. */
void
parallelCells(Cells &cells, const std::string &prefix,
              const arch::SparseCoreConfig &config, gpm::GpmApp app,
              const graph::CsrGraph &g)
{
    constexpr unsigned cores = 3;
    cells[prefix + "/mine.cpu/store"] = parallelCell(
        mineParallel(app, g, cores, Substrate::Cpu, config));
    cells[prefix + "/mine.sparsecore/store"] = parallelCell(
        mineParallel(app, g, cores, Substrate::SparseCore, config));
}

Cells
computeCells()
{
    const graph::CsrGraph g = test::randomTestGraph(64, 420, 91);
    auto base = test::randomTestGraph(72, 460, 92);
    std::vector<graph::Label> labels(base.numVertices());
    for (VertexId v = 0; v < base.numVertices(); ++v)
        labels[v] = static_cast<graph::Label>(v % 3);
    const graph::LabeledGraph lg(std::move(base), labels);
    const auto a = tensor::generateMatrix(
        40, 50, 300, tensor::MatrixStructure::Uniform, 93, "A");
    const auto b = tensor::generateMatrix(
        50, 35, 280, tensor::MatrixStructure::Uniform, 94, "B");
    const auto t = tensor::generateTensor(20, 15, 30, 400, 95, "T");
    const auto vec = tensor::generateVector(30, 96);
    const auto tm = tensor::generateMatrix(
        12, 30, 140, tensor::MatrixStructure::Uniform, 97, "M");

    // The default point, and one that moves an SU, an S_NESTINTER
    // and a CPU-core parameter, so a backend built from the wrong
    // config (or a default one) changes cycles on either substrate.
    arch::SparseCoreConfig other;
    other.numSus = 2;
    other.nestedIntersection = false;
    other.core.mispredictPenalty = 20;
    const std::pair<const char *, arch::SparseCoreConfig> configs[] = {
        {"default", arch::SparseCoreConfig{}}, {"su2_nonest", other}};

    std::vector<gpm::GpmApp> apps = gpm::allGpmApps();
    apps.push_back(gpm::GpmApp::M4);

    Cells cells;
    for (const auto &[name, config] : configs) {
        const std::string root = name;
        for (const gpm::GpmApp app : apps) {
            const std::string prefix =
                root + "/gpm/" + gpm::gpmAppName(app);
            machineCells(cells, prefix, config,
                         RunRequest::gpm(app, g));
            parallelCells(cells, prefix, config, app, g);
        }
        machineCells(cells, root + "/fsm", config,
                     RunRequest::fsm(lg, 2));
        for (const auto algorithm : {kernels::SpmspmAlgorithm::Inner,
                                     kernels::SpmspmAlgorithm::Outer,
                                     kernels::SpmspmAlgorithm::Gustavson})
            machineCells(cells,
                         root + "/spmspm/" +
                             kernels::spmspmAlgorithmName(algorithm),
                         config, RunRequest::spmspm(a, b, algorithm));
        machineCells(cells, root + "/ttv", config,
                     RunRequest::ttv(t, vec));
        machineCells(cells, root + "/ttm", config,
                     RunRequest::ttm(t, tm));
    }
    return cells;
}

/** One cell per line, keys sorted, so a moved cycle is a one-line
 *  diff of the golden file. */
std::string
render(const Cells &cells)
{
    std::ostringstream os;
    os << "{\n  \"about\": \"Absolute simulated cycles, 4-class "
          "breakdowns (per-core cycles for multi-core runs) and "
          "functional results per api entry point. Regenerate with "
          "SPARSECORE_REGEN_GOLDEN=1.\",\n  \"cells\": {";
    const char *sep = "\n";
    for (const auto &[key, cell] : cells) {
        os << sep << "    " << jsonQuote(key) << ": " << cell.dump();
        sep = ",\n";
    }
    os << "\n  }\n}\n";
    return os.str();
}

} // namespace

TEST(CyclesGolden, EveryEntryPointMatchesTheGolden)
{
    const std::string path =
        std::string(SPARSECORE_TEST_DATA_DIR) + "/cycles_golden.json";
    const Cells cells = computeCells();
    const std::string text = render(cells);

    if (std::getenv("SPARSECORE_REGEN_GOLDEN")) {
        std::ofstream(path) << text;
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing " << path;
    std::ostringstream content;
    content << in.rdbuf();
    const JsonParseResult parsed = parseJson(content.str());
    ASSERT_TRUE(parsed.ok()) << parsed.describe();
    const JsonValue *golden = parsed.value->find("cells");
    ASSERT_NE(golden, nullptr);

    // Name every cell that moved before the whole-file check.
    std::size_t moved = 0;
    for (const auto &[key, cell] : cells) {
        const JsonValue *want = golden->find(key);
        if (!want) {
            ADD_FAILURE() << "cell missing from the golden: " << key;
        } else if (want->dump() != cell.dump() && ++moved <= 20) {
            ADD_FAILURE() << key << "\n  golden: " << want->dump()
                          << "\n  now:    " << cell.dump();
        }
    }
    EXPECT_EQ(moved, 0u) << "cells moved";
    EXPECT_EQ(golden->members().size(), cells.size());
    EXPECT_EQ(content.str(), text)
        << "golden file is not byte-identical to this build's output";
}
