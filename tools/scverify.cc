/**
 * @file
 * scverify: command-line front end for the stream-program static
 * verifier (src/analysis).
 *
 *     scverify prog.s another.s program.scbc
 *
 * Each input is sniffed by content: files starting with the "SCBC"
 * magic are compiled bytecode programs, checked by walking their code
 * with the event-order lifetime checker; everything else is
 * assembled as stream-ISA text and run through the branch-aware
 * static pass. Exits 1 when any input draws an error diagnostic (or
 * a warning under --werror), 2 on usage errors (including flag
 * values outside their accepted range) and on unreadable, malformed
 * or unparsable input, 0 when everything is clean.
 */

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/summary.hh"
#include "analysis/trace_check.hh"
#include "analysis/verifier.hh"
#include "arch/config.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "isa/assembler.hh"
#include "trace/bytecode.hh"

namespace {

using namespace sc;

struct Cli
{
    std::vector<std::string> files;
    bool werror = false;
    bool quiet = false;
    bool dumpCfg = false;
    bool json = false;
    bool summary = false;
    bool costBounds = false;
    unsigned maxLive = isa::numStreamRegs;
    /** Arch point the quantitative analyses run against (the JobSpec
     *  arch override surface; Table-2 defaults otherwise). */
    arch::SparseCoreConfig arch;

    bool wantSummary() const { return summary || costBounds; }
};

int
usage(std::ostream &os, int code)
{
    os << "usage: scverify [options] <file>...\n"
          "\n"
          "Statically verify stream-ISA assembly programs and check\n"
          "compiled bytecode programs (SCBC binaries, sniffed by\n"
          "magic) against the stream dataflow contract.\n"
          "\n"
          "options:\n"
          "  --werror       exit nonzero on warnings too\n"
          "  --quiet        suppress per-file OK lines\n"
          "  --max-live N   live-stream capacity (default "
       << isa::numStreamRegs
       << ")\n"
          "  --summary      quantitative summary per input: peak\n"
          "                 live-stream pressure (+ profile in JSON)\n"
          "                 and, for SCBC, cost bounds\n"
          "  --cost-bounds  print only the [lower, upper] simulated-\n"
          "                 cycle interval (SCBC)\n"
          "  --json         one byte-stable JSON object per input on\n"
          "                 stdout (diagnostics + any summary)\n"
          "  --sus N        arch override: stream units (1.."
       << arch::maxSus
       << ")\n"
          "  --window N     arch override: SU comparator window (1.."
       << arch::maxSuWindow
       << ")\n"
          "  --bandwidth N  arch override: aggregate stream bandwidth\n"
          "                 (1.."
       << arch::maxAggregateBandwidth
       << ")\n"
          "  --nested 0|1   arch override: nested intersection\n"
          "  --dump-cfg     print each program's basic-block CFG\n"
          "  --list-rules   print the rule table and exit\n"
          "  --help         this text\n"
          "\n"
          "exit status: 0 clean, 1 diagnostics, 2 bad input\n";
    return code;
}

int
listRules()
{
    for (unsigned r = 0;
         r < static_cast<unsigned>(analysis::Rule::NumRules); ++r) {
        const auto rule = static_cast<analysis::Rule>(r);
        std::printf("%-24s %s\n", analysis::ruleId(rule),
                    analysis::ruleDescription(rule));
    }
    return 0;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

bool
looksLikeBytecode(const std::string &bytes)
{
    return bytes.size() >= 4 && bytes.compare(0, 4, "SCBC") == 0;
}

/** Parse `text` as the integer value of `flag`, accepted only in
 *  [lo, hi]; reports the accepted range and returns nullopt
 *  otherwise. */
std::optional<unsigned>
parseFlagValue(const std::string &flag, const char *text, unsigned lo,
               unsigned hi)
{
    const char *const end = text + std::strlen(text);
    unsigned long long value = 0;
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc{} || ptr != end || value < lo || value > hi) {
        std::cerr << "scverify: " << flag << " expects an integer in ["
                  << lo << ", " << hi << "], got '" << text << "'\n";
        return std::nullopt;
    }
    return static_cast<unsigned>(value);
}

void
dumpCfg(const isa::Program &program)
{
    const analysis::Cfg cfg = analysis::buildCfg(program);
    for (std::size_t i = 0; i < cfg.blocks.size(); ++i) {
        const auto &b = cfg.blocks[i];
        std::printf("  block %zu: pc [%llu, %llu)", i,
                    static_cast<unsigned long long>(b.first),
                    static_cast<unsigned long long>(b.last));
        if (b.succs.empty()) {
            std::printf(" -> exit\n");
            continue;
        }
        std::printf(" ->");
        for (const auto s : b.succs)
            std::printf(" %u", s);
        std::printf("\n");
    }
}

/** One input's analyses: the lifetime report plus, when requested,
 *  the quantitative summary (pressure always; cost bounds only for
 *  SCBC programs, which carry the event stream the cost model
 *  charges). */
struct FileResult
{
    analysis::VerifyReport report;
    std::optional<analysis::ProgramSummary> summary;
};

/** Verify one input; returns its analyses or nullopt on a read/parse
 *  failure (already reported to stderr). */
std::optional<FileResult>
checkFile(const Cli &cli, const std::string &path)
{
    std::string bytes;
    if (!readFile(path, bytes)) {
        std::cerr << "scverify: cannot read " << path << "\n";
        return std::nullopt;
    }

    // Any exception out of loading or checking an input — SimError
    // for malformed input, but also an allocation failure — is bad
    // input (exit 2), never an abort.
    try {
        FileResult result;
        if (looksLikeBytecode(bytes)) {
            const trace::BytecodeProgram bc =
                trace::BytecodeProgram::deserialize(bytes);
            analysis::StreamLifetimeChecker::Options options;
            options.maxLiveStreams = cli.maxLive;
            result.report = analysis::verifyBytecode(bc, options);
            if (cli.wantSummary())
                result.summary =
                    analysis::summarizeBytecode(bc, cli.arch);
            return result;
        }
        const isa::Program program = isa::assemble(bytes);
        if (cli.dumpCfg) {
            std::printf("%s: cfg\n", path.c_str());
            dumpCfg(program);
        }
        analysis::VerifyOptions options;
        options.maxLiveStreams = cli.maxLive;
        result.report = analysis::verify(program, options);
        if (cli.wantSummary())
            result.summary =
                analysis::summarizeProgram(program, options);
        return result;
    } catch (const std::exception &e) {
        std::cerr << "scverify: " << path << ": " << e.what() << "\n";
        return std::nullopt;
    }
}

/** Human-readable summary lines (the JSON shape is the golden one;
 *  this is the terminal view of the same numbers). */
void
printSummary(const Cli &cli, const std::string &path,
             const analysis::ProgramSummary &summary)
{
    if (cli.summary)
        std::cout << path << ": pressure max " << summary.maxPressure
                  << " @ " << summary.maxPressurePc << " ("
                  << (summary.pressureExact ? "exact" : "upper bound")
                  << "), " << summary.defines << " defines / "
                  << summary.frees << " frees over " << summary.points
                  << " points\n";
    if (summary.cost.valid)
        std::cout << path << ": cost bounds [" << summary.cost.lower
                  << ", " << summary.cost.upper << "] cycles\n";
    else if (cli.costBounds)
        std::cout << path
                  << ": cost bounds unavailable (assembly input)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli;
    // Numeric flags: each takes one value in its accepted range.
    const auto numeric = [&](int &i, unsigned lo, unsigned hi,
                             unsigned &out) {
        if (i + 1 >= argc)
            return false;
        const auto value = parseFlagValue(argv[i], argv[i + 1], lo, hi);
        ++i;
        if (value)
            out = *value;
        return value.has_value();
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            return usage(std::cout, 0);
        if (arg == "--list-rules")
            return listRules();
        if (arg == "--werror") {
            cli.werror = true;
        } else if (arg == "--quiet" || arg == "-q") {
            cli.quiet = true;
        } else if (arg == "--dump-cfg") {
            cli.dumpCfg = true;
        } else if (arg == "--json") {
            cli.json = true;
        } else if (arg == "--summary") {
            cli.summary = true;
        } else if (arg == "--cost-bounds") {
            cli.costBounds = true;
        } else if (arg == "--max-live") {
            if (!numeric(i, 1, std::numeric_limits<unsigned>::max(),
                         cli.maxLive))
                return usage(std::cerr, 2);
        } else if (arg == "--sus") {
            if (!numeric(i, 1, arch::maxSus, cli.arch.numSus))
                return usage(std::cerr, 2);
        } else if (arg == "--window") {
            if (!numeric(i, 1, arch::maxSuWindow, cli.arch.suWindow))
                return usage(std::cerr, 2);
        } else if (arg == "--bandwidth") {
            if (!numeric(i, 1, arch::maxAggregateBandwidth,
                         cli.arch.aggregateBandwidth))
                return usage(std::cerr, 2);
        } else if (arg == "--nested") {
            unsigned nested = 0;
            if (!numeric(i, 0, 1, nested))
                return usage(std::cerr, 2);
            cli.arch.nestedIntersection = nested != 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "scverify: unknown option " << arg << "\n";
            return usage(std::cerr, 2);
        } else {
            cli.files.push_back(arg);
        }
    }
    if (cli.files.empty())
        return usage(std::cerr, 2);

    bool bad_input = false;
    bool failed = false;
    for (const std::string &path : cli.files) {
        const auto result = checkFile(cli, path);
        if (!result) {
            bad_input = true;
            continue;
        }
        const analysis::VerifyReport &report = result->report;
        if (cli.json) {
            // One byte-stable object per input (diagnostics already
            // (pc, sid, rule)-sorted by the analyses) — what the
            // check.sh golden diff pins.
            JsonValue line = JsonValue::object();
            line.set("file", JsonValue::str(path));
            line.set("report", analysis::jsonValue(report));
            if (result->summary)
                line.set("summary",
                         analysis::jsonValue(*result->summary));
            std::cout << line.dump() << "\n";
        } else {
            for (const auto &d : report.diagnostics)
                std::cout << path << ": " << d.format() << "\n";
        }
        const bool fails =
            report.hasErrors() ||
            (cli.werror && report.warningCount() != 0);
        if (fails)
            failed = true;
        else if (!cli.quiet && !cli.json)
            std::cout << path << ": OK ("
                      << report.warningCount() << " warnings)\n";
        if (!cli.json && result->summary)
            printSummary(cli, path, *result->summary);
    }
    if (bad_input)
        return 2;
    return failed ? 1 : 0;
}
