#include "graph/io.hh"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "common/logging.hh"
#include "graph/graph_builder.hh"

namespace sc::graph {

CsrGraph
loadEdgeList(std::istream &in, std::string name)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> raw;
    std::unordered_map<std::uint64_t, VertexId> compact;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const auto first =
            line.find_first_not_of(" \t\r");
        if (first == std::string::npos || line[first] == '#' ||
            line[first] == '%') {
            continue;
        }
        std::istringstream fields(line);
        std::uint64_t u, v;
        if (!(fields >> u >> v))
            fatal("edge list parse error at line %zu", lineno);
        raw.emplace_back(u, v);
        compact.emplace(u, 0);
        compact.emplace(v, 0);
    }
    if (raw.empty())
        fatal("edge list '%s' contains no edges", name.c_str());

    // Compact ids in sorted order so output is deterministic.
    std::vector<std::uint64_t> ids;
    ids.reserve(compact.size());
    for (const auto &[id, unused] : compact)
        ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    for (std::size_t i = 0; i < ids.size(); ++i)
        compact[ids[i]] = static_cast<VertexId>(i);

    GraphBuilder builder(static_cast<VertexId>(ids.size()));
    for (const auto &[u, v] : raw)
        builder.addEdge(compact[u], compact[v]);
    return std::move(builder).build(std::move(name));
}

CsrGraph
loadEdgeListFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open edge list '%s'", path.c_str());
    return loadEdgeList(in, path);
}

void
saveEdgeList(const CsrGraph &g, std::ostream &out)
{
    out << "# " << g.name() << ": " << g.numVertices()
        << " vertices, " << g.numEdges() << " edges\n";
    for (VertexId u = 0; u < g.numVertices(); ++u)
        for (VertexId v : g.neighborsAbove(u))
            out << u << ' ' << v << '\n';
}

} // namespace sc::graph

namespace sc::tensor {

SparseMatrix
loadMatrixMarket(std::istream &in, std::string name)
{
    std::string header;
    if (!std::getline(in, header) ||
        header.rfind("%%MatrixMarket", 0) != 0) {
        fatal("'%s' is not a MatrixMarket file", name.c_str());
    }
    std::istringstream head(header);
    std::string tag, object, format, field, symmetry;
    head >> tag >> object >> format >> field >> symmetry;
    if (object != "matrix" || format != "coordinate")
        fatal("unsupported MatrixMarket header in '%s'", name.c_str());
    const bool pattern = field == "pattern";
    const bool symmetric = symmetry == "symmetric";
    if (field != "real" && field != "integer" && !pattern)
        fatal("unsupported MatrixMarket field '%s'", field.c_str());

    std::string line;
    std::uint32_t rows = 0, cols = 0;
    std::uint64_t nnz = 0;
    while (std::getline(in, line)) {
        const auto first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos || line[first] == '%')
            continue;
        std::istringstream sizes(line);
        if (!(sizes >> rows >> cols >> nnz))
            fatal("bad MatrixMarket size line in '%s'", name.c_str());
        break;
    }
    if (rows == 0 || cols == 0)
        fatal("missing MatrixMarket size line in '%s'", name.c_str());

    // The size line is untrusted: the vector grows with the entries
    // actually read, and a short file fails the count check below.
    std::vector<Triplet> triplets;
    std::uint64_t seen = 0;
    while (seen < nnz && std::getline(in, line)) {
        const auto first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos || line[first] == '%')
            continue;
        std::istringstream entry(line);
        std::uint32_t r, c;
        double value = 1.0;
        if (!(entry >> r >> c))
            fatal("bad MatrixMarket entry in '%s'", name.c_str());
        if (!pattern && !(entry >> value))
            fatal("missing value in '%s'", name.c_str());
        if (r == 0 || c == 0 || r > rows || c > cols)
            fatal("MatrixMarket index out of range in '%s'",
                  name.c_str());
        triplets.push_back({r - 1, c - 1, value}); // 1-based input
        if (symmetric && r != c)
            triplets.push_back({c - 1, r - 1, value});
        ++seen;
    }
    if (seen != nnz)
        fatal("'%s' ended after %llu of %llu entries", name.c_str(),
              static_cast<unsigned long long>(seen),
              static_cast<unsigned long long>(nnz));
    return SparseMatrix::fromTriplets(rows, cols, std::move(triplets),
                                      std::move(name));
}

SparseMatrix
loadMatrixMarketFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open matrix file '%s'", path.c_str());
    return loadMatrixMarket(in, path);
}

void
saveMatrixMarket(const SparseMatrix &m, std::ostream &out)
{
    out << "%%MatrixMarket matrix coordinate real general\n";
    out << std::setprecision(
        std::numeric_limits<double>::max_digits10);
    out << m.rows() << ' ' << m.cols() << ' ' << m.nnz() << '\n';
    for (std::uint32_t r = 0; r < m.rows(); ++r) {
        auto keys = m.rowKeys(r);
        auto vals = m.rowVals(r);
        for (std::size_t i = 0; i < keys.size(); ++i)
            out << r + 1 << ' ' << keys[i] + 1 << ' ' << vals[i]
                << '\n';
    }
}

} // namespace sc::tensor
