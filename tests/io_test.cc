/**
 * @file
 * Tests for dataset file I/O: SNAP edge lists and MatrixMarket
 * coordinate files, including round trips and malformed input.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/logging.hh"
#include "graph/generators.hh"
#include "graph/io.hh"
#include "tensor/tensor_gen.hh"

using namespace sc;

TEST(EdgeListIo, ParsesSnapFormat)
{
    std::istringstream in(R"(# Directed graph: example
# Nodes: 4 Edges: 3
10 20
20 30
10	40
)");
    const auto g = graph::loadEdgeList(in, "snap");
    EXPECT_EQ(g.numVertices(), 4u); // ids compacted
    EXPECT_EQ(g.numEdges(), 3u);
    // 10 -> 0, 20 -> 1, 30 -> 2, 40 -> 3 (sorted compaction).
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(1, 2));
    EXPECT_TRUE(g.hasEdge(0, 3));
}

TEST(EdgeListIo, DropsCommentsAndDuplicates)
{
    std::istringstream in("% comment\n1 2\n2 1\n1 1\n1 2\n");
    const auto g = graph::loadEdgeList(in);
    EXPECT_EQ(g.numEdges(), 1u);
}

TEST(EdgeListIo, RejectsGarbage)
{
    std::istringstream bad("1 banana\n");
    EXPECT_THROW(graph::loadEdgeList(bad), SimError);
    std::istringstream empty("# nothing\n");
    EXPECT_THROW(graph::loadEdgeList(empty), SimError);
}

TEST(EdgeListIo, RoundTrip)
{
    const auto g =
        graph::generateErdosRenyi(200, 800, 33, "roundtrip");
    std::ostringstream out;
    graph::saveEdgeList(g, out);
    std::istringstream in(out.str());
    const auto g2 = graph::loadEdgeList(in, "roundtrip");
    EXPECT_EQ(g2.numEdges(), g.numEdges());
    for (VertexId v = 0; v < 200; v += 17)
        for (VertexId u : g.neighbors(v))
            EXPECT_TRUE(g2.hasEdge(v, u));
}

TEST(MatrixMarketIo, ParsesGeneralReal)
{
    std::istringstream in(R"(%%MatrixMarket matrix coordinate real general
% a comment
3 4 3
1 1 2.5
2 3 -1.0
3 4 7
)");
    const auto m = tensor::loadMatrixMarket(in, "mm");
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 4u);
    EXPECT_EQ(m.nnz(), 3u);
    EXPECT_DOUBLE_EQ(m.rowVals(0)[0], 2.5);
    EXPECT_EQ(m.rowKeys(2)[0], 3u);
}

TEST(MatrixMarketIo, ExpandsSymmetric)
{
    std::istringstream in(R"(%%MatrixMarket matrix coordinate real symmetric
3 3 2
2 1 5.0
3 3 1.0
)");
    const auto m = tensor::loadMatrixMarket(in);
    EXPECT_EQ(m.nnz(), 3u); // (2,1) mirrored, diagonal not
    EXPECT_DOUBLE_EQ(m.rowVals(0)[0], 5.0); // mirrored (1,2)
}

TEST(MatrixMarketIo, PatternGetsUnitValues)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n"
        "1 2\n");
    const auto m = tensor::loadMatrixMarket(in);
    EXPECT_DOUBLE_EQ(m.rowVals(0)[0], 1.0);
}

TEST(MatrixMarketIo, RejectsBadInput)
{
    std::istringstream notmm("1 2 3\n");
    EXPECT_THROW(tensor::loadMatrixMarket(notmm), SimError);
    std::istringstream complex_field(
        "%%MatrixMarket matrix coordinate complex general\n1 1 0\n");
    EXPECT_THROW(tensor::loadMatrixMarket(complex_field), SimError);
    std::istringstream out_of_range(
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n"
        "3 1 1.0\n");
    EXPECT_THROW(tensor::loadMatrixMarket(out_of_range), SimError);
    std::istringstream truncated(
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n"
        "1 1 1.0\n");
    EXPECT_THROW(tensor::loadMatrixMarket(truncated), SimError);
    // A size line claiming 2^62 entries must not size an allocation:
    // the loader reads what is there and reports the short file.
    std::istringstream huge_nnz(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 4611686018427387904\n1 1 1.0\n");
    EXPECT_THROW(tensor::loadMatrixMarket(huge_nnz), SimError);
}

TEST(MatrixMarketIo, RoundTrip)
{
    const auto m = tensor::generateMatrix(
        30, 40, 150, tensor::MatrixStructure::Uniform, 44, "rt");
    std::ostringstream out;
    tensor::saveMatrixMarket(m, out);
    std::istringstream in(out.str());
    const auto m2 = tensor::loadMatrixMarket(in, "rt");
    EXPECT_LT(m.maxAbsDiff(m2), 1e-9);
}

TEST(Io, MissingFilesFatal)
{
    EXPECT_THROW(graph::loadEdgeListFile("/nonexistent/graph.txt"),
                 SimError);
    EXPECT_THROW(
        tensor::loadMatrixMarketFile("/nonexistent/matrix.mtx"),
        SimError);
}
