/**
 * @file
 * Content fingerprints (common/fingerprint.hh): the hash does not let
 * paired sign flips cancel, every array of a dataset contributes to
 * its fingerprint, and names never do — so structurally identical
 * graphs, matrices and tensors share one store key.
 */

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "common/fingerprint.hh"
#include "graph/csr_graph.hh"
#include "graph/labeled_graph.hh"
#include "tensor/csf_tensor.hh"
#include "tensor/sparse_matrix.hh"

using namespace sc;

namespace {

std::uint64_t
fingerprintOf(const std::vector<Value> &values)
{
    return Fingerprint().add(values).value();
}

/** 3x4 matrix; `tweak` selects which part of it differs. */
tensor::SparseMatrix
matrix(int tweak, const char *name = "m")
{
    std::vector<tensor::Triplet> t = {
        {0, 1, 1.0}, {0, 3, 2.0}, {1, 0, 3.0}, {2, 2, 4.0}};
    if (tweak == 1)
        t[1].col = 2; // a column index
    if (tweak == 2)
        t[3].value = 5.0; // a value
    if (tweak == 3)
        t[2].row = 2; // the row split: same columns and values
    return tensor::SparseMatrix::fromTriplets(3, tweak == 4 ? 5 : 4, t,
                                              name);
}

/** 3x3x4 tensor; `tweak` selects which part of it differs. */
tensor::CsfTensor
tensor3(int tweak, const char *name = "t")
{
    std::vector<tensor::TensorEntry> e = {{0, 0, 1, 1.0},
                                          {0, 2, 3, 2.0},
                                          {2, 1, 0, 3.0},
                                          {2, 1, 2, 4.0}};
    if (tweak == 1)
        e[0].i = 1; // a slice coordinate
    if (tweak == 2)
        e[1].j = 1; // a fiber coordinate
    if (tweak == 3)
        e[2].k = 1; // an entry coordinate
    if (tweak == 4)
        e[3].value = -4.0; // a value
    return tensor::CsfTensor::fromEntries(3, 3, tweak == 5 ? 5 : 4, e,
                                          name);
}

graph::CsrGraph
path(const char *name = "path")
{
    // 0 - 1 - 2, both directions.
    return graph::CsrGraph({0, 1, 3, 4}, {1, 0, 2, 1}, name);
}

} // namespace

TEST(Fingerprint, SignFlipPairDiffers)
{
    // Two doubles with both signs flipped differ only in the top bit
    // of two consecutive words. Plain word-wise FNV-1a (xor, then
    // multiply by an odd prime) carries the first flip into the top
    // bit of the state, and the second xor cancels it.
    const std::vector<Value> pos = {1.5, 2.5};
    const std::vector<Value> neg = {-1.5, -2.5};
    const auto plainFnv = [](const std::vector<Value> &values) {
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (const Value v : values)
            h = (h ^ std::bit_cast<std::uint64_t>(v)) * 0x100000001b3ull;
        return h;
    };
    ASSERT_EQ(plainFnv(pos), plainFnv(neg));
    EXPECT_NE(fingerprintOf(pos), fingerprintOf(neg));

    std::vector<tensor::Triplet> t = {{0, 0, 1.5}, {0, 1, 2.5}};
    const auto a = tensor::SparseMatrix::fromTriplets(1, 2, t);
    t[0].value = -1.5;
    t[1].value = -2.5;
    EXPECT_NE(a.fingerprint(),
              tensor::SparseMatrix::fromTriplets(1, 2, t).fingerprint());
}

TEST(Fingerprint, EveryArrayContributes)
{
    // Array lengths are hashed too, so moving an element across an
    // array boundary changes the fingerprint.
    EXPECT_NE(Fingerprint().add(std::vector<Key>{1, 2})
                  .add(std::vector<Key>{3})
                  .value(),
              Fingerprint().add(std::vector<Key>{1})
                  .add(std::vector<Key>{2, 3})
                  .value());

    for (int tweak = 1; tweak <= 4; ++tweak)
        EXPECT_NE(matrix(0).fingerprint(), matrix(tweak).fingerprint())
            << "matrix tweak " << tweak;
    for (int tweak = 1; tweak <= 5; ++tweak)
        EXPECT_NE(tensor3(0).fingerprint(), tensor3(tweak).fingerprint())
            << "tensor tweak " << tweak;

    // One edge array under two offset arrays.
    const graph::CsrGraph split_a({0, 2, 3, 4}, {1, 2, 0, 1}, "g");
    const graph::CsrGraph split_b({0, 1, 2, 4}, {1, 2, 0, 1}, "g");
    EXPECT_NE(split_a.fingerprint(), split_b.fingerprint());
    // One offset array over two edge arrays.
    const graph::CsrGraph rewired({0, 1, 3, 4}, {2, 0, 2, 0}, "path");
    EXPECT_NE(path().fingerprint(), rewired.fingerprint());

    const graph::LabeledGraph lg(path(), {0, 1, 0});
    EXPECT_NE(lg.fingerprint(),
              graph::LabeledGraph(path(), {0, 1, 1}).fingerprint());
    EXPECT_NE(lg.fingerprint(),
              graph::LabeledGraph(rewired, {0, 1, 0}).fingerprint());
}

TEST(Fingerprint, NamesDoNotContribute)
{
    EXPECT_EQ(path("a").fingerprint(), path("b").fingerprint());
    EXPECT_EQ(graph::LabeledGraph(path("a"), {0, 1, 0}).fingerprint(),
              graph::LabeledGraph(path("b"), {0, 1, 0}).fingerprint());
    EXPECT_EQ(matrix(0, "a").fingerprint(), matrix(0, "b").fingerprint());
    EXPECT_EQ(tensor3(0, "a").fingerprint(),
              tensor3(0, "b").fingerprint());
}
