#include "graph/csr_graph.hh"

#include <algorithm>
#include <utility>

#include "common/fingerprint.hh"
#include "common/logging.hh"
#include "streams/setindex/registry.hh"

namespace sc::graph {

CsrGraph::CsrGraph(std::vector<std::uint64_t> offsets,
                   std::vector<VertexId> edges, std::string name)
    : offsets_(std::move(offsets)), edges_(std::move(edges)),
      name_(std::move(name))
{
    if (offsets_.empty())
        fatal("CSR graph requires a non-empty offset array");
    if (offsets_.front() != 0 || offsets_.back() != edges_.size())
        fatal("CSR offsets are inconsistent with the edge array");

    const VertexId n = numVertices();
    aboveOffsets_.resize(n);
    for (VertexId v = 0; v < n; ++v) {
        auto list = neighbors(v);
        if (!std::is_sorted(list.begin(), list.end()))
            fatal("neighbor list of vertex %u is not sorted", v);
        maxDegree_ = std::max(maxDegree_, degree(v));
        auto it = std::upper_bound(list.begin(), list.end(), v);
        aboveOffsets_[v] =
            static_cast<std::uint32_t>(it - list.begin());
    }
    edgeArrayBase_ = vertexArrayBase_ +
                     (static_cast<Addr>(n) + 1) * sizeof(std::uint64_t);
    // Align the edge array to a cache line for clean prefetch modeling.
    edgeArrayBase_ = (edgeArrayBase_ + 63) & ~Addr{63};

    // Content fingerprint over both CSR arrays: the artifact store
    // keys programs by it, so structurally identical graphs share
    // captured programs regardless of name.
    fingerprint_ = Fingerprint().add(offsets_).add(edges_).value();

    index_ = streams::setindex::StreamSetIndex::build(offsets_, edges_);
    registerSetIndex();
}

void
CsrGraph::registerSetIndex()
{
    if (!index_)
        return;
    streams::setindex::registerGraphIndex(this, edges_.data(),
                                          edges_.size(), offsets_.data(),
                                          numVertices(), index_);
}

CsrGraph::CsrGraph(const CsrGraph &other)
    : offsets_(other.offsets_), edges_(other.edges_),
      aboveOffsets_(other.aboveOffsets_), maxDegree_(other.maxDegree_),
      fingerprint_(other.fingerprint_), name_(other.name_),
      vertexArrayBase_(other.vertexArrayBase_),
      edgeArrayBase_(other.edgeArrayBase_), index_(other.index_)
{
    registerSetIndex();
}

CsrGraph &
CsrGraph::operator=(const CsrGraph &other)
{
    if (this == &other)
        return *this;
    streams::setindex::unregisterGraphIndex(this);
    offsets_ = other.offsets_;
    edges_ = other.edges_;
    aboveOffsets_ = other.aboveOffsets_;
    maxDegree_ = other.maxDegree_;
    fingerprint_ = other.fingerprint_;
    name_ = other.name_;
    vertexArrayBase_ = other.vertexArrayBase_;
    edgeArrayBase_ = other.edgeArrayBase_;
    index_ = other.index_;
    registerSetIndex();
    return *this;
}

CsrGraph::CsrGraph(CsrGraph &&other) noexcept
    : offsets_(std::move(other.offsets_)),
      edges_(std::move(other.edges_)),
      aboveOffsets_(std::move(other.aboveOffsets_)),
      maxDegree_(other.maxDegree_), fingerprint_(other.fingerprint_),
      name_(std::move(other.name_)),
      vertexArrayBase_(other.vertexArrayBase_),
      edgeArrayBase_(other.edgeArrayBase_),
      index_(std::move(other.index_))
{
    // Vector moves keep the data pointer, so the registration simply
    // changes owner.
    streams::setindex::unregisterGraphIndex(&other);
    registerSetIndex();
}

CsrGraph &
CsrGraph::operator=(CsrGraph &&other) noexcept
{
    if (this == &other)
        return *this;
    streams::setindex::unregisterGraphIndex(this);
    streams::setindex::unregisterGraphIndex(&other);
    offsets_ = std::move(other.offsets_);
    edges_ = std::move(other.edges_);
    aboveOffsets_ = std::move(other.aboveOffsets_);
    maxDegree_ = other.maxDegree_;
    fingerprint_ = other.fingerprint_;
    name_ = std::move(other.name_);
    vertexArrayBase_ = other.vertexArrayBase_;
    edgeArrayBase_ = other.edgeArrayBase_;
    index_ = std::move(other.index_);
    registerSetIndex();
    return *this;
}

CsrGraph::~CsrGraph()
{
    streams::setindex::unregisterGraphIndex(this);
}

double
CsrGraph::avgDegree() const
{
    const VertexId n = numVertices();
    return n ? static_cast<double>(edges_.size()) / n : 0.0;
}

bool
CsrGraph::hasEdge(VertexId u, VertexId v) const
{
    auto list = neighbors(u);
    return std::binary_search(list.begin(), list.end(), v);
}

} // namespace sc::graph
