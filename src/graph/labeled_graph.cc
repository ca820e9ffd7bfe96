#include "graph/labeled_graph.hh"

#include <algorithm>

#include "common/fingerprint.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace sc::graph {

LabeledGraph::LabeledGraph(CsrGraph graph, std::vector<Label> labels)
    : graph_(std::move(graph)), labels_(std::move(labels))
{
    if (labels_.size() != graph_.numVertices())
        fatal("label array size %zu != vertex count %u", labels_.size(),
              graph_.numVertices());
    numLabels_ = labels_.empty()
                     ? 0
                     : *std::max_element(labels_.begin(), labels_.end()) +
                           1;

    // Content fingerprint: the graph's, mixed with every label.
    fingerprint_ =
        Fingerprint().add(graph_.fingerprint()).add(labels_).value();
}

LabeledGraph
LabeledGraph::withRandomLabels(CsrGraph graph, std::uint32_t num_labels,
                               std::uint64_t seed)
{
    if (num_labels == 0)
        fatal("need at least one label");
    Rng rng(seed);
    std::vector<Label> labels(graph.numVertices());
    for (auto &label : labels)
        label = static_cast<Label>(rng.below(num_labels));
    return LabeledGraph(std::move(graph), std::move(labels));
}

} // namespace sc::graph
