#include "streams/setindex/policy.hh"

#include <atomic>

#include "common/logging.hh"

namespace sc::streams::setindex {

namespace {

// -1 = no override; otherwise an IndexPolicy value.
std::atomic<int> g_override{-1};

} // namespace

const char *
indexPolicyName(IndexPolicy policy)
{
    switch (policy) {
      case IndexPolicy::Auto:
        return "auto";
      case IndexPolicy::ArrayOnly:
        return "array";
      default:
        panic("unknown index policy %u",
              static_cast<unsigned>(policy));
    }
}

IndexPolicy
activeIndexPolicy()
{
    const int o = g_override.load(std::memory_order_acquire);
    return o >= 0 ? static_cast<IndexPolicy>(o) : IndexPolicy::Auto;
}

ScopedIndexPolicyOverride::ScopedIndexPolicyOverride(IndexPolicy policy)
    : prev_(g_override.exchange(static_cast<int>(policy),
                                std::memory_order_acq_rel))
{
}

ScopedIndexPolicyOverride::~ScopedIndexPolicyOverride()
{
    g_override.store(prev_, std::memory_order_release);
}

} // namespace sc::streams::setindex
