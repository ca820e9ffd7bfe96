/**
 * @file
 * Kernel registry: one-time CPUID resolution, scoped overrides, and
 * the runSetOp/runSetOpCount dispatch entry points that
 * streams/set_ops.hh declares.
 */

#include "streams/simd/kernel_table.hh"

#include <atomic>

#include "common/logging.hh"
#include "streams/setindex/hybrid.hh"

namespace sc::streams {

namespace {

/** Table for a level, or nullptr when it is not compiled in / not
 *  supported by this CPU. */
const KernelTable *
tableFor(KernelLevel level)
{
    switch (level) {
      case KernelLevel::Scalar:
        return &simd::scalarKernelTable();
      case KernelLevel::Avx2:
#if defined(SPARSECORE_HAVE_X86_KERNELS)
        if (__builtin_cpu_supports("avx2"))
            return &simd::avx2KernelTable();
#endif
        return nullptr;
    }
    return nullptr;
}

/** Process default: the widest level this build and CPU support. */
const KernelTable *
bestAvailable()
{
    if (const KernelTable *t = tableFor(KernelLevel::Avx2))
        return t;
    return &simd::scalarKernelTable();
}

std::atomic<const KernelTable *> g_default{nullptr};
std::atomic<const KernelTable *> g_override{nullptr};

} // namespace

const char *
kernelLevelName(KernelLevel level)
{
    switch (level) {
      case KernelLevel::Scalar:
        return "scalar";
      case KernelLevel::Avx2:
        return "avx2";
      default:
        panic("unknown kernel level %u", static_cast<unsigned>(level));
    }
}

const KernelTable &
activeKernels()
{
    if (const KernelTable *o = g_override.load(std::memory_order_acquire))
        return *o;
    const KernelTable *t = g_default.load(std::memory_order_acquire);
    if (!t) {
        // Benign race: bestAvailable() is deterministic, so
        // concurrent first calls store the same pointer.
        t = bestAvailable();
        g_default.store(t, std::memory_order_release);
    }
    return *t;
}

bool
kernelLevelAvailable(KernelLevel level)
{
    return tableFor(level) != nullptr;
}

std::vector<KernelLevel>
availableKernelLevels()
{
    std::vector<KernelLevel> levels;
    for (const KernelLevel level : {KernelLevel::Scalar, KernelLevel::Avx2})
        if (kernelLevelAvailable(level))
            levels.push_back(level);
    return levels;
}

const KernelTable &
kernelsFor(KernelLevel level)
{
    const KernelTable *t = tableFor(level);
    if (!t)
        fatal("kernel level '%s' is not available on this host/build",
              kernelLevelName(level));
    return *t;
}

ScopedKernelOverride::ScopedKernelOverride(KernelLevel level)
    : prev_(g_override.exchange(&kernelsFor(level),
                                std::memory_order_acq_rel))
{
}

ScopedKernelOverride::~ScopedKernelOverride()
{
    g_override.store(prev_, std::memory_order_release);
}

SetOpResult
runSetOp(SetOpKind kind, KeySpan a, KeySpan b, Key bound,
         std::vector<Key> *out)
{
    // Hybrid-format fast path: operands that resolve to registered
    // adjacency lists with bitmap chunks run the setindex kernels
    // (bit-identical outputs and SetOpResult; DESIGN.md §11).
    if (setindex::indexedDispatchPossible(a, b)) {
        SetOpResult res;
        if (setindex::tryRunIndexed(kind, a, b, bound, out, res))
            return res;
    }
    const KernelTable &t = activeKernels();
    switch (kind) {
      case SetOpKind::Intersect:
        return t.intersect(a, b, bound, out);
      case SetOpKind::Subtract:
        return t.subtract(a, b, bound, out);
      case SetOpKind::Merge:
        return t.merge(a, b, out);
      default:
        panic("unknown set-op kind %u", static_cast<unsigned>(kind));
    }
}

SetOpResult
runSetOpCount(SetOpKind kind, KeySpan a, KeySpan b, Key bound)
{
    // The .C forms are the same dispatch with no output buffer — a
    // counting instruction can never diverge from its materializing
    // twin because there is no separate counting code path to drift.
    return runSetOp(kind, a, b, bound, nullptr);
}

} // namespace sc::streams
