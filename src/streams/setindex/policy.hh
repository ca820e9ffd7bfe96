/**
 * @file
 * Format-selection policy for the hybrid stream set index.
 *
 * The process always runs Auto. ArrayOnly bypasses the index and is
 * the reference the hybrid kernels are tested against; tests reach it
 * through an RAII ScopedIndexPolicyOverride, the same seam
 * streams/simd/kernel_table.hh offers for kernel levels.
 *
 * Like the kernel level, the index policy moves host wall-clock only:
 * every policy produces bit-identical outputs and SetOpResult work
 * summaries, so simulated cycles never change (DESIGN.md §11,
 * enforced by tests/set_index_test.cc).
 */

#ifndef SPARSECORE_STREAMS_SETINDEX_POLICY_HH
#define SPARSECORE_STREAMS_SETINDEX_POLICY_HH

namespace sc::streams::setindex {

/**
 * Which adjacency-list representation runSetOp may pick per operand.
 *  - Auto: bitmap kernels when the operand's list has a bitmap AND
 *    the probe-side heuristic says they pay off.
 *  - ArrayOnly: bypass the index entirely (the reference).
 */
enum class IndexPolicy : unsigned { Auto = 0, ArrayOnly = 1 };

const char *indexPolicyName(IndexPolicy policy);

/**
 * Policy in effect for this call: an active ScopedIndexPolicyOverride
 * if present, else Auto.
 */
IndexPolicy activeIndexPolicy();

/**
 * RAII process-global policy override (tests). Nests; restores the
 * previous override on destruction. Process-wide for the same reason
 * ScopedKernelOverride is: host pool threads executing a parallel run
 * must observe it too.
 */
class ScopedIndexPolicyOverride
{
  public:
    explicit ScopedIndexPolicyOverride(IndexPolicy policy);
    ~ScopedIndexPolicyOverride();
    ScopedIndexPolicyOverride(const ScopedIndexPolicyOverride &) = delete;
    ScopedIndexPolicyOverride &
    operator=(const ScopedIndexPolicyOverride &) = delete;

  private:
    int prev_;
};

} // namespace sc::streams::setindex

#endif // SPARSECORE_STREAMS_SETINDEX_POLICY_HH
