#include "sim/branch_predictor.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace sc::sim {

namespace {

/** Counters start weakly not-taken. */
constexpr std::uint8_t initialCounter = 1;

} // namespace

GsharePredictor::GsharePredictor(std::size_t table_size,
                                 unsigned history_bits)
    : table_(table_size, initialCounter), indexMask_(table_size - 1),
      historyMask_((1ull << history_bits) - 1)
{
    if (!std::has_single_bit(table_size))
        fatal("branch predictor table size must be a power of two");
}

void
GsharePredictor::reset()
{
    std::fill(table_.begin(), table_.end(), initialCounter);
    history_ = 0;
    lookups_ = mispredicts_ = 0;
}

} // namespace sc::sim
