/**
 * @file
 * The branch predictor of the CPU baseline model.
 *
 * The paper's Fig. 9 shows misprediction cycles dominating the CPU's
 * intersection loops. We drive a real predictor with the actual
 * advance-direction outcome sequence of each set operation, so the
 * misprediction rate emerges from data rather than a fudge factor.
 */

#ifndef SPARSECORE_SIM_BRANCH_PREDICTOR_HH
#define SPARSECORE_SIM_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

namespace sc::sim {

/** Gshare: global history XOR pc indexing a table of 2-bit
 *  saturating counters. Predict, then update with the outcome. */
class GsharePredictor
{
  public:
    explicit GsharePredictor(std::size_t table_size = 16384,
                             unsigned history_bits = 12);

    /** Predict+update for one dynamic branch at address pc.
     *  @return true when the prediction matched the outcome. */
    bool
    predict(std::uint64_t pc, bool taken)
    {
        std::uint8_t &ctr = table_[(pc ^ history_) & (table_.size() - 1)];
        const bool correct = (ctr >= 2) == taken;
        if (taken) {
            if (ctr < 3)
                ++ctr;
        } else if (ctr > 0) {
            --ctr;
        }
        ++lookups_;
        if (!correct)
            ++mispredicts_;
        history_ = ((history_ << 1) | (taken ? 1 : 0)) & historyMask_;
        return correct;
    }

    /** Cold state: untrained table, empty history, counters 0. */
    void reset();

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t mispredicts() const { return mispredicts_; }
    double
    mispredictRate() const
    {
        return lookups_ ? static_cast<double>(mispredicts_) /
                              static_cast<double>(lookups_)
                        : 0.0;
    }

  private:
    std::uint64_t lookups_ = 0;
    std::uint64_t mispredicts_ = 0;
    std::vector<std::uint8_t> table_; // 0..3, >=2 predicts taken
    std::uint64_t history_ = 0;
    std::uint64_t historyMask_;
};

} // namespace sc::sim

#endif // SPARSECORE_SIM_BRANCH_PREDICTOR_HH
