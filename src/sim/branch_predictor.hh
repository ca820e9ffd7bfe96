/**
 * @file
 * Branch predictors used by the CPU baseline model.
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

/** Abstract predictor: predict, then update with the outcome. */
class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;

    /** Predict+update for one dynamic branch at address pc.
     *  @return true when the prediction matched the outcome. */
    virtual bool predict(std::uint64_t pc, bool taken) = 0;

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t mispredicts() const { return mispredicts_; }
    double
    mispredictRate() const
    {
        return lookups_ ? static_cast<double>(mispredicts_) /
                              static_cast<double>(lookups_)
                        : 0.0;
    }

  protected:
    /** Apply one branch to a 2-bit saturating counter and record it;
     *  returns whether the pre-update prediction was correct. */
    bool
    resolve(std::uint8_t &ctr, bool taken)
    {
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
        return correct;
    }

    void resetStats() { lookups_ = mispredicts_ = 0; }

  private:
    std::uint64_t lookups_ = 0;
    std::uint64_t mispredicts_ = 0;
};

/** Classic table of 2-bit saturating counters indexed by pc. */
class TwoBitPredictor final : public BranchPredictor
{
  public:
    explicit TwoBitPredictor(std::size_t table_size = 4096);

    bool
    predict(std::uint64_t pc, bool taken) override
    {
        return resolve(table_[pc & (table_.size() - 1)], taken);
    }

  private:
    std::vector<std::uint8_t> table_; // 0..3, >=2 predicts taken
};

/** Gshare: global history XOR pc indexing a 2-bit counter table.
 *  Final, so calls through CoreModel's member inline. */
class GsharePredictor final : public BranchPredictor
{
  public:
    explicit GsharePredictor(std::size_t table_size = 16384,
                             unsigned history_bits = 12);

    bool
    predict(std::uint64_t pc, bool taken) override
    {
        const bool correct = resolve(
            table_[(pc ^ history_) & (table_.size() - 1)], taken);
        history_ = ((history_ << 1) | (taken ? 1 : 0)) & historyMask_;
        return correct;
    }

    /** Cold state: untrained table, empty history, counters 0. */
    void reset();

  private:
    std::vector<std::uint8_t> table_;
    std::uint64_t history_ = 0;
    std::uint64_t historyMask_;
};

} // namespace sc::sim

#endif // SPARSECORE_SIM_BRANCH_PREDICTOR_HH
