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

    /**
     * The predictor's state as a value, so a hot loop can keep its
     * scalars in registers: regs() copies them out, Regs::predict
     * updates the shared counter table in place, and store() writes
     * the scalars back. predict() is the same step on the members.
     */
    struct Regs
    {
        std::uint8_t *table;
        std::uint64_t indexMask;
        std::uint64_t historyMask;
        std::uint64_t history;
        std::uint64_t lookups;
        std::uint64_t mispredicts;

        /**
         * Predict+update one branch at pc when `executed`; leave
         * every counter, the table and the history as they are
         * otherwise. No host branch either way: the counter's next
         * value comes from a table and the rest from the two bits.
         * @return true when the prediction matched the outcome (and
         *         when the branch was not executed).
         */
        bool
        predict(std::uint64_t pc, bool taken, bool executed = true)
        {
            // [executed][taken][counter]: a 2-bit saturating step, or
            // the counter itself when the branch is not executed.
            static constexpr std::uint8_t next[16] = {
                0, 1, 2, 3, 0, 1, 2, 3, // not executed
                0, 0, 1, 2, 1, 2, 3, 3, // not taken, taken
            };
            std::uint8_t &ctr = table[(pc ^ history) & indexMask];
            const bool correct = (ctr >> 1) == taken;
            ctr = next[(unsigned{executed} << 3) |
                       (unsigned{taken} << 2) | ctr];
            lookups += executed;
            mispredicts += executed & !correct;
            history = ((history << unsigned{executed}) |
                       (taken & executed)) &
                      historyMask;
            return correct | !executed;
        }
    };

    Regs
    regs()
    {
        return {table_.data(), indexMask_, historyMask_, history_,
                lookups_,      mispredicts_};
    }
    void
    store(const Regs &r)
    {
        history_ = r.history;
        lookups_ = r.lookups;
        mispredicts_ = r.mispredicts;
    }

    /** Predict+update for one dynamic branch at address pc.
     *  @return true when the prediction matched the outcome. */
    bool
    predict(std::uint64_t pc, bool taken)
    {
        Regs r = regs();
        const bool correct = r.predict(pc, taken);
        store(r);
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
    std::uint64_t indexMask_;
    std::uint64_t history_ = 0;
    std::uint64_t historyMask_;
};

} // namespace sc::sim

#endif // SPARSECORE_SIM_BRANCH_PREDICTOR_HH
