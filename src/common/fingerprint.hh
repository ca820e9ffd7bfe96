/**
 * @file
 * Content fingerprints, the hashes api::traceKey builds store keys
 * from. Datasets hash every array that defines their content, never
 * their name, once at construction.
 */

#ifndef SPARSECORE_COMMON_FINGERPRINT_HH
#define SPARSECORE_COMMON_FINGERPRINT_HH

#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace sc {

/**
 * Word-at-a-time content hash: each 64-bit word passes through
 * splitmix64's finalizer, then one FNV-1a xor-multiply step. The
 * finalizer spreads every input bit over the whole word first; plain
 * word-wise FNV-1a lets two words that differ only in their top bit
 * (two doubles with flipped signs) cancel and collide, and bytewise
 * FNV-1a costs about six times as much.
 */
class Fingerprint
{
  public:
    Fingerprint &
    add(std::uint64_t word)
    {
        word = (word ^ (word >> 30)) * 0xbf58476d1ce4e5b9ull;
        word = (word ^ (word >> 27)) * 0x94d049bb133111ebull;
        word ^= word >> 31;
        hash_ = (hash_ ^ word) * 0x100000001b3ull;
        return *this;
    }

    /** An array: its length, then one word per element (integers
     *  widened, doubles by their bits). */
    template <typename T>
    Fingerprint &
    add(const std::vector<T> &array)
    {
        static_assert(sizeof(T) <= sizeof(std::uint64_t));
        add(array.size());
        for (const T &x : array) {
            if constexpr (std::is_floating_point_v<T>)
                add(std::bit_cast<std::uint64_t>(x));
            else
                add(static_cast<std::uint64_t>(x));
        }
        return *this;
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

} // namespace sc

#endif // SPARSECORE_COMMON_FINGERPRINT_HH
