/**
 * @file
 * Little-endian wire helpers for the compiled-bytecode ("SCBC")
 * image: byte-stable scalar encoding across hosts, plus a
 * bounds-checked reader with a bulk path for contiguous arrays.
 */

#ifndef SPARSECORE_TRACE_WIRE_HH
#define SPARSECORE_TRACE_WIRE_HH

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/logging.hh"

namespace sc::trace::wire {

/** Read a whole file in one presized fread (no per-chunk reallocs),
 *  with a chunked fallback for streams fseek cannot size. */
inline std::string
readWholeFile(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        panic("cannot read file '%s'", path.c_str());
    std::string bytes;
    if (std::fseek(f, 0, SEEK_END) == 0) {
        const long size = std::ftell(f);
        if (size > 0)
            bytes.resize(static_cast<std::size_t>(size));
        std::rewind(f);
    }
    std::size_t have = 0;
    if (!bytes.empty())
        have = std::fread(bytes.data(), 1, bytes.size(), f);
    bytes.resize(have);
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.append(buf, n);
    std::fclose(f);
    return bytes;
}

/** Append `value` little-endian (byte-stable across hosts). */
template <typename T>
void
put(std::string &out, T value)
{
    static_assert(std::is_unsigned_v<T>);
    for (unsigned i = 0; i < sizeof(T); ++i)
        out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
}

/** Append `n` elements of `data` little-endian (bulk memcpy on
 *  little-endian hosts). */
template <typename T>
void
putArray(std::string &out, const T *data, std::size_t n)
{
    static_assert(std::is_unsigned_v<T>);
    if constexpr (std::endian::native == std::endian::little) {
        out.append(reinterpret_cast<const char *>(data),
                   n * sizeof(T));
    } else {
        for (std::size_t i = 0; i < n; ++i)
            put(out, data[i]);
    }
}

/** Bounds-checked little-endian reader over a serialized image. */
class Reader
{
  public:
    explicit Reader(std::string_view bytes) : bytes_(bytes) {}

    template <typename T>
    T
    get()
    {
        static_assert(std::is_unsigned_v<T>);
        if (pos_ + sizeof(T) > bytes_.size())
            panic("truncated image at byte %zu", pos_);
        T value = 0;
        for (unsigned i = 0; i < sizeof(T); ++i)
            value |= static_cast<T>(
                         static_cast<unsigned char>(bytes_[pos_ + i]))
                     << (8 * i);
        pos_ += sizeof(T);
        return value;
    }

    /**
     * Read a u64 element count and panic unless that many elements
     * of `elem_bytes` each fit in the bytes left, so a header can
     * never make the caller allocate more than the image holds.
     */
    std::size_t
    getCount(std::size_t elem_bytes)
    {
        const auto n = get<std::uint64_t>();
        if (n > (bytes_.size() - pos_) / elem_bytes)
            panic("image claims %llu elements of %zu bytes at byte "
                  "%zu, but only %zu bytes follow",
                  static_cast<unsigned long long>(n), elem_bytes,
                  pos_, bytes_.size() - pos_);
        return static_cast<std::size_t>(n);
    }

    /** Read `n` elements into `out` (bulk memcpy on little-endian
     *  hosts — the satellite fast path for big arenas). */
    template <typename T>
    void
    getArray(T *out, std::size_t n)
    {
        static_assert(std::is_unsigned_v<T>);
        if (n > (bytes_.size() - pos_) / sizeof(T))
            panic("truncated image at byte %zu (need %zu x %zu)",
                  pos_, n, sizeof(T));
        if (n == 0)
            return; // `out` may be null (an empty vector's data())
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(out, bytes_.data() + pos_, n * sizeof(T));
            pos_ += n * sizeof(T);
        } else {
            for (std::size_t i = 0; i < n; ++i)
                out[i] = get<T>();
        }
    }

    bool done() const { return pos_ == bytes_.size(); }
    std::size_t pos() const { return pos_; }

  private:
    std::string_view bytes_;
    std::size_t pos_ = 0;
};

} // namespace sc::trace::wire

#endif // SPARSECORE_TRACE_WIRE_HH
