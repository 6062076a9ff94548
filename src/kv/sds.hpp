#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace skv::kv {

/// Simple Dynamic String, after Redis's sds: a length-prefixed,
/// binary-safe byte string with amortized O(1) append via capacity
/// preallocation (double up to 1 MB, then +1 MB per growth), plus the
/// small algorithmic helpers Redis layers on top (trim, range, case
/// folding, integer conversion, argument splitting).
///
/// std::string would be functionally equivalent; Sds exists because the
/// paper inherits "the implementation of data structures such as dynamic
/// strings" from Redis, and because the explicit growth policy is what the
/// engine's memory accounting measures.
class Sds {
public:
    static constexpr std::size_t kMaxPrealloc = 1024 * 1024;

    Sds() = default;
    explicit Sds(std::string_view s) { append(s); }
    Sds(const char* s, std::size_t n) { append(std::string_view(s, n)); }

    [[nodiscard]] std::size_t size() const { return len_; }
    [[nodiscard]] bool empty() const { return len_ == 0; }
    [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

    [[nodiscard]] const char* data() const { return buf_.data(); }
    [[nodiscard]] std::string_view view() const { return {buf_.data(), len_}; }
    [[nodiscard]] std::string str() const { return std::string(view()); }

    char operator[](std::size_t i) const { return buf_[i]; }
    char& operator[](std::size_t i) { return buf_[i]; }

    void append(std::string_view s);
    void append(char c) { append(std::string_view(&c, 1)); }
    void assign(std::string_view s) { clear(); append(s); }
    void clear() { len_ = 0; }

    /// Grow to at least `n` usable bytes beyond the current length.
    void make_room(std::size_t n);

    /// Keep only the byte range [start, end] (negative indexes count from
    /// the end, as in Redis GETRANGE/SETRANGE semantics).
    void range(std::ptrdiff_t start, std::ptrdiff_t end);

    /// Remove the characters in `cset` from both ends.
    void trim(std::string_view cset);

    void tolower();

    [[nodiscard]] int compare(const Sds& o) const;
    bool operator==(const Sds& o) const { return view() == o.view(); }
    bool operator==(std::string_view s) const { return view() == s; }
    auto operator<=>(const Sds& o) const { return view() <=> o.view(); }

    /// Case-insensitive equality against an ASCII literal (command lookup).
    [[nodiscard]] bool iequals(std::string_view s) const;

    /// Split a whitespace-separated line honouring "double" and 'single'
    /// quotes, as Redis's sdssplitargs does for inline commands and config
    /// lines. Returns std::nullopt on unbalanced quotes.
    static std::optional<std::vector<Sds>> split_args(std::string_view line);

private:
    std::vector<char> buf_;
    std::size_t len_ = 0;
};

/// Fast signed-integer formatting (Redis's ll2string).
std::string ll2string(long long v);

/// Strict string -> long long conversion (Redis's string2ll): rejects
/// leading zeros (except "0"), whitespace and trailing junk. Returns
/// nullopt on failure.
std::optional<long long> string2ll(std::string_view s);

/// Strict string -> double conversion: accepts what Redis's getDoubleFromObject
/// accepts (finite decimal / scientific, "inf", "-inf"), rejects junk.
std::optional<double> string2d(std::string_view s);

} // namespace skv::kv
