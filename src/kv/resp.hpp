#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace skv::kv::resp {

// --- encoding -----------------------------------------------------------

std::string simple(std::string_view s);  // +s\r\n
std::string error(std::string_view s);   // -s\r\n
std::string integer(long long v);        // :v\r\n
std::string bulk(std::string_view s);    // $n\r\n s \r\n
std::string null_bulk();                 // $-1\r\n
std::string array_header(std::size_t n); // *n\r\n

/// Encode a command as an array of bulk strings (what clients send).
std::string command(const std::vector<std::string>& argv);

// --- parsed reply values ---------------------------------------------------

/// A fully parsed RESP2 value (client side and tests).
struct Value {
    enum class Kind : std::uint8_t { kSimple, kError, kInteger, kBulk, kNull, kArray };
    Kind kind = Kind::kNull;
    std::string str;           // simple / error / bulk payload
    long long num = 0;         // integer payload
    std::vector<Value> elems;  // array payload

    [[nodiscard]] bool is_ok() const {
        return kind == Kind::kSimple && str == "OK";
    }
    [[nodiscard]] bool is_error() const { return kind == Kind::kError; }
    [[nodiscard]] std::string to_debug_string() const;
};

enum class Status : std::uint8_t { kOk, kNeedMore, kError };

/// Server-side incremental command parser: accepts both the multibulk
/// protocol ("*2\r\n$3\r\nGET\r\n$1\r\nk\r\n") and inline commands
/// ("GET k\r\n"), like readQueryFromClient/processInlineBuffer. Call
/// feed() as bytes arrive, then next() until it returns kNeedMore.
class RequestParser {
public:
    /// Maximum accepted bulk length / element count, as a protocol sanity
    /// bound (Redis uses 512 MB; the simulation uses something smaller).
    static constexpr long long kMaxBulk = 64LL * 1024 * 1024;
    static constexpr long long kMaxMultiBulk = 1024 * 1024;

    void feed(std::string_view data) { buf_.append(data); }

    /// Try to parse the next complete command into `argv`.
    Status next(std::vector<std::string>* argv, std::string* errmsg = nullptr);

    void reset();

private:
    Status parse_inline(std::vector<std::string>* argv, std::string* errmsg);
    Status parse_multibulk(std::vector<std::string>* argv, std::string* errmsg);
    /// Read a CRLF-terminated line starting at `from`; returns the line
    /// (without CRLF) and advances `*end_pos` past it.
    std::optional<std::string_view> take_line(std::size_t from, std::size_t* end_pos) const;
    void compact();

    std::string buf_;
    std::size_t pos_ = 0;
};

/// Client-side incremental reply parser: parses complete RESP values
/// (arrays recursively).
class ReplyParser {
public:
    void feed(std::string_view data) { buf_.append(data); }
    Status next(Value* out, std::string* errmsg = nullptr);
    void reset();

private:
    /// Parse one value at `*p`; advances `*p` on success.
    Status parse_value(std::size_t* p, Value* out, std::string* errmsg, int depth);
    std::optional<std::string_view> take_line(std::size_t from, std::size_t* end_pos) const;
    void compact();

    std::string buf_;
    std::size_t pos_ = 0;
};

} // namespace skv::kv::resp
