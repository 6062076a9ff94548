#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "kv/dict.hpp"
#include "kv/sds.hpp"

namespace skv::kv {

enum class ObjType : std::uint8_t { kString, kList, kHash };
enum class ObjEncoding : std::uint8_t {
    kInt,       // string holding a long long
    kRaw,       // sds string
    kQuickList, // list of sds
    kHashTable, // dict-backed hash
};

const char* to_string(ObjType t);
const char* to_string(ObjEncoding e);

class Object;
using ObjectPtr = std::shared_ptr<Object>;

/// A Redis object: a type tag, an encoding, and the payload. Strings that
/// parse as integers use the int encoding, as in Redis. The list and hash
/// payloads live behind pointers that only `make_list` and `make_hash`
/// fill, so a string value carries no container storage.
class Object {
public:
    // --- constructors -----------------------------------------------------
    static ObjectPtr make_string(std::string_view v);
    static ObjectPtr make_string_ll(long long v);
    static ObjectPtr make_list();
    static ObjectPtr make_hash();

    [[nodiscard]] ObjType type() const { return type_; }
    [[nodiscard]] ObjEncoding encoding() const { return encoding_; }

    // --- string -----------------------------------------------------------
    /// Rendered value (decodes the int encoding).
    [[nodiscard]] std::string string_value() const;
    [[nodiscard]] std::size_t string_len() const;
    /// The integer behind an int-encoded string; nullopt otherwise.
    [[nodiscard]] std::optional<long long> int_value() const;
    /// Append to the string value (forces raw encoding); returns new length.
    std::size_t string_append(std::string_view tail);
    /// Overwrite with a possibly-int-encodable value.
    void string_set(std::string_view v);
    void string_set_ll(long long v);

    // --- list ---------------------------------------------------------------
    [[nodiscard]] std::deque<Sds>& list();
    [[nodiscard]] const std::deque<Sds>& list() const;

    // --- hash ---------------------------------------------------------------
    [[nodiscard]] Dict<Sds>& hash();
    [[nodiscard]] const Dict<Sds>& hash() const;

    /// Approximate heap footprint, reported by INFO `used_memory`.
    [[nodiscard]] std::size_t memory_bytes() const;

    /// Deep structural equality (used by replication-convergence tests).
    [[nodiscard]] bool equals(const Object& o) const;

private:
    Object(ObjType t, ObjEncoding e) : type_(t), encoding_(e) {}

    ObjType type_;
    ObjEncoding encoding_;

    // string payloads
    long long ival_ = 0;
    Sds str_;
    // list payload (lists only)
    std::unique_ptr<std::deque<Sds>> list_;
    // hash payload (hashes only)
    std::unique_ptr<Dict<Sds>> hash_;
};

} // namespace skv::kv
