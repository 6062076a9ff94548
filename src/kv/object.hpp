#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "kv/sds.hpp"

namespace skv::kv {

enum class ObjType : std::uint8_t { kString, kList };
enum class ObjEncoding : std::uint8_t {
    kInt,       // string holding a long long
    kRaw,       // sds string
    kQuickList, // list of sds
};

const char* to_string(ObjType t);
const char* to_string(ObjEncoding e);

class Object;
using ObjectPtr = std::shared_ptr<Object>;

/// A Redis object: a type tag, an encoding, and the payload. Strings that
/// parse as integers use the int encoding, as in Redis. The list payload
/// lives behind a pointer that only `make_list` fills, so a string value
/// carries no container storage. Each object shares one allocation with
/// its `shared_ptr` control block.
class Object {
    /// Passkey: only Object's factories can name it, so the public
    /// constructor `std::make_shared` needs is closed to other callers.
    struct Key {
        explicit Key() = default;
    };

public:
    // --- constructors -----------------------------------------------------
    static ObjectPtr make_string(std::string_view v);
    static ObjectPtr make_string_ll(long long v);
    static ObjectPtr make_list();

    Object(Key, ObjType t, ObjEncoding e) : type_(t), encoding_(e) {}

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

    /// Approximate heap footprint, reported by INFO `used_memory`.
    [[nodiscard]] std::size_t memory_bytes() const;

    /// Deep structural equality (used by replication-convergence tests).
    [[nodiscard]] bool equals(const Object& o) const;

private:
    ObjType type_;
    ObjEncoding encoding_;

    // string payloads
    long long ival_ = 0;
    Sds str_;
    // list payload (lists only)
    std::unique_ptr<std::deque<Sds>> list_;
};

} // namespace skv::kv
