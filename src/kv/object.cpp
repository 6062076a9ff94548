#include "kv/object.hpp"

#include "sim/check.hpp"

namespace skv::kv {

const char* to_string(ObjType t) {
    switch (t) {
        case ObjType::kString: return "string";
        case ObjType::kList: return "list";
    }
    return "?";
}

const char* to_string(ObjEncoding e) {
    switch (e) {
        case ObjEncoding::kInt: return "int";
        case ObjEncoding::kRaw: return "raw";
        case ObjEncoding::kQuickList: return "quicklist";
    }
    return "?";
}

ObjectPtr Object::make_string(std::string_view v) {
    if (auto ll = string2ll(v)) {
        return make_string_ll(*ll);
    }
    auto o = std::make_shared<Object>(Key{}, ObjType::kString, ObjEncoding::kRaw);
    o->str_.assign(v);
    return o;
}

ObjectPtr Object::make_string_ll(long long v) {
    auto o = std::make_shared<Object>(Key{}, ObjType::kString, ObjEncoding::kInt);
    o->ival_ = v;
    return o;
}

ObjectPtr Object::make_list() {
    auto o = std::make_shared<Object>(Key{}, ObjType::kList, ObjEncoding::kQuickList);
    o->list_ = std::make_unique<std::deque<Sds>>();
    return o;
}

// --- string -------------------------------------------------------------

std::string Object::string_value() const {
    SKV_DCHECK(type_ == ObjType::kString);
    return encoding_ == ObjEncoding::kInt ? ll2string(ival_) : str_.str();
}

std::size_t Object::string_len() const {
    SKV_DCHECK(type_ == ObjType::kString);
    return encoding_ == ObjEncoding::kInt ? ll2string(ival_).size() : str_.size();
}

std::optional<long long> Object::int_value() const {
    if (type_ != ObjType::kString) return std::nullopt;
    if (encoding_ == ObjEncoding::kInt) return ival_;
    return string2ll(str_.view());
}

std::size_t Object::string_append(std::string_view tail) {
    SKV_DCHECK(type_ == ObjType::kString);
    if (encoding_ == ObjEncoding::kInt) {
        str_.assign(ll2string(ival_));
        encoding_ = ObjEncoding::kRaw;
    }
    str_.append(tail);
    return str_.size();
}

void Object::string_set(std::string_view v) {
    SKV_DCHECK(type_ == ObjType::kString);
    if (auto ll = string2ll(v)) {
        string_set_ll(*ll);
        return;
    }
    encoding_ = ObjEncoding::kRaw;
    str_.assign(v);
}

void Object::string_set_ll(long long v) {
    SKV_DCHECK(type_ == ObjType::kString);
    encoding_ = ObjEncoding::kInt;
    ival_ = v;
    str_.clear();
}

// --- list -------------------------------------------------------------------

std::deque<Sds>& Object::list() {
    SKV_DCHECK(type_ == ObjType::kList);
    return *list_;
}

const std::deque<Sds>& Object::list() const {
    SKV_DCHECK(type_ == ObjType::kList);
    return *list_;
}

// --- misc ----------------------------------------------------------------------

std::size_t Object::memory_bytes() const {
    std::size_t n = sizeof(Object);
    switch (type_) {
        case ObjType::kString:
            n += str_.capacity();
            break;
        case ObjType::kList:
            n += sizeof(std::deque<Sds>);
            for (const auto& e : *list_) n += sizeof(Sds) + e.capacity();
            break;
    }
    return n;
}

bool Object::equals(const Object& o) const {
    if (type_ != o.type_) return false;
    switch (type_) {
        case ObjType::kString:
            return string_value() == o.string_value();
        case ObjType::kList:
            return *list_ == *o.list_;
    }
    return false;
}

} // namespace skv::kv
