#include "kv/resp.hpp"

#include "kv/sds.hpp"

namespace skv::kv::resp {

namespace {
constexpr std::string_view kCrlf = "\r\n";
}

std::string simple(std::string_view s) {
    std::string out;
    out.reserve(s.size() + 3);
    out += '+';
    out += s;
    out += kCrlf;
    return out;
}

std::string error(std::string_view s) {
    std::string out;
    out.reserve(s.size() + 3);
    out += '-';
    out += s;
    out += kCrlf;
    return out;
}

std::string integer(long long v) {
    std::string out = ":";
    out += ll2string(v);
    out += kCrlf;
    return out;
}

std::string bulk(std::string_view s) {
    std::string out = "$";
    out += ll2string(static_cast<long long>(s.size()));
    out += kCrlf;
    out += s;
    out += kCrlf;
    return out;
}

std::string null_bulk() { return "$-1\r\n"; }

std::string array_header(std::size_t n) {
    std::string out = "*";
    out += ll2string(static_cast<long long>(n));
    out += kCrlf;
    return out;
}

std::string command(const std::vector<std::string>& argv) {
    std::string out = array_header(argv.size());
    for (const auto& a : argv) out += bulk(a);
    return out;
}

std::string Value::to_debug_string() const {
    switch (kind) {
        case Kind::kSimple: return "+" + str;
        case Kind::kError: return "-" + str;
        case Kind::kInteger: return ":" + ll2string(num);
        case Kind::kBulk: return "\"" + str + "\"";
        case Kind::kNull: return "(nil)";
        case Kind::kArray: {
            std::string out = "[";
            for (std::size_t i = 0; i < elems.size(); ++i) {
                if (i) out += ", ";
                out += elems[i].to_debug_string();
            }
            return out + "]";
        }
    }
    return "?";
}

// --- RequestParser -------------------------------------------------------

std::optional<std::string_view> RequestParser::take_line(
    std::size_t from, std::size_t* end_pos) const {
    const std::size_t nl = buf_.find('\n', from);
    if (nl == std::string::npos) return std::nullopt;
    std::size_t end = nl;
    if (end > from && buf_[end - 1] == '\r') --end;
    *end_pos = nl + 1;
    return std::string_view(buf_).substr(from, end - from);
}

void RequestParser::compact() {
    if (pos_ == 0) return;
    // Avoid quadratic behaviour: only shift once most of the buffer is
    // consumed.
    if (pos_ >= buf_.size() || pos_ > 4096) {
        buf_.erase(0, pos_);
        pos_ = 0;
    }
}

void RequestParser::reset() {
    buf_.clear();
    pos_ = 0;
}

Status RequestParser::next(std::vector<std::string>* argv, std::string* errmsg) {
    // Skip blank lines between commands (Redis tolerates them inline).
    while (pos_ + 1 < buf_.size() && buf_[pos_] == '\r' && buf_[pos_ + 1] == '\n') {
        pos_ += 2;
    }
    if (pos_ >= buf_.size()) {
        compact();
        return Status::kNeedMore;
    }
    const Status st = buf_[pos_] == '*' ? parse_multibulk(argv, errmsg)
                                        : parse_inline(argv, errmsg);
    compact();
    return st;
}

Status RequestParser::parse_inline(std::vector<std::string>* argv,
                                   std::string* errmsg) {
    std::size_t after = 0;
    const auto line = take_line(pos_, &after);
    if (!line.has_value()) return Status::kNeedMore;
    auto split = Sds::split_args(*line);
    pos_ = after;
    if (!split.has_value()) {
        if (errmsg) *errmsg = "Protocol error: unbalanced quotes in request";
        return Status::kError;
    }
    if (split->empty()) return next(argv, errmsg); // empty line: keep going
    argv->clear();
    argv->reserve(split->size());
    for (auto& s : *split) argv->push_back(s.str());
    return Status::kOk;
}

Status RequestParser::parse_multibulk(std::vector<std::string>* argv,
                                      std::string* errmsg) {
    std::size_t p = pos_;
    std::size_t after = 0;
    const auto header = take_line(p, &after);
    if (!header.has_value()) return Status::kNeedMore;
    const auto count = string2ll(header->substr(1));
    if (!count.has_value() || *count > kMaxMultiBulk) {
        if (errmsg) *errmsg = "Protocol error: invalid multibulk length";
        return Status::kError;
    }
    p = after;
    if (*count <= 0) { // "*0\r\n" or "*-1\r\n": no command
        pos_ = p;
        return next(argv, errmsg);
    }
    std::vector<std::string> out;
    out.reserve(static_cast<std::size_t>(*count));
    for (long long i = 0; i < *count; ++i) {
        const auto lenline = take_line(p, &after);
        if (!lenline.has_value()) return Status::kNeedMore;
        if (lenline->empty() || (*lenline)[0] != '$') {
            if (errmsg) {
                *errmsg = "Protocol error: expected '$', got '";
                *errmsg += lenline->empty() ? ' ' : (*lenline)[0];
                *errmsg += '\'';
            }
            return Status::kError;
        }
        const auto len = string2ll(lenline->substr(1));
        if (!len.has_value() || *len < 0 || *len > kMaxBulk) {
            if (errmsg) *errmsg = "Protocol error: invalid bulk length";
            return Status::kError;
        }
        p = after;
        if (buf_.size() - p < static_cast<std::size_t>(*len) + 2) {
            return Status::kNeedMore;
        }
        out.emplace_back(buf_, p, static_cast<std::size_t>(*len));
        p += static_cast<std::size_t>(*len);
        if (buf_[p] != '\r' || buf_[p + 1] != '\n') {
            if (errmsg) *errmsg = "Protocol error: bulk not CRLF-terminated";
            return Status::kError;
        }
        p += 2;
    }
    pos_ = p;
    *argv = std::move(out);
    return Status::kOk;
}

// --- ReplyParser ------------------------------------------------------------

std::optional<std::string_view> ReplyParser::take_line(std::size_t from,
                                                       std::size_t* end_pos) const {
    const std::size_t nl = buf_.find('\n', from);
    if (nl == std::string::npos) return std::nullopt;
    std::size_t end = nl;
    if (end > from && buf_[end - 1] == '\r') --end;
    *end_pos = nl + 1;
    return std::string_view(buf_).substr(from, end - from);
}

void ReplyParser::compact() {
    if (pos_ >= buf_.size() || pos_ > 4096) {
        buf_.erase(0, pos_);
        pos_ = 0;
    }
}

void ReplyParser::reset() {
    buf_.clear();
    pos_ = 0;
}

Status ReplyParser::next(Value* out, std::string* errmsg) {
    std::size_t p = pos_;
    const Status st = parse_value(&p, out, errmsg, 0);
    if (st == Status::kOk) pos_ = p;
    compact();
    return st;
}

Status ReplyParser::parse_value(std::size_t* p, Value* out, std::string* errmsg,
                                int depth) {
    if (depth > 16) {
        if (errmsg) *errmsg = "Protocol error: nesting too deep";
        return Status::kError;
    }
    if (*p >= buf_.size()) return Status::kNeedMore;
    std::size_t after = 0;
    const auto line = take_line(*p, &after);
    if (!line.has_value()) return Status::kNeedMore;
    if (line->empty()) {
        if (errmsg) *errmsg = "Protocol error: empty reply line";
        return Status::kError;
    }
    const char tag = (*line)[0];
    const std::string_view body = line->substr(1);
    switch (tag) {
        case '+':
            out->kind = Value::Kind::kSimple;
            out->str = std::string(body);
            *p = after;
            return Status::kOk;
        case '-':
            out->kind = Value::Kind::kError;
            out->str = std::string(body);
            *p = after;
            return Status::kOk;
        case ':': {
            const auto v = string2ll(body);
            if (!v.has_value()) {
                if (errmsg) *errmsg = "Protocol error: bad integer";
                return Status::kError;
            }
            out->kind = Value::Kind::kInteger;
            out->num = *v;
            *p = after;
            return Status::kOk;
        }
        case '$': {
            const auto len = string2ll(body);
            if (!len.has_value() || *len < -1) {
                if (errmsg) *errmsg = "Protocol error: bad bulk length";
                return Status::kError;
            }
            if (*len == -1) {
                out->kind = Value::Kind::kNull;
                *p = after;
                return Status::kOk;
            }
            if (buf_.size() - after < static_cast<std::size_t>(*len) + 2) {
                return Status::kNeedMore;
            }
            out->kind = Value::Kind::kBulk;
            out->str.assign(buf_, after, static_cast<std::size_t>(*len));
            *p = after + static_cast<std::size_t>(*len) + 2;
            return Status::kOk;
        }
        case '*': {
            const auto n = string2ll(body);
            if (!n.has_value() || *n < -1) {
                if (errmsg) *errmsg = "Protocol error: bad array length";
                return Status::kError;
            }
            if (*n == -1) {
                out->kind = Value::Kind::kNull;
                *p = after;
                return Status::kOk;
            }
            out->kind = Value::Kind::kArray;
            out->elems.clear();
            out->elems.reserve(static_cast<std::size_t>(*n));
            std::size_t q = after;
            for (long long i = 0; i < *n; ++i) {
                Value v;
                const Status st = parse_value(&q, &v, errmsg, depth + 1);
                if (st != Status::kOk) return st;
                out->elems.push_back(std::move(v));
            }
            *p = q;
            return Status::kOk;
        }
        default:
            if (errmsg) *errmsg = "Protocol error: unknown reply type";
            return Status::kError;
    }
}

} // namespace skv::kv::resp
