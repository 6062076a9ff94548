#include "check/history.hpp"

#include "obs/export.hpp"

namespace skv::check {

const char* to_string(OpType t) {
    switch (t) {
        case OpType::kRead: return "r";
        case OpType::kWrite: return "w";
    }
    return "?";
}

const char* to_string(Outcome o) {
    switch (o) {
        case Outcome::kOk: return "ok";
        case Outcome::kFail: return "fail";
        case Outcome::kTimeout: return "timeout";
    }
    return "?";
}

namespace {

void append_op(std::string& out, const Op& op) {
    out += "{\"client\":" + std::to_string(op.client);
    out += ",\"seq\":" + std::to_string(op.seq);
    out += ",\"type\":\"" + std::string(to_string(op.type)) + "\"";
    out += ",\"key\":\"" + obs::json_escape(op.key) + '"';
    out += ",\"value\":\"" + obs::json_escape(op.value) + '"';
    out += ",\"found\":";
    out += op.found ? "true" : "false";
    out += ",\"outcome\":\"" + std::string(to_string(op.outcome)) + "\"";
    out += ",\"invoke_ns\":" + std::to_string(op.invoke_ns);
    out += ",\"complete_ns\":" + std::to_string(op.complete_ns);
    out += '}';
}

} // namespace

std::string History::to_json() const {
    std::string out = "{\"schema\":\"skv-history-v1\",\"ops\":[\n";
    for (std::size_t i = 0; i < ops_.size(); ++i) {
        append_op(out, ops_[i]);
        if (i + 1 < ops_.size()) out += ',';
        out += '\n';
    }
    out += "]}\n";
    return out;
}

std::string History::to_json_for_key(const std::string& key) const {
    std::string out = "{\"schema\":\"skv-history-v1\",\"key\":\"" +
                      obs::json_escape(key) + "\",\"ops\":[\n";
    bool first = true;
    for (const Op& op : ops_) {
        if (op.key != key) continue;
        // Mirror the checker's filtering: failed ops have no effect and
        // unanswered reads constrain nothing.
        if (op.outcome == Outcome::kFail) continue;
        if (op.outcome == Outcome::kTimeout && op.type == OpType::kRead) {
            continue;
        }
        if (!first) out += ",\n";
        first = false;
        append_op(out, op);
    }
    out += "\n]}\n";
    return out;
}

} // namespace skv::check
