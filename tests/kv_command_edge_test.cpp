#include <gtest/gtest.h>

#include "kv/command.hpp"

namespace skv::kv {
namespace {

/// Second-wave conformance: boundary and error-path behaviour that the
/// main suite does not touch.
class CommandEdgeTest : public ::testing::Test {
protected:
    CommandEdgeTest() : rng_(7), db_([this] { return now_ms_; }) {}

    ExecResult run(std::vector<std::string> argv) {
        last_reply_.clear();
        return CommandTable::instance().execute(db_, rng_, argv, last_reply_);
    }

    void expect_reply(std::vector<std::string> argv, std::string_view want) {
        run(std::move(argv));
        EXPECT_EQ(last_reply_, want);
    }

    [[nodiscard]] bool errored() const {
        return !last_reply_.empty() && last_reply_.front() == '-';
    }

    std::int64_t now_ms_ = 1000;
    sim::Rng rng_;
    Database db_;
    std::string last_reply_;
};

// --- strings -------------------------------------------------------------

TEST_F(CommandEdgeTest, EmptyValueRoundTrips) {
    expect_reply({"SET", "k", ""}, "+OK\r\n");
    expect_reply({"GET", "k"}, "$0\r\n\r\n");
    expect_reply({"STRLEN", "k"}, ":0\r\n");
}

TEST_F(CommandEdgeTest, BinaryKeyAndValue) {
    const std::string key("k\0ey", 4);
    const std::string val("v\r\nal", 5);
    run({"SET", key, val});
    run({"GET", key});
    EXPECT_EQ(last_reply_, "$5\r\nv\r\nal\r\n");
}

TEST_F(CommandEdgeTest, IncrbyMinLongLongRejected) {
    run({"DECRBY", "k", "-9223372036854775808"});
    EXPECT_TRUE(errored()); // negation would overflow
}

TEST_F(CommandEdgeTest, DecrUnderflow) {
    run({"SET", "k", "-9223372036854775808"});
    run({"DECR", "k"});
    EXPECT_TRUE(errored());
}

TEST_F(CommandEdgeTest, IncrbyFloatOnNonFloat) {
    run({"SET", "k", "notanumber"});
    run({"INCRBYFLOAT", "k", "1"});
    EXPECT_TRUE(errored());
}

TEST_F(CommandEdgeTest, SetrangeNegativeOffset) {
    run({"SETRANGE", "k", "-1", "x"});
    EXPECT_TRUE(errored());
}

TEST_F(CommandEdgeTest, SetrangeEmptyPatchOnMissingKey) {
    expect_reply({"SETRANGE", "none", "5", ""}, ":0\r\n");
    EXPECT_FALSE(db_.exists("none"));
}

TEST_F(CommandEdgeTest, GetrangeOnIntEncoded) {
    run({"SET", "k", "12345"});
    expect_reply({"GETRANGE", "k", "1", "3"}, "$3\r\n234\r\n");
}

TEST_F(CommandEdgeTest, AppendKeepsTtl) {
    run({"SET", "k", "a", "PX", "900"});
    run({"APPEND", "k", "b"});
    EXPECT_TRUE(db_.expire_at("k").has_value());
}

// --- keys ------------------------------------------------------------------

TEST_F(CommandEdgeTest, RenameSelfExisting) {
    run({"SET", "k", "v"});
    expect_reply({"RENAME", "k", "k"}, "+OK\r\n");
    EXPECT_TRUE(db_.exists("k"));
}

TEST_F(CommandEdgeTest, RenamenxSelf) {
    run({"SET", "k", "v"});
    expect_reply({"RENAMENX", "k", "k"}, ":0\r\n");
}

TEST_F(CommandEdgeTest, RenameOverwritesTarget) {
    run({"SET", "a", "1"});
    run({"SET", "b", "2"});
    run({"RENAME", "a", "b"});
    run({"GET", "b"});
    EXPECT_EQ(last_reply_, "$1\r\n1\r\n");
    EXPECT_FALSE(db_.exists("a"));
}

TEST_F(CommandEdgeTest, ExpireNonIntSeconds) {
    run({"SET", "k", "v"});
    run({"EXPIRE", "k", "soon"});
    EXPECT_TRUE(errored());
}

TEST_F(CommandEdgeTest, PersistOnMissingAndNoTtl) {
    expect_reply({"PERSIST", "missing"}, ":0\r\n");
    run({"SET", "k", "v"});
    expect_reply({"PERSIST", "k"}, ":0\r\n");
}

TEST_F(CommandEdgeTest, KeysEscapedGlob) {
    run({"SET", "literal*", "v"});
    run({"SET", "literalX", "w"});
    expect_reply({"KEYS", "literal\\*"}, "*1\r\n$8\r\nliteral*\r\n");
}

TEST_F(CommandEdgeTest, KeysNegatedClass) {
    run({"SET", "a1", "v"});
    run({"SET", "a2", "v"});
    expect_reply({"KEYS", "a[^1]"}, "*1\r\n$2\r\na2\r\n");
}

TEST_F(CommandEdgeTest, ObjectUnknownSubcommand) {
    run({"OBJECT", "FREQ", "k"});
    EXPECT_TRUE(errored());
}

TEST_F(CommandEdgeTest, ObjectEncodingMissingKey) {
    expect_reply({"OBJECT", "ENCODING", "missing"}, "$-1\r\n");
}

// --- lists ------------------------------------------------------------------

TEST_F(CommandEdgeTest, LrangeSingleElementBounds) {
    run({"RPUSH", "l", "only"});
    expect_reply({"LRANGE", "l", "-1", "-1"}, "*1\r\n$4\r\nonly\r\n");
    expect_reply({"LRANGE", "l", "-100", "100"}, "*1\r\n$4\r\nonly\r\n");
}

TEST_F(CommandEdgeTest, LrangeInvertedRange) {
    run({"RPUSH", "l", "a", "b"});
    expect_reply({"LRANGE", "l", "1", "0"}, "*0\r\n");
}

TEST_F(CommandEdgeTest, LtrimNoop) {
    run({"RPUSH", "l", "a", "b", "c"});
    run({"LTRIM", "l", "0", "-1"});
    run({"LLEN", "l"});
    EXPECT_EQ(last_reply_, ":3\r\n");
}

TEST_F(CommandEdgeTest, LremZeroMatches) {
    run({"RPUSH", "l", "a"});
    expect_reply({"LREM", "l", "0", "zzz"}, ":0\r\n");
}

TEST_F(CommandEdgeTest, Linsert) {
    run({"RPUSH", "l", "a", "c"});
    expect_reply({"LINSERT", "l", "BEFORE", "c", "b"}, ":3\r\n");
    expect_reply({"LRANGE", "l", "0", "-1"},
                 "*3\r\n$1\r\na\r\n$1\r\nb\r\n$1\r\nc\r\n");
    expect_reply({"LINSERT", "l", "AFTER", "c", "d"}, ":4\r\n");
    expect_reply({"LINSERT", "l", "BEFORE", "zzz", "x"}, ":-1\r\n");
    expect_reply({"LINSERT", "missing", "BEFORE", "a", "x"}, ":0\r\n");
    run({"LINSERT", "l", "SIDEWAYS", "a", "x"});
    EXPECT_TRUE(errored());
}

TEST_F(CommandEdgeTest, RpoplpushWrongDestType) {
    run({"RPUSH", "src", "x"});
    run({"SET", "dst", "str"});
    run({"RPOPLPUSH", "src", "dst"});
    EXPECT_EQ(last_reply_.rfind("-WRONGTYPE", 0), 0u);
    // Source untouched on type error.
    run({"LLEN", "src"});
    EXPECT_EQ(last_reply_, ":1\r\n");
}

// --- lazy expiration through commands -------------------------------------------

TEST_F(CommandEdgeTest, ExpiredKeyInvisibleToTypeAndExists) {
    run({"SET", "k", "v"});
    run({"PEXPIRE", "k", "10"});
    now_ms_ += 11;
    expect_reply({"EXISTS", "k"}, ":0\r\n");
    expect_reply({"TYPE", "k"}, "+none\r\n");
    expect_reply({"TTL", "k"}, ":-2\r\n");
}

TEST_F(CommandEdgeTest, SetnxOnExpiredKeySucceeds) {
    run({"SET", "k", "old"});
    run({"PEXPIRE", "k", "10"});
    now_ms_ += 11;
    expect_reply({"SETNX", "k", "new"}, ":1\r\n");
    run({"GET", "k"});
    EXPECT_EQ(last_reply_, "$3\r\nnew\r\n");
}

} // namespace
} // namespace skv::kv
