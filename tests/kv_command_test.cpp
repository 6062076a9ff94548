#include <gtest/gtest.h>

#include "kv/command.hpp"

namespace skv::kv {
namespace {

/// Conformance fixture: executes commands against a fresh database with a
/// controllable clock and exposes the raw RESP replies.
class CommandTest : public ::testing::Test {
protected:
    CommandTest() : rng_(99), db_([this] { return now_ms_; }) {}

    ExecResult run(std::vector<std::string> argv, std::string* reply = nullptr) {
        std::string out;
        auto res = CommandTable::instance().execute(db_, rng_, argv, out);
        if (reply) *reply = out;
        last_reply_ = out;
        return res;
    }

    void expect_reply(std::vector<std::string> argv, std::string_view want) {
        run(std::move(argv));
        EXPECT_EQ(last_reply_, want);
    }

    /// Execute and decode the RESP reply.
    resp::Value run_value(std::vector<std::string> argv) {
        run(std::move(argv));
        resp::ReplyParser p;
        p.feed(last_reply_);
        resp::Value v;
        EXPECT_EQ(p.next(&v), resp::Status::kOk);
        return v;
    }

    std::int64_t now_ms_ = 1000;
    sim::Rng rng_;
    Database db_;
    std::string last_reply_;
};

// --- dispatch ----------------------------------------------------------------

TEST_F(CommandTest, UnknownCommand) {
    const auto res = run({"FROB", "x"});
    EXPECT_EQ(res.status, ExecResult::Status::kUnknownCommand);
    EXPECT_EQ(last_reply_.front(), '-');
}

TEST_F(CommandTest, ArityErrors) {
    EXPECT_EQ(run({"GET"}).status, ExecResult::Status::kArityError);
    EXPECT_EQ(run({"GET", "a", "b"}).status, ExecResult::Status::kArityError);
    EXPECT_EQ(run({"SET", "k"}).status, ExecResult::Status::kArityError);
}

TEST_F(CommandTest, CaseInsensitiveLookup) {
    expect_reply({"set", "k", "v"}, "+OK\r\n");
    expect_reply({"GeT", "k"}, "$1\r\nv\r\n");
}

TEST_F(CommandTest, TableHasAllFamilies) {
    const auto& t = CommandTable::instance();
    EXPECT_EQ(t.size(), 58u);
    for (const char* name : {"GET", "SET", "DEL", "LPUSH", "PING"}) {
        EXPECT_NE(t.lookup(name), nullptr) << name;
    }
}

// The bit, SCAN, set, hash and sorted-set families are not served.
TEST_F(CommandTest, RemovedFamiliesAnswerUnknownCommand) {
    for (const char* name :
         {"SETBIT", "GETBIT", "BITCOUNT", "BITPOS", "BITOP",
          "SCAN", "HSCAN", "SSCAN", "ZSCAN",
          "HSET", "HSETNX", "HGET", "HMGET", "HDEL", "HLEN", "HEXISTS",
          "HGETALL", "HKEYS", "HVALS", "HINCRBY", "HSTRLEN",
          "SADD", "SREM", "SISMEMBER", "SCARD", "SMEMBERS", "SPOP",
          "SRANDMEMBER", "SMOVE", "SUNION", "SINTER", "SDIFF", "SINTERCARD",
          "ZADD", "ZREM", "ZSCORE", "ZCARD", "ZRANK", "ZREVRANK", "ZINCRBY",
          "ZRANGE", "ZREVRANGE", "ZRANGEBYSCORE", "ZCOUNT",
          "ZREMRANGEBYRANK", "ZREMRANGEBYSCORE"}) {
        const auto res = run({name, "k", "0", "0"});
        EXPECT_EQ(res.status, ExecResult::Status::kUnknownCommand) << name;
        EXPECT_EQ(last_reply_.rfind("-ERR unknown command", 0), 0u) << name;
    }
    EXPECT_EQ(db_.size(), 0u);
}

// --- strings ------------------------------------------------------------------

TEST_F(CommandTest, SetGet) {
    expect_reply({"SET", "k", "v"}, "+OK\r\n");
    expect_reply({"GET", "k"}, "$1\r\nv\r\n");
    expect_reply({"GET", "missing"}, "$-1\r\n");
}

TEST_F(CommandTest, SetNxXx) {
    expect_reply({"SET", "k", "v1", "NX"}, "+OK\r\n");
    expect_reply({"SET", "k", "v2", "NX"}, "$-1\r\n"); // already exists
    expect_reply({"GET", "k"}, "$2\r\nv1\r\n");
    expect_reply({"SET", "k2", "x", "XX"}, "$-1\r\n"); // does not exist
    expect_reply({"SET", "k", "v3", "XX"}, "+OK\r\n");
    expect_reply({"GET", "k"}, "$2\r\nv3\r\n");
}

TEST_F(CommandTest, SetNxXxConflict) {
    run({"SET", "k", "v", "NX", "XX"});
    EXPECT_EQ(last_reply_.front(), '-');
}

TEST_F(CommandTest, SetWithExpiry) {
    run({"SET", "k", "v", "PX", "500"});
    EXPECT_EQ(*db_.expire_at("k"), 1500);
    run({"SET", "k2", "v", "EX", "2"});
    EXPECT_EQ(*db_.expire_at("k2"), 3000);
}

TEST_F(CommandTest, SetExpiryRewrittenAbsolute) {
    const auto res = run({"SET", "k", "v", "PX", "500"});
    ASSERT_FALSE(res.repl_argv.empty());
    EXPECT_EQ(res.repl_argv[0], "SETPXAT");
    EXPECT_EQ(res.repl_argv[3], "1500");
}

TEST_F(CommandTest, SetKeepTtl) {
    run({"SET", "k", "v", "PX", "500"});
    run({"SET", "k", "v2", "KEEPTTL"});
    EXPECT_EQ(*db_.expire_at("k"), 1500);
    run({"SET", "k", "v3"});
    EXPECT_FALSE(db_.expire_at("k").has_value());
}

TEST_F(CommandTest, SetInvalidExpire) {
    run({"SET", "k", "v", "PX", "0"});
    EXPECT_EQ(last_reply_.front(), '-');
    run({"SET", "k", "v", "EX", "abc"});
    EXPECT_EQ(last_reply_.front(), '-');
}

TEST_F(CommandTest, SetnxSetexPsetex) {
    expect_reply({"SETNX", "k", "a"}, ":1\r\n");
    expect_reply({"SETNX", "k", "b"}, ":0\r\n");
    run({"SETEX", "e", "5", "v"});
    EXPECT_EQ(*db_.expire_at("e"), 6000);
    run({"PSETEX", "p", "250", "v"});
    EXPECT_EQ(*db_.expire_at("p"), 1250);
    run({"SETEX", "bad", "-1", "v"});
    EXPECT_EQ(last_reply_.front(), '-');
}

TEST_F(CommandTest, GetSet) {
    expect_reply({"GETSET", "k", "new"}, "$-1\r\n");
    expect_reply({"GETSET", "k", "newer"}, "$3\r\nnew\r\n");
}

TEST_F(CommandTest, GetdelReturnsAndRemoves) {
    run({"SET", "k", "v"});
    const auto v = run_value({"GETDEL", "k"});
    EXPECT_EQ(v.str, "v");
    EXPECT_FALSE(db_.exists("k"));
    const auto v2 = run_value({"GETDEL", "k"});
    EXPECT_EQ(v2.kind, resp::Value::Kind::kNull);
}

TEST_F(CommandTest, GetdelReplicatesAsDel) {
    run({"SET", "k", "v"});
    std::string out;
    const auto res =
        CommandTable::instance().execute(db_, rng_, {"GETDEL", "k"}, out);
    EXPECT_EQ(res.repl_argv, (std::vector<std::string>{"DEL", "k"}));
}

TEST_F(CommandTest, GetexSetsTtl) {
    run({"SET", "k", "v"});
    const auto v = run_value({"GETEX", "k", "PX", "500"});
    EXPECT_EQ(v.str, "v");
    EXPECT_EQ(*db_.expire_at("k"), 1500);
}

TEST_F(CommandTest, GetexPersist) {
    run({"SET", "k", "v", "PX", "500"});
    run({"GETEX", "k", "PERSIST"});
    EXPECT_FALSE(db_.expire_at("k").has_value());
}

TEST_F(CommandTest, GetexPlainDoesNotTouchTtl) {
    run({"SET", "k", "v", "PX", "500"});
    const auto v = run_value({"GETEX", "k"});
    EXPECT_EQ(v.str, "v");
    EXPECT_EQ(*db_.expire_at("k"), 1500);
}

TEST_F(CommandTest, GetexBadSyntax) {
    run({"SET", "k", "v"});
    std::string out;
    CommandTable::instance().execute(db_, rng_, {"GETEX", "k", "EX", "0"}, out);
    EXPECT_EQ(out.front(), '-');
    out.clear();
    CommandTable::instance().execute(db_, rng_, {"GETEX", "k", "WAT"}, out);
    EXPECT_EQ(out.front(), '-');
}

TEST_F(CommandTest, AppendStrlen) {
    expect_reply({"APPEND", "k", "ab"}, ":2\r\n");
    expect_reply({"APPEND", "k", "cd"}, ":4\r\n");
    expect_reply({"GET", "k"}, "$4\r\nabcd\r\n");
    expect_reply({"STRLEN", "k"}, ":4\r\n");
    expect_reply({"STRLEN", "missing"}, ":0\r\n");
}

TEST_F(CommandTest, IncrDecrFamily) {
    expect_reply({"INCR", "n"}, ":1\r\n");
    expect_reply({"INCR", "n"}, ":2\r\n");
    expect_reply({"DECR", "n"}, ":1\r\n");
    expect_reply({"INCRBY", "n", "10"}, ":11\r\n");
    expect_reply({"DECRBY", "n", "5"}, ":6\r\n");
}

TEST_F(CommandTest, IncrNonNumericFails) {
    run({"SET", "k", "abc"});
    run({"INCR", "k"});
    EXPECT_EQ(last_reply_.front(), '-');
}

TEST_F(CommandTest, IncrOverflow) {
    run({"SET", "k", "9223372036854775807"});
    run({"INCR", "k"});
    EXPECT_EQ(last_reply_.front(), '-');
    expect_reply({"GET", "k"}, "$19\r\n9223372036854775807\r\n");
}

TEST_F(CommandTest, IncrByFloatReplicatesResult) {
    run({"SET", "k", "10.5"});
    const auto res = run({"INCRBYFLOAT", "k", "0.25"});
    EXPECT_EQ(last_reply_, "$5\r\n10.75\r\n");
    ASSERT_FALSE(res.repl_argv.empty());
    EXPECT_EQ(res.repl_argv[0], "SET"); // deterministic rewrite
    EXPECT_EQ(res.repl_argv[2], "10.75");
}

TEST_F(CommandTest, MsetMget) {
    expect_reply({"MSET", "a", "1", "b", "2"}, "+OK\r\n");
    expect_reply({"MGET", "a", "b", "nope"},
                 "*3\r\n$1\r\n1\r\n$1\r\n2\r\n$-1\r\n");
    run({"MSET", "a", "1", "b"}); // odd arity
    EXPECT_EQ(last_reply_.front(), '-');
}

TEST_F(CommandTest, Msetnx) {
    expect_reply({"MSETNX", "a", "1", "b", "2"}, ":1\r\n");
    expect_reply({"MSETNX", "b", "9", "c", "3"}, ":0\r\n"); // b exists
    EXPECT_FALSE(db_.exists("c"));
}

TEST_F(CommandTest, GetRangeSetRange) {
    run({"SET", "k", "Hello World"});
    expect_reply({"GETRANGE", "k", "0", "4"}, "$5\r\nHello\r\n");
    expect_reply({"GETRANGE", "k", "-5", "-1"}, "$5\r\nWorld\r\n");
    expect_reply({"GETRANGE", "missing", "0", "1"}, "$0\r\n\r\n");
    expect_reply({"SETRANGE", "k", "6", "Redis"}, ":11\r\n");
    expect_reply({"GET", "k"}, "$11\r\nHello Redis\r\n");
    expect_reply({"SETRANGE", "pad", "3", "x"}, ":4\r\n");
    std::string v = db_.lookup("pad")->string_value();
    EXPECT_EQ(v, std::string("\0\0\0x", 4));
}

TEST_F(CommandTest, WrongTypeErrors) {
    run({"LPUSH", "lst", "a"});
    run({"GET", "lst"});
    EXPECT_EQ(last_reply_.rfind("-WRONGTYPE", 0), 0u);
    run({"INCR", "lst"});
    EXPECT_EQ(last_reply_.rfind("-WRONGTYPE", 0), 0u);
    run({"SET", "str", "v"});
    run({"LPUSH", "str", "x"});
    EXPECT_EQ(last_reply_.rfind("-WRONGTYPE", 0), 0u);
}

// --- keys ---------------------------------------------------------------------

TEST_F(CommandTest, DelExists) {
    run({"MSET", "a", "1", "b", "2"});
    expect_reply({"EXISTS", "a", "b", "c", "a"}, ":3\r\n");
    expect_reply({"DEL", "a", "b", "c"}, ":2\r\n");
    expect_reply({"EXISTS", "a"}, ":0\r\n");
}

TEST_F(CommandTest, ExpireTtlPersist) {
    run({"SET", "k", "v"});
    expect_reply({"EXPIRE", "k", "10"}, ":1\r\n");
    expect_reply({"TTL", "k"}, ":10\r\n");
    expect_reply({"PTTL", "k"}, ":10000\r\n");
    expect_reply({"PERSIST", "k"}, ":1\r\n");
    expect_reply({"TTL", "k"}, ":-1\r\n");
    expect_reply({"EXPIRE", "missing", "10"}, ":0\r\n");
    expect_reply({"TTL", "missing"}, ":-2\r\n");
}

TEST_F(CommandTest, ExpireReplicatedAsPexpireat) {
    run({"SET", "k", "v"});
    const auto res = run({"EXPIRE", "k", "10"});
    ASSERT_FALSE(res.repl_argv.empty());
    EXPECT_EQ(res.repl_argv[0], "PEXPIREAT");
    EXPECT_EQ(res.repl_argv[2], "11000");
}

TEST_F(CommandTest, ExpireInPastDeletes) {
    run({"SET", "k", "v"});
    const auto res = run({"EXPIREAT", "k", "0"});
    EXPECT_FALSE(db_.exists("k"));
    ASSERT_FALSE(res.repl_argv.empty());
    EXPECT_EQ(res.repl_argv[0], "DEL"); // replicated as an explicit delete
}

TEST_F(CommandTest, TypeCommand) {
    run({"SET", "s", "v"});
    run({"LPUSH", "l", "x"});
    expect_reply({"TYPE", "s"}, "+string\r\n");
    expect_reply({"TYPE", "l"}, "+list\r\n");
    expect_reply({"TYPE", "none"}, "+none\r\n");
}

TEST_F(CommandTest, KeysGlob) {
    run({"MSET", "user:1", "a", "user:2", "b", "other", "c"});
    expect_reply({"KEYS", "user:*"},
                 "*2\r\n$6\r\nuser:1\r\n$6\r\nuser:2\r\n");
    expect_reply({"KEYS", "user:?"},
                 "*2\r\n$6\r\nuser:1\r\n$6\r\nuser:2\r\n");
    expect_reply({"KEYS", "user:[12]"},
                 "*2\r\n$6\r\nuser:1\r\n$6\r\nuser:2\r\n");
    expect_reply({"KEYS", "nomatch*"}, "*0\r\n");
}

TEST_F(CommandTest, RenameFamily) {
    run({"SET", "a", "v"});
    run({"EXPIRE", "a", "100"});
    expect_reply({"RENAME", "a", "b"}, "+OK\r\n");
    EXPECT_FALSE(db_.exists("a"));
    EXPECT_EQ(db_.lookup("b")->string_value(), "v");
    EXPECT_TRUE(db_.expire_at("b").has_value()); // TTL travels
    run({"RENAME", "missing", "x"});
    EXPECT_EQ(last_reply_.front(), '-');
    run({"SET", "c", "w"});
    expect_reply({"RENAMENX", "c", "b"}, ":0\r\n"); // target exists
    expect_reply({"RENAMENX", "c", "d"}, ":1\r\n");
}

TEST_F(CommandTest, ObjectEncoding) {
    run({"SET", "i", "123"});
    expect_reply({"OBJECT", "ENCODING", "i"}, "$3\r\nint\r\n");
    run({"SET", "r", "abc"});
    expect_reply({"OBJECT", "ENCODING", "r"}, "$3\r\nraw\r\n");
    run({"RPUSH", "l", "a"});
    expect_reply({"OBJECT", "ENCODING", "l"}, "$9\r\nquicklist\r\n");
}

TEST_F(CommandTest, RandomKeyOnEmptyAndSingle) {
    expect_reply({"RANDOMKEY"}, "$-1\r\n");
    run({"SET", "only", "v"});
    expect_reply({"RANDOMKEY"}, "$4\r\nonly\r\n");
}

// --- lists ----------------------------------------------------------------------

TEST_F(CommandTest, PushPopBothEnds) {
    expect_reply({"RPUSH", "l", "a", "b"}, ":2\r\n");
    expect_reply({"LPUSH", "l", "z"}, ":3\r\n");
    expect_reply({"LRANGE", "l", "0", "-1"},
                 "*3\r\n$1\r\nz\r\n$1\r\na\r\n$1\r\nb\r\n");
    expect_reply({"LPOP", "l"}, "$1\r\nz\r\n");
    expect_reply({"RPOP", "l"}, "$1\r\nb\r\n");
    expect_reply({"LLEN", "l"}, ":1\r\n");
}

TEST_F(CommandTest, PopEmptiesRemoveKey) {
    run({"RPUSH", "l", "only"});
    run({"RPOP", "l"});
    EXPECT_FALSE(db_.exists("l"));
    expect_reply({"LPOP", "l"}, "$-1\r\n");
}

TEST_F(CommandTest, PushxRequiresExisting) {
    expect_reply({"LPUSHX", "nope", "v"}, ":0\r\n");
    expect_reply({"RPUSHX", "nope", "v"}, ":0\r\n");
    run({"RPUSH", "l", "a"});
    expect_reply({"RPUSHX", "l", "b"}, ":2\r\n");
}

TEST_F(CommandTest, LindexLset) {
    run({"RPUSH", "l", "a", "b", "c"});
    expect_reply({"LINDEX", "l", "1"}, "$1\r\nb\r\n");
    expect_reply({"LINDEX", "l", "-1"}, "$1\r\nc\r\n");
    expect_reply({"LINDEX", "l", "9"}, "$-1\r\n");
    expect_reply({"LSET", "l", "1", "B"}, "+OK\r\n");
    expect_reply({"LINDEX", "l", "1"}, "$1\r\nB\r\n");
    run({"LSET", "l", "9", "x"});
    EXPECT_EQ(last_reply_.front(), '-');
    run({"LSET", "missing", "0", "x"});
    EXPECT_EQ(last_reply_.front(), '-');
}

TEST_F(CommandTest, Lrem) {
    run({"RPUSH", "l", "x", "a", "x", "b", "x"});
    expect_reply({"LREM", "l", "2", "x"}, ":2\r\n"); // first two from head
    expect_reply({"LRANGE", "l", "0", "-1"},
                 "*3\r\n$1\r\na\r\n$1\r\nb\r\n$1\r\nx\r\n");
    run({"RPUSH", "l2", "x", "a", "x"});
    expect_reply({"LREM", "l2", "-1", "x"}, ":1\r\n"); // one from tail
    expect_reply({"LRANGE", "l2", "0", "-1"}, "*2\r\n$1\r\nx\r\n$1\r\na\r\n");
    run({"RPUSH", "l3", "x", "x"});
    expect_reply({"LREM", "l3", "0", "x"}, ":2\r\n"); // all
    EXPECT_FALSE(db_.exists("l3"));
}

TEST_F(CommandTest, Ltrim) {
    run({"RPUSH", "l", "a", "b", "c", "d", "e"});
    expect_reply({"LTRIM", "l", "1", "3"}, "+OK\r\n");
    expect_reply({"LRANGE", "l", "0", "-1"},
                 "*3\r\n$1\r\nb\r\n$1\r\nc\r\n$1\r\nd\r\n");
    run({"LTRIM", "l", "5", "9"}); // out of range: empties + deletes
    EXPECT_FALSE(db_.exists("l"));
}

TEST_F(CommandTest, Rpoplpush) {
    run({"RPUSH", "src", "a", "b"});
    expect_reply({"RPOPLPUSH", "src", "dst"}, "$1\r\nb\r\n");
    expect_reply({"LRANGE", "dst", "0", "-1"}, "*1\r\n$1\r\nb\r\n");
    expect_reply({"RPOPLPUSH", "missing", "dst"}, "$-1\r\n");
    // Rotation on the same key.
    run({"RPUSH", "rot", "1", "2", "3"});
    run({"RPOPLPUSH", "rot", "rot"});
    expect_reply({"LRANGE", "rot", "0", "-1"},
                 "*3\r\n$1\r\n3\r\n$1\r\n1\r\n$1\r\n2\r\n");
}

// --- server ---------------------------------------------------------------------

TEST_F(CommandTest, PingEcho) {
    expect_reply({"PING"}, "+PONG\r\n");
    expect_reply({"PING", "hello"}, "$5\r\nhello\r\n");
    expect_reply({"ECHO", "x"}, "$1\r\nx\r\n");
}

TEST_F(CommandTest, DbsizeFlush) {
    run({"MSET", "a", "1", "b", "2"});
    expect_reply({"DBSIZE"}, ":2\r\n");
    expect_reply({"FLUSHDB"}, "+OK\r\n");
    expect_reply({"DBSIZE"}, ":0\r\n");
}

TEST_F(CommandTest, SelectOnlyDbZero) {
    expect_reply({"SELECT", "0"}, "+OK\r\n");
    run({"SELECT", "3"});
    EXPECT_EQ(last_reply_.front(), '-');
}

TEST_F(CommandTest, TimeReflectsClock) {
    now_ms_ = 12'345;
    expect_reply({"TIME"}, "*2\r\n$2\r\n12\r\n$6\r\n345000\r\n");
}

// --- replication metadata --------------------------------------------------------

TEST_F(CommandTest, ReadsNeverReplicate) {
    run({"SET", "k", "v"});
    const auto res = run({"GET", "k"});
    EXPECT_FALSE(res.is_write);
    EXPECT_TRUE(res.repl_argv.empty());
}

TEST_F(CommandTest, NonDirtyWritesNotReplicated) {
    const auto res = run({"DEL", "missing"}); // no-op delete
    EXPECT_TRUE(res.is_write);
    EXPECT_FALSE(res.dirty);
    EXPECT_TRUE(res.repl_argv.empty());
}

TEST_F(CommandTest, DirtyWritesReplicateVerbatimByDefault) {
    const auto res = run({"SET", "k", "v"});
    EXPECT_EQ(res.repl_argv, (std::vector<std::string>{"SET", "k", "v"}));
}

} // namespace
} // namespace skv::kv
