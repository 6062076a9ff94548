// Fixture: a cycle through a handler passed to ReliableChannel::wrap. The
// wrapper stores its broken-link handler, the record owns the wrapper, and
// the handler captures an owning pointer back to the record. Expect one
// [cycle] whose capture edge names the wrap call.
#include <functional>
#include <memory>
#include <string>

class Channel {};

using ChannelPtr = std::shared_ptr<Channel>;

struct ReliableChannel : Channel {
    static std::shared_ptr<ReliableChannel> wrap(
        ChannelPtr inner, std::function<void(const Channel*)> on_broken);
};

struct NodeConn {
    ChannelPtr channel;
    bool broken = false;
};

void adopt(ChannelPtr ch) {
    auto conn = std::make_shared<NodeConn>();
    conn->channel = ReliableChannel::wrap(
        std::move(ch), [conn](const Channel*) { conn->broken = true; });
}
