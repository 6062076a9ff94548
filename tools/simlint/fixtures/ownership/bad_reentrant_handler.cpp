// Fixture for [reentrant-handler]: a message handler and a broken-link
// handler passed to ReliableChannel::wrap that re-enter Fabric::send
// synchronously (findings), against one that posts the send from a nested
// callback, which goes through the event queue (clean).
#include <functional>
#include <string>

struct Fabric {
    void send(int to, int bytes, std::function<void()> cb);
};

struct Node {
    Fabric& fabric() { return fabric_; }
    Fabric fabric_;
};

struct Channel {
    void set_on_message(std::function<void(std::string)> h);
};

struct ReliableChannel : Channel {
    static Channel* wrap(Channel* inner, std::function<void(const Channel*)> fn);
};

void install_bad(Channel* ch, Node* node) {
    ch->set_on_message([node](std::string payload) {
        node->fabric().send(1, 64, nullptr); // finding: synchronous re-entry
    });
}

void install_ok(Channel* ch, Node* node) {
    ch->set_on_message([node](std::string payload) {
        auto deliver = [node]() {
            node->fabric().send(1, 64, nullptr); // posted callback: fine
        };
        (void)deliver;
    });
}

void wrap_bad(Channel* ch, Node* node) {
    ReliableChannel::wrap(ch, [node](const Channel*) {
        node->fabric().send(1, 64, nullptr); // finding: synchronous re-entry
    });
}
