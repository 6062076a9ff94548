// Fixture: an allow-comment without the mandatory reason text must be a
// hard configuration error (exit 2), not a silent suppression.
#include <vector>

struct Completion {
    bool success = false;
};

struct Cq {
    std::vector<Completion> poll();
};

void f(Cq* cq) {
    cq->poll(); // simlint:allow(unchecked-status)
}
