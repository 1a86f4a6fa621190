#include "exec/run_memo.hh"

#include <mutex>

#include "exec/run_pool.hh"
#include "support/logging.hh"
#include "vm/machine.hh"

namespace stm
{

RunMemo::RunMemo(ProgramPtr prog,
                 std::shared_ptr<const Instrumentation> plan,
                 const MachineOptions &base)
    : prog_(std::move(prog)), plan_(std::move(plan)), base_(base),
      prob_{base.sched.preemptSharedProb, base.irq.prob}
{
}

RunMemo::~RunMemo()
{
    recordRunMemo(hits(), paths());
}

std::uint64_t
RunMemo::paths() const
{
    std::shared_lock lock(mu_);
    return leaves_;
}

RunResult
RunMemo::run(std::uint64_t seed)
{
    if (std::optional<RunResult> hit = find(seed)) {
        ++hits_;
        return std::move(*hit);
    }
    MachineOptions opts = base_;
    opts.sched.seed = seed;
    Machine machine(prog_, opts, plan_);
    machine.recordSeedPath();
    RunResult result = machine.run();
    if (machine.seedRecord().pathComplete())
        insert(machine.seedRecord().path(), result);
    return result;
}

std::optional<RunResult>
RunMemo::find(std::uint64_t seed) const
{
    SeedStream rng(seed);
    auto draw = [&](std::uint8_t byte) {
        auto probe = static_cast<Probe>(byte >> 1);
        return rng.nextBool(prob_[byte >> 1], probe);
    };
    std::shared_lock lock(mu_);
    if (nodes_.empty())
        return std::nullopt;
    const Node *node = &nodes_[0];
    std::size_t i = 0;
    for (;;) {
        if (i == node->draws.size()) {
            if (node->leaf())
                return node->result;
            // The branch draw is the first of either child's stretch.
            std::uint8_t next = nodes_[node->child[0]].draws[0];
            node = &nodes_[node->child[draw(next)]];
            i = 1;
            continue;
        }
        std::uint8_t byte = node->draws[i++];
        if (draw(byte) != (byte & 1))
            return std::nullopt;
    }
}

void
RunMemo::insert(const std::vector<std::uint8_t> &path,
                const RunResult &result)
{
    std::unique_lock lock(mu_);

    // A new path gets a leaf without a result (see the file comment).
    auto leaf = [&](std::size_t from) {
        Node node;
        node.draws.assign(path.begin() + static_cast<std::ptrdiff_t>(from),
                          path.end());
        nodes_.push_back(std::move(node));
        ++leaves_;
        return static_cast<std::uint32_t>(nodes_.size() - 1);
    };
    if (nodes_.empty()) {
        leaf(0);
        return;
    }

    // A run is a function of its draws, so a path that agrees with a
    // stored one so far makes the same next draw with the same
    // probe: the two can part only on an outcome.
    std::uint32_t at = 0;
    std::size_t pos = 0;
    for (;;) {
        Node &node = nodes_[at];
        std::size_t i = 0;
        while (i < node.draws.size() && pos < path.size() &&
               node.draws[i] == path[pos]) {
            ++i;
            ++pos;
        }
        if (i < node.draws.size()) {
            if (pos == path.size() || (node.draws[i] ^ path[pos]) != 1)
                panic("a run left the decision path its draws fix");
            // Split: this node keeps draws[0, i) and branches to its
            // old tail and to the new path.
            Node tail;
            tail.draws.assign(node.draws.begin() +
                                  static_cast<std::ptrdiff_t>(i),
                              node.draws.end());
            tail.child[0] = node.child[0];
            tail.child[1] = node.child[1];
            tail.result = std::move(node.result);
            node.draws.resize(i);
            node.draws.shrink_to_fit();
            node.result.reset();
            int tailSide = tail.draws[0] & 1;
            nodes_.push_back(std::move(tail));
            auto tailAt = static_cast<std::uint32_t>(nodes_.size() - 1);
            std::uint32_t freshAt = leaf(pos);
            nodes_[at].child[tailSide] = tailAt;
            nodes_[at].child[1 - tailSide] = freshAt;
            return;
        }
        if (node.leaf()) {
            if (pos != path.size())
                panic("a run left the decision path its draws fix");
            // The path's second run (or a worker that raced the first).
            if (!node.result)
                node.result = result;
            return;
        }
        if (pos == path.size())
            panic("a run left the decision path its draws fix");
        at = node.child[path[pos] & 1];
    }
}

} // namespace stm
