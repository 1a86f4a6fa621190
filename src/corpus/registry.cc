#include "corpus/registry.hh"

#include <iterator>

#include "corpus/bugs.hh"
#include "support/logging.hh"

namespace stm::corpus
{

namespace
{

enum class Group : std::uint8_t {
    Sequential,
    Concurrency,
    Kernel,
    Micro,
    /** Built only by id (bugById). */
    ById,
};

/** One corpus entry: its id, its factory and its group. */
struct Entry
{
    const char *id;
    BugSpec (*make)();
    Group group;
};

/** Every entry, in the order the group functions list them. */
constexpr Entry kEntries[] = {
    {"apache1", makeApache1, Group::Sequential},
    {"apache2", makeApache2, Group::Sequential},
    {"apache3", makeApache3, Group::Sequential},
    {"cp", makeCp, Group::Sequential},
    {"cppcheck1", makeCppcheck1, Group::Sequential},
    {"cppcheck2", makeCppcheck2, Group::Sequential},
    {"cppcheck3", makeCppcheck3, Group::Sequential},
    {"lighttpd", makeLighttpd, Group::Sequential},
    {"ln", makeLn, Group::Sequential},
    {"mv", makeMv, Group::Sequential},
    {"paste", makePaste, Group::Sequential},
    {"pbzip1", makePbzip1, Group::Sequential},
    {"pbzip2", makePbzip2, Group::Sequential},
    {"rm", makeRm, Group::Sequential},
    {"sort", makeSort, Group::Sequential},
    {"squid1", makeSquid1, Group::Sequential},
    {"squid2", makeSquid2, Group::Sequential},
    {"tac", makeTac, Group::Sequential},
    {"tar1", makeTar1, Group::Sequential},
    {"tar2", makeTar2, Group::Sequential},
    {"apache4", makeApache4, Group::Concurrency},
    {"apache5", makeApache5, Group::Concurrency},
    {"cherokee", makeCherokee, Group::Concurrency},
    {"fft", makeFft, Group::Concurrency},
    {"lu", makeLu, Group::Concurrency},
    {"mozilla-js1", makeMozillaJs1, Group::Concurrency},
    {"mozilla-js2", makeMozillaJs2, Group::Concurrency},
    {"mozilla-js3", makeMozillaJs3, Group::Concurrency},
    {"mysql1", makeMysql1, Group::Concurrency},
    {"mysql2", makeMysql2, Group::Concurrency},
    {"pbzip3", makePbzip3, Group::Concurrency},
    {"kirq-race", makeKirqRace, Group::Kernel},
    {"kirq-noise", makeKirqNoise, Group::Kernel},
    {"kirq-atomic", makeKirqAtomic, Group::Kernel},
    {"kirq-storm", makeKirqStorm, Group::Kernel},
    {"kpanic", makeKPanic, Group::Kernel},
    {"ksys-check", makeKSysCheck, Group::Kernel},
    {"ksys-uar", makeKSysUar, Group::Kernel},
    {"ksysret-leak", makeKSysretLeak, Group::Kernel},
    {"kirq-noise-quiet", makeKirqNoiseQuiet, Group::ById},
    {"micro-rwr", makeMicroRwr, Group::Micro},
    {"micro-rww", makeMicroRww, Group::Micro},
    {"micro-wwr", makeMicroWwr, Group::Micro},
    {"micro-wrw", makeMicroWrw, Group::Micro},
    {"micro-rte", makeMicroReadTooEarly, Group::Micro},
    {"micro-rtl", makeMicroReadTooLate, Group::Micro},
};

std::vector<BugSpec>
build(Group group)
{
    std::vector<BugSpec> bugs;
    for (const Entry &entry : kEntries) {
        if (entry.group == group)
            bugs.push_back(entry.make());
    }
    return bugs;
}

} // namespace

std::vector<BugSpec>
sequentialBugs()
{
    return build(Group::Sequential);
}

std::vector<BugSpec>
concurrencyBugs()
{
    return build(Group::Concurrency);
}

std::vector<BugSpec>
microBugs()
{
    return build(Group::Micro);
}

std::vector<BugSpec>
kernelBugs()
{
    return build(Group::Kernel);
}

std::vector<BugSpec>
allBugs()
{
    std::vector<BugSpec> bugs = sequentialBugs();
    std::vector<BugSpec> concurrent = concurrencyBugs();
    bugs.insert(bugs.end(), std::make_move_iterator(concurrent.begin()),
                std::make_move_iterator(concurrent.end()));
    return bugs;
}

BugSpec
bugById(const std::string &id)
{
    for (const Entry &entry : kEntries) {
        if (id == entry.id)
            return entry.make();
    }
    fatal("unknown bug id '{}'", id);
}

} // namespace stm::corpus
